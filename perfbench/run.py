"""Benchmark ptqgt end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the repository root:

    python3 perfbench/run.py --workload xy_scan --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
machine record and every end-to-end metric under its workload-specific
name.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 11
# One caller, one BLAS thread: the matrices are 2x2 and 4x4, and a fixed
# thread count keeps the figures independent of the other cores' load.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _prepare_imports() -> None:
    if not os.path.isfile(os.path.join(SRC, "ptqgt", "__init__.py")):
        raise SystemExit(f"perfbench: no ptqgt package under {SRC}")
    for var in THREAD_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_ENV[:2]},
    }


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of start -> first operation ready, as
    measured and at the speed probe's nominal speed.

    Each child runs pinned to this process's CPU, where the probe kernel
    is timed three times right before and after it; unpinned, children
    landed on either core and rescaling made the figure noisier, not
    steadier.
    """
    from speed import NOMINAL_S, kernel_seconds

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    samples = []
    try:
        for _ in range(SETUP_SAMPLES):
            kernels = [kernel_seconds() for _ in range(3)]
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                stdout=subprocess.PIPE, cwd=ROOT, text=True)
            try:
                line = proc.stdout.readline()
                wall = time.perf_counter() - t0
                proc.stdout.read()
            finally:
                proc.stdout.close()
                code = proc.wait()
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"set-up process exited with {code}")
            kernels += [kernel_seconds() for _ in range(3)]
            samples.append((wall, wall * NOMINAL_S / statistics.median(kernels)))
    finally:
        os.sched_setaffinity(0, cpus)
    return (statistics.median(w for w, _ in samples),
            statistics.median(n for _, n in samples))


def closed_loop(workload, seconds: float, tracer=None, ops=None):
    """Run operations back to back until the workload is done with a run of
    ``seconds`` (or replay ``ops``).

    ``Record.wall`` is the wall time of an operation; ``Record.seconds`` is
    its time at the speed probe's nominal machine speed.
    """
    from speed import SpeedProbe
    from workloads import Record

    records = []
    source = workload.ops() if ops is None else iter(ops)
    with SpeedProbe() as probe:
        t_start = time.perf_counter()
        for k, op in enumerate(source):
            if tracer is not None:
                tracer.op_id = k
            rec = Record(op)
            t0 = time.perf_counter()
            try:
                rec.value = workload.run(op)
            except Exception as exc:  # every failure is counted, never fatal
                rec.error = exc
            t1 = time.perf_counter()
            rec.wall = t1 - t0
            rec.span = (t0, t1)
            records.append(rec)
            if ops is None and workload.done(records, t1 - t_start, seconds):
                break
    if tracer is not None:
        tracer.op_id = -1
    for rec in records:
        rec.seconds = probe.normalised(*rec.span)
    return records


def tally(workload, records):
    from workloads import Tally

    t = Tally()
    for verdict in workload.judge(records):
        t.add(verdict)
    return t


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workdir) -> tuple:
    from workloads import WORKLOADS

    raw_setup_s, setup_s = setup_seconds(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    records = closed_loop(workload, args.seconds)
    rss = peak_rss_mb()
    wall = sum(r.wall for r in records)
    summary = workload.summary(records)
    result = tally(workload, records)
    print(f"{wall!r} s of operations measured; times below are at the probe's nominal "
          f"speed, {sum(r.seconds for r in records) / wall!r} x measured")
    for line in summary["lines"]:
        print(line)
    print(f"setup_s {setup_s!r} s (median of {SETUP_SAMPLES} fresh processes; "
          f"{raw_setup_s!r} s measured)")
    print(f"peak_rss_mb {rss!r} MB")
    print(f"fail_ratio {result.fail_ratio!r} ratio ({result.failed} failed of "
          f"{result.attempted} attempted, {result.unexpected} not near-critical)")
    for note in result.notes:
        print(f"  failure: {note}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "work_per_s": (summary["work_per_s"], "1/s"),
    }
    return result, metrics


def per_layer(args, workdir) -> tuple:
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    import ptqgt  # noqa: F401  (every module imported before wrapping)

    tracer = Tracer()
    tracer.install()
    missed = tracer.unwrapped_bindings()
    if missed:
        raise RuntimeError(f"bindings left unwrapped: {missed}")
    tracer.active = True
    workload = WORKLOADS[args.workload](args.seed, workdir)
    # Both loops are rescaled by the speed probe so that the ratio does not
    # follow the host's load; the probe calls no wrapped function.
    records = closed_loop(workload, args.seconds, tracer=tracer)
    tracer.uninstall()
    # Judged before the replay, which rewrites the traced run's output files.
    result = tally(workload, records)
    replay = closed_loop(workload, 0.0, ops=[r.op for r in records])
    overhead = sum(r.seconds for r in records) / sum(r.seconds for r in replay)
    metrics = layer_metrics(tracer, overhead)
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.write(path)
    print(f"trace: {len(tracer.start)} spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the xy_scan reference CSVs for seed 0")
    args = parser.parse_args(argv)
    _prepare_imports()
    import speed  # noqa: F401  (binds numpy's eig before a traced run wraps it)
    from workloads import WORKLOADS, record_reference

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.record_reference:
            record_reference(workdir)
            return 0
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        print("machine " + json.dumps(machine_record()))
        print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, "
              f"{args.seconds:g} s, trace {args.trace}")
        run = per_layer if args.trace else end_to_end
        result, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": result.unexpected == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
