"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --workloads xy_scan pt_loop point_query \
        --seeds 0 1 2 3 4 5 6 7 8 9 [--traced-seed 0] [--out perfbench/baseline.json]

For every workload and metric it prints the median and the spread, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. ``--out`` also stores every run's result (with the
figures it printed by name), the traced runs and the machine record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PRINTED = re.compile(r"^\s*([A-Za-z][\w.]*) (\S+) (\S+)")  # "<name> <value> <unit> ..."


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result, with the figures printed by name before it
    (``flux_pair_s``, ``query_p99_ms``, ...) added under ``printed``, and
    the machine record."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900).stdout
    lines = out.strip().splitlines()
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = PRINTED.match(line)
        if m and m.group(1) not in result["metrics"]:
            with contextlib.suppress(ValueError):
                printed[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    result["printed"] = printed
    return result, machine


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced-seed", type=int,
                        help="also record one --trace 1 run per workload with this seed")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, record["machine"] = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if summary[name]["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {summary[name]['median']:.6g} "
                  f"{summary[name]['unit']}, spread {summary[name]['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.traced_seed is not None:
            traced, _ = run_once(workload, args.traced_seed, args.seconds, 1)
            record["workloads"][workload]["traced"] = traced
            print(f"  {workload} traced seed {args.traced_seed}: correct={traced['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in traced["metrics"].items()),
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
