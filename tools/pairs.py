"""Parent/change pairs of perfbench runs and the speed-claim protocol.

    python3 tools/pairs.py --parent HEAD~1 --change HEAD \
        [--seeds 0 1 2 3 4 5 6 7 8 9] [--seeds 20 21 22 23] [--out PATH]

Both revisions are exported with ``git archive`` into a temporary
directory, removed at the end. For every workload of
BENCHMARK.json and every seed, each tree runs its own benchmark through
its own ``perfbench/collect.py`` (``run_once``, untraced, for
BENCHMARK.json's ``run_seconds``), the parent first in even pairs and the
change first in odd ones. Each ``--seeds`` group is a set of pairs judged
on its own, per end-to-end metric of BENCHMARK.json:

- wins k/n: pairs where the change is better; a tie counts for neither;
- the medians of both sides and the parent's quartiles and IQR
  (``statistics.quantiles(values, n=4)``, as ``perfbench/collect.py``);
- ``worse_by``: how much worse the change's median is than the parent's,
  as a share of the parent's, and ``within_bound`` against the metric's
  bound;
- ``holds``: better in at least 9 of 10 pairs (the same share of any n),
  the medians apart by more than the parent's IQR in the better
  direction, every change run correct, and no larger share of
  operations failed than at the parent.

The record is written to ``--out`` (default ``BENCH_<short change sha>.json``
at the repository root) in ``collect.py --out``'s format for the change's
runs (``seconds``, ``seeds``, ``machine``, per workload ``summary`` and
``runs``), with the parent's runs, the verdicts of each set, and each
median against ``perfbench/baseline.json``. Nothing under ``perfbench/``
is edited.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9  # better in at least 9 of 10 pairs


def verdict(parent, change, better: str, bound: float, sound: bool = True) -> dict:
    """The protocol on one metric: ``parent[i]`` and ``change[i]`` are the
    two runs of pair i; ``better`` is "higher" or "lower"; ``bound`` the
    share by which the change's median may be worse than the parent's;
    ``sound`` False when the change's runs fail the correctness terms,
    which no gain outweighs."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, as many parent runs as change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    gain = sign * (change_median - parent_median)  # > 0 when the change is better
    worse_by = -gain / parent_median if parent_median else math.nan
    return {
        "better": better, "n": len(parent), "wins": wins, "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent_median": parent_median, "change_median": change_median,
        "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
        "ratio": change_median / parent_median if parent_median else math.nan,
        "bound": bound, "worse_by": worse_by, "within_bound": worse_by <= bound,
        "holds": sound and wins >= math.ceil(WIN_SHARE * len(parent)) and gain > q3 - q1,
    }


def judge_set(parent_runs, change_runs, metrics: dict) -> dict:
    """One set of pairs: each side's failed operations and correctness,
    and the verdict on every metric; ``metrics`` maps each name to its
    BENCHMARK.json entry (``better``, ``bound``)."""
    outcome = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        outcome[side] = {"correct": all(r["correct"] for r in runs), "failed": failed,
                         "attempted": attempted,
                         "failed_share": failed / attempted if attempted else math.nan}
    sound = (outcome["change"]["correct"]
             and outcome["change"]["failed_share"] <= outcome["parent"]["failed_share"])
    values = {side: {name: [r["metrics"][name]["value"] for r in runs] for name in metrics}
              for side, runs in (("parent", parent_runs), ("change", change_runs))}
    return {"outcome": outcome, "sound": sound, "metrics": {
        name: verdict(values["parent"][name], values["change"][name], m["better"], m["bound"],
                      sound)
        for name, m in metrics.items()}}


def against_baseline(medians: dict, baseline: dict) -> dict:
    """Each median over the baseline's median of the same metric."""
    return {side: {name: {"value": value, "baseline": baseline[name]["median"],
                          "ratio": value / baseline[name]["median"]}
                   for name, value in values.items() if name in baseline}
            for side, values in medians.items()}


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def _collect(tree: str, side: str):
    """``tree``'s own perfbench/collect.py, loaded by path: its
    ``run_once`` runs that tree's benchmark."""
    spec = importlib.util.spec_from_file_location(
        f"collect_{side}", os.path.join(tree, "perfbench", "collect.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(collects: dict, workloads, seed_sets, seconds: int, metrics: dict,
            log=print) -> dict:
    """Run the pairs and judge them; ``collects`` maps "parent" and
    "change" to each tree's collect module, ``metrics`` each end-to-end
    metric name to its BENCHMARK.json entry."""
    record = {"seconds": seconds, "seeds": [s for group in seed_sets for s in group],
              "workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        sets = []
        for group in seed_sets:
            start = len(runs["parent"])
            for seed in group:
                pair = ["parent", "change"]
                if len(runs["parent"]) % 2:  # odd pairs run the change first
                    pair.reverse()
                for side in pair:
                    result, record["machine"] = collects[side].run_once(workload, seed,
                                                                        seconds, 0)
                    result["seed"] = seed
                    runs[side].append(result)
                log(f"{workload} seed {seed}: " + " ".join(
                    f"{name} {runs['parent'][-1]['metrics'][name]['value']:.6g}"
                    f" -> {runs['change'][-1]['metrics'][name]['value']:.6g}" for name in metrics)
                    + " failed " + " -> ".join(str(runs[side][-1]["failed"])
                                               for side in ("parent", "change")))
            sets.append({"seeds": list(group),
                         **judge_set(runs["parent"][start:], runs["change"][start:], metrics)})
        summary = {}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in runs["change"]]
            summary[name] = {"median": statistics.median(values),
                             "spread": collects["change"].spread(values),
                             "unit": runs["change"][0]["metrics"][name]["unit"]}
        record["workloads"][workload] = {"summary": summary, "runs": runs["change"],
                                         "parent_runs": runs["parent"], "sets": sets}
    return record


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seeds", nargs="+", type=int, action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seed_sets = args.seeds or [list(range(10))]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    out = args.out or os.path.join(ROOT, f"BENCH_{shas['change'][:7]}.json")

    scratch = tempfile.mkdtemp(prefix="pairs-")
    trees = {side: os.path.join(scratch, side) for side in shas}
    try:
        for side, sha in shas.items():
            archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                                     check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(trees[side], filter="data")
        collects = {side: _collect(tree, side) for side, tree in trees.items()}
        record = measure(collects, workloads, seed_sets, bench["run_seconds"], metrics,
                         log=lambda line: print(line, flush=True))
    finally:
        shutil.rmtree(scratch)

    record["revisions"] = {side: {"commit": sha, "src_tree": _git("rev-parse", f"{sha}:src"),
                                  "perfbench_tree": _git("rev-parse", f"{sha}:perfbench")}
                           for side, sha in shas.items()}
    with open(os.path.join(ROOT, "perfbench", "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["workloads"]
    for workload, entry in record["workloads"].items():
        medians = {side: {name: statistics.median(r["metrics"][name]["value"] for r in runs)
                          for name in metrics}
                   for side, runs in (("parent", entry["parent_runs"]), ("change", entry["runs"]))}
        entry["baseline"] = against_baseline(medians, baseline[workload]["summary"])
        for verdicts in entry["sets"]:
            seeds = f"{verdicts['seeds'][0]}-{verdicts['seeds'][-1]}"
            failed = verdicts["outcome"]
            print(f"{workload} seeds {seeds}: failed {failed['parent']['failed']} -> "
                  f"{failed['change']['failed']}, change correct {failed['change']['correct']}")
            for name, v in verdicts["metrics"].items():
                print(f"{workload} seeds {seeds} {name}: "
                      f"{v['parent_median']:.6g} -> {v['change_median']:.6g} "
                      f"(x{v['ratio']:.4f}), better in {v['wins']}/{v['n']}, "
                      f"parent IQR {v['parent_iqr']:.4g}, worse by {v['worse_by']:+.4f} "
                      f"(bound {v['bound']}), holds {v['holds']}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
