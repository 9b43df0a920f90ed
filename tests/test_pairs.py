"""The protocol arithmetic of tools/pairs.py, without running the benchmark."""

import importlib.util
import math
import pathlib
import statistics

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_wins_losses_and_ties_follow_the_better_direction():
    parent = [10.0, 10.0, 10.0, 10.0, 10.0]
    change = [11.0, 12.0, 10.0, 9.0, 13.0]
    up = pairs.verdict(parent, change, "higher", 0.2)
    assert (up["wins"], up["losses"], up["ties"], up["n"]) == (3, 1, 1, 5)
    down = pairs.verdict(parent, change, "lower", 0.2)
    assert (down["wins"], down["losses"], down["ties"]) == (1, 3, 1)


def test_medians_quartiles_and_iqr_are_collects():
    parent = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0, 10.0, 9.0]
    change = [v + 100.0 for v in parent]
    v = pairs.verdict(parent, change, "higher", 0.2)
    q1, _, q3 = statistics.quantiles(parent, n=4)  # exclusive method: 2.75, 8.25
    assert (v["parent_q1"], v["parent_q3"]) == (q1, q3) == (2.75, 8.25)
    assert v["parent_iqr"] == 5.5
    assert v["parent_median"] == 5.5 and v["change_median"] == 105.5
    assert v["ratio"] == 105.5 / 5.5


def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]  # IQR 5.5
    change = [p + 10.0 for p in parent]
    assert pairs.verdict(parent, change, "higher", 0.2)["holds"]
    # one pair lost: 9/10 still holds, two lost does not
    change[0] = 50.0
    assert pairs.verdict(parent, change, "higher", 0.2)["wins"] == 9
    assert pairs.verdict(parent, change, "higher", 0.2)["holds"]
    change[1] = 50.0
    assert not pairs.verdict(parent, change, "higher", 0.2)["holds"]
    # every pair won, but the medians closer than the parent's IQR
    close = [p + 1.0 for p in parent]
    v = pairs.verdict(parent, close, "higher", 0.2)
    assert v["wins"] == 10 and v["change_median"] - v["parent_median"] < v["parent_iqr"]
    assert not v["holds"]
    # a tie counts for neither side, so it is not a win
    tied = [p + 10.0 for p in parent]
    tied[3] = parent[3]
    assert pairs.verdict(parent, tied, "higher", 0.2)["ties"] == 1
    tied[4] = parent[4]
    assert not pairs.verdict(parent, tied, "higher", 0.2)["holds"]


def test_a_lower_is_better_metric_gains_downward():
    parent = [10.0, 11.0, 12.0, 13.0]
    assert pairs.verdict(parent, [p - 5.0 for p in parent], "lower", 0.2)["holds"]
    assert not pairs.verdict(parent, [p + 5.0 for p in parent], "lower", 0.2)["holds"]


def test_a_small_set_must_win_every_pair():
    # 9 of 10 as a share: ceil(0.9 * 4) = 4 of 4
    parent = [10.0, 10.5, 11.0, 11.5]
    change = [20.0, 20.0, 20.0, 11.0]
    assert not pairs.verdict(parent, change, "higher", 0.2)["holds"]
    change[3] = 20.0
    assert pairs.verdict(parent, change, "higher", 0.2)["holds"]


def test_verdict_refuses_unpaired_or_unknown_input():
    with pytest.raises(ValueError):
        pairs.verdict([1.0, 2.0], [1.0], "higher", 0.2)
    with pytest.raises(ValueError):
        pairs.verdict([1.0], [2.0], "higher", 0.2)
    with pytest.raises(ValueError):
        pairs.verdict([1.0, 2.0], [1.0, 2.0], "faster", 0.2)


def test_worse_by_is_the_share_against_the_bound():
    parent = [100.0, 100.0, 100.0, 100.0]
    slower = pairs.verdict(parent, [85.0, 85.0, 85.0, 85.0], "higher", 0.2)
    assert slower["worse_by"] == 0.15 and slower["within_bound"] and not slower["holds"]
    assert not pairs.verdict(parent, [79.0] * 4, "higher", 0.2)["within_bound"]
    # a lower-is-better metric is worse when it rises
    assert pairs.verdict(parent, [110.0] * 4, "lower", 0.1)["worse_by"] == 0.1
    assert not pairs.verdict(parent, [111.0] * 4, "lower", 0.1)["within_bound"]
    better = pairs.verdict(parent, [50.0] * 4, "lower", 0.1)
    assert better["worse_by"] == -0.5 and better["within_bound"] and better["holds"]


def _runs(values, failed=0, attempted=100, correct=True):
    return [{"correct": correct, "failed": failed, "attempted": attempted,
             "metrics": {"work_per_s": {"value": v}, "op_p50_ms": {"value": 1000.0 / v}}}
            for v in values]


METRICS = {"work_per_s": {"better": "higher", "bound": 0.2},
           "op_p50_ms": {"better": "lower", "bound": 0.2}}


def test_a_set_holds_only_when_the_change_fails_no_more_and_is_correct():
    parent = [100.0 + i for i in range(10)]
    faster = [p + 20.0 for p in parent]
    ok = pairs.judge_set(_runs(parent, failed=2), _runs(faster, failed=2), METRICS)
    assert ok["sound"] and all(v["holds"] for v in ok["metrics"].values())
    assert ok["outcome"]["change"] == {"correct": True, "failed": 20, "attempted": 1000,
                                       "failed_share": 0.02}
    # one more failed operation than the parent: no gain holds
    worse = _runs(faster, failed=2)
    worse[3]["failed"] = 3
    judged = pairs.judge_set(_runs(parent, failed=2), worse, METRICS)
    assert not judged["sound"]
    assert not any(v["holds"] for v in judged["metrics"].values())
    assert judged["metrics"]["work_per_s"]["wins"] == 10  # the arithmetic is still reported
    # one incorrect run of the change: no gain holds
    wrong = _runs(faster)
    wrong[0]["correct"] = False
    assert not pairs.judge_set(_runs(parent), wrong, METRICS)["sound"]
    # fewer failures than the parent, or an incorrect parent run, do not block it
    parent_runs = _runs(parent, failed=5)
    parent_runs[1]["correct"] = False
    assert pairs.judge_set(parent_runs, _runs(faster, failed=1), METRICS)["sound"]


def test_medians_against_the_baseline():
    baseline = {"work_per_s": {"median": 100.0}, "op_p50_ms": {"median": 4.0}}
    out = pairs.against_baseline({"parent": {"work_per_s": 1250.0, "op_p50_ms": 2.0},
                                  "change": {"work_per_s": 1500.0, "other": 1.0}}, baseline)
    assert out["parent"]["work_per_s"] == {"value": 1250.0, "baseline": 100.0, "ratio": 12.5}
    assert out["parent"]["op_p50_ms"]["ratio"] == 0.5
    assert out["change"] == {"work_per_s": {"value": 1500.0, "baseline": 100.0, "ratio": 15.0}}
    assert math.isclose(out["change"]["work_per_s"]["ratio"] / out["parent"]["work_per_s"]["ratio"],
                        1.2)
