"""Tests of the benchmark's own code: inputs, failure counting, self time.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import itertools
import json

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer, self_times


def _inputs(cls, seed, workdir):
    w = cls(seed, str(workdir))
    if cls is workloads.XYScan:
        configs = {}
        for key, (path, _) in w.configs.items():
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            cfg.pop("out_path")
            configs[key] = cfg
        return configs, list(itertools.islice(w.ops(), 12))
    if cls is workloads.PTLoop:
        return w.rect_centres.tolist(), w.circle_centres.tolist()
    return [(k, t, np.asarray(p).tolist(), n) for k, t, p, n in w.requests]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_same_inputs(cls, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(cls, 7, dirs[0])
    assert _inputs(cls, 7, dirs[1]) == first
    assert _inputs(cls, 8, dirs[2]) != first


def test_default_seed_scans_the_acceptance_grid():
    hs, etas = workloads.scan_grid(0)
    assert hs.tolist() == np.linspace(0.0, 3.0, 41).tolist()
    assert etas.tolist() == np.linspace(-0.95, 0.95, 41).tolist()


def _qgt_requests(query, count):
    return [r for r in query.requests if r[0] == "qgt_pt_two_level" and not r[3]][:count]


def test_wrong_output_counts_as_failure(tmp_path, monkeypatch):
    from ptqgt import geometry

    query = workloads.PointQuery(3, str(tmp_path))
    ops = _qgt_requests(query, 4)
    assert run.tally(query, run.closed_loop(query, 0, ops=ops)).failed == 0

    real_qgt = geometry.qgt

    def off_by_a_little(*args, **kwargs):
        t = real_qgt(*args, **kwargs)
        return type(t)(level=t.level, point=t.point, q=t.q * (1 + 1e-5))

    monkeypatch.setattr(geometry, "qgt", off_by_a_little)
    result = run.tally(query, run.closed_loop(query, 0, ops=ops))
    assert (result.attempted, result.failed, result.unexpected) == (4, 4, 4)
    assert result.fail_ratio == 1.0


def test_untyped_exception_counts_as_failure(tmp_path, monkeypatch):
    from ptqgt import geometry

    query = workloads.PointQuery(3, str(tmp_path))
    ops = _qgt_requests(query, 3)

    def broken(*args, **kwargs):
        raise RuntimeError("not a PtqgtError")

    monkeypatch.setattr(geometry, "qgt", broken)
    result = run.tally(query, run.closed_loop(query, 0, ops=ops))
    assert (result.attempted, result.failed, result.unexpected) == (3, 3, 3)


def test_typed_refusal_passes_only_near_critical():
    from ptqgt.errors import Degenerate

    refused = workloads.Record(op=None, error=Degenerate("gap"))
    never = lambda value: "unreachable"  # noqa: E731
    assert workloads.judge_value(refused, True, never).ok
    assert not workloads.judge_value(refused, False, never).ok


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children [1, 3] and [2, 4] (overlapping), [5, 6]
    # (which has a child [5.2, 5.5]) and [9, 12] (runs past the root).
    start = [0.0, 1.0, 2.0, 5.0, 5.2, 9.0]
    end = [10.0, 3.0, 4.0, 6.0, 5.5, 12.0]
    parent = [-1, 0, 0, 0, 3, 0]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - (3 + 1 + 1), 2.0, 2.0, 1 - 0.3, 0.3, 3.0])


def test_tracer_reaches_every_binding_and_restores_them():
    import numpy.linalg
    import scipy.linalg

    from ptqgt import biortho, cli, dynamics, geometry, verify, xy_chain

    original = biortho.biortho_eig
    eigs = (numpy.linalg.eig, scipy.linalg.eig)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        for mod in (geometry, dynamics, xy_chain, cli, verify):
            assert mod.biortho_eig.__perfbench_wrapped__ is original
        assert cli.run_scan.__perfbench_wrapped__ is not None
        assert cli.write_csv.__perfbench_wrapped__ is not None
        tracer.active = True
        tracer.op_id = 0
        geometry.qgt(geometry.HamiltonianFamily(2, 2, lambda lam: np.diag(
            [lam[0] + 2.0, -lam[1] - 2.0]).astype(complex)), [0.1, 0.2])
        tracer.active = False
    finally:
        tracer.uninstall()
    assert biortho.biortho_eig is original and geometry.biortho_eig is original
    assert (numpy.linalg.eig, scipy.linalg.eig) == eigs
    assert tracer.eig_total == 5 and tracer.eig_by_layer["biortho"] == 5


def test_speed_probe_rescales_by_the_nearby_kernel_times():
    from speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    # kernel samples at t = 0, 1 and 2 s taking 1x, 2x and 1x NOMINAL_S
    probe.starts = [0.0, 1.0, 2.0]
    probe.ends = [NOMINAL_S, 1.0 + 2 * NOMINAL_S, 2.0 + NOMINAL_S]
    slow = 1.0 / 1.5  # pieces between a 1x and a 2x sample run at 1/1.5 speed
    assert probe.normalised(0.5, 0.9) == pytest.approx(0.4 * slow)
    # the probe's own time inside an operation is left out
    assert probe.normalised(0.5, 1.5) == pytest.approx(
        (0.5 + (1.5 - 1.0 - 2 * NOMINAL_S)) * slow)


def test_reach_check_rejects_eigensolves_innermost_in_other_layers():
    from layers import ReachError, layer_metrics
    from ptqgt import geometry

    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.op_id = 0
        geometry.qgt(geometry.HamiltonianFamily(2, 2, lambda lam: np.diag(
            [lam[0] + 2.0, -lam[1] - 2.0]).astype(complex)), [0.1, 0.2])
        tracer.active = False
    finally:
        tracer.uninstall()
    assert layer_metrics(tracer, 1.0)["biortho.eig_matrices"] == (5, "count")
    # one more matrix, counted innermost in geometry: the reported layers
    # no longer add up to the total
    tracer.eig_by_layer["geometry"] += 1
    tracer.eig_total += 1
    with pytest.raises(ReachError):
        layer_metrics(tracer, 1.0)


def test_near_ep_probes_are_the_same_in_every_run(tmp_path):
    def probes(seed):
        query = workloads.PointQuery(seed, str(tmp_path))
        head, tail = (query.requests[:workloads.MIN_QUERIES],
                      query.requests[workloads.MIN_QUERIES:])
        assert not any(near for *_, near in tail)
        return [np.asarray(p).tolist() for _, _, p, near in head if near]

    first = probes(7)
    assert len(first) == workloads.NEAR_EP_PROBES
    assert probes(8) == first
