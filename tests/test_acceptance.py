"""Acceptance gate: seven end-to-end criteria, one PASS/FAIL line each.

The lines print straight to the terminal (outside pytest capture) so the
verdicts are visible in a normal ``pytest -v`` run.
"""

import gzip
import time
from pathlib import Path

import numpy as np
import pytest

from ptqgt import (
    FieldPoint,
    LoopSpec,
    PathSpec,
    ScanConfig,
    XYParams,
    adiabatic_phase,
    berry_phase_loop,
    critical_set,
    curvature_flux,
    dispersion,
    dk_matrix,
    metric_intensity,
    run_scan,
    write_csv,
)
from ptqgt.families import pt_two_level_family
from ptqgt.verify import FAST_CHECKS

ANISO = XYParams(J=1.0, Js=0.5, Gamma=1.0 / 3.0, Gammas=1.0 / 6.0)
PSEUDO_ISO = XYParams(J=1.0, Js=0.5, Gamma=0.25, Gammas=0.5)
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def _verdict(capsys, num, ok, detail):
    _announce(capsys, f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _scan_config(params, workers=1):
    return ScanConfig(
        params=params,
        h_range=(0.0, 3.0, 41),
        eta_range=(-0.95, 0.95, 41),
        n_quad=65,
        workers=workers,
    )


@pytest.fixture(scope="session")
def aniso_scan():
    t0 = time.monotonic()
    result = run_scan(_scan_config(ANISO))
    return result, time.monotonic() - t0


@pytest.fixture(scope="session")
def pseudo_scan():
    t0 = time.monotonic()
    result = run_scan(_scan_config(PSEUDO_ISO))
    return result, time.monotonic() - t0


# ------------------------------------------------------------ criterion 1


def test_criterion_1_critical_fields(capsys):
    crit = critical_set(ANISO)
    errs = [
        abs(crit.r_c1 - np.sqrt(35.0) / 3.0),
        abs(crit.r_c2 - np.sqrt(5.0) / 3.0),
        abs(crit.eta_c - 1.0),
    ]
    crit2 = critical_set(PSEUDO_ISO)
    errs += [
        abs(crit2.r_c1 - np.sqrt(3.0)),
        abs(crit2.r_c2 - np.sqrt(3.0) / 2.0),
        abs(crit2.eta_c - 1.0),
    ]
    ok = max(errs) <= 1e-12 and crit2.case == "pseudo_isotropic"
    _verdict(capsys, 1, ok, f"critical fields, worst error {max(errs):.2e}")
    assert ok


# ------------------------------------------------------------ criterion 2


def _local_maxima(values):
    idx = []
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            idx.append(i)
    return idx


def test_criterion_2_phase_diagram_ridges(capsys, aniso_scan, pseudo_scan):
    result, elapsed = aniso_scan
    result_pi, elapsed_pi = pseudo_scan
    cfg = result.config
    hs = cfg.h_values()
    etas = cfg.eta_values()
    eta0 = int(np.argmin(np.abs(etas)))
    assert abs(etas[eta0]) < 1e-12
    cell = hs[1] - hs[0]

    # (a) g11 ridge locations along the eta = 0 row
    g11_row = result.grid("g11")[eta0]
    crit = critical_set(ANISO)
    maxima_h = [hs[i] for i in _local_maxima(g11_row)]
    ok_a = any(abs(h - crit.r_c1) <= cell for h in maxima_h) and any(
        abs(h - crit.r_c2) <= cell for h in maxima_h
    )

    # (b) g22 diverges to -inf at the PT-breaking line, so the monotone
    # approach over the last 5 samples toward eta = 0.95 is strictly
    # decreasing (|g22| alone dips where g22 crosses zero mid-tail)
    g22 = result.grid("g22")
    ok_b = True
    for h_target in (0.25, 0.5, 1.0):
        col = int(np.argmin(np.abs(hs - h_target)))
        tail = g22[-5:, col]
        ok_b = ok_b and bool(np.all(np.diff(tail) < 0))

    # (c) pseudo-isotropic in-band elevation vs the h = 2.5 reference
    g11_pi = result_pi.grid("g11")[eta0]
    ref = metric_intensity(PSEUDO_ISO, FieldPoint(h=2.5, eta=0.0), n_quad=65)[0, 0]
    delta = 0.1
    band = (hs >= np.sqrt(3.0) / 2.0 + delta) & (hs <= np.sqrt(3.0) - delta)
    ratios = g11_pi[band] / ref
    ok_c = bool(np.all(ratios > 10.0))

    ok_time = elapsed <= 300.0 and elapsed_pi <= 300.0
    ok = ok_a and ok_b and ok_c and ok_time
    _verdict(
        capsys,
        2,
        ok,
        f"ridges within one cell: {ok_a}; g22 monotone divergence: {ok_b}; "
        f"pseudo-isotropic 10x elevation: {ok_c} "
        f"(measured min ratio {ratios.min():.2f}x, max {ratios.max():.2f}x); "
        f"scan times {elapsed:.0f}s/{elapsed_pi:.0f}s (limit 300s)",
    )
    assert ok_a, f"g11 maxima at {maxima_h}, expected near {crit.r_c2}, {crit.r_c1}"
    assert ok_b
    assert ok_time
    # The in-band values exceed the reference everywhere (min ratio ~4.8x)
    # but the literal 10x threshold is not attainable with converged
    # quadrature; asserted as written, expected to fail.
    assert ok_c, (
        f"in-band g11/reference ratio spans "
        f"[{ratios.min():.2f}, {ratios.max():.2f}]; the 10x threshold fails "
        f"for h >~ 1.23 even though every in-band value stays elevated"
    )


# ------------------------------------------------------------ criterion 3


def test_criterion_3_dispersion_oracle(capsys):
    rng = np.random.default_rng(2026)
    ks = (np.arange(64) + 0.5) * (np.pi / 2) / 64
    worst = 0.0
    for params in (ANISO, PSEUDO_ISO):
        for _ in range(20):
            f = FieldPoint(h=rng.uniform(0.0, 3.0), eta=rng.uniform(-0.9, 0.9))
            for k in ks:
                d = dispersion(params, f, k)
                expected = np.sort(
                    [
                        -d.lambda_plus.real,
                        -d.lambda_minus.real,
                        d.lambda_minus.real,
                        d.lambda_plus.real,
                    ]
                )
                e = np.linalg.eigvals(dk_matrix(params, f, k))
                worst = max(
                    worst,
                    float(np.max(np.abs(np.sort(e.real) - expected))),
                    float(np.max(np.abs(e.imag))),
                )
    ok = worst <= 1e-10
    _verdict(capsys, 3, ok, f"dispersion oracle, worst deviation {worst:.2e}")
    assert ok


# ------------------------------------------------------------ criterion 4


def test_criterion_4_cross_identity_suite(capsys):
    t0 = time.monotonic()
    results = [check(42) for check in FAST_CHECKS]
    elapsed = time.monotonic() - t0
    for r in results:
        _announce(
            capsys,
            f"  {'PASS' if r.passed else 'FAIL'}  {r.name:32s} "
            f"residual={r.residual:.3e}  tol={r.tol:.1e}",
        )
    ok = all(r.passed for r in results) and elapsed < 60.0
    _verdict(
        capsys, 4,
        ok,
        f"{sum(r.passed for r in results)}/{len(results)} identities in "
        f"{elapsed:.1f}s (limit 60s)",
    )
    assert ok


# ------------------------------------------------------------ criterion 5


def _rectangle_loop(lo, hi, per_side):
    xs = np.linspace(lo[0], hi[0], per_side, endpoint=False)
    ys = np.linspace(lo[1], hi[1], per_side, endpoint=False)
    bottom = np.stack([xs, np.full_like(xs, lo[1])], axis=1)
    right = np.stack([np.full_like(ys, hi[0]), ys], axis=1)
    top = np.stack(
        [np.linspace(hi[0], lo[0], per_side, endpoint=False),
         np.full(per_side, hi[1])],
        axis=1,
    )
    left = np.stack(
        [np.full(per_side, lo[0]),
         np.linspace(hi[1], lo[1], per_side, endpoint=False)],
        axis=1,
    )
    return np.concatenate([bottom, right, top, left, bottom[:1]], axis=0)


def test_criterion_5_stokes(capsys):
    t0 = time.monotonic()
    fam = pt_two_level_family()
    lo = np.array([0.05, 0.75])
    hi = np.array([0.25, 0.95])
    gamma = berry_phase_loop(
        fam, LoopSpec(vertices=_rectangle_loop(lo, hi, 192), level=0)
    )
    err64 = abs(curvature_flux(fam, lo, hi, (0, 1), resolution=64) + gamma)
    err128 = abs(curvature_flux(fam, lo, hi, (0, 1), resolution=128) + gamma)
    elapsed = time.monotonic() - t0
    improvement = err64 / max(err128, 1e-300)
    ok = err64 <= 1e-4 and improvement >= 2.5 and elapsed <= 30.0
    _verdict(
        capsys, 5,
        ok,
        f"stokes residual {err64:.2e} at 64^2, {err128:.2e} at 128^2 "
        f"({improvement:.1f}x improvement), {elapsed:.1f}s (limit 30s)",
    )
    assert ok


# ------------------------------------------------------------ criterion 6


def test_criterion_6_adiabatic(capsys):
    t0 = time.monotonic()
    fam = pt_two_level_family()
    center = np.array([0.15, 0.85])
    radius = 0.05
    diffs = []
    worst_drift = 0.0
    for tau in (50.0, 100.0, 200.0):
        path = PathSpec(
            curve=lambda t, _tau=tau: center
            + radius
            * np.array([np.cos(2 * np.pi * t / _tau), np.sin(2 * np.pi * t / _tau)]),
            duration=tau,
            closed=True,
        )
        out = adiabatic_phase(fam, path, n=0, n_steps=int(60 * tau))
        diffs.append(abs(out["gamma_sim"] - out["gamma_line"]))
        w = out["result"].w_norms
        worst_drift = max(worst_drift, float(np.max(np.abs(w - w[0]))))
    elapsed = time.monotonic() - t0
    monotone = diffs[0] > diffs[1] > diffs[2]
    ok = worst_drift <= 1e-8 and diffs[2] <= 1e-2 and monotone and elapsed <= 60.0
    _verdict(
        capsys, 6,
        ok,
        f"drift {worst_drift:.1e} (<=1e-8), |gamma_sim-gamma_line| "
        f"{diffs[0]:.1e} -> {diffs[1]:.1e} -> {diffs[2]:.1e} "
        f"(monotone={monotone}), {elapsed:.0f}s (limit 60s)",
    )
    assert ok


# ------------------------------------------------------------ criterion 7


def test_criterion_7_determinism(capsys, aniso_scan, tmp_path):
    serial, _ = aniso_scan
    parallel = run_scan(_scan_config(ANISO, workers=8))
    p1 = tmp_path / "serial.csv"
    p2 = tmp_path / "parallel.csv"
    write_csv(serial, str(p1))
    write_csv(parallel, str(p2))
    ok = p1.read_bytes() == p2.read_bytes()
    _verdict(
        capsys, 7,
        ok,
        "workers=1 and workers=8 scans produce byte-identical CSV",
    )
    assert ok


# ------------------------------------------------- recorded acceptance grids


def test_acceptance_grids_match_the_recorded_reference(aniso_scan, pseudo_scan):
    # A guard on eigensolver changes: both grids within 1e-12 relative of
    # the CSVs the benchmark recorded, with the same status at every point.
    for name, (result, _) in (("aniso", aniso_scan), ("pseudo_iso", pseudo_scan)):
        with gzip.open(REFERENCE_DIR / f"xy_scan_seed0_{name}.csv.gz", "rt",
                       encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(rows) == len(result.records) == 41 * 41
        for rec, row in zip(result.records, rows):
            assert (rec.h, rec.eta, rec.status) == (float(row[0]), float(row[1]), row[6])
            if rec.status == "ok":
                g = np.array([rec.g11, rec.g12, rec.g22])
                ref = np.array([float(v) for v in row[3:6]])
                assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), (name, row)
