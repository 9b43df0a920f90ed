import numpy as np
import pytest

import ptqgt.scan as scan_mod
from ptqgt import (
    DefectiveMatrix,
    FieldPoint,
    ScanConfig,
    XYParams,
    metric_intensity,
    run_scan,
    write_csv,
)
from ptqgt.scan import CSV_HEADER

ANISO = XYParams(J=1.0, Js=0.5, Gamma=1.0 / 3.0, Gammas=1.0 / 6.0)


def small_config(**kw):
    defaults = dict(
        params=ANISO,
        h_range=(0.2, 0.8, 3),
        eta_range=(-0.4, 0.4, 3),
        n_quad=24,
        workers=1,
    )
    defaults.update(kw)
    return ScanConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(h_range=(0.0, 1.0, 1))
    with pytest.raises(ValueError):
        small_config(n_quad=8)
    with pytest.raises(ValueError):
        small_config(eta_range=(0.0, np.inf, 3))
    with pytest.raises(ValueError, match="must be integers"):
        small_config(h_range=(0.0, 1.0, 3.5))
    with pytest.raises(ValueError, match="must be integers"):
        small_config(n_quad=20.5)
    with pytest.raises(ValueError, match="must be integers"):
        small_config(workers=1.0)
    with pytest.raises(ValueError, match="must be integers"):
        small_config(workers=True)  # a bool is not a worker count
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            small_config(workers=workers)
    cfg = small_config()
    assert np.allclose(cfg.h_values(), [0.2, 0.5, 0.8])
    assert np.allclose(cfg.eta_values(), [-0.4, 0.0, 0.4])


def test_run_scan_smoke_and_ordering():
    cfg = small_config()
    result = run_scan(cfg)
    assert len(result.records) == 9
    # row-major: eta outer, h inner
    etas = [rec.eta for rec in result.records]
    hs = [rec.h for rec in result.records]
    assert etas == sorted(etas)
    assert hs[:3] == [0.2, 0.5, 0.8]
    for rec in result.records:
        assert rec.status == "ok"
        assert rec.unbroken
        g_ref = metric_intensity(ANISO, FieldPoint(h=rec.h, eta=rec.eta),
                                 n_quad=24)
        assert abs(rec.g11 - g_ref[0, 0]) < 1e-14
        assert abs(rec.g12 - g_ref[0, 1]) < 1e-14
        assert abs(rec.g22 - g_ref[1, 1]) < 1e-14


def test_grid_accessor_shape():
    cfg = small_config(h_range=(0.2, 0.8, 4))
    result = run_scan(cfg)
    grid = result.grid("g11")
    assert grid.shape == (3, 4)  # (n_eta, n_h)
    assert np.all(np.isfinite(grid))


def test_broken_rows_have_no_metric():
    cfg = small_config(eta_range=(0.9, 1.1, 3))  # eta = 1.0, 1.1 >= eta_c
    result = run_scan(cfg)
    broken = [rec for rec in result.records if abs(rec.eta) >= 1.0]
    assert len(broken) == 6
    for rec in broken:
        assert rec.status == "broken"
        assert not rec.unbroken
        assert rec.g11 is None and rec.g12 is None and rec.g22 is None


def test_degenerate_cells_marked_inf(monkeypatch):
    # every eigensolve refuses: each chunk is replayed point by point, and
    # each point is refused in turn
    def boom(*args, **kwargs):
        raise DefectiveMatrix("forced for the test")

    monkeypatch.setattr(scan_mod.xy_chain, "biortho_eig", boom)
    result = run_scan(small_config())
    for rec in result.records:
        assert rec.status == "degenerate"
        assert rec.g11 == float("inf")


def test_refused_point_leaves_its_chunk_neighbours_ok(monkeypatch):
    cfg = small_config(h_range=(0.0, 1.0, 11), eta_range=(-0.4, 0.4, 2))
    assert cfg.h_range[2] > scan_mod._CHUNK  # the refusal sits inside a full chunk
    refs = {(float(h), float(eta)): metric_intensity(
                ANISO, FieldPoint(h=float(h), eta=float(eta)), n_quad=cfg.n_quad)
            for eta in cfg.eta_values() for h in cfg.h_values()}
    real = scan_mod.xy_chain.biortho_eig
    h_bad = 0.5

    def picky(blocks):
        # D_k[0, 0] - D_k[2, 2] = 2h in every block
        h = (blocks[..., 0, 0] - blocks[..., 2, 2]).real / 2.0
        if np.any(np.abs(h - h_bad) < 1e-12):
            raise DefectiveMatrix("forced for the test")
        return real(blocks)

    def forbidden(*args, **kwargs):
        raise AssertionError("the scan re-runs points through its own kernel call")

    monkeypatch.setattr(scan_mod.xy_chain, "biortho_eig", picky)
    monkeypatch.setattr(scan_mod.xy_chain, "metric_intensity", forbidden)
    result = run_scan(cfg)
    assert len(result.records) == 22
    for rec in result.records:
        if rec.h == h_bad:
            assert rec.status == "degenerate" and rec.g11 == float("inf")
            continue
        assert rec.status == "ok"
        g = refs[(rec.h, rec.eta)]
        assert (rec.g11, rec.g12, rec.g22) == (g[0, 0], g[0, 1], g[1, 1])


def test_scanned_values_equal_one_point_intensity_bitwise():
    cfg = small_config(h_range=(0.0, 3.0, 41), eta_range=(-0.95, 0.95, 2), n_quad=65)
    result = run_scan(cfg)
    for rec in result.records:
        assert rec.status == "ok"
        g = metric_intensity(ANISO, FieldPoint(h=rec.h, eta=rec.eta), n_quad=65)
        assert (rec.g11, rec.g12, rec.g22) == (g[0, 0], g[0, 1], g[1, 1])


def test_row_makes_one_eigensolve_per_chunk(monkeypatch):
    from ptqgt import xy_chain

    calls = {"eig": 0, "leggauss": 0}
    eig, leggauss = np.linalg.eig, xy_chain.leggauss

    def counted_eig(a):
        calls["eig"] += 1
        return eig(a)

    def counted_leggauss(n):
        calls["leggauss"] += 1
        return leggauss(n)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(xy_chain, "leggauss", counted_leggauss)
    xy_chain._gl_nodes.cache_clear()
    hs = np.linspace(0.0, 3.0, 41)
    records = scan_mod._scan_row((ANISO, hs, 0.3, 65))
    assert [rec.status for rec in records] == ["ok"] * 41
    assert calls["eig"] == -(-41 // scan_mod._CHUNK)
    scan_mod._scan_row((ANISO, hs, -0.3, 65))
    assert calls["leggauss"] == 1


def test_csv_output_and_gnuplot(tmp_path):
    cfg = small_config(eta_range=(0.9, 1.1, 3))
    result = run_scan(cfg)
    out = tmp_path / "scan.csv"
    write_csv(result, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 9
    first_ok = next(l for l in lines[1:] if l.endswith(",ok"))
    fields = first_ok.split(",")
    assert len(fields) == 7
    # repr round-trip: parsing the text recovers the exact float
    rec = next(r for r in result.records if r.status == "ok")
    assert float(fields[3]) == rec.g11
    # broken rows leave the tensor columns empty
    broken_line = next(l for l in lines[1:] if l.endswith(",broken"))
    assert ",false," in broken_line
    assert broken_line.split(",")[3:6] == ["", "", ""]
    gp = tmp_path / "scan.csv.gp"
    assert gp.exists()
    assert "splot" in gp.read_text()


def test_parallel_matches_serial_byte_for_byte(tmp_path):
    cfg1 = small_config()
    cfg2 = small_config(workers=2)
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    write_csv(run_scan(cfg1), str(out1))
    write_csv(run_scan(cfg2), str(out2))
    assert out1.read_bytes() == out2.read_bytes()
