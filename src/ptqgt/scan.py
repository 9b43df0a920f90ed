"""Phase-diagram scans of the metric intensity over an (h, eta) grid."""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from . import xy_chain
from .biortho import _check_integer, _per_stack
from .errors import Degenerate, GaplessPoint
from .xy_chain import XYParams

__all__ = ["ScanConfig", "ScanRecord", "ScanResult", "run_scan", "write_csv"]

CSV_HEADER = "h,eta,unbroken,g11,g12,g22,status"


@dataclass(frozen=True)
class ScanConfig:
    params: XYParams
    h_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    n_quad: int = 65
    workers: int = 1

    def __post_init__(self):
        (h_lo, h_hi, n_h), (eta_lo, eta_hi, n_eta) = self.h_range, self.eta_range
        for n in (n_h, n_eta, self.n_quad, self.workers):
            _check_integer(n, "grid counts, n_quad and workers", "integers")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if n_h < 2 or n_eta < 2:
            raise ValueError("grid counts must be at least 2")
        if self.n_quad < 16:
            raise ValueError("n_quad must be at least 16")
        if not all(math.isfinite(x) for x in (h_lo, h_hi, eta_lo, eta_hi)):
            raise ValueError("grid ranges must be finite")

    def h_values(self) -> np.ndarray:
        return np.linspace(*self.h_range)

    def eta_values(self) -> np.ndarray:
        return np.linspace(*self.eta_range)


@dataclass(frozen=True)
class ScanRecord:
    h: float
    eta: float
    unbroken: bool
    g11: float | None
    g12: float | None
    g22: float | None
    status: str  # ok | degenerate | broken


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    records: list[ScanRecord] = field(default_factory=list)

    def grid(self, entry: str) -> np.ndarray:
        """Tensor entry as an (n_eta, n_h) array; NaN where absent."""
        n_h = self.config.h_range[2]
        n_eta = self.config.eta_range[2]
        out = np.full((n_eta, n_h), np.nan)
        for idx, rec in enumerate(self.records):
            value = getattr(rec, entry)
            out[idx // n_h, idx % n_h] = np.nan if value is None else value
        return out


def _records(p: XYParams, hs: list[float], eta: float, n_quad: int) -> list[ScanRecord]:
    """Records at the unbroken points ``(h, eta)``, ``h`` in ``hs``, from
    one kernel call. When the kernel refuses (a defective block, or any
    point gapless, crossing or complex at a node), each point is re-run
    alone, so every record and status is that point's own."""
    try:
        g = xy_chain._intensity_perturbative(p, hs, [eta] * len(hs), n_quad)
    except (Degenerate, GaplessPoint):
        if len(hs) > 1:
            return [rec for h in hs for rec in _records(p, [h], eta, n_quad)]
        inf = float("inf")
        return [ScanRecord(h=hs[0], eta=eta, unbroken=True,
                           g11=inf, g12=inf, g22=inf, status="degenerate")]
    return [ScanRecord(h=h, eta=eta, unbroken=True, g11=float(gi[0, 0]),
                       g12=float(gi[0, 1]), g22=float(gi[1, 1]), status="ok")
            for h, gi in zip(hs, g)]


def _scan_row(args) -> list[ScanRecord]:
    """One eta row of records, in h order: ``broken`` records beyond
    eta_c, else ``_records`` of as many points as one stack holds at
    ``n_quad`` blocks each, one stacked eigensolve per chunk."""
    p, hs, eta, n_quad = args
    hs = [float(h) for h in hs]
    if abs(eta) >= p.eta_c:
        return [ScanRecord(h=h, eta=eta, unbroken=False, g11=None, g12=None,
                           g22=None, status="broken") for h in hs]
    chunk = _per_stack(n_quad)
    return [rec for lo in range(0, len(hs), chunk)
            for rec in _records(p, hs[lo:lo + chunk], eta, n_quad)]


def run_scan(config: ScanConfig) -> ScanResult:
    """Evaluate the grid; row-major (eta outer, h inner), deterministic
    order regardless of worker count. One task per eta row, and no more
    worker processes than rows."""
    hs = config.h_values()
    etas = config.eta_values()
    tasks = [(config.params, hs, float(eta), config.n_quad) for eta in etas]
    workers = min(config.workers, len(tasks))
    records: list[ScanRecord] = []
    if workers <= 1:
        for task in tasks:
            records.extend(_scan_row(task))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            for row in ex.map(_scan_row, tasks):
                records.extend(row)
    return ScanResult(config=config, records=records)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return repr(value)


def write_csv(result: ScanResult, path: str) -> None:
    """CSV plus a companion gnuplot script <path>.gp."""
    lines = [CSV_HEADER]
    for rec in result.records:
        lines.append(
            f"{_fmt(rec.h)},{_fmt(rec.eta)},{str(rec.unbroken).lower()},"
            f"{_fmt(rec.g11)},{_fmt(rec.g12)},{_fmt(rec.g22)},{rec.status}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_gnuplot(path)


def _write_gnuplot(csv_path: str) -> None:
    script = f"""# gnuplot companion for {csv_path}
set datafile separator ','
set xlabel 'h'
set ylabel 'eta'
set view map
set palette rgb 33,13,10
set title 'metric intensity g11'
splot '{csv_path}' every ::1 using 1:2:4 with points pt 5 ps 1.4 palette notitle
pause -1
set title 'metric intensity g22'
splot '{csv_path}' every ::1 using 1:2:6 with points pt 5 ps 1.4 palette notitle
pause -1
"""
    with open(csv_path + ".gp", "w", encoding="utf-8") as fh:
        fh.write(script)
