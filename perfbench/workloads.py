"""The three workloads: inputs from a seed, one operation, and its oracle.

Every workload is a closed loop with one caller: the next operation
starts when the previous one returns. Operations call the public ptqgt
API through module attributes (``geometry.qgt``, ``cli.main``), so the
wrappers the traced run installs are the ones called. Checks run after
the timed loop and never call the code path they check.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import oracles

N_QUAD = 65  # acceptance quadrature
H_RANGE = (0.0, 3.0, 41)  # acceptance h axis
ETA_LO, ETA_HI, ETA_ROWS = -0.95, 0.95, 41  # acceptance eta rows, step 1.9/40
H_STEP = (H_RANGE[1] - H_RANGE[0]) / (H_RANGE[2] - 1)
ETA_STEP = (ETA_HI - ETA_LO) / (ETA_ROWS - 1)
# Points this close to a critical radius are generated near-critical: the
# FD route's step (1e-5) is then not small against the closing gap, so
# its truncation error alone exceeds the 1e-6 tolerance there (measured
# up to 1.6e-5 on the anisotropic acceptance grid, all within 0.003 of a
# critical circle). Those samples are checked against the SOS oracle.
NEAR_CRITICAL_RADIUS = 0.01
FD_SAMPLES_PER_OP = 2

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Region of the pt_two_level unbroken phase the Stokes rectangles
# (0.2 x 0.2, criterion 5) and transport circles (radius 0.05,
# criterion 6) are centred in: lam = (a, s).
PT_CENTRE_A = (0.0, 0.3)
PT_CENTRE_S = (0.8, 1.0)
STOKES_HALF = 0.1
STOKES_PER_SIDE = 192
STOKES_RESOLUTIONS = (64, 128)
TRANSPORT_RADIUS = 0.05
TRANSPORT_TAU = 100.0
TRANSPORT_STEPS = 6000
TRANSPORTS_PER_STOKES = 4

# point_query request mix, in order of latency.
QUERY_MIX = (("qgt_spin_half", 0.20), ("qgt_pt_two_level", 0.20),
             ("berry_loop", 0.25), ("intensity", 0.35))
MODEL_KINDS = ("qgt_spin_half", "qgt_pt_two_level", "berry_loop")  # on .model files
NEAR_EP_DISTANCE = 1e-6
# The near-EP pt_two_level queries are one fixed set, the same for every
# seed, placed at seeded positions among the first MIN_QUERIES requests.
# pt_two_level qgt returns a wrong value instead of a typed refusal at
# some of them (a known defect), so the failed count of a run then
# depends on neither the seed nor the host's speed.
NEAR_EP_PROBES = 100
NEAR_EP_PROBE_SEED = 6
LOOP_VERTICES = 64
MIN_QUERIES = 1000  # so that at least 10 samples lie beyond p99
# A run holds a fixed number of requests, sized to take about --seconds
# (105-159 requests/s over 20-s runs on the 2-vCPU Xeon of the baseline), so
# that ``attempted`` does not follow the host's load.
REQUESTS_PER_S = 150
POOL_QUERIES = 4 * MIN_QUERIES  # seeded requests; a run cycles through them


def request_count(seconds: float) -> int:
    """Requests in a point_query run of ``seconds``."""
    return max(MIN_QUERIES, round(seconds * REQUESTS_PER_S))


def couplings():
    from ptqgt.verify import ANISO, PSEUDO_ISO

    return {"aniso": ANISO, "pseudo_iso": PSEUDO_ISO}


@dataclass
class Record:
    """One operation: its input, output or exception, and its time."""

    op: object
    value: object = None
    error: BaseException | None = None
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end
    wall: float = 0.0
    seconds: float = 0.0  # wall, rescaled to the probe's nominal speed


@dataclass
class Verdict:
    ok: bool
    near_critical: bool = False
    note: str = ""


@dataclass
class Tally:
    """Failed operations against attempted ones.

    ``unexpected`` counts failures at inputs that were not generated as
    near-critical; those make a run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    notes: list = field(default_factory=list)

    def add(self, verdict: Verdict) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            if not verdict.near_critical:
                self.unexpected += 1
            if len(self.notes) < 20:
                self.notes.append(verdict.note)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def typed_refusal(error) -> bool:
    from ptqgt.errors import PtqgtError

    return isinstance(error, PtqgtError)


def judge_value(record: Record, near_critical: bool, check) -> Verdict:
    """Shared failure rule: an untyped exception fails; a typed refusal
    passes only at a near-critical input; a value must satisfy ``check``,
    which returns an error note or None."""
    if record.error is not None:
        if typed_refusal(record.error) and near_critical:
            return Verdict(True, near_critical)
        kind = "typed refusal" if typed_refusal(record.error) else "untyped exception"
        return Verdict(False, near_critical, f"{kind}: {record.error!r}")
    note = check(record.value)
    return Verdict(note is None, near_critical, note or "")


# ================================================================ xy_scan


def _critical_radii(params) -> tuple[float, float]:
    return (2.0 * math.sqrt(params.J ** 2 - params.Gammas ** 2),
            2.0 * math.sqrt(params.Js ** 2 - params.Gamma ** 2))


def _near_critical(params, h: float, eta: float) -> bool:
    r = math.hypot(h, eta)
    return any(abs(r - rc) < NEAR_CRITICAL_RADIUS for rc in _critical_radii(params))


def scan_grid(seed: int):
    """h values and eta rows of the grid this seed scans.

    The default seed 0 scans the acceptance grid itself; other seeds shift
    its origin by a sub-cell offset.
    """
    rng = np.random.default_rng([seed, 1])
    dh, de = (0.0, 0.0) if seed == 0 else (rng.uniform(0, H_STEP), rng.uniform(0, ETA_STEP))
    hs = np.linspace(H_RANGE[0] + dh, H_RANGE[1] + dh, H_RANGE[2])
    etas = np.linspace(ETA_LO + de, ETA_HI + de, ETA_ROWS)
    return hs, etas


class XYScan:
    """``ptqgt scan --config`` in-process on two adjacent grid rows."""

    name = "xy_scan"

    def __init__(self, seed: int, workdir: str):
        from ptqgt import cli  # noqa: F401  (import cost belongs to set-up)

        self.seed = seed
        self.hs, self.etas = scan_grid(seed)
        rng = np.random.default_rng([seed, 2])
        self.params = couplings()
        # Row pairs (i, i+1); each coupling visits them in its own order.
        self.orders = {c: rng.permutation(ETA_ROWS - 1) for c in self.params}
        self.sample_rng = np.random.default_rng([seed, 3])
        self.configs = {}
        for c, p in self.params.items():
            for i in range(ETA_ROWS - 1):
                path = os.path.join(workdir, f"{c}-{i}.json")
                cfg = {
                    "params": {"J": p.J, "Js": p.Js, "Gamma": p.Gamma, "Gammas": p.Gammas},
                    "h_range": [float(self.hs[0]), float(self.hs[-1]), H_RANGE[2]],
                    "eta_range": [float(self.etas[i]), float(self.etas[i + 1]), 2],
                    "n_quad": N_QUAD,
                    "workers": 1,
                    "out_path": os.path.join(workdir, f"{c}-{i}.csv"),
                }
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                self.configs[(c, i)] = (path, cfg["out_path"])

    def ops(self):
        k = 0
        names = list(self.params)
        while True:
            c = names[k % len(names)]
            order = self.orders[c]
            yield (c, int(order[(k // len(names)) % len(order)]))
            k += 1

    def run(self, op):
        from ptqgt import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["scan", "--config", self.configs[op][0]])

    def done(self, records, elapsed: float, seconds: float) -> bool:
        return elapsed >= seconds and len({r.op[0] for r in records}) == len(self.params)

    def _read(self, op):
        with open(self.configs[op][1], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return lines[0], [line.split(",") for line in lines[1:]]

    def judge(self, records) -> list[Verdict]:
        reference = load_reference() if self.seed == 0 else None
        return [self._judge_op(r, reference) for r in records]

    def _judge_op(self, record: Record, reference) -> Verdict:
        from ptqgt import xy_chain
        from ptqgt.scan import CSV_HEADER

        c, i = record.op
        p = self.params[c]
        if record.error is not None:
            return Verdict(False, False, f"untyped exception: {record.error!r}")
        if record.value != 0:
            return Verdict(False, False, f"{c} rows {i}: exit code {record.value}")
        header, rows = self._read(record.op)
        if header != CSV_HEADER or len(rows) != 2 * H_RANGE[2]:
            return Verdict(False, False, f"{c} rows {i}: malformed CSV")
        want = [(float(h), float(e)) for e in self.etas[i:i + 2] for h in self.hs]
        for (h, e), row in zip(want, rows):
            if float(row[0]) != h or float(row[1]) != e:
                return Verdict(False, False, f"{c}: point ({row[0]}, {row[1]}) not on the grid")
            broken = abs(e) >= p.eta_c
            status = row[6]
            if (status == "broken") != broken or row[2] != str(not broken).lower():
                return Verdict(False, False, f"{c} ({h}, {e}): status {status}")
            if status == "degenerate" and not _near_critical(p, h, e):
                return Verdict(False, False, f"{c} ({h}, {e}): refused, not near-critical")
        # Seeded sample against the finite-difference route.
        ok_rows = [k for k, row in enumerate(rows) if row[6] == "ok"]
        picks = self.sample_rng.choice(len(ok_rows), size=min(FD_SAMPLES_PER_OP, len(ok_rows)),
                                       replace=False)
        for k in (ok_rows[j] for j in picks):
            h, e = want[k]
            g = _row_metric(rows[k])
            if _near_critical(p, h, e):
                ref = oracles.xy_intensity(p, h, e, N_QUAD)
            else:
                ref = xy_chain.metric_intensity(
                    p, xy_chain.FieldPoint(h=h, eta=e), n_quad=N_QUAD, method="fd")
            err = oracles.rel_err(g, ref)
            if err > oracles.TOL_SOS_VS_FD:
                return Verdict(False, False, f"{c} ({h}, {e}): {err:.2e} from the oracle")
        if reference is not None:
            for (h, e), row in zip(want, rows):
                ref_row = reference[c].get((repr(h), repr(e)))
                if ref_row is None or ref_row[6] != row[6]:
                    return Verdict(False, False, f"{c} ({h}, {e}): status differs from reference")
                if row[6] == "ok":
                    err = oracles.rel_err(_row_metric(row), _row_metric(ref_row))
                    if err > oracles.TOL_REFERENCE:
                        return Verdict(False, False, f"{c} ({h}, {e}): {err:.2e} from reference")
        return Verdict(True)

    def summary(self, records) -> dict:
        unbroken = 0
        for r in records:
            if r.error is None and r.value == 0:
                _, rows = self._read(r.op)
                unbroken += sum(row[2] == "true" for row in rows)
        total = sum(r.seconds for r in records)
        secs = [r.seconds * 1e3 for r in records]
        return {
            "op_p50_ms": statistics.median(secs),
            "work_per_s": unbroken / total,
            "lines": [f"scan_points_per_s {unbroken / total!r} 1/s "
                      f"({unbroken} unbroken points in {len(records)} scans)"],
        }


def _row_metric(row) -> np.ndarray:
    g11, g12, g22 = (float(x) for x in row[3:6])
    return np.array([[g11, g12], [g12, g22]])


def reference_path(coupling: str) -> str:
    return os.path.join(REFERENCE_DIR, f"xy_scan_seed0_{coupling}.csv.gz")


def load_reference() -> dict:
    """{coupling: {(repr h, repr eta): csv row}} recorded for seed 0."""
    out = {}
    for c in couplings():
        with gzip.open(reference_path(c), "rt", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        out[c] = {(repr(float(r[0])), repr(float(r[1]))): r for r in rows}
    return out


def record_reference(workdir: str) -> None:
    """Scan the full seed-0 grid of each coupling and store the CSVs."""
    from ptqgt import cli

    hs, etas = scan_grid(0)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for c, p in couplings().items():
        cfg_path = os.path.join(workdir, f"reference-{c}.json")
        out = os.path.join(workdir, f"reference-{c}.csv")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({
                "params": {"J": p.J, "Js": p.Js, "Gamma": p.Gamma, "Gammas": p.Gammas},
                "h_range": [float(hs[0]), float(hs[-1]), H_RANGE[2]],
                "eta_range": [float(etas[0]), float(etas[-1]), ETA_ROWS],
                "n_quad": N_QUAD, "workers": 1, "out_path": out,
            }, fh)
        if cli.main(["scan", "--config", cfg_path]) != 0:
            raise RuntimeError(f"reference scan for {c} failed")
        with open(out, "rb") as src, gzip.GzipFile(reference_path(c), "wb", mtime=0) as dst:
            dst.write(src.read())


# ================================================================ pt_loop


def _rectangle_loop(lo, hi, per_side: int) -> np.ndarray:
    """Closed counter-clockwise rectangle, ``per_side`` vertices per edge."""
    t = np.arange(per_side) / per_side
    bottom = np.stack([lo[0] + t * (hi[0] - lo[0]), np.full(per_side, lo[1])], axis=1)
    right = np.stack([np.full(per_side, hi[0]), lo[1] + t * (hi[1] - lo[1])], axis=1)
    top = np.stack([hi[0] - t * (hi[0] - lo[0]), np.full(per_side, hi[1])], axis=1)
    left = np.stack([np.full(per_side, lo[0]), hi[1] - t * (hi[1] - lo[1])], axis=1)
    return np.concatenate([bottom, right, top, left, bottom[:1]], axis=0)


def _circle(center, radius: float, period: float):
    def curve(t):
        ang = 2.0 * np.pi * t / period
        return center + radius * np.array([np.cos(ang), np.sin(ang)])

    return curve


def _draw_centres(rng, count: int) -> np.ndarray:
    return np.stack([rng.uniform(*PT_CENTRE_A, size=count),
                     rng.uniform(*PT_CENTRE_S, size=count)], axis=1)


class PTLoop:
    """Stokes consistency (criterion 5) and adiabatic transport (criterion 6)
    on the analytic pt_two_level family, interleaved."""

    name = "pt_loop"
    POOL = 16  # placements drawn per kind; the loop cycles through them

    def __init__(self, seed: int, workdir: str):
        from ptqgt import families

        self.family = families.pt_two_level_family()
        rng = np.random.default_rng([seed, 4])
        self.rect_centres = _draw_centres(rng, self.POOL)
        self.circle_centres = _draw_centres(rng, self.POOL)

    def ops(self):
        # A Stokes op takes ~5x a transport op, so each Stokes op follows
        # TRANSPORTS_PER_STOKES transports; a run's transport_s is then a
        # median of four samples, not one.
        for k in itertools.count():
            j = k % self.POOL
            for i in range(TRANSPORTS_PER_STOKES):
                yield "transport", (j * TRANSPORTS_PER_STOKES + i) % self.POOL
            yield "stokes", j

    def run(self, op):
        from ptqgt import dynamics, geometry

        kind, j = op
        if kind == "stokes":
            c = self.rect_centres[j]
            lo, hi = c - STOKES_HALF, c + STOKES_HALF
            loop = geometry.LoopSpec(vertices=_rectangle_loop(lo, hi, STOKES_PER_SIDE), level=0)
            gamma = geometry.berry_phase_loop(self.family, loop)
            fluxes = [geometry.curvature_flux(self.family, lo, hi, (0, 1), resolution=n, n=0)
                      for n in STOKES_RESOLUTIONS]
            return gamma, fluxes
        path = dynamics.PathSpec(
            curve=_circle(self.circle_centres[j], TRANSPORT_RADIUS, TRANSPORT_TAU),
            duration=TRANSPORT_TAU, closed=True)
        return dynamics.adiabatic_phase(self.family, path, n=0, n_steps=TRANSPORT_STEPS)

    def done(self, records, elapsed: float, seconds: float) -> bool:
        return elapsed >= seconds and records[-1].op[0] == "stokes"

    def judge(self, records) -> list[Verdict]:
        return [judge_value(r, False, self._stokes if r.op[0] == "stokes" else self._transport)
                for r in records]

    @staticmethod
    def _stokes(value):
        gamma, (flux64, flux128) = value
        err64, err128 = abs(flux64 + gamma), abs(flux128 + gamma)
        if err64 > oracles.STOKES_MAX_RESIDUAL:
            return f"stokes residual {err64:.2e} at 64^2"
        if err64 < oracles.STOKES_MIN_IMPROVEMENT * err128:
            return f"stokes refinement {err64 / max(err128, 1e-300):.2f}x"
        return None

    @staticmethod
    def _transport(value):
        w = value["result"].w_norms
        drift = float(np.max(np.abs(w - w[0])))
        gap = abs(value["gamma_sim"] - value["gamma_line"])
        if drift > oracles.TRANSPORT_MAX_DRIFT:
            return f"W-norm drift {drift:.2e}"
        if gap > oracles.TRANSPORT_MAX_PHASE_GAP:
            return f"|gamma_sim - gamma_line| = {gap:.2e}"
        return None

    def summary(self, records) -> dict:
        by_kind = {k: [r.seconds for r in records if r.op[0] == k] for k in ("stokes", "transport")}
        flux, transport = (statistics.median(by_kind[k]) for k in ("stokes", "transport"))
        return {
            "op_p50_ms": flux * 1e3,
            "work_per_s": 1.0 / transport,
            "lines": [f"flux_pair_s {flux!r} s (median of {len(by_kind['stokes'])})",
                      f"transport_s {transport!r} s (median of {len(by_kind['transport'])})"],
        }


# ============================================================ point_query


def near_ep_probes() -> list:
    """pt_two_level qgt queries on the unbroken side of the EP circle
    s^2 = a^2 + b^2, each within NEAR_EP_DISTANCE of it."""
    rng = np.random.default_rng(NEAR_EP_PROBE_SEED)
    probes = []
    for _ in range(NEAR_EP_PROBES):
        t = rng.uniform(-1.0, 1.0)
        foot = oracles.PT_B * np.array([np.sinh(t), np.cosh(t)])
        normal = np.array([-foot[0], foot[1]]) / np.hypot(foot[0], foot[1])
        probes.append(("qgt_pt_two_level", "pt_two_level",
                       foot + rng.uniform(0.0, NEAR_EP_DISTANCE) * normal, True))
    return probes


class PointQuery:
    """Single requests, one at a time, in a seeded mix."""

    name = "point_query"

    def __init__(self, seed: int, workdir: str):
        from ptqgt import families

        self.models = {name: families.load_bundled_model(name)
                       for name in ("spin_half", "pt_two_level")}
        rng = np.random.default_rng([seed, 5])
        self.requests = [self._draw(rng) for _ in range(POOL_QUERIES)]
        slots = np.sort(rng.choice(MIN_QUERIES, size=NEAR_EP_PROBES, replace=False))
        for k, probe in zip(slots, near_ep_probes()):
            self.requests.insert(int(k), probe)

    @staticmethod
    def _draw(rng):
        u = rng.uniform()
        for kind, share in QUERY_MIX:
            if u < share:
                break
            u -= share
        if kind == "intensity":
            coupling = "aniso" if rng.uniform() < 0.5 else "pseudo_iso"
            return (kind, coupling, (rng.uniform(*H_RANGE[:2]), rng.uniform(ETA_LO, ETA_HI)), False)
        if kind == "qgt_spin_half":
            direction = rng.normal(size=3)
            lam = rng.uniform(0.5, 1.5) * direction / np.linalg.norm(direction)
            return (kind, "spin_half", lam, False)
        if kind == "qgt_pt_two_level":
            while True:
                lam = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.6, 1.2)])
                if oracles.pt_ep_distance(lam) > 0.05:
                    return (kind, "pt_two_level", lam, False)
        centre = _draw_centres(rng, 1)[0]
        return (kind, "pt_two_level", centre, False)

    def ops(self):
        k = 0
        while True:
            yield self.requests[k % len(self.requests)]
            k += 1

    def run(self, op):
        from ptqgt import geometry, xy_chain

        kind, target, point, _ = op
        if kind == "intensity":
            return xy_chain.metric_intensity(
                couplings()[target], xy_chain.FieldPoint(h=point[0], eta=point[1]),
                n_quad=N_QUAD)
        if kind == "berry_loop":
            return geometry.berry_phase_loop(self.models[target],
                                             geometry.LoopSpec(_loop_vertices(point), level=0))
        return geometry.qgt(self.models[target], point, n=0).q

    def done(self, records, elapsed: float, seconds: float) -> bool:
        return len(records) >= request_count(seconds)

    def judge(self, records) -> list[Verdict]:
        from ptqgt import families, verify

        spin_half = families.spin_half_family()
        verdicts = []
        for r in records:
            kind, target, point, near = r.op
            if kind == "qgt_spin_half":
                check = _close(verify.standard_qgt_oracle(spin_half, point, n=0),
                               oracles.TOL_HERMITIAN)
            elif kind == "qgt_pt_two_level":
                check = _close(oracles.pt_two_level_qgt(point), oracles.TOL_SOS_VS_FD)
            elif kind == "berry_loop":
                check = _same_phase(wilson_loop_pt_two_level(_loop_vertices(point)))
            else:
                try:
                    check = _close(oracles.xy_intensity(couplings()[target], point[0],
                                                        point[1], N_QUAD),
                                   oracles.TOL_SOS_VS_FD)
                except oracles.NearCritical as exc:
                    near = True
                    check = lambda value, exc=exc: f"value where the oracle finds {exc}"  # noqa: E731
            verdicts.append(judge_value(r, near, check))
        return verdicts

    def summary(self, records) -> dict:
        ms = [r.seconds * 1e3 for r in records]
        p50 = statistics.median(ms)
        p99 = statistics.quantiles(ms, n=100, method="inclusive")[98]
        beyond = sum(m > p99 for m in ms)
        kind_ms = {kind: [r.seconds * 1e3 for r in records if r.op[0] == kind]
                   for kind, _ in QUERY_MIX}
        kind_p50 = {kind: statistics.median(v) for kind, v in kind_ms.items()}
        # Each gated figure follows one latency class, so that a change to
        # one request kind is not hidden behind the others' quantiles.
        model_p50 = statistics.geometric_mean(kind_p50[k] for k in MODEL_KINDS)
        return {
            "op_p50_ms": model_p50,
            "work_per_s": 1e3 / kind_p50["intensity"],
            "lines": [f"query_p50_ms {p50!r} ms (n={len(ms)})",
                      f"query_p99_ms {p99!r} ms (n={len(ms)}, {beyond} beyond)"]
                     + [f"  {kind}_p50_ms {kind_p50[kind]!r} ms (n={len(kind_ms[kind])})"
                        for kind, _ in QUERY_MIX],
        }


def _close(ref, tol):
    def check(value):
        err = oracles.rel_err(value, ref)
        return None if err <= tol else f"{err:.2e} from the oracle (tolerance {tol:.0e})"

    return check


def _same_phase(ref):
    def check(value):
        gap = abs(np.angle(np.exp(1j * (value - ref))))
        return None if gap <= oracles.TOL_EXACT else f"berry phase {value!r} vs {ref!r}"

    return check


def _loop_vertices(centre) -> np.ndarray:
    t = np.arange(LOOP_VERTICES + 1) / LOOP_VERTICES
    verts = centre + TRANSPORT_RADIUS * np.stack([np.cos(2 * np.pi * t),
                                                  np.sin(2 * np.pi * t)], axis=1)
    verts[-1] = verts[0]
    return verts


def wilson_loop_pt_two_level(vertices) -> float:
    """-arg prod <Phi_0(i)|Psi_0(i+1)> on the analytic pt_two_level matrices."""
    hs = np.stack([oracles.pt_two_level_matrix(v) for v in vertices[:-1]])
    e, vr = np.linalg.eig(hs)
    n0 = np.argmin(e.real, axis=1)
    psi = vr[np.arange(len(hs)), :, n0]
    phi_rows = np.linalg.inv(vr)[np.arange(len(hs)), n0, :]  # <Phi_0| as rows
    links = np.einsum("ij,ij->i", phi_rows, np.roll(psi, -1, axis=0))
    gamma = -float(np.angle(np.prod(links)))
    return gamma + 2.0 * np.pi if gamma <= -np.pi else gamma


WORKLOADS = {w.name: w for w in (XYScan, PTLoop, PointQuery)}
