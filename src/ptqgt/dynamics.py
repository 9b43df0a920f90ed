"""Metric-compatible time evolution along parameter paths.

The evolution equation i d psi/dt = [H(t) + i K(t)] psi with the gauge
field K(t) = -1/2 W^{-1} dW/dt preserves the time-dependent W inner
product exactly; the integrator here is a fixed-step classical RK4 whose
conservation is verified a posteriori rather than enforced structurally.
The path is known before the loop starts, so ``evolve`` precomputes its
eigensystems in chunks of steps: one stacked eigensolve gives K at every
half-step and step end of a chunk (the end value is reused as the next
step's start value), another gives the records' eigensystems, and the
RK4 loop between them only multiplies matrices. A chunk whose stacked
work fails is replayed one step at a time, so errors keep their time
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import HamiltonianFamily, biortho_eig, build_W, gauge_fix
from .errors import MetricSingular, NotAdiabatic, StepTooLarge
from .geometry import LoopSpec, _check_level, berry_phase_loop

__all__ = [
    "PathSpec",
    "EvolutionResult",
    "k_field",
    "evolve",
    "adiabatic_phase",
]

# RK4 steps whose eigensystems are stacked together. A hundred or so
# steps amortize the per-call overhead; longer chunks gain little speed
# but grow the transient stacks (for 2x2 families ~0.5 MB at 128 steps,
# ~1 MB at 256), which then rival the evolution result itself.
_CHUNK = 128


@dataclass(frozen=True)
class PathSpec:
    """Parameter path t in [0, tau] -> lambda_t."""

    curve: Callable[[float], np.ndarray]
    duration: float
    closed: bool = False

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def at(self, t) -> np.ndarray:
        """lambda at a time, or at each time of an array ``t`` as
        ``t.shape + (d,)``, in a fresh array; ``curve`` is only ever given
        one scalar time."""
        t = np.asarray(t, dtype=float)
        points = np.stack([np.asarray(self.curve(s), dtype=float) for s in t.ravel()])
        return points.reshape(t.shape + points.shape[1:])

    @classmethod
    def from_samples(cls, times, points, closed: bool = False) -> "PathSpec":
        """Linear interpolation through dense (t, lambda) samples; the
        times must be strictly increasing."""
        times = np.asarray(times, dtype=float)
        points = np.asarray(points, dtype=float)
        if times.ndim != 1 or points.shape[0] != times.shape[0]:
            raise ValueError("times and points must have matching leading length")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")

        def curve(t, _times=times, _points=points):
            return np.array([np.interp(t, _times, column) for column in _points.T])

        return cls(curve=curve, duration=float(times[-1]), closed=closed)


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory record with W-norms and (optionally) extracted phases."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, N)
    w_norms: np.ndarray
    total_phase: float = 0.0
    dynamical_phase: float = 0.0
    geometric_phase: float = 0.0


def _k_field(
    family: HamiltonianFamily, path: PathSpec, t: np.ndarray, h: np.ndarray,
    dt_probe: float,
) -> np.ndarray:
    """K at the times ``t`` given ``h``, the H already evaluated there."""
    t_plus = np.minimum(t + dt_probe, path.duration)
    t_minus = np.maximum(t - dt_probe, 0.0)
    probes = family(path.at(np.stack([t_plus, t_minus])))
    w = build_W(biortho_eig(np.concatenate([h[None], probes]))).matrix
    dw = (w[1] - w[2]) / (t_plus - t_minus)[..., None, None]
    try:
        return -0.5 * np.linalg.solve(w[0], dw)
    except np.linalg.LinAlgError as exc:
        raise MetricSingular("metric W is numerically singular") from exc


def k_field(
    family: HamiltonianFamily, path: PathSpec, t, dt_probe: float
) -> np.ndarray:
    """Gauge field K(t) = -1/2 W^{-1}(t) dW/dt by central differencing.

    ``t`` may be an array of times; K then has shape ``t.shape + (N, N)``.
    The metrics at every time and its two probes come from one stacked
    eigensolve.
    """
    if dt_probe <= 0:
        raise ValueError("dt_probe must be positive")
    t = np.asarray(t, dtype=float)
    return _k_field(family, path, t, family(path.at(t)), dt_probe)


def evolve(
    family: HamiltonianFamily,
    path: PathSpec,
    psi0,
    n_steps: int,
    track_level: int | None = None,
    drift_tol: float = 1e-6,
) -> EvolutionResult:
    """Integrate the metric-compatible evolution with fixed-step RK4.

    ``psi0`` must be normalized in the initial inner product,
    <psi0|W(lambda_0)|psi0> = 1. When ``track_level`` is given (a level
    in 0..N-1, else ValueError), the instantaneous overlap with that
    eigenstate is monitored (NotAdiabatic below 0.99) and the total /
    dynamical / geometric phases are extracted. Raises StepTooLarge when
    the W-norm drifts beyond ``drift_tol``.

    The path is walked in chunks of steps. For each chunk H is evaluated
    once at every time the chunk needs; K at every half-step and step end
    and the eigensystems at every record time come from one stacked
    eigensolve each, and the records are gauge-fixed against the t = 0
    anchor in one batch. The RK4 loop itself only multiplies matrices.
    When a chunk's stacked work raises, the chunk is replayed one step at
    a time from its start state, so the first failure in time order wins:
    a NotAdiabatic is never pre-empted by a DefectiveMatrix or NonFinite
    further down the path.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if track_level is not None:
        _check_level(track_level, family.dim_hilbert)
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = path.duration / n_steps
    dt_probe = dt / 10.0

    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, psi.shape[0]), dtype=complex)
    w_norms = np.empty(n_steps + 1)
    alphas = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)

    def record(i, psi, w, left):
        """Store psi at times[i]; check and phase it against ``left``."""
        states[i] = psi
        w_norms[i] = float(np.vdot(psi, w @ psi).real)
        if left is None:
            return
        ov = np.vdot(left, psi)
        if np.abs(ov) < 0.99 * np.sqrt(max(w_norms[i], 0.0)):
            raise NotAdiabatic(
                f"instantaneous overlap {np.abs(ov):.4f} dropped below 0.99 at t={times[i]:.4g}"
            )
        alphas[i] = np.angle(ov)

    h_start = family(path.at(0.0))
    # Anchor the gauge at t = 0 (not chained): a chained fix is the
    # parallel-transport gauge and would absorb the geometric phase.
    anchor = biortho_eig(h_start)
    if track_level is not None:
        energies[0] = anchor.energies[track_level].real
    record(0, psi, build_W(anchor).matrix,
           None if track_level is None else anchor.left[:, track_level])
    # K at a step's end is the next step's K at its start.
    k_start = _k_field(family, path, np.asarray(0.0), h_start, dt_probe)

    def chunk_work(a, b):
        """Stacked eigensystem work for steps a..b-1; writes no state."""
        t = np.arange(a, b) * dt
        t_gen = np.stack([t + 0.5 * dt, t + dt], axis=-1)  # K and generator times
        h_gen = family(path.at(t_gen))
        k_gen = _k_field(family, path, t_gen, h_gen, dt_probe)
        h_rec = family(path.at(times[a + 1 : b + 1]))
        eig = biortho_eig(h_rec)
        left = level = None
        if track_level is not None:
            eig = gauge_fix(anchor, eig)
            left, level = eig.left[..., track_level], eig.energies[..., track_level].real
        g_start = -1j * np.concatenate([h_start[None], h_rec[:-1]]) + np.concatenate(
            [k_start[None], k_gen[:-1, 1]]
        )
        return (g_start, -1j * h_gen + k_gen, build_W(eig).matrix, left, level,
                h_rec[-1], k_gen[-1, 1])

    def advance(a, b, work):
        """RK4 steps a..b-1 on the generators and records from chunk_work."""
        nonlocal psi, h_start, k_start
        g_start, g, w, left, level, h_start, k_start = work
        if level is not None:
            energies[a + 1 : b + 1] = level
        for j in range(b - a):
            k1 = g_start[j] @ psi
            k2 = g[j, 0] @ (psi + 0.5 * dt * k1)
            k3 = g[j, 0] @ (psi + 0.5 * dt * k2)
            k4 = g[j, 1] @ (psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            record(a + j + 1, psi, w[j], None if left is None else left[j])

    for a in range(0, n_steps, _CHUNK):
        b = min(a + _CHUNK, n_steps)
        try:
            work = chunk_work(a, b)
        except Exception:
            # Whatever the family or the eigensolve raised; the replay
            # below raises it again at the step where it first occurs.
            work = None
        if work is not None:
            advance(a, b, work)
            continue
        # Replay one step at a time from this chunk's start state, so that a
        # later step's failure cannot pre-empt an earlier one.
        for i in range(a, b):
            advance(i, i + 1, chunk_work(i, i + 1))

    drift = float(np.max(np.abs(w_norms - w_norms[0])))
    if drift > drift_tol:
        raise StepTooLarge(
            f"W-norm drift {drift:.3e} exceeds {drift_tol:.1e}; increase n_steps"
        )

    total = beta = gamma = 0.0
    if track_level is not None:
        alpha = np.unwrap(alphas)
        total = float(alpha[-1] - alpha[0])
        beta = -float(np.trapezoid(energies, times))
        gamma = _principal(total - beta)
        total = beta + gamma  # keep the split identity after branch reduction

    return EvolutionResult(
        times=times,
        states=states,
        w_norms=w_norms,
        total_phase=total,
        dynamical_phase=beta,
        geometric_phase=gamma,
    )


def _principal(phase: float) -> float:
    """Reduce to the principal branch (-pi, pi]."""
    out = float(np.mod(phase + np.pi, 2.0 * np.pi) - np.pi)
    if out <= -np.pi:
        out += 2.0 * np.pi
    return out


def adiabatic_phase(
    family: HamiltonianFamily,
    loop: PathSpec,
    n: int,
    n_steps: int,
) -> dict:
    """Adiabatically transport eigenstate ``n`` around a closed path.

    Returns ``gamma_sim`` (phase left after removing the dynamical phase
    from the simulated evolution), ``gamma_line`` (discrete loop-product
    Berry phase, min(n_steps, 512) vertices) and ``beta`` (dynamical phase).
    Raises ValueError unless ``n`` names a level and the path is closed:
    declared so, with ``at(0)`` and ``at(duration)`` within 1e-12 of each
    other.
    """
    if not loop.closed:
        raise ValueError("adiabatic_phase needs a closed path")
    _check_level(n, family.dim_hilbert)
    start, end = loop.at(0.0), loop.at(loop.duration)
    if not np.allclose(start, end, rtol=0.0, atol=1e-12):
        raise ValueError(f"path is declared closed but its ends differ: {start} vs {end}")
    eig0 = biortho_eig(family(start))
    psi0 = eig0.right[:, n]  # <psi0|W|psi0> = 1 by construction

    result = evolve(family, loop, psi0, n_steps, track_level=n)

    m = min(n_steps, 512)
    verts = loop.at(np.linspace(0.0, loop.duration, m + 1))
    verts[-1] = verts[0]
    gamma_line = berry_phase_loop(family, LoopSpec(vertices=verts, level=n))

    return {
        "gamma_sim": result.geometric_phase,
        "gamma_line": gamma_line,
        "beta": result.dynamical_phase,
        "result": result,
    }
