"""Metric-compatible time evolution along parameter paths.

The evolution equation i d psi/dt = [H(t) + i K(t)] psi with the gauge
field K(t) = -1/2 W^{-1} dW/dt preserves the time-dependent W inner
product exactly; the integrator here is a fixed-step classical RK4 whose
conservation is verified a posteriori rather than enforced structurally.
K is computed per RK4 step, with no cache: one stacked eigensolve gives
K at the step's midpoint and end, and the end value is reused as the
next step's start value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import HamiltonianFamily, biortho_eig, build_W, gauge_fix
from .errors import MetricSingular, NotAdiabatic, StepTooLarge
from .geometry import LoopSpec, berry_phase_loop

__all__ = [
    "PathSpec",
    "EvolutionResult",
    "k_field",
    "evolve",
    "adiabatic_phase",
]


@dataclass(frozen=True)
class PathSpec:
    """Parameter path t in [0, tau] -> lambda_t."""

    curve: Callable[[float], np.ndarray]
    duration: float
    closed: bool = False

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def at(self, t: float) -> np.ndarray:
        return np.asarray(self.curve(t), dtype=float)

    @classmethod
    def from_samples(cls, times, points, closed: bool = False) -> "PathSpec":
        """Linear interpolation through dense (t, lambda) samples."""
        times = np.asarray(times, dtype=float)
        points = np.asarray(points, dtype=float)
        if times.ndim != 1 or points.shape[0] != times.shape[0]:
            raise ValueError("times and points must have matching leading length")

        def curve(t, _times=times, _points=points):
            return np.array(
                [np.interp(t, _times, _points[:, j]) for j in range(_points.shape[1])]
            )

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
    t_plus = np.minimum(t + dt_probe, path.duration)
    t_minus = np.maximum(t - dt_probe, 0.0)
    times = np.stack([t, t_plus, t_minus])
    n = family.dim_hilbert
    hs = np.stack([family(path.at(s)) for s in times.ravel()])
    w = build_W(biortho_eig(hs.reshape(times.shape + (n, n)))).matrix
    dw = (w[1] - w[2]) / (t_plus - t_minus)[..., None, None]
    try:
        return -0.5 * np.linalg.solve(w[0], dw)
    except np.linalg.LinAlgError as exc:
        raise MetricSingular("metric W is numerically singular") from exc


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
    <psi0|W(lambda_0)|psi0> = 1. When ``track_level`` is given, the
    instantaneous overlap with that eigenstate is monitored (NotAdiabatic
    below 0.99) and the total / dynamical / geometric phases are
    extracted. Raises StepTooLarge when the W-norm drifts beyond
    ``drift_tol``.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = path.duration / n_steps
    dt_probe = dt / 10.0

    def generator(t, k):
        return -1j * family(path.at(t)) + k

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, psi.shape[0]), dtype=complex)
    w_norms = np.empty(n_steps + 1)

    eig_anchor = None
    alphas = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)

    def record(i, t, psi):
        nonlocal eig_anchor
        times[i] = t
        states[i] = psi
        eig_t = biortho_eig(family(path.at(t)))
        if track_level is None:
            w_norms[i] = float(np.vdot(psi, build_W(eig_t).matrix @ psi).real)
            return
        # Anchor the gauge at t = 0 (not chained): a chained fix is the
        # parallel-transport gauge and would absorb the geometric phase.
        if eig_anchor is None:
            eig_anchor = eig_t
        else:
            eig_t = gauge_fix(eig_anchor, eig_t)
        w = build_W(eig_t).matrix
        w_norms[i] = float(np.vdot(psi, w @ psi).real)
        ov = np.vdot(eig_t.left[:, track_level], psi)
        if np.abs(ov) < 0.99 * np.sqrt(max(w_norms[i], 0.0)):
            raise NotAdiabatic(
                f"instantaneous overlap {np.abs(ov):.4f} dropped below 0.99 at t={t:.4g}"
            )
        alphas[i] = np.angle(ov)
        energies[i] = float(eig_t.energies[track_level].real)

    record(0, 0.0, psi)
    # K at the step's end is the next step's K at its start.
    k_start = k_field(family, path, 0.0, dt_probe)
    for i in range(n_steps):
        t = i * dt
        k_mid, k_end = k_field(family, path, [t + 0.5 * dt, t + dt], dt_probe)
        g_mid = generator(t + 0.5 * dt, k_mid)
        k1 = generator(t, k_start) @ psi
        k2 = g_mid @ (psi + 0.5 * dt * k1)
        k3 = g_mid @ (psi + 0.5 * dt * k2)
        k4 = generator(t + dt, k_end) @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k_start = k_end
        record(i + 1, (i + 1) * dt, psi)

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
    n_loop_vertices: int | None = None,
) -> dict:
    """Adiabatically transport eigenstate ``n`` around a closed path.

    Returns ``gamma_sim`` (phase left after removing the dynamical phase
    from the simulated evolution), ``gamma_line`` (discrete loop-product
    Berry phase on the same vertex grid) and ``beta`` (dynamical phase).
    """
    if not loop.closed:
        raise ValueError("adiabatic_phase needs a closed path")
    eig0 = biortho_eig(family(loop.at(0.0)))
    psi0 = eig0.right[:, n]  # <psi0|W|psi0> = 1 by construction

    result = evolve(family, loop, psi0, n_steps, track_level=n)

    m = n_loop_vertices if n_loop_vertices is not None else min(n_steps, 512)
    ts = np.linspace(0.0, loop.duration, m + 1)
    verts = np.stack([loop.at(t) for t in ts])
    verts[-1] = verts[0]
    gamma_line = berry_phase_loop(family, LoopSpec(vertices=verts, level=n))

    return {
        "gamma_sim": result.geometric_phase,
        "gamma_line": gamma_line,
        "beta": result.dynamical_phase,
        "result": result,
    }
