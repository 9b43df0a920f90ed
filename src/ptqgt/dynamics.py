"""Metric-compatible time evolution along parameter paths.

The evolution equation i d psi/dt = [H(t) + i K(t)] psi with the gauge
field K(t) = -1/2 W^{-1} dW/dt, where W^{-1} = Psi Psi^dag, preserves the
time-dependent W inner product exactly; the integrator here is a
fixed-step classical RK4 whose conservation is verified a posteriori
rather than enforced structurally. K is the generator O_B along the
path's velocity, K = 1/2 Psi (C + C^dag) Phi^dag with C the eigenvector
response to dH/dt, so it needs the eigensystem at its instant only. RK4
needs H at the step starts, half-steps and step ends: the uniform grid
t_k = k dt/2, k = 0..2n. dH/dt at each node is a five-node difference of
H over its neighbouring nodes, so the path is sampled on the grid alone.
The path is known before the loop starts, so ``evolve`` solves its nodes
in stacked chunks of steps and its RK4 loop only multiplies matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import HamiltonianFamily, _check_integer, _per_stack, biortho_eig, build_W
from .errors import AmbiguousMatching, NonFinite, NotAdiabatic, StepTooLarge
from .geometry import LoopSpec, _check_level, _gauged_coefficients, _o_b, berry_phase_loop

__all__ = [
    "PathSpec",
    "EvolutionResult",
    "evolve",
    "adiabatic_phase",
]

# First-derivative rows over five equally spaced nodes, in units of
# 1/(12 h): row p gives dH/dt at the window's p-th node. Row 2 is the
# central (1, -8, 0, 8, -1); rows 0, 1, 3 and 4 serve the two nodes
# nearest each end of the path, where a centred window would leave it.
# Every row is exact for quartics. A grid of three nodes (one RK4 step)
# takes the three-node rows, in units of 1/(2 h).
_STENCILS = {
    5: (np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1], [1, -8, 0, 8, -1],
                  [-1, 6, -18, 10, 3], [3, -16, 36, -48, 25]], dtype=float), 12.0),
    3: (np.array([[-3, 4, -1], [-1, 0, 1], [1, -4, 3]], dtype=float), 2.0),
}


@dataclass(frozen=True)
class PathSpec:
    """Parameter path t in [0, tau] -> lambda_t."""

    curve: Callable[[float], np.ndarray]
    duration: float
    closed: bool = False

    def __post_init__(self):
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ValueError("duration must be positive and finite")

    def at(self, t) -> np.ndarray:
        """lambda at a time, or at each time of an array ``t`` as
        ``t.shape + (d,)``, in a fresh array; ``curve`` is called once per
        time, with a Python float."""
        t = np.asarray(t, dtype=float)
        points = np.array([self.curve(s) for s in t.ravel().tolist()], dtype=float)
        return points.reshape(t.shape + points.shape[1:])

    @classmethod
    def from_samples(cls, times, points, closed: bool = False) -> "PathSpec":
        """Linear interpolation through dense (t, lambda) samples: ``points``
        is ``(T, d)`` and the T times run strictly increasing from 0."""
        times = np.asarray(times, dtype=float)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must have shape (T, d), got {points.shape}")
        if times.ndim != 1 or points.shape[0] != times.shape[0]:
            raise ValueError("times and points must have matching leading length")
        if times.size == 0 or times[0] != 0.0:
            raise ValueError(f"times must start at 0, got {times[:1]}")
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
    dynamical_phase: float = 0.0
    geometric_phase: float = 0.0


def _stencil(k, last):
    """First node and weights (in units of 1/h) of the window that gives
    dH/dt at the nodes ``k`` of a uniform grid 0..``last`` spaced h: five
    nodes, centred on k where they fit in the grid and else the five at its
    end, or the grid's three nodes when it has only three."""
    weights, denom = _STENCILS[5 if last >= 4 else 3]
    first = np.clip(k - len(weights) // 2, 0, last + 1 - len(weights))
    return first, weights[k - first] / denom


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
    in 0..N-1 of biortho_eig's order, else ValueError), the overlap with
    that instantaneous eigenstate is monitored (NotAdiabatic below 0.99)
    and the total / dynamical / geometric phases are extracted; gamma is
    arg<Phi_n(0)|P_n(tau)|psi(tau)> - arg<Phi_n(0)|psi(0)> - beta, which
    no gauge changes (AmbiguousMatching where <Phi_n(0)|Psi_n(tau)> = 0).
    Raises StepTooLarge when the W-norm drifts beyond ``drift_tol``
    (``np.inf`` switches the check off) and whenever a W-norm is not
    finite; ValueError unless ``n_steps`` is a positive integer and
    ``psi0`` has shape ``(N,)``, or for a NaN ``drift_tol``.

    The path is walked in chunks of steps, as many as the stack budget of
    ``biortho`` holds at two eigensolved nodes per step. The nodes are the
    step ends and half-steps, t_k = k dt/2 on the grid ``times``, so a step
    starts exactly where the last one ended; dH/dt at a node, the velocity
    K is formed along, is the five-node stencil of H at spacing dt/2 over
    the nodes around it (three nodes when ``n_steps`` is 1), so the path
    is sampled at nodes only and H is checked (NonFinite when it is NaN or
    Inf) up to one step ahead of the steps it serves. Per chunk, one
    family call over the nodes its stencils span (its own, and at most two
    more on each side, three before a chunk that is the last step alone)
    and one stacked eigensolve over its own nodes give H, W and K at every
    half-step and step end. The RK4 loop only multiplies matrices; the
    chunk's W-norms and overlap checks follow it. A chunk whose stacked
    work raises is replayed one step at a time from its start state, so
    the first failure in time order wins: a NotAdiabatic is never
    pre-empted by a DefectiveMatrix or NonFinite further down the path.
    """
    _check_integer(n_steps, "n_steps")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if np.isnan(drift_tol):
        raise ValueError("drift_tol must not be NaN")
    if track_level is not None:
        _check_level(track_level, family.dim_hilbert)
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (family.dim_hilbert,):
        raise ValueError(f"psi0 must have shape ({family.dim_hilbert},), got {psi.shape}")
    dt = path.duration / n_steps
    times = np.arange(n_steps + 1) * dt
    # t_k = k dt/2: step ends at even k (the times above, bit for bit, but
    # the last held to the duration), half-steps at odd k
    nodes = np.minimum(np.arange(2 * n_steps + 1) * (0.5 * dt), path.duration)
    states = np.empty((n_steps + 1, psi.shape[0]), dtype=complex)
    w_norms = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)

    def record(lo, hi, w, eig):
        """W-norms of states[lo:hi]; with a tracked level, check them against
        its left vectors in ``eig`` and return the last eig and overlap."""
        kets = states[lo:hi]
        w_norms[lo:hi] = np.einsum("ni,nij,nj->n", kets.conj(), w, kets).real
        if track_level is None:
            return
        ov = np.einsum("ni,ni->n", eig.left[..., track_level].conj(), kets)
        low = np.abs(ov) < 0.99 * np.sqrt(np.maximum(w_norms[lo:hi], 0.0))
        if low.any():
            i = int(np.argmax(low))
            raise NotAdiabatic(
                f"instantaneous overlap {np.abs(ov[i]):.4f} dropped below 0.99 "
                f"at t={times[lo + i]:.4g}"
            )
        energies[lo:hi] = eig.energies[..., track_level].real
        return eig[-1], ov[-1]

    def solve(k):
        """H, its eigensystem, W and K at the nodes k, from one family call
        over the nodes their stencils span and one stacked eigensolve over
        the nodes k alone; NonFinite when H is NaN or Inf at a sampled node."""
        first, rows = _stencil(k, 2 * n_steps)
        lo, m = first.min(), rows.shape[-1]
        h = family(path.at(nodes[lo:first.max() + m]))
        if not np.isfinite(h).all():
            raise NonFinite("H contains NaN or Inf entries at a node or a node of its stencil")
        window = h[(first - lo)[..., None] + np.arange(m)]
        h_dot = np.einsum("...j,...jab->...ab", rows, window) / (0.5 * dt)
        eig = biortho_eig(h[k - lo])
        c = _gauged_coefficients(eig, h_dot[..., None, :, :])[..., 0, :, :]
        return h[k - lo], eig, build_W(eig), _o_b(eig, c)

    h, eig, w, k = solve(np.zeros(1, dtype=int))
    states[0] = psi
    first = last = record(0, 1, w, eig)
    g_end = -1j * h[0] + k[0]  # the generator at the last step's end

    def chunk_work(a, b):
        """Generators and step-end records for steps a..b-1; writes no state."""
        h, eig, w, k = solve(np.arange(2 * a + 1, 2 * b + 1).reshape(b - a, 2))
        return -1j * h + k, w[:, 1], eig[:, 1]

    # numpy would promote each float constant to complex on every product;
    # formed once, and with .dot for @, each step keeps its bits.
    half, full, sixth, two = (np.complex128(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))

    def advance(a, b, work):
        """RK4 steps a..b-1 on the generators from chunk_work, then their records."""
        nonlocal psi, g_end, last
        g, w, eig = work
        for j in range(b - a):
            k1 = g_end.dot(psi)
            k2 = g[j, 0].dot(psi + half * k1)
            k3 = g[j, 0].dot(psi + half * k2)
            g_end = g[j, 1]
            k4 = g_end.dot(psi + full * k3)
            psi = psi + sixth * (k1 + two * k2 + two * k3 + k4)
            states[a + j + 1] = psi
        last = record(a + 1, b + 1, w, eig)

    chunk = _per_stack(2)  # a step eigensolves its half-step and its end
    for a in range(0, n_steps, chunk):
        b = min(a + chunk, n_steps)
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
    if not np.isfinite(drift):  # refused whatever drift_tol is, np.inf too
        raise StepTooLarge(f"W-norm is not finite (drift {drift}); increase n_steps")
    if drift > drift_tol:
        raise StepTooLarge(
            f"W-norm drift {drift:.3e} exceeds {drift_tol:.1e}; increase n_steps"
        )

    beta = gamma = 0.0
    if track_level is not None:
        (eig0, ov0), (eig1, ov1) = first, last
        link = np.vdot(eig0.left[:, track_level], eig1.right[:, track_level])
        if abs(link) < 1e-12:
            raise AmbiguousMatching("tracked level's end state has no overlap with its start")
        beta = -float(np.trapezoid(energies, times))
        gamma = _principal(float(np.angle(link * ov1) - np.angle(ov0)) - beta)

    return EvolutionResult(
        times=times,
        states=states,
        w_norms=w_norms,
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
