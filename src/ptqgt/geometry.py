"""Geometric quantities on the parameter manifold of a Hamiltonian family.

Everything here is derived from one object: the complex Hermitian tensor
``Q_{n,mu nu}`` attached to level n at a parameter point. Its imaginary
part is the (real antisymmetric) Berry curvature, its real part the
(real symmetric, possibly pseudo-Riemannian) metric tensor. Berry phases
come from a gauge-invariant overlap-product estimator. ``qgt`` differences
the level projectors P_n = |Psi_n><Phi_n|, which no gauge changes. Q also
has a perturbative (sum-over-states) route, which the curvature flux
uses, and the metric a variance form built from the generator operators
O_mu; both rest on one eigensolve and the first-order eigenvector
response C_mu, and serve as independent cross-checks of the
finite-difference route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .biortho import (
    BiorthoEigensystem,
    HamiltonianFamily,
    _check_integer,
    _per_stack,
    biortho_eig,
    build_W,
    default_step,
)
from .errors import AmbiguousMatching, Degenerate, NonFinite, OpenLoop

__all__ = [
    "GeomTensor",
    "LoopSpec",
    "OperatorPair",
    "qgt",
    "berry_phase_loop",
    "curvature_flux",
    "fidelity",
    "o_operators",
    "variance_metric",
    "classify_interval",
]

@dataclass(frozen=True)
class GeomTensor:
    """Level-resolved geometric tensor Q at a parameter point."""

    level: int
    point: np.ndarray
    q: np.ndarray  # (d, d) complex Hermitian


@dataclass(frozen=True)
class LoopSpec:
    """Closed polygonal loop in parameter space (first vertex == last)."""

    vertices: np.ndarray  # (M, d)
    level: int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[0] < 4:
            raise ValueError("a loop needs at least 4 vertices")

    @property
    def closed(self) -> bool:
        return bool(np.allclose(self.vertices[0], self.vertices[-1], rtol=0.0, atol=1e-12))


@dataclass(frozen=True)
class OperatorPair:
    """O_mu = O_A,mu + i O_B,mu split into physically Hermitian parts."""

    o_full: np.ndarray  # (d, N, N)
    o_a: np.ndarray
    o_b: np.ndarray


def _projector_derivatives(h_at, lam, step) -> tuple[BiorthoEigensystem, np.ndarray]:
    """Central differences of the level projectors P_n = |Psi_n><Phi_n| at
    the point ``lam`` (d,), with the 2d+1 stencil solved as one stack.

    ``h_at`` maps the stencil, centre then ``lam + step e_mu`` then
    ``lam - step e_mu``, from ``(2d+1, d)`` to ``(2d+1, ..., N, N)``: a
    family, or several side by side along ``...``. Returns the centre
    eigensystem (..., N) and ``dp[mu, ..., n]`` ~ d_mu P_n, (d, ..., N, N, N).
    No gauge changes a projector, so nothing is phase-aligned: each centre
    level n is matched, on its own, to the stencil level m of largest
    |<Phi_n|Psi_m>|. Raises AmbiguousMatching when a matched overlap is
    below 1e-12, Degenerate when the stencil straddles a PT-breaking point
    and NonFinite when the step is not finite.
    """
    if not step < np.inf:  # the default step of a point near the float range
        raise NonFinite(f"difference step {step} is not finite")
    d = lam.size
    points = lam + step * np.concatenate([np.zeros((1, d)), np.eye(d), -np.eye(d)])
    eigs = biortho_eig(h_at(points))
    if np.any(eigs.unbroken != eigs.unbroken[0]):
        raise Degenerate("difference stencil straddles a PT-breaking (exceptional) point")
    eig0 = eigs[0]
    # Kept for its positivity check alone: qgt relies on it to refuse
    # (NotPositiveDefinite) a stencil whose metric W is numerically
    # singular, as it turns next to an exceptional point.
    build_W(eigs)
    overlaps = np.abs(np.swapaxes(eig0.left.conj(), -1, -2) @ eigs.right[1:])
    if overlaps.max(axis=-1).min() < 1e-12:
        raise AmbiguousMatching("matched overlap is numerically zero")
    p = _projectors(eigs[1:])
    # the matched levels, gathered over the stack axes flattened into one
    flat = p.reshape((-1,) + p.shape[-3:])
    match = overlaps.argmax(axis=-1).reshape(len(flat), -1)
    p = flat[np.arange(len(flat))[:, None], match].reshape(p.shape)
    return eig0, (p[:d] - p[d:]) / (2.0 * step)


def _projectors(eig: BiorthoEigensystem) -> np.ndarray:
    """P_n = |Psi_n><Phi_n| of every level n, as ``[..., n, :, :]``."""
    return np.einsum("...in,...jn->...nij", eig.right, eig.left.conj())


def _as_point(lam, d: int, name: str = "point") -> np.ndarray:
    """``lam`` as a float array; ValueError unless its shape is ``(d,)``,
    then NonFinite unless every coordinate is finite."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {lam.shape}")
    if not np.isfinite(lam).all():
        raise NonFinite(f"{name} must be finite, got {lam}")
    return lam


def _check_level(n: int, dim: int):
    _check_integer(n, "level")
    if not 0 <= n < dim:
        raise ValueError(f"level must lie in 0..{dim - 1}, got {n}")


def _check_gap(eig: BiorthoEigensystem, levels: Sequence[int]):
    """Raise ValueError unless every entry of ``levels`` names a level of
    ``eig``, then Degenerate when one of them is closer to another level
    than 1e-8 times the spectral radius, at any element of a stack. The
    first offender is reported: the first such level in the order given,
    at its first such stack element."""
    for n in levels:
        _check_level(n, eig.dim)
    if eig.dim < 2:
        return
    gaps, tol = _level_gaps(eig.energies, levels)
    for n, gap in zip(levels, gaps):
        bad = np.flatnonzero(gap < tol)
        if bad.size:
            i = bad[0]
            raise Degenerate(f"level {n} gap {gap[i]:.3e} below tolerance {tol[i]:.3e}")


def _level_gaps(energies: np.ndarray, levels: Sequence[int]) -> tuple[list, np.ndarray]:
    """The distance from each of ``levels`` to the nearest other level,
    one array (M,) per level over the M spectra of a stack (..., N) with
    N >= 2, and the cut 1e-8 times each spectrum's largest |E|, (M,)."""
    # Levels first: each reduction over them is then elementwise along the
    # stack, which numpy does far faster than a reduction over a short axis.
    e = energies.reshape(-1, energies.shape[-1]).T.copy()
    tol = 1e-8 * np.maximum(np.abs(e).max(axis=0), 1e-300)
    gaps = []
    for n in levels:
        dist = np.abs(e - e[n])
        dist[n] = np.inf  # the minimum runs over the other levels
        gaps.append(dist.min(axis=0))
    return gaps, tol


def _fd_qgt(eig: BiorthoEigensystem, dp) -> np.ndarray:
    """Q of every level, (..., N, d, d), from the eigensystem (..., N) and
    the derivatives ``dp`` (d, ..., N, N, N) of ``_projector_derivatives``.

    Q = 1/2 (x + x^dag) with x_{mu nu} = Tr(P_n d_mu P_n d_nu P_n), which
    is <d_mu Phi_n|(1 - |Psi_n><Phi_n|)|d_nu Psi_n> as <Phi_n|Psi_n> = 1;
    exactly Hermitian by construction.
    """
    x = np.einsum("...nij,a...njk,b...nki->...nab", _projectors(eig), dp, dp)
    return 0.5 * (x + np.swapaxes(x, -1, -2).conj())


def qgt(family: HamiltonianFamily, lam, n: int = 0) -> GeomTensor:
    """Extended geometric tensor of level ``n`` at ``lam`` by differencing
    the projector P_n over the 2d+1 stencil at ``default_step(lam)``,
    decomposed as one stack.

    Raises ValueError unless 0 <= n < N and ``lam`` has shape ``(d,)``,
    NonFinite for a point or step that is not finite, before the family
    is called, and Degenerate when the level gap is below tolerance.
    """
    _check_level(n, family.dim_hilbert)
    lam = _as_point(lam, family.dim_param)
    eig, dp = _projector_derivatives(family, lam, default_step(lam))
    _check_gap(eig, [n])
    return GeomTensor(level=n, point=lam, q=_fd_qgt(eig, dp)[n])


def _coefficients(eig: BiorthoEigensystem, dh) -> np.ndarray:
    """Eigenvector response C_mu[m, n] = (Phi^dag d_mu H Psi)[m, n] / (E_n - E_m),
    (..., d, N, N), so that d_mu Psi = Psi C_mu off the diagonal. C is zero
    wherever E_n = E_m, the diagonal included, never 0/0.

    For N = 2 only the two off-diagonal elements are formed, each as one
    contraction of d_mu H with the outer product of the two vectors it
    pairs: stacked complex 2x2 products cost several times real ones in
    numpy's matmul loop, and the generic chain Phi^dag @ dH @ Psi was most
    of a two-level block's time. Both routes agree to rounding."""
    e = eig.energies
    if eig.dim == 2:
        flat = np.reshape(dh, np.shape(dh)[:-2] + (4,))

        def element(m, n):  # (Phi_m^dag d_mu H Psi_n), (..., d)
            # np.vecdot conjugates its first argument, the outer product
            # Phi_m Psi_n^dag, flattened as d_mu H is
            outer = eig.left[..., :, m, None] * eig.right[..., None, :, n].conj()
            return np.vecdot(outer.reshape(e.shape[:-1] + (1, 4)), flat)

        de = e[..., 1] - e[..., 0]
        inv_gap = np.divide(1.0, de, out=np.zeros_like(de), where=de != 0)[..., None]
        m01, m10 = element(0, 1), element(1, 0)
        c = np.zeros(m01.shape + (2, 2), np.result_type(m01, inv_gap))
        c[..., 0, 1] = m01 * inv_gap
        c[..., 1, 0] = m10 * -inv_gap  # E_0 - E_1 = -(E_1 - E_0) exactly
        return c
    gap = e[..., None, :] - e[..., :, None]  # E_n - E_m at [m, n]
    inv_gap = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap != 0)
    phi_dag = np.swapaxes(eig.left.conj(), -1, -2)
    return (phi_dag[..., None, :, :] @ dh @ eig.right[..., None, :, :]) * inv_gap[..., None, :, :]


def _gauged_coefficients(eig: BiorthoEigensystem, dh) -> np.ndarray:
    """``_coefficients`` with the diagonal that biortho_eig's gauge sets,
    so that d_mu Psi = Psi C_mu in full; ``eig`` may be a stack (..., N)
    and ``dh`` is (..., d, N, N). Unit-norm Psi_n and real <Phi_n|d Psi_n>
    give C_nn = -Re sum_{m != n} (Psi^dag Psi)_nm C_mn."""
    c = _coefficients(eig, dh)
    gram = np.swapaxes(eig.right.conj(), -1, -2) @ eig.right
    diag = np.arange(eig.dim)
    # The sum may include m = n: _coefficients leaves C_nn zero.
    c[..., diag, diag] = -(gram[..., None, :, :] * np.swapaxes(c, -1, -2)).sum(-1).real
    return c


def _o_b(eig: BiorthoEigensystem, c) -> np.ndarray:
    """O_B = 1/2 Psi (C + C^dag) Phi^dag = -1/2 W^{-1} dW for the gauged
    response ``c`` (..., N, N) of ``_gauged_coefficients``, which
    broadcasts against ``eig``: as d Psi = Psi C and W^{-1} = Psi Psi^dag,
    this is the generator O_B, and K of ``dynamics`` along dH/dt."""
    phi_dag = np.swapaxes(eig.left.conj(), -1, -2)
    return 0.5 * eig.right @ (c + np.swapaxes(c.conj(), -1, -2)) @ phi_dag


def _sos_qgt(eig: BiorthoEigensystem, dh, levels) -> np.ndarray:
    """Sum-over-states Q summed over the levels selected by ``levels``.

    Q = x + x^dag with x_{mu nu} = -1/2 sum_{n in levels} (C_mu C_nu)_nn,
    whose denominators (E_n - E_m)^2, not |E_n - E_m|^2, keep it right for
    a complex spectrum. ``eig`` may be a stack (..., N); ``dh`` is
    (d, N, N) or (..., d, N, N) and ``levels`` a boolean mask (..., N).
    Returns the complex (..., d, d). Callers check the gaps of the
    selected levels first.
    """
    c = _coefficients(eig, dh)
    x = -0.5 * np.einsum("...n,...anm,...bmn->...ab", levels, c, c)
    return x + np.swapaxes(x, -1, -2).conj()


def berry_phase_loop(family: HamiltonianFamily, loop: LoopSpec) -> float:
    """Berry phase from the discrete overlap product around a closed loop.

    gamma = -arg prod_i <Phi_n(lam_i)|Psi_n(lam_{i+1})>, cyclic over the
    vertex sequence. Exactly invariant under per-vertex gauge changes;
    converges to the line integral of the connection as the vertex
    spacing shrinks. Principal value in (-pi, pi].
    """
    if not loop.closed:
        raise OpenLoop("first and last loop vertices differ")
    n = loop.level
    eigs = biortho_eig(family(loop.vertices[:-1]))
    _check_gap(eigs, [n])
    links = np.einsum("ij,ij->i", eigs.left[:, :, n].conj(),
                      np.roll(eigs.right[:, :, n], -1, axis=0))
    prod = np.prod(links)
    if prod == 0:
        raise Degenerate("vanishing overlap along the loop")
    gamma = -float(np.angle(prod))
    if gamma <= -np.pi:  # pin the branch to (-pi, pi]
        gamma += 2.0 * np.pi
    return gamma


def curvature_flux(
    family: HamiltonianFamily,
    lam_min,
    lam_max,
    plane: tuple[int, int] = (0, 1),
    resolution: int = 32,
    n: int = 0,
) -> float:
    """Surface integral of the curvature two-form over an axis rectangle.

    Midpoint rule on a ``resolution x resolution`` grid in the (mu, nu)
    plane; other coordinates are held at ``lam_min``. The two-form flux
    picks up both index orders, hence the factor 2 on Omega_{mu nu}.
    Satisfies flux + boundary Berry phase -> 0 (Stokes) as the grids
    refine.

    Omega = Im Q comes from the sum-over-states kernel; no eigenvectors are
    differenced. The grid is solved row-major in blocks of whole rows, as
    many as the stack budget of ``biortho`` holds: one family call, one
    stacked eigensolve and one ``deriv`` call per axis per block. Raises
    ValueError unless ``plane`` names two distinct parameter axes,
    ``resolution`` is an integer of at least 1, ``n`` names a level and
    ``lam_min`` and ``lam_max`` have shape ``(d,)``, and Degenerate when a
    grid point lies in another PT phase than the first (the rectangle
    crosses an exceptional line) or when level ``n`` closes its gap at a
    grid point.
    """
    if np.shape(plane) != (2,):
        raise ValueError(f"plane must name two axes, got {plane!r}")
    mu, nu = plane
    for axis in plane:
        _check_integer(axis, "plane axes", "integers")
    if not (0 <= mu < family.dim_param and 0 <= nu < family.dim_param and mu != nu):
        raise ValueError(
            f"plane must name two distinct axes in 0..{family.dim_param - 1}, got {plane}"
        )
    _check_integer(resolution, "resolution")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    _check_level(n, family.dim_hilbert)
    lam_min = _as_point(lam_min, family.dim_param, "lam_min")
    lam_max = _as_point(lam_max, family.dim_param, "lam_max")
    # Corners near the float range can overflow the spacing or the sums;
    # such a grid is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(lam_min[mu], lam_max[mu], resolution + 1)
        ys = np.linspace(lam_min[nu], lam_max[nu], resolution + 1)
        da = (xs[1] - xs[0]) * (ys[1] - ys[0])
        mid_x, mid_y = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    if not (np.isfinite(da) and np.isfinite(mid_x).all() and np.isfinite(mid_y).all()):
        raise NonFinite("flux grid midpoints or cell area are not finite")
    levels = np.arange(family.dim_hilbert) == n
    grid = np.tile(lam_min, (resolution, resolution, 1))
    grid[..., mu] = mid_x[:, None]
    grid[..., nu] = mid_y
    grid = grid.reshape(-1, lam_min.size)
    block = resolution * _per_stack(resolution)
    total = 0.0
    unbroken = None
    for start in range(0, len(grid), block):
        points = grid[start:start + block]
        eig = biortho_eig(family(points))
        if unbroken is None:
            unbroken = eig.unbroken[0]
        if np.any(eig.unbroken != unbroken):
            raise Degenerate("flux grid crosses a PT-breaking (exceptional) line")
        _check_gap(eig, [n])
        dh = np.stack([family.deriv(points, a) for a in (mu, nu)], axis=-3)
        total += 2.0 * float(np.sum(_sos_qgt(eig, dh, levels)[:, 0, 1].imag)) * da
    return total


def fidelity(eig_a: BiorthoEigensystem, eig_b: BiorthoEigensystem, n: int = 0) -> float:
    """Fidelity between level-n biorthogonal density operators.

    F = sqrt(|<Phi_n(b)|Psi_n(a)><Phi_n(a)|Psi_n(b)>|); equals 1 when the
    eigensystems coincide and is invariant under gauge rescalings on
    either side. Raises ValueError unless both are single eigensystems of
    the same size and 0 <= n < N.
    """
    if eig_a.energies.ndim != 1 or eig_a.energies.shape != eig_b.energies.shape:
        raise ValueError("fidelity compares two single eigensystems of the same size, got "
                         f"energies of shape {eig_a.energies.shape} and {eig_b.energies.shape}")
    _check_level(n, eig_a.dim)
    o_ba = np.vdot(eig_b.left[:, n], eig_a.right[:, n])
    o_ab = np.vdot(eig_a.left[:, n], eig_b.right[:, n])
    return float(np.sqrt(np.abs(o_ba * o_ab)))


def _generators(family: HamiltonianFamily, lam) -> tuple[BiorthoEigensystem, OperatorPair]:
    """The eigensystem at ``lam`` and ``o_operators`` there; ValueError
    unless ``lam`` has shape ``(d,)``."""
    lam = _as_point(lam, family.dim_param)
    eig = biortho_eig(family(lam))
    _check_gap(eig, range(eig.dim))
    dh = np.stack([family.deriv(lam, mu) for mu in range(family.dim_param)])
    c = _gauged_coefficients(eig, dh)
    o_full = 1j * (eig.right @ c @ eig.left.conj().T)
    o_b = _o_b(eig, c)
    return eig, OperatorPair(o_full=o_full, o_a=o_full - 1j * o_b, o_b=o_b)


def o_operators(family: HamiltonianFamily, lam) -> OperatorPair:
    """Generators O_mu = i sum_n |d_mu Psi_n><Phi_n| and their A/B split.

    O_B,mu = -1/2 W^{-1} d_mu W is (minus) the gauge field driving the
    inner-product drift; O_A,mu = O_mu - i O_B,mu. Both parts are
    Hermitian in the W inner product. Each field is a (d, N, N) stack,
    from one eigensolve: as d_mu Psi = Psi C_mu and W^{-1} = Psi Psi^dag,
    O_mu = i Psi C_mu Phi^dag and O_B,mu = 1/2 Psi (C_mu + C_mu^dag) Phi^dag.
    Raises Degenerate when any two levels meet.
    """
    return _generators(family, lam)[1]


def variance_metric(family: HamiltonianFamily, lam) -> np.ndarray:
    """Ground-state metric from centred anticommutators of O_A and O_B.

    g_{mu nu} = 1/2 (<{O_A,mu - <O_A,mu>, ...}> - <{O_B,mu - ..., ...}>)
    with expectations <X> = <Phi_0|X|Psi_0>. Raises Degenerate when any
    two levels meet.
    """
    eig, ops = _generators(family, lam)
    phi0 = eig.left[:, 0].conj()
    psi0 = eig.right[:, 0]
    eye = np.eye(eig.dim)

    def anticommutators(o):
        x = o - np.einsum("i,aij,j->a", phi0, o, psi0)[:, None, None] * eye
        pair = np.einsum("i,aij,bjk,k->ab", phi0, x, x, psi0)
        return pair + pair.T

    return 0.5 * (anticommutators(ops.o_a) - anticommutators(ops.o_b)).real


def classify_interval(g, dlam) -> tuple[float, str]:
    """Sign-classify ds^2 = g_{mu nu} dlam^mu dlam^nu.

    Returns ``(ds2, kind)`` with kind one of 'spacelike' (> 0),
    'lightlike' (within the round-off band of 0) or 'timelike' (< 0).
    Raises ValueError unless ``g`` is a finite (d, d) array and ``dlam`` a
    finite (d,) array, and when ds^2 or its round-off band overflows.
    """
    g = np.asarray(g, dtype=float)
    dlam = np.asarray(dlam, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or dlam.shape != g.shape[:1]:
        raise ValueError(f"expected g of shape (d, d) and dlam of shape (d,), "
                         f"got {g.shape} and {dlam.shape}")
    # A NaN or Inf in g or dlam leaves ds2 or its band non-finite, as overflow does
    with np.errstate(over="ignore", invalid="ignore"):
        ds2 = float(dlam @ g @ dlam)
        band = 1e-12 * float(np.linalg.norm(g)) * float(dlam @ dlam)
    if not (np.isfinite(ds2) and np.isfinite(band)):
        raise ValueError(f"g and dlam must be finite and give a finite ds2 and round-off "
                         f"band, got {ds2} and {band}")
    if abs(ds2) <= band:
        return ds2, "lightlike"
    return ds2, "spacelike" if ds2 > 0 else "timelike"
