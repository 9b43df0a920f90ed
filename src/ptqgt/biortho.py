"""Biorthogonal eigendecomposition of non-Hermitian matrices.

Provides the eigensystem (right vectors of H, left vectors of H^dag,
biorthonormalized), the positive-definite inner-product metric W built
from the left vectors, and explicit gauge transformations. Nothing here
aligns the gauges of eigensystems at different parameter points: the
quantities built on them (projectors, overlap products, the end-point
phase of transport) need no such alignment.

Normalization convention: right vectors have unit 2-norm with their
largest-magnitude component real positive; the left vectors are the dual
basis ``left = inv(VR)^dag`` of the right-vector matrix VR, so that
<Phi_m|Psi_n> = delta_mn by construction. Eigenvalues are sorted by
(Re E, Im E) ascending, real parts that differ by no more than the
"real spectrum" band counting as equal, so that the two levels of a
PT-broken pair come in the order of Im E. ``biortho_eig`` and
``build_W`` accept a single matrix or a stack ``(..., N, N)`` and
decompose a stack in one call. A
real stack is decomposed in real arithmetic: its eigensystem is real when
every eigenvalue of the stack is real, and complex otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DefectiveMatrix,
    NonFinite,
    NotPositiveDefinite,
    ZeroScale,
)

__all__ = [
    "HamiltonianFamily",
    "BiorthoEigensystem",
    "biortho_eig",
    "build_W",
    "gauge_transform",
    "default_step",
]

_TOL_DEGENERATE = 1e-8  # eigenvalue distance that makes a cluster, times the scale
_TOL_REAL = 1e-9  # largest |Im E| of a real (PT-unbroken) spectrum, times the scale
# |H|^2 of an NxN matrix cannot overflow while N max|H_ij| stays below this
_SQRT_MAX = np.sqrt(np.finfo(float).max)
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])

# The one stack budget: matrices per stacked biortho_eig call, from which
# flux blocks, scan chunks and transport chunks take their size. Per-call
# overhead is paid once per stack and memory grows with its matrix count. A
# byte budget that kept the flux's 512 complex 2x2 matrices (32 KiB) would
# cut scan chunks to 3 points of 65 real 4x4 blocks: 14 calls per 41-point
# row instead of 6.
_STACK = 512


def _per_stack(matrices_each: int) -> int:
    """Items of ``matrices_each`` matrices that one stack holds, at least 1."""
    return max(1, _STACK // matrices_each)


def _check_integer(value, name: str, noun: str = "an integer") -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer; a
    bool is not one. The message reads "<name> must be <noun>, got ..."."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class HamiltonianFamily:
    """A smooth map from a real d-dimensional parameter point to an NxN matrix.

    Calling the family, and ``deriv``, takes a point ``(d,)`` or a stack
    ``(..., d)`` of them and returns ``(N, N)`` or ``(..., N, N)``, always
    a fresh complex array.

    Parameters
    ----------
    dim_hilbert : int
        Matrix size N.
    dim_param : int
        Number of real parameters d.
    evaluate : callable
        ``evaluate(lam) -> (N, N) complex ndarray`` for a length-d point.
    derivative : callable, optional
        ``derivative(lam, mu) -> (N, N) complex ndarray`` giving the
        exact partial derivative along direction ``mu``; every model file
        has one. When absent, as for ``verify._hermitian_block_family``,
        ``deriv`` takes central differences of ``evaluate`` at
        ``default_step`` of each point.
    batched : bool
        When False (the default), ``evaluate`` and ``derivative`` see one
        point and are called once per point of a stack. When True, they
        are called once per stack with all its P points as a ``(P, d)``
        array and return ``(P, N, N)``; a matrix that is the same at
        every point is returned as ``np.broadcast_to(M, (P, N, N))``. A
        result of any other shape raises ValueError.
    """

    dim_hilbert: int
    dim_param: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    batched: bool = False

    def __post_init__(self):
        for dim in (self.dim_hilbert, self.dim_param):
            _check_integer(dim, "dimensions", "integers")
        if self.dim_hilbert < 1 or self.dim_param < 1:
            raise ValueError("dimensions must be positive")

    def __call__(self, lam) -> np.ndarray:
        """H at a point ``(d,)`` or at each point of a stack ``(..., d)``."""
        return self._each(self.evaluate, lam)

    def deriv(self, lam, mu: int) -> np.ndarray:
        """Partial derivative along ``mu`` at a point or a stack: the
        exact ``derivative`` when given, else the central difference
        of ``evaluate`` over +/- ``default_step`` of each point. The
        difference raises NonFinite, before ``evaluate`` is called, when a
        point it takes is not finite: a NaN or Inf coordinate, or a step
        that overflows."""
        _check_integer(mu, "mu")
        if not 0 <= mu < self.dim_param:
            raise ValueError(f"mu must lie in 0..{self.dim_param - 1}, got {mu}")
        if self.derivative is not None:
            return self._each(lambda p: self.derivative(p, mu), lam)
        lam = self._points(lam)
        e = np.zeros(self.dim_param)
        e[mu] = 1.0
        step = default_step(lam)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            ahead, behind = lam + step * e, lam - step * e
        if not (np.isfinite(ahead).all() and np.isfinite(behind).all()):
            raise NonFinite("a difference point of deriv is not finite")
        return (self(ahead) - self(behind)) / (2.0 * step[..., None])

    def _points(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0 or lam.shape[-1] != self.dim_param:
            raise ValueError(f"expected points of length {self.dim_param}, got {lam.shape}")
        return lam

    def _each(self, fn, lam) -> np.ndarray:
        """``fn`` at each point of the stack ``lam``, a point being a stack
        of one: one call on the whole stack when the family is batched,
        else one call per point. The result is always a fresh array."""
        lam = self._points(lam)
        points = lam.reshape(-1, self.dim_param)
        mat = (self.dim_hilbert, self.dim_hilbert)
        shape = (len(points),) + mat
        if self.batched:
            out = np.array(fn(points), dtype=complex)
        else:
            # One array from all the results: its shape is (P, N, N) only
            # if every result is (N, N); nothing is broadcast.
            out = np.array([fn(p) for p in points] or np.empty(shape), dtype=complex)
        if out.shape != shape:
            raise ValueError(f"expected a result of shape {mat} at each point, "
                             f"a stack of {shape}, got {out.shape}")
        return out.reshape(lam.shape[:-1] + mat)


def default_step(lam):
    """Difference step 1e-5 (1 + |lam|) at a point ``(d,)``, or one per
    point of a stack ``(..., d)``."""
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.vecdot(lam, lam))
        if np.isinf(norm).any():  # |lam|^2 overflows: |lam| without squaring there
            norm = np.where(np.isinf(norm), np.hypot.reduce(np.abs(lam), axis=-1), norm)
    return 1e-5 * (1.0 + norm)


@dataclass(frozen=True)
class BiorthoEigensystem:
    """Eigenvalues with paired right/left eigenvectors, biorthonormalized.

    ``right[..., :, n]`` is Psi_n with H Psi_n = E_n Psi_n; ``left[..., :, n]``
    is Phi_n with H^dag Phi_n = E_n^* Phi_n and <Phi_m|Psi_n> = delta_mn.
    For a stack of matrices the leading axes index the stack, ``unbroken``
    is a boolean array over them, and ``eig[i]`` picks one element. The
    arrays are complex, or real when ``biortho_eig`` decomposed a real
    stack whose eigenvalues are all real.
    """

    energies: np.ndarray
    right: np.ndarray
    left: np.ndarray
    unbroken: bool | np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[-1]

    def __getitem__(self, i) -> "BiorthoEigensystem":
        unbroken = self.unbroken[i]
        return BiorthoEigensystem(
            energies=self.energies[i],
            right=self.right[i],
            left=self.left[i],
            unbroken=bool(unbroken) if np.ndim(unbroken) == 0 else unbroken,
        )


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def biortho_eig(h) -> BiorthoEigensystem:
    """Biorthogonal eigendecomposition of a square matrix or a stack of them.

    One ``numpy.linalg.eig`` call covers the whole stack; every check
    below applies to each element. The left vectors are the dual basis
    inv(VR)^dag of the right-vector matrix VR: for N = 2 the adjugate of
    VR over det VR, for other N one stacked ``numpy.linalg.inv`` call.

    Parameters
    ----------
    h : array_like, shape (..., N, N)
        Complex, or real (integer input included). A real stack is cast
        to float and solved by a real ``eig``; as in numpy, the results
        are real arrays when every eigenvalue of the stack is real.

    Levels are ordered by (Re E, Im E); real parts within the band
    1e-9 times the spectral scale that decides "real spectrum" count as
    equal, so a PT-broken pair is ordered by Im E (the -i|E| level
    first) whatever the round-off in its real parts. When numpy returns
    real eigenvalues, they are ordered by value, equal ones in numpy's
    order, and every element is unbroken.

    Raises
    ------
    NonFinite
        On NaN/Inf entries, and when the spectral scale or a gap between
        neighbouring eigenvalues overflows (a matrix near the float range).
    DefectiveMatrix
        When nearly-equal eigenvalues come with a singular eigenvector
        overlap (an exceptional point), when VR is exactly singular, or
        when a left vector is longer than 1e13 (or not finite).
    """
    h = np.asarray(h)
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    big = np.abs(h).max(initial=0.0)  # NaN or Inf when an entry is
    if not big < np.inf:
        raise NonFinite("matrix contains NaN or Inf entries")
    batch, n = h.shape[:-2], h.shape[-1]
    h = h.reshape(-1, n, n)
    rows = np.arange(h.shape[0])[:, None]

    w, vr = np.linalg.eig(h)
    # Scale on the matrix norm, not the spectral radius: at an exceptional
    # point all eigenvalues can sit near zero while the matrix does not.
    # The norm squares the entries; where that could overflow, it is taken
    # of each matrix divided by its largest entry. Beyond the float range
    # the scale, or a gap between neighbouring eigenvalues, is Inf or NaN,
    # and the matrix is refused; so is a dual vector that overflows.
    flat = h.reshape(h.shape[0], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        if big < _SQRT_MAX / n:
            norm = _norm(flat, -1) / np.sqrt(n)
        else:
            top = np.maximum(np.abs(flat).max(axis=-1), np.finfo(float).tiny)
            norm = top * (_norm(flat / top[:, None], -1) / np.sqrt(n))
        scale = np.maximum(np.abs(w).max(axis=-1), norm)
        if not np.isfinite(scale).all():
            raise NonFinite("the spectral scale of the matrix overflows")
        tol = _TOL_DEGENERATE * scale

        order = np.lexsort((w.imag, w.real))
        w = w[rows, order]
        dw = w[:, 1:] - w[:, :-1]  # between neighbours in the sorted order
        tied = dw.real <= _TOL_REAL * scale[:, None]
        if tied.any():
            # A PT-broken pair has equal real parts up to round-off: order
            # each run of real parts within the "real spectrum" band by Im E.
            band = np.concatenate([np.zeros((len(w), 1), int), np.cumsum(~tied, axis=-1)],
                                  axis=-1)
            perm = np.lexsort((w.imag, band))
            order, w = order[rows, perm], w[rows, perm]
            dw = w[:, 1:] - w[:, :-1]
        if not np.isfinite(dw).all():
            raise NonFinite("a gap between neighbouring eigenvalues overflows")
        vr = vr[rows, :, order].swapaxes(-1, -2)

        # Exceptional-point detection: clusters of sorted eigenvalues
        # (neighbours within tol) whose right vectors span less than the
        # cluster size.
        close = np.abs(dw) <= tol[:, None]
        if close.any():
            for i in np.flatnonzero(close.any(axis=-1)):
                for group in np.split(np.arange(n), np.flatnonzero(~close[i]) + 1):
                    if len(group) < 2:
                        continue
                    s = np.linalg.svd(vr[i][:, group], compute_uv=False)
                    if s[-1] <= 1e-8 * s[0]:
                        raise DefectiveMatrix(
                            f"eigenvalues near {w[i, group[0]]:.6g} have coalescing eigenvectors"
                        )

        # Unit norm, largest-magnitude component real positive.
        phases = vr[rows, np.abs(vr).argmax(axis=-2), np.arange(n)]
        vr = vr * (np.abs(phases) / (phases * _norm(vr, -2)))[:, None, :]

        # The dual basis inv(VR)^dag is biorthonormal by construction:
        # <Phi_m|Psi_n> = delta_mn, degenerate clusters included.
        if n == 2:
            vl = _dual_basis_2(vr)
        else:
            try:
                vl = _dagger(np.linalg.inv(vr))
            except np.linalg.LinAlgError as exc:
                raise DefectiveMatrix("right eigenvector matrix is singular") from exc
        # |Phi_n| = 1/|<phi_n|Psi_n>| for the unit left eigenvector phi_n;
        # the negated test also refuses NaN from a zero right vector.
        if not (_norm(vl, -2) <= 1e13).all():
            raise DefectiveMatrix("left/right eigenvector overlap numerically singular")

    unbroken = np.abs(w.imag).max(axis=-1) <= _TOL_REAL * scale
    return BiorthoEigensystem(
        energies=w.reshape(batch + (n,)),
        right=vr.reshape(batch + (n, n)),
        left=vl.reshape(batch + (n, n)),
        unbroken=bool(unbroken[0]) if not batch else unbroken.reshape(batch),
    )


def _dual_basis_2(vr: np.ndarray) -> np.ndarray:
    """inv(VR)^dag of a stack (P, 2, 2) as the adjugate over det VR: one
    stacked LAPACK call costs more than this arithmetic on 2x2 matrices.
    Raises DefectiveMatrix when a determinant is exactly zero. A dual
    vector that overflows comes back as Inf or NaN, for the caller's norm
    check to refuse; the caller holds the floating-point errors."""
    det = vr[:, 0, 0] * vr[:, 1, 1] - vr[:, 0, 1] * vr[:, 1, 0]
    if not det.all():
        raise DefectiveMatrix("right eigenvector matrix is singular")
    # Reversing both axes of [[a, b], [c, d]] gives [[d, c], [b, a]]; the
    # signs make it adj(VR)^T.
    return (vr[:, ::-1, ::-1] * _ADJUGATE_SIGNS / det[:, None, None]).conj()


def _norm(x: np.ndarray, axis: int) -> np.ndarray:
    """The 2-norm along ``axis`` by numpy's own formula in
    ``numpy.linalg.norm``, so the same bits, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def build_W(eig: BiorthoEigensystem) -> np.ndarray:
    """Inner-product metric W = sum_n |Phi_n><Phi_n| from the left vectors,
    checked positive definite.

    With this W the right vectors are orthonormal in the W inner product:
    <Psi_m|W|Psi_n> = delta_mn. Stacked eigensystems give stacked W.
    Entrywise at every N; the ratio is closed-form at N = 2: each entry of
    W = L L^dag on and above the diagonal is one ``np.vecdot`` of a pair
    of rows of L, mirrored below, and at other N the ratio of W's extreme
    eigenvalues comes from one stacked ``numpy.linalg.eigvalsh``. Raises NotPositiveDefinite when the
    smallest ratio over the stack is not above N eps, or when W overflows.
    """
    left, n = eig.left, eig.dim
    w = np.empty(left.shape, dtype=left.dtype)
    # W beyond the float range gives Inf or NaN, for the check to refuse
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(n):
            for j in range(i, n):
                # W_ij = sum_n L_in L_jn^*, np.vecdot conjugating its first argument
                entry = np.vecdot(left[..., j, :], left[..., i, :])
                if i == j:
                    w[..., i, i] = entry.real
                else:
                    w[..., i, j], w[..., j, i] = entry, entry.conj()
        if n == 2:
            ratio = _ratio_2(w)
        elif np.isfinite(w).all():
            evals = np.linalg.eigvalsh(w)
            ratio = evals[..., 0] / evals[..., -1]
        else:  # eigvalsh does not converge on Inf or NaN
            ratio = np.nan
    # eigvalsh resolves eigenvalues only to ~N eps |W|, and the closed form
    # to about the same: below that, W is numerically singular whatever the
    # sign of the computed value. The negated test also refuses NaN.
    ratio = float(np.min(ratio))
    if not ratio > n * np.finfo(float).eps:
        raise NotPositiveDefinite(
            f"smallest/largest eigenvalue of W is {ratio:.3e}; eigensystem is broken"
        )
    return w


def _ratio_2(w: np.ndarray) -> np.ndarray:
    """lambda_min / lambda_max of each Hermitian 2x2 W = [[a, b], [b^*, d]]
    of a stack (..., 2, 2), as (...): lambda_max = (a + d + sqrt((a - d)^2
    + 4|b|^2)) / 2 and lambda_min = (a d - |b|^2) / lambda_max. The ratio
    is formed from a, d and |b| over lambda_max, which no W within the
    float range overflows; a W beyond it gives NaN, for the caller to
    refuse. The caller holds the floating-point errors."""
    a, d, size = w[..., 0, 0].real, w[..., 1, 1].real, np.abs(w[..., 0, 1])
    top = 0.5 * (a + d + np.hypot(a - d, 2.0 * size))
    return (a / top) * (d / top) - (size / top) ** 2


def gauge_transform(eig: BiorthoEigensystem, f) -> BiorthoEigensystem:
    """Scale Psi_n by f_n and Phi_n by 1/f_n^*; biorthonormality is exact.
    Raises NonFinite for a NaN or Inf factor and ZeroScale for a zero one."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (eig.dim,):
        raise ValueError(f"expected {eig.dim} scale factors, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise NonFinite("gauge scale factors must be finite")
    if np.any(f == 0):
        raise ZeroScale("gauge scale factors must be nonzero")
    return BiorthoEigensystem(
        energies=eig.energies,
        right=eig.right * f,
        left=eig.left / f.conj(),
        unbroken=eig.unbroken,
    )
