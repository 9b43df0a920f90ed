"""Biorthogonal eigendecomposition of non-Hermitian matrices.

Provides the eigensystem (right vectors of H, left vectors of H^dag,
biorthonormalized), the positive-definite inner-product metric W built
from the left vectors, and the gauge bookkeeping (smooth gauge fixing
along parameter paths, explicit gauge transformations) that downstream
geometric quantities rely on.

Normalization convention: right vectors have unit 2-norm with their
largest-magnitude component real positive; the left vectors are the dual
basis ``left = inv(VR)^dag`` of the right-vector matrix VR, so that
<Phi_m|Psi_n> = delta_mn by construction. Eigenvalues are sorted by
(Re E, Im E) ascending. ``biortho_eig`` and ``build_W`` accept a single
matrix or a stack ``(..., N, N)`` and decompose a stack in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import (
    AmbiguousMatching,
    DefectiveMatrix,
    NonFinite,
    NotPositiveDefinite,
    ZeroScale,
)

__all__ = [
    "HamiltonianFamily",
    "BiorthoEigensystem",
    "MetricOperator",
    "biortho_eig",
    "build_W",
    "gauge_fix",
    "gauge_transform",
]

_TOL_DEGENERATE = 1e-8  # eigenvalue distance that makes a cluster, times the scale
_TOL_REAL = 1e-9  # largest |Im E| of a real (PT-unbroken) spectrum, times the scale


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
        analytic partial derivative along direction ``mu``. When absent,
        ``deriv`` falls back to central differences of ``evaluate``.
    batched : bool
        When False (the default), ``evaluate`` and ``derivative`` see one
        point and are called once per point of a stack. When True, they
        are called once per stack with all its P points as a ``(P, d)``
        array and return ``(P, N, N)``, or ``(N, N)`` for a matrix that
        is the same at every point. A result of any other shape raises
        ValueError.
    """

    dim_hilbert: int
    dim_param: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    batched: bool = False

    def __post_init__(self):
        if self.dim_hilbert < 1 or self.dim_param < 1:
            raise ValueError("dimensions must be positive")

    def __call__(self, lam) -> np.ndarray:
        """H at a point ``(d,)`` or at each point of a stack ``(..., d)``."""
        return self._each(self.evaluate, lam)

    def deriv(self, lam, mu: int, step=1e-6) -> np.ndarray:
        """Partial derivative along ``mu`` at a point or a stack. ``step``,
        a scalar or an array over the stack, serves the fallback."""
        if not 0 <= mu < self.dim_param:
            raise ValueError(f"mu must lie in 0..{self.dim_param - 1}, got {mu}")
        if self.derivative is not None:
            return self._each(lambda p: self.derivative(p, mu), lam)
        lam = self._points(lam)
        e = np.zeros(self.dim_param)
        e[mu] = 1.0
        step = np.asarray(step, dtype=float)[..., None]
        return (self(lam + step * e) - self(lam - step * e)) / (2.0 * step[..., None])

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
        if not self.batched:
            # One array from all the results: its shape is (P, N, N) only
            # if every result is (N, N); nothing is broadcast.
            out = np.array([fn(p) for p in points] or np.empty(shape), dtype=complex)
            if out.shape != shape:
                raise ValueError(f"expected a result of shape {mat} at each point, "
                                 f"got a stack of {out.shape}")
        else:
            out = np.asarray(fn(points))
            if out.shape not in (shape, mat):
                raise ValueError(f"expected a result of shape {shape} or {mat}, got {out.shape}")
            out = np.array(np.broadcast_to(out, shape), dtype=complex)
        return out.reshape(lam.shape[:-1] + mat)


@dataclass(frozen=True)
class BiorthoEigensystem:
    """Eigenvalues with paired right/left eigenvectors, biorthonormalized.

    ``right[..., :, n]`` is Psi_n with H Psi_n = E_n Psi_n; ``left[..., :, n]``
    is Phi_n with H^dag Phi_n = E_n^* Phi_n and <Phi_m|Psi_n> = delta_mn.
    For a stack of matrices the leading axes index the stack, ``unbroken``
    is a boolean array over them, and ``eig[i]`` picks one element.
    """

    energies: np.ndarray
    right: np.ndarray
    left: np.ndarray
    unbroken: bool | np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[-1]

    def overlap_matrix(self) -> np.ndarray:
        """<Phi_m|Psi_n>; identity for a valid eigensystem."""
        return _dagger(self.left) @ self.right

    def __getitem__(self, i) -> "BiorthoEigensystem":
        unbroken = self.unbroken[i]
        return BiorthoEigensystem(
            energies=self.energies[i],
            right=self.right[i],
            left=self.left[i],
            unbroken=bool(unbroken) if np.ndim(unbroken) == 0 else unbroken,
        )


@dataclass(frozen=True)
class MetricOperator:
    """Positive-definite W with W H = H^dag W, defining the inner product."""

    matrix: np.ndarray


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def biortho_eig(h) -> BiorthoEigensystem:
    """Biorthogonal eigendecomposition of a square matrix or a stack of them.

    One ``numpy.linalg.eig`` call covers the whole stack; every check
    below applies to each element.

    Parameters
    ----------
    h : array_like, shape (..., N, N)

    Raises
    ------
    NonFinite
        On NaN/Inf entries.
    DefectiveMatrix
        When nearly-equal eigenvalues come with a singular eigenvector
        overlap (an exceptional point), or a left vector blows up.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    batch, n = h.shape[:-2], h.shape[-1]
    h = h.reshape(-1, n, n)
    rows, cols = np.arange(h.shape[0])[:, None], np.arange(n)

    w, vr = np.linalg.eig(h)
    order = np.lexsort((w.imag, w.real))
    w = w[rows, order]
    vr = vr[rows, :, order].swapaxes(-1, -2)

    # Scale on the matrix norm, not the spectral radius: at an exceptional
    # point all eigenvalues can sit near zero while the matrix does not.
    norm_scale = np.linalg.norm(h.reshape(h.shape[0], -1), axis=-1) / np.sqrt(n)
    scale = np.maximum(np.abs(w).max(axis=-1), norm_scale)
    tol = _TOL_DEGENERATE * scale

    # Exceptional-point detection: clusters of sorted eigenvalues (neighbours
    # within tol) whose right vectors span less than the cluster size.
    close = np.abs(w[:, 1:] - w[:, :-1]) <= tol[:, None]
    for i in np.flatnonzero(close.any(axis=-1)):
        for group in np.split(np.arange(n), np.flatnonzero(~close[i]) + 1):
            if len(group) < 2:
                continue
            s = scipy.linalg.svdvals(vr[i][:, group])
            if s[-1] <= 1e-8 * s[0]:
                raise DefectiveMatrix(
                    f"eigenvalues near {w[i, group[0]]:.6g} have coalescing eigenvectors"
                )

    # Unit norm, largest-magnitude component real positive.
    phases = vr[rows, np.abs(vr).argmax(axis=-2), cols]
    vr = vr * (np.abs(phases) / (phases * np.linalg.norm(vr, axis=-2)))[:, None, :]

    # The dual basis inv(VR)^dag is biorthonormal by construction:
    # <Phi_m|Psi_n> = delta_mn, degenerate clusters included.
    try:
        vl = _dagger(np.linalg.inv(vr))
    except np.linalg.LinAlgError as exc:
        raise DefectiveMatrix("right eigenvector matrix is singular") from exc
    # |Phi_n| = 1/|<phi_n|Psi_n>| for the unit left eigenvector phi_n; the
    # negated test also refuses NaN from a zero right vector.
    if not (np.linalg.norm(vl, axis=-2) <= 1e13).all():
        raise DefectiveMatrix("left/right eigenvector overlap numerically singular")

    unbroken = np.abs(w.imag).max(axis=-1) <= _TOL_REAL * scale
    return BiorthoEigensystem(
        energies=w.reshape(batch + (n,)),
        right=vr.reshape(batch + (n, n)),
        left=vl.reshape(batch + (n, n)),
        unbroken=bool(unbroken[0]) if not batch else unbroken.reshape(batch),
    )


def build_W(eig: BiorthoEigensystem) -> MetricOperator:
    """Inner-product metric W = sum_n |Phi_n><Phi_n| from the left vectors.

    With this W the right vectors are orthonormal in the W inner product:
    <Psi_m|W|Psi_n> = delta_mn. Stacked eigensystems give stacked W.
    """
    w = eig.left @ _dagger(eig.left)
    w = 0.5 * (w + _dagger(w))
    evals = np.linalg.eigvalsh(w)
    # eigvalsh resolves eigenvalues only to ~N eps |W|: below that, W is
    # numerically singular whatever the sign of the computed value.
    ratio = float(np.min(evals[..., 0] / evals[..., -1]))
    if ratio <= w.shape[-1] * np.finfo(float).eps:
        raise NotPositiveDefinite(
            f"smallest/largest eigenvalue of W is {ratio:.3e}; eigensystem is broken"
        )
    return MetricOperator(matrix=w)


def gauge_fix(prev: BiorthoEigensystem, cur: BiorthoEigensystem) -> BiorthoEigensystem:
    """Align ``cur`` with ``prev``: reorder by maximal overlap, remove phases.

    ``cur`` may be a stack, each element aligned with the single ``prev``.
    After the fix, <Phi_n^prev|Psi_n^cur> is real positive for every n and
    <Phi_n|Psi_n> = 1 is preserved. States are matched by the permutation
    maximizing the summed |overlap| (the row-wise argmax where that is one);
    AmbiguousMatching is raised when a matched overlap vanishes (a
    degeneracy was crossed between the two parameter points).
    """
    n = cur.dim
    overlaps = (_dagger(prev.left) @ cur.right).reshape(-1, n, n)  # <Phi_n^prev|Psi_m^cur[j]>
    magnitudes = np.abs(overlaps)
    assign = magnitudes.argmax(axis=-1)
    collided = (np.sort(assign, axis=-1) != np.arange(n)).any(axis=-1)
    if collided.any():
        # Row-wise maxima collide (near-tied overlaps). Imported here: the
        # scipy.optimize import costs ~0.2 s and ~20 MB at start-up.
        from scipy.optimize import linear_sum_assignment

        for j in np.flatnonzero(collided):
            assign[j] = linear_sum_assignment(magnitudes[j], maximize=True)[1]

    rows = np.arange(assign.shape[0])[:, None]
    matched = overlaps[rows, np.arange(n), assign]
    if np.any(np.abs(matched) < 1e-12):
        raise AmbiguousMatching("matched overlap is numerically zero")
    # Unit phase s makes <Phi^prev|s Psi^cur> real positive; scaling both
    # Psi and Phi by s keeps <Phi|Psi> = 1.
    s = (matched.conj() / np.abs(matched))[..., None]

    # Gathered as biortho_eig gathers columns: the column-major layout keeps
    # the round-off of downstream products.
    def columns(v):
        return (v.reshape(-1, n, n)[rows, :, assign] * s).swapaxes(-1, -2).reshape(v.shape)

    return BiorthoEigensystem(
        energies=cur.energies.reshape(-1, n)[rows, assign].reshape(cur.energies.shape),
        right=columns(cur.right),
        left=columns(cur.left),
        unbroken=cur.unbroken,
    )


def gauge_transform(eig: BiorthoEigensystem, f) -> BiorthoEigensystem:
    """Scale Psi_n by f_n and Phi_n by 1/f_n^*; biorthonormality is exact."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (eig.dim,):
        raise ValueError(f"expected {eig.dim} scale factors, got shape {f.shape}")
    if np.any(f == 0):
        raise ZeroScale("gauge scale factors must be nonzero")
    return BiorthoEigensystem(
        energies=eig.energies,
        right=eig.right * f,
        left=eig.left / f.conj(),
        unbroken=eig.unbroken,
    )
