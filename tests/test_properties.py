"""Property tests of the two-level metric W, its positivity ratio, the gauge
diagonal of the eigenvector response and O_B, each against its matmul or
LAPACK form.

The inputs are random pseudo-Hermitian stacks H = S D S^-1 with D real,
a level gap of at least a quarter of the spectral scale, and S of
condition number at most 10, in stacks of 1, 5 and 512 (the last shaped
(256, 2), as a transport chunk is). Every bound was fixed from the
rounding of the two forms compared before the tests were first run; eps
is the float64 machine epsilon.
"""

import dataclasses
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqgt import biortho, biortho_eig, build_W, geometry

# On a failure, hypothesis's pytest plugin imports its patch writer, which
# imports libcst where that is installed, and some libcst/mypy_extensions
# pairs warn on import. Under filterwarnings = error that warning would turn
# the report of one failed property into an internal error of the whole
# run, so the writer is imported here, its import-time warnings ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch too
        pass

EPS = np.finfo(float).eps
BATCHES = {1: (1,), 5: (5,), 512: (256, 2)}


@dataclasses.dataclass(frozen=True)
class Stack:
    h: np.ndarray  # (..., 2, 2)
    dh: np.ndarray  # (..., d, 2, 2), d = 2
    eig: biortho.BiorthoEigensystem


def _unitaries(rng, count):
    z = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]  # Haar-distributed


@st.composite
def stacks(draw):
    size = draw(st.sampled_from(sorted(BATCHES)))
    seed = draw(st.integers(0, 2**32 - 1))
    cond = draw(st.floats(1.0, 10.0))
    scale = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-1.0, 1.0, size) * scale
    half_gap = rng.uniform(0.125, 1.0, size) * scale
    energies = np.stack([centre - half_gap, centre + half_gap], axis=-1)
    u, v = _unitaries(rng, size), _unitaries(rng, size)
    sigma = np.array([1.0, 1.0 / cond])
    s = (u * sigma) @ v  # singular values 1 and 1/cond
    s_inv = np.swapaxes(v.conj(), -1, -2) @ (np.swapaxes(u.conj(), -1, -2) / sigma[:, None])
    h = (s * energies[:, None, :]) @ s_inv
    dh = rng.normal(size=(size, 2, 2, 2)) + 1j * rng.normal(size=(size, 2, 2, 2))
    batch = BATCHES[size]
    h, dh = h.reshape(batch + (2, 2)), dh.reshape(batch + (2, 2, 2))
    return Stack(h=h, dh=dh, eig=biortho_eig(h))


def _dagger(a):
    return np.swapaxes(a.conj(), -1, -2)


def _max(a, axes):
    return np.abs(a).max(axis=axes)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(stacks())
def test_two_level_w_is_l_l_dagger_and_intertwines_h(stack):
    w = build_W(stack.eig)
    left = stack.eig.left
    reference = left @ _dagger(left)
    # each entry is a sum of two products, formed in either order
    scale = np.maximum(w[..., 0, 0].real, w[..., 1, 1].real)
    assert (_max(w - reference, (-2, -1)) <= 8 * EPS * scale).all()
    assert (w[..., 0, 1] == w[..., 1, 0].conj()).all()
    # W H = H^dag W up to the eigenvectors' rounding, at most eps kappa(S)^2 |H|
    # with kappa(S) <= 10 and the gap at least a quarter of the scale
    resid = _max(w @ stack.h - _dagger(stack.h) @ w, (-2, -1))
    assert (resid <= 1e-11 * _max(w, (-2, -1)) * _max(stack.h, (-2, -1))).all()


@PROPERTY
@given(stacks())
def test_two_level_positivity_ratio_matches_eigvalsh(stack):
    w, ratio = biortho._metric_2(stack.eig.left)
    np.testing.assert_array_equal(build_W(stack.eig), w)
    evals = np.linalg.eigvalsh(w)
    # both resolve the eigenvalues of W to a few eps |W|
    assert (np.abs(ratio - evals[..., 0] / evals[..., -1]) <= 8 * EPS).all()


@PROPERTY
@given(stacks())
def test_two_level_gauge_diagonal_and_o_b_match_their_matmul_forms(stack):
    eig, dh = stack.eig, stack.dh
    if eig.energies.shape[:-1] == (1,):
        # a single eigensystem against (d, 2, 2), as the generators take it
        eig, dh = eig[0], dh[0]
    c = geometry._gauged_coefficients(eig, dh)
    bare = geometry._coefficients(eig, dh)
    off = ~np.eye(2, dtype=bool)
    np.testing.assert_array_equal(c[..., off], bare[..., off])
    gram = _dagger(eig.right) @ eig.right
    diag = -(gram[..., None, :, :] * np.swapaxes(bare, -1, -2)).sum(-1).real
    # one product of |<Psi_0|Psi_1>| <= 1 with C_mn, the overlap formed in
    # either order
    top = _max(bare, (-3, -2, -1))[..., None, None]
    assert (np.abs(np.diagonal(c, axis1=-2, axis2=-1) - diag) <= 8 * EPS * top).all()

    # O_B of the first direction, as evolve takes it; a single eigensystem
    # takes all d directions at once
    c_mu = c if eig.energies.ndim == 1 else c[..., 0, :, :]
    o_b = geometry._o_b(eig, c_mu)
    m = 0.5 * (c_mu + _dagger(c_mu))
    reference = eig.right @ m @ _dagger(eig.left)
    # each entry sums four triple products; bound each by the largest factors
    bound = 32 * EPS * (_max(eig.right, (-2, -1)) * _max(m, (-2, -1))
                        * _max(eig.left, (-2, -1)))
    assert (_max(o_b - reference, (-2, -1)) <= bound).all()
