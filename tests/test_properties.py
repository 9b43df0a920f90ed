"""Property tests of the metric W, its positivity ratio, the gauge diagonal
of the eigenvector response and O_B, each against its matmul or LAPACK
form, and of the model files' forward-mode derivatives against sympy. W,
the gauge diagonal and O_B are entrywise at every N; the ratio is
closed-form at N = 2, and only there has a second form to be checked
against.

The inputs are random pseudo-Hermitian stacks H = S D S^-1 of N = 2, 3
and 4 levels, with D real, neighbouring levels at least a quarter of the
spectral scale apart, and S of condition number at most 10, in stacks of
1, 5 and 512 (the last shaped (256, 2), as a transport chunk is). Every
bound was fixed from the rounding of the two forms compared before the
tests were first run, at N = 2 and again, scaled with N, at N = 3 and 4;
eps is the float64 machine epsilon.
"""

import cmath
import dataclasses
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptqgt import biortho, biortho_eig, build_W, geometry, parse_model

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
LEVELS = (2, 3, 4)


@dataclasses.dataclass(frozen=True)
class Stack:
    h: np.ndarray  # (..., N, N)
    dh: np.ndarray  # (..., d, N, N), d = 2
    eig: biortho.BiorthoEigensystem


def _unitaries(rng, count, n):
    z = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]  # Haar-distributed


@st.composite
def stacks(draw, n):
    size = draw(st.sampled_from(sorted(BATCHES)))
    seed = draw(st.integers(0, 2**32 - 1))
    cond = draw(st.floats(1.0, 10.0))
    scale = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-1.0, 1.0, size) * scale
    # neighbouring gaps of 0.25 to 2 times the scale, centred on ``centre``
    steps = np.cumsum(rng.uniform(0.25, 2.0, (size, n - 1)), axis=-1)
    offsets = np.concatenate([np.zeros((size, 1)), steps], axis=-1)
    energies = centre[:, None] + (offsets - 0.5 * steps[:, -1:]) * scale
    u, v = _unitaries(rng, size, n), _unitaries(rng, size, n)
    sigma = np.geomspace(1.0, 1.0 / cond, n)  # singular values 1 to 1/cond
    s = (u * sigma) @ v
    s_inv = np.swapaxes(v.conj(), -1, -2) @ (np.swapaxes(u.conj(), -1, -2) / sigma[:, None])
    h = (s * energies[:, None, :]) @ s_inv
    dh = rng.normal(size=(size, 2, n, n)) + 1j * rng.normal(size=(size, 2, n, n))
    batch = BATCHES[size]
    h, dh = h.reshape(batch + (n, n)), dh.reshape(batch + (2, n, n))
    return Stack(h=h, dh=dh, eig=biortho_eig(h))


def _dagger(a):
    return np.swapaxes(a.conj(), -1, -2)


def _max(a, axes):
    return np.abs(a).max(axis=axes)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@pytest.mark.parametrize("n", LEVELS)
@PROPERTY
@given(data=st.data())
def test_w_is_l_l_dagger_and_intertwines_h(n, data):
    stack = data.draw(stacks(n))
    w = build_W(stack.eig)
    left = stack.eig.left
    reference = left @ _dagger(left)
    # each entry is a sum of N products, formed in either order
    scale = np.diagonal(w, axis1=-2, axis2=-1).real.max(axis=-1)[..., None, None]
    assert (np.abs(w - reference) <= 4 * n * EPS * scale).all()
    np.testing.assert_array_equal(w, _dagger(w))
    # W H = H^dag W up to the eigenvectors' rounding, at most eps kappa(S)^2 |H|
    # with kappa(S) <= 10 and neighbouring levels a quarter of the scale apart
    resid = _max(w @ stack.h - _dagger(stack.h) @ w, (-2, -1))
    assert (resid <= 5e-12 * n * _max(w, (-2, -1)) * _max(stack.h, (-2, -1))).all()


@PROPERTY
@given(stacks(2))
def test_two_level_positivity_ratio_matches_eigvalsh(stack):
    w = build_W(stack.eig)
    ratio = biortho._ratio_2(w)
    evals = np.linalg.eigvalsh(w)
    # both resolve the eigenvalues of W to a few eps |W|
    assert (np.abs(ratio - evals[..., 0] / evals[..., -1]) <= 8 * EPS).all()


@pytest.mark.parametrize("n", LEVELS)
@PROPERTY
@given(data=st.data())
def test_gauge_diagonal_and_o_b_match_their_matmul_forms(n, data):
    stack = data.draw(stacks(n))
    eig, dh = stack.eig, stack.dh
    if eig.energies.shape[:-1] == (1,):
        # a single eigensystem against (d, N, N), as the generators take it
        eig, dh = eig[0], dh[0]
    c = geometry._gauged_coefficients(eig, dh)
    bare = geometry._coefficients(eig, dh)
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_array_equal(c[..., off], bare[..., off])
    gram = _dagger(eig.right) @ eig.right
    diag = -(gram[..., None, :, :] * np.swapaxes(bare, -1, -2)).sum(-1).real
    # N - 1 products of |<Psi_m|Psi_n>| <= 1 with C_mn, each overlap formed
    # to N eps in either order
    top = _max(bare, (-3, -2, -1))[..., None, None]
    bound = 4 * n * (n - 1) * EPS * top
    assert (np.abs(np.diagonal(c, axis1=-2, axis2=-1) - diag) <= bound).all()

    # O_B of the first direction, as evolve takes it; a single eigensystem
    # takes all d directions at once
    c_mu = c if eig.energies.ndim == 1 else c[..., 0, :, :]
    o_b = geometry._o_b(eig, c_mu)
    m = 0.5 * (c_mu + _dagger(c_mu))
    reference = eig.right @ m @ _dagger(eig.left)
    # each entry sums N^2 triple products; bound each by the largest factors
    bound = 8 * n * n * EPS * (_max(eig.right, (-2, -1)) * _max(m, (-2, -1))
                               * _max(eig.left, (-2, -1)))
    assert (_max(o_b - reference, (-2, -1)) <= bound).all()


# Random entries of the model-file grammar, as trees: ("num", text),
# ("param", j), (op, a, b) for op in + - * /, and ("neg" | "sin" | "cos" |
# "exp", a). Each renders to model-file text, and to a sympy expression in
# exact rationals.
_NUMBERS = ("2", "0.5", "1.25", "1e-1", "3i", "0.5i", "i")
_UNARY = {"neg": (lambda z: -z, lambda z: -1.0, lambda e: -e),
          "sin": (cmath.sin, cmath.cos, sympy.sin),
          "cos": (cmath.cos, lambda z: -cmath.sin(z), sympy.cos),
          "exp": (cmath.exp, cmath.exp, sympy.exp)}
_SYMBOLS = sympy.symbols("l1 l2")

expressions = st.recursive(
    st.one_of(st.sampled_from(_NUMBERS).map(lambda text: ("num", text)),
              st.sampled_from((0, 1)).map(lambda j: ("param", j))),
    lambda inner: st.one_of(st.tuples(st.sampled_from("+-*/"), inner, inner),
                            st.tuples(st.sampled_from(sorted(_UNARY)), inner)),
    max_leaves=8,
)


def _text(node):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "param":
        return f"l{node[1] + 1}"
    if kind == "neg":
        return "-" + _text(node[1])
    if kind in _UNARY:
        return f"{kind}({_text(node[1])})"
    return f"({_text(node[1])} {kind} {_text(node[2])})"


def _sympy(node):
    kind = node[0]
    if kind == "num":
        text = node[1]
        return sympy.I * sympy.Rational(text[:-1] or 1) if text.endswith("i") else \
            sympy.Rational(text)
    if kind == "param":
        return _SYMBOLS[node[1]]
    if kind in _UNARY:
        return _UNARY[kind][2](_sympy(node[1]))
    a, b = _sympy(node[1]), _sympy(node[2])
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[kind]


def _walk(node, lam, mu, sizes, divisors):
    """Value and derivative of the tree in complex floats, with each value
    and derivative recorded in ``sizes`` and each divisor in ``divisors``:
    the draws the bound below holds for are chosen from these."""
    kind = node[0]
    if kind == "num":
        value, slope = complex(_sympy(node)), 0.0
    elif kind == "param":
        value, slope = lam[node[1]], float(node[1] == mu)
    elif kind in _UNARY:
        f, df, _ = _UNARY[kind]
        x, dx = _walk(node[1], lam, mu, sizes, divisors)
        value, slope = f(x), df(x) * dx
    else:
        (x, dx), (y, dy) = (_walk(node[1], lam, mu, sizes, divisors),
                            _walk(node[2], lam, mu, sizes, divisors))
        if kind == "/":
            divisors.append(abs(y))
            value = x / y
            slope = (dx - value * dy) / y
        else:
            value = {"+": x + y, "-": x - y, "*": x * y}[kind]
            slope = {"+": dx + dy, "-": dx - dy, "*": dx * y + x * dy}[kind]
    sizes += [abs(value), abs(slope)]
    return value, slope


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expressions, st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.sampled_from((0, 1)))
def test_model_derivative_matches_sympy(expression, lam, mu):
    # Draws where no value or derivative exceeds 100 in magnitude and no
    # divisor is below 0.1. There the at most 15 operations of an entry,
    # each rounding to eps of magnitudes up to 100 and carried through
    # factors up to 100, leave at most about 15 eps 1e4 = 3.3e-11, so the
    # bound, fixed before the test was first run, is 1e-10 (1 + |ref|).
    sizes, divisors = [], []
    try:
        _walk(expression, lam, mu, sizes, divisors)
    except (OverflowError, ZeroDivisionError):
        assume(False)
    assume(max(sizes) <= 100.0 and min(divisors, default=1.0) >= 0.1)
    model = parse_model(f"dim 1\nparams 2\nH[1,1] = {_text(expression)}\n")
    ours = model.deriv(np.array(lam), mu)[0, 0]
    point = {s: sympy.Rational(x) for s, x in zip(_SYMBOLS, lam)}
    ref = complex(sympy.diff(_sympy(expression), _SYMBOLS[mu]).evalf(30, subs=point))
    assert abs(ours - ref) <= 1e-10 * (1.0 + abs(ref))
