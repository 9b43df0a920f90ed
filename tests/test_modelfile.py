import dataclasses

import numpy as np
import pytest

from ptqgt import NonFinite, ParseError, parse_model
from ptqgt.families import (
    load_bundled_model,
    pt_two_level_family,
    spin_half_family,
)


def one_entry_model(source, n_params=1):
    """The model whose one entry is ``source``, on line 3: an error's column
    counts from the start of the entry."""
    return parse_model(f"dim 1\nparams {n_params}\nH[1,1] = {source}\n")


def ev(source, lam=(0.0,), n_params=1):
    return one_entry_model(source, n_params)(lam)[0, 0]


def test_literals():
    assert ev("2") == 2.0
    assert ev("2.5e-1") == 0.25
    assert ev("3i") == 3j
    assert ev("i") == 1j
    assert ev("-i") == -1j


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("1 - 2 - 3") == -4.0
    assert ev("8/4/2") == 1.0
    assert ev("-2*3") == -6.0
    assert ev("2 - -3") == 5.0


def test_functions_and_params():
    lam = (0.3, 1.2)
    fam = one_entry_model("sin(l1)*cos(l2) + exp(i*l1)", n_params=2)
    expected = np.sin(0.3) * np.cos(1.2) + np.exp(0.3j)
    assert abs(fam(lam)[0, 0] - expected) < 1e-14
    # a stack (P, d) gives one value per point
    lams = np.array([lam, [-0.7, 0.1], [2.0, -1.5]])
    values = fam(lams)[:, 0, 0]
    assert values.shape == (3,)
    for point, value in zip(lams, values):
        assert fam(point)[0, 0] == value


def test_error_positions():
    with pytest.raises(ParseError, match="col 5"):
        one_entry_model("1 + $")
    with pytest.raises(ParseError, match="trailing input"):
        one_entry_model("1 2")
    with pytest.raises(ParseError, match="unknown identifier"):
        one_entry_model("foo + 1")
    with pytest.raises(ParseError, match="out of range"):
        one_entry_model("l3", n_params=2)
    with pytest.raises(ParseError, match="expected a value"):
        one_entry_model("1 +")
    with pytest.raises(ParseError, match=r"expected '\)'"):
        one_entry_model("sin(l1")


def test_error_reports_line_number():
    text = "dim 2\nparams 1\nH[1,1] = l1 +\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_model(text)


def test_parse_model_basic():
    fam = parse_model(
        """
        # Pauli-z times l3 plus ladder terms
        dim 2
        params 3
        H[1,1] = l3
        H[1,2] = l1 - i*l2
        H[2,1] = l1 + i*l2
        H[2,2] = -l3
        """
    )
    assert fam.dim_hilbert == 2
    assert fam.dim_param == 3
    h = fam([0.5, -0.25, 2.0])
    expected = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, -2.0]])
    assert np.max(np.abs(h - expected)) < 1e-15


def test_parse_model_unspecified_entries_zero():
    fam = parse_model("dim 3\nparams 1\nH[2,2] = l1\n")
    h = fam([4.0])
    assert h[1, 1] == 4.0
    assert np.count_nonzero(h) == 1


def test_parse_model_errors():
    with pytest.raises(ParseError, match="must declare"):
        parse_model("# empty\n")
    with pytest.raises(ParseError, match="must precede"):
        parse_model("H[1,1] = 1\ndim 1\nparams 1\n")
    with pytest.raises(ParseError, match="outside"):
        parse_model("dim 2\nparams 1\nH[3,1] = l1\n")
    with pytest.raises(ParseError, match="unrecognized"):
        parse_model("dim 2\nparams 1\nH[1,1] := l1\n")
    with pytest.raises(ParseError, match="malformed 'dim'"):
        parse_model("dim two\nparams 1\n")
    # sizes below 1, and a second size statement after an entry was
    # checked against the first, used to pass the parser
    for text, match in (("dim 0\nparams 1\n", "line 1, col 1: 'dim' must be at least 1"),
                        ("dim 1\nparams 0\n", "line 2, col 1: 'params' must be at least 1"),
                        ("dim 2\nparams 1\nH[2,2] = 1\ndim 1\n", "line 4, col 1: second 'dim'"),
                        ("dim 1\nparams 2\nH[1,1] = l2\nparams 1\n",
                         "line 4, col 1: second 'params'")):
        with pytest.raises(ParseError, match=match):
            parse_model(text)


def test_bundled_spin_half_matches_analytic():
    fam = load_bundled_model("spin_half")
    ref = spin_half_family()
    rng = np.random.default_rng(0)
    for _ in range(5):
        lam = rng.normal(size=3)
        assert np.max(np.abs(fam(lam) - ref(lam))) < 1e-14


def test_bundled_pt_two_level_matches_analytic():
    fam = load_bundled_model("pt_two_level")
    ref = pt_two_level_family()
    rng = np.random.default_rng(1)
    for _ in range(5):
        lam = rng.normal(size=2)
        assert np.max(np.abs(fam(lam) - ref(lam))) < 1e-14


# The bundled models' entries as the per-point parser evaluated them, one
# point at a time in Python complex arithmetic: the stacked route must
# give the same bits, signed zeros included.
def _per_point_reference(name, lam):
    l = [complex(x) for x in lam]  # noqa: E741
    if name == "spin_half":
        return [[l[2], l[0] - 1j * l[1]], [l[0] + 1j * l[1], -l[2]]]
    return [[0.3j, l[1] + l[0]], [l[1] - l[0], -0.3j]]


@pytest.mark.parametrize("name", ["spin_half", "pt_two_level"])
def test_model_family_evaluates_a_stack_in_one_call(name):
    model = load_bundled_model(name)
    assert model.batched
    rng = np.random.default_rng(4)
    lams = rng.normal(size=(500, model.dim_param)) * rng.choice([1e-3, 1.0, 1e3], size=(500, 1))
    lams[:40] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(40, model.dim_param))
    calls = []

    def evaluate(points):
        calls.append(len(points))
        return model.evaluate(points)

    h = dataclasses.replace(model, evaluate=evaluate)(lams)
    assert calls == [500]
    ref = np.array([_per_point_reference(name, lam) for lam in lams])
    assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))


def test_constant_entries_broadcast_over_a_stack():
    fam = parse_model("dim 2\nparams 1\nH[1,1] = 2 - 3i\nH[2,2] = -l1\n")
    h = fam(np.array([[1.0], [2.0], [3.0]]))
    assert np.array_equal(h[:, 0, 0], [2 - 3j] * 3)
    assert np.array_equal(h[:, 1, 1], [-1.0, -2.0, -3.0])
    assert np.count_nonzero(h[:, 0, 1]) == np.count_nonzero(h[:, 1, 0]) == 0


@pytest.mark.parametrize("source, lam", [
    ("1/l1", [0.0]),      # zero divisor
    ("1/(l1 - l1)", [2.5]),
    ("1/(2 - 2)", [2.5]),  # constants alone
    ("exp(l1)", [1e3]),   # overflow
    ("1e200*1e200", [2.5]),
])
def test_non_finite_values_raise_non_finite(source, lam):
    # a RuntimeWarning and an inf would not do: the error is typed
    with pytest.raises(NonFinite):
        ev(source, lam)
    fam = parse_model(f"dim 2\nparams 1\nH[1,1] = 1\nH[2,2] = {source}\n")
    with pytest.raises(NonFinite):
        fam(np.array([[1.0], lam]))
