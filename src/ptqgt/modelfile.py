"""Declarative model files describing a matrix-valued Hamiltonian family.

Format (one statement per line, ``#`` starts a comment)::

    dim 2
    params 3
    H[1,1] = l3
    H[1,2] = l1 - i*l2
    H[2,1] = l1 + i*l2
    H[2,2] = -l3

``dim`` is the Hilbert-space size N, ``params`` the parameter count d.
Matrix indices are 1-based; unspecified entries are zero. Entry
expressions use the grammar

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER ['i'] | 'i' | PARAM | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sin' | 'cos' | 'exp'
    PARAM  := 'l' DIGITS          (l1 .. ld)

A number with a trailing ``i`` (or a bare ``i``) is an imaginary
literal. Parsing is a hand-written recursive descent with line/column
positions in error messages. Each entry compiles to a closure over numpy
ufuncs that evaluates a whole stack of points at once, so model-file
families are batched.

Each entry also compiles, by forward mode, to a closure of its exact
partial derivative along one parameter l_(mu+1): the sum, product and
quotient rules, and the chain rule through sin, cos and exp. These are
the family's ``derivative``; one that overflows or divides by zero
raises NonFinite, as a value does.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .biortho import HamiltonianFamily
from .errors import NonFinite, ParseError

__all__ = ["parse_model", "load_model"]

# each function with its derivative
_FUNCS = {"sin": (np.sin, np.cos), "cos": (np.cos, lambda z: -np.sin(z)), "exp": (np.exp, np.exp)}
_ZERO, _ONE = np.complex128(0.0), np.complex128(1.0)  # tangents of a constant and of l_j


def _binary(op, a, b, da, db):
    """The value and the tangent closure of ``a <op> b``, from the value
    closures ``a``, ``b`` and the tangent closures ``da``, ``db``."""
    if op == "+":
        return (lambda lam, a=a, b=b: a(lam) + b(lam)), (
            lambda lam, mu: da(lam, mu) + db(lam, mu))
    if op == "-":
        return (lambda lam, a=a, b=b: a(lam) - b(lam)), (
            lambda lam, mu: da(lam, mu) - db(lam, mu))
    if op == "*":
        return (lambda lam, a=a, b=b: a(lam) * b(lam)), (
            lambda lam, mu: da(lam, mu) * b(lam) + a(lam) * db(lam, mu))
    quotient = lambda lam, a=a, b=b: a(lam) / b(lam)  # noqa: E731
    return quotient, lambda lam, mu: (da(lam, mu) - quotient(lam) * db(lam, mu)) / b(lam)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    col: int


def _tokenize(source: str, line: int):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            rest = source[pos:].lstrip()
            if not rest:
                break
            col = pos + (len(source[pos:]) - len(rest)) + 1
            raise ParseError(f"unexpected character {rest[0]!r}", line, col)
        kind = m.lastgroup
        tokens.append(_Token(kind=kind, text=m.group(kind), col=m.start(kind) + 1))
        pos = m.end()
    tokens.append(_Token(kind="end", text="", col=len(source) + 1))
    return tokens


class _Parser:
    """Recursive-descent parser producing two closures of an expression.

    The value closure takes complex parameters ``(..., d)`` and returns a
    value of shape ``(...)``, or a numpy complex scalar when the expression
    holds no parameter. The tangent closure takes them and an axis ``mu``
    and returns the partial derivative along l_(mu+1) in the same form.
    """

    def __init__(self, source: str, line: int, n_params: int):
        self.tokens = _tokenize(source, line)
        self.line = line
        self.n_params = n_params
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of line'!r}",
                             self.line, tok.col)

    def parse(self):
        fn, dfn = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", self.line, tok.col)
        return fn, dfn

    def expr(self):
        return self.operands(self.term, "+-")

    def term(self):
        return self.operands(self.unary, "*/")

    def operands(self, operand, ops):
        """``operand (op operand)*`` for op in ``ops``, left-associative."""
        fn, dfn = operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            op = self.next().text
            rhs, d_rhs = operand()
            fn, dfn = _binary(op, fn, rhs, dfn, d_rhs)
        return fn, dfn

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            inner, d_inner = self.unary()
            return (lambda lam, f=inner: -f(lam)), (lambda lam, mu: -d_inner(lam, mu))
        return self.atom()

    def atom(self):
        tok = self.next()
        if tok.kind == "number":
            if tok.text.endswith("i"):
                value = complex(0.0, float(tok.text[:-1]))
            else:
                value = complex(float(tok.text), 0.0)
            # numpy scalars, so that arithmetic on constants alone also
            # raises floating-point faults
            return _constant(np.complex128(value))
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                return _constant(np.complex128(1j))
            if name in _FUNCS:
                self.expect_op("(")
                inner, d_inner = self.expr()
                self.expect_op(")")
                f, df = _FUNCS[name]
                return (lambda lam, f=f, g=inner: f(g(lam))), (  # the chain rule
                    lambda lam, mu: d_inner(lam, mu) * df(inner(lam)))
            m = re.fullmatch(r"l(\d+)", name)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n_params:
                    raise ParseError(
                        f"parameter {name} out of range (params = {self.n_params})",
                        self.line, tok.col,
                    )
                return (lambda lam, j=idx - 1: lam[..., j]), (
                    lambda lam, mu, j=idx - 1: _ONE if mu == j else _ZERO)
            raise ParseError(f"unknown identifier {name!r}", self.line, tok.col)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"expected a value, found {tok.text or 'end of line'!r}", self.line, tok.col
        )


def _constant(v):
    return (lambda lam, v=v: v), (lambda lam, mu: _ZERO)


_ENTRY_RE = re.compile(r"H\[(\d+)\s*,\s*(\d+)\]\s*=\s*(.+)")


def parse_model(text: str) -> HamiltonianFamily:
    """Parse a full model description into a HamiltonianFamily. Raises
    ParseError at the offending line, also for a ``dim`` or ``params``
    below 1, for a second ``dim`` or ``params`` statement and for a second
    entry at the same index."""
    sizes = {"dim": None, "params": None}
    entries, tangents = {}, {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *rest = line.split()
        if name in sizes:
            try:
                (value,) = map(int, rest)
            except ValueError:  # no value, more than one, or not an integer
                raise ParseError(f"malformed {name!r} statement", lineno, 1)
            if sizes[name] is not None:
                raise ParseError(f"second {name!r} statement", lineno, 1)
            if value < 1:
                raise ParseError(f"{name!r} must be at least 1, got {value}", lineno, 1)
            sizes[name] = value
            continue
        m = _ENTRY_RE.fullmatch(line)
        if m is None:
            raise ParseError(f"unrecognized statement {line!r}", lineno, 1)
        dim, n_params = sizes["dim"], sizes["params"]
        if dim is None or n_params is None:
            raise ParseError("'dim' and 'params' must precede entries", lineno, 1)
        row, col = int(m.group(1)), int(m.group(2))
        if not (1 <= row <= dim and 1 <= col <= dim):
            raise ParseError(f"index [{row},{col}] outside a {dim}x{dim} matrix",
                             lineno, 1)
        if (row - 1, col - 1) in entries:
            raise ParseError(f"second entry H[{row},{col}]", lineno, 1)
        entries[(row - 1, col - 1)], tangents[(row - 1, col - 1)] = _Parser(
            m.group(3), lineno, n_params).parse()

    dim, n_params = sizes["dim"], sizes["params"]
    if dim is None or n_params is None:
        raise ParseError("model must declare 'dim' and 'params'")

    def matrices(closures, lam, *mu):
        """H, or with an axis ``mu`` dH/dl_(mu+1), at each point of the stack
        ``lam`` (P, d) taken as complex, as (P, N, N). A zero divisor, an
        overflow or an invalid operation raises NonFinite, not a warning."""
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros(lam.shape[:-1] + (dim, dim), dtype=complex)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                for (r, c), fn in closures.items():
                    # a constant entry broadcasts; a value closure takes lam alone
                    out[..., r, c] = fn(lam, *mu) if mu else fn(lam)
        except FloatingPointError as exc:
            raise NonFinite(f"model expression is not finite: {exc}") from exc
        return out

    return HamiltonianFamily(dim_hilbert=dim, dim_param=n_params, batched=True,
                             evaluate=functools.partial(matrices, entries),
                             derivative=functools.partial(matrices, tangents))


def load_model(path) -> HamiltonianFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
