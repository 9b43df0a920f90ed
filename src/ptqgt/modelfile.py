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
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .biortho import HamiltonianFamily
from .errors import NonFinite, ParseError

__all__ = ["parse_model", "load_model"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

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
    """Recursive-descent parser producing a closure lam -> complex.

    The closure takes complex parameters ``(..., d)`` and returns a value
    of shape ``(...)``, or a numpy complex scalar when the expression holds
    no parameter.
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
        fn = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", self.line, tok.col)
        return fn

    def expr(self):
        fn = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            lhs = fn
            if op == "+":
                fn = lambda lam, a=lhs, b=rhs: a(lam) + b(lam)
            else:
                fn = lambda lam, a=lhs, b=rhs: a(lam) - b(lam)
        return fn

    def term(self):
        fn = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            lhs = fn
            if op == "*":
                fn = lambda lam, a=lhs, b=rhs: a(lam) * b(lam)
            else:
                fn = lambda lam, a=lhs, b=rhs: a(lam) / b(lam)
        return fn

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            inner = self.unary()
            return lambda lam, f=inner: -f(lam)
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
            return lambda lam, v=np.complex128(value): v
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                return lambda lam, v=np.complex128(1j): v
            if name in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return lambda lam, f=_FUNCS[name], g=inner: f(g(lam))
            m = re.fullmatch(r"l(\d+)", name)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n_params:
                    raise ParseError(
                        f"parameter {name} out of range (params = {self.n_params})",
                        self.line, tok.col,
                    )
                return lambda lam, j=idx - 1: lam[..., j]
            raise ParseError(f"unknown identifier {name!r}", self.line, tok.col)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"expected a value, found {tok.text or 'end of line'!r}", self.line, tok.col
        )


def _checked(fn, lam):
    """``fn`` at the parameters ``lam`` taken as complex. A zero divisor, an
    overflow or an invalid operation raises NonFinite, not a RuntimeWarning
    with an inf or NaN result."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return fn(np.asarray(lam, dtype=complex))
    except FloatingPointError as exc:
        raise NonFinite(f"model expression is not finite: {exc}") from exc


_ENTRY_RE = re.compile(r"H\[(\d+)\s*,\s*(\d+)\]\s*=\s*(.+)")


def parse_model(text: str) -> HamiltonianFamily:
    """Parse a full model description into a HamiltonianFamily. Raises
    ParseError at the offending line, also for a ``dim`` or ``params``
    below 1 and for a second ``dim`` or ``params`` statement."""
    sizes = {"dim": None, "params": None}
    entries = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name = next((key for key in sizes if line.startswith(key)), None)
        if name is not None:
            try:
                value = int(line.split()[1])
            except (IndexError, ValueError):
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
        entries[(row - 1, col - 1)] = _Parser(m.group(3), lineno, n_params).parse()

    dim, n_params = sizes["dim"], sizes["params"]
    if dim is None or n_params is None:
        raise ParseError("model must declare 'dim' and 'params'")

    def matrices(lam):
        """H at each point of the complex stack ``lam`` (P, d), as (P, N, N)."""
        out = np.zeros(lam.shape[:-1] + (dim, dim), dtype=complex)
        for (r, c), fn in entries.items():
            out[..., r, c] = fn(lam)  # a constant entry broadcasts
        return out

    return HamiltonianFamily(dim_hilbert=dim, dim_param=n_params,
                             evaluate=functools.partial(_checked, matrices), batched=True)


def load_model(path) -> HamiltonianFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
