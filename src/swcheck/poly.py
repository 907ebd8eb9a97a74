"""Polynomial coefficient expressions over the chart coordinates.

Vector fields, contact forms and spinor fields on the model charts carry
polynomial coefficient functions in the coordinates (x1, y1, x2, y2, t).
This module provides the canonical-form polynomial type, exact
differentiation, and the small expression grammar used by model definition
files:

    expr  := [sign] term (("+" | "-") term)*
    term  := factor ("*" factor)*
    factor:= number | number "i" | "i" | "(" complex-literal ")"
           | variable ["^" integer]

Numbers are decimal (scientific notation accepted); a complex literal inside
parentheses looks like "(1+2i)".  Whitespace is ignored.  Parsing errors
report the offset in the source string; printing produces the canonical form
and parse(print(p)) == p holds exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

VARIABLES = ("x1", "y1", "x2", "y2", "t")
NVARS = len(VARIABLES)

_Exponents = tuple[int, int, int, int, int]
_ZERO_EXP: _Exponents = (0, 0, 0, 0, 0)


class PolySyntaxError(ValueError):
    """Parse failure carrying the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class PolyExpr:
    """Multivariate polynomial with complex coefficients, in canonical form.

    Terms are a sorted tuple of (exponent-tuple, coefficient) pairs with all
    zero coefficients dropped, so structural equality is exact semantic
    equality and the zero polynomial is the empty tuple.
    """

    terms: tuple[tuple[_Exponents, complex], ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "PolyExpr":
        c = complex(value)
        return PolyExpr(((_ZERO_EXP, c),)) if c != 0 else PolyExpr()

    @staticmethod
    def variable(name: str) -> "PolyExpr":
        exp = [0] * NVARS
        exp[VARIABLES.index(name)] = 1
        return PolyExpr(((tuple(exp), 1 + 0j),))

    @staticmethod
    def from_dict(d: dict[_Exponents, complex]) -> "PolyExpr":
        items = [(e, complex(c)) for e, c in d.items() if c != 0]
        items.sort(key=_term_key)
        return PolyExpr(tuple(items))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "PolyExpr":
        other = _coerce(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0j) + c
        return PolyExpr.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "PolyExpr":
        return PolyExpr(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "PolyExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "PolyExpr":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "PolyExpr":
        # With two multi-term operands the float sums below depend on the
        # order of accumulation; a fixed operand order makes p * q == q * p
        # hold exactly.
        lhs, rhs = self, _coerce(other)
        if len(lhs.terms) > 1 and len(rhs.terms) > 1 and _mul_order(rhs) < _mul_order(lhs):
            lhs, rhs = rhs, lhs
        d: dict[_Exponents, complex] = {}
        for e1, c1 in lhs.terms:
            for e2, c2 in rhs.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0j) + c1 * c2
        return PolyExpr.from_dict(d)

    __rmul__ = __mul__

    # -- calculus and evaluation --------------------------------------------

    def diff(self, var: int | str) -> "PolyExpr":
        """Exact partial derivative with respect to a coordinate."""
        v = VARIABLES.index(var) if isinstance(var, str) else var
        d: dict[_Exponents, complex] = {}
        for e, c in self.terms:
            if e[v] == 0:
                continue
            e2 = list(e)
            e2[v] -= 1
            e2 = tuple(e2)
            d[e2] = d.get(e2, 0j) + c * e[v]
        return PolyExpr.from_dict(d)

    def __call__(self, point) -> complex:
        total = 0j
        for e, c in self.terms:
            v = c
            for x, n in zip(point, e):
                if n:
                    v *= x**n
            total += v
        return total

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for e, c in self.terms:
            mono = "*".join(
                f"{VARIABLES[i]}^{n}" if n > 1 else VARIABLES[i]
                for i, n in enumerate(e)
                if n
            )
            body, negate = _format_coeff(c, bool(mono))
            piece = f"{body}*{mono}" if body and mono else (body or mono or "1")
            if not chunks:
                chunks.append(f"-{piece}" if negate else piece)
            else:
                chunks.append(f"- {piece}" if negate else f"+ {piece}")
        return " ".join(chunks)

    __repr__ = __str__


ZERO = PolyExpr()
ONE = PolyExpr.const(1)


#: Most elements in a temporary array of :func:`evaluate_all`: each block of
#: points times the number of terms (or of power-table entries) stays below it.
BLOCK_ELEMENTS = 2**14


def evaluate_all(polys, points) -> np.ndarray:
    """Values of every polynomial at every point, shape ``(..., len(polys))``.

    ``points`` has shape ``(..., 5)``.  The terms of all nonzero polynomials
    are stacked once; for each block of points a per-variable power table is
    built, each term is ``c * x1^n1 * y1^n2 * x2^n3 * y2^n4 * t^n5`` in that
    order, as in :meth:`PolyExpr.__call__`, and ``np.add.reduceat`` sums each
    polynomial's terms.  ``numpy.power`` and the pairwise sums of ``reduceat``
    round differently from ``__call__``, so a value may differ from it in the
    last places.
    """
    x = np.asarray(points)
    if x.shape[-1:] != (NVARS,):
        raise ValueError(f"points must have shape (..., {NVARS}), got {x.shape}")
    shape = x.shape[:-1] + (len(polys),)
    x = x.reshape(-1, NVARS).astype(np.result_type(x.dtype, float), copy=False)
    out = np.zeros((len(x), len(polys)), dtype=complex)
    live = [i for i, p in enumerate(polys) if p.terms]
    if live:
        exps = np.array([e for i in live for e, _ in polys[i].terms])
        coeffs = np.array([c for i in live for _, c in polys[i].terms])[:, None]
        starts = np.cumsum([0] + [len(polys[i].terms) for i in live[:-1]])
        width = int(exps.max()) + 1
        # Row of each factor x_v^n in the flattened (variable, power) table.
        rows = exps + width * np.arange(NVARS)
        step = max(1, BLOCK_ELEMENTS // max(len(coeffs), NVARS * width))
        powers = np.arange(width)[:, None]
        for b in range(0, len(x), step):
            table = (x[b : b + step].T[:, None, :] ** powers).reshape(NVARS * width, -1)
            terms = coeffs * table[rows[:, 0]]
            for v in range(1, NVARS):
                terms *= table[rows[:, v]]
            out[b : b + step, live] = np.add.reduceat(terms, starts, axis=0).T
    return out.reshape(shape)


def max_abs(values) -> float:
    """Largest modulus in ``values`` (0.0 if there are none); NaN propagates."""
    return float(np.max(np.abs(values), initial=0.0))


def _coerce(v) -> PolyExpr:
    if isinstance(v, PolyExpr):
        return v
    if isinstance(v, (int, float, complex)):
        return PolyExpr.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to PolyExpr")


def _mul_order(p: PolyExpr):
    return [(e, c.real, c.imag) for e, c in p.terms]


def _term_key(item):
    e, _ = item
    return (-sum(e), tuple(-n for n in e))


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_coeff(c: complex, has_mono: bool) -> tuple[str, bool]:
    """Printable coefficient and whether the term is sign-negated."""
    re_, im = c.real, c.imag
    if im == 0:
        neg = re_ < 0
        mag = abs(re_)
        if mag == 1 and has_mono:
            return "", neg
        return _format_real(mag), neg
    if re_ == 0:
        neg = im < 0
        mag = abs(im)
        return ("i" if mag == 1 else f"{_format_real(mag)}i"), neg
    return f"({_format_real(re_)}{'+' if im > 0 else '-'}{_format_real(abs(im))}i)", False


# -- tokenizer and parser ------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _tokens(src: str) -> Iterator[tuple[str, object, int]]:
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            yield ch, ch, i
            i += 1
            continue
        m = _NUMBER_RE.match(src, i)
        if m:
            val = float(m.group())
            if math.isinf(val):
                raise PolySyntaxError(f"numeric literal {m.group()!r} overflows", m.start())
            i = m.end()
            if i < n and src[i] == "i":
                yield "imag", val * 1j, m.start()
                i += 1
            else:
                yield "number", val, m.start()
            continue
        m = _NAME_RE.match(src, i)
        if m:
            name = m.group()
            if name == "i":
                yield "imag", 1j, m.start()
            elif name in VARIABLES:
                yield "name", name, m.start()
            else:
                raise PolySyntaxError(f"unknown variable {name!r}", m.start())
            i = m.end()
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    yield "end", None, n


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = list(_tokens(src))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> PolyExpr:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolySyntaxError(f"unexpected token {tok[0]!r}", tok[2])
        return result

    def expr(self) -> PolyExpr:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        total = self.term() * sign
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            total = total + (t if op == "+" else -t)
        return total

    def term(self) -> PolyExpr:
        result = self.factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> PolyExpr:
        kind, value, pos = self.take()
        if kind == "number":
            return PolyExpr.const(value)
        if kind == "imag":
            return PolyExpr.const(value)
        if kind == "name":
            p = PolyExpr.variable(value)
            if self.peek()[0] == "^":
                self.take()
                ekind, evalue, epos = self.take()
                if ekind != "number" or evalue != int(evalue) or evalue < 0:
                    raise PolySyntaxError("exponent must be a nonnegative integer", epos)
                result = ONE
                for _ in range(int(evalue)):
                    result = result * p
                return result
            return p
        if kind == "(":
            return self._complex_literal()
        raise PolySyntaxError(f"unexpected token {kind!r}", pos)

    def _complex_literal(self) -> PolyExpr:
        """Literal of the shape (a), (bi), (a+bi) or (a-bi)."""
        total = 0j
        sign = 1.0
        if self.peek()[0] in "+-":
            sign = -1.0 if self.take()[0] == "-" else 1.0
        kind, value, pos = self.take()
        if kind not in ("number", "imag"):
            raise PolySyntaxError("expected a numeric literal in parentheses", pos)
        total += sign * value
        if self.peek()[0] in "+-":
            sign = -1.0 if self.take()[0] == "-" else 1.0
            kind, value, pos = self.take()
            if kind != "imag":
                raise PolySyntaxError("expected an imaginary part", pos)
            total += sign * value
        self.expect(")")
        return PolyExpr.const(total)


def parse_poly(src: str) -> PolyExpr:
    """Parse a polynomial expression into canonical form."""
    return _Parser(src).parse()
