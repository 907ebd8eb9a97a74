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
and parse(print(p)) == p holds exactly.  Total degrees are at most
``MAX_DEGREE`` = 255, for the packed monomials of :class:`PolyExpr`.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

VARIABLES = ("x1", "y1", "x2", "y2", "t")
NVARS = len(VARIABLES)

_Exponents = tuple[int, int, int, int, int]

_W = 8
#: Largest total degree of a polynomial, so each packed W-bit field holds it.
MAX_DEGREE = (1 << _W) - 1
# Shifts of the exponent fields (x1 highest) and of the degree field; _LOW
# keeps the exponent fields, and _UNITS[v] is the packed monomial x_v.
_SHIFTS = tuple(_W * (NVARS - 1 - v) for v in range(NVARS))
_DEG_SHIFT = _W * NVARS
_LOW = (1 << _DEG_SHIFT) - 1
_UNITS = tuple(1 << _DEG_SHIFT | 1 << s for s in _SHIFTS)


class PolySyntaxError(ValueError):
    """Parse failure carrying the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class PolyExpr:
    """Multivariate polynomial with complex coefficients, in canonical form.

    ``packed`` holds (monomial, coefficient) pairs, zero coefficients dropped,
    so structural equality is exact and zero is the empty tuple.  Monomial
    x1^n1 ... t^n5 is the int ``deg << 5W | n1 << 4W | ... | n5``, ``W = 8``,
    ``deg = n1 + ... + n5 <= MAX_DEGREE`` (so no field carries): products add
    ints, and descending int order is the canonical order (degree, then
    exponents, descending).  ``terms`` shows the pairs with exponent tuples.
    """

    packed: tuple[tuple[int, complex], ...] = ()

    @property
    def terms(self) -> tuple[tuple[_Exponents, complex], ...]:
        return tuple((_unpack(m), c) for m, c in self.packed)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "PolyExpr":
        c = complex(value)
        return PolyExpr(((0, c),)) if c != 0 else PolyExpr()

    @staticmethod
    def variable(name: str) -> "PolyExpr":
        return PolyExpr(((_UNITS[VARIABLES.index(name)], 1 + 0j),))

    @staticmethod
    def from_dict(d: dict[_Exponents, complex]) -> "PolyExpr":
        return _canonical({_pack(e): complex(c) for e, c in d.items()})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "PolyExpr":
        other = _coerce(other)
        d = dict(self.packed)
        for m, c in other.packed:
            d[m] = d.get(m, 0j) + c
        return _canonical(d)

    __radd__ = __add__

    def __neg__(self) -> "PolyExpr":
        return PolyExpr(tuple((m, -c) for m, c in self.packed))

    def __sub__(self, other) -> "PolyExpr":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "PolyExpr":
        # With two multi-term operands the float sums depend on the order of
        # accumulation; dot fixes the operand order, so p * q == q * p exactly.
        return dot((self,), (_coerce(other),))

    __rmul__ = __mul__

    # -- calculus and evaluation --------------------------------------------

    def diff(self, var: int | str) -> "PolyExpr":
        """Exact partial derivative with respect to a coordinate."""
        v = VARIABLES.index(var) if isinstance(var, str) else var
        s, unit = _SHIFTS[v], _UNITS[v]
        # Lowering one exponent keeps the monomials distinct and in order.
        return PolyExpr(
            tuple((m - unit, c * n) for m, c in self.packed if (n := m >> s & MAX_DEGREE))
        )

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
        return not self.packed

    def degree(self) -> int:
        return self.packed[0][0] >> _DEG_SHIFT if self.packed else 0

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.packed:
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


def dot(a, b) -> PolyExpr:
    """``sum_i a[i] * b[i]``, canonicalised once.

    Each product keeps the operand order of :meth:`PolyExpr.__mul__`, so
    ``dot(a, b) == dot(b, a)`` exactly; zero polynomials contribute nothing.
    Raises OverflowError if a product's degree would exceed ``MAX_DEGREE``.
    """
    d: dict[int, complex] = {}
    for p, q in zip(a, b, strict=True):
        p, q = p.packed, q.packed
        if p and q and (p[0][0] + q[0][0]) >> _DEG_SHIFT > MAX_DEGREE:
            raise OverflowError(f"a product of degree above {MAX_DEGREE}")
        if len(p) > 1 and len(q) > 1 and _mul_order(q) < _mul_order(p):
            p, q = q, p
        for m1, c1 in p:
            for m2, c2 in q:
                m = m1 + m2
                d[m] = d.get(m, 0j) + c1 * c2
    return _canonical(d)


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[_Exponents, ...]:
    """Exponent tuples of total degree at most ``degree``: C(degree + 5, 5) of them."""
    return tuple(e for e in itertools.product(range(degree + 1), repeat=NVARS) if sum(e) <= degree)


def random_coefficients(rng, degree: int, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Coefficient vectors over ``monomials(degree)``, shape ``shape + (M,)``.

    Each vector has four distinct monomials, drawn by the numpy Generator
    ``rng``, with complex standard-normal coefficients, and zeros elsewhere.
    Vectors are drawn one after another in row-major order of ``shape``, so
    the first n of a larger draw are the same.
    """
    n = len(monomials(degree))
    rows = np.zeros((math.prod(shape), n), dtype=complex)
    for row in rows:
        picks = rng.choice(n, size=4, replace=False)
        row[picks] = rng.normal(size=(4, 2)).view(complex)[:, 0]
    return rows.reshape(shape + (n,))


def random_poly(rng, degree: int) -> PolyExpr:
    """The polynomial of one :func:`random_coefficients` vector."""
    return PolyExpr.from_dict(dict(zip(monomials(degree), random_coefficients(rng, degree))))


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
    live = [i for i, p in enumerate(polys) if p.packed]
    if live:
        exps = np.array([_unpack(m) for i in live for m, _ in polys[i].packed])
        coeffs = np.array([c for i in live for _, c in polys[i].packed])[:, None]
        starts = np.cumsum([0] + [len(polys[i].packed) for i in live[:-1]])
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


def _mul_order(packed):
    # Below the degree field a packed monomial compares as its exponent tuple.
    return [(m & _LOW, c.real, c.imag) for m, c in packed]


def _canonical(d: dict[int, complex]) -> PolyExpr:
    return PolyExpr(tuple(sorted(((m, c) for m, c in d.items() if c != 0), reverse=True)))


def _pack(e) -> int:
    if len(e) != NVARS or min(e) < 0 or sum(e) > MAX_DEGREE:
        raise ValueError(f"exponents {e}: need each >= 0 and a sum <= {MAX_DEGREE}")
    return sum(e) << _DEG_SHIFT | sum(n << s for n, s in zip(e, _SHIFTS))


@lru_cache(maxsize=None)
def _unpack(m: int) -> _Exponents:
    return tuple(m >> s & MAX_DEGREE for s in _SHIFTS)


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
        # One running sum, canonicalised once.  Coefficients are added in term
        # order, as by the left fold term1 + term2 + ...; an entry that cancels
        # stays as 0j, the value the fold restarts that monomial from.
        d = dict((self.term() * sign).packed)
        while self.peek()[0] in "+-":
            negate = self.take()[0] == "-"
            for m, c in self.term().packed:
                d[m] = d.get(m, 0j) + (-c if negate else c)
        return _canonical(d)

    def term(self) -> PolyExpr:
        result = self.factor()
        while self.peek()[0] == "*":
            self.take()
            pos = self.peek()[2]
            try:
                result = result * self.factor()
            except OverflowError as exc:
                raise PolySyntaxError(str(exc), pos) from None
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
                if ekind != "number" or evalue != int(evalue) or not 0 <= evalue <= MAX_DEGREE:
                    raise PolySyntaxError(f"exponent must be an integer in 0..{MAX_DEGREE}", epos)
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
