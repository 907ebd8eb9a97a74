"""Polynomial coefficient expressions over the chart coordinates.

Vector fields, contact forms and spinor fields on the model charts carry
polynomial coefficient functions in the coordinates (x1, y1, x2, y2, t).
This module provides the canonical-form polynomial type, exact
differentiation, and the small expression grammar used by model definition
files:

    expr   := [sign] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := number ["i"] | "i" | variable ["^" number]
            | "(" [sign] (number ["i"] | "i") [sign [number] "i"] ")"

Numbers are decimal (scientific notation accepted); an exponent is an
integral one.  Factors come in any order ("2*x1*3i"); whitespace may
separate tokens, and "2i" is one token ("2 i" is not "2i").  An error reports
the offset of the first token that cannot continue the expression, or of
the "(" of a malformed complex literal; a literal beyond the float range
(``1e400``) or with more than ``MAX_PLACES`` = 4300 decimal places
(``1e-5000``) is one.  Total degrees are at most ``MAX_DEGREE`` = 255.
Each distinct literal text is converted once (a bounded cache), and a
refused one is reported at the offset of each of its occurrences.

Coefficients are exact Gaussian rationals.  A decimal literal is n / 10^k
and a float or complex number its binary value (``float.as_integer_ratio``).
Sums, products and derivatives are exact and no operation divides, so every
denominator divides a power of 10: printing gives exact decimals, and
parse(print(p)) == p holds exactly while the coefficients are literals the
grammar accepts (products can leave the float range).  Floats appear only in
evaluation, which rounds each coefficient once.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

VARIABLES = ("x1", "y1", "x2", "y2", "t")
NVARS = len(VARIABLES)

_Exponents = tuple[int, int, int, int, int]

_W = 8
#: Largest total degree of a polynomial, so each packed W-bit field holds it.
MAX_DEGREE = (1 << _W) - 1
# Shifts of the exponent fields (x1 highest) and of the degree field; _UNITS[v]
# is the packed monomial x_v.
_SHIFTS = tuple(_W * (NVARS - 1 - v) for v in range(NVARS))
_SHIFT_ROW = np.array(_SHIFTS)
_DEG_SHIFT = _W * NVARS
_UNITS = tuple(1 << _DEG_SHIFT | 1 << s for s in _SHIFTS)
_UNIT_OF = dict(zip(VARIABLES, _UNITS))
#: Most decimal places of a numeric literal, so that its denominator stays small.
MAX_PLACES = 4300
# The imaginary numerator of a (monomial, re, im) term.
_IM = operator.itemgetter(2)


class PolySyntaxError(ValueError):
    """Parse failure carrying the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True, slots=True)
class PolyExpr:
    """Multivariate polynomial with Gaussian-rational coefficients, in
    canonical form.

    ``packed`` holds (monomial, re, im) triples, the coefficient of the
    monomial being ``(re + im*i) / den`` with Python ints ``re``, ``im`` and
    ``den > 0``.  Zero coefficients are dropped and ``den`` shares no factor
    with every numerator part, so structural equality is exact and zero is
    the empty tuple over 1.  Monomial x1^n1 ... t^n5 is the int
    ``deg << 5W | n1 << 4W | ... | n5``, ``W = 8``,
    ``deg = n1 + ... + n5 <= MAX_DEGREE`` (so no field carries): products add
    ints, and descending int order is the canonical order (degree, then
    exponents, descending).  ``terms`` shows the terms with exponent tuples
    and float coefficients.
    """

    packed: tuple[tuple[int, int, int], ...] = ()
    den: int = 1

    @property
    def terms(self) -> tuple[tuple[_Exponents, complex], ...]:
        d = self.den
        return tuple(
            (tuple(e), complex(_ratio(a, d), _ratio(b, d)))
            for e, (_, a, b) in zip(_exponent_rows(self.packed).tolist(), self.packed)
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "PolyExpr":
        a, b, d = _exact(value)
        return PolyExpr(((0, a, b),), d) if a or b else ZERO

    @staticmethod
    def variable(name: str) -> "PolyExpr":
        return PolyExpr(((_UNITS[VARIABLES.index(name)], 1, 0),))

    @staticmethod
    def from_dict(d: dict[_Exponents, complex]) -> "PolyExpr":
        # Every exponent tuple is checked; only nonzero values are converted.
        terms = [(m, *_exact(c)) for m, c in zip(map(_pack, d), d.values()) if c]
        den = math.lcm(*[q for *_, q in terms])
        terms = [(m, a * (den // q), b * (den // q)) for m, a, b, q in terms]
        return _reduced(sorted(terms, reverse=True), den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "PolyExpr":
        return _add(self, as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "PolyExpr":
        if not self.packed:
            return self
        return PolyExpr(tuple((m, -a, -b) for m, a, b in self.packed), self.den)

    def __sub__(self, other) -> "PolyExpr":
        return _add(self, as_poly(other), -1)

    def __mul__(self, other) -> "PolyExpr":
        return dot((self,), (as_poly(other),))

    __rmul__ = __mul__

    # -- calculus and evaluation --------------------------------------------

    def diff(self, var: int | str) -> "PolyExpr":
        """Exact partial derivative with respect to a coordinate."""
        v = VARIABLES.index(var) if isinstance(var, str) else var
        s, unit = _SHIFTS[v], _UNITS[v]
        # Lowering one exponent keeps the monomials distinct and in order.
        terms = [(m - unit, a * n, b * n) for m, a, b in self.packed if (n := m >> s & MAX_DEGREE)]
        return _reduced(terms, self.den)

    def __call__(self, point) -> complex:
        total = 0j
        for e, c in self.terms:
            v = c
            for x, n in zip(point, e):
                if n:
                    v *= math.prod([x] * n)
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
        for e, (_, a, b) in zip(_exponent_rows(self.packed).tolist(), self.packed):
            mono = "*".join(
                f"{VARIABLES[i]}^{n}" if n > 1 else VARIABLES[i] for i, n in enumerate(e) if n
            )
            body, negate = _format_coeff(a, b, self.den, bool(mono))
            piece = f"{body}*{mono}" if body and mono else (body or mono or "1")
            if not chunks:
                chunks.append(f"-{piece}" if negate else piece)
            else:
                chunks.append(f"- {piece}" if negate else f"+ {piece}")
        return " ".join(chunks)

    __repr__ = __str__


ZERO = PolyExpr()
ONE = PolyExpr(((0, 1, 0),))


def dot(a, b) -> PolyExpr:
    """``sum_i a[i] * b[i]``, exact and canonicalised once; zero polynomials
    contribute nothing.  Raises OverflowError if a product's degree would
    exceed ``MAX_DEGREE``.
    """
    pairs = [(p, q) for p, q in zip(a, b, strict=True) if p.packed and q.packed]
    if not pairs:
        return ZERO
    den = math.lcm(*[p.den * q.den for p, q in pairs])
    re_: dict[int, int] = {}
    im: dict[int, int] = {}
    for p, q in pairs:
        p_terms, q_terms = p.packed, q.packed
        if (p_terms[0][0] + q_terms[0][0]) >> _DEG_SHIFT > MAX_DEGREE:
            raise OverflowError(f"a product of degree above {MAX_DEGREE}")
        f = den // (p.den * q.den)
        if any(map(_IM, p_terms)) or any(map(_IM, q_terms)):
            for m1, a1, b1 in p_terms:
                a1, b1 = a1 * f, b1 * f
                for m2, a2, b2 in q_terms:
                    m = m1 + m2
                    re_[m] = re_.get(m, 0) + a1 * a2 - b1 * b2
                    im[m] = im.get(m, 0) + a1 * b2 + b1 * a2
        else:
            for m1, a1, _ in p_terms:
                a1 *= f
                for m2, a2, _ in q_terms:
                    m = m1 + m2
                    re_[m] = re_.get(m, 0) + a1 * a2
    return _from_parts(re_, im, den)


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[_Exponents, ...]:
    """The C(degree + 5, 5) exponent tuples of total degree at most ``degree``, sorted."""
    exps = [()]
    for _ in range(NVARS):
        exps = [e + (n,) for e in exps for n in range(degree + 1 - sum(e))]
    return tuple(exps)


def uniform(rng, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Floats strictly inside (0, 1), shape ``shape``, read from the
    ``random.Random`` stream ``rng``: each is (2k + 1) / 2^53 for the top 52
    bits k of 8 bytes of ``rng.randbytes``, so it is exact and u and 1 - u
    are equally likely.  Consecutive calls read one stream: a draw of shape
    (a + b,) gives the draws of shapes (a,) and (b,) one after the other.
    """
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((words >> np.uint64(11)) | np.uint64(1)).reshape(shape) * 2.0**-53


def monomial_terms(coeffs, exps, points) -> np.ndarray:
    """The terms ``c * x1^n1 * y1^n2 * x2^n3 * y2^n4 * t^n5`` for every real
    coefficient ``c = coeffs[j]`` and exponent row ``(n1, ..., n5) = exps[j]``
    at every point of an ``(N, 5)`` float array: shape ``(len(exps), N)``.

    The powers come from one per-variable table of repeated products
    x^n = x^(n-1) * x, and each term is multiplied in the order written, as
    in :meth:`PolyExpr.__call__`, so they round alike on every CPU.
    """
    width = int(exps.max()) + 1
    table = np.ones((NVARS, width, len(points)))
    for n in range(1, width):
        table[:, n] = table[:, n - 1] * points.T
    terms = coeffs[:, None] * table[0, exps[:, 0]]
    for v in range(1, NVARS):
        terms *= table[v, exps[:, v]]
    return terms


def evaluate_all(polys, points) -> np.ndarray:
    """Values of every polynomial at every real point, shape ``(..., len(polys))``.

    ``points`` has shape ``(..., 5)``.  The terms of all nonzero polynomials
    are stacked once, each coefficient rounded once to a complex float (±inf
    beyond the float range), with the real and imaginary parts of ``c`` taken
    separately.  One pass of :func:`monomial_terms` gives every term at every
    point, a ``(terms, points)`` array, and ``np.add.reduceat`` sums each
    polynomial's terms.  The pairwise sums of ``reduceat`` may round
    differently from ``__call__``, so a value may differ from it in the last
    places; a point's values do not depend on the other points.
    """
    x = np.asarray(points, dtype=float)
    if x.shape[-1:] != (NVARS,):
        raise ValueError(f"points must have shape (..., {NVARS}), got {x.shape}")
    shape = x.shape[:-1] + (len(polys),)
    x = x.reshape(-1, NVARS)
    out = np.zeros((len(x), len(polys)), dtype=complex)
    live = [i for i, p in enumerate(polys) if p.packed]
    if live:
        nonzero = [polys[i] for i in live]
        packed = [t for p in nonzero for t in p.packed]
        exps = _exponent_rows(packed)
        coeffs = [_ratio(a, p.den) for p in nonzero for _, a, _ in p.packed]
        # One row per real part, then one per imaginary part if any is nonzero.
        parts = [out.real]
        if any(map(_IM, packed)):
            parts.append(out.imag)
            coeffs += [_ratio(b, p.den) for p in nonzero for _, _, b in p.packed]
        coeffs = np.array(coeffs)
        starts = np.cumsum([0] + [len(p.packed) for p in nonzero] * len(parts))[:-1]
        terms = monomial_terms(coeffs, np.tile(exps, (len(parts), 1)), x)
        sums = np.add.reduceat(terms, starts, axis=0).reshape(len(parts), len(live), -1)
        for part, s in zip(parts, sums):
            part[:, live] = s.T
    return out.reshape(shape)


def max_abs(values) -> float:
    """Largest modulus in ``values`` (0.0 if there are none); NaN propagates."""
    return float(np.max(np.abs(values), initial=0.0))


#: Binary places kept of each coefficient modulus in :func:`coefficient_bound`
#: and :func:`modulus_lower_bound`.
_GUARD = 64


def coefficient_bound(p: PolyExpr) -> float:
    """The sum of the coefficient moduli of ``p``, an upper bound on ``|p(x)|``
    over the box ``[-1, 1]^5``, without evaluating ``p``; 0.0 only for zero.

    The sum is taken over ``den * 2^64`` (:func:`_modulus_sum`), then rounded
    once, upward, to a float, and reads inf beyond the float range, as
    :func:`_ratio` does.
    """
    if not p.packed:
        return 0.0
    return _directed(_modulus_sum(p.packed, True), p.den << _GUARD, True)


def modulus_lower_bound(p: PolyExpr) -> float:
    """A lower bound on ``|p(x)|`` over the box ``[-1, 1]^5``, without
    evaluating ``p``: the modulus of the constant term less the sum of the
    other coefficient moduli.

    Both are taken over ``den * 2^64`` as in :func:`coefficient_bound`, the
    constant's modulus rounded down and the others' up, and their difference
    is rounded once, downward, to a float.  So it is exact for a constant
    whose modulus is a float, 0.0 for zero, negative where the constant term
    does not dominate, and never NaN: -inf only when the other moduli sum past
    the float range.
    """
    terms = p.packed
    # The constant term, monomial 0, is the last in canonical order.
    split = len(terms) - (bool(terms) and not terms[-1][0])
    low = _modulus_sum(terms[split:], False) - _modulus_sum(terms[:split], True)
    return _directed(low, p.den << _GUARD, False)


def _modulus_sum(terms, up: bool) -> int:
    """The sum of ``|a + bi| * 2^64`` over the (monomial, a, b) ``terms``, each
    modulus rounded to an int, upward if ``up``, else downward (the ceiling of
    ``sqrt(n)`` is ``isqrt(n - 1) + 1`` for n >= 1).  A real one is
    ``|a| * 2^64`` exactly, taken so, without the square root that costs
    several times the rest."""
    return sum(
        math.isqrt(((a * a + b * b) << 2 * _GUARD) - up) + up if b else abs(a) << _GUARD
        for _, a, b in terms
    )


def _directed(n: int, d: int, up: bool) -> float:
    """n / d, for d > 0, rounded once to a float, upward if ``up``, else
    downward; inf upward and the largest float downward past it, and alike
    below the negative range."""
    q = _ratio(n, d)
    if math.isinf(q):
        return q if (q > 0) == up else math.nextafter(q, 0)
    num, den = q.as_integer_ratio()
    if (num * d >= n * den) if up else (num * d <= n * den):
        return q
    return math.nextafter(q, math.inf if up else -math.inf)


def as_poly(v) -> PolyExpr:
    """``v`` as a PolyExpr: a PolyExpr itself, or a Python or numpy number as
    an exact constant.  Raises TypeError for anything else."""
    if isinstance(v, PolyExpr):
        return v
    if isinstance(v, (int, float, complex, np.number)):
        return PolyExpr.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to PolyExpr")


def _exact(value) -> tuple[int, int, int]:
    """(re, im, den) of an int, float or complex number, exactly: den is a
    power of two and gcd(re, im, den) is 1."""
    if isinstance(value, (int, np.integer)):
        return int(value), 0, 1
    c = complex(value)
    try:
        (a, p), (b, q) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    except (OverflowError, ValueError):  # inf, nan
        raise ValueError(f"coefficient {value!r} is not finite") from None
    # p and q are powers of two, so the larger is their lcm.
    den = max(p, q)
    return a * (den // p), b * (den // q), den


def _ratio(n: int, d: int) -> float:
    """n / d rounded once to a float, ±inf beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _reduced(terms: list[tuple[int, int, int]], den: int) -> PolyExpr:
    """PolyExpr of nonzero terms in canonical order over ``den``, with the gcd
    of den and every numerator part divided out."""
    if not terms:
        return ZERO
    g = den
    for _, a, b in terms:
        if g == 1:
            break
        g = math.gcd(g, a, b)
    if g > 1:
        terms = [(m, a // g, b // g) for m, a, b in terms]
    return PolyExpr(tuple(terms), den // g)


def _add(p: PolyExpr, q: PolyExpr, sign: int) -> PolyExpr:
    """p + q for ``sign`` 1, p - q for -1."""
    if not q.packed:
        return p
    if not p.packed:
        return q if sign > 0 else -q
    den = math.lcm(p.den, q.den)
    return _sum([(p.packed, den // p.den), (q.packed, sign * (den // q.den))], den)


def _sum(parts, den: int) -> PolyExpr:
    """Sum over the (terms, f) of ``parts`` of every (monomial, re, im) term
    times the int f, over ``den``."""
    re_: dict[int, int] = {}
    im: dict[int, int] = {}
    for terms, f in parts:
        for m, a, b in terms:
            re_[m] = re_.get(m, 0) + a * f
            if b:
                im[m] = im.get(m, 0) + b * f
    return _from_parts(re_, im, den)


def _from_parts(re_: dict[int, int], im: dict[int, int], den: int) -> PolyExpr:
    """PolyExpr of real and imaginary numerators by monomial, over ``den``;
    every monomial of ``im`` is one of ``re_``."""
    if im:
        terms = [(m, a, b) for m, a in re_.items() if (b := im.get(m, 0)) or a]
    else:
        terms = [(m, a, 0) for m, a in re_.items() if a]
    terms.sort(reverse=True)
    return _reduced(terms, den)


def _pack(e) -> int:
    if len(e) != NVARS or min(e) < 0 or sum(e) > MAX_DEGREE:
        raise ValueError(f"exponents {e}: need each >= 0 and a sum <= {MAX_DEGREE}")
    return sum(e) << _DEG_SHIFT | sum(n << s for n, s in zip(e, _SHIFTS))


def _exponent_rows(terms) -> np.ndarray:
    """Exponent rows (n1, ..., n5) of the packed monomials of (monomial, re,
    im) terms, shape ``(len(terms), 5)``."""
    monomials = np.array([m for m, _, _ in terms], dtype=np.int64).reshape(-1, 1)
    return monomials >> _SHIFT_ROW & MAX_DEGREE


def _decimal(n: int, den: int) -> str:
    """Exact decimal text of n / den, for a den = 2^a 5^b, which divides 10^k
    for k = max(a, b)."""
    a = (den & -den).bit_length() - 1
    b, rest = 0, den >> a
    while rest > 1:
        rest //= 5
        b += 1
    k = max(a, b)
    digits = str(abs(n) * 10**k // den).rjust(k + 1, "0")
    text = f"{digits[:-k]}.{digits[-k:]}".rstrip("0").rstrip(".") if k else digits
    return "-" + text if n < 0 else text


def _format_coeff(a: int, b: int, den: int, has_mono: bool) -> tuple[str, bool]:
    """Printable coefficient (a + b i) / den and whether the term is sign-negated."""
    if b == 0:
        if abs(a) == den and has_mono:
            return "", a < 0
        return _decimal(abs(a), den), a < 0
    if a == 0:
        mag = "" if abs(b) == den else _decimal(abs(b), den)
        return f"{mag}i", b < 0
    return f"({_decimal(a, den)}{'+' if b > 0 else '-'}{_decimal(abs(b), den)}i)", False


# -- parser --------------------------------------------------------------------

# A decimal literal, written so that each text splits into its parts one way
# only: a failing match then backtracks in linear time, not quadratic.
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_SIGN = re.compile(r"\s*([+-]?)")
# One factor and the separator after it.  Exactly one of the groups number,
# name, first and missing matches; of these only missing is ever empty, and
# power is empty when no number follows the "^".
_FACTOR = re.compile(
    rf"""
    \s* (?:
        (?P<number> {_NUMBER} i? | i (?![A-Za-z0-9]) )      # 2.5e-1, 2i or i
      | (?P<name> [A-Za-z][A-Za-z0-9]* )                    # a variable, with an
        (?: \s* \^ \s* (?P<power> {_NUMBER} | ) )?           #   optional exponent
      | \( \s* (?: (?P<sign> [+-] ) \s* )?                  # (a), (bi), (i),
        (?P<first> {_NUMBER} i? | i ) \s*                   #   (a+bi) or (a-bi)
        (?: (?P<imag_sign> [+-] ) \s* (?P<imag> (?:{_NUMBER})? i ) \s* )? \)
      | (?P<missing> )                                      # none: an error here
    )
    \s* (?P<sep> [-+*] )?
    """,
    re.VERBOSE,
)


class _Refused(ValueError):
    """A literal the grammar matches but whose value is refused."""


def _literal(text: str) -> tuple[int, int]:
    """(numerator, denominator) of the decimal literal ``text``, exactly."""
    if math.isinf(float(text)):
        raise _Refused(f"numeric literal {text[:40]!r} overflows")
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = whole + frac
    # Trailing zeros move into the exponent: 1.000 is 1, not 1000 / 10^3.
    sig = digits.rstrip("0")
    if not sig.lstrip("0"):  # zero, whatever its exponent
        return 0, 1
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        exp = int(exp or 0) + len(digits) - len(sig) - len(frac)
        num = int(sig.lstrip("0"))
    except ValueError:
        raise _Refused(f"numeric literal {text[:40]!r} has too many digits") from None
    if exp < -MAX_PLACES:
        raise _Refused(f"numeric literal {text[:40]!r} has more than {MAX_PLACES} decimal places")
    return (num * 10**exp, 1) if exp >= 0 else (num, 10**-exp)


@lru_cache(maxsize=1024)
def _number(text: str) -> tuple[int, int, int]:
    """(re, im, den) of a literal "a", "bi" or "i", exactly.  Each text is
    converted once; a refusal is not cached, and ``_read`` reports it at the
    offset of each occurrence."""
    literal = text.removesuffix("i")
    num, den = _literal(literal) if literal else (1, 1)
    return (num, 0, den) if literal == text else (0, num, den)


def _read(text: str, m: re.Match, group: str) -> tuple[int, int, int]:
    """``_number(text)`` for the text of ``group`` in ``m``; a refused literal
    is a PolySyntaxError at that group's offset."""
    try:
        return _number(text)
    except _Refused as exc:
        raise PolySyntaxError(str(exc), m.start(group)) from None


def _times(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, d = x
    c, e, f = y
    return a * c - b * e, a * e + b * c, d * f


def parse_poly(src: str) -> PolyExpr:
    """Parse a polynomial expression into canonical form.

    Each pass of the loop matches one factor and the separator after it: a
    "*" multiplies the next factor into the term, a "+" or "-" starts a new
    term of that sign.  An error is reported at the first token that cannot
    continue the expression.
    """
    m = _SIGN.match(src)
    sep, pos = m[1], m.end()
    # (monomial, re, im, den) of each term, summed over one denominator at the end.
    terms = []
    while sep is not None:
        m = _FACTOR.match(src, pos)
        number, name, power, sign, first, imag_sign, imag, _, after = m.groups()
        if sep != "*":
            mono, coeff = 0, (-1 if sep == "-" else 1, 0, 1)
        if number:
            coeff = _times(coeff, _read(number, m, "number"))
        elif name:
            unit = _UNIT_OF.get(name)
            if unit is None:
                raise PolySyntaxError(f"unknown variable {name!r}", m.start("name"))
            n = 1
            if power is not None:
                # An empty power is not an integer.
                num, _, den = _read(power, m, "power") if power else (1, 0, 2)
                if num % den or not 0 <= num // den <= MAX_DEGREE:
                    raise PolySyntaxError(
                        f"exponent must be an integer in 0..{MAX_DEGREE}", m.start("power")
                    )
                n = num // den
            if (mono >> _DEG_SHIFT) + n > MAX_DEGREE:
                raise PolySyntaxError(f"a product of degree above {MAX_DEGREE}", m.start("name"))
            mono += n * unit
        elif first:
            a, b, d = _read(first, m, "first")
            if sign == "-":
                a, b = -a, -b
            if imag:
                _, e, f = _read(imag, m, "imag")
                e = -e if imag_sign == "-" else e
                a, b, d = a * f, b * f + e * d, d * f
            coeff = _times(coeff, (a, b, d))
        else:
            raise PolySyntaxError(
                "expected a number, a variable or a complex literal such as (1+2i)",
                m.start("missing"),
            )
        sep, pos = after, m.end()
        if sep != "*":
            terms.append((mono, *coeff))
    if pos < len(src):
        raise PolySyntaxError("expected '+', '-', '*' or the end", pos)
    den = math.lcm(*[d for *_, d in terms])
    return _sum([(((mono, a, b),), den // d) for mono, a, b, d in terms], den)
