"""Polynomial expressions: grammar, canonical form, exact calculus."""

import dataclasses
import functools
import itertools
import math
import operator
import random
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from swcheck import models, poly
from swcheck.models import ModelFormatError, VectorFieldPoly, load_model, sample_points
from swcheck.poly import (
    ONE,
    PolyExpr,
    PolySyntaxError,
    ZERO,
    as_poly,
    coefficient_bound,
    evaluate_all,
    max_abs,
    modulus_lower_bound,
    parse_poly,
)


class TestParsing:
    def test_simple_sum(self):
        p = parse_poly("x1 + 2i*t")
        assert p.terms == (
            ((1, 0, 0, 0, 0), 1 + 0j),
            ((0, 0, 0, 0, 1), 2j),
        )

    def test_cancellation_to_zero(self):
        assert parse_poly("x1 - x1").is_zero()
        assert str(parse_poly("x1 - x1")) == "0"

    def test_complex_literal_evaluation(self):
        p = parse_poly("(1+2i)*y2^3")
        assert p((0, 0, 0, 2, 0)) == 8 + 16j

    def test_leading_sign(self):
        assert parse_poly("-x1") == -PolyExpr.variable("x1")

    def test_powers_and_products(self):
        p = parse_poly("x1^2*t")
        assert p((3, 0, 0, 0, 5)) == 45

    def test_scientific_notation(self):
        assert parse_poly("2.5e-1")((0,) * 5) == pytest.approx(0.25)

    def test_bare_imaginary_unit(self):
        assert parse_poly("i*t")((0, 0, 0, 0, 3)) == 3j

    def test_whitespace_ignored(self):
        assert parse_poly(" x1   +  2i * t ") == parse_poly("x1+2i*t")

    def test_unknown_variable_reports_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("x1 + z3")
        assert err.value.position == 5
        assert "z3" in str(err.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("x1 + + *")
        assert "position" in str(err.value)

    def test_overflowing_literal_rejected(self):
        with pytest.raises(PolySyntaxError, match="overflows") as err:
            parse_poly("x1 + 1e400*t")
        assert err.value.position == 5
        # The message quotes at most 40 characters of a long literal.
        with pytest.raises(PolySyntaxError, match="overflows") as err:
            parse_poly("9" * 10**5)
        assert len(str(err.value)) < 100

    @pytest.mark.parametrize("order", [1, -1], ids=["alone_first", "in_a_sum_first"])
    def test_a_cached_literal_is_refused_at_each_offset(self, order):
        # Each literal text is converted once; the refusal is reported at the
        # offset of the occurrence that is parsed, whichever came first.
        poly._number.cache_clear()
        for src, position in [("1e400", 0), ("x1 + 1e400", 5)][::order]:
            with pytest.raises(PolySyntaxError, match="overflows") as err:
                parse_poly(src)
            assert err.value.position == position

    def test_literals_are_exact_decimals(self):
        assert parse_poly("0.1") * 3 == parse_poly("0.3")
        assert parse_poly("2.5e-1") == parse_poly("0.25") == parse_poly("(25e-2+0i)")
        assert parse_poly("(0.1+0.2i)*x1") * 10 == parse_poly("(1+2i)*x1")
        # Below the float range a literal is still exact and nonzero; it
        # rounds to 0 only when evaluated.
        tiny = parse_poly("1e-400*x1")
        assert not tiny.is_zero() and tiny * parse_poly("1e200*1e200") == parse_poly("x1")
        assert tiny((1, 0, 0, 0, 0)) == 0

    def test_too_many_decimal_places_rejected(self):
        with pytest.raises(PolySyntaxError, match="decimal places") as err:
            parse_poly("x1 + 1e-5000*t")
        assert err.value.position == 5
        tiny = parse_poly(f"1e-{poly.MAX_PLACES}*x1")
        assert not tiny.is_zero() and parse_poly(str(tiny)) == tiny

    @pytest.mark.parametrize(
        "src, expected",
        [
            ("0e999999999", "0"),
            ("x1^0e999999999", "1"),
            ("0e-5000", "0"),
            ("0.000e-99999999999999999999*x1", "0"),
            ("1." + "0" * 5000 + "*x1", "x1"),
            ("25" + "0" * 5000 + "e-5002*t", "0.25*t"),
        ],
    )
    def test_zeros_of_a_literal_build_no_large_power(self, src, expected):
        # A zero mantissa is zero whatever its exponent, and trailing zeros
        # move into the exponent, so none of these builds a huge power of 10
        # (10**999999999 alone would take minutes and 415 MB).
        assert str(parse_poly(src)) == expected

    def test_fractional_exponent_rejected(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x1^1.5")

    @pytest.mark.parametrize(
        "src",
        [
            "(" + " " * 10**5,
            "(" + "1" * 50_000 + "+" + "2" * 50_000,
            "(-" + "1." * 50_000,
            "x1" + " *" * 10**5,
        ],
        ids=["spaces", "digits", "points", "stars"],
    )
    def test_rejection_takes_linear_time(self, src):
        # A pattern that can split one text two ways backtracks quadratically:
        # minutes for these.
        start = time.perf_counter()
        with pytest.raises(PolySyntaxError):
            parse_poly(src)
        assert time.perf_counter() - start < 2


# Inputs at the edges of the grammar.  An accepted one maps to its exact value,
# {exponents: coefficient}, every coefficient a binary fraction; a rejected one
# to the offset of the first token that cannot continue the expression, or of
# the "(" of a malformed complex literal.
_NEAR_MISSES = [
    ("2*x1*3i", {(1, 0, 0, 0, 0): 6j}),
    ("x1 ^ 2", {(2, 0, 0, 0, 0): 1}),
    ("( -2.5e-1 - i )", {(0, 0, 0, 0, 0): -0.25 - 1j}),
    ("(i)", {(0, 0, 0, 0, 0): 1j}),
    ("(-i)", {(0, 0, 0, 0, 0): -1j}),
    ("(1-i)", {(0, 0, 0, 0, 0): 1 - 1j}),
    ("5.", {(0, 0, 0, 0, 0): 5}),
    (".5", {(0, 0, 0, 0, 0): 0.5}),
    ("0e999999999", {}),
    ("x1^0e9", {(0, 0, 0, 0, 0): 1}),
    ("x1^2.0", {(2, 0, 0, 0, 0): 1}),
    ("-(2i)*t", {(0, 0, 0, 0, 1): -2j}),
    ("(1+2)", 0),
    ("(1 + 2 i)", 0),
    ("2 i", 2),
    ("2x1", 1),
    ("(1+2i", 0),
    ("((1))", 0),
    ("x1**2", 3),
    ("x1^-1", 3),
    ("x1^", 3),
    ("x1^2^3", 4),
    ("i^2", 1),
    ("1e", 1),
    ("x1 x2 + z3", 3),
    ("x1 - - t", 5),
    ("", 0),
    ("+", 1),
    ("x1 +", 4),
]


class TestNearMisses:
    @pytest.mark.parametrize("src, expected", _NEAR_MISSES)
    def test_outcome(self, src, expected):
        if isinstance(expected, dict):
            assert parse_poly(src) == PolyExpr.from_dict(expected)
        else:
            with pytest.raises(PolySyntaxError) as err:
                parse_poly(src)
            assert err.value.position == expected

    @pytest.mark.parametrize("src", ["x1^-1", "x1^"])
    def test_exponent_without_a_number(self, src):
        with pytest.raises(PolySyntaxError, match=r"exponent must be an integer in 0\.\.255"):
            parse_poly(src)

    def test_imaginary_unit_takes_no_exponent(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("i^2")
        assert "unknown variable" not in str(err.value)


# A literal of at least this magnitude, halfway between the largest float and
# 2^1024, rounds to inf.
_FLOAT_LIMIT = 2**1024 - 2**970


@st.composite
def _decimal_literals(draw):
    """Leading zeros, up to 25 digits and trailing zeros, with or without a
    point among them, and an exponent in [-400, 300] or none.  The zeros, the
    point and the exponent are drawn near the ends of their ranges as often as
    anywhere, so that literals past MAX_PLACES or the float range are common.
    Past 4300 digits Fraction(text) would refuse the text, as int() does."""
    digits = (
        "0" * draw(st.integers(0, 3) | st.integers(3900, 4240))
        + draw(st.text("0123456789", min_size=1, max_size=25))
        + "0" * draw(st.integers(0, 30))
    )
    point = draw(st.none() | st.integers(0, 1) | st.integers(0, len(digits)))
    text = digits if point is None else f"{digits[:point]}.{digits[point:]}"
    exp = draw(st.none() | st.integers(-400, -380) | st.integers(-400, 300) | st.integers(280, 300))
    if exp is not None:
        text += draw(st.sampled_from(["e", "E", "e+"] if exp >= 0 else ["e", "E"])) + str(exp)
    return text


def _rejection(text: str) -> str | None:
    """Why the literal ``text`` is rejected, or None."""
    value = Fraction(text)
    if abs(value) >= _FLOAT_LIMIT:
        return "overflows"
    # n / 10^k in lowest terms has a denominator dividing 10^k.
    if 10**poly.MAX_PLACES % value.denominator:
        return "decimal places"
    return None


@given(
    _decimal_literals(),
    _decimal_literals(),
    st.sampled_from(["", "+", "-"]),
    st.sampled_from("+-"),
    st.sampled_from(["real", "imaginary", "complex"]),
)
@settings(max_examples=300, deadline=None)
def test_literals_are_exact_or_rejected_at_their_offset(a, b, sign, imag_sign, shape):
    # Each literal is compared with Fraction(text), in "t*a", "t*ai" or
    # "t*(±a±bi)".
    if shape == "complex":
        src = f"t*({sign}{a}{imag_sign}{b}i)"
        literals = [(a, 3 + len(sign)), (b, 4 + len(sign) + len(a))]
        s = -1 if sign == "-" else 1
        expected = (s * Fraction(a), (1 if imag_sign == "+" else -1) * Fraction(b))
    else:
        src = f"t*{a}" + ("i" if shape == "imaginary" else "")
        literals = [(a, 2)]
        expected = (Fraction(a), 0) if shape == "real" else (0, Fraction(a))
    failures = [(pos, why) for text, pos in literals if (why := _rejection(text))]
    if failures:
        pos, why = failures[0]
        with pytest.raises(PolySyntaxError, match=why) as err:
            parse_poly(src)
        assert err.value.position == pos
        return
    p = parse_poly(src)
    ((_, re_, im),) = p.packed or ((0, 0, 0),)
    assert (Fraction(re_, p.den), Fraction(im, p.den)) == expected


@st.composite
def _token_lists(draw):
    """The tokens of a valid expression, a complex literal being one token."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    tokens = [sign] if sign else []
    for k in range(draw(st.integers(1, 5))):
        if k:
            tokens.append(draw(st.sampled_from("+-*")))
        factor = draw(
            st.sampled_from(["x1", "y2", "t", "2", "0.5", "2.5e-1", "3i", "i", "(1-2i)", "( -i )"])
        )
        power = factor in poly.VARIABLES and draw(st.booleans())
        tokens += [factor, "^", "2"] if power else [factor]
    return tokens


@given(_token_lists(), st.sampled_from("#$z;"), st.data())
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_character_outside_the_grammar_is_reported_at_its_offset(
    model_to_dict, tokens, bad, data
):
    k = data.draw(st.integers(0, len(tokens)))
    src = " ".join(tokens[:k] + [bad] + tokens[k:])
    offset = len(" ".join(tokens[:k] + [""]))
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(src)
    assert err.value.position == offset
    model = model_to_dict(load_model("heisenberg"))
    model["eta"][0] = src
    with pytest.raises(ModelFormatError, match=rf"^eta\[0\]: .* at position {offset}$"):
        load_model(model)


class TestCanonicalForm:
    def test_like_terms_merged(self):
        assert parse_poly("x1 + x1") == parse_poly("2*x1")

    def test_print_examples(self):
        assert str(parse_poly("2*x1")) == "2*x1"
        assert str(parse_poly("x1 - t")) == "x1 - t"
        assert str(parse_poly("(1+2i)*x1 + i*t")) == "(1+2i)*x1 + i*t"
        assert str(parse_poly("-i*y2")) == "-i*y2"

    @pytest.mark.parametrize(
        "src",
        [
            "0",
            "1",
            "-3i",
            "x1",
            "x1^2*t - y2",
            "(1+2i)*x1*y1 - (0.5-1i)*t^3 + 7",
            "2i*x2^4 + x1 - x1",
        ],
    )
    def test_round_trip(self, src):
        p = parse_poly(src)
        assert parse_poly(str(p)) == p


def _poly_strategy():
    coeff = st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )
    exps = st.tuples(*(st.integers(0, 3) for _ in range(5)))
    term = st.tuples(exps, coeff)
    return st.lists(term, max_size=6).map(
        lambda ts: PolyExpr.from_dict({e: c for e, c in ts})
    )


@given(_poly_strategy())
@settings(max_examples=200, deadline=None)
def test_round_trip_random(p):
    assert parse_poly(str(p)) == p


@given(_poly_strategy(), _poly_strategy())
@settings(max_examples=50, deadline=None)
def test_ring_laws(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert p + ZERO == p
    assert p * ONE == p
    assert (p - p).is_zero()


@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
@settings(max_examples=50, deadline=None)
def test_associative_and_distributive_exactly(p, q, r):
    # With float coefficients both sides differ in the last places.
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


class TestExactCoefficients:
    def test_const_is_the_binary_value_of_a_float(self):
        c = PolyExpr.const(0.1)
        assert c != parse_poly("0.1")
        assert c.packed == ((0, 3602879701896397, 0),) and c.den == 2**55
        assert str(c) == "0.1000000000000000055511151231257827021181583404541015625"
        assert parse_poly(str(c)) == c
        assert PolyExpr.const(0.5 - 0.25j) == parse_poly("(0.5-0.25i)")

    def test_canonical_denominator(self):
        # The gcd of the denominator and every numerator part is 1.
        p = parse_poly("0.5*x1 + 0.25i")
        assert p.den == 4 and p.packed[0][1:] == (2, 0)
        assert (p * 4).den == 1
        assert parse_poly("0.5*x1^2").diff("x1") == parse_poly("x1")
        assert (p - p) == ZERO and ZERO.den == 1

    def test_non_finite_coefficient_rejected(self):
        for bad in (math.nan, math.inf, complex(1, -math.inf), np.complex128(math.nan)):
            with pytest.raises(ValueError, match="not finite"):
                PolyExpr.const(bad)
            with pytest.raises(ValueError, match="not finite"):
                PolyExpr.from_dict({(1, 0, 0, 0, 0): bad, (0, 0, 0, 0, 0): 1.0})
            with pytest.raises(ValueError, match="not finite"):
                parse_poly("x1") * bad

    def test_as_poly_takes_numpy_scalars(self):
        x1 = PolyExpr.variable("x1")
        assert x1 + np.int64(2) == x1 + 2 == np.int64(2) + x1
        assert as_poly(np.int64(2**62 + 1)) == PolyExpr.const(2**62 + 1)
        assert as_poly(np.float32(0.5)) == PolyExpr.const(0.5)
        field = VectorFieldPoly.make(np.int64(1), 0, np.float64(0.5), 0, x1)
        assert field == VectorFieldPoly.make(1, 0, 0.5, 0, x1)

    def test_as_poly_refuses_strings(self):
        with pytest.raises(TypeError, match="str"):
            as_poly("1")
        with pytest.raises(TypeError):
            VectorFieldPoly.make("1", 0, 0, 0, 0)
        with pytest.raises(TypeError):
            PolyExpr.variable("x1") + "1"


@given(st.lists(st.tuples(_poly_strategy(), _poly_strategy()), max_size=4))
@settings(max_examples=50, deadline=None)
def test_dot_is_symmetric_sum_of_products(pairs):
    a = [p for p, _ in pairs]
    b = [q for _, q in pairs]
    assert poly.dot(a, b) == poly.dot(b, a)
    if len(pairs) == 1:
        assert poly.dot(a, b) == a[0] * b[0]


# Term literals of a sum: few numbers and monomials, so that monomials repeat,
# and signed complex literals such as "(-0.1)", so that terms cancel.  The
# decimals are not binary fractions, so a float sum of a coefficient would
# depend on the order its terms are added in; the exact one does not.
_NUMBER = st.sampled_from(["1", "3", "0.1", "0.2", "0.3", "0.7", "2.5e-1", "1e-3"])
_SIGN = st.sampled_from(["+", "-"])
_COEFF = st.one_of(
    _NUMBER,
    _NUMBER.map(lambda n: f"{n}i"),
    st.tuples(_SIGN, _NUMBER).map(lambda t: f"({t[0]}{t[1]})"),
    st.tuples(_SIGN, _NUMBER, _SIGN, _NUMBER).map(lambda t: f"({t[0]}{t[1]}{t[2]}{t[3]}i)"),
)
_TERM = st.tuples(
    st.lists(_COEFF, min_size=0, max_size=2),
    st.lists(st.sampled_from(["x1", "y1", "t", "x2^2"]), max_size=2),
).map(lambda t: "*".join(t[0] + t[1]) or "1")


# In floats, (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last place.
@example(["0.1*x1", "0.2*x1", "0.3*x1"], "+")
@example(["0.3*t", "(-0.3)*t", "0.1*t", "0.2*t"], "+")
@given(st.lists(_TERM, min_size=1, max_size=12), _SIGN)
@settings(max_examples=300, deadline=None)
def test_sum_literal_is_the_left_fold_of_its_terms(terms, op):
    # The parser sums a literal's terms in one dictionary; the result is that
    # of adding the parsed terms one by one, left to right.
    fold = functools.reduce(operator.add if op == "+" else operator.sub, map(parse_poly, terms))
    p = parse_poly(f" {op} ".join(terms))
    assert p == fold
    assert parse_poly(str(p)) == p


def test_dot_operand_order_fixed():
    # Three contributions to x1*y1^4 whose float sum would depend on their
    # order: (0.3 + 0.2) + 0.1 and (0.1 + 0.2) + 0.3 differ in the last place.
    # The exact product is the same in either operand order, and its
    # coefficient rounds once, to the float nearest 0.6.
    p, q = parse_poly("y1^4 + y1^3 + y1^2"), parse_poly("0.1*x1*y1^2 + 0.2*x1*y1 + 0.3*x1")
    expected = parse_poly("0.1*x1*y1^6 + 0.3*x1*y1^5 + 0.6*x1*y1^4 + 0.5*x1*y1^3 + 0.3*x1*y1^2")
    assert p * q == q * p == expected
    assert poly.dot([p, q], [q, p]) == poly.dot([q, p], [p, q]) == expected * 2
    assert dict((p * q).terms)[(1, 4, 0, 0, 0)] == 0.6 != (0.1 + 0.2) + 0.3


def test_dot_exact_on_integer_coefficients():
    a = [parse_poly("x1 + 2*y1"), ZERO, parse_poly("3i*t - 1")]
    b = [parse_poly("x1 - y1"), parse_poly("x2"), parse_poly("(1+i)*t + x1")]
    assert poly.dot(a, b) == a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    assert poly.dot([], []) == ZERO
    with pytest.raises(ValueError):
        poly.dot(a, b[:2])


def _tuple_order_key(item):
    # The canonical term order on exponent tuples: total degree, then the
    # exponents, each descending.
    e, _ = item
    return (-sum(e), tuple(-n for n in e))


# Exponents up to 25 fill five bits of each field and carry within it when
# two terms multiply; a product stays below MAX_DEGREE = 255.
_WIDE_POLY = st.lists(
    st.tuples(
        st.tuples(*(st.integers(0, 25) for _ in range(5))),
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        ),
    ),
    max_size=6,
).map(lambda ts: PolyExpr.from_dict(dict(ts)))


@given(_WIDE_POLY, _WIDE_POLY, st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_packed_form_keeps_tuple_semantics(p, q, v):
    for r in (p, q, p + q, p * q, p.diff(v)):
        assert list(r.terms) == sorted(r.terms, key=_tuple_order_key)
        assert len({e for e, _ in r.terms}) == len(r.terms)
        assert parse_poly(str(r)) == r
    assert poly.dot([p, q], [q, p]) == poly.dot([q, p], [p, q])
    assert poly.dot([p], [q]) == poly.dot([q], [p])
    # terms rounds each coefficient once, which gives back the floats p was
    # built from exactly; the reference scales them by exact integers.
    derivative = ZERO
    for e, c in p.terms:
        if e[v]:
            lowered = e[:v] + (e[v] - 1,) + e[v + 1 :]
            derivative = derivative + PolyExpr.from_dict({lowered: c}) * e[v]
    assert p.diff(v) == derivative


class TestDegreeLimit:
    def test_exponent_at_the_limit(self):
        top = poly.MAX_DEGREE
        p = parse_poly(f"y1^128*y1^127 + x1^{top}")
        assert p.terms == (((top, 0, 0, 0, 0), 1 + 0j), ((0, top, 0, 0, 0), 1 + 0j))
        assert p.degree() == top
        assert p.diff("y1").terms == (((0, top - 1, 0, 0, 0), top + 0j),)
        assert (parse_poly("x1^200 + y1") * parse_poly("3*t^55")).degree() == top

    def test_exponent_beyond_the_limit_rejected_at_its_offset(self):
        for src in ("y1 + x1^256", "y1 + x1^3000"):
            with pytest.raises(PolySyntaxError, match="0..255") as err:
                parse_poly(src)
            assert err.value.position == 8

    def test_product_beyond_the_limit_rejected(self):
        p, q = parse_poly("x1^200 + y1"), parse_poly("t^56")
        with pytest.raises(OverflowError):
            p * q
        with pytest.raises(OverflowError):
            poly.dot([ONE, q], [ONE, p])
        with pytest.raises(PolySyntaxError, match="degree above 255") as err:
            parse_poly("y1 + x1^200*t^56")
        assert err.value.position == 12

    def test_from_dict_rejects_exponents_outside_the_field(self):
        for e in [(256, 0, 0, 0, 0), (200, 0, 0, 0, 56), (-1, 1, 0, 0, 0)]:
            with pytest.raises(ValueError):
                PolyExpr.from_dict({e: 1.0})


class TestMonomialsAndUniform:
    def test_monomial_tables(self):
        for degree, size in [(0, 1), (2, 21), (3, 56)]:
            table = poly.monomials(degree)
            assert len(table) == len(set(table)) == size
            assert all(sum(e) <= degree for e in table)
            # In the order of the filtered product, the first exponent slowest.
            product = itertools.product(range(degree + 1), repeat=5)
            assert table == tuple(e for e in product if sum(e) <= degree)

    def test_uniform_stays_inside_the_open_interval(self):
        # All-zero and all-one bytes give the two ends of the range, 2^-53
        # and 1 - 2^-53; there the sample coordinates 2u - 1 are still inside
        # (-1, 1).
        for byte, end in [(0x00, 2.0**-53), (0xFF, 1 - 2.0**-53)]:
            drawn = poly.uniform(_ConstantBytes(byte), (3, 2))
            assert np.all(drawn == end) and np.all(np.abs(2 * drawn - 1) < 1)

    def test_uniform_reads_one_stream(self):
        rng, ref = random.Random(3), random.Random(3)
        whole = poly.uniform(ref, (10,))
        parts = [poly.uniform(rng, (4,)), poly.uniform(rng, (6,))]
        assert np.array_equal(np.concatenate(parts), whole)


class _ConstantBytes:
    """A stream whose every byte is ``byte``."""

    def __init__(self, byte):
        self.byte = byte

    def randbytes(self, n):
        return bytes([self.byte]) * n


class TestCalculus:
    def test_derivative_exact(self):
        p = parse_poly("x1^2*t + 3*y1")
        assert p.diff("x1") == parse_poly("2*x1*t")
        assert p.diff("t") == parse_poly("x1^2")
        assert p.diff("x2").is_zero()

    def test_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(30):
            terms = {}
            for _ in range(5):
                exp = tuple(int(v) for v in rng.integers(0, 5, size=5))
                if sum(exp) > 4:
                    continue
                terms[exp] = complex(rng.normal(), rng.normal())
            p = PolyExpr.from_dict(terms)
            point = rng.uniform(-1, 1, size=5)
            for v in range(5):
                shift = np.zeros(5)
                shift[v] = h
                fd = (p(point + shift) - p(point - shift)) / (2 * h)
                assert abs(p.diff(v)(point) - fd) < 1e-8

    def test_evaluation_linear_in_coefficients(self):
        p = parse_poly("2*x1")
        q = parse_poly("x1")
        pt = (1.5, 0, 0, 0, 0)
        assert p(pt) == 2 * q(pt)

    def test_degree(self):
        assert parse_poly("x1^2*t").degree() == 3
        assert ZERO.degree() == 0


def _by_call(polys, points):
    """Reference values from the single-point evaluator, shape (N, P)."""
    return np.array([[p(x) for p in polys] for x in points], dtype=complex).reshape(
        len(points), len(polys)
    )


def _points_strategy(coordinate):
    return st.lists(st.tuples(*(coordinate for _ in range(5))), min_size=1, max_size=6)


_SMALL_INT = st.integers(-8, 8)
_DYADIC = _SMALL_INT.map(lambda k: k / 4)
_INT_POLY = st.lists(
    st.tuples(
        st.tuples(*(st.integers(0, 3) for _ in range(5))),
        st.builds(complex, _SMALL_INT, _SMALL_INT),
    ),
    max_size=6,
).map(lambda ts: PolyExpr.from_dict(dict(ts)))
# Coordinates bounded away from zero (or zero), so no power underflows.
_COORD = st.one_of(st.just(0.0), st.floats(1 / 256, 2), st.floats(-2, -1 / 256))


class TestEvaluateAll:
    @given(st.lists(_INT_POLY, max_size=4), _points_strategy(_DYADIC))
    @settings(max_examples=200, deadline=None)
    def test_exact_on_integer_coefficients_and_dyadic_points(self, polys, points):
        assert np.array_equal(evaluate_all(polys, points), _by_call(polys, points))

    @given(st.lists(_poly_strategy(), min_size=1, max_size=4), _points_strategy(_COORD))
    @settings(max_examples=200, deadline=None)
    def test_matches_single_point_evaluation(self, polys, points):
        values = evaluate_all(polys, points)
        for k, x in enumerate(points):
            for i, p in enumerate(polys):
                scale = sum(
                    abs(c) * math.prod(abs(v) ** n for v, n in zip(x, e)) for e, c in p.terms
                )
                assert abs(values[k, i] - p(x)) <= 1e-15 * scale

    def test_powers_are_repeated_products(self):
        # x^n is ((x * x) * x)..., as in __call__, so the two agree exactly on
        # a single power; numpy.power rounds a few percent of these otherwise.
        polys = [PolyExpr.from_dict({e: 1}) for e in poly.monomials(6) if max(e) == sum(e) > 1]
        points = np.random.default_rng(4).uniform(-2, 2, size=(200, 5))
        values = evaluate_all(polys, points)
        assert np.array_equal(values, _by_call(polys, points))
        for x, row in zip(points, values):
            assert row[-1] == functools.reduce(operator.mul, [x[0]] * 6)

    def test_empty_list(self):
        assert evaluate_all([], np.zeros((3, 5))).shape == (3, 0)
        assert max_abs(evaluate_all([], np.zeros((3, 5)))) == 0.0

    def test_zero_and_constant(self):
        points = np.random.default_rng(0).uniform(-1, 1, size=(4, 5))
        values = evaluate_all([ZERO, PolyExpr.const(2 - 3j), ZERO], points)
        assert np.array_equal(values, np.tile([0, 2 - 3j, 0], (4, 1)))

    def test_single_point_shapes(self):
        polys = [parse_poly("x1*t + 2"), parse_poly("y2^3")]
        point = (0.5, 1.0, 2.0, -1.5, 3.0)
        expected = [p(point) for p in polys]
        assert evaluate_all(polys, point).tolist() == expected
        assert evaluate_all(polys, np.array([point])).tolist() == [expected]

    def test_rejects_wrong_point_width(self):
        with pytest.raises(ValueError):
            evaluate_all([ONE], np.zeros((2, 4)))

    def test_block_boundary_in_points(self):
        # Many points in the one pass: every value is exact, as __call__'s.
        polys = [parse_poly("x1 - 2*y1*t"), parse_poly("(1+1i)*x2 + y2")]
        points = np.random.default_rng(1).integers(-4, 5, size=(4921, 5)) / 2
        values = evaluate_all(polys, points)
        assert np.array_equal(values, _by_call(polys, points))

    def test_block_boundary_in_terms(self):
        # More than 2^14 terms at several points in one pass: each value is as
        # if that point were evaluated alone.
        exps = [tuple(int(d) for d in np.base_repr(n, 7).zfill(5)) for n in range(7**5)]
        rng = np.random.default_rng(2)
        big = PolyExpr.from_dict({e: complex(*rng.normal(size=2)) for e in exps})
        assert len(big.terms) > 2**14
        polys = [parse_poly("x1"), big]
        points = rng.uniform(-1, 1, size=(3, 5))
        values = evaluate_all(polys, points)
        for k, x in enumerate(points):
            assert np.array_equal(values[k], evaluate_all(polys, x))
        np.testing.assert_allclose(values, _by_call(polys, points), rtol=1e-12)

    def test_coefficient_beyond_the_float_range_evaluates_to_inf(self):
        # Each coefficient rounds once: beyond the float range to +-inf, with
        # no OverflowError and, on nonzero points, no numpy warning.
        huge = parse_poly("1e300*1e300*x1 - 1e300*1e300i*y1")
        assert huge.terms == (
            ((1, 0, 0, 0, 0), complex(math.inf, 0)),
            ((0, 1, 0, 0, 0), complex(0, -math.inf)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = evaluate_all([parse_poly("1e300*1e300*x1"), huge, ONE], np.ones((3, 5)))
        assert np.all(values[:, 0] == math.inf)
        assert np.all(values[:, 1].real == math.inf) and np.all(values[:, 1].imag == -math.inf)
        assert np.all(values[:, 2] == 1) and max_abs(values) == math.inf


DATA = Path(__file__).parent / "data"


def _families(chart: str, perturb: float = 0.0) -> dict[str, list[PolyExpr]]:
    """Every residual family that ``model --model <chart> --perturb <perturb>``
    measures, J[0][2] shifted by ``perturb * y2`` as the suite does it."""
    bundle = load_model(str(DATA / chart))
    frame = bundle.frame
    if perturb:
        jrows = [list(row) for row in frame.jmat]
        jrows[0][2] = jrows[0][2] + perturb * PolyExpr.variable("y2")
        frame = dataclasses.replace(frame, jmat=tuple(map(tuple, jrows)))
    return {
        **models.contact_check(frame),
        **models.tw_axiom_check(frame, bundle.gamma),
        **models.cr_check(frame),
    }


def _random_polys(seed: int) -> list[PolyExpr]:
    """Ten real and ten complex polynomials of up to 8 terms and degree 6,
    coefficients uniform in (-2, 2) and (-2, 2) + i(-2, 2)."""
    rng = np.random.default_rng(seed)
    table = poly.monomials(6)
    out = []
    for k in range(20):
        picks = rng.choice(len(table), rng.integers(1, 9), replace=False)
        coeffs = rng.uniform(-2, 2, len(picks))
        if k % 2:
            coeffs = coeffs + 1j * rng.uniform(-2, 2, len(picks))
        out.append(PolyExpr.from_dict({table[i]: c for i, c in zip(picks, coeffs)}))
    return out


def _modulus_sum(p: PolyExpr, bits: int, upward: bool) -> Fraction:
    """The sum of the coefficient moduli of ``p`` as a Fraction, each modulus
    rounded to ``bits`` binary places, upward or downward; exact for a real
    or Pythagorean coefficient."""
    total = Fraction(0)
    for _, a, b in p.packed:
        n = (a * a + b * b) << 2 * bits
        root = math.isqrt(n)
        total += Fraction(root + (upward and root * root < n), p.den << bits)
    return total


_CORNERS = list(itertools.product((-1, 1), repeat=5))


def _squares_at_corners(p: PolyExpr) -> list[Fraction]:
    """|p|^2 at each of the 32 corners of [-1, 1]^5, exactly: p at a corner
    is the sum of its coefficients times signs."""
    rows = poly._exponent_rows(p.packed).tolist()
    out = []
    for corner in _CORNERS:
        re_ = im = 0
        for e, (_, a, b) in zip(rows, p.packed):
            sign = math.prod(c**n for c, n in zip(corner, e))
            re_, im = re_ + sign * a, im + sign * b
        out.append(Fraction(re_ * re_ + im * im, p.den * p.den))
    return out


class TestCoefficientBound:
    """coefficient_bound(p) is sum |c| over the coefficients of p: no value of
    p on the box [-1, 1]^5 exceeds it, and it is computed from the exact
    coefficients, rounded once upward."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_at_least_the_exact_value_at_every_corner(self, seed):
        for p in _random_polys(seed) + [parse_poly("x1 + x2 - 0.1*t + (3-4i)*y1*y2")]:
            assert Fraction(coefficient_bound(p)) ** 2 >= max(_squares_at_corners(p)), p

    @pytest.mark.parametrize("seed", [0, 7])
    def test_at_least_the_values_at_the_sample_points(self, seed):
        points = sample_points(1000, seed)
        polys = _random_polys(seed)
        values = np.max(np.abs(evaluate_all(polys, points)), axis=0)
        assert np.all(values <= [coefficient_bound(p) for p in polys])

    @pytest.mark.parametrize("perturb", [0.0, 1e-3])
    def test_at_least_every_sheared_chart_family_at_the_corners_and_sample_points(self, perturb):
        points = sample_points(1000, 0)
        live = 0
        for name, polys in _families("sheared_chart_3.json", perturb).items():
            for p in polys:
                bound = coefficient_bound(p)
                assert max_abs(evaluate_all([p], points)) <= bound, name
                assert Fraction(bound) ** 2 >= max(_squares_at_corners(p)), name
                live += not p.is_zero()
        # Clean, every family is exactly zero; perturbed, most are live.
        assert live == 0 if not perturb else live >= 100

    def test_zero_only_for_the_zero_polynomial(self):
        assert coefficient_bound(ZERO) == 0.0
        assert coefficient_bound(parse_poly("x1 - x1")) == 0.0
        # Below the smallest float, a nonzero sum still rounds up to it.
        for src in ["1e-4000*x1", "(1e-400+1e-400i)*t^3"]:
            assert coefficient_bound(parse_poly(src)) == 5e-324
        assert coefficient_bound(parse_poly("1e-320i")) == math.nextafter(1e-320, 1)
        for p in _random_polys(3):
            assert coefficient_bound(p) > 0

    @pytest.mark.parametrize("seed", [0, 4])
    def test_never_below_the_exact_sum(self, seed):
        # |2^63 + i| exceeds the float 2^63 by less than 2^-63: its modulus
        # rounds up to the next float, 2^63 + 2^11.
        edge = [parse_poly("0.1*x1 + 0.2*y1"), parse_poly("1 - 1e-30*t")]
        edge.append(PolyExpr.const(2**63 + 1j))
        assert coefficient_bound(edge[-1]) == 2.0**63 + 2**11
        for p in _random_polys(seed) + edge:
            bound = Fraction(coefficient_bound(p))
            below = Fraction(math.nextafter(coefficient_bound(p), -math.inf))
            # Each modulus to 200 places, rounded upward, is above the exact
            # modulus; the float below the bound is below the exact sum.
            assert bound >= _modulus_sum(p, 200, upward=True), p
            assert below < _modulus_sum(p, 200, upward=False), p

    def test_real_and_pythagorean_sums_are_exact(self):
        # 0.1 + 0.2 rounds to 0.30000000000000004 > 3/10, the least float above.
        assert coefficient_bound(parse_poly("0.1*x1 - 0.2*y1")) == 0.1 + 0.2
        assert coefficient_bound(parse_poly("(0.6+0.8i)*x1 - (3-4i)*t + 0.25")) == 6.25
        assert coefficient_bound(parse_poly("-2*x1^3*t")) == 2.0
        p = PolyExpr.const(0.1)
        assert Fraction(coefficient_bound(p)) == _modulus_sum(p, 0, upward=True)

    def test_inf_past_the_float_range(self):
        assert coefficient_bound(parse_poly("1e300*1e300*x1")) == math.inf
        assert coefficient_bound(parse_poly("1e308*x1 + 1e308i*y1")) == math.inf
        assert coefficient_bound(parse_poly("1e308*x1 - 8e307*y1")) == math.inf
        largest = coefficient_bound(parse_poly("1e308*x1 - 7.9e307*y1"))
        assert largest == math.nextafter(1.79e308, math.inf)
        # The overflow chart: a family whose coefficients round to inf bounds
        # to inf, and fails its row; model --model overflow_model.json exits 1
        # (test_cli.py, TestNonFiniteEvaluations).
        infinite = set()
        for name, polys in _families("overflow_model.json").items():
            if any(math.isinf(abs(c)) for p in polys for _, c in p.terms):
                assert max(map(coefficient_bound, polys)) == math.inf, name
                infinite.add(name)
        assert infinite == {
            "frame_orthonormality",
            "eta_bracket_criterion",
            "axiom_a_parallel_eta_xi",
            "axiom_b_parallel_metric",
        }


def _split_constant(p: PolyExpr) -> tuple[PolyExpr, PolyExpr]:
    """The constant term of ``p`` and the other terms, each over the den of ``p``."""
    return (
        PolyExpr(tuple(t for t in p.packed if not t[0]), p.den),
        PolyExpr(tuple(t for t in p.packed if t[0]), p.den),
    )


class TestModulusLowerBound:
    """modulus_lower_bound(p) is |c_0| - sum |c| over the other coefficients
    of p: no value of |p| on the box [-1, 1]^5 is below it, and it is computed
    from the exact coefficients, rounded once downward."""

    @staticmethod
    def _polys(seed: int) -> list[PolyExpr]:
        # Each random polynomial, and the same with a constant added that
        # dominates the other terms, so that its bound is positive.
        out = []
        for p in _random_polys(seed):
            out += [p, p + 1.25 * coefficient_bound(p)]
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_at_most_the_exact_minimum_at_the_corners(self, seed):
        extra = [parse_poly("3 - x1 + 0.5i*y1*t"), parse_poly("(3-4i) + 4*x1")]
        positive = 0
        for p in self._polys(seed) + extra:
            low = modulus_lower_bound(p)
            if low > 0:
                positive += 1
                assert Fraction(low) ** 2 <= min(_squares_at_corners(p)), p
        assert positive >= 22

    @pytest.mark.parametrize("seed", [0, 7])
    def test_at_most_the_values_at_the_sample_points(self, seed):
        points = sample_points(1000, seed)
        polys = self._polys(seed)
        values = np.min(np.abs(evaluate_all(polys, points)), axis=0)
        assert np.all(np.array([modulus_lower_bound(p) for p in polys]) <= values)

    def test_exact_for_constants_and_zero_for_zero(self):
        assert modulus_lower_bound(ZERO) == 0.0
        assert modulus_lower_bound(parse_poly("x1 - x1")) == 0.0
        for c in [2, -2.5, 0.1, 1e-320, 3 - 4j, 1.5e308j, -(2.0**-1074)]:
            assert modulus_lower_bound(PolyExpr.const(c)) == abs(c), c
        # No constant term: minus the coefficient bound.
        assert modulus_lower_bound(parse_poly("x1 - 0.5*t")) == -1.5

    def test_rounds_downward(self):
        # 1 - 0.1 is 9/10, and the float 0.9 is above it: the bound is the
        # float below, where coefficient_bound rounds 1 + 0.1 up to the float 1.1.
        assert modulus_lower_bound(parse_poly("1 - 0.1*x1")) == math.nextafter(0.9, 0)
        assert coefficient_bound(parse_poly("1 - 0.1*x1")) == 1.1
        # The float sqrt(2) is above |1 + i|.
        assert modulus_lower_bound(PolyExpr.const(1 + 1j)) == math.nextafter(math.sqrt(2), 0)
        # Below zero too: the float -0.3 is above -3/10.
        assert modulus_lower_bound(parse_poly("0.1 - 0.4*y1")) == math.nextafter(-0.3, -1)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_never_above_the_exact_difference(self, seed):
        edge = [parse_poly("1 - 0.1*x1"), parse_poly("0.1 - 0.2*y1"), PolyExpr.const(2**63 + 1j)]
        for p in self._polys(seed) + edge:
            const, rest = _split_constant(p)
            low = modulus_lower_bound(p)
            above = Fraction(math.nextafter(low, math.inf))
            # Each modulus to 200 places, the constant's rounded down and the
            # others' up, gives a difference below the exact one; the float
            # above the bound is above the exact difference.
            lower = _modulus_sum(const, 200, upward=False) - _modulus_sum(rest, 200, upward=True)
            upper = _modulus_sum(const, 200, upward=True) - _modulus_sum(rest, 200, upward=False)
            assert Fraction(low) <= lower, p
            assert above > upper, p

    def test_past_the_float_range(self):
        # Other moduli past the float range give -inf, a constant past it the
        # largest float; both past it and cancelling give the exact 0.0, where
        # floats would give inf - inf, a NaN that Python's max(0, nan) drops.
        assert modulus_lower_bound(parse_poly("1 + 1e308*x1 + 1e308*y1")) == -math.inf
        assert modulus_lower_bound(parse_poly("1e300*1e300 - x1")) == sys.float_info.max
        assert modulus_lower_bound(parse_poly("1e300*1e300 + 1e300*1e300*x1")) == 0.0
        assert modulus_lower_bound(parse_poly("1e300*1e300 + 1e300*1e300i*x1")) == 0.0
