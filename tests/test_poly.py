"""Polynomial expressions: grammar, canonical form, exact calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swcheck.poly import (
    ONE,
    PolyExpr,
    PolySyntaxError,
    VARIABLES,
    ZERO,
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

    def test_fractional_exponent_rejected(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x1^1.5")


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
