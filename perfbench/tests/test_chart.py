"""The sheared-chart generator: exact inverse, fixed shape, verdicts at defaults."""

from fractions import Fraction

import pytest

import chart
from swcheck import cli

SEEDS = (0, 1, 7, 123456)


@pytest.mark.parametrize("seed", SEEDS)
def test_shear_composed_with_inverse_is_identity(seed):
    phi = chart.shear(seed)
    psi = chart.inverse(phi)
    for i in range(chart.NVARS):
        assert chart.compose(phi[i], psi) == chart.var(i)
        assert chart.compose(psi[i], phi) == chart.var(i)


def test_shape_is_fixed_and_coefficients_are_tenths():
    for seed in SEEDS:
        phi = chart.shear(seed)
        for i, comp in enumerate(phi):
            shear_terms = chart.add(comp, chart.scale(chart.var(i), -1))
            assert set(shear_terms) == set(chart.SHEAR_SUPPORT.get(i, ()))
            for c in shear_terms.values():
                assert (c * 10).denominator == 1 and c * 2 != round(c * 2)


def test_same_seed_same_chart_and_exact_decimals():
    assert chart.sheared_chart(5) == chart.sheared_chart(5)
    assert chart.sheared_chart(5) != chart.sheared_chart(6)
    for c in (Fraction(3, 10), Fraction(-7, 1000), Fraction(123, 8), Fraction(4)):
        assert Fraction(chart.decimal_text(abs(c))) == abs(c)
    with pytest.raises(ValueError):
        chart.decimal_text(Fraction(1, 3))


def test_chart_passes_and_its_perturbed_version_fails(tmp_path):
    path = tmp_path / "chart.json"
    chart.write_chart(3, path)
    base = ["model", "--model", str(path), "--samples", "50", "--seed", "3"]
    assert cli.run(base + ["--output", str(tmp_path / "clean.json")]) == cli.EXIT_PASS
    perturbed = base + ["--perturb", "1e-3", "--output", str(tmp_path / "bad.json")]
    assert cli.run(perturbed) == cli.EXIT_FAIL
