"""Model charts: Heisenberg validators, the pointwise model of the canonical
solution, model files."""

import json

import numpy as np
import pytest
from numpy.random import default_rng

from swcheck import models
from swcheck.curvature import (
    admissible_ricci,
    random_admissible_ricci,
    random_admissible_torsion,
    ricci_form,
    ricci_violations,
    rho_plus,
    scalar_curvature,
    torsion_violations,
)
from swcheck import extalg
from swcheck.dirac_sw import canonical_solution
from swcheck.extalg import INDEX_TUPLES, deta
from swcheck.models import (
    ConnectionCoefficients,
    CoordForm,
    FrameFieldSet,
    ModelFormatError,
    VectorFieldPoly,
    contact_check,
    cr_check,
    exterior_d,
    heisenberg5,
    lie_bracket,
    load_model,
    sample_points,
    tw_axiom_check,
)
from swcheck.poly import PolyExpr

POINTS = sample_points(100, seed=10)


def _is_zero(field: VectorFieldPoly) -> bool:
    return all(c.is_zero() for c in field.components)


@pytest.fixture(scope="module")
def heis():
    bundle = heisenberg5()
    return bundle.frame, bundle.connection


class TestHeisenbergStructure:
    def test_deta_on_first_pair(self, heis):
        frame, _ = heis
        d = exterior_d(frame.eta)
        val = d.pair_two(frame.fields[0], frame.fields[1])
        assert val == PolyExpr.const(1)

    def test_reeb_normalization_exact(self, heis):
        frame, _ = heis
        assert frame.eta.pair_vector(frame.reeb) == PolyExpr.const(1)

    def test_contact_volume_is_exactly_two(self, heis):
        frame, _ = heis
        assert frame.contact_volume == PolyExpr.const(2)

    def test_bracket_e1_e2_is_minus_reeb(self, heis):
        # [e1, e2] = [d/dx1 + y1 d/dt, d/dy1] = -d/dt.  With the flat
        # connection the torsion is therefore T(e1, e2) = +deta(e1, e2) Reeb.
        frame, _ = heis
        br = lie_bracket(frame.fields[0], frame.fields[1])
        assert [str(c) for c in br.components] == ["0", "0", "0", "0", "-1"]

    def test_bracket_antisymmetry_and_jacobi_exact(self, heis):
        frame, _ = heis
        f = frame.fields
        for i in range(5):
            for j in range(5):
                assert _is_zero(lie_bracket(f[i], f[j]) + lie_bracket(f[j], f[i]))
        for i, j, k in [(0, 1, 2), (0, 2, 4), (1, 3, 0), (2, 3, 4)]:
            jac = (
                lie_bracket(f[i], lie_bracket(f[j], f[k]))
                + lie_bracket(f[j], lie_bracket(f[k], f[i]))
                + lie_bracket(f[k], lie_bracket(f[i], f[j]))
            )
            assert _is_zero(jac)


def _rand_poly(rng, max_degree=3) -> PolyExpr:
    """A few monomials of degree <= max_degree with small Gaussian-integer
    coefficients, so that every sum and product below is exact."""
    terms = {}
    for _ in range(3):
        exp = tuple(int(v) for v in rng.multinomial(rng.integers(0, max_degree + 1), [0.2] * 5))
        terms[exp] = complex(*rng.integers(-3, 4, size=2))
    return PolyExpr.from_dict(terms)


def _rand_form(rng, degree, max_degree=3) -> CoordForm:
    # About a third of the coefficients of a positive-degree form are zero,
    # which the products skip.
    return CoordForm(
        degree,
        tuple(
            PolyExpr() if degree and rng.random() < 0.3 else _rand_poly(rng, max_degree)
            for _ in INDEX_TUPLES[degree]
        ),
    )


def _signed_sum(a: CoordForm, b: CoordForm, sign: int) -> tuple[PolyExpr, ...]:
    return tuple(x + y if sign > 0 else x - y for x, y in zip(a.coeffs, b.coeffs))


class TestCoordForm:
    """The polynomial forms against extalg's tables and the identities of d."""

    @pytest.mark.parametrize("ka, kb", [(ka, kb) for ka in range(6) for kb in range(6 - ka)])
    def test_constant_wedge_matches_extalg(self, ka, kb):
        rng = np.random.default_rng(100 + 6 * ka + kb)
        for _ in range(5):
            a, b = (
                rng.integers(-3, 4, size=(len(INDEX_TUPLES[k]), 2)) @ [1, 1j] for k in (ka, kb)
            )
            a[rng.random(a.shape) < 0.3] = 0
            coord = CoordForm(ka, tuple(map(PolyExpr.const, a))).wedge(
                CoordForm(kb, tuple(map(PolyExpr.const, b)))
            )
            expected = extalg.wedge(extalg.KForm(ka, a), extalg.KForm(kb, b))
            assert coord.degree == ka + kb
            assert coord.coeffs == tuple(map(PolyExpr.const, expected.coeffs))

    def test_wedge_degree_overflow(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="overflow"):
            _rand_form(rng, 3).wedge(_rand_form(rng, 3))

    def test_coefficient_count_is_checked(self):
        with pytest.raises(ValueError, match="needs 10 coefficients"):
            CoordForm(2, (PolyExpr(),) * 5)

    @pytest.mark.parametrize("degree", range(4))
    def test_d_squared_is_zero(self, degree):
        rng = np.random.default_rng(200 + degree)
        forms = [_rand_form(rng, degree) for _ in range(5)]
        assert any(not c.is_zero() for w in forms for c in exterior_d(w).coeffs)
        for w in forms:
            dd = exterior_d(exterior_d(w))
            assert dd.degree == degree + 2
            assert all(c.is_zero() for c in dd.coeffs)

    @pytest.mark.parametrize("ka, kb", [(ka, kb) for ka in range(5) for kb in range(5 - ka)])
    def test_leibniz_rule(self, ka, kb):
        # d(a ^ b) = da ^ b + (-1)^ka a ^ db
        rng = np.random.default_rng(300 + 5 * ka + kb)
        nonzero = 0
        for _ in range(3):
            a, b = _rand_form(rng, ka, 2), _rand_form(rng, kb, 2)
            lhs = exterior_d(a.wedge(b))
            rhs = _signed_sum(exterior_d(a).wedge(b), a.wedge(exterior_d(b)), (-1) ** ka)
            assert lhs.coeffs == rhs
            nonzero += not all(c.is_zero() for c in lhs.coeffs)
        assert nonzero

    def test_cartan_formula_on_random_fields(self):
        # d(alpha)(X, Y) = X(alpha(Y)) - Y(alpha(X)) - alpha([X, Y])
        rng = np.random.default_rng(400)
        for _ in range(5):
            alpha = _rand_form(rng, 1, 2)
            x, y = (VectorFieldPoly(_rand_form(rng, 1, 2).coeffs) for _ in range(2))
            lhs = exterior_d(alpha).pair_two(x, y)
            rhs = (
                x.apply(alpha.pair_vector(y))
                - y.apply(alpha.pair_vector(x))
                - alpha.pair_vector(lie_bracket(x, y))
            )
            assert not lhs.is_zero()
            assert lhs == rhs


class TestContactCheck:
    def test_heisenberg_passes(self, heis):
        frame, _ = heis
        report = contact_check(frame, POINTS)
        vol_min = report.pop("contact_volume_min")
        assert vol_min == pytest.approx(2.0)
        assert all(v <= 1e-12 for v in report.values()), report

    def test_scaled_frame_fails_orthonormality(self, heis):
        frame, _ = heis
        fields = list(frame.fields)
        fields[1] = fields[1].scale(2)
        broken = FrameFieldSet(frame.name, tuple(fields), frame.eta, frame.jmat)
        report = contact_check(broken, POINTS[:20])
        assert report["frame_orthonormality"] >= 1.0

    def test_reeb_exact(self, heis):
        frame, _ = heis
        report = contact_check(frame, POINTS[:5])
        assert report["reeb_normalization"] == 0.0


def _model_residuals(bundle, points):
    return {
        **contact_check(bundle.frame, points),
        **tw_axiom_check(bundle.frame, bundle.connection, points),
        **cr_check(bundle.frame, points),
    }


class TestDecimalChart:
    @pytest.mark.parametrize("j02", [None, "1e-3*y2"])
    def test_residuals_match_pointwise_evaluation(self, j02, sheared_chart, monkeypatch):
        if j02:
            sheared_chart["J"][0][2] = j02
        bundle = load_model(sheared_chart)
        points = sample_points(40, seed=3)
        residuals = _model_residuals(bundle, points)

        def by_call(polys, pts):
            return np.array([[p(x) for p in polys] for x in pts], dtype=complex).reshape(
                len(pts), len(polys)
            )

        monkeypatch.setattr(models, "evaluate_all", by_call)
        reference = _model_residuals(bundle, points)
        assert residuals.keys() == reference.keys()
        for name, value in residuals.items():
            assert abs(value - reference[name]) <= 1e-15 * max(reference[name], 1e-15), name
        # Float residues survive, so the comparison is not between zeros.
        residuals.pop("contact_volume_min")
        assert max(residuals.values()) > 0

    def test_passes(self, sheared_chart):
        report = _model_residuals(load_model(sheared_chart), sample_points(40, seed=3))
        assert report.pop("contact_volume_min") >= 1e-9
        assert all(v <= 1e-12 for v in report.values()), report

    def test_perturbed_j_fails(self, sheared_chart):
        sheared_chart["J"][0][2] = "1e-3*y2"
        bundle = load_model(sheared_chart)
        points = sample_points(40, seed=3)
        for report in (
            contact_check(bundle.frame, points),
            tw_axiom_check(bundle.frame, bundle.connection, points),
            cr_check(bundle.frame, points),
        ):
            report.pop("contact_volume_min", None)
            assert max(report.values()) > 1e-12, report


class TestTanakaWebsterAxioms:
    def test_heisenberg_passes_all_axioms(self, heis):
        frame, conn = heis
        report = tw_axiom_check(frame, conn, POINTS)
        assert all(v <= 1e-12 for v in report.values()), report

    def test_horizontal_torsion_value(self, heis):
        # T(e1, e2) = -[e1, e2] = +Reeb = deta(e1, e2) Reeb with Gamma = 0.
        frame, conn = heis
        tvec = (
            conn.nabla(frame, 0, 1)
            - conn.nabla(frame, 1, 0)
            - lie_bracket(frame.fields[0], frame.fields[1])
        )
        assert [str(c) for c in tvec.components] == ["0", "0", "0", "0", "1"]

    def test_torsion_endomorphism_vanishes(self, heis):
        # tau(e_j) = T(Reeb, e_j) is the zero polynomial field for every j.
        frame, conn = heis
        for j in range(5):
            tvec = (
                conn.nabla(frame, 4, j)
                - conn.nabla(frame, j, 4)
                - lie_bracket(frame.reeb, frame.fields[j])
            )
            assert _is_zero(tvec), j

    def test_broken_connection_fails_metric_axiom(self, heis):
        # Gamma^1_{11} = 1 makes nabla g nonzero: (nabla_{e1} g)(e1, e1) = -2.
        frame, _ = heis
        gamma = [[[PolyExpr() for _ in range(5)] for _ in range(5)] for _ in range(5)]
        gamma[0][0][0] = PolyExpr.const(1)
        conn = ConnectionCoefficients(
            tuple(tuple(tuple(row) for row in plane) for plane in gamma),
            ConnectionCoefficients.flat().a_form,
        )
        report = tw_axiom_check(frame, conn, POINTS[:10])
        assert report["axiom_b_parallel_metric"] >= 1.9


class TestCRCheck:
    def test_heisenberg_is_integrable(self, heis):
        frame, _ = heis
        report = cr_check(frame, POINTS)
        assert all(v <= 1e-12 for v in report.values()), report

    def test_perturbed_j_breaks_integrability(self, heis):
        frame, _ = heis
        y2 = PolyExpr.variable("y2")
        jrows = [list(row) for row in frame.jmat]
        jrows[0][2] = jrows[0][2] + 0.1 * y2
        broken = FrameFieldSet(
            frame.name, frame.fields, frame.eta, tuple(tuple(r) for r in jrows)
        )
        report = cr_check(broken, POINTS[:50])
        assert report["integrability"] > 0.01

    def test_nijenhuis_vanishes_on_equal_arguments(self, heis):
        frame, _ = heis
        x = frame.fields[0]
        jx = frame.j_apply(x)
        n = frame.j_apply(lie_bracket(jx, x) + lie_bracket(x, jx))
        n = n - lie_bracket(jx, jx) + lie_bracket(x, x)
        assert _is_zero(n)


class TestSyntheticModel:
    """The pointwise model of the canonical solution: one tangent space whose
    U(1) curvature is prescribed as F_A = i rho_h."""

    def test_f_a_plus_for_scalar_minus_four(self):
        c = admissible_ricci(-1.0, -1.0, 0.0, 0.0)  # s = -4
        assert scalar_curvature(c) == pytest.approx(-4.0)
        assert (1j * rho_plus(c) - 1j * deta()).norm_inf() == 0
        assert (canonical_solution(-4.0).f_a.coeffs == 1j * ricci_form(c).coeffs).all()

    def test_zero_curvature(self):
        c = np.zeros((5, 5))
        assert (1j * ricci_form(c)).norm_inf() == 0
        assert rho_plus(c).norm_inf() == 0

    def test_f_a_is_imaginary_valued(self):
        for s in (-1e-3, -1.0, -4.0, -7.5, -1e3):
            assert np.max(np.abs(canonical_solution(s).f_a.coeffs.real)) == 0

    def test_accepts_admissible_torsion(self):
        assert ricci_violations(random_admissible_ricci(default_rng(1))) == []
        assert torsion_violations(random_admissible_torsion(default_rng(2))) == []


class TestModelFiles:
    def test_builtin_heisenberg(self):
        bundle = load_model("heisenberg")
        assert bundle.frame.name == "heisenberg"
        assert bundle.connection == ConnectionCoefficients.flat()
        assert bundle.curvature is None

    def test_round_trip_is_canonical(self, tmp_path, heis, model_to_dict):
        frame, conn = heis
        from swcheck.models import ModelBundle

        bundle = ModelBundle(frame, conn, random_admissible_ricci(default_rng(0)))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(bundle)))
        loaded = load_model(path)
        assert model_to_dict(loaded) == model_to_dict(bundle)
        path2 = tmp_path / "model2.json"
        path2.write_text(json.dumps(model_to_dict(loaded)))
        assert path.read_text() == path2.read_text()

    def test_curvature_constraint_violation_message(self, tmp_path, model_to_dict):
        bundle = load_model("heisenberg")
        data = model_to_dict(bundle)
        ric = np.zeros((5, 5))
        ric[0, 1] = ric[1, 0] = 1.0
        data["curvature"] = {"ric": ric.tolist()}
        with pytest.raises(ModelFormatError, match="constraint R12=0 violated"):
            load_model(data)

    def test_malformed_polynomial_reports_field_and_position(self, tmp_path, model_to_dict):
        bundle = load_model("heisenberg")
        data = model_to_dict(bundle)
        data["eta"][0] = "y1 + + 2"
        with pytest.raises(ModelFormatError, match=r"eta\[0\].*position"):
            load_model(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_number_rejected(self, value, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        data["J"][0][1] = value
        with pytest.raises(ModelFormatError, match=r"J\[0\]\[1\]: .* not finite"):
            load_model(data)

    def test_non_finite_ricci_entry_rejected(self, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        ric = np.zeros((5, 5))
        ric[2, 3] = np.nan
        data["curvature"] = {"ric": ric.tolist()}
        with pytest.raises(ModelFormatError, match=r"curvature\.ric\[2\]\[3\]"):
            load_model(data)

    def test_missing_field(self):
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model({"eta": ["0", "0", "0", "0", "1"]})

    def test_wrong_shape(self, model_to_dict):
        bundle = load_model("heisenberg")
        data = model_to_dict(bundle)
        data["frame"] = data["frame"][:3]
        with pytest.raises(ModelFormatError, match="frame"):
            load_model(data)


class TestSamplePoints:
    def test_deterministic(self):
        assert np.array_equal(sample_points(10, 3), sample_points(10, 3))

    def test_bounds(self):
        pts = sample_points(100, 0)
        assert np.max(np.abs(pts)) <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_points(0, 0)
