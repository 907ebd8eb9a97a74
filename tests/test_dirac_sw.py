"""Dirac operators, the form identification, and the solution verifier."""

import numpy as np
import pytest

from swcheck.cliff5 import GAMMA, PSI0, gamma, sigma_full
from swcheck.curvature import admissible_ricci, random_admissible_ricci
from swcheck.dirac_sw import (
    CanonicalSolution,
    FormSpinorField,
    IdentificationError,
    SpinConnection,
    SpinorField,
    SWPair,
    canonical_solution,
    dbar_identity_residual,
    dbar_pair,
    derive_identification,
    form_clifford_action,
    full_dirac,
    full_dirac_fd,
    kohn_dirac,
    spin_covariant_derivative,
    sw_residual,
)
from swcheck.extalg import deta, sd_project
from swcheck.models import (
    ConnectionCoefficients,
    CoordForm,
    heisenberg5,
    sample_points,
    synthetic_model,
)
from swcheck.poly import PolyExpr, parse_poly

POINTS = sample_points(20, seed=21)
S_FLAT = SpinConnection.heisenberg()


def _random_spinor_field(rng, degree=3):
    comps = []
    for _ in range(4):
        terms = {}
        for _ in range(4):
            exp = tuple(int(v) for v in rng.integers(0, degree + 1, size=5))
            if sum(exp) > degree:
                continue
            terms[exp] = complex(rng.normal(), rng.normal())
        comps.append(PolyExpr.from_dict(terms))
    return SpinorField(tuple(comps))


class TestSpinCovariantDerivative:
    def test_flat_constant_spinor(self):
        psi = SpinorField.psi0()
        for w in range(1, 6):
            out = spin_covariant_derivative(S_FLAT, w, psi).evaluate(POINTS[0])
            assert np.array_equal(out, np.zeros(4, dtype=complex))

    def test_coordinate_derivative(self):
        psi = SpinorField.make(parse_poly("x1"), 0, 0, 0)
        out = spin_covariant_derivative(S_FLAT, 1, psi).evaluate(POINTS[1])
        assert np.array_equal(out, np.array([1, 0, 0, 0], dtype=complex))

    def test_u1_term_on_reeb(self):
        s = SpinConnection.heisenberg(CoordForm.one_form(0, 0, 0, 0, 1j))
        out = spin_covariant_derivative(s, 5, SpinorField.psi0()).evaluate(POINTS[2])
        assert np.array_equal(out, 0.5j * PSI0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            spin_covariant_derivative(S_FLAT, 0, SpinorField.psi0())


class TestKohnDirac:
    def test_psi0_in_kernel(self):
        for p in POINTS[:5]:
            assert np.array_equal(kohn_dirac(S_FLAT, SpinorField.psi0()).evaluate(p), np.zeros(4))

    def test_t_dependent_field_closed_form(self):
        # e_i(t) = (y1, 0, y2, 0), so D_H (t,0,0,0) picks up the horizontal
        # frame coefficients of d/dt.
        psi = SpinorField.make(parse_poly("t"), 0, 0, 0)
        basis0 = np.array([1, 0, 0, 0], dtype=complex)
        for p in POINTS[:5]:
            expected = p[1] * (GAMMA[0] @ basis0) + p[3] * (GAMMA[2] @ basis0)
            out = kohn_dirac(S_FLAT, psi).evaluate(p)
            assert np.max(np.abs(out - expected)) < 1e-14
            fd = full_dirac_fd(S_FLAT, psi, p, horizontal_only=True)
            assert np.max(np.abs(out - fd)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = _random_spinor_field(rng)
        b = _random_spinor_field(rng)
        for p in POINTS[:3]:
            lhs = kohn_dirac(S_FLAT, a + b).evaluate(p)
            rhs = kohn_dirac(S_FLAT, a).evaluate(p) + kohn_dirac(S_FLAT, b).evaluate(p)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestFullDirac:
    def test_psi0_in_kernel_exactly(self):
        for p in POINTS:
            assert np.array_equal(full_dirac(S_FLAT, SpinorField.psi0()).evaluate(p), np.zeros(4))

    def test_reduces_to_kohn_on_t_independent_fields(self):
        psi = SpinorField.make(parse_poly("x1*y2"), parse_poly("y1^2"), 0, 0)
        for p in POINTS[:5]:
            diff = full_dirac(S_FLAT, psi).evaluate(p) - kohn_dirac(S_FLAT, psi).evaluate(p)
            assert np.max(np.abs(diff)) == 0

    def test_reeb_component_closed_form(self):
        # psi = (0,0,0,t): the Reeb term contributes kappa(e5) psi0 and the
        # horizontal terms contribute through e_i(t) = y_i.
        psi = SpinorField.make(0, 0, 0, parse_poly("t"))
        basis3 = np.array([0, 0, 0, 1], dtype=complex)
        for p in POINTS[:5]:
            expected = (
                p[1] * (GAMMA[0] @ basis3)
                + p[3] * (GAMMA[2] @ basis3)
                + GAMMA[4] @ basis3
            )
            out = full_dirac(S_FLAT, psi).evaluate(p)
            assert np.max(np.abs(out - expected)) < 1e-14
            fd = full_dirac_fd(S_FLAT, psi, p)
            assert np.max(np.abs(out - fd)) < 1e-9

    def test_finite_difference_agreement_50_fields(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            psi = _random_spinor_field(rng, degree=3)
            for p in POINTS:
                exact = full_dirac(S_FLAT, psi).evaluate(p)
                approx = full_dirac_fd(S_FLAT, psi, p, h=1e-4)
                worst = max(worst, float(np.max(np.abs(exact - approx))))
        assert worst <= 1e-6

    def test_phase_invariance(self):
        rng = np.random.default_rng(8)
        psi = _random_spinor_field(rng)
        rot = psi.scale(np.exp(0.3j))
        for p in POINTS[:5]:
            assert np.max(
                np.abs(
                    np.abs(full_dirac(S_FLAT, rot).evaluate(p))
                    - np.abs(full_dirac(S_FLAT, psi).evaluate(p))
                )
            ) < 1e-12
            d = sigma_full(rot.evaluate(p)) - sigma_full(psi.evaluate(p))
            assert d.norm_inf() < 1e-12


def _twisted_connection() -> SpinConnection:
    """Heisenberg frame with polynomial Christoffels and an imaginary A."""
    frame, _ = heisenberg5()
    gamma = [[[PolyExpr() for _ in range(5)] for _ in range(5)] for _ in range(5)]
    gamma[0][0][1] = parse_poly("x1 + 2*y2")
    gamma[1][0][4] = parse_poly("1.5")
    gamma[2][1][3] = parse_poly("t^2 - 0.5")
    gamma[4][2][4] = parse_poly("3*x2*y1")
    gamma[3][3][4] = parse_poly("-y1*t + 0.25")
    a_form = CoordForm.one_form(
        parse_poly("i*y1"), 0, parse_poly("2i*x1*t"), parse_poly("-0.5i"), parse_poly("-i")
    )
    conn = ConnectionCoefficients(
        tuple(tuple(tuple(row) for row in plane) for plane in gamma), a_form
    )
    return SpinConnection(frame, conn)


class TestConnectionTerms:
    """The so(5) and U(1) terms of nabla, on a connection with nonzero Christoffels."""

    def test_constant_spinor_matches_written_out_formula(self):
        s = _twisted_connection()
        rng = np.random.default_rng(23)
        psi_val = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = SpinorField.constant(psi_val)
        for p in POINTS[:10]:
            # sum_w kappa_w (1/4 sum_{j<k} Gamma^k_{wj} kappa_j kappa_k + 1/2 A(e_w)) psi
            gam = np.array([[[c(p) for c in row] for row in plane] for plane in s.conn.gamma])
            a_vals = np.array([c(p) for c in s.conn.a_form.coeffs])
            frame_vals = np.column_stack([f.evaluate(p) for f in s.frame.fields])
            expected = np.zeros(4, dtype=complex)
            for w in range(5):
                m = 0.5 * (a_vals @ frame_vals[:, w]) * np.eye(4)
                for j in range(5):
                    for k in range(j + 1, 5):
                        m = m + 0.25 * gam[w, j, k] * (GAMMA[j] @ GAMMA[k])
                expected += GAMMA[w] @ m @ psi_val
            out = full_dirac(s, psi).evaluate(p)
            assert np.max(np.abs(out - expected)) <= 1e-13

    def test_polynomial_field_matches_finite_differences(self):
        s = _twisted_connection()
        psi = SpinorField.make(
            parse_poly("x1*y2 + 2i*t^2"),
            parse_poly("y1^3 - x2*t"),
            parse_poly("(1+2i)*x1*y1*t"),
            parse_poly("y2^2 + 0.5*x2 - 3i"),
        )
        for p in POINTS[:10]:
            exact = full_dirac(s, psi).evaluate(p)
            approx = full_dirac_fd(s, psi, p, h=1e-4)
            assert np.max(np.abs(exact - approx)) <= 1e-6


class TestIdentification:
    def test_phi_frozen_matrix(self):
        # Derived by pushing the basis (1, tb1, tb2, tb1^tb2) through the
        # orbit of psi0: Phi(tb1) = kappa(e1) psi0, Phi(tb2) = kappa(e3) psi0,
        # Phi(tb1^tb2) = -kappa(e3) Phi(tb1).
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1j],
                [0, 1j, 0, 0],
                [1, 0, 0, 0],
            ],
            dtype=complex,
        )
        phi = derive_identification()
        assert np.max(np.abs(phi - expected)) < 1e-12

    def test_phi_unitary(self):
        phi = derive_identification()
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(4))) < 1e-12

    def test_intertwining_all_generators(self):
        phi = derive_identification()
        for i in range(1, 6):
            x = np.zeros(5)
            x[i - 1] = 1.0
            resid = np.max(np.abs(phi @ form_clifford_action(x) - gamma(i) @ phi))
            assert resid < 1e-12, i

    def test_phi_maps_one_to_psi0(self):
        phi = derive_identification()
        assert np.max(np.abs(phi[:, 0] - PSI0)) < 1e-12

    def test_reeb_eigenvalues_by_degree(self):
        # kappa(e5) Phi(alpha_q) = (-1)^(q+1) i Phi(alpha_q).
        phi = derive_identification()
        signs = [-1j, 1j, 1j, -1j]
        for col, lam in enumerate(signs):
            v = phi[:, col]
            assert np.max(np.abs(gamma(5) @ v - lam * v)) < 1e-12

    def test_top_form_lands_in_plus_2i_eigenspace(self):
        from swcheck.cliff5 import kappa_deta

        phi = derive_identification()
        v = phi[:, 3]
        assert np.max(np.abs(kappa_deta() @ v - 2j * v)) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_abstract_action_satisfies_clifford_relations(self):
        for i in range(5):
            for j in range(5):
                x = np.zeros(5)
                y = np.zeros(5)
                x[i] = 1.0
                y[j] = 1.0
                a, b = form_clifford_action(x), form_clifford_action(y)
                target = -2 * np.eye(4) if i == j else np.zeros((4, 4))
                assert np.max(np.abs(a @ b + b @ a - target)) < 1e-12


class TestDbarOperators:
    def test_constant_field_annihilated(self):
        f = FormSpinorField.make(1, 2j, 0, -1)
        d, ds = (g.evaluate(POINTS[0]) for g in dbar_pair(f))
        assert np.array_equal(d, np.zeros(4, dtype=complex))
        assert np.array_equal(ds, np.zeros(4, dtype=complex))

    def test_scalar_coordinate_example(self):
        # Zbar_1(x1) = 1/sqrt(2).
        f = FormSpinorField.make(parse_poly("x1"), 0, 0, 0)
        d, ds = (g.evaluate(POINTS[1]) for g in dbar_pair(f))
        assert abs(d[1] - 1 / np.sqrt(2)) < 1e-14
        assert abs(d[2]) < 1e-14 and abs(d[0]) < 1e-14 and abs(d[3]) < 1e-14
        assert np.max(np.abs(ds)) == 0

    def test_degree_structure(self):
        # dbar has no scalar output component; dbar* has no top component.
        rng = np.random.default_rng(11)
        comps = []
        for _ in range(4):
            terms = {
                tuple(int(v) for v in rng.integers(0, 2, size=5)): complex(
                    rng.normal(), rng.normal()
                )
                for _ in range(3)
            }
            comps.append(PolyExpr.from_dict(terms))
        f = FormSpinorField(tuple(comps))
        d, ds = (g.evaluate(POINTS[2]) for g in dbar_pair(f))
        assert d[0] == 0
        assert ds[3] == 0

    def test_identity_on_random_fields(self):
        rng = np.random.default_rng(12)
        fields = []
        for _ in range(20):
            comps = []
            for _ in range(4):
                terms = {}
                for _ in range(4):
                    exp = tuple(int(v) for v in rng.integers(0, 4, size=5))
                    if sum(exp) > 3:
                        continue
                    terms[exp] = complex(rng.normal(), rng.normal())
                comps.append(PolyExpr.from_dict(terms))
            fields.append(FormSpinorField(tuple(comps)))
        assert dbar_identity_residual(fields, POINTS[:10]) <= 1e-10


class TestSWResidual:
    def test_vacuum_solution(self):
        pair = SWPair(psi=SpinorField.constant([0, 0, 0, 0]), connection=S_FLAT)
        res = sw_residual(pair, POINTS[:10])
        assert res.r_dirac == 0 and res.r_curv == 0 and res.sigma_vertical == 0

    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_canonical_pair_on_synthetic_model(self, s):
        sol = canonical_solution(s)
        res = sw_residual(sol.pair)
        assert res.r_dirac == 0
        assert res.r_curv <= 1e-12
        assert res.sigma_vertical == 0

    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_doubled_spinor_mismatch_closed_form(self, s):
        sol = canonical_solution(s)
        doubled = SWPair.on_synthetic(sol.model, SpinorField.psi0(2 * sol.amplitude))
        res = sw_residual(doubled)
        assert abs(res.r_curv - abs(3 * s / 4)) <= 1e-12

    def test_sigma_plus_quadratic_scaling(self):
        rng = np.random.default_rng(13)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = 1.7 - 0.4j
        from swcheck.extalg import horizontal_split

        sp = sd_project(horizontal_split(sigma_full(psi)).horizontal).plus
        sp_scaled = sd_project(horizontal_split(sigma_full(lam * psi)).horizontal).plus
        assert (sp_scaled - abs(lam) ** 2 * sp).norm_inf() < 1e-12

    def test_polynomial_model_matches_pointwise_loop(self):
        from swcheck.extalg import KForm, horizontal_split

        a_form = CoordForm.one_form(parse_poly("0.5i*y1"), 0, parse_poly("-2i*x1*y2"), 0, 0)
        psi = SpinorField.make(
            parse_poly("x1 + 2i*t"), parse_poly("y1*y2 - 1"), parse_poly("0.5*x2^2"), 1
        )
        pair = SWPair(psi=psi, connection=SpinConnection.heisenberg(a_form))
        res = sw_residual(pair, POINTS)
        dirac = full_dirac(pair.connection, pair.psi)
        r_dirac = r_curv = sigma_vert = 0.0
        for p in POINTS:
            r_dirac = max(r_dirac, np.max(np.abs(dirac.evaluate(p))))
            f_h = horizontal_split(KForm(2, np.array([c(p) for c in pair.f_a_field()]))).horizontal
            sigma_h_part, sigma_v = horizontal_split(sigma_full(pair.psi.evaluate(p)))
            resid = sd_project(f_h).plus + 0.25 * sd_project(sigma_h_part).plus
            r_curv = max(r_curv, resid.norm_inf())
            sigma_vert = max(sigma_vert, sigma_v.norm_inf())
        assert min(r_dirac, r_curv, sigma_vert) > 0.1
        np.testing.assert_allclose(res, (r_dirac, r_curv, sigma_vert), rtol=1e-13)

    @pytest.mark.parametrize("call, field", [(1, "r_dirac"), (2, "r_curv"), (3, "sigma_vertical")])
    def test_nan_evaluation_propagates(self, call, field, nan_on_call):
        # Call 1 evaluates D_A psi, call 2 the curvature form, call 3 psi.
        from swcheck import dirac_sw

        nan_on_call([dirac_sw], "evaluate_all", call)
        pair = SWPair(psi=SpinorField.psi0(), connection=S_FLAT)
        assert np.isnan(getattr(sw_residual(pair, POINTS[:10]), field))

    def test_points_required_on_polynomial_model(self):
        pair = SWPair(psi=SpinorField.psi0(), connection=S_FLAT)
        with pytest.raises(ValueError):
            sw_residual(pair)


class TestConnectionValidation:
    def test_real_valued_a_rejected(self):
        with pytest.raises(ValueError, match="imaginary"):
            SpinConnection.heisenberg(CoordForm.one_form(0, 0, 0, 0, 1))

    def test_imaginary_a_accepted(self):
        s = SpinConnection.heisenberg(CoordForm.one_form(0, 0, 0, 0, 2j))
        assert s.conn.a_form.coeffs[4]((0, 0, 0, 0, 0)) == 2j


class TestCanonicalSolution:
    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_exact_residuals(self, s):
        sol = canonical_solution(s)
        assert sol.r_dirac == 0.0
        assert sol.r_curv == 0.0  # exact in dyadic arithmetic

    def test_chain_values_for_s_minus_four(self):
        sol = canonical_solution(-4.0)
        assert sol.amplitude == 2.0
        assert (sol.sigma_h_psi - (-4j) * deta()).norm_inf() == 0
        assert (sol.f_a_plus - 1j * deta()).norm_inf() == 0
        assert (sol.rho_plus - deta()).norm_inf() == 0

    def test_chain_values_for_s_minus_one(self):
        sol = canonical_solution(-1.0)
        assert sol.amplitude == 1.0
        assert (sol.sigma_h_psi - (-1j) * deta()).norm_inf() == 0

    def test_positive_scalar_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            canonical_solution(1.0)
        with pytest.raises(ValueError, match="negative"):
            canonical_solution(0.0)

    def test_default_curvature_is_isotropic(self):
        sol = canonical_solution(-2.0)
        expected = admissible_ricci(-0.5, -0.5, 0.0, 0.0)
        assert np.array_equal(sol.model.curvature.ric, expected.ric)
