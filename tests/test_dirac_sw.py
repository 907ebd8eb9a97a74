"""Dirac operators, the form identification, and the solution verifier."""

from dataclasses import dataclass

import numpy as np
import pytest

from swcheck.cliff5 import GAMMA, PSI0, gamma, sigma_full
from swcheck.curvature import admissible_ricci, ricci_form
from swcheck.dirac_sw import (
    FIELD_DEGREE,
    SpinorField,
    _heisenberg_z_fields,
    _mat_apply,
    basis_monomials,
    canonical_solution,
    dbar_identity_residual,
    derive_identification,
    dirac_on_basis,
    fd_stencil,
    form_clifford_action,
    full_dirac,
    full_dirac_fd,
    full_dirac_fd_on_basis,
    kohn_dirac,
    spin_covariant_derivative,
    sw_residual,
)
from swcheck.extalg import KForm, deta, horizontal_split, sd_project
from swcheck.models import (
    ConnectionCoefficients,
    CoordForm,
    ModelBundle,
    heisenberg5,
    sample_points,
)
from swcheck.poly import (
    PolyExpr,
    evaluate_all,
    max_abs,
    monomials,
    parse_poly,
    random_coefficients,
    random_poly,
)

POINTS = sample_points(20, seed=21)
S_FLAT = heisenberg5()


def _heisenberg_with_a(a_form: CoordForm) -> ModelBundle:
    """The Heisenberg frame and flat connection, with U(1) 1-form ``a_form``."""
    return ModelBundle(S_FLAT.frame, ConnectionCoefficients(S_FLAT.connection.gamma, a_form))


def _random_spinor_field(rng, degree=3):
    return SpinorField(tuple(random_poly(rng, degree) for _ in range(4)))


def _oracle(s: ModelBundle, psi: SpinorField, points, h: float = 1e-4) -> np.ndarray:
    """``full_dirac_fd`` of one field, from its values on the stencil."""
    return full_dirac_fd(s, psi.evaluate(fd_stencil(points, h)), points, h)


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
        s = _heisenberg_with_a(CoordForm.one_form(0, 0, 0, 0, 1j))
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
            fd = _oracle(S_FLAT, psi, p)
            assert np.max(np.abs(out - fd)) < 1e-9

    def test_finite_difference_agreement_50_fields(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            psi = _random_spinor_field(rng, degree=3)
            for p in POINTS:
                exact = full_dirac(S_FLAT, psi).evaluate(p)
                approx = _oracle(S_FLAT, psi, p, h=1e-4)
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


def _twisted_connection() -> ModelBundle:
    """Heisenberg frame with polynomial Christoffels and an imaginary A."""
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
    return ModelBundle(S_FLAT.frame, conn)


_TWISTED_PSI = SpinorField.make(
    parse_poly("x1*y2 + 2i*t^2"),
    parse_poly("y1^3 - x2*t"),
    parse_poly("(1+2i)*x1*y1*t"),
    parse_poly("y2^2 + 0.5*x2 - 3i"),
)


class TestConnectionTerms:
    """The so(5) and U(1) terms of nabla, on a connection with nonzero Christoffels."""

    def test_constant_spinor_matches_written_out_formula(self):
        s = _twisted_connection()
        rng = np.random.default_rng(23)
        psi_val = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = SpinorField.constant(psi_val)
        for p in POINTS[:10]:
            # sum_w kappa_w (1/4 sum_{j<k} Gamma^k_{wj} kappa_j kappa_k + 1/2 A(e_w)) psi
            gam = np.array([[[c(p) for c in row] for row in plane] for plane in s.connection.gamma])
            a_vals = np.array([c(p) for c in s.connection.a_form.coeffs])
            frame_vals = np.array([[c(p) for c in f.components] for f in s.frame.fields]).T
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
        s, psi = _twisted_connection(), _TWISTED_PSI
        for p in POINTS[:10]:
            exact = full_dirac(s, psi).evaluate(p)
            approx = _oracle(s, psi, p, h=1e-4)
            assert np.max(np.abs(exact - approx)) <= 1e-6

    def test_finite_differences_match_written_out_loop(self):
        # kappa_w (sum_c e_w^c (psi(p + h e_c) - psi(p - h e_c)) / 2h
        #          + (1/4 sum_{j<k} Gamma^k_{wj} kappa_j kappa_k + 1/2 A(e_w)) psi(p)),
        # summed over w, with every polynomial evaluated through __call__.
        s, h = _twisted_connection(), 1e-4

        def psi_at(q):
            return np.array([c(q) for c in _TWISTED_PSI.components])

        stacked = _oracle(s, _TWISTED_PSI, POINTS, h=h)
        for p, row in zip(POINTS, stacked):
            expected = np.zeros(4, dtype=complex)
            for w in range(5):
                frame_w = [c(p) for c in s.frame.fields[w].components]
                deriv = sum(
                    x * (psi_at(p + h * e) - psi_at(p - h * e)) / (2 * h)
                    for x, e in zip(frame_w, np.eye(5))
                )
                a_w = sum(a(p) * x for a, x in zip(s.connection.a_form.coeffs, frame_w))
                m = 0.5 * a_w * np.eye(4)
                for j in range(5):
                    for k in range(j + 1, 5):
                        m = m + 0.25 * s.connection.gamma[w][j][k](p) * (GAMMA[j] @ GAMMA[k])
                expected += GAMMA[w] @ (deriv + m @ psi_at(p))
            assert np.max(np.abs(row - expected)) <= 1e-12


class TestStackedEvaluation:
    """A stack of points gives, row for row, the values at each single point."""

    def test_full_dirac_fd_rows(self):
        s = _twisted_connection()
        stacked = _oracle(s, _TWISTED_PSI, POINTS)
        assert stacked.shape == (20, 4)
        for p, row in zip(POINTS, stacked):
            single = _oracle(s, _TWISTED_PSI, p)
            assert single.shape == (4,) and np.array_equal(single, row)

    def test_evaluate_rows(self):
        stacked = _TWISTED_PSI.evaluate(POINTS)
        assert stacked.shape == (20, 4)
        for p, row in zip(POINTS, stacked):
            single = _TWISTED_PSI.evaluate(p)
            assert single.shape == (4,) and np.array_equal(single, row)


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


# -- the per-field dbar reference ---------------------------------------------------


@dataclass(frozen=True)
class FormSpinorField:
    """(0, *)-form field: components over (1, tb1, tb2, tb1 ^ tb2)."""

    components: tuple[PolyExpr, PolyExpr, PolyExpr, PolyExpr]

    @staticmethod
    def make(*components) -> "FormSpinorField":
        if len(components) != 4:
            raise ValueError("a form-spinor field needs 4 components")
        return FormSpinorField(
            tuple(c if isinstance(c, PolyExpr) else PolyExpr.const(c) for c in components)
        )

    def evaluate(self, points) -> np.ndarray:
        """Values at a stack of points ``(..., 5)``, shape ``(..., 4)``."""
        return evaluate_all(self.components, points)

    def to_spinor_field(self, phi: np.ndarray) -> SpinorField:
        """Push through the identification matrix (constant coefficients)."""
        return SpinorField(_mat_apply(phi, self.components))


def dbar_pair(field: FormSpinorField) -> tuple[FormSpinorField, FormSpinorField]:
    """(dbar_H f, dbar_H* f) as form fields, on the flat Heisenberg model.

    dbar_H = sum_a tb^a ^ nabla_{Zbar_a} raises the degree and
    dbar_H* = -sum_a i(Zbar_a) nabla_{Z_a} lowers it; with the flat
    connection both reduce to componentwise Z / Zbar derivatives.
    """
    z1, z2, zb1, zb2 = _heisenberg_z_fields()
    f0, f1, f2, f3 = field.components
    dbar = FormSpinorField.make(0, zb1.apply(f0), zb2.apply(f0), zb1.apply(f2) - zb2.apply(f1))
    dbar_star = FormSpinorField.make(
        -(z1.apply(f1) + z2.apply(f2)), z2.apply(f3), -z1.apply(f3), 0
    )
    return dbar, dbar_star


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
        for _ in range(20):
            field = FormSpinorField(tuple(random_poly(rng, 3) for _ in range(4)))
            assert max_abs(_dbar_identity_defect(field, POINTS[:10])) <= 1e-10


def _dbar_identity_defect(field: FormSpinorField, points) -> np.ndarray:
    """sqrt(2) (dbar_H + dbar_H*) f - Phi^-1 D_H Phi f, built symbolically for
    one field and evaluated at ``points``."""
    phi = derive_identification()
    d, ds = dbar_pair(field)
    dirac = kohn_dirac(S_FLAT, field.to_spinor_field(phi))
    lhs = np.sqrt(2) * (d.evaluate(points) + ds.evaluate(points))
    return lhs - dirac.evaluate(points) @ phi.conj()


def _basis_field(k: int, m: PolyExpr) -> tuple[PolyExpr, ...]:
    """The components of m e_k."""
    return tuple(m if j == k else PolyExpr() for j in range(4))


class TestBasis:
    """The rows of the basis arrays are the symbolic operators, and the
    oracle, on the basis fields m e_k, row k * M + i for m = monomials[i]."""

    @pytest.mark.parametrize("twisted", [False, True])
    def test_rows_are_the_operators_on_each_basis_field(self, twisted):
        s = _twisted_connection() if twisted else S_FLAT
        kohn, full = dirac_on_basis(s, POINTS)
        oracle = full_dirac_fd_on_basis(s, POINTS, 1e-4)
        monos = basis_monomials()
        assert len(monos) == len(monomials(FIELD_DEGREE)) == 56
        assert kohn.shape == full.shape == oracle.shape == (224, 20, 4)
        for k in range(4):
            for i, m in enumerate(monos):
                psi = SpinorField(_basis_field(k, m))
                row = k * len(monos) + i
                assert max_abs(full[row] - full_dirac(s, psi).evaluate(POINTS)) <= 1e-13
                assert max_abs(kohn[row] - kohn_dirac(s, psi).evaluate(POINTS)) <= 1e-13
                assert np.array_equal(oracle[row], _oracle(s, psi, POINTS, h=1e-4))

    def test_dbar_rows_are_the_identity_on_each_basis_field(self):
        points = POINTS[:10]
        kohn, _ = dirac_on_basis(S_FLAT, points)
        rows = dbar_identity_residual(kohn, points)
        assert rows.shape == (224, 10, 4)
        for k in range(4):
            for i, m in enumerate(basis_monomials()):
                defect = _dbar_identity_defect(FormSpinorField(_basis_field(k, m)), points)
                assert max_abs(rows[k * 56 + i] - defect) <= 1e-14
        assert max_abs(rows) <= 1e-10

    def test_coefficients_times_rows_give_the_field(self):
        # The layout random_coefficients draws in, (4, M) per field, matches
        # the rows: a drawn field's value is its coefficients times them.
        rng = np.random.default_rng(13)
        coeffs = random_coefficients(rng, FIELD_DEGREE, (4,))
        psi = SpinorField(
            tuple(PolyExpr.from_dict(dict(zip(monomials(FIELD_DEGREE), c))) for c in coeffs)
        )
        _, full = dirac_on_basis(S_FLAT, POINTS)
        value = np.einsum("j,j...->...", coeffs.reshape(-1), full)
        assert max_abs(value - full_dirac(S_FLAT, psi).evaluate(POINTS)) <= 1e-12


class TestSWResidual:
    def test_vacuum_solution(self):
        assert sw_residual(KForm(2, np.zeros(10)), np.zeros(4)) == (0, 0)

    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_canonical_pair_on_synthetic_model(self, s):
        sol = canonical_solution(s)
        r_curv, sigma_vertical = sw_residual(sol.f_a, sol.amplitude * PSI0)
        assert r_curv <= 1e-12
        assert sigma_vertical == 0

    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_doubled_spinor_mismatch_closed_form(self, s):
        sol = canonical_solution(s)
        r_curv, _ = sw_residual(sol.f_a, 2 * sol.amplitude * PSI0)
        assert abs(r_curv - abs(3 * s / 4)) <= 1e-12

    def test_sigma_plus_quadratic_scaling(self):
        rng = np.random.default_rng(13)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = 1.7 - 0.4j
        sp = sd_project(horizontal_split(sigma_full(psi)).horizontal).plus
        sp_scaled = sd_project(horizontal_split(sigma_full(lam * psi)).horizontal).plus
        assert (sp_scaled - abs(lam) ** 2 * sp).norm_inf() < 1e-12

    def test_stack_matches_pointwise_loop(self):
        rng = np.random.default_rng(14)
        f_a = 1j * rng.normal(size=(20, 10))
        psi = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
        singles = [sw_residual(KForm(2, f), p) for f, p in zip(f_a, psi)]
        assert np.min(singles) > 0.1
        assert sw_residual(KForm(2, f_a), psi) == tuple(np.max(singles, axis=0))

    @pytest.mark.parametrize("call, field", [(2, "r_curv"), (3, "sigma_vertical")])
    def test_nan_evaluation_propagates(self, call, field):
        # Input 2 is the curvature form, input 3 the spinor; a NaN in either
        # must reach the residual it feeds, not be masked by a max.
        sol = canonical_solution(-4.0)
        f_a = np.array(sol.f_a.coeffs)
        psi = sol.amplitude * PSI0
        if call == 2:
            f_a[0] = np.nan
        else:
            psi[0] = np.nan
        r_curv, sigma_vertical = sw_residual(KForm(2, f_a), psi)
        assert np.isnan({"r_curv": r_curv, "sigma_vertical": sigma_vertical}[field])
        if call == 2:
            assert sigma_vertical == 0
        else:
            assert np.isnan(r_curv)


class TestConnectionValidation:
    def test_real_valued_a_rejected(self):
        with pytest.raises(ValueError, match="imaginary"):
            _heisenberg_with_a(CoordForm.one_form(0, 0, 0, 0, 1))

    def test_imaginary_a_accepted(self):
        s = _heisenberg_with_a(CoordForm.one_form(0, 0, 0, 0, 2j))
        assert s.connection.a_form.coeffs[4]((0, 0, 0, 0, 0)) == 2j


class TestCanonicalSolution:
    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_exact_residuals(self, s):
        sol = canonical_solution(s)
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
        assert np.array_equal(sol.f_a.coeffs, (1j * ricci_form(expected)).coeffs)
