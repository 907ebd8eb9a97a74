"""Dirac operators, the form identification, and the solution verifier."""

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np
import pytest

from swcheck import dirac_sw
from swcheck.cliff5 import GAMMA, PAIR_PRODUCTS, PSI0, gamma, sigma_full
from swcheck.curvature import COMPLEX_FRAME, SQ2_UNITARY_FRAME, admissible_ricci, ricci_form
from swcheck.dirac_sw import (
    FIELD_DEGREE,
    IDENTIFICATION,
    SO_COUPLING,
    U1_COUPLING,
    SpinorField,
    _exact_rows,
    _frame_values,
    _mat_apply,
    basis_derivatives,
    canonical_solution,
    contract,
    dbar_identity_residual,
    dirac_operators,
    family_maximum,
    fd_stencil,
    form_clifford_action,
    full_dirac,
    full_dirac_fd,
    intertwiner_defects,
    spin_covariant_derivative,
    sw_residual,
)
from swcheck.extalg import PAIR_INDEX, KForm, deta, horizontal_split, sd_project
from swcheck.models import (
    FLAT_A,
    FLAT_GAMMA,
    CoordForm,
    ModelBundle,
    VectorFieldPoly,
    heisenberg5,
    load_model,
    sample_points,
)
from swcheck.poly import (
    PolyExpr,
    evaluate_all,
    max_abs,
    monomials,
    parse_poly,
)

POINTS = sample_points(20, seed=21)
S_FLAT = heisenberg5()
SHEARED = load_model(Path(__file__).parent / "data" / "sheared_chart_3.json")
#: The basis monomials as exact polynomials, in ``monomials(FIELD_DEGREE)`` order.
BASIS = tuple(PolyExpr.from_dict({e: 1}) for e in monomials(FIELD_DEGREE))


def _heisenberg_with_a(a_form: CoordForm) -> ModelBundle:
    """The Heisenberg frame and flat connection, with U(1) 1-form ``a_form``."""
    return ModelBundle(S_FLAT.frame, a_form=a_form)


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
            kohn = dirac_operators(S_FLAT, SpinorField.psi0())[0]
            assert np.array_equal(kohn.evaluate(p), np.zeros(4))

    def test_t_dependent_field_closed_form(self):
        # e_i(t) = (y1, 0, y2, 0), so D_H (t,0,0,0) picks up the horizontal
        # frame coefficients of d/dt.
        psi = SpinorField.make(parse_poly("t"), 0, 0, 0)
        basis0 = np.array([1, 0, 0, 0], dtype=complex)
        for p in POINTS[:5]:
            expected = p[1] * (GAMMA[0] @ basis0) + p[3] * (GAMMA[2] @ basis0)
            out = dirac_operators(S_FLAT, psi)[0].evaluate(p)
            assert np.max(np.abs(out - expected)) < 1e-14

    def test_linearity(self, random_poly):
        rng = np.random.default_rng(3)
        a, b = (SpinorField(tuple(random_poly(rng, 3) for _ in range(4))) for _ in range(2))
        for p in POINTS[:3]:
            lhs = dirac_operators(S_FLAT, a + b)[0].evaluate(p)
            rhs = sum(dirac_operators(S_FLAT, f)[0].evaluate(p) for f in (a, b))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


#: The dirac suite's phase-invariance field: degree 2, every component nonzero.
_PHASE_PSI = SpinorField.make(
    parse_poly("1 + x1*y1 - 0.5*t"),
    parse_poly("(1-2i)*x2 + y2^2"),
    parse_poly("0.5i*t^2 - x1"),
    parse_poly("y1*x2 + 3"),
)


class TestFullDirac:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_is_the_full_operator_of_dirac_operators(self, twisted, random_poly):
        # The Kohn sum plus the Reeb term, from one set of covariant derivatives.
        s = _twisted_connection() if twisted else S_FLAT
        rng = np.random.default_rng(41)
        fields = [_PHASE_PSI] + [
            SpinorField(tuple(random_poly(rng, 3) for _ in range(4))) for _ in range(3)
        ]
        for psi in fields:
            assert full_dirac(s, psi).components == dirac_operators(s, psi)[1].components

    @pytest.mark.parametrize("twisted", [False, True])
    @pytest.mark.parametrize(
        "c", [np.exp(0.7j), 1j, (3 + 4j) / 5, 1e-300], ids=["exp(0.7i)", "i", "(3+4i)/5", "1e-300"]
    )
    def test_scaling_the_field_scales_the_operator_exactly(self, c, twisted, random_poly):
        # The operator is linear and its arithmetic exact: D (c psi) is c D psi
        # term by term, so phase_invariance may scale D psi instead of
        # differentiating c psi, and read the same floats.
        s = _twisted_connection() if twisted else S_FLAT
        rng = np.random.default_rng(43)
        fields = [_PHASE_PSI] + [
            SpinorField(tuple(random_poly(rng, 3) for _ in range(4))) for _ in range(3)
        ]
        for psi in fields:
            d = full_dirac(s, psi)
            assert any(not p.is_zero() for p in d.components)
            assert full_dirac(s, psi.scale(c)).components == d.scale(c).components

    def test_psi0_in_kernel_exactly(self):
        for p in POINTS:
            assert np.array_equal(full_dirac(S_FLAT, SpinorField.psi0()).evaluate(p), np.zeros(4))

    def test_reduces_to_kohn_on_t_independent_fields(self):
        psi = SpinorField.make(parse_poly("x1*y2"), parse_poly("y1^2"), 0, 0)
        for p in POINTS[:5]:
            kohn, full = dirac_operators(S_FLAT, psi)
            diff = full.evaluate(p) - kohn.evaluate(p)
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

    def test_finite_difference_agreement_50_fields(self, random_poly):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            psi = SpinorField(tuple(random_poly(rng, 3) for _ in range(4)))
            for p in POINTS:
                exact = full_dirac(S_FLAT, psi).evaluate(p)
                approx = _oracle(S_FLAT, psi, p, h=1e-4)
                worst = max(worst, float(np.max(np.abs(exact - approx))))
        assert worst <= 1e-6

    def test_phase_invariance(self, random_poly):
        rng = np.random.default_rng(8)
        psi = SpinorField(tuple(random_poly(rng, 3) for _ in range(4)))
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
    return ModelBundle(S_FLAT.frame, tuple(tuple(map(tuple, plane)) for plane in gamma), a_form)


_TWISTED_PSI = SpinorField.make(
    parse_poly("x1*y2 + 2i*t^2"),
    parse_poly("y1^3 - x2*t"),
    parse_poly("(1+2i)*x1*y1*t"),
    parse_poly("y2^2 + 0.5*x2 - 3i"),
)


class TestDiracOperators:
    """``dirac_operators`` is, term by term, the Clifford sums of the covariant
    derivatives of ``spin_covariant_derivative``: Kohn over e_1, ..., e_4, and
    full with the Reeb term added."""

    @pytest.mark.parametrize("twisted", [False, True])
    def test_kohn_and_full_are_the_written_out_sums(self, twisted, random_poly):
        s = _twisted_connection() if twisted else S_FLAT
        rng = np.random.default_rng(31)
        for _ in range(3):
            psi = SpinorField(tuple(random_poly(rng, 3) for _ in range(4)))
            # kappa(e_w) nabla_w psi, component j = sum_k kappa_w[j, k] (nabla_w psi)_k.
            terms = []
            for w in range(1, 6):
                nabla = spin_covariant_derivative(s, w, psi).components
                terms.append(
                    [
                        sum((PolyExpr.const(a) * c for a, c in zip(row, nabla) if a), PolyExpr())
                        for row in GAMMA[w - 1]
                    ]
                )
            kohn = tuple(sum(t, PolyExpr()) for t in zip(*terms[:4]))
            full = tuple(k + r for k, r in zip(kohn, terms[4]))
            assert any(not r.is_zero() for r in terms[4])
            got_kohn, got_full = dirac_operators(s, psi)
            assert got_kohn.components == kohn
            assert got_full.components == full


    def test_clifford_constants_are_built_once(self, monkeypatch, random_poly):
        # The nonzero entries of the kappa(e_w) are exact constants built at
        # import: on a chart without connection terms, once the frame's
        # derivatives are cached, neither operator builds a constant.
        psi = SpinorField(tuple(random_poly(np.random.default_rng(33), 3) for _ in range(4)))
        full_dirac(S_FLAT, psi)
        built = []
        const = PolyExpr.const
        monkeypatch.setattr(PolyExpr, "const", staticmethod(lambda v: built.append(v) or const(v)))
        kohn, full = dirac_operators(S_FLAT, psi)
        assert full_dirac(S_FLAT, psi) == full and not built


class TestConnectionTerms:
    """The so(5) and U(1) terms of nabla, on a connection with nonzero Christoffels."""

    def test_built_once_per_chart_and_direction_read_only(self):
        s = _twisted_connection()
        for w in range(1, 6):
            terms = dirac_sw._connection_terms(s, w)
            assert terms and terms is dirac_sw._connection_terms(s, w)
            assert not any(m.flags.writeable for _, m in terms)

    def test_constant_spinor_matches_written_out_formula(self):
        s = _twisted_connection()
        rng = np.random.default_rng(23)
        psi_val = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = SpinorField.make(*psi_val)
        for p in POINTS[:10]:
            # sum_w kappa_w (1/2 sum_{j<k} Gamma^k_{wj} kappa_j kappa_k + 1/2 A(e_w)) psi
            gam = np.array([[[c(p) for c in row] for row in plane] for plane in s.gamma])
            a_vals = np.array([c(p) for c in s.a_form.coeffs])
            frame_vals = np.array([[c(p) for c in f.components] for f in s.frame.fields]).T
            expected = np.zeros(4, dtype=complex)
            for w in range(5):
                m = 0.5 * (a_vals @ frame_vals[:, w]) * np.eye(4)
                for j in range(5):
                    for k in range(j + 1, 5):
                        m = m + 0.5 * gam[w, j, k] * (GAMMA[j] @ GAMMA[k])
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
        #          + (1/2 sum_{j<k} Gamma^k_{wj} kappa_j kappa_k + 1/2 A(e_w)) psi(p)),
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
                a_w = sum(a(p) * x for a, x in zip(s.a_form.coeffs, frame_w))
                m = 0.5 * a_w * np.eye(4)
                for j in range(5):
                    for k in range(j + 1, 5):
                        m = m + 0.5 * s.gamma[w][j][k](p) * (GAMMA[j] @ GAMMA[k])
                expected += GAMMA[w] @ (deriv + m @ psi_at(p))
            assert np.max(np.abs(row - expected)) <= 1e-12


# The Sasakian circle bundle over H^2 x H^2 (Boothby-Wang), with frame
# e1 = y1 d/dx1 - d/dt, e2 = y1 d/dy1, e3 = y2 d/dx2 - d/dt, e4 = y2 d/dy2,
# Reeb = d/dt and eta = dt + dx1/y1 + dx2/y2.  Its Tanaka-Webster connection
# has the constant frame Christoffels nabla_e1 e1 = e2, nabla_e1 e2 = -e1,
# nabla_e3 e3 = e4, nabla_e3 e4 = -e3 (SASAKI_GAMMA[w, j, k] = Gamma^k_{wj}),
# and A = i (dx1/y1 + dx2/y2) has F_A = i deta = i rho_h at s = -4, with
# A(e1) = A(e3) = i (SASAKI_A[w] = A(e_{w+1})).
SASAKI_GAMMA = np.zeros((5, 5, 5))
SASAKI_GAMMA[0, 0, 1] = SASAKI_GAMMA[2, 2, 3] = 1
SASAKI_GAMMA[0, 1, 0] = SASAKI_GAMMA[2, 3, 2] = -1
SASAKI_A = np.array([1j, 0, 1j, 0, 0])


class TestCouplingOnSasakianChart:
    """D_A psi0 = 0 on the circle bundle over H^2 x H^2, the first chart on
    which the so(5) term of nabla meets nonzero Christoffels."""

    def test_zeroth_order_dirac_annihilates_psi0(self):
        # psi0 is constant, so D_A psi0 = sum_w kappa_w (SO_COUPLING sum_{j<k}
        # Gamma^k_{wj} kappa_j kappa_k + U1_COUPLING A(e_w)) psi0.  Every entry
        # is a Gaussian integer times a power of 2, so the sum is exact.
        out = sum(
            GAMMA[w]
            @ (
                SO_COUPLING * np.tensordot(SASAKI_GAMMA[w][PAIR_INDEX], PAIR_PRODUCTS, 1)
                + U1_COUPLING * SASAKI_A[w] * np.eye(4)
            )
            @ PSI0
            for w in range(5)
        )
        assert np.array_equal(out, np.zeros(4))

    def test_full_dirac_annihilates_psi0(self):
        # The same zeroth-order data through full_dirac: the Heisenberg frame
        # (whose derivatives of psi0 vanish) with the constant Christoffels
        # above and A = i dx1 + i dx2, which also has A(e1) = A(e3) = i.
        gamma = tuple(
            tuple(tuple(map(PolyExpr.const, row)) for row in plane) for plane in SASAKI_GAMMA
        )
        a_form = CoordForm.one_form(1j, 0, 1j, 0, 0)
        assert [a_form.pair_vector(e) for e in S_FLAT.frame.fields] == list(
            map(PolyExpr.const, SASAKI_A)
        )
        s = ModelBundle(S_FLAT.frame, gamma, a_form)
        assert all(c.is_zero() for c in full_dirac(s, SpinorField.psi0()).components)


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


def _derived_identification() -> tuple[int, np.ndarray]:
    """The dimension of the space of intertwiners Phi (X . a) = kappa(X) Phi(a)
    over the frame vectors X, by SVD, and its element with Phi(1) = psi0."""
    eye = np.eye(4)
    system = np.vstack(
        [
            np.kron(gamma(i), eye) - np.kron(eye, form_clifford_action(x).T)
            for i, x in enumerate(np.eye(5), 1)
        ]
    )
    _, sing, vt = np.linalg.svd(system)
    # For complex SVD A = U S V^H the null vector is the conjugate of the last
    # row of V^H.
    phi = vt[-1].conj().reshape(4, 4)
    return int(np.sum(sing < 1e-10)), phi / phi[3, 0]


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
        assert np.array_equal(IDENTIFICATION, expected)
        assert not IDENTIFICATION.flags.writeable
        # So are the tables of the Clifford actions, and the contractions,
        # the transposes of the wedges, with them.
        for name in ("_WEDGE1", "_WEDGE2", "_REEB_ACTION", "_DBAR_MAP"):
            table = getattr(dirac_sw, name)
            assert not table.flags.writeable and not table.T.flags.writeable, name

    def test_intertwiner_space_is_one_dimensional_and_is_the_table(self):
        # The reference derivation: the intertwining system solved by SVD.
        dim, phi = _derived_identification()
        assert dim == 1
        assert np.max(np.abs(phi - IDENTIFICATION)) < 1e-12

    def test_phi_unitary(self):
        phi = IDENTIFICATION
        assert np.array_equal(phi.conj().T @ phi, np.eye(4))

    def test_intertwining_all_generators(self):
        phi = IDENTIFICATION
        for i in range(1, 6):
            x = np.zeros(5)
            x[i - 1] = 1.0
            assert np.array_equal(phi @ form_clifford_action(x), gamma(i) @ phi), i

    def test_phi_maps_one_to_psi0(self):
        assert np.array_equal(IDENTIFICATION[:, 0], PSI0)

    def test_reeb_eigenvalues_by_degree(self):
        # kappa(e5) Phi(alpha_q) = (-1)^(q+1) i Phi(alpha_q).
        signs = [-1j, 1j, 1j, -1j]
        for col, lam in enumerate(signs):
            v = IDENTIFICATION[:, col]
            assert np.array_equal(gamma(5) @ v, lam * v)

    def test_top_form_lands_in_plus_2i_eigenspace(self):
        from swcheck.cliff5 import kappa_deta

        v = IDENTIFICATION[:, 3]
        assert np.array_equal(kappa_deta() @ v, 2j * v)
        assert np.linalg.norm(v) == 1

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
        return SpinorField(_mat_apply(_exact_rows(phi), self.components))


@lru_cache(maxsize=1)
def _heisenberg_z_fields() -> tuple[VectorFieldPoly, ...]:
    """Z1, Z2, Zbar1, Zbar2 on the Heisenberg chart: the first four rows of
    ``COMPLEX_FRAME`` on its frame fields."""
    fields = heisenberg5().frame.fields
    return tuple(
        reduce(VectorFieldPoly.__add__, (f.scale(c) for f, c in zip(fields, row) if c))
        for row in COMPLEX_FRAME[:4]
    )


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

    def test_identity_on_random_fields(self, random_poly):
        rng = np.random.default_rng(12)
        for _ in range(20):
            field = FormSpinorField(tuple(random_poly(rng, 3) for _ in range(4)))
            assert max_abs(_dbar_identity_defect(field, POINTS[:10])) <= 1e-10


def _dbar_identity_defect(field: FormSpinorField, points) -> np.ndarray:
    """sqrt(2) (dbar_H + dbar_H*) f - Phi^-1 D_H Phi f, built symbolically for
    one field and evaluated at ``points``."""
    phi = IDENTIFICATION
    d, ds = dbar_pair(field)
    dirac = dirac_operators(S_FLAT, field.to_spinor_field(phi))[0]
    lhs = np.sqrt(2) * (d.evaluate(points) + ds.evaluate(points))
    return lhs - dirac.evaluate(points) @ phi.conj()


def _basis_field(k: int, m: PolyExpr) -> tuple[PolyExpr, ...]:
    """The components of m e_k."""
    return tuple(m if j == k else PolyExpr() for j in range(4))


def _flat_kohn(derivs) -> np.ndarray:
    """The Kohn operator on every basis field of a chart with no connection
    terms along e_1, ..., e_4, from its e_w(m): sum_{w<=4} e_w(m) kappa(e_w) e_k."""
    return contract(derivs[..., :4, :], GAMMA[:4])


def _fd_rows(s: ModelBundle, h: float = 1e-4) -> np.ndarray:
    """The full operator minus its oracle at step h on every basis field at
    POINTS, as the dirac suite computes it."""
    derivs, fd_derivs = basis_derivatives(s, POINTS, h)
    return contract(derivs - fd_derivs, GAMMA)


def _einsum_operators(s: ModelBundle, derivs) -> list[np.ndarray]:
    """Kohn and the full operator on the basis fields at POINTS from the
    derivative table ``derivs``: sum_q f_q(m) mats[q] e_k over the channels,
    e_w(m) with kappa(e_w) and c_t m with kappa(e_w) M_t for each connection
    term (c_t, M_t) of nabla_w, as one einsum; Kohn takes w <= 4, full every w."""
    values = evaluate_all(BASIS, POINTS)
    channels, mats, out = [], [], []
    for w in range(1, 6):
        channels.append(derivs[:, w - 1])
        mats.append(GAMMA[w - 1])
        for coeff, m in dirac_sw._connection_terms(s, w):
            channels.append(evaluate_all([coeff], POINTS) * values)
            mats.append(GAMMA[w - 1] @ m)
        if w >= 4:
            out.append(np.einsum("...qm,qjk->...jkm", np.stack(channels, -2), np.array(mats)))
    return out


def _two_sided_dbar(phi: np.ndarray, derivs) -> np.ndarray:
    """The dbar identity on a flat chart with identification ``phi``, its two
    sides taken apart: sqrt(2) (dbar_H + dbar_H*), the wedges and contractions
    on sqrt(2) Z_a(m) and sqrt(2) Zbar_a(m), minus phi^H K phi for the flat Kohn
    operator K; phi (m e_k) = sum_j phi[j, k] m e_j."""
    wedges = [-dirac_sw._WEDGE1.T, -dirac_sw._WEDGE2.T, dirac_sw._WEDGE1, dirac_sw._WEDGE2]
    lhs = contract(SQ2_UNITARY_FRAME @ derivs, wedges)
    kohn = _flat_kohn(derivs)
    rhs = (phi.T @ kohn).reshape(kohn.shape[:-3] + (4, -1))
    return lhs - (phi.conj().T @ rhs).reshape(lhs.shape)


def _dbar_map(phi: np.ndarray) -> np.ndarray:
    """``_DBAR_MAP`` built from the identification ``phi``."""
    actions = [form_clifford_action(x) for x in np.eye(4, 5)]
    return np.array([a - phi.conj().T @ g @ phi for a, g in zip(actions, GAMMA)])


#: Identifications that are not intertwiners: row 0 negated, rows 0 and 1
#: swapped, and row 0 times i.
_MUTATED_IDENTIFICATIONS = {
    "negated": np.diag([-1, 1, 1, 1]) @ IDENTIFICATION,
    "swapped": IDENTIFICATION[[1, 0, 2, 3]],
    "times_i": np.diag([1j, 1, 1, 1]) @ IDENTIFICATION,
}


def _reeb_only_connection() -> ModelBundle:
    """The Heisenberg frame with Christoffels only along the Reeb field and
    A(e_w) = 0 for w <= 4: nabla_5 has connection terms, nabla_1..4 none."""
    gamma = [[[PolyExpr() for _ in range(5)] for _ in range(5)] for _ in range(5)]
    gamma[4][0][1] = parse_poly("x1 - 2*t")
    gamma[4][2][3] = parse_poly("0.5")
    return ModelBundle(S_FLAT.frame, tuple(tuple(map(tuple, plane)) for plane in gamma))


class TestBasis:
    """Entry [..., j, k, i] of the basis arrays is component j of the symbolic
    operators, and of the oracle, on the basis field monomials[i] e_k."""

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared", "twisted"])
    @pytest.mark.parametrize("stencil", [False, True])
    def test_derivatives_are_the_symbolic_partials_bit_for_bit(self, chart, stencil):
        # The partials from the power table are the evaluate_all values of
        # the exact partials of the monomials, and the
        # central differences are those of the exact monomials' real values.
        s = {"heisenberg": S_FLAT, "sheared": SHEARED, "twisted": _twisted_connection()}[chart]
        points = fd_stencil(POINTS, 1e-4) if stencil else POINTS
        derivs, fd_derivs = basis_derivatives(s, points, 1e-4)
        partials = evaluate_all([m.diff(c) for c in range(5) for m in BASIS], points)
        partials = partials.reshape(points.shape[:-1] + (5, len(BASIS)))
        on_stencil = evaluate_all(BASIS, fd_stencil(points, 1e-4)).real
        diffs = (on_stencil[..., 1:6, :] - on_stencil[..., 6:, :]) / (2 * 1e-4)
        assert np.array_equal(derivs, _frame_values(s, points) @ partials)
        assert np.array_equal(fd_derivs, _frame_values(s, points) @ diffs)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_rows_are_the_operators_on_each_basis_field(self, twisted):
        # The finite-difference rows on both charts; the flat chart's Kohn
        # operator, which the dbar rows read, is the table contracted with
        # kappa(e_1), ..., kappa(e_4).
        s = _twisted_connection() if twisted else S_FLAT
        fd = _fd_rows(s)
        kohn = _flat_kohn(basis_derivatives(s, POINTS, 1e-4)[0])
        assert len(BASIS) == 56
        assert kohn.shape == fd.shape == (20, 4, 4, 56)
        for k in range(4):
            for i, m in enumerate(BASIS):
                psi = SpinorField(_basis_field(k, m))
                kohn_psi, full_psi = dirac_operators(s, psi)
                if not twisted:
                    assert max_abs(kohn[..., k, i] - kohn_psi.evaluate(POINTS)) <= 1e-13
                fd_psi = full_psi.evaluate(POINTS) - _oracle(s, psi, POINTS, h=1e-4)
                assert max_abs(fd[..., k, i] - fd_psi) <= 1e-13

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared", "twisted"])
    def test_fd_rows_are_the_assembled_operators_difference(self, chart):
        # The full operator assembled from the exact e_w(m), minus the same
        # assembly from the central differences: the connection channels
        # cancel.  On charts without connection terms every Clifford entry has
        # one nonzero product, so both round alike and the moduli the checks
        # read are the same bits; the twisted connection's channels leave a
        # rounding difference.
        s = {"heisenberg": S_FLAT, "sheared": SHEARED, "twisted": _twisted_connection()}[chart]
        derivs, fd_derivs = basis_derivatives(s, POINTS, 1e-4)
        assembled = _einsum_operators(s, derivs)[1]
        assembled -= _einsum_operators(s, fd_derivs)[1]
        rows = _fd_rows(s)
        if chart == "twisted":
            assert 0 < max_abs(assembled - rows) <= 1e-15
        else:
            assert np.array_equal(np.abs(assembled), np.abs(rows))

    def test_dbar_rows_are_the_identity_on_each_basis_field(self):
        points = POINTS[:10]
        rows = dbar_identity_residual(S_FLAT, basis_derivatives(S_FLAT, points, 1e-4)[0])
        assert rows.shape == (10, 4, 4, 56)
        for k in range(4):
            for i, m in enumerate(BASIS):
                defect = _dbar_identity_defect(FormSpinorField(_basis_field(k, m)), points)
                assert max_abs(rows[..., k, i] - defect) <= 1e-14
        # The sqrt(2) of the symbolic defect cancels in the rows: they are exact.
        assert not np.any(rows)

    def test_dbar_rows_on_a_sheared_chart(self):
        # The sheared chart's connection is flat, so its own e_w(m) satisfy the
        # identity exactly, and the rows are its two sides taken apart.
        derivs = basis_derivatives(SHEARED, POINTS[:10], 1e-4)[0]
        rows = dbar_identity_residual(SHEARED, derivs)
        assert not np.any(rows)
        assert np.array_equal(rows, _two_sided_dbar(IDENTIFICATION, derivs))

    def test_dbar_map_is_phi_h_times_the_intertwiner_defects(self):
        # Phi^H (Phi A_w - kappa(e_w) Phi) = A_w - Phi^H kappa(e_w) Phi, since
        # Phi is unitary; the defects are those of the intertwiner row of the
        # dirac suite, for e_1, ..., e_4.
        phi = IDENTIFICATION
        defects = [
            phi @ form_clifford_action(x) - gamma(w) @ phi for w, x in enumerate(np.eye(4, 5), 1)
        ]
        assert np.array_equal(dirac_sw._DBAR_MAP, phi.conj().T @ np.array(defects))
        assert np.array_equal(intertwiner_defects()[1:5], defects)
        assert dirac_sw._DBAR_MAP.shape == (4, 4, 4) and not np.any(dirac_sw._DBAR_MAP)

    def test_intertwiner_defects_read_the_identification_when_called(self, monkeypatch):
        # Exact zeros for IDENTIFICATION; a mutated table, set after import,
        # reaches the defects but not _DBAR_MAP, which import derived.
        assert intertwiner_defects().shape == (6, 4, 4) and not np.any(intertwiner_defects())
        for phi in _MUTATED_IDENTIFICATIONS.values():
            monkeypatch.setattr(dirac_sw, "IDENTIFICATION", phi)
            defects = intertwiner_defects()
            assert np.array_equal(defects[0], phi.conj().T @ phi - np.eye(4))
            for w, x in enumerate(np.eye(5), 1):
                assert np.array_equal(defects[w], phi @ form_clifford_action(x) - gamma(w) @ phi)
            assert max_abs(defects) > 1.0
            assert not np.any(dirac_sw._DBAR_MAP)

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared"])
    @pytest.mark.parametrize("mutation", sorted(_MUTATED_IDENTIFICATIONS))
    def test_mutated_identification_rows_are_the_two_sided_formula(self, chart, mutation):
        # With an identification that intertwines nothing, the map is not zero
        # and the rows read the defect: one contraction with the map rebuilt
        # from it is its two sides taken apart, bit for bit.
        s = S_FLAT if chart == "heisenberg" else SHEARED
        phi = _MUTATED_IDENTIFICATIONS[mutation]
        derivs = basis_derivatives(s, POINTS[:10], 1e-4)[0]
        rows = contract(derivs[..., :4, :], _dbar_map(phi))
        assert max_abs(rows) > 1.0
        assert np.array_equal(rows, _two_sided_dbar(phi, derivs))

    @pytest.mark.parametrize("chart", ["twisted", "a_along_e1"])
    def test_dbar_rows_refuse_connection_terms_along_e1_to_e4(self, chart):
        # There the identity gains the connection terms, which the map lacks.
        if chart == "twisted":
            s = _twisted_connection()
        else:
            s = _heisenberg_with_a(CoordForm.one_form(1j, 0, 0, 0, 0))
        derivs = basis_derivatives(s, POINTS[:10], 1e-4)[0]
        with pytest.raises(ValueError, match="e_1, ..., e_4"):
            dbar_identity_residual(s, derivs)

    def test_dbar_rows_accept_connection_terms_along_the_reeb_field(self):
        # The Kohn operator reads nabla_1, ..., nabla_4 only.
        s = _reeb_only_connection()
        assert dirac_sw._connection_terms(s, 5)
        derivs = basis_derivatives(s, POINTS[:10], 1e-4)[0]
        rows = dbar_identity_residual(s, derivs)
        assert rows.shape == (10, 4, 4, 56) and not np.any(rows)

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared", "twisted"])
    def test_operators_are_the_einsum_contraction_bit_for_bit(self, chart):
        # Both pairs of basis rows are one contract of the derivative table:
        # the finite-difference rows with kappa(e_w) on every chart, and the
        # dbar rows with their map on the flat charts.
        s = {"heisenberg": S_FLAT, "sheared": SHEARED, "twisted": _twisted_connection()}[chart]
        derivs, fd_derivs = basis_derivatives(s, POINTS, 1e-4)
        fd = _fd_rows(s)
        assert fd.shape == (20, 4, 4, 56)
        assert np.array_equal(fd, np.einsum("...qm,qjk->...jkm", derivs - fd_derivs, GAMMA))
        if chart != "twisted":
            dbar = np.einsum("...qm,qjk->...jkm", derivs[..., :4, :], dirac_sw._DBAR_MAP)
            assert np.array_equal(dbar_identity_residual(s, derivs), dbar)

    def test_coefficients_times_rows_give_the_field(self):
        # The coefficient layout (4, M) of a field matches the basis values:
        # its value is its coefficients times them, summed over k and i.
        rng = np.random.default_rng(13)
        coeffs = rng.uniform(-1, 1, (4, 56)) + 1j * rng.uniform(-1, 1, (4, 56))
        psi = SpinorField(
            tuple(PolyExpr.from_dict(dict(zip(monomials(FIELD_DEGREE), c))) for c in coeffs)
        )
        kohn = _flat_kohn(basis_derivatives(S_FLAT, POINTS, 1e-4)[0])
        value = np.einsum("ki,...jki->...j", coeffs, kohn)
        assert max_abs(value - dirac_operators(S_FLAT, psi)[0].evaluate(POINTS)) <= 1e-12


class TestFamilyMaximum:
    """``family_maximum`` of the finite-difference rows is the largest
    residual of the fields with 4 monomials a component and coefficients of
    modulus at most 1."""

    @pytest.mark.parametrize("h, fails", [(1e-2, True), (1e-4, False)])
    def test_the_tolerance_rejects_a_coarse_step(self, h, fails):
        # The dirac suite compares at step 1e-4 against 1e-6.  The check is not
        # vacuous: at step 1e-2 the O(h^2) error of the central differences
        # is above the tolerance.
        assert (family_maximum(_fd_rows(S_FLAT, h)) > 1e-6) == fails

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared", "random"])
    def test_equals_the_row_formula_bit_for_bit(self, chart):
        # The same 16 moduli an entry, added in the same order as on the basis
        # rows (4 M, R): row k M + i for monomials[i] e_k, column (point, j).
        # The finite-difference residuals carry few significant bits, so their
        # sums do not round; on random values a sequential sum of the 16 moduli
        # differs from the rows' pairwise one in about half of the entries.
        if chart == "random":
            rng = np.random.default_rng(17)
            basis = rng.normal(size=(20, 4, 4, 56)) + 1j * rng.normal(size=(20, 4, 4, 56))
        else:
            basis = _fd_rows(S_FLAT if chart == "heisenberg" else SHEARED)
        rows = np.moveaxis(basis, (-2, -1), (0, 1)).reshape(224, -1)
        moduli = np.sort(np.abs(rows).reshape(4, 56, -1), axis=1)
        sums = moduli[:, -4:].sum(axis=(0, 1)).reshape(20, 4)
        assert family_maximum(basis) == float(np.max(sums))
        assert [[family_maximum(b) for b in by_point] for by_point in basis] == sums.tolist()

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared"])
    def test_the_maximizing_field_reaches_it(self, chart):
        # Entry (p, j) has its field: conj(b) / |b| (1 where b is 0) on the 4
        # largest |b[p, j, k, i]| over i, for each component k.  The largest
        # value of any of these fields at any entry is the maximum.
        basis = _fd_rows(S_FLAT if chart == "heisenberg" else SHEARED)
        top = np.argsort(np.abs(basis), axis=-1)[..., -4:]
        coeffs = np.zeros(basis.shape, dtype=complex)
        phases = np.exp(-1j * np.angle(np.take_along_axis(basis, top, -1)))
        np.put_along_axis(coeffs, top, phases, -1)
        worst = family_maximum(basis)
        reached = max_abs(np.einsum("pjki,qlki->pjql", coeffs, basis))
        assert 0 < worst and abs(reached - worst) <= 1e-15 * worst

    def test_no_member_exceeds_it(self):
        # 1000 fields of the family: 4 distinct monomials a component, with
        # coefficients in the unit disc, half of them on its boundary.  Then,
        # for each entry (p, j), its maximizing field with every phase moved by
        # up to 0.1.  No field exceeds the bound of any entry, family_maximum
        # of that entry alone, and the second kind come within 1% of the bound
        # at their own entry, so the bounds are read on the right axes.
        rng = np.random.default_rng(16)
        basis = _fd_rows(S_FLAT)
        picks = np.argsort(rng.random((1000, 4, 56)), axis=-1)[..., :4]
        moduli = np.where(np.arange(1000)[:, None, None] % 2, 1.0, rng.random((1000, 4, 4)))
        values = moduli * np.exp(2j * np.pi * rng.random((1000, 4, 4)))
        coeffs = np.zeros((1000, 4, 56), dtype=complex)
        np.put_along_axis(coeffs, picks, values, -1)
        top = np.argsort(np.abs(basis), axis=-1)[..., -4:]
        phases = rng.uniform(-0.1, 0.1, top.shape) - np.angle(np.take_along_axis(basis, top, -1))
        near = np.zeros(basis.shape, dtype=complex)
        np.put_along_axis(near, top, np.exp(1j * phases), -1)
        coeffs = np.concatenate([coeffs, near.reshape(80, 4, 56)])
        fields = np.abs(np.einsum("fki,pjki->fpj", coeffs, basis)).reshape(1080, 80)
        bounds = np.array([[family_maximum(b) for b in by_point] for by_point in basis])
        assert np.all(fields <= bounds.reshape(80))
        assert np.all(fields[1000:].diagonal() >= 0.99 * bounds.reshape(80))
        assert np.max(bounds) == family_maximum(basis)


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
        # ModelBundle refuses an A with a real part in any coefficient, and
        # names the first such coefficient.
        for c, value in itertools.product(range(5), ["1", "x1 + 2i*t", "0.5*y2"]):
            coeffs = ["i*x2"] * c + [value] + ["2"] * (4 - c)
            with pytest.raises(ValueError) as err:
                ModelBundle(S_FLAT.frame, a_form=CoordForm.one_form(*map(parse_poly, coeffs)))
            assert str(err.value) == f"A[{c}]: the U(1) connection 1-form must be imaginary valued"

    def test_imaginary_a_accepted(self):
        s = _heisenberg_with_a(CoordForm.one_form(0, 0, 0, 0, 2j))
        assert s.a_form.coeffs[4]((0, 0, 0, 0, 0)) == 2j

    def test_connection_defaults_to_flat(self):
        s = ModelBundle(S_FLAT.frame)
        assert s.gamma is FLAT_GAMMA and s.a_form is FLAT_A and s.curvature is None
        assert all(c.is_zero() for plane in s.gamma for row in plane for c in row)
        assert all(c.is_zero() for c in s.a_form.coeffs)
        assert not any(dirac_sw._connection_terms(s, w) for w in range(1, 6))


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
