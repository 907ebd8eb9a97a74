"""Webster curvature algebra: admissible tensors, Ricci form, Bianchi term,
curvature tensor symmetries."""

import numpy as np
import pytest
from numpy.random import default_rng

from swcheck.curvature import (
    COMPLEX_FRAME,
    HORIZONTAL_FRAME_PAIRS,
    J_FRAME,
    admissible_ricci,
    admissible_torsion,
    bianchi_b,
    curvature_tensor,
    random_admissible_ricci,
    random_admissible_torsion,
    ric_identity_check,
    ricci_form,
    ricci_trace,
    ricci_violations,
    rho_plus,
    scalar_curvature,
    symmetry_check,
    torsion_violations,
)
from swcheck.extalg import basis_form, deta

EI = np.eye(5)


class TestAdmissibleRicci:
    def test_random_satisfies_invariants(self):
        for seed in range(20):
            c = random_admissible_ricci(default_rng(seed))
            assert ricci_violations(c) == []

    def test_deterministic(self):
        a = random_admissible_ricci(default_rng(42))
        b = random_admissible_ricci(default_rng(42))
        assert np.array_equal(a, b)

    def test_scalar_is_twice_sum_of_free_diagonals(self):
        c = admissible_ricci(0.7, -0.3, 0.1, 0.5)
        # Independent computation: trace of the horizontal block.
        assert scalar_curvature(c) == pytest.approx(np.trace(c[:4, :4]))
        assert scalar_curvature(c) == pytest.approx(2 * 0.7 + 2 * (-0.3))

    def test_violations_reported_by_name(self):
        ric = admissible_ricci(1, 1, 0, 0)
        ric[0, 1] = ric[1, 0] = 1.0
        bad = ricci_violations(ric)
        assert any("R12=0" in msg for msg in bad)

    @pytest.mark.parametrize("seed", [0, np.arange(3)])
    def test_samplers_refuse_seeds(self, seed):
        # A seed array would be one entropy pool, giving one sample, not 3.
        for sampler in (random_admissible_ricci, random_admissible_torsion):
            with pytest.raises(AttributeError):
                sampler(seed)

    def test_nan_is_a_violation(self):
        nan = np.full((5, 5), np.nan)
        assert len(ricci_violations(nan)) == 12
        assert len(torsion_violations(nan)) == 3


class TestRicciForm:
    def test_isotropic_diagonal(self):
        c = np.diag([2.0, 2.0, 2.0, 2.0, 0.0])
        assert (ricci_form(c) + 2.0 * deta()).norm_inf() == 0

    def test_zero(self):
        assert ricci_form(np.zeros((5, 5))).norm_inf() == 0

    def test_matches_displayed_expansion(self):
        # Oracle: the closed-form expansion in the four free parameters.
        for seed in range(10):
            c = random_admissible_ricci(default_rng(seed))
            r11, r33 = c[0, 0], c[2, 2]
            r23, r24 = c[1, 2], c[1, 3]
            expected = (
                -r11 * basis_form(1, 2)
                - r33 * basis_form(3, 4)
                - r24 * (basis_form(1, 4) - basis_form(2, 3))
                - r23 * (basis_form(1, 3) + basis_form(2, 4))
            )
            assert (ricci_form(c) - expected).norm_inf() < 1e-15

    def test_coefficient_e12_is_minus_r11(self):
        c = random_admissible_ricci(default_rng(5))
        assert ricci_form(c).coefficient(1, 2) == pytest.approx(-c[0, 0])

    def test_conventions_agree_on_admissible_data(self):
        # The J R matrix of ricci_form and the R J matrix that
        # ric_identity_check compares it with.
        c = random_admissible_ricci(default_rng(9))
        assert np.max(np.abs(J_FRAME @ c - c @ J_FRAME)) < 1e-15
        assert ric_identity_check(c) < 1e-15

    def test_linearity_in_curvature(self):
        c = random_admissible_ricci(default_rng(3))
        scaled = 3.5 * c
        assert (ricci_form(scaled) - 3.5 * ricci_form(c)).norm_inf() < 1e-14


class TestRhoPlus:
    def test_identity_on_random_admissible(self):
        for seed in range(200):
            c = 2.0 * random_admissible_ricci(default_rng(seed))
            assert (rho_plus(c) + (scalar_curvature(c) / 4.0) * deta()).norm_inf() < 1e-14

    def test_zero(self):
        assert rho_plus(np.zeros((5, 5))).norm_inf() == 0

    def test_unit_diagonal(self):
        c = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
        assert (rho_plus(c) + deta()).norm_inf() == 0

    def test_broken_symmetry_breaks_identity(self):
        ric = admissible_ricci(1.0, 0.5, 0.0, 0.0)
        ric[0, 0] += 1e-3  # R11 != R22 now
        resid = (rho_plus(ric) + (scalar_curvature(ric) / 4.0) * deta()).norm_inf()
        assert resid >= 2e-4  # epsilon / 4


class TestJCompatibility:
    def test_j_commutes_exactly(self):
        for seed in range(50):
            c = random_admissible_ricci(default_rng(seed))
            assert np.array_equal(J_FRAME @ c, c @ J_FRAME)

    def test_ric_j_invariance_horizontal(self):
        jh = J_FRAME[:4, :4]
        for seed in range(50):
            c = random_admissible_ricci(default_rng(seed))
            ric_h = c[:4, :4]
            assert np.max(np.abs(jh.T @ ric_h @ jh - ric_h)) < 1e-14


class TestBianchiCorrection:
    def test_vanishes_for_admissible_torsion(self):
        for seed in range(300):
            tau = 3.0 * random_admissible_torsion(default_rng(seed))
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(bianchi_b(tau, EI[i], EI[j])) < 1e-13

    def test_vanishes_for_zero_torsion(self):
        tau = np.zeros((5, 5))
        assert bianchi_b(tau, EI[0], EI[1]) == 0

    def test_vanishes_for_any_self_adjoint_torsion(self):
        # Self-adjointness alone forces the cancellation; J-anticommutation
        # is not needed.  The identity endomorphism on the horizontal space
        # (which violates J-anticommutation) therefore still gives zero.
        tau = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(bianchi_b(tau, EI[i], EI[j])) < 1e-15

    def test_skew_torsion_is_nonzero(self):
        # Negative control: breaking self-adjointness turns B on.  The
        # closed form gives B(e3, e4) = -i and B(e1, e2) = 0 for the pure
        # (1,2)-skew perturbation.
        t = np.zeros((5, 5))
        t[0, 1], t[1, 0] = 1.0, -1.0
        assert torsion_violations(t) != []
        assert bianchi_b(t, EI[2], EI[3]) == pytest.approx(-1j)
        assert bianchi_b(t, EI[0], EI[1]) == 0

    def test_antisymmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(5, 5))
        t[4, :] = t[:, 4] = 0
        x = np.array([0.3, -1.0, 0.2, 0.5, 0.0])
        y = np.array([1.1, 0.4, -0.7, 0.2, 0.0])
        assert bianchi_b(t, x, y) == pytest.approx(-bianchi_b(t, y, x))

    def test_matches_definition_off_the_admissible_set(self):
        # Oracle: B(X, Y) = (i/2) sum_a g(B_a(X, Y), J e_a) with
        # B_a = deta(X, Y) tau(e_a) + deta(e_a, X) tau(Y) + deta(Y, e_a) tau(X),
        # written out term by term for non-self-adjoint torsion.
        def deta_xy(x, y):
            return x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]

        rng = np.random.default_rng(12)
        for _ in range(50):
            t = rng.normal(size=(5, 5))
            t[4, :] = t[:, 4] = 0
            x = np.append(rng.normal(size=4), 0.0)
            y = np.append(rng.normal(size=4), 0.0)
            total = 0.0
            for a in range(4):
                b_a = (
                    deta_xy(x, y) * (t @ EI[a])
                    + deta_xy(EI[a], x) * (t @ y)
                    + deta_xy(y, EI[a]) * (t @ x)
                )
                total += np.dot(b_a, J_FRAME @ EI[a])
            assert abs(bianchi_b(t, x, y) - 0.5j * total) < 1e-12

    def test_stacked_arguments_match_single_pairs(self):
        rng = np.random.default_rng(13)
        t = rng.normal(size=(5, 5))
        t[4, :] = t[:, 4] = 0
        xs = np.hstack([rng.normal(size=(6, 4)), np.zeros((6, 1))])
        ys = np.hstack([rng.normal(size=(6, 4)), np.zeros((6, 1))])
        stacked = bianchi_b(t, xs, ys)
        assert stacked.shape == (6,)
        for k in range(6):
            assert abs(stacked[k] - bianchi_b(t, xs[k], ys[k])) < 1e-14

    def test_rejects_vertical_arguments(self):
        tau = random_admissible_torsion(default_rng(0))
        with pytest.raises(ValueError):
            bianchi_b(tau, EI[4], EI[0])


class TestAdmissibleTorsion:
    def test_sampler_satisfies_invariants(self):
        for seed in range(50):
            tau = random_admissible_torsion(default_rng(seed))
            assert torsion_violations(tau) == []

    def test_span_dimension(self):
        basis = [admissible_torsion(row).flatten() for row in np.eye(6)]
        assert np.linalg.matrix_rank(np.array(basis)) == 6


class TestRicIdentity:
    def test_zero_residual_on_admissible(self):
        for seed in range(100):
            c = random_admissible_ricci(default_rng(seed))
            assert ric_identity_check(c) < 1e-14

    def test_zero_curvature(self):
        assert ric_identity_check(np.zeros((5, 5))) == 0

    def test_broken_constraints_raise_residual(self):
        # Breaking R11 = R22 shows up directly in the (1,2) coefficient of
        # the two J-placement routes.
        ric = admissible_ricci(1.0, -0.5, 0.2, 0.0)
        ric[0, 0] += 1.0
        assert ric_identity_check(ric) >= 1.0

    def test_r12_break_is_invisible_to_form_part(self):
        # A symmetric R12 perturbation lands in the symmetric part of the
        # commutator [J, R], which a 2-form extraction cannot see; the
        # admissibility validator is what catches it.
        ric = admissible_ricci(1.0, -0.5, 0.2, 0.0)
        ric[0, 1] = ric[1, 0] = 1.0
        assert ric_identity_check(ric) < 1e-14
        assert any("R12=0" in v for v in ricci_violations(ric))


#: One complex component, changed by 1e-3, and the terms of the check it
#: flips.  Pair antisymmetry sees every component; conjugation every one but
#: the self-conjugate (Reeb, Reeb, Reeb, Reeb); the other three only the
#: components they constrain.
_BROKEN_COMPONENTS = [
    ((0, 2, 1, 3), {"pair_antisymmetry", "conjugation", "t10_exchange", "ricci_trace"}),
    ((0, 0, 2, 3), {"pair_antisymmetry", "conjugation", "t10_vanishing"}),
    ((0, 4, 2, 4), {"pair_antisymmetry", "conjugation"}),
    ((4, 4, 4, 4), {"pair_antisymmetry"}),
]


def _flipped(t: np.ndarray, c: np.ndarray) -> set[str]:
    """Terms of the curvature tensor check above its tolerance: the four
    symmetries and the Ricci trace against i rho_h, over the complex frame."""
    z = COMPLEX_FRAME
    trace = np.max(np.abs(ricci_trace(t) - 1j * z @ (J_FRAME @ c) @ z.T))
    terms = {**symmetry_check(t), "ricci_trace": trace}
    return {name for name, r in terms.items() if not r <= 1e-12}


class TestCurvatureTensor:
    def test_symmetries_on_synthetic_tensor(self):
        for seed in (0, 3, 17):
            t = curvature_tensor(random_admissible_ricci(default_rng(seed)))
            report = symmetry_check(t)
            assert set(report) == {
                "pair_antisymmetry",
                "conjugation",
                "t10_exchange",
                "t10_vanishing",
            }
            assert max(report.values()) < 1e-12

    def test_zero_tensor(self):
        report = symmetry_check(np.zeros((5, 5, 5, 5), dtype=complex))
        assert max(report.values()) == 0

    def test_perturbed_entry_detected(self):
        c = random_admissible_ricci(default_rng(1))
        t = curvature_tensor(c)
        assert _flipped(t, c) == set()
        for index, flipped in _BROKEN_COMPONENTS:
            components = t.copy()
            components[index] += 1e-3
            assert _flipped(components, c) == flipped, index

    @pytest.mark.parametrize("kept, broken", [((-2, -1), (-4, -3)), ((-4, -3), (-2, -1))])
    def test_each_pair_of_the_antisymmetry_is_checked(self, kept, broken):
        # A break antisymmetric in one index pair and symmetric in the other
        # shows only in the other pair.
        c = random_admissible_ricci(default_rng(1))
        bump = np.zeros((5, 5, 5, 5))
        bump[0, 2, 1, 3] = 1e-3
        bump = bump - np.swapaxes(bump, *kept)
        bump = bump + np.swapaxes(bump, *broken)
        t = curvature_tensor(c) + bump
        assert symmetry_check(t)["pair_antisymmetry"] >= 1e-3

    def test_ricci_trace_reproduces_i_rho(self):
        z = COMPLEX_FRAME
        for seed in range(5):
            c = random_admissible_ricci(default_rng(seed))
            t = curvature_tensor(c)
            rho = (J_FRAME @ c).astype(complex)
            assert np.max(np.abs(ricci_trace(t) - z @ (1j * rho) @ z.T)) < 1e-13

    def test_components_real(self):
        # Conjugation symmetry: the components on the real frame e_p, with
        # e_p = sum_i inv(Z)[p, i] W_i, are real.
        t = curvature_tensor(random_admissible_ricci(default_rng(2)))
        m = np.linalg.inv(COMPLEX_FRAME)
        real_frame = np.einsum("ia,jb,kc,ld,abcd->ijkl", m, m, m, m, t)
        assert np.max(np.abs(real_frame.imag)) < 1e-14


class TestStacks:
    """A stack of 50 samples gives exactly the 50 results of the single
    samples; residuals of a stack are the largest single residual."""

    def _ricci(self):
        rng = default_rng(0)
        singles = [random_admissible_ricci(rng) for _ in range(50)]
        return random_admissible_ricci(default_rng(0), 50), singles

    @staticmethod
    def _broken(c):
        # Break R11 = R22 in every seventh sample, so residuals are nonzero.
        ric = c.copy()
        ric[::7, 0, 0] += np.linspace(0.1, 1.0, len(ric[::7]))
        return ric, list(ric)

    def test_draws_and_constructors(self):
        c, singles = self._ricci()
        assert c.shape == (50, 5, 5)
        assert np.array_equal(c, singles)
        tau = random_admissible_torsion(default_rng(1), 50)
        rng = default_rng(1)
        assert np.array_equal(tau, [random_admissible_torsion(rng) for _ in range(50)])
        params = np.random.default_rng(15).uniform(-1, 1, size=(50, 6))
        stacked = admissible_ricci(*params[:, :4].T)
        assert np.array_equal(stacked, [admissible_ricci(*p) for p in params[:, :4]])
        stacked = admissible_torsion(params)
        assert np.array_equal(stacked, [admissible_torsion(p) for p in params])

    def test_scalar_curvature_and_forms(self):
        c, singles = self._ricci()
        assert np.array_equal(scalar_curvature(c), [scalar_curvature(x) for x in singles])
        assert np.array_equal(ricci_form(c).coeffs, [ricci_form(x).coeffs for x in singles])
        assert np.array_equal(rho_plus(c).coeffs, [rho_plus(x).coeffs for x in singles])
        broken, broken_singles = self._broken(c)
        stacked = rho_plus(broken).coeffs
        assert np.array_equal(stacked, [rho_plus(x).coeffs for x in broken_singles])

    def test_bianchi_b_broadcasts_torsion_against_pairs(self):
        t = np.random.default_rng(16).normal(size=(50, 5, 5))
        t[:, 4, :] = t[:, :, 4] = 0
        xs, ys = HORIZONTAL_FRAME_PAIRS
        stacked = bianchi_b(t, xs, ys)
        assert stacked.shape == (50, 6)
        assert np.array_equal(stacked, [bianchi_b(tk, xs, ys) for tk in t])
        one_pair = bianchi_b(t, EI[0], EI[1])
        assert np.array_equal(one_pair, [bianchi_b(tk, EI[0], EI[1]) for tk in t])

    def test_residuals_are_the_worst_sample(self):
        c, _ = self._ricci()
        broken, singles = self._broken(c)
        assert ric_identity_check(broken) == max(ric_identity_check(x) for x in singles)
        assert ric_identity_check(broken) >= 0.1
        assert ricci_violations(broken) == ricci_violations(singles[49])
        t = random_admissible_torsion(default_rng(1), 50)
        t[3, 0, 1] += 1.0
        assert torsion_violations(t) == torsion_violations(t[3]) != []

    def test_curvature_tensor(self):
        c = random_admissible_ricci(default_rng(31), 10)
        rng = default_rng(31)
        singles = [curvature_tensor(random_admissible_ricci(rng)) for _ in range(10)]
        t4 = curvature_tensor(c)
        assert np.array_equal(t4, singles)
        assert np.array_equal(ricci_trace(t4), [ricci_trace(t) for t in singles])
        assert _flipped(t4, c) == set()
        for index, flipped in _BROKEN_COMPONENTS:
            components = t4.copy()
            components[(4, *index)] += 1e-3
            report = symmetry_check(components)
            assert report == {
                name: max(symmetry_check(t)[name] for t in components) for name in report
            }
            assert _flipped(components, c) == flipped, index

    def test_single_samples_keep_shape_and_type(self):
        c = random_admissible_ricci(default_rng(0))
        assert c.shape == (5, 5)
        assert type(scalar_curvature(c)) is float
        assert ricci_form(c).coeffs.shape == (10,)
        assert type(ric_identity_check(c)) is float
        assert np.ndim(bianchi_b(random_admissible_torsion(default_rng(0)), EI[0], EI[1])) == 0
        assert ricci_trace(curvature_tensor(c)).shape == (5, 5)


class TestReadOnlyInputs:
    """The curvature functions take plain arrays and never write to them: each
    runs on read-only inputs, single or stacked, and leaves them as they were."""

    @staticmethod
    def _frozen(a):
        a = np.array(a)
        a.flags.writeable = False
        return a

    @pytest.mark.parametrize("size", [None, 7])
    def test_no_function_writes_to_its_input(self, size):
        ric = random_admissible_ricci(default_rng(40), size)
        ric[..., 0, 1] += 0.25  # broken too, so the violation lists are not empty
        tau = random_admissible_torsion(default_rng(41), size)
        tau[..., 0, 1] += 0.5
        inputs = {
            "ric": self._frozen(ric),
            "tau": self._frozen(tau),
            "gc": self._frozen(curvature_tensor(ric)),
            "xs": self._frozen(HORIZONTAL_FRAME_PAIRS[0]),
            "ys": self._frozen(HORIZONTAL_FRAME_PAIRS[1]),
        }
        before = {name: a.copy() for name, a in inputs.items()}
        ric, tau, gc, xs, ys = inputs.values()
        ricci_form(ric)
        rho_plus(ric)
        scalar_curvature(ric)
        ric_identity_check(ric)
        curvature_tensor(ric)
        assert ricci_violations(ric) != []
        bianchi_b(tau, xs, ys)
        assert torsion_violations(tau) != []
        ricci_trace(gc)
        symmetry_check(gc)
        for name, a in inputs.items():
            assert not a.flags.writeable and np.array_equal(a, before[name]), name
