"""Clifford representation: generator algebra, eigenspaces, spinor bilinears.

The generator entries are Gaussian integers, so every assertion in the
algebraic sections uses exact equality.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swcheck.cliff5 import (
    GAMMA,
    PSI0,
    deta_eigenprojectors,
    gamma,
    kappa_deta,
    sigma_full,
    sigma_h,
    two_form_matrix,
)
from swcheck.extalg import INDEX_TUPLES, KForm, basis_form, deta, horizontal_split

I = 1j


def _spinors(rng, n=1):
    return rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))


def spinor_inner(u, v) -> complex:
    """Hermitian product on C^4, conjugate-linear in the second argument."""
    return complex(np.vdot(v, u))


def clifford_vector(v, psi) -> np.ndarray:
    """Clifford action (sum_i v_i kappa(e_i)) psi of a frame vector."""
    return np.tensordot(np.asarray(v, dtype=complex), GAMMA, 1) @ np.asarray(psi, dtype=complex)


class TestGenerators:
    def test_gamma1_matches_display(self):
        expected = np.array(
            [[0, I, 0, 0], [I, 0, 0, 0], [0, 0, 0, I], [0, 0, I, 0]]
        )
        assert np.array_equal(gamma(1), expected)

    def test_gamma5_matches_display(self):
        assert np.array_equal(gamma(5), np.diag([I, -I, I, -I]))

    def test_gamma2_squares_to_minus_identity(self):
        assert np.array_equal(gamma(2) @ gamma(2), -np.eye(4, dtype=complex))

    def test_anticommutators_exact(self):
        for i in range(1, 6):
            for j in range(1, 6):
                ac = gamma(i) @ gamma(j) + gamma(j) @ gamma(i)
                expected = -2 * np.eye(4, dtype=complex) if i == j else np.zeros((4, 4))
                assert np.array_equal(ac, expected), (i, j)

    def test_skew_hermitian_unitary_exact(self):
        for i in range(1, 6):
            g = gamma(i)
            assert np.array_equal(g.conj().T, -g)
            assert np.array_equal(g.conj().T @ g, np.eye(4, dtype=complex))

    def test_index_range(self):
        with pytest.raises(ValueError):
            gamma(0)
        with pytest.raises(ValueError):
            gamma(6)

    def test_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            gamma(1)[0, 0] = 5


class TestCliffordVector:
    def test_reeb_on_psi0(self):
        out = clifford_vector([0, 0, 0, 0, 1], PSI0)
        assert np.array_equal(out, -I * PSI0)

    def test_zero_vector(self):
        out = clifford_vector(np.zeros(5), PSI0)
        assert np.array_equal(out, np.zeros(4, dtype=complex))

    def test_e1_on_first_basis_spinor(self):
        out = clifford_vector([1, 0, 0, 0, 0], [1, 0, 0, 0])
        assert np.array_equal(out, np.array([0, I, 0, 0]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=5), rng.normal(size=5)
        (psi,) = _spinors(rng)
        lhs = clifford_vector(2 * v + w, psi)
        rhs = 2 * clifford_vector(v, psi) + clifford_vector(w, psi)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestCliffordTwoForm:
    def test_deta_on_psi0(self):
        out = two_form_matrix(deta()) @ PSI0
        assert np.array_equal(out, -2 * I * PSI0)

    def test_zero_form(self):
        out = two_form_matrix(KForm(2, np.zeros(10))) @ PSI0
        assert np.array_equal(out, np.zeros(4, dtype=complex))

    def test_deta_on_plus_eigenvector(self):
        out = two_form_matrix(deta()) @ np.array([0, 1, 0, 0])
        assert np.array_equal(out, np.array([0, 2 * I, 0, 0]))

    def test_kappa_deta_matrix(self):
        assert np.array_equal(kappa_deta(), np.diag([0, 2 * I, 0, -2 * I]))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            two_form_matrix(basis_form(1))


class TestEigenprojectors:
    def test_exact_values(self):
        p2, p0, pm = deta_eigenprojectors()
        assert np.array_equal(pm, np.diag([0, 0, 0, 1]).astype(complex))
        assert np.array_equal(p0, np.diag([1, 0, 1, 0]).astype(complex))
        assert np.array_equal(p2, np.diag([0, 1, 0, 0]).astype(complex))

    def test_completeness_and_ranks(self):
        p2, p0, pm = deta_eigenprojectors()
        assert np.array_equal(p2 + p0 + pm, np.eye(4, dtype=complex))
        assert [round(np.trace(p).real) for p in (p2, p0, pm)] == [1, 2, 1]

    def test_against_eigendecomposition(self):
        # Independent oracle: numpy eigendecomposition of kappa(deta).
        vals, vecs = np.linalg.eig(kappa_deta())
        for lam, proj in zip((2j, 0j, -2j), deta_eigenprojectors()):
            sel = np.abs(vals - lam) < 1e-12
            oracle = vecs[:, sel] @ vecs[:, sel].conj().T
            assert np.max(np.abs(oracle - proj)) < 1e-12

    def test_projector_identities(self):
        kd = kappa_deta()
        for lam, p in zip((2j, 0j, -2j), deta_eigenprojectors()):
            assert np.array_equal(p @ p, p)
            assert np.array_equal(kd @ p, lam * p)


class TestSigma:
    def test_sigma_h_psi0(self):
        out = sigma_h(PSI0)
        assert np.array_equal(out.coeffs, (-I * deta()).coeffs)

    def test_sigma_h_zero(self):
        assert sigma_h(np.zeros(4)).norm_inf() == 0

    @pytest.mark.parametrize("s", [-1.0, -2.0, -4.0])
    def test_sigma_h_scaled_psi0(self, s):
        psi = np.sqrt(-s) * PSI0
        out = sigma_h(psi)
        target = (I * s) * deta()
        assert (out - target).norm_inf() < 1e-14

    def test_sigma_full_diagonal_cancellation(self):
        # sigma(e_i, e_i) = <e_i e_i psi, psi> + |psi|^2 = 0.
        rng = np.random.default_rng(1)
        (psi,) = _spinors(rng)
        n2 = float(np.real(np.vdot(psi, psi)))
        for i in range(1, 6):
            val = spinor_inner(gamma(i) @ (gamma(i) @ psi), psi) + n2
            assert abs(val) < 1e-13

    def test_sigma_full_horizontal_restriction(self):
        rng = np.random.default_rng(2)
        (psi,) = _spinors(rng)
        h, _ = horizontal_split(sigma_full(psi))
        assert (h - sigma_h(psi)).norm_inf() == 0

    def test_sigma_full_brute_force_all_pairs(self):
        # Independent oracle: direct matrix evaluation over all 10 pairs,
        # including the metric term (zero off the diagonal).
        rng = np.random.default_rng(3)
        (psi,) = _spinors(rng)
        sig = sigma_full(psi)
        for pos, (i, j) in enumerate(INDEX_TUPLES[2]):
            expected = spinor_inner(gamma(i) @ (gamma(j) @ psi), psi)
            assert abs(sig.coeffs[pos] - expected) < 1e-14

    def test_sigma_pair_e1_e5(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        sig = sigma_full(psi)
        expected = spinor_inner(gamma(1) @ (gamma(5) @ psi), psi)
        assert sig.coefficient(1, 5) == expected

    def test_stacked_spinors_match_single_spinors(self):
        psis = _spinors(np.random.default_rng(5), 50)
        stacked = sigma_full(psis)
        assert stacked.coeffs.shape == (50, 10)
        assert np.array_equal(stacked.coeffs, [sigma_full(psi).coeffs for psi in psis])
        assert np.array_equal(sigma_h(psis).coeffs, [sigma_h(psi).coeffs for psi in psis])
        assert sigma_full(psis[0]).coeffs.shape == (10,)

    def test_coefficients_purely_imaginary(self):
        rng = np.random.default_rng(4)
        for psi in _spinors(rng, 50):
            sig = sigma_full(psi)
            assert np.max(np.abs(sig.coeffs.real)) < 1e-14

    @given(
        lam=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sigma_h_quadratic_scaling(self, lam, seed):
        rng = np.random.default_rng(seed)
        (psi,) = _spinors(rng)
        lhs = sigma_h(lam * psi)
        rhs = (abs(lam) ** 2) * sigma_h(psi)
        assert (lhs - rhs).norm_inf() < 1e-10 * max(1.0, abs(lam) ** 2)

    def test_sigma_antisymmetric_on_random_frame_pairs(self):
        rng = np.random.default_rng(6)
        (psi,) = _spinors(rng)
        sig = sigma_full(psi)
        # sigma(x, y) = x . m . y on frame vectors, m[i, j] = sigma(e_i, e_j).
        m = np.array([[sig.coefficient(i, j) for j in range(1, 6)] for i in range(1, 6)])
        for _ in range(20):
            x, y = rng.normal(size=5), rng.normal(size=5)
            assert abs(x @ m @ y + y @ m @ x) < 1e-12


class TestInnerProductConvention:
    def test_conjugate_linear_in_second_slot(self):
        u = np.array([1, 0, 0, 0], dtype=complex)
        v = np.array([2j, 0, 0, 0], dtype=complex)
        assert spinor_inner(u, v) == -2j
        assert spinor_inner(v, u) == 2j

    def test_convention_is_forced_by_sigma_identity(self):
        # The opposite linearity convention would give +i deta here.
        out = sigma_h(PSI0)
        assert out.coefficient(1, 2) == -I
