"""Exterior algebra: wedge, Hodge star, contact star, SD/ASD split."""

import numpy as np
import pytest

from swcheck.extalg import (
    CONTACT_STAR,
    INDEX_TUPLES,
    PAIR_INDEX,
    STAR,
    VERTICAL,
    WEDGE,
    KForm,
    anti_self_dual_basis,
    basis_form,
    contact_star,
    deta,
    form_inner,
    hodge_star,
    horizontal_split,
    sd_project,
    self_dual_basis,
    volume_form,
    wedge,
)


def _eq(a: KForm, b: KForm) -> bool:
    return a.degree == b.degree and np.array_equal(a.coeffs, b.coeffs)


class TestTables:
    def test_entries_are_signs_and_read_only(self):
        for table in [*WEDGE.values(), *STAR.values(), CONTACT_STAR]:
            assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 2.0

    def test_wedge_table_shapes_and_basis_products(self):
        for (ka, kb), table in WEDGE.items():
            n = [len(INDEX_TUPLES[k]) for k in (ka, kb, ka + kb)]
            assert table.shape == tuple(n)
            # Each pair of disjoint basis forms lands on exactly one basis form.
            hits = np.abs(table).sum(axis=2)
            for p, a in enumerate(INDEX_TUPLES[ka]):
                for q, b in enumerate(INDEX_TUPLES[kb]):
                    assert hits[p, q] == (0 if set(a) & set(b) else 1)

    def test_vertical_mask_and_pair_index(self):
        for k in range(6):
            assert VERTICAL[k].tolist() == [5 in t for t in INDEX_TUPLES[k]]
        assert [(i + 1, j + 1) for i, j in zip(*PAIR_INDEX)] == list(INDEX_TUPLES[2])

    def test_contact_star_is_an_involution_on_horizontal_forms(self):
        horizontal = np.diag(~VERTICAL[2]).astype(float)
        assert np.array_equal(CONTACT_STAR @ CONTACT_STAR, horizontal)
        assert not np.any(CONTACT_STAR[:, VERTICAL[2]])


class TestWedge:
    def test_basis_product(self):
        assert _eq(wedge(basis_form(1), basis_form(2)), basis_form(1, 2))

    def test_square_is_zero(self):
        assert wedge(basis_form(1), basis_form(1)).norm_inf() == 0

    def test_volume_from_parts(self):
        # (e1^e2) ^ (e3^e4) ^ eta: the identity permutation, coefficient +1.
        v = wedge(wedge(basis_form(1, 2), basis_form(3, 4)), basis_form(5))
        assert _eq(v, volume_form())

    def test_graded_commutativity(self):
        rng = np.random.default_rng(0)
        for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            a = KForm(ka, rng.normal(size=len(INDEX_TUPLES[ka])).astype(complex))
            b = KForm(kb, rng.normal(size=len(INDEX_TUPLES[kb])).astype(complex))
            lhs = wedge(a, b)
            rhs = (-1.0) ** (ka * kb) * wedge(b, a)
            assert (lhs - rhs).norm_inf() < 1e-14

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a = KForm(1, rng.normal(size=5).astype(complex))
        b = KForm(1, rng.normal(size=5).astype(complex))
        c = KForm(2, rng.normal(size=10).astype(complex))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).norm_inf() < 1e-14

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            wedge(volume_form(), basis_form(1))


class TestHodgeStar:
    def test_examples(self):
        assert _eq(hodge_star(wedge(basis_form(1, 2), basis_form(5))), basis_form(3, 4))
        assert _eq(hodge_star(volume_form()), KForm(0, [1]))
        assert _eq(hodge_star(wedge(basis_form(1, 3), basis_form(5))), (-1) * basis_form(2, 4))

    def test_involution_all_32_basis_forms(self):
        # In dimension 5 with Euclidean signature k(5-k) is even for all k.
        for k in range(6):
            for idx in INDEX_TUPLES[k]:
                b = basis_form(*idx)
                assert _eq(hodge_star(hodge_star(b)), b)

    def test_defining_property_exact_on_basis(self):
        vol = volume_form()
        for k in range(6):
            for idx in INDEX_TUPLES[k]:
                b = basis_form(*idx)
                assert _eq(wedge(b, hodge_star(b)), vol)

    def test_defining_property_random_real_forms(self):
        rng = np.random.default_rng(7)
        vol = volume_form()
        for k in range(6):
            for _ in range(20):
                c = rng.normal(size=len(INDEX_TUPLES[k]))
                a = KForm(k, c.astype(complex))
                expected = float(np.dot(c, c)) * vol
                assert (wedge(a, hodge_star(a)) - expected).norm_inf() < 1e-13


class TestHorizontalSplit:
    def test_pure_vertical(self):
        a = basis_form(1, 5)
        h, v = horizontal_split(a)
        assert h.norm_inf() == 0
        assert _eq(v, a)

    def test_pure_horizontal(self):
        a = basis_form(1, 2)
        h, v = horizontal_split(a)
        assert _eq(h, a)
        assert v.norm_inf() == 0

    def test_mixed(self):
        a = basis_form(1, 2) + 3 * basis_form(3, 5)
        h, v = horizontal_split(a)
        assert _eq(h, basis_form(1, 2))
        assert _eq(v, 3 * basis_form(3, 5))
        assert _eq(h + v, a)

    def test_idempotent_linear(self):
        rng = np.random.default_rng(3)
        a = KForm(2, (rng.normal(size=10) + 1j * rng.normal(size=10)))
        h, v = horizontal_split(a)
        h2, v2 = horizontal_split(h)
        assert _eq(h2, h) and v2.norm_inf() == 0
        hs, _ = horizontal_split(2.5 * a)
        assert (hs - 2.5 * h).norm_inf() == 0

    def test_degree_check(self):
        with pytest.raises(ValueError):
            horizontal_split(basis_form(1))


class TestContactStar:
    def test_examples(self):
        assert _eq(contact_star(basis_form(1, 2)), basis_form(3, 4))
        assert _eq(contact_star(deta()), deta())
        assert _eq(contact_star(basis_form(1, 3)), (-1) * basis_form(2, 4))

    def test_involution_on_horizontal_basis(self):
        for idx in INDEX_TUPLES[2]:
            if 5 in idx:
                continue
            b = basis_form(*idx)
            assert _eq(contact_star(contact_star(b)), b)

    def test_rejects_vertical_input(self):
        with pytest.raises(ValueError):
            contact_star(basis_form(1, 5))
        with pytest.raises(ValueError):
            contact_star(basis_form(1))


class TestSelfDualProjection:
    def test_deta_is_self_dual(self):
        p, m = sd_project(deta())
        assert _eq(p, deta())
        assert m.norm_inf() == 0

    def test_asd_example(self):
        # e1^e4 - e2^e3 is anti-self-dual.
        b = basis_form(1, 4) - basis_form(2, 3)
        p, m = sd_project(b)
        assert p.norm_inf() == 0
        assert _eq(m, b)

    def test_projector_formula(self):
        b = basis_form(1, 2)
        p, m = sd_project(b)
        assert _eq(p, 0.5 * (basis_form(1, 2) + basis_form(3, 4)))
        assert _eq(m, 0.5 * (basis_form(1, 2) - basis_form(3, 4)))

    def test_eigenbases(self):
        sd, asd = self_dual_basis(), anti_self_dual_basis()
        assert sd.coeffs.shape == asd.coeffs.shape == (3, 10)
        assert (contact_star(sd) - sd).norm_inf() == 0
        assert (contact_star(asd) + asd).norm_inf() == 0

    def test_bases_span_three_dimensions_each(self):
        sd = self_dual_basis().coeffs
        asd = anti_self_dual_basis().coeffs
        assert np.linalg.matrix_rank(sd) == 3
        assert np.linalg.matrix_rank(asd) == 3
        assert np.max(np.abs(sd @ asd.conj().T)) == 0

    def test_orthogonality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = (rng.normal(size=10) + 1j * rng.normal(size=10))
            for pos, idx in enumerate(INDEX_TUPLES[2]):
                if 5 in idx:
                    c[pos] = 0
            beta = KForm(2, c)
            p, m = sd_project(beta)
            assert abs(form_inner(p, m)) < 1e-14
            assert (p + m - beta).norm_inf() < 1e-15
            assert (contact_star(p) - p).norm_inf() < 1e-15
            assert (contact_star(m) + m).norm_inf() < 1e-15


class TestEvaluate:
    def test_two_form_on_frame_vectors(self):
        assert deta().coefficient(1, 2) == 1
        assert deta().coefficient(3, 4) == 1
        assert deta().coefficient(1, 3) == 0
        assert deta().coefficient(5, 1) == 0

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        a = KForm(2, (rng.normal(size=10) + 1j * rng.normal(size=10)))
        for i in range(1, 6):
            assert a.coefficient(i, i) == 0
            for j in range(1, 6):
                assert a.coefficient(i, j) == -a.coefficient(j, i)

    def test_signed_coefficient(self):
        a = basis_form(1, 3)
        assert a.coefficient(1, 3) == 1
        assert a.coefficient(3, 1) == -1
        assert a.coefficient(1, 1) == 0


class TestStacks:
    """A stack of 50 forms gives exactly the 50 results of the single forms."""

    @staticmethod
    def _stack(k, seed, horizontal=False):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(50, len(INDEX_TUPLES[k]), 2)) @ [1, 1j]
        if horizontal:
            c[:, VERTICAL[k]] = 0
        return KForm(k, c)

    @staticmethod
    def _each(stack):
        return [KForm(stack.degree, c) for c in stack.coeffs]

    def test_wedge_and_hodge_star(self):
        for ka in range(6):
            a = self._stack(ka, seed=ka)
            star = hodge_star(a)
            assert star.coeffs.shape == (50, len(INDEX_TUPLES[5 - ka]))
            assert np.array_equal(star.coeffs, [hodge_star(x).coeffs for x in self._each(a)])
            for kb in range(6 - ka):
                b = self._stack(kb, seed=10 + kb)
                pairs = zip(self._each(a), self._each(b))
                assert np.array_equal(wedge(a, b).coeffs, [wedge(x, y).coeffs for x, y in pairs])

    def test_contact_star_sd_project_and_inner(self):
        beta = self._stack(2, seed=20, horizontal=True)
        gamma = self._stack(2, seed=21, horizontal=True)
        singles = self._each(beta)
        assert np.array_equal(contact_star(beta).coeffs, [contact_star(x).coeffs for x in singles])
        plus, minus = sd_project(beta)
        assert np.array_equal(plus.coeffs, [sd_project(x).plus.coeffs for x in singles])
        assert np.array_equal(minus.coeffs, [sd_project(x).minus.coeffs for x in singles])
        inner = form_inner(beta, gamma)
        assert inner.shape == (50,)
        assert np.array_equal(inner, [form_inner(x, y) for x, y in zip(singles, self._each(gamma))])

    def test_scalar_stack_times_form(self):
        s = np.array([-1.0, 0.5, 2.0])
        scaled = s * deta()
        assert scaled.coeffs.shape == (3, 10)
        assert np.array_equal(scaled.coeffs, [(x * deta()).coeffs for x in s])
        assert (deta() * s - scaled).norm_inf() == 0

    def test_single_forms_keep_shape_and_type(self):
        a = basis_form(1)
        assert wedge(a, basis_form(2)).coeffs.shape == (10,)
        assert hodge_star(a).coeffs.shape == (5,)
        plus, _ = sd_project(deta())
        assert plus.coeffs.shape == (10,)
        assert type(form_inner(deta(), deta())) is complex
        assert type(deta().norm_inf()) is float
