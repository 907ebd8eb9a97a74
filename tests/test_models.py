"""Model charts: Heisenberg validators, the pointwise model of the canonical
solution, model files."""

import contextlib
import io
import itertools
import json
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from swcheck import cli, curvature, models
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
from swcheck.extalg import INDEX_TUPLES, PAIR_INDEX, WEDGE, deta
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
from swcheck.poly import ZERO, PolyExpr, dot, evaluate_all, max_abs

POINTS = sample_points(100, seed=10)
SHEARED_CHART_3 = Path(__file__).parent / "data" / "sheared_chart_3.json"
ON_BOTH_CHARTS = pytest.mark.parametrize(
    "chart", ["heisenberg", SHEARED_CHART_3], ids=["heisenberg", "sheared_chart_3"]
)


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
        val = dot(frame.fields[0].components, d.contract(frame.fields[1]))
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


def _perturbed(frame: FrameFieldSet) -> FrameFieldSet:
    """The frame with J[0][2] shifted by 1e-3*y2, as ``model --perturb 1e-3`` does."""
    jrows = [list(row) for row in frame.jmat]
    jrows[0][2] = jrows[0][2] + 1e-3 * PolyExpr.variable("y2")
    return FrameFieldSet(frame.name, frame.fields, frame.eta, tuple(map(tuple, jrows)))


def _field_set(name: str) -> list[VectorFieldPoly]:
    """Nonzero test fields: the Heisenberg frame, random fields, or the
    distinct nonzero fields e_i and J e_i of sheared_chart_3, clean or with J
    perturbed."""
    if name == "heisenberg":
        return list(heisenberg5().frame.fields)
    if name == "random":
        rng = np.random.default_rng(600)
        return [VectorFieldPoly(_rand_form(rng, 1, 2).coeffs) for _ in range(5)]
    frame = load_model(SHEARED_CHART_3).frame
    if name.endswith("perturbed"):
        frame = _perturbed(frame)
    return [x for x in dict.fromkeys(frame.span[:10]) if not _is_zero(x)]


FIELD_SETS = pytest.mark.parametrize(
    "fields",
    ["heisenberg", "random", "sheared_chart_3", "sheared_chart_3_perturbed"],
    indirect=True,
)


@pytest.fixture(scope="module")
def fields(request):
    return _field_set(request.param)


class TestLieBracket:
    """The bracket from cached Jacobians against its definition and identities."""

    @FIELD_SETS
    def test_bracket_is_the_commutator_of_derivations(self, fields):
        # [X, Y]_c = X(Y_c) - Y(X_c), by the directional derivatives of apply.
        for x, y in itertools.product(fields, repeat=2):
            by_apply = [x.apply(yc) - y.apply(xc) for xc, yc in zip(x.components, y.components)]
            assert list(lie_bracket(x, y).components) == by_apply

    @FIELD_SETS
    def test_bracket_antisymmetry_and_jacobi_exact(self, fields):
        f = fields
        br = {(i, j): lie_bracket(f[i], f[j]) for i in range(len(f)) for j in range(len(f))}
        for i, j in br:
            assert _is_zero(br[i, j] + br[j, i])
        assert any(not _is_zero(b) for b in br.values())
        for i, j, k in itertools.combinations(range(len(f)), 3):
            jac = (
                lie_bracket(f[i], br[j, k])
                + lie_bracket(f[j], br[k, i])
                + lie_bracket(f[k], br[i, j])
            )
            assert _is_zero(jac), (i, j, k)

    def test_jacobian_is_built_once(self):
        x = _field_set("random")[0]
        assert x.jacobian is x.jacobian
        assert x.jacobian == tuple(tuple(c.diff(d) for d in range(5)) for c in x.components)


def _wedge_by_pairs(a: CoordForm, b: CoordForm) -> tuple[PolyExpr, ...]:
    """The coefficients of a ^ b, adding one signed product at a time: the
    reference for ``CoordForm.wedge``."""
    table = WEDGE[a.degree, b.degree]
    out = [ZERO] * table.shape[2]
    for p, q, r in zip(*np.nonzero(table)):
        prod = a.coeffs[p] * b.coeffs[q]
        out[r] = out[r] + prod if table[p, q, r] > 0 else out[r] - prod
    return tuple(out)


def _d_by_pairs(form: CoordForm) -> tuple[PolyExpr, ...]:
    """The coefficients of d(form), adding one signed partial derivative at a
    time: the reference for ``exterior_d``."""
    table = WEDGE[1, form.degree]
    out = [ZERO] * table.shape[2]
    for v, p, r in zip(*np.nonzero(table)):
        dc = form.coeffs[p].diff(int(v))
        out[r] = out[r] + dc if table[v, p, r] > 0 else out[r] - dc
    return tuple(out)


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

    def test_d_of_a_five_form_is_a_degree_overflow(self):
        with pytest.raises(ValueError, match="degree overflow"):
            exterior_d(_rand_form(np.random.default_rng(2), 5))

    @pytest.mark.parametrize("ka, kb", [(ka, kb) for ka in range(6) for kb in range(6 - ka)])
    def test_wedge_and_d_match_pairwise_sums(self, ka, kb):
        rng = np.random.default_rng(700 + 6 * ka + kb)
        for _ in range(3):
            a, b = _rand_form(rng, ka), _rand_form(rng, kb)
            assert a.wedge(b).coeffs == _wedge_by_pairs(a, b)
            if ka < 5:
                assert exterior_d(a).coeffs == _d_by_pairs(a)

    @pytest.mark.parametrize("perturb", [False, True], ids=["clean", "perturbed"])
    def test_wedge_and_d_match_pairwise_sums_on_a_chart(self, perturb):
        # The chart's eta and deta, and the 1-forms with the components of
        # its fields e_i and J e_i.
        frame = load_model(SHEARED_CHART_3).frame
        if perturb:
            frame = _perturbed(frame)
        eta, deta = frame.eta, frame.deta
        assert deta.coeffs == _d_by_pairs(eta)
        assert frame.contact_volume == _wedge_by_pairs(eta.wedge(deta), deta)[0]
        forms = [CoordForm(1, x.components) for x in frame.span[:10]]
        for a, b in itertools.combinations(forms, 2):
            assert a.wedge(b).coeffs == _wedge_by_pairs(a, b)
            assert a.wedge(b).wedge(deta).coeffs == _wedge_by_pairs(a.wedge(b), deta)
        for a in forms:
            assert exterior_d(a).coeffs == _d_by_pairs(a)

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
            lhs = dot(x.components, exterior_d(alpha).contract(y))
            rhs = (
                x.apply(alpha.pair_vector(y))
                - y.apply(alpha.pair_vector(x))
                - alpha.pair_vector(lie_bracket(x, y))
            )
            assert not lhs.is_zero()
            assert lhs == rhs


def _pair_two_by_minors(form: CoordForm, x: VectorFieldPoly, y: VectorFieldPoly) -> PolyExpr:
    """form(x, y) by the 2x2 minors x_i y_j - x_j y_i, the reference for
    ``CoordForm.contract``."""
    xs, ys = x.components, y.components
    minors = (
        ZERO if c.is_zero() else xs[i] * ys[j] - xs[j] * ys[i]
        for c, i, j in zip(form.coeffs, *PAIR_INDEX)
    )
    return dot(form.coeffs, minors)


class TestSharedTables:
    """The antisymmetric tables of FrameFieldSet and the deta contraction."""

    @ON_BOTH_CHARTS
    def test_bracket_table_is_the_lie_bracket(self, chart):
        # Only a < b is a Lie bracket; [x, x] and [y, x] = -[x, y] are not.
        frame = load_model(chart).frame
        for a in range(10):
            for b in range(10):
                assert frame.bracket[a, b] == lie_bracket(frame.span[a], frame.span[b]), (a, b)

    @ON_BOTH_CHARTS
    def test_contraction_matches_minor_expansion(self, chart):
        frame = load_model(chart).frame
        pairs = [(a, b) for a in range(15) for b in range(15)]
        by_slot = [dot(frame.span[a].components, frame.deta_slot[b]) for a, b in pairs]
        by_minors = [
            _pair_two_by_minors(frame.deta, frame.span[a], frame.span[b]) for a, b in pairs
        ]
        points = sample_points(50, seed=7)
        assert max_abs(evaluate_all(by_minors, points)) >= 1.0
        assert max_abs(evaluate_all(by_slot, points) - evaluate_all(by_minors, points)) <= 1e-14

    def test_contraction_is_exact_on_integer_forms(self):
        # Gaussian-integer coefficients keep every sum exact, so the two
        # orders of summation agree term by term.
        rng = np.random.default_rng(500)
        for _ in range(10):
            form = _rand_form(rng, 2)
            x, y = (VectorFieldPoly(_rand_form(rng, 1).coeffs) for _ in range(2))
            value = dot(x.components, form.contract(y))
            assert not value.is_zero()
            assert value == _pair_two_by_minors(form, x, y)

    def test_contract_needs_a_two_form(self, heis):
        frame, _ = heis
        with pytest.raises(ValueError, match="2-form"):
            frame.eta.contract(frame.reeb)

    @pytest.mark.parametrize(
        "name", ["heisenberg", "sheared_chart_3", "perturbed", "negated_e2_e4"]
    )
    def test_tables_shared_up_to_sign_equal_their_definitions(self, name):
        # The tables read a field equal to another up to sign from that
        # field's entries, negated.  With e2 and e4 negated, J e1 == -e2.
        frame = heisenberg5().frame if name == "heisenberg" else load_model(SHEARED_CHART_3).frame
        if name == "perturbed":
            frame = _perturbed(frame)
        elif name == "negated_e2_e4":
            e1, e2, e3, e4, xi = frame.fields
            frame = FrameFieldSet(frame.name, (e1, -e2, e3, -e4, xi), frame.eta, frame.jmat)
        span = frame.span
        shared = [a for a, (r, s) in enumerate(frame.sign) if r != a]
        # Perturbed, only J e4 == -e3 (so J J e4 == -J e3) and
        # J J Reeb == J Reeb == 0 are left.
        assert shared if name != "perturbed" else shared == [8, 13, 14]
        if name == "negated_e2_e4":
            assert frame.sign[5] == (1, -1)
        for a, (r, s) in enumerate(frame.sign):
            assert span[a] == (span[r] if s > 0 else -span[r])
            assert r == min(k for k in range(15) if span[k] in (span[a], -span[a]))

        def g(x, y):
            eta_x, eta_y = frame.eta.pair_vector(x), frame.eta.pair_vector(y)
            return dot(x.components + (eta_x,), frame.deta.contract(frame.j_apply(y)) + (eta_y,))

        for a in range(10):
            assert span[a + 5] == frame.j_apply(span[a]), a
            assert frame.deta_slot[a] == frame.deta.contract(span[a]), a
            for b in range(10):
                assert frame.bracket[a, b] == lie_bracket(span[a], span[b]), (a, b)
                assert frame.webster(a, b) == g(span[a], span[b]), (a, b)

    @staticmethod
    def _symbolic_calls(monkeypatch, *options) -> tuple[int, Counter]:
        """Exit code and symbolic calls of one ``model`` run on sheared_chart_3.
        ``jacobian`` counts the Jacobians built, each of a field unequal to the
        others by value and up to sign."""
        counts = Counter()
        built = []

        def recording(name, f):
            def wrapped(*args):
                counts[name] += 1
                if name == "jacobian":
                    built.append(args[0])
                return f(*args)

            return wrapped

        monkeypatch.setattr(models, "lie_bracket", recording("lie_bracket", lie_bracket))
        monkeypatch.setattr(
            models, "_nijenhuis_contact", recording("nijenhuis", models._nijenhuis_contact)
        )
        monkeypatch.setattr(VectorFieldPoly, "apply", recording("apply", VectorFieldPoly.apply))
        monkeypatch.setattr(FrameFieldSet, "j_apply", recording("j_apply", FrameFieldSet.j_apply))
        monkeypatch.setattr(PolyExpr, "diff", recording("diff", PolyExpr.diff))
        jacobian = cached_property(recording("jacobian", VectorFieldPoly.jacobian.func))
        jacobian.__set_name__(VectorFieldPoly, "jacobian")
        monkeypatch.setattr(VectorFieldPoly, "jacobian", jacobian)
        argv = ["model", "--model", str(SHEARED_CHART_3), "--samples", "50", "--seed", "7"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv + list(options))
        assert len(set(built) | {-x for x in built}) == 2 * len(built)
        return code, counts

    def test_symbolic_calls_of_one_model_run(self, monkeypatch):
        # J e1 == e2 and J e3 == e4, so J e2 == -e1 and J e4 == -e3: the 10
        # fields e_i, J e_i are e1..e4, Reeb and the zero field up to sign.
        # Each bracket is built once per unordered pair of those, the 10 pairs
        # of e1..e4, Reeb, and each N(e_j, e_l) once per unordered pair.  Each
        # of the 5 fields builds one Jacobian, 25 derivatives; the 5 eta(e_j)
        # and 15 g(e_i, e_j) that axioms (a) and (b) read are constants, which
        # are not differentiated; deta takes 20.  J is applied to
        # e1..e4 and Reeb once each, and every other J-image is one of theirs
        # up to sign.  No bracket or axiom calls apply.
        assert self._symbolic_calls(monkeypatch) == (
            0,
            {"lie_bracket": 10, "nijenhuis": 10, "j_apply": 5, "jacobian": 5, "diff": 145},
        )

    def test_symbolic_calls_of_one_failing_model_run(self, monkeypatch):
        # With J perturbed, only J e4 == -e3 is left: the 8 fields e1..e4,
        # Reeb, J e1..J e3 build their Jacobians.  Each N(e_j, e_l) maps
        # [JY, Z] + [Y, JZ] with one J-image; for the 6 horizontal pairs that
        # is the field cr_check maps, so cr_check builds no J-image of its own.
        # Six of the 15 g(e_i, e_j) are no longer constant, 5 derivatives each.
        assert self._symbolic_calls(monkeypatch, "--perturb", "1e-3") == (
            1,
            {"lie_bracket": 26, "nijenhuis": 10, "j_apply": 14, "jacobian": 8, "diff": 250},
        )


def _measured(families, points, evaluate=evaluate_all) -> dict[str, float]:
    """The largest modulus of each residual family at the points."""
    return {name: max_abs(evaluate(polys, points)) for name, polys in families.items()}


class TestContactCheck:
    def test_heisenberg_passes(self, heis):
        frame, _ = heis
        report = _measured(contact_check(frame), POINTS)
        assert np.min(np.abs(evaluate_all([frame.contact_volume], POINTS))) == pytest.approx(2.0)
        assert all(v <= 1e-12 for v in report.values()), report

    def test_scaled_frame_fails_orthonormality(self, heis):
        frame, _ = heis
        fields = list(frame.fields)
        fields[1] = fields[1].scale(2)
        broken = FrameFieldSet(frame.name, tuple(fields), frame.eta, frame.jmat)
        report = _measured(contact_check(broken), POINTS[:20])
        assert report["frame_orthonormality"] >= 1.0

    def test_reeb_exact(self, heis):
        frame, _ = heis
        report = _measured(contact_check(frame), POINTS[:5])
        assert report["reeb_normalization"] == 0.0


def _model_residuals(bundle, points, evaluate=evaluate_all):
    """Each check's measured families, and the least contact volume."""
    frame = bundle.frame
    families = {
        **contact_check(frame),
        **tw_axiom_check(frame, bundle.connection),
        **cr_check(frame),
    }
    volume = evaluate([frame.contact_volume], points)
    return {**_measured(families, points, evaluate), "contact_volume_min": np.min(np.abs(volume))}


class TestDecimalChart:
    @pytest.mark.parametrize("j02", [None, "1e-3*y2"])
    def test_residuals_match_pointwise_evaluation(self, j02, sheared_chart):
        if j02:
            sheared_chart["J"][0][2] = j02
        bundle = load_model(sheared_chart)
        points = sample_points(40, seed=3)
        residuals = _model_residuals(bundle, points)

        def by_call(polys, pts):
            return np.array([[p(x) for p in polys] for x in pts], dtype=complex).reshape(
                len(pts), len(polys)
            )

        reference = _model_residuals(bundle, points, by_call)
        assert residuals.keys() == reference.keys()
        for name, value in residuals.items():
            assert abs(value - reference[name]) <= 1e-15 * max(reference[name], 1e-15), name
        # The clean chart's residuals cancel exactly; the perturbed chart's do
        # not, so that comparison is not between zeros.
        residuals.pop("contact_volume_min")
        assert (max(residuals.values()) > 0) == bool(j02)

    @staticmethod
    def _live_residuals(data) -> list[int]:
        """Nonzero residual polynomials that contact_check, tw_axiom_check and
        cr_check build on the chart of a model-file dict, one count per check."""
        bundle = load_model(data)
        live = []
        for families in (
            contact_check(bundle.frame),
            tw_axiom_check(bundle.frame, bundle.connection),
            cr_check(bundle.frame),
        ):
            assert families
            live.append(sum(not e.is_zero() for f in families.values() for e in f))
        return live

    def test_residual_families_cancel_exactly(self):
        # Every residual polynomial the three checks build on the decimal
        # chart is exactly zero, so none is evaluated.  On the perturbed
        # chart each check builds live ones.
        data = json.loads(SHEARED_CHART_3.read_text())
        assert self._live_residuals(data) == [0, 0, 0]
        data["J"][0][2] = "1e-3*y2"
        assert all(self._live_residuals(data))

    def test_numbers_and_strings_of_one_value_cancel(self):
        # The Heisenberg chart in the coordinate x2' = x2 + 0.1*x1: e1 gets
        # the constant component 0.1 along x2', written as a JSON number,
        # while eta and J carry 0.1 in strings.  eta(e1) and J e1 - e2
        # vanish only if the number and the strings are one exact value.
        data = {
            "eta": ["0.1*y2 - y1", 0, "-y2", 0, 1],
            "xi": [0, 0, 0, 0, 1],
            "frame": [
                [1, 0, 0.1, 0, "y1"],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, "y2"],
                [0, 0, 0, 1, 0],
            ],
            "J": [
                [0, -1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [0, "-0.1", 0, -1, 0],
                ["-0.1", 0, 1, 0, 0],
                [0, "-y1", 0, "-y2", 0],
            ],
        }
        assert self._live_residuals(data) == [0, 0, 0]
        report = _model_residuals(load_model(data), sample_points(20, seed=1))
        assert report.pop("contact_volume_min") > 0
        assert set(report.values()) == {0.0}

    def test_passes(self, sheared_chart):
        report = _model_residuals(load_model(sheared_chart), sample_points(40, seed=3))
        assert report.pop("contact_volume_min") >= 1e-9
        assert all(v <= 1e-12 for v in report.values()), report

    def test_perturbed_j_fails(self, sheared_chart):
        sheared_chart["J"][0][2] = "1e-3*y2"
        bundle = load_model(sheared_chart)
        points = sample_points(40, seed=3)
        for families in (
            contact_check(bundle.frame),
            tw_axiom_check(bundle.frame, bundle.connection),
            cr_check(bundle.frame),
        ):
            report = _measured(families, points)
            assert max(report.values()) > 1e-12, report


class TestLiveFamilies:
    """On a failing chart, the residual families that share their dense terms
    are, polynomial for polynomial, their definitions written out."""

    @pytest.mark.parametrize("chart", ["sheared_chart_3", "tilted_reeb"])
    def test_families_equal_their_definitions(self, chart, model_to_dict):
        if chart == "tilted_reeb":
            # The Heisenberg chart with Reeb field d/dt + 0.3*x1 d/dx2, where
            # deta(e4, Reeb) = -0.3*x1.
            data = model_to_dict(heisenberg5())
            data["xi"] = [0, 0, "0.3*x1", 0, 1]
            data["J"][0][2] = "0.001*y2"
        else:
            data = json.loads(SHEARED_CHART_3.read_text())
            data["J"][0][2] = "1e-3*y2"
        bundle = load_model(data)
        frame = bundle.frame
        families = {**contact_check(frame), **tw_axiom_check(frame, bundle.connection)}
        jay, e = frame.j_apply, frame.fields

        def eta(x):
            return frame.eta.pair_vector(x)

        def deta(x, y):
            return _pair_two_by_minors(frame.deta, x, y)

        def webster(x, y):
            return deta(x, jay(y)) + eta(x) * eta(y)

        def nijenhuis(y, z):
            n = jay(jay(lie_bracket(y, z))) + lie_bracket(jay(y), jay(z))
            n = n - jay(lie_bracket(y, jay(z))) - jay(lie_bracket(jay(y), z))
            return n + frame.reeb.scale(deta(y, z))

        pairs = [(i, j) for i in range(5) for j in range(5)]
        j_invariance = [
            webster(jay(e[i]), jay(e[j])) - webster(e[i], e[j]) + eta(e[i]) * eta(e[j])
            for i, j in pairs
        ]
        assert families["metric_J_invariance"] == j_invariance
        assert any(not p.is_zero() for p in j_invariance)
        # The connection is flat, so each (d) residual is -(1/2) deta(e_k, N_h)
        # for N_h = N - eta(N) Reeb.  The part eta(N) deta(e_k, Reeb) is
        # nonzero only on the tilted chart.
        n = {(j, l): nijenhuis(e[j], e[l]) for j, l in pairs}
        reeb_part = [eta(n[p]) * deta(x, frame.reeb) for p in pairs for x in e]
        assert any(not r.is_zero() for r in reeb_part) == (chart == "tilted_reeb")
        axiom_d = [
            deta(e[k], n[j, l] - frame.reeb.scale(eta(n[j, l]))) * -0.5
            for k in range(5)
            for j, l in pairs
        ]
        assert families["axiom_d_parallel_J"] == axiom_d
        assert any(not p.is_zero() for p in axiom_d)


class TestTanakaWebsterAxioms:
    def test_heisenberg_passes_all_axioms(self, heis):
        frame, conn = heis
        report = _measured(tw_axiom_check(frame, conn), POINTS)
        assert all(v <= 1e-12 for v in report.values()), report

    def test_horizontal_torsion_value(self, heis):
        # T(e1, e2) = -[e1, e2] = +Reeb = deta(e1, e2) Reeb with Gamma = 0,
        # where every nabla_{e_i} e_j vanishes.
        frame, conn = heis
        assert conn == ConnectionCoefficients.flat()
        tvec = -lie_bracket(frame.fields[0], frame.fields[1])
        assert [str(c) for c in tvec.components] == ["0", "0", "0", "0", "1"]

    def test_torsion_endomorphism_vanishes(self, heis):
        # tau(e_j) = T(Reeb, e_j) = -[Reeb, e_j] with Gamma = 0 is the zero
        # polynomial field for every j.
        frame, conn = heis
        assert conn == ConnectionCoefficients.flat()
        for j in range(5):
            tvec = -lie_bracket(frame.reeb, frame.fields[j])
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
        report = _measured(tw_axiom_check(frame, conn), POINTS[:10])
        assert report["axiom_b_parallel_metric"] >= 1.9


    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "perturbed"])
    @ON_BOTH_CHARTS
    def test_christoffel_terms_are_the_frame_matrix_products(
        self, chart, perturbed, seed, random_poly
    ):
        # Each family with the symbols Gamma_k[j][m] = gamma[k][j][m], minus
        # the family of the flat connection, is exactly what the symbols add:
        # (a) -Gamma_k eta, then nabla_k e_5 = Gamma_k[4] F, where row m of F
        #     holds the components of e_m;
        # (b) -(Gamma_k g)[i][j] - (Gamma_k g^T)[j][i] for i <= j, where g is
        #     not symmetric once J is perturbed;
        # (c) the nabla fields of the torsion, (Gamma_i[j] - Gamma_j[i]) F;
        # (d) (J^T Gamma_k g - Gamma_k J^T g)[j][l], J the constant J_FRAME.
        frame = load_model(chart).frame
        if perturbed:  # as the model suite perturbs J
            jrows = [list(row) for row in frame.jmat]
            jrows[0][2] = jrows[0][2] + 1e-3 * PolyExpr.variable("y2")
            frame = FrameFieldSet(frame.name, frame.fields, frame.eta, tuple(map(tuple, jrows)))
        rng = default_rng(seed)
        # About 30% of the 125 symbols are random complex polynomials of degree <= 2.
        symbols = [random_poly(rng, 2) if rng.random() < 0.3 else ZERO for _ in range(125)]
        gam = [[symbols[25 * k + 5 * j : 25 * k + 5 * j + 5] for j in range(5)] for k in range(5)]
        conn = ConnectionCoefficients(
            tuple(tuple(map(tuple, plane)) for plane in gam), ConnectionCoefficients.flat().a_form
        )
        flat = tw_axiom_check(frame, ConnectionCoefficients.flat())
        got = {
            name: [p - q for p, q in zip(family, flat[name], strict=True)]
            for name, family in tw_axiom_check(frame, conn).items()
        }

        def mul(a, b):
            return [[dot(row, col) for col in zip(*b)] for row in a]

        g = [[frame.metric[i, j] for j in range(5)] for i in range(5)]
        g_t = [list(col) for col in zip(*g)]
        f = [list(x.components) for x in frame.fields]
        j_t = [[PolyExpr.const(x) for x in col] for col in curvature.J_FRAME.T]
        eta = frame.eta_span[:5]
        a, b, d = [], [], []
        for k, gk in enumerate(gam):
            a += [-dot(row, eta) for row in gk] + mul([gk[4]], f)[0]
            gg, ggt = mul(gk, g), mul(gk, g_t)
            b += [-gg[i][j] - ggt[j][i] for i in range(5) for j in range(i, 5)]
            left, right = mul(mul(j_t, gk), g), mul(mul(gk, j_t), g)
            d += [left[j][l] - right[j][l] for j in range(5) for l in range(5)]

        def torsion(i, j):
            return mul([[p - q for p, q in zip(gam[i][j], gam[j][i])]], f)[0]

        horizontal = [c for i in range(4) for j in range(i + 1, 4) for c in torsion(i, j)]
        assert got == {
            "axiom_a_parallel_eta_xi": a,
            "axiom_b_parallel_metric": b,
            "axiom_c_horizontal_torsion": horizontal,
            "axiom_c_reeb_torsion": [c for j in range(5) for c in torsion(4, j)],
            "axiom_d_parallel_J": d,
        }
        if perturbed:
            assert any(g[i][j] != g[j][i] for i in range(5) for j in range(i))


class TestCRCheck:
    def test_heisenberg_is_integrable(self, heis):
        frame, _ = heis
        report = _measured(cr_check(frame), POINTS)
        assert all(v <= 1e-12 for v in report.values()), report

    def test_perturbed_j_breaks_integrability(self, heis):
        frame, _ = heis
        y2 = PolyExpr.variable("y2")
        jrows = [list(row) for row in frame.jmat]
        jrows[0][2] = jrows[0][2] + 0.1 * y2
        broken = FrameFieldSet(
            frame.name, frame.fields, frame.eta, tuple(tuple(r) for r in jrows)
        )
        report = _measured(cr_check(broken), POINTS[:50])
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


class TestSamplePoints:
    def test_deterministic(self):
        assert np.array_equal(sample_points(10, 3), sample_points(10, 3))

    def test_bounds(self):
        pts = sample_points(100, 0)
        assert np.max(np.abs(pts)) <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_points(0, 0)
