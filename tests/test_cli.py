"""Command-line front end: suites, exit codes, report determinism."""

import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swcheck import cli, cliff5, curvature, dirac_sw, extalg, models, poly
from swcheck.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, SAMPLES_LIMIT, run
from swcheck.models import load_model
from swcheck.poly import PolyExpr


DATA = Path(__file__).parent / "data"
PACKAGE = Path(cli.__file__).parent
_CHART = ["model", "--model", "sheared_chart_3.json", "--samples", "50"]


def _refuse(token):
    raise ValueError(f"report is not strict JSON: bare {token}")


@pytest.fixture
def no_suite_runs(monkeypatch):
    """Every suite raises: a usage error must come before any suite runs."""

    def fail(ns):
        raise AssertionError("a suite ran")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, fail)


def _run(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_refuse) if out.strip() else None)


class TestSuitesPass:
    @pytest.mark.parametrize(
        "argv",
        [
            ["clifford"],
            ["selfdual"],
            ["curvature", "--samples", "300"],
            ["model", "--samples", "100"],
            ["dirac", "--samples", "5"],
            ["solution", "--scalar", "-4"],
        ],
    )
    def test_suite_passes(self, argv, capsys):
        code, rep = _run(argv, capsys)
        assert code == EXIT_PASS
        assert rep["pass"] is True
        assert all(c["pass"] for c in rep["checks"])

    def test_all_runs_everything(self, capsys):
        code, rep = _run(
            ["all", "--samples", "100", "--seed", "3"], capsys
        )
        assert code == EXIT_PASS
        assert set(rep["suites"]) == {
            "clifford",
            "selfdual",
            "curvature",
            "model",
            "dirac",
            "solution",
        }

    def test_all_on_a_model_file_runs_dirac_on_heisenberg(self, capsys):
        # Only model reads the chart: every other sub-report of all --model
        # records the Heisenberg chart, as that command does when run alone.
        chart = str(DATA / "sheared_chart_3.json")
        common = ["--samples", "5", "--seed", "3"]
        code, rep = _run(["all", "--model", chart, *common], capsys)
        assert code == EXIT_PASS
        assert rep["model"] == chart
        for name, sub in rep["suites"].items():
            argv = [name, *common] + ["--model", chart] * (name == "model")
            _, single = _run(argv, capsys)
            single.pop("wall_time_s")
            assert sub == single, name
            assert sub["model"] == sub["parameters"]["model"]
            assert sub["model"] == (chart if name == "model" else "heisenberg"), name

    @pytest.mark.parametrize("perturb", ["0", "1e-3"])
    def test_all_zero_gamma_reports_the_rows_of_no_gamma(self, perturb, tmp_path, capsys):
        # A gamma block of zeros is the flat connection, which a chart without
        # the block has: the Christoffel terms add nothing, passing or failing.
        data = json.loads((DATA / "sheared_chart_3.json").read_text())
        data["gamma"] = [[["0"] * 5 for _ in range(5)] for _ in range(5)]
        path = tmp_path / "zero_gamma.json"
        path.write_text(json.dumps(data))
        rows = []
        for chart in (DATA / "sheared_chart_3.json", path):
            code, rep = _run(["model", "--model", str(chart), "--perturb", perturb], capsys)
            rows.append((code, rep["checks"]))
        assert rows[0] == rows[1]
        assert rows[0][0] == (EXIT_PASS if perturb == "0" else EXIT_FAIL)

    def test_clifford_suite_is_exact(self, capsys):
        code, rep = _run(["clifford"], capsys)
        exact = [c for c in rep["checks"] if c["tolerance"] == 0.0]
        assert len(exact) >= 6
        assert all(c["residual"] == 0.0 for c in exact)

    def test_solution_report_renders_f_a_plus(self, capsys):
        code, rep = _run(["solution", "--scalar", "-4"], capsys)
        assert code == EXIT_PASS
        assert [c["residual"] for c in rep["checks"]] == [0.0] * 7
        assert rep["F_A_plus"] == "i*deta"
        assert rep["sigma_h_psi"] == "-4i*deta"


class TestSolutionScale:
    """The two `solution` rows that square the amplitude sqrt(-s) are measured
    relative to |s|; beyond cli.SCALAR_LIMIT the chain would overflow, and
    below its inverse that scale no longer resolves the --perturb fault."""

    def test_clean_run_passes_at_every_decade(self, capsys):
        for k in range(-300, 301):
            assert run(["solution", "--scalar", repr(-(10.0**k))]) == EXIT_PASS, k
            capsys.readouterr()

    def test_clean_run_passes_for_random_mantissas(self, capsys):
        rng = np.random.default_rng(1400)
        for s in -rng.uniform(1, 10, 200) * 10.0 ** rng.integers(3, 20, 200):
            assert run(["solution", "--scalar", repr(float(s))]) == EXIT_PASS, s
            capsys.readouterr()

    def test_random_scalars_pass_clean_and_fail_perturbed(self, capsys):
        rng = np.random.default_rng(3200)
        for s in -rng.uniform(1, 10, 100) * 10.0 ** rng.integers(-300, 300, 100):
            argv = ["solution", "--scalar", repr(float(s))]
            assert run(argv) == EXIT_PASS, s
            assert run(argv + ["--perturb", "1e-3"]) == EXIT_FAIL, s
            assert run(argv + ["--perturb", "-1e-3"]) == EXIT_FAIL, s
            capsys.readouterr()

    def test_perturbed_run_fails_at_every_decade(self, capsys):
        # The fault moves the squared rows by about |s| * 5e-4, so only a
        # scale of |s| shows it at every |s|.
        for k in range(-300, 301):
            argv = ["solution", "--scalar", repr(-(10.0**k)), "--perturb", "1e-3"]
            assert run(argv) == EXIT_FAIL, k
            capsys.readouterr()

    def test_perturbed_run_fails_without_overflow_at_the_limit(self, capsys):
        argv = ["solution", "--scalar", repr(-cli.SCALAR_LIMIT), "--perturb", "1e-3"]
        code, rep = _run(argv, capsys)
        assert code == EXIT_FAIL
        by_name = {c["name"]: c["residual"] for c in rep["checks"]}
        assert by_name["curvature_residual_pointwise"] == pytest.approx(5.0025e-4)

    @pytest.mark.parametrize("eps", ["1e-3", "2"])
    def test_a_fault_of_either_sign_reads_the_same(self, eps, capsys):
        # The spinor is scaled by 1 + |EPS|: at EPS = -2 a factor 1 + EPS is
        # -1, a U(1) gauge transformation under which every row reads 0.
        code, rep = _run(["solution", "--perturb", eps], capsys)
        assert code == EXIT_FAIL
        assert _run(["solution", "--perturb", f"-{eps}"], capsys)[1]["checks"] == rep["checks"]

    @pytest.mark.parametrize("suite", ["solution", "all"])
    @pytest.mark.parametrize("scalar", ["-1e301", "-1.7e308"])
    def test_scalar_beyond_the_limit_rejected_before_any_suite_runs(
        self, no_suite_runs, suite, scalar, capsys
    ):
        assert run([suite, "--scalar", scalar]) == EXIT_USAGE
        assert f"--scalar must be >= -1e+300, got {float(scalar)}" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["solution", "all"])
    @pytest.mark.parametrize("scalar", ["-1e-301", "-5e-324"])
    def test_scalar_below_the_inverse_limit_rejected_before_any_suite_runs(
        self, no_suite_runs, suite, scalar, capsys
    ):
        assert run([suite, "--scalar", scalar]) == EXIT_USAGE
        assert f"--scalar must be <= -1e-300, got {float(scalar)}" in capsys.readouterr().err


class TestStackedEvaluation:
    def test_no_suite_evaluates_point_by_point(self, monkeypatch, sheared_chart, tmp_path, capsys):
        # PolyExpr.__call__ is the per-point reference; the suites evaluate
        # every field on the whole point array through poly.evaluate_all.
        def refuse(self, point):
            raise AssertionError("PolyExpr.__call__ reached")

        monkeypatch.setattr(PolyExpr, "__call__", refuse)
        path = tmp_path / "sheared.json"
        path.write_text(json.dumps(sheared_chart))
        assert _run(["all", "--samples", "3"], capsys)[0] == EXIT_PASS
        assert _run(["dirac", "--perturb", "1e-3", "--samples", "2"], capsys)[0] == EXIT_FAIL
        assert _run(["model", "--model", str(path)], capsys)[0] == EXIT_PASS


class TestSharedSymbolicWork:
    def test_model_checks_build_each_bracket_and_j_image_once(self, monkeypatch, capsys):
        # contact_check, tw_axiom_check and cr_check read the brackets and the
        # J-images they share from tables on the frame.  No pair is bracketed
        # twice and no field J-applied twice, counted by value, although
        # distinct quantities are equal on this chart (J e1 == e2 exactly), and
        # each of e1..e4 is J-applied once.
        brackets, j_args = [], []
        lie_bracket, j_apply = models.lie_bracket, models.FrameFieldSet.j_apply

        def record_bracket(x, y):
            brackets.append((x, y))
            return lie_bracket(x, y)

        def record_j(frame, x):
            j_args.append(x)
            return j_apply(frame, x)

        monkeypatch.setattr(models, "lie_bracket", record_bracket)
        monkeypatch.setattr(models.FrameFieldSet, "j_apply", record_j)
        chart = str(DATA / "sheared_chart_3.json")
        assert _run(["model", "--model", chart, "--samples", "5"], capsys)[0] == EXIT_PASS
        assert brackets and len(set(brackets)) == len(brackets)
        assert len(set(j_args)) == len(j_args)
        fields = load_model(chart).frame.fields[:4]
        assert [sum(x == f for x in j_args) for f in fields] == [1] * 4

    @pytest.mark.parametrize("perturb", ["0", "1e-3"])
    def test_model_measures_each_check_as_it_returns(self, perturb, monkeypatch, capsys):
        # Each check's families are bounded, one coefficient_bound per
        # polynomial, before the next check builds its own: no two checks'
        # families are held at once.  The contact volume is bounded from below
        # once, between the contact families and tw_axiom_check, and no point
        # is drawn.
        events = []

        def record(owner, name, event):
            fn = getattr(owner, name)

            def recorded(*args):
                out = fn(*args)
                events.append((event, sum(map(len, out.values())) if event in checks else 1))
                return out

            monkeypatch.setattr(owner, name, recorded)

        checks = ("contact", "tw", "cr")
        record(models, "contact_check", "contact")
        record(models, "tw_axiom_check", "tw")
        record(models, "cr_check", "cr")
        record(cli, "coefficient_bound", "bound")
        record(cli, "modulus_lower_bound", "floor")
        record(cli, "sample_points", "draw")
        chart = str(DATA / "sheared_chart_3.json")
        argv = ["model", "--model", chart, "--samples", "5", "--perturb", perturb]
        code, rep = _run(argv, capsys)
        assert code == (EXIT_FAIL if float(perturb) else EXIT_PASS)
        sizes = dict(e for e in events if e[0] in checks)
        assert events == (
            [("contact", sizes["contact"])]
            + [("bound", 1)] * sizes["contact"]
            + [("floor", 1)]
            + [("tw", sizes["tw"])]
            + [("bound", 1)] * sizes["tw"]
            + [("cr", sizes["cr"])]
            + [("bound", 1)] * sizes["cr"]
        )
        # On this chart the one volume row is contact_volume_nondegenerate.
        counts = Counter(c["name"].split("_")[0] for c in rep["checks"])
        assert counts["contact"] == len(models.contact_check(load_model(chart).frame)) + 1

    def test_dirac_basis_rows_from_one_derivative_table(self, monkeypatch, capsys):
        # The basis rows read the derivatives e_w(m) of the 56 monomials from
        # one power-table pass over their live partials, and their central
        # differences from one pass over the monomials on the stencil around
        # each point; no polynomial of the basis is built or evaluated, and
        # no monomial value.  What is left of VectorFieldPoly.apply is the
        # symbolic operators on psi0 (20, the Kohn and full operators from one
        # call) and on the phase-invariance field (20; its rotation scales
        # the operator).  The psi0 rows are coefficient bounds, so evaluate_all
        # reads the 25 frame components, once, for both tables, then the
        # operator on the phase-invariance field and its rotation, and the
        # two fields.
        applies, passes, evaluations = [], [], []
        apply = models.VectorFieldPoly.apply
        monomial_terms, evaluate_all = dirac_sw.monomial_terms, dirac_sw.evaluate_all

        def record_apply(field, f):
            applies.append(f)
            return apply(field, f)

        def record_terms(coeffs, exps, points):
            passes.append((len(exps), len(points)))
            return monomial_terms(coeffs, exps, points)

        def record_evaluate_all(polys, points):
            evaluations.append((len(polys), np.shape(points)))
            return evaluate_all(polys, points)

        monkeypatch.setattr(models.VectorFieldPoly, "apply", record_apply)
        monkeypatch.setattr(dirac_sw, "monomial_terms", record_terms)
        monkeypatch.setattr(dirac_sw, "evaluate_all", record_evaluate_all)
        assert _run(["dirac", "--samples", "3"], capsys)[0] == EXIT_PASS
        assert len(applies) == 40
        live = sum(np.count_nonzero(e) for e in poly.monomials(dirac_sw.FIELD_DEGREE))
        assert passes == [(live, 20), (56, 20 * 10)]
        assert evaluations == [(25, (20, 5))] + [(4, (5, 5))] * 4

    def test_dirac_builds_the_kohn_part_of_psi0_once(self, monkeypatch, capsys):
        # full_dirac_psi0_zero adds the Reeb term to the Kohn-Dirac operator of
        # psi0 that kohn_dirac_psi0_zero reads, both from one dirac_operators
        # call: five covariant derivatives of psi0, and five for the
        # phase-invariance field, whose rotation scales its operator.
        directions = []
        derivative = dirac_sw.spin_covariant_derivative

        def record(s, w, psi):
            directions.append(w)
            return derivative(s, w, psi)

        monkeypatch.setattr(dirac_sw, "spin_covariant_derivative", record)
        assert _run(["dirac", "--samples", "3"], capsys)[0] == EXIT_PASS
        assert sorted(directions) == sorted([1, 2, 3, 4, 5] * 2)

    def test_contact_volume_built_once(self, monkeypatch, capsys):
        # Both contact-volume rows read the one contact volume
        # eta ^ (deta ^ deta) of the frame: two wedge products in all, the
        # 2-form square first, so that the 1-form multiplies one 4-form.
        wedges = []
        wedge = models.CoordForm.wedge

        def record_wedge(form, other):
            wedges.append((form.degree, other.degree))
            return wedge(form, other)

        monkeypatch.setattr(models.CoordForm, "wedge", record_wedge)
        code, rep = _run(["model", "--samples", "3"], capsys)
        assert code == EXIT_PASS
        assert wedges == [(2, 2), (1, 4)]
        assert "contact_volume_equals_2" in {c["name"] for c in rep["checks"]}


class TestNegativeControls:
    """Each suite must fail (exit 1) on a deliberately broken input."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["clifford", "--perturb", "1e-3"],
            ["selfdual", "--perturb", "1e-3"],
            ["curvature", "--perturb", "1e-3", "--samples", "50"],
            ["model", "--perturb", "0.1", "--samples", "50"],
            ["dirac", "--perturb", "1e-3", "--samples", "3"],
            ["solution", "--perturb", "1e-3"],
        ],
    )
    def test_fault_injection_fails(self, argv, capsys):
        code, rep = _run(argv, capsys)
        assert code == EXIT_FAIL
        assert rep["pass"] is False
        assert any(not c["pass"] for c in rep["checks"])

    @pytest.mark.parametrize("eps", ["1e-3", "-1e-3", "2", "-2"])
    @pytest.mark.parametrize(
        "suite", ["clifford", "selfdual", "curvature", "model", "dirac", "solution", "all"]
    )
    def test_either_sign_fails_with_no_negative_residual(self, suite, eps, capsys):
        code, rep = _run([suite, "--perturb", eps, "--samples", "50"], capsys)
        assert code == EXIT_FAIL
        reports = rep["suites"].values() if suite == "all" else [rep]
        assert min(c["residual"] for r in reports for c in r["checks"]) >= 0.0

    def test_model_fails_a_fault_every_sample_misses(self, capsys):
        # At --perturb 2e-14 on the sheared chart, two identity residuals stay
        # below the 1e-12 tolerance at all 1000 default sample points, but
        # their coefficient bounds exceed it: the rows fail, at any --samples.
        chart, eps = str(DATA / "sheared_chart_3.json"), 2e-14
        frame = load_model(chart).frame
        jrows = [list(row) for row in frame.jmat]
        jrows[0][2] = jrows[0][2] + eps * PolyExpr.variable("y2")
        frame = dataclasses.replace(frame, jmat=tuple(map(tuple, jrows)))
        families = {
            "contact_J_square_identity": models.contact_check(frame)["J_square_identity"],
            "cr_eta_bracket_criterion": models.cr_check(frame)["eta_bracket_criterion"],
        }
        points = models.sample_points(1000, 0)
        for samples in ("1", "1000"):
            argv = ["model", "--model", chart, "--perturb", str(eps), "--samples", samples]
            code, rep = _run(argv, capsys)
            rows = {c["name"]: c for c in rep["checks"]}
            assert code == EXIT_FAIL
            for name, family in families.items():
                sampled = poly.max_abs(poly.evaluate_all(family, points))
                assert sampled < 1e-12 < rows[name]["residual"], name
                assert rows[name]["pass"] is False, name

    @staticmethod
    def _scaled_eta_chart(tmp_path, model_to_dict, factor: str) -> str:
        """The Heisenberg chart with eta scaled by the polynomial ``factor`` f:
        its contact volume is 2 f^3."""
        data = model_to_dict(load_model("heisenberg"))
        f = poly.parse_poly(factor)
        data["eta"] = [str(f * poly.parse_poly(c)) for c in data["eta"]]
        path = tmp_path / "scaled_eta.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_volume_vanishing_inside_the_box_fails_at_any_samples(
        self, tmp_path, capsys, model_to_dict
    ):
        # The volume 2 (x1^2 + ... + t^2)^3 vanishes at the origin only: at
        # the 1000 default sample points its modulus stays above 1e-9, but its
        # lower bound over the box is -250: no constant term, and the other
        # coefficient moduli sum to 2 * 5^3.
        chart = self._scaled_eta_chart(tmp_path, model_to_dict, "x1^2 + y1^2 + x2^2 + y2^2 + t^2")
        volume = load_model(chart).frame.contact_volume
        assert poly.max_abs(1 / poly.evaluate_all([volume], models.sample_points(1000, 0))) < 1e9
        for samples in ("1", "1000"):
            code, rep = _run(["model", "--model", chart, "--samples", samples], capsys)
            rows = {c["name"]: c for c in rep["checks"]}
            assert code == EXIT_FAIL
            assert rows["contact_volume_nondegenerate"]["residual"] == 1e-9 + 250
            assert rows["contact_volume_nondegenerate"]["pass"] is False

    def test_volume_away_from_zero_passes(self, tmp_path, capsys, model_to_dict):
        # The volume 2 (1 + 0.1 x1)^3 is not constant, and its constant term 2
        # exceeds the sum 0.662 of its other coefficient moduli.
        chart = self._scaled_eta_chart(tmp_path, model_to_dict, "1 + 0.1*x1")
        assert load_model(chart).frame.contact_volume.degree() == 3
        _, rep = _run(["model", "--model", chart], capsys)
        rows = {c["name"]: c for c in rep["checks"]}
        assert rows["contact_volume_nondegenerate"] == {
            "name": "contact_volume_nondegenerate",
            "residual": 0.0,
            "tolerance": 0.0,
            "pass": True,
        }

    def test_broken_model_file_fails_checks(self, tmp_path, capsys, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        data["frame"][1] = ["0", "2", "0", "0", "0"]  # e2 scaled by 2
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, rep = _run(["model", "--model", str(path), "--samples", "20"], capsys)
        assert code == EXIT_FAIL
        failed = [c["name"] for c in rep["checks"] if not c["pass"]]
        assert "contact_frame_orthonormality" in failed


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, parameters",
        [
            (["model", "--seed=3", "--samples=2"], {"seed": 3, "samples": 2}),
            (["model", "--samp", "3", "--se", "5"], {"samples": 3, "seed": 5}),
            (["--samples", "2", "--seed", "4", "model"], {"samples": 2, "seed": 4}),
            (["--samples", "2", "model", "--seed", "4"], {"samples": 2, "seed": 4}),
            (["model", "--samples", "2", "--seed", "1", "--seed", "7"], {"samples": 2, "seed": 7}),
            # A unique prefix with "=" and a negative value.
            (["solution", "--sc=-2"], {"scalar": -2.0}),
        ],
    )
    def test_option_syntax(self, argv, parameters, capsys):
        code, rep = _run(argv, capsys)
        assert code == EXIT_PASS
        assert {k: rep["parameters"][k] for k in parameters} == parameters

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--s", "3", "solution"], "ambiguous option '--s'"),
            (["solution", "--seed"], "--seed takes one int value"),
            (["solution", "--seed", "x"], "--seed takes one int value"),
            # The value is the next argument, even when it looks like an option.
            (["solution", "--seed", "--perturb", "1"], "--seed takes one int value"),
            (["solution", "--perturb", "1e-3x"], "--perturb takes one float value"),
            (["solution", "--bogus", "1"], "unrecognized option '--bogus'"),
            (["solution", "-x"], "unrecognized option '-x'"),
            (["solution", "--help=1"], "unrecognized option '--help=1'"),
            (["solution", "dirac"], "unexpected 'dirac'"),
            (["solution", "solution"], "unexpected 'solution'"),
            (["--seed", "1"], "no command given"),
            ([], "no command given"),
            # Tolerances and the finite-difference step are fixed, so no
            # option can turn a failing check into a pass; --help is read only
            # in full, so --h and --he are no prefixes of it.
            (["model", "--perturb", "0.1", "--tol", "1e9"], "unrecognized option '--tol'"),
            (["dirac", "--h", "1e-2"], "unrecognized option '--h'"),
            (["dirac", "--he"], "unrecognized option '--he'"),
        ],
    )
    def test_malformed_command_line(self, no_suite_runs, argv, message, capsys):
        assert run(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"swcheck: error: {message}")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["dirac", "--help"], ["--seed", "1", "-h"]])
    def test_help(self, no_suite_runs, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_PASS
        out, err = capsys.readouterr()
        assert out.startswith("usage: swcheck") and err == ""
        assert all(f"--{name}" in out for name in cli.OPTIONS)
        assert all(suite in out for suite in cli.SUITES)

    def test_positive_scalar_rejected(self, capsys):
        assert run(["solution", "--scalar", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("suite", ["solution", "all"])
    def test_positive_scalar_rejected_before_any_suite_runs(self, no_suite_runs, suite, capsys):
        assert run([suite, "--scalar", "1"]) == EXIT_USAGE
        assert "--scalar must be negative, got 1.0" in capsys.readouterr().err

    def test_output_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert run(["solution", "--output", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("swcheck: error: --output: ") and str(path) in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("case", ["missing", "read-only", "directory"])
    def test_output_directory_checked_before_any_suite_runs(
        self, no_suite_runs, case, tmp_path, monkeypatch, capsys
    ):
        if case == "missing":
            path, reason = tmp_path / "missing" / "r.json", "No such file or directory"
        elif case == "read-only":
            # Root may write anywhere, so a read-only directory is simulated.
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
            path, reason = tmp_path / "r.json", "Permission denied"
        else:
            path, reason = tmp_path / "r.json", "Is a directory"
            path.mkdir()
        assert run(["all", "--output", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"swcheck: error: --output: {reason}: {path}\n"
        assert list(tmp_path.rglob("*")) == ([path] if case == "directory" else [])

    @pytest.mark.parametrize("argv", [["--output", ""], ["--output="]])
    def test_empty_output_path_is_usage_error(self, no_suite_runs, argv, capsys):
        # An empty path names no file; it is not a request for stdout.
        assert run(["solution", *argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "swcheck: error: --output: No such file or directory: \n"

    def test_output_file_untouched_by_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("kept")
        assert run(["model", "--model", "/nonexistent.json", "--output", str(path)]) == EXIT_USAGE
        assert path.read_text() == "kept"

    def test_closed_stdout_is_a_write_error(self):
        # A report that cannot be written to stdout fails like one that cannot
        # be written to --output: exit 2 and one error line, not exit 1 with a
        # traceback or an "Exception ignored" message at interpreter exit.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "swcheck.cli", "clifford"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "swcheck: error: stdout: Broken pipe\n"

    @pytest.mark.parametrize(
        "option, code, message",
        [
            (["--scalar", "-1e-3"], EXIT_PASS, ""),
            (["--perturb", "-1e-3"], EXIT_FAIL, ""),
        ],
    )
    def test_negative_value_in_scientific_notation(self, option, code, message, capsys):
        assert run(["solution"] + option) == code
        assert capsys.readouterr().err == message

    def test_invalid_samples(self, capsys):
        assert run(["curvature", "--samples", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("samples", [SAMPLES_LIMIT + 1, 10**15])
    @pytest.mark.parametrize("suite", ["model", "all", "curvature"])
    def test_samples_above_the_draw_limit(self, suite, samples, capsys):
        # One randbytes call draws every point, 320 bits each, and takes its
        # bit count as a C int: a larger count is refused before any draw.
        assert SAMPLES_LIMIT == 6710886
        assert run([suite, "--samples", str(samples)]) == EXIT_USAGE
        assert capsys.readouterr().err == "swcheck: error: --samples must be <= 6710886\n"

    @pytest.mark.parametrize(
        "suite", ["clifford", "selfdual", "curvature", "model", "dirac", "all"]
    )
    def test_negative_seed(self, suite, capsys):
        assert run([suite, "--seed", "-5", "--samples", "3"]) == EXIT_USAGE
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["curvature", "all"])
    def test_largest_seed_runs(self, suite, capsys):
        # The largest accepted seed seeds every suite's generators.
        code, rep = _run([suite, "--seed", str(2**63 - 1), "--samples", "3"], capsys)
        assert code == EXIT_PASS and rep["parameters"]["seed"] == 2**63 - 1

    @pytest.mark.parametrize("seed", [2**63, 2**64])
    def test_seed_above_63_bits(self, seed, capsys):
        assert run(["curvature", "--seed", str(seed), "--samples", "3"]) == EXIT_USAGE
        assert "--seed must be < 2**63" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            ["--perturb", "inf"],
            ["--perturb=-inf"],
            ["--scalar", "nan"],
            ["--perturb", "nan"],
            ["--scalar=-inf"],
            ["--scalar", "-inf"],
            ["--perturb", "-Infinity"],
        ],
    )
    def test_non_finite_option(self, option, capsys):
        assert run(["solution"] + option) == EXIT_USAGE
        assert f"{option[0].split('=')[0]} must be finite" in capsys.readouterr().err

    def test_missing_model_file(self, capsys):
        assert run(["model", "--model", "/nonexistent/model.json"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "text, found",
        [('"eta xi frame J"', "a string"), ("42", "a number"), ("null", "null"), ("[1, 2]", "an array")],
    )
    def test_model_file_not_an_object_is_usage_error(self, text, found, tmp_path, capsys):
        path = tmp_path / "top.json"
        path.write_text(text)
        assert run(["model", "--model", str(path)]) == EXIT_USAGE
        assert f"{path}: expected a JSON object, found {found}" in capsys.readouterr().err

    @pytest.mark.parametrize("chart", [{"a": 1}, 5, [1], None, True])
    def test_chart_name_not_a_string_is_usage_error(self, chart, tmp_path, capsys):
        data = json.loads((DATA / "sheared_chart_3.json").read_text())
        data["chart"] = chart
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(data))
        assert run(["model", "--model", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"swcheck: error: {path}: chart: expected a string\n"

    @pytest.mark.parametrize("value", [True, False, None, {"x1": 1}])
    def test_polynomial_entry_not_a_string_or_number_is_usage_error(
        self, value, tmp_path, capsys
    ):
        data = json.loads((DATA / "sheared_chart_3.json").read_text())
        data["eta"][0] = value
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(data))
        assert run(["model", "--model", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"swcheck: error: {path}: eta[0]: expected a string or number\n"

    def test_malformed_model_file_reports_file_and_position(self, tmp_path, capsys, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        data["eta"][0] = "y1 ++ 2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err
        assert "eta[0]" in err and "position" in err

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("curvature", {"ric": [[float("nan")] * 5] * 5}, "curvature.ric[0][0]"),
            ("gamma", "1e400*x1", "gamma[0][1][2]"),
            ("eta", float("inf"), "eta[4]"),
        ],
    )
    def test_non_finite_model_input_is_usage_error(
        self, field, value, where, tmp_path, capsys, model_to_dict
    ):
        # max() reductions and the `abs(v) > tol` admissibility test both
        # drop NaN, so such a file must be refused at load time or it passes.
        data = model_to_dict(load_model("heisenberg"))
        if field == "gamma":
            data["gamma"] = [[["0"] * 5 for _ in range(5)] for _ in range(5)]
            data["gamma"][0][1][2] = value
        elif field == "eta":
            data["eta"][4] = value
        else:
            data[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path), "--samples", "5"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err and where in err

    @pytest.mark.parametrize(
        "ric, where",
        [
            ([["a", 0, 0, 0, 0]] + [[0] * 5] * 4, "curvature.ric[0][0]: expected a number"),
            ([[None] * 5] * 5, "curvature.ric[0][0]: expected a number"),
        ],
    )
    def test_malformed_ricci_entry_is_usage_error(
        self, ric, where, tmp_path, capsys, model_to_dict
    ):
        data = model_to_dict(load_model("heisenberg"))
        data["curvature"] = {"ric": ric}
        path = tmp_path / "badric.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path), "--samples", "5"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err and where in err

    @pytest.mark.parametrize("broken", ["short", "not a list"])
    @pytest.mark.parametrize(
        "keys",
        [
            ("eta",),
            ("xi",),
            ("frame",),
            ("frame", 2),
            ("J",),
            ("J", 1),
            ("gamma",),
            ("gamma", 0),
            ("gamma", 0, 1),
            ("A",),
            ("curvature", "ric"),
            ("curvature", "ric", 4),
        ],
    )
    def test_malformed_shape_is_usage_error(self, keys, broken, tmp_path, capsys, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        data["gamma"] = [[["0"] * 5 for _ in range(5)] for _ in range(5)]
        data["A"] = ["0"] * 5
        data["curvature"] = {"ric": [[0.0] * 5 for _ in range(5)]}
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        entries = parent[keys[-1]]
        parent[keys[-1]] = entries[:-1] if broken == "short" else "0"
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path), "--samples", "5"])
        err = capsys.readouterr().err
        where = keys[0] + "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in keys[1:])
        assert code == EXIT_USAGE
        assert f"{path}: {where}: expected {len(entries)} entries" in err

    def test_exponent_beyond_the_packed_field_is_usage_error(self, tmp_path, capsys, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        data["eta"][0] = "y1 + x1^3000"
        path = tmp_path / "power.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path), "--samples", "5"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"{path}: eta[0]: exponent must be an integer in 0..255 at position 8" in err

    def test_product_beyond_the_packed_field_is_usage_error(self, tmp_path, capsys, model_to_dict):
        # Each field parses, but the contact checks multiply them past degree 255.
        data = model_to_dict(load_model("heisenberg"))
        data["frame"][0][4], data["frame"][1][4] = "x1^200", "y1^200"
        path = tmp_path / "product.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path), "--samples", "5"])
        assert code == EXIT_USAGE
        assert "a product of degree above 255" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["model", "all"])
    def test_product_overflow_names_the_chart(self, suite, tmp_path, capsys):
        # The Reeb field parses, but the checks multiply it past degree 255.
        data = json.loads((DATA / "sheared_chart_3.json").read_text())
        data["xi"][4] = "1 + x1^200"
        path = tmp_path / "reeb.json"
        path.write_text(json.dumps(data))
        assert run([suite, "--model", str(path), "--samples", "5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"swcheck: error: {path}: a product of degree above 255\n"

    def test_non_utf8_model_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"chart": "caf\u00e9"}'.encode("latin-1"))
        code = run(["model", "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "text",
        [
            # json.loads raises a plain ValueError beyond the int-string limit
            # and a RecursionError for arrays nested beyond the recursion limit.
            '{"eta": [' + "1" * 5000 + "]}",
            "[" * 100000 + "]" * 100000,
        ],
        ids=["long_integer", "deep_nesting"],
    )
    def test_json_that_json_loads_rejects_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        code = run(["model", "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"{path}: not valid JSON" in err

    def test_directory_as_model_file_is_usage_error(self, tmp_path, capsys):
        code = run(["model", "--model", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(tmp_path) in err and "cannot read" in err

    def test_real_valued_a_is_usage_error(self, tmp_path, capsys, model_to_dict):
        # A real A is reported before a ragged or inadmissible curvature block.
        data = model_to_dict(load_model("heisenberg"))
        data["A"] = ["1", 0, 0, 0, 0]
        path = tmp_path / "real_a.json"
        message = "A[0]: the U(1) connection 1-form must be imaginary valued"
        for curvature in (None, {"ric": [[1]]}, {"ric": [[1] * 5] * 5}):
            if curvature is not None:
                data["curvature"] = curvature
            path.write_text(json.dumps(data))
            code = run(["model", "--model", str(path), "--samples", "5"])
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"swcheck: error: {path}: {message}\n"

    def test_dirac_rejects_other_models(self, capsys):
        code = run(["dirac", "--model", "/nonexistent.json", "--samples", "2"])
        assert code == EXIT_USAGE
        assert "Heisenberg" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["clifford", "selfdual", "curvature", "solution"])
    def test_suites_without_a_chart_refuse_a_model(self, no_suite_runs, suite, capsys):
        assert run([suite, "--model", "/nonexistent.json"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"swcheck: error: --model: the {suite} suite reads no chart\n"

    @pytest.mark.parametrize("suite", ["model", "all"])
    def test_model_file_read_before_any_suite_runs(self, no_suite_runs, suite, capsys):
        assert run([suite, "--model", "/nonexistent.json"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("swcheck: error: /nonexistent.json: cannot read")

    @pytest.mark.parametrize("suite", ["model", "all"])
    @pytest.mark.parametrize("argv", [["--model", ""], ["--model="]])
    def test_empty_model_path_is_usage_error(self, no_suite_runs, suite, argv, capsys):
        # An empty path would read as the current directory, a directory.
        assert run([suite, *argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "swcheck: error: --model: No such file or directory: \n"

    @pytest.mark.parametrize(
        "key, value, where",
        [
            ("gama", [[["0"] * 5] * 5] * 5, "unknown field 'gama'"),
            ("curvature", {"ric": [[0.0] * 5] * 5, "rik": 1}, "unknown field 'curvature.rik'"),
        ],
    )
    def test_unknown_field_is_usage_error(
        self, no_suite_runs, key, value, where, tmp_path, capsys, model_to_dict
    ):
        # A misspelled optional field would otherwise leave the chart on the
        # flat connection, or drop its declared Ricci matrix, without a word.
        data = model_to_dict(load_model("heisenberg"))
        data[key] = value
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(data))
        assert run(["model", "--model", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"swcheck: error: {path}: {where}\n"

    @pytest.mark.parametrize("block", ["top_level", "curvature"])
    def test_duplicate_field_is_usage_error(
        self, no_suite_runs, block, tmp_path, capsys, model_to_dict
    ):
        # json.loads keeps the last of two equal keys: a malformed first eta,
        # or a first ric, would be dropped without a word.
        data = model_to_dict(load_model("heisenberg"))
        data["curvature"] = {"ric": [[0.0] * 5] * 5}
        text = json.dumps(data)
        if block == "top_level":
            text = '{"eta": ["x1 +", "0", "0", "0", "1"], ' + text[1:]
            key = "eta"
        else:
            text = text.replace('"curvature": {', '"curvature": {"ric": [[1]], ')
            key = "ric"
        path = tmp_path / "duplicate.json"
        path.write_text(text)
        assert run(["model", "--model", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"swcheck: error: {path}: duplicate field '{key}'\n"

    def test_curvature_block_violation_is_usage_error(self, tmp_path, capsys, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        ric = np.zeros((5, 5))
        ric[0, 1] = ric[1, 0] = 1.0
        data["curvature"] = {"ric": ric.tolist()}
        path = tmp_path / "badcurv.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "constraint R12=0 violated" in err


#: The five linear curvature rows, in report order: each is one ``_box_bound``
#: call, in this order.
CURVATURE_ROWS = [
    "rho_plus_is_minus_quarter_s_deta",
    "J_commutes_with_ricci",
    "ricci_J_invariance",
    "bianchi_correction_vanishes",
    "ricci_reconstruction_identity",
]


class TestCollectorScope:
    """A verdict freezes the objects that exist before it and unfreezes them
    on every way out; a caller's own frozen set is left as it is."""

    @staticmethod
    def _counting_suite(monkeypatch, command, counts, raise_=None):
        suite = cli.SUITES[command]

        def counted(ns):
            counts.append(gc.get_freeze_count())
            if raise_:
                raise raise_
            return suite(ns)

        monkeypatch.setitem(cli.SUITES, command, counted)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solution"], EXIT_PASS),
            (["solution", "--perturb", "1e-3"], EXIT_FAIL),
            (["solution", "--scalar", "1"], EXIT_USAGE),
        ],
    )
    def test_count_restored_on_return(self, argv, code, monkeypatch, capsys):
        before, counts = gc.get_freeze_count(), []
        self._counting_suite(monkeypatch, "solution", counts)
        assert run(argv) == code
        assert gc.get_freeze_count() == before
        assert all(n > 0 for n in counts) and len(counts) == (code != EXIT_USAGE)

    def test_count_restored_when_the_report_cannot_be_written(
        self, tmp_path, monkeypatch, capsys
    ):
        # The directory goes missing between the check and the write.
        monkeypatch.setattr(cli, "_unwritable_directory", lambda path: None)
        before = gc.get_freeze_count()
        assert run(["solution", "--output", str(tmp_path / "missing" / "r.json")]) == EXIT_USAGE
        assert gc.get_freeze_count() == before

    def test_count_restored_when_a_suite_raises(self, monkeypatch, capsys):
        before, counts = gc.get_freeze_count(), []
        self._counting_suite(monkeypatch, "solution", counts, RuntimeError("suite failed"))
        with pytest.raises(RuntimeError, match="suite failed"):
            run(["solution"])
        assert gc.get_freeze_count() == before
        assert counts and counts[0] > 0

    def test_a_frozen_set_of_the_caller_is_kept(self, monkeypatch, capsys):
        # Under pytest a frozen object of the harness may die during the run,
        # so the count can fall: a sentinel shows that nothing is unfrozen.
        counts, sentinel = [], [object()]
        self._counting_suite(monkeypatch, "solution", counts)
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert not any(o is sentinel for o in gc.get_objects())
            assert run(["solution"]) == EXIT_PASS
            assert len(counts) == 1 and 0 < counts[0] <= frozen
            assert 0 < gc.get_freeze_count() <= counts[0]
            assert not any(o is sentinel for o in gc.get_objects())
        finally:
            gc.unfreeze()
        assert any(o is sentinel for o in gc.get_objects())


class TestCurvatureRows:
    """Each of the five linear curvature residuals is bounded over the box of
    parameter vectors, with the ``--perturb`` shift, by ``cli._box_bound`` on
    its library residual on the unit parameter vectors with the shift last."""

    @staticmethod
    def _residuals(ric_params, tau_params):
        """The five residuals in report order, straight from the library
        functions, on the Ricci matrices and torsions of the parameter rows
        (the last column shifts R11 or tau12)."""
        ric = curvature.admissible_ricci(*ric_params[:, :4].T)
        ric[:, 0, 0] += ric_params[:, 4]
        tau = curvature.admissible_torsion(tau_params[:, :6])
        tau[:, 0, 1] += tau_params[:, 6]
        j = curvature.J_FRAME
        jh, ric_h = j[:4, :4], ric[:, :4, :4]
        rho = curvature.rho_plus(ric) + (curvature.scalar_curvature(ric) / 4.0) * extalg.deta()
        return [
            rho.coeffs,
            j @ ric - ric @ j,
            jh.T @ ric_h @ jh - ric_h,
            curvature.bianchi_b(tau, *curvature.HORIZONTAL_FRAME_PAIRS),
            curvature.ricci_reconstruction_defect(ric),
        ]

    @pytest.mark.parametrize("shift", ["none", "perturb", "random"])
    def test_rows_times_parameters_are_the_direct_residuals(self, shift):
        # "none" draws admissible inputs only; "perturb" adds the constant
        # column of --perturb 1e-3, and "random" a shift of order one in each
        # draw, both off the admissible set.
        rng = np.random.default_rng(19)
        n = 300
        params = []
        for k in (4, 6):
            last = {"none": 0.0, "perturb": 1e-3, "random": rng.uniform(-1, 1, n)}[shift]
            params.append(np.column_stack([rng.uniform(-1, 1, (n, k)), np.broadcast_to(last, n)]))
        unit = self._residuals(np.eye(5), np.eye(7))
        direct = self._residuals(*params)
        for name, rows, residual in zip(CURVATURE_ROWS, unit, direct):
            p = params[1] if name == "bianchi_correction_vanishes" else params[0]
            assert len(rows) == p.shape[1], name
            assert np.max(np.abs(np.tensordot(p, rows, axes=1) - residual)) <= 1e-15, name
            # _box_bound's bound is attained on real or on imaginary entries:
            # the Ricci residuals are real, and B is imaginary.
            part = rows.real if name == "bianchi_correction_vanishes" else rows.imag
            assert not np.any(part), name

    def test_admissible_rows_are_exactly_zero(self, capsys):
        # So a clean run reports exactly 0.0; the shift row turns every
        # linear check on, and at --perturb 1 each reads its shift row's
        # largest modulus.  The tensor check reads no shift.
        unit = self._residuals(np.eye(5), np.eye(7))
        assert not any(np.any(rows[:-1]) for rows in unit)
        code, rep = _run(["curvature", "--perturb", "1"], capsys)
        assert code == EXIT_FAIL
        assert [c["name"] for c in rep["checks"][:5]] == CURVATURE_ROWS
        assert [c["residual"] for c in rep["checks"]] == [0.25, 1.0, 1.0, 0.5, 1.0, 0.0]

    @pytest.mark.parametrize("k", range(10))
    def test_a_fault_along_each_parameter_fails_once(self, k, monkeypatch, capsys):
        # The unit residuals are all 0, so they cannot show which parameter
        # vectors cli stacks: add 1e-3 E_12 in proportion to parameter k of
        # the Ricci matrix (k < 4) or of the torsion.  A stack that dropped a
        # unit vector would read 0 here, and one that held it twice 2e-3.
        fault = np.zeros((5, 5))
        fault[0, 1] = 1e-3
        ricci, torsion = curvature.admissible_ricci, curvature.admissible_torsion
        if k < 4:
            def faulty(*params):
                return ricci(*params) + np.multiply.outer(params[k], fault)

            monkeypatch.setattr(curvature, "admissible_ricci", faulty)
            names = CURVATURE_ROWS[1:3] + ["curvature_tensor_symmetries_and_trace"]
            expected = dict.fromkeys(names, 1e-3)
        else:
            def faulty(params):
                return torsion(params) + np.multiply.outer(np.asarray(params)[..., k - 4], fault)

            monkeypatch.setattr(curvature, "admissible_torsion", faulty)
            expected = {"bianchi_correction_vanishes": 5e-4}
        code, rep = _run(["curvature"], capsys)
        assert code == EXIT_FAIL
        failed = {c["name"]: c["residual"] for c in rep["checks"] if not c["pass"]}
        assert failed == pytest.approx(expected, rel=1e-12)


class TestCertificates:
    """clifford, selfdual and curvature certify their identities on bases and
    Gram matrices: they draw nothing, and a fault in the data a certificate
    reads fails it.  dirac certifies on its basis rows and draws only its
    points."""

    @staticmethod
    def _failed(argv, capsys):
        code, rep = _run(argv, capsys)
        assert code == EXIT_FAIL
        return {c["name"]: c["residual"] for c in rep["checks"] if not c["pass"]}

    @pytest.mark.parametrize("perturb", ["0", "1e-3"])
    @pytest.mark.parametrize(
        "suite", ["clifford", "selfdual", "curvature", "dirac", "model", "model_sheared"]
    )
    def test_reports_do_not_depend_on_seed_or_samples(self, suite, perturb, capsys):
        # The seed moves dirac's points, so only --samples varies there; no
        # report but model's echoes --samples.  model draws nothing: on the
        # builtin chart and on a model file its whole report, the volume rows
        # included, is the same apart from its parameters.
        argv = [suite]
        if suite == "model_sheared":
            argv = ["model", "--model", str(DATA / "sheared_chart_3.json")]
        runs = [[], ["--samples", "1"], ["--samples", "20000"]]
        if suite != "dirac":
            runs.append(["--seed", "1", "--samples", "3"])
        reports = []
        for extra in runs:
            _, rep = _run(argv + ["--perturb", perturb] + extra, capsys)
            rep.pop("wall_time_s")
            samples = rep["parameters"].pop("samples")
            if argv[0] == "model":
                assert samples == (int(extra[-1]) if extra else 1000)
            else:
                assert samples is None
            rep["parameters"].pop("seed")
            reports.append(rep)
        assert all(rep == reports[0] for rep in reports)

    @pytest.mark.parametrize("seed", ["0", "5"])
    @pytest.mark.parametrize("eps", ["0", "1e-3", "-1e-3", "1e-30", "5e-324", "1e300"])
    def test_psi0_rows_read_the_fault_exactly(self, eps, seed, capsys):
        # The fault adds EPS x1 to psi0's first component: both operators of the
        # result are EPS times the first column of kappa(e_1), a constant of
        # modulus |EPS|.  Each row is its coefficient bound over the box,
        # exactly |EPS| at every seed, and 0.0 clean.
        code, rep = _run(["dirac", "--seed", seed, "--perturb", eps], capsys)
        rows = {c["name"]: c["residual"] for c in rep["checks"]}
        assert rows["full_dirac_psi0_zero"] == rows["kohn_dirac_psi0_zero"] == abs(float(eps))
        assert code == (EXIT_FAIL if float(eps) else EXIT_PASS)

    def test_non_skew_pair_product_fails_sigma_certificate(self, monkeypatch, capsys):
        # kappa(e1) kappa(e3) is not in kappa(deta), and its entry [0, 0] does
        # not reach sigma_h(psi0): only the certificate reads it.
        products = cliff5.PAIR_PRODUCTS.copy()
        products[1, 0, 0] += 1e-3
        monkeypatch.setattr(cliff5, "PAIR_PRODUCTS", products)
        assert self._failed(["clifford"], capsys) == {"sigma_coefficients_imaginary": 2e-3}

    def test_mis_scaled_star_fails_hodge_gram(self, monkeypatch, capsys):
        monkeypatch.setitem(extalg.STAR, 2, extalg.STAR[2] * 1.5)
        failed = self._failed(["selfdual"], capsys)
        assert failed["hodge_defining_property_random"] == 0.5

    def test_mis_scaled_contact_star_fails_sd_projection(self, monkeypatch, capsys):
        monkeypatch.setattr(extalg, "CONTACT_STAR", extalg.CONTACT_STAR * 1.5)
        failed = self._failed(["selfdual"], capsys)
        assert failed["sd_projection_orthogonal"] > 0

    @pytest.mark.parametrize("row", [0, -1], ids=["unit_row", "shift_row"])
    @pytest.mark.parametrize("call, name", list(enumerate(CURVATURE_ROWS)), ids=CURVATURE_ROWS)
    def test_nan_curvature_row_fails_the_checks_that_read_it(
        self, call, name, row, monkeypatch, capsys
    ):
        # One NaN entry, in the first entry of a unit-parameter row or of the
        # shift row of the residual that call ``call`` of _box_bound bounds:
        # NaN times the zero --perturb is NaN too.
        box_bound, stacks = cli._box_bound, []

        def with_nan(rows, perturb):
            stacks.append(np.array(rows))
            rows = np.array(rows)
            if len(stacks) == call + 1:
                rows.reshape(len(rows), -1)[row, 0] = np.nan
            return box_bound(rows, perturb)

        monkeypatch.setattr(cli, "_box_bound", with_nan)
        # ``_run`` refuses bare NaN tokens: a NaN residual is the string "NaN".
        assert self._failed(["curvature"], capsys) == {name: "NaN"}
        # cli bounds each residual on exactly the unit vectors and the shift,
        # so the certificate covers the whole box.
        unit = TestCurvatureRows._residuals(np.eye(5), np.eye(7))
        assert len(stacks) == len(unit)
        for k, (stack, rows) in enumerate(zip(stacks, unit)):
            assert np.array_equal(stack, rows), CURVATURE_ROWS[k]


@pytest.fixture(scope="module")
def fresh_modules():
    """The modules a fresh interpreter holds after ``import swcheck.cli``
    ("import"), and after ``all``, ``model`` and ``dirac``, each run clean and
    with ``--perturb 1e-3`` ("commands")."""
    child = """
import json, os, sys
import swcheck.cli as cli
loaded = {"import": sorted(sys.modules)}
codes = []
for suite in ("all", "model", "dirac"):
    for extra in ([], ["--perturb", "1e-3"]):
        codes.append(cli.run([suite, "--output", os.devnull, *extra]))
assert codes == [0, 1] * 3, codes
print(json.dumps({**loaded, "commands": sorted(sys.modules)}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    return {when: set(names) for when, names in json.loads(proc.stdout).items()}


class TestDiracDraws:
    """The sample points are drawn from the standard library's stream."""

    def test_no_command_imports_numpy_random(self, fresh_modules):
        # Points are drawn from the standard library's random.Random, which
        # numpy itself imports, so that no command pays for importing
        # numpy.random.  A fresh interpreter shows it.
        assert "numpy.random" not in fresh_modules["import"]
        assert "numpy.random" not in fresh_modules["commands"], "a command imported numpy.random"


class TestColdStart:
    """What a fresh interpreter loads on its way to a verdict."""

    def test_no_command_imports_argparse(self, fresh_modules):
        # cli reads its command line itself: argparse would load gettext and,
        # on its first message, locale, which costs every verdict about 2 ms.
        assert not {"argparse", "gettext", "locale"} & fresh_modules["commands"]


# (owner, name, call, checks): call number ``call`` of ``name`` on ``owner``
# returning one NaN entry fails exactly ``checks`` of ``dirac --samples 2``.
# ``cli.coefficient_bound`` never returns NaN, but inf past the float range:
# its case returns inf.
_DIRAC_NAN_CASES = [
    # The four components of psi0's full Dirac operator are bounded, then the
    # four of its Kohn-Dirac operator: the last call of one row, the first of
    # the other.
    (cli, "coefficient_bound", 4, ["full_dirac_psi0_zero"]),
    (cli, "coefficient_bound", 5, ["kohn_dirac_psi0_zero"]),
    # The family maximum and the basis maximum read the same basis rows, and
    # np.sort puts NaN last, so a NaN in a basis row fails both checks.  The
    # one contraction cli makes itself is the finite-difference rows.
    (
        cli,
        "contract",
        1,
        ["finite_difference_agreement", "finite_difference_agreement_degree3_basis"],
    ),
    (cli, "dbar_identity_residual", 1, ["dbar_identity", "dbar_identity_degree3_basis"]),
    (dirac_sw, "form_clifford_action", 2, ["identification_unitary_intertwiner"]),
    # sigma_full once for the rotated spinor, once for the original.
    (cliff5, "sigma_full", 2, ["phase_invariance"]),
]


class TestNonFiniteEvaluations:
    """One NaN evaluation fails the check it feeds: the reductions propagate
    NaN, where a Python ``max(r, nan)`` drops it."""

    @staticmethod
    def _failed(rep):
        return {c["name"]: c["residual"] for c in rep["checks"] if not c["pass"]}

    @pytest.mark.parametrize(
        "chart, perturb",
        [
            pytest.param("heisenberg", False, id="heisenberg"),
            pytest.param("sheared", False, id="sheared"),
            pytest.param("sheared", True, id="sheared_perturbed"),
        ],
    )
    def test_each_model_check(
        self, chart, perturb, sheared_chart, tmp_path, monkeypatch, capsys
    ):
        # Every row is read from exact coefficients and evaluates nothing.  The
        # contact volume feeds both volume rows on Heisenberg and the one on
        # the sheared chart, clean or perturbed: an infinite bound of its
        # non-constant terms, or a constant term past the float range that
        # they cancel at x1 = -1 (where inf - inf would be a NaN that a Python
        # max(0, nan) drops), fails them and no other row.  An infinite bound
        # of the first polynomial of a family fails that family's row and
        # changes no other.
        volume_rows = {"contact_volume_nondegenerate"}
        if chart == "heisenberg":
            volume_rows.add("contact_volume_equals_2")
        else:
            chart = str(tmp_path / "sheared.json")
            (tmp_path / "sheared.json").write_text(json.dumps(sheared_chart))
        argv = ["model", "--model", chart, "--samples", "5"] + ["--perturb", "1e-3"] * perturb
        code, base = _run(argv, capsys)
        assert code == (EXIT_FAIL if perturb else EXIT_PASS)
        rows = {c["name"]: c for c in base["checks"]}
        huge, x1 = PolyExpr.const(10**400), PolyExpr.variable("x1")
        for volume, gap in [(2 + huge * x1, "Infinity"), (huge + huge * x1, 1e-9)]:
            monkeypatch.setattr(models.FrameFieldSet, "contact_volume", volume)
            code, rep = _run(argv, capsys)
            changed = {c["name"]: c for c in rep["checks"] if c != rows[c["name"]]}
            assert code == EXIT_FAIL and changed.keys() == volume_rows
            assert changed["contact_volume_nondegenerate"]["residual"] == gap
            assert not any(c["pass"] for c in changed.values())
        monkeypatch.undo()

        # The bound calls (None) in order, each row's name after the calls that
        # feed it: the number of the first call of each row.
        bound, check, trace = cli.coefficient_bound, cli._check, []
        monkeypatch.setattr(cli, "coefficient_bound", lambda p: trace.append(None) or bound(p))
        monkeypatch.setattr(cli, "_check", lambda name, *a: trace.append(name) or check(name, *a))
        _run(argv, capsys)
        firsts, calls, start = {}, 0, 0
        for event in trace:
            if event is None:
                calls += 1
                start = start or calls
            elif start:
                firsts[event], start = start, 0
        # The nondegenerate row alone reads no coefficient bound.
        assert len(firsts) == len(base["checks"]) - 1
        monkeypatch.setattr(cli, "_check", check)

        for name, call in firsts.items():
            count = [0]

            def infinite_at_call(p, call=call):
                count[0] += 1
                return math.inf if count[0] == call else bound(p)

            monkeypatch.setattr(cli, "coefficient_bound", infinite_at_call)
            code, rep = _run(argv, capsys)
            changed = {c["name"]: c for c in rep["checks"] if c != rows[c["name"]]}
            assert code == EXIT_FAIL and list(changed) == [name], (call, changed)
            assert changed[name]["residual"] == "Infinity" and not changed[name]["pass"]

    @pytest.mark.parametrize(
        "owner, name, call, checks", [pytest.param(*c, id=c[-1][-1]) for c in _DIRAC_NAN_CASES]
    )
    def test_each_dirac_check(
        self, owner, name, call, checks, nan_on_call, monkeypatch, capsys
    ):
        if name == "coefficient_bound":
            bound, count = cli.coefficient_bound, itertools.count(1)
            monkeypatch.setattr(cli, name, lambda p: math.inf if next(count) == call else bound(p))
            residual = "Infinity"
        else:
            nan_on_call([owner], name, call)
            residual = "NaN"
        code, rep = _run(["dirac", "--samples", "2"], capsys)
        failed = self._failed(rep)
        assert code == EXIT_FAIL and list(failed) == checks
        assert all(r == residual for r in failed.values())

    def test_each_dirac_check_has_a_case(self, capsys):
        code, rep = _run(["dirac", "--samples", "2"], capsys)
        assert code == EXIT_PASS
        assert {c for *_, checks in _DIRAC_NAN_CASES for c in checks} == {
            c["name"] for c in rep["checks"]
        }

    @pytest.mark.parametrize("suite", ["model", "all"])
    def test_overflowing_model_reaches_a_verdict(self, suite, capsys):
        # Products of the frame entry (1e308+1e308i)*x1^2 are exact, but their
        # coefficients round to inf beyond the float range.  With warnings as
        # errors, as pytest runs the suite, the model checks still report: the
        # non-finite values fail their checks, and the identities that cancel
        # exactly (J-invariance of the metric, axiom (d)) pass.
        argv = [suite, "--model", str(DATA / "overflow_model.json"), "--samples", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = _run(argv, capsys)
        assert code == EXIT_FAIL
        if suite == "all":
            rep = rep["suites"]["model"]
        assert not rep["pass"]
        residuals = [c["residual"] for c in rep["checks"]]
        strings = {c["name"]: c for c in rep["checks"] if isinstance(c["residual"], str)}
        assert sorted(strings) == [
            "contact_frame_orthonormality",
            "cr_eta_bracket_criterion",
            "tw_axiom_a_parallel_eta_xi",
            "tw_axiom_b_parallel_metric",
        ]
        for c in strings.values():
            assert c["residual"] == "Infinity" and not c["pass"]
        assert all(math.isfinite(r) for r in residuals if not isinstance(r, str))
        passed = {c["name"] for c in rep["checks"] if c["pass"]}
        assert {"contact_metric_J_invariance", "tw_axiom_d_parallel_J"} <= passed

    @pytest.mark.parametrize("suite", list(cli.SUITES))
    def test_huge_perturbation_reaches_a_verdict(self, suite, tmp_path):
        # --perturb 1e300 overflows products to inf or NaN in every suite.  With
        # warnings as errors, each suite still writes its report and fails.
        out = tmp_path / "report.json"
        argv = [suite, "--perturb", "1e300", "--samples", "3", "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == EXIT_FAIL
        rep = json.loads(out.read_text(), parse_constant=_refuse)
        assert rep["suite"] == suite and rep["pass"] is False

    @pytest.mark.parametrize("chart", ["sheared_chart_3.json", "overflow_model.json"])
    def test_huge_perturbation_of_a_model_file_exits_1(self, chart):
        # Under --perturb 1e300 exact coefficients grow past the float range,
        # and evaluation rounds them to inf instead of raising OverflowError.
        # A fresh interpreter with every warning an error exits 1, with no
        # traceback.
        argv = ["model", "--model", str(DATA / chart), "--perturb", "1e300", "--samples", "5"]
        proc = subprocess.run(
            [sys.executable, "-m", "swcheck.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH": str(PACKAGE.parent)},
        )
        assert proc.returncode == EXIT_FAIL, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_residuals_are_strings(self):
        for value, text in [(np.nan, "NaN"), (np.inf, "Infinity"), (-np.inf, "-Infinity")]:
            assert cli._check("r", value, 1e-12)["residual"] == text
        assert not cli._check("r", np.inf, 1e-12)["pass"]
        assert cli._check("r", 0.25, 1e-12)["residual"] == 0.25


class TestReports:
    def test_deterministic_modulo_wall_time(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["curvature", "--samples", "100", "--seed", "7", "--output", str(p1)]) == 0
        assert run(["curvature", "--samples", "100", "--seed", "7", "--output", str(p2)]) == 0
        a = json.loads(p1.read_text())
        b = json.loads(p2.read_text())
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("perturb", ["0", "1e-3"])
    def test_chart_is_only_a_label(self, perturb, tmp_path, capsys):
        # No row or report reads chart: files that differ only in it, or that
        # leave it out, give one report, byte for byte apart from the wall
        # time line, clean and perturbed.
        data = json.loads((DATA / "sheared_chart_3.json").read_text())
        path = tmp_path / "chart.json"
        reports = set()
        for chart in ("sheared_heisenberg_3", "another label", None):
            if chart is None:
                del data["chart"]
            else:
                data["chart"] = chart
            path.write_text(json.dumps(data))
            code = run(["model", "--model", str(path), "--perturb", perturb])
            lines = capsys.readouterr().out.splitlines()
            kept = [line for line in lines if not line.startswith('  "wall_time_s": ')]
            assert len(kept) == len(lines) - 1
            reports.add((code, "\n".join(kept)))
        assert len(reports) == 1
        assert reports.pop()[0] == (EXIT_PASS if perturb == "0" else EXIT_FAIL)

    @pytest.mark.parametrize(
        "name, argv, code",
        [
            ("all_seed0", ["all", "--seed", "0"], EXIT_PASS),
            ("all_seed0_perturbed", ["all", "--seed", "0", "--perturb", "1e-3"], EXIT_FAIL),
            ("model_chart", _CHART, EXIT_PASS),
            ("model_chart_perturbed", _CHART + ["--perturb", "1e-3"], EXIT_FAIL),
            ("dirac_seed3", ["dirac", "--seed", "3"], EXIT_PASS),
            ("dirac_seed3_perturbed", ["dirac", "--seed", "3", "--perturb", "1e-3"], EXIT_FAIL),
        ],
    )
    def test_golden_report(self, name, argv, code, monkeypatch, tmp_path):
        # data/golden/<name>.json is the report of argv without wall_time_s, as
        # json.dumps(..., indent=2, sort_keys=True), recorded once; any other
        # change to a report, down to the last digit of a residual, fails here.
        # data/sheared_chart_3.json is the perfbench/chart.py chart for seed 3.
        monkeypatch.chdir(DATA)
        out = tmp_path / "report.json"
        assert run(argv + ["--output", str(out)]) == code
        rep = json.loads(out.read_text())
        del rep["wall_time_s"]
        text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
        assert text == (DATA / "golden" / f"{name}.json").read_text()

    def test_output_file_written(self, tmp_path):
        path = tmp_path / "report.json"
        assert run(["clifford", "--output", str(path)]) == 0
        rep = json.loads(path.read_text())
        assert rep["suite"] == "clifford"
        assert rep["parameters"]["seed"] == 0

    def test_report_schema(self, capsys):
        code, rep = _run(["selfdual"], capsys)
        for c in rep["checks"]:
            assert set(c) == {"name", "residual", "tolerance", "pass"}
        assert {"suite", "model", "parameters", "checks", "pass", "wall_time_s"} <= set(rep)
