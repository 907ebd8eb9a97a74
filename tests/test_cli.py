"""Command-line front end: suites, exit codes, report determinism."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from swcheck import cli, cliff5, curvature, models
from swcheck.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, run
from swcheck.dirac_sw import SpinorField
from swcheck.models import load_model
from swcheck.poly import PolyExpr


DATA = Path(__file__).parent / "data"
_CHART = ["model", "--model", "sheared_chart_3.json", "--samples", "50"]


def _refuse(token):
    raise ValueError(f"report is not strict JSON: bare {token}")


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

    def test_all_on_a_model_file_runs_dirac_on_heisenberg(self, tmp_path, capsys, model_to_dict):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(load_model("heisenberg"))))
        code, rep = _run(["all", "--samples", "20", "--model", str(path)], capsys)
        assert code == EXIT_PASS
        assert rep["model"] == str(path)
        assert rep["suites"]["model"]["model"] == str(path)
        assert rep["suites"]["dirac"]["model"] == "heisenberg"
        assert rep["suites"]["dirac"]["parameters"]["model"] == "heisenberg"

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

    def test_curvature_full_scale_invocation(self, capsys):
        code, rep = _run(
            ["curvature", "--samples", "10000", "--seed", "7", "--tol", "1e-12"], capsys
        )
        assert code == EXIT_PASS
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["rho_plus_is_minus_quarter_s_deta"]["residual"] <= 1e-12
        assert by_name["bianchi_correction_vanishes"]["residual"] <= 1e-12


class TestSolutionScale:
    """The two `solution` rows that square the amplitude sqrt(-s) are measured
    relative to max(1, |s|); beyond cli.SCALAR_LIMIT the chain would overflow."""

    def test_clean_run_passes_at_every_decade(self, capsys):
        for k in range(-300, 301):
            assert run(["solution", "--scalar", repr(-(10.0**k))]) == EXIT_PASS, k
            capsys.readouterr()

    def test_clean_run_passes_for_random_mantissas(self, capsys):
        rng = np.random.default_rng(1400)
        for s in -rng.uniform(1, 10, 200) * 10.0 ** rng.integers(3, 20, 200):
            assert run(["solution", "--scalar", repr(float(s))]) == EXIT_PASS, s
            capsys.readouterr()

    def test_perturbed_run_fails_without_overflow_at_the_limit(self, capsys):
        argv = ["solution", "--scalar", repr(-cli.SCALAR_LIMIT), "--perturb", "1e-3"]
        code, rep = _run(argv, capsys)
        assert code == EXIT_FAIL
        by_name = {c["name"]: c["residual"] for c in rep["checks"]}
        assert by_name["curvature_residual_pointwise"] == pytest.approx(5.0025e-4)

    @pytest.mark.parametrize("suite", ["solution", "all"])
    @pytest.mark.parametrize("scalar", ["-1e301", "-1.7e308"])
    def test_scalar_beyond_the_limit_rejected_before_any_suite_runs(
        self, suite, scalar, monkeypatch, capsys
    ):
        def fail(ns):
            raise AssertionError("a suite ran")

        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, fail)
        assert run([suite, "--scalar", scalar]) == EXIT_USAGE
        assert f"--scalar must be >= -1e+300, got {float(scalar)}" in capsys.readouterr().err


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
        # twice, counted by value.  No object is J-applied twice, and each of
        # e1..e4 once.  J arguments are not counted by value, because distinct
        # quantities can be equal: on this chart J e4 == -e3 and [e4, e3] == Reeb
        # hold exactly in floats, so J is taken of Reeb, [e4, e3] and [J e4, e4].
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
        assert len({id(x) for x in j_args}) == len(j_args)
        fields = load_model(chart).frame.fields[:4]
        assert [sum(x == f for x in j_args) for f in fields] == [1] * 4

    def test_contact_volume_built_once(self, monkeypatch, capsys):
        # contact_check and contact_volume_equals_2 read the one contact volume
        # eta ^ deta ^ deta of the frame: two wedge products in all.
        wedges = []
        wedge = models.CoordForm.wedge

        def record_wedge(form, other):
            wedges.append((form.degree, other.degree))
            return wedge(form, other)

        monkeypatch.setattr(models.CoordForm, "wedge", record_wedge)
        code, rep = _run(["model", "--samples", "3"], capsys)
        assert code == EXIT_PASS
        assert wedges == [(1, 2), (3, 2)]
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

    def test_positive_scalar_rejected(self, capsys):
        assert run(["solution", "--scalar", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("suite", ["solution", "all"])
    def test_positive_scalar_rejected_before_any_suite_runs(self, suite, monkeypatch, capsys):
        def fail(ns):
            raise AssertionError("a suite ran")

        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, fail)
        assert run([suite, "--scalar", "1"]) == EXIT_USAGE
        assert "--scalar must be negative, got 1.0" in capsys.readouterr().err

    def test_output_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert run(["solution", "--output", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("swcheck: error: --output: ") and str(path) in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("writable", [True, False])
    def test_output_directory_checked_before_any_suite_runs(
        self, writable, tmp_path, monkeypatch, capsys
    ):
        def fail(ns):
            raise AssertionError("a suite ran")

        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, fail)
        if writable:
            path, reason = tmp_path / "missing" / "r.json", "No such file or directory"
        else:
            # Root may write anywhere, so a read-only directory is simulated.
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
            path, reason = tmp_path / "r.json", "Permission denied"
        assert run(["all", "--output", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"swcheck: error: --output: {reason}: {path}\n"
        assert not path.exists()

    def test_output_file_untouched_by_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("kept")
        assert run(["model", "--model", "/nonexistent.json", "--output", str(path)]) == EXIT_USAGE
        assert path.read_text() == "kept"

    @pytest.mark.parametrize(
        "option, code, message",
        [
            (["--scalar", "-1e-3"], EXIT_PASS, ""),
            (["--perturb", "-1e-3"], EXIT_FAIL, ""),
            (["--tol", "-1e-3"], EXIT_USAGE, "swcheck: error: --tol must be >= 0\n"),
            (["--h", "-1e-3"], EXIT_USAGE, "swcheck: error: --h must be positive\n"),
        ],
    )
    def test_negative_value_in_scientific_notation(self, option, code, message, capsys):
        assert run(["solution"] + option) == code
        assert capsys.readouterr().err == message

    def test_invalid_samples(self, capsys):
        assert run(["curvature", "--samples", "0"]) == EXIT_USAGE

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
            ["--tol", "nan"],
            ["--tol", "inf"],
            ["--h", "inf"],
            ["--perturb", "nan"],
            ["--scalar=-inf"],
            ["--scalar", "-inf"],
            ["--h", "-Infinity"],
        ],
    )
    def test_non_finite_option(self, option, capsys):
        assert run(["solution"] + option) == EXIT_USAGE
        assert f"{option[0].split('=')[0]} must be finite" in capsys.readouterr().err

    def test_missing_model_file(self, capsys):
        assert run(["model", "--model", "/nonexistent/model.json"]) == EXIT_USAGE

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
            ([[0] * 5] * 4 + [[0] * 4], "curvature.ric[4]: expected 5 entries"),
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

    def test_non_utf8_model_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"chart": "caf\u00e9"}'.encode("latin-1"))
        code = run(["model", "--model", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err and "UTF-8" in err

    def test_directory_as_model_file_is_usage_error(self, tmp_path, capsys):
        code = run(["model", "--model", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(tmp_path) in err and "cannot read" in err

    def test_real_valued_a_is_usage_error(self, tmp_path, capsys, model_to_dict):
        data = model_to_dict(load_model("heisenberg"))
        data["A"] = ["1", 0, 0, 0, 0]
        path = tmp_path / "real_a.json"
        path.write_text(json.dumps(data))
        code = run(["model", "--model", str(path), "--samples", "5"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err and "A[0]" in err

    def test_dirac_rejects_other_models(self, capsys):
        code = run(["dirac", "--model", "/nonexistent.json", "--samples", "2"])
        assert code == EXIT_USAGE
        assert "Heisenberg" in capsys.readouterr().err

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


def _size(rng, size):
    """The ``size`` argument of a curvature sampler call."""
    return size


class TestSampleCounts:
    """``--samples`` sets the rows the sampled checks draw, in stacks of at
    most ``cli.BLOCK`` rows."""

    @staticmethod
    def _rows(monkeypatch, capsys, module, name, rows_of, argv):
        """Row count of each stacked call of ``module.name`` during one run."""
        original = getattr(module, name)
        rows = []

        def recording(*args, **kwargs):
            rows.append(rows_of(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        code, rep = _run(argv, capsys)
        monkeypatch.setattr(module, name, original)
        assert code == EXIT_PASS
        assert rep["parameters"]["samples"] == int(argv[-1])
        return [r for r in rows if r is not None]

    def test_clifford_sigma_full_draws(self, monkeypatch, capsys):
        for n in (3, cli.BLOCK + 7):
            # sigma_h(PSI0) also calls sigma_full, on a single spinor.
            rows = self._rows(
                monkeypatch, capsys, cliff5, "sigma_full",
                lambda psi: len(psi) if np.ndim(psi) == 2 else None,
                ["clifford", "--samples", str(n)],
            )
            assert sum(rows) == n
            assert max(rows) <= cli.BLOCK

    def test_selfdual_sd_project_draws(self, monkeypatch, capsys):
        for n in (3, cli.BLOCK + 7):
            rows = self._rows(
                monkeypatch, capsys, cli, "sd_project", lambda beta: len(beta.coeffs),
                ["selfdual", "--samples", str(n)],
            )
            assert sum(rows) == n
            assert max(rows) <= cli.BLOCK

    def test_curvature_draws(self, monkeypatch, capsys):
        for n in (3, cli.BLOCK + 7):
            argv = ["curvature", "--samples", str(n)]
            rows = self._rows(
                monkeypatch, capsys, curvature, "random_admissible_torsion", _size, argv
            )
            assert sum(rows) == n
            assert max(rows) <= cli.BLOCK
            rows = self._rows(
                monkeypatch, capsys, curvature, "random_admissible_ricci", _size, argv
            )
            # curvature_tensor_symmetries_and_trace draws 10 more, whatever n is.
            assert sum(rows) == n + 10
            assert max(rows) <= cli.BLOCK

    def test_dirac_field_draws(self, monkeypatch, capsys):
        for n in (3, cli.BLOCK + 7):
            rows = self._rows(
                monkeypatch, capsys, cli, "random_coefficients", lambda rng, degree, shape: shape,
                ["dirac", "--samples", str(n)],
            )
            # Four components a field; dbar_identity draws 20 fields last.
            assert all(shape[1:] == (4,) for shape in rows) and rows[-1] == (20, 4)
            assert sum(shape[0] for shape in rows[:-1]) == n
            assert max(shape[0] for shape in rows) <= cli.BLOCK


class TestCurvatureDraws:
    """The curvature suite draws from one Ricci and one torsion stream, in
    order: its draws depend neither on ``cli.BLOCK`` nor, for the first n,
    on ``--samples``."""

    @staticmethod
    def _report(argv, path):
        run(argv + ["--output", str(path)])
        rep = json.loads(path.read_text())
        rep.pop("wall_time_s")
        return json.dumps(rep, indent=2, sort_keys=True)

    @pytest.mark.parametrize("perturb", ["0", "1e-3"])
    def test_report_does_not_depend_on_block(self, perturb, monkeypatch, tmp_path):
        argv = ["curvature", "--samples", "40", "--seed", "5", "--perturb", perturb]
        default = self._report(argv, tmp_path / "default.json")
        monkeypatch.setattr(cli, "BLOCK", 7)
        assert self._report(argv, tmp_path / "block7.json") == default

    @staticmethod
    def _draws(monkeypatch, capsys, n):
        """Every Ricci and torsion matrix the suite draws, in draw order."""
        drawn = {"ric": [], "tau": []}
        samplers = {"ric": "random_admissible_ricci", "tau": "random_admissible_torsion"}
        with monkeypatch.context() as m:
            for attr, name in samplers.items():
                original = getattr(curvature, name)

                def recording(rng, size, original=original, attr=attr):
                    out = original(rng, size)
                    drawn[attr].append(out)
                    return out

                m.setattr(curvature, name, recording)
            assert _run(["curvature", "--samples", str(n)], capsys)[0] == EXIT_PASS
        return {attr: np.concatenate(stacks) for attr, stacks in drawn.items()}

    def test_draws_do_not_depend_on_block(self, monkeypatch, capsys):
        default = self._draws(monkeypatch, capsys, 40)
        monkeypatch.setattr(cli, "BLOCK", 7)
        blocked = self._draws(monkeypatch, capsys, 40)
        for attr in ("ric", "tau"):
            assert np.array_equal(blocked[attr], default[attr])

    def test_draws_of_fewer_samples_are_a_prefix(self, monkeypatch, capsys):
        n, big_n = cli.BLOCK + 3, 2 * cli.BLOCK + 1
        few = self._draws(monkeypatch, capsys, n)
        many = self._draws(monkeypatch, capsys, big_n)
        assert len(few["ric"]) == n + 10 and len(many["ric"]) == big_n + 10
        assert len(few["tau"]) == n and len(many["tau"]) == big_n
        for attr in ("ric", "tau"):
            assert np.array_equal(many[attr][: len(few[attr])], few[attr])


class TestDiracDraws:
    """The dirac suite draws its fields one after another from one stream, and
    a field's residual is its coefficients times the basis rows: the report
    depends neither on ``cli.BLOCK`` nor, beyond the draws it adds, on
    ``--samples``."""

    def test_report_does_not_depend_on_block(self, monkeypatch, tmp_path):
        argv = ["dirac", "--samples", "20", "--seed", "5"]
        default = TestCurvatureDraws._report(argv, tmp_path / "default.json")
        monkeypatch.setattr(cli, "BLOCK", 7)
        assert TestCurvatureDraws._report(argv, tmp_path / "block7.json") == default

    def test_fewer_samples_are_a_prefix(self, capsys):
        worst = {}
        for n in (5, 20):
            code, rep = _run(["dirac", "--samples", str(n), "--seed", "5"], capsys)
            assert code == EXIT_PASS
            worst[n] = {c["name"]: c["residual"] for c in rep["checks"]}
        sampled = "finite_difference_agreement"
        assert 0 < worst[5][sampled] <= worst[20][sampled]
        basis = "finite_difference_agreement_degree3_basis"
        assert worst[5][basis] == worst[20][basis]


class TestNonFiniteSamples:
    def test_nan_curvature_draw_fails(self, monkeypatch, capsys):
        # One NaN Ricci sample, in row 3 of the second block of draws, must
        # fail the suite; a Python ``max(r, nan)`` over samples or blocks
        # would drop it.
        original = curvature.random_admissible_ricci
        calls = []

        def with_nan(rng, size):
            ric = original(rng, size)
            calls.append(size)
            # The first call draws the tensor check's 10 samples.
            if len(calls) == 3:
                ric[3, 0, 0] = np.nan
            return ric

        monkeypatch.setattr(curvature, "random_admissible_ricci", with_nan)
        code, rep = _run(["curvature", "--samples", str(cli.BLOCK + 7)], capsys)
        assert calls == [10, cli.BLOCK, 7]
        assert code == EXIT_FAIL
        # ``_run`` refuses bare NaN tokens: the residual is the string "NaN".
        assert not rep["checks"][0]["pass"] and rep["checks"][0]["residual"] == "NaN"


# (owner, name, call, checks): call number ``call`` of ``name`` on ``owner``
# returning one NaN entry fails exactly ``checks`` of ``dirac --samples 2``.
_DIRAC_NAN_CASES = [
    # psi0 is evaluated once on the point array for full_dirac, then for
    # kohn_dirac.
    (SpinorField, "evaluate", 1, ["full_dirac_psi0_zero"]),
    (SpinorField, "evaluate", 2, ["kohn_dirac_psi0_zero"]),
    # The first draw of coefficients is the one block of finite-difference
    # draws, the second the 20 dbar fields; the basis checks use no draw.
    (cli, "random_coefficients", 1, ["finite_difference_agreement"]),
    (cli, "random_coefficients", 2, ["dbar_identity"]),
    # A draw's residual is its coefficients times the basis rows, so a NaN in
    # a basis row fails the sampled check and the basis check.
    (
        cli,
        "full_dirac_fd_on_basis",
        1,
        ["finite_difference_agreement", "finite_difference_agreement_degree3_basis"],
    ),
    (cli, "dbar_identity_residual", 1, ["dbar_identity", "dbar_identity_degree3_basis"]),
    (cli, "form_clifford_action", 2, ["identification_unitary_intertwiner"]),
    # sigma_full once for the rotated spinor, once for the original.
    (cliff5, "sigma_full", 2, ["phase_invariance"]),
]


class TestNonFiniteEvaluations:
    """One NaN evaluation fails the check it feeds: the reductions propagate
    NaN, where a Python ``max(r, nan)`` drops it."""

    @staticmethod
    def _failed(rep):
        return {c["name"]: c["residual"] for c in rep["checks"] if not c["pass"]}

    @pytest.mark.parametrize("chart", ["heisenberg", "sheared"])
    def test_each_model_check(self, chart, sheared_chart, tmp_path, nan_on_call, capsys):
        # On the Heisenberg chart only the contact volume is a nonzero
        # polynomial; on the sheared chart float residues keep most residual
        # polynomials live.  Each evaluation of a live polynomial feeds one check.
        if chart == "sheared":
            chart = str(tmp_path / "sheared.json")
            (tmp_path / "sheared.json").write_text(json.dumps(sheared_chart))
        argv = ["model", "--model", chart, "--samples", "5"]
        owners = (models, cli)
        values = nan_on_call(owners, "evaluate_all", 0)
        code, rep = _run(argv, capsys)
        assert code == EXIT_PASS
        live = [call for call, v in enumerate(values, 1) if np.size(v)]
        hit = set()
        for call in live:
            nan_on_call(owners, "evaluate_all", call)
            code, rep = _run(argv, capsys)
            failed = self._failed(rep)
            assert code == EXIT_FAIL and len(failed) == 1, (call, failed)
            assert all(r == "NaN" for r in failed.values())
            hit |= failed.keys()
        assert len(hit) == len(live)
        assert {"contact_volume_nondegenerate"} <= hit
        if chart == "heisenberg":
            assert hit == {"contact_volume_nondegenerate", "contact_volume_equals_2"}
        else:
            assert len(hit) >= 10

    @pytest.mark.parametrize(
        "owner, name, call, checks", [pytest.param(*c, id=c[-1][-1]) for c in _DIRAC_NAN_CASES]
    )
    def test_each_dirac_check(self, owner, name, call, checks, nan_on_call, capsys):
        nan_on_call([owner], name, call)
        code, rep = _run(["dirac", "--samples", "2"], capsys)
        failed = self._failed(rep)
        assert code == EXIT_FAIL and list(failed) == checks
        assert all(r == "NaN" for r in failed.values())

    def test_each_dirac_check_has_a_case(self, capsys):
        code, rep = _run(["dirac", "--samples", "2"], capsys)
        assert code == EXIT_PASS
        assert {c for *_, checks in _DIRAC_NAN_CASES for c in checks} == {
            c["name"] for c in rep["checks"]
        }

    @pytest.mark.parametrize("suite", ["model", "all"])
    def test_overflowing_model_reaches_a_verdict(self, suite, capsys):
        # Products of the frame entry (1e308+1e308i)*x1^2 overflow to inf and
        # NaN.  With warnings as errors, as pytest runs the suite, the model
        # checks still report: the non-finite values fail their checks.
        argv = [suite, "--model", str(DATA / "overflow_model.json"), "--samples", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = _run(argv, capsys)
        assert code == EXIT_FAIL
        if suite == "all":
            rep = rep["suites"]["model"]
        assert not rep["pass"]
        residuals = [c["residual"] for c in rep["checks"]]
        strings = [c for c in rep["checks"] if isinstance(c["residual"], str)]
        assert len(strings) >= 5
        for c in strings:
            assert c["residual"] in ("NaN", "Infinity", "-Infinity") and not c["pass"]
        assert all(math.isfinite(r) for r in residuals if not isinstance(r, str))

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

    def test_floor_check_reports_nan(self):
        row = cli._floor_check("volume", float("nan"), 1e-9)
        assert not row["pass"] and row["residual"] == "NaN"

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

    @pytest.mark.parametrize(
        "name, argv, code",
        [
            ("all_seed0", ["all", "--seed", "0"], EXIT_PASS),
            ("all_seed0_perturbed", ["all", "--seed", "0", "--perturb", "1e-3"], EXIT_FAIL),
            ("model_chart", _CHART, EXIT_PASS),
            ("model_chart_perturbed", _CHART + ["--perturb", "1e-3"], EXIT_FAIL),
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
