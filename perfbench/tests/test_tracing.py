"""Trace mode: rebinding through imported names, and self times that add up."""

import json

import swcheck.cli
import swcheck.curvature
import swcheck.extalg
from tracing import Tracer


def _traced(argv, tmp_path):
    tracer = Tracer(invocation=7).install()
    try:
        code = swcheck.cli.run(argv + ["--output", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    return tracer, code


def test_rebinds_names_imported_elsewhere_and_restores_them():
    originals = (swcheck.cli.full_dirac, swcheck.curvature.sd_project, swcheck.cli.run)
    tracer = Tracer(invocation=0).install()
    try:
        assert swcheck.curvature.sd_project is not originals[1]
        assert swcheck.curvature.sd_project is swcheck.extalg.sd_project
        assert swcheck.cli.full_dirac is not originals[0]
    finally:
        tracer.uninstall()
    assert (swcheck.cli.full_dirac, swcheck.curvature.sd_project, swcheck.cli.run) == originals


def test_calls_through_imported_names_are_counted(tmp_path):
    tracer, code = _traced(["curvature", "--samples", "5"], tmp_path)
    assert code == 0
    layers = tracer.summary()["layers"]
    # curvature.rho_plus reaches sd_project through ``from .extalg import``.
    assert layers["extalg.sd_project"]["calls"] >= 5
    assert layers["curvature.rho_plus"]["calls"] >= 5
    assert tracer.summary()["counts"]["extalg.KForm.created"] > 0


def test_self_times_sum_to_the_traced_duration(tmp_path):
    tracer, code = _traced(["dirac", "--samples", "2"], tmp_path)
    assert code == 0
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["cli.run"]["calls"] == 1
    total_self = sum(rec["self_s"] for rec in layers.values())
    assert abs(total_self - layers["cli.run"]["s"]) <= 1e-9 * max(1.0, layers["cli.run"]["s"])
    assert layers["poly.eval"]["calls"] > 0 and summary["poly.eval.terms"] > 0
    assert 0 < summary["models.apply.repeats"] < layers["models.apply"]["calls"]


def test_spans_carry_parent_and_invocation(tmp_path):
    tracer, _ = _traced(["clifford"], tmp_path)
    path = tmp_path / "spans.json"
    tracer.write_spans(path)
    doc = json.loads(path.read_text())
    assert doc["invocation"] == 7
    names = doc["names"]
    rows = doc["spans"]
    roots = [r for r in rows if r[3] == -1]
    assert [names[r[0]] for r in roots] == ["cli.run"]
    for name, start, end, parent in rows:
        assert start <= end
        if parent != -1:
            p = rows[parent]
            assert p[1] <= start and end <= p[2]
