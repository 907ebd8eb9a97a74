"""The superset rule of the verdict oracle."""

import oracle

EXPECTED = {
    "model/a": {"tolerance": 1e-12, "pass": True},
    "model/b": {"tolerance": 0.0, "pass": False},
}


def _report(rows):
    checks = [dict(name=n.split("/")[1], residual=0.0, **v) for n, v in rows.items()]
    return {"suite": "model", "checks": checks}


def test_verdicts_of_single_and_all_reports():
    single = _report(EXPECTED)
    assert oracle.verdicts(single) == EXPECTED
    assert oracle.verdicts({"suite": "all", "suites": {"model": single}}) == EXPECTED


def test_exact_match_and_passing_extra_checks_are_accepted():
    extra = dict(EXPECTED, **{"model/certificate": {"tolerance": 0.0, "pass": True}})
    assert oracle.compare(EXPECTED, EXPECTED, perturbed=False) == []
    assert oracle.compare(extra, EXPECTED, perturbed=False) == []


def test_missing_changed_or_flipped_checks_are_rejected():
    missing = {"model/a": EXPECTED["model/a"]}
    loosened = dict(EXPECTED, **{"model/a": {"tolerance": 1e-6, "pass": True}})
    flipped = dict(EXPECTED, **{"model/b": {"tolerance": 0.0, "pass": True}})
    for actual in (missing, loosened, flipped):
        assert len(oracle.compare(actual, EXPECTED, perturbed=True)) == 1


def test_extra_failing_check_only_allowed_on_perturbed_inputs():
    extra = dict(EXPECTED, **{"model/new": {"tolerance": 0.0, "pass": False}})
    assert oracle.compare(extra, EXPECTED, perturbed=True) == []
    assert len(oracle.compare(extra, EXPECTED, perturbed=False)) == 1
