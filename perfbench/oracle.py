"""Expected verdicts, recorded from swcheck and compared against every report.

``oracle.json`` holds, per workload and per variant (``clean`` or
``perturbed``), the exit code and every check's tolerance and pass flag,
keyed ``<suite>/<check>``.  They were recorded on several seeds and agreed
on all of them, so they do not depend on the seed.

A report matches when every recorded check is present with the same
tolerance and verdict.  Extra checks are allowed, so later versions may add
certificates, but on clean inputs an extra check must pass.
"""

from __future__ import annotations

RECORD_SEEDS = (0, 1, 2)


def verdicts(report: dict) -> dict[str, dict]:
    """``{"<suite>/<check>": {"tolerance", "pass"}}`` of a single or ``all`` report."""
    suites = report["suites"].values() if "suites" in report else [report]
    return {
        f"{suite['suite']}/{row['name']}": {"tolerance": row["tolerance"], "pass": row["pass"]}
        for suite in suites
        for row in suite["checks"]
    }


def compare(actual: dict[str, dict], expected: dict[str, dict], perturbed: bool) -> list[str]:
    """Ways ``actual`` breaks the superset rule against ``expected``."""
    problems = []
    for name, want in expected.items():
        got = actual.get(name)
        if got is None:
            problems.append(f"check {name} missing")
        elif got["tolerance"] != want["tolerance"]:
            problems.append(f"check {name} tolerance {got['tolerance']}, expected {want['tolerance']}")
        elif got["pass"] != want["pass"]:
            problems.append(f"check {name} pass={got['pass']}, expected {want['pass']}")
    if not perturbed:
        for name in sorted(set(actual) - set(expected)):
            if not actual[name]["pass"]:
                problems.append(f"extra check {name} fails on a clean input")
    return problems
