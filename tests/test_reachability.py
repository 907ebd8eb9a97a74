"""Which functions of ``swcheck`` the command line never calls.

A fresh interpreter runs ``cli.run`` under ``sys.setprofile`` on every suite
at a small ``--samples``, clean and under ``--perturb``; on the ``model``
suite for the builtin chart, both charts in ``tests/data``, a model file
with ``gamma``, ``A`` and ``curvature`` and one with a nonzero Christoffel
symbol; and on a few usage errors.  The
profiler is installed before ``swcheck`` is imported, so the tables built at
import count as calls.  Every named function of the package that no run
calls is pinned in ``NEVER_CALLED`` with the reason it stays.  Code that the
command line stops reaching shows up here as a new name, and a pinned name
that is called again, or deleted, as a stale one.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import swcheck

DATA = Path(__file__).parent / "data"
PACKAGE = Path(swcheck.__file__).parent

#: Functions no command calls, by "module.qualname", with the reason each stays.
NEVER_CALLED = {
    "cli.main": "the console entry point (project.scripts); tests call cli.run",
    "dirac_sw.full_dirac_fd": "the per-field oracle that the finite-difference rows of the "
    "basis are tested against; perfbench/tracing.py wraps it by name",
    "curvature.torsion_violations": "the reference that shows admissible_torsion and its "
    "sampler are admissible",
    "curvature.random_admissible_ricci": "perfbench/tracing.py wraps it by name",
    "curvature.random_admissible_torsion": "the admissible torsion sampler of the curvature "
    "tests, which no suite draws; perfbench/tracing.py wraps it by name",
    "curvature.ric_identity_check": "the largest reconstruction defect of a stack, which the "
    "curvature suite takes from its rows; perfbench/tracing.py wraps it by name",
    "poly.PolyExpr.__call__": "the per-point reference that evaluate_all is tested against",
    "poly.PolyExpr.__str__": "the grammar round trip; the model-file writer of "
    "tests/conftest.py prints polynomials with it",
    "poly._format_coeff": "part of PolyExpr.__str__",
    "poly._decimal": "part of PolyExpr.__str__",
    "poly.PolyExpr.terms": "the exponent view, with coefficients rounded to floats, that "
    "__call__ reads and perfbench/tracing.py counts as poly.eval.terms",
    "poly.PolyExpr.from_dict": "perfbench/tracing.py counts its calls as poly.from_dict.calls, "
    "and the tests build fields from coefficient tables with it",
    "poly._pack": "part of PolyExpr.from_dict",
}

# Runs in the child: argv[1] is the JSON list of argument lists.  Prints the
# exit codes, and (module, first line, name) of every package function called.
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import swcheck.cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [swcheck.cli.run(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
package = Path(swcheck.__file__).parent
functions = [
    (Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
    for c in called
    if Path(c.co_filename).parent == package
]
print(json.dumps({"codes": codes, "called": functions}))
"""


def _named_functions() -> dict[tuple[str, int, str], str]:
    """"module.qualname" of every named function, method and class body of the
    package, by (module, first line, name); lambdas and comprehensions have
    no name of their own."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), f"{path.stem}.")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                    qualname = prefix + const.co_name
                    names[path.stem, const.co_firstlineno, const.co_name] = qualname
                    local = const.co_flags & inspect.CO_NEWLOCALS
                    stack.append((const, qualname + (".<locals>." if local else ".")))
    return names


def _invocations(tmp_path, sheared_chart) -> list[tuple[list[str], int]]:
    """(argv, exit code) of every run."""
    rich = dict(
        sheared_chart,
        gamma=[[[0.0] * 5 for _ in range(5)] for _ in range(5)],
        A=["0", "0", "0", "0", "2i"],
        curvature={"ric": [[0.5 if i == j < 4 else 0.0 for j in range(5)] for i in range(5)]},
    )
    # The rich chart's gamma is all zero; this one reaches the Christoffel
    # terms of tw_axiom_check.
    christoffel = dict(sheared_chart, gamma=[[["0"] * 5 for _ in range(5)] for _ in range(5)])
    christoffel["gamma"][0][0][0] = "1"
    malformed = dict(sheared_chart, eta=["x1 +", "0", "0", "0", "1"])
    for name, model in (("rich", rich), ("christoffel", christoffel), ("malformed", malformed)):
        (tmp_path / f"{name}.json").write_text(json.dumps(model), encoding="utf-8")

    runs = []
    for suite in ("clifford", "selfdual", "curvature", "model", "dirac", "solution", "all"):
        runs.append(([suite, "--samples", "3"], 0))
        runs.append(([suite, "--samples", "3", "--perturb", "1e-3"], 1))
    for chart, code in (
        (DATA / "sheared_chart_3.json", 0),
        (DATA / "overflow_model.json", 1),
        (tmp_path / "rich.json", 0),
        (tmp_path / "christoffel.json", 1),
    ):
        runs.append((["model", "--samples", "3", "--model", str(chart)], code))
        runs.append((["model", "--samples", "3", "--model", str(chart), "--perturb", "1e-3"], 1))
    runs += [
        (["solution", "--output", str(tmp_path / "report.json")], 0),
        (["solution", "--output", str(tmp_path / "missing" / "report.json")], 2),
        (["solution", "--scalar", "1"], 2),
        (["solution", "--scalar", "-1e301"], 2),
        (["curvature", "--samples", "0"], 2),
        (["model", "--model", str(tmp_path / "missing.json")], 2),
        (["model", "--model", str(tmp_path / "malformed.json")], 2),
        (["nosuch"], 2),
    ]
    return runs


def test_never_called_functions_are_pinned(tmp_path, sheared_chart):
    runs = _invocations(tmp_path, sheared_chart)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([argv for argv, _ in runs])],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    result = json.loads(child.stdout)
    assert result["codes"] == [code for _, code in runs]
    names = _named_functions()
    called = {names[tuple(key)] for key in result["called"] if tuple(key) in names}
    assert sorted(set(names.values()) - called) == sorted(NEVER_CALLED)
