"""A catalogue of convention mutations: which convention constants a verdict reads.

A PASS means an identity holds only if a wrong convention would fail it.
Each mutation in ``MUTATIONS`` sets one module constant of the package in a
child interpreter, before ``swcheck.cli`` is imported (as
``tests/test_reachability.py`` runs its child), then runs commands through
``cli.run``.  A killed mutation makes its command exit 1, failing the row
named in ``KILLED``.  A mutation that no command kills is pinned in
``SURVIVES`` with the ROADMAP item that is to kill it, and every command
must still exit 0.  So a killed mutation that starts to survive fails the
test, and so does a pinned survivor that starts to fail: it then moves to
``KILLED``.  Each child takes about 0.15 to 0.25 s on a 2-core machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swcheck

PACKAGE = Path(swcheck.__file__).parent

#: Mutation name -> (module, constant, the new value as an expression of
#: ``old``, the constant's value).
MUTATIONS = {
    "SO_COUPLING = 0.25": ("dirac_sw", "SO_COUPLING", "0.25"),
    "U1_COUPLING = 0.25": ("dirac_sw", "U1_COUPLING", "0.25"),
    "U1_COUPLING = 0": ("dirac_sw", "U1_COUPLING", "0"),
    "IDENTIFICATION rows 0 and 1 swapped": ("dirac_sw", "IDENTIFICATION", "old[[1, 0, 2, 3]]"),
    "IDENTIFICATION row 0 negated": ("dirac_sw", "IDENTIFICATION", "np.diag([-1, 1, 1, 1]) @ old"),
    "J_FRAME negated": ("curvature", "J_FRAME", "-old"),
    "SQ2_UNITARY_FRAME conjugated": ("curvature", "SQ2_UNITARY_FRAME", "old.conj()"),
    "PSI0 reversed": ("cliff5", "PSI0", "old[[3, 2, 1, 0]]"),
    "PAIR_PRODUCTS negated": ("cliff5", "PAIR_PRODUCTS", "-old"),
    "CONTACT_STAR negated": ("extalg", "CONTACT_STAR", "-old"),
}

_COUPLINGS = (
    "ROADMAP item 1(a): every chart the commands run is flat, so no verdict reads "
    "the Dirac couplings until the chain is certified on a curved chart"
)

#: Mutations that no command kills, with the item that is to kill them; each
#: leaves these commands at exit 0.
SURVIVES = {
    "SO_COUPLING = 0.25": _COUPLINGS,
    "U1_COUPLING = 0.25": _COUPLINGS,
    "U1_COUPLING = 0": _COUPLINGS,
}
SURVIVOR_COMMANDS = ("all", "dirac", "solution")

#: Killed mutations: the command that exits 1, and the row it fails.
KILLED = {
    "IDENTIFICATION rows 0 and 1 swapped": ("dirac", "identification_unitary_intertwiner"),
    "IDENTIFICATION row 0 negated": ("dirac", "identification_unitary_intertwiner"),
    "J_FRAME negated": ("curvature", "rho_plus_is_minus_quarter_s_deta"),
    # Also both dbar_identity_degree3_basis and identification_unitary_intertwiner:
    # the frame is read by the form Clifford action that Phi intertwines.
    "SQ2_UNITARY_FRAME conjugated": ("dirac", "dbar_identity"),
    "PSI0 reversed": ("clifford", "deta_action_on_psi0"),
    "PAIR_PRODUCTS negated": ("clifford", "sigma_h_psi0"),
    "CONTACT_STAR negated": ("selfdual", "deta_self_dual"),
}

# Runs in the child: argv[1] is the JSON (module, constant, expression) of the
# mutation and argv[2] the JSON list of commands.  Prints, per command, the
# exit code and the names of the failing rows.
_CHILD = r"""
import contextlib, importlib, io, json, sys
import numpy as np

module, name, expression = json.loads(sys.argv[1])
owner = importlib.import_module(f"swcheck.{module}")
setattr(owner, name, eval(expression, {"old": getattr(owner, name), "np": np}))
import swcheck.cli

out = []
for command in json.loads(sys.argv[2]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = swcheck.cli.run([command])
    report = json.loads(text.getvalue())
    reports = report["suites"].values() if command == "all" else [report]
    failed = [c["name"] for r in reports for c in r["checks"] if not c["pass"]]
    out.append([code, failed])
print(json.dumps(out))
"""


def _run_mutated(mutation: str, commands) -> list[tuple[int, list[str]]]:
    """(exit code, failing row names) of each command under ``mutation``."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(MUTATIONS[mutation]), json.dumps(commands)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return [tuple(r) for r in json.loads(child.stdout)]


def test_every_mutation_is_killed_or_pinned():
    assert sorted(SURVIVES.keys() | KILLED.keys()) == sorted(MUTATIONS)
    assert not SURVIVES.keys() & KILLED.keys()


@pytest.mark.parametrize("mutation", sorted(SURVIVES))
def test_pinned_survivor_still_survives(mutation):
    results = _run_mutated(mutation, SURVIVOR_COMMANDS)
    killed = {c: r for c, r in zip(SURVIVOR_COMMANDS, results) if r != (0, [])}
    assert not killed, f"{mutation} is killed now; move it from SURVIVES to KILLED: {killed}"


@pytest.mark.parametrize("mutation", sorted(KILLED))
def test_killed_mutation_fails_its_row(mutation):
    command, row = KILLED[mutation]
    [(code, failed)] = _run_mutated(mutation, [command])
    assert code == 1, f"{mutation} survives {command}"
    assert row in failed, (mutation, failed)
