"""Command-line front end: run named check suites, emit JSON reports.

Subcommands: clifford, selfdual, curvature, model, dirac, solution, all.
Exit code 0 means every check passed, 1 means a check failed, 2 means the
invocation or an input file was invalid, or the report could not be written.

Reports are JSON with one row per check (name, residual, tolerance, pass);
identical (suite, seed, samples) invocations produce byte-identical reports
except for the wall-time field.  Tolerances are fixed, one per check: 0 for
the exact algebraic suites, 1e-12 for the model identities, each row a
coefficient bound of its residual polynomials over the whole box [-1, 1]^5
(the contact volume's nondegeneracy a lower bound from its coefficients),
1e-6 for the finite-difference comparison at step 1e-4 (1e-10 for the dbar
identity).  No row reads ``--samples``: ``model`` draws nothing, and the
option stays only because the benchmark passes it.

Every suite accepts ``--perturb EPS``, a fault-injection knob that corrupts
one well-defined input of the suite before running, so that harnesses can
verify the checks are not vacuous; with an EPS of either sign well above the
suite's tolerances, such as 1e-3 or -1e-3, the suite must fail.
"""

from __future__ import annotations

import errno
import gc
import json
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import cliff5, curvature, extalg, models
from .cliff5 import GAMMA, PSI0
from .dirac_sw import (
    IDENTIFICATION,
    SpinorField,
    basis_derivatives,
    canonical_solution,
    contract,
    dbar_identity_residual,
    dirac_operators,
    family_maximum,
    form_clifford_action,
    full_dirac,
    sw_residual,
)
from .extalg import (
    KForm,
    anti_self_dual_basis,
    contact_star,
    deta,
    form_inner,
    hodge_star,
    sd_project,
    self_dual_basis,
    volume_form,
    wedge,
)
from .models import ModelFormatError, heisenberg5, load_model, sample_points
from .poly import PolyExpr, PolySyntaxError, coefficient_bound, max_abs, modulus_lower_bound

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Seeds run below 2**63: every accepted seed, and so every report's
#: ``seed``, fits a signed 64-bit integer.
SEED_LIMIT = 2**63

#: Most --samples: as many points as one ``random.Random.randbytes`` draw of
#: 320 bits each can take, its bit count being a C int.  No suite draws them
#: now; the range stays until the option is retired.
SAMPLES_LIMIT = (2**31 - 1) // 320

#: Largest |--scalar|, and the inverse of the smallest.  The solution suite's
#: doubled spinor 2 sqrt(-s) psi0 has a bilinear of size 4|s|, and the
#: self-dual projection adds two such terms, which overflows a float from
#: about |s| = 2e307 on.  Two rows are measured relative to |s|, and near the
#: subnormals that scale no longer resolves a --perturb fault.
SCALAR_LIMIT = 1e300


class UsageError(Exception):
    pass


def _unwritable_directory(path: str) -> str | None:
    """Why no file can be written at ``path``: it is empty or a directory, or its
    directory is missing or not writable; or None.  Creates and truncates nothing."""
    if not path:
        return os.strerror(errno.ENOENT)
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return os.strerror(errno.ENOENT)
    if not os.access(directory, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def _json_number(x: float):
    """``x``, or for a non-finite value the string "NaN", "Infinity" or
    "-Infinity", so that reports stay strict JSON."""
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def _check(name: str, residual: float, tol: float) -> dict:
    return {
        "name": name,
        "residual": _json_number(float(residual)),
        "tolerance": float(tol),
        "pass": bool(float(residual) <= float(tol)),
    }


# -- suites ----------------------------------------------------------------------


# A huge --perturb overflows the generator products to inf or NaN, which then
# fails its check.
@np.errstate(over="ignore", invalid="ignore")
def _suite_clifford(ns) -> dict:
    perturb = ns.perturb
    gs = np.array(GAMMA)
    if perturb:
        gs[0, 0, 0] += perturb
    eye = np.eye(4)
    gs_h = np.conj(np.swapaxes(gs, -1, -2))

    checks = []
    gi, gj = gs[:, None], gs[None, :]
    target = -2 * np.eye(5)[:, :, None, None] * eye
    r = np.max(np.abs(gi @ gj + gj @ gi - target))
    checks.append(_check("anticommutation_relations", r, 0.0))

    checks.append(_check("generators_skew_hermitian", np.max(np.abs(gs_h + gs)), 0.0))
    checks.append(_check("generators_unitary", np.max(np.abs(gs_h @ gs - eye)), 0.0))

    kd = gs[0] @ gs[1] + gs[2] @ gs[3]
    checks.append(
        _check(
            "deta_matrix_diagonal",
            float(np.max(np.abs(kd - np.diag([0, 2j, 0, -2j])))),
            0.0,
        )
    )
    checks.append(
        _check("deta_action_on_psi0", float(np.max(np.abs(kd @ PSI0 + 2j * PSI0))), 0.0)
    )

    eig = np.sort_complex(np.linalg.eigvals(cliff5.kappa_deta()))
    target = np.sort_complex(np.array([0, 0, 2j, -2j]))
    checks.append(_check("deta_spectrum", float(np.max(np.abs(eig - target))), 1e-14))
    p2, p0, pm = cliff5.deta_eigenprojectors()
    r = float(np.max(np.abs(p2 + p0 + pm - np.eye(4))))
    ranks = (
        int(round(np.trace(p2).real)),
        int(round(np.trace(p0).real)),
        int(round(np.trace(pm).real)),
    )
    r = max(r, float(abs(ranks != (1, 2, 1))))
    checks.append(_check("eigenprojectors_complete_ranks_121", r, 0.0))

    sig = cliff5.sigma_h(PSI0)
    checks.append(
        _check("sigma_h_psi0", (sig - (-1j) * deta()).norm_inf(), 0.0)
    )
    s = np.array([-1.0, -2.0, -4.0])
    r = ((-s) * sig - (1j * s) * deta()).norm_inf()
    checks.append(_check("sigma_h_scaling_identity", r, 0.0))

    # Re <M psi, psi> = <(M + M^H) psi, psi> / 2 for each pair product M, so
    # sigma(psi) is imaginary for every psi if and only if every M + M^H is 0.
    m = cliff5.PAIR_PRODUCTS
    r = np.max(np.abs(m + np.conj(np.swapaxes(m, -1, -2))))
    checks.append(_check("sigma_coefficients_imaginary", r, 1e-12))

    return _report("clifford", ns, checks)


def _suite_selfdual(ns) -> dict:
    perturb = ns.perturb
    checks = []
    # All basis forms of each degree, as one identity stack per degree.
    bases = [KForm(k, np.eye(len(extalg.INDEX_TUPLES[k]))) for k in range(6)]

    r = np.max([(hodge_star(hodge_star(b)) - b).norm_inf() for b in bases])
    if perturb:
        r += abs(perturb)
    checks.append(_check("hodge_star_involution_32_basis_forms", r, 0.0))

    vol = volume_form()
    r = np.max([(wedge(b, hodge_star(b)) - vol).norm_inf() for b in bases])
    checks.append(_check("hodge_defining_property_basis", r, 0.0))

    # a ^ *a = c^T G c vol for a real 2-form a = sum c_i e_i, with G_ij the
    # coefficient of e_i ^ *e_j: it is |c|^2 vol for every c if and only if
    # the symmetric part of G is the identity.
    e = np.eye(10)
    g = wedge(KForm(2, e[:, None]), hodge_star(KForm(2, e[None]))).coeffs[..., 0]
    r = np.max(np.abs((g + g.T) / 2 - e))
    checks.append(_check("hodge_defining_property_random", r, 1e-13))

    vertical = extalg.VERTICAL[2]
    b = KForm(2, np.eye(10)[~vertical])
    r = (contact_star(contact_star(b)) - b).norm_inf()
    checks.append(_check("contact_star_involution", r, 0.0))

    r = (contact_star(deta()) - deta()).norm_inf()
    checks.append(_check("deta_self_dual", r, 0.0))

    sd, asd = self_dual_basis(), anti_self_dual_basis()
    r = np.max([(contact_star(sd) - sd).norm_inf(), (contact_star(asd) + asd).norm_inf()])
    checks.append(_check("sd_asd_eigenbases", r, 0.0))

    # On the horizontal basis forms: P+ + P- is the identity, and the Gram
    # matrix <P+ e_i, P- e_j> vanishes, so <P+ beta, P- beta> does for every beta.
    plus, minus = sd_project(b)
    gram = form_inner(KForm(2, plus.coeffs[:, None]), KForm(2, minus.coeffs[None]))
    r = np.max([np.max(np.abs(gram)), (plus + minus - b).norm_inf()])
    checks.append(_check("sd_projection_orthogonal", r, 1e-13))

    return _report("selfdual", ns, checks)


def _box_bound(rows, perturb: float) -> float:
    """Largest modulus over the box ``[-1, 1]^K`` and the ``--perturb`` shift of a
    linear residual, from its ``rows`` on the K unit vectors and, last, the shift:
    the sum of the unit moduli plus |perturb| times the shift's.  For real or
    imaginary entries, as every curvature residual has, the bound is attained."""
    moduli = np.abs(np.reshape(rows, (len(rows), -1)))
    return np.max(np.sum(moduli[:-1], axis=0) + abs(perturb) * moduli[-1])


def _suite_curvature(ns) -> dict:
    perturb = ns.perturb
    # Every residual is linear in the parameters of admissible_ricci (4) or
    # admissible_torsion (6) and in the --perturb shift of R11 or tau12: each
    # stack holds the unit parameter vectors, then the shift.
    unit = np.eye(25).reshape(25, 5, 5)  # E_ij at 5 i + j
    ric = np.concatenate([curvature.admissible_ricci(*np.eye(4)), unit[:1]])
    tau = np.concatenate([curvature.admissible_torsion(np.eye(6)), unit[1:2]])
    j = curvature.J_FRAME
    jh, ric_h = j[:4, :4], ric[:, :4, :4]
    rho = curvature.rho_plus(ric) + (curvature.scalar_curvature(ric) / 4.0) * deta()
    bianchi = curvature.bianchi_b(tau, *curvature.HORIZONTAL_FRAME_PAIRS)
    recon = curvature.ricci_reconstruction_defect(ric)
    tol_j = 0.0 if not perturb else 1e-12
    checks = [
        _check("rho_plus_is_minus_quarter_s_deta", _box_bound(rho.coeffs, perturb), 1e-12),
        _check("J_commutes_with_ricci", _box_bound(j @ ric - ric @ j, perturb), tol_j),
        _check("ricci_J_invariance", _box_bound(jh.T @ ric_h @ jh - ric_h, perturb), 1e-14),
        _check("bianchi_correction_vanishes", _box_bound(bianchi, perturb), 1e-12),
        _check("ricci_reconstruction_identity", _box_bound(recon, perturb), 1e-12),
    ]

    # The tensor and its residuals are linear in the Ricci parameters: the
    # four unit parameter vectors certify every admissible Ricci matrix.
    t4 = curvature.curvature_tensor(ric[:4])
    z = curvature.COMPLEX_FRAME
    r_trace = np.max(np.abs(curvature.ricci_trace(t4) - 1j * z @ (j @ ric[:4]) @ z.T))
    r = np.max([*curvature.symmetry_check(t4).values(), r_trace])
    checks.append(_check("curvature_tensor_symmetries_and_trace", r, 1e-12))

    return _report("curvature", ns, checks)


def _suite_model(ns) -> dict:
    """The rows of ``ns.bundle``, the chart that ``run`` loaded."""
    bundle = ns.bundle
    frame = bundle.frame
    if ns.perturb:
        y2 = PolyExpr.variable("y2")
        jrows = [list(row) for row in frame.jmat]
        jrows[0][2] = jrows[0][2] + ns.perturb * y2
        frame = models.FrameFieldSet(
            frame.name, frame.fields, frame.eta, tuple(tuple(r) for r in jrows)
        )
    checks = []

    def measure(prefix, families):
        # One row per family, in name order: the largest coefficient bound of its
        # polynomials bounds the residual on the whole box; inf fails the row.
        for name in sorted(families):
            bound = max(map(coefficient_bound, families[name]), default=0.0)
            checks.append(_check(f"{prefix}_{name}", bound, 1e-12))

    measure("contact", models.contact_check(frame))
    # Nondegeneracy: a lower bound on the contact volume over the box stays
    # above 1e-9; the bound is never NaN, and -inf fails.
    volume = frame.contact_volume
    gap = max(0.0, 1e-9 - modulus_lower_bound(volume))
    checks.append(_check("contact_volume_nondegenerate", gap, 0.0))
    if ns.model == "heisenberg":
        checks.append(_check("contact_volume_equals_2", coefficient_bound(volume - 2), 1e-12))
    measure("tw", models.tw_axiom_check(frame, bundle.connection))
    measure("cr", models.cr_check(frame))
    return _report("model", ns, checks)


def _suite_dirac(ns) -> dict:
    checks = []
    s = heisenberg5()
    points = sample_points(20, ns.seed + 1)

    psi0 = SpinorField.psi0()
    if ns.perturb:
        psi0 = psi0 + SpinorField.make(ns.perturb * PolyExpr.variable("x1"), 0, 0, 0)
    # Coefficient bounds of psi0's exact operators over the box: 0.0 only for zero.
    kohn0, full0 = dirac_operators(s, psi0)
    for name, op in (("full_dirac_psi0_zero", full0), ("kohn_dirac_psi0_zero", kohn0)):
        checks.append(_check(name, max(map(coefficient_bound, op.components)), 0.0))

    # Each check is linear in the field, so it is computed once on the basis fields
    # m e_k (m a monomial of degree <= 3); family_maximum gives the exact worst field
    # of 4 monomials a component with coefficients in the unit disc.  Both pairs of
    # rows are one contraction of the derivative table e_w(m): the full operator
    # minus its oracle is the exact e_w(m) minus their central differences,
    # contracted with kappa(e_w), and the dbar rows contract the exact e_w(m) at
    # the first 10 points with the constant map of the flat identity.
    derivs, fd_derivs = basis_derivatives(s, points, 1e-4)
    fd = contract(derivs - fd_derivs, GAMMA)
    dbar = dbar_identity_residual(s, derivs[:10])
    checks.append(_check("finite_difference_agreement", family_maximum(fd), 1e-6))
    checks.append(_check("finite_difference_agreement_degree3_basis", max_abs(fd), 1e-6))
    checks.append(_check("dbar_identity", family_maximum(dbar), 1e-10))
    checks.append(_check("dbar_identity_degree3_basis", max_abs(dbar), 1e-10))

    phi = IDENTIFICATION
    defects = [phi.conj().T @ phi - np.eye(4)]
    for i, x in enumerate(np.eye(5), 1):
        defects.append(phi @ form_clifford_action(x) - cliff5.gamma(i) @ phi)
    r = max_abs(defects)
    checks.append(_check("identification_unitary_intertwiner", r, 1e-12))

    # A fixed field of degree 2: every component is nonzero, a coefficient is
    # not real, and D psi is nowhere zero (its first component is y1 - i/2).
    x1, y1, x2, y2, t = map(PolyExpr.variable, ("x1", "y1", "x2", "y2", "t"))
    psi = SpinorField.make(
        1 + x1 * y1 - 0.5 * t, (1 - 2j) * x2 + y2 * y2, 0.5j * t * t - x1, y1 * x2 + 3
    )
    # The operator is linear and exact: D (c psi) is c D psi, term by term.
    phase = np.exp(1j * 0.7)
    psi_rot = psi.scale(phase)
    d = full_dirac(s, psi)
    few = points[:5]
    moduli = np.abs(d.scale(phase).evaluate(few)) - np.abs(d.evaluate(few))
    sigma_diff = cliff5.sigma_full(psi_rot.evaluate(few)) - cliff5.sigma_full(psi.evaluate(few))
    r = np.max([max_abs(moduli), max_abs(sigma_diff.coeffs)])
    checks.append(_check("phase_invariance", r, 1e-12))

    return _report("dirac", ns, checks)


def _format_deta_multiple(form: KForm) -> str:
    """Render an exact multiple of deta like "i*deta"; fall back to repr."""
    target = deta()
    c12 = form.coefficient(1, 2)
    if (form - c12 * target).norm_inf() == 0:
        if c12 == 1j:
            return "i*deta"
        if c12 == -1j:
            return "-i*deta"
        if c12.real == 0:
            return f"{c12.imag:g}i*deta"
        return f"({c12:g})*deta"
    return repr(form)


# A huge --perturb overflows sigma(psi) to inf or NaN, which then fails its check.
@np.errstate(over="ignore", invalid="ignore")
def _suite_solution(ns) -> dict:
    s_val = ns.scalar
    sol = canonical_solution(s_val)
    psi = sol.amplitude * PSI0
    # Scaled by 1 + |EPS|: at EPS = -2 a factor 1 + EPS would be -1, a U(1)
    # gauge transformation that no row can see.
    if ns.perturb:
        psi = psi * (1.0 + abs(ns.perturb))
    r_curv, sigma_vertical = sw_residual(sol.f_a, psi)
    r_doubled, _ = sw_residual(sol.f_a, (2.0 * sol.amplitude) * PSI0)
    # The amplitude sqrt(-s) squares back to -s only up to rounding relative
    # to |s|, so the two rows that square it are measured relative to |s|.
    scale = abs(s_val)

    checks = [
        # The connection is in a gauge normal at the point (its 1-form
        # vanishes there) and the spinor is constant, so every covariant
        # derivative, and with them D_A psi, vanishes identically.
        _check("dirac_residual", 0.0, 0.0),
        _check("curvature_residual_exact_chain", sol.r_curv, 0.0),
        _check("curvature_residual_pointwise", r_curv / scale, 1e-12),
        _check("sigma_vertical_part", sigma_vertical, 1e-12),
        _check(
            "sigma_h_equals_i_s_deta", (sol.sigma_h_psi - (1j * s_val) * deta()).norm_inf(), 0.0
        ),
        _check(
            "rho_plus_equals_minus_quarter_s_deta",
            (sol.rho_plus + (s_val / 4.0) * deta()).norm_inf(),
            0.0,
        ),
        _check(
            "scaled_spinor_mismatch_closed_form",
            abs(r_doubled - abs(3.0 * s_val / 4.0)) / scale,
            1e-12,
        ),
    ]

    report = _report("solution", ns, checks)
    report["F_A_plus"] = _format_deta_multiple(sol.f_a_plus)
    report["sigma_h_psi"] = _format_deta_multiple(sol.sigma_h_psi)
    return report


def _suite_all(ns) -> dict:
    sub = {}
    ok = True
    for name in ("clifford", "selfdual", "curvature", "model", "dirac", "solution"):
        rep = SUITES[name](_suite_ns(name, ns))
        sub[name] = rep
        ok = ok and rep["pass"]
    return {
        "suite": "all",
        "model": ns.model,
        "parameters": _parameters(ns),
        "suites": sub,
        "pass": ok,
    }


SUITES = {
    "clifford": _suite_clifford,
    "selfdual": _suite_selfdual,
    "curvature": _suite_curvature,
    "model": _suite_model,
    "dirac": _suite_dirac,
    "solution": _suite_solution,
    "all": _suite_all,
}

#: The one list of options, name -> (converter, default, help): the reader,
#: the defaults, ``--help`` and each report's parameters read it.
OPTIONS = {
    "samples": (int, 1000, "read by no check; kept for existing command lines"),
    "seed": (int, 0, "seed for all random draws"),
    "scalar": (float, -4.0, "scalar curvature for the solution suite"),
    "model": (str, "heisenberg", "builtin model name or JSON file path"),
    "output": (str, None, "write the JSON report to this path"),
    "perturb": (float, 0.0, "corrupt one suite input by this amount (1e-3 must make it fail)"),
}


def parse_args(argv) -> SimpleNamespace:
    """The command of ``argv`` and every option, as given or as ``OPTIONS``
    defaults it.  An option is ``--name value`` or ``--name=value``, named by
    any unique prefix; its value is the next argument whatever it looks like.
    ``--help`` is read only in full or as ``-h``.  The one command may stand
    anywhere; a repeated option keeps its last value."""
    ns = SimpleNamespace(command=None, **{k: v[1] for k, v in OPTIONS.items()})
    commands = ", ".join(sorted(SUITES))
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            if arg not in SUITES or ns.command:
                raise UsageError(f"unexpected {arg!r}: give one command of {commands}")
            ns.command = arg
            continue
        if arg in ("-h", "--help"):
            print(f"usage: swcheck [-h] COMMAND [--OPTION VALUE ...]\n\ncommands: {commands}\n")
            print("options:", *(f"  --{n:<8} {t} [{d}]" for n, (_, d, t) in OPTIONS.items()), sep="\n")
            sys.exit(EXIT_PASS)
        key, eq, value = arg[2:].partition("=")
        names = [n for n in OPTIONS if arg[:2] == "--" and key and n.startswith(key)]
        name = key if key in names else names[0] if len(names) == 1 else None
        if name is None:
            raise UsageError(f"{'ambiguous' if len(names) > 1 else 'unrecognized'} option {arg!r}")
        convert = OPTIONS[name][0]
        try:
            setattr(ns, name, convert(value if eq else next(args)))
        except (StopIteration, ValueError):
            raise UsageError(f"--{name} takes one {convert.__name__} value") from None
    if ns.command is None:
        raise UsageError(f"no command given: give one of {commands}")
    return ns


def _parameters(ns) -> dict:
    """Every option but ``--output``, and ``--scalar`` only for ``solution``."""
    skip = {"output"} | ({"scalar"} if ns.command != "solution" else set())
    return {name: getattr(ns, name) for name in OPTIONS if name not in skip}


def _report(suite: str, ns, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "model": ns.model,
        "parameters": _parameters(ns),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _suite_ns(command: str, base: SimpleNamespace) -> SimpleNamespace:
    """The read namespace as suite ``command`` runs it.

    Only ``model`` records samples and reads a chart, and ``all`` passes them
    on: the other suites leave samples None and record the Heisenberg chart,
    as each does when run alone.  ``bundle``, the chart that ``run`` loaded
    for ``model`` and ``all``, passes through.
    """
    ns = SimpleNamespace(**vars(base))
    ns.command = command
    ns.samples = base.samples if command in ("model", "all") else None
    ns.model = base.model if command in ("model", "all") else "heisenberg"
    return ns


def run(argv=None) -> int:
    """Run the command of ``argv`` (default ``sys.argv[1:]``), print or write
    its report, and return the exit code.

    The verdict freezes the objects that exist before it (``gc.freeze``), so
    its collections skip what the imports left young, and it restores the
    collector on every return or raise.  A process that has frozen objects of
    its own keeps them as they are.
    """
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return _verdict(argv)
    finally:
        if freeze:
            gc.unfreeze()


def _verdict(argv) -> int:
    try:
        base = parse_args(sys.argv[1:] if argv is None else argv)
        if base.samples < 1:
            raise UsageError("--samples must be >= 1")
        if base.samples > SAMPLES_LIMIT:
            raise UsageError(f"--samples must be <= {SAMPLES_LIMIT}")
        if base.seed < 0:
            raise UsageError("--seed must be >= 0")
        if base.seed >= SEED_LIMIT:
            raise UsageError(f"--seed must be < 2**63 = {SEED_LIMIT}")
        for name, (convert, _, _) in OPTIONS.items():
            if convert is float and not math.isfinite(getattr(base, name)):
                raise UsageError(f"--{name} must be finite")
        if base.command in ("solution", "all") and base.scalar >= 0:
            raise UsageError(f"--scalar must be negative, got {base.scalar}")
        if base.command in ("solution", "all") and base.scalar < -SCALAR_LIMIT:
            raise UsageError(f"--scalar must be >= -{SCALAR_LIMIT:g}, got {base.scalar}")
        if base.command in ("solution", "all") and base.scalar > -1 / SCALAR_LIMIT:
            raise UsageError(f"--scalar must be <= -{1 / SCALAR_LIMIT:g}, got {base.scalar}")
        if base.command == "dirac" and base.model != "heisenberg":
            raise UsageError("--model: the dirac suite runs on the Heisenberg chart only")
        if base.command not in ("model", "all") and base.model != "heisenberg":
            raise UsageError(f"--model: the {base.command} suite reads no chart")
        if not base.model:
            # An empty path would read as the current directory.
            raise UsageError(f"--model: {os.strerror(errno.ENOENT)}: ")
        # Checked again when the report is written: the directory may change meanwhile.
        if base.output is not None and (reason := _unwritable_directory(base.output)):
            raise UsageError(f"--output: {reason}: {base.output}")
        ns = _suite_ns(base.command, base)
        start = time.perf_counter()
        try:
            if base.command in ("model", "all"):
                ns.bundle = load_model(base.model)
            report = SUITES[base.command](ns)
        except (ModelFormatError, OverflowError) as exc:
            # A chart file that fails to load, or whose checks overflow a degree.
            raise type(exc)(f"{base.model}: {exc}") from exc
    except (UsageError, ModelFormatError, PolySyntaxError, OverflowError) as exc:
        print(f"swcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report["wall_time_s"] = time.perf_counter() - start

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if ns.output is not None:
        try:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"swcheck: error: --output: {exc.strerror or exc}: {ns.output}", file=sys.stderr)
            return EXIT_USAGE
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            # The interpreter flushes stdout again at exit: what is still
            # buffered goes to the null device instead of failing a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"swcheck: error: stdout: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
