"""Command-line front end: run named check suites, emit JSON reports.

Subcommands: clifford, selfdual, curvature, model, dirac, solution, all.
Exit code 0 means every check passed, 1 means a check failed, 2 means the
invocation or an input file was invalid, or the report could not be written.

Reports are JSON with one row per check (name, residual, tolerance, pass);
identical (suite, seed, samples) invocations produce byte-identical reports
except for the wall-time field.  Default tolerances: 0 for the exact
algebraic suites, 1e-12 for pointwise polynomial suites, 1e-6 for the
finite-difference comparison (1e-10 for the dbar identity).

Every suite accepts ``--perturb EPS``, a fault-injection knob that corrupts
one well-defined input of the suite before running, so that harnesses can
verify the checks are not vacuous; with a nonzero EPS the suite must fail.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import cliff5, curvature, extalg, models
from .cliff5 import GAMMA, PSI0
from .dirac_sw import (
    FIELD_DEGREE,
    SpinorField,
    canonical_solution,
    dbar_identity_residual,
    derive_identification,
    dirac_on_basis,
    form_clifford_action,
    full_dirac,
    full_dirac_fd_on_basis,
    kohn_dirac,
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
from .poly import (
    PolyExpr,
    PolySyntaxError,
    evaluate_all,
    max_abs,
    random_coefficients,
    random_poly,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Seeds run below 2**63: every accepted seed, and so every report's
#: ``seed``, fits a signed 64-bit integer.
SEED_LIMIT = 2**63

#: Largest |--scalar|.  The solution suite's doubled spinor 2 sqrt(-s) psi0
#: has a bilinear of size 4|s|, and the self-dual projection adds two such
#: terms, which overflows a float from about |s| = 2e307 on.
SCALAR_LIMIT = 1e300


class UsageError(Exception):
    pass


#: A negative float literal: decimal, scientific notation included, or inf / nan.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it would read the value
        # in "--scalar -1e-3" as an option.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _unwritable_directory(path: str) -> str | None:
    """Why no file can be written at ``path`` because its directory is missing
    or not writable, or None.  Creates and truncates nothing."""
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


def _floor_check(name: str, value: float, floor: float) -> dict:
    """Check that a quantity stays above a floor (nondegeneracy); a NaN
    value gives a NaN residual."""
    return {
        "name": name,
        "residual": _json_number(float(np.maximum(0.0, floor - value))),
        "tolerance": 0.0,
        "pass": bool(value >= floor),
    }


# -- suites ----------------------------------------------------------------------


#: Most samples put through the fixed-dimension algebra in one stack, so that
#: peak memory does not grow with ``--samples``.
BLOCK = 500


def _worst(n: int, residuals):
    """Worst of ``residuals(block)`` (one residual or a tuple) over index
    blocks of at most BLOCK samples; ``np.max`` propagates NaN."""
    return np.max([residuals(b) for b in np.split(np.arange(n), range(BLOCK, n, BLOCK))], axis=0)


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

    rng = np.random.default_rng(ns.seed)

    def sigma_real_part(block):
        z = rng.normal(size=(len(block), 2, 4))
        return np.max(np.abs(cliff5.sigma_full(z[:, 0] + 1j * z[:, 1]).coeffs.real))

    r = _worst(ns.samples, sigma_real_part)
    checks.append(_check("sigma_coefficients_imaginary", r, 1e-12))

    return _report("clifford", ns, checks)


def _suite_selfdual(ns) -> dict:
    perturb = ns.perturb
    checks = []
    # All basis forms of each degree, as one identity stack per degree.
    bases = [KForm(k, np.eye(len(extalg.INDEX_TUPLES[k]))) for k in range(6)]

    r = np.max([(hodge_star(hodge_star(b)) - b).norm_inf() for b in bases])
    if perturb:
        r += perturb
    checks.append(_check("hodge_star_involution_32_basis_forms", r, 0.0))

    vol = volume_form()
    r = np.max([(wedge(b, hodge_star(b)) - vol).norm_inf() for b in bases])
    checks.append(_check("hodge_defining_property_basis", r, 0.0))

    rng = np.random.default_rng(ns.seed)

    def hodge_defining_property(block):
        c = rng.normal(size=(len(block), 10))
        a = KForm(2, c)
        norm2 = (c[:, None, :] @ c[:, :, None])[:, 0, 0]
        return (wedge(a, hodge_star(a)) - norm2 * vol).norm_inf()

    r = _worst(ns.samples, hodge_defining_property)
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

    def sd_projection(block):
        c = rng.normal(size=(len(block), 10)).astype(complex)
        c[:, vertical] = 0
        beta = KForm(2, c)
        plus, minus = sd_project(beta)
        return np.max(np.abs(form_inner(plus, minus))), (plus + minus - beta).norm_inf()

    r = np.max(_worst(ns.samples, sd_projection))
    checks.append(_check("sd_projection_orthogonal", r, 1e-13))

    return _report("selfdual", ns, checks)


def _suite_curvature(ns) -> dict:
    perturb = ns.perturb
    tol = ns.tol
    j = curvature.J_FRAME
    jh = j[:4, :4]
    xs, ys = curvature.HORIZONTAL_FRAME_PAIRS
    # One stream per kind of draw; blocks draw in order, so the draws depend
    # neither on BLOCK nor, for the first n, on --samples.  The tensor check's
    # 10 Ricci draws come first, so they do not depend on --samples at all.
    ric_rng = np.random.default_rng([ns.seed, 0])
    tau_rng = np.random.default_rng([ns.seed, 1])
    ric_tensor = curvature.random_admissible_ricci(ric_rng, 10)

    def residuals(block):
        ric = curvature.random_admissible_ricci(ric_rng, len(block))
        tau = curvature.random_admissible_torsion(tau_rng, len(block))
        if perturb:
            ric[:, 0, 0] += perturb
            tau[:, 0, 1] += perturb
        ric_h = ric[:, :4, :4]
        return (
            (curvature.rho_plus(ric) + (curvature.scalar_curvature(ric) / 4.0) * deta()).norm_inf(),
            np.max(np.abs(j @ ric - ric @ j)),
            np.max(np.abs(jh.T @ ric_h @ jh - ric_h)),
            np.max(np.abs(curvature.bianchi_b(tau, xs, ys))),
            curvature.ric_identity_check(ric),
        )

    r_rho, r_j, r_jj, r_b, r_ric = _worst(ns.samples, residuals)
    checks = [
        _check("rho_plus_is_minus_quarter_s_deta", r_rho, tol),
        _check("J_commutes_with_ricci", r_j, 0.0 if not perturb else tol),
        _check("ricci_J_invariance", r_jj, 1e-14),
        _check("bianchi_correction_vanishes", r_b, tol),
        _check("ricci_reconstruction_identity", r_ric, tol),
    ]

    t4 = curvature.curvature_tensor(ric_tensor)
    z = curvature.COMPLEX_FRAME
    r_trace = np.max(np.abs(curvature.ricci_trace(t4) - 1j * z @ (j @ ric_tensor) @ z.T))
    r = np.max([*curvature.symmetry_check(t4).values(), r_trace])
    checks.append(_check("curvature_tensor_symmetries_and_trace", r, 1e-12))

    return _report("curvature", ns, checks)


def _suite_model(ns) -> dict:
    try:
        bundle = load_model(ns.model)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{ns.model}: {exc}") from exc
    frame = bundle.frame
    if ns.perturb:
        y2 = PolyExpr.variable("y2")
        jrows = [list(row) for row in frame.jmat]
        jrows[0][2] = jrows[0][2] + ns.perturb * y2
        frame = models.FrameFieldSet(
            frame.name, frame.fields, frame.eta, tuple(tuple(r) for r in jrows)
        )
    points = sample_points(ns.samples, ns.seed)
    tol = ns.tol
    checks = []
    # An overflowing product gives inf or NaN, which then fails its check.
    with np.errstate(over="ignore", invalid="ignore"):
        cc = models.contact_check(frame, points)
        vol_min = cc.pop("contact_volume_min")
        for name, residual in sorted(cc.items()):
            checks.append(_check(f"contact_{name}", residual, tol))
        checks.append(_floor_check("contact_volume_nondegenerate", vol_min, 1e-9))
        if ns.model == "heisenberg":
            r = max_abs(evaluate_all([frame.contact_volume], points) - 2.0)
            checks.append(_check("contact_volume_equals_2", r, tol))

        tw = models.tw_axiom_check(frame, bundle.connection, points)
        for name, residual in sorted(tw.items()):
            checks.append(_check(f"tw_{name}", residual, tol))

        cr = models.cr_check(frame, points)
        for name, residual in sorted(cr.items()):
            checks.append(_check(f"cr_{name}", residual, tol))

    return _report("model", ns, checks)


def _suite_dirac(ns) -> dict:
    checks = []
    s = heisenberg5()
    rng = np.random.default_rng(ns.seed)
    points = sample_points(20, ns.seed + 1)

    psi0 = SpinorField.psi0()
    if ns.perturb:
        psi0 = psi0 + SpinorField.make(ns.perturb * PolyExpr.variable("x1"), 0, 0, 0)
    r = max_abs(full_dirac(s, psi0).evaluate(points))
    rk = max_abs(kohn_dirac(s, psi0).evaluate(points))
    checks.append(_check("full_dirac_psi0_zero", r, 0.0))
    checks.append(_check("kohn_dirac_psi0_zero", rk, 0.0))

    # Every drawn field lies in the span of the basis fields m e_k (m a monomial
    # of degree <= 3), and each check is linear in the field: its residuals are
    # computed once on the basis, one row per basis field, and the residual of
    # a draw is its coefficient vector times them.  Blocks draw in order, so the
    # draws do not depend on BLOCK.
    oracle = full_dirac_fd_on_basis(s, points, ns.h)
    kohn, full = dirac_on_basis(s, points)
    fd = (full - oracle).reshape(len(full), -1)
    dbar = dbar_identity_residual(kohn[:, :10], points[:10]).reshape(len(fd), -1)

    def worst_draw(n, rows):
        coeffs = random_coefficients(rng, FIELD_DEGREE, (n, 4)).reshape(n, -1)
        # einsum's own loop, not `@`: at this size `@` calls a threaded BLAS
        # zgemm, measured at about 20 ms a call on a 2-vCPU machine against 1-3 ms.
        return max_abs(np.einsum("fj,jr->fr", coeffs, rows))

    r = _worst(ns.samples, lambda block: worst_draw(len(block), fd))
    checks.append(_check("finite_difference_agreement", r, ns.tol))
    checks.append(_check("finite_difference_agreement_degree3_basis", max_abs(fd), ns.tol))
    checks.append(_check("dbar_identity", worst_draw(20, dbar), 1e-10))
    checks.append(_check("dbar_identity_degree3_basis", max_abs(dbar), 1e-10))

    phi = derive_identification()
    defects = [phi.conj().T @ phi - np.eye(4)]
    for i, x in enumerate(np.eye(5), 1):
        defects.append(phi @ form_clifford_action(x) - cliff5.gamma(i) @ phi)
    r = max_abs(defects)
    checks.append(_check("identification_unitary_intertwiner", r, 1e-12))

    psi = SpinorField(tuple(random_poly(rng, 2) for _ in range(4)))
    phase = np.exp(1j * 0.7)
    psi_rot = psi.scale(phase)
    few = points[:5]
    moduli = np.abs(full_dirac(s, psi_rot).evaluate(few)) - np.abs(full_dirac(s, psi).evaluate(few))
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
    if ns.perturb:
        psi = psi * (1.0 + ns.perturb)
    r_curv, sigma_vertical = sw_residual(sol.f_a, psi)
    r_doubled, _ = sw_residual(sol.f_a, (2.0 * sol.amplitude) * PSI0)
    # The amplitude sqrt(-s) squares back to -s only up to rounding relative
    # to |s|, so the two rows that square it are measured relative to
    # max(1, |s|).
    scale = max(1.0, abs(s_val))

    checks = [
        # The connection is in a gauge normal at the point (its 1-form
        # vanishes there) and the spinor is constant, so every covariant
        # derivative, and with them D_A psi, vanishes identically.
        _check("dirac_residual", 0.0, 0.0),
        _check("curvature_residual_exact_chain", sol.r_curv, 0.0),
        _check("curvature_residual_pointwise", r_curv / scale, ns.tol),
        _check("sigma_vertical_part", sigma_vertical, ns.tol),
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
            ns.tol,
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
        rep = SUITES[name](_SubNS(name, ns))
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

_DEFAULTS = {
    "clifford": dict(samples=200, tol=0.0),
    "selfdual": dict(samples=100, tol=0.0),
    "curvature": dict(samples=10000, tol=1e-12),
    "model": dict(samples=1000, tol=1e-12),
    "dirac": dict(samples=50, tol=1e-6),
    "solution": dict(samples=1, tol=1e-12),
    "all": dict(samples=None, tol=None),
}


def _parameters(ns) -> dict:
    out = {
        "samples": ns.samples,
        "seed": ns.seed,
        "tol": ns.tol,
        "h": ns.h,
        "perturb": ns.perturb,
        "model": ns.model,
    }
    if ns.command == "solution":
        out["scalar"] = ns.scalar
    return out


def _report(suite: str, ns, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "model": ns.model,
        "parameters": _parameters(ns),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


class _SubNS:
    """View of the parsed namespace with suite-specific defaults filled in.

    ``all`` keeps samples/tol unset so every sub-suite resolves its own
    default unless the user overrode them explicitly.  ``dirac`` always runs
    on the Heisenberg chart, which its dbar checks require.
    """

    def __init__(self, command, base):
        d = _DEFAULTS[command]
        self.command = command
        self.samples = base.samples if base.samples is not None else d["samples"]
        self.tol = base.tol if base.tol is not None else d["tol"]
        self.seed = base.seed
        self.h = base.h
        self.perturb = base.perturb
        self.model = "heisenberg" if command == "dirac" else base.model
        self.scalar = base.scalar
        self.output = base.output


def build_parser() -> _Parser:
    p = _Parser(
        prog="swcheck",
        description="Certify the identities of Seiberg-Witten like equations "
        "on contact metric 5-manifolds.",
    )
    p.add_argument(
        "command",
        choices=sorted(SUITES.keys()),
        help="check suite to run",
    )
    p.add_argument("--samples", type=int, default=None, help="sample count (suite-specific default)")
    p.add_argument("--seed", type=int, default=0, help="seed for all random draws")
    p.add_argument("--tol", type=float, default=None, help="pointwise tolerance override")
    p.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    p.add_argument("--scalar", type=float, default=-4.0, help="scalar curvature for the solution suite")
    p.add_argument("--model", default="heisenberg", help="builtin model name or JSON file path")
    p.add_argument("--output", default=None, help="write the JSON report to this path")
    p.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="fault injection: corrupt one suite input by this amount (the suite must then fail)",
    )
    return p


def run(argv=None) -> int:
    try:
        base = build_parser().parse_args(argv)
        if base.samples is not None and base.samples < 1:
            raise UsageError("--samples must be >= 1")
        if base.seed < 0:
            raise UsageError("--seed must be >= 0")
        if base.seed >= SEED_LIMIT:
            raise UsageError(f"--seed must be < 2**63 = {SEED_LIMIT}")
        for name in ("tol", "h", "scalar", "perturb"):
            value = getattr(base, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"--{name} must be finite")
        if base.tol is not None and base.tol < 0:
            raise UsageError("--tol must be >= 0")
        if base.h <= 0:
            raise UsageError("--h must be positive")
        if base.command in ("solution", "all") and base.scalar >= 0:
            raise UsageError(f"--scalar must be negative, got {base.scalar}")
        if base.command in ("solution", "all") and base.scalar < -SCALAR_LIMIT:
            raise UsageError(f"--scalar must be >= -{SCALAR_LIMIT:g}, got {base.scalar}")
        if base.command == "dirac" and base.model != "heisenberg":
            raise UsageError("--model: the dirac suite runs on the Heisenberg chart only")
        # Checked again when the report is written: the directory may change meanwhile.
        if base.output and (reason := _unwritable_directory(base.output)):
            raise UsageError(f"--output: {reason}: {base.output}")
        ns = _SubNS(base.command, base)
        start = time.perf_counter()
        report = SUITES[base.command](ns)
    except (UsageError, ModelFormatError, PolySyntaxError, OverflowError) as exc:
        print(f"swcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report["wall_time_s"] = time.perf_counter() - start

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"swcheck: error: --output: {exc.strerror or exc}: {ns.output}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
