"""Acceptance criteria.

One test per criterion, each printing a single PASS/FAIL line (run with -s
to see them).  Tolerances are pinned here and nowhere else: exact (== 0)
for the algebraic identities, 1e-12 for pointwise polynomial checks, 1e-6
for the finite-difference comparison, 1e-10 for the dbar identity.
"""

import json

import numpy as np

from swcheck import curvature
from swcheck.cli import EXIT_FAIL, run
from swcheck.cliff5 import PSI0, deta_eigenprojectors, gamma, kappa_deta, sigma_h
from swcheck.dirac_sw import (
    SpinorField,
    basis_derivatives,
    canonical_solution,
    dbar_identity_residual,
    fd_stencil,
    full_dirac,
    full_dirac_fd,
    sw_residual,
)
from swcheck.extalg import (
    INDEX_TUPLES,
    basis_form,
    contact_star,
    deta,
)
from swcheck.models import (
    contact_check,
    cr_check,
    heisenberg5,
    sample_points,
    tw_axiom_check,
)
from swcheck.poly import evaluate_all, max_abs


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_clifford_algebra():
    worst = 0.0
    for i in range(1, 6):
        for j in range(1, 6):
            ac = gamma(i) @ gamma(j) + gamma(j) @ gamma(i)
            target = -2 * np.eye(4, dtype=complex) if i == j else np.zeros((4, 4))
            worst = max(worst, float(np.max(np.abs(ac - target))))
    kd_ok = np.array_equal(kappa_deta(), np.diag([0, 2j, 0, -2j]))
    _report(
        1,
        "clifford anticommutators and kappa(deta), exact",
        worst == 0.0 and kd_ok,
        f"max residual {worst}",
    )


def test_criterion_2_eigenspace_structure():
    vals = np.linalg.eigvals(kappa_deta())
    spectrum = sorted(np.round(vals, 12), key=lambda z: z.imag)
    expected = [-2j, 0j, 0j, 2j]
    spec_ok = np.max(np.abs(np.array(spectrum) - np.array(expected))) == 0
    p2, p0, pm = deta_eigenprojectors()
    ranks_ok = [round(np.trace(p).real) for p in (p2, p0, pm)] == [1, 2, 1]
    action = kappa_deta() @ PSI0
    psi0_ok = np.array_equal(action, -2j * PSI0)
    _report(
        2,
        "kappa(deta) spectrum {2i,0,-2i} mult {1,2,1}; deta.psi0 = -2i psi0, exact",
        spec_ok and ranks_ok and psi0_ok,
    )


def test_criterion_3_sigma_identities():
    base = sigma_h(PSI0)
    ok = np.array_equal(base.coeffs, (-1j * deta()).coeffs)
    worst = 0.0
    for s in (-1.0, -2.0, -4.0):
        # |sqrt(-s)|^2 = -s applied analytically keeps the chain exact.
        scaled = (-s) * base
        resid = (scaled - (1j * s) * deta()).norm_inf()
        worst = max(worst, resid)
        # The floating sqrt route agrees to machine precision.
        float_route = sigma_h(np.sqrt(-s) * PSI0)
        assert (float_route - (1j * s) * deta()).norm_inf() < 1e-14
    _report(
        3,
        "sigma_h(psi0) = -i deta and sigma_h(sqrt(-s) psi0) = i s deta, exact",
        ok and worst == 0.0,
        f"scaling residual {worst}",
    )


def test_criterion_4_self_duality():
    worst = 0.0
    for idx in INDEX_TUPLES[2]:
        if 5 in idx:
            continue
        b = basis_form(*idx)
        worst = max(worst, (contact_star(contact_star(b)) - b).norm_inf())
    sd = (contact_star(deta()) - deta()).norm_inf()
    asd1 = basis_form(1, 4) - basis_form(2, 3)
    asd2 = basis_form(1, 3) + basis_form(2, 4)
    asd = max(
        (contact_star(asd1) + asd1).norm_inf(), (contact_star(asd2) + asd2).norm_inf()
    )
    _report(
        4,
        "contact star involution; deta self-dual; stated anti-self-dual forms, exact",
        worst == 0.0 and sd == 0.0 and asd == 0.0,
    )


def test_criterion_5_curvature_properties():
    # Each quantity is the worst over the whole stack of 10^4 seeded draws;
    # the reductions propagate NaN, so a NaN sample fails the criterion.
    rng = np.random.default_rng(0)
    ric = curvature.random_admissible_ricci(rng, 10_000)
    s = curvature.scalar_curvature(ric)
    worst_rho = (curvature.rho_plus(ric) + (s / 4.0) * deta()).norm_inf()

    ei = np.eye(5)
    i, j = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)]).T
    tau = curvature.random_admissible_torsion(rng, 10_000)
    worst_b = np.max(np.abs(curvature.bianchi_b(tau, ei[i], ei[j])))

    worst_ric = curvature.ric_identity_check(curvature.random_admissible_ricci(rng, 10_000))

    ok = worst_rho <= 1e-12 and worst_b <= 1e-12 and worst_ric <= 1e-12
    _report(
        5,
        "rho_plus identity, Bianchi correction, Ricci reconstruction on 10^4 samples",
        ok,
        f"rho {worst_rho:.2e}, B {worst_b:.2e}, ric {worst_ric:.2e}",
    )


def test_criterion_6_heisenberg_model():
    bundle = heisenberg5()
    frame, conn = bundle.frame, bundle.connection
    points = sample_points(1000, seed=0)
    vol = frame.contact_volume
    worst_vol = max(abs(vol(p) - 2.0) for p in points)
    families = {**tw_axiom_check(frame, conn), **cr_check(frame), **contact_check(frame)}
    worst = max(max_abs(evaluate_all(polys, points)) for polys in families.values())
    ok = worst_vol <= 1e-12 and worst <= 1e-12
    _report(
        6,
        "Heisenberg contact volume = 2, TW axioms, CR integrability at 1000 points",
        ok,
        f"volume {worst_vol:.2e}, axioms {worst:.2e}",
    )


def test_criterion_7_dirac_operators(random_poly):
    s = heisenberg5()
    points = sample_points(20, seed=5)
    psi0 = SpinorField.psi0()
    exact_zero = all(
        np.array_equal(full_dirac(s, psi0).evaluate(p), np.zeros(4, dtype=complex)) for p in points
    )

    rng = np.random.default_rng(17)

    worst_fd = 0.0
    for _ in range(50):
        psi = SpinorField(tuple(random_poly(rng, 3) for _ in range(4)))
        fd = full_dirac_fd(s, psi.evaluate(fd_stencil(points, 1e-4)), points, h=1e-4)
        worst_fd = max(worst_fd, float(np.max(np.abs(full_dirac(s, psi).evaluate(points) - fd))))

    # The dbar identity on every basis field m e_k, so on every field of degree <= 3.
    derivs, _ = basis_derivatives(s, points[:10], 1e-4)
    worst_dbar = float(np.max(np.abs(dbar_identity_residual(s, derivs))))

    ok = exact_zero and worst_fd <= 1e-6 and worst_dbar <= 1e-10
    _report(
        7,
        "D psi0 = 0 exact; FD agreement <= 1e-6; dbar identity <= 1e-10",
        ok,
        f"fd {worst_fd:.2e}, dbar {worst_dbar:.2e}",
    )


def test_criterion_8_canonical_solution():
    ok = True
    details = []
    for s in (-1.0, -2.0, -4.0):
        sol = canonical_solution(s)
        r_curv, _ = sw_residual(sol.f_a, sol.amplitude * PSI0)
        ok = ok and sol.r_curv == 0.0 and r_curv <= 1e-12
        r_doubled, _ = sw_residual(sol.f_a, 2 * sol.amplitude * PSI0)
        # deta has unit max-coefficient norm, so the closed form is |3s/4|.
        mismatch = abs(r_doubled - abs(3 * s / 4))
        ok = ok and mismatch <= 1e-12
        details.append(f"s={s}: curv {r_curv:.1e}, control {mismatch:.1e}")
    _report(8, "canonical solution and scaled negative control", ok, "; ".join(details))


def test_criterion_9_negative_controls(tmp_path, capsys, model_to_dict):
    """Every suite must FAIL (exit code 1) on a deliberately broken input."""
    invocations = [
        ["clifford", "--perturb", "1e-3"],
        ["selfdual", "--perturb", "1e-3"],
        ["curvature", "--perturb", "1e-3", "--samples", "50"],
        ["model", "--perturb", "0.1", "--samples", "50"],
        ["dirac", "--perturb", "1e-3", "--samples", "3"],
        ["solution", "--perturb", "1e-3"],
    ]
    codes = {}
    for argv in invocations:
        out = tmp_path / f"{argv[0]}.json"
        codes[argv[0]] = run(argv + ["--output", str(out)])

    # Broken model file: a rescaled frame field must fail the model suite.
    from swcheck.models import load_model

    broken = model_to_dict(load_model("heisenberg"))
    broken["frame"][0] = ["2", "0", "0", "0", "2*y1"]
    path = tmp_path / "broken_model.json"
    path.write_text(json.dumps(broken))
    codes["model-file"] = run(
        ["model", "--model", str(path), "--samples", "20", "--output", str(tmp_path / "m.json")]
    )

    ok = all(code == EXIT_FAIL for code in codes.values())
    capsys.readouterr()
    _report(9, "every suite fails on broken input (exit 1)", ok, str(codes))
