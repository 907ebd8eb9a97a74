"""Spinor fields, the spinorial connection, Dirac operators and the
Seiberg-Witten like equations on the contact 5-frame.

The spinorial covariant derivative along a frame vector e_W is

    nabla_W psi = e_W(psi) + Omega_W psi,
    Omega_W = (1/2) sum_{j<k} omega_jk(e_W) kappa(e_j) kappa(e_k) + (1/2) A(e_W) Id,

with omega_jk(e_W) = g(nabla_{e_W} e_j, e_k) read off the frame Christoffel
symbols and A the imaginary-valued U(1) connection 1-form, the ``gamma``
and ``a_form`` of a :class:`~swcheck.models.ModelBundle`, the chart that the
covariant derivative and the Dirac operators take as first argument; each
Omega_W is one exact 4 x 4 matrix of polynomials (``_connection_matrix``).
The so(5) term is the standard spin connection, (1/4) sum_{j,k} = (1/2)
sum_{j<k}; the 1/2 on the A term is the determinant-line convention.  Both
prefactors are isolated in the module constants below.  Only equal
prefactors give D_A psi0 = 0 on the Sasakian circle bundle over H^2 x H^2,
where F_A = i rho_h; on the flat Heisenberg model every omega vanishes, so
only the A convention is exposed there.

The Kohn-Dirac operator sums the horizontal Clifford derivatives,
D_H = sum_{i<=4} kappa(e_i) nabla_i, and the full operator adds the Reeb
term kappa(e_5) nabla_5; ``dirac_operators`` returns both, and
``full_dirac`` the second.

The operators map polynomial fields to polynomial fields:
``spin_covariant_derivative``, ``dirac_operators`` and ``full_dirac`` return
:class:`SpinorField` values, derived once and exactly, and linear: the
operator of c psi is c times that of psi, term by term.  Callers bound them
over the box from their exact coefficients (``poly.coefficient_bound``) or
evaluate them on stacks of points, ``(..., 5)`` arrays, through
:func:`~swcheck.poly.evaluate_all`.  ``full_dirac_fd`` is the
independent oracle: it takes central differences of the spinor values on
the stencil around every point and shares only Omega_W with the exact path.
Since every residual here is linear, its values on all basis fields m e_k
with m a monomial of degree at most FIELD_DEGREE are taken at once, a
4 x 4 matrix per point and monomial; a polynomial field of that
degree is a combination of them, and ``family_maximum`` takes the largest
residual of a family of such fields straight from them.  Each is one
``contract`` of the derivatives e_w(m) of the monomials, which
``basis_derivatives`` gives exactly, with no symbolic monomial built, and as
central differences.  The full operator minus its oracle is the difference
of the two tables contracted with kappa(e_w).  On a chart with no connection
terms along e_1, ..., e_4 the dbar identity is the exact table contracted
with ``_DBAR_MAP``, Phi^H times the ``intertwiner_defects`` of e_1, ..., e_4.

The curvature equation couples the self-dual part of F_A with the spinor
bilinear: F_A^+ = -(1/4) sigma(psi)^+; ``sw_residual`` takes the curvature
2-form and the spinor values as arrays.  Here sigma(psi)^+ means the
self-dual part of the HORIZONTAL component of sigma(psi): the contact star
only acts on horizontal 2-forms, and the verified solution chain lives
entirely in horizontal forms.  Vertical components of sigma are reported
separately for transparency.  The spinor bundle has no half-spinor split in
dimension 5; the Dirac equation constrains a full spinor field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cliff5 import GAMMA, PAIR_PRODUCTS, PSI0, gamma, sigma_full, sigma_h
from .curvature import SQ2_UNITARY_FRAME, admissible_ricci, ricci_form, rho_plus
from .extalg import PAIR_INDEX, KForm, _frozen, horizontal_split, sd_project
from .models import ModelBundle
from .poly import PolyExpr, as_poly, dot, evaluate_all, monomial_terms, monomials

#: Prefactor of the so(5) part of the spinorial connection, over pairs j < k.
SO_COUPLING = 0.5
#: Prefactor of the U(1) part (determinant-line convention).
U1_COUPLING = 0.5
#: The 1/4 of the curvature equation F_A^+ = -(1/4) sigma(psi)^+.
SW_COUPLING = 0.25


@dataclass(frozen=True)
class SpinorField:
    """Spinor field in the kappa basis, four polynomial components."""

    components: tuple[PolyExpr, PolyExpr, PolyExpr, PolyExpr]

    @staticmethod
    def make(*components) -> "SpinorField":
        if len(components) != 4:
            raise ValueError("a spinor field needs 4 components")
        return SpinorField(tuple(map(as_poly, components)))

    @staticmethod
    def psi0() -> "SpinorField":
        """The constant reference spinor (0, 0, 0, 1)."""
        return SpinorField.make(*PSI0)

    def evaluate(self, points) -> np.ndarray:
        """Values at a stack of points ``(..., 5)``, shape ``(..., 4)``."""
        return evaluate_all(self.components, points)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, factor) -> "SpinorField":
        f = as_poly(factor)
        return SpinorField(tuple(f * c for c in self.components))


@lru_cache(maxsize=20)
def _connection_matrix(s: ModelBundle, w: int) -> tuple[tuple[PolyExpr, ...], ...]:
    """Omega_w, the zeroth-order part of nabla_w, as an exact 4 x 4 matrix:
    SO_COUPLING sum_{j<k} Gamma^k_{wj} kappa(e_j) kappa(e_k) + U1_COUPLING A(e_w) Id,
    with omega_jk(e_w) = Gamma^k_{wj} in a g-orthonormal frame.  Each entry is
    one ``dot`` of the ten Gamma^k_{wj} and A(e_w), times their couplings, with
    the matrices' entries; () when all eleven are zero.  The couplings and
    ``PAIR_PRODUCTS`` are read when called; it is built once per chart and
    direction, read-only."""
    gam, a_w = s.gamma[w - 1], s.a_form.pair_vector(s.frame.fields[w - 1])
    coeffs = [gam[j][k] for j, k in zip(*PAIR_INDEX)] + [a_w]
    if all(c.is_zero() for c in coeffs):
        return ()
    so, u1 = PolyExpr.const(SO_COUPLING), PolyExpr.const(U1_COUPLING)
    coeffs = [so * c for c in coeffs[:10]] + [u1 * a_w]
    mats = np.concatenate([PAIR_PRODUCTS, np.eye(4)[None]])
    return tuple(
        tuple(dot(coeffs, [PolyExpr.const(a) for a in mats[:, j, k]]) for k in range(4))
        for j in range(4)
    )


def spin_covariant_derivative(s: ModelBundle, w: int, psi: SpinorField) -> SpinorField:
    """Spinorial covariant derivative along frame direction w in 1..5."""
    if not 1 <= w <= 5:
        raise ValueError(f"frame index must be in 1..5, got {w}")
    out = tuple(s.frame.fields[w - 1].apply(c) for c in psi.components)
    if omega := _connection_matrix(s, w):
        out = tuple(c + dot(row, psi.components) for c, row in zip(out, omega))
    return SpinorField(out)


#: kappa(e_1), ..., kappa(e_4) side by side as exact constants, 4 rows of 16,
#: and kappa(e_5), 4 rows of 4.
_KOHN_ROWS, _REEB_ROWS = (
    tuple(tuple(map(PolyExpr.const, row)) for row in m) for m in (np.hstack(GAMMA[:4]), GAMMA[4])
)


def dirac_operators(s: ModelBundle, psi: SpinorField) -> tuple[SpinorField, SpinorField]:
    """The Kohn-Dirac operator sum_{i<=4} kappa(e_i) nabla_i psi and the full
    operator, which adds the Reeb term kappa(e_5) nabla_5 psi.  The five
    covariant derivatives are taken once; Kohn is one exact sum over the first
    four, and full adds the Reeb term to it."""
    derivs = [c for w in range(1, 6) for c in spin_covariant_derivative(s, w, psi).components]
    kohn = SpinorField(tuple(dot(row, derivs[:16]) for row in _KOHN_ROWS))
    return kohn, kohn + SpinorField(tuple(dot(row, derivs[16:]) for row in _REEB_ROWS))


def full_dirac(s: ModelBundle, psi: SpinorField) -> SpinorField:
    """Full Dirac operator, the second of ``dirac_operators``."""
    return dirac_operators(s, psi)[1]


def fd_stencil(points, h: float) -> np.ndarray:
    """The points p, p + h e_c and p - h e_c (c = 1..5) around each of a stack
    of points ``(..., 5)``, in that order: shape ``(..., 11, 5)``."""
    shift = h * np.eye(5)
    return np.asarray(points, dtype=float)[..., None, :] + np.concatenate(
        [np.zeros((1, 5)), shift, -shift]
    )


def _frame_values(s: ModelBundle, points) -> np.ndarray:
    """The frame components e_w^c at a stack of points ``(..., 5)``, shape
    ``(..., 5, 5)``, row w - 1 for e_w."""
    points = np.asarray(points, dtype=float)
    frame = evaluate_all([c for f in s.frame.fields for c in f.components], points)
    return frame.reshape(points.shape[:-1] + (5, 5))


def full_dirac_fd(s: ModelBundle, psi_vals: np.ndarray, points, h: float) -> np.ndarray:
    """Finite-difference oracle for the full Dirac operator on a stack of points.

    ``points`` has shape ``(..., 5)`` and ``psi_vals`` holds the spinor
    values on ``fd_stencil(points, h)``, shape ``(..., 11, 4)``, or a stack
    of them for F fields, ``(F, ..., 11, 4)``; the result has shape
    ``(..., 4)``, or ``(F, ..., 4)``.  The exact directional derivatives are
    replaced with central differences along the chart coordinates; only
    Omega_w is shared with the exact path.  This is the per-field reference
    that the finite-difference rows of the basis are tested against.
    """
    psi_p = psi_vals[..., 0, :]
    # e_w(psi) = sum_c e_w^c d_c psi, with d_c psi the central differences.
    diffs = psi_vals[..., 1:6, :] - psi_vals[..., 6:, :]
    diffs /= 2 * h
    derivs = _frame_values(s, points) @ diffs
    out = np.zeros(psi_p.shape, dtype=complex)
    for w in range(1, 6):
        deriv = derivs[..., w - 1, :]
        if omega := _connection_matrix(s, w):
            # Omega_w at every point, shape (..., 4, 4), times psi(p).
            omega_p = evaluate_all([a for row in omega for a in row], points)
            deriv += (omega_p.reshape(omega_p.shape[:-1] + (4, 4)) @ psi_p[..., None])[..., 0]
        out += deriv @ GAMMA[w - 1].T
    return out


# -- the operators on the basis fields m e_k ------------------------------------
#
# The full operator minus its oracle and the dbar identity are linear, and the
# fields the suite certifies have components of degree at most FIELD_DEGREE.
# So each is computed once on the 4 M basis fields m e_k (m one of the M
# monomials of ``poly.monomials(FIELD_DEGREE)``, e_k a unit vector), as a stack
# (..., 4, 4, M) of 4 x 4 matrices: [..., j, k, i] is component j of the
# operator on monomials[i] e_k.  The field with coefficients c (shape (4, M))
# has the value ``np.einsum("ki,...jki->...j", c, basis)``.  Each stack is one
# ``contract`` of e_w(m) with constant matrices: ``contract(derivs - fd_derivs,
# GAMMA)``, and ``contract(derivs[..., :4, :], _DBAR_MAP)`` on a flat chart.

#: Largest total degree of the field components that the basis spans.
FIELD_DEGREE = 3
#: Most monomials in each component of a field of ``family_maximum``'s family.
FIELD_TERMS = 4


def family_maximum(basis) -> float:
    """The largest residual entry of every field whose four components each
    have at most FIELD_TERMS monomials of degree at most FIELD_DEGREE, with
    complex coefficients in the unit disc, from the basis values ``(..., 4, 4, M)``.

    Entry (..., j) of the field c is sum_{k, i} c[k, i] basis[..., j, k, i],
    at most the sum over k of the FIELD_TERMS largest |basis[..., j, k, i]|;
    the field with c = conj(b) / |b| (1 where b is 0) on those monomials
    reaches it.  ``np.sort`` puts NaN last, so a NaN entry gives NaN.  The
    4 FIELD_TERMS moduli of an entry, k-major, are one contiguous sum."""
    moduli = np.sort(np.abs(basis), axis=-1)
    return float(np.max(moduli[..., -FIELD_TERMS:].reshape(moduli.shape[:-2] + (-1,)).sum(-1)))


def _monomial_values(coeffs, exps, points) -> np.ndarray:
    """``coeffs[j] * x^exps[j]`` at a stack of points ``(..., 5)``, shape
    ``(..., len(exps))``."""
    points = np.asarray(points, dtype=float)
    terms = monomial_terms(coeffs, exps, points.reshape(-1, 5))
    return terms.T.reshape(points.shape[:-1] + (len(exps),))


def basis_derivatives(s: ModelBundle, points, h: float) -> tuple[np.ndarray, np.ndarray]:
    """e_w(m) for the five frame fields and every basis monomial m at a stack
    of points, shape ``(..., 5, M)``, and the same with central differences at
    step h.

    By the chain rule e_w(m) = sum_c e_w^c d_c m, with d_c m = n_c x^(e - u_c)
    for m = x^e: the partials with n_c > 0 are evaluated in one pass, the
    others are exactly 0.  The central differences (m(p + h u_c) -
    m(p - h u_c)) / 2h come from one pass over the monomials on the stencil.
    Both tables read the one evaluation of the frame components.
    """
    exps = np.array(monomials(FIELD_DEGREE))
    c, i = np.nonzero(exps.T)
    partials = np.zeros(np.shape(points)[:-1] + (5, len(exps)), dtype=complex)
    partials[..., c, i] = _monomial_values(exps.T[c, i], exps[i] - np.eye(5, dtype=int)[c], points)
    stencil = _monomial_values(np.ones(len(exps)), exps, fd_stencil(points, h)[..., 1:, :])
    diffs = (stencil[..., :5, :] - stencil[..., 5:, :]) / (2 * h)
    frame = _frame_values(s, points)
    return frame @ partials, frame @ diffs


def contract(channels, mats) -> np.ndarray:
    """``sum_q f_q(m) mats[q] e_k`` for the columns k of the ``(Q, 4, 4)``
    matrices, from the values ``(..., Q, M)`` of the scalars f_q(m) for every
    monomial m, shape ``(..., 4, 4, M)``: a ``(16, Q) @ (Q, M)`` product a point."""
    return (np.reshape(mats, (-1, 16)).T @ channels).reshape(channels.shape[:-2] + (4, 4, -1))


# -- identification with (0, *)-forms -----------------------------------------

# Wedge with tb1 and with tb2 on the basis (1, tb1, tb2, tb1 ^ tb2) of the
# exterior module.  Contraction is the adjoint of the wedge: its transpose.
_WEDGE1 = _frozen([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], complex)
_WEDGE2 = _frozen([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]], complex)
#: Reeb action (-1)^(q+1) i on the degree-q summand.
_REEB_ACTION = _frozen(np.diag([-1j, 1j, 1j, -1j]))


def form_clifford_action(x) -> np.ndarray:
    """Clifford action of a frame vector on the (0, *)-form module.

    X . a = sqrt(2) ((X_H^{0,1})* ^ a - X_H^{0,1} _| a) + (-1)^(q+1) i eta(X) a
    with X_H^{0,1} = sum_a beta_a Zbar_a, sqrt(2) beta_a = sqrt(2) g(X, Z_a):
    rows of ``SQ2_UNITARY_FRAME``.  The metric dual (.)* is conjugate-linear;
    that choice is forced by the Clifford relation X . X . a = -|X|^2 a.
    """
    x = np.asarray(x, dtype=complex)
    b1, b2 = SQ2_UNITARY_FRAME[:2] @ x
    act = np.conj(b1) * _WEDGE1 + np.conj(b2) * _WEDGE2 - b1 * _WEDGE1.T - b2 * _WEDGE2.T
    return act + x[4] * _REEB_ACTION


#: The unitary map Phi from (0, *)-forms to the kappa spinor module: the one
#: solution of Phi (X . a) = kappa(X) Phi(a) for every frame vector X (the
#: representation is irreducible) with Phi(1) = psi0.  Pushing the basis
#: (1, tb1, tb2, tb1 ^ tb2) through the orbit of psi0 gives Phi(tb1) =
#: kappa(e1) psi0, Phi(tb2) = kappa(e3) psi0 and Phi(tb1 ^ tb2) = -kappa(e3)
#: Phi(tb1): a signed permutation with entries 1 and i.
IDENTIFICATION = _frozen([[0, 0, 1, 0], [0, 0, 0, 1j], [0, 1j, 0, 0], [1, 0, 0, 0]])


def intertwiner_defects() -> np.ndarray:
    """Phi^H Phi - Id, then Phi (e_w .) - kappa(e_w) Phi for w = 1..5, with
    Phi the module's ``IDENTIFICATION`` when called: shape (6, 4, 4), exactly
    zero since Phi is a unitary intertwiner."""
    phi = IDENTIFICATION
    defects = [phi @ form_clifford_action(x) - gamma(w) @ phi for w, x in enumerate(np.eye(5), 1)]
    return np.array([phi.conj().T @ phi - np.eye(4), *defects])


# -- dbar operators on a flat chart --------------------------------------------

#: The dbar identity on a chart with a flat connection, for w = 1..4: the
#: Clifford action of e_w on the forms minus Phi^H kappa(e_w) Phi, which is
#: Phi^H times the intertwiner defect of e_w, Phi being unitary.  Both sides
#: are linear in the e_w(m) with these constant coefficients.  The entries are
#: Gaussian integers, and the map is exactly zero.  It is derived at import,
#: from the ``IDENTIFICATION`` of that time.
_DBAR_MAP = _frozen(IDENTIFICATION.conj().T @ intertwiner_defects()[1:5])


def dbar_identity_residual(s: ModelBundle, derivs) -> np.ndarray:
    """sqrt(2) (dbar_H + dbar_H*) f - Phi^-1 D_H Phi f for every basis form
    field f = m e_k at a stack of points of chart ``s``: shape ``(..., 4, 4, M)``.

    ``derivs`` is the e_w(m) of ``basis_derivatives`` for that chart.  With a
    flat connection dbar_H and dbar_H* act componentwise, through the wedge
    and contraction matrices, on sqrt(2) Z_a(m) and sqrt(2) Zbar_a(m), and
    D_H is sum_{w<=4} e_w(m) kappa(e_w): so the residual is one contraction of
    the e_w(m) with ``_DBAR_MAP``.  Raises ValueError if nabla_w has
    connection terms for some w <= 4, where the identity gains them.
    """
    if any(_connection_matrix(s, w) for w in range(1, 5)):
        raise ValueError("the dbar identity needs a connection with no terms along e_1, ..., e_4")
    return contract(derivs[..., :4, :], _DBAR_MAP)


# -- Seiberg-Witten residuals ---------------------------------------------------


def sw_residual(f_a: KForm, psi) -> tuple[float, float]:
    """Max-norm residual of F_A^+ = -(1/4) sigma(psi)^+, and the largest
    vertical component of sigma(psi), which that equation does not constrain.

    ``f_a`` is the curvature 2-form and ``psi`` the spinor values, a ``(4,)``
    array or a stack ``(..., 4)``.
    """
    f_h, _ = horizontal_split(f_a)
    sigma_h_part, sigma_v = horizontal_split(sigma_full(psi))
    resid = sd_project(f_h).plus + SW_COUPLING * sd_project(sigma_h_part).plus
    return resid.norm_inf(), sigma_v.norm_inf()


# -- the canonical solution ------------------------------------------------------


class CanonicalSolution(NamedTuple):
    """The closed-form solution on constant negative scalar curvature s.

    The spinor is psi = amplitude psi0 with amplitude sqrt(-s), and the
    curvature is F_A = i rho_h for the Webster-Ricci tensor
    (s/4) diag(1, 1, 1, 1, 0).  The identity chain

        sigma_h(psi) = i s deta,   rho_plus = -(s/4) deta,
        F_A^+ = -i (s/4) deta = -(1/4) sigma_h(psi)^+

    is carried exactly: the quadratic scaling of sigma is applied
    analytically, so no square root enters ``r_curv``.
    """

    amplitude: float
    f_a: KForm
    sigma_h_psi: KForm
    rho_plus: KForm
    f_a_plus: KForm
    r_curv: float


def canonical_solution(s: float) -> CanonicalSolution:
    """The canonical solution for negative constant s, with the residual of
    its exact identity chain."""
    if not s < 0:
        raise ValueError(f"the scalar curvature must be negative, got {s}")
    ric = admissible_ricci(s / 4.0, s / 4.0, 0.0, 0.0)
    sigma_exact = (-s) * sigma_h(PSI0)  # quadratic scaling, applied exactly
    rho_p = rho_plus(ric)
    f_a_plus = 1j * rho_p
    r_curv = (f_a_plus + SW_COUPLING * sd_project(sigma_exact).plus).norm_inf()
    return CanonicalSolution(
        amplitude=float(np.sqrt(-s)),
        f_a=1j * ricci_form(ric),
        sigma_h_psi=sigma_exact,
        rho_plus=rho_p,
        f_a_plus=f_a_plus,
        r_curv=float(r_curv),
    )
