"""Spinor fields, the spinorial connection, Dirac operators and the
Seiberg-Witten like equations on the contact 5-frame.

The spinorial covariant derivative along a frame vector e_W is

    nabla_W psi = e_W(psi)
                  + (1/4) sum_{j<k} omega_jk(e_W) kappa(e_j) kappa(e_k) psi
                  + (1/2) A(e_W) psi,

with omega_jk(e_W) = g(nabla_{e_W} e_j, e_k) read off the frame Christoffel
symbols and A the imaginary-valued U(1) connection 1-form, both read from
the ``connection`` of a :class:`~swcheck.models.ModelBundle`, the chart that
the covariant derivative and the Dirac operators take as first argument.  The
1/2 on the A term is the determinant-line convention; both prefactors are
isolated in the module constants below.  On the flat Heisenberg model every
omega vanishes, so only the A convention is ever exposed there.

The Kohn-Dirac operator sums the horizontal Clifford derivatives,
D_H = sum_{i<=4} kappa(e_i) nabla_i, and the full operator adds the Reeb
term kappa(e_5) nabla_5.

The operators map polynomial fields to polynomial fields:
``spin_covariant_derivative``, ``kohn_dirac`` and ``full_dirac`` return a
:class:`SpinorField`, derived once and exactly; callers evaluate the result
at points.  Fields are evaluated on stacks of points, ``(..., 5)`` arrays,
through :func:`~swcheck.poly.evaluate_all`.  ``full_dirac_fd`` is the
independent oracle: it takes central differences of the spinor values on
the stencil around every point and shares only the connection terms with
the exact path.  Since every operator here is linear, ``dirac_on_basis``,
``full_dirac_fd_on_basis`` and ``dbar_identity_residual`` give their values
on all basis fields m e_k with m a monomial of degree at most FIELD_DEGREE
at once, one row per field; a polynomial field of that degree is a
combination of the rows.

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
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .cliff5 import GAMMA, PAIR_PRODUCTS, PSI0, gamma, sigma_full, sigma_h
from .curvature import _SQ2, COMPLEX_FRAME, admissible_ricci, ricci_form, rho_plus
from .extalg import PAIR_INDEX, KForm, horizontal_split, sd_project
from .models import ModelBundle, VectorFieldPoly, heisenberg5
from .poly import PolyExpr, dot, evaluate_all, monomials

#: Prefactor of the so(5) part of the spinorial connection.
SO_COUPLING = 0.25
#: Prefactor of the U(1) part (determinant-line convention).
U1_COUPLING = 0.5


@dataclass(frozen=True)
class SpinorField:
    """Spinor field in the kappa basis, four polynomial components."""

    components: tuple[PolyExpr, PolyExpr, PolyExpr, PolyExpr]

    @staticmethod
    def make(*components) -> "SpinorField":
        if len(components) != 4:
            raise ValueError("a spinor field needs 4 components")
        return SpinorField(
            tuple(c if isinstance(c, PolyExpr) else PolyExpr.const(c) for c in components)
        )

    @staticmethod
    def constant(values) -> "SpinorField":
        return SpinorField.make(*(complex(v) for v in values))

    @staticmethod
    def psi0(amplitude: float = 1.0) -> "SpinorField":
        """The constant reference spinor amplitude * (0, 0, 0, 1)."""
        return SpinorField.constant(amplitude * PSI0)

    def evaluate(self, points) -> np.ndarray:
        """Values at a stack of points ``(..., 5)``, shape ``(..., 4)``."""
        return evaluate_all(self.components, points)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, factor) -> "SpinorField":
        f = factor if isinstance(factor, PolyExpr) else PolyExpr.const(factor)
        return SpinorField(tuple(f * c for c in self.components))


def _mat_apply(m: np.ndarray, components) -> tuple[PolyExpr, ...]:
    """A constant matrix applied to a column of polynomial components."""
    return tuple(
        dot([c for a, c in zip(row, components) if a != 0], [PolyExpr.const(a) for a in row if a != 0])
        for row in m
    )


def _connection_terms(s: ModelBundle, w: int) -> list[tuple[PolyExpr, np.ndarray]]:
    """Zeroth-order terms of nabla_w as (coefficient, constant matrix) pairs.

    SO_COUPLING Gamma^k_{wj} kappa(e_j) kappa(e_k) for each j < k with a
    nonzero Christoffel (omega_jk(e_w) = Gamma^k_{wj} in a g-orthonormal
    frame), then U1_COUPLING A(e_w) Id when A(e_w) is nonzero.
    """
    gam = s.connection.gamma[w - 1]
    terms = [
        (gam[j][k], SO_COUPLING * m)
        for (j, k), m in zip(zip(*PAIR_INDEX), PAIR_PRODUCTS)
        if not gam[j][k].is_zero()
    ]
    a_w = s.connection.a_form.pair_vector(s.frame.fields[w - 1])
    if not a_w.is_zero():
        terms.append((a_w, U1_COUPLING * np.eye(4)))
    return terms


def spin_covariant_derivative(s: ModelBundle, w: int, psi: SpinorField) -> SpinorField:
    """Spinorial covariant derivative along frame direction w in 1..5."""
    if not 1 <= w <= 5:
        raise ValueError(f"frame index must be in 1..5, got {w}")
    ew = s.frame.fields[w - 1]
    out = SpinorField(tuple(ew.apply(c) for c in psi.components))
    for coeff, m in _connection_terms(s, w):
        out = out + SpinorField(_mat_apply(m, psi.components)).scale(coeff)
    return out


def _clifford(w: int, psi: SpinorField) -> SpinorField:
    return SpinorField(_mat_apply(GAMMA[w - 1], psi.components))


def kohn_dirac(s: ModelBundle, psi: SpinorField) -> SpinorField:
    """Horizontal Dirac operator sum_{i<=4} kappa(e_i) nabla_i psi."""
    out = _clifford(1, spin_covariant_derivative(s, 1, psi))
    for i in range(2, 5):
        out = out + _clifford(i, spin_covariant_derivative(s, i, psi))
    return out


def full_dirac(s: ModelBundle, psi: SpinorField) -> SpinorField:
    """Full Dirac operator, the Kohn-Dirac part plus the Reeb term."""
    return kohn_dirac(s, psi) + _clifford(5, spin_covariant_derivative(s, 5, psi))


def fd_stencil(points, h: float) -> np.ndarray:
    """The points p, p + h e_c and p - h e_c (c = 1..5) around each of a stack
    of points ``(..., 5)``, in that order: shape ``(..., 11, 5)``."""
    shift = h * np.eye(5)
    return np.asarray(points, dtype=float)[..., None, :] + np.concatenate(
        [np.zeros((1, 5)), shift, -shift]
    )


def full_dirac_fd(s: ModelBundle, psi_vals: np.ndarray, points, h: float = 1e-4) -> np.ndarray:
    """Finite-difference oracle for the full Dirac operator on a stack of points.

    ``points`` has shape ``(..., 5)`` and ``psi_vals`` holds the spinor
    values on ``fd_stencil(points, h)``, shape ``(..., 11, 4)``, or a stack
    of them for F fields, ``(F, ..., 11, 4)``; the result has shape
    ``(..., 4)``, or ``(F, ..., 4)``.  The exact directional derivatives are
    replaced with central differences along the chart coordinates; only the
    connection terms are shared with the exact path.
    """
    points = np.asarray(points, dtype=float)
    psi_p = psi_vals[..., 0, :]
    frame = evaluate_all([c for f in s.frame.fields for c in f.components], points)
    frame = frame.reshape(points.shape[:-1] + (5, 5))
    # e_w(psi) = sum_c e_w^c d_c psi, with d_c psi the central differences.
    diffs = psi_vals[..., 1:6, :] - psi_vals[..., 6:, :]
    diffs /= 2 * h
    derivs = frame @ diffs
    out = np.zeros(psi_p.shape, dtype=complex)
    for w in range(1, 6):
        deriv = derivs[..., w - 1, :]
        terms = _connection_terms(s, w)
        coeffs = evaluate_all([coeff for coeff, _ in terms], points)
        for t, (_, m) in enumerate(terms):
            deriv += coeffs[..., t, None] * (psi_p @ m.T)
        out += deriv @ GAMMA[w - 1].T
    return out


# -- the operators on the basis fields m e_k ------------------------------------
#
# Both Dirac operators, their oracle and the dbar identity are linear, and the
# suite's random fields have components of degree at most FIELD_DEGREE.  So
# each is computed once on the 4 M basis fields m e_k (m one of the M
# monomials of ``poly.monomials(FIELD_DEGREE)``, e_k a unit vector), as a
# stack with one row per basis field, k * M + i for m = monomials[i]; the
# field with coefficients c (shape (4, M)) then has the value
# ``c.reshape(-1) @ rows.reshape(4 * M, -1)``.

#: Largest total degree of the field components that the basis spans.
FIELD_DEGREE = 3


def basis_monomials() -> list[PolyExpr]:
    """The monomials of total degree at most FIELD_DEGREE, in ``poly.monomials`` order."""
    return [PolyExpr.from_dict({e: 1}) for e in monomials(FIELD_DEGREE)]


def _image(values, mat) -> np.ndarray:
    """``f(m) mat e_k`` for the columns k of a ``(4, K)`` matrix, from the
    values ``(..., M)`` of a scalar f(m) for every monomial m: shape
    ``(K M, ..., 4)``, row k * M + i for m = monomials[i]."""
    rows = np.einsum("...m,ik->km...i", values, mat)
    return rows.reshape((-1,) + rows.shape[2:])


def dirac_on_basis(s: ModelBundle, points) -> tuple[np.ndarray, np.ndarray]:
    """``kohn_dirac`` and ``full_dirac`` of every basis field m e_k at a stack
    of points, each of shape ``(4 M, ..., 4)``.

    nabla_w (m e_k) = e_w(m) e_k + sum_t c_t m M_t e_k over the connection
    terms (c_t, M_t) of ``_connection_terms``.  The derivatives e_w(m) are
    built symbolically, once for every monomial, and evaluated in one call.
    """
    points = np.asarray(points, dtype=float)
    monos = basis_monomials()
    n = len(monos)
    vals = evaluate_all([f.apply(m) for f in s.frame.fields for m in monos] + monos, points)

    def clifford_derivative(w):
        """kappa(e_w) nabla_w (m e_k) for every basis field."""
        rows = _image(vals[..., (w - 1) * n : w * n], GAMMA[w - 1])
        terms = _connection_terms(s, w)
        coeffs = evaluate_all([coeff for coeff, _ in terms], points)
        for t, (_, m) in enumerate(terms):
            rows += _image(coeffs[..., t, None] * vals[..., 5 * n :], GAMMA[w - 1] @ m)
        return rows

    kohn = sum(clifford_derivative(w) for w in range(1, 5))
    return kohn, kohn + clifford_derivative(5)


def full_dirac_fd_on_basis(s: ModelBundle, points, h: float) -> np.ndarray:
    """``full_dirac_fd`` on every basis field, shape ``(4 M, ..., 4)``.

    The monomials are evaluated once on the stencil of all points; the
    fields go through the oracle one e_k at a time, which keeps the stack of
    stencil values to M fields.
    """
    values = evaluate_all(basis_monomials(), fd_stencil(points, h))
    return np.concatenate(
        [full_dirac_fd(s, _image(values, e_k[:, None]), points, h) for e_k in np.eye(4)]
    )


# -- identification with (0, *)-forms -----------------------------------------

# Basis of the exterior module: (1, tb1, tb2, tb1 ^ tb2).
_WEDGE1 = np.zeros((4, 4), dtype=complex)
_WEDGE1[1, 0] = 1
_WEDGE1[3, 2] = 1
_WEDGE2 = np.zeros((4, 4), dtype=complex)
_WEDGE2[2, 0] = 1
_WEDGE2[3, 1] = -1
_CONTRACT1 = np.zeros((4, 4), dtype=complex)
_CONTRACT1[0, 1] = 1
_CONTRACT1[2, 3] = 1
_CONTRACT2 = np.zeros((4, 4), dtype=complex)
_CONTRACT2[0, 2] = 1
_CONTRACT2[1, 3] = -1
#: Reeb action (-1)^(q+1) i on the degree-q summand.
_REEB_ACTION = np.diag([-1j, 1j, 1j, -1j])


def form_clifford_action(x) -> np.ndarray:
    """Clifford action of a frame vector on the (0, *)-form module.

    X . a = sqrt(2) ((X_H^{0,1})* ^ a - X_H^{0,1} _| a) + (-1)^(q+1) i eta(X) a
    with X_H^{0,1} = sum_a beta_a Zbar_a, beta_a = (x_{2a-1} - i x_{2a}) / sqrt(2).
    The metric dual (.)* is conjugate-linear; that choice is forced by the
    Clifford relation X . X . a = -|X|^2 a.
    """
    x = np.asarray(x, dtype=complex)
    beta = np.array(
        [(x[0] - 1j * x[1]) / _SQ2, (x[2] - 1j * x[3]) / _SQ2], dtype=complex
    )
    act = _SQ2 * (
        np.conj(beta[0]) * _WEDGE1
        + np.conj(beta[1]) * _WEDGE2
        - beta[0] * _CONTRACT1
        - beta[1] * _CONTRACT2
    )
    return act + x[4] * _REEB_ACTION


class IdentificationError(RuntimeError):
    """No unitary intertwiner exists; signals a convention inconsistency."""


@lru_cache(maxsize=1)
def derive_identification() -> np.ndarray:
    """Unitary map Phi from (0, *)-forms to the kappa spinor module.

    Solves the intertwining system Phi (X . a) = kappa(X) Phi(a) over all
    frame vectors; the solution space must be one-dimensional (the
    representation is irreducible) and is normalized by Phi(1) = psi0.
    """
    eye = np.eye(4, dtype=complex)
    rows = []
    for i in range(1, 6):
        x = np.zeros(5)
        x[i - 1] = 1.0
        a = form_clifford_action(x)
        ac = a @ a + eye
        if np.max(np.abs(ac)) > 1e-12:
            raise IdentificationError(
                f"form-module action of e{i} violates the Clifford relation"
            )
        rows.append(np.kron(gamma(i), eye) - np.kron(eye, a.T))
    system = np.vstack(rows)
    _, sing, vt = np.linalg.svd(system, full_matrices=False)
    null_dims = int(np.sum(sing < 1e-10))
    if null_dims != 1:
        raise IdentificationError(
            f"intertwiner space has dimension {null_dims}, expected 1"
        )
    # For complex SVD A = U S V^H the null vector is the conjugate of the
    # last row of V^H.
    phi = vt[-1].conj().reshape(4, 4)
    pivot = phi[3, 0]
    if abs(pivot) < 1e-12:
        raise IdentificationError("intertwiner does not map 1 onto the psi0 line")
    phi = phi / pivot
    if np.max(np.abs(phi.conj().T @ phi - eye)) > 1e-10:
        raise IdentificationError("normalized intertwiner is not unitary")
    for i in range(1, 6):
        x = np.zeros(5)
        x[i - 1] = 1.0
        resid = np.max(np.abs(phi @ form_clifford_action(x) - gamma(i) @ phi))
        if resid > 1e-10:
            raise IdentificationError(f"intertwining fails on e{i} (residual {resid:.2e})")
    phi.flags.writeable = False
    return phi


# -- dbar operators on the Heisenberg model ------------------------------------


@lru_cache(maxsize=1)
def _heisenberg_z_fields() -> tuple[VectorFieldPoly, ...]:
    """Z1, Z2, Zbar1, Zbar2 on the Heisenberg chart: the first four rows of
    ``COMPLEX_FRAME`` on its frame fields."""
    fields = heisenberg5().frame.fields
    return tuple(
        reduce(VectorFieldPoly.__add__, (f.scale(c) for f, c in zip(fields, row) if c))
        for row in COMPLEX_FRAME[:4]
    )


def dbar_identity_residual(kohn, points) -> np.ndarray:
    """sqrt(2) (dbar_H + dbar_H*) f - Phi^-1 D_H Phi f for every basis form
    field f = m e_k at a stack of points, flat Heisenberg model: shape
    ``(4 M, ..., 4)``, one row per basis field.

    ``kohn`` is D_H on the spinor basis fields at the same points, the
    first array of ``dirac_on_basis``.  With the flat connection dbar_H and
    dbar_H* act componentwise, through the wedge and contraction matrices,
    on Zbar_a(m) and Z_a(m); those are built symbolically once for every
    monomial and evaluated in one call.
    """
    phi = derive_identification()
    z1, z2, zb1, zb2 = _heisenberg_z_fields()
    terms = ((zb1, _WEDGE1), (zb2, _WEDGE2), (z1, -_CONTRACT1), (z2, -_CONTRACT2))
    monos = basis_monomials()
    vals = evaluate_all([z.apply(m) for z, _ in terms for m in monos], points)
    vals = vals.reshape(vals.shape[:-1] + (len(terms), len(monos)))
    lhs = sum(_image(vals[..., a, :], mat) for a, (_, mat) in enumerate(terms))
    # Phi (m e_k) = sum_j Phi[j, k] m e_j.
    rhs = np.tensordot(phi, kohn.reshape((4, -1) + kohn.shape[1:]), axes=(0, 0))
    rhs = rhs.reshape(lhs.shape)
    return _SQ2 * lhs - rhs @ phi.conj()


# -- Seiberg-Witten residuals ---------------------------------------------------


def sw_residual(f_a: KForm, psi) -> tuple[float, float]:
    """Max-norm residual of F_A^+ = -(1/4) sigma(psi)^+, and the largest
    vertical component of sigma(psi), which that equation does not constrain.

    ``f_a`` is the curvature 2-form and ``psi`` the spinor values, a ``(4,)``
    array or a stack ``(..., 4)``.
    """
    f_h, _ = horizontal_split(f_a)
    sigma_h_part, sigma_v = horizontal_split(sigma_full(psi))
    resid = sd_project(f_h).plus + 0.25 * sd_project(sigma_h_part).plus
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
    r_curv = (f_a_plus + 0.25 * sd_project(sigma_exact).plus).norm_inf()
    return CanonicalSolution(
        amplitude=float(np.sqrt(-s)),
        f_a=1j * ricci_form(ric),
        sigma_h_psi=sigma_exact,
        rho_plus=rho_p,
        f_a_plus=f_a_plus,
        r_curv=float(r_curv),
    )
