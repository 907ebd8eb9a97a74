"""Spinor fields, the spinorial connection, Dirac operators and the
Seiberg-Witten like equations on the contact 5-frame.

The spinorial covariant derivative along a frame vector e_W is

    nabla_W psi = e_W(psi)
                  + (1/4) sum_{j<k} omega_jk(e_W) kappa(e_j) kappa(e_k) psi
                  + (1/2) A(e_W) psi,

with omega_jk(e_W) = g(nabla_{e_W} e_j, e_k) read off the supplied frame
Christoffel symbols and A the imaginary-valued U(1) connection 1-form.  The
1/2 on the A term is the determinant-line convention; both prefactors are
isolated in the module constants below.  On the flat Heisenberg model every
omega vanishes, so only the A convention is ever exposed there.

The Kohn-Dirac operator sums the horizontal Clifford derivatives,
D_H = sum_{i<=4} kappa(e_i) nabla_i, and the full operator adds the Reeb
term kappa(e_5) nabla_5.

The operators map polynomial fields to polynomial fields:
``spin_covariant_derivative``, ``kohn_dirac`` and ``full_dirac`` return a
:class:`SpinorField` and ``dbar_pair`` a pair of :class:`FormSpinorField`,
each derived once and exactly; callers evaluate the result at points.
``full_dirac_fd`` is the pointwise oracle: it takes central differences of
the spinor components and shares only the connection terms with the exact
path.

The curvature equation couples the self-dual part of F_A with the spinor
bilinear: F_A^+ = -(1/4) sigma(psi)^+.  Here sigma(psi)^+ means the
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
from .curvature import admissible_ricci
from .extalg import INDEX_TUPLES, PAIR_INDEX, KForm, horizontal_split, sd_project
from .models import (
    ConnectionCoefficients,
    CoordForm,
    FrameFieldSet,
    SyntheticModel,
    VectorFieldPoly,
    exterior_d,
    heisenberg5,
    synthetic_model,
)
from .poly import ZERO, PolyExpr, evaluate_all, max_abs

#: Prefactor of the so(5) part of the spinorial connection.
SO_COUPLING = 0.25
#: Prefactor of the U(1) part (determinant-line convention).
U1_COUPLING = 0.5

_SQ2 = np.sqrt(2.0)


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

    def evaluate(self, point) -> np.ndarray:
        return np.array([c(point) for c in self.components], dtype=complex)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, factor) -> "SpinorField":
        f = factor if isinstance(factor, PolyExpr) else PolyExpr.const(factor)
        return SpinorField(tuple(f * c for c in self.components))


@dataclass(frozen=True)
class SpinConnection:
    """Frame plus Tanaka-Webster and U(1) connection data.

    The U(1) connection 1-form must be imaginary valued (on a real chart
    this means every polynomial coefficient of A is purely imaginary);
    :class:`ConnectionCoefficients` enforces it.
    """

    frame: FrameFieldSet
    conn: ConnectionCoefficients

    @staticmethod
    def heisenberg(a_form: CoordForm | None = None) -> "SpinConnection":
        frame, conn = heisenberg5()
        if a_form is not None:
            conn = conn.with_a(a_form)
        return SpinConnection(frame, conn)


def _mat_apply(m: np.ndarray, components) -> tuple[PolyExpr, ...]:
    """A constant matrix applied to a column of polynomial components."""
    return tuple(
        sum((c * complex(a) for a, c in zip(row, components) if a != 0), ZERO) for row in m
    )


def _connection_terms(s: SpinConnection, w: int) -> list[tuple[PolyExpr, np.ndarray]]:
    """Zeroth-order terms of nabla_w as (coefficient, constant matrix) pairs.

    SO_COUPLING Gamma^k_{wj} kappa(e_j) kappa(e_k) for each j < k with a
    nonzero Christoffel (omega_jk(e_w) = Gamma^k_{wj} in a g-orthonormal
    frame), then U1_COUPLING A(e_w) Id when A(e_w) is nonzero.
    """
    gam = s.conn.gamma[w - 1]
    terms = [
        (gam[j][k], SO_COUPLING * m)
        for (j, k), m in zip(zip(*PAIR_INDEX), PAIR_PRODUCTS)
        if not gam[j][k].is_zero()
    ]
    a_w = s.conn.a_form.pair_vector(s.frame.fields[w - 1])
    if not a_w.is_zero():
        terms.append((a_w, U1_COUPLING * np.eye(4)))
    return terms


def spin_covariant_derivative(s: SpinConnection, w: int, psi: SpinorField) -> SpinorField:
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


def kohn_dirac(s: SpinConnection, psi: SpinorField) -> SpinorField:
    """Horizontal Dirac operator sum_{i<=4} kappa(e_i) nabla_i psi."""
    out = _clifford(1, spin_covariant_derivative(s, 1, psi))
    for i in range(2, 5):
        out = out + _clifford(i, spin_covariant_derivative(s, i, psi))
    return out


def full_dirac(s: SpinConnection, psi: SpinorField) -> SpinorField:
    """Full Dirac operator, the Kohn-Dirac part plus the Reeb term."""
    return kohn_dirac(s, psi) + _clifford(5, spin_covariant_derivative(s, 5, psi))


def full_dirac_fd(
    s: SpinConnection, psi: SpinorField, point, h: float = 1e-4, horizontal_only: bool = False
) -> np.ndarray:
    """Finite-difference oracle for the Dirac operators at one point.

    Replaces the exact directional derivatives with central differences of
    the spinor components along the chart coordinates (step h); only the
    connection terms are shared with the exact path.
    """
    point = np.asarray(point, dtype=float)
    psi_p = psi.evaluate(point)
    out = np.zeros(4, dtype=complex)
    for w in range(1, 5 if horizontal_only else 6):
        deriv = np.zeros(4, dtype=complex)
        for c, x in enumerate(s.frame.fields[w - 1].evaluate(point)):
            if x != 0:
                shift = np.zeros(5)
                shift[c] = h
                deriv += x * (psi.evaluate(point + shift) - psi.evaluate(point - shift)) / (2 * h)
        for coeff, m in _connection_terms(s, w):
            deriv += coeff(point) * (m @ psi_p)
        out += GAMMA[w - 1] @ deriv
    return out


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


@dataclass(frozen=True)
class FormSpinorField:
    """(0, *)-form field: components over (1, tb1, tb2, tb1 ^ tb2)."""

    components: tuple[PolyExpr, PolyExpr, PolyExpr, PolyExpr]

    @staticmethod
    def make(*components) -> "FormSpinorField":
        if len(components) != 4:
            raise ValueError("a form-spinor field needs 4 components")
        return FormSpinorField(
            tuple(c if isinstance(c, PolyExpr) else PolyExpr.const(c) for c in components)
        )

    def evaluate(self, point) -> np.ndarray:
        return np.array([c(point) for c in self.components], dtype=complex)

    def to_spinor_field(self, phi: np.ndarray) -> SpinorField:
        """Push through the identification matrix (constant coefficients)."""
        return SpinorField(_mat_apply(phi, self.components))


@lru_cache(maxsize=1)
def _heisenberg_z_fields() -> tuple[VectorFieldPoly, ...]:
    frame, _ = heisenberg5()
    half = PolyExpr.const(1 / _SQ2)
    mi = PolyExpr.const(-1j / _SQ2)
    pi = PolyExpr.const(1j / _SQ2)
    z1 = frame.fields[0].scale(half) + frame.fields[1].scale(mi)
    z2 = frame.fields[2].scale(half) + frame.fields[3].scale(mi)
    zb1 = frame.fields[0].scale(half) + frame.fields[1].scale(pi)
    zb2 = frame.fields[2].scale(half) + frame.fields[3].scale(pi)
    return z1, z2, zb1, zb2


def dbar_pair(field: FormSpinorField) -> tuple[FormSpinorField, FormSpinorField]:
    """(dbar_H f, dbar_H* f) as form fields, on the flat Heisenberg model.

    dbar_H = sum_a tb^a ^ nabla_{Zbar_a} raises the degree and
    dbar_H* = -sum_a i(Zbar_a) nabla_{Z_a} lowers it; with the flat
    connection both reduce to componentwise Z / Zbar derivatives.
    """
    z1, z2, zb1, zb2 = _heisenberg_z_fields()
    f0, f1, f2, f3 = field.components
    dbar = FormSpinorField.make(0, zb1.apply(f0), zb2.apply(f0), zb1.apply(f2) - zb2.apply(f1))
    dbar_star = FormSpinorField.make(
        -(z1.apply(f1) + z2.apply(f2)), z2.apply(f3), -z1.apply(f3), 0
    )
    return dbar, dbar_star


def dbar_identity_residual(fields, points) -> float:
    """Residual of sqrt(2) (dbar_H + dbar_H*) against Phi^-1 D_H Phi, flat Heisenberg model."""
    s = SpinConnection.heisenberg()
    phi = derive_identification()
    phi_inv = phi.conj().T
    diffs = []
    for field in fields:
        d, ds = dbar_pair(field)
        dirac = kohn_dirac(s, field.to_spinor_field(phi))
        for p in points:
            lhs = _SQ2 * (d.evaluate(p) + ds.evaluate(p))
            diffs.append(lhs - phi_inv @ dirac.evaluate(p))
    return max_abs(diffs)


# -- Seiberg-Witten residuals ---------------------------------------------------


@dataclass(frozen=True)
class SWPair:
    """A U(1) connection (through its curvature) together with a spinor field.

    On a polynomial model the curvature is the exact exterior derivative of
    the connection 1-form; on the synthetic pointwise model it is prescribed
    directly as i * rho_h.
    """

    psi: SpinorField
    connection: SpinConnection | None = None
    synthetic: SyntheticModel | None = None

    @staticmethod
    def on_synthetic(model: SyntheticModel, psi: SpinorField) -> "SWPair":
        return SWPair(psi=psi, synthetic=model)

    def f_a_field(self) -> tuple[PolyExpr, ...]:
        """Curvature 2-form as its 10 frame components, in basis order.

        On a polynomial model these are the exact exterior derivative of the
        connection 1-form paired against the frame; on the synthetic model
        they are the prescribed constants.
        """
        if self.synthetic is not None:
            return tuple(PolyExpr.const(c) for c in self.synthetic.f_a.coeffs)
        fields = self.connection.frame.fields
        fa_coord = exterior_d(self.connection.conn.a_form)
        return tuple(fa_coord.pair_two(fields[i - 1], fields[j - 1]) for i, j in INDEX_TUPLES[2])


class SWResidual(NamedTuple):
    """Residuals of the two Seiberg-Witten equations, plus the vertical part
    of sigma(psi) (which the curvature equation does not constrain)."""

    r_dirac: float
    r_curv: float
    sigma_vertical: float


def sw_residual(pair: SWPair, points=None) -> SWResidual:
    """Max-norm residuals of D_A psi = 0 and F_A^+ = -(1/4) sigma(psi)^+.

    On the synthetic model the connection is in a gauge normal at the point
    and the spinor is constant, so every covariant derivative vanishes
    identically and the Dirac residual is exactly zero; only the curvature
    equation carries content there.
    """
    if pair.synthetic is not None:
        if any(c.degree() > 0 for c in pair.psi.components):
            raise ValueError("the synthetic pointwise model carries constant spinors only")
        psi_val = pair.psi.evaluate(np.zeros(5))
        sigma = sigma_full(psi_val)
        sigma_h_part, sigma_v = horizontal_split(sigma)
        resid = pair.synthetic.f_a_plus + 0.25 * sd_project(sigma_h_part).plus
        return SWResidual(0.0, resid.norm_inf(), sigma_v.norm_inf())

    if points is None:
        raise ValueError("sample points are required on a polynomial model")
    r_dirac = max_abs(evaluate_all(full_dirac(pair.connection, pair.psi).components, points))
    f_h, _ = horizontal_split(KForm(2, evaluate_all(pair.f_a_field(), points)))
    sigma_h_part, sigma_v = horizontal_split(sigma_full(evaluate_all(pair.psi.components, points)))
    resid = sd_project(f_h).plus + 0.25 * sd_project(sigma_h_part).plus
    return SWResidual(r_dirac, resid.norm_inf(), sigma_v.norm_inf())


# -- the canonical solution ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CanonicalSolution:
    """The closed-form solution pair on constant negative scalar curvature.

    For s < 0 the spinor is psi = sqrt(-s) psi0 and the curvature is
    prescribed through the Webster-Ricci tensor (s/4) diag(1, 1, 1, 1, 0).
    The identity chain

        sigma_h(psi) = i s deta,   rho_plus = -(s/4) deta,
        F_A^+ = -i (s/4) deta = -(1/4) sigma_h(psi)^+

    is carried exactly: the quadratic scaling of sigma is applied
    analytically, so no square root enters the exact residual.
    """

    scalar: float
    model: SyntheticModel
    pair: SWPair
    amplitude: float
    sigma_h_psi: KForm
    rho_plus: KForm
    f_a_plus: KForm
    r_dirac: float
    r_curv: float


def canonical_solution(s: float) -> CanonicalSolution:
    """Build and verify the canonical solution for negative constant s."""
    if not s < 0:
        raise ValueError(f"the scalar curvature must be negative, got {s}")
    c = admissible_ricci(s / 4.0, s / 4.0, 0.0, 0.0)
    model = synthetic_model(c)
    amplitude = float(np.sqrt(-s))
    psi = SpinorField.psi0(amplitude)

    sigma_exact = (-s) * sigma_h(PSI0)  # quadratic scaling, applied exactly
    sigma_plus = sd_project(sigma_exact).plus
    f_a_plus = model.f_a_plus
    r_curv = (f_a_plus + 0.25 * sigma_plus).norm_inf()

    return CanonicalSolution(
        scalar=float(s),
        model=model,
        pair=SWPair.on_synthetic(model, psi),
        amplitude=amplitude,
        sigma_h_psi=sigma_exact,
        rho_plus=model.rho_plus,
        f_a_plus=f_a_plus,
        r_dirac=0.0,
        r_curv=float(r_curv),
    )
