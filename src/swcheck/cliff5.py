"""Complex Clifford algebra Cl(5) represented on C^4.

The five generator matrices kappa(e1)..kappa(e5) act on the spinor fiber C^4
and satisfy kappa(e_i) kappa(e_j) + kappa(e_j) kappa(e_i) = -2 delta_ij Id.
All entries are Gaussian integers, so double-precision complex arithmetic on
products and sums of them is exact; the algebraic identity suites assert
exact equality, not tolerances.

Conventions, both forced by identities rather than chosen freely:

* The Hermitian inner product on spinors is conjugate-linear in the SECOND
  argument.  This is the unique linearity convention under which
  sigma_h(psi0) = -i deta for the reference spinor psi0 = (0, 0, 0, 1);
  the opposite convention flips the sign.
* A 2-form sum_{i<j} w_ij e^i^e^j acts on spinors as
  sum_{i<j} w_ij kappa(e_i) kappa(e_j), with no 1/2 factor.  This is pinned
  by deta . psi0 = -2i psi0.

The Reeb vector is identified with frame index 5 throughout.  All functions
are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .extalg import PAIR_INDEX, KForm, _frozen, deta, horizontal_split

_I = 1j


#: The representation matrices kappa(e1)..kappa(e5), Gaussian-integer entries.
GAMMA: tuple[np.ndarray, ...] = (
    _frozen([[0, _I, 0, 0], [_I, 0, 0, 0], [0, 0, 0, _I], [0, 0, _I, 0]], complex),
    _frozen([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], complex),
    _frozen([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], complex),
    _frozen([[0, 0, 0, _I], [0, 0, -_I, 0], [0, -_I, 0, 0], [_I, 0, 0, 0]], complex),
    _frozen([[_I, 0, 0, 0], [0, -_I, 0, 0], [0, 0, _I, 0], [0, 0, 0, -_I]], complex),
)

_GAMMA_STACK = _frozen(GAMMA)

#: kappa(e_i) kappa(e_j) for each 2-form basis pair (i, j), in basis order.
PAIR_PRODUCTS = _frozen(_GAMMA_STACK[PAIR_INDEX[0]] @ _GAMMA_STACK[PAIR_INDEX[1]])

#: Reference spinor spanning the -2i eigenspace of kappa(deta); corresponds
#: to the constant function 1 under the (0, *)-form identification.
PSI0 = _frozen([0, 0, 0, 1], complex)


def gamma(i: int) -> np.ndarray:
    """Representation matrix kappa(e_i) for a frame index i in 1..5."""
    if not 1 <= i <= 5:
        raise ValueError(f"frame index must be in 1..5, got {i}")
    return GAMMA[i - 1]


def two_form_matrix(omega: KForm) -> np.ndarray:
    """Matrix of the Clifford action of a 2-form.

    Sum over strictly increasing index pairs of w_ij kappa(e_i) kappa(e_j);
    no 1/2 factor (see module docstring).
    """
    if omega.degree != 2:
        raise ValueError(f"expected a 2-form, got degree {omega.degree}")
    return np.tensordot(omega.coeffs, PAIR_PRODUCTS, 1)


def kappa_deta() -> np.ndarray:
    """Matrix of the Clifford action of deta; equals diag(0, 2i, 0, -2i)."""
    return two_form_matrix(deta())


def deta_eigenprojectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projectors onto the 2i, 0, -2i eigenspaces of kappa(deta).

    Ranks are 1, 2, 1 and the projectors sum to the identity.  Computed from
    kappa(deta) by Lagrange interpolation in exact Gaussian-integer
    arithmetic (the eigenvalues 0, +-2i are exact).
    """
    m = kappa_deta()
    eye = np.eye(4, dtype=complex)
    evs = (2j, 0j, -2j)
    projs = []
    for lam in evs:
        p = eye.copy()
        for mu in evs:
            if mu != lam:
                p = p @ (m - mu * eye) / (lam - mu)
        projs.append(p)
    return tuple(projs)


def sigma_h(psi) -> KForm:
    """Horizontal spinor bilinear sum_{i<j<=4} <e_i e_j psi, psi> e^i^e^j.

    Quadratic in psi; the coefficients are purely imaginary because the
    products kappa(e_i) kappa(e_j) with i != j are skew-Hermitian.
    """
    return horizontal_split(sigma_full(psi)).horizontal


def sigma_full(psi) -> KForm:
    """Full spinor bilinear sigma(psi)(X, Y) = <X.Y.psi, psi> + <X, Y>|psi|^2.

    Returned as the 2-form with frame coefficients <e_i e_j psi, psi> for
    i < j (the diagonal <e_i e_i psi, psi> = -|psi|^2 cancels against the
    metric term, so sigma is antisymmetric).  Its horizontal part is
    sigma_h(psi).  ``psi`` may be a ``(..., 4)`` stack of spinors, giving a
    stack of 2-forms.
    """
    col = np.asarray(psi, dtype=complex)[..., :, None]
    return KForm(2, ((PAIR_PRODUCTS @ col[..., None, :, :])[..., 0] @ col.conj())[..., 0])
