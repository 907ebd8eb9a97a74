"""Exterior algebra of an oriented 5-dimensional inner product space, with the
contact splitting of 2-forms and the self-dual / anti-self-dual decomposition.

Frame convention: coframe indices 1..4 span the horizontal (contact)
directions and index 5 is the Reeb direction, so ``basis_form(5)`` plays the
role of the contact form eta.  The orientation is fixed by

    vol = e1 ^ e2 ^ e3 ^ e4 ^ eta.

This is the unique orientation (up to even permutation) under which
deta = e1^e2 + e3^e4 is self-dual for the contact star while
e1^e4 - e2^e3 and e1^e3 + e2^e4 are anti-self-dual, which is the sign
structure every downstream curvature identity relies on.  The choice is
recorded here because none of the identities pins it any other way.

Coefficients are complex throughout (curvature forms and spinor bilinears are
imaginary valued).  Basis multi-indices are listed in lexicographic order
within each degree (``INDEX_TUPLES``), so a k-form is a flat coefficient
vector of length C(5, k).

Every basis decision is made once, at import, from the one sign rule
``_permutation_sign`` (the sign of sorting a concatenated index tuple) and
frozen into read-only constant tables with entries in {-1, 0, 1}:

* ``WEDGE[ka, kb][p, q, r]``: coefficient of basis form r in
  e_p ^ e_q, for degrees ka + kb <= 5;
* ``STAR[k]``: the (C(5, 5-k), C(5, k)) matrix of the Hodge star on
  k-forms, read off ``WEDGE`` as e_I ^ *e_I = vol;
* ``CONTACT_STAR``: the 10 x 10 matrix of beta -> *(eta ^ beta);
* ``DETA``: the coefficients of the contact 2-form deta = e1^e2 + e3^e4;
* ``VERTICAL[k]``: which degree-k basis forms contain the Reeb index;
* ``PAIR_INDEX``: zero-based frame indices (i, j) of the 2-form basis.

The operations below are then single array operations on coefficient
vectors.  Samples stack on leading axes: a ``KForm`` may hold a
``(..., C(5, k))`` stack of coefficient vectors, and every operation acts on
each sample, in one array operation per stack.  Everything in this module is
a pure function on immutable values.

:class:`swcheck.models.CoordForm`, the polynomial-coefficient form over the
chart differentials, uses the same ``INDEX_TUPLES`` order and reads its
signs from ``WEDGE`` and ``PAIR_INDEX``, so no other module fixes a basis
order or a sign rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

DIM = 5
REEB_INDEX = 5

# Lexicographically ordered index tuples, per degree.
INDEX_TUPLES: dict[int, tuple[tuple[int, ...], ...]] = {
    k: tuple(combinations(range(1, DIM + 1), k)) for k in range(DIM + 1)
}


def _permutation_sign(seq, sorted_seq) -> int:
    """Sign of the permutation taking ``seq`` to ``sorted_seq``, by counted swaps."""
    seq = list(seq)
    sign = 1
    for i, target in enumerate(sorted_seq):
        j = seq.index(target, i)
        if j != i:
            seq[i], seq[j] = seq[j], seq[i]
            sign = -sign
    return sign


def _frozen(a, dtype=None) -> np.ndarray:
    """A read-only copy of ``a`` as an array."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _wedge_table(ka: int, kb: int) -> np.ndarray:
    out_index = INDEX_TUPLES[ka + kb]
    t = np.zeros((len(INDEX_TUPLES[ka]), len(INDEX_TUPLES[kb]), len(out_index)))
    for p, a in enumerate(INDEX_TUPLES[ka]):
        for q, b in enumerate(INDEX_TUPLES[kb]):
            if not set(a) & set(b):
                merged = tuple(sorted(a + b))
                t[p, q, out_index.index(merged)] = _permutation_sign(a + b, merged)
    return _frozen(t)


WEDGE: dict[tuple[int, int], np.ndarray] = {
    (ka, kb): _wedge_table(ka, kb)
    for ka in range(DIM + 1)
    for kb in range(DIM + 1 - ka)
}

# *e_I = s e_J with e_I ^ e_J = s vol; k(5-k) is even, so the same sign
# reads e_J ^ e_I = s vol, i.e. STAR[k][J, I] = WEDGE[5-k, k][J, I, vol].
STAR: dict[int, np.ndarray] = {
    k: _frozen(WEDGE[DIM - k, k][:, :, 0]) for k in range(DIM + 1)
}

VERTICAL: dict[int, np.ndarray] = {
    k: _frozen([REEB_INDEX in t for t in INDEX_TUPLES[k]])
    for k in range(DIM + 1)
}

PAIR_INDEX: tuple[np.ndarray, np.ndarray] = tuple(
    _frozen(col) for col in (np.array(INDEX_TUPLES[2]) - 1).T
)

# beta -> *(eta ^ beta); eta ^ beta_q = sum_r WEDGE[1, 2][eta, q, r] e_r.
CONTACT_STAR = _frozen(STAR[3] @ WEDGE[1, 2][REEB_INDEX - 1].T)

DETA = _frozen([t in ((1, 2), (3, 4)) for t in INDEX_TUPLES[2]], complex)

@dataclass(frozen=True, eq=False)
class KForm:
    """Constant-coefficient k-form over the frame coframe e1..e4, eta.

    ``coeffs[..., p]`` is the coefficient of the basis form with index tuple
    ``INDEX_TUPLES[degree][p]``; leading axes, if any, index a stack of
    samples.  A form is horizontal when every coefficient whose multi-index
    contains the Reeb index 5 vanishes exactly.  ``coefficient`` takes single
    forms.
    """

    degree: int
    coeffs: np.ndarray

    # Lets ``ndarray * KForm`` reach ``__rmul__`` (a stack of scalars times a
    # form) instead of being taken apart elementwise by numpy.
    __array_ufunc__ = None

    def __post_init__(self):
        if not 0 <= self.degree <= DIM:
            raise ValueError(f"degree must be in 0..{DIM}, got {self.degree}")
        c = np.asarray(self.coeffs, dtype=complex)
        n = len(INDEX_TUPLES[self.degree])
        if c.shape[-1:] != (n,):
            raise ValueError(
                f"degree-{self.degree} form needs {n} coefficients, got shape {c.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        self._same_degree(other)
        return KForm(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        self._same_degree(other)
        return KForm(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "KForm":
        return KForm(self.degree, self.coeffs * np.asarray(scalar, dtype=complex)[..., None])

    __rmul__ = __mul__

    def _same_degree(self, other: "KForm"):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    # -- queries ---------------------------------------------------------

    def coefficient(self, *indices: int) -> complex:
        """Signed coefficient for an arbitrary-order index tuple."""
        if len(indices) != self.degree:
            raise ValueError("index count must equal the degree")
        if len(set(indices)) != len(indices):
            return 0j
        order = tuple(sorted(indices))
        sign = _permutation_sign(indices, order)
        return sign * complex(self.coeffs[INDEX_TUPLES[self.degree].index(order)])

    def is_horizontal(self) -> bool:
        """Whether every sample of the stack is horizontal."""
        return not np.any(self.coeffs[..., VERTICAL[self.degree]])

    def norm_inf(self) -> float:
        """Largest coefficient modulus over the whole stack; NaN if any is NaN."""
        return float(np.max(np.abs(self.coeffs), initial=0.0))


# -- constructors ----------------------------------------------------------


def basis_form(*indices: int) -> KForm:
    """The wedge of coframe vectors for a strictly increasing index tuple."""
    k = len(indices)
    if tuple(sorted(set(indices))) != tuple(indices):
        raise ValueError("indices must be strictly increasing")
    c = np.zeros(len(INDEX_TUPLES[k]), dtype=complex)
    c[INDEX_TUPLES[k].index(tuple(indices))] = 1
    return KForm(k, c)


def deta() -> KForm:
    """The model contact 2-form e1^e2 + e3^e4, read from ``DETA`` at call time."""
    return KForm(2, DETA)


def volume_form() -> KForm:
    return basis_form(1, 2, 3, 4, 5)


# -- operations ------------------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; graded-commutative, sign by shuffle parity."""
    k = a.degree + b.degree
    if k > DIM:
        raise ValueError(f"degree overflow: {a.degree} + {b.degree} > {DIM}")
    return KForm(
        k, np.einsum("...p,...q,pqr->...r", a.coeffs, b.coeffs, WEDGE[a.degree, b.degree])
    )


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the Euclidean metric and orientation vol = e1^..^e4^eta.

    On basis forms *e_I = sign(I) e_{I^c} with e_I ^ e_{I^c} = sign(I) vol,
    so alpha ^ *alpha = |alpha|^2 vol for real alpha; extended C-linearly.
    """
    return KForm(DIM - a.degree, a.coeffs @ STAR[a.degree].T)


class HorizontalSplit(NamedTuple):
    horizontal: KForm
    vertical: KForm


def horizontal_split(a: KForm) -> HorizontalSplit:
    """Split a 2-form as alpha_H + eta ^ i(Reeb) alpha.

    The vertical part collects exactly the basis terms containing the Reeb
    index, so horizontal + vertical reproduces the input exactly.
    """
    if a.degree != 2:
        raise ValueError(f"horizontal_split needs a 2-form, got degree {a.degree}")
    vertical = VERTICAL[2]
    return HorizontalSplit(
        KForm(2, np.where(vertical, 0, a.coeffs)), KForm(2, np.where(vertical, a.coeffs, 0))
    )


def _require_horizontal(beta: KForm):
    if beta.degree != 2:
        raise ValueError(f"expected a 2-form, got degree {beta.degree}")
    if not beta.is_horizontal():
        raise ValueError("expected a horizontal 2-form (no eta component)")


def contact_star(beta: KForm) -> KForm:
    """Contact Hodge star on horizontal 2-forms: beta -> *(eta ^ beta).

    An involution on the 6-dimensional space of horizontal 2-forms.
    """
    _require_horizontal(beta)
    return KForm(2, beta.coeffs @ CONTACT_STAR.T)


class SDSplit(NamedTuple):
    plus: KForm
    minus: KForm


def sd_project(beta: KForm) -> SDSplit:
    """Orthogonal decomposition into +1 / -1 eigenparts of the contact star."""
    star = contact_star(beta).coeffs
    return SDSplit(KForm(2, (beta.coeffs + star) / 2), KForm(2, (beta.coeffs - star) / 2))


def form_inner(a: KForm, b: KForm) -> complex:
    """Coefficient inner product, conjugate-linear in the second argument."""
    a._same_degree(b)
    inner = (a.coeffs[..., None, :] @ b.coeffs[..., :, None].conj())[..., 0, 0]
    return inner if inner.ndim else complex(inner)


def _stack(*forms: KForm) -> KForm:
    return KForm(forms[0].degree, np.array([f.coeffs for f in forms]))


def self_dual_basis() -> KForm:
    """Basis of the +1 eigenspace of the contact star, as one (3, 10) stack."""
    return _stack(
        basis_form(1, 2) + basis_form(3, 4),
        basis_form(1, 3) - basis_form(2, 4),
        basis_form(1, 4) + basis_form(2, 3),
    )


def anti_self_dual_basis() -> KForm:
    """Basis of the -1 eigenspace of the contact star, as one (3, 10) stack."""
    return _stack(
        basis_form(1, 2) - basis_form(3, 4),
        basis_form(1, 3) + basis_form(2, 4),
        basis_form(1, 4) - basis_form(2, 3),
    )
