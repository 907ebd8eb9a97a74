"""Webster curvature algebra on the contact 5-frame.

An admissible Webster-Ricci tensor is stored as the REAL symmetric matrix R;
the imaginary-valued tensor appearing in the identity chain is i*R.  Keeping
R real makes the Ricci-form bookkeeping literal: the form and the scalar
trace stay real and the self-dual projection identity reads

    rho_plus(R) = -(s/4) deta,      s = R11 + R22 + R33 + R44.

Admissibility, i.e. compatibility with the almost complex structure J and
the Reeb direction, pins the constraints

    R_i5 = 0,  R12 = R34 = 0,  R11 = R22,  R33 = R44,
    R14 = -R23,  R24 = R13,

leaving the four free parameters (R11, R33, R13, R14).  These are exactly
the symmetric J-commuting horizontal endomorphisms.

Two conventions exist for the Ricci form, differing in where J sits:
``rho(X, Y) = g(X, J Ric Y)`` (matrix J R) and ``rho(X, Y) = Ric(X, J Y)``
(matrix R J).  They agree whenever J and R commute, which admissibility
guarantees; the first is the default because its expansion is the one the
self-dual projection identity is stated for.  Both are exposed behind the
``convention`` flag.

The Bianchi correction B(X, Y) built from the torsion vanishes identically
for every SELF-ADJOINT torsion; J-anticommutation is not needed for that
cancellation (it enters the torsion's own structure theory instead).  The
negative control for B therefore has to break self-adjointness.

Samples stack on leading axes: ``ric`` and ``tau`` may be ``(..., 5, 5)``
stacks.  Values (forms, scalar curvatures, Bianchi terms) keep the sample
axes; residuals and violation lists cover the whole stack.  Samplers take a
``numpy.random.Generator`` and a stack size, as ``poly.random_poly`` does;
they advance only that generator, and all other functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extalg import PAIR_INDEX, VERTICAL, KForm, sd_project

#: Almost complex structure on the frame: J e1 = e2, J e3 = e4, J Reeb = 0.
J_FRAME = np.array(
    [
        [0.0, -1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)
J_FRAME.flags.writeable = False

#: Frame vectors (e_i, e_j) of the six horizontal pairs i < j, in 2-form
#: basis order, as two stacks of shape (6, 5).
HORIZONTAL_FRAME_PAIRS = tuple(np.eye(5)[ix[~VERTICAL[2]]] for ix in PAIR_INDEX)
for _stack in HORIZONTAL_FRAME_PAIRS:
    _stack.flags.writeable = False


def deta_pair(x, y) -> float:
    """deta(X, Y) = (x1 y2 - x2 y1) + (x3 y4 - x4 y3) on frame coordinates.

    ``x`` and ``y`` may be stacks of vectors along a leading axis.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0] + x[..., 2] * y[..., 3] - x[..., 3] * y[..., 2]
    )


# -- admissible Ricci data ---------------------------------------------------

def _violated(residual) -> bool:
    """Whether any entry is nonzero; NaN always is."""
    return not np.max(np.abs(residual)) <= 0.0


def ricci_violations(ric: np.ndarray) -> list[str]:
    """Names of the admissibility constraints any matrix of the stack violates."""
    r = np.asarray(ric, dtype=float)
    residuals = {
        "symmetric": r - np.swapaxes(r, -1, -2),
        **{f"R{i + 1}5=0": r[..., i, 4] for i in range(5)},
        "R12=0": r[..., 0, 1],
        "R34=0": r[..., 2, 3],
        "R11=R22": r[..., 0, 0] - r[..., 1, 1],
        "R33=R44": r[..., 2, 2] - r[..., 3, 3],
        "R14=-R23": r[..., 0, 3] + r[..., 1, 2],
        "R24=R13": r[..., 1, 3] - r[..., 0, 2],
    }
    return [
        f"constraint {name} violated (residual {np.max(np.abs(value)):.3g})"
        for name, value in residuals.items()
        if _violated(value)
    ]


@dataclass(frozen=True, eq=False)
class CurvatureData:
    """Webster-Ricci matrix R (real 5x5), with Ric = i R.

    ``s`` is the horizontal trace and ``rho_h``/``rho_plus`` the derived
    Ricci form and its self-dual part.  Nothing here enforces admissibility
    (negative controls need broken inputs); ``violations`` lists what a
    matrix breaks, and ``models.load_model`` refuses a model file's matrix
    with any.
    """

    ric: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.ric, dtype=float).copy()
        if r.shape[-2:] != (5, 5):
            raise ValueError(f"ric must be 5x5, got {r.shape}")
        r.flags.writeable = False
        object.__setattr__(self, "ric", r)

    @property
    def s(self) -> float:
        """Webster scalar curvature, the horizontal trace of R."""
        s = np.trace(self.ric[..., :4, :4], axis1=-2, axis2=-1)
        return s if s.ndim else float(s)

    @property
    def rho_h(self) -> KForm:
        return ricci_form(self)

    @property
    def rho_plus(self) -> KForm:
        return rho_plus(self)

    def violations(self) -> list[str]:
        return ricci_violations(self.ric)


def admissible_ricci(r11, r33, r13, r14) -> CurvatureData:
    """Admissible Webster-Ricci matrix from its four free parameters."""
    r = np.zeros(np.shape(r11) + (5, 5))
    r[..., 0, 0] = r[..., 1, 1] = r11
    r[..., 2, 2] = r[..., 3, 3] = r33
    r[..., 0, 2] = r[..., 2, 0] = r13
    r[..., 1, 3] = r[..., 3, 1] = r13  # R24 = R13
    r[..., 0, 3] = r[..., 3, 0] = r14
    r[..., 1, 2] = r[..., 2, 1] = -r14  # R14 = -R23
    return CurvatureData(r)


def random_admissible_ricci(rng: np.random.Generator, size=None) -> CurvatureData:
    """Admissible sample (a stack of ``size`` samples, if given) with its four
    free parameters uniform in [-1, 1]."""
    params = rng.uniform(-1.0, 1.0, (4,) if size is None else (size, 4))
    return admissible_ricci(*np.moveaxis(params, -1, 0))


def ricci_form(c: CurvatureData, convention: str = "proof") -> KForm:
    """Ricci 2-form of a Webster-Ricci matrix.

    ``proof`` uses rho(e_i, e_j) = g(e_i, J Ric e_j) = (J R)_ij, the
    convention whose expansion

        rho = -R11 e1^e2 - R33 e3^e4 - R24 (e1^e4 - e2^e3)
              - R23 (e1^e3 + e2^e4)

    feeds the self-dual projection identity.  ``endomorphism`` uses
    rho(e_i, e_j) = Ric(e_i, J e_j) = (R J)_ij; the two agree exactly on
    admissible data because J and R commute there.  Admissibility is not
    checked: negative controls pass broken matrices.
    """
    if convention == "proof":
        m = J_FRAME @ c.ric
    elif convention == "endomorphism":
        m = c.ric @ J_FRAME
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return KForm(2, np.where(VERTICAL[2], 0, m[..., PAIR_INDEX[0], PAIR_INDEX[1]]))


def rho_plus(c: CurvatureData) -> KForm:
    """Self-dual part of the Ricci form; equals -(s/4) deta on admissible data."""
    return sd_project(ricci_form(c)).plus


# -- torsion -----------------------------------------------------------------


def torsion_violations(tau: np.ndarray) -> list[str]:
    t = np.asarray(tau, dtype=float)
    bad = []
    if _violated(t - np.swapaxes(t, -1, -2)):
        bad.append("torsion is not self-adjoint")
    if _violated(t @ J_FRAME + J_FRAME @ t):
        bad.append("torsion does not anticommute with J")
    if _violated(t[..., :, 4]) or _violated(t[..., 4, :]):
        bad.append("torsion does not annihilate the Reeb direction")
    return bad


@dataclass(frozen=True, eq=False)
class TorsionEndomorphism:
    """Generalized torsion endomorphism in frame coordinates."""

    tau: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=float).copy()
        if t.shape[-2:] != (5, 5):
            raise ValueError(f"tau must be 5x5, got {t.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "tau", t)


def admissible_torsion(params) -> TorsionEndomorphism:
    """Admissible torsion from 6 coordinates in the J-adapted span.

    In the frame adapted to J, the symmetric endomorphisms of the horizontal
    space anticommuting with the block rotation are spanned by 2x2 blocks of
    trace-free symmetric matrices; the six parameters fill the A, B, C
    blocks of [[A, B], [B^T, C]].
    """
    p = np.asarray(params, dtype=float)
    a1, a2, b1, b2, c1, c2 = np.moveaxis(p, -1, 0)

    def tf(u, v):
        return np.stack([np.stack([u, v], -1), np.stack([v, -u], -1)], -2)

    t = np.zeros(p.shape[:-1] + (5, 5))
    t[..., :2, :2] = tf(a1, a2)
    t[..., :2, 2:4] = t[..., 2:4, :2] = tf(b1, b2)  # B is symmetric
    t[..., 2:4, 2:4] = tf(c1, c2)
    return TorsionEndomorphism(t)


def random_admissible_torsion(rng: np.random.Generator, size=None) -> TorsionEndomorphism:
    """Admissible torsion (a stack of ``size``, if given) with its six
    parameters uniform in [-1, 1]."""
    return admissible_torsion(rng.uniform(-1.0, 1.0, (6,) if size is None else (size, 6)))


def bianchi_b(tau: TorsionEndomorphism, x, y) -> complex:
    """Torsion correction B(X, Y) from the contracted first Bianchi identity.

    B_a(X, Y) = deta(X, Y) tau(e_a) + deta(e_a, X) tau(Y) + deta(Y, e_a) tau(X)
    and B(X, Y) = (i/2) sum_a g(B_a(X, Y), J e_a) over the horizontal frame.
    Since deta(U, V) = g(J U, V) and J J^T = Id on horizontal vectors, the
    sum over a contracts to

        B(X, Y) = (i/2) (deta(X, Y) sum_ab J_ab tau_ab + X.tau.Y - Y.tau.X).

    Antisymmetric in (X, Y); vanishes for every self-adjoint torsion.  ``x``
    and ``y`` may be (P, 5) stacks of pairs, giving shape (..., P) for a
    (..., 5, 5) stack of torsions.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x[..., 4]) or np.any(y[..., 4]):
        raise ValueError("B(X, Y) is defined for horizontal arguments")
    t = tau.tau
    d = deta_pair(x, y)
    j_tau = np.sum(J_FRAME * t, axis=(-2, -1))
    xty = np.sum((x @ t) * y, axis=-1)
    ytx = np.sum((y @ t) * x, axis=-1)
    return 0.5j * (d * j_tau.reshape(j_tau.shape + (1,) * d.ndim) + xty - ytx)


def ric_identity_check(c: CurvatureData) -> float:
    """Residual of the reconstruction Ric = i rho_h over horizontal pairs.

    Reconstructs the 2-form part of i R through the endomorphism-convention
    Ricci form and compares with the direct (proof-convention) Ricci form.
    The reconstruction's Bianchi correction B vanishes for every self-adjoint
    torsion (see ``bianchi_b``, checked on its own), so it does not enter.
    On admissible data the two J-placements agree, so the residual is zero;
    broken symmetry constraints make J and R stop commuting and the residual
    turns on.
    """
    direct = ricci_form(c, convention="proof")
    recon = ricci_form(c, convention="endomorphism")
    horizontal = ~VERTICAL[2]
    lhs = 1j * recon.coeffs[..., horizontal]
    rhs = 1j * direct.coeffs[..., horizontal]
    return float(np.max(np.abs(lhs - rhs)))


# -- (4,0) curvature tensor ---------------------------------------------------

_SQ2 = np.sqrt(2.0)

#: Components of the unitary T10 frame Z_a = (e_{2a-1} - i e_{2a}) / sqrt(2)
#: and its conjugates in the real frame; order (Z1, Z2, Zbar1, Zbar2, Reeb).
COMPLEX_FRAME = np.array(
    [
        [1 / _SQ2, -1j / _SQ2, 0, 0, 0],
        [0, 0, 1 / _SQ2, -1j / _SQ2, 0],
        [1 / _SQ2, 1j / _SQ2, 0, 0, 0],
        [0, 0, 1 / _SQ2, 1j / _SQ2, 0],
        [0, 0, 0, 0, 1],
    ],
    dtype=complex,
)
COMPLEX_FRAME.flags.writeable = False

_CONJ_INDEX = (2, 3, 0, 1, 4)


@dataclass(frozen=True, eq=False)
class CurvatureTensor4:
    """(4,0) curvature tensor by its components over the complex frame.

    ``components[i, j, k, l]`` holds the value on (W_i, W_j, W_k, W_l), where
    (W_0, ..., W_4) = (Z1, Z2, Zbar1, Zbar2, Reeb) are the rows of
    ``COMPLEX_FRAME``: the frame in which the tensor is built and its
    symmetries are stated.  Evaluation on real frame vectors extends
    multilinearly.  Complex storage represents broken inputs as well.
    """

    components: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.components, dtype=complex).copy()
        if t.shape[-4:] != (5, 5, 5, 5):
            raise ValueError(f"components must be 5x5x5x5, got {t.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "components", t)

    def ricci_trace(self) -> np.ndarray:
        """5x5 matrix of sum_a R(W_i, W_j, Z_a, Zbar_a); equals Z (i rho_h) Z^T
        for Z = ``COMPLEX_FRAME``."""
        return self.components[..., [0, 1], [2, 3]].sum(-1)


def curvature_tensor(c: CurvatureData) -> CurvatureTensor4:
    """Synthetic (4,0) curvature tensor with prescribed Webster-Ricci data.

    Built from a Hermitian 2x2 matrix P through the symmetrized ansatz

        R(Z_a, Zbar_b, Z_c, Zbar_d) = P_ab d_cd + d_ab P_cd
                                      + P_ad d_cb + d_ad P_cb,

    extended by pair antisymmetry and conjugation, all other type components
    zero.  P is calibrated so that the Ricci trace over the unitary frame
    reproduces i rho_h exactly; the construction then satisfies all four
    curvature tensor symmetries by design.  Admissibility is not checked.
    """
    rho = J_FRAME @ c.ric  # proof-convention Ricci form matrix, skew on H
    z = COMPLEX_FRAME
    # Target Ricci trace on (Z_a, Zbar_b): Hermitian 2x2.
    m = 1j * (z[:2] @ rho.astype(complex) @ z[2:4].T)
    tr_p = np.trace(m, axis1=-2, axis2=-1)[..., None, None] / 6.0
    p = (m - tr_p * np.eye(2)) / 4.0

    eye2 = np.eye(2)
    lam = (
        np.einsum("...ab,gd->...abgd", p, eye2)
        + np.einsum("ab,...gd->...abgd", eye2, p)
        + np.einsum("...ad,gb->...abgd", p, eye2)
        + np.einsum("ad,...gb->...abgd", eye2, p)
    )

    # Complex-frame component array, indexed (Z1, Z2, Zbar1, Zbar2, Reeb);
    # only mixed-type slots are populated, by pair antisymmetry from lam.
    gc = np.zeros(lam.shape[:-4] + (5, 5, 5, 5), dtype=complex)
    gc[..., :2, 2:4, :2, 2:4] = lam
    gc[..., :2, 2:4, 2:4, :2] = -np.swapaxes(lam, -2, -1)
    gc[..., 2:4, :2, :2, 2:4] = -np.swapaxes(lam, -4, -3)
    gc[..., 2:4, :2, 2:4, :2] = np.swapaxes(np.swapaxes(lam, -4, -3), -2, -1)

    return CurvatureTensor4(gc)


def symmetry_check(t: CurvatureTensor4) -> dict[str, float]:
    """Max violation of the four curvature-tensor symmetries.

    * antisymmetry within the first and the second index pair (one frame
      change on every slot preserves it, so the complex components show it),
    * the conjugation rule (components on conjugated arguments are the
      complex conjugates),
    * exchange of the first and third slots on T10-type arguments,
    * vanishing whenever the first two arguments both lie in T10.
    """
    gc = t.components
    r_first = float(np.max(np.abs(gc + np.swapaxes(gc, -4, -3))))
    r_second = float(np.max(np.abs(gc + np.swapaxes(gc, -2, -1))))

    conj_map = np.array(_CONJ_INDEX)
    gc_bar = gc[(..., *np.ix_(conj_map, conj_map, conj_map, conj_map))]
    r_conj = float(np.max(np.abs(np.conj(gc) - gc_bar)))

    mixed = gc[..., :2, 2:4, :2, 2:4]
    r_exchange = float(np.max(np.abs(mixed - np.swapaxes(mixed, -4, -2))))

    r_t10 = float(np.max(np.abs(gc[..., :2, :2, :, :])))

    return {
        "pair_antisymmetry": float(np.max([r_first, r_second])),
        "conjugation": r_conj,
        "t10_exchange": r_exchange,
        "t10_vanishing": r_t10,
    }
