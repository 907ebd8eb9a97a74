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
guarantees.  ``ricci_form`` uses J R, whose expansion is the one the
self-dual projection identity is stated for;
``ricci_reconstruction_defect`` compares it with R J.

The Bianchi correction B(X, Y) built from the torsion vanishes identically
for every SELF-ADJOINT torsion; J-anticommutation is not needed for that
cancellation (it enters the torsion's own structure theory instead).  The
negative control for B therefore has to break self-adjointness.

Data are plain arrays: the Ricci matrix ``ric`` and the torsion ``tau`` are
real ``(..., 5, 5)`` arrays and the (4,0) curvature tensor a complex
``(..., 5, 5, 5, 5)`` array, each possibly a stack of samples on leading
axes.  Values (forms, scalar curvatures, Bianchi terms) keep the sample
axes; residuals and violation lists cover the whole stack.  Samplers take a
``numpy.random.Generator`` and a stack size and advance only that
generator; the tests draw from them, and no command does.  All other
functions are pure and never write to their arguments.  The Ricci form,
rho_plus, the scalar curvature, the reconstruction defect, B and the (4,0)
tensor are linear in ``ric`` or ``tau``, so the curvature suite evaluates
them once on the unit parameter vectors of ``admissible_ricci`` and
``admissible_torsion``, which certifies them on every admissible input; it
draws nothing.
"""

from __future__ import annotations

import numpy as np

from .extalg import PAIR_INDEX, VERTICAL, KForm, _frozen, sd_project

#: Almost complex structure on the frame: J e1 = e2, J e3 = e4, J Reeb = 0.
J_FRAME = _frozen(
    [
        [0.0, -1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)

#: Frame vectors (e_i, e_j) of the six horizontal pairs i < j, in 2-form
#: basis order, as two stacks of shape (6, 5).
HORIZONTAL_FRAME_PAIRS = tuple(_frozen(np.eye(5)[ix[~VERTICAL[2]]]) for ix in PAIR_INDEX)


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


def scalar_curvature(ric: np.ndarray) -> float:
    """Webster scalar curvature s, the horizontal trace of R."""
    s = np.trace(ric[..., :4, :4], axis1=-2, axis2=-1)
    return s if s.ndim else float(s)


def admissible_ricci(r11, r33, r13, r14) -> np.ndarray:
    """Admissible Webster-Ricci matrix from its four free parameters."""
    r = np.zeros(np.shape(r11) + (5, 5))
    r[..., 0, 0] = r[..., 1, 1] = r11
    r[..., 2, 2] = r[..., 3, 3] = r33
    r[..., 0, 2] = r[..., 2, 0] = r13
    r[..., 1, 3] = r[..., 3, 1] = r13  # R24 = R13
    r[..., 0, 3] = r[..., 3, 0] = r14
    r[..., 1, 2] = r[..., 2, 1] = -r14  # R14 = -R23
    return r


def random_admissible_ricci(rng: np.random.Generator, size=None) -> np.ndarray:
    """Admissible sample (a stack of ``size`` samples, if given) with its four
    free parameters uniform in [-1, 1]."""
    params = rng.uniform(-1.0, 1.0, (4,) if size is None else (size, 4))
    return admissible_ricci(*np.moveaxis(params, -1, 0))


def _two_form(m: np.ndarray) -> KForm:
    """The horizontal 2-form with coefficients m_ij on e_i ^ e_j."""
    return KForm(2, np.where(VERTICAL[2], 0, m[..., PAIR_INDEX[0], PAIR_INDEX[1]]))


def ricci_form(ric: np.ndarray) -> KForm:
    """Ricci 2-form rho(e_i, e_j) = g(e_i, J Ric e_j) = (J R)_ij, whose expansion

        rho = -R11 e1^e2 - R33 e3^e4 - R24 (e1^e4 - e2^e3)
              - R23 (e1^e3 + e2^e4)

    feeds the self-dual projection identity.  Admissibility is not checked:
    negative controls pass broken matrices.
    """
    return _two_form(J_FRAME @ ric)


def rho_plus(ric: np.ndarray) -> KForm:
    """Self-dual part of the Ricci form; equals -(s/4) deta on admissible data."""
    return sd_project(ricci_form(ric)).plus


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


def admissible_torsion(params) -> np.ndarray:
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
    return t


def random_admissible_torsion(rng: np.random.Generator, size=None) -> np.ndarray:
    """Admissible torsion (a stack of ``size``, if given) with its six
    parameters uniform in [-1, 1]."""
    return admissible_torsion(rng.uniform(-1.0, 1.0, (6,) if size is None else (size, 6)))


def bianchi_b(tau: np.ndarray, x, y) -> complex:
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
    d = np.sum((x @ J_FRAME.T) * y, axis=-1)  # deta(X, Y) = g(J X, Y)
    j_tau = np.sum(J_FRAME * tau, axis=(-2, -1))
    xty = np.sum((x @ tau) * y, axis=-1)
    ytx = np.sum((y @ tau) * x, axis=-1)
    return 0.5j * (d * j_tau.reshape(j_tau.shape + (1,) * d.ndim) + xty - ytx)


def ricci_reconstruction_defect(ric: np.ndarray) -> np.ndarray:
    """Defect of the reconstruction Ric = i rho_h on the six horizontal
    pairs, shape (..., 6), without the factor i: the 2-form part of R
    through the R J placement of J, minus the Ricci form (J R).

    Its Bianchi correction B vanishes for every self-adjoint torsion (see
    ``bianchi_b``), so it does not enter.  Zero on admissible data; broken
    symmetry constraints make J and R stop commuting and turn it on.
    """
    horizontal = ~VERTICAL[2]
    return _two_form(ric @ J_FRAME).coeffs[..., horizontal] - ricci_form(ric).coeffs[..., horizontal]


def ric_identity_check(ric: np.ndarray) -> float:
    """Largest modulus of ``ricci_reconstruction_defect`` over the stack."""
    return float(np.max(np.abs(ricci_reconstruction_defect(ric))))


# -- (4,0) curvature tensor ---------------------------------------------------

#: sqrt(2) times the unitary frame Z_a = (e_{2a-1} - i e_{2a}) / sqrt(2) and its
#: conjugates, rows (Z1, Z2, Zbar1, Zbar2) in the real frame: Gaussian integers.
#: The sqrt(2) of the Clifford action cancels the 1/sqrt(2) of the frame, so
#: the dbar rows stay exact.
SQ2_UNITARY_FRAME = _frozen([[1, -1j, 0, 0, 0], [0, 0, 1, -1j, 0], [1, 1j, 0, 0, 0], [0, 0, 1, 1j, 0]])
#: The frame (Z1, Z2, Zbar1, Zbar2, Reeb) in the real frame.
COMPLEX_FRAME = _frozen(np.vstack([SQ2_UNITARY_FRAME / np.sqrt(2.0), np.eye(5)[4]]))

_CONJ_INDEX = (2, 3, 0, 1, 4)


def ricci_trace(gc: np.ndarray) -> np.ndarray:
    """5x5 matrix of sum_a R(W_i, W_j, Z_a, Zbar_a) of a (4,0) curvature tensor;
    equals Z (i rho_h) Z^T for Z = ``COMPLEX_FRAME``."""
    return gc[..., [0, 1], [2, 3]].sum(-1)


def curvature_tensor(ric: np.ndarray) -> np.ndarray:
    """Synthetic (4,0) curvature tensor with prescribed Webster-Ricci data.

    ``[..., i, j, k, l]`` holds the value on (W_i, W_j, W_k, W_l), where
    (W_0, ..., W_4) = (Z1, Z2, Zbar1, Zbar2, Reeb) are the rows of
    ``COMPLEX_FRAME``: the frame in which the tensor is built and its
    symmetries are stated.  Evaluation on real frame vectors extends
    multilinearly.  Complex storage represents broken inputs as well.

    Built from a Hermitian 2x2 matrix P through the symmetrized ansatz

        R(Z_a, Zbar_b, Z_c, Zbar_d) = P_ab d_cd + d_ab P_cd
                                      + P_ad d_cb + d_ad P_cb,

    extended by pair antisymmetry and conjugation, all other type components
    zero.  P is calibrated so that the Ricci trace over the unitary frame
    reproduces i rho_h exactly; the construction then satisfies all four
    curvature tensor symmetries by design.  Admissibility is not checked.
    """
    rho = J_FRAME @ ric  # the Ricci form's matrix J R, skew on H
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
    return gc


def symmetry_check(gc: np.ndarray) -> dict[str, float]:
    """Max violation of the four symmetries of a (4,0) curvature tensor.

    * antisymmetry within the first and the second index pair (one frame
      change on every slot preserves it, so the complex components show it),
    * the conjugation rule (components on conjugated arguments are the
      complex conjugates),
    * exchange of the first and third slots on T10-type arguments,
    * vanishing whenever the first two arguments both lie in T10.
    """
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
