"""Concrete contact metric 5-manifolds and their axiom validators.

Two models are provided:

* the Heisenberg group chart on R^5 with contact form
  eta = dt - y1 dx1 - y2 dx2, left-invariant frame, flat Tanaka-Webster
  connection, vanishing torsion and scalar curvature;
* a synthetic pointwise model: a single tangent space carrying prescribed
  admissible Webster curvature and torsion, used for the algebraic identity
  chain (it has no differential structure).

All differential computations are exact: coefficient functions are
:class:`~swcheck.poly.PolyExpr` polynomials, Lie brackets and exterior
derivatives are computed symbolically, and residual reports only evaluate
the resulting polynomials, on the whole array of sample points at once
(:func:`~swcheck.poly.evaluate_all`).

Torsion sign convention.  With the coordinate exterior derivative, Cartan's
formula forces eta([X, Y]) = -deta(X, Y) for horizontal X, Y, and therefore
the horizontal torsion of any connection preserving the contact distribution
satisfies T(X, Y) = +deta(X, Y) Reeb.  The axiom checker uses that sign
(``TW_TORSION_SIGN = +1``); the opposite sign is only consistent with a
1/2-convention for the exterior derivative, which this toolkit does not use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curvature import CurvatureData, J_FRAME, TorsionEndomorphism
from .extalg import INDEX_TUPLES, PAIR_INDEX, WEDGE, KForm
from .poly import ONE, ZERO, PolyExpr, PolySyntaxError, evaluate_all, max_abs, parse_poly

#: Sign in the horizontal torsion axiom T(X, Y) = sign * deta(X, Y) * Reeb.
TW_TORSION_SIGN = 1.0


def _as_poly(v) -> PolyExpr:
    if isinstance(v, PolyExpr):
        return v
    return PolyExpr.const(v)


# -- coordinate vector fields and forms --------------------------------------


@dataclass(frozen=True)
class VectorFieldPoly:
    """First-order derivation with polynomial coefficients.

    Components are over the coordinate directions
    (d/dx1, d/dy1, d/dx2, d/dy2, d/dt).
    """

    components: tuple[PolyExpr, PolyExpr, PolyExpr, PolyExpr, PolyExpr]

    @staticmethod
    def make(*components) -> "VectorFieldPoly":
        if len(components) != 5:
            raise ValueError("a vector field needs 5 components")
        return VectorFieldPoly(tuple(_as_poly(c) for c in components))

    def apply(self, f: PolyExpr) -> PolyExpr:
        """Directional derivative X(f), exact."""
        out = ZERO
        for c, comp in enumerate(self.components):
            if not comp.is_zero():
                out = out + comp * f.diff(c)
        return out

    def evaluate(self, point) -> np.ndarray:
        return np.array([comp(point) for comp in self.components], dtype=complex)

    def __add__(self, other: "VectorFieldPoly") -> "VectorFieldPoly":
        return VectorFieldPoly(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "VectorFieldPoly") -> "VectorFieldPoly":
        return VectorFieldPoly(
            tuple(a - b for a, b in zip(self.components, other.components))
        )

    def __neg__(self) -> "VectorFieldPoly":
        return VectorFieldPoly(tuple(-c for c in self.components))

    def scale(self, f) -> "VectorFieldPoly":
        f = _as_poly(f)
        return VectorFieldPoly(tuple(f * c for c in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


ZERO_FIELD = VectorFieldPoly.make(0, 0, 0, 0, 0)


def lie_bracket(x: VectorFieldPoly, y: VectorFieldPoly) -> VectorFieldPoly:
    """[X, Y], computed exactly on the polynomial coefficients."""
    return VectorFieldPoly(
        tuple(x.apply(yc) - y.apply(xc) for xc, yc in zip(x.components, y.components))
    )


@dataclass(frozen=True)
class CoordForm:
    """Differential form with polynomial coefficients over dx1, dy1, dx2, dy2, dt.

    ``coeffs[p]`` is the coefficient of the coordinate basis form with index
    tuple ``INDEX_TUPLES[degree][p]``: the layout of
    :class:`~swcheck.extalg.KForm`, with ``PolyExpr`` coefficients.  Products
    and derivatives take their signs from ``extalg.WEDGE``; a 1-form's
    coefficients are its five components and a 5-form's one coefficient is
    its density against dx1 ^ dy1 ^ dx2 ^ dy2 ^ dt.
    """

    degree: int
    coeffs: tuple[PolyExpr, ...]

    def __post_init__(self):
        n = len(INDEX_TUPLES[self.degree])
        if len(self.coeffs) != n:
            raise ValueError(f"a {self.degree}-form needs {n} coefficients")

    @staticmethod
    def one_form(*components) -> "CoordForm":
        return CoordForm(1, tuple(_as_poly(c) for c in components))

    def wedge(self, other: "CoordForm") -> "CoordForm":
        k = self.degree + other.degree
        if k > 5:
            raise ValueError("degree overflow")
        table = WEDGE[self.degree, other.degree]
        out = [ZERO] * table.shape[2]
        for p, q, r in zip(*np.nonzero(table)):
            a, b = self.coeffs[p], other.coeffs[q]
            if not (a.is_zero() or b.is_zero()):
                out[r] = out[r] + a * b if table[p, q, r] > 0 else out[r] - a * b
        return CoordForm(k, tuple(out))

    def pair_vector(self, x: VectorFieldPoly) -> PolyExpr:
        if self.degree != 1:
            raise ValueError("pair_vector needs a 1-form")
        out = ZERO
        for c, comp in zip(self.coeffs, x.components):
            if not c.is_zero():
                out = out + c * comp
        return out

    def pair_two(self, x: VectorFieldPoly, y: VectorFieldPoly) -> PolyExpr:
        if self.degree != 2:
            raise ValueError("pair_two needs a 2-form")
        out = ZERO
        for c, i, j in zip(self.coeffs, *PAIR_INDEX):
            if not c.is_zero():
                out = out + c * (
                    x.components[i] * y.components[j] - x.components[j] * y.components[i]
                )
        return out


def exterior_d(form: CoordForm) -> CoordForm:
    """Coordinate exterior derivative, exact on polynomial coefficients.

    d(c dx_I) = sum_v (dc/dx_v) dx_v ^ dx_I, signed by ``WEDGE[1, degree]``.
    """
    table = WEDGE[1, form.degree]
    out = [ZERO] * table.shape[2]
    for v, p, r in zip(*np.nonzero(table)):
        c = form.coeffs[p]
        dc = ZERO if c.is_zero() else c.diff(int(v))
        if not dc.is_zero():
            out[r] = out[r] + dc if table[v, p, r] > 0 else out[r] - dc
    return CoordForm(form.degree + 1, tuple(out))


# -- frame sets and connections ------------------------------------------------


@dataclass(frozen=True)
class FrameFieldSet:
    """Local frame (e1, e2, e3, e4, Reeb), contact form and J on a chart."""

    name: str
    fields: tuple[VectorFieldPoly, ...]  # e1..e4, Reeb
    eta: CoordForm
    jmat: tuple[tuple[PolyExpr, ...], ...]  # coordinate matrix of J

    def __post_init__(self):
        if len(self.fields) != 5:
            raise ValueError("a frame set needs 5 vector fields")
        if self.eta.degree != 1:
            raise ValueError("eta must be a 1-form")

    @property
    def reeb(self) -> VectorFieldPoly:
        return self.fields[4]

    def j_apply(self, x: VectorFieldPoly) -> VectorFieldPoly:
        comps = []
        for i in range(5):
            out = ZERO
            for j in range(5):
                entry = self.jmat[i][j]
                if not entry.is_zero():
                    out = out + entry * x.components[j]
            comps.append(out)
        return VectorFieldPoly(tuple(comps))


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Frame Christoffel symbols and the U(1) connection 1-form.

    ``gamma[i][j][k]`` is the e_{k+1} component of the covariant derivative
    of e_{j+1} along e_{i+1}.  ``a_form`` is the coordinate 1-form of the
    determinant-line connection; it must be imaginary valued.
    """

    gamma: tuple[tuple[tuple[PolyExpr, ...], ...], ...]
    a_form: CoordForm

    def __post_init__(self):
        for c, a in enumerate(self.a_form.coeffs):
            if any(v.real != 0 for _, v in a.terms):
                raise ValueError(f"A[{c}]: the U(1) connection 1-form must be imaginary valued")

    @staticmethod
    def flat() -> "ConnectionCoefficients":
        z = tuple(tuple(tuple(ZERO for _ in range(5)) for _ in range(5)) for _ in range(5))
        return ConnectionCoefficients(z, CoordForm.one_form(0, 0, 0, 0, 0))

    def with_a(self, a_form: CoordForm) -> "ConnectionCoefficients":
        return ConnectionCoefficients(self.gamma, a_form)

    def is_flat(self) -> bool:
        return all(
            self.gamma[i][j][k].is_zero()
            for i in range(5)
            for j in range(5)
            for k in range(5)
        )

    def nabla(self, frame: FrameFieldSet, i: int, j: int) -> VectorFieldPoly:
        """Covariant derivative of e_{j+1} along e_{i+1} as a vector field."""
        out = ZERO_FIELD
        for k in range(5):
            g = self.gamma[i][j][k]
            if not g.is_zero():
                out = out + frame.fields[k].scale(g)
        return out


def heisenberg5() -> tuple[FrameFieldSet, ConnectionCoefficients]:
    """The Heisenberg group chart on R^5.

    eta = dt - y1 dx1 - y2 dx2, Reeb = d/dt, frame
    e1 = d/dx1 + y1 d/dt, e2 = d/dy1, e3 = d/dx2 + y2 d/dt, e4 = d/dy2,
    J e1 = e2, J e3 = e4.  The flat connection (all frame Christoffels zero)
    is the Tanaka-Webster connection; torsion endomorphism, U(1) connection
    and Webster scalar curvature all vanish.
    """
    y1 = PolyExpr.variable("y1")
    y2 = PolyExpr.variable("y2")
    e1 = VectorFieldPoly.make(1, 0, 0, 0, y1)
    e2 = VectorFieldPoly.make(0, 1, 0, 0, 0)
    e3 = VectorFieldPoly.make(0, 0, 1, 0, y2)
    e4 = VectorFieldPoly.make(0, 0, 0, 1, 0)
    xi = VectorFieldPoly.make(0, 0, 0, 0, 1)
    eta = CoordForm.one_form(-y1, 0, -y2, 0, 1)
    j_rows = (
        (0, -1, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 0, 0, -1, 0),
        (0, 0, 1, 0, 0),
        (0, -y1, 0, -y2, 0),
    )
    jmat = tuple(tuple(_as_poly(v) for v in row) for row in j_rows)
    frame = FrameFieldSet("heisenberg", (e1, e2, e3, e4, xi), eta, jmat)
    return frame, ConnectionCoefficients.flat()


def sample_points(n: int, seed: int, box: float = 1.0) -> np.ndarray:
    """Deterministic sample of n chart points, uniform in [-box, box]^5."""
    if n < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(n, 5))


# -- residual machinery ---------------------------------------------------------


def _max_eval(exprs: list[PolyExpr], points) -> float:
    # Zero polynomials would only add columns of zeros.
    return max_abs(evaluate_all([e for e in exprs if not e.is_zero()], points))


def _webster_metric(frame: FrameFieldSet, deta: CoordForm):
    """Symbolic Webster metric g(X, Y) = deta(X, JY) + eta(X) eta(Y)."""

    def g(x: VectorFieldPoly, y: VectorFieldPoly) -> PolyExpr:
        return deta.pair_two(x, frame.j_apply(y)) + frame.eta.pair_vector(
            x
        ) * frame.eta.pair_vector(y)

    return g


def contact_volume(frame: FrameFieldSet) -> PolyExpr:
    """Coefficient of eta ^ deta ^ deta against the coordinate volume."""
    deta = exterior_d(frame.eta)
    top = frame.eta.wedge(deta).wedge(deta)
    return top.coeffs[0]


def contact_check(frame: FrameFieldSet, points) -> dict[str, float]:
    """Pointwise residuals of the contact metric structure.

    Reports the Reeb normalization, horizontality of the frame, the contact
    volume (as a minimum, since the condition is nonvanishing), frame
    orthonormality under the Webster metric, J-invariance and
    deta-compatibility of the metric, consistency of J with the frame
    (J e1 = e2, J e3 = e4, J Reeb = 0) and the identity J^2 = -Id + eta (x) Reeb.
    """
    deta = exterior_d(frame.eta)
    g = _webster_metric(frame, deta)
    eta_of = [frame.eta.pair_vector(f) for f in frame.fields]
    je = [frame.j_apply(f) for f in frame.fields]

    reeb = [eta_of[4] - ONE]
    horiz = [eta_of[i] for i in range(4)]

    orth = []
    j_inv = []
    compat = []
    for i in range(5):
        for j in range(5):
            gij = g(frame.fields[i], frame.fields[j])
            delta = ONE if i == j else ZERO
            orth.append(gij - delta)
            j_inv.append(g(je[i], je[j]) - gij + eta_of[i] * eta_of[j])
            compat.append(
                g(je[i], frame.fields[j]) - deta.pair_two(frame.fields[i], frame.fields[j])
            )

    frame_j = list((je[0] - frame.fields[1]).components)
    frame_j += list((je[2] - frame.fields[3]).components)
    frame_j += list(je[4].components)

    jsq = []
    xi_comps = frame.reeb.components
    eta_comps = frame.eta.coeffs
    for c in range(5):
        for d in range(5):
            entry = ZERO
            for m in range(5):
                if not frame.jmat[c][m].is_zero() and not frame.jmat[m][d].is_zero():
                    entry = entry + frame.jmat[c][m] * frame.jmat[m][d]
            delta = ONE if c == d else ZERO
            jsq.append(entry + delta - xi_comps[c] * eta_comps[d])

    vol_min = float(np.min(np.abs(evaluate_all([contact_volume(frame)], points))))

    return {
        "reeb_normalization": _max_eval(reeb, points),
        "eta_on_horizontal": _max_eval(horiz, points),
        "contact_volume_min": vol_min,
        "frame_orthonormality": _max_eval(orth, points),
        "metric_J_invariance": _max_eval(j_inv, points),
        "metric_deta_compatibility": _max_eval(compat, points),
        "frame_J_consistency": _max_eval(frame_j, points),
        "J_square_identity": _max_eval(jsq, points),
    }


def _nijenhuis_contact(
    frame: FrameFieldSet, deta: CoordForm, y: VectorFieldPoly, z: VectorFieldPoly
) -> VectorFieldPoly:
    """N(Y, Z) = J^2 [Y,Z] + [JY, JZ] - J[Y, JZ] - J[JY, Z] + deta(Y, Z) Reeb."""
    jy, jz = frame.j_apply(y), frame.j_apply(z)
    byz = lie_bracket(y, z)
    out = frame.j_apply(frame.j_apply(byz))
    out = out + lie_bracket(jy, jz)
    out = out - frame.j_apply(lie_bracket(y, jz))
    out = out - frame.j_apply(lie_bracket(jy, z))
    return out + frame.reeb.scale(deta.pair_two(y, z))


def tw_axiom_check(
    frame: FrameFieldSet, conn: ConnectionCoefficients, points
) -> dict[str, float]:
    """Residuals of the defining axioms of the Tanaka-Webster connection.

    (a) parallel contact form and Reeb field, (b) parallel Webster metric,
    (c) horizontal torsion T(X, Y) = TW_TORSION_SIGN * deta(X, Y) * Reeb and
    Reeb torsion T(Reeb, .) = (1/2) J (L_Reeb J), (d) the covariant
    derivative of J against the Nijenhuis-type defect.

    Covariant derivatives of coefficient functions are exact polynomial
    derivatives; torsion uses exact Lie brackets.  Axiom (d) expands J e_j in
    the frame via the standard block matrix, so the frame should satisfy the
    J-consistency invariants (validated by :func:`contact_check`) for the
    report to be meaningful.
    """
    deta = exterior_d(frame.eta)
    g = _webster_metric(frame, deta)
    eta_of = [frame.eta.pair_vector(f) for f in frame.fields]
    nabla = [[conn.nabla(frame, i, j) for j in range(5)] for i in range(5)]
    bracket = [[lie_bracket(frame.fields[i], frame.fields[j]) for j in range(5)] for i in range(5)]
    gmat = [[g(frame.fields[i], frame.fields[j]) for j in range(5)] for i in range(5)]

    # (a) parallel eta and Reeb
    a_exprs = []
    for k in range(5):
        for j in range(5):
            expr = frame.fields[k].apply(eta_of[j])
            for m in range(5):
                if not conn.gamma[k][j][m].is_zero():
                    expr = expr - conn.gamma[k][j][m] * eta_of[m]
            a_exprs.append(expr)
        a_exprs.extend(nabla[k][4].components)

    # (b) parallel metric
    b_exprs = []
    for k in range(5):
        for i in range(5):
            for j in range(i, 5):
                expr = frame.fields[k].apply(gmat[i][j])
                for m in range(5):
                    if not conn.gamma[k][i][m].is_zero():
                        expr = expr - conn.gamma[k][i][m] * gmat[m][j]
                    if not conn.gamma[k][j][m].is_zero():
                        expr = expr - conn.gamma[k][j][m] * gmat[i][m]
                b_exprs.append(expr)

    # (c) torsion
    c_h_exprs = []
    for i in range(4):
        for j in range(i + 1, 4):
            tvec = nabla[i][j] - nabla[j][i] - bracket[i][j]
            target = frame.reeb.scale(
                deta.pair_two(frame.fields[i], frame.fields[j]) * TW_TORSION_SIGN
            )
            c_h_exprs.extend((tvec - target).components)

    c_xi_exprs = []
    for j in range(5):
        tvec = nabla[4][j] - nabla[j][4] - bracket[4][j]
        lie_j = lie_bracket(frame.reeb, frame.j_apply(frame.fields[j])) - frame.j_apply(
            bracket[4][j]
        )
        target = frame.j_apply(lie_j).scale(0.5)
        c_xi_exprs.extend((tvec - target).components)

    # (d) nabla J against the integrability defect
    jf = J_FRAME
    d_exprs = []
    n_h = {}
    for j in range(5):
        for l in range(5):
            n = _nijenhuis_contact(frame, deta, frame.fields[j], frame.fields[l])
            n_h[(j, l)] = n - frame.reeb.scale(frame.eta.pair_vector(n))
    for k in range(5):
        for j in range(5):
            for l in range(5):
                lhs = ZERO
                for m in range(5):
                    coef = ZERO
                    for p in range(5):
                        if jf[p, j] != 0:
                            coef = coef + jf[p, j] * conn.gamma[k][p][m]
                        if jf[m, p] != 0:
                            coef = coef - conn.gamma[k][j][p] * jf[m, p]
                    if not coef.is_zero():
                        lhs = lhs + coef * gmat[m][l]
                rhs = deta.pair_two(frame.fields[k], n_h[(j, l)]) * 0.5
                d_exprs.append(lhs - rhs)

    return {
        "axiom_a_parallel_eta_xi": _max_eval(a_exprs, points),
        "axiom_b_parallel_metric": _max_eval(b_exprs, points),
        "axiom_c_horizontal_torsion": _max_eval(c_h_exprs, points),
        "axiom_c_reeb_torsion": _max_eval(c_xi_exprs, points),
        "axiom_d_parallel_J": _max_eval(d_exprs, points),
    }


def cr_check(frame: FrameFieldSet, points) -> dict[str, float]:
    """Integrability residuals of the underlying almost CR structure.

    Reports the components of
    N(X, Y) = J([JX, Y] + [X, JY]) - [JX, JY] + [X, Y]
    over horizontal frame pairs, and the contact-metric-to-CR criterion
    eta([JX, Y]) = -eta([X, JY]).
    """
    n_exprs = []
    eta_exprs = []
    for i in range(4):
        for j in range(i + 1, 4):
            x, y = frame.fields[i], frame.fields[j]
            jx, jy = frame.j_apply(x), frame.j_apply(y)
            n = frame.j_apply(lie_bracket(jx, y) + lie_bracket(x, jy))
            n = n - lie_bracket(jx, jy) + lie_bracket(x, y)
            n_exprs.extend(n.components)
            eta_exprs.append(
                frame.eta.pair_vector(lie_bracket(jx, y))
                + frame.eta.pair_vector(lie_bracket(x, jy))
            )
    return {
        "integrability": _max_eval(n_exprs, points),
        "eta_bracket_criterion": _max_eval(eta_exprs, points),
    }


# -- synthetic pointwise model ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticModel:
    """One tangent space with prescribed Webster curvature and torsion.

    There is no differential structure: the frame is the standard basis, J
    the block rotation, and the curvature 2-form is prescribed directly as
    F_A = i * rho_h.  The U(1) connection is taken in a gauge normal at the
    point (its local 1-form vanishes there), so spinor covariant derivatives
    of constant spinors vanish.
    """

    curvature: CurvatureData
    torsion: TorsionEndomorphism

    def __post_init__(self):
        bad = self.curvature.violations() + self.torsion.violations()
        if bad:
            raise ValueError("inadmissible synthetic model: " + "; ".join(bad))

    @property
    def s(self) -> float:
        return self.curvature.s

    @property
    def rho_h(self) -> KForm:
        return self.curvature.rho_h

    @property
    def rho_plus(self) -> KForm:
        return self.curvature.rho_plus

    @property
    def f_a(self) -> KForm:
        """Prescribed curvature 2-form of the U(1) connection, i * rho_h."""
        return 1j * self.rho_h

    @property
    def f_a_plus(self) -> KForm:
        return 1j * self.rho_plus


def synthetic_model(
    curvature: CurvatureData, torsion: TorsionEndomorphism | None = None
) -> SyntheticModel:
    if torsion is None:
        torsion = TorsionEndomorphism(np.zeros((5, 5)))
    return SyntheticModel(curvature, torsion)


# -- model files ---------------------------------------------------------------


class ModelFormatError(ValueError):
    """Schema violation in a model definition, with the offending field path."""


@dataclass(frozen=True)
class ModelBundle:
    frame: FrameFieldSet
    connection: ConnectionCoefficients
    curvature: CurvatureData | None = None


def read_json_file(path):
    """Decode a UTF-8 JSON file; any failure is a located ModelFormatError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelFormatError(f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc


def _parse_number(path: str, src) -> float:
    if isinstance(src, bool) or not isinstance(src, (int, float)):
        raise ModelFormatError(f"{path}: expected a number")
    try:
        value = float(src)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ModelFormatError(f"{path}: number {value} is not finite")
    return value


def _parse_field(path: str, src) -> PolyExpr:
    if isinstance(src, (int, float)):
        return PolyExpr.const(_parse_number(path, src))
    if not isinstance(src, str):
        raise ModelFormatError(f"{path}: expected a string or number")
    try:
        return parse_poly(src)
    except PolySyntaxError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _parse_vector(path: str, src) -> VectorFieldPoly:
    if not isinstance(src, list) or len(src) != 5:
        raise ModelFormatError(f"{path}: expected a list of 5 expressions")
    return VectorFieldPoly(tuple(_parse_field(f"{path}[{i}]", s) for i, s in enumerate(src)))


def load_model(source) -> ModelBundle:
    """Load a model from a builtin name, a JSON file path, or a dict.

    The schema has fields ``chart``, ``eta`` (5 expressions), ``xi``,
    ``frame`` (4 x 5), ``J`` (5 x 5), and optional ``gamma`` (5 x 5 x 5),
    ``A`` (5 expressions, imaginary valued) and ``curvature``
    (``{"ric": 5 x 5 numbers}``, validated for admissibility).
    """
    if isinstance(source, str) and source == "heisenberg":
        frame, conn = heisenberg5()
        return ModelBundle(frame, conn, None)
    if isinstance(source, (str, Path)):
        data = read_json_file(source)
    elif isinstance(source, dict):
        data = source
    else:
        raise ModelFormatError(f"unsupported model source {type(source).__name__}")

    for key in ("eta", "xi", "frame", "J"):
        if key not in data:
            raise ModelFormatError(f"missing field {key!r}")

    eta_src = data["eta"]
    if not isinstance(eta_src, list) or len(eta_src) != 5:
        raise ModelFormatError("eta: expected a list of 5 expressions")
    eta = CoordForm.one_form(*(_parse_field(f"eta[{i}]", s) for i, s in enumerate(eta_src)))

    xi = _parse_vector("xi", data["xi"])
    frame_src = data["frame"]
    if not isinstance(frame_src, list) or len(frame_src) != 4:
        raise ModelFormatError("frame: expected 4 horizontal vector fields")
    fields = tuple(_parse_vector(f"frame[{i}]", s) for i, s in enumerate(frame_src)) + (xi,)

    j_src = data["J"]
    if not isinstance(j_src, list) or len(j_src) != 5:
        raise ModelFormatError("J: expected a 5 x 5 matrix")
    jrows = []
    for r, row in enumerate(j_src):
        if not isinstance(row, list) or len(row) != 5:
            raise ModelFormatError(f"J[{r}]: expected 5 entries")
        jrows.append(tuple(_parse_field(f"J[{r}][{c}]", s) for c, s in enumerate(row)))

    frame = FrameFieldSet(str(data.get("chart", "custom")), fields, eta, tuple(jrows))

    conn = ConnectionCoefficients.flat()
    if "gamma" in data:
        gsrc = data["gamma"]
        if not isinstance(gsrc, list) or len(gsrc) != 5:
            raise ModelFormatError("gamma: expected a 5 x 5 x 5 array")
        gamma = []
        for i, plane in enumerate(gsrc):
            if not isinstance(plane, list) or len(plane) != 5:
                raise ModelFormatError(f"gamma[{i}]: expected a 5 x 5 block")
            rows = []
            for j, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != 5:
                    raise ModelFormatError(f"gamma[{i}][{j}]: expected 5 entries")
                rows.append(
                    tuple(_parse_field(f"gamma[{i}][{j}][{k}]", s) for k, s in enumerate(row))
                )
            gamma.append(tuple(rows))
        conn = ConnectionCoefficients(tuple(gamma), conn.a_form)
    if "A" in data:
        asrc = data["A"]
        if not isinstance(asrc, list) or len(asrc) != 5:
            raise ModelFormatError("A: expected a list of 5 expressions")
        a_form = CoordForm.one_form(*(_parse_field(f"A[{i}]", s) for i, s in enumerate(asrc)))
        try:
            conn = conn.with_a(a_form)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc

    curv = None
    if "curvature" in data:
        csrc = data["curvature"]
        if not isinstance(csrc, dict) or "ric" not in csrc:
            raise ModelFormatError('curvature: expected an object with a "ric" matrix')
        rsrc = csrc["ric"]
        if not isinstance(rsrc, list) or len(rsrc) != 5:
            raise ModelFormatError("curvature.ric: expected a 5 x 5 matrix")
        ric = []
        for r, row in enumerate(rsrc):
            if not isinstance(row, list) or len(row) != 5:
                raise ModelFormatError(f"curvature.ric[{r}]: expected 5 entries")
            ric.append([_parse_number(f"curvature.ric[{r}][{c}]", v) for c, v in enumerate(row)])
        curv = CurvatureData(np.array(ric))
        bad = curv.violations()
        if bad:
            raise ModelFormatError("curvature.ric: " + "; ".join(bad))

    return ModelBundle(frame, conn, curv)


def model_to_dict(bundle: ModelBundle) -> dict:
    """Canonical JSON-ready form of a model (polynomials in canonical text)."""
    frame = bundle.frame
    out: dict = {
        "chart": frame.name,
        "eta": [str(c) for c in frame.eta.coeffs],
        "xi": [str(c) for c in frame.reeb.components],
        "frame": [[str(c) for c in frame.fields[i].components] for i in range(4)],
        "J": [[str(frame.jmat[r][c]) for c in range(5)] for r in range(5)],
    }
    if not bundle.connection.is_flat():
        out["gamma"] = [
            [[str(bundle.connection.gamma[i][j][k]) for k in range(5)] for j in range(5)]
            for i in range(5)
        ]
    a = bundle.connection.a_form
    if any(not c.is_zero() for c in a.coeffs):
        out["A"] = [str(c) for c in a.coeffs]
    if bundle.curvature is not None:
        out["curvature"] = {"ric": bundle.curvature.ric.tolist()}
    return out


def save_model(bundle: ModelBundle, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(bundle), indent=2, sort_keys=True), encoding="utf-8"
    )
