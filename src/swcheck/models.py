"""Concrete contact metric 5-manifolds and their axiom validators.

The builtin model is the Heisenberg group chart on R^5 with contact form
eta = dt - y1 dx1 - y2 dx2, left-invariant frame, flat Tanaka-Webster
connection, vanishing torsion and scalar curvature.  Other charts are read
from model files (``load_model``).  The canonical solution needs no chart:
``dirac_sw.canonical_solution`` works on the curvature 2-form and spinor
values at one point.

All differential computations are exact: coefficient functions are
:class:`~swcheck.poly.PolyExpr` polynomials with exact Gaussian-rational
coefficients, and Lie brackets and exterior derivatives are computed
symbolically.  Each quantity is differentiated once, and each bracket
component and each coefficient of a wedge product or exterior derivative is
one ``poly.dot``.  The checks (``contact_check``, ``tw_axiom_check``,
``cr_check``) evaluate nothing: each returns its residual families, lists of
polynomials by row name, and the ``model`` suite of :mod:`swcheck.cli`
bounds them over the box from their exact coefficients.  A constant is not
differentiated.  A model file's decimal literals are
read exactly, and a JSON number as its shortest decimal text (``repr``), so
a residual identity that holds on the chart cancels to the zero polynomial.
What the model checks share
(``deta``, the contact volume, the Webster metric of the frame, and the
eta-values, Jacobians and Lie brackets of the frame fields and their
J-images) is built once per frame, in tables on :class:`FrameFieldSet` that
fill on first use: a field's Jacobian is shared by all its brackets.
Antisymmetric quantities are built once per unordered pair: [y, x] is
-[x, y], N(e_l, e_j) is -N(e_j, e_l), and deta(x, y) is x dotted with the
contraction of deta with y (``CoordForm.contract``), which is built once
per field y.  Fields equal up to sign share them too: where J e1 == e2,
J e2 == -e1, and its J-image, contraction, brackets and Webster entries are
those of e1, negated.

Torsion sign convention.  With the coordinate exterior derivative, Cartan's
formula forces eta([X, Y]) = -deta(X, Y) for horizontal X, Y, and therefore
the horizontal torsion of any connection preserving the contact distribution
satisfies T(X, Y) = +deta(X, Y) Reeb.  The axiom checker uses that sign; the
opposite sign is only consistent with a 1/2-convention for the exterior
derivative, which this toolkit does not use.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .curvature import J_FRAME, ricci_violations
from .extalg import INDEX_TUPLES, PAIR_INDEX, WEDGE
from .poly import (
    ONE,
    ZERO,
    PolyExpr,
    PolySyntaxError,
    as_poly,
    dot,
    parse_poly,
    uniform,
)

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
        return VectorFieldPoly(tuple(map(as_poly, components)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Hashed once: the tables key fields by value.
        return hash(self.components)

    def apply(self, f: PolyExpr) -> PolyExpr:
        """Directional derivative X(f), exact."""
        return dot(
            self.components,
            [ZERO if comp.is_zero() else f.diff(c) for c, comp in enumerate(self.components)],
        )

    @cached_property
    def jacobian(self) -> tuple[tuple[PolyExpr, ...], ...]:
        """``jacobian[c][d]`` = d X_c / dx_d, built on first read."""
        return tuple(map(gradient, self.components))

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
        f = as_poly(f)
        if f.is_zero():
            return ZERO_FIELD
        return VectorFieldPoly(tuple(f * c for c in self.components))


ZERO_FIELD = VectorFieldPoly.make(0, 0, 0, 0, 0)


def gradient(f: PolyExpr) -> tuple[PolyExpr, ...]:
    """The five partial derivatives of f, exact."""
    return tuple(f.diff(v) for v in range(5))


def lie_bracket(x: VectorFieldPoly, y: VectorFieldPoly) -> VectorFieldPoly:
    """[X, Y], computed exactly on the polynomial coefficients: component c is
    sum_d x_d dY_c/dx_d - y_d dX_c/dx_d, one ``dot`` over the two Jacobians."""
    xy = x.components + tuple(-c for c in y.components)
    return VectorFieldPoly(tuple(dot(xy, dy + dx) for dx, dy in zip(x.jacobian, y.jacobian)))


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
        return CoordForm(1, tuple(map(as_poly, components)))

    def wedge(self, other: "CoordForm") -> "CoordForm":
        k = self.degree + other.degree
        if k > 5:
            raise ValueError("degree overflow")
        table = WEDGE[self.degree, other.degree]
        # Coefficient r is one dot over the signed products that land on it.
        left, right = ([[] for _ in range(table.shape[2])] for _ in range(2))
        for p, q, r in zip(*np.nonzero(table)):
            a = self.coeffs[p]
            left[r].append(a if table[p, q, r] > 0 else -a)
            right[r].append(other.coeffs[q])
        return CoordForm(k, tuple(map(dot, left, right)))

    def pair_vector(self, x: VectorFieldPoly) -> PolyExpr:
        if self.degree != 1:
            raise ValueError("pair_vector needs a 1-form")
        return dot(self.coeffs, x.components)

    def contract(self, y: VectorFieldPoly) -> tuple[PolyExpr, ...]:
        """The 1-form ``self(., y)`` of a 2-form, as its 5 coefficients ``w``:
        ``self(x, y) = dot(x.components, w)`` for every field x."""
        if self.degree != 2:
            raise ValueError("contract needs a 2-form")
        ys = y.components
        coeffs, comps = [[] for _ in range(5)], [[] for _ in range(5)]
        # (dx_i ^ dx_j)(x, y) = x_i y_j - x_j y_i
        for c, i, j in zip(self.coeffs, *PAIR_INDEX):
            if not c.is_zero():
                coeffs[i].append(c)
                comps[i].append(ys[j])
                coeffs[j].append(-c)
                comps[j].append(ys[i])
        return tuple(map(dot, coeffs, comps))


def exterior_d(form: CoordForm) -> CoordForm:
    """Coordinate exterior derivative, exact on polynomial coefficients.

    d(c dx_I) = sum_v (dc/dx_v) dx_v ^ dx_I, signed by ``WEDGE[1, degree]``,
    each output coefficient summed in one ``dot``.
    """
    if form.degree == 5:
        raise ValueError("degree overflow")
    table = WEDGE[1, form.degree]
    signs, partials = ([[] for _ in range(table.shape[2])] for _ in range(2))
    for v, p, r in zip(*np.nonzero(table)):
        c = form.coeffs[p]
        if not c.is_zero():
            signs[r].append(ONE if table[v, p, r] > 0 else -ONE)
            partials[r].append(c.diff(int(v)))
    return CoordForm(form.degree + 1, tuple(map(dot, signs, partials)))


# -- frame sets and connections ------------------------------------------------


def _is_zero_field(x: VectorFieldPoly) -> bool:
    return all(c.is_zero() for c in x.components)


@dataclass(frozen=True)
class FrameFieldSet:
    """Local frame (e1, e2, e3, e4, Reeb), contact form and J on a chart.

    What two or more model checks read is kept here, each entry built on
    first read: ``deta``; ``contact_volume``; ``span``, the 15 fields e_i,
    J e_i, J^2 e_i (``span[i]`` is e_{i+1}, ``span[4]`` is Reeb, and
    ``span[a + 5]`` is J span[a]); their eta-values; ``deta_slot``, the
    contraction of deta with each of them; and the tables ``deta_pair``,
    ``metric`` and ``bracket``, per-frame ``functools.cache`` memos called
    as ``frame.bracket(a, b)``.  ``bracket`` computes a Lie bracket only for
    a < b and negates it for b < a.  Exact coefficients make equal fields
    equal by value, so the tables are shared up to sign: ``sign[a]`` names
    the first field equal to span[a] or to its negative, and J, the
    contraction with deta, the bracket and the Webster metric, all linear in
    each field, read that field's entries and negate them.  So each field's
    Jacobian is built once, and a J-image or bracket of fields equal up to
    sign to ones already seen is not built again.  What one check reads once
    is not kept.
    """

    fields: tuple[VectorFieldPoly, ...]  # e1..e4, Reeb
    eta: CoordForm
    jmat: tuple[tuple[PolyExpr, ...], ...]  # coordinate matrix of J

    def __post_init__(self):
        if len(self.fields) != 5:
            raise ValueError("a frame set needs 5 vector fields")
        if self.eta.degree != 1:
            raise ValueError("eta must be a 1-form")
        # Per-frame memos: each table entry is built on its first call, and
        # ``_j`` keeps the J-images by value.
        for table in ("deta_pair", "metric", "bracket"):
            object.__setattr__(self, table, cache(getattr(self, table)))
        object.__setattr__(self, "_j_images", {})

    @property
    def reeb(self) -> VectorFieldPoly:
        return self.fields[4]

    def j_apply(self, x: VectorFieldPoly) -> VectorFieldPoly:
        return VectorFieldPoly(tuple(dot(row, x.components) for row in self.jmat))

    def _j(self, x: VectorFieldPoly) -> VectorFieldPoly:
        # J of the zero field (J Reeb, a vanishing bracket) is the zero field,
        # and fields equal up to sign share one J-image, J(-x) = -J(x): where
        # J e1 == e2, J J e1 is J e2 and J J e2 is -J e1.
        if _is_zero_field(x):
            return x
        images = self._j_images
        if x not in images:
            neg = -x
            images[x] = -images[neg] if neg in images else self.j_apply(x)
        return images[x]

    @cached_property
    def deta(self) -> CoordForm:
        return exterior_d(self.eta)

    @cached_property
    def contact_volume(self) -> PolyExpr:
        """Coefficient of eta ^ (deta ^ deta) against the coordinate volume."""
        return self.eta.wedge(self.deta.wedge(self.deta)).coeffs[0]

    @cached_property
    def span(self) -> tuple[VectorFieldPoly, ...]:
        je = tuple(map(self._j, self.fields))
        return self.fields + je + tuple(map(self._j, je))

    @cached_property
    def sign(self) -> tuple[tuple[int, int], ...]:
        """``sign[a]`` = (r, s) with ``span[a] == s * span[r]`` for the first r
        whose field is span[a] or its negative."""
        first: dict[VectorFieldPoly, int] = {}
        out = []
        for a, x in enumerate(self.span):
            if x in first:
                out.append((first[x], 1))
            elif (neg := -x) in first:
                out.append((first[neg], -1))
            else:
                first[x] = a
                out.append((a, 1))
        return tuple(out)

    def _shared(self, table, n: int, a: int, b: int):
        """``table(r, q)`` for the representatives r, q of span[a], span[b]
        (``sign``), negated where one of the two is; None where (r, q) is
        (a, b) or lies outside the n x n table."""
        (r, s), (q, t) = self.sign[a], self.sign[b]
        if (r, q) == (a, b) or max(r, q) >= n:
            return None
        x = table(r, q)
        return x if s == t else -x

    @cached_property
    def eta_span(self) -> tuple[PolyExpr, ...]:
        """eta(span[a]) for a < 10."""
        return tuple(self.eta.pair_vector(x) for x in self.span[:10])

    @cached_property
    def deta_slot(self) -> tuple[tuple[PolyExpr, ...], ...]:
        """``deta_slot[a]`` = ``deta.contract(span[a])``, so that deta(x, span[a])
        is ``dot(x.components, deta_slot[a])``.  Fields equal up to sign share
        one contraction: where J e1 == e2, J e2 == -e1 and J J e1 is J e2."""
        out: list[tuple[PolyExpr, ...]] = []
        for a, (r, s) in enumerate(self.sign):
            slot = self.deta.contract(self.span[a]) if r == a else out[r]
            out.append(slot if s > 0 else tuple(-c for c in slot))
        return tuple(out)

    def deta_pair(self, i: int, j: int) -> PolyExpr:
        """deta(e_{i+1}, e_{j+1})."""
        return dot(self.fields[i].components, self.deta_slot[j])

    def webster(self, a: int, b: int) -> PolyExpr:
        """g(span[a], span[b]) for a, b < 10, with the Webster metric
        g(X, Y) = deta(X, JY) + eta(X) eta(Y), in one ``dot``.  g is bilinear,
        so where span[a] and span[b] are frame fields up to sign, it is the
        ``metric`` entry of those fields."""
        if (g := self._shared(self.metric, 5, a, b)) is not None:
            return g
        eta = self.eta_span
        return dot(self.span[a].components + (eta[a],), self.deta_slot[b + 5] + (eta[b],))

    def metric(self, i: int, j: int) -> PolyExpr:
        """g(e_{i+1}, e_{j+1}), which both contact_check and tw_axiom_check
        read; the entries with J e_i, which only contact_check reads, are
        built by ``webster`` and not kept."""
        return self.webster(i, j)

    def bracket(self, a: int, b: int) -> VectorFieldPoly:
        """[span[a], span[b]] for a, b < 10.  Only a < b of fields that are
        their own representatives is a Lie bracket: [x, x] is the zero field,
        [y, x] is -[x, y], and [s x, t y] is s t [x, y], which the negation
        gives exactly.  Where J e1 == e2, [e1, J e1] is [e1, e2]."""
        if (x := self._shared(self.bracket, 10, a, b)) is not None:
            return x
        if b <= a:
            return ZERO_FIELD if a == b else -self.bracket(b, a)
        x, y = self.span[a], self.span[b]
        # A bracket with the zero field (J Reeb) is the zero field.
        if _is_zero_field(x) or _is_zero_field(y):
            return ZERO_FIELD
        return lie_bracket(x, y)


#: The flat connection: every frame Christoffel symbol, and the U(1)
#: connection 1-form, zero.
FLAT_GAMMA = tuple(tuple(tuple(ZERO for _ in range(5)) for _ in range(5)) for _ in range(5))
FLAT_A = CoordForm.one_form(0, 0, 0, 0, 0)


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A chart: its frame; its frame Christoffel symbols, ``gamma[i][j][k]``
    the e_{k+1} component of the covariant derivative of e_{j+1} along
    e_{i+1}; ``a_form``, the coordinate 1-form of the determinant-line
    connection, which must be imaginary valued; and, from a model file, its
    declared Webster-Ricci matrix (a real 5x5 array).  The connection
    defaults to the flat one.  Bundles compare by identity, since arrays
    have no single-valued ``==``."""

    frame: FrameFieldSet
    gamma: tuple[tuple[tuple[PolyExpr, ...], ...], ...] = FLAT_GAMMA
    a_form: CoordForm = FLAT_A
    curvature: np.ndarray | None = None

    def __post_init__(self):
        for c, a in enumerate(self.a_form.coeffs):
            if any(re_ for _, re_, _ in a.packed):
                raise ValueError(f"A[{c}]: the U(1) connection 1-form must be imaginary valued")


def heisenberg5() -> ModelBundle:
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
    jmat = tuple(tuple(map(as_poly, row)) for row in j_rows)
    return ModelBundle(FrameFieldSet((e1, e2, e3, e4, xi), eta, jmat))


def sample_points(n: int, seed: int) -> np.ndarray:
    """Deterministic sample of n chart points, uniform in (-1, 1)^5: 2u - 1
    for the :func:`poly.uniform` draws of ``random.Random(seed)``."""
    if n < 1:
        raise ValueError("need at least one sample point")
    return 2.0 * uniform(random.Random(seed), (n, 5)) - 1.0


# -- residual families ---------------------------------------------------------


def contact_check(frame: FrameFieldSet) -> dict[str, list[PolyExpr]]:
    """Residual families of the contact metric structure, each zero where
    its identity holds.

    The Reeb normalization, horizontality of the frame, frame orthonormality
    under the Webster metric, J-invariance and deta-compatibility of the
    metric, consistency of J with the frame (J e1 = e2, J e3 = e4,
    J Reeb = 0) and the identity J^2 = -Id + eta (x) Reeb.  The contact
    volume, an inequality, is ``frame.contact_volume``.
    """
    eta_of = frame.eta_span
    g = frame.metric
    je = frame.span[5:10]
    pairs = [(i, j) for i in range(5) for j in range(5)]
    delta = [[ONE if i == j else ZERO for j in range(5)] for i in range(5)]
    xi_comps, eta_comps = frame.reeb.components, frame.eta.coeffs
    jmat = frame.jmat
    return {
        "reeb_normalization": [eta_of[4] - ONE],
        "eta_on_horizontal": list(eta_of[:4]),
        "frame_orthonormality": [g(i, j) - delta[i][j] for i, j in pairs],
        "metric_J_invariance": [
            frame.webster(5 + i, 5 + j) - g(i, j) + eta_of[i] * eta_of[j] for i, j in pairs
        ],
        "metric_deta_compatibility": [
            frame.webster(5 + i, j) - frame.deta_pair(i, j) for i, j in pairs
        ],
        "frame_J_consistency": list(
            (je[0] - frame.fields[1]).components
            + (je[2] - frame.fields[3]).components
            + je[4].components
        ),
        "J_square_identity": [
            dot(jmat[c], [row[d] for row in jmat]) + delta[c][d] - xi_comps[c] * eta_comps[d]
            for c, d in pairs
        ],
    }


def _nijenhuis_contact(frame: FrameFieldSet, j: int, l: int) -> VectorFieldPoly:
    """N(Y, Z) = J^2 [Y,Z] + [JY, JZ] - J[Y, JZ] - J[JY, Z] + deta(Y, Z) Reeb
    for Y = e_{j+1}, Z = e_{l+1}.

    J maps [JY, Z] + [Y, JZ] as one field, not in one ``dot`` per component
    of N: for the horizontal pairs that field is the one ``cr_check`` maps,
    and ``FrameFieldSet._j`` keeps its J-image by value, so the two checks
    build it once.  Fused rows would build it in each check; on perturbed
    charts that is about 28.9k exact products per run against 25.3k.
    """
    bracket = frame.bracket
    out = frame._j(frame._j(bracket(j, l))) + bracket(j + 5, l + 5)
    # J[JY, Z] + J[Y, JZ] as the one J-image of the field cr_check maps.
    out = out - frame._j(bracket(j + 5, l) + bracket(j, l + 5))
    return out + frame.reeb.scale(frame.deta_pair(j, l))


def tw_axiom_check(frame: FrameFieldSet, gamma) -> dict[str, list[PolyExpr]]:
    """Residual families of the defining axioms of the Tanaka-Webster
    connection, each zero where its axiom holds.

    (a) parallel contact form and Reeb field, (b) parallel Webster metric,
    (c) horizontal torsion T(X, Y) = deta(X, Y) Reeb and Reeb torsion
    T(Reeb, .) = (1/2) J (L_Reeb J), (d) the covariant derivative of J
    against the Nijenhuis-type defect.

    The families of the flat connection are built first, from exact
    derivatives along the frame and exact Lie brackets.  The Christoffel
    symbols ``gamma`` (laid out as ``ModelBundle.gamma``) enter linearly, as
    products of 5 x 5 matrices through ``poly.dot``, and only when some
    symbol is nonzero.  With Gamma_k the matrix ``gamma[k]``, F the rows of
    frame components, g the ``frame.metric`` table and J the constant
    ``J_FRAME``, they add
    (a) -Gamma_k eta, and nabla_k Reeb = Gamma_k[4] F;
    (b) -(Gamma_k g)[i][j] - (Gamma_k g^T)[j][i] for i <= j;
    (c) the torsion's (Gamma_i[j] - Gamma_j[i]) F;
    (d) (J^T Gamma_k g - Gamma_k J^T g)[j][l].
    Axiom (d) expands J e_j in the frame by J_FRAME, so the frame should
    satisfy the J-consistency invariants (validated by :func:`contact_check`)
    for the report to be meaningful.
    """
    eta_of = frame.eta_span
    bracket = frame.bracket
    g = [[frame.metric(i, j) for j in range(5)] for i in range(5)]

    def along_frame(f: PolyExpr) -> list[PolyExpr]:
        # e_k(f) for every k, with f differentiated once; a constant has none.
        if f.degree() == 0:
            return [ZERO] * 5
        grad = gradient(f)
        return [dot(x.components, grad) for x in frame.fields]

    # The flat connection: (a) e_k(eta(e_j)) and nabla_k Reeb = 0, (b) e_k(g_ij)
    # for i <= j, (c) the torsion fields minus their targets.
    d_eta = [along_frame(eta_of[j]) for j in range(5)]
    d_g = [along_frame(g[i][j]) for i in range(5) for j in range(i, 5)]
    h_torsion = [
        -bracket(i, j) - frame.reeb.scale(frame.deta_pair(i, j))
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    reeb_torsion = [
        -bracket(4, j) - frame._j(bracket(4, 5 + j) - frame._j(bracket(4, j))).scale(0.5)
        for j in range(5)
    ]
    # (d) -(1/2) deta(e_k, N_h) at n_half[k][j][l], for the horizontal part
    # N_h = N - eta(N) Reeb of N = N(e_j, e_l).  N is antisymmetric, so it is
    # built for j < l only, and N(e_j, e_j) = 0.  deta(e_k, N_h) is
    # -(deta(N, e_k) + eta(N) deta(e_k, Reeb)), so eta(N) is built only where
    # some deta(e_k, Reeb) is nonzero.
    deta_reeb = [frame.deta_pair(k, 4) for k in range(5)]
    reeb_live = any(not x.is_zero() for x in deta_reeb)
    n_half = [[[ZERO] * 5 for _ in range(5)] for _ in range(5)]
    for j in range(5):
        for l in range(j + 1, 5):
            n = _nijenhuis_contact(frame, j, l)
            if not _is_zero_field(n):
                eta_n = frame.eta.pair_vector(n) if reeb_live else ZERO
                for k in range(5):
                    half = dot(n.components + (eta_n,), frame.deta_slot[k] + (deta_reeb[k],)) * 0.5
                    n_half[k][j][l], n_half[k][l][j] = half, -half
    out = {
        "axiom_a_parallel_eta_xi": [
            x for k in range(5) for x in [de[k] for de in d_eta] + [ZERO] * 5
        ],
        "axiom_b_parallel_metric": [x[k] for k in range(5) for x in d_g],
        "axiom_c_horizontal_torsion": [c for t in h_torsion for c in t.components],
        "axiom_c_reeb_torsion": [c for t in reeb_torsion for c in t.components],
        "axiom_d_parallel_J": [x for plane in n_half for row in plane for x in row],
    }
    if all(s.is_zero() for plane in gamma for row in plane for s in row):
        return out

    # The Christoffel terms, as products of 5 x 5 matrices.
    f = [x.components for x in frame.fields]
    jt = [[as_poly(c) for c in col] for col in J_FRAME.T]

    def mul(x, y):
        return [[dot(row, col) for col in zip(*y)] for row in x]

    def torsion(i, j):
        return mul([[p - q for p, q in zip(gamma[i][j], gamma[j][i])]], f)[0]

    a, b, d = [], [], []
    for gk in gamma:
        gg = mul(gk, g)
        comm = [[p - q for p, q in zip(*rows)] for rows in zip(mul(jt, gk), mul(gk, jt))]
        a += [-dot(row, eta_of[:5]) for row in gk] + mul([gk[4]], f)[0]
        b += [-gg[i][j] - dot(gk[j], g[i]) for i in range(5) for j in range(i, 5)]
        d += [x for row in mul(comm, g) for x in row]
    terms = {
        "axiom_a_parallel_eta_xi": a,
        "axiom_b_parallel_metric": b,
        "axiom_c_horizontal_torsion": [
            c for i in range(4) for j in range(i + 1, 4) for c in torsion(i, j)
        ],
        "axiom_c_reeb_torsion": [c for j in range(5) for c in torsion(4, j)],
        "axiom_d_parallel_J": d,
    }
    return {name: [p + q for p, q in zip(out[name], terms[name], strict=True)] for name in out}


def cr_check(frame: FrameFieldSet) -> dict[str, list[PolyExpr]]:
    """Integrability residual families of the underlying almost CR structure.

    The components of
    N(X, Y) = J([JX, Y] + [X, JY]) - [JX, JY] + [X, Y]
    over horizontal frame pairs, and the contact-metric-to-CR criterion
    eta([JX, Y]) = -eta([X, JY]).
    """
    n_exprs = []
    eta_exprs = []
    bracket = frame.bracket
    for i in range(4):
        for j in range(i + 1, 4):
            # [JX, Y], [X, JY], [JX, JY], [X, Y] for X = e_{i+1}, Y = e_{j+1}
            jx_y, x_jy = bracket(5 + i, j), bracket(i, 5 + j)
            n = frame._j(jx_y + x_jy)
            n = n - bracket(5 + i, 5 + j) + bracket(i, j)
            n_exprs.extend(n.components)
            eta_exprs.append(frame.eta.pair_vector(jx_y) + frame.eta.pair_vector(x_jy))
    return {"integrability": n_exprs, "eta_bracket_criterion": eta_exprs}


# -- model files ---------------------------------------------------------------


class ModelFormatError(ValueError):
    """Schema violation in a model definition, with the offending field path."""


def read_json_file(path):
    """Decode a UTF-8 JSON file; any failure is a located ModelFormatError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelFormatError(f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer beyond the int-string limit, or arrays
        # nested beyond the recursion limit.
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
    if isinstance(src, bool) or not isinstance(src, (int, float, str)):
        raise ModelFormatError(f"{path}: expected a string or number")
    if not isinstance(src, str):
        # A JSON number reads as its shortest decimal text, so 0.1 and "0.1"
        # are the same exact value.
        _parse_number(path, src)
        src = repr(src)
    try:
        return parse_poly(src)
    except PolySyntaxError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _parse_array(path: str, src, shape: tuple[int, ...], leaf):
    """Nested tuples of the given shape from nested JSON lists, with
    ``leaf(path, value)`` parsing each entry; a wrong length at any level is
    reported at its path."""
    if not shape:
        return leaf(path, src)
    if not isinstance(src, list) or len(src) != shape[0]:
        raise ModelFormatError(f"{path}: expected {shape[0]} entries")
    return tuple(_parse_array(f"{path}[{i}]", s, shape[1:], leaf) for i, s in enumerate(src))


def load_model(source) -> ModelBundle:
    """Load a model from a builtin name, a JSON file path, or a dict.

    A model file holds one JSON object.  The schema has fields ``eta``
    (5 expressions), ``xi``, ``frame`` (4 x 5), ``J`` (5 x 5), and optional
    ``chart`` (a string, a label that nothing reads), ``gamma``
    (5 x 5 x 5), ``A`` (5 expressions, imaginary valued) and ``curvature``
    (``{"ric": 5 x 5 numbers}``, validated for admissibility).  Any other
    field is refused, so that a misspelled optional field is not silently
    left out.  Without ``gamma`` and ``A`` the connection is flat.  The
    bundle's ``curvature`` is that matrix as a float array, or None without
    the block.
    """
    if isinstance(source, str) and source == "heisenberg":
        return heisenberg5()
    if isinstance(source, (str, Path)):
        data = read_json_file(source)
        if not isinstance(data, dict):
            kinds = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
            found = kinds.get(type(data), "a number")
            raise ModelFormatError(f"expected a JSON object, found {found}")
    elif isinstance(source, dict):
        data = source
    else:
        raise ModelFormatError(f"unsupported model source {type(source).__name__}")

    for key in ("eta", "xi", "frame", "J"):
        if key not in data:
            raise ModelFormatError(f"missing field {key!r}")
    for key in data:
        if key not in ("chart", "eta", "xi", "frame", "J", "gamma", "A", "curvature"):
            raise ModelFormatError(f"unknown field {key!r}")

    eta = CoordForm.one_form(*_parse_array("eta", data["eta"], (5,), _parse_field))
    xi = VectorFieldPoly(_parse_array("xi", data["xi"], (5,), _parse_field))
    frame_rows = _parse_array("frame", data["frame"], (4, 5), _parse_field)
    fields = tuple(map(VectorFieldPoly, frame_rows)) + (xi,)
    jrows = _parse_array("J", data["J"], (5, 5), _parse_field)
    if not isinstance(data.get("chart", ""), str):
        raise ModelFormatError("chart: expected a string")
    gamma = FLAT_GAMMA
    if "gamma" in data:
        gamma = _parse_array("gamma", data["gamma"], (5, 5, 5), _parse_field)
    a_form = FLAT_A
    if "A" in data:
        a_form = CoordForm.one_form(*_parse_array("A", data["A"], (5,), _parse_field))

    # A real-valued A is reported before any fault of the curvature block.
    try:
        bundle = ModelBundle(FrameFieldSet(fields, eta, jrows), gamma, a_form)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    if "curvature" not in data:
        return bundle
    csrc = data["curvature"]
    if not isinstance(csrc, dict) or "ric" not in csrc:
        raise ModelFormatError('curvature: expected an object with a "ric" matrix')
    for key in csrc:
        if key != "ric":
            raise ModelFormatError(f"unknown field 'curvature.{key}'")
    ric = np.array(_parse_array("curvature.ric", csrc["ric"], (5, 5), _parse_number))
    bad = ricci_violations(ric)
    if bad:
        raise ModelFormatError("curvature.ric: " + "; ".join(bad))
    return replace(bundle, curvature=ric)
