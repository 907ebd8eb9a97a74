"""Seeded sheared Heisenberg charts: the inputs of the ``model-decimal`` workload.

A chart is the Heisenberg group chart (frame, contact form ``eta`` and ``J``)
pushed through a triangular polynomial automorphism of R^5,

    u_i = x_i + p_i(x_1, ..., x_{i-1}),

whose diagonal is all ones, so its inverse is polynomial and follows by
back-substitution.  The flat connection stays flat in the pushed frame, so
the chart file omits ``gamma``.

The shear coefficients are nonzero multiples of 0.1 other than 0.5, none of
which is a binary fraction.  The chart is computed exactly here, with
``Fraction`` coefficients, and written as exact decimal literals; swcheck
parses them into floats, so its symbolic cancellations leave residue terms of
about 1e-16 that it must evaluate at every sample point.  The monomials of
each shear component are fixed and only their coefficients are drawn, so
every seed gives a chart of the same degree and term count; how many residue
terms survive still varies by about 10% with the coefficients.

This module uses its own polynomial arithmetic rather than ``swcheck.poly``,
so the inputs stay the same whatever the program under test does.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

VARIABLES = ("x1", "y1", "x2", "y2", "t")
NVARS = len(VARIABLES)

# Monomials of p_i for each sheared coordinate, as exponent tuples over
# (x1, y1, x2, y2, t).  Each p_i only uses coordinates before i.
SHEAR_SUPPORT = {
    1: ((2, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
    2: ((1, 1, 0, 0, 0), (2, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    3: ((1, 0, 1, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 0, 0)),
    4: ((0, 1, 0, 1, 0), (1, 1, 0, 0, 0), (0, 0, 0, 1, 0)),
}

# Nonzero tenths that are not binary fractions.
_TENTHS = tuple(k for k in range(1, 10) if k != 5)

Poly = dict  # exponent tuple -> Fraction, with no zero values

_ZERO_EXP = (0,) * NVARS


def const(c) -> Poly:
    c = Fraction(c)
    return {_ZERO_EXP: c} if c else {}


def var(i: int) -> Poly:
    return {tuple(int(j == i) for j in range(NVARS)): Fraction(1)}


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def scale(p: Poly, c) -> Poly:
    return {e: v * c for e, v in p.items() if v * c}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[i]:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[e2] = out.get(e2, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def compose(p: Poly, subs: list[Poly]) -> Poly:
    """p with variable i replaced by subs[i]."""
    powers: dict[tuple[int, int], Poly] = {}

    def power(i: int, n: int) -> Poly:
        if (i, n) not in powers:
            powers[(i, n)] = const(1) if n == 0 else mul(power(i, n - 1), subs[i])
        return powers[(i, n)]

    out: Poly = {}
    for e, c in p.items():
        term = const(c)
        for i, n in enumerate(e):
            if n:
                term = mul(term, power(i, n))
        out = add(out, term)
    return out


def decimal_text(c: Fraction) -> str:
    """Exact decimal literal of a nonnegative fraction whose denominator divides 10^k."""
    num, den = c.numerator, c.denominator
    k = 0
    while (10**k) % den:
        k += 1
        if k > 64:
            raise ValueError(f"{c} has no finite decimal expansion")
    digits = str(num * (10**k // den)).rjust(k + 1, "0")
    if k == 0:
        return digits
    return f"{digits[:-k]}.{digits[-k:]}".rstrip("0").rstrip(".")


def to_text(p: Poly) -> str:
    """Expression in the swcheck grammar, with exact decimal coefficients."""
    if not p:
        return "0"
    chunks = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-n for n in e))):
        c = p[e]
        mono = "*".join(
            f"{VARIABLES[i]}^{n}" if n > 1 else VARIABLES[i] for i, n in enumerate(e) if n
        )
        mag = decimal_text(abs(c))
        piece = mono if mag == "1" and mono else (f"{mag}*{mono}" if mono else mag)
        if chunks:
            chunks.append(("- " if c < 0 else "+ ") + piece)
        else:
            chunks.append(("-" if c < 0 else "") + piece)
    return " ".join(chunks)


def shear(seed: int) -> list[Poly]:
    """The seeded map Phi: component i is x_i + p_i(x_1..x_{i-1})."""
    rng = random.Random(seed)
    comps = []
    for i in range(NVARS):
        p = var(i)
        for e in SHEAR_SUPPORT.get(i, ()):
            c = Fraction(rng.choice(_TENTHS) * rng.choice((1, -1)), 10)
            p = add(p, {e: c})
        comps.append(p)
    return comps


def inverse(phi: list[Poly]) -> list[Poly]:
    """Phi^-1 by back-substitution: x_i = u_i - p_i(x_1..x_{i-1})."""
    inv: list[Poly] = []
    for i in range(NVARS):
        p_i = add(phi[i], scale(var(i), -1))
        subs = inv + [var(j) for j in range(i, NVARS)]
        inv.append(add(var(i), scale(compose(p_i, subs), -1)))
    return inv


def heisenberg() -> tuple[list[list[Poly]], list[Poly], list[list[Poly]]]:
    """Frame (e1..e4, Reeb), eta and J of the Heisenberg chart, in x coordinates."""
    y1, y2 = var(1), var(3)
    z, one, m1 = const(0), const(1), const(-1)
    frame = [
        [one, z, z, z, y1],
        [z, one, z, z, z],
        [z, z, one, z, y2],
        [z, z, z, one, z],
        [z, z, z, z, one],
    ]
    eta = [scale(y1, -1), z, scale(y2, -1), z, one]
    jmat = [
        [z, m1, z, z, z],
        [one, z, z, z, z],
        [z, z, z, m1, z],
        [z, z, one, z, z],
        [z, scale(y1, -1), z, scale(y2, -1), z],
    ]
    return frame, eta, jmat


def sheared_chart(seed: int) -> dict:
    """Model-file dict of the Heisenberg chart pushed forward by ``shear(seed)``."""
    phi = shear(seed)
    psi = inverse(phi)
    dphi = [[compose(diff(phi[i], j), psi) for j in range(NVARS)] for i in range(NVARS)]
    dpsi = [[diff(psi[i], j) for j in range(NVARS)] for i in range(NVARS)]
    frame, eta, jmat = heisenberg()
    frame = [[compose(c, psi) for c in f] for f in frame]
    eta = [compose(c, psi) for c in eta]
    jmat = [[compose(c, psi) for c in row] for row in jmat]

    def push(v: list[Poly]) -> list[Poly]:
        return [add(*(mul(dphi[i][j], v[j]) for j in range(NVARS))) for i in range(NVARS)]

    fields = [push(f) for f in frame]
    eta_u = [add(*(mul(eta[j], dpsi[j][i]) for j in range(NVARS))) for i in range(NVARS)]
    # J in u coordinates: DPhi . J . DPsi.
    j_dpsi = [
        [add(*(mul(jmat[i][k], dpsi[k][j]) for k in range(NVARS))) for j in range(NVARS)]
        for i in range(NVARS)
    ]
    j_u = [
        [add(*(mul(dphi[i][k], j_dpsi[k][j]) for k in range(NVARS))) for j in range(NVARS)]
        for i in range(NVARS)
    ]
    return {
        "chart": f"sheared_heisenberg_{seed}",
        "eta": [to_text(c) for c in eta_u],
        "xi": [to_text(c) for c in fields[4]],
        "frame": [[to_text(c) for c in f] for f in fields[:4]],
        "J": [[to_text(c) for c in row] for row in j_u],
    }


def write_chart(seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sheared_chart(seed), fh, indent=1)
