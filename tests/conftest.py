"""Shared fixtures."""

import copy

import numpy as np
import pytest

from swcheck.extalg import KForm
from swcheck.poly import PolyExpr, monomials


def _with_nan(value):
    """A copy of an array or KForm value with the first entry of its last
    row NaN (a Python ``min`` or ``max`` that starts from a finite entry
    drops it)."""
    if isinstance(value, KForm):
        return KForm(value.degree, _with_nan(value.coeffs))
    out = np.array(value, dtype=complex)
    out[(-1,) * (out.ndim - 1) + (0,)] = np.nan
    return out


@pytest.fixture
def nan_on_call(monkeypatch):
    """``install(owners, name, call)`` makes call number ``call`` (from 1) of
    ``name``, patched on every object in ``owners``, return its value with one
    entry NaN.  Returns the list of the values returned so far."""

    originals = {}

    def install(owners, name, call):
        original = originals.setdefault((id(owners[0]), name), getattr(owners[0], name))
        calls = []

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(out)
            return _with_nan(out) if len(calls) == call else out

        for owner in owners:
            monkeypatch.setattr(owner, name, wrapped)
        return calls

    return install


# The Heisenberg chart pushed through the shear (x1, y1 + 0.1*x1^2,
# x2 + 0.3*y1, y2 + 0.7*x1, t + 0.3*x1*y1 + 0.7*x2), written with exact decimal
# coefficients.  Parsed into floats, its identities cancel only up to residues
# near 1e-16, so residual polynomials stay live.
_SHEARED_CHART = {
    "chart": "sheared_heisenberg",
    "eta": [
        "0.232*x1^2 - 0.06*x1*y2 - 0.042*x1 - 1.3*y1",
        "-0.51*x1 + 0.3*y2 + 0.21",
        "0.7*x1 - y2 - 0.7",
        "0",
        "1",
    ],
    "xi": ["0", "0", "0", "0", "1"],
    "frame": [
        ["1", "0.2*x1", "0", "0.7", "-0.13*x1^2 + 1.3*y1"],
        ["0", "1", "0.3", "0", "0.3*x1"],
        ["0", "0", "1", "0", "-0.7*x1 + y2 + 0.7"],
        ["0", "0", "0", "1", "0"],
    ],
    "J": [
        ["0.2*x1", "-1", "0", "0", "0"],
        ["0.04*x1^2 + 1", "-0.2*x1", "0", "0", "0"],
        ["1", "0", "0", "-1", "0"],
        ["0.2*x1", "-1", "1", "0", "0"],
        [
            "-0.026*x1^3 + 0.26*x1*y1 - 0.19*x1 + 0.7*y2 + 0.49",
            "0.13*x1^2 - 1.3*y1",
            "0",
            "0.7*x1 - y2 - 0.7",
            "0",
        ],
    ],
}



@pytest.fixture
def sheared_chart():
    """A fresh copy of the sheared Heisenberg model, as a model-file dict."""
    return copy.deepcopy(_SHEARED_CHART)


def _model_to_dict(bundle) -> dict:
    """Canonical model-file dict of a model (polynomials in canonical text);
    ``gamma`` and ``A`` are written only when not identically zero."""
    frame, conn = bundle.frame, bundle.connection
    out = {
        "chart": frame.name,
        "eta": [str(c) for c in frame.eta.coeffs],
        "xi": [str(c) for c in frame.reeb.components],
        "frame": [[str(c) for c in field.components] for field in frame.fields[:4]],
        "J": [[str(c) for c in row] for row in frame.jmat],
    }
    if not all(g.is_zero() for plane in conn.gamma for row in plane for g in row):
        out["gamma"] = [[[str(g) for g in row] for row in plane] for plane in conn.gamma]
    if not all(c.is_zero() for c in conn.a_form.coeffs):
        out["A"] = [str(c) for c in conn.a_form.coeffs]
    if bundle.curvature is not None:
        out["curvature"] = {"ric": bundle.curvature.tolist()}
    return out


@pytest.fixture
def model_to_dict():
    """The model-file writer: ``model_to_dict(bundle)`` gives the dict that
    ``swcheck.models.load_model`` reads back to the same model."""
    return _model_to_dict


def _random_poly(rng, degree: int) -> PolyExpr:
    """A polynomial of 4 distinct monomials of degree at most ``degree``, with
    coefficients uniform in the complex box (-1, 1) + i(-1, 1), drawn from
    the numpy ``Generator`` ``rng``."""
    table = monomials(degree)
    picks = rng.choice(len(table), 4, replace=False)
    coeffs = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    return PolyExpr.from_dict({table[i]: c for i, c in zip(picks, coeffs)})


@pytest.fixture
def random_poly():
    """``random_poly(rng, degree)``: a random polynomial, as test data for the
    linear operators; no suite draws fields."""
    return _random_poly
