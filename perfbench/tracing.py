"""Per-layer tracing of one swcheck invocation, from outside the package.

``Tracer.install()`` wraps the public functions of each swcheck module and
rebinds every reference to them in every loaded ``swcheck.*`` module, so a
call is seen whether it goes through the defining module or through a name
imported elsewhere (``curvature`` does ``from .extalg import sd_project``;
``cli`` imports ``full_dirac``, ``sw_residual``, ``wedge`` and others by
name).  The suites are reached through ``cli.SUITES``, so its entries are
rebound too.

Every wrapped call pushes a frame on one stack and, when it returns, adds its
duration to its caller's child time, so its self time is its duration minus
its callees' durations and the self times of one invocation sum to the
duration of its ``cli.run`` span.  Layer calls become spans (name, start,
end, parent span, invocation id) kept in memory and written out by
``write_spans``.  The hot ``PolyExpr`` operations and ``VectorFieldPoly.apply``
(about 1.5M calls in one ``dirac`` invocation) are aggregated into call
counts and self time instead.  ``PolyExpr.from_dict`` and ``KForm``
construction are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, metric name): layer functions recorded as spans.
SPANS = (
    ("cli", "run", "cli.run"),
    ("curvature", "random_admissible_ricci", "curvature.draw"),
    ("curvature", "random_admissible_torsion", "curvature.draw"),
    ("curvature", "rho_plus", "curvature.rho_plus"),
    ("curvature", "bianchi_b", "curvature.bianchi_b"),
    ("curvature", "ric_identity_check", "curvature.ric_identity_check"),
    ("curvature", "curvature_tensor", "curvature.curvature_tensor"),
    ("extalg", "wedge", "extalg.wedge"),
    ("extalg", "hodge_star", "extalg.hodge_star"),
    ("extalg", "contact_star", "extalg.contact_star"),
    ("extalg", "sd_project", "extalg.sd_project"),
    ("cliff5", "sigma_full", "cliff5.sigma_full"),
    ("cliff5", "two_form_matrix", "cliff5.two_form_matrix"),
    ("poly", "parse_poly", "poly.parse"),
    ("models", "lie_bracket", "models.lie_bracket"),
    ("models", "contact_check", "models.contact_check"),
    ("models", "tw_axiom_check", "models.tw_axiom_check"),
    ("models", "cr_check", "models.cr_check"),
    ("models", "load_model", "models.load_model"),
    ("models", "sample_points", "models.sample_points"),
    ("dirac_sw", "spin_covariant_derivative", "dirac_sw.spin_covariant_derivative"),
    ("dirac_sw", "full_dirac", "dirac_sw.full_dirac"),
    ("dirac_sw", "full_dirac_fd", "dirac_sw.full_dirac_fd"),
    ("dirac_sw", "dbar_identity_residual", "dirac_sw.dbar_identity_residual"),
    ("dirac_sw", "sw_residual", "dirac_sw.sw_residual"),
    ("dirac_sw", "canonical_solution", "dirac_sw.canonical_solution"),
)

# (module, class, method names, metric name): hot methods aggregated, not spanned.
AGGREGATED = (
    ("poly", "PolyExpr", ("__mul__", "__rmul__"), "poly.mul"),
    ("poly", "PolyExpr", ("__add__", "__radd__"), "poly.add"),
    ("poly", "PolyExpr", ("diff",), "poly.diff"),
    ("poly", "PolyExpr", ("__call__",), "poly.eval"),
    ("models", "VectorFieldPoly", ("apply",), "models.apply"),
)

# (module, class, method name, metric name): calls only counted.
COUNTED = (
    ("poly", "PolyExpr", "from_dict", "poly.from_dict.calls"),
    ("extalg", "KForm", "__post_init__", "extalg.KForm.created"),
)

SUITE_NAMES = ("clifford", "selfdual", "curvature", "model", "dirac", "solution")


class Tracer:
    """Span and counter store for one invocation, in one process."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, by column.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_self = array("d")
        # name -> [calls, self seconds] for aggregated methods.
        self.aggregated: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.eval_terms = 0
        self.apply_repeats = 0
        self._applied: set = set()
        # Open frames: [child seconds, index of the innermost open span].
        self._stack: list[list] = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, selfs = self.span_parent, self.span_self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The row is appended at entry, so that callees get its index as
            # their parent, and completed at exit.
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1][1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                selfs[idx] = end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start

        return wrapper

    def aggregate(self, name: str, fn, before=None):
        rec = self.aggregated.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_terms(self, args):
        self.eval_terms += len(args[0].terms)

    def _note_apply(self, args):
        key = (args[0], args[1])
        if key in self._applied:
            self.apply_repeats += 1
        else:
            self._applied.add(key)

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the layer functions of the loaded swcheck package."""
        import swcheck.cli  # noqa: F401  (loads every swcheck module)

        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("swcheck.") and mod is not None
        }
        for mod_name, attr, metric in SPANS:
            original = getattr(mods[mod_name], attr)
            self._rebind(mods, original, self.span(metric, original))

        suites = mods["cli"].SUITES
        for name, fn in list(suites.items()):
            suites[name] = self.span(f"cli.suite.{name}", fn)
            self._undo.append((suites.__setitem__, name, fn))

        hooks = {"poly.eval": self._count_terms, "models.apply": self._note_apply}
        for mod_name, cls_name, methods, metric in AGGREGATED:
            cls = getattr(mods[mod_name], cls_name)
            wrapped = {}
            for meth in methods:
                original = cls.__dict__[meth]
                if original not in wrapped:
                    wrapped[original] = self.aggregate(metric, original, hooks.get(metric))
                self._set_class_attr(cls, meth, wrapped[original])

        for mod_name, cls_name, meth, metric in COUNTED:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, staticmethod):
                new = staticmethod(self.count(metric, original.__func__))
            else:
                new = self.count(metric, original)
            self._set_class_attr(cls, meth, new)
        return self

    def _rebind(self, mods, original, wrapper):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((functools.partial(setattr, mod), attr, original))

    def _set_class_attr(self, cls, attr, value):
        original = cls.__dict__[attr]
        setattr(cls, attr, value)
        self._undo.append((functools.partial(setattr, cls), attr, original))

    def uninstall(self) -> None:
        """Restore every rebound name (used by tests that trace in-process)."""
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self time and inclusive time, plus the counters."""
        layers: dict[str, dict] = {}
        for i in range(len(self.span_name)):
            rec = layers.setdefault(
                self.names[self.span_name[i]], {"calls": 0, "self_s": 0.0, "s": 0.0}
            )
            rec["calls"] += 1
            rec["self_s"] += self.span_self[i]
            rec["s"] += self.span_end[i] - self.span_start[i]
        for name, (calls, self_s) in self.aggregated.items():
            layers[name] = {"calls": calls, "self_s": self_s}
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "poly.eval.terms": self.eval_terms,
            "models.apply.repeats": self.apply_repeats,
        }

    def write_spans(self, path) -> None:
        """Write the spans, one row [name, start, end, parent] each."""
        rows = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "invocation": self.invocation,
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": rows,
                },
                fh,
            )
