"""Run-time spans and counters around the layers of the heisvir package.

The tracer wraps public entry points of each layer while it is active and
restores the originals afterwards, so the package itself carries no
instrumentation.  Every binding of a wrapped function is replaced: a
function imported into another module (``bracket_gens`` in ``pbw`` and
``modules``, ``act_uea`` in ``linsearch``, ``nullspace`` as a ``linsearch``
global, the re-exports in ``heisvir``) is patched there too, because
internal calls go through those names.

Spans are kept in memory as compact arrays (name, start, end, parent) and
are reduced to per-layer metrics when the run ends.  The hottest
primitives (``bracket_gens``, ``act_gen``, ``Fraction`` construction) are
counted but not timed: a span costs about as much as one of their calls,
so their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import fractions
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); the layer is the part before the first dot.  Spans
# without a metric of their own still move their time out of the caller's self time.
SPANNED = [
    ("algebra", "bracket", "algebra.bracket"),
    ("algebra", "jacobi_check", "algebra.jacobi_check"),
    ("algebra", "sigma_hom_check", "algebra.sigma_hom_check"),
    ("pbw", "normal_form", "pbw.normal_form"),
    ("pbw", "multiply", "pbw.multiply"),
    ("modules", "act", "modules.act"),
    ("modules", "act_uea", "modules.act_uea"),
    ("modules", "module_axiom_check", "modules.axiom_check"),
    ("linsearch", "nullspace", "linsearch.nullspace"),
    ("linsearch", "singular_vectors", "linsearch.singular"),
    ("linsearch", "maximal_submodule_gens", "linsearch.maximal_gens"),
    ("linsearch", "whittaker_vector_search", "linsearch.whittaker"),
    ("criteria", "rho", "criteria.rho"),
    ("criteria", "integer_roots", "criteria.integer_roots"),
    ("criteria", "tensor_simplicity", "criteria.tensor_simplicity"),
    ("criteria", "annihilator_cover", "criteria.annihilator_cover"),
    ("criteria", "w_mu_kappa_simple", "criteria.w_mu_kappa_simple"),
]
SPANNED_METHODS = [
    ("linsearch", "MembershipTester", "contains", "linsearch.membership"),
]
COUNTED = [("algebra", "bracket_gens", "algebra.bracket_gens.calls")]
ACT_GEN_CLASSES = [
    "InducedModule",
    "FockModule",
    "IntermediateSeriesModule",
    "ShiftedTensorModule",
    "OmegaModule",
    "EmbeddedModule",
]

ITEM_SPAN = "bench.item"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self, hv):
        self.hv = hv
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1 unless an enclosing span has the same name
        self.stack = []
        self.open_names = Counter()
        self.counts = Counter()
        self._patches = []
        self._build_patches()

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, fn, name, on_result=None):
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, outers, stack, open_names = self.span_parent, self.span_outer, self.stack, self.open_names
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outers.append(0 if open_names[nid] else 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            open_names[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                open_names[nid] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bindings(self, original):
        """Every loaded heisvir module attribute bound to ``original``."""
        out = []
        for modname, mod in list(sys.modules.items()):
            if modname != "heisvir" and not modname.startswith("heisvir."):
                continue
            for attr, value in vars(mod).items():
                if value is original:
                    out.append((mod, attr))
        return out

    def _patch_function(self, original, wrapper):
        for mod, attr in self._bindings(original):
            self._patches.append((mod, attr, original, wrapper))

    def _build_patches(self):
        hv = self.hv
        on_result = {
            "pbw.normal_form": self._pbw_terms,
            "pbw.multiply": self._pbw_terms,
            "linsearch.nullspace": self._matrix_cells,
        }
        for modname, attr, name in SPANNED:
            original = getattr(getattr(hv, modname), attr)
            self._patch_function(original, self._spanned(original, name, on_result.get(name)))
        for modname, attr, key in COUNTED:
            original = getattr(getattr(hv, modname), attr)
            self._patch_function(original, self._counted(original, key))
        for modname, clsname, attr, name in SPANNED_METHODS:
            cls = getattr(getattr(hv, modname), clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._spanned(original, name)))
        for clsname in ACT_GEN_CLASSES:
            cls = getattr(hv.modules, clsname)
            original = cls.__dict__["act_gen"]
            self._patches.append((cls, "act_gen", original, self._counted(original, "modules.act_gen.calls")))
        # Fraction is a pure-Python class: count every instance it creates
        frac = fractions.Fraction
        original_new = frac.__dict__["__new__"]
        counted_new = self._counted(original_new, "scalars.fraction_new.calls")
        self._patches.append((frac, "__new__", original_new, staticmethod(counted_new)))
        if "_from_coprime_ints" in frac.__dict__:  # Python >= 3.12 bypasses __new__
            original_fc = frac.__dict__["_from_coprime_ints"]
            counted_fc = self._counted(original_fc.__func__, "scalars.fraction_new.calls")
            self._patches.append((frac, "_from_coprime_ints", original_fc, classmethod(counted_fc)))

    def _pbw_terms(self, args, result):
        # only terms handed back to callers outside pbw, so nested calls count once
        if self._outside_layer("pbw"):
            self.counts["pbw.output_terms"] += len(result.coeffs)

    def _matrix_cells(self, args, result):
        matrix = args[0]
        self.counts["linsearch.matrix_cells"] += matrix.nrows * matrix.ncols

    def _outside_layer(self, layer):
        """True when no open span belongs to ``layer`` (the span just closed is not open)."""
        prefix = layer + "."
        return not any(self.names[self.span_name[i]].startswith(prefix) for i in self.stack)

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def item(self, fn, *args):
        """Run ``fn(*args)`` as one benchmark item with every wrapper installed."""
        self.install()
        try:
            return self._spanned(fn, ITEM_SPAN)(*args)
        finally:
            self.uninstall()

    def metrics(self):
        """Reduce the recorded spans and counts to the per-layer metrics."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = Counter()
        inclusive = Counter()
        self_time = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            if self.span_outer[i]:
                inclusive[name] += dur
            self_time[name.split(".", 1)[0]] += dur - child[i]
        c = self.counts
        return {
            "pbw.normal_form.calls": calls["pbw.normal_form"],
            "pbw.normal_form.s": inclusive["pbw.normal_form"],
            "pbw.multiply.s": inclusive["pbw.multiply"],
            "pbw.output_terms": c["pbw.output_terms"],
            "pbw.self_s": self_time["pbw"],
            "linsearch.nullspace.calls": calls["linsearch.nullspace"],
            "linsearch.nullspace.s": inclusive["linsearch.nullspace"],
            "linsearch.matrix_cells": c["linsearch.matrix_cells"],
            "linsearch.singular.s": inclusive["linsearch.singular"],
            "linsearch.membership.s": inclusive["linsearch.membership"],
            "linsearch.self_s": self_time["linsearch"],
            "modules.act_gen.calls": c["modules.act_gen.calls"],
            "modules.act.s": inclusive["modules.act"],
            "modules.act_uea.s": inclusive["modules.act_uea"],
            "modules.axiom_check.s": inclusive["modules.axiom_check"],
            "modules.self_s": self_time["modules"],
            "algebra.bracket_gens.calls": c["algebra.bracket_gens.calls"],
            "algebra.self_s": self_time["algebra"],
            "scalars.fraction_new.calls": c["scalars.fraction_new.calls"],
            "criteria.rho.s": inclusive["criteria.rho"],
            "criteria.integer_roots.calls": calls["criteria.integer_roots"],
            "criteria.integer_roots.s": inclusive["criteria.integer_roots"],
            "criteria.self_s": self_time["criteria"],
        }
