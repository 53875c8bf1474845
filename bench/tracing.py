"""Spans and counters around calls into curveform, installed from outside.

The package is never edited: a Tracer replaces selected functions and
methods with timing wrappers for the length of one pass, and puts the
originals back afterwards.  Spans (name, start, end, parent) are kept in
memory as flat arrays and written out when the run ends.  Per-name totals
are kept online: calls, busy time (counted only for the outermost active
call of that name, so recursion is not counted twice) and self time (span
duration minus the time its child spans cover).

Scalar arithmetic is called millions of times per pass, so its wrappers
would swamp every other layer's times.  ScalarCounter therefore runs in a
separate counting-only pass.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

# (metric prefix, module, class or None, attribute)
SPANS = (
    ("freealg.ncpoly_mul", "freealg", "NcPoly", "__mul__"),
    ("freealg.ncpoly_add", "freealg", "NcPoly", "__add__"),
    ("freealg.ncpoly_scale", "freealg", "NcPoly", "scale"),
    ("freealg.tensorpoly_mul", "freealg", "TensorPoly", "__mul__"),
    ("freealg.tensorpoly_add", "freealg", "TensorPoly", "__add__"),
    ("freealg.tensorpoly_scale", "freealg", "TensorPoly", "scale"),
    ("rewrite.nf_word", "rewrite", "RuleSystem", "nf_word"),
    ("rewrite.match", "rewrite", "RuleSystem", "match"),
    ("rewrite.normal_form", "rewrite", "RuleSystem", "normal_form"),
    ("rewrite.find_ambiguities", "rewrite", "RuleSystem", "find_ambiguities"),
    ("rewrite.complete", "rewrite", None, "complete"),
    ("rewrite.check_diamond", "rewrite", None, "check_diamond"),
    ("nodal.build_algebra", "nodal", None, "build_algebra"),
    ("nodal.basis_census", "nodal", None, "basis_census"),
    ("nodal.growth", "nodal", None, "growth"),
    ("nodal.freeness_check", "nodal", None, "freeness_check"),
    ("nodal.b_decompose", "nodal", None, "b_decompose"),
    ("hopf.tensor_nf", "hopf", None, "tensor_nf"),
    ("hopf.check_welldefined", "hopf", None, "check_welldefined"),
    ("hopf.check_hopf_axioms", "hopf", None, "check_hopf_axioms"),
    ("hopf.check_coideal", "hopf", None, "check_coideal"),
    ("hopf.check_identities", "hopf", None, "check_identities"),
    ("hopf.check_alt_presentation", "hopf", None, "check_alt_presentation"),
    ("hopf.units_suite", "hopf", None, "units_suite"),
    ("hopf.solve_sparse", "hopf", None, "_solve_sparse"),
    ("galois.recovery_check", "galois", None, "recovery_check"),
    ("galois.witness_check", "galois", None, "witness_check"),
    ("galois.project_pi", "galois", None, "project_pi"),
    ("galois.coaction", "galois", None, "coaction"),
    ("parser.parse_expr", "parser", None, "parse_expr"),
    ("printing.format_poly", "printing", None, "format_poly"),
    ("cli.run_suites", "cli", None, "run_suites"),
)

# Scalar.__radd__ and __rmul__ are the same functions as __add__ and __mul__
SCALAR_OPS = (("init", "__init__"), ("mul", "__mul__"), ("mul", "__rmul__"),
              ("add", "__add__"), ("add", "__radd__"), ("inverse", "inverse"))
# the other Scalar methods the layers above call; timed in scalar.busy_s, not counted
SCALAR_TIMED = ("__bool__", "__neg__", "__sub__", "__rsub__", "__truediv__",
                "__rtruediv__", "__eq__", "__hash__", "norm")


def _package_modules(pkg):
    return [getattr(pkg, name) for name in
            ("scalar", "freealg", "parser", "printing", "rewrite", "nodal",
             "hopf", "galois", "cli")]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, modules, original, wrapped):
        """Replace a module-level function in every module that imported it."""
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                self.set(module, key, wrapped)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder for the functions listed in SPANS."""

    def __init__(self):
        self.names = [name for name, *_ in SPANS]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = dict.fromkeys(self.names, 0)
        self.busy = dict.fromkeys(self.names, 0.0)
        self.self_time = dict.fromkeys(self.names, 0.0)
        self.layer_busy = {}
        self.raised = {}
        self.nf_hits = 0
        self.complete_rounds = 0
        self.max_cache_words = 0
        self._stack = []          # [span id, time covered by children]
        self._depth = {}          # name or layer -> active calls
        self._last_exc = None
        self._last_algebra = None
        self._patches = _Patches()
        self._origin = perf_counter()

    def _wrap(self, name_id, fn, on_result=None):
        tracer = self
        name = self.names[name_id]
        layer = name.split(".")[0]
        stack, depth = self._stack, self._depth
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:  # count where it is raised, not per frame
                    tracer._last_exc = exc
                    key = type(exc).__name__
                    tracer.raised[key] = tracer.raised.get(key, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                span_start[sid] = start - tracer._origin
                span_end[sid] = end - tracer._origin
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                depth[name] -= 1
                if not depth[name]:
                    tracer.busy[name] += duration
                depth[layer] -= 1
                if not depth[layer]:
                    tracer.layer_busy[layer] = tracer.layer_busy.get(layer, 0.0) + duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_nf_hits(self, fn):
        """An nf_word call that reduces no new word (no match call) is a hit."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer.calls["rewrite.match"]
            result = fn(*args, **kwargs)
            if tracer.calls["rewrite.match"] == before:
                tracer.nf_hits += 1
            return result

        return wrapper

    def _on_algebra(self, alg):
        self.note_algebra(self._last_algebra)
        self._last_algebra = alg

    def _on_complete(self, result):
        self.complete_rounds += result[1].rounds

    def note_algebra(self, alg):
        """Record the size of an algebra's nf cache (private until the
        package exposes cache statistics)."""
        if alg is not None:
            self.max_cache_words = max(self.max_cache_words,
                                       len(getattr(alg.system, "_nf_cache", ())))

    def install(self, pkg):
        modules = _package_modules(pkg)
        hooks = {"nodal.build_algebra": self._on_algebra,
                 "rewrite.complete": self._on_complete}
        for name_id, (name, module, cls, attr) in enumerate(SPANS):
            owner = getattr(getattr(pkg, module), cls) if cls else getattr(pkg, module)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name_id, original, hooks.get(name))
            if name == "rewrite.nf_word":
                wrapped = self._count_nf_hits(wrapped)
            if cls:
                self._patches.set(owner, attr, wrapped)
            else:
                self._patches.function(modules, original, wrapped)

    def uninstall(self):
        self._patches.undo()
        self.note_algebra(self._last_algebra)
        self._last_algebra = None
        self._last_exc = None

    def write(self, path):
        """Write every span as columns: names[name[i]] ran from start[i] to
        end[i] seconds, inside span parent[i] (-1 for none)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": [round(s, 7) for s in self.span_start],
                       "end": [round(e, 7) for e in self.span_end]}, fh)


class ScalarCounter:
    """Counting-only pass over Scalar construction and arithmetic.  Busy time
    covers the outermost call of any Scalar method in SCALAR_OPS or
    SCALAR_TIMED, and includes the wrapper cost of the calls nested inside
    it."""

    def __init__(self):
        self.counts = {key: [0] for key, _ in SCALAR_OPS}
        self.busy = 0.0
        self._active = False
        self._patches = _Patches()

    def _wrap(self, fn, cell):
        counter = self

        def wrapper(*args):
            cell[0] += 1
            if counter._active:
                return fn(*args)
            counter._active = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                counter.busy += perf_counter() - start
                counter._active = False

        return wrapper

    def install(self, pkg):
        scalar_cls = pkg.scalar.Scalar
        for key, attr in SCALAR_OPS:
            self._patches.set(scalar_cls, attr,
                              self._wrap(scalar_cls.__dict__[attr], self.counts[key]))
        for attr in SCALAR_TIMED:
            self._patches.set(scalar_cls, attr, self._wrap(scalar_cls.__dict__[attr], [0]))

    def uninstall(self):
        self._patches.undo()
