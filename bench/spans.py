"""Nested spans around the package's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every hopfgal
module namespace that binds it (a `from .x import y` copy is a separate
binding and would otherwise bypass the span) and on the defining class for
methods.  A span's self time is its duration minus the durations of the
spans nested in it.  Only aggregates are kept: calls and self time per
span, plus the counters below.
"""

from __future__ import annotations

import functools
import sys
import time

# metric stem -> (module, qualified name) of every span
SPANS = {
    "cli.main": ("cli", "main"),
    "checks.presentation_for": ("checks", "presentation_for"),
    "checks.enumerate_extensions": ("checks", "enumerate_extensions"),
    "hopf.build_presentation_cube": ("hopf", "build_presentation_cube"),
    "hopf.parse_presentation": ("hopf", "parse_presentation"),
    # a span so that its own work is not charged to the caller; it is
    # reported through the counters read from its HopfResult
    "hopf.hopf_pi_n": ("hopf", "hopf_pi_n"),
    "pcseq.induced_sequence": ("pcseq", "induced_sequence"),
    "pcseq.intersect": ("pcseq", "intersect"),
    "pcseq.normal_closure": ("pcseq", "normal_closure"),
    "pcseq.commutator_subgroup": ("pcseq", "commutator_subgroup"),
    "pcseq.intersect_with_kernel": ("pcseq", "intersect_with_kernel"),
    "pcseq.abelian_quotient": ("pcseq", "abelian_quotient"),
    "pcseq.reduce_against": ("pcseq", "reduce_against"),
    "freenil.multiply": ("freenil", "FreeNilGroup.multiply"),
    "freenil.inverse": ("freenil", "FreeNilGroup.inverse"),
    "freenil.extract": ("freenil", "FreeNilGroup.extract"),
    "bar.bar_boundary": ("bar", "bar_boundary"),
    "bar.homology": ("bar", "homology"),
    "matrices.snf_diagonal": ("matrices", "snf_diagonal"),
    "matrices.snf": ("matrices", "snf"),
    "matrices.hnf": ("matrices", "hnf"),
    "matrices.left_kernel": ("matrices", "left_kernel"),
    "matrices.HnfSolver.solve": ("matrices", "HnfSolver.solve"),
    "abelian.from_relation_matrix": (
        "abelian", "FgAbelianGroup.from_relation_matrix"),
    "groups.all_homs": ("groups", "all_homs"),
    "groups.closure_P": ("groups", "closure_P"),
    "groups.FiniteGroup.quotient": ("groups", "FiniteGroup.quotient"),
    "galois.is_normal_ext": ("galois", "is_normal_ext"),
    "galois.is_trivial_ext": ("galois", "is_trivial_ext"),
    "galois.induced_gal_map": ("galois", "induced_gal_map"),
    "cubes.cube_from_normal_subgroups": (
        "cubes", "cube_from_normal_subgroups"),
    "cubes.kernel_of_morphism": ("cubes", "kernel_of_morphism"),
    "cubes.joint_kernel": ("cubes", "joint_kernel"),
}

# counters that are not span calls
COUNTERS = ("freenil.tail.calls", "freenil.tail.misses",
            "freenil.groups_built", "freenil.groups_distinct",
            "hopf.hopf_pi_n.working_classes", "hopf.hopf_pi_n.numerator_gens",
            "hopf.hopf_pi_n.denominator_gens", "bar.bar_boundary.cells",
            "matrices.snf_diagonal.max_cells")


class Tracer:
    """Aggregated spans and counters, valid while installed."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [0.0]
        self._tail_keys = set()
        self._group_serial = {}
        self._group_shapes = set()
        self._restore = []

    # ---- wrappers -------------------------------------------------------

    def _span(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - child
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_hopf_pi_n(self, args, result):
        counts = self.counts
        counts["hopf.hopf_pi_n.working_classes"] += len(
            result.provenance["classes"])
        if result.numerator is not None:
            counts["hopf.hopf_pi_n.numerator_gens"] += \
                result.numerator["generators"]
            counts["hopf.hopf_pi_n.denominator_gens"] += \
                result.denominator["generators"]

    def _after_bar_boundary(self, args, result):
        self.counts["bar.bar_boundary.cells"] += result.rows * result.cols

    def _before_snf_diagonal(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(mat):
            counts["matrices.snf_diagonal.max_cells"] = max(
                counts["matrices.snf_diagonal.max_cells"],
                mat.rows * mat.cols)
            return fn(mat)
        return wrapper

    def _counting_init(self, fn):
        serial, shapes, counts = (self._group_serial, self._group_shapes,
                                  self.counts)

        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            fn(group, *args, **kwargs)
            # an id is only reused after its group died, so a fresh
            # serial per construction keeps tail keys of distinct
            # instances apart
            counts["freenil.groups_built"] += 1
            serial[id(group)] = counts["freenil.groups_built"]
            shapes.add((group.rank, group.nclass))
            counts["freenil.groups_distinct"] = len(shapes)
        return wrapper

    def _counting_tail(self, fn):
        serial, keys, counts = (self._group_serial, self._tail_keys,
                                self.counts)

        def wrapper(group, t, l, f, e):
            counts["freenil.tail.calls"] += 1
            key = (serial.get(id(group)), t, l, f, e)
            if key not in keys:
                keys.add(key)
                counts["freenil.tail.misses"] = len(keys)
            return fn(group, t, l, f, e)
        return wrapper

    # ---- installation ---------------------------------------------------

    def install(self, package="hopfgal"):
        """Replace every target, in every module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for name, (module, qualname) in SPANS.items():
            mod = sys.modules["%s.%s" % (package, module)]
            after = {"hopf.hopf_pi_n": self._after_hopf_pi_n,
                     "bar.bar_boundary": self._after_bar_boundary}.get(name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._span(name, raw.__func__, after))
                else:
                    new = self._span(name, raw, after)
                self._patch(cls, attr, new)
                continue
            orig = getattr(mod, qualname)
            new = self._span(name, orig, after)
            if name == "matrices.snf_diagonal":
                new = self._before_snf_diagonal(new)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, new)
        F = sys.modules[package + ".freenil"].FreeNilGroup
        self._patch(F, "__init__", self._counting_init(F.__dict__["__init__"]))
        self._patch(F, "tail", self._counting_tail(F.__dict__["tail"]))

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # ---- results --------------------------------------------------------

    def layers_seen(self):
        """Modules with at least one span that ran."""
        return {name.split(".")[0] for name, n in self.calls.items() if n}

    def metrics(self):
        """name -> value for every span's calls and self time and every
        counter."""
        out = dict(self.counts)
        for name, calls in self.calls.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self.self_s[name]
        return out
