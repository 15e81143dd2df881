"""Per-layer tracing of one pass, installed from outside the program.

Every public function of the traced modules is replaced, on every module
attribute and module-level dict entry it is reachable through, by a wrapper
that records a span (name, parent span, start, end) in memory.  Constructors
of the canonical types are wrapped to count constructions and distinct codes,
and ``Fraction.__new__`` to count the fractions built inside the Hopf layer.
Cache hit ratios are read from the original ``lru_cache`` objects.  Nothing is
cleared, and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import ModuleType

TRACED_MODULES = ("trees", "hopf", "dse", "ptrees", "opbialg", "cli")

# label -> the (module, class) pairs it counts.  Distinct codes are counted
# per class, since a one-tree forest and its tree share a code.
COUNTED_CLASSES = {
    "trees": (("trees", "CombTree"), ("trees", "Forest")),
    "ptrees.ptree": (("ptrees", "PTree"),),
    "opbialg.opforest": (("opbialg", "OpForest"),),
}
CACHES = {
    "hopf.tree_cuts": ("hopf", "tree_cuts"),
    "hopf.forest_cuts": ("hopf", "_forest_cuts"),
    "opbialg.ptree_cuts": ("opbialg", "ptree_cuts"),
    "ptrees.by_nodes": ("ptrees", "_by_nodes"),
}
# Spans whose results are sized: terms of a linear combination, trees listed,
# or terms over all coefficients of a series.
SIZED = {
    "hopf.product",
    "hopf.coproduct",
    "opbialg.op_coproduct",
    "ptrees.enumerate_by_nodes",
    "ptrees.enumerate_by_leaves",
    "dse.solve",
}


def _size(result) -> int:
    if hasattr(result, "terms"):
        return len(result.terms)
    if hasattr(result, "coeffs"):
        return sum(len(c.terms) for c in result.coeffs)
    return len(result)


def _public_functions(mod: ModuleType):
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


class Tracer:
    """Spans and counters for one traced pass over the ``dsetree`` package."""

    def __init__(self, package: ModuleType):
        self.modules = {name: getattr(package, name) for name in TRACED_MODULES}
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.sizes: Counter[str] = Counter()
        self.constructs: dict[str, list] = {}
        self.in_hopf: list[bool] = []  # per span name: does it belong to the Hopf layer
        self.fractions = [0]
        self._undo: list = []
        self._cache_base: dict[str, tuple] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for label, (mod_name, attr) in CACHES.items():
            cached = getattr(self.modules[mod_name], attr, None)
            if hasattr(cached, "cache_info"):
                self._cache_base[label] = (cached, cached.cache_info())
        wrappers = {}
        for mod_name in TRACED_MODULES:
            for name, fn in _public_functions(self.modules[mod_name]):
                wrappers[id(fn)] = self._wrap(fn, f"{mod_name}.{name}")
        for mod in (self.package, *self.modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set_item(value, key, wrappers[id(item)])
        for label, classes in COUNTED_CLASSES.items():
            for mod_name, cls_name in classes:
                cls = getattr(self.modules[mod_name], cls_name, None)
                if cls is not None:
                    self._count_constructs(label, cls)
        self._count_fractions()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, obj, attr, value) -> None:
        self._undo.append(functools.partial(setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append(functools.partial(mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self.in_hopf.append(name.startswith("hopf."))
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        sizes, sized, clock = self.sizes, name in SIZED, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if sized:
                sizes[name] += _size(result)
            return result

        return traced

    def _count_constructs(self, label: str, cls: type) -> None:
        record = self.constructs.setdefault(label, [0, []])
        codes: set = set()
        record[1].append(codes)
        original = cls.__init__

        def counted_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            record[0] += 1
            codes.add(obj.code)

        self._set(cls, "__init__", counted_init)

    def _count_fractions(self) -> None:
        original = Fraction.__dict__["__new__"].__func__
        in_hopf, span_name, stack, count = self.in_hopf, self.span_name, self.stack, self.fractions

        def counted_new(cls, *args, **kwargs):
            sid = stack[-1]
            if sid >= 0 and in_hopf[span_name[sid]]:
                count[0] += 1
            return original(cls, *args, **kwargs)

        self._undo.append(functools.partial(setattr, Fraction, "__new__", Fraction.__dict__["__new__"]))
        Fraction.__new__ = counted_new

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name.

        A span's self time is its duration minus that of its direct children;
        spans nest, since the traced code is single-threaded.
        """
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * len(starts)
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        for i in range(len(starts)):
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        return dict(zip(self.names, self_s))

    def counts(self) -> dict[str, int]:
        """Every count the traced pass produced; these must repeat exactly."""
        out = {f"{self.names[i]}.calls": n for i, n in Counter(self.span_name).items()}
        out.update({f"{name}.terms_out": n for name, n in self.sizes.items()})
        for label, (built, code_sets) in self.constructs.items():
            out[f"{label}.construct_calls"] = built
            out[f"{label}.distinct"] = sum(len(codes) for codes in code_sets)
        for label, (cached, base) in self._cache_base.items():
            info = cached.cache_info()
            out[f"{label}.hits"] = info.hits - base.hits
            out[f"{label}.misses"] = info.misses - base.misses
        out["hopf.fraction_constructs"] = self.fractions[0]
        return out

    def write_spans(self, path: Path) -> None:
        """Write a JSON header line, then one span per line: name id, parent id, start, end."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "parent", "start", "end"]}) + "\n")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write("%d %d %.9f %.9f\n" % row)


def layer_metrics(self_s: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""

    def time_of(*names: str, prefix: str = "") -> float:
        return sum(t for n, t in self_s.items() if n in names or (prefix and n.startswith(prefix)))

    def count(name: str) -> int:
        return counts.get(name, 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def hit_frac(label: str) -> float:
        hits = count(f"{label}.hits")
        return ratio(hits, hits + count(f"{label}.misses"))

    return {
        "trees.construct_calls": count("trees.construct_calls"),
        "trees.distinct_frac": ratio(count("trees.distinct"), count("trees.construct_calls")),
        "hopf.coproduct.self_s": time_of("hopf.coproduct"),
        "hopf.coproduct.calls": count("hopf.coproduct.calls"),
        "hopf.coproduct.terms_out": count("hopf.coproduct.terms_out"),
        "hopf.product.self_s": time_of("hopf.product"),
        "hopf.product.calls": count("hopf.product.calls"),
        "hopf.product.terms_out": count("hopf.product.terms_out"),
        "hopf.antipode.self_s": time_of("hopf.antipode"),
        "hopf.tree_cuts.self_s": time_of("hopf.tree_cuts"),
        "hopf.tree_cuts.hit_frac": hit_frac("hopf.tree_cuts"),
        "hopf.forest_cuts.hit_frac": hit_frac("hopf.forest_cuts"),
        "hopf.check.self_s": time_of(prefix="hopf.check_"),
        "hopf.fraction_constructs": count("hopf.fraction_constructs"),
        "opbialg.op_coproduct.self_s": time_of("opbialg.op_coproduct"),
        "opbialg.op_coproduct.calls": count("opbialg.op_coproduct.calls"),
        "opbialg.op_coproduct.terms_out": count("opbialg.op_coproduct.terms_out"),
        "opbialg.ptree_cuts.self_s": time_of("opbialg.ptree_cuts"),
        "opbialg.ptree_cuts.hit_frac": hit_frac("opbialg.ptree_cuts"),
        "opbialg.opforest.construct_calls": count("opbialg.opforest.construct_calls"),
        "opbialg.opforest.distinct_frac": ratio(
            count("opbialg.opforest.distinct"), count("opbialg.opforest.construct_calls")
        ),
        "opbialg.check.self_s": time_of("opbialg.cocycle_counterexample", prefix="opbialg.check_"),
        "ptrees.enumerate.self_s": time_of("ptrees.enumerate_by_nodes", "ptrees.enumerate_by_leaves"),
        "ptrees.enumerate.trees_out": count("ptrees.enumerate_by_nodes.terms_out")
        + count("ptrees.enumerate_by_leaves.terms_out"),
        "ptrees.ptree.construct_calls": count("ptrees.ptree.construct_calls"),
        "ptrees.core.self_s": time_of("ptrees.core"),
        "ptrees.core.calls": count("ptrees.core.calls"),
        "ptrees.by_nodes.hit_frac": hit_frac("ptrees.by_nodes"),
        "dse.solve.self_s": time_of("dse.solve"),
        "dse.solve.terms_out": count("dse.solve.terms_out"),
        "cli.self_s": time_of("cli.main"),
        "cli.output_bytes": count("cli.output_bytes"),
    }
