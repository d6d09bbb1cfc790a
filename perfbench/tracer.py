"""Span tracing of the package's public functions, from outside the package.

`Tracer.install()` replaces each function in TRACED by a wrapper at every
module attribute that binds it (a `from .linalg import qf_solutions` makes a
second binding in the importing module) and each method in TRACED_METHODS on
its class. A wrapper records one span: name, start, end, parent span, op id,
the time the span was running (`active`) and its self time (active minus the
active time of its child spans), and the class name of the exception it
raised, if any. Generators (qf_enumerate) are timed only
while they run, across all their resumptions, and count the vectors they
yield. Spans stay in memory until `dump` writes them out.

Self times telescope: the self times of the spans of an op add up to the
active time of its root spans, and `unattributed` is the rest of the op's
wall time, so the two sum to the op's wall time exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) wrapped wherever a module of the package binds it
TRACED = [
    ("linalg", "qf_enumerate"), ("linalg", "qf_solutions"), ("linalg", "ldl"),
    ("linalg", "hnf"),
    ("quatalg", "right_ideal_classes"), ("quatalg", "is_isomorphic"),
    ("quatalg", "brandt_matrix"), ("quatalg", "eigenform"),
    ("embeddings", "optimal_embedding"), ("embeddings", "embedding_candidates"),
    ("embeddings", "phi_map"), ("embeddings", "special_point"),
    ("periods", "toric_period"),
    ("charfield", "galois_orbits"), ("charfield", "min_stable_generating_set"),
    ("bqf", "class_group_structure"),
    ("ledger", "central_lvalue"), ("ledger", "an_list"),
    ("curves", "ap"),
    ("cli", "build_pipeline"), ("cli", "main"),
]
# (module, class, method); "__init__" spans are named after the class
TRACED_METHODS = [
    ("quatalg", "ShimuraSet", "classify"),
    ("periods", "PeriodPipeline", "row"),
    ("charfield", "FieldEmbedding", "__init__"),
    ("cache", "Cache", "load"), ("cache", "Cache", "store"),
]
GENERATORS = {"linalg.qf_enumerate"}
PACKAGE = "quatperiods"


def _value(name, result, args):
    """The per-span annotation the metrics need (or None)."""
    if name == "linalg.qf_solutions":
        return len(result)
    if name == "quatalg.is_isomorphic":
        return int(bool(result))
    if name == "embeddings.embedding_candidates":
        return len(result)
    if name == "bqf.class_group_structure":
        return args[0]
    if name == "ledger.central_lvalue":
        return result.terms
    if name == "cache.Cache.load":
        return int(result is None)
    if name == "cache.Cache.store":
        cache, q, fname = args[:3]
        return os.path.getsize(cache.path(q, fname))
    return None


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "active",
                 "child", "value", "error", "outer")

    def row(self):
        return [self.sid, self.name, self.parent, self.op, self.start,
                self.end, self.active, self.active - self.child, self.value,
                self.error, self.outer]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = defaultdict(int)   # open spans per name (recursion)
        self.op = -1                    # -1 while setting up
        self.root_active = defaultdict(float)
        self.installed = []

    # -- span bookkeeping --------------------------------------------------
    def _open(self, name):
        s = Span()
        s.sid = len(self.spans)
        s.name = name
        s.parent = self.stack[-1].sid if self.stack else None
        s.op = self.op
        s.active = s.child = 0.0
        s.value = None
        s.error = None
        s.outer = self.depth[name] == 0
        self.spans.append(s)
        return s

    def _charge(self, dt):
        """Credit dt of child time to the running span, or to the op root."""
        if self.stack:
            self.stack[-1].child += dt
        else:
            self.root_active[self.op] += dt

    def call(self, name, fn, args, kwargs):
        s = self._open(name)
        self.depth[name] += 1
        self.stack.append(s)
        s.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            s.error = type(err).__name__
            if name == "embeddings.embedding_candidates" and \
                    isinstance(err, ArithmeticError):
                s.value = 0             # the order holds no such omega
            raise
        finally:
            s.end = perf_counter()
            self.stack.pop()
            self.depth[name] -= 1
            s.active = s.end - s.start
            self._charge(s.active)
        s.value = _value(name, result, args)
        return result

    def iterate(self, name, gen):
        """Run a generator as one span, timed only while it runs."""
        s = self._open(name)
        s.value = 0
        s.start = perf_counter()
        try:
            while True:
                self.stack.append(s)
                t = perf_counter()
                try:
                    v = next(gen)
                except StopIteration:
                    return
                except BaseException as err:
                    s.error = type(err).__name__
                    raise
                finally:
                    dt = perf_counter() - t
                    self.stack.pop()
                    s.active += dt
                    self._charge(dt)
                s.value += 1
                yield v
        finally:
            s.end = perf_counter()
            gen.close()

    # -- installation ------------------------------------------------------
    def _wrapper(self, name, fn):
        tracer = self
        if name in GENERATORS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.iterate(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return wrapper

    def install(self):
        mods = {k: m for k, m in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for modname, fname in TRACED:
            fn = getattr(mods[f"{PACKAGE}.{modname}"], fname)
            wrapper = self._wrapper(f"{modname}.{fname}", fn)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self.installed.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for modname, cls_name, meth in TRACED_METHODS:
            cls = getattr(mods[f"{PACKAGE}.{modname}"], cls_name)
            fn = cls.__dict__[meth]
            name = f"{modname}.{cls_name}" + ("" if meth == "__init__"
                                              else f".{meth}")
            self.installed.append((cls, meth, fn))
            setattr(cls, meth, self._wrapper(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self.installed):
            setattr(owner, attr, fn)
        self.installed = []

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["sid", "name", "parent", "op", "start", "end",
                                 "active", "self", "value", "error",
                                 "outer"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.row()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the timed ops

def layer_metrics(tracer: Tracer, op_walls: list) -> dict:
    """Per-layer metrics over the spans of timed ops (op >= 0), plus the
    set-up spans under a `setup.` prefix."""
    incl = defaultdict(float)    # outermost spans only, so recursion counts once
    selft = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(int)     # summed span values
    zeros = defaultdict(int)     # spans whose value is 0
    setup_incl = defaultdict(float)
    distinct_d = set()
    enum_in_solutions = 0
    by_sid = tracer.spans
    for s in by_sid:
        if s.op < 0:
            if s.outer:
                setup_incl[s.name] += s.active
            continue
        calls[s.name] += 1
        selft[s.name] += s.active - s.child
        if s.outer:
            incl[s.name] += s.active
        if s.value is not None:
            total[s.name] += s.value
            zeros[s.name] += s.value == 0
        if s.name == "bqf.class_group_structure":
            distinct_d.add(s.value)
        if s.name == "linalg.qf_enumerate" and s.parent is not None \
                and by_sid[s.parent].name == "linalg.qf_solutions":
            enum_in_solutions += s.value

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(op_walls)
    ops = len(op_walls)
    root = sum(v for op, v in tracer.root_active.items() if op >= 0)
    m = {
        "linalg.qf_enumerate.calls": calls["linalg.qf_enumerate"],
        "linalg.qf_enumerate.vectors": total["linalg.qf_enumerate"],
        "linalg.qf_enumerate.self_s": selft["linalg.qf_enumerate"],
        "linalg.qf_solutions.calls": calls["linalg.qf_solutions"],
        "linalg.qf_solutions.self_s": selft["linalg.qf_solutions"],
        "linalg.qf_solutions.hit_ratio": ratio(total["linalg.qf_solutions"],
                                               enum_in_solutions),
        "linalg.ldl.calls": calls["linalg.ldl"],
        "linalg.hnf.calls": calls["linalg.hnf"],
        "linalg.hnf.self_s": selft["linalg.hnf"],
        "quatalg.right_ideal_classes.s": incl["quatalg.right_ideal_classes"],
        "quatalg.is_isomorphic.calls": calls["quatalg.is_isomorphic"],
        "quatalg.is_isomorphic.hit_ratio": ratio(
            total["quatalg.is_isomorphic"], calls["quatalg.is_isomorphic"]),
        "quatalg.is_isomorphic.self_s": selft["quatalg.is_isomorphic"],
        "quatalg.ShimuraSet.classify.calls": calls["quatalg.ShimuraSet.classify"],
        "quatalg.ShimuraSet.classify.s": incl["quatalg.ShimuraSet.classify"],
        "quatalg.brandt_matrix.calls": calls["quatalg.brandt_matrix"],
        "quatalg.brandt_matrix.s": incl["quatalg.brandt_matrix"],
        "quatalg.eigenform.s": incl["quatalg.eigenform"],
        "embeddings.optimal_embedding.s": incl["embeddings.optimal_embedding"],
        "embeddings.embedding_candidates.calls":
            calls["embeddings.embedding_candidates"],
        "embeddings.embedding_candidates.solutions":
            total["embeddings.embedding_candidates"],
        "embeddings.embedding_candidates.empty_ratio": ratio(
            zeros["embeddings.embedding_candidates"],
            calls["embeddings.embedding_candidates"]),
        "embeddings.phi_map.s": incl["embeddings.phi_map"],
        "embeddings.special_point.calls": calls["embeddings.special_point"],
        "periods.PeriodPipeline.row.self_s": selft["periods.PeriodPipeline.row"],
        "periods.toric_period.calls": calls["periods.toric_period"],
        "periods.toric_period.s": incl["periods.toric_period"],
        "charfield.FieldEmbedding.s": incl["charfield.FieldEmbedding"],
        "charfield.galois_orbits.s": incl["charfield.galois_orbits"],
        "charfield.min_stable_generating_set.s":
            incl["charfield.min_stable_generating_set"],
        "bqf.class_group_structure.calls": calls["bqf.class_group_structure"],
        "bqf.class_group_structure.s": incl["bqf.class_group_structure"],
        "bqf.class_group_structure.repeat_ratio": ratio(
            calls["bqf.class_group_structure"], len(distinct_d)),
        "ledger.central_lvalue.s": incl["ledger.central_lvalue"],
        "ledger.central_lvalue.terms": total["ledger.central_lvalue"],
        "ledger.an_list.s": incl["ledger.an_list"],
        "curves.ap.calls": calls["curves.ap"],
        "curves.ap.s": incl["curves.ap"],
        "cache.Cache.load.calls": calls["cache.Cache.load"],
        "cache.Cache.load.misses": total["cache.Cache.load"],
        "cache.Cache.load.s": incl["cache.Cache.load"],
        "cache.Cache.store.calls": calls["cache.Cache.store"],
        "cache.Cache.store.bytes": total["cache.Cache.store"],
        "cache.Cache.store.s": incl["cache.Cache.store"],
        "cli.build_pipeline.s": incl["cli.build_pipeline"],
        "cli.main.self_s": selft["cli.main"],
        "unattributed_s": wall - root,
        "op_wall_s": wall,
        "trace.ops": ops,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selft.items()
                                   if k.split(".")[0] == layer)
    for name in SETUP_SPANS:
        m[f"setup.{name}.s"] = setup_incl[name]
    return m


LAYERS = ("linalg", "quatalg", "embeddings", "periods", "charfield", "bqf",
          "ledger", "curves", "cache", "cli")
SETUP_SPANS = ("quatalg.right_ideal_classes", "quatalg.eigenform",
               "cache.Cache.store")
