"""Layer spans for the weildec benchmark, recorded from outside the library.

Each traced function is wrapped, and the wrapper is written over every
binding of the original: module attributes (including names another
module imported directly, such as ``analysis.sl2_enumerate``) and class
attributes (including aliases such as ``CycloElt.__rmul__``).  A span is
(name, start, end, parent).  Spans stay in memory until the round ends and
are reduced to per-layer metrics once, after the last certificate.

A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path) for every traced function.
TARGETS = (
    ("cyclo.mul", "weildec.cyclo", "CycloElt.__mul__"),
    ("cyclo.inverse", "weildec.cyclo", "CycloElt.inverse"),
    ("cyclo.norm_sq", "weildec.cyclo", "CycloElt.norm_sq"),
    ("cycmat.matmul", "weildec.cycmat", "CycMat.__matmul__"),
    ("cycmat.kron", "weildec.cycmat", "CycMat.kron"),
    ("cycmat.to_ring", "weildec.cycmat", "CycMat.to_ring"),
    ("ringmat.equal_up_to_scalar", "weildec.ringmat", "RingMatrix.equal_up_to_scalar"),
    ("weilrep.projective_key", "weildec.weilrep", "projective_key"),
    ("modgroup.sl2_enumerate", "weildec.modgroup", "sl2_enumerate"),
    ("modgroup.word_decompose", "weildec.modgroup", "word_decompose"),
    ("modgroup.class_representatives", "weildec.modgroup", "class_representatives"),
    ("modgroup.census", "weildec.modgroup", "census"),
    ("weilrep.trace", "weildec.weilrep", "_TraceEngine.trace_vector"),
    ("weilrep.lift", "weildec.weilrep", "lift_genus1_cyc"),
    ("weilrep.generator", "weildec.weilrep", "WeilRep.generator_cyc"),
    ("decompose.commutant_dimension", "weildec.decompose", "commutant_dimension"),
    ("decompose.isotypic_projectors", "weildec.decompose", "isotypic_projectors"),
    ("decompose.crt_check", "weildec.decompose", "crt_check"),
    ("decompose.tower_check", "weildec.decompose", "tower_check"),
    ("decompose.egorov_verify", "weildec.decompose", "egorov_verify"),
    ("analysis.char_sum", "weildec.analysis", "char_sum"),
    ("analysis.kernel_check", "weildec.analysis", "kernel_check"),
    ("analysis.lemma_diag_check", "weildec.analysis", "lemma_diag_check"),
)

# Every per-layer metric a traced run reports: name -> (unit, better).
METRICS = {}
for _name in ("cyclo.mul", "cyclo.inverse", "cyclo.norm_sq",
              "cycmat.matmul", "cycmat.kron", "cycmat.to_ring",
              "ringmat.equal_up_to_scalar", "weilrep.projective_key",
              "modgroup.word_decompose", "weilrep.lift", "weilrep.generator",
              "decompose.commutant_dimension"):
    METRICS[_name + ".calls"] = ("count", "lower")
    METRICS[_name + ".self_s"] = ("s", "lower")
METRICS["cycmat.max_entry_bits"] = ("bits", "lower")
METRICS["modgroup.sl2_enumerate.elements"] = ("count", "lower")
for _name in ("modgroup.sl2_enumerate", "modgroup.class_representatives",
              "modgroup.census", "decompose.isotypic_projectors",
              "decompose.crt_check", "decompose.tower_check",
              "decompose.egorov_verify", "analysis.char_sum",
              "analysis.kernel_check", "analysis.lemma_diag_check"):
    METRICS[_name + ".self_s"] = ("s", "lower")
METRICS.update({
    "weilrep.trace.calls": ("count", "lower"),
    "weilrep.trace.build_s": ("s", "lower"),
    "weilrep.trace.warm_s": ("s", "lower"),
    "weilrep.trace.cache_entries": ("count", "lower"),
    "weilrep.trace.hit_ratio": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def library_namespaces():
    """weildec's loaded modules, and the classes those modules define."""
    modules = [m for key, m in sys.modules.items()
               if key == "weildec" or key.startswith("weildec.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return modules, classes


def _engine_entries(engine):
    return len(engine._dcache) + len(engine._kcache) + len(engine._gcache)


class Tracer:
    """Installs span-recording wrappers and reduces spans to metrics."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._engines = {}
        self._build_calls = set()
        self._max_bits = 0
        self._elements = 0
        self._cycmat = None

    # -- recording ---------------------------------------------------------

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def _note_bits(self, value):
        if type(value) is self._cycmat and value.arr.size:
            arr = value.arr
            bits = max(int(arr.max()), -int(arr.min())).bit_length()
            if bits > self._max_bits:
                self._max_bits = bits

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            self._note_bits(out)
            return out

        return traced

    def _wrap_generator(self, name, fn):
        """One span per next(), so the consumer's work is not counted."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index, parent = self._open()
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index, parent, name, start)
                self._elements += 1
                yield item

        return traced

    def _wrap_trace_vector(self, name, fn):
        """Classifies each call as a cache build or a warm lookup by the
        engine's cache sizes before and after."""

        def traced(engine, M):
            self._engines[id(engine)] = engine
            before = _engine_entries(engine)
            index, parent = self._open()
            start = perf_counter()
            try:
                return fn(engine, M)
            finally:
                self._close(index, parent, name, start)
                if _engine_entries(engine) != before:
                    self._build_calls.add(index)

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        modules, classes = library_namespaces()
        owners = modules + classes
        self._cycmat = sys.modules["weildec.cycmat"].CycMat
        for name, module_name, path in TARGETS:
            original = sys.modules[module_name]
            for part in path.split("."):
                original = vars(original)[part] if isinstance(original, type) \
                    else getattr(original, part)
            if name == "modgroup.sl2_enumerate":
                wrapper = self._wrap_generator(name, original)
            elif name == "weilrep.trace":
                wrapper = self._wrap_trace_vector(name, original)
            else:
                wrapper = self._wrap(name, original)
            bound = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {module_name}.{path} found")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reducing ----------------------------------------------------------

    def collect(self):
        """Per-layer metrics of the spans recorded since the last collect,
        then forget those spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        build_s = warm_s = 0.0
        trace_calls = build_calls = 0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child[index]
            if name == "weilrep.trace":
                trace_calls += 1
                if index in self._build_calls:
                    build_calls += 1
                    build_s += duration
                else:
                    warm_s += duration
        out = {}
        for metric in METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "self_s":
                out[metric] = self_s[layer]
        out["cycmat.max_entry_bits"] = self._max_bits
        out["modgroup.sl2_enumerate.elements"] = self._elements
        out["weilrep.trace.calls"] = trace_calls
        out["weilrep.trace.build_s"] = build_s
        out["weilrep.trace.warm_s"] = warm_s
        out["weilrep.trace.cache_entries"] = sum(
            _engine_entries(e) for e in self._engines.values())
        out["weilrep.trace.hit_ratio"] = (
            (trace_calls - build_calls) / trace_calls if trace_calls else 0.0)
        self.spans.clear()
        self._engines.clear()
        self._build_calls.clear()
        self._max_bits = 0
        self._elements = 0
        return out
