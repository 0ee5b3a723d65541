"""Spans around the public entry points of every kgforge layer.

The tracer patches each function at the name its caller looks it up by
(modules import functions by name, so ``kgforge.store.parse_nquads`` and
``kgforge.pipeline.parse_nquads`` are patched separately), records
nested spans with parent ids, and restores everything afterwards.  Only
the traced run installs it; untraced runs wrap nothing.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from dataclasses import dataclass

#: Where a BGP evaluation is attributed: its nearest enclosing span of
#: one of these names.
BGP_CALLERS = {
    "pipeline.transform": "transform",
    "pipeline.validate": "validate",
    "endpoint.exec": "endpoint",
}


def wchar() -> int:
    """Bytes this process has passed to write(2) so far."""
    with open("/proc/self/io", "rb") as f:
        for line in f:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    label: str | None
    start: float
    end: float = 0.0
    wchar: int = 0
    items: int = 0
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.harvests: list = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None, io: bool = False):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, label, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        written = wchar() if io else 0
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if io:
                span.wchar = wchar() - written
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.seconds

    def ancestor(self, names) -> str | None:
        for span in reversed(self._stack):
            if span.name in names:
                return span.name
        return None

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; classmethods are
        unwrapped and rewrapped."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def timed(self, name: str, label=None, io: bool = False, items=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name, label(*args) if label else None, io) as span:
                    result = fn(*args, **kwargs)
                    if items is not None:
                        span.items = items(result)
                    return result
            return wrapper
        return make

    def timed_generator(self, name: str):
        """Each ``next()`` on the generator is one span."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            return wrapper
        return make

    def counted(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def bgp(self):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                caller = BGP_CALLERS.get(self.ancestor(BGP_CALLERS), "other")
                with self.span("mapping.eval_bgp", caller):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def per_item(self, name: str):
        """Run a validation pass once per shape or rule, one span each,
        and merge the reports (the merge sorts and de-duplicates, as one
        pass over all of them does)."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(graph, items):
                report = None
                for item in items:
                    with self.span(name, item.name):
                        part = fn(graph, [item])
                    report = part if report is None else report.merged_with(part)
                return report if report is not None else fn(graph, [])
            return wrapper
        return make

    def harvest_stage(self):
        """Time the harvest stage and keep its result (the records
        yielded and the cache statistics) for the report."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span("pipeline.harvest", io=True):
                    result = fn(*args, **kwargs)
                self.harvests.append(result)
                return result
            return wrapper
        return make

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from kgforge import endpoint, harvest, mapping, pipeline, rdf, store, validation

        self.patch(harvest.Harvester, "records", self.timed_generator("harvest.records"))
        self.patch(harvest.RawCache, "put", self.timed("harvest.cache_put"))
        self.patch(harvest.RawCache, "load_record", self.timed("harvest.load_record"))
        self.patch(harvest, "parse_payload", self.timed("jsonld.parse_payload"))
        self.patch(pipeline, "to_rdf", self.timed("jsonld.to_rdf"))
        self.patch(pipeline, "relabel_blank_nodes", self.timed("jsonld.relabel"))
        def rule_label(graph, rule) -> str:
            return rule.name.removesuffix(".rq")

        self.patch(pipeline, "apply_rule", self.timed("mapping.apply_rule", rule_label))
        self.patch(endpoint, "apply_rule", self.timed("mapping.apply_rule", lambda *a: "construct"))
        for module in (mapping, validation, endpoint):
            self.patch(module, "eval_bgp", self.bgp())
        for module in (store, pipeline):
            self.patch(module, "parse_nquads", self.timed("rdf.parse_nquads", items=len))
        for module in (store, pipeline, endpoint):
            self.patch(module, "serialize_nquads", self.timed("rdf.serialize_nquads"))
        self.patch(rdf.Graph, "match", self.counted("rdf.graph_match"))
        self.patch(store.Store, "load", self.timed("store.load"))
        self.patch(store.Store, "load_quads", self.timed("store.load_quads"))
        self.patch(store.Store, "persist", self.timed("store.persist", io=True))
        self.patch(store.Store, "stats", self.timed("store.stats"))
        self.patch(store.Store, "triples", self.timed("store.triples"))
        self.patch(pipeline, "stage_harvest", self.harvest_stage())
        for stage in ("transform", "load", "validate", "stats"):
            self.patch(pipeline, f"stage_{stage}", self.timed(f"pipeline.{stage}"))
        self.patch(validation, "validate_shapes", self.per_item("validation.shape"))
        self.patch(validation, "validate_patterns", self.per_item("validation.pattern"))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- aggregation -----------------------------------------------------

    def total(self, name: str, label: str | None = None) -> float:
        return sum(s.seconds for s in self.spans if s.name == name and (label is None or s.label == label))

    def calls(self, name: str, label: str | None = None) -> int:
        return sum(1 for s in self.spans if s.name == name and (label is None or s.label == label))


MIB = float(1 << 20)

SHAPES = ("dataset", "person", "substance", "molecule")
PATTERNS = ("process-agent-role", "measurement-datum-unit", "publishing-temporal-region")
RULES = ("dataset", "creator", "study", "substance")
STAGES = ("harvest", "transform", "load", "validate", "stats")
CLASSES = ("lookup", "analytic")


def layer_metrics(tracer: Tracer, *, stage_seconds: dict[str, float] | None = None) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit).  A layer the workload
    does not exercise reads 0."""
    t = tracer
    m: dict[str, tuple[float, str]] = {}
    spans = [s for s in t.spans if s.name == "pipeline.harvest"]
    m["harvest.self_s"] = (sum(s.self_s for s in t.spans if s.layer == "harvest"), "s")
    m["harvest.wchar_mb"] = (sum(s.wchar for s in spans) / MIB, "MiB")
    last = t.harvests[-1].stats if t.harvests else None
    looked_up = (last.cache_hits + last.cache_misses) if last else 0
    m["harvest.hit_ratio"] = (last.cache_hits / looked_up if looked_up else 0.0, "ratio")
    first = t.harvests[0].records if t.harvests else 0
    m["harvest.cold_ms_per_record"] = (1000 * spans[0].seconds / first if first else 0.0, "ms")
    m["jsonld.to_rdf_s"] = (t.total("jsonld.to_rdf"), "s")
    m["jsonld.relabel_s"] = (t.total("jsonld.relabel"), "s")
    for rule in RULES:
        m[f"mapping.apply_rule_s.{rule}"] = (t.total("mapping.apply_rule", rule), "s")
    for caller in BGP_CALLERS.values():
        m[f"mapping.eval_bgp_s.{caller}"] = (t.total("mapping.eval_bgp", caller), "s")
        m[f"mapping.eval_bgp_calls.{caller}"] = (t.calls("mapping.eval_bgp", caller), "count")
    m["rdf.parse_nquads_s"] = (t.total("rdf.parse_nquads"), "s")
    m["rdf.parse_nquads_quads"] = (sum(s.items for s in t.spans if s.name == "rdf.parse_nquads"), "count")
    m["rdf.serialize_nquads_s"] = (t.total("rdf.serialize_nquads"), "s")
    m["rdf.graph_match_calls"] = (t.counts["rdf.graph_match"], "count")
    m["store.load_calls"] = (t.calls("store.load"), "count")
    m["store.load_s"] = (t.total("store.load"), "s")
    m["store.load_quads_s"] = (t.total("store.load_quads"), "s")
    m["store.persist_s"] = (t.total("store.persist"), "s")
    m["store.persist_wchar_mb"] = (sum(s.wchar for s in t.spans if s.name == "store.persist") / MIB, "MiB")
    m["store.stats_s"] = (t.total("store.stats"), "s")
    m["store.triples_s"] = (t.total("store.triples"), "s")
    for stage in STAGES:
        value = stage_seconds[stage] if stage_seconds else t.total(f"pipeline.{stage}")
        m[f"pipeline.{stage}_s"] = (value, "s")
    for shape in SHAPES:
        m[f"validation.shape_s.{shape}"] = (t.total("validation.shape", shape), "s")
    for pattern in PATTERNS:
        m[f"validation.pattern_s.{pattern}"] = (t.total("validation.pattern", pattern), "s")
    return m


def endpoint_metrics(per_class: dict[str, dict[str, float]] | None) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for cls in CLASSES:
        got = (per_class or {}).get(cls, {})
        for key in ("parse_ms", "exec_ms", "encode_ms", "http_ms"):
            m[f"endpoint.{key}.{cls}"] = (got.get(key, 0.0), "ms")
        m[f"endpoint.rows.{cls}"] = (got.get("rows", 0.0), "count")
    return m

