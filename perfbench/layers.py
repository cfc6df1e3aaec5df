"""Per-layer attribution for the traced runs, measured from outside ``src/``.

Two sources, both read-only with respect to the program:

* the spans :meth:`repro.MQCEEngine.query` already records when handed a
  :class:`repro.obs.Tracer` (``query`` > ``prepare`` / ``plan`` / ``cache`` /
  ``enumerate`` > ``decompose`` / ``shrink`` / ``subproblem``, ``filter``);
* timing wrappers the benchmark installs, for the duration of a traced
  phase, around public functions a layer calls through its module namespace
  (used where no span exists, e.g. inside the parallel path).

:func:`query_layers` partitions one query's wall time into layer self-times
that sum exactly to the ``query`` span, so the traced run can be checked
against the untraced latency.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layer of each engine span name; a span's self time (its duration minus its
#: children's) is charged to its layer.  ``enumerate`` self time is subproblem
#: construction (two-hop balls, compaction, payloads), charged to shrink.
SPAN_LAYER = {
    "query": "engine.other",
    "prepare": "engine.prepare",
    "plan": "engine.plan",
    "cache": "engine.cache",
    "enumerate": "core.shrink",
    "decompose": "core.decompose",
    "shrink": "core.shrink",
    "subproblem": "core.search",
    "filter": "settrie.filter",
}

#: Every layer :func:`query_layers` can report.
LAYERS = ("engine.prepare", "engine.plan", "engine.cache", "engine.other",
          "core.decompose", "core.shrink", "core.search", "parallel.wall",
          "settrie.filter")


class Timings:
    """Accumulated seconds of wrapped functions, by label."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    def wrap(self, label: str, function):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[label] += time.perf_counter() - start
        return timed


@contextmanager
def patched(replacements):
    """Temporarily replace module attributes: ``[(module, name, factory), ...]``.

    ``factory`` receives the original function and returns its replacement.
    The originals are restored on exit, whatever happens inside.
    """
    saved = []
    try:
        for module_name, attribute, factory in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, factory(original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def timing_wrappers(timings: Timings):
    """Wrappers for the parallel path, where the engine records no inner spans."""
    return [
        ("repro.core.dcfastqc", "k_core_vertices",
         lambda f: timings.wrap("core.decompose", f)),
        ("repro.core.dcfastqc", "degeneracy_ordering_within",
         lambda f: timings.wrap("core.decompose", f)),
        ("repro.extensions.parallel", "run_compact_subproblem",
         lambda f: timings.wrap("core.search", f)),
    ]


def _walk(span: dict, layers: dict[str, float]) -> None:
    children = span.get("children", ())
    own = span["seconds"] - sum(child["seconds"] for child in children)
    layers[SPAN_LAYER.get(span["name"], "engine.other")] += own
    for child in children:
        _walk(child, layers)


def query_layers(query_span: dict, wrapped: dict[str, float] | None = None,
                 parallel_wall: float | None = None) -> dict[str, float]:
    """Self seconds per layer of one traced ``query`` span (as ``Span.as_dict``).

    For a parallel enumeration (an ``enumerate`` span without children),
    ``wrapped`` holds the wrapper seconds measured during the query and
    ``parallel_wall`` the worker pool's wall time; both are carved out of
    the ``enumerate`` span, whose remainder stays with shrink (the parent's
    subproblem construction).
    """
    layers: dict[str, float] = defaultdict(float)
    _walk(query_span, layers)
    enumerate_span = next((c for c in query_span.get("children", ())
                           if c["name"] == "enumerate"), None)
    if enumerate_span is not None and not enumerate_span.get("children"):
        carved = 0.0
        for layer in ("core.decompose", "core.search"):
            seconds = (wrapped or {}).get(layer, 0.0)
            layers[layer] += seconds
            carved += seconds
        if parallel_wall:
            layers["parallel.wall"] += parallel_wall
            carved += parallel_wall
        layers["core.shrink"] -= carved
    return dict(layers)


#: Least share of the traced queries' wall time the layers must account for.
MIN_LAYER_COVERAGE = 0.95


class LayerAccumulator:
    """Per-layer self seconds over many traced queries, plus tracing overhead.

    ``add_pair`` takes one untraced and one traced pass over the same query
    order, so the overhead compares like with like.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.layer_sums: list[float] = []
        self.untraced: list[float] = []
        self.untraced_seconds = 0.0
        self.traced_seconds = 0.0

    def add_query(self, layers: dict[str, float]) -> None:
        for name, seconds in layers.items():
            self.totals[name] += seconds
        self.layer_sums.append(sum(layers.values()))

    def add_pair(self, untraced: list[float], traced_seconds: float) -> None:
        self.untraced += untraced
        self.untraced_seconds += sum(untraced)
        self.traced_seconds += traced_seconds

    def coverage(self) -> float:
        """Share of the traced calls' wall time charged to some layer."""
        return sum(self.layer_sums) / self.traced_seconds if self.traced_seconds else 0.0

    def layer_sum_ratio(self) -> float:
        """Median traced layer sum over the median untraced latency."""
        return (statistics.median(self.layer_sums) / statistics.median(self.untraced)
                if self.untraced else 0.0)

    def metrics(self) -> dict[str, float]:
        queries = max(1, len(self.layer_sums))
        per_query = {name: self.totals.get(name, 0.0) / queries * 1000 for name in LAYERS}
        total = sum(self.totals.values()) or 1.0
        return {
            "engine.plan_ms": per_query["engine.plan"],
            "engine.plan_share": self.totals.get("engine.plan", 0.0) / total,
            "core.decompose_ms": per_query["core.decompose"],
            "core.shrink_ms": per_query["core.shrink"],
            "core.search_ms": per_query["core.search"],
            "parallel.wall_ms": per_query["parallel.wall"],
            "settrie.filter_ms": per_query["settrie.filter"],
            "trace.overhead_pct": (self.traced_seconds / self.untraced_seconds - 1) * 100
            if self.untraced_seconds else 0.0,
        }

    def check(self, outcome) -> None:
        """Record coverage and the layer-sum ratio; fail on uncharged time."""
        coverage = self.coverage()
        outcome.notes["layer_coverage"] = round(coverage, 4)
        outcome.notes["layer_sum_ratio"] = round(self.layer_sum_ratio(), 4)
        if coverage < MIN_LAYER_COVERAGE:
            outcome.fail(f"layers account for only {coverage:.1%} of traced time")


def span_counts(query_span: dict) -> dict[str, float]:
    """Exact work counts of one query: branches, shrink sizes, filter ratio."""
    counts = defaultdict(float)

    def walk(span: dict) -> None:
        attributes = span.get("attributes", {})
        if span["name"] == "shrink":
            counts["shrink_initial"] += attributes.get("initial", 0)
            counts["shrink_refined"] += attributes.get("refined", 0)
        elif span["name"] == "enumerate":
            counts["candidates"] += attributes.get("candidates", 0)
        elif span["name"] == "filter":
            counts["maximal"] += attributes.get("maximal", 0)
        for child in span.get("children", ()):
            walk(child)

    walk(query_span)
    return dict(counts)


@contextmanager
def delayed(module_name: str, attribute: str, seconds: float):
    """Make one public function slower by a fixed busy-wait (attribution check)."""
    def factory(function):
        def slowed(*args, **kwargs):
            result = function(*args, **kwargs)
            until = time.perf_counter() + seconds
            while time.perf_counter() < until:
                pass
            return result
        return slowed

    with patched([(module_name, attribute, factory)]):
        yield


def attribution_check(run_pass, injected: float, layer: str, repeats: int = 5
                      ) -> tuple[bool, dict[str, float]]:
    """Slow ``layer``'s function by ``injected`` s per call; see where it lands.

    ``run_pass(slow: bool)`` runs one traced pass and returns
    ``(per-layer seconds summed over the pass, calls made)``.  Plain and
    slowed passes alternate ``repeats`` times; per layer, the median of each
    side is compared.  The check passes when the slowed layer grew by
    0.8-1.5x the injected total and no other layer moved by more than 15% of
    it.
    """
    plain, slow = defaultdict(list), defaultdict(list)
    calls = 0
    for _ in range(repeats):
        for side, bucket in ((False, plain), (True, slow)):
            layers, calls = run_pass(side)
            for name in set(LAYERS) | set(layers):
                bucket[name].append(layers.get(name, 0.0))
    total = injected * calls
    deltas = {name: statistics.median(slow[name]) - statistics.median(plain[name])
              for name in plain}
    ok = 0.8 * total <= deltas.get(layer, 0.0) <= 1.5 * total and all(
        abs(delta) <= 0.15 * total for name, delta in deltas.items() if name != layer)
    return ok, {name: round(delta * 1000, 3) for name, delta in deltas.items()}
