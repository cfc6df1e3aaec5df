"""Process-global metrics: counters, gauges, bounded histograms.

A :class:`MetricsRegistry` holds named metric families, each with labelled
samples.  Engine modules create their handles once at import time::

    from ..obs.metrics import REGISTRY
    _HITS = REGISTRY.counter("repro_cache_hits_total", "Result-cache hits")
    ...
    _HITS.inc()

Histograms reuse :class:`repro.core.stats.SizeHistogram` (count / total / max
plus log2 buckets), so they stay O(log max) per label set no matter how long
the process lives.  :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text exposition format (the page a future ``repro serve`` scrape
endpoint returns; available today via ``repro engine stats --prometheus``),
and :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.merge` move
metric deltas across process boundaries: a child process snapshots a local
registry and the parent merges it into :data:`REGISTRY`.
"""

from __future__ import annotations

from ..core.stats import SizeHistogram

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricFamily:
    """Base: one named metric with labelled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.samples: dict[_LabelKey, object] = {}

    def value(self, **labels):
        """The sample value for ``labels`` (0 / None when never touched)."""
        return self.samples.get(_label_key(labels), 0)

    def clear(self) -> None:
        self.samples.clear()


class Counter(MetricFamily):
    """Monotonically increasing count (by convention named ``*_total``)."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels) -> None:
        key = _label_key(labels)
        self.samples[key] = self.samples.get(key, 0) + amount


class Gauge(MetricFamily):
    """A value that can go up and down (sizes, versions, configuration)."""

    kind = "gauge"

    def set(self, value: int | float, **labels) -> None:
        self.samples[_label_key(labels)] = value

    def inc(self, amount: int | float = 1, **labels) -> None:
        key = _label_key(labels)
        self.samples[key] = self.samples.get(key, 0) + amount

    def dec(self, amount: int | float = 1, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram(MetricFamily):
    """A bounded size distribution, one :class:`SizeHistogram` per label set."""

    kind = "histogram"

    def observe(self, size: int, **labels) -> None:
        key = _label_key(labels)
        histogram = self.samples.get(key)
        if histogram is None:
            histogram = self.samples[key] = SizeHistogram()
        histogram.record(size)

    def value(self, **labels) -> SizeHistogram:
        key = _label_key(labels)
        histogram = self.samples.get(key)
        if histogram is None:
            histogram = self.samples[key] = SizeHistogram()
        return histogram


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metric families.

    Families are created on first request and persist for the registry's
    lifetime; :meth:`reset` clears sample values but keeps the family objects,
    so module-level handles stay valid across test isolation boundaries.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Family accessors (get-or-create)
    # ------------------------------------------------------------------
    def _family(self, kind: str, name: str, help: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _KINDS[kind](name, help)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, requested as {kind}")
        if help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family("counter", name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family("gauge", name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._family("histogram", name, help)  # type: ignore[return-value]

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Zero every sample (family objects survive; handles stay valid)."""
        for family in self._families.values():
            family.clear()

    # ------------------------------------------------------------------
    # Cross-process transport
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON/pickle-safe dump of every family, for :meth:`merge`."""
        out: dict = {}
        for family in self.families():
            samples = []
            for key, value in family.samples.items():
                if isinstance(value, SizeHistogram):
                    value = {"count": value.count, "total": value.total,
                             "max": value.max,
                             "buckets": dict(value.buckets)}
                samples.append([list(key), value])
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "samples": samples}
        return out

    def merge(self, snapshot: dict) -> None:
        """Accumulate a :meth:`snapshot` (e.g. from a worker process).

        Counters and histograms add; gauges take the incoming value
        (last-write-wins, the useful semantics for worker-reported state).
        """
        for name, family_dump in snapshot.items():
            kind = family_dump["kind"]
            family = self._family(kind, name, family_dump.get("help", ""))
            for raw_key, value in family_dump["samples"]:
                key = tuple((str(k), str(v)) for k, v in raw_key)
                if kind == "histogram":
                    incoming = SizeHistogram(
                        count=value["count"], total=value["total"],
                        max=value["max"],
                        buckets={int(k): v for k, v in value["buckets"].items()})
                    existing = family.samples.get(key)
                    if existing is None:
                        family.samples[key] = incoming
                    else:
                        existing.merge(incoming)
                elif kind == "gauge":
                    family.samples[key] = value
                else:
                    family.samples[key] = family.samples.get(key, 0) + value

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A plain nested dict (labels joined as ``k=v`` strings) for JSON."""
        out: dict = {}
        for family in self.families():
            samples = {}
            for key, value in family.samples.items():
                label = ",".join(f"{k}={v}" for k, v in key) or ""
                if isinstance(value, SizeHistogram):
                    value = {"count": value.count, "total": value.total,
                             "max": value.max, "avg": value.average}
                samples[label] = value
            out[family.name] = {"kind": family.kind, "samples": samples}
        return out

    def render_prometheus(self, include_process: bool = True) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4).

        ``include_process`` appends point-in-time process gauges
        (``repro_process_peak_rss_bytes``, ``repro_process_current_rss_bytes``)
        sampled at render time, skipping whichever the platform cannot supply.
        """
        lines: list[str] = []
        for family in self.families():
            if not family.samples:
                continue
            if family.help:
                lines.append(f"# HELP {family.name} {_escape(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.samples):
                value = family.samples[key]
                if isinstance(value, SizeHistogram):
                    lines.extend(_render_histogram(family.name, key, value))
                else:
                    lines.append(
                        f"{family.name}{_format_labels(key)} {_format_value(value)}")
        if include_process:
            from .process import current_rss_bytes, peak_rss_bytes

            for name, help_text, value in (
                ("repro_process_peak_rss_bytes",
                 "Peak resident set size of this process", peak_rss_bytes()),
                ("repro_process_current_rss_bytes",
                 "Current resident set size of this process",
                 current_rss_bytes()),
            ):
                if value is None:
                    continue
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {value}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_histogram(name: str, key: _LabelKey,
                      histogram: SizeHistogram) -> list[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one label set.

    The log2 bucket keyed ``k`` covers sizes ``[k, 2k - 1]`` (bucket 0 holds
    exactly size 0), so its inclusive upper bound is the Prometheus ``le``.
    """
    lines = []
    cumulative = 0
    for bucket in sorted(histogram.buckets):
        cumulative += histogram.buckets[bucket]
        upper = 0 if bucket == 0 else 2 * bucket - 1
        lines.append(f"{name}_bucket{_format_labels(key, (('le', str(upper)),))}"
                     f" {cumulative}")
    lines.append(f"{name}_bucket{_format_labels(key, (('le', '+Inf'),))}"
                 f" {histogram.count}")
    lines.append(f"{name}_sum{_format_labels(key)} {histogram.total}")
    lines.append(f"{name}_count{_format_labels(key)} {histogram.count}")
    return lines


#: The process-global registry every engine module instruments into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :data:`REGISTRY` (convenience accessor)."""
    return REGISTRY


def render_prometheus(include_process: bool = True) -> str:
    """Render the process-global registry (see the registry method)."""
    return REGISTRY.render_prometheus(include_process=include_process)
