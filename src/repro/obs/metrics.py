"""Dependency-free metrics plane: registry, spans, mergeable snapshots.

The reproduction runs as one streaming engine or as a resident
multi-process fleet; both need the same answers — where do events and
time go? — without adding a dependency or slowing the hot path.  This
module provides:

* :class:`MetricsRegistry` — process-local home of counters, gauges
  and fixed-bucket histograms, plus ``span(name)`` context-manager
  timers that record into ``*_seconds`` histograms.
* :class:`MetricsSnapshot` — an immutable point-in-time sample that
  *merges*: counters and histogram buckets add, gauges are
  right-biased.  Merge is associative and commutative over counters
  and histograms, which is what lets resident fleet workers ship
  per-round deltas (:meth:`MetricsRegistry.snapshot_delta`) in their
  round answers — the same pattern as ``CacheStats.absorb`` — and the
  manager fold them into one fleet-wide view with
  :meth:`MetricsRegistry.absorb`.
* :data:`NULL_METRICS` — a no-op registry with the same surface, so
  instrumentation is free when observability is off and call sites
  never branch on ``if metrics:``.

Collectors (:meth:`MetricsRegistry.add_collector`) bridge the legacy
plain-int stat dataclasses (``CacheStats``, ``VerdictCacheStats``)
onto the registry: the dataclasses stay cheap lock-free counters on
their hot paths, but every :meth:`MetricsRegistry.snapshot` folds
their current values in as counter samples, so there is one exposition
mechanism (JSON snapshot + :meth:`MetricsSnapshot.to_prom`), not
three.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Callable, Iterable, Mapping

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NullRegistry",
    "Span",
    "sample_key",
]

#: Upper bounds (seconds) for span/latency histograms; +Inf implicit.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Upper bounds for size histograms (frontier sizes, batch sizes).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)


def sample_key(name: str, **labels: object) -> str:
    """Encode a metric name plus labels into one stable sample key.

    ``sample_key("hits_total", cache="vt")`` →
    ``'hits_total{cache="vt"}'`` — the Prometheus text form, with
    labels sorted so the same labelling always yields the same key
    (snapshots merge by key equality).
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{labels[k]}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_sample_key(key: str) -> tuple[str, str]:
    """Split an encoded sample key into ``(family, label_text)``.

    The family is the bare metric name; ``label_text`` is the
    ``{...}`` suffix (empty for unlabelled samples).
    """
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


class Counter:
    """A monotonically increasing counter (float-valued)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, board size)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram: cumulative-style counts, sum, count.

    Buckets are *upper bounds*; an implicit +Inf bucket catches the
    overflow.  Fixed bounds are what make histograms mergeable — two
    snapshots with the same bounds add component-wise.
    """

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(
        self, lock: threading.Lock, bounds: Iterable[float]
    ) -> None:
        self._lock = lock
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class Span:
    """Context-manager wall-clock timer.

    Always measures (callers read ``.elapsed`` for reports even when
    metrics are off); records into its histogram only when one was
    bound by an enabled registry.  Exceptions propagate — a failed
    stage is still a timed stage.
    """

    __slots__ = ("_histogram", "_started", "elapsed")

    def __init__(self, histogram: Histogram | None = None) -> None:
        self._histogram = histogram
        self._started = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._started
        if self._histogram is not None:
            self._histogram.observe(self.elapsed)


class MetricsSnapshot:
    """Point-in-time sample of a registry; merges and diffs.

    ``counters`` and ``gauges`` map encoded sample keys (see
    :func:`sample_key`) to values; ``histograms`` map keys to
    ``{"bounds": [...], "counts": [...], "sum": s, "count": n}``
    dicts.  Counters and histograms *add* under :meth:`merge` (the
    operation is associative and commutative); gauges are last-writer-
    wins (right-biased), matching their point-in-time semantics.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(
        self,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        histograms: Mapping[str, dict] | None = None,
    ) -> None:
        self.counters: dict[str, float] = dict(counters or {})
        self.gauges: dict[str, float] = dict(gauges or {})
        self.histograms: dict[str, dict] = {
            key: {
                "bounds": list(h["bounds"]),
                "counts": list(h["counts"]),
                "sum": h["sum"],
                "count": h["count"],
            }
            for key, h in (histograms or {}).items()
        }

    # -- algebra ----------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Return a new snapshot: self ⊕ other.

        Counters and histogram components sum; gauges take ``other``'s
        value where both define one.  Merging histograms with
        different bucket bounds is a programming error and raises.
        """
        merged = MetricsSnapshot(
            self.counters, self.gauges, self.histograms
        )
        for key, value in other.counters.items():
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        merged.gauges.update(other.gauges)
        for key, hist in other.histograms.items():
            mine = merged.histograms.get(key)
            if mine is None:
                merged.histograms[key] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            if list(mine["bounds"]) != list(hist["bounds"]):
                raise ValueError(
                    f"histogram bounds mismatch for {key!r}"
                )
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], hist["counts"])
            ]
            mine["sum"] += hist["sum"]
            mine["count"] += hist["count"]
        return merged

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """Return the delta self − baseline (for per-round shipping).

        Counters and histogram components subtract (clamped at zero so
        a reset never ships negative deltas); gauges keep ``self``'s
        current values.  ``baseline.merge(delta)`` reproduces ``self``
        for counters and histograms — the identity resident workers
        rely on.
        """
        counters = {}
        for key, value in self.counters.items():
            delta = value - baseline.counters.get(key, 0.0)
            if delta > 0:
                counters[key] = delta
        histograms = {}
        for key, hist in self.histograms.items():
            base = baseline.histograms.get(key)
            if base is None:
                histograms[key] = hist
                continue
            counts = [
                max(0, a - b)
                for a, b in zip(hist["counts"], base["counts"])
            ]
            count = max(0, hist["count"] - base["count"])
            if count == 0 and not any(counts):
                continue
            histograms[key] = {
                "bounds": list(hist["bounds"]),
                "counts": counts,
                "sum": max(0.0, hist["sum"] - base["sum"]),
                "count": count,
            }
        return MetricsSnapshot(counters, dict(self.gauges), histograms)

    # -- reading ----------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """Value of one counter sample (0.0 when absent)."""
        return self.counters.get(sample_key(name, **labels), 0.0)

    def gauge_value(self, name: str, **labels: object) -> float:
        """Value of one gauge sample (0.0 when absent)."""
        return self.gauges.get(sample_key(name, **labels), 0.0)

    def histogram_stats(self, name: str, **labels: object) -> dict:
        """One histogram sample's dict (empty dict when absent)."""
        return self.histograms.get(sample_key(name, **labels), {})

    def families(self) -> set[str]:
        """Bare metric names present, labels stripped."""
        names = set()
        for key in (*self.counters, *self.gauges, *self.histograms):
            names.add(split_sample_key(key)[0])
        return names

    def timings(self) -> dict[str, float]:
        """Total seconds per ``*_seconds`` histogram family.

        The stage breakdown benchmarks and reports read: summed over
        labels, keyed by family with the ``_seconds`` suffix dropped.
        """
        totals: dict[str, float] = {}
        for key, hist in self.histograms.items():
            family = split_sample_key(key)[0]
            if not family.endswith("_seconds"):
                continue
            stage = family[: -len("_seconds")]
            totals[stage] = totals.get(stage, 0.0) + hist["sum"]
        return totals

    def is_empty(self) -> bool:
        """True when the snapshot carries no samples at all."""
        return not (self.counters or self.gauges or self.histograms)

    # -- serialization ----------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                    "sum": h["sum"],
                    "count": h["count"],
                }
                for key, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`as_dict` output."""
        return cls(
            payload.get("counters"),
            payload.get("gauges"),
            payload.get("histograms"),
        )

    def to_prom(self) -> str:
        """Prometheus text exposition of the snapshot.

        Counters and gauges one line per sample; histograms expand to
        cumulative ``_bucket{le=...}`` lines plus ``_sum``/``_count``,
        so the file scrapes into any Prometheus-compatible stack.
        """
        lines: list[str] = []
        for key in sorted(self.counters):
            lines.append(f"{key} {_fmt(self.counters[key])}")
        for key in sorted(self.gauges):
            lines.append(f"{key} {_fmt(self.gauges[key])}")
        for key in sorted(self.histograms):
            hist = self.histograms[key]
            family, labels = split_sample_key(key)
            cumulative = 0
            bounds = [*hist["bounds"], float("inf")]
            for bound, count in zip(bounds, hist["counts"]):
                cumulative += count
                le = "+Inf" if bound == float("inf") else _fmt(bound)
                lines.append(
                    f"{family}_bucket{_with_label(labels, 'le', le)}"
                    f" {cumulative}"
                )
            lines.append(f"{family}_sum{labels} {_fmt(hist['sum'])}")
            lines.append(f"{family}_count{labels} {hist['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Render a sample value, preferring integer form when exact."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _with_label(labels: str, key: str, value: str) -> str:
    """Insert ``key="value"`` into an encoded ``{...}`` label suffix."""
    extra = f'{key}="{value}"'
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


class MetricsRegistry:
    """Process-local registry of counters, gauges and histograms.

    Metric objects are memoized by encoded sample key, so a hot loop
    can resolve its counter once (``c = registry.counter(...)``) and
    pay only an uncontended-lock increment per event.  A single lock
    guards all mutation; at micro-batch granularity the contention is
    negligible and snapshots are internally consistent.

    Three inputs fold into every :meth:`snapshot`: the live metric
    objects, registered *collectors* (callables returning counter
    samples — the bridge for ``CacheStats``/``VerdictCacheStats``),
    and the *absorbed* snapshot accumulated from worker deltas via
    :meth:`absorb` or restored from checkpoints via :meth:`restore`.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[[], Mapping[str, float]]] = []
        self._absorbed = MetricsSnapshot()
        self._shipped = MetricsSnapshot()

    # -- instrument creation ----------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + labels (created on first use)."""
        key = sample_key(name, **labels)
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter(self._lock)
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + labels (created on first use)."""
        key = sample_key(name, **labels)
        with self._lock:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge(self._lock)
        return gauge

    def histogram(
        self,
        name: str,
        *,
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram for ``name`` + labels (created on first use)."""
        key = sample_key(name, **labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(
                    self._lock, buckets
                )
        return hist

    def span(self, name: str, **labels: object) -> Span:
        """A timer recording into the ``{name}_seconds`` histogram."""
        return Span(self.histogram(f"{name}_seconds", **labels))

    # -- collectors and merging -------------------------------------

    def add_collector(
        self, collect: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register a callable sampled at snapshot time.

        ``collect()`` returns encoded counter samples (build keys with
        :func:`sample_key`); its values fold into every snapshot's
        counters.  This keeps legacy plain-int stat objects on their
        lock-free hot paths while the registry owns exposition.
        """
        with self._lock:
            self._collectors.append(collect)

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a shipped delta (or restored snapshot) into this view."""
        with self._lock:
            self._absorbed = self._absorbed.merge(snapshot)

    def restore(self, snapshot: MetricsSnapshot) -> None:
        """Seed from a checkpointed snapshot (alias of :meth:`absorb`)."""
        self.absorb(snapshot)

    def snapshot(self) -> MetricsSnapshot:
        """Consistent sample: live metrics ⊕ collectors ⊕ absorbed."""
        collected = [collect() for collect in list(self._collectors)]
        with self._lock:
            live = MetricsSnapshot(
                {k: c.value for k, c in self._counters.items()},
                {k: g.value for k, g in self._gauges.items()},
                {
                    k: {
                        "bounds": h.bounds,
                        "counts": h.counts,
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in self._histograms.items()
                },
            )
            absorbed = self._absorbed
        for samples in collected:
            for key, value in samples.items():
                live.counters[key] = live.counters.get(key, 0.0) + value
        return absorbed.merge(live)

    def snapshot_delta(self) -> MetricsSnapshot:
        """The delta since the last call (first call: everything).

        Resident fleet workers call this once per round and ship the
        result in their round answer; the manager absorbs it.  The
        sequence of deltas merges back to the full snapshot.
        """
        with self._lock:
            shipped = self._shipped
        current = self.snapshot()
        delta = current.diff(shipped)
        with self._lock:
            self._shipped = current
        return delta


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for :data:`NULL_METRICS`."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The metrics-off registry: same surface, no recording.

    Hot paths hold references to its shared no-op instruments, so the
    disabled cost is one attribute call per site; ``span`` still times
    (callers read ``.elapsed`` for reports) but records nowhere.
    """

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, *, buckets: Iterable[float] = (), **labels: object
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(self, name: str, **labels: object) -> Span:
        return Span(None)

    def add_collector(
        self, collect: Callable[[], Mapping[str, float]]
    ) -> None:
        pass

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        pass

    def restore(self, snapshot: MetricsSnapshot) -> None:
        pass

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def snapshot_delta(self) -> MetricsSnapshot:
        return MetricsSnapshot()


#: The process-wide metrics-off singleton; share it, never mutate it.
NULL_METRICS = NullRegistry()
