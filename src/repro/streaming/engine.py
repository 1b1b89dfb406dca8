"""Shared machinery of the streaming detection engines.

Both online engines -- the DNS/LANL-path
:class:`~repro.streaming.detector.StreamingDetector` and the
enterprise/proxy-path
:class:`~repro.streaming.enterprise.StreamingEnterpriseDetector` --
consume events the same way: publish onto a host-sharded
:class:`~repro.streaming.events.EventBus`, drain into a
:class:`~repro.streaming.window.WindowedAggregator` (whose armed
:class:`~repro.profiling.index.TrafficIndex` absorbs each micro-batch,
keeping frontier scoring rebuild-free), mirror rarity
flips into an :class:`~repro.streaming.incremental.IncrementalGraph`,
and re-test only the (host, domain) timestamp series that saw new
events through a period-aware
:class:`~repro.streaming.verdicts.SeriesVerdictCache`.

:class:`StreamingEngineBase` holds exactly that pipeline-independent
state and its invalidation bookkeeping.  What differs between the two
paths -- how log lines are normalized, which scorers turn automation
verdicts into C&C labels, and what the end-of-day batch-parity pass
runs -- lives in the subclasses (``submit_lines()`` / ``submit_raw()``,
``score()`` and ``rollover()``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..logs.records import Connection, ConnectionBatch
from ..obs.logs import get_logger, log_event
from ..obs.metrics import NULL_METRICS
from ..profiling.history import DestinationHistory
from ..profiling.ua import UserAgentHistory
from ..timing.detector import AutomationDetector, AutomationVerdict
from .events import EventBus
from .incremental import IncrementalGraph, WarmStartConfig
from .verdicts import SeriesVerdictCache, VerdictCacheStats
from .window import WindowedAggregator

_LOG = get_logger("stream")


class StreamingEngineBase:
    """Ingestion, windowing and verdict-invalidation shared by engines.

    Subclasses own the detection-specific pieces (scorers, reduction,
    the end-of-day parity pass); this base guarantees that whatever the
    pipeline, the window's indexes, the incremental graph and the
    cached automation verdicts stay mutually consistent as events
    arrive, and that a checkpoint restore can rebuild all derived
    state with :meth:`resync`.
    """

    def __init__(
        self,
        *,
        history: DestinationHistory,
        automation: AutomationDetector,
        unpopular_max_hosts: int,
        ua_history: UserAgentHistory | None = None,
        warm: WarmStartConfig | None = None,
        n_shards: int = 4,
        start_day: int = 0,
        metrics=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.history = history
        self.automation = automation
        self.window = WindowedAggregator(
            start_day,
            history,
            unpopular_max_hosts=unpopular_max_hosts,
            ua_history=ua_history,
        )
        self.graph = IncrementalGraph()
        self.bus = EventBus(n_shards)
        self.warm = warm or WarmStartConfig()
        self.prior = None
        #: frontier scorer a subclass keeps across rounds; derived from
        #: ``prior`` and the window, so never checkpointed.
        self._day_scorer = None
        self._verdicts: dict[tuple[str, str], AutomationVerdict] = {}
        self._stale_pairs: set[tuple[str, str]] = set()
        self._series_cache = SeriesVerdictCache(self.automation)
        self._pending_times: dict[tuple[str, str], list[float]] = {}
        self.events_total = 0
        # Unified registry: the verdict cache's plain-int skip/test
        # counters are sampled into every metrics snapshot.
        self.metrics.add_collector(self._series_cache.stats.metrics_samples)
        self._events_counter = self.metrics.counter("stream_events_total")
        self._polls_counter = self.metrics.counter("stream_polls_total")

    @property
    def verdict_stats(self) -> VerdictCacheStats:
        """Skip/test counters of the period-aware verdict cache."""
        return self._series_cache.stats

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def submit(
        self, connections: Iterable[Connection] | ConnectionBatch
    ) -> int:
        """Publish already-normalized connections onto the event bus.

        Accepts a scalar event iterable or one columnar
        :class:`~repro.logs.records.ConnectionBatch`; batches travel
        through the bus whole and ingest through the columnar path.
        """
        return self.bus.publish(connections)

    def poll(self, max_events: int | None = None) -> int:
        """Drain the bus into the window; returns events consumed."""
        items = self.bus.drain(max_events=max_events)
        if not items:
            return 0
        self._polls_counter.inc()
        with self.metrics.span("stream_ingest"):
            events = self._ingest(items)
        self._events_counter.inc(events)
        return events

    def ingest(self, connections: Iterable[Connection]) -> int:
        """Synchronous convenience: publish one micro-batch and drain it.

        When the bus is empty the publish/drain round-trip is pure
        ceremony -- there is nothing to interleave with, and draining
        right back is order-equivalent to ingesting directly (within a
        day every aggregate is order-insensitive) -- so the batch goes
        straight to the window.  The bus counters advance either way,
        keeping observability identical.
        """
        if len(self.bus) != 0:
            published = self.submit(connections)
            self.poll()
            return published
        if isinstance(connections, (Connection, ConnectionBatch)):
            items: Sequence[Connection | ConnectionBatch] = (connections,)
        elif isinstance(connections, (list, tuple)):
            items = connections
        else:
            items = list(connections)
        if not items:
            return 0
        self._polls_counter.inc()
        with self.metrics.span("stream_ingest"):
            events = self._ingest(items)
        self._events_counter.inc(events)
        self.bus.published += events
        self.bus.drained += events
        return events

    def _ingest(
        self, batch: Sequence[Connection | ConnectionBatch]
    ) -> int:
        # A drained item list mixes scalar events and whole columnar
        # batches; the window (via the columnar traffic store) stages
        # them all in arrival order and folds the poll through ONE
        # grouping pass.
        digest = self.window.ingest(batch)
        total = digest.n_events
        # The digest's per-pair chunks are exactly the poll's
        # timestamps (sorted within the poll -- the verdict cache
        # sorts pending times anyway), so pending bookkeeping is per
        # *pair*, not per event.
        pending = self._pending_times
        for key, chunk in zip(digest.named_pairs, digest.chunks):
            times = pending.get(key)
            if times is None:
                pending[key] = list(chunk)
            else:
                times += chunk
        self.events_total += total
        dirty_pairs, flips = self.window.drain_changes()
        rare = self.window.rare
        for domain in flips:
            if domain in rare:
                # Newly rare: materialize all of its edges so far.
                for host in self.window.traffic.hosts_by_domain[domain]:
                    self.graph.add_edge(host, domain)
            else:
                self.graph.remove_domain(domain)
                for host in self.window.traffic.hosts_by_domain[domain]:
                    self._verdicts.pop((host, domain), None)
                    self._series_cache.invalidate((host, domain))
        for host, domain in dirty_pairs:
            if domain in rare:
                self.graph.add_edge(host, domain)
        self._stale_pairs.update(dirty_pairs)
        return total

    # ------------------------------------------------------------------
    # Verdict refresh (intra-day scoring support)
    # ------------------------------------------------------------------

    def _refresh_verdicts(self) -> list[AutomationVerdict]:
        """Re-test only (host, domain) series with new events.

        The :class:`SeriesVerdictCache` makes each re-test proportional
        to the *new* events: short series skip the histogram entirely,
        append-only arrivals extend the cached clusters, and on-period
        beacons skip even the divergence recomputation.
        """
        self.window.traffic.finalize()
        rare = self.window.rare
        pending = self._pending_times
        verdicts = self._verdicts
        cache = self._series_cache
        timestamps = self.window.traffic.timestamps
        not_rare = 0
        for pair in self._stale_pairs:
            domain = pair[1]
            if domain not in rare:
                # Not a candidate; the rarity-flip handling already
                # cleared any verdict it could have had.
                verdicts.pop(pair, None)
                not_rare += 1
                continue
            verdict = cache.test(
                pair[0], domain,
                timestamps.get(pair, []),
                pending.pop(pair, ()),
            )
            if verdict.automated:
                verdicts[pair] = verdict
            else:
                verdicts.pop(pair, None)
        if not_rare:
            cache.stats.not_rare_skips += not_rare
        self._stale_pairs.clear()
        self._pending_times.clear()
        return [verdicts[pair] for pair in sorted(verdicts)]

    # ------------------------------------------------------------------
    # Day boundary / restore plumbing
    # ------------------------------------------------------------------

    def _reset_day(self) -> None:
        """Close the window (committing histories once) and clear all
        per-day derived state for the next day."""
        with self.metrics.span("window_rollover"):
            self.window.rollover()
        self.graph.clear()
        self.prior = None
        self._day_scorer = None
        self._verdicts.clear()
        self._stale_pairs.clear()
        self._series_cache.clear()
        self._pending_times.clear()

    def resync(self) -> None:
        """Rebuild all derived state from the window (restore path)."""
        self.window.resync()
        self.graph = IncrementalGraph.from_traffic(
            self.window.traffic, self.window.rare
        )
        self._day_scorer = None
        self._verdicts.clear()
        self._series_cache.clear()
        self._pending_times.clear()
        self._stale_pairs = set(self.window.traffic.timestamps)


# ---------------------------------------------------------------------------
# Directory replay driver (shared by both pipelines' replay functions)
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """What a (possibly interrupted) directory replay produced."""

    reports: list = field(default_factory=list)
    updates: int = 0
    batches: int = 0
    interrupted: bool = False


def validate_replay_intervals(score_every: int, checkpoint_every: int) -> None:
    """Reject nonpositive scoring/checkpoint cadences up front."""
    if score_every < 1:
        raise ValueError("score_every must be positive")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")


def resolve_replay_paths(
    directory: str | Path, pattern: str, bootstrap_files: int
) -> list[Path]:
    """The directory's daily log files, validated against the bootstrap
    count (a replay needs at least one operational file)."""
    paths = sorted(Path(directory).glob(pattern))
    if len(paths) <= bootstrap_files:
        raise ValueError(
            f"need more than {bootstrap_files} files in {directory}, "
            f"found {len(paths)}"
        )
    return paths


def drive_replay(
    detector,
    paths: Sequence[Path],
    *,
    bootstrap_files: int,
    open_batches,
    checkpoint,
    resume: bool,
    score_every: int,
    checkpoint_every: int,
    max_batches: int | None,
    on_update,
    resume_file: int,
) -> ReplayResult:
    """Feed daily log files through a streaming engine, micro-batched.

    The single replay loop both pipelines share -- the engine-specific
    pieces arrive as callables: ``open_batches(path)`` yields the
    file's normalized events as :class:`ConnectionBatch` micro-batches
    (owning the handle); ``checkpoint()`` persists the engine (no-op
    without a checkpoint path).  The loop invariants live here exactly
    once: each rollover advances the window day, so ``window.day``'s
    offset from the engine's start day (``resume_file``) is the index
    of the file in progress, and ``window.events_today`` counts how
    many of that file's normalized events were already consumed before
    a restart -- those rows are skipped, whatever the batch size was
    then.
    """
    validate_replay_intervals(score_every, checkpoint_every)
    result = ReplayResult()
    skip_events = detector.window.events_today if resume else 0
    for index, path in enumerate(paths):
        if index < resume_file:
            continue
        is_bootstrap = index < bootstrap_files
        skip = skip_events if index == resume_file else 0
        for batch in open_batches(path):
            if skip:
                if skip >= len(batch):
                    skip -= len(batch)
                    continue
                batch = batch.take(slice(skip, None))
                skip = 0
            detector.submit(batch)
            detector.poll()
            result.batches += 1
            if not is_bootstrap and result.batches % score_every == 0:
                update = detector.score()
                result.updates += 1
                if on_update is not None:
                    on_update(update)
            if result.batches % checkpoint_every == 0:
                checkpoint()
            if max_batches is not None and result.batches >= max_batches:
                checkpoint()
                result.interrupted = True
                return result
        report = detector.rollover(detect=not is_bootstrap)
        log_event(
            _LOG,
            "day_rollover",
            day=report.day,
            file=path.name,
            records=report.records,
            rare=len(report.rare_domains),
            detected=len(report.detected),
            bootstrap=is_bootstrap,
        )
        if not is_bootstrap:
            result.reports.append(report)
        checkpoint()
    return result
