"""Shared machinery of the streaming detection engines.

Both online engines -- the DNS/LANL-path
:class:`~repro.streaming.detector.StreamingDetector` and the
enterprise/proxy-path
:class:`~repro.streaming.enterprise.StreamingEnterpriseDetector` --
consume events the same way: queue submissions on a pending list,
fold it per ``poll()`` into a
:class:`~repro.profiling.window.WindowedAggregator` (whose day traffic
grows its scoring rows and change feeds in the same ingest pass,
keeping frontier scoring rebuild-free), note which rare domains
changed since the last scoring round, and re-test only the (host,
domain) timestamp series that saw new events through a period-aware
:class:`~repro.streaming.verdicts.SeriesVerdictCache`.

:class:`StreamingEngineBase` holds that pipeline-independent state and
is the *scheduler* of the paper's daily loop: :meth:`~StreamingEngineBase
.score` runs :func:`~repro.core.dayloop.detect_day` intra-day over the
window's own graph views, warm-started from the previous round, and
:meth:`~StreamingEngineBase.rollover` -- the one end of day every verb
(``run``, ``stream``, ``fleet``) reaches -- runs the pipeline's
end-of-day routine over the full window and commits the histories.  A
subclass supplies only what differs between the two paths: its line
reader, its C&C stage, its round scorer and its end-of-day call.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..config import SystemConfig
from ..core.beliefprop import BeliefPropagationResult
from ..core.dayloop import detect_day
from ..logs.records import Connection, ConnectionBatch
from ..obs.logs import get_logger, log_event
from ..obs.metrics import NULL_METRICS
from ..profiling.history import DestinationHistory
from ..profiling.rare import extract_rare_domains
from ..profiling.ua import UserAgentHistory
from ..profiling.window import WindowedAggregator
from ..timing.detector import AutomationDetector, AutomationVerdict
from .incremental import WarmStartConfig, warm_start_applies
from .verdicts import SeriesVerdictCache, VerdictCacheStats

_LOG = get_logger("stream")

#: What ``submit`` / ``ingest`` accept: one event, one columnar batch,
#: or any iterable of either.
Submission = (
    Iterable[Connection | ConnectionBatch] | Connection | ConnectionBatch
)


@dataclass(frozen=True)
class StreamUpdate:
    """Snapshot of the current day's detections after a scoring round."""

    day: int
    events_today: int
    rare_count: int
    cc_domains: frozenset[str]
    detected: tuple[str, ...]
    mode: str
    """``"warm"``, ``"full"`` or ``"idle"`` (nothing to propagate)."""

    bp_result: BeliefPropagationResult | None = None


@dataclass
class StreamDayReport:
    """End-of-day report of one :meth:`StreamingEngineBase.rollover`.

    ``records`` counts reduced connections (post-funnel).
    """

    day: int
    records: int
    rare_domains: set[str]
    cc_domains: set[str] = field(default_factory=set)
    detected: list[str] = field(default_factory=list)
    bp_result: BeliefPropagationResult | None = None
    intel_seeded: set[str] = field(default_factory=set)
    """Domains seeded from shared intelligence (fleet mode)."""

    ct_seeded: set[str] = field(default_factory=set)
    """Domains pulled in through CT SAN-pivot sibling edges."""

    day_result: "object | None" = None
    """The enterprise path's full :class:`repro.core.DayResult` (both
    belief-propagation modes, scored C&C domains); ``None`` on the
    DNS path."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per rollover stage (``rare``, ``automation``,
    ``cc``, ``bp``, ``commit``); always measured, observability only."""

    path: Path | None = None
    """The log file the day was read from, where the driver pairs a
    report with one (:func:`repro.runner.run_directory`)."""

    def publication_scores(self) -> dict[str, float]:
        """Detected domain -> the score to publish it with (a fleet's
        intel board, ``stream --intel-db``): seed and C&C labels count
        as confirmed (1.0), similarity labels keep their labeling
        score."""
        scores: dict[str, float] = {}
        if self.bp_result is not None:
            for detection in self.bp_result.detections:
                if detection.reason in ("seed", "cc"):
                    scores[detection.domain] = 1.0
                else:
                    scores[detection.domain] = detection.score
        for domain in self.detected:
            scores.setdefault(domain, 1.0)
        return scores


class StreamingEngineBase:
    """Ingestion, windowing, verdict invalidation and the day loop's
    schedule, shared by both engines.

    This base guarantees that whatever the pipeline, the window's
    indexes, the dirty-domain set and the cached automation verdicts
    stay mutually consistent as events arrive, and that a checkpoint
    restore can rebuild all derived state with :meth:`resync`.  A
    subclass passes its line ``reader`` (anything with
    ``read_lines(lines, batch_size)`` yielding
    :class:`~repro.logs.records.ConnectionBatch` columns) and
    implements :meth:`_cc_domains`, :meth:`_round_scorer` and
    :meth:`_detect_day`.
    """

    #: Fewest same-day hosts a rare domain needs before the pipeline's
    #: C&C stage (:meth:`_cc_domains`) can act on any of its series
    #: verdicts.  Below it a stale series is not tested at all.  1 (a
    #: single-host beacon can be C&C) unless the subclass's stage says
    #: otherwise.
    cc_min_hosts = 1

    def __init__(
        self,
        *,
        config: SystemConfig,
        reader,
        history: DestinationHistory,
        automation: AutomationDetector,
        ua_history: UserAgentHistory | None = None,
        warm: WarmStartConfig | None = None,
        start_day: int = 0,
        metrics=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.config = config
        self.reader = reader
        self.history = history
        self.automation = automation
        #: the window's first day: a replay's file index is the offset
        #: of ``window.day`` from it.
        self.start_day = start_day
        self.window = WindowedAggregator(
            start_day,
            history,
            unpopular_max_hosts=config.rarity.unpopular_max_hosts,
            ua_history=ua_history,
        )
        #: what the window's graph views cannot answer: rarity flips
        #: and rare domains with new events since the last scoring
        #: round (every rare domain after a restore).
        self.dirty_domains: set[str] = set()
        #: submitted, not yet polled: scalar events and whole columnar
        #: batches, in arrival order.
        self._pending: list[Connection | ConnectionBatch] = []
        self.warm = warm or WarmStartConfig()
        self.prior = None
        #: frontier scorer a subclass keeps across rounds; derived from
        #: ``prior`` and the window, so never checkpointed.
        self._day_scorer = None
        self._verdicts: dict[tuple[str, str], AutomationVerdict] = {}
        self._stale_pairs: set[tuple[str, str]] = set()
        #: today's domains with at least ``cc_min_hosts`` hosts.
        self._cc_reachable: set[str] = set()
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

    @property
    def events_pending(self) -> int:
        """Events submitted but not yet polled into the window."""
        return sum(
            len(item) if item.__class__ is ConnectionBatch else 1
            for item in self._pending
        )

    def submit(self, connections: Submission) -> int:
        """Queue already-normalized connections for the next
        :meth:`poll`; returns how many events that is.

        Accepts a single :class:`~repro.logs.records.Connection`, one
        columnar :class:`~repro.logs.records.ConnectionBatch`, or any
        iterable of either (generators included).  Batches queue whole
        and ingest through the columnar path.
        """
        if isinstance(connections, (Connection, ConnectionBatch)):
            connections = (connections,)
        queue = self._pending.append
        count = 0
        for item in connections:
            size = len(item) if item.__class__ is ConnectionBatch else 1
            if size:
                queue(item)
                count += size
        return count

    def submit_lines(self, lines: Iterable[str]) -> int:
        """Read log lines through the pipeline's reader (reduce +
        normalize) onto the pending list."""
        return self.submit(self.reader.read_lines(lines))

    def submit_raw(self, records: Iterable, **reader_keywords) -> int:
        """Reduce/normalize in-memory raw records (the pipeline's
        ``DnsRecord`` or ``ProxyRecord``) onto the pending list.

        ``reader_keywords`` pass to the reader's ``read_records``: the
        proxy path's ``resolver`` joins dynamic client addresses
        against DHCP/VPN leases; omit it for pre-joined records (the
        form every layout ships, and the one :meth:`submit_lines` takes
        log lines in).
        """
        return self.submit(
            self.reader.read_records(records, **reader_keywords)
        )

    def poll(self) -> int:
        """Fold everything submitted so far into the window, in arrival
        order, through one grouping pass; returns events consumed."""
        items = self._pending
        if not items:
            return 0
        self._pending = []
        self._polls_counter.inc()
        with self.metrics.span("stream_ingest"):
            events = self._ingest(items)
        self._events_counter.inc(events)
        return events

    def ingest(self, connections: Submission) -> int:
        """Synchronous convenience: :meth:`submit` one micro-batch and
        :meth:`poll` it (with anything queued before it)."""
        submitted = self.submit(connections)
        self.poll()
        return submitted

    def _ingest(
        self, batch: Sequence[Connection | ConnectionBatch]
    ) -> int:
        # A polled item list mixes scalar events and whole columnar
        # batches; the window (via the columnar traffic store) stages
        # them all in arrival order and folds the poll through ONE
        # grouping pass.
        digest = self.window.ingest(batch)
        total = digest.n_events
        self.events_total += total
        dirty_pairs, flips = self.window.drain_changes()
        rare = self.window.rare
        hosts_by_domain = self.window.traffic.hosts_by_domain
        dirty = self.dirty_domains
        dirty.update(flips)
        for domain in flips:
            if domain not in rare:
                for host in hosts_by_domain[domain]:
                    self._verdicts.pop((host, domain), None)
                    self._series_cache.invalidate((host, domain))
        dirty.update(
            domain for _, domain in dirty_pairs if domain in rare
        )
        stale = self._stale_pairs
        stale.update(dirty_pairs)
        # Host counts only grow, and only for ``digest.domains``.  A
        # domain reaching the C&C floor has no cached series state --
        # its pairs were skipped so far -- so all of them go stale and
        # the cache rebuilds each from its full series.  (One that is
        # not rare by now never will be: nothing to re-test.)
        reachable = self._cc_reachable
        floor = self.cc_min_hosts
        for domain in digest.domains:
            if domain not in reachable:
                hosts = hosts_by_domain[domain]
                if len(hosts) >= floor:
                    reachable.add(domain)
                    if domain in rare:
                        stale.update((host, domain) for host in hosts)
        # The digest's per-pair chunks are exactly the poll's
        # timestamps (sorted within the poll -- the verdict cache
        # sorts pending times anyway), so pending bookkeeping is per
        # *pair*, not per event -- and only for pairs the next refresh
        # will hand to the cache.
        pending = self._pending_times
        for key, chunk in zip(digest.named_pairs, digest.chunks):
            domain = key[1]
            if domain in reachable and domain in rare:
                times = pending.get(key)
                if times is None:
                    pending[key] = list(chunk)
                else:
                    times += chunk
        return total

    # ------------------------------------------------------------------
    # Verdict refresh (intra-day scoring support)
    # ------------------------------------------------------------------

    def _refresh_verdicts(self) -> list[AutomationVerdict]:
        """Re-test only (host, domain) series with new events, and of
        those only the ones whose verdict the C&C stage can read.

        A rare domain with fewer than :attr:`cc_min_hosts` hosts today
        cannot be labeled whatever its series look like, so its stale
        pairs never reach the cache (``unreachable_skips``);
        :meth:`_ingest` re-stales them when the domain reaches the
        floor.  For the rest the :class:`SeriesVerdictCache` makes each
        re-test proportional to the *new* events: short series skip the
        histogram entirely, append-only arrivals extend the cached
        clusters, and on-period beacons skip even the divergence
        recomputation.
        """
        self.window.traffic.finalize()
        rare = self.window.rare
        reachable = self._cc_reachable
        pending = self._pending_times
        verdicts = self._verdicts
        cache = self._series_cache
        connection_times = self.window.traffic.connection_times
        not_rare = unreachable = 0
        for pair in self._stale_pairs:
            domain = pair[1]
            if domain not in rare:
                # Not a candidate; the rarity-flip handling already
                # cleared any verdict it could have had.
                verdicts.pop(pair, None)
                not_rare += 1
                continue
            if domain not in reachable:
                unreachable += 1
                continue
            verdict = cache.test(
                pair[0], domain,
                connection_times(pair[0], domain),
                pending.pop(pair, ()),
            )
            if verdict.automated:
                verdicts[pair] = verdict
            else:
                verdicts.pop(pair, None)
        cache.stats.not_rare_skips += not_rare
        cache.stats.unreachable_skips += unreachable
        self._stale_pairs.clear()
        self._pending_times.clear()
        return [verdicts[pair] for pair in sorted(verdicts)]

    # ------------------------------------------------------------------
    # Intra-day scoring
    # ------------------------------------------------------------------

    def _cc_domains(self, traffic, verdicts) -> set[str]:
        """The pipeline's C&C stage over the day's automated verdicts."""
        raise NotImplementedError

    def _round_scorer(self, traffic):
        """The :data:`~repro.core.beliefprop.ScoreFrontier` hook of the
        scoring round about to run (:attr:`_day_scorer` is already
        dropped when the round is cold)."""
        raise NotImplementedError

    def _scoring_round(self):
        """Context manager held across one :meth:`score` round."""
        return nullcontext()

    def score(self) -> StreamUpdate:
        """Re-score the current window and return the live detections.

        The batch path's daily stages in no-hint mode -- automation
        test, C&C stage, belief propagation -- but each stage touches
        only state invalidated since the previous call, and belief
        propagation warm-starts from the previous round when safe.  A
        chain of warm rounds is one run of Algorithm 1: it spends one
        ``max_iterations`` between them, so ``detected`` holds at most
        the round's seeds plus ``max_iterations x
        max_domains_per_iteration`` similarity labels (and what
        ``Detect_C&C`` labels inside the run); only a cold (``"full"``)
        round starts a new run.
        """
        traffic = self.window.traffic
        rare = self.window.rare
        verdicts = self._refresh_verdicts()
        with self._scoring_round():
            cc = self._cc_domains(traffic, verdicts)

            # C&C verdicts are not monotone: new irregular events can
            # flip a series back to not-automated or push a regression
            # score back below Tc.  If a domain the prior round believed
            # C&C-like (a seed or a Detect_C&C label) no longer is,
            # every belief derived from it is suspect -- drop the prior
            # entirely so this round recomputes cold.
            if self.prior is not None:
                prior_cc = {
                    d.domain for d in self.prior.detections
                    if d.reason in ("seed", "cc")
                }
                if not prior_cc <= cc:
                    self.prior = None

            detected: list[str] = []
            mode = "idle"
            # A C&C domain has hosts today, so this is "seed hosts or
            # a prior": the rounds in which ``detect_day`` propagates.
            if cc or self.prior is not None:
                use_warm = warm_start_applies(
                    rare, self.dirty_domains, self.prior, self.warm
                )
                if not use_warm:
                    # A cold round restarts M from the seeds; a scorer
                    # that absorbed the old M cannot follow.
                    self._day_scorer = None
                with self.metrics.span("stream_score"):
                    detection = detect_day(
                        traffic,
                        rare,
                        cc=cc,
                        new_scorer=lambda: self._round_scorer(traffic),
                        config=self.config.belief_propagation,
                        prior=self.prior if use_warm else None,
                        metrics=self.metrics,
                    )
                self.prior = detection.bp_result
                detected = detection.detected
                mode = "warm" if use_warm else "full"
            self.dirty_domains.clear()
        self.metrics.counter("stream_score_rounds_total", mode=mode).inc()
        return StreamUpdate(
            day=self.window.day,
            events_today=self.window.events_today,
            rare_count=len(rare),
            cc_domains=frozenset(cc),
            detected=tuple(detected),
            mode=mode,
            bp_result=self.prior,
        )

    # ------------------------------------------------------------------
    # Day boundary
    # ------------------------------------------------------------------

    def _detect_day(self, report: StreamDayReport, traffic, **seeding) -> None:
        """Run the pipeline's end-of-day routine over ``traffic`` and
        ``report.rare_domains``; fill the detection fields of
        ``report`` (its ``stage_seconds`` with the stages it timed)."""
        raise NotImplementedError

    def rollover(self, *, detect: bool = True, **seeding) -> StreamDayReport:
        """Close the day: end-of-day detection, then commit histories.

        The paper's nightly cycle (III-E), written once: the rare set
        is re-extracted from the full window and the automation test
        rescans every rare series -- nothing is carried over from the
        intra-day rounds, so the report depends on the day's events
        and not on how they were micro-batched.  ``seeding`` passes to
        the pipeline's routine (:meth:`_detect_day`) by keyword:
        ``intel_domains`` (externally confirmed malicious domains, e.g.
        another tenant's detections shared through a fleet's intel
        plane), ``ct_edges``, and the pipeline's SOC hints
        (``hint_hosts`` on the DNS path, ``soc_seed_domains`` on the
        enterprise path).  Events submitted but not yet polled belong
        to the day being closed and are folded in first.  Histories
        commit exactly once, in :meth:`WindowedAggregator.rollover`.
        """
        self.poll()
        with self.metrics.span("rollover_rare") as rare_span:
            traffic = self.window.traffic
            traffic.finalize()
            rare = extract_rare_domains(
                traffic,
                self.history,
                unpopular_max_hosts=self.config.rarity.unpopular_max_hosts,
            )
        report = StreamDayReport(
            day=self.window.day,
            records=self.window.events_today,
            rare_domains=rare,
        )
        if detect:
            self._detect_day(report, traffic, **seeding)
            self.metrics.counter("stream_detections_total").inc(
                len(report.detected)
            )
        with self.metrics.span("rollover_commit") as commit_span:
            self._reset_day()
        report.stage_seconds = {
            "rare": rare_span.elapsed,
            **report.stage_seconds,
            "commit": commit_span.elapsed,
        }
        self.metrics.counter("stream_days_total").inc()
        return report

    def _reset_day(self) -> None:
        """Close the window (committing histories once) and clear all
        per-day derived state for the next day."""
        with self.metrics.span("window_rollover"):
            self.window.rollover()
        self.dirty_domains.clear()
        self.prior = None
        self._day_scorer = None
        self._verdicts.clear()
        self._stale_pairs.clear()
        self._cc_reachable.clear()
        self._series_cache.clear()
        self._pending_times.clear()

    # ------------------------------------------------------------------
    # Restore plumbing
    # ------------------------------------------------------------------

    def resync(self) -> None:
        """Rebuild all derived state from the window (restore path)."""
        self.window.resync()
        self.dirty_domains = set(self.window.rare)
        self._day_scorer = None
        self._verdicts.clear()
        self._series_cache.clear()
        self._pending_times.clear()
        traffic = self.window.traffic
        self._stale_pairs = {pair for pair, _ in traffic.series()}
        floor = self.cc_min_hosts
        self._cc_reachable = {
            domain for domain, hosts in traffic.hosts_by_domain.items()
            if len(hosts) >= floor
        }


# ---------------------------------------------------------------------------
# Directory replay: the resolver, the rollover event and the loop of ``stream``
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """What a (possibly interrupted) directory replay produced."""

    reports: list = field(default_factory=list)
    updates: int = 0
    batches: int = 0
    interrupted: bool = False


def resolve_replay_paths(
    directory: str | Path,
    pattern: str,
    bootstrap_files: int,
    *,
    score_every: int = 1,
    checkpoint_every: int = 1,
    max_batches: int | None = None,
) -> list[Path]:
    """The directory's daily log files, once the arguments are known
    good: a non-negative bootstrap count with at least one operational
    file after it and, for a micro-batched replay, positive
    scoring/checkpoint cadences and a positive batch bound if any.
    ``run`` and ``stream`` both resolve their arguments here."""
    if bootstrap_files < 0:
        raise ValueError("bootstrap_files must not be negative")
    if score_every < 1:
        raise ValueError("score_every must be positive")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    if max_batches is not None and max_batches < 1:
        raise ValueError("max_batches must be positive")
    directory = Path(directory)
    if not directory.is_dir():
        problem = ("not a directory" if directory.exists()
                   else "directory not found")
        raise ValueError(f"{problem}: {directory}")
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise ValueError(f"no file in {directory} matches {pattern!r}")
    if len(paths) <= bootstrap_files:
        raise ValueError(
            f"need more than {bootstrap_files} files in {directory}, "
            f"found {len(paths)}"
        )
    return paths


def log_day_rollover(
    report: StreamDayReport, path: Path, *, bootstrap: bool
) -> None:
    """The ``day_rollover`` event of one closed log file; ``run`` and
    ``stream`` emit it from their loops."""
    log_event(
        _LOG,
        "day_rollover",
        day=report.day,
        file=path.name,
        records=report.records,
        rare=len(report.rare_domains),
        detected=len(report.detected),
        bootstrap=bootstrap,
    )


def checkpoint_to_resume(
    checkpoint_path: str | Path | None, resume: bool
) -> Path | None:
    """The checkpoint a replay restores its engine from; ``None`` for
    a fresh start (not resuming, or nothing was written yet)."""
    folder = None if checkpoint_path is None else Path(checkpoint_path).parent
    if folder is not None and not folder.is_dir():
        raise ValueError(f"checkpoint directory not found: {folder}")
    if not resume:
        return None
    if checkpoint_path is None:
        raise ValueError("resume requires a checkpoint path")
    path = Path(checkpoint_path)
    return path if path.exists() else None


def drive_replay(
    detector: StreamingEngineBase,
    paths: Sequence[Path],
    *,
    bootstrap_files: int,
    batch_size: int,
    score_every: int,
    warm: WarmStartConfig | None,
    checkpoint_path: str | Path | None,
    checkpoint_every: int,
    max_batches: int | None,
    on_update,
) -> ReplayResult:
    """Feed daily log files through a streaming engine, micro-batched.

    The single replay loop both pipelines share.  Files are read through
    the engine's own reader in ``batch_size`` micro-batches, with a
    scoring round every ``score_every`` batches and a day rollover per
    file; with ``checkpoint_path`` the engine's full state is persisted
    every ``checkpoint_every`` micro-batches, after each rollover and
    when ``max_batches`` stops the replay.  The loop invariants live
    here exactly once: each rollover advances the window day, so
    ``window.day``'s offset from the engine's start day is the index of
    the file in progress, and ``window.events_today`` (zero on a fresh
    engine) counts how many of that file's normalized events a restored
    engine consumed before its restart -- those rows are skipped,
    whatever the batch size was then.

    ``warm``, when given, replaces the engine's warm-start policy: a
    restored engine's detection config and histories come from its
    checkpoint (they define what the stream has already seen), but the
    policy is the operator's current choice.
    """
    from ..state import encode_engine, save_json_atomic

    def checkpoint() -> None:
        if checkpoint_path is not None:
            save_json_atomic(
                encode_engine(detector, include_metrics=True),
                checkpoint_path,
            )

    if warm is not None:
        detector.warm = warm
    result = ReplayResult()
    resume_file = detector.window.day - detector.start_day
    skip = detector.window.events_today
    for index, path in enumerate(paths):
        if index < resume_file:
            continue
        is_bootstrap = index < bootstrap_files
        with path.open() as handle:
            for batch in detector.reader.read_lines(handle, batch_size):
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
                result.interrupted = (
                    max_batches is not None and result.batches >= max_batches
                )
                if result.interrupted or result.batches % checkpoint_every == 0:
                    checkpoint()
                if result.interrupted:
                    return result
        skip = 0  # only the file in progress had rows consumed
        report = detector.rollover(detect=not is_bootstrap)
        log_day_rollover(report, path, bootstrap=is_bootstrap)
        if not is_bootstrap:
            result.reports.append(report)
        checkpoint()
    return result
