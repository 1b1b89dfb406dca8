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
(``run``, ``stream``, ``fleet``) reaches -- runs
:func:`~repro.core.dayloop.close_day` over the full window and commits
the histories.  A subclass supplies only what differs between the two
paths: its line reader, its C&C stage and its frontier scorer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..config import SystemConfig
from ..core.dayloop import DayReport, close_day, detect_day
from ..logs.records import Connection, ConnectionBatch
from ..obs.logs import get_logger, log_event
from ..obs.metrics import NULL_METRICS
from ..profiling.history import DestinationHistory
from ..profiling.ua import UserAgentHistory
from ..profiling.window import WindowedAggregator
from ..timing.detector import AutomationDetector, AutomationVerdict
from .incremental import WarmStartConfig, warm_start_applies
from .verdicts import SeriesVerdictCache, VerdictCacheStats

_LOG = get_logger("stream")

#: Rows per poll of :meth:`StreamingEngineBase.ingest_lines`: a day's
#: transient ingest memory is one chunk of raw columns, not the whole
#: file.  Above :data:`repro.profiling.rare._SMALL_SPAN`, so every full
#: chunk takes the lexsort grouping route.
INGEST_CHUNK = 8192

#: What ``submit`` / ``ingest`` accept: one event, one columnar batch,
#: or any iterable of either.
Submission = (
    Iterable[Connection | ConnectionBatch] | Connection | ConnectionBatch
)


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
    implements :meth:`_cc_scores` and :meth:`_new_scorer`.
    """

    #: Fewest same-day hosts a rare domain needs before the pipeline's
    #: C&C stage (:meth:`_cc_scores`) can act on any of its series
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

    def ingest_lines(self, lines: Iterable[str]) -> int:
        """Read log lines through the pipeline's reader (reduce +
        normalize) and :meth:`ingest` them :data:`INGEST_CHUNK` rows at
        a time; returns how many events that is.

        The day holds its aggregate plus one chunk of raw columns,
        whatever the file's size; the day's close does not depend on
        the chunking.
        """
        # ``map`` drops each chunk once ingested, before the reader
        # builds the next.
        return sum(map(
            self.ingest, self.reader.read_lines(lines, INGEST_CHUNK)
        ))

    def submit_raw(self, records: Iterable, **reader_keywords) -> int:
        """Reduce/normalize in-memory raw records (the pipeline's
        ``DnsRecord`` or ``ProxyRecord``) onto the pending list.

        ``reader_keywords`` pass to the reader's ``read_records``: the
        proxy path's ``resolver`` joins dynamic client addresses
        against DHCP/VPN leases; omit it for pre-joined records (the
        form every layout ships, and the one :meth:`ingest_lines` takes
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
        digest, flips = self.window.ingest(batch)
        total = digest.n_events
        named_pairs = digest.named_pairs
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
            domain for _, domain in named_pairs if domain in rare
        )
        stale = self._stale_pairs
        stale.update(named_pairs)
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
        for key, chunk in zip(named_pairs, digest.chunks):
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

    def _cc_scores(self, traffic, verdicts) -> dict[str, float]:
        """The pipeline's ``Detect_C&C`` stage over the day's automated
        verdicts: C&C domain -> its score."""
        raise NotImplementedError

    def _new_scorer(self, traffic):
        """A fresh :data:`~repro.core.beliefprop.ScoreFrontier` hook
        over ``traffic``."""
        raise NotImplementedError

    def _round_scorer(self, traffic):
        """The frontier scorer of the scoring round about to run
        (:attr:`_day_scorer` is already dropped when the round is
        cold): a fresh one unless the pipeline keeps one per day."""
        return self._new_scorer(traffic)

    def _scoring_round(self):
        """Context manager held across one :meth:`score` round."""
        return nullcontext()

    def score(self) -> DayReport:
        """Re-score the current window and return the day so far.

        The batch path's daily stages in no-hint mode -- automation
        test, C&C stage, belief propagation -- but each stage touches
        only state invalidated since the previous call, and belief
        propagation warm-starts from the previous round when safe.  A
        chain of warm rounds is one run of Algorithm 1: it spends one
        ``max_iterations`` between them, so ``detected`` holds at most
        the round's seeds plus ``max_iterations x
        max_domains_per_iteration`` similarity labels (and what
        ``Detect_C&C`` labels inside the run); only a cold (``"full"``)
        round starts a new run.  The report's ``mode`` says which kind
        of round it was (``"idle"``: nothing to propagate), and it
        holds a copy of the rare set, so it never changes afterwards.
        """
        traffic = self.window.traffic
        rare = set(self.window.rare)
        verdicts = self._refresh_verdicts()
        with self._scoring_round():
            cc = set(self._cc_scores(traffic, verdicts))

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
                    report = detect_day(
                        traffic,
                        rare,
                        cc=cc,
                        new_scorer=lambda: self._round_scorer(traffic),
                        config=self.config.belief_propagation,
                        prior=self.prior if use_warm else None,
                        metrics=self.metrics,
                    )
                self.prior = report.bp_result
                report.mode = "warm" if use_warm else "full"
            else:
                report = DayReport(
                    traffic.day, rare, cc_domains=cc, mode="idle"
                )
            self.dirty_domains.clear()
        report.records = self.window.events_today
        self.metrics.counter(
            "stream_score_rounds_total", mode=report.mode
        ).inc()
        return report

    # ------------------------------------------------------------------
    # Day boundary
    # ------------------------------------------------------------------

    def rollover(self, *, detect: bool = True, **seeding) -> DayReport:
        """Close the day: end-of-day detection, then commit histories.

        The paper's nightly cycle (III-E), written once: the rare set
        is the window's (kept equal to ``extract_rare_domains`` over
        the day's traffic as events arrive) and the automation test
        rescans every rare series -- no verdict is carried over from
        the intra-day rounds, so the report depends on the day's events
        and not on how they were micro-batched.  ``seeding`` passes to
        :func:`~repro.core.dayloop.close_day` by keyword, on either
        pipeline: ``intel_domains`` (externally confirmed malicious
        domains, e.g. another tenant's detections shared through a
        fleet's intel plane), ``ct_edges``, and the SOC hints
        ``hint_hosts`` and ``soc_seed_domains``.  Events submitted but
        not yet polled belong to the day being closed and are folded
        in first.  Histories commit exactly once, in
        :meth:`WindowedAggregator.rollover`.
        """
        self.poll()
        with self.metrics.span("rollover_rare") as rare_span:
            traffic = self.window.traffic
            traffic.finalize()
            rare = self.window.rare
        if detect:
            report = close_day(
                traffic,
                rare,
                automation=self.automation,
                cc_stage=self._cc_scores,
                new_scorer=lambda: self._new_scorer(traffic),
                config=self.config.belief_propagation,
                metrics=self.metrics,
                **seeding,
            )
            self.metrics.counter("stream_detections_total").inc(
                len(report.detected)
            )
        else:
            report = DayReport(day=self.window.day, rare_domains=rare)
        report.records = self.window.events_today
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
    batches: int = 0
    interrupted: bool = False
    #: rows flushed to the durable intel store; ``None`` without one
    intel_rows: int | None = None


def resolve_replay_paths(
    directory: str | Path,
    pattern: str,
    bootstrap_files: int,
    *,
    batch_size: int = 1,
    score_every: int = 1,
    checkpoint_every: int = 1,
    max_batches: int | None = None,
) -> list[Path]:
    """The directory's daily log files, once the arguments are known
    good: a non-negative bootstrap count with at least one operational
    file after it and, for a micro-batched replay, a positive batch
    size, positive scoring/checkpoint cadences and a positive batch
    bound if any.
    ``run`` and ``stream`` both resolve their arguments here."""
    if bootstrap_files < 0:
        raise ValueError(
            f"--bootstrap-files must not be negative, not {bootstrap_files}"
        )
    for flag, value in (
        ("--batch-size", batch_size),
        ("--score-every", score_every),
        ("--checkpoint-every", checkpoint_every),
        ("--max-batches", max_batches),
    ):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be positive, not {value}")
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
    report: DayReport, path: Path, *, bootstrap: bool
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
    a fresh start (not resuming, or nothing was written yet).  The one
    check of the ``--resume`` / ``--checkpoint`` pair."""
    if checkpoint_path is None:
        if resume:
            raise ValueError("--resume requires --checkpoint")
        return None
    path = Path(checkpoint_path)
    if not path.parent.is_dir():
        raise ValueError(f"checkpoint directory not found: {path.parent}")
    if path.is_dir():
        raise ValueError(f"checkpoint is a directory: {path}")
    return path if resume and path.exists() else None


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
    checkpoint (they define what the stream has already seen), but a
    checkpoint holds no policy -- it is the caller's current choice.
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
