"""Streaming detection facade: the batch detector turned online.

:class:`StreamingDetector` accepts DNS events one at a time or in
micro-batches and keeps a continuously updated view of the current
day's detections, minutes after the evidence arrives instead of at
end-of-day batch close.  It composes the streaming substrates --
:class:`~repro.streaming.events.EventBus`,
:class:`~repro.streaming.window.WindowedAggregator`,
:class:`~repro.streaming.incremental.IncrementalGraph` -- on top of the
*unchanged* batch components (reduction funnel, automation detector,
additive scorer, belief propagation).

**Batch-parity guarantee.**  At a day boundary, :meth:`rollover` runs
:func:`repro.runner.detect_on_traffic` -- the very routine
:class:`~repro.runner.DnsLogRunner` runs -- over the accumulated
window, whose indexes are identical to a bulk aggregation of the same
records.  Replaying a day through the streaming engine therefore
yields exactly the batch pipeline's end-of-day detections; the
intra-day :meth:`score` updates are strictly additional visibility.

Mid-day costs stay proportional to what changed: automation verdicts
are cached per (host, domain) series and recomputed only for pairs
with new events, belief propagation warm-starts from the previous
round's beliefs unless too much of the graph is dirty, and the
frontier scorer lives across rounds -- it follows the window's
:class:`~repro.profiling.index.TrafficIndex` change feed and rescores
only domains whose inputs changed.  It is derived state: dropped
wherever the malicious set can shrink (a cold round, the day boundary,
a restore) and rebuilt from ``prior`` on the next round.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass, field
from pathlib import Path

from ..config import LANL_CONFIG, SystemConfig
from ..core.beliefprop import BeliefPropagationResult
from ..core.scoring import (
    AdditiveSimilarityScorer,
    IncrementalAdditiveScorer,
    SimilarityStats,
    group_verdicts_by_domain,
    multi_host_beacon_heuristic,
)
from ..logs.records import DnsRecord
from ..logs.reduction import ReductionFunnel
from ..profiling.history import DestinationHistory
from ..profiling.rare import extract_rare_domains
from ..profiling.ua import UserAgentHistory
from ..runner import detect_on_traffic
from ..timing.detector import AutomationDetector
from .engine import (
    ReplayResult,
    StreamingEngineBase,
    drive_replay,
    resolve_replay_paths,
    validate_replay_intervals,
)
from .incremental import (
    WarmStartConfig,
    warm_start_applies,
    warm_start_belief_propagation,
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
    """End-of-day report, shaped like the batch runner's.

    ``records`` counts reduced connections (post-funnel), matching
    :attr:`repro.runner.RunnerDayReport.records`.
    """

    day: int
    records: int
    rare_domains: set[str]
    cc_domains: set[str]
    detected: list[str]
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
    ``bp``, ``commit``); always measured, observability only."""


class StreamingDetector(StreamingEngineBase):
    """Online DNS-path detector with checkpointable mid-day state."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        internal_suffixes: tuple[str, ...] = (),
        server_ips: frozenset[str] = frozenset(),
        *,
        history: DestinationHistory | None = None,
        ua_history: UserAgentHistory | None = None,
        warm: WarmStartConfig | None = None,
        n_shards: int = 4,
        metrics=None,
    ) -> None:
        self.config = config or LANL_CONFIG
        self.internal_suffixes = internal_suffixes
        self.server_ips = server_ips
        self.funnel = ReductionFunnel(
            internal_suffixes,
            server_ips,
            fold_level=self.config.rarity.fold_level,
            metrics=metrics,
        )
        self.scorer = AdditiveSimilarityScorer()
        super().__init__(
            history=history if history is not None else DestinationHistory(),
            automation=AutomationDetector(self.config.histogram),
            unpopular_max_hosts=self.config.rarity.unpopular_max_hosts,
            ua_history=ua_history,
            warm=warm,
            n_shards=n_shards,
            metrics=metrics,
        )
        self.similarity_stats = SimilarityStats()
        self.metrics.add_collector(self.similarity_stats.metrics_samples)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def submit_lines(self, lines: Iterable[str]) -> int:
        """Reduce + normalize DNS log lines onto the event bus."""
        return sum(map(self.bus.publish, self.funnel.read_lines(lines)))

    def submit_raw(self, records: Iterable[DnsRecord]) -> int:
        """Reduce + normalize in-memory DNS records onto the event bus."""
        return sum(map(self.bus.publish, self.funnel.read_records(records)))

    # ------------------------------------------------------------------
    # Intra-day scoring
    # ------------------------------------------------------------------

    def score(self, *, hint_hosts: Sequence[str] = ()) -> StreamUpdate:
        """Re-score the current window and return the live detections.

        The same four daily stages as the batch path -- automation test,
        C&C heuristic, belief propagation -- but each stage touches only
        state invalidated since the previous call.
        """
        traffic = self.window.traffic
        verdicts = self._refresh_verdicts()
        verdicts_by_domain = group_verdicts_by_domain(verdicts)
        cc = {
            domain for domain, domain_verdicts in verdicts_by_domain.items()
            if multi_host_beacon_heuristic(domain, domain_verdicts, traffic)
        }
        seed_hosts: set[str] = set(hint_hosts)
        seed_domains: set[str] = set()
        if not seed_hosts:
            seed_domains = set(cc)
            for domain in cc:
                seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))

        # C&C verdicts are not monotone: new irregular events can flip
        # a series back to not-automated.  If a domain the prior round
        # believed C&C-like (a seed or a Detect_C&C label) no longer
        # is, every belief derived from it is suspect -- drop the prior
        # entirely so this round recomputes cold.
        if self.prior is not None:
            prior_cc = {
                d.domain for d in self.prior.detections
                if d.reason in ("seed", "cc")
            }
            if not prior_cc <= cc:
                self.prior = None

        if not seed_hosts and self.prior is None:
            self.graph.clear_dirty()
            self.metrics.counter(
                "stream_score_rounds_total", mode="idle"
            ).inc()
            return StreamUpdate(
                day=self.window.day,
                events_today=self.window.events_today,
                rare_count=len(self.window.rare),
                cc_domains=frozenset(cc),
                detected=(),
                mode="idle",
            )

        # A cold round restarts M from the seeds; the day scorer has
        # absorbed the old M, so it cannot follow.
        if not warm_start_applies(self.graph, self.prior, self.warm):
            self._day_scorer = None
        if self._day_scorer is None:
            self.similarity_stats.cold_restarts += 1
            self._day_scorer = IncrementalAdditiveScorer(
                self.scorer, traffic, stats=self.similarity_stats
            )
        with self.metrics.span("stream_score"):
            result, mode = warm_start_belief_propagation(
                seed_hosts,
                seed_domains,
                graph=self.graph,
                detect_cc=cc.__contains__,
                score_frontier=self._day_scorer.score_frontier,
                config=self.config,
                prior=self.prior,
                warm=self.warm,
                metrics=self.metrics,
            )
        self.metrics.counter("stream_score_rounds_total", mode=mode).inc()
        self.prior = result
        detected = sorted(seed_domains) + [
            d for d in result.detected_domains if d not in seed_domains
        ]
        return StreamUpdate(
            day=self.window.day,
            events_today=self.window.events_today,
            rare_count=len(self.window.rare),
            cc_domains=frozenset(cc),
            detected=tuple(detected),
            mode=mode,
            bp_result=result,
        )

    # ------------------------------------------------------------------
    # Day boundary
    # ------------------------------------------------------------------

    def rollover(
        self,
        *,
        detect: bool = True,
        hint_hosts: Sequence[str] = (),
        intel_domains: Set[str] = frozenset(),
        ct_edges=None,
    ) -> StreamDayReport:
        """Close the day: batch-parity detection, then commit histories.

        The detection pass is :func:`repro.runner.detect_on_traffic`
        over the full window -- the batch pipeline's own code over the
        same aggregate -- so the report equals what
        :class:`~repro.runner.DnsLogRunner` produces for the same
        records.  Histories commit exactly once, in
        :meth:`WindowedAggregator.rollover`.

        ``intel_domains`` are externally confirmed malicious domains
        (e.g. another tenant's detections shared through a fleet's
        intel plane); those that are rare today seed belief propagation
        directly -- see :func:`repro.runner.detect_on_traffic`.
        ``ct_edges`` (a :class:`repro.intelstore.ct.CtIndex`) likewise
        passes straight through; ``None`` keeps detections
        byte-identical to a build without it.
        """
        stage_seconds: dict[str, float] = {}
        with self.metrics.span("rollover_rare") as rare_span:
            traffic = self.window.traffic
            traffic.finalize()
            rare = extract_rare_domains(
                traffic,
                self.history,
                unpopular_max_hosts=self.config.rarity.unpopular_max_hosts,
            )
        stage_seconds["rare"] = rare_span.elapsed
        if detect:
            detection = detect_on_traffic(
                traffic,
                rare,
                automation=self.automation,
                scorer=self.scorer,
                config=self.config,
                hint_hosts=hint_hosts,
                intel_domains=intel_domains,
                ct_edges=ct_edges,
                metrics=self.metrics,
            )
            stage_seconds.update(detection.stage_seconds)
            report = StreamDayReport(
                day=self.window.day,
                records=self.window.events_today,
                rare_domains=rare,
                cc_domains=detection.cc_domains,
                detected=detection.detected,
                bp_result=detection.bp_result,
                intel_seeded=detection.intel_seeded,
                ct_seeded=detection.ct_seeded,
            )
            self.metrics.counter("stream_detections_total").inc(
                len(detection.detected)
            )
        else:
            report = StreamDayReport(
                day=self.window.day,
                records=self.window.events_today,
                rare_domains=rare,
                cc_domains=set(),
                detected=[],
            )
        with self.metrics.span("rollover_commit") as commit_span:
            self._reset_day()
        stage_seconds["commit"] = commit_span.elapsed
        report.stage_seconds = stage_seconds
        self.metrics.counter("stream_days_total").inc()
        return report

    # ------------------------------------------------------------------
    # Bootstrap plumbing
    # ------------------------------------------------------------------

    def bootstrap(self, paths: Iterable[str | Path]) -> int:
        """Fold training-period files into the history (no detection)."""
        for path in sorted(Path(p) for p in paths):
            with path.open() as handle:
                self.submit_lines(handle)
            self.poll()
            self.rollover(detect=False)
        return len(self.history)


# ---------------------------------------------------------------------------
# Directory replay (the `repro-detect stream` engine)
# ---------------------------------------------------------------------------

def replay_directory(
    directory: str | Path,
    *,
    bootstrap_files: int,
    pattern: str = "*.log",
    config: SystemConfig | None = None,
    internal_suffixes: tuple[str, ...] = (),
    server_ips: frozenset[str] = frozenset(),
    batch_size: int = 500,
    score_every: int = 1,
    warm: WarmStartConfig | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    max_batches: int | None = None,
    on_update=None,
    metrics=None,
) -> ReplayResult:
    """Replay a directory of daily DNS logs as an event stream.

    The streaming analogue of :func:`repro.runner.run_directory`: the
    first ``bootstrap_files`` logs build the destination history, the
    rest are consumed in ``batch_size`` micro-batches with a scoring
    round every ``score_every`` batches and a day rollover per file.

    With ``checkpoint_path`` the engine persists its full state every
    ``checkpoint_every`` micro-batches and after each rollover;
    ``resume=True`` restores from that checkpoint and continues from
    the exact event where the previous process stopped -- detection
    config, filters and histories then come from the checkpoint (only
    the warm-start policy is taken from the arguments).  ``max_batches``
    bounds the number of micro-batches processed (the replay returns
    with ``interrupted=True``), which together with ``resume`` simulates
    a process restart mid-day.
    """
    from ..state import load_streaming, save_streaming

    validate_replay_intervals(score_every, checkpoint_every)
    paths = resolve_replay_paths(directory, pattern, bootstrap_files)

    detector: StreamingDetector | None = None
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        if Path(checkpoint_path).exists():
            detector = load_streaming(checkpoint_path, metrics=metrics)
            # Detection config and histories come from the checkpoint
            # (they define what the stream has already seen); the
            # warm-start policy is the operator's current choice.
            if warm is not None:
                detector.warm = warm
    if detector is None:
        detector = StreamingDetector(
            config=config,
            internal_suffixes=internal_suffixes,
            server_ips=server_ips,
            warm=warm,
            metrics=metrics,
        )

    def open_batches(path: Path):
        with path.open() as handle:
            yield from detector.funnel.read_lines(handle, batch_size)

    def checkpoint() -> None:
        if checkpoint_path is not None:
            save_streaming(detector, checkpoint_path)

    return drive_replay(
        detector,
        paths,
        bootstrap_files=bootstrap_files,
        open_batches=open_batches,
        checkpoint=checkpoint,
        resume=resume,
        score_every=score_every,
        checkpoint_every=checkpoint_every,
        max_batches=max_batches,
        on_update=on_update,
        resume_file=detector.window.day,
    )
