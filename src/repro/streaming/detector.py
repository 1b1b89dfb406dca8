"""The DNS-path detection engine.

:class:`StreamingDetector` accepts DNS events one at a time, in
micro-batches or a whole day in one poll, and keeps a continuously
updated view of the current day's detections, minutes after the
evidence arrives instead of at the end-of-day close.  It composes the
streaming substrate --
:class:`~repro.profiling.window.WindowedAggregator` -- on top of the
paper's components (reduction funnel, automation detector, additive
scorer, belief propagation).

**End of day is independent of micro-batching.**  At a day boundary,
:meth:`~repro.streaming.engine.StreamingEngineBase.rollover` runs
:func:`repro.runner.detect_on_traffic` over the accumulated window,
whose indexes are identical to a bulk aggregation of the same records.
``run`` feeds each file in one poll, ``stream`` and ``fleet`` in
micro-batches with scoring rounds between; the day closes with the
same report either way, and the intra-day
:meth:`~repro.streaming.engine.StreamingEngineBase.score` updates are
strictly additional visibility.  Both methods live on the engine base;
this module supplies the DNS path's reduction funnel, C&C heuristic,
day-lived frontier scorer and end-of-day call.

Mid-day costs stay proportional to what changed: automation verdicts
are cached per (host, domain) series and recomputed only for pairs
with new events, belief propagation warm-starts from the previous
round's beliefs unless too much of the rare set is dirty, and the
frontier scorer lives across rounds -- it follows the change feeds of
the window's :class:`~repro.profiling.rare.DailyTraffic` and rescores
only domains whose inputs changed.  It is derived state: dropped
wherever the malicious set can shrink (a cold round, the day boundary,
a restore) and rebuilt from ``prior`` on the next round.
"""

from __future__ import annotations

from ..config import LANL_CONFIG, SystemConfig
from ..core.scoring import (
    MULTI_HOST_MIN_HOSTS,
    AdditiveSimilarityScorer,
    SimilarityStats,
    multi_host_cc_domains,
)
from ..logs.reduction import ReductionFunnel
from ..profiling.history import DestinationHistory
from ..profiling.ua import UserAgentHistory
from ..runner import detect_on_traffic
from ..timing.detector import AutomationDetector
from .engine import StreamDayReport, StreamingEngineBase
from .incremental import WarmStartConfig


class StreamingDetector(StreamingEngineBase):
    """Online DNS-path detector with checkpointable mid-day state."""

    #: :func:`~repro.core.scoring.multi_host_beacon_heuristic` needs
    #: this many hosts beaconing to a domain before it can fire.
    cc_min_hosts = MULTI_HOST_MIN_HOSTS

    def __init__(
        self,
        config: SystemConfig | None = None,
        internal_suffixes: tuple[str, ...] = (),
        server_ips: frozenset[str] = frozenset(),
        *,
        history: DestinationHistory | None = None,
        ua_history: UserAgentHistory | None = None,
        warm: WarmStartConfig | None = None,
        metrics=None,
    ) -> None:
        config = config or LANL_CONFIG
        self.internal_suffixes = internal_suffixes
        self.server_ips = server_ips
        self.funnel = ReductionFunnel(
            internal_suffixes,
            server_ips,
            fold_level=config.rarity.fold_level,
            metrics=metrics,
        )
        self.scorer = AdditiveSimilarityScorer()
        super().__init__(
            config=config,
            reader=self.funnel,
            history=history if history is not None else DestinationHistory(),
            automation=AutomationDetector(config.histogram),
            ua_history=ua_history,
            warm=warm,
            metrics=metrics,
        )
        self.similarity_stats = SimilarityStats()
        self.metrics.add_collector(self.similarity_stats.metrics_samples)

    # ------------------------------------------------------------------
    # What the DNS path brings to the base's day loop
    # ------------------------------------------------------------------

    def _cc_domains(self, traffic, verdicts) -> set[str]:
        return multi_host_cc_domains(verdicts)

    def _round_scorer(self, traffic):
        if self._day_scorer is None:
            self.similarity_stats.cold_restarts += 1
            self._day_scorer = self.scorer.frontier_scorer(
                traffic, stats=self.similarity_stats
            )
        return self._day_scorer

    def _detect_day(self, report: StreamDayReport, traffic, **seeding) -> None:
        detection = detect_on_traffic(
            traffic,
            report.rare_domains,
            automation=self.automation,
            scorer=self.scorer,
            config=self.config,
            metrics=self.metrics,
            **seeding,
        )
        report.cc_domains = detection.cc_domains
        report.detected = detection.detected
        report.bp_result = detection.bp_result
        report.intel_seeded = detection.intel_seeded
        report.ct_seeded = detection.ct_seeded
        report.stage_seconds = detection.stage_seconds
