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
frontier scorer lives across rounds -- it follows the window's
:class:`~repro.profiling.index.TrafficIndex` change feed and rescores
only domains whose inputs changed.  It is derived state: dropped
wherever the malicious set can shrink (a cold round, the day boundary,
a restore) and rebuilt from ``prior`` on the next round.
"""

from __future__ import annotations

from pathlib import Path

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
from .engine import (
    ReplayResult,
    StreamDayReport,
    StreamingEngineBase,
    checkpoint_to_resume,
    drive_replay,
    resolve_replay_paths,
)
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

    :func:`repro.runner.run_directory` with intra-day visibility: the
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
    from ..state import load_streaming

    paths = resolve_replay_paths(
        directory, pattern, bootstrap_files,
        score_every=score_every, checkpoint_every=checkpoint_every,
        max_batches=max_batches,
    )
    saved = checkpoint_to_resume(checkpoint_path, resume)
    if saved is not None:
        detector = load_streaming(saved, metrics=metrics)
    else:
        detector = StreamingDetector(
            config=config,
            internal_suffixes=internal_suffixes,
            server_ips=server_ips,
            metrics=metrics,
        )
    return drive_replay(
        detector,
        paths,
        bootstrap_files=bootstrap_files,
        batch_size=batch_size,
        score_every=score_every,
        warm=warm,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        max_batches=max_batches,
        on_update=on_update,
    )
