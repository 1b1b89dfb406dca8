"""Streaming enterprise (proxy-path) detection: the paper's headline
workload turned online.

:class:`StreamingEnterpriseDetector` wraps a *trained*
:class:`~repro.core.pipeline.EnterpriseDetector` and accepts proxy
events one at a time or in micro-batches, keeping the destination and
user-agent profiles, the rare-destination window and the host-domain
graph continuously up to date.  Intra-day :meth:`score` rounds run the
regression C&C scorer and warm-start belief propagation over exactly
the state invalidated since the previous round, so detections surface
minutes after the evidence arrives instead of at the nightly batch
close.

**Batch-parity guarantee.**  At a day boundary, :meth:`rollover` runs
:func:`repro.core.pipeline.detect_on_enterprise_traffic` -- the very
routine :meth:`EnterpriseDetector.process_day` runs -- over the
accumulated window, whose indexes are identical to a bulk aggregation
of the same records, and then commits the histories exactly once.
Replaying a day through the streaming engine therefore yields exactly
the batch pipeline's end-of-day detections; the intra-day updates are
strictly additional visibility.

Two enterprise-specific subtleties the implementation preserves:

* **WHOIS imputation state is batch-identical.**  The
  :class:`~repro.features.whois.WhoisFeatureExtractor` keeps running
  means for imputing unregistered domains; intra-day scoring rounds
  would drift those means away from the batch pipeline's (which only
  extracts at end of day).  :meth:`score` therefore snapshots and
  restores the imputation counters around its extractions, leaving the
  rollover pass to advance them exactly as ``process_day`` would.
* **User-agent staging is day-consistent.**  UA observations are
  staged per event but committed only at rollover, and
  ``UserAgentHistory.is_rare`` consults committed state only -- so a
  UA first seen today stays *rare* for today's own detection, matching
  the batch pipeline's end-of-day staging order.

``intel_domains`` passed to :meth:`rollover` are externally confirmed
malicious domains (a fleet's shared intel plane); those rare today
seed belief propagation directly -- extending the DNS path's
cross-tenant seeding to the proxy path.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from contextlib import contextmanager
from pathlib import Path

from ..core.pipeline import (
    EnterpriseDetector,
    _automated_hosts_by_domain,
    detect_on_enterprise_traffic,
)
from ..core.scoring import BatchedSimilarityScorer
from ..logs.normalize import IpResolver, ProxyNormalizer
from ..logs.records import ProxyRecord
from ..profiling.rare import extract_rare_domains
from .detector import StreamDayReport, StreamUpdate
from .engine import (
    ReplayResult,
    StreamingEngineBase,
    drive_replay,
    resolve_replay_paths,
    validate_replay_intervals,
)
from .incremental import WarmStartConfig, warm_start_belief_propagation

SECONDS_PER_DAY = 86_400.0


@contextmanager
def _frozen_imputation(detector: EnterpriseDetector):
    """Hold the WHOIS imputation means fixed across a block.

    Intra-day scoring extracts features many times per day; without
    this, the running means used to impute unregistered domains would
    diverge from the batch pipeline's single end-of-day pass and break
    rollover parity for imputed domains.
    """
    whois = detector.extractor.whois
    if whois is None:
        yield
        return
    saved = (whois._age_sum, whois._validity_sum, whois._observed)
    try:
        yield
    finally:
        whois._age_sum, whois._validity_sum, whois._observed = saved


class StreamingEnterpriseDetector(StreamingEngineBase):
    """Online enterprise/proxy-path detector wrapping a trained batch one.

    The wrapped detector's histories, feature extractor, automation
    detector and regression scorers are *shared*, not copied: the
    streaming engine is the same trained system, fed incrementally.
    """

    def __init__(
        self,
        detector: EnterpriseDetector,
        *,
        start_day: int | None = None,
        warm: WarmStartConfig | None = None,
        n_shards: int = 4,
        metrics=None,
    ) -> None:
        if detector.cc_scorer is None or detector.similarity_scorer is None:
            raise RuntimeError(
                "streaming requires a trained EnterpriseDetector "
                "(both regression models fitted)"
            )
        self.batch = detector
        self.config = detector.config
        if start_day is None:
            committed = detector.history.committed_days
            start_day = (max(committed) + 1) if committed else 0
        self.start_day = start_day
        super().__init__(
            history=detector.history,
            automation=detector.automation,
            unpopular_max_hosts=detector.config.rarity.unpopular_max_hosts,
            ua_history=detector.ua_history,
            warm=warm,
            n_shards=n_shards,
            start_day=start_day,
            metrics=metrics,
        )
        self.normalizer = ProxyNormalizer(
            fold_level=detector.config.rarity.fold_level, metrics=metrics
        )

    # Convenience views onto the wrapped trained detector.

    @property
    def cc_scorer(self):
        """The trained regression C&C scorer (shared with the batch side)."""
        return self.batch.cc_scorer

    @property
    def similarity_scorer(self):
        """The trained regression similarity scorer (shared)."""
        return self.batch.similarity_scorer

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def submit_lines(self, lines: Iterable[str]) -> int:
        """Normalize proxy log lines onto the event bus.

        The lines are taken as pre-joined: the source field already
        carries a stable hostname (the form every layout ships).
        """
        return sum(map(self.bus.publish, self.normalizer.read_lines(lines)))

    def submit_raw(
        self,
        records: Iterable[ProxyRecord],
        resolver: IpResolver | None = None,
    ) -> int:
        """Normalize in-memory raw proxy records onto the event bus.

        ``resolver`` joins dynamic client addresses against DHCP/VPN
        leases; omit it for pre-joined records.
        """
        return sum(map(
            self.bus.publish,
            self.normalizer.read_records(records, resolver=resolver),
        ))

    # ------------------------------------------------------------------
    # Intra-day scoring
    # ------------------------------------------------------------------

    def score(self) -> StreamUpdate:
        """Re-score the current window and return the live detections.

        The same daily stages as :meth:`EnterpriseDetector.process_day`
        in no-hint mode -- automation test, regression C&C scoring,
        belief propagation -- but each stage touches only state
        invalidated since the previous call, and belief propagation
        warm-starts from the previous round when safe.
        """
        traffic = self.window.traffic
        verdicts = self._refresh_verdicts()
        when = (self.window.day + 1) * SECONDS_PER_DAY
        auto_hosts = _automated_hosts_by_domain(verdicts)
        with _frozen_imputation(self.batch):
            candidates = sorted(auto_hosts)
            scores = self.cc_scorer.score_all(
                candidates, traffic, auto_hosts, when
            )
            cc = {
                domain
                for domain, score in zip(candidates, scores)
                if score >= self.cc_scorer.threshold
            }
            seed_hosts: set[str] = set()
            for domain in cc:
                seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))

            # Regression C&C verdicts are not monotone: new events can
            # push a domain's score back below Tc or flip its series to
            # not-automated.  If any domain the prior round believed
            # C&C-like no longer is, drop the prior entirely so this
            # round recomputes cold (same policy as the DNS engine).
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

            batched = BatchedSimilarityScorer(
                self.similarity_scorer, traffic, when
            )
            with self.metrics.span("stream_score"):
                result, mode = warm_start_belief_propagation(
                    seed_hosts,
                    set(cc),
                    graph=self.graph,
                    detect_cc=cc.__contains__,
                    score_frontier=batched.score_frontier,
                    config=self.config,
                    prior=self.prior,
                    warm=self.warm,
                    metrics=self.metrics,
                )
        self.metrics.counter("stream_score_rounds_total", mode=mode).inc()
        self.prior = result
        detected = sorted(cc) + [
            d for d in result.detected_domains if d not in cc
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
        soc_seed_domains: Iterable[str] = (),
        intel_domains: Set[str] = frozenset(),
        ct_edges=None,
    ) -> StreamDayReport:
        """Close the day: batch-parity detection, then commit histories.

        The detection pass is
        :func:`repro.core.pipeline.detect_on_enterprise_traffic` -- the
        batch pipeline's own daily routine -- over the full window, so
        the report equals what :meth:`EnterpriseDetector.process_day`
        produces for the same connections.  Histories commit exactly
        once, in :meth:`WindowedAggregator.rollover`.
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
            result = detect_on_enterprise_traffic(
                traffic,
                rare,
                day=self.window.day,
                automation=self.automation,
                cc_scorer=self.cc_scorer,
                similarity_scorer=self.similarity_scorer,
                config=self.config,
                soc_seed_domains=soc_seed_domains,
                intel_domains=intel_domains,
                ct_edges=ct_edges,
                metrics=self.metrics,
            )
            stage_seconds.update(result.stage_seconds)
            seeds = (
                result.cc_domain_names
                | result.intel_seeded
                | result.ct_seeded
            )
            detected = sorted(seeds)
            if result.no_hint is not None:
                detected += [
                    d for d in result.no_hint.detected_domains
                    if d not in seeds
                ]
            if result.soc_hints is not None:
                detected += [
                    d for d in result.soc_hints.detected_domains
                    if d not in seeds and d not in detected
                ]
            report = StreamDayReport(
                day=self.window.day,
                records=self.window.events_today,
                rare_domains=rare,
                cc_domains=set(result.cc_domain_names),
                detected=detected,
                bp_result=result.no_hint,
                intel_seeded=result.intel_seeded,
                ct_seeded=result.ct_seeded,
                day_result=result,
            )
            self.metrics.counter("stream_detections_total").inc(
                len(detected)
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


# ---------------------------------------------------------------------------
# Directory replay (the `repro-detect stream --pipeline enterprise` engine)
# ---------------------------------------------------------------------------

def replay_enterprise_directory(
    directory: str | Path,
    *,
    model_state: str | Path,
    bootstrap_files: int = 0,
    pattern: str = "proxy-*.log",
    whois_path: str | Path | None = None,
    whois=None,
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
    """Replay a directory of daily proxy logs as an event stream.

    The enterprise analogue of :func:`repro.streaming.replay_directory`:
    the trained detector comes from ``model_state`` (as written by
    ``repro-detect enterprise --save-state`` or a generated layout's
    ``model.json``), the first ``bootstrap_files`` logs only extend the
    profiles, and the rest are consumed in ``batch_size`` micro-batches
    with a scoring round every ``score_every`` batches and a day
    rollover per file.  Logs are expected pre-joined (stable hostnames
    in the source field); ``whois_path`` re-attaches the registration
    registry the regression features query.  ``whois`` passes an
    already-built lookup object instead (anything with a
    ``lookup(domain)`` method, e.g. a :class:`repro.intelstore.store
    .StoreCachingWhois` hydrated from a durable intel store) and takes
    precedence over ``whois_path``.

    Checkpoint/resume semantics match the DNS replay: with
    ``checkpoint_path`` the full engine state is persisted every
    ``checkpoint_every`` micro-batches and after each rollover, and
    ``resume=True`` restores from it and continues from the exact
    event where the previous process stopped.
    """
    from ..intel.whois_db import load_whois_file
    from ..state import load_detector, load_streaming_enterprise
    from ..state import save_streaming_enterprise

    validate_replay_intervals(score_every, checkpoint_every)
    paths = resolve_replay_paths(directory, pattern, bootstrap_files)
    if whois is None:
        whois = (
            load_whois_file(whois_path) if whois_path is not None else None
        )

    detector: StreamingEnterpriseDetector | None = None
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        if Path(checkpoint_path).exists():
            detector = load_streaming_enterprise(
                checkpoint_path, whois=whois, metrics=metrics
            )
            if warm is not None:
                detector.warm = warm
    if detector is None:
        detector = StreamingEnterpriseDetector(
            load_detector(model_state, whois=whois),
            warm=warm,
            metrics=metrics,
        )

    def open_batches(path: Path):
        with path.open() as handle:
            yield from detector.normalizer.read_lines(handle, batch_size)

    def checkpoint() -> None:
        if checkpoint_path is not None:
            save_streaming_enterprise(detector, checkpoint_path)

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
        # The enterprise engine's day counter starts at its trained
        # start day, so the file index is the offset from it.
        resume_file=detector.window.day - detector.start_day,
    )


__all__ = [
    "StreamingEnterpriseDetector",
    "replay_enterprise_directory",
]
