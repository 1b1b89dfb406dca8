"""Streaming enterprise (proxy-path) detection: the paper's headline
workload turned online.

:class:`StreamingEnterpriseDetector` wraps a *trained*
:class:`~repro.core.pipeline.EnterpriseDetector` and accepts proxy
events one at a time or in micro-batches, keeping the destination and
user-agent profiles, the rare-destination window and the host-domain
graph continuously up to date.  Intra-day
:meth:`~repro.streaming.engine.StreamingEngineBase.score` rounds run
the regression C&C scorer and warm-start belief propagation over
exactly the state invalidated since the previous round, so detections
surface minutes after the evidence arrives instead of at the nightly
close.

**End of day is independent of micro-batching.**  At a day boundary,
:meth:`~repro.streaming.engine.StreamingEngineBase.rollover` runs the
paper's operation stages (:meth:`StreamingEnterpriseDetector._detect_day`)
over the accumulated window, whose indexes are identical to a bulk
aggregation of the same records, and then commits the histories
exactly once.  A day fed in one ``ingest`` and the same day fed in
many, with scoring rounds between, therefore close with the same
report; the intra-day updates are strictly additional visibility.
``score`` and ``rollover`` live on the engine base; this module
supplies the proxy path's normalizer, regression C&C stage, per-round
frontier scorer and end of day.

Two enterprise-specific subtleties the implementation preserves:

* **WHOIS imputation state advances once a day.**  The
  :class:`~repro.features.whois.WhoisFeatureExtractor` keeps running
  means for imputing unregistered domains; intra-day scoring rounds
  would drift those means by how often the day was scored.  A scoring
  round therefore snapshots and restores the imputation counters
  around its extractions, leaving the rollover pass alone to advance
  them.
* **User-agent staging is day-consistent.**  UA observations are
  staged per event but committed only at rollover, and
  ``UserAgentHistory.is_rare`` consults committed state only -- so a
  UA first seen today stays *rare* for today's own detection.

``intel_domains`` passed to ``rollover()`` are externally confirmed
malicious domains (a fleet's shared intel plane); those rare today
seed belief propagation directly -- extending the DNS path's
cross-tenant seeding to the proxy path.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from contextlib import contextmanager
from pathlib import Path

from ..core.dayloop import detect_day
from ..core.pipeline import DayResult, EnterpriseDetector
from ..core.scoring import ScoredDomain
from ..logs.normalize import ProxyNormalizer
from .engine import (
    ReplayResult,
    StreamDayReport,
    StreamingEngineBase,
    checkpoint_to_resume,
    drive_replay,
    resolve_replay_paths,
)
from .incremental import WarmStartConfig

SECONDS_PER_DAY = 86_400.0


@contextmanager
def _frozen_imputation(detector: EnterpriseDetector):
    """Hold the WHOIS imputation means fixed across a block.

    Intra-day scoring extracts features many times per day; without
    this, the running means used to impute unregistered domains would
    depend on how often the day was scored, and so would the
    end-of-day report for imputed domains.
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
    """Online enterprise/proxy-path detector: the operation phase of a
    trained :class:`~repro.core.pipeline.EnterpriseDetector`.

    The wrapped detector's histories, feature extractor, automation
    detector and regression scorers are *shared*, not copied: the
    engine is the same trained system, fed its operational days.
    """

    def __init__(
        self,
        detector: EnterpriseDetector,
        *,
        start_day: int | None = None,
        warm: WarmStartConfig | None = None,
        metrics=None,
    ) -> None:
        if detector.cc_scorer is None or detector.similarity_scorer is None:
            raise RuntimeError(
                "streaming requires a trained EnterpriseDetector "
                "(both regression models fitted)"
            )
        self.batch = detector
        if start_day is None:
            committed = detector.history.committed_days
            start_day = (max(committed) + 1) if committed else 0
        self.normalizer = ProxyNormalizer(
            fold_level=detector.config.rarity.fold_level, metrics=metrics
        )
        super().__init__(
            config=detector.config,
            reader=self.normalizer,
            history=detector.history,
            automation=detector.automation,
            ua_history=detector.ua_history,
            warm=warm,
            start_day=start_day,
            metrics=metrics,
        )

    # Convenience views onto the wrapped trained detector.

    @property
    def cc_scorer(self):
        """The trained regression C&C scorer (shared, not copied)."""
        return self.batch.cc_scorer

    @property
    def similarity_scorer(self):
        """The trained regression similarity scorer (shared)."""
        return self.batch.similarity_scorer

    # ------------------------------------------------------------------
    # What the proxy path brings to the base's day loop
    # ------------------------------------------------------------------

    def _when(self) -> float:
        """The feature-extraction instant of the window's day (its end)."""
        return (self.window.day + 1) * SECONDS_PER_DAY

    def _scoring_round(self):
        return _frozen_imputation(self.batch)

    def _cc_scores(self, traffic, verdicts) -> dict[str, float]:
        """``Detect_C&C`` (IV-C): the automated rare domains whose
        regression score reaches ``Tc``, with that score."""
        threshold = self.cc_scorer.threshold
        return {
            domain: score
            for domain, score in self.cc_scorer.score_automated(
                verdicts, traffic, self._when()
            ).items()
            if score >= threshold
        }

    def _cc_domains(self, traffic, verdicts) -> set[str]:
        return set(self._cc_scores(traffic, verdicts))

    def _round_scorer(self, traffic):
        # Per round, not per day: see BatchedSimilarityScorer.
        return self.similarity_scorer.frontier_scorer(traffic, self._when())

    def _detect_day(
        self,
        report: StreamDayReport,
        traffic,
        *,
        soc_seed_domains: Iterable[str] = (),
        intel_domains: Set[str] = frozenset(),
        ct_edges=None,
    ) -> None:
        """The enterprise-path end of day (Section III-E, operation).

        The automation test over every rare (host, domain) series and
        regression C&C scoring above ``Tc`` (Section IV-C), then
        :func:`repro.core.dayloop.detect_day` once in no-hint mode and,
        when ``soc_seed_domains`` are given, once more seeded by those
        of them contacted today.  ``intel_domains`` and ``ct_edges``
        pass to the no-hint run, which documents them (``ct_edges``
        also hands the SOC-hints run its sibling map).  Each run gets
        a fresh frontier scorer whose WHOIS imputation state evolves
        exactly as per-domain scoring would.
        """
        rare = report.rare_domains
        with self.metrics.span("detect_automation") as automation_span:
            verdicts = self.automation.automated_pairs(
                traffic.rare_series(rare)
            )
        with self.metrics.span("detect_cc") as cc_span:
            cc_domains = sorted(
                (
                    ScoredDomain(domain, score)
                    for domain, score
                    in self._cc_scores(traffic, verdicts).items()
                ),
                key=lambda scored: (-scored.score, scored.domain),
            )
            cc_set = {scored.domain for scored in cc_domains}
        stage_seconds = {
            "automation": automation_span.elapsed, "cc": cc_span.elapsed,
        }

        def run(**seeding):
            return detect_day(
                traffic,
                rare,
                cc=cc_set,
                new_scorer=lambda: self._round_scorer(traffic),
                config=self.config.belief_propagation,
                ct_edges=ct_edges,
                metrics=self.metrics,
                **seeding,
            )

        no_hint = run(intel_domains=intel_domains)
        soc_seed_domains = tuple(soc_seed_domains)
        hinted = (
            run(hint_domains=soc_seed_domains) if soc_seed_domains else None
        )
        bp_seconds = [
            r.stage_seconds["bp"] for r in (no_hint, hinted)
            if r is not None and "bp" in r.stage_seconds
        ]
        if bp_seconds:
            stage_seconds["bp"] = sum(bp_seconds)
        result = DayResult(
            day=report.day,
            rare_domains=rare,
            automated_verdicts=verdicts,
            cc_domains=cc_domains,
            no_hint=no_hint.bp_result,
            soc_hints=hinted.bp_result if hinted is not None else None,
            intel_seeded=no_hint.intel_seeded,
            ct_seeded=no_hint.ct_seeded,
            stage_seconds=stage_seconds,
        )
        report.cc_domains = cc_set
        report.detected = result.detected_in_order()
        report.bp_result = result.no_hint
        report.intel_seeded = result.intel_seeded
        report.ct_seeded = result.ct_seeded
        report.day_result = result
        report.stage_seconds = stage_seconds


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

    paths = resolve_replay_paths(
        directory, pattern, bootstrap_files,
        score_every=score_every, checkpoint_every=checkpoint_every,
        max_batches=max_batches,
    )
    if whois is None and whois_path is not None:
        whois = load_whois_file(whois_path)
    saved = checkpoint_to_resume(checkpoint_path, resume)
    if saved is not None:
        detector = load_streaming_enterprise(
            saved, whois=whois, metrics=metrics
        )
    else:
        detector = StreamingEnterpriseDetector(
            load_detector(model_state, whois=whois), metrics=metrics
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


__all__ = [
    "StreamingEnterpriseDetector",
    "replay_enterprise_directory",
]
