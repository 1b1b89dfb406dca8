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

from ..core.dayloop import DayReport, detect_day
from ..core.pipeline import EnterpriseDetector
from ..logs.normalize import ProxyNormalizer
from .engine import StreamingEngineBase
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
        traffic,
        rare: set[str],
        *,
        soc_seed_domains: Iterable[str] = (),
        intel_domains: Set[str] = frozenset(),
        ct_edges=None,
    ) -> DayReport:
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

        The no-hint run's report is the day's: its ``detected`` already
        holds the sorted seeds (C&C, intel, CT) and then its labels;
        the SOC-hints run adds its labels not already there (its seeds
        are inputs, not detections) and its ``bp`` seconds.
        """
        with self.metrics.span("detect_automation") as automation_span:
            verdicts = self.automation.automated_pairs(
                traffic.rare_series(rare)
            )
        with self.metrics.span("detect_cc") as cc_span:
            cc_scores = self._cc_scores(traffic, verdicts)
            cc = set(cc_scores)

        def run(**seeding):
            return detect_day(
                traffic,
                rare,
                cc=cc,
                new_scorer=lambda: self._round_scorer(traffic),
                config=self.config.belief_propagation,
                ct_edges=ct_edges,
                metrics=self.metrics,
                **seeding,
            )

        report = run(intel_domains=intel_domains)
        runs = [report]
        soc_seed_domains = tuple(soc_seed_domains)
        if soc_seed_domains:
            hinted = run(hint_domains=soc_seed_domains)
            runs.append(hinted)
            report.soc_hints = hinted.bp_result
            if hinted.bp_result is not None:
                report.detected += [
                    d for d in hinted.bp_result.detected_domains
                    if d not in report.detected
                ]
        report.cc_scores = cc_scores
        report.stage_seconds = {
            "automation": automation_span.elapsed, "cc": cc_span.elapsed,
        }
        bp_seconds = [
            r.stage_seconds["bp"] for r in runs if "bp" in r.stage_seconds
        ]
        if bp_seconds:
            report.stage_seconds["bp"] = sum(bp_seconds)
        return report
