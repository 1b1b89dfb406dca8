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
paper's operation stages (:func:`repro.core.dayloop.close_day`) over
the accumulated window, whose indexes are identical to a bulk
aggregation of the same records, and then commits the histories
exactly once.  A day fed in one ``ingest`` and the same day fed in
many, with scoring rounds between, therefore close with the same
report; the intra-day updates are strictly additional visibility.
``score`` and ``rollover`` live on the engine base; this module
supplies the proxy path's normalizer, regression C&C stage and
frontier scorer (a fresh one per run, the end of day's included).

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
"""

from __future__ import annotations

from contextlib import contextmanager

from ..config import InputError
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
            raise InputError(
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

    def _new_scorer(self, traffic):
        # Per round, not per day: see BatchedSimilarityScorer.
        return self.similarity_scorer.frontier_scorer(traffic, self._when())
