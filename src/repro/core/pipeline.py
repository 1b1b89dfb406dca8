"""The enterprise detection system (Section III-E, Figure 1): training.

:class:`EnterpriseDetector` holds what the paper's two phases share --
the histories, the feature extractor, the automation detector and the
two regression scorers -- and runs the first of them:

**Training** (one month of logs):

1. normalize + reduce (done upstream, the detector consumes
   :class:`~repro.logs.records.Connection` streams);
2. profile destination and user-agent histories: each day opens in a
   :class:`~repro.profiling.window.WindowedAggregator` over them
   (:meth:`EnterpriseDetector.day_window`) and commits in its
   ``rollover()``, the end of day operation runs;
3. customize the C&C detector: collect rare automated domains over the
   later training days, label them through VirusTotal, fit the
   six-feature linear model and keep threshold ``Tc``;
4. customize similarity scoring: starting from hosts contacting
   VT-confirmed C&C domains, collect rare (non-automated) domains they
   visit, fit the eight-feature model and keep threshold ``Ts``.

**Operation** (daily) belongs to the streaming engine:
:class:`repro.streaming.StreamingEnterpriseDetector` wraps a trained
detector, takes a day's connections by ``ingest`` and closes it with
``rollover()`` -- rare destinations, the automation test, ``Tc``
scoring, belief propagation in the no-hint mode (and, when IOC seeds
are supplied, the SOC-hints mode), then one commit of the day into the
histories.  The day's :class:`~repro.core.dayloop.DayReport` is what
that end of day produces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..config import SystemConfig
from ..features.extract import (
    CC_FEATURE_NAMES,
    SIMILARITY_FEATURE_NAMES,
    FeatureExtractor,
)
from ..features.regression import LinearModel, fit_linear_model
from ..features.whois import WhoisFeatureExtractor
from ..intel.virustotal import VirusTotalOracle
from ..intel.whois_db import WhoisDatabase
from ..logs.records import Connection
from ..profiling.history import DestinationHistory
from ..profiling.rare import DailyTraffic
from ..profiling.ua import UserAgentHistory
from ..profiling.window import WindowedAggregator
from ..timing.detector import AutomationDetector, AutomationVerdict
from .scoring import (
    RegressionCCScorer,
    RegressionSimilarityScorer,
    automated_hosts_by_domain,
)

DailyBatch = tuple[int, Sequence[Connection]]


@dataclass
class TrainingReport:
    """Summary of what training produced, for inspection and tests."""

    profiled_days: int = 0
    history_size: int = 0
    ua_count: int = 0
    automated_domain_samples: int = 0
    cc_model: LinearModel | None = None
    similarity_samples: int = 0
    similarity_model: LinearModel | None = None


class EnterpriseDetector:
    """The trainable detection system; operate it through
    :class:`repro.streaming.StreamingEnterpriseDetector`."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        whois: WhoisDatabase | None = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.history = DestinationHistory()
        self.ua_history = UserAgentHistory(
            rare_max_hosts=self.config.rarity.rare_ua_max_hosts
        )
        whois_features = WhoisFeatureExtractor(whois) if whois is not None else None
        self.extractor = FeatureExtractor(self.ua_history, whois_features)
        self.automation = AutomationDetector(self.config.histogram)
        self.cc_scorer: RegressionCCScorer | None = None
        self.similarity_scorer: RegressionSimilarityScorer | None = None
        self.report = TrainingReport()

    # ------------------------------------------------------------------
    # Training phase
    # ------------------------------------------------------------------

    def train(
        self,
        batches: Sequence[DailyBatch],
        virustotal: VirusTotalOracle,
        *,
        model_days: int = 14,
    ) -> TrainingReport:
        """Run the full training phase over one month of daily batches.

        The first pass profiles histories chronologically.  The last
        ``model_days`` days are then replayed to collect labeled
        feature samples for the two regression models, mirroring the
        paper's "two weeks" of labeled automated domains.
        """
        ordered = sorted(batches, key=lambda item: item[0])
        split = max(len(ordered) - model_days, 1)
        profile_only, model_batches = ordered[:split], ordered[split:]

        for day, connections in profile_only:
            self.day_window(day, connections).rollover()
        self.report.profiled_days = len(profile_only)

        cc_rows: list[tuple[Sequence[float], float]] = []
        sim_rows: list[tuple[Sequence[float], float]] = []
        for day, connections in model_batches:
            window = self.day_window(day, connections)
            traffic, rare = window.traffic, window.rare
            when = (day + 1) * 86_400.0
            verdicts = self._automation_verdicts(traffic, rare)
            auto_hosts = automated_hosts_by_domain(verdicts)

            for domain in sorted(auto_hosts):
                features = self.extractor.cc_features(
                    domain, traffic, auto_hosts[domain], when
                )
                label = 1.0 if virustotal.is_reported(domain) else 0.0
                cc_rows.append((features.as_vector(), label))

            sim_rows.extend(
                self._similarity_samples(traffic, rare, auto_hosts, virustotal, when)
            )
            window.rollover()
            self.report.profiled_days += 1

        self.report.history_size = len(self.history)
        self.report.ua_count = len(self.ua_history)

        if len(cc_rows) >= len(CC_FEATURE_NAMES) + 2:
            matrix = [row for row, _ in cc_rows]
            labels = [label for _, label in cc_rows]
            model = fit_linear_model(
                CC_FEATURE_NAMES, matrix, labels,
                ridge=self.config.regression_ridge,
            )
            self.cc_scorer = RegressionCCScorer(
                model,
                self.extractor,
                threshold=self.config.belief_propagation.cc_score_threshold,
            )
            self.report.cc_model = model
            self.report.automated_domain_samples = len(cc_rows)

        if len(sim_rows) >= len(SIMILARITY_FEATURE_NAMES) + 2:
            matrix = [row for row, _ in sim_rows]
            labels = [label for _, label in sim_rows]
            model = fit_linear_model(
                SIMILARITY_FEATURE_NAMES, matrix, labels,
                ridge=self.config.regression_ridge,
            )
            self.similarity_scorer = RegressionSimilarityScorer(model, self.extractor)
            self.report.similarity_model = model
            self.report.similarity_samples = len(sim_rows)

        return self.report

    def _similarity_samples(
        self,
        traffic: DailyTraffic,
        rare: set[str],
        auto_hosts: dict[str, set[str]],
        virustotal: VirusTotalOracle,
        when: float,
        *,
        negatives_per_day: int = 12,
    ) -> list[tuple[Sequence[float], float]]:
        """Labeled similarity rows (Section VI-A, "Domain similarity").

        Compromised hosts are those contacting VT-confirmed automated
        domains; every rare non-automated domain they visit becomes a
        sample, scored against the confirmed set and labeled by VT.

        Scale adaptation: the paper's 100k-host enterprise yields
        abundant co-visited domains; at simulator scale we additionally
        draw up to ``negatives_per_day`` rare domains *not* touching
        the compromised set so the regression sees enough clearly
        benign rows (their timing/IP features are zero by definition).
        """
        confirmed = {
            domain for domain in auto_hosts if virustotal.is_reported(domain)
        }
        if not confirmed:
            return []
        compromised: set[str] = set()
        for domain in confirmed:
            compromised.update(traffic.hosts_by_domain.get(domain, ()))
        rows: list[tuple[Sequence[float], float]] = []
        untouched: list[str] = []
        for domain in sorted(rare - set(auto_hosts)):
            hosts = traffic.hosts_by_domain.get(domain, set())
            if not hosts & compromised:
                untouched.append(domain)
                continue
            features = self.extractor.similarity_features(
                domain, confirmed, traffic, when
            )
            label = 1.0 if virustotal.is_reported(domain) else 0.0
            rows.append((features.as_vector(), label))
        for domain in untouched[:negatives_per_day]:
            features = self.extractor.similarity_features(
                domain, confirmed, traffic, when
            )
            label = 1.0 if virustotal.is_reported(domain) else 0.0
            rows.append((features.as_vector(), label))
        return rows

    def day_window(
        self, day: int, connections: Sequence[Connection]
    ) -> WindowedAggregator:
        """One day of connections in a window over the histories: read
        its ``traffic`` / ``rare``, then ``rollover()`` commits the day
        (the end of day the streaming engines run)."""
        window = WindowedAggregator(
            day,
            self.history,
            unpopular_max_hosts=self.config.rarity.unpopular_max_hosts,
            ua_history=self.ua_history,
        )
        window.ingest(connections)
        return window

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _automation_verdicts(
        self, traffic: DailyTraffic, rare: set[str]
    ) -> list[AutomationVerdict]:
        """Automation test restricted to rare domains (Section IV-C)."""
        return self.automation.automated_pairs(traffic.rare_series(rare))
