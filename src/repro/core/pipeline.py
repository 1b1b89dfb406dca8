"""End-to-end enterprise detection pipeline (Section III-E, Figure 1).

:class:`EnterpriseDetector` glues the substrates together in exactly
the paper's two phases:

**Training** (one month of logs):

1. normalize + reduce (done upstream, the detector consumes
   :class:`~repro.logs.records.Connection` streams);
2. profile destination and user-agent histories;
3. customize the C&C detector: collect rare automated domains over the
   later training days, label them through VirusTotal, fit the
   six-feature linear model and keep threshold ``Tc``;
4. customize similarity scoring: starting from hosts contacting
   VT-confirmed C&C domains, collect rare (non-automated) domains they
   visit, fit the eight-feature model and keep threshold ``Ts``.

**Operation** (daily):

1. build the day's traffic aggregate, extract rare destinations;
2. run the automation detector over rare (host, domain) series;
3. score automated rare domains; those above ``Tc`` are potential C&C;
4. run belief propagation in the no-hint mode (seeded by today's C&C
   detections) and, when IOC seeds are supplied, the SOC-hints mode;
5. commit the day's observations into the histories.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass, field

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
from ..profiling.rare import (
    DailyTraffic,
    extract_rare_domains,
    rare_domains_by_host,
)
from ..profiling.ua import UserAgentHistory
from ..timing.detector import AutomationDetector, AutomationVerdict
from .beliefprop import BeliefPropagationResult, belief_propagation
from .scoring import (
    BatchedSimilarityScorer,
    RegressionCCScorer,
    RegressionSimilarityScorer,
    ScoredDomain,
)

#: Parity-only path: ``detect_on_enterprise_traffic(...,
#: use_index=False)`` keeps the legacy per-domain feature extraction
#: and similarity scoring purely as the reference the indexed/batched
#: path is pinned against (``pytest -m parity``).  Production always
#: runs ``use_index=True``; the legacy branch is kept green only for
#: those tests and is slated for retirement (ROADMAP).
_parity = "detect_on_enterprise_traffic(use_index=False)"

DailyBatch = tuple[int, Sequence[Connection]]


@dataclass
class DayResult:
    """Everything the system produced for one operational day."""

    day: int
    rare_domains: set[str]
    automated_verdicts: list[AutomationVerdict]
    cc_domains: list[ScoredDomain]
    no_hint: BeliefPropagationResult | None = None
    soc_hints: BeliefPropagationResult | None = None
    intel_seeded: set[str] = field(default_factory=set)
    """Rare domains seeded from shared intelligence (fleet mode)."""

    ct_seeded: set[str] = field(default_factory=set)
    """Rare domains pulled in through CT SAN-pivot sibling edges."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per detection stage (``automation``, ``cc``,
    ``bp``); always measured, observability only."""

    @property
    def cc_domain_names(self) -> set[str]:
        return {scored.domain for scored in self.cc_domains}

    def all_detected_domains(self) -> set[str]:
        """Union of both modes' detections (seeds included only for
        intel- and CT-seeded domains, which are detections in their
        own right) plus C&C hits."""
        detected = (
            set(self.cc_domain_names)
            | set(self.intel_seeded)
            | set(self.ct_seeded)
        )
        for result in (self.no_hint, self.soc_hints):
            if result is not None:
                detected.update(result.detected_domains)
        return detected


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
    """The full training + daily-operation detection system."""

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
            self._profile_day(day, connections)
        self.report.profiled_days = len(profile_only)

        cc_rows: list[tuple[Sequence[float], float]] = []
        sim_rows: list[tuple[Sequence[float], float]] = []
        for day, connections in model_batches:
            traffic, rare = self._aggregate_day(day, connections)
            when = (day + 1) * 86_400.0
            verdicts = self._automation_verdicts(traffic, rare)
            auto_hosts = _automated_hosts_by_domain(verdicts)

            for domain in sorted(auto_hosts):
                features = self.extractor.cc_features(
                    domain, traffic, auto_hosts[domain], when
                )
                label = 1.0 if virustotal.is_reported(domain) else 0.0
                cc_rows.append((features.as_vector(), label))

            sim_rows.extend(
                self._similarity_samples(traffic, rare, auto_hosts, virustotal, when)
            )
            self._profile_day(day, connections)
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

    # ------------------------------------------------------------------
    # Daily operation
    # ------------------------------------------------------------------

    def process_day(
        self,
        day: int,
        connections: Sequence[Connection],
        *,
        soc_seed_domains: Iterable[str] = (),
        intel_domains: Set[str] = frozenset(),
        update_profiles: bool = True,
    ) -> DayResult:
        """Run the four daily operation stages on one day of traffic."""
        if self.cc_scorer is None or self.similarity_scorer is None:
            raise RuntimeError("detector must be trained before operation")

        traffic, rare = self._aggregate_day(day, connections)
        result = detect_on_enterprise_traffic(
            traffic,
            rare,
            day=day,
            automation=self.automation,
            cc_scorer=self.cc_scorer,
            similarity_scorer=self.similarity_scorer,
            config=self.config,
            soc_seed_domains=soc_seed_domains,
            intel_domains=intel_domains,
        )
        if update_profiles:
            self._profile_day(day, connections)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _aggregate_day(
        self, day: int, connections: Sequence[Connection]
    ) -> tuple[DailyTraffic, set[str]]:
        traffic = DailyTraffic(day)
        traffic.ingest(connections, ua_is_rare=self.ua_history.is_rare)
        traffic.finalize()
        rare = extract_rare_domains(
            traffic,
            self.history,
            unpopular_max_hosts=self.config.rarity.unpopular_max_hosts,
        )
        return traffic, rare

    def _automation_verdicts(
        self, traffic: DailyTraffic, rare: set[str]
    ) -> list[AutomationVerdict]:
        """Automation test restricted to rare domains (Section IV-C)."""
        return self.automation.automated_pairs(traffic.rare_series(rare))

    def _profile_day(self, day: int, connections: Sequence[Connection]) -> None:
        """Stage and commit one day into the histories (end of day)."""
        for conn in connections:
            self.history.stage(conn.domain, day)
            self.ua_history.stage(conn.user_agent, conn.host)
        self.history.commit_day(day)
        self.ua_history.commit_day()


def detect_on_enterprise_traffic(
    traffic: DailyTraffic,
    rare: set[str],
    *,
    day: int,
    automation: AutomationDetector,
    cc_scorer: RegressionCCScorer,
    similarity_scorer: RegressionSimilarityScorer,
    config: SystemConfig,
    soc_seed_domains: Iterable[str] = (),
    intel_domains: Set[str] = frozenset(),
    ct_edges=None,
    use_index: bool = True,
    metrics=None,
) -> DayResult:
    """The enterprise-path daily detection stages on one day of traffic.

    This is the single implementation both the batch
    :meth:`EnterpriseDetector.process_day` and the streaming engine
    (:class:`repro.streaming.StreamingEnterpriseDetector`) run at end
    of day, so streaming replay is batch-identical by construction --
    the enterprise analogue of :func:`repro.runner.detect_on_traffic`:
    automation test over rare (host, domain) series, regression C&C
    scoring above ``Tc``, then belief propagation seeded by today's
    C&C detections (no-hint mode) and, separately, by SOC hint domains.

    ``intel_domains`` carries externally confirmed malicious domains
    (a fleet's shared intel plane, a SOC blocklist).  Those that are
    *rare today* enter the no-hint belief propagation as seed labels --
    the paper's community-feedback amplification: a domain confirmed in
    one enterprise elevates the prior everywhere it appears, even where
    local evidence (a single beaconing host, say, below the regression
    model's connectivity signal) would not fire ``Detect_C&C`` alone.

    ``ct_edges`` is an optional :class:`repro.intelstore.ct.CtIndex`:
    rare domains reachable from the no-hint seeds through shared
    certificates join the seed set (reported as ``ct_seeded``), and
    both BP runs receive a rare-restricted SAN-pivot sibling map for
    frontier extension.  ``None`` (the default) is byte-identical to a
    build without the parameter.

    ``use_index`` routes each belief-propagation run through the day's
    :class:`~repro.profiling.index.TrafficIndex` and a fresh
    :class:`~repro.core.scoring.BatchedSimilarityScorer` (one per run:
    its incremental state tracks that run's growing malicious set);
    ``False`` keeps the legacy per-domain feature extraction.  Both
    produce identical detections -- the parity the randomized tests
    assert -- including identical WHOIS imputation state evolution.
    """
    from ..obs.metrics import NULL_METRICS

    obs = metrics if metrics is not None else NULL_METRICS
    stage_seconds: dict[str, float] = {}
    when = (day + 1) * 86_400.0
    with obs.span("detect_automation") as automation_span:
        verdicts = automation.automated_pairs(traffic.rare_series(rare))
        auto_hosts = _automated_hosts_by_domain(verdicts)
    stage_seconds["automation"] = automation_span.elapsed

    with obs.span("detect_cc") as cc_span:
        cc_domains: list[ScoredDomain] = []
        candidates = sorted(auto_hosts)
        scores = cc_scorer.score_all(candidates, traffic, auto_hosts, when)
        for domain, score in zip(candidates, scores):
            if score >= cc_scorer.threshold:
                cc_domains.append(ScoredDomain(domain, score))
        cc_domains.sort(key=lambda s: (-s.score, s.domain))
        cc_set = {scored.domain for scored in cc_domains}
    stage_seconds["cc"] = cc_span.elapsed
    intel_seeded = set(intel_domains) & rare

    ct_seeded: set[str] = set()
    sibling_dom = None
    if ct_edges is not None:
        from ..intelstore.ct import expand_ct_seeds, sibling_map

        ct_seeded = expand_ct_seeds(cc_set | intel_seeded, rare, ct_edges)
        sibling_dom = sibling_map(ct_edges, rare)

    if use_index:
        index = traffic.index()
        dom_host, host_rdom = traffic.bp_views(rare)
    else:
        index = None
        host_rdom = rare_domains_by_host(traffic, rare)
        dom_host = {
            domain: frozenset(traffic.hosts_by_domain.get(domain, ()))
            for domain in rare
        }

    detect_cc = cc_set.__contains__

    def scoring_kwargs() -> dict:
        """Similarity scoring for one BP run: a fresh batched scorer
        per run (its state follows that run's malicious set), or the
        legacy per-domain callable."""
        if index is None:
            return {
                "similarity_score":
                    lambda domain, malicious:
                        similarity_scorer.score(
                            domain, malicious, traffic, when
                        ),
            }
        batched = BatchedSimilarityScorer(
            similarity_scorer, traffic, when, index=index
        )
        return {"score_frontier": batched.score_frontier}

    result = DayResult(
        day=day,
        rare_domains=rare,
        automated_verdicts=verdicts,
        cc_domains=cc_domains,
        intel_seeded=intel_seeded,
        ct_seeded=ct_seeded,
    )

    with obs.span("detect_bp") as bp_span:
        no_hint_seeds = cc_set | intel_seeded | ct_seeded
        if no_hint_seeds:
            seed_hosts: set[str] = set()
            for domain in no_hint_seeds:
                seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))
            result.no_hint = belief_propagation(
                seed_hosts,
                no_hint_seeds,
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=detect_cc,
                config=config.belief_propagation,
                sibling_dom=sibling_dom,
                metrics=metrics,
                **scoring_kwargs(),
            )

        soc_seeds = {
            d for d in soc_seed_domains if d in traffic.hosts_by_domain
        }
        if soc_seeds:
            seed_hosts = set()
            for domain in soc_seeds:
                seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))
            result.soc_hints = belief_propagation(
                seed_hosts,
                soc_seeds,
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=detect_cc,
                config=config.belief_propagation,
                sibling_dom=sibling_dom,
                metrics=metrics,
                **scoring_kwargs(),
            )
    if no_hint_seeds or soc_seeds:
        stage_seconds["bp"] = bp_span.elapsed

    result.stage_seconds = stage_seconds
    return result


def _automated_hosts_by_domain(
    verdicts: Iterable[AutomationVerdict],
) -> dict[str, set[str]]:
    by_domain: dict[str, set[str]] = defaultdict(set)
    for verdict in verdicts:
        if verdict.automated:
            by_domain[verdict.domain].add(verdict.host)
    return dict(by_domain)
