"""LANL challenge solver and evaluation (Section V).

Replays the paper's methodology on the synthetic LANL world, one March
date at a time and strictly in order (histories update at end of day),
by driving ONE :class:`~repro.streaming.StreamingDetector` -- the engine
``run``, ``stream`` and every fleet tenant-day use: a date's raw DNS
records are submitted through the engine's Section IV-A funnel and the
day closes in its ``rollover()``, which

1. extracts rare destinations against the incrementally built history;
2. runs the dynamic-histogram automation detector over rare
   (host, domain) series;
3. applies the LANL C&C heuristic -- at least two distinct hosts
   beaconing to the domain at similar periods (Section V-B);
4. runs belief propagation with the additive similarity scorer, seeded
   by the case's hint hosts (cases 1-3) or by the detected C&C domains
   (case 4);
5. commits the day into the history.

The solver scores those detections against the challenge answers
(Table III).  The module also computes the Figure 3 timing CDFs and the
Table II (W, JT) parameter sweep from day contexts: a date's window
read just before a detection-free ``rollover(detect=False)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import LANL_CONFIG, SystemConfig
from ..core.beliefprop import BeliefPropagationResult
from ..profiling.rare import DailyTraffic
from ..streaming.detector import StreamingDetector
from ..synthetic.lanl import LanlCampaignTruth, LanlDataset
from ..timing.detector import AutomationDetector
from .metrics import DetectionCounts, ZERO_COUNTS, score_detections


@dataclass
class LanlDayContext:
    """One March date's window traffic and rare set, as the day closed."""

    march_date: int
    day: int
    traffic: DailyTraffic
    rare: set[str]
    truth: LanlCampaignTruth | None

    def rare_series(self) -> list[tuple[tuple[str, str], list[float]]]:
        """(host, domain) timestamp series restricted to rare domains."""
        return self.traffic.rare_series(self.rare)


@dataclass
class DayOutcome:
    """Detection result for one challenge day."""

    march_date: int
    case: int
    detected: list[str]
    counts: DetectionCounts
    cc_seeds: set[str]
    bp_result: BeliefPropagationResult | None


@dataclass
class ChallengeReport:
    """Aggregate results over all 20 campaigns (Table III)."""

    outcomes: list[DayOutcome] = field(default_factory=list)

    def counts_for(self, case: int, training: bool) -> DetectionCounts:
        """Detection counts for one case, split by training/test dates."""
        from ..synthetic.lanl import TRAINING_DATES

        total = ZERO_COUNTS
        for outcome in self.outcomes:
            if outcome.case != case:
                continue
            if (outcome.march_date in TRAINING_DATES) != training:
                continue
            total = total + outcome.counts
        return total

    def totals(self, training: bool) -> DetectionCounts:
        """Detection counts summed over all cases for one date split."""
        from ..synthetic.lanl import TRAINING_DATES

        total = ZERO_COUNTS
        for outcome in self.outcomes:
            if (outcome.march_date in TRAINING_DATES) == training:
                total = total + outcome.counts
        return total

    @property
    def overall(self) -> DetectionCounts:
        return self.totals(True) + self.totals(False)


class LanlChallengeSolver:
    """Drives one engine over the challenge; every date is fed once, in
    chronological order, by :meth:`solve_day` or :meth:`day_context`."""

    def __init__(
        self,
        dataset: LanlDataset,
        config: SystemConfig | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or LANL_CONFIG
        self.engine = StreamingDetector(
            self.config, dataset.internal_suffixes, dataset.server_ips
        )
        self.engine.history.bootstrap(dataset.bootstrap_domains)
        self._last_date = 0

    @property
    def funnel(self):
        """The engine's reduction funnel (Figure 2's accounting)."""
        return self.engine.funnel

    # ------------------------------------------------------------------

    def _submit(self, march_date: int) -> None:
        """Queue one date's raw records on the engine.  A date fed twice
        would find its own domains in the history and detect nothing."""
        if march_date <= self._last_date:
            raise ValueError(
                f"3/{march_date} is not after 3/{self._last_date}: "
                "days are solved once, in chronological order"
            )
        self.engine.submit_raw(self.dataset.day_records(march_date))
        self._last_date = march_date

    def day_context(self, march_date: int) -> LanlDayContext:
        """Reduce and aggregate one day, then close it undetected.

        The context keeps the day's window traffic and rare set; the
        "new" and "rare" steps of Figure 2 join the funnel's accounting
        under the dataset's day number.
        """
        self._submit(march_date)
        engine = self.engine
        engine.poll()
        traffic = engine.window.traffic
        new_domains = {
            domain
            for domain in traffic.hosts_by_domain
            if engine.history.is_new(domain)
        }
        rare = engine.rollover(detect=False).rare_domains
        day = self.dataset.config.bootstrap_days + (march_date - 1)
        engine.funnel.observe_profiling_step("new", day, new_domains)
        engine.funnel.observe_profiling_step("rare", day, rare)
        return LanlDayContext(
            march_date=march_date,
            day=day,
            traffic=traffic,
            rare=rare,
            truth=self.dataset.campaign_for_date(march_date),
        )

    def solve_day(self, march_date: int) -> DayOutcome:
        """Full detection for one day; updates histories afterwards.

        Cases 1-3 seed with the hint hosts only; case 4 (or any
        unhinted day) with the detected C&C domains.
        """
        truth = self.dataset.campaign_for_date(march_date)
        self._submit(march_date)
        report = self.engine.rollover(
            hint_hosts=truth.hint_hosts if truth else ()
        )
        truth_domains = set(truth.malicious_domains) if truth else set()
        return DayOutcome(
            march_date=march_date,
            case=truth.case if truth else 0,
            detected=report.detected,
            counts=score_detections(report.detected, truth_domains),
            cc_seeds=report.cc_domains,
            bp_result=report.bp_result,
        )

    def solve_all(self) -> ChallengeReport:
        """Solve every challenge date in chronological order."""
        report = ChallengeReport()
        dates = sorted(t.march_date for t in self.dataset.campaigns)
        for march_date in dates:
            report.outcomes.append(self.solve_day(march_date))
        return report


def timing_gap_samples(
    solver: LanlChallengeSolver, march_dates: list[int]
) -> tuple[list[float], list[float]]:
    """Figure 3 inputs: first-visit gaps for domain pairs by one host.

    Returns (malicious-to-malicious gaps, malicious-to-rare-legitimate
    gaps), collected over compromised hosts on the given dates.  The
    solver's days are consumed in order, so use a dedicated solver
    instance.
    """
    mal_mal: list[float] = []
    mal_legit: list[float] = []
    for march_date in sorted(march_dates):
        context = solver.day_context(march_date)
        truth = context.truth
        if truth is None:
            continue
        malicious = set(truth.malicious_domains)
        for host in truth.compromised_hosts:
            visited = [
                domain
                for domain in context.traffic.domains_by_host.get(host, ())
                if domain in context.rare
            ]
            first = {
                domain: context.traffic.first_contact(host, domain)
                for domain in visited
            }
            mal_visited = [d for d in visited if d in malicious]
            legit_visited = [d for d in visited if d not in malicious]
            for index, dom_a in enumerate(mal_visited):
                for dom_b in mal_visited[index + 1:]:
                    mal_mal.append(abs(first[dom_a] - first[dom_b]))
                for dom_b in legit_visited:
                    mal_legit.append(abs(first[dom_a] - first[dom_b]))
    return mal_mal, mal_legit


@dataclass(frozen=True)
class SweepRow:
    """One Table II row."""

    bin_width: float
    jeffrey_threshold: float
    malicious_pairs_training: int
    malicious_pairs_testing: int
    all_pairs_testing: int


def sweep_histogram_parameters(
    dataset: LanlDataset,
    bin_widths: tuple[float, ...] = (5.0, 10.0, 20.0),
    thresholds: tuple[float, ...] = (0.0, 0.034, 0.06, 0.35),
    *,
    config: SystemConfig | None = None,
) -> list[SweepRow]:
    """Table II: automated-pair counts per (W, JT) combination.

    "Malicious pairs" are (host, C&C-domain) beacon pairs from the
    ground truth; "all pairs" counts every (host, rare domain) series
    labeled automated on testing days.
    """
    from ..config import HistogramConfig
    from ..synthetic.lanl import TRAINING_DATES

    solver = LanlChallengeSolver(dataset, config)
    contexts = [
        solver.day_context(march_date)
        for march_date in sorted(t.march_date for t in dataset.campaigns)
    ]

    rows: list[SweepRow] = []
    for width in bin_widths:
        for threshold in thresholds:
            detector = AutomationDetector(
                HistogramConfig(bin_width=width, jeffrey_threshold=threshold)
            )
            mal_train = mal_test = all_test = 0
            for context in contexts:
                truth = context.truth
                cc_pairs: set[tuple[str, str]] = set()
                if truth is not None:
                    for domain in truth.cc_domains:
                        for host in truth.compromised_hosts:
                            cc_pairs.add((host, domain))
                training = truth is not None and truth.is_training
                for verdict in detector.automated_pairs(context.rare_series()):
                    pair = (verdict.host, verdict.domain)
                    if pair in cc_pairs:
                        if training:
                            mal_train += 1
                        else:
                            mal_test += 1
                    if not training:
                        all_test += 1
            rows.append(
                SweepRow(
                    bin_width=width,
                    jeffrey_threshold=threshold,
                    malicious_pairs_training=mal_train,
                    malicious_pairs_testing=mal_test,
                    all_pairs_testing=all_test,
                )
            )
    return rows
