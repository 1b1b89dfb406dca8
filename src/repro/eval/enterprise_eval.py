"""Enterprise (AC) evaluation harness (Section VI).

Trains the full pipeline on the synthetic enterprise's bootstrap month,
replays the operation month once -- each day through the window
training and the streaming engines use
(:meth:`~repro.core.pipeline.EnterpriseDetector.day_window`) -- to cache
per-day aggregation state, then sweeps thresholds cheaply over the
cached state:

* :meth:`EnterpriseEvaluation.cc_sweep` -- Figure 6(a): domains labeled
  C&C as the automated-domain score threshold varies;
* :meth:`EnterpriseEvaluation.no_hint_sweep` -- Figure 6(b): belief
  propagation seeded by detected C&C, varying the similarity threshold;
* :meth:`EnterpriseEvaluation.soc_hints_sweep` -- Figure 6(c): belief
  propagation seeded by SOC IOC domains;
* :meth:`EnterpriseEvaluation.score_samples` -- Figure 5: automated
  domain scores split by VirusTotal label.

Validation mirrors Section VI-B: detections are classified as known
malicious (VT or SOC), new malicious (truly malicious, unknown to
both -- the paper's new discoveries), or legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from ..config import ENTERPRISE_CONFIG, SystemConfig
from ..core.dayloop import DayDetection, detect_day
from ..core.pipeline import EnterpriseDetector
from ..core.scoring import automated_hosts_by_domain
from ..intel.ioc import IocList
from ..intel.virustotal import VirusTotalOracle
from ..profiling.rare import DailyTraffic
from ..synthetic.enterprise import EnterpriseDataset
from ..synthetic.fleet import train_enterprise_detector
from .metrics import ValidationBreakdown, validate_detections

SECONDS_PER_DAY = 86_400.0


@dataclass
class OperationalDay:
    """Cached aggregation state for one operation day."""

    day: int
    traffic: DailyTraffic
    rare: set[str]
    auto_hosts: dict[str, set[str]]
    cc_scores: dict[str, float]
    when: float


@dataclass(frozen=True)
class SweepPoint:
    """One threshold point of a Figure 6 sweep."""

    threshold: float
    detected: frozenset[str]
    breakdown: ValidationBreakdown

    @property
    def detected_count(self) -> int:
        return len(self.detected)


@dataclass
class EnterpriseEvaluation:
    """Trained pipeline plus cached operation-month state."""

    dataset: EnterpriseDataset
    config: SystemConfig = field(default_factory=lambda: ENTERPRISE_CONFIG)
    detector: EnterpriseDetector = field(init=False)
    virustotal: VirusTotalOracle = field(init=False)
    ioc: IocList = field(init=False)
    days: list[OperationalDay] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.virustotal = self.dataset.build_virustotal()
        self.ioc = self.dataset.build_ioc_list()
        self.detector = train_enterprise_detector(self.dataset, self.config)
        self._replay_operation_month()

    def _replay_operation_month(self) -> None:
        """Aggregate every operation day once, updating profiles in order."""
        first = self.dataset.config.bootstrap_days
        last = self.dataset.config.total_days
        for day, connections in self.dataset.day_batches(first, last):
            window = self.detector.day_window(day, connections)
            # A copy: the rollover below clears the window's own set.
            traffic, rare = window.traffic, set(window.rare)
            when = (day + 1) * SECONDS_PER_DAY
            verdicts = self.detector._automation_verdicts(traffic, rare)
            cc_scores = self.detector.cc_scorer.score_automated(
                verdicts, traffic, when
            )
            self.days.append(
                OperationalDay(
                    day=day,
                    traffic=traffic,
                    rare=rare,
                    auto_hosts=automated_hosts_by_domain(verdicts),
                    cc_scores=cc_scores,
                    when=when,
                )
            )
            window.rollover()

    # ------------------------------------------------------------------
    # Figure 5
    # ------------------------------------------------------------------

    def score_samples(self) -> tuple[list[float], list[float]]:
        """(reported scores, legitimate scores) of automated domains."""
        reported: list[float] = []
        legitimate: list[float] = []
        for op_day in self.days:
            for domain, score in op_day.cc_scores.items():
                if self.virustotal.is_reported(domain):
                    reported.append(score)
                else:
                    legitimate.append(score)
        return reported, legitimate

    # ------------------------------------------------------------------
    # Detection at a given threshold
    # ------------------------------------------------------------------

    def cc_detections(self, tc: float) -> set[str]:
        """Domains labeled C&C over the month at threshold ``tc``."""
        detected: set[str] = set()
        for op_day in self.days:
            detected.update(
                domain
                for domain, score in op_day.cc_scores.items()
                if score >= tc
            )
        return detected

    def detect(
        self, op_day: OperationalDay, ts: float, tc: float = 0.4, **hints
    ) -> DayDetection:
        """One seed -> propagate pass over a cached day at thresholds
        ``ts`` / ``tc`` (:func:`repro.core.dayloop.detect_day`)."""
        return detect_day(
            op_day.traffic,
            op_day.rare,
            cc={
                domain
                for domain, score in op_day.cc_scores.items()
                if score >= tc
            },
            new_scorer=partial(
                self.detector.similarity_scorer.frontier_scorer,
                op_day.traffic,
                op_day.when,
            ),
            config=replace(
                self.config.belief_propagation, similarity_threshold=ts
            ),
            **hints,
        )

    def no_hint_detections(self, ts: float, tc: float = 0.4) -> set[str]:
        """No-hint mode over the month: C&C seeds + BP expansion."""
        detected: set[str] = set()
        for op_day in self.days:
            detected.update(self.detect(op_day, ts, tc).detected)
        return detected

    def soc_hints_detections(self, ts: float, tc: float = 0.4) -> set[str]:
        """SOC-hints mode: IOC-seeded BP; seeds excluded from output."""
        seeds = set(self.ioc.seeds())
        detected: set[str] = set()
        if seeds:  # no IOCs is not a hint: the kernel would run no-hint
            for op_day in self.days:
                detected.update(
                    self.detect(op_day, ts, tc, hint_domains=seeds).detected
                )
        return detected - seeds

    # ------------------------------------------------------------------
    # Sweeps (Figure 6)
    # ------------------------------------------------------------------

    def _validate(self, detected: set[str]) -> ValidationBreakdown:
        return validate_detections(
            detected,
            self.dataset.malicious_domains,
            self.virustotal.reported_domains,
            set(self.ioc.seeds()),
        )

    def cc_sweep(
        self, thresholds: tuple[float, ...] = (0.40, 0.42, 0.44, 0.45, 0.46, 0.48)
    ) -> list[SweepPoint]:
        """Figure 6(a)."""
        return [
            SweepPoint(tc, frozenset(d := self.cc_detections(tc)), self._validate(d))
            for tc in thresholds
        ]

    def no_hint_sweep(
        self,
        thresholds: tuple[float, ...] = (0.33, 0.5, 0.65, 0.75, 0.85),
        tc: float = 0.4,
    ) -> list[SweepPoint]:
        """Figure 6(b)."""
        return [
            SweepPoint(
                ts,
                frozenset(d := self.no_hint_detections(ts, tc)),
                self._validate(d),
            )
            for ts in thresholds
        ]

    def soc_hints_sweep(
        self,
        thresholds: tuple[float, ...] = (0.33, 0.37, 0.40, 0.41, 0.45),
        tc: float = 0.4,
    ) -> list[SweepPoint]:
        """Figure 6(c)."""
        return [
            SweepPoint(
                ts,
                frozenset(d := self.soc_hints_detections(ts, tc)),
                self._validate(d),
            )
            for ts in thresholds
        ]
