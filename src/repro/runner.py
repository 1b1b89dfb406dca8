"""File-based detection runner: from log files on disk to detections.

Everything else in the library works on in-memory record streams; this
module is the operational wrapper a deployment actually runs -- point
it at a directory of daily DNS log files (one file per day, as written
by ``repro-detect generate``), and it bootstraps the destination
history from the first files, then performs daily detection on the
rest, exactly following the paper's training/operation split
(Section III-E).

DNS logs carry no WHOIS/HTTP features, so the runner uses the LANL
path: the multi-host beaconing C&C heuristic plus the additive
similarity scorer (Section V-B).  Hint hosts may be supplied per day
for the SOC-hints mode.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .config import LANL_CONFIG, SystemConfig
from .core.beliefprop import BeliefPropagationResult
from .core.dayloop import DayDetection, detect_day
from .core.scoring import AdditiveSimilarityScorer, multi_host_cc_domains
from .logs.records import ConnectionBatch
from .logs.reduction import ReductionFunnel
from .obs.metrics import NULL_METRICS
from .profiling.history import DestinationHistory
from .profiling.rare import DailyTraffic, extract_rare_domains
from .timing.detector import AutomationDetector


@dataclass
class RunnerDayReport:
    """What the runner produced for one operational log file."""

    path: Path
    day: int
    records: int
    rare_domains: set[str]
    cc_domains: set[str]
    detected: list[str]
    bp_result: BeliefPropagationResult | None = None


def detect_on_traffic(
    traffic: DailyTraffic,
    rare: set[str],
    *,
    automation: AutomationDetector,
    scorer: AdditiveSimilarityScorer,
    config: SystemConfig,
    hint_hosts: Sequence[str] = (),
    intel_domains: Set[str] = frozenset(),
    ct_edges=None,
    metrics=None,
) -> DayDetection:
    """The DNS-path daily detection stages on one day of traffic.

    The automation test over rare (host, domain) series and the
    multi-host beaconing C&C heuristic (Section V-B), then
    :func:`repro.core.dayloop.detect_day` -- the seed -> Algorithm 1
    half every mode and both pipelines share -- seeded by the C&C hits
    (no-hint mode) or by SOC ``hint_hosts``.  Both the batch
    :class:`DnsLogRunner` and the streaming engine
    (:class:`repro.streaming.StreamingDetector`) run this at end of
    day, so streaming replay is batch-identical by construction.

    ``scorer`` hands out the run's frontier scorer
    (:meth:`~repro.core.scoring.AdditiveSimilarityScorer
    .frontier_scorer`); ``intel_domains`` and ``ct_edges`` pass
    straight through to the kernel, which documents them.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`;
    stage timings are always measured (they feed the returned
    ``stage_seconds``) but recorded into histograms only when given.
    """
    obs = metrics if metrics is not None else NULL_METRICS
    with obs.span("detect_automation") as automation_span:
        cc = multi_host_cc_domains(
            automation.automated_pairs(traffic.rare_series(rare))
        )
    detection = detect_day(
        traffic,
        rare,
        cc=cc,
        new_scorer=partial(scorer.frontier_scorer, traffic),
        config=config.belief_propagation,
        hint_hosts=hint_hosts,
        intel_domains=intel_domains,
        ct_edges=ct_edges,
        metrics=metrics,
    )
    detection.stage_seconds = {
        "automation": automation_span.elapsed, **detection.stage_seconds
    }
    return detection


@dataclass
class DnsLogRunner:
    """Stateful daily runner over on-disk DNS log files.

    Feed files chronologically: :meth:`bootstrap` for the training
    period, then :meth:`process` per operational day.  State (the
    destination history) carries across calls, like the deployed
    system's nightly update.
    """

    config: SystemConfig = field(default_factory=lambda: LANL_CONFIG)
    internal_suffixes: tuple[str, ...] = ()
    server_ips: frozenset[str] = frozenset()
    history: DestinationHistory = field(default_factory=DestinationHistory)
    metrics: object = None
    ct_edges: object = None
    """Optional :class:`repro.intelstore.ct.CtIndex`; certificate
    sibling evidence then flows into every day's detection pass,
    mirroring the streaming engine's ``rollover(ct_edges=...)``."""

    _day_counter: int = 0

    def __post_init__(self) -> None:
        if self.metrics is None:
            self.metrics = NULL_METRICS
        self.automation = AutomationDetector(self.config.histogram)
        self.scorer = AdditiveSimilarityScorer()
        self.funnel = ReductionFunnel(
            self.internal_suffixes,
            self.server_ips,
            fold_level=self.config.rarity.fold_level,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------

    def _aggregate(
        self, batches: Iterable[ConnectionBatch]
    ) -> tuple[DailyTraffic, set[str], int]:
        """Aggregate one day's reduced column batches; ``(traffic,
        rare set, reduced record count)``."""
        traffic = DailyTraffic(self._day_counter)
        count = traffic.ingest(batches).n_events
        rare = extract_rare_domains(
            traffic,
            self.history,
            unpopular_max_hosts=self.config.rarity.unpopular_max_hosts,
        )
        return traffic, rare, count

    def _commit(self, traffic: DailyTraffic) -> None:
        for domain in traffic.hosts_by_domain:
            self.history.stage(domain, self._day_counter)
        self.history.commit_day(self._day_counter)
        self._day_counter += 1

    # ------------------------------------------------------------------

    def bootstrap(self, paths: Iterable[Path]) -> int:
        """Fold training-period files into the history; returns the
        number of distinct destinations profiled."""
        for path in sorted(Path(p) for p in paths):
            with path.open() as handle:
                self._bootstrap_day(self.funnel.read_lines(handle))
        return len(self.history)

    def bootstrap_records(self, raw_records) -> int:
        """Fold one training day of in-memory raw records into the
        history (the file-less analogue of :meth:`bootstrap`)."""
        self._bootstrap_day(self.funnel.read_records(raw_records))
        return len(self.history)

    def _bootstrap_day(self, batches: Iterable[ConnectionBatch]) -> None:
        """Aggregate and commit one training day; the day's traffic is
        released on return, before the next file is read."""
        traffic, _rare, _count = self._aggregate(batches)
        self._commit(traffic)

    def process_records(
        self,
        raw_records,
        *,
        label: str | Path = "<records>",
        hint_hosts: Sequence[str] = (),
    ) -> RunnerDayReport:
        """Detect on one operational day of in-memory raw records.

        The file-less analogue of :meth:`process` -- same funnel,
        normalization and detection pass, so a day fed through here is
        byte-identical to the same records parsed from a file.  The
        adversarial evasion harness drives both this and the streaming
        engine over identical record lists to assert batch/streaming
        parity without touching disk.
        """
        return self._process(
            self.funnel.read_records(raw_records), label, hint_hosts
        )

    def _process(
        self,
        batches: Iterable[ConnectionBatch],
        label: str | Path,
        hint_hosts: Sequence[str],
    ) -> RunnerDayReport:
        """Aggregate, detect on and commit one operational day."""
        traffic, rare, record_count = self._aggregate(batches)
        detection = detect_on_traffic(
            traffic,
            rare,
            automation=self.automation,
            scorer=self.scorer,
            config=self.config,
            hint_hosts=hint_hosts,
            ct_edges=self.ct_edges,
            metrics=self.metrics,
        )
        self.metrics.counter("runner_days_total").inc()
        report = RunnerDayReport(
            path=Path(label),
            day=self._day_counter,
            records=record_count,
            rare_domains=rare,
            cc_domains=detection.cc_domains,
            detected=detection.detected,
            bp_result=detection.bp_result,
        )
        self._commit(traffic)
        return report

    def process(
        self, path: Path, *, hint_hosts: Sequence[str] = ()
    ) -> RunnerDayReport:
        """Detect on one operational day's log file."""
        path = Path(path)
        with path.open() as handle:
            return self._process(
                self.funnel.read_lines(handle), path, hint_hosts
            )


def run_directory(
    directory: str | Path,
    *,
    bootstrap_files: int,
    pattern: str = "*.log",
    config: SystemConfig | None = None,
    internal_suffixes: tuple[str, ...] = (),
    server_ips: frozenset[str] = frozenset(),
    metrics=None,
    ct_edges=None,
) -> list[RunnerDayReport]:
    """Bootstrap on the first ``bootstrap_files`` logs in a directory
    (sorted by name) and detect on the rest."""
    paths = sorted(Path(directory).glob(pattern))
    if len(paths) <= bootstrap_files:
        raise ValueError(
            f"need more than {bootstrap_files} files in {directory}, "
            f"found {len(paths)}"
        )
    runner = DnsLogRunner(
        config=config or LANL_CONFIG,
        internal_suffixes=internal_suffixes,
        server_ips=server_ips,
        metrics=metrics,
        ct_edges=ct_edges,
    )
    runner.bootstrap(paths[:bootstrap_files])
    return [runner.process(path) for path in paths[bootstrap_files:]]
