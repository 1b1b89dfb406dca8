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
from pathlib import Path

from .config import LANL_CONFIG, SystemConfig
from .core.beliefprop import BeliefPropagationResult, belief_propagation
from .core.scoring import (
    AdditiveSimilarityScorer,
    IncrementalAdditiveScorer,
    group_verdicts_by_domain,
    multi_host_beacon_heuristic,
)
from .logs.records import ConnectionBatch
from .logs.reduction import ReductionFunnel
from .obs.metrics import NULL_METRICS
from .profiling.history import DestinationHistory
from .profiling.rare import DailyTraffic, extract_rare_domains, rare_domains_by_host
from .timing.detector import AutomationDetector

#: Parity-only path: ``detect_on_traffic(..., use_index=False)`` keeps
#: the legacy per-domain scoring loop purely as the reference the
#: indexed/batched path is pinned against (``pytest -m parity``).
#: Production always runs ``use_index=True``; the legacy branch is
#: kept green only for those tests and is slated for retirement
#: (ROADMAP).
_parity = "detect_on_traffic(use_index=False)"


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


@dataclass
class DayDetection:
    """Output of one end-of-day detection pass over a traffic aggregate."""

    cc_domains: set[str]
    detected: list[str]
    bp_result: BeliefPropagationResult | None
    intel_seeded: set[str] = field(default_factory=set)
    """Rare domains seeded from shared intelligence (fleet mode)."""

    ct_seeded: set[str] = field(default_factory=set)
    """Rare domains pulled in through CT SAN-pivot sibling edges."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per detection stage (``automation``, ``bp``)."""


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
    use_index: bool = True,
    metrics=None,
) -> DayDetection:
    """The DNS-path daily detection stages on one day of traffic.

    This is the single implementation both the batch
    :class:`DnsLogRunner` and the streaming engine
    (:class:`repro.streaming.StreamingDetector`) run at end of day, so
    streaming replay is batch-identical by construction: automation
    test over rare (host, domain) series, the multi-host beaconing C&C
    heuristic, then belief propagation seeded by C&C hits (no-hint
    mode) or by SOC hint hosts.

    ``intel_domains`` carries externally confirmed malicious domains
    (a fleet's shared intel plane, a SOC blocklist).  Those that are
    *rare today* in this traffic enter belief propagation as seed
    labels -- the paper's community-feedback amplification: a domain
    confirmed in one enterprise elevates the prior everywhere it
    appears, even where local evidence (e.g. a single beaconing host)
    would not fire the C&C heuristic on its own.

    ``ct_edges`` is an optional :class:`repro.intelstore.ct.CtIndex`:
    certificate-transparency SAN pivots become domain-domain sibling
    evidence.  Rare domains reachable from the day's seeds through
    shared certificates join the seed set (reported as ``ct_seeded``),
    and belief propagation receives a rare-restricted sibling map so
    newly labeled domains extend the frontier to their cert siblings.
    With ``ct_edges=None`` (the default) detections are byte-identical
    to a build without the parameter.

    ``use_index`` routes belief propagation through the day's
    :class:`~repro.profiling.index.TrafficIndex` and the incremental
    frontier scorer; ``False`` keeps the legacy per-domain scoring
    loops.  Both produce identical detections (the parity the
    randomized tests and ``bench_bp_scale`` assert) -- the flag exists
    for those comparisons.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`;
    stage timings are always measured (they feed the returned
    ``stage_seconds``) but recorded into histograms only when given.
    """
    obs = metrics if metrics is not None else NULL_METRICS
    stage_seconds: dict[str, float] = {}
    with obs.span("detect_automation") as automation_span:
        verdicts = automation.automated_pairs(traffic.rare_series(rare))
        verdicts_by_domain = group_verdicts_by_domain(verdicts)
        cc = {
            domain for domain, domain_verdicts in verdicts_by_domain.items()
            if multi_host_beacon_heuristic(domain, domain_verdicts, traffic)
        }
    stage_seconds["automation"] = automation_span.elapsed
    intel_seeded = set(intel_domains) & rare

    seed_hosts: set[str] = set(hint_hosts)
    seed_domains: set[str] = set()
    if not seed_hosts:
        seed_domains = set(cc)
        for domain in cc:
            seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))
    seed_domains |= intel_seeded
    for domain in intel_seeded:
        seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))

    ct_seeded: set[str] = set()
    sibling_dom = None
    if ct_edges is not None:
        from .intelstore.ct import expand_ct_seeds, sibling_map

        ct_seeded = expand_ct_seeds(seed_domains, rare, ct_edges)
        seed_domains |= ct_seeded
        for domain in ct_seeded:
            seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))
        sibling_dom = sibling_map(ct_edges, rare)

    bp_result = None
    detected: list[str] = []
    if seed_hosts:
        if use_index:
            dom_host, host_rdom = traffic.bp_views(rare)
            incremental = IncrementalAdditiveScorer(
                scorer, traffic, index=traffic.index()
            )
            scoring = {"score_frontier": incremental.score_frontier}
        else:
            dom_host = {
                d: frozenset(traffic.hosts_by_domain.get(d, ()))
                for d in rare
            }
            host_rdom = rare_domains_by_host(traffic, rare)
            scoring = {
                "similarity_score":
                    lambda dom, mal: scorer.score(dom, mal, traffic),
            }
        with obs.span("detect_bp") as bp_span:
            bp_result = belief_propagation(
                seed_hosts,
                seed_domains,
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=cc.__contains__,
                config=config.belief_propagation,
                sibling_dom=sibling_dom,
                metrics=metrics,
                **scoring,
            )
        stage_seconds["bp"] = bp_span.elapsed
        detected = sorted(seed_domains) + bp_result.detected_domains
    return DayDetection(
        cc_domains=cc,
        detected=detected,
        bp_result=bp_result,
        intel_seeded=intel_seeded,
        ct_seeded=ct_seeded,
        stage_seconds=stage_seconds,
    )


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
