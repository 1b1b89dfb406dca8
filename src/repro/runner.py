"""File-based detection runner: from log files on disk to detections.

Point :func:`run_directory` at a directory of daily DNS log files (one
file per day, as written by ``repro-detect generate``): it bootstraps
the destination history from the first files, then performs daily
detection on the rest, following the paper's training/operation split
(Section III-E).  A day of logs has one lifecycle -- the streaming
engine's ``submit``/``poll``/``rollover()`` -- and ``run`` is that
engine fed each file in one poll.

DNS logs carry no WHOIS/HTTP features, so the DNS path's end-of-day
routine, :func:`detect_on_traffic`, is the LANL one: the multi-host
beaconing C&C heuristic plus the additive similarity scorer (Section
V-B).  Hint hosts may be supplied per day for the SOC-hints mode.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .config import SystemConfig
from .core.dayloop import DayDetection, detect_day
from .core.scoring import AdditiveSimilarityScorer, multi_host_cc_domains
from .obs.metrics import NULL_METRICS
from .profiling.rare import DailyTraffic
from .timing.detector import AutomationDetector

if TYPE_CHECKING:
    from .streaming.engine import StreamDayReport


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
    (no-hint mode) or by SOC ``hint_hosts``.  The streaming engine
    (:class:`repro.streaming.StreamingDetector`) runs this at every
    ``rollover()``, whichever verb feeds it.

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
) -> list[StreamDayReport]:
    """Bootstrap on the first ``bootstrap_files`` logs in a directory
    (sorted by name) and detect on the rest.

    One :class:`~repro.streaming.StreamingDetector` fed each file in a
    single poll: the day lifecycle (aggregate, rare set, detection,
    exactly one history commit) is the engine's ``rollover()``, the one
    ``stream`` and every fleet tenant-day use.  Each operational day's
    report carries the file it was read from as ``path``.  ``ct_edges``
    (a :class:`repro.intelstore.ct.CtIndex`) flows into every day's
    detection pass.
    """
    from .streaming.detector import StreamingDetector
    from .streaming.engine import resolve_replay_paths

    paths = resolve_replay_paths(directory, pattern, bootstrap_files)
    detector = StreamingDetector(
        config=config,
        internal_suffixes=internal_suffixes,
        server_ips=server_ips,
        metrics=metrics,
    )
    reports = []
    for index, path in enumerate(paths):
        operational = index >= bootstrap_files
        with path.open() as handle:
            detector.submit_lines(handle)
        report = detector.rollover(detect=operational, ct_edges=ct_edges)
        if operational:
            report.path = path
            reports.append(report)
    return reports
