"""File-based detection runner: from log files on disk to detections.

Point :func:`run_directory` at a directory of daily DNS log files (one
file per day, as written by ``repro-detect generate``): it bootstraps
the destination history from the first files, then performs daily
detection on the rest, following the paper's training/operation split
(Section III-E).  A day of logs has one lifecycle -- the streaming
engine's ``submit``/``poll``/``rollover()`` -- and ``run`` is that
engine fed each file in
:data:`~repro.streaming.engine.INGEST_CHUNK`-row polls, so a day holds
its aggregate plus one chunk of raw rows, whatever the file's size.

DNS logs carry no WHOIS/HTTP features, so the DNS path's end of day,
:func:`detect_on_traffic`, is the LANL one: the multi-host beaconing
C&C heuristic plus the additive similarity scorer (Section V-B).
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from functools import partial
from pathlib import Path

from .config import SystemConfig
from .core.dayloop import DayReport, close_day
from .core.scoring import AdditiveSimilarityScorer, multi_host_cc_scores
from .profiling.rare import DailyTraffic
from .timing.detector import AutomationDetector


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
) -> DayReport:
    """The DNS-path end of day on one day of traffic, outside an engine:
    :func:`repro.core.dayloop.close_day` (which documents the keywords)
    with the hooks :class:`repro.streaming.StreamingDetector` passes --
    the multi-host beaconing C&C heuristic (Section V-B) and
    ``scorer``'s frontier scorer."""
    return close_day(
        traffic,
        rare,
        automation=automation,
        cc_stage=lambda _traffic, verdicts: multi_host_cc_scores(verdicts),
        new_scorer=partial(scorer.frontier_scorer, traffic),
        config=config.belief_propagation,
        hint_hosts=hint_hosts,
        intel_domains=intel_domains,
        ct_edges=ct_edges,
        metrics=metrics,
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
) -> list[DayReport]:
    """Bootstrap on the first ``bootstrap_files`` logs in a directory
    (sorted by name) and detect on the rest.

    One :class:`~repro.streaming.StreamingDetector` (from
    :func:`~repro.streaming.open_engine`) fed each file through
    ``ingest_lines`` (one poll per
    :data:`~repro.streaming.engine.INGEST_CHUNK` rows): the day
    lifecycle (aggregate, rare set, detection, exactly one history
    commit) is the engine's ``rollover()``, the one ``stream`` and
    every fleet tenant-day use, and each closed file logs the same
    ``day_rollover`` event as ``stream``.  Each operational day's
    report carries the file it was read from as ``path``.
    """
    from .streaming.engine import log_day_rollover, resolve_replay_paths
    from .streaming.replay import open_engine

    paths = resolve_replay_paths(directory, pattern, bootstrap_files)
    detector = open_engine(
        config=config,
        internal_suffixes=internal_suffixes,
        server_ips=server_ips,
        metrics=metrics,
    )
    reports = []
    for index, path in enumerate(paths):
        operational = index >= bootstrap_files
        with path.open() as handle:
            detector.ingest_lines(handle)
        report = detector.rollover(detect=operational)
        log_day_rollover(report, path, bootstrap=not operational)
        if operational:
            report.path = path
            reports.append(report)
    return reports
