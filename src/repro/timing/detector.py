"""Automated-connection detection (Section IV-C).

A (host, domain) pair's connections on a day are *automated* when the
dynamic histogram of their inter-connection intervals lies within
Jeffrey divergence ``JT`` of the periodic reference.  ``W`` (bin width)
and ``JT`` jointly control resilience to outliers and attacker-added
jitter; the paper selects ``W = 10 s`` and ``JT = 0.06`` on the LANL
training campaigns (Table II).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..config import HistogramConfig
from .divergence import divergence_from_periodic
from .histogram import assign_intervals, histogram_from_clusters, intervals

@dataclass(frozen=True, slots=True)
class AutomationVerdict:
    """Result of testing one (host, domain) connection series."""

    host: str
    domain: str
    automated: bool
    divergence: float
    period: float
    """Inferred beacon period in seconds (hub of the dominant bin);
    0.0 when the series was too short to test."""

    connections: int


class AutomationDetector:
    """Applies the dynamic-histogram periodicity test to daily series."""

    def __init__(self, config: HistogramConfig | None = None, *, metric: str = "jeffrey") -> None:
        self.config = config or HistogramConfig()
        self.metric = metric

    def clusters(self, gaps: Sequence[float]) -> tuple[list[float], list[int]]:
        """Dynamic-histogram clusters ``(hubs, counts)`` of a non-empty
        interval sequence, exactly as :func:`assign_intervals` builds them.

        A series whose gaps all lie within ``W`` of the first is one
        cluster on the first gap -- what the scan would build, found
        here by three C-level passes instead.  Rounding is monotone, so
        the widest deviation from the first gap is at the largest or
        the smallest gap.  ``max``/``min`` may skip a NaN, so a NaN sum
        takes the scan, where a NaN gap founds a cluster of its own.
        """
        first = gaps[0]
        width = self.config.bin_width
        if (
            abs(max(gaps) - first) <= width
            and abs(min(gaps) - first) <= width
            and not math.isnan(sum(gaps))
        ):
            return [first], [len(gaps)]
        hubs: list[float] = []
        counts: list[int] = []
        assign_intervals(hubs, counts, gaps, width)
        return hubs, counts

    def judge(
        self,
        host: str,
        domain: str,
        hubs: Sequence[float],
        counts: Sequence[int],
        connections: int,
    ) -> AutomationVerdict:
        """Verdict on a series clustered into (``hubs``, ``counts``).

        One cluster has frequency 1.0 on its own hub, which is exactly
        where the periodic reference puts its mass, so the Jeffrey and
        L1 distances are both exactly ``0.0`` (``1.0 * log(1.0) ==
        0.0``) and the period is that hub; no histogram is built.
        """
        if len(hubs) == 1:
            divergence, period = 0.0, hubs[0]
        else:
            histogram = histogram_from_clusters(hubs, counts)
            divergence = divergence_from_periodic(histogram, metric=self.metric)
            period = histogram.period
        return AutomationVerdict(
            host=host,
            domain=domain,
            automated=divergence <= self.config.jeffrey_threshold,
            divergence=divergence,
            period=period,
            connections=connections,
        )

    def test_series(
        self, host: str, domain: str, timestamps: Sequence[float]
    ) -> AutomationVerdict:
        """Test one (host, domain) daily timestamp series.

        Series shorter than ``min_connections`` are never automated --
        there is not enough evidence either way, and the paper targets
        regular *repeated* beaconing.
        """
        count = len(timestamps)
        if count < self.config.min_connections:
            return AutomationVerdict(
                host=host, domain=domain, automated=False,
                divergence=float("inf"), period=0.0, connections=count,
            )
        hubs, counts = self.clusters(intervals(timestamps))
        return self.judge(host, domain, hubs, counts, count)

    def automated_pairs(
        self,
        series: Iterable[tuple[tuple[str, str], Sequence[float]]],
    ) -> list[AutomationVerdict]:
        """Test many (host, domain) series; return the automated ones.

        ``series`` yields ``((host, domain), sorted_timestamps)`` pairs,
        the shape produced by :class:`repro.profiling.DailyTraffic`.
        Each series is :meth:`test_series`; one shorter than
        ``min_connections`` is skipped without building its verdict.
        """
        floor = self.config.min_connections
        verdicts = []
        for (host, domain), timestamps in series:
            if len(timestamps) >= floor:
                verdict = self.test_series(host, domain, timestamps)
                if verdict.automated:
                    verdicts.append(verdict)
        return verdicts
