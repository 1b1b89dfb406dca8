"""Automated-connection detection (Section IV-C).

A (host, domain) pair's connections on a day are *automated* when the
dynamic histogram of their inter-connection intervals lies within
Jeffrey divergence ``JT`` of the periodic reference.  ``W`` (bin width)
and ``JT`` jointly control resilience to outliers and attacker-added
jitter; the paper selects ``W = 10 s`` and ``JT = 0.06`` on the LANL
training campaigns (Table II).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..config import HistogramConfig
from .divergence import divergence_from_periodic
from .histogram import DynamicHistogram, histogram_from_timestamps

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

    def histogram(self, timestamps: Sequence[float]) -> DynamicHistogram:
        return histogram_from_timestamps(timestamps, self.config.bin_width)

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
        histogram = self.histogram(timestamps)
        divergence = divergence_from_periodic(histogram, metric=self.metric)
        return AutomationVerdict(
            host=host,
            domain=domain,
            automated=divergence <= self.config.jeffrey_threshold,
            divergence=divergence,
            period=histogram.period,
            connections=count,
        )

    def automated_pairs(
        self,
        series: Iterable[tuple[tuple[str, str], Sequence[float]]],
    ) -> list[AutomationVerdict]:
        """Test many (host, domain) series; return the automated ones.

        ``series`` yields ``((host, domain), sorted_timestamps)`` pairs,
        the shape produced by :class:`repro.profiling.DailyTraffic`.
        Dispatches to the vectorized batch in
        :func:`repro.timing.batch.automated_pairs_batch`, which is
        bit-identical to calling :meth:`test_series` per pair (the
        ``parity`` tests pin the two together).
        """
        from .batch import automated_pairs_batch

        return automated_pairs_batch(self, series)
