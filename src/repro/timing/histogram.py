"""Dynamic histogram binning of inter-connection intervals (Section IV-C).

Static histogram bins make statistical distances brittle: two nearly
identical interval sequences can land in different bins depending on
alignment.  The paper instead *clusters* the observed intervals and
lets the clusters define the bins:

* the first interval becomes the first cluster hub;
* each subsequent interval joins an existing cluster when it lies
  within ``W`` (the bin width) of that cluster's hub, otherwise it
  founds a new cluster with itself as hub.

Each cluster becomes one bin whose frequency is the fraction of
intervals assigned to it.  This absorbs the small timing jitter
attackers add between beacons while still separating genuinely
different periods.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Bin:
    """One dynamic histogram bin."""

    hub: float
    """Representative interval value (the first member of the cluster)."""

    count: int
    """Number of intervals assigned to the bin."""

    frequency: float
    """``count`` normalized by the total number of intervals."""


@dataclass(frozen=True)
class DynamicHistogram:
    """Histogram of inter-connection intervals with data-defined bins."""

    bins: tuple[Bin, ...]
    total: int

    def __post_init__(self) -> None:
        if self.total != sum(b.count for b in self.bins):
            raise ValueError("bin counts do not sum to total")

    @property
    def dominant_bin(self) -> Bin:
        """The highest-frequency bin; its hub is the inferred period.

        Ties break toward the earlier-created (smaller-index) bin,
        which is the first-seen interval value.
        """
        if not self.bins:
            raise ValueError("empty histogram has no dominant bin")
        return max(self.bins, key=lambda b: b.count)

    @property
    def period(self) -> float:
        return self.dominant_bin.hub


def intervals(timestamps: Sequence[float]) -> list[float]:
    """Inter-connection intervals of a sorted timestamp series.

    Raises ``ValueError`` when the series is not sorted; silent
    negative intervals would corrupt every downstream statistic.  A NaN
    interval is not negative, and hides no negative one wherever it sits.
    """
    gaps = list(map(operator.sub, timestamps[1:], timestamps[:-1]))
    # ``min`` may skip a negative gap past a NaN; a sum that is a number
    # proves there is none, so only a NaN sum checks gap by gap.
    if (
        any(map((0.0).__gt__, gaps)) if math.isnan(sum(gaps))
        else min(gaps, default=0.0) < 0.0
    ):
        raise ValueError("timestamps must be sorted non-decreasingly")
    return gaps


def assign_intervals(
    hubs: list[float],
    counts: list[int],
    values: Iterable[float],
    bin_width: float,
) -> None:
    """Assign intervals to their dynamic-histogram clusters in place.

    Clusters are scanned in creation order and each interval joins the
    *first* cluster whose hub is within ``bin_width``; otherwise it
    founds a new cluster with itself as hub.  Because assignment only
    depends on the clusters created by *earlier* intervals, appending
    intervals to an existing (``hubs``, ``counts``) pair yields exactly
    the histogram a full rebuild over the extended sequence would --
    the property the streaming verdict cache relies on.
    """
    for value in values:
        for index, hub in enumerate(hubs):
            if abs(value - hub) <= bin_width:
                counts[index] += 1
                break
        else:
            hubs.append(value)
            counts.append(1)


def histogram_from_clusters(
    hubs: Sequence[float], counts: Sequence[int]
) -> DynamicHistogram:
    """Freeze (``hubs``, ``counts``) cluster state into a histogram."""
    total = sum(counts)
    bins = tuple(
        Bin(hub=hub, count=count, frequency=count / total)
        for hub, count in zip(hubs, counts)
    )
    return DynamicHistogram(bins=bins, total=total)


def build_histogram(
    interval_values: Sequence[float], bin_width: float
) -> DynamicHistogram:
    """Cluster intervals into a :class:`DynamicHistogram`.

    Implements the paper's scheme verbatim via :func:`assign_intervals`.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not interval_values:
        return DynamicHistogram(bins=(), total=0)
    hubs: list[float] = []
    counts: list[int] = []
    assign_intervals(hubs, counts, interval_values, bin_width)
    return histogram_from_clusters(hubs, counts)


def histogram_from_timestamps(
    timestamps: Sequence[float], bin_width: float
) -> DynamicHistogram:
    """Convenience: intervals + clustering in one call."""
    return build_histogram(intervals(timestamps), bin_width)
