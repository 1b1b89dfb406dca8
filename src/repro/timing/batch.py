"""Vectorized automation testing over many candidate series at once.

The scalar path in :mod:`repro.timing.histogram` /
:mod:`repro.timing.divergence` tests one (host, domain) series at a
time: a Python loop per interval, a Python loop per cluster, a Python
loop per divergence term.  A day of traffic yields thousands of
candidate series, the overwhelming majority of which are *boring*:
either too short to test, or so regular that every interval joins the
first cluster.  This module batches those cases into NumPy array ops
while delegating anything non-trivial back to the scalar path, keeping
the results bit-identical.

**Exactness discipline.**  Matching the scalar implementations to the
last ulp constrains which array ops are usable:

* Interval extraction (``later - earlier``) is a single IEEE
  subtraction -- ``np.diff`` over float64 produces the same bits.
* A series whose intervals all lie within ``bin_width`` of the first
  interval clusters into a *single* bin (the first cluster exists from
  the start and is checked first, so nothing can found a second one).
  Its frequency is exactly 1.0, the periodic reference places exactly
  1.0 on the same hub, and both the Jeffrey and L1 distances are
  exactly ``0.0`` (``1.0 * log(1.0) == 0.0`` in IEEE arithmetic).  The
  batch detects this case with one ``np.maximum.reduceat`` over all
  candidates and emits the verdict without building a histogram.
* Everything else -- multi-cluster histograms, too-short series,
  unsorted input (which must raise) -- goes through the scalar
  :meth:`~repro.timing.detector.AutomationDetector.test_series`,
  exact by construction.  ``np.log`` is *not* usable for the general
  divergence: NumPy's SIMD log differs from ``math.log`` in the last
  ulp for some inputs, and pairwise ``np.sum`` reassociates additions.

The ``parity`` test group pins :func:`automated_pairs_batch` against
the per-series definition on randomized series, including empty,
single-event and duplicate-timestamp inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .detector import AutomationDetector, AutomationVerdict


def automated_pairs_batch(
    detector: "AutomationDetector",
    series: Iterable[tuple[tuple[str, str], Sequence[float]]],
) -> list["AutomationVerdict"]:
    """Batched :meth:`AutomationDetector.automated_pairs`.

    One pass of array ops classifies every candidate series:

    * shorter than ``min_connections`` -> never automated (dropped
      without touching its timestamps, like the scalar prefilter);
    * single-cluster (all intervals within ``bin_width`` of the first)
      -> automated with divergence exactly ``0.0`` and the first
      interval as period, emitted straight from the array pass;
    * anything else -> the scalar ``test_series``, including series
      that must raise (unsorted) or that need a real histogram.

    Output order and contents are identical to the scalar loop.
    """
    from .detector import AutomationVerdict

    items = series if isinstance(series, list) else list(series)
    if not items:
        return []
    config = detector.config
    min_connections = config.min_connections
    lengths = np.fromiter(
        (len(timestamps) for _, timestamps in items),
        dtype=np.int64,
        count=len(items),
    )
    candidates = np.flatnonzero(
        (lengths >= min_connections) & (lengths >= 2)
    )
    # Series meeting min_connections with < 2 events (possible only
    # when the config lowers the floor) keep the scalar path, as do
    # too-short series, which the scalar loop drops without testing.
    fast_automated: dict[int, "AutomationVerdict"] = {}
    needs_scalar: set[int] = set(
        np.flatnonzero(
            (lengths >= min_connections) & (lengths < 2)
        ).tolist()
    )
    if candidates.size:
        cand_lengths = lengths[candidates]
        flat = np.empty(int(cand_lengths.sum()), dtype=np.float64)
        cursor = 0
        for item_index, length in zip(
            candidates.tolist(), cand_lengths.tolist()
        ):
            flat[cursor:cursor + length] = items[item_index][1]
            cursor += length
        gaps = np.diff(flat)
        # Drop the diffs spanning one series' end to the next's start.
        series_starts = np.concatenate(
            ([0], np.cumsum(cand_lengths[:-1]))
        )
        if series_starts.size > 1:
            gaps = np.delete(gaps, series_starts[1:] - 1)
        gap_counts = cand_lengths - 1
        gap_starts = np.concatenate(([0], np.cumsum(gap_counts[:-1])))
        first_gaps = gaps[gap_starts]
        deviations = np.abs(gaps - np.repeat(first_gaps, gap_counts))
        max_deviation = np.maximum.reduceat(deviations, gap_starts)
        min_gap = np.minimum.reduceat(gaps, gap_starts)
        single_bin = (max_deviation <= config.bin_width) & (min_gap >= 0)
        threshold = config.jeffrey_threshold
        for position, item_index in enumerate(candidates.tolist()):
            if not single_bin[position]:
                # Multi-cluster or unsorted: scalar handles both
                # (raising on the latter, exactly like before).
                needs_scalar.add(item_index)
                continue
            if 0.0 > threshold:
                continue  # automated=False -> dropped either way
            (host, domain), _ = items[item_index]
            fast_automated[item_index] = AutomationVerdict(
                host=host,
                domain=domain,
                automated=True,
                divergence=0.0,
                period=float(first_gaps[position]),
                connections=int(lengths[item_index]),
            )
    verdicts: list["AutomationVerdict"] = []
    for item_index, ((host, domain), timestamps) in enumerate(items):
        fast = fast_automated.get(item_index)
        if fast is not None:
            verdicts.append(fast)
        elif item_index in needs_scalar:
            verdict = detector.test_series(host, domain, timestamps)
            if verdict.automated:
                verdicts.append(verdict)
    return verdicts
