"""Unit tests for the automation detector and its baselines."""

import math
import random

import pytest

from repro.config import HistogramConfig
from repro.timing import (
    AutocorrelationDetector,
    AutomationDetector,
    FftDetector,
    StaticBinDetector,
    StdDevDetector,
)
from repro.timing.divergence import divergence_from_periodic
from repro.timing.histogram import assign_intervals, histogram_from_timestamps


def beacon(period=600.0, count=30, jitter=0.0, start=0.0, seed=1):
    rng = random.Random(seed)
    times, t = [], start
    for _ in range(count):
        times.append(t)
        t += period + rng.uniform(-jitter, jitter)
    return times


def browsing(count=30, seed=2):
    rng = random.Random(seed)
    times, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(1.0 / 300.0)
        times.append(t)
    return times


class TestAutomationDetector:
    def test_detects_perfect_beacon(self):
        detector = AutomationDetector()
        verdict = detector.test_series("h", "d.com", beacon())
        assert verdict.automated
        assert verdict.divergence == 0.0
        assert verdict.period == 600.0

    def test_detects_jittered_beacon(self):
        detector = AutomationDetector()
        verdict = detector.test_series("h", "d.com", beacon(jitter=3.0))
        assert verdict.automated

    def test_rejects_human_browsing(self):
        detector = AutomationDetector()
        verdict = detector.test_series("h", "d.com", browsing())
        assert not verdict.automated

    def test_short_series_never_automated(self):
        detector = AutomationDetector(HistogramConfig(min_connections=4))
        verdict = detector.test_series("h", "d.com", [0.0, 600.0, 1200.0])
        assert not verdict.automated
        assert verdict.connections == 3

    def test_outlier_resilience(self):
        """One big gap (laptop asleep) must not break detection."""
        times = beacon(count=30)
        times = times[:15] + [t + 20_000.0 for t in times[15:]]
        detector = AutomationDetector()
        assert detector.test_series("h", "d.com", times).automated

    def test_threshold_controls_sensitivity(self):
        times = beacon(count=12, jitter=0.0)
        # Corrupt a third of the gaps far beyond any bin.
        times = times[:8] + [t + 5_000.0 * i for i, t in enumerate(times[8:])]
        strict = AutomationDetector(HistogramConfig(jeffrey_threshold=0.0))
        loose = AutomationDetector(HistogramConfig(jeffrey_threshold=0.35))
        assert not strict.test_series("h", "d", times).automated
        assert loose.test_series("h", "d", times).automated

    def test_automated_pairs_filters(self):
        detector = AutomationDetector()
        series = [
            (("h1", "beacon.com"), beacon()),
            (("h2", "human.com"), browsing()),
        ]
        verdicts = detector.automated_pairs(series)
        assert [v.domain for v in verdicts] == ["beacon.com"]

    def test_l1_metric_variant(self):
        detector = AutomationDetector(metric="l1")
        assert detector.test_series("h", "d", beacon()).automated


class TestStdDevBaseline:
    def test_detects_clean_beacon(self):
        assert StdDevDetector().test_series("h", "d", beacon()).automated

    def test_single_outlier_breaks_it(self):
        """The failure mode that motivated dynamic histograms (IV-C)."""
        times = beacon(count=20)
        times[-1] += 50_000.0
        stddev = StdDevDetector().test_series("h", "d", times)
        dynamic = AutomationDetector().test_series("h", "d", times)
        assert not stddev.automated
        assert dynamic.automated

    def test_rejects_browsing(self):
        assert not StdDevDetector().test_series("h", "d", browsing()).automated

    def test_short_series(self):
        assert not StdDevDetector().test_series("h", "d", [1.0, 2.0]).automated


class TestFftBaseline:
    def test_detects_beacon(self):
        assert FftDetector().test_series("h", "d", beacon(count=50)).automated

    def test_rejects_browsing(self):
        assert not FftDetector().test_series("h", "d", browsing(count=50)).automated

    def test_short_series(self):
        assert not FftDetector().test_series("h", "d", [0.0, 1.0]).automated


class TestAutocorrelationBaseline:
    def test_detects_beacon(self):
        verdict = AutocorrelationDetector().test_series("h", "d", beacon(count=50))
        assert verdict.automated

    def test_rejects_browsing(self):
        verdict = AutocorrelationDetector().test_series("h", "d", browsing(count=50))
        assert not verdict.automated


class TestStaticBinAblation:
    def test_detects_aligned_beacon(self):
        assert StaticBinDetector().test_series("h", "d", beacon()).automated

    def test_bin_edge_straddling_hurts_static_but_not_dynamic(self):
        """Intervals alternating around a static bin edge split into two
        static bins but one dynamic cluster (the IV-C motivation)."""
        times, t = [], 0.0
        for i in range(30):
            times.append(t)
            t += 599.0 if i % 2 else 601.0  # straddles the 600 edge (W=10)
        static = StaticBinDetector(bin_width=10.0, jeffrey_threshold=0.06)
        dynamic = AutomationDetector()
        assert not static.test_series("h", "d", times).automated
        assert dynamic.test_series("h", "d", times).automated


NAN = float("nan")


class TestClusters:
    """``clusters`` is the scan of :func:`assign_intervals`, shortcut
    included; window timestamps are not checked for finiteness, so a
    NaN gap must cluster as the scan clusters it."""

    @pytest.mark.parametrize("gaps", [
        [600.0, NAN, 601.0],
        [NAN, 600.0, 600.0],
        [600.0, 601.0, NAN],
        [600.0, 595.0, 605.0, NAN, 600.0],
        [NAN],
        [NAN, NAN],
        [600.0],
        [600.0, 609.0, 591.0],
        [600.0, 611.0],
        [0.0, math.inf],
    ])
    def test_clusters_equal_the_scan(self, gaps):
        hubs, counts = [], []
        assign_intervals(hubs, counts, gaps, 10.0)
        got_hubs, got_counts = AutomationDetector().clusters(gaps)
        assert list(map(repr, got_hubs)) == list(map(repr, hubs))
        assert got_counts == counts

    def test_nan_series_matches_the_verbatim_test(self):
        detector = AutomationDetector()
        times = [0.0, 600.0, NAN, 1800.0, 2400.0, 3000.0]
        verdict = detector.test_series("h", "d", times)
        histogram = histogram_from_timestamps(times, 10.0)
        assert verdict.divergence == divergence_from_periodic(histogram)
        assert verdict.period == histogram.period == 600.0


class TestHistogramConfigChecks:
    @pytest.mark.parametrize(("field", "value"), [
        ("bin_width", 0.0), ("bin_width", -1.0), ("bin_width", NAN),
        ("bin_width", math.inf), ("jeffrey_threshold", -0.01),
        ("jeffrey_threshold", NAN), ("jeffrey_threshold", math.inf),
        ("min_connections", 1), ("min_connections", 0),
        ("min_connections", 4.0), ("min_connections", True),
    ])
    def test_meaningless_values_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HistogramConfig(**{field: value})

    def test_smallest_meaningful_values_are_accepted(self):
        config = HistogramConfig(
            bin_width=1e-9, jeffrey_threshold=0.0, min_connections=2
        )
        verdict = AutomationDetector(config).test_series("h", "d", [0.0, 5.0])
        assert verdict.automated and verdict.period == 5.0
