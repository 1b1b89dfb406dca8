"""Unit tests for dynamic histogram binning (Section IV-C)."""

import pytest

from repro.timing import build_histogram, histogram_from_timestamps, intervals
from repro.timing.histogram import Bin, DynamicHistogram


class TestIntervals:
    def test_basic(self):
        assert intervals([0.0, 10.0, 25.0]) == [10.0, 15.0]

    def test_single_timestamp(self):
        assert intervals([5.0]) == []

    def test_empty(self):
        assert intervals([]) == []

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            intervals([10.0, 5.0])

    def test_duplicate_timestamps_allowed(self):
        assert intervals([1.0, 1.0, 2.0]) == [0.0, 1.0]

    @pytest.mark.parametrize("times", [
        [0.0, 5.0, 3.0, float("nan")],
        [0.0, float("nan"), 5.0, 3.0],
        [float("nan"), 0.0, 5.0, 3.0],
    ])
    def test_unsorted_rejected_wherever_a_nan_sits(self, times):
        with pytest.raises(ValueError):
            intervals(times)

    def test_nan_interval_is_not_unsorted(self):
        gaps = intervals([0.0, float("nan"), 10.0])
        assert len(gaps) == 2 and all(gap != gap for gap in gaps)


class TestBuildHistogram:
    def test_single_cluster(self):
        hist = build_histogram([600.0, 601.0, 599.0, 602.0], bin_width=10.0)
        assert len(hist.bins) == 1
        assert hist.bins[0].hub == 600.0
        assert hist.bins[0].frequency == 1.0

    def test_two_clusters(self):
        hist = build_histogram([600.0, 600.0, 600.0, 5000.0], bin_width=10.0)
        assert len(hist.bins) == 2
        assert hist.dominant_bin.hub == 600.0
        assert hist.dominant_bin.frequency == 0.75

    def test_first_interval_seeds_first_hub(self):
        hist = build_histogram([100.0, 105.0], bin_width=10.0)
        assert hist.bins[0].hub == 100.0
        assert hist.bins[0].count == 2

    def test_hub_is_first_member_not_mean(self):
        # 100 then 109 join (within W=10); hub stays 100, so 111 joins
        # a *new* cluster even though it is close to 109.
        hist = build_histogram([100.0, 109.0, 111.0], bin_width=10.0)
        assert [b.hub for b in hist.bins] == [100.0, 111.0]

    def test_boundary_exactly_w_joins(self):
        hist = build_histogram([100.0, 110.0], bin_width=10.0)
        assert len(hist.bins) == 1

    def test_just_over_w_splits(self):
        hist = build_histogram([100.0, 110.01], bin_width=10.0)
        assert len(hist.bins) == 2

    def test_empty_intervals(self):
        hist = build_histogram([], bin_width=10.0)
        assert hist.bins == ()
        assert hist.total == 0

    def test_empty_histogram_has_no_dominant(self):
        with pytest.raises(ValueError):
            _ = build_histogram([], bin_width=10.0).dominant_bin

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            build_histogram([1.0], bin_width=0.0)

    def test_frequencies_sum_to_one(self):
        hist = build_histogram([1.0, 50.0, 100.0, 1.0, 51.0], bin_width=5.0)
        assert sum(b.frequency for b in hist.bins) == pytest.approx(1.0)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            DynamicHistogram(bins=(Bin(1.0, 2, 1.0),), total=5)

    def test_period_property(self):
        hist = build_histogram([600.0, 600.0, 30.0], bin_width=10.0)
        assert hist.period == 600.0


class TestHistogramFromTimestamps:
    def test_periodic_series(self):
        times = [float(i) * 600.0 for i in range(10)]
        hist = histogram_from_timestamps(times, bin_width=10.0)
        assert len(hist.bins) == 1
        assert hist.period == 600.0

    def test_jittered_series_still_one_bin(self):
        times = []
        t = 0.0
        for i in range(20):
            times.append(t)
            t += 600.0 + (3.0 if i % 2 else -3.0)
        hist = histogram_from_timestamps(times, bin_width=10.0)
        assert len(hist.bins) == 1

    def test_outlier_gets_own_bin(self):
        times = [0.0, 600.0, 1200.0, 1800.0, 9000.0]
        hist = histogram_from_timestamps(times, bin_width=10.0)
        assert len(hist.bins) == 2
        assert hist.period == 600.0
