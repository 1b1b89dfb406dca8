"""Unit tests for detection metrics."""

import pytest

from repro.eval import (
    DetectionCounts,
    score_detections,
    validate_detections,
)
from repro.eval.metrics import ZERO_COUNTS


class TestDetectionCounts:
    def test_tdr_fdr_complementary(self):
        counts = DetectionCounts(3, 1, 0)
        assert counts.tdr == pytest.approx(0.75)
        assert counts.fdr == pytest.approx(0.25)
        assert counts.tdr + counts.fdr == pytest.approx(1.0)

    def test_fnr(self):
        counts = DetectionCounts(3, 0, 1)
        assert counts.fnr == pytest.approx(0.25)

    def test_empty_detections(self):
        assert ZERO_COUNTS.tdr == 0.0
        assert ZERO_COUNTS.fdr == 0.0
        assert ZERO_COUNTS.fnr == 0.0

    def test_addition(self):
        total = DetectionCounts(1, 2, 3) + DetectionCounts(4, 5, 6)
        assert (total.true_positives, total.false_positives,
                total.false_negatives) == (5, 7, 9)

    def test_all_missed(self):
        counts = DetectionCounts(0, 0, 5)
        assert counts.fnr == 1.0


class TestScoreDetections:
    def test_basic(self):
        counts = score_detections(["a", "b", "x"], {"a", "b", "c"})
        assert counts.true_positives == 2
        assert counts.false_positives == 1
        assert counts.false_negatives == 1

    def test_duplicates_in_detections_collapse(self):
        counts = score_detections(["a", "a"], {"a"})
        assert counts.true_positives == 1

    def test_empty_truth(self):
        counts = score_detections(["a"], set())
        assert counts.false_positives == 1
        assert counts.fnr == 0.0


class TestNdr:
    def test_new_discovery_rate(self):
        """New discoveries over *all* detections: the benign ``e``
        counts in the denominator (Section VI-B)."""
        breakdown = validate_detections(
            {"a", "b", "c", "d", "e"}, truth={"a", "b", "c", "d"},
            vt_reported={"a"}, soc_known={"b"},
        )
        assert breakdown.ndr == pytest.approx(0.4)

    def test_empty(self):
        assert validate_detections(set(), set(), set()).ndr == 0.0


class TestValidateDetections:
    def test_categories(self):
        breakdown = validate_detections(
            detected=["vt.ru", "soc.ru", "new.ru", "oops.com"],
            truth={"vt.ru", "soc.ru", "new.ru"},
            vt_reported={"vt.ru"},
            soc_known={"soc.ru"},
        )
        assert breakdown.known_malicious == 2
        assert breakdown.new_malicious == 1
        assert breakdown.legitimate == 1
        assert breakdown.detected == 4
        assert breakdown.tdr == pytest.approx(0.75)
        assert breakdown.ndr == pytest.approx(0.25)

    def test_empty_detection_rates_zero(self):
        breakdown = validate_detections([], {"a"}, set())
        assert breakdown.tdr == 0.0
        assert breakdown.ndr == 0.0
