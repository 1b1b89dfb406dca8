"""Detection metrics (Sections V-C and VI-B).

The paper reports:

* **TDR** (true detection rate) -- fraction of detected domains that
  are truly malicious (= precision; the paper's "fraction of true
  positives among all detected domains");
* **FDR** (false detection rate) -- fraction of detections that are
  benign (``FDR = 1 - TDR``);
* **FNR** (false negative rate) -- fraction of truly malicious domains
  the detector labeled legitimate (missed);
* **NDR** (new-discovery rate, enterprise evaluation) -- fraction of
  all detections that are malicious/suspicious *and* unknown to both
  VirusTotal and the SOC (:attr:`ValidationBreakdown.ndr`).
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass


@dataclass(frozen=True)
class DetectionCounts:
    """Raw confusion counts over domains."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def detected(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def tdr(self) -> float:
        """True detection rate (precision over detections)."""
        return self.true_positives / self.detected if self.detected else 0.0

    @property
    def fdr(self) -> float:
        """False detection rate = 1 - TDR (0 when nothing detected)."""
        return self.false_positives / self.detected if self.detected else 0.0

    @property
    def fnr(self) -> float:
        """Fraction of truly malicious domains that were missed."""
        total_malicious = self.true_positives + self.false_negatives
        return self.false_negatives / total_malicious if total_malicious else 0.0

    def __add__(self, other: "DetectionCounts") -> "DetectionCounts":
        return DetectionCounts(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
        )


ZERO_COUNTS = DetectionCounts(0, 0, 0)


def score_detections(
    detected: Iterable[str], truth: Set[str]
) -> DetectionCounts:
    """Confusion counts of a detected-domain set against ground truth."""
    detected_set = set(detected)
    tp = len(detected_set & truth)
    fp = len(detected_set - truth)
    fn = len(truth - detected_set)
    return DetectionCounts(tp, fp, fn)


@dataclass(frozen=True)
class ValidationBreakdown:
    """Enterprise validation categories (Section VI-B).

    Every detected domain lands in exactly one of: known malicious
    (VT/SOC confirmed), new malicious/suspicious (truly malicious but
    unknown to VT and the SOC -- the paper's new discoveries), or
    legitimate (a false positive).
    """

    known_malicious: int
    new_malicious: int
    legitimate: int

    @property
    def detected(self) -> int:
        return self.known_malicious + self.new_malicious + self.legitimate

    @property
    def tdr(self) -> float:
        """True-detection rate: confirmed malicious over all detected."""
        if not self.detected:
            return 0.0
        return (self.known_malicious + self.new_malicious) / self.detected

    @property
    def ndr(self) -> float:
        """New-discovery rate: new malicious over all detected."""
        if not self.detected:
            return 0.0
        return self.new_malicious / self.detected


def validate_detections(
    detected: Iterable[str],
    truth: Set[str],
    vt_reported: Set[str],
    soc_known: Set[str] = frozenset(),
) -> ValidationBreakdown:
    """Classify detections into the Section VI-B categories."""
    known = new = legit = 0
    for domain in set(detected):
        if domain in truth:
            if domain in vt_reported or domain in soc_known:
                known += 1
            else:
                new += 1
        else:
            legit += 1
    return ValidationBreakdown(known, new, legit)
