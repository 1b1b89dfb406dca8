"""Simulated VirusTotal oracle.

The paper uses VirusTotal two ways:

* **training labels** -- a rare automated domain is "reported" when at
  least one AV engine flags it, "legitimate" otherwise (Section IV-C);
* **validation** -- detected domains are checked against VT three
  months later; those still unreported are candidate *new discoveries*
  (Sections VI-B through VI-D).

Our oracle knows the generator's ground truth and reports each truly
malicious domain with probability ``coverage`` (VT never knows
everything -- that incompleteness is precisely what makes the paper's
98 new discoveries possible).  Which domains are covered is a
deterministic function of the seed, so experiments reproduce.
"""

from __future__ import annotations

import random
from collections.abc import Iterable


class VirusTotalOracle:
    """Coverage-parameterized label oracle over ground-truth sets."""

    def __init__(
        self,
        malicious_domains: Iterable[str],
        *,
        coverage: float = 0.65,
        seed: int = 7,
    ) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be within [0, 1]")
        rng = random.Random(seed)
        self.coverage = coverage
        self._reported: set[str] = {
            d for d in sorted(set(malicious_domains))
            if rng.random() < coverage
        }

    def is_reported(self, domain: str) -> bool:
        """At least one AV engine flags the domain."""
        return domain in self._reported

    @property
    def reported_domains(self) -> frozenset[str]:
        return frozenset(self._reported)

    def label(self, domain: str) -> str:
        """Training label: ``"reported"`` or ``"legitimate"``."""
        return "reported" if self.is_reported(domain) else "legitimate"
