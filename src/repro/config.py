"""Configuration objects for the detection system.

Every tunable the paper exposes is collected here so experiments can
sweep them explicitly.  The defaults are the values selected in the
paper: bin width ``W = 10`` seconds and Jeffrey threshold ``JT = 0.06``
(Table II), rarity threshold of 10 distinct hosts per day (SOC
recommendation, Section IV-A), C&C score threshold ``Tc = 0.4`` and
similarity threshold ``Ts`` in the 0.33-0.85 sweep range (Section VI),
and the LANL additive-score threshold ``Ts = 0.25`` (Section V-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class HistogramConfig:
    """Parameters of the dynamic-histogram automation detector (IV-C)."""

    bin_width: float = 10.0
    """``W`` -- maximum distance (seconds) between a cluster hub and members."""

    jeffrey_threshold: float = 0.06
    """``JT`` -- maximum Jeffrey divergence from the periodic reference."""

    min_connections: int = 4
    """Minimum connections in a day for a (host, domain) pair to be
    considered for automation detection (at least 3 intervals)."""

    def __post_init__(self) -> None:
        # Checked here because a model document or a checkpoint can hold
        # anything: a zero or NaN width silently disables the test, and
        # a series of one connection has no interval to cluster.
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(
                f"bin_width must be finite and positive, not {self.bin_width!r}"
            )
        if not (math.isfinite(self.jeffrey_threshold)
                and self.jeffrey_threshold >= 0):
            raise ValueError(
                "jeffrey_threshold must be finite and non-negative, "
                f"not {self.jeffrey_threshold!r}"
            )
        if (isinstance(self.min_connections, bool)
                or not isinstance(self.min_connections, int)
                or self.min_connections < 2):
            raise ValueError(
                "min_connections must be an integer of at least 2, "
                f"not {self.min_connections!r}"
            )


@dataclass(frozen=True)
class RarityConfig:
    """Parameters defining rare destinations (III-A, IV-A)."""

    unpopular_max_hosts: int = 10
    """A domain contacted by fewer than this many distinct hosts in a
    single day is *unpopular* (set to 10 on SOC advice)."""

    rare_ua_max_hosts: int = 10
    """A user-agent string used by fewer than this many hosts is *rare*."""

    fold_level: int = 2
    """Fold domains to this many labels (2 = second-level; the LANL
    dataset uses 3 because top-level labels are anonymized away)."""


@dataclass(frozen=True)
class BeliefPropagationConfig:
    """Parameters of Algorithm 1."""

    similarity_threshold: float = 0.4
    """``Ts`` -- minimum similarity score to label a domain malicious."""

    cc_score_threshold: float = 0.4
    """``Tc`` -- minimum C&C score for ``Detect_C&C`` to fire."""

    max_iterations: int = 10
    """Upper bound on belief-propagation iterations."""

    max_domains_per_iteration: int = 1
    """How many top-scoring domains are labeled per iteration when no
    C&C domain is found (the paper labels the single argmax)."""


class InputError(RuntimeError):
    """An input the system cannot run on: a malformed state document,
    manifest or intel store, a fleet misconfiguration, an untrained
    model.  The data verbs report it as one ``error:`` line (exit 2)."""


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundling all component parameters."""

    histogram: HistogramConfig = field(default_factory=HistogramConfig)
    rarity: RarityConfig = field(default_factory=RarityConfig)
    belief_propagation: BeliefPropagationConfig = field(
        default_factory=BeliefPropagationConfig
    )

    training_days: int = 28
    """Length of the bootstrap/profiling period (the paper uses one month)."""

    regression_ridge: float = 0.1
    """L2 penalty for the two regression models.  The paper's plain
    ``lm`` is recovered with 0; the default stabilizes the small,
    near-separable labeled sets that simulator-scale training yields."""


#: Configuration used for the LANL challenge: anonymized third-level
#: folding and the additive-score threshold from Section V-B.
LANL_CONFIG = SystemConfig(
    rarity=RarityConfig(fold_level=3),
    belief_propagation=BeliefPropagationConfig(
        similarity_threshold=0.25, max_iterations=5
    ),
)

#: Configuration used for the enterprise (AC) evaluation.
ENTERPRISE_CONFIG = SystemConfig()
