"""Warm-start policy: when a scoring round may reuse the last one's beliefs.

An intra-day round runs Algorithm 1 through the same
:func:`repro.core.dayloop.detect_day` as the end of day, over the
window's own ``bp_views(window.rare)``.  What a round adds is ``prior``:
the previous round's result enters the run as already-labeled beliefs,
each keeping the iteration that labeled it, and the loop resumes after
the last of them -- a chain of warm rounds is *one* run of Algorithm 1,
interrupted and continued, under one ``max_iterations``.  Because
Algorithm 1 is monotone -- labels are only added, never removed -- this
converges to the same fixed point as a cold run whenever the per-domain
scores are monotone in the day's accumulating traffic (true of the
additive LANL scorer: connectivity, timing and IP proximity components
only grow as a day's evidence accumulates) and that cold run ends below
the cap; once the chain has spent the cap its list stops growing, as a
cold run's would, until a cold round starts a new run at iteration 1.
Two situations break the monotonicity assumption and make the round run
cold, from the seeds alone:

* the engine's dirty-domain set (rarity flips plus rare domains with
  new events since the last round) is at least
  :attr:`WarmStartConfig.full_recompute_fraction` of the rare set (a
  large fraction of the neighborhood changed, so localized
  re-propagation would touch most of the graph anyway), or
* a previously labeled domain fell out of the rare set (belief
  retraction -- e.g. it crossed the popularity threshold mid-day), which
  monotone warm-starting cannot express.

Those are also the only rounds in which the malicious set can shrink,
so :func:`warm_start_applies` -- evaluated once per round by
:meth:`repro.streaming.StreamingEngineBase.score` -- also bounds the
life of a stateful frontier scorer kept across rounds.

A third retraction case -- a prior C&C verdict flipping back to
not-automated as irregular events arrive -- is handled by the same
method before the predicate: it discards the prior outright when any of
its C&C-derived beliefs is no longer supported.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from ..core.beliefprop import BeliefPropagationResult


@dataclass(frozen=True)
class WarmStartConfig:
    """Policy for reusing the previous round's beliefs."""

    enabled: bool = True

    full_recompute_fraction: float = 0.25
    """Fall back to cold-start when at least this fraction of the
    day's rare domains are dirty since the last round."""


def warm_start_applies(
    rare: Set[str],
    dirty_domains: Set[str],
    prior: BeliefPropagationResult | None,
    warm: WarmStartConfig,
) -> bool:
    """Whether the next round may reuse ``prior`` (else it runs cold,
    from the seeds alone -- the one place the malicious set shrinks)."""
    return (
        warm.enabled
        and prior is not None
        and bool(rare)
        and len(dirty_domains) / len(rare) < warm.full_recompute_fraction
        # Belief retraction: a labeled domain left the rare set.
        and prior.domains <= rare
    )
