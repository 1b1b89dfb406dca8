"""Incremental host-domain graph and warm-start belief propagation.

Algorithm 1 consumes two maps -- ``dom_host`` (rare domain -> hosts)
and ``host_rdom`` (host -> rare domains).  The batch pipeline rebuilds
them per run; :class:`IncrementalGraph` maintains them edge by edge as
events arrive, tracking which domains are *dirty* (new evidence since
the last propagation round).

:func:`warm_start_belief_propagation` then re-scores the graph without
starting from zero: the previous round's result seeds the new run
(beliefs as priors), so iterations are spent only on newly labeled
domains.  Because Algorithm 1 is monotone -- labels are only added,
never removed -- this converges to the same fixed point as a cold run
whenever the per-domain scores are monotone in the day's accumulating
traffic (true of the additive LANL scorer: connectivity, timing and IP
proximity components only grow as a day's evidence accumulates).  Two
situations break that assumption and trigger a full cold recompute:

* the dirty fraction of the graph exceeds
  :attr:`WarmStartConfig.full_recompute_fraction` (a large fraction of
  the neighborhood changed, so localized re-propagation would touch
  most of the graph anyway), or
* a previously labeled domain fell out of the rare set (belief
  retraction -- e.g. it crossed the popularity threshold mid-day), which
  monotone warm-starting cannot express.

Those are also the only rounds in which the malicious set can shrink,
so :func:`warm_start_applies` -- the same predicate -- bounds the life
of a stateful frontier scorer kept across rounds.

A third retraction case -- a prior C&C verdict flipping back to
not-automated as irregular events arrive -- is handled one level up:
:meth:`repro.streaming.StreamingEngineBase.score` discards the prior
outright when any of its C&C-derived beliefs is no longer supported.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..config import SystemConfig
from ..core.beliefprop import (
    BeliefPropagationResult,
    DetectCC,
    ScoreFrontier,
    belief_propagation,
)
from ..profiling.rare import DailyTraffic


@dataclass(frozen=True)
class WarmStartConfig:
    """Policy for reusing the previous round's beliefs."""

    enabled: bool = True

    full_recompute_fraction: float = 0.25
    """Fall back to cold-start when at least this fraction of the
    graph's domains are dirty since the last round."""


class IncrementalGraph:
    """Bipartite rare-domain graph maintained edge by edge.

    Holds exactly the two adjacency maps Algorithm 1 needs, restricted
    to the current rare set, plus a dirty-domain set recording where
    new evidence landed since the last propagation round.
    """

    def __init__(self) -> None:
        self.dom_host: dict[str, set[str]] = {}
        self.host_rdom: dict[str, set[str]] = {}
        self.dirty_domains: set[str] = set()

    @classmethod
    def from_traffic(cls, traffic: DailyTraffic, rare: set[str]) -> "IncrementalGraph":
        """Build the full graph for a day's aggregate (restore path)."""
        graph = cls()
        for domain in rare:
            for host in traffic.hosts_by_domain.get(domain, ()):
                graph.add_edge(host, domain)
        return graph

    @property
    def domain_count(self) -> int:
        return len(self.dom_host)

    def add_edge(self, host: str, domain: str) -> None:
        """Record evidence of ``host`` contacting rare ``domain``."""
        self.dom_host.setdefault(domain, set()).add(host)
        self.host_rdom.setdefault(host, set()).add(domain)
        self.dirty_domains.add(domain)

    def remove_domain(self, domain: str) -> None:
        """Drop a domain that left the rare set (popularity exceeded)."""
        hosts = self.dom_host.pop(domain, set())
        for host in hosts:
            rdoms = self.host_rdom.get(host)
            if rdoms is not None:
                rdoms.discard(domain)
                if not rdoms:
                    del self.host_rdom[host]
        self.dirty_domains.add(domain)

    def dirty_fraction(self) -> float:
        """Share of domains touched since the last scoring round."""
        if not self.dom_host:
            return 1.0
        return len(self.dirty_domains) / len(self.dom_host)

    def clear_dirty(self) -> None:
        self.dirty_domains.clear()

    def clear(self) -> None:
        """Drop all edges and dirty-tracking (day rollover)."""
        self.dom_host.clear()
        self.host_rdom.clear()
        self.dirty_domains.clear()


def warm_start_applies(
    graph: IncrementalGraph,
    prior: BeliefPropagationResult | None,
    warm: WarmStartConfig | None = None,
) -> bool:
    """Whether the next round may reuse ``prior`` (else it runs cold,
    from the seeds alone -- the one place the malicious set shrinks)."""
    warm = warm or WarmStartConfig()
    return (
        warm.enabled
        and prior is not None
        and bool(graph.dom_host)
        and graph.dirty_fraction() < warm.full_recompute_fraction
        # Belief retraction: a labeled domain left the rare set.
        and prior.domains <= graph.dom_host.keys()
    )


def warm_start_belief_propagation(
    seed_hosts: Iterable[str],
    seed_domains: Iterable[str],
    *,
    graph: IncrementalGraph,
    detect_cc: DetectCC,
    score_frontier: ScoreFrontier,
    config: SystemConfig,
    prior: BeliefPropagationResult | None = None,
    warm: WarmStartConfig | None = None,
    metrics=None,
) -> tuple[BeliefPropagationResult, str]:
    """Run Algorithm 1 over the incremental graph, warm when safe.

    Returns ``(result, mode)`` where ``mode`` is ``"warm"`` when the
    previous beliefs were reused and ``"full"`` for a cold recompute.
    The graph's dirty set is consumed either way.  A stateful
    ``score_frontier`` hook may outlive the call only while
    :func:`warm_start_applies` holds -- a cold round restarts the
    malicious set its state has absorbed.
    """
    use_warm = warm_start_applies(graph, prior, warm)
    result = belief_propagation(
        set(seed_hosts),
        set(seed_domains),
        dom_host=graph.dom_host,
        host_rdom=graph.host_rdom,
        detect_cc=detect_cc,
        score_frontier=score_frontier,
        config=config.belief_propagation,
        prior=prior if use_warm else None,
        metrics=metrics,
    )
    graph.clear_dirty()
    return result, "warm" if use_warm else "full"
