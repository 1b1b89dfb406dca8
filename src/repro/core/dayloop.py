"""The daily loop after ``Detect_C&C``: seed, then Algorithm 1 (IV-D).

Section IV-D names one loop per day: the automation test, the C&C
stage, then belief propagation seeded either by today's C&C hits
(no-hint mode) or by what the SOC already knows (hint hosts, hint
domains).  Everything up to the C&C set differs by pipeline -- the
multi-host beaconing heuristic on DNS logs, the regression model on
proxy logs -- and everything after it does not.  :func:`detect_day` is
that second half, written once: batch ``run``, the streaming engines'
end of day *and* every intra-day scoring round, a fleet tenant's round
and both evaluation harnesses call it with their C&C set and a factory
for their frontier scorer, and differ in nothing else -- it is the one
place Algorithm 1 is called from.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Set
from dataclasses import dataclass, field

from ..config import BeliefPropagationConfig
from ..obs.metrics import NULL_METRICS
from ..profiling.rare import DailyTraffic
from .beliefprop import (
    BeliefPropagationResult,
    ScoreFrontier,
    belief_propagation,
)


@dataclass
class DayDetection:
    """Output of one seed -> propagate pass over a day of traffic."""

    cc_domains: set[str]
    """The day's potential C&C domains, as the caller's stage found them."""

    detected: list[str]
    """Seed labels (sorted), then Algorithm 1's in labeling order."""

    bp_result: BeliefPropagationResult | None
    """``None`` when there was nothing to seed from."""

    intel_seeded: set[str] = field(default_factory=set)
    """Rare domains seeded from shared intelligence (fleet mode)."""

    ct_seeded: set[str] = field(default_factory=set)
    """Rare domains pulled in through CT SAN-pivot sibling edges."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per detection stage: ``bp`` when Algorithm 1
    ran; callers add the stages they timed (``automation``, ``cc``)."""


def detect_day(
    traffic: DailyTraffic,
    rare: set[str],
    *,
    cc: Set[str],
    new_scorer: Callable[[], ScoreFrontier],
    config: BeliefPropagationConfig,
    hint_hosts: Iterable[str] = (),
    hint_domains: Iterable[str] = (),
    intel_domains: Set[str] = frozenset(),
    ct_edges=None,
    prior: BeliefPropagationResult | None = None,
    metrics=None,
) -> DayDetection:
    """Seed belief propagation for one day and run it.

    ``cc`` is the day's C&C set (it also answers ``Detect_C&C`` inside
    Algorithm 1); ``new_scorer()`` returns a fresh
    :data:`~repro.core.beliefprop.ScoreFrontier` hook -- fresh, because
    a frontier scorer's state follows one run's growing malicious set.

    **Seeds.**  Without hints the day's own C&C hits seed the run
    (no-hint mode).  Hints replace them: ``hint_hosts`` are hosts the
    SOC knows compromised (LANL cases 1-3), ``hint_domains`` are IOC
    domains, of which those contacted today count.  Either way,
    ``intel_domains`` -- externally confirmed malicious domains (a
    fleet's shared intel plane, a SOC blocklist) -- that are *rare
    today* join the seeds: the paper's community-feedback
    amplification, a domain confirmed in one enterprise elevates the
    prior wherever it appears, even where local evidence (a single
    beaconing host) would not fire the C&C stage on its own.  Every
    seed domain's hosts are seed hosts.

    ``ct_edges`` is an optional :class:`repro.intelstore.ct.CtIndex`:
    rare domains reachable through shared certificates from the seeds
    the day itself produced (C&C hits, intel) join them (``ct_seeded``),
    and Algorithm 1 receives the rare-restricted sibling map, so newly
    labeled domains extend the frontier to their cert siblings.  With
    ``None`` detections are byte-identical to a build without it.

    ``prior`` is an earlier run's result over the same day (a streaming
    engine's previous scoring round): its beliefs enter Algorithm 1 as
    already labeled, the run happens even without seed hosts, and it
    *continues* the prior's run -- iterations resume where its labels
    end, under the same ``config.max_iterations`` -- rather than
    spending a new cap.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`; the
    run is timed either way (``stage_seconds["bp"]``).
    """
    hosts_of = traffic.hosts_by_domain
    seed_hosts = set(hint_hosts)
    hint_domains = set(hint_domains)
    intel_seeded = set(intel_domains) & rare
    seed_domains = set(intel_seeded)
    if not seed_hosts and not hint_domains:
        seed_domains |= cc

    ct_seeded: set[str] = set()
    sibling_dom = None
    if ct_edges is not None:
        from ..intelstore.ct import expand_ct_seeds, sibling_map

        ct_seeded = expand_ct_seeds(seed_domains, rare, ct_edges)
        seed_domains |= ct_seeded
        sibling_dom = sibling_map(ct_edges, rare)
    seed_domains.update(d for d in hint_domains if d in hosts_of)
    for domain in seed_domains:
        seed_hosts.update(hosts_of.get(domain, ()))

    detection = DayDetection(
        cc_domains=set(cc),
        detected=sorted(seed_domains),
        bp_result=None,
        intel_seeded=intel_seeded,
        ct_seeded=ct_seeded,
    )
    if seed_hosts or prior is not None:
        dom_host, host_rdom = traffic.bp_views(rare)
        obs = metrics if metrics is not None else NULL_METRICS
        with obs.span("detect_bp") as bp_span:
            result = belief_propagation(
                seed_hosts,
                seed_domains,
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=cc.__contains__,
                score_frontier=new_scorer(),
                config=config,
                sibling_dom=sibling_dom,
                prior=prior,
                metrics=metrics,
            )
        detection.bp_result = result
        detection.detected += result.detected_domains
        detection.stage_seconds["bp"] = bp_span.elapsed
    return detection
