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
place Algorithm 1 is called from.  Its :class:`DayReport` is the day's
one report: callers add to it, never copy out of it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Set
from dataclasses import dataclass, field
from pathlib import Path

from ..config import BeliefPropagationConfig
from ..obs.metrics import NULL_METRICS
from ..profiling.rare import DailyTraffic
from .beliefprop import (
    BeliefPropagationResult,
    ScoreFrontier,
    belief_propagation,
)


@dataclass
class DayReport:
    """The one record of a day: :func:`detect_day` returns it, and
    every engine's ``rollover()`` -- so ``run``, ``stream`` and a fleet
    tenant-day -- hands it out; an intra-day scoring round (the
    engines' ``score()``) returns the same record of the day so far.

    ``records`` counts reduced connections (post-funnel) of the day --
    so far, for a round; the engine's ``score()`` / ``rollover()`` sets
    it.
    """

    day: int
    rare_domains: set[str]
    records: int = 0
    mode: str = "close"
    """``"close"`` for the end of day; a scoring round's kind
    otherwise: ``"warm"`` (continued the previous round's run),
    ``"full"`` (a cold run from the seeds) or ``"idle"`` (nothing to
    propagate)."""

    cc_domains: set[str] = field(default_factory=set)
    """The day's potential C&C domains, as the caller's stage found them."""

    detected: list[str] = field(default_factory=list)
    """Seed labels (sorted), then Algorithm 1's in labeling order."""

    bp_result: BeliefPropagationResult | None = None
    """The no-hint run; ``None`` when there was nothing to seed from."""

    intel_seeded: set[str] = field(default_factory=set)
    """Rare domains seeded from shared intelligence (fleet mode)."""

    ct_seeded: set[str] = field(default_factory=set)
    """Rare domains pulled in through CT SAN-pivot sibling edges."""

    cc_scores: dict[str, float] = field(default_factory=dict)
    """C&C domain -> its regression score (at or above ``Tc``); empty
    on the DNS path, whose heuristic gives no score."""

    soc_hints: BeliefPropagationResult | None = None
    """The enterprise path's SOC-hints run, when IOC seeds were given."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per stage: ``bp`` when Algorithm 1 ran;
    callers add the stages they timed (``automation``, ``cc``, and the
    engine's ``rare`` and ``commit``); observability only."""

    path: Path | None = None
    """The log file the day was read from, where the driver pairs a
    report with one (:func:`repro.runner.run_directory`)."""

    def publication_scores(self) -> dict[str, float]:
        """Detected domain -> the score to publish it with (a fleet's
        intel board, ``stream --intel-db``): seed and C&C labels count
        as confirmed (1.0), similarity labels keep their labeling
        score."""
        scores: dict[str, float] = {}
        if self.bp_result is not None:
            for detection in self.bp_result.detections:
                if detection.reason in ("seed", "cc"):
                    scores[detection.domain] = 1.0
                else:
                    scores[detection.domain] = detection.score
        for domain in self.detected:
            scores.setdefault(domain, 1.0)
        return scores


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
) -> DayReport:
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

    report = DayReport(
        day=traffic.day,
        rare_domains=rare,
        cc_domains=set(cc),
        detected=sorted(seed_domains),
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
        report.bp_result = result
        report.detected += result.detected_domains
        report.stage_seconds["bp"] = bp_span.elapsed
    return report
