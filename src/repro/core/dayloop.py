"""The paper's daily loop (III-E, IV-C, IV-D), written once.

Section IV-D names one loop per day: the automation test, the C&C
stage, then belief propagation seeded either by today's C&C hits
(no-hint mode) or by what the SOC already knows (hint hosts, hint
domains).  Only the C&C stage differs by pipeline -- the multi-host
beaconing heuristic on DNS logs, the regression model on proxy logs --
and so does the frontier scorer.  :func:`close_day` is the whole end
of day, which both engines' ``rollover()`` (so ``run``, ``stream`` and
a fleet tenant's round) run with those two hooks.  :func:`detect_day`
is its seed -> Algorithm 1 half, which every intra-day scoring round
and both evaluation harnesses also call -- it is the one place
Algorithm 1 is called from.  Its :class:`DayReport` is the day's one
report: callers add to it, never copy out of it.
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
    """C&C domain -> its regression score (at or above ``Tc``); 1.0 on
    the DNS path, whose heuristic gives no score."""

    soc_hints: BeliefPropagationResult | None = None
    """The SOC-hints run, when IOC seed domains were given."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per stage: ``bp`` when Algorithm 1 ran;
    :func:`close_day` adds ``automation`` and ``cc``, the engine's
    ``rollover()`` ``rare`` and ``commit``; observability only."""

    path: Path | None = None
    """The log file the day was read from, where the driver pairs a
    report with one (:func:`repro.runner.run_directory`)."""

    def publication_scores(self) -> dict[str, float]:
        """Detected domain -> the score to publish it with (a fleet's
        intel board, ``stream --intel-db``): seed and C&C labels count
        as confirmed (1.0), similarity labels keep their labeling
        score -- the no-hint run's, else the SOC-hints run's."""
        scores: dict[str, float] = {}
        detected = set(self.detected)
        for run in (self.bp_result, self.soc_hints):
            for detection in run.detections if run is not None else ():
                if detection.domain in detected:
                    scores.setdefault(detection.domain, (
                        1.0 if detection.reason in ("seed", "cc")
                        else detection.score
                    ))
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


def close_day(
    traffic: DailyTraffic,
    rare: set[str],
    *,
    automation,
    cc_stage: Callable[[DailyTraffic, list], dict[str, float]],
    new_scorer: Callable[[], ScoreFrontier],
    config: BeliefPropagationConfig,
    hint_hosts: Iterable[str] = (),
    soc_seed_domains: Iterable[str] = (),
    intel_domains: Set[str] = frozenset(),
    ct_edges=None,
    metrics=None,
) -> DayReport:
    """The end of day (Section III-E, operation), for either pipeline.

    The automation test over every rare (host, domain) series (IV-C),
    the pipeline's ``Detect_C&C`` stage (``cc_stage(traffic,
    verdicts)`` -> C&C domain -> score), then :func:`detect_day` seeded
    by the C&C hits or by ``hint_hosts``, with ``intel_domains`` and
    ``ct_edges``; given ``soc_seed_domains``, once more seeded by those
    contacted today (with ``ct_edges``' sibling map).  Each run gets a
    fresh frontier scorer from ``new_scorer()``.

    The first run's report is the day's: its ``detected`` holds the
    sorted seeds (C&C, intel, CT), then its labels; the SOC-hints run
    adds its labels not already there (its seeds are inputs, not
    detections) and its ``bp`` seconds.  ``metrics`` is an optional
    :class:`repro.obs.MetricsRegistry`; stages are timed either way.
    """
    obs = metrics if metrics is not None else NULL_METRICS
    with obs.span("detect_automation") as automation_span:
        verdicts = automation.automated_pairs(traffic.rare_series(rare))
    with obs.span("detect_cc") as cc_span:
        cc_scores = cc_stage(traffic, verdicts)
    cc = set(cc_scores)

    def run(**seeding) -> DayReport:
        return detect_day(
            traffic,
            rare,
            cc=cc,
            new_scorer=new_scorer,
            config=config,
            ct_edges=ct_edges,
            metrics=metrics,
            **seeding,
        )

    report = run(hint_hosts=hint_hosts, intel_domains=intel_domains)
    report.cc_scores = cc_scores
    report.stage_seconds = {
        "automation": automation_span.elapsed,
        "cc": cc_span.elapsed,
        **report.stage_seconds,
    }
    soc_seed_domains = tuple(soc_seed_domains)
    if soc_seed_domains:
        hinted = run(hint_domains=soc_seed_domains)
        report.soc_hints = hinted.bp_result
        if hinted.bp_result is not None:
            report.detected += [
                d for d in hinted.bp_result.detected_domains
                if d not in report.detected
            ]
            report.stage_seconds["bp"] = (
                report.stage_seconds.get("bp", 0.0)
                + hinted.stage_seconds["bp"]
            )
    return report
