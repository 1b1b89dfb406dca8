"""Belief propagation over the host-domain graph (Algorithm 1).

Starting from seed hosts (and optionally seed domains), each iteration:

1. examines the rare domains ``R`` contacted by the current compromised
   set ``H``, first looking for C&C-like behaviour (``Detect_C&C``);
2. when no C&C domain is found, scores every unlabeled rare domain
   against the labeled-malicious set ``M`` (``Compute_SimScore``) and
   labels the top scorer when its score clears ``Ts``;
3. expands ``H`` with every host contacting newly labeled domains, and
   ``R`` with the rare domains those hosts visit.

The loop stops when an iteration labels nothing or the iteration cap
is reached; a run continued from a ``prior`` (a streaming day's later
scoring rounds) counts its iterations against the same cap.  The
output is the expanded ``(H, M)`` plus an ordered, per-iteration trace
(the paper presents detections "ordered by suspiciousness level" for
the SOC, and Figure 4 is exactly this trace for the 3/19 LANL
campaign).

One pseudocode note: the paper's listing reads ``N <- N ∪ {dom}``
under the max-score branch while the surrounding text says "the domain
of maximum score (if above a certain threshold Ts) is included"; we
implement the stated intent and add the argmax domain.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence, Set
from dataclasses import dataclass, field
from heapq import nsmallest

from ..config import BeliefPropagationConfig
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, NULL_METRICS
from .graph import InfectionGraph, Label

DetectCC = Callable[[str], bool]
"""Predicate: does this rare domain exhibit scoring C&C behaviour?"""

SimilarityScore = Callable[[str, set[str]], float]
"""Score of a rare domain against the current malicious set."""

ScoreFrontier = Callable[[Sequence[str], Set[str]], Mapping[str, float]]
"""Batch hook: scores for a whole frontier at once.

Called with the sorted frontier and the domains added to the malicious
set since the hook's previous call *in this run* (the first call
receives the full initial set, including warm-start priors).  A
stateful implementation (:class:`repro.core.scoring
.IncrementalAdditiveScorer`, :class:`~repro.core.scoring
.BatchedSimilarityScorer`) folds in only that delta; labels are
monotone, so the incremental aggregates are exact.  One that outlives
the run (a streaming day) skips the names it has already absorbed."""


@dataclass(frozen=True, slots=True)
class Detection:
    """One labeled domain in the output ordering."""

    domain: str
    iteration: int
    reason: str
    """``"seed"``, ``"cc"`` or ``"similarity"``."""

    score: float


@dataclass(frozen=True, slots=True)
class IterationTrace:
    """What one belief-propagation iteration did."""

    iteration: int
    cc_detected: tuple[str, ...]
    labeled: tuple[str, ...]
    top_score: float
    new_hosts: tuple[str, ...]
    frontier_size: int
    """|R \\ M| examined this iteration."""


@dataclass
class BeliefPropagationResult:
    """Expanded compromise sets plus full provenance."""

    hosts: set[str]
    domains: set[str]
    detections: list[Detection]
    trace: list[IterationTrace]
    graph: InfectionGraph = field(default_factory=InfectionGraph)

    @property
    def detected_domains(self) -> list[str]:
        """Non-seed detections in labeling (suspiciousness) order."""
        return [d.domain for d in self.detections if d.reason != "seed"]

    @property
    def iterations(self) -> int:
        return len(self.trace)


_PRIOR_LABELS = {
    "seed": Label.SEED,
    "cc": Label.CC_DETECTED,
    "similarity": Label.SIMILARITY,
}


def belief_propagation(
    seed_hosts: Set[str],
    seed_domains: Set[str],
    *,
    dom_host: Mapping[str, Set[str]],
    host_rdom: Mapping[str, Set[str]],
    detect_cc: DetectCC,
    similarity_score: SimilarityScore | None = None,
    score_frontier: ScoreFrontier | None = None,
    config: BeliefPropagationConfig | None = None,
    prior: "BeliefPropagationResult | None" = None,
    sibling_dom: Mapping[str, Set[str]] | None = None,
    metrics=None,
) -> BeliefPropagationResult:
    """Run Algorithm 1.

    ``dom_host`` maps a domain to the hosts contacting it and
    ``host_rdom`` maps a host to the rare domains it visited -- the two
    precomputed maps named in the paper's pseudocode.

    Similarity scoring accepts either form: ``score_frontier`` scores
    the whole frontier in one call and is handed only the
    newly-labeled delta (the fast path -- see :data:`ScoreFrontier`),
    while a per-domain ``similarity_score`` callable is wrapped in a
    compatibility adapter that rescores every frontier domain against
    the full malicious set.  Exactly one must be provided; both paths use the
    same deterministic argmax tie-breaking, so a ``score_frontier``
    implementation matching the per-domain scores yields byte-identical
    detections.

    ``prior`` continues an earlier round's run instead of starting one:
    its hosts and domains enter ``H`` and ``M`` as already-labeled
    beliefs, each detection keeping the iteration, reason and score it
    was labeled with (in the result, in the graph records and in the
    emitted order -- seeds, then ``(iteration, name)``, the order a cold
    run emits, so the Fig. 4 trace survives across rounds), and the
    loop resumes after the last iteration that labeled, against the
    same ``config.max_iterations``: a day's rounds spend *one* budget,
    however many there are, and a round that finds it spent runs zero
    iterations.  Domains in ``seed_domains`` are this round's seeds
    (iteration 0) whatever the prior said of them.  Because the
    algorithm is monotone -- labels are only ever added -- continuing
    from the previous round reaches the same final sets as a cold run
    over the same graph whenever the scorers are themselves monotone in
    the day's accumulating traffic *and the cold run ends below the
    cap*; over unchanged maps it returns the prior's own detections,
    hosts and domains.  A caller that wants a fresh budget runs cold
    (no ``prior``): iterations start at 1.

    ``sibling_dom`` optionally maps a domain to sibling domains
    connected through out-of-band evidence (certificate-transparency
    SAN pivots -- see :mod:`repro.intelstore.ct`): whenever a domain is
    labeled malicious, its siblings join ``R`` and get examined like
    any rare domain contacted by a compromised host.  Callers are
    expected to pre-filter the mapping to the day's rare set.  When
    ``None`` (the default) the run is byte-identical to a build
    without the parameter.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`;
    when given, the run records iteration counts, why it stopped
    (``bp_stops_total{reason="converged"|"cap"}``), per-iteration
    frontier sizes and ``score_frontier`` batch timings.  Detection
    output is byte-identical with or without it.
    """
    if (similarity_score is None) == (score_frontier is None):
        raise TypeError(
            "provide exactly one of similarity_score / score_frontier"
        )
    config = config or BeliefPropagationConfig()
    hosts: set[str] = set(seed_hosts)
    malicious: set[str] = set(seed_domains)
    prior_detections: dict[str, Detection] = {}
    contact_hosts: set[str] = set()
    first_iteration = 1
    if prior is not None:
        hosts.update(prior.hosts)
        malicious.update(prior.domains)
        prior_detections = {d.domain: d for d in prior.detections}
        # The prior is this run, interrupted: resume after the last
        # iteration that labeled, against the same cap.
        first_iteration += max(
            (d.iteration for d in prior.detections), default=0
        )
        # Re-establish the fixed-point invariant H ⊇ hosts(M): edges may
        # have landed on already-labeled domains since the prior round,
        # and cold-start would have pulled those hosts in on expansion.
        for domain in malicious:
            contact_hosts.update(dom_host.get(domain, ()))
        contact_hosts -= hosts
        hosts.update(contact_hosts)
    graph = InfectionGraph()

    for host in sorted(hosts):
        label = Label.CONTACT if host in contact_hosts else Label.SEED
        graph.add_host(host, label, iteration=0)
    # Seeds (this round's, at iteration 0), then carried labels in the
    # order the run emitted them: each iteration's in name order.
    detections: list[Detection] = sorted(
        (
            prior_detections[domain]
            if domain in prior_detections and domain not in seed_domains
            else Detection(domain, 0, "seed", 0.0)
            for domain in malicious
        ),
        key=lambda d: (d.reason != "seed", d.iteration, d.domain),
    )
    for detection in detections:
        graph.add_domain(
            detection.domain,
            _PRIOR_LABELS.get(detection.reason, Label.SEED),
            iteration=detection.iteration,
            score=detection.score,
        )
        for host in sorted(dom_host.get(detection.domain, ())):
            if host in hosts:
                graph.add_edge(host, detection.domain)

    rare: set[str] = set()
    for host in hosts:
        rare.update(host_rdom.get(host, ()))
    if sibling_dom:
        for domain in malicious:
            rare.update(sibling_dom.get(domain, ()))

    if score_frontier is None:
        # Compatibility adapter: per-domain scoring against the full
        # malicious set, in the same sorted order as always.  The
        # closure reads the live ``malicious`` local at call time.
        def score_frontier(
            frontier: "Sequence[str]", new_malicious: Set[str]
        ) -> Mapping[str, float]:
            return {
                domain: similarity_score(domain, malicious)
                for domain in frontier
            }

    #: malicious domains already handed to the batch hook as deltas.
    reported: set[str] = set()

    obs = metrics if metrics is not None else NULL_METRICS
    frontier_hist = obs.histogram(
        "bp_frontier_size", buckets=DEFAULT_SIZE_BUCKETS
    )

    trace: list[IterationTrace] = []
    stop = "cap"
    for iteration in range(first_iteration, config.max_iterations + 1):
        frontier = rare - malicious
        frontier_hist.observe(len(frontier))
        # One sort serves both phases (deterministic order).
        ordered = sorted(frontier)

        # Phase 1: C&C detection over the frontier.
        cc_found = list(filter(detect_cc, ordered))
        newly_labeled: set[str] = set(cc_found)
        rare.difference_update(cc_found)

        top_score = 0.0
        # Phase 2: similarity labeling only when no C&C was found.
        if not newly_labeled and ordered:
            delta = malicious - reported
            with obs.span("bp_score_batch"):
                batch = score_frontier(ordered, delta)
            reported |= delta
            top_score = max(map(batch.__getitem__, ordered))
            threshold = config.similarity_threshold
            if top_score >= threshold:
                # Rank only what clears Ts: (-score, name) makes the
                # cut deterministic under score ties.
                best = nsmallest(
                    config.max_domains_per_iteration,
                    ((-batch[domain], domain) for domain in ordered
                     if batch[domain] >= threshold),
                )
                newly_labeled.update(domain for _, domain in best)

        if not newly_labeled:
            trace.append(
                IterationTrace(
                    iteration=iteration,
                    cc_detected=(),
                    labeled=(),
                    top_score=top_score,
                    new_hosts=(),
                    frontier_size=len(frontier),
                )
            )
            stop = "converged"
            break

        # Expansion: M, then H, then R (pseudocode order).
        new_hosts: set[str] = set()
        for domain in sorted(newly_labeled):
            reason = "cc" if domain in cc_found else "similarity"
            # A runner-up of the cut carries its own score, not the
            # winner's: this is what the fleet's intel board publishes.
            score = batch[domain] if reason == "similarity" else 1.0
            malicious.add(domain)
            graph.add_domain(
                domain,
                Label.CC_DETECTED if reason == "cc" else Label.SIMILARITY,
                iteration=iteration,
                score=score,
            )
            detections.append(Detection(domain, iteration, reason, score))
            for host in sorted(dom_host.get(domain, ())):
                if host not in hosts:
                    new_hosts.add(host)
                    hosts.add(host)
                    graph.add_host(host, Label.CONTACT, iteration=iteration)
                graph.add_edge(host, domain)
        for host in hosts:
            rare.update(host_rdom.get(host, ()))
        if sibling_dom:
            for domain in newly_labeled:
                rare.update(sibling_dom.get(domain, ()))

        trace.append(
            IterationTrace(
                iteration=iteration,
                cc_detected=tuple(cc_found),
                labeled=tuple(sorted(newly_labeled)),
                top_score=top_score,
                new_hosts=tuple(sorted(new_hosts)),
                frontier_size=len(frontier),
            )
        )

    obs.counter("bp_runs_total").inc()
    obs.counter("bp_iterations_total").inc(len(trace))
    obs.counter("bp_stops_total", reason=stop).inc()
    return BeliefPropagationResult(
        hosts=hosts,
        domains=malicious,
        detections=detections,
        trace=trace,
        graph=graph,
    )
