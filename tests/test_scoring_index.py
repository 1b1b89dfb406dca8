"""Parity tests for the scoring index and incremental frontier scorers.

The incremental/batched scorers must produce *identical*
``BeliefPropagationResult`` detections, ordering and traces as the
legacy per-domain path -- not approximately equal scores.  These tests
assert exactly that over randomized multi-day traffic
(``random.Random(seed)`` loops standing in for hypothesis), including
warm-start (``prior=``) rounds and the WHOIS-imputation state the
enterprise path threads through scoring.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.config import LANL_CONFIG, BeliefPropagationConfig, SystemConfig
from repro.core.beliefprop import belief_propagation
from repro.core.pipeline import EnterpriseDetector
from repro.core.scoring import (
    AdditiveSimilarityScorer,
    BatchedSimilarityScorer,
    IncrementalAdditiveScorer,
    RegressionCCScorer,
    RegressionSimilarityScorer,
    SimilarityStats,
)
from repro.features.extract import SIMILARITY_FEATURE_NAMES, FeatureExtractor
from repro.features.regression import LinearModel
from repro.features.whois import WhoisFeatureExtractor
from repro.intel.whois_db import WhoisDatabase
from repro.logs.records import Connection
from repro.profiling.history import DestinationHistory
from repro.profiling.rare import (
    DailyTraffic,
    extract_rare_domains,
    rare_domains_by_host,
)
from repro.runner import detect_on_traffic
from repro.streaming import StreamingEnterpriseDetector
from repro.timing.detector import AutomationDetector

SECONDS_PER_DAY = 86_400.0

CC_NAMES = ("no_hosts", "auto_hosts", "no_ref", "rare_ua", "dom_age",
            "dom_validity")


# ---------------------------------------------------------------------------
# Random world generation
# ---------------------------------------------------------------------------

def _random_day_connections(
    rng: random.Random, day: int, *, with_http: bool
) -> list[Connection]:
    """One random day mixing beacon campaigns, co-visit satellites,
    popular noise and background rarities."""
    base = day * SECONDS_PER_DAY
    hosts = [f"h{i:02d}" for i in range(rng.randint(8, 14))]
    connections: list[Connection] = []

    def emit(host, domain, ts, ip="", no_ref=False):
        connections.append(Connection(
            timestamp=base + ts,
            host=host,
            domain=domain,
            resolved_ip=ip,
            referer=("" if no_ref else "http://ref.example/") if with_http
            else None,
            user_agent="agent/1.0" if with_http else None,
        ))

    # Beaconing campaigns: several hosts, near-identical periods, so
    # the multi-host C&C heuristic (DNS) / automation test (both) fire.
    for c in range(rng.randint(0, 2)):
        domain = f"cc{day}{c}.evil"
        subnet = rng.randint(1, 6)
        ip = f"10.{subnet}.{rng.randint(0, 3)}.{rng.randint(1, 254)}"
        period = rng.choice([30.0, 60.0, 90.0])
        campaign_hosts = rng.sample(hosts, rng.randint(2, 3))
        start = rng.uniform(0, 2000.0)
        for host in campaign_hosts:
            for i in range(rng.randint(6, 10)):
                emit(host, domain, start + i * period, ip, no_ref=True)
        # Satellites: same hosts, first contact near the campaign's,
        # sometimes sharing its /24 or /16.
        for s in range(rng.randint(1, 3)):
            sat = f"sat{day}{c}{s}.evil"
            proximity = rng.random()
            if proximity < 0.4:
                sat_ip = f"10.{subnet}.{rng.randint(0, 3)}.{rng.randint(1, 254)}"
            elif proximity < 0.6:
                sat_ip = f"10.{subnet}.{rng.randint(4, 9)}.{rng.randint(1, 254)}"
            else:
                sat_ip = f"172.16.{rng.randint(0, 9)}.{rng.randint(1, 254)}"
            host = rng.choice(campaign_hosts)
            offset = rng.uniform(-1200.0, 1200.0)
            for i in range(rng.randint(1, 3)):
                emit(host, sat, start + offset + i * 700.0, sat_ip)

    # Popular domains (contacted by >= 10 hosts): never rare.
    for p in range(rng.randint(1, 3)):
        domain = f"popular{p}.example"
        for host in hosts:
            emit(host, domain, rng.uniform(0, 80_000.0), "192.0.2.10")

    # Background rare domains: few hosts, scattered times and subnets.
    for b in range(rng.randint(6, 14)):
        domain = f"bg{day}{b}.example"
        ip = f"198.51.{rng.randint(0, 60)}.{rng.randint(1, 254)}"
        for host in rng.sample(hosts, rng.randint(1, 3)):
            for i in range(rng.randint(1, 4)):
                emit(host, domain, rng.uniform(0, 80_000.0), ip,
                     no_ref=rng.random() < 0.3)

    rng.shuffle(connections)
    return connections


def _aggregate(
    day: int,
    connections: list[Connection],
    history: DestinationHistory,
) -> tuple[DailyTraffic, set[str]]:
    traffic = DailyTraffic(day)
    traffic.ingest(connections)
    traffic.finalize()
    rare = extract_rare_domains(traffic, history, unpopular_max_hosts=10)
    return traffic, rare


def _commit(traffic: DailyTraffic, history: DestinationHistory) -> None:
    for domain in traffic.hosts_by_domain:
        history.stage(domain, traffic.day)
    history.commit_day(traffic.day)


class PerDomainAdditive(AdditiveSimilarityScorer):
    """The reference the indexed scorers are pinned against, injected
    where production passes its scorer: every frontier domain rescored
    by :meth:`score` against the full malicious set, every iteration
    (O(frontier x malicious) -- what ``frontier_scorer`` replaces)."""

    def frontier_scorer(self, traffic, **_):
        malicious: set[str] = set()

        def score_frontier(frontier, new_malicious):
            malicious.update(new_malicious)
            return {d: self.score(d, malicious, traffic) for d in frontier}

        return score_frontier


class PerDomainRegression(RegressionSimilarityScorer):
    """Same reference for the enterprise path (WHOIS imputation state
    advances with every per-domain extraction)."""

    def frontier_scorer(self, traffic, when):
        malicious: set[str] = set()

        def score_frontier(frontier, new_malicious):
            malicious.update(new_malicious)
            return {
                d: self.score(d, malicious, traffic, when) for d in frontier
            }

        return score_frontier


def _assert_same_bp(left, right) -> None:
    """Both belief-propagation results byte-identical, trace included."""
    if left is None or right is None:
        assert left is None and right is None
        return
    assert left.hosts == right.hosts
    assert left.domains == right.domains
    assert left.detections == right.detections
    assert left.trace == right.trace


# ---------------------------------------------------------------------------
# DNS / additive path
# ---------------------------------------------------------------------------

@pytest.mark.parity
def test_detect_on_traffic_index_parity_multiday():
    """Indexed scoring equals the per-domain reference on random
    multi-day runs."""
    for seed in range(12):
        rng = random.Random(1000 + seed)
        history = DestinationHistory()
        automation = AutomationDetector(LANL_CONFIG.histogram)
        for day in range(3):
            connections = _random_day_connections(rng, day, with_http=False)
            traffic, rare = _aggregate(day, connections, history)
            hint_hosts = (
                sorted(traffic.domains_by_host)[:2]
                if rng.random() < 0.3 else ()
            )
            intel = (
                frozenset(rng.sample(sorted(rare), min(2, len(rare))))
                if rare and rng.random() < 0.3 else frozenset()
            )
            fast = detect_on_traffic(
                traffic, rare, automation=automation,
                scorer=AdditiveSimilarityScorer(),
                config=LANL_CONFIG, hint_hosts=hint_hosts,
                intel_domains=intel,
            )
            slow = detect_on_traffic(
                traffic, rare, automation=automation,
                scorer=PerDomainAdditive(),
                config=LANL_CONFIG, hint_hosts=hint_hosts,
                intel_domains=intel,
            )
            assert fast.cc_domains == slow.cc_domains
            assert fast.detected == slow.detected
            assert fast.intel_seeded == slow.intel_seeded
            _assert_same_bp(fast.bp_result, slow.bp_result)
            _commit(traffic, history)


@pytest.mark.parity
def test_belief_propagation_warm_start_parity():
    """Incremental scoring matches legacy under ``prior=`` warm starts."""
    for seed in range(8):
        rng = random.Random(7000 + seed)
        history = DestinationHistory()
        scorer = AdditiveSimilarityScorer()
        connections = _random_day_connections(rng, 0, with_http=False)
        # Round 1 on a prefix of the day, round 2 on the full day with
        # round 1's beliefs as the prior -- the streaming cadence.
        split = len(connections) * 2 // 3
        results = {}
        for label, batch_sizes in (("prefix", [split]),
                                   ("full", [split, len(connections)])):
            traffic = DailyTraffic(0)
            traffic.ingest(connections[:batch_sizes[-1]])
            traffic.finalize()
            rare = extract_rare_domains(traffic, history,
                                        unpopular_max_hosts=10)
            seeds = {d for d in sorted(rare) if d.startswith("cc")}
            seed_hosts: set[str] = set()
            for domain in seeds:
                seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))
            if not seed_hosts:
                seed_hosts = set(sorted(traffic.domains_by_host)[:1])
            legacy_prior = results.get("prefix-legacy")
            fast_prior = results.get("prefix-fast")
            dom_host = {
                d: frozenset(traffic.hosts_by_domain.get(d, ()))
                for d in rare
            }
            host_rdom = rare_domains_by_host(traffic, rare)
            common = dict(
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=lambda dom: dom in seeds,
                config=LANL_CONFIG.belief_propagation,
            )
            legacy = belief_propagation(
                seed_hosts, seeds,
                similarity_score=lambda d, mal: scorer.score(d, mal, traffic),
                prior=legacy_prior if label == "full" else None,
                **common,
            )
            incremental = IncrementalAdditiveScorer(scorer, traffic)
            fast = belief_propagation(
                seed_hosts, seeds,
                score_frontier=incremental.score_frontier,
                prior=fast_prior if label == "full" else None,
                **common,
            )
            _assert_same_bp(fast, legacy)
            results[f"{label}-legacy"] = legacy
            results[f"{label}-fast"] = fast


# ---------------------------------------------------------------------------
# Enterprise / regression path
# ---------------------------------------------------------------------------

def _linear(names, weights, intercept) -> LinearModel:
    return LinearModel(
        feature_names=tuple(names),
        intercept=intercept,
        weights=np.asarray(weights, dtype=float),
        coefficients=(),
        r_squared=0.0,
        n_samples=len(weights) + 2,
    )


def _enterprise_scorers(
    whois_db: WhoisDatabase | None, similarity=RegressionSimilarityScorer
):
    """A fresh, deterministic pair of trained-model scorers.

    Fresh per detection run: the WHOIS extractor's imputation means
    mutate during scoring, so parity runs each need identical initial
    state."""
    whois = (
        WhoisFeatureExtractor(whois_db) if whois_db is not None else None
    )
    extractor = FeatureExtractor(None, whois)
    cc_model = _linear(CC_NAMES, [0.5, 0.9, 0.3, 0.1, -0.2, -0.1], 0.02)
    sim_model = _linear(
        SIMILARITY_FEATURE_NAMES,
        [0.25, 0.5, 0.3, 0.1, 0.08, 0.04, -0.15, -0.08],
        0.03,
    )
    cc_scorer = RegressionCCScorer(cc_model, extractor, threshold=0.25)
    sim_scorer = similarity(sim_model, extractor)
    return cc_scorer, sim_scorer


def _random_whois(rng: random.Random, connections) -> WhoisDatabase:
    db = WhoisDatabase()
    domains = sorted({c.domain for c in connections})
    for domain in domains:
        if rng.random() < 0.6:  # the rest impute from running means
            registered = rng.uniform(-2.0, 300.0) * SECONDS_PER_DAY
            db.register(
                domain,
                registered,
                registered + rng.uniform(30.0, 2000.0) * SECONDS_PER_DAY,
            )
    return db


@pytest.mark.parity
def test_detect_on_enterprise_traffic_index_parity():
    """Batched regression scoring equals the per-domain reference at
    the enterprise end of day (``rollover()`` of an engine fed the day
    in one poll), including the WHOIS imputation state it leaves
    behind."""
    config = SystemConfig(belief_propagation=BeliefPropagationConfig(
        similarity_threshold=0.3, cc_score_threshold=0.25
    ))
    for seed in range(10):
        rng = random.Random(3000 + seed)
        history = DestinationHistory()
        histories = {
            RegressionSimilarityScorer: DestinationHistory(),
            PerDomainRegression: DestinationHistory(),
        }
        for day in range(2):
            connections = _random_day_connections(rng, day, with_http=True)
            whois_db = _random_whois(rng, connections) if day % 2 else None
            traffic, rare = _aggregate(day, connections, history)
            soc = (
                sorted(rare)[:2] if rare and rng.random() < 0.5 else ()
            )
            intel = (
                frozenset(rng.sample(sorted(rare), 1))
                if rare and rng.random() < 0.3 else frozenset()
            )
            runs = {}
            for similarity in (RegressionSimilarityScorer, PerDomainRegression):
                # Fresh scorers per day (the registry changes); the
                # engine's own history carries across them.
                detector = EnterpriseDetector(config)
                detector.history = histories[similarity]
                detector.cc_scorer, detector.similarity_scorer = (
                    _enterprise_scorers(whois_db, similarity)
                )
                engine = StreamingEnterpriseDetector(detector, start_day=day)
                engine.ingest(connections)
                report = engine.rollover(
                    soc_seed_domains=soc, intel_domains=intel
                )
                assert report.rare_domains == rare
                whois = detector.similarity_scorer.extractor.whois
                runs[similarity] = (
                    report,
                    None if whois is None else (
                        whois._age_sum, whois._validity_sum, whois._observed
                    ),
                )
            fast, fast_whois = runs[RegressionSimilarityScorer]
            slow, slow_whois = runs[PerDomainRegression]
            assert fast.cc_scores == slow.cc_scores
            assert fast.intel_seeded == slow.intel_seeded
            _assert_same_bp(fast.bp_result, slow.bp_result)
            _assert_same_bp(fast.soc_hints, slow.soc_hints)
            assert fast.detected == slow.detected
            assert fast_whois == slow_whois
            _commit(traffic, history)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

@pytest.mark.parity
def test_bp_views_match_legacy_maps():
    """Index-backed dom_host / host_rdom views equal the eager maps."""
    rng = random.Random(99)
    connections = _random_day_connections(rng, 0, with_http=False)
    history = DestinationHistory()
    traffic, rare = _aggregate(0, connections, history)
    dom_host, host_rdom = traffic.bp_views(rare)
    legacy_dom_host = {
        d: frozenset(traffic.hosts_by_domain.get(d, ())) for d in rare
    }
    for domain in set(legacy_dom_host) | set(traffic.hosts_by_domain):
        assert set(dom_host.get(domain, ())) == set(
            legacy_dom_host.get(domain, ())
        )
    legacy_host_rdom = rare_domains_by_host(traffic, rare)
    for host in traffic.domains_by_host:
        assert set(host_rdom.get(host, ())) == set(
            legacy_host_rdom.get(host, ())
        )
    # Memoized reads are stable.
    for host in traffic.domains_by_host:
        assert host_rdom[host] is host_rdom[host]


@pytest.mark.parity
def test_score_and_score_many_bitwise_equal():
    """The serial and batched linear scorers are bit-identical -- the
    contract the batched frontier scorer's parity rests on."""
    rng = random.Random(17)
    model = _linear(
        SIMILARITY_FEATURE_NAMES,
        [rng.uniform(-1, 1) for _ in SIMILARITY_FEATURE_NAMES],
        rng.uniform(-0.5, 0.5),
    )
    matrix = np.array([
        [rng.random() for _ in SIMILARITY_FEATURE_NAMES]
        for _ in range(64)
    ])
    batched = model.score_many(matrix)
    for row, batch_score in zip(matrix, batched):
        assert model.score(tuple(row)) == float(batch_score)


def test_batched_scorer_rejects_mismatched_model():
    """Feature-name drift between model and batcher fails fast."""
    model = _linear(("a", "b"), [0.1, 0.2], 0.0)
    scorer = RegressionSimilarityScorer(model, FeatureExtractor())
    traffic = DailyTraffic(0)
    try:
        BatchedSimilarityScorer(scorer, traffic, 86_400.0)
    except ValueError as err:
        assert "feature" in str(err)
    else:  # pragma: no cover - the assertion is the exception
        raise AssertionError("expected ValueError")


@pytest.mark.parity
def test_incremental_scorer_matches_additive_componentwise():
    """Spot-check raw scores (not just detections) against the legacy
    additive scorer under a growing malicious set."""
    for seed in range(6):
        rng = random.Random(2024 + seed)
        history = DestinationHistory()
        connections = _random_day_connections(rng, 0, with_http=False)
        traffic, rare = _aggregate(0, connections, history)
        if len(rare) < 4:
            continue
        ordered = sorted(rare)
        malicious_steps = [
            set(ordered[:1]), set(ordered[:2]), set(ordered[:3]),
        ]
        scorer = AdditiveSimilarityScorer()
        incremental = IncrementalAdditiveScorer(scorer, traffic)
        reported: set[str] = set()
        for malicious in malicious_steps:
            frontier = [d for d in ordered if d not in malicious]
            delta = malicious - reported
            fast = incremental.score_frontier(frontier, delta)
            reported |= delta
            for domain in frontier:
                expected = scorer.score(domain, malicious, traffic)
                assert fast[domain] == expected, (
                    f"seed {seed}: {domain} {fast[domain]} != {expected}"
                )


# ---------------------------------------------------------------------------
# Day-lived scorer: follows the traffic's change feeds across micro-batches
# ---------------------------------------------------------------------------

_HOSTS = [f"h{i}" for i in range(5)]
_DOMAINS = [f"d{i}.ru" for i in range(9)]
#: Two /24s inside one /16, a third /24 in another /16, one far away.
_IPS = ["", "", "10.1.1.5", "10.1.1.9", "10.1.2.7", "10.2.9.9", "172.16.0.1"]
#: A 100 s grid around the 600 s timing window; random draws arrive
#: out of order, so late earlier timestamps rewrite first contacts.
_EVENT = st.tuples(
    st.sampled_from(_HOSTS),
    st.sampled_from(_DOMAINS),
    st.integers(0, 30).map(lambda tick: tick * 100.0),
    st.sampled_from(_IPS),
)
_BATCH = st.tuples(
    st.lists(_EVENT, min_size=1, max_size=8),
    st.sets(st.sampled_from(_DOMAINS), max_size=2),
    st.booleans(),
)
_RARE_MAX_HOSTS = 3


def _check_against_definition(batches, stats=None):
    """Feed micro-batches and labels to ONE scorer; after every batch
    its state and scores must equal the paper's per-domain definition
    (:class:`AdditiveSimilarityScorer`) over the traffic so far."""
    traffic = DailyTraffic(0)
    base = AdditiveSimilarityScorer(host_cap=4)
    scorer = IncrementalAdditiveScorer(base, traffic, stats=stats)
    malicious: set[str] = set()
    reported: set[str] = set()
    for events, labels, whole_set in batches:
        traffic.ingest([
            Connection(timestamp=t, host=h, domain=d, resolved_ip=ip)
            for h, d, t, ip in events
        ])
        # Labels only ever name domains with traffic (Algorithm 1
        # labels graph nodes) and only ever accumulate.
        malicious |= labels & traffic.hosts_by_domain.keys()
        frontier = sorted(
            d for d, hosts in traffic.hosts_by_domain.items()
            # Domains leave the frontier as they turn popular.
            if d not in malicious and len(hosts) <= _RARE_MAX_HOSTS
        ) + ["never-seen.ru"]
        # A new BP run hands the hook its whole malicious set first.
        delta = set(malicious) if whole_set else malicious - reported
        scores = scorer.score_frontier(frontier, delta)
        reported |= malicious
        assert list(scores) == frontier
        for domain in frontier:
            assert scores[domain] == base.score(domain, malicious, traffic)
            d_id = traffic.domain_id(domain)
            if d_id is None:
                continue
            assert scorer.state.best_gap(d_id) == (
                FeatureExtractor.min_visit_gap(domain, malicious, traffic)
            )
            assert scorer.state.subnet_flags(d_id) == (
                FeatureExtractor.subnet_proximity(domain, malicious, traffic)
            )


@settings(max_examples=200, deadline=None)
@given(st.lists(_BATCH, min_size=1, max_size=8))
@example([  # new host on a malicious domain shrinks a tracked gap
    ([("h0", "d0.ru", 0.0, ""), ("h1", "d1.ru", 900.0, "")], {"d0.ru"}, False),
    ([("h1", "d0.ru", 1000.0, "")], set(), False),
])
@example([  # novel IP lands a tracked domain in a malicious /24, then /16
    ([("h0", "d0.ru", 0.0, "10.1.1.5"), ("h1", "d1.ru", 0.0, ""),
      ("h2", "d2.ru", 0.0, "")], {"d0.ru"}, False),
    ([("h1", "d1.ru", 50.0, "10.1.1.9"), ("h2", "d2.ru", 50.0, "10.1.2.7")],
     set(), False),
])
@example([  # late earlier timestamp moves a malicious first contact
    ([("h0", "d0.ru", 2000.0, ""), ("h0", "d1.ru", 1500.0, "")],
     {"d0.ru"}, False),
    ([("h0", "d0.ru", 100.0, "")], set(), True),
])
def test_day_lived_scorer_matches_per_domain_definition(batches):
    _check_against_definition(batches)


def test_day_lived_scorer_rebuilds_only_on_relevant_rewrites():
    """A rewritten first contact the state depends on forces a rebuild
    (counted); one on an untracked, unlabeled domain does not."""
    stats = SimilarityStats()
    _check_against_definition([
        ([("h0", "d0.ru", 2000.0, ""), ("h0", "d1.ru", 1500.0, ""),
          ("h1", "d2.ru", 500.0, ""), ("h2", "d2.ru", 500.0, ""),
          ("h3", "d2.ru", 500.0, ""), ("h4", "d2.ru", 500.0, "")],
         {"d0.ru"}, False),
        # d2.ru is popular: never tracked, never labeled.
        ([("h1", "d2.ru", 10.0, "")], set(), False),
    ], stats)
    assert stats.rebuilds == 0
    _check_against_definition([
        ([("h0", "d0.ru", 2000.0, ""), ("h0", "d1.ru", 1500.0, "")],
         {"d0.ru"}, False),
        ([("h0", "d1.ru", 1900.0, "")], set(), False),  # later: no rewrite
        ([("h0", "d1.ru", 100.0, "")], set(), False),   # tracked side
        ([("h0", "d0.ru", 50.0, "")], set(), False),    # malicious side
    ], stats)
    assert stats.rebuilds == 2
    assert stats.tracked == 2 and stats.rescored >= 4
