"""Belief-propagation scoring at scale: legacy vs incremental frontier.

No CLI path calls the legacy arm: it drives ``belief_propagation`` with
the dict-based scoring Algorithm 1 used before the incremental scorers;
the fast arm is the scoring ``detect_day`` runs.

Not a paper figure -- this bench characterizes the scoring hot path.
Algorithm 1's inner loop rescored every frontier domain against the
*entire* malicious set each iteration (O(iterations x frontier x
malicious) pure-Python loops); the incremental scorers, reading the
id-level rows :class:`~repro.profiling.rare.DailyTraffic` keeps, fold
in only the newly labeled delta per iteration.  The two paths must
agree byte-for-byte on detections, so each measured pair is also a
parity assertion.

The synthetic world is a labeling *chain*: a seed C&C domain, ``M``
chain domains each pulled in one belief-propagation iteration via a
timing + /24 similarity hit, and ``F`` background frontier domains
that score below threshold but must be rescanned every iteration --
the adversarial shape for the legacy loop.  Sweeping (F, M) sweeps
frontier x malicious-set size.

A second arm replays the same world as a *growing day*: ``ROUNDS``
ingest -> warm-start belief-propagation rounds (the streaming
cadence), once with a fresh :class:`IncrementalAdditiveScorer` per
round and once with a single day-lived one that follows the
traffic's change feeds.  Every round's results must be equal.
Warm Algorithm 1 over ``traffic.bp_views(rare)`` is the route
``StreamingEngineBase.score`` takes (through ``detect_day(prior=...)``).
The rounds are one run of Algorithm 1 under one iteration cap (a warm
round resumes after the last labeling iteration), so the arm's cap is
``chain + 1``: the chain labels link by link as its edges arrive over
the day, and the last round closes it.

Results go to ``benchmarks/out/bp_scale.json`` (plus the rendered
table); ``BP_SCALE_SMOKE=1`` runs only the small configuration (a
quick local check; CI runs the full ~6 s bench).  The acceptance gate:
the largest configuration must show >= 5x speedup with
``detect_parity: true``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import OUT_DIR, save_output

from repro.config import BeliefPropagationConfig
from repro.core.beliefprop import belief_propagation
from repro.core.scoring import (
    AdditiveSimilarityScorer,
    BatchedSimilarityScorer,
    IncrementalAdditiveScorer,
    RegressionSimilarityScorer,
)
from repro.eval import render_table
from repro.features.extract import SIMILARITY_FEATURE_NAMES, FeatureExtractor
from repro.features.regression import LinearModel
from repro.logs.records import Connection
from repro.profiling.rare import DailyTraffic, rare_domains_by_host

SMOKE = bool(os.environ.get("BP_SCALE_SMOKE"))

#: (name, background frontier size, chain length).
CONFIGS = (
    ("small", 300, 10),
    ("medium", 1000, 20),
    ("large", 2500, 40),
)
WHEN = 86_400.0
#: ingest -> score rounds of the warm arm.
ROUNDS = 40


def chain_world_connections(frontier: int, chain: int):
    """``(chain connections, background connections, names)`` of one
    day forming an F-background, M-chain BP run.

    ``hub`` contacts the seed domain and every background domain (so
    the whole frontier is reachable from iteration 1); chain host ``i``
    contacts chain domains ``i`` and ``i+1`` thirty seconds apart, and
    all chain domains resolve into one /24 -- each iteration labels
    exactly the next chain domain while every background domain is
    rescored and rejected.
    """
    connections: list[Connection] = []
    chain_names = [f"chain{i:04d}.evil" for i in range(chain + 1)]
    for i, name in enumerate(chain_names):
        t = 1000.0 + i * 30.0
        ip = f"10.20.30.{(i % 250) + 1}"
        if i > 0:
            connections.append(Connection(t, f"chainhost{i - 1:04d}", name, ip))
        if i < chain:
            connections.append(Connection(t, f"chainhost{i:04d}", name, ip))
    connections.insert(0, Connection(1000.0, "hub", chain_names[0], "10.20.30.1"))

    background: list[Connection] = []
    background_names = [f"bg{i:05d}.example" for i in range(frontier)]
    for i, name in enumerate(background_names):
        t = 50_000.0 + i * 1.5
        ip = f"198.{(i % 200) + 1}.{(i * 7) % 250}.9"
        background.append(Connection(t, "hub", name, ip))
        background.append(Connection(t + 40.0, f"bghost{i % 97:03d}", name, ip))
    return connections, background, chain_names, background_names


def build_chain_world(frontier: int, chain: int):
    """The whole day at once: ``(traffic, rare, seed hosts, seeds)``."""
    connections, background, chain_names, background_names = (
        chain_world_connections(frontier, chain)
    )
    traffic = DailyTraffic(0)
    traffic.ingest(connections + background)
    traffic.finalize()
    rare = set(chain_names) | set(background_names)
    seed_domains = {chain_names[0]}
    seed_hosts = set(traffic.hosts_by_domain[chain_names[0]])
    return traffic, rare, seed_hosts, seed_domains


def run_warm_rounds(frontier: int, chain: int) -> dict:
    """The day in ``ROUNDS`` slices, a warm-start BP run after each.

    Slice ``k`` carries the ``k``-th share of the chain *and* of the
    background, so the chain labels a few links at a time as the
    traffic that connects them arrives, over a frontier that keeps
    growing -- ``chain`` labeling iterations spread over the day's
    rounds, counted against one cap.  Both arms score the same traffic
    (scorer state lives outside the traffic, so they cannot interfere).
    """
    connections, background, chain_names, background_names = (
        chain_world_connections(frontier, chain)
    )
    rare = set(chain_names) | set(background_names)
    config = BeliefPropagationConfig(
        similarity_threshold=0.25, max_iterations=chain + 1
    )
    additive = AdditiveSimilarityScorer()
    traffic = DailyTraffic(0)
    day_lived = IncrementalAdditiveScorer(additive, traffic)
    seconds = {"fresh": 0.0, "day_lived": 0.0}
    prior = {"fresh": None, "day_lived": None}
    parity = True
    for k in range(ROUNDS):
        traffic.ingest(connections[k::ROUNDS] + background[k::ROUNDS])
        seed_hosts = set(traffic.hosts_by_domain[chain_names[0]])
        for arm in ("fresh", "day_lived"):
            dom_host, host_rdom = traffic.bp_views(rare)
            start = time.perf_counter()
            scorer = (
                day_lived if arm == "day_lived"
                else IncrementalAdditiveScorer(additive, traffic)
            )
            prior[arm] = belief_propagation(
                seed_hosts,
                {chain_names[0]},
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=lambda dom: False,
                score_frontier=scorer.score_frontier,
                config=config,
                prior=prior[arm],
            )
            seconds[arm] += time.perf_counter() - start
        fresh, lived = prior["fresh"], prior["day_lived"]
        parity = parity and (
            fresh.detections == lived.detections
            and fresh.trace == lived.trace
            and fresh.hosts == lived.hosts
        )
    assert parity, "day-lived scorer diverged from per-round-fresh"
    labeled = len(prior["day_lived"].domains)
    assert labeled > chain // 2, f"warm rounds labeled only {labeled}"
    stats = day_lived.state.stats
    return {
        "rounds": ROUNDS,
        "frontier": frontier,
        "chain": chain,
        "labeled": labeled,
        "fresh_seconds": seconds["fresh"],
        "day_lived_seconds": seconds["day_lived"],
        "speedup": seconds["fresh"] / seconds["day_lived"],
        "rescored": stats.rescored,
        "tracked": stats.tracked,
        "detect_parity": parity,
    }


def _sim_model() -> LinearModel:
    """Hand-built similarity model: timing + /24 hits clear Ts, the
    background's connectivity-only rows do not."""
    return LinearModel(
        feature_names=SIMILARITY_FEATURE_NAMES,
        intercept=0.03,
        weights=np.array([0.25, 0.5, 0.3, 0.1, 0.08, 0.04, -0.15, -0.08]),
        coefficients=(),
        r_squared=0.0,
        n_samples=10,
    )


def _run(seed_hosts, seed_domains, config, scoring_kwargs):
    start = time.perf_counter()
    result = belief_propagation(
        seed_hosts,
        seed_domains,
        detect_cc=lambda dom: False,
        config=config,
        **scoring_kwargs,
    )
    elapsed = time.perf_counter() - start
    return elapsed, result


def test_bp_scale():
    configs = CONFIGS[:1] if SMOKE else CONFIGS
    rows = []
    results = []
    all_parity = True
    for name, frontier, chain in configs:
        traffic, rare, seed_hosts, seed_domains = build_chain_world(
            frontier, chain
        )
        bp_config = BeliefPropagationConfig(
            similarity_threshold=0.25, max_iterations=chain + 2
        )
        legacy_dom_host = {
            d: frozenset(traffic.hosts_by_domain.get(d, ())) for d in rare
        }
        legacy_host_rdom = rare_domains_by_host(traffic, rare)
        dom_host, host_rdom = traffic.bp_views(rare)

        additive = AdditiveSimilarityScorer()
        regression = RegressionSimilarityScorer(
            _sim_model(), FeatureExtractor()
        )
        for family in ("additive", "regression"):
            if family == "additive":
                legacy_scoring = {
                    "similarity_score":
                        lambda d, mal: additive.score(d, mal, traffic),
                }
                fast_scoring = {
                    "score_frontier": IncrementalAdditiveScorer(
                        additive, traffic
                    ).score_frontier,
                }
            else:
                legacy_scoring = {
                    "similarity_score":
                        lambda d, mal: regression.score(
                            d, mal, traffic, WHEN
                        ),
                }
                fast_scoring = {
                    "score_frontier": BatchedSimilarityScorer(
                        regression, traffic, WHEN
                    ).score_frontier,
                }
            legacy_s, legacy_result = _run(
                seed_hosts, seed_domains, bp_config,
                dict(dom_host=legacy_dom_host, host_rdom=legacy_host_rdom,
                     **legacy_scoring),
            )
            fast_s, fast_result = _run(
                seed_hosts, seed_domains, bp_config,
                dict(dom_host=dom_host, host_rdom=host_rdom, **fast_scoring),
            )
            parity = (
                legacy_result.detections == fast_result.detections
                and legacy_result.trace == fast_result.trace
                and legacy_result.hosts == fast_result.hosts
                and legacy_result.domains == fast_result.domains
            )
            all_parity = all_parity and parity
            assert parity, f"{name}/{family}: detections diverged"
            assert len(fast_result.domains) == chain + 1, (
                f"{name}/{family}: chain did not fully label "
                f"({len(fast_result.domains)} of {chain + 1})"
            )
            speedup = legacy_s / fast_s if fast_s > 0 else float("inf")
            rows.append((
                name, family, frontier, chain,
                f"{legacy_s * 1e3:,.1f}", f"{fast_s * 1e3:,.1f}",
                f"{speedup:.1f}x", "yes" if parity else "NO",
            ))
            results.append({
                "config": name,
                "scorer": family,
                "frontier": frontier,
                "chain": chain,
                "iterations": fast_result.iterations,
                "legacy_seconds": legacy_s,
                "indexed_seconds": fast_s,
                "speedup": speedup,
                "detect_parity": parity,
            })

    if not SMOKE:
        largest = [r for r in results if r["config"] == configs[-1][0]]
        min_speedup = min(r["speedup"] for r in largest)
        assert min_speedup >= 5.0, (
            f"largest configuration speedup {min_speedup:.1f}x < 5x"
        )

    warm = run_warm_rounds(*configs[-1][1:])
    table = render_table(
        ("config", "scorer", "frontier", "chain",
         "legacy ms", "indexed ms", "speedup", "parity"),
        rows,
        title="Belief-propagation frontier scoring: legacy vs indexed",
    ) + (
        f"\nwarm rounds ({warm['rounds']} ingest->score rounds, frontier "
        f"{warm['frontier']}, chain {warm['chain']}): per-round-fresh "
        f"{warm['fresh_seconds'] * 1e3:,.1f} ms, day-lived "
        f"{warm['day_lived_seconds'] * 1e3:,.1f} ms "
        f"({warm['speedup']:.1f}x), {warm['rescored']} rescored / "
        f"{warm['tracked']} tracked\n"
    )
    save_output("bp_scale", table)
    payload = {
        "bench": "bp_scale",
        "smoke": SMOKE,
        "detect_parity": all_parity and warm["detect_parity"],
        "rows": results,
        "warm_rounds": warm,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "bp_scale.json").write_text(json.dumps(payload, indent=2) + "\n")
