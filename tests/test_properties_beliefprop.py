"""Property-based tests for Algorithm 1 on random bipartite worlds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BeliefPropagationConfig
from repro.core import belief_propagation

hosts_strategy = st.sets(
    st.sampled_from([f"h{i}" for i in range(8)]), min_size=1, max_size=8
)
domains_strategy = st.sets(
    st.sampled_from([f"d{i}.ru" for i in range(10)]), min_size=1, max_size=10
)


@st.composite
def worlds(draw):
    """A random bipartite world plus seeds, scores and C&C labels."""
    hosts = sorted(draw(hosts_strategy))
    domains = sorted(draw(domains_strategy))
    dom_host = {
        domain: set(draw(st.sets(st.sampled_from(hosts), max_size=len(hosts))))
        for domain in domains
    }
    host_rdom: dict[str, set[str]] = {host: set() for host in hosts}
    for domain, members in dom_host.items():
        for host in members:
            host_rdom[host].add(domain)
    seed_hosts = set(draw(st.sets(st.sampled_from(hosts), min_size=1, max_size=3)))
    cc = set(draw(st.sets(st.sampled_from(domains), max_size=3)))
    scores = {
        domain: draw(st.floats(0, 1, allow_nan=False)) for domain in domains
    }
    max_iterations = draw(st.integers(1, 8))
    threshold = draw(st.floats(0.1, 0.9))
    return (hosts, domains, dom_host, host_rdom, seed_hosts, cc, scores,
            max_iterations, threshold)


def run(world, *, per_iteration=1, prior=None):
    (_, _, dom_host, host_rdom, seed_hosts, cc, scores,
     max_iterations, threshold) = world
    config = BeliefPropagationConfig(
        similarity_threshold=threshold,
        max_iterations=max_iterations,
        max_domains_per_iteration=per_iteration,
    )
    result = belief_propagation(
        seed_hosts,
        set(),
        dom_host=dom_host,
        host_rdom=host_rdom,
        detect_cc=lambda dom: dom in cc,
        similarity_score=lambda dom, malicious: scores[dom],
        config=config,
        prior=prior,
    )
    return result, config


class TestBeliefPropagationProperties:
    @settings(max_examples=60)
    @given(worlds())
    def test_hosts_superset_of_seeds(self, world):
        result, _ = run(world)
        assert world[4] <= result.hosts

    @settings(max_examples=60)
    @given(worlds())
    def test_labeled_domains_are_reachable_rare_domains(self, world):
        """Every labeled domain is visited by some compromised host."""
        result, _ = run(world)
        dom_host = world[2]
        for domain in result.domains:
            assert dom_host.get(domain, set()) & result.hosts or not dom_host.get(domain)

    @settings(max_examples=60)
    @given(worlds())
    def test_iteration_cap_respected(self, world):
        result, config = run(world)
        assert result.iterations <= config.max_iterations

    @settings(max_examples=60)
    @given(worlds())
    def test_similarity_labels_clear_threshold(self, world):
        result, config = run(world)
        scores = world[6]
        for detection in result.detections:
            if detection.reason == "similarity":
                assert scores[detection.domain] >= config.similarity_threshold

    @settings(max_examples=60)
    @given(worlds())
    def test_cc_domains_labeled_cc(self, world):
        """Any labeled domain that is in the C&C set must carry the cc
        reason (phase 1 runs before similarity)."""
        result, _ = run(world)
        cc = world[5]
        for detection in result.detections:
            if detection.domain in cc and detection.reason != "seed":
                assert detection.reason == "cc"

    @settings(max_examples=60)
    @given(worlds())
    def test_deterministic(self, world):
        first, _ = run(world)
        second, _ = run(world)
        assert [d.domain for d in first.detections] == [
            d.domain for d in second.detections
        ]
        assert first.hosts == second.hosts

    @settings(max_examples=60)
    @given(worlds())
    def test_graph_consistent_with_sets(self, world):
        result, _ = run(world)
        assert set(result.graph.hosts) == result.hosts
        assert set(result.graph.domains) == result.domains
        for host, domain in result.graph.edges:
            assert host in result.hosts
            assert domain in result.domains

    @settings(max_examples=60)
    @given(worlds())
    def test_no_duplicate_detections(self, world):
        result, _ = run(world)
        names = [d.domain for d in result.detections]
        assert len(names) == len(set(names))

    @settings(max_examples=40)
    @given(worlds(), st.floats(0.1, 0.9))
    def test_higher_threshold_detects_subset_weakly(self, world, bump):
        """Raising Ts cannot increase the number of similarity labels
        on the same world (with identical iteration caps)."""
        (hosts, domains, dom_host, host_rdom, seed_hosts, cc, scores,
         max_iterations, threshold) = world
        high = min(0.99, threshold + bump)
        low_world = (hosts, domains, dom_host, host_rdom, seed_hosts, cc,
                     scores, max_iterations, threshold)
        high_world = (hosts, domains, dom_host, host_rdom, seed_hosts, cc,
                      scores, max_iterations, high)
        low_result, _ = run(low_world)
        high_result, _ = run(high_world)
        low_sim = sum(1 for d in low_result.detections if d.reason == "similarity")
        high_sim = sum(1 for d in high_result.detections if d.reason == "similarity")
        assert high_sim <= low_sim


class TestOneBudgetPerRun:
    """A ``prior`` continues its run: carried labels keep their
    iteration and the loop resumes after them, under the same cap."""

    @settings(max_examples=100)
    @given(worlds(), st.integers(1, 2))
    def test_warm_over_unchanged_maps_is_the_cold_result(
        self, world, per_iteration
    ):
        cold, _ = run(world, per_iteration=per_iteration)
        warm, _ = run(world, per_iteration=per_iteration, prior=cold)
        assert warm.detections == cold.detections
        assert warm.hosts == cold.hosts
        assert warm.domains == cold.domains

    @settings(max_examples=100)
    @given(st.data(), worlds(), st.integers(1, 2))
    def test_a_chain_of_warm_rounds_spends_one_cap(
        self, data, world, per_iteration
    ):
        """Edges arrive one at a time, a warm run after each: a label
        added in a later round carries a later iteration than every
        label it found, and none is past the cap."""
        (hosts, domains, dom_host, host_rdom, seed_hosts, cc, scores,
         max_iterations, threshold) = world
        dom_host = {domain: set(members)
                    for domain, members in dom_host.items()}
        host_rdom = {host: set(members)
                     for host, members in host_rdom.items()}
        world = (hosts, domains, dom_host, host_rdom, seed_hosts, cc,
                 scores, max_iterations, threshold)
        arrivals = data.draw(st.lists(
            st.tuples(st.sampled_from(hosts), st.sampled_from(domains)),
            max_size=8,
        ))
        prior, _ = run(world, per_iteration=per_iteration)
        for host, domain in arrivals:
            dom_host[domain].add(host)
            host_rdom[host].add(domain)
            result, _ = run(world, per_iteration=per_iteration, prior=prior)
            carried = {d.domain: d for d in prior.detections}
            spent = max((d.iteration for d in prior.detections), default=0)
            for detection in result.detections:
                if detection.domain in carried:
                    assert detection == carried[detection.domain]
                else:
                    assert spent < detection.iteration <= max_iterations
            assert [t.iteration for t in result.trace] == list(range(
                spent + 1, spent + 1 + len(result.trace)
            ))
            assert result.detections == sorted(
                result.detections, key=lambda d: (d.iteration, d.domain)
            )
            assert sum(
                d.reason == "similarity" for d in result.detections
            ) <= max_iterations * per_iteration
            prior = result


class TestSimilaritySelection:
    """The phase-2 cut ranks only what clears ``Ts``; it must pick what
    ranking *everything* by (-score, name), cutting to k, then
    filtering by ``Ts`` picks -- spelled out here as the reference."""

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.sampled_from([f"d{i:02d}.ru" for i in range(12)]),
            # Few distinct values: most examples tie heavily.
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75]),
            min_size=1,
        ),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0.25, 0.5, 0.6, 0.75, 0.9]),
        st.booleans(),
    )
    def test_ranked_cut_matches_full_ranking(self, scores, k, threshold, hook):
        config = BeliefPropagationConfig(
            similarity_threshold=threshold,
            max_iterations=1,
            max_domains_per_iteration=k,
        )
        scoring = (
            {"score_frontier": lambda frontier, delta: scores}
            if hook else
            {"similarity_score": lambda dom, malicious: scores[dom]}
        )
        result = belief_propagation(
            {"h0"},
            set(),
            dom_host={domain: {"h0"} for domain in scores},
            host_rdom={"h0": set(scores)},
            detect_cc=lambda dom: False,
            config=config,
            **scoring,
        )
        ranked = sorted(scores, key=lambda d: (-scores[d], d))[:k]
        expected = [d for d in ranked if scores[d] >= threshold]
        (trace,) = result.trace
        assert trace.labeled == tuple(sorted(expected))
        assert trace.top_score == max(scores.values())
        # Each label carries its own score: with k > 1 a runner-up
        # must not be reported (and published) at the winner's.
        assert [
            (d.domain, d.score) for d in result.detections
        ] == [(d, scores[d]) for d in sorted(expected)]
