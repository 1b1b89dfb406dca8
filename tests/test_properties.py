"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import DetectionCounts, score_detections
from repro.features import fit_linear_model, normalize_age, normalize_validity
from repro.logs.domains import fold_domain
from repro.logs.normalize import ProxyNormalizer
from repro.profiling import DailyTraffic, DestinationHistory
from repro.synthetic import (
    CAMPAIGN_NAMES,
    AdversarialCampaignSpec,
    WorldView,
    campaign_proxy_records,
    realize_campaign,
)
from repro.timing import (
    build_histogram,
    divergence_from_periodic,
    intervals,
    jeffrey_divergence,
    l1_distance,
    periodic_reference,
)

positive_floats = st.floats(
    min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
)
interval_lists = st.lists(positive_floats, min_size=1, max_size=60)
bin_widths = st.floats(min_value=0.01, max_value=1e4)


class TestHistogramProperties:
    @given(interval_lists, bin_widths)
    def test_total_equals_input_length(self, values, width):
        hist = build_histogram(values, width)
        assert hist.total == len(values)
        assert sum(b.count for b in hist.bins) == len(values)

    @given(interval_lists, bin_widths)
    def test_frequencies_sum_to_one(self, values, width):
        hist = build_histogram(values, width)
        assert math.isclose(sum(b.frequency for b in hist.bins), 1.0)

    @given(interval_lists, bin_widths)
    def test_every_hub_is_an_input_value(self, values, width):
        hist = build_histogram(values, width)
        hubs = {b.hub for b in hist.bins}
        assert hubs <= set(values)

    @given(interval_lists, bin_widths)
    def test_hubs_are_pairwise_separated(self, values, width):
        """Distinct cluster hubs must be more than W apart -- otherwise
        the second hub would have joined the first cluster."""
        hist = build_histogram(values, width)
        hubs = [b.hub for b in hist.bins]
        for i, hub_a in enumerate(hubs):
            for hub_b in hubs[i + 1:]:
                assert abs(hub_a - hub_b) > width

    @given(st.floats(min_value=1.0, max_value=1e5), st.integers(2, 50))
    def test_constant_intervals_single_bin(self, value, count):
        hist = build_histogram([value] * count, 1.0)
        assert len(hist.bins) == 1
        assert hist.period == value

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e7, allow_nan=False),
            min_size=2, max_size=50,
        )
    )
    def test_intervals_nonnegative_for_sorted_input(self, times):
        times.sort()
        assert all(gap >= 0 for gap in intervals(times))


class TestDivergenceProperties:
    @given(interval_lists, bin_widths)
    def test_jeffrey_nonnegative_and_bounded(self, values, width):
        hist = build_histogram(values, width)
        d = divergence_from_periodic(hist)
        assert -1e-12 <= d <= 2 * math.log(2) + 1e-9

    @given(interval_lists, bin_widths)
    def test_l1_bounded_by_two(self, values, width):
        hist = build_histogram(values, width)
        assert 0.0 <= divergence_from_periodic(hist, metric="l1") <= 2.0 + 1e-12

    @given(interval_lists, bin_widths)
    def test_self_reference_dominant_share_monotone(self, values, width):
        """Divergence from periodic is 0 iff a single bin holds all mass."""
        hist = build_histogram(values, width)
        d = divergence_from_periodic(hist)
        if len(hist.bins) == 1:
            assert math.isclose(d, 0.0, abs_tol=1e-12)
        else:
            assert d > 0.0

    @given(interval_lists, bin_widths)
    def test_jeffrey_symmetry_under_swap(self, values, width):
        """dJ(H, K) computed from aligned pairs is symmetric."""
        hist = build_histogram(values, width)
        ref = periodic_reference(hist)
        observed_as_ref = {b.hub: b.frequency for b in hist.bins}
        ref_as_hist = build_histogram(
            [hist.period], 1.0
        )  # single bin at the period with mass 1
        forward = jeffrey_divergence(hist, ref)
        backward = jeffrey_divergence(ref_as_hist, observed_as_ref)
        assert math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-9)

    @given(interval_lists, bin_widths)
    def test_l1_triangle_with_zero(self, values, width):
        hist = build_histogram(values, width)
        assert l1_distance(hist, {b.hub: b.frequency for b in hist.bins}) == 0.0


class TestHistoryProperties:
    @given(
        st.lists(
            st.tuples(st.text(alphabet="abc.", min_size=1, max_size=8),
                      st.integers(0, 30)),
            max_size=100,
        )
    )
    def test_history_grows_monotonically(self, observations):
        history = DestinationHistory()
        sizes = []
        for domain, day in observations:
            history.stage(domain, day)
            history.commit_day(day)
            sizes.append(len(history))
        assert sizes == sorted(sizes)

    @given(st.lists(st.text(alphabet="abcxyz.", min_size=1, max_size=10), max_size=50))
    def test_committed_domains_never_new_again(self, domains):
        history = DestinationHistory()
        for domain in domains:
            history.stage(domain, 0)
        history.commit_day(0)
        assert all(not history.is_new(d) for d in domains)


class TestFoldProperties:
    domain_labels = st.lists(
        st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
        min_size=1, max_size=6,
    )

    @given(domain_labels, st.integers(1, 4))
    def test_fold_idempotent(self, labels, level):
        name = ".".join(labels)
        once = fold_domain(name, level)
        assert fold_domain(once, level) == once

    @given(domain_labels, st.integers(1, 4))
    def test_fold_result_label_count_bounded(self, labels, level):
        folded = fold_domain(".".join(labels), level)
        assert len(folded.split(".")) <= max(len(labels), level)

    @given(domain_labels, st.integers(1, 4))
    def test_fold_is_suffix(self, labels, level):
        name = ".".join(labels).lower()
        assert name.endswith(fold_domain(name, level))


class TestMetricsProperties:
    @given(
        st.sets(st.text(alphabet="abcd", min_size=1, max_size=4), max_size=20),
        st.sets(st.text(alphabet="abcd", min_size=1, max_size=4), max_size=20),
    )
    def test_rates_are_probabilities(self, detected, truth):
        counts = score_detections(detected, truth)
        assert 0.0 <= counts.tdr <= 1.0
        assert 0.0 <= counts.fdr <= 1.0
        assert 0.0 <= counts.fnr <= 1.0
        if detected:
            assert math.isclose(counts.tdr + counts.fdr, 1.0)

    @given(
        st.sets(st.text(alphabet="abcd", min_size=1, max_size=4), max_size=20),
        st.sets(st.text(alphabet="abcd", min_size=1, max_size=4), max_size=20),
    )
    def test_counts_conserve_sets(self, detected, truth):
        counts = score_detections(detected, truth)
        assert counts.true_positives + counts.false_positives == len(detected)
        assert counts.true_positives + counts.false_negatives == len(truth)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_addition_componentwise(self, tp, fp, fn):
        a = DetectionCounts(tp, fp, fn)
        b = DetectionCounts(1, 2, 3)
        total = a + b
        assert total.true_positives == tp + 1
        assert total.false_positives == fp + 2
        assert total.false_negatives == fn + 3


class TestWhoisNormalizationProperties:
    @given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    def test_age_in_unit_interval(self, days):
        assert 0.0 <= normalize_age(days) <= 1.0

    @given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    def test_validity_in_unit_interval(self, days):
        assert 0.0 <= normalize_validity(days) <= 1.0

    @given(st.floats(min_value=0, max_value=364), st.floats(min_value=0.5, max_value=364))
    def test_age_monotone(self, base, delta):
        assert normalize_age(base + delta) >= normalize_age(base)


class TestRegressionProperties:
    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            min_size=5, max_size=40,
        )
    )
    def test_fitted_scores_finite(self, rows):
        matrix = [[a, b] for a, b in rows]
        labels = [a for a, _ in rows]
        model = fit_linear_model(("a", "b"), matrix, labels, ridge=0.01)
        for row in matrix:
            assert math.isfinite(model.score(row))

    @settings(max_examples=25)
    @given(st.floats(0.01, 10.0))
    def test_larger_ridge_never_grows_weights(self, ridge):
        rows = [[0.0], [0.0], [1.0], [1.0], [0.5]]
        labels = [0.0, 0.1, 0.9, 1.0, 0.5]
        small = fit_linear_model(("x",), rows, labels, ridge=ridge)
        large = fit_linear_model(("x",), rows, labels, ridge=ridge * 2)
        assert abs(large.weights[0]) <= abs(small.weights[0]) + 1e-12


# ---------------------------------------------------------------------------
# Adversarial campaign invariants
# ---------------------------------------------------------------------------

#: A tiny fixed world view: campaign realization only reads hosts and
#: the popular core, so properties need no generated dataset.
_CAMPAIGN_WORLD = WorldView(
    hosts=tuple(f"host{i:02d}.c0" for i in range(8)),
    popular_sites=tuple(
        (f"popular{i}.com", f"10.9.{i}.1") for i in range(6)
    ),
)

campaign_specs = st.builds(
    AdversarialCampaignSpec,
    campaign=st.sampled_from(CAMPAIGN_NAMES),
    strength=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**32),
    start_day=st.integers(0, 40),
    duration_days=st.integers(1, 5),
    n_hosts=st.integers(1, 4),
)


class TestCampaignProperties:
    @settings(max_examples=40, deadline=None)
    @given(campaign_specs)
    def test_events_confined_to_active_days(self, spec):
        """No archetype, at any strength, may leak a single event
        outside its configured day range -- and every emitted
        timestamp lies inside its own day."""
        realized = realize_campaign(_CAMPAIGN_WORLD, spec)
        days = spec.active_days
        assert realized.day_visits(days.start - 1) == []
        assert realized.day_visits(days.stop) == []
        for day in days:
            for visit in realized.day_visits(day):
                assert day * 86_400.0 <= visit.timestamp < (day + 1) * 86_400.0
                assert visit.host in realized.hosts

    @settings(max_examples=40, deadline=None)
    @given(campaign_specs)
    def test_attacker_domains_never_collide_with_whitelist(self, spec):
        """Attacker-owned names stay disjoint from the benign popular
        core (the reduction whitelist) by construction; only fronted
        traffic -- which is not ground truth -- may touch it."""
        realized = realize_campaign(_CAMPAIGN_WORLD, spec)
        whitelist = {domain for domain, _ in _CAMPAIGN_WORLD.popular_sites}
        attacker = set(realized.attacker_domains)
        assert not attacker & whitelist
        assert realized.truth_domains() <= attacker
        for domain in attacker:
            assert domain.rpartition(".")[2] in ("ru", "info")

    @settings(max_examples=25, deadline=None)
    @given(campaign_specs, st.integers(1, 7))
    def test_chunked_ingest_matches_single_finalize(self, spec, chunks):
        """Feeding a day's campaign traffic to DailyTraffic in any
        chunking, with interleaved finalize calls, must aggregate to
        the same state as one ingest + finalize."""
        realized = realize_campaign(_CAMPAIGN_WORLD, spec)
        records = campaign_proxy_records(realized, spec.start_day)
        normalizer = ProxyNormalizer()
        whole = DailyTraffic(spec.start_day)
        whole.ingest(normalizer.read_records(records))
        whole.finalize()

        piecewise = DailyTraffic(spec.start_day)
        size = max(1, len(records) // chunks)
        for batch in normalizer.read_records(records, size):
            piecewise.ingest(batch)
            piecewise.finalize()

        assert piecewise.hosts_by_domain == whole.hosts_by_domain
        assert dict(piecewise.series()) == dict(whole.series())
        assert piecewise.resolved_ips == whole.resolved_ips
        assert piecewise.no_referer_hosts == whole.no_referer_hosts
