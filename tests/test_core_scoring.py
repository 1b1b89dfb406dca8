"""Unit tests for the domain scorers (regression and additive)."""

import pytest

from repro.core import AdditiveSimilarityScorer, multi_host_cc_scores
from repro.core.scoring import (
    MULTI_HOST_SYNC_WINDOW,
    RegressionCCScorer,
    RegressionSimilarityScorer,
)
from repro.features import CC_FEATURE_NAMES, FeatureExtractor, fit_linear_model
from repro.features.extract import SIMILARITY_FEATURE_NAMES
from repro.logs import Connection
from repro.profiling import DailyTraffic
from repro.timing.detector import AutomationVerdict


def conn(host, domain, ts=0.0, ip="", referer="http://x/", ua="UA"):
    return Connection(
        timestamp=ts, host=host, domain=domain,
        resolved_ip=ip, user_agent=ua, referer=referer,
    )


def traffic_from(connections):
    traffic = DailyTraffic(0)
    traffic.ingest(connections)
    traffic.finalize()
    return traffic


def verdict(host, domain, period, automated=True):
    return AutomationVerdict(
        host=host, domain=domain, automated=automated,
        divergence=0.0, period=period, connections=20,
    )


class TestAdditiveScorer:
    def _campaign_traffic(self):
        return traffic_from(
            [
                conn("h1", "cc.c3", ts=1000.0, ip="5.5.5.1"),
                conn("h2", "cc.c3", ts=1050.0, ip="5.5.5.1"),
                conn("h1", "deliver.c3", ts=900.0, ip="5.5.5.7"),
                conn("h3", "benign.n1", ts=40_000.0, ip="8.8.8.8"),
            ]
        )

    def test_components_for_campaign_domain(self):
        scorer = AdditiveSimilarityScorer()
        connectivity, timing, ip = scorer.components(
            "deliver.c3", {"cc.c3"}, self._campaign_traffic()
        )
        assert connectivity == pytest.approx(0.1)
        assert timing == 1.0  # 100 s gap < 600 s window
        assert ip == 2.0  # same /24

    def test_score_normalized(self):
        scorer = AdditiveSimilarityScorer()
        score = scorer.score("deliver.c3", {"cc.c3"}, self._campaign_traffic())
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx((0.1 + 1.0 + 2.0) / 4.0)

    def test_unrelated_domain_scores_low(self):
        scorer = AdditiveSimilarityScorer()
        score = scorer.score("benign.n1", {"cc.c3"}, self._campaign_traffic())
        assert score < 0.25  # below the LANL threshold Ts

    def test_ip16_scores_one(self):
        traffic = traffic_from(
            [
                conn("h1", "cc.c3", ts=0.0, ip="5.5.5.1"),
                conn("h2", "sib.c3", ts=30_000.0, ip="5.5.200.1"),
            ]
        )
        _, _, ip = AdditiveSimilarityScorer().components("sib.c3", {"cc.c3"}, traffic)
        assert ip == 1.0

    def test_timing_window_configurable(self):
        traffic = self._campaign_traffic()
        tight = AdditiveSimilarityScorer(timing_window=50.0)
        _, timing, _ = tight.components("deliver.c3", {"cc.c3"}, traffic)
        assert timing == 0.0


class TestMultiHostBeaconHeuristic:
    def test_two_synced_hosts_fire(self):
        verdicts = [verdict("h1", "cc.c3", 600.0), verdict("h2", "cc.c3", 605.0)]
        assert multi_host_cc_scores(verdicts) == {"cc.c3": 1.0}

    def test_single_host_does_not_fire(self):
        verdicts = [verdict("h1", "cc.c3", 600.0)]
        assert multi_host_cc_scores(verdicts) == {}

    def test_desynced_periods_do_not_fire(self):
        verdicts = [verdict("h1", "cc.c3", 600.0), verdict("h2", "cc.c3", 900.0)]
        assert multi_host_cc_scores(verdicts) == {}

    def test_non_automated_verdicts_ignored(self):
        verdicts = [
            verdict("h1", "cc.c3", 600.0),
            verdict("h2", "cc.c3", 602.0, automated=False),
        ]
        assert multi_host_cc_scores(verdicts) == {}

    def test_other_domains_ignored(self):
        """Hosts beaconing to different domains never pair up."""
        verdicts = [
            verdict("h1", "other.c3", 600.0),
            verdict("h2", "other.c3", 601.0),
            verdict("h3", "cc.c3", 600.0),
        ]
        assert multi_host_cc_scores(verdicts) == {"other.c3": 1.0}

    def test_three_hosts_any_close_pair(self):
        verdicts = [
            verdict("h1", "cc.c3", 100.0),
            verdict("h2", "cc.c3", 500.0),
            verdict("h3", "cc.c3", 506.0),
        ]
        assert multi_host_cc_scores(verdicts) == {"cc.c3": 1.0}

    def test_periods_exactly_the_window_apart_fire(self):
        verdicts = [
            verdict("h1", "cc.c3", 600.0),
            verdict("h2", "cc.c3", 600.0 + MULTI_HOST_SYNC_WINDOW),
        ]
        assert multi_host_cc_scores(verdicts) == {"cc.c3": 1.0}

    def test_periods_just_past_the_window_do_not_fire(self):
        verdicts = [
            verdict("h1", "cc.c3", 600.0),
            verdict("h2", "cc.c3", 600.0 + MULTI_HOST_SYNC_WINDOW + 1e-9),
        ]
        assert multi_host_cc_scores(verdicts) == {}

    def test_keys_come_out_sorted(self):
        names = ["zz.c3", "aa.c3", "mm.c3", "bb.c3"]
        verdicts = [
            verdict(host, name, 600.0 + offset)
            for name in names
            for host, offset in (("h1", 0.0), ("h2", 1.0))
        ]
        assert list(multi_host_cc_scores(verdicts)) == sorted(names)
        assert list(multi_host_cc_scores(reversed(verdicts))) == sorted(names)


class TestRegressionScorers:
    def _cc_scorer(self, threshold=0.4):
        # Model: score == rare_ua feature (weight 1 on rare_ua).
        rows, labels = [], []
        for rare_ua in (0.0, 1.0):
            for _ in range(5):
                rows.append([0.1, 0.1, 0.5, rare_ua, 0.5, 0.5])
                labels.append(rare_ua)
        model = fit_linear_model(CC_FEATURE_NAMES, rows, labels)
        return RegressionCCScorer(model, FeatureExtractor(), threshold=threshold)

    def test_cc_requires_automated_hosts(self):
        """``Detect_C&C`` scores only domains with an automated host."""
        scorer = self._cc_scorer()
        traffic = traffic_from([conn("h1", "d.ru")])
        verdicts = [verdict("h1", "d.ru", 60.0, automated=False)]
        assert scorer.score_automated(verdicts, traffic, 0.0) == {}

    def test_score_uses_model(self):
        scorer = self._cc_scorer()
        traffic = DailyTraffic(0)
        traffic.ingest(
            [conn("h1", "d.ru", ua="Weird")],
            ua_is_rare=lambda ua: True,
        )
        traffic.finalize()
        scores = scorer.score_automated(
            [verdict("h1", "d.ru", 60.0)], traffic, 0.0
        )
        assert list(scores) == ["d.ru"]
        assert scores["d.ru"] > 0.4

    def test_similarity_scorer_wraps_model(self):
        rows = [[0.1, t, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5] for t in (0.0, 1.0)] * 4
        labels = [r[1] for r in rows]
        model = fit_linear_model(SIMILARITY_FEATURE_NAMES, rows, labels)
        scorer = RegressionSimilarityScorer(model, FeatureExtractor())
        traffic = traffic_from(
            [conn("h1", "cc.ru", ts=0.0), conn("h1", "near.ru", ts=10.0)]
        )
        near = scorer.score("near.ru", {"cc.ru"}, traffic, 0.0)
        traffic2 = traffic_from(
            [conn("h1", "cc.ru", ts=0.0), conn("h1", "far.ru", ts=40_000.0)]
        )
        far = scorer.score("far.ru", {"cc.ru"}, traffic2, 0.0)
        assert near > far
