"""Unit tests for C&C and similarity feature extraction."""

import math

import pytest

from repro.features import (
    CC_FEATURE_NAMES,
    SIMILARITY_FEATURE_NAMES,
    FeatureExtractor,
    WhoisFeatureExtractor,
    scale_count,
    timing_closeness,
)
from repro.intel.whois_db import WhoisDatabase
from repro.logs import Connection
from repro.profiling import DailyTraffic, UserAgentHistory


def conn(host, domain, ts=0.0, ua="CommonUA", referer="http://x/", ip=""):
    return Connection(
        timestamp=ts, host=host, domain=domain,
        resolved_ip=ip, user_agent=ua, referer=referer,
    )


def build_traffic(connections, rare_uas=()):
    traffic = DailyTraffic(0)
    traffic.ingest(connections, ua_is_rare=lambda ua: ua in rare_uas or not ua)
    traffic.finalize()
    return traffic


class TestScalars:
    def test_scale_count_zero(self):
        assert scale_count(0) == 0.0

    def test_scale_count_saturates(self):
        assert scale_count(10) == 1.0
        assert scale_count(50) == 1.0

    def test_scale_count_linear_below_cap(self):
        assert scale_count(5) == 0.5

    def test_timing_closeness_none(self):
        assert timing_closeness(None) == 0.0

    def test_timing_closeness_zero_gap(self):
        assert timing_closeness(0.0) == 1.0

    def test_timing_closeness_decays(self):
        assert timing_closeness(1800.0) == pytest.approx(math.exp(-1))
        assert timing_closeness(1800.0) > timing_closeness(3600.0)

    def test_timing_closeness_symmetric(self):
        assert timing_closeness(-600.0) == timing_closeness(600.0)


def cc_row(traffic, automated=(), extractor=None, domain="d.com"):
    """One domain's row of the day's C&C feature matrix, by name."""
    extractor = extractor or FeatureExtractor()
    matrix = extractor.cc_feature_matrix(
        [domain], traffic, {domain: set(automated)}, 0.0
    )
    return dict(zip(CC_FEATURE_NAMES, matrix[0].tolist()))


class TestCcFeatures:
    def test_vector_order_matches_names(self):
        traffic = build_traffic([conn("h1", "d.com")])
        matrix = FeatureExtractor().cc_feature_matrix(
            ["d.com"], traffic, {"d.com": set()}, when=0.0
        )
        assert matrix.shape == (1, len(CC_FEATURE_NAMES))

    def test_no_hosts_counts_contacting_hosts(self):
        traffic = build_traffic([conn("h1", "d.com"), conn("h2", "d.com")])
        features = cc_row(traffic)
        assert features["no_hosts"] == pytest.approx(0.2)

    def test_auto_hosts_intersects_with_contacting(self):
        traffic = build_traffic([conn("h1", "d.com"), conn("h2", "d.com")])
        features = cc_row(traffic, automated={"h1", "h9"})
        assert features["auto_hosts"] == pytest.approx(0.1)

    def test_no_ref_fraction(self):
        traffic = build_traffic(
            [conn("h1", "d.com", referer=""), conn("h2", "d.com")]
        )
        features = cc_row(traffic)
        assert features["no_ref"] == pytest.approx(0.5)

    def test_rare_ua_fraction(self):
        traffic = build_traffic(
            [conn("h1", "d.com", ua="Weird/1"), conn("h2", "d.com")],
            rare_uas={"Weird/1"},
        )
        features = cc_row(traffic)
        assert features["rare_ua"] == pytest.approx(0.5)

    def test_without_whois_registration_is_neutral(self):
        traffic = build_traffic([conn("h1", "d.com")])
        features = cc_row(traffic)
        assert features["dom_age"] == 0.5
        assert features["dom_validity"] == 0.5

    def test_ua_history_integration(self):
        history = UserAgentHistory(rare_max_hosts=2)
        history.bootstrap([("Popular", f"h{i}") for i in range(5)])
        traffic = DailyTraffic(0)
        traffic.ingest(
            [conn("h1", "d.com", ua="Popular"), conn("h2", "d.com", ua="Odd")],
            ua_is_rare=history.is_rare,
        )
        traffic.finalize()
        features = cc_row(traffic, extractor=FeatureExtractor(history))
        assert features["rare_ua"] == pytest.approx(0.5)

    def test_whois_imputation_advances_in_row_order(self):
        """Rows are built in the given order, so a two-domain matrix
        leaves the WHOIS imputation state exactly where two sequential
        lookups in that order leave it -- the unregistered first row is
        imputed before the registered second row is observed."""
        day = 86_400.0
        db = WhoisDatabase()
        db.register("young.ru", registered=-30 * day, expires=365 * day)
        traffic = build_traffic(
            [conn("h1", "ghost.info"), conn("h2", "young.ru")]
        )
        domains = ["ghost.info", "young.ru"]
        extractor = FeatureExtractor(whois=WhoisFeatureExtractor(db))
        matrix = extractor.cc_feature_matrix(
            domains, traffic, {d: set() for d in domains}, 0.0
        )
        reference = WhoisFeatureExtractor(db)
        lookups = [reference.extract(d, 0.0) for d in domains]
        assert matrix[:, 4:].tolist() == [
            [r.dom_age, r.dom_validity] for r in lookups
        ]
        assert matrix[0, 4:].tolist() == [0.5, 0.5]
        assert matrix[1, 4:].tolist() != [0.5, 0.5]
        whois = extractor.whois
        assert (whois._age_sum, whois._validity_sum, whois._observed) == (
            reference._age_sum, reference._validity_sum, reference._observed
        )
        assert whois.impute_defaults() == reference.impute_defaults()


class TestSimilarityFeatures:
    def _traffic(self):
        return build_traffic(
            [
                conn("h1", "cc.ru", ts=1000.0, ip="5.5.5.10"),
                conn("h1", "near.ru", ts=1100.0, ip="5.5.5.99"),
                conn("h1", "far.com", ts=50_000.0, ip="9.9.9.9"),
                conn("h2", "sub16.net", ts=2000.0, ip="5.5.77.3"),
                conn("h2", "cc.ru", ts=2100.0, ip="5.5.5.10"),
            ]
        )

    def test_vector_order_matches_names(self):
        features = FeatureExtractor().similarity_features(
            "near.ru", {"cc.ru"}, self._traffic(), 0.0
        )
        assert len(features.as_vector()) == len(SIMILARITY_FEATURE_NAMES)

    def test_min_visit_gap(self):
        gap = FeatureExtractor.min_visit_gap("near.ru", {"cc.ru"}, self._traffic())
        assert gap == pytest.approx(100.0)

    def test_min_visit_gap_no_shared_host(self):
        traffic = build_traffic(
            [conn("h1", "a.com", ts=0.0), conn("h2", "b.com", ts=0.0)]
        )
        assert FeatureExtractor.min_visit_gap("a.com", {"b.com"}, traffic) is None

    def test_self_comparison_excluded(self):
        traffic = self._traffic()
        assert FeatureExtractor.min_visit_gap("cc.ru", {"cc.ru"}, traffic) is None

    def test_ip24_proximity(self):
        ip24, ip16 = FeatureExtractor.subnet_proximity(
            "near.ru", {"cc.ru"}, self._traffic()
        )
        assert ip24 == 1.0
        assert ip16 == 1.0  # /24 implies /16 (the paper's correlation)

    def test_ip16_only(self):
        ip24, ip16 = FeatureExtractor.subnet_proximity(
            "sub16.net", {"cc.ru"}, self._traffic()
        )
        assert ip24 == 0.0
        assert ip16 == 1.0

    def test_no_proximity(self):
        ip24, ip16 = FeatureExtractor.subnet_proximity(
            "far.com", {"cc.ru"}, self._traffic()
        )
        assert (ip24, ip16) == (0.0, 0.0)

    def test_no_resolved_ip_gives_zero(self):
        traffic = build_traffic([conn("h1", "noip.com"), conn("h1", "cc.ru", ip="5.5.5.1")])
        assert FeatureExtractor.subnet_proximity("noip.com", {"cc.ru"}, traffic) == (0.0, 0.0)

    def test_near_domain_scores_closer_than_far(self):
        extractor = FeatureExtractor()
        traffic = self._traffic()
        near = extractor.similarity_features("near.ru", {"cc.ru"}, traffic, 0.0)
        far = extractor.similarity_features("far.com", {"cc.ru"}, traffic, 0.0)
        assert near.dom_interval > far.dom_interval
        assert near.ip24 > far.ip24
