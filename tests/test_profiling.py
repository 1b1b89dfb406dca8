"""Unit tests for histories and rare-destination extraction."""

import gc
import weakref

from repro.logs import Connection
from repro.profiling import (
    DailyTraffic,
    DestinationHistory,
    UserAgentHistory,
    extract_rare_domains,
    rare_domains_by_host,
)


def conn(host, domain, ts=0.0, ua=None, referer=None, ip=""):
    return Connection(
        timestamp=ts, host=host, domain=domain,
        resolved_ip=ip, user_agent=ua, referer=referer,
    )


class TestDestinationHistory:
    def test_new_until_committed(self):
        history = DestinationHistory()
        history.stage("a.com", day=5)
        assert history.is_new("a.com")  # same-day: still new
        history.commit_day(5)
        assert not history.is_new("a.com")

    def test_commit_returns_added_count(self):
        history = DestinationHistory()
        history.stage("a.com", 1)
        history.stage("b.com", 1)
        history.stage("a.com", 1)
        assert history.commit_day(1) == 2

    def test_bootstrap(self):
        history = DestinationHistory()
        history.bootstrap(["a.com", "b.com"])
        assert not history.is_new("a.com")
        assert history.is_new("c.com")
        assert len(history) == 2

    def test_first_seen_day_preserved(self):
        history = DestinationHistory()
        history.stage("a.com", 3)
        history.commit_day(3)
        history.stage("a.com", 9)
        history.commit_day(9)
        assert history.first_seen("a.com") == 3

    def test_first_seen_unknown_is_none(self):
        assert DestinationHistory().first_seen("x.com") is None

    def test_earliest_staged_day_wins(self):
        history = DestinationHistory()
        history.stage("a.com", 7)
        history.stage("a.com", 4)
        history.commit_day(7)
        assert history.first_seen("a.com") == 4

    def test_contains(self):
        history = DestinationHistory()
        history.bootstrap(["a.com"])
        assert "a.com" in history
        assert "b.com" not in history


class TestUserAgentHistory:
    def test_missing_ua_is_rare(self):
        history = UserAgentHistory()
        assert history.is_rare(None)
        assert history.is_rare("")

    def test_popularity_threshold(self):
        history = UserAgentHistory(rare_max_hosts=3)
        history.bootstrap([("UA", f"host{i}") for i in range(3)])
        assert not history.is_rare("UA")
        history2 = UserAgentHistory(rare_max_hosts=3)
        history2.bootstrap([("UA", f"host{i}") for i in range(2)])
        assert history2.is_rare("UA")

    def test_staged_not_counted_until_commit(self):
        history = UserAgentHistory(rare_max_hosts=1)
        history.stage("UA", "h1")
        assert history.popularity("UA") == 0
        history.commit_day()
        assert history.popularity("UA") == 1

    def test_distinct_hosts_counted_once(self):
        history = UserAgentHistory()
        history.bootstrap([("UA", "h1"), ("UA", "h1"), ("UA", "h2")])
        assert history.popularity("UA") == 2

    def test_empty_ua_not_stored(self):
        history = UserAgentHistory()
        history.stage("", "h1")
        history.commit_day()
        assert len(history) == 0

    def test_invalid_threshold(self):
        import pytest

        with pytest.raises(ValueError):
            UserAgentHistory(rare_max_hosts=0)


class TestDailyTraffic:
    def _traffic(self):
        traffic = DailyTraffic(day=0)
        traffic.ingest(
            [
                conn("h1", "a.com", 10.0, ua="UA1", referer="", ip="1.2.3.4"),
                conn("h1", "a.com", 20.0, ua="UA1", referer="http://x/"),
                conn("h2", "a.com", 15.0, ua="UA2", referer="http://x/"),
                conn("h1", "b.com", 12.0, ua="UA1", referer=""),
            ],
            ua_is_rare=lambda ua: ua == "UA2",
        )
        traffic.finalize()
        return traffic

    def test_timestamps_sorted(self):
        traffic = DailyTraffic(0)
        traffic.ingest([conn("h", "d.com", 5.0), conn("h", "d.com", 1.0)])
        assert traffic.connection_times("h", "d.com") == [1.0, 5.0]

    def test_first_contact(self):
        traffic = self._traffic()
        assert traffic.first_contact("h1", "a.com") == 10.0
        assert traffic.first_contact("h9", "a.com") is None

    def test_no_referer_hosts(self):
        traffic = self._traffic()
        assert traffic.no_referer_hosts["a.com"] == {"h1"}
        assert traffic.no_referer_hosts["b.com"] == {"h1"}

    def test_rare_ua_hosts(self):
        traffic = self._traffic()
        assert traffic.rare_ua_hosts["a.com"] == {"h2"}

    def test_resolved_ips_collected(self):
        traffic = self._traffic()
        assert traffic.resolved_ips["a.com"] == {"1.2.3.4"}

    def test_domains_by_host(self):
        traffic = self._traffic()
        assert traffic.domains_by_host["h1"] == {"a.com", "b.com"}

    def test_freed_by_refcount_alone(self):
        # A day's columns must go when the last reference does, not
        # whenever the cyclic collector next runs: peak RSS of a
        # multi-day run would otherwise depend on collector timing.
        gc.collect()
        gc.disable()
        try:
            traffic = self._traffic()
            assert traffic.connection_times("h1", "a.com") == [10.0, 20.0]
            alive = weakref.ref(traffic)
            del traffic
            assert alive() is None
        finally:
            gc.enable()


class TestRareExtraction:
    def test_new_and_unpopular(self):
        history = DestinationHistory()
        history.bootstrap(["old.com"])
        traffic = DailyTraffic(0)
        traffic.ingest(
            [conn("h1", "old.com"), conn("h1", "fresh.com"), conn("h2", "fresh.com")]
        )
        rare = extract_rare_domains(traffic, history, unpopular_max_hosts=10)
        assert rare == {"fresh.com"}

    def test_popular_new_domain_not_rare(self):
        history = DestinationHistory()
        traffic = DailyTraffic(0)
        traffic.ingest([conn(f"h{i}", "viral.com") for i in range(10)])
        rare = extract_rare_domains(traffic, history, unpopular_max_hosts=10)
        assert rare == set()

    def test_threshold_boundary(self):
        history = DestinationHistory()
        traffic = DailyTraffic(0)
        traffic.ingest([conn(f"h{i}", "d.com") for i in range(9)])
        assert extract_rare_domains(traffic, history, unpopular_max_hosts=10) == {"d.com"}

    def test_rare_domains_by_host(self):
        history = DestinationHistory()
        traffic = DailyTraffic(0)
        traffic.ingest([conn("h1", "a.com"), conn("h2", "a.com"), conn("h1", "b.com")])
        rare = extract_rare_domains(traffic, history)
        mapping = rare_domains_by_host(traffic, rare)
        assert mapping["h1"] == {"a.com", "b.com"}
        assert mapping["h2"] == {"a.com"}
