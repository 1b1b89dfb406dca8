"""Unit tests for the intelligence substrates (VT oracle, IOC list)."""

import pytest

from repro.intel import IocList, VirusTotalOracle


class TestVirusTotalOracle:
    def test_full_coverage_reports_all(self):
        oracle = VirusTotalOracle(["a.com", "b.com"], coverage=1.0)
        assert oracle.is_reported("a.com")
        assert oracle.is_reported("b.com")

    def test_zero_coverage_reports_none(self):
        oracle = VirusTotalOracle(["a.com", "b.com"], coverage=0.0)
        assert not oracle.is_reported("a.com")

    def test_partial_coverage_deterministic(self):
        domains = [f"dom{i}.ru" for i in range(100)]
        a = VirusTotalOracle(domains, coverage=0.6, seed=5)
        b = VirusTotalOracle(domains, coverage=0.6, seed=5)
        assert a.reported_domains == b.reported_domains
        assert 30 <= len(a.reported_domains) <= 90

    def test_benign_never_reported_without_fp_rate(self):
        oracle = VirusTotalOracle(["mal.com"], coverage=1.0)
        assert not oracle.is_reported("ok.com")

    def test_label_strings(self):
        oracle = VirusTotalOracle(["a.com"], coverage=1.0)
        assert oracle.label("a.com") == "reported"
        assert oracle.label("b.com") == "legitimate"

    def test_invalid_coverage_rejected(self):
        with pytest.raises(ValueError):
            VirusTotalOracle([], coverage=1.5)


class TestIocList:
    def test_membership(self):
        ioc = IocList(["evil.ru"])
        assert "evil.ru" in ioc
        assert "ok.com" not in ioc

    def test_add(self):
        ioc = IocList()
        ioc.add("new.ru")
        assert "new.ru" in ioc
        assert len(ioc) == 1

    def test_seeds_deterministic_order(self):
        ioc = IocList(["b.ru", "a.ru", "c.ru"])
        assert ioc.seeds() == ["a.ru", "b.ru", "c.ru"]

    def test_seeds_limit(self):
        ioc = IocList(["b.ru", "a.ru", "c.ru"])
        assert ioc.seeds(limit=2) == ["a.ru", "b.ru"]

    def test_iteration_sorted(self):
        ioc = IocList(["z.ru", "a.ru"])
        assert list(ioc) == ["a.ru", "z.ru"]

    def test_duplicates_collapse(self):
        ioc = IocList(["a.ru", "a.ru"])
        assert len(ioc) == 1
