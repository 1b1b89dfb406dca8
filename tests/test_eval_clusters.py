"""Unit tests for post-detection cluster triage (Sections VI-C/D)."""

from repro.eval import (
    cluster_by_name,
    cluster_by_subnet,
    name_signature,
    triage_report,
)

SHORT_DGA = ["mgwg.info", "azxc.info", "qwtyb.info", "lkops.info"]
HEX_DGA = [
    "f0371288e0a20a541328.info",
    "27843591a98b75c9bb63.info",
    "5881b8351add4980e6e8.info",
]
BENIGN = ["parkside-media.com", "bluecargo.net"]


class TestNameSignature:
    def test_short_dga_signature(self):
        assert name_signature("mgwg.info") == ".info len4-5 alpha"

    def test_hex_dga_signature(self):
        assert name_signature(HEX_DGA[0]) == ".info len17+ hex"

    def test_benign_differs_from_dga(self):
        assert name_signature(BENIGN[0]) != name_signature(SHORT_DGA[0])


class TestClusterByName:
    def test_separates_the_two_paper_dga_families(self):
        clusters = cluster_by_name(SHORT_DGA + HEX_DGA + BENIGN)
        keys = {c.key: set(c.domains) for c in clusters}
        assert set(SHORT_DGA) in keys.values()
        assert set(HEX_DGA) in keys.values()

    def test_benign_names_do_not_join_dga_clusters(self):
        clusters = cluster_by_name(SHORT_DGA + BENIGN)
        for cluster in clusters:
            assert not (set(cluster.domains) & set(BENIGN)) or not (
                set(cluster.domains) & set(SHORT_DGA)
            )

    def test_min_size_filters_singletons(self):
        clusters = cluster_by_name(["lonely.xyz", *SHORT_DGA], min_size=2)
        for cluster in clusters:
            assert cluster.size >= 2

    def test_sorted_largest_first(self):
        clusters = cluster_by_name(SHORT_DGA + HEX_DGA)
        sizes = [c.size for c in clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_duplicates_collapse(self):
        clusters = cluster_by_name(SHORT_DGA + SHORT_DGA)
        assert clusters[0].size == len(SHORT_DGA)


class TestClusterBySubnet:
    def test_same_24_clusters(self):
        ips = {"a.ru": ["5.5.5.1"], "b.ru": ["5.5.5.200"], "c.com": ["9.9.9.9"]}
        clusters = cluster_by_subnet(ips)
        assert len(clusters) == 1
        assert set(clusters[0].domains) == {"a.ru", "b.ru"}

    def test_16_prefix_merges_more(self):
        ips = {"a.ru": ["5.5.5.1"], "b.ru": ["5.5.77.1"]}
        assert cluster_by_subnet(ips, prefix=24) == []
        merged = cluster_by_subnet(ips, prefix=16)
        assert len(merged) == 1

    def test_multi_ip_domain(self):
        ips = {"a.ru": ["5.5.5.1", "9.9.9.1"], "b.ru": ["9.9.9.7"]}
        clusters = cluster_by_subnet(ips)
        assert any(set(c.domains) == {"a.ru", "b.ru"} for c in clusters)


class TestTriageReport:
    def test_report_includes_all_views(self):
        report = triage_report(
            SHORT_DGA + HEX_DGA,
            ips_by_domain={d: ["5.5.5.1"] for d in HEX_DGA},
        )
        assert "naming family" in report
        assert "/24 co-hosting" in report
        assert "subnet:5.5.5.0/24" in report

    def test_report_without_optional_views(self):
        report = triage_report(SHORT_DGA)
        assert "naming family" in report
        assert "/24 co-hosting" not in report
