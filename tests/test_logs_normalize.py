"""Unit tests for timestamp/IP normalization (Section IV-A)."""

from repro.logs import (
    Connection,
    DhcpLease,
    DnsRecord,
    DnsRecordType,
    IpResolver,
    ProxyRecord,
    VpnSession,
    normalize_dns_records,
    normalize_proxy_records,
    to_utc,
)


def lease(ip, hostname, start, end):
    return DhcpLease(ip=ip, hostname=hostname, start=start, end=end)


class TestIpResolver:
    def test_resolves_within_lease(self):
        resolver = IpResolver([lease("172.16.0.5", "hostA", 0, 100)])
        assert resolver.resolve("172.16.0.5", 50) == "hostA"

    def test_start_inclusive_end_exclusive(self):
        resolver = IpResolver(
            [lease("172.16.0.5", "hostA", 0, 100),
             lease("172.16.0.5", "hostB", 100, 200)]
        )
        assert resolver.resolve("172.16.0.5", 0) == "hostA"
        assert resolver.resolve("172.16.0.5", 100) == "hostB"

    def test_reassignment_across_time(self):
        resolver = IpResolver(
            [lease("172.16.0.5", "hostA", 0, 100),
             lease("172.16.0.5", "hostB", 150, 250)]
        )
        assert resolver.resolve("172.16.0.5", 50) == "hostA"
        assert resolver.resolve("172.16.0.5", 200) == "hostB"

    def test_gap_falls_back_to_raw_ip(self):
        resolver = IpResolver([lease("172.16.0.5", "hostA", 0, 100)])
        assert resolver.resolve("172.16.0.5", 120) == "172.16.0.5"

    def test_static_map_fallback(self):
        resolver = IpResolver([], static_map={"10.0.0.7": "staticHost"})
        assert resolver.resolve("10.0.0.7", 0) == "staticHost"

    def test_unknown_ip_identity(self):
        resolver = IpResolver([])
        assert resolver.resolve("8.8.8.8", 0) == "8.8.8.8"

    def test_vpn_sessions_work_identically(self):
        resolver = IpResolver(
            [VpnSession(ip="192.168.0.2", hostname="laptop", start=10, end=20)]
        )
        assert resolver.resolve("192.168.0.2", 15) == "laptop"

    def test_unsorted_input_leases(self):
        resolver = IpResolver(
            [lease("1.1.1.1", "b", 100, 200), lease("1.1.1.1", "a", 0, 100)]
        )
        assert resolver.resolve("1.1.1.1", 10) == "a"


class TestToUtc:
    def test_positive_offset_shifts_back(self):
        record = ProxyRecord(
            timestamp=3600.0, source_ip="x", destination="d.com",
            tz_offset_hours=1.0,
        )
        utc = to_utc(record)
        assert utc.timestamp == 0.0
        assert utc.tz_offset_hours == 0.0

    def test_zero_offset_returns_same_object(self):
        record = ProxyRecord(timestamp=5.0, source_ip="x", destination="d.com")
        assert to_utc(record) is record

    def test_negative_offset(self):
        record = ProxyRecord(
            timestamp=0.0, source_ip="x", destination="d.com",
            tz_offset_hours=-8.0,
        )
        assert to_utc(record).timestamp == 8 * 3600.0


class TestNormalizeProxy:
    def _records(self):
        return [
            ProxyRecord(
                timestamp=3600.0,
                source_ip="172.16.0.5",
                destination="www.news.example.com",
                destination_ip="93.184.216.34",
                user_agent="UA",
                referer="",
                tz_offset_hours=1.0,
            ),
            ProxyRecord(
                timestamp=100.0,
                source_ip="172.16.0.5",
                destination="8.8.8.8",
            ),
        ]

    def test_folds_and_resolves(self):
        resolver = IpResolver([lease("172.16.0.5", "hostA", 0, 10_000)])
        conns = list(normalize_proxy_records(self._records(), resolver))
        assert len(conns) == 1  # bare-IP destination dropped
        conn = conns[0]
        assert conn.host == "hostA"
        assert conn.domain == "example.com"
        assert conn.timestamp == 0.0

    def test_fold_level_override(self):
        resolver = IpResolver([])
        conns = list(
            normalize_proxy_records(self._records()[:1], resolver, fold_level=3)
        )
        assert conns[0].domain == "news.example.com"

    def test_referer_empty_string_preserved(self):
        resolver = IpResolver([])
        conn = next(normalize_proxy_records(self._records()[:1], resolver))
        assert conn.referer == ""
        assert conn.user_agent == "UA"


class TestNormalizeDns:
    def test_dns_has_no_http_context(self):
        records = [
            DnsRecord(
                timestamp=10.0, source_ip="10.0.0.1",
                domain="a.b.c3", record_type=DnsRecordType.A,
                resolved_ip="1.2.3.4",
            )
        ]
        conn = next(normalize_dns_records(records))
        assert conn.user_agent is None
        assert conn.referer is None
        assert conn.host == "10.0.0.1"
        assert conn.resolved_ip == "1.2.3.4"

    def test_dns_fold_level_three_default(self):
        records = [
            DnsRecord(
                timestamp=0.0, source_ip="h", domain="x.y.z.w",
            )
        ]
        conn = next(normalize_dns_records(records))
        assert conn.domain == "y.z.w"
