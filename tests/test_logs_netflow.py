"""Unit tests for the NetFlow substrate and passive-DNS join."""

import pytest

from repro.logs import (
    DnsRecord,
    DnsRecordType,
    NetflowFormatError,
    NetflowRecord,
    PassiveDnsMap,
    format_netflow_line,
    normalize_netflow_records,
    parse_netflow_line,
    parse_netflow_log,
)


def flow(**overrides) -> NetflowRecord:
    base = dict(
        timestamp=100.0, source_ip="10.0.0.1", destination_ip="93.184.216.34",
        destination_port=443, protocol="TCP", byte_count=1200, packet_count=9,
    )
    base.update(overrides)
    return NetflowRecord(**base)


def dns(domain, ip, ts=0.0):
    return DnsRecord(
        timestamp=ts, source_ip="10.0.0.1", domain=domain,
        record_type=DnsRecordType.A, resolved_ip=ip,
    )


class TestNetflowParsing:
    def test_round_trip(self):
        record = flow()
        assert parse_netflow_line(format_netflow_line(record)) == record

    def test_wrong_field_count(self):
        with pytest.raises(NetflowFormatError):
            parse_netflow_line("1.0 a b 443")

    def test_bad_port(self):
        line = format_netflow_line(flow()).replace(" 443 ", " x ")
        with pytest.raises(NetflowFormatError):
            parse_netflow_line(line)

    def test_stream_skips_malformed(self):
        lines = [format_netflow_line(flow()), "junk", ""]
        assert len(list(parse_netflow_log(lines))) == 1

    def test_strict_raises(self):
        with pytest.raises(NetflowFormatError):
            list(parse_netflow_log(["junk"], skip_malformed=False))

    def test_is_web(self):
        assert flow(destination_port=80).is_web
        assert flow(destination_port=8443).is_web
        assert not flow(destination_port=22).is_web


class TestPassiveDnsMap:
    def test_basic_binding(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("www.evil.example", "1.2.3.4", ts=10.0))
        assert pdns.lookup("1.2.3.4", 20.0) == "evil.example"

    def test_no_binding_before_observation(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("a.com", "1.2.3.4", ts=100.0))
        assert pdns.lookup("1.2.3.4", 50.0) is None

    def test_rebinding_over_time(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("old.com", "1.2.3.4", ts=0.0))
        pdns.observe(dns("new.com", "1.2.3.4", ts=100.0))
        assert pdns.lookup("1.2.3.4", 50.0) == "old.com"
        assert pdns.lookup("1.2.3.4", 150.0) == "new.com"

    def test_same_domain_not_duplicated(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("a.com", "1.2.3.4", ts=0.0))
        pdns.observe(dns("a.com", "1.2.3.4", ts=10.0))
        assert pdns.lookup("1.2.3.4", 20.0) == "a.com"

    def test_non_a_records_ignored(self):
        pdns = PassiveDnsMap()
        record = DnsRecord(
            timestamp=0.0, source_ip="h", domain="a.com",
            record_type=DnsRecordType.TXT, resolved_ip="1.2.3.4",
        )
        pdns.observe(record)
        assert pdns.lookup("1.2.3.4", 10.0) is None

    def test_failed_lookups_ignored(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("a.com", "", ts=0.0))
        assert len(pdns) == 0

    def test_out_of_order_insert(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("late.com", "1.2.3.4", ts=100.0))
        pdns.observe(dns("early.com", "1.2.3.4", ts=0.0))
        assert pdns.lookup("1.2.3.4", 50.0) == "early.com"
        assert pdns.lookup("1.2.3.4", 150.0) == "late.com"

    def test_fold_level(self):
        pdns = PassiveDnsMap(fold_level=3)
        pdns.observe(dns("a.b.c.d", "1.2.3.4", ts=0.0))
        assert pdns.lookup("1.2.3.4", 1.0) == "b.c.d"


class TestNormalizeNetflow:
    def _pdns(self):
        pdns = PassiveDnsMap()
        pdns.observe(dns("evil.ru", "5.5.5.5", ts=0.0))
        return pdns

    def test_joined_flow_becomes_connection(self):
        conns = list(
            normalize_netflow_records(
                [flow(destination_ip="5.5.5.5")], self._pdns()
            )
        )
        assert len(conns) == 1
        assert conns[0].domain == "evil.ru"
        assert conns[0].host == "10.0.0.1"
        assert conns[0].user_agent is None

    def test_unmapped_flow_dropped(self):
        conns = list(
            normalize_netflow_records(
                [flow(destination_ip="9.9.9.9")], self._pdns()
            )
        )
        assert conns == []

    def test_non_web_dropped_by_default(self):
        conns = list(
            normalize_netflow_records(
                [flow(destination_ip="5.5.5.5", destination_port=22)],
                self._pdns(),
            )
        )
        assert conns == []

    def test_web_only_false_keeps_all_ports(self):
        conns = list(
            normalize_netflow_records(
                [flow(destination_ip="5.5.5.5", destination_port=22)],
                self._pdns(), web_only=False,
            )
        )
        assert len(conns) == 1

    def test_host_of_ip_hook(self):
        conns = list(
            normalize_netflow_records(
                [flow(destination_ip="5.5.5.5")],
                self._pdns(),
                host_of_ip=lambda ip, ts: f"host-for-{ip}",
            )
        )
        assert conns[0].host == "host-for-10.0.0.1"


class TestLanlNetflow:
    def test_flows_follow_dns(self, lanl_dataset):
        flows = lanl_dataset.day_netflow(2)
        assert flows
        times = [f.timestamp for f in flows]
        assert times == sorted(times)
        assert all(f.is_web for f in flows)

    def test_netflow_pipeline_detects_campaign(self, lanl_dataset):
        """The full detection loop works from flows + passive DNS."""
        from repro.logs.netflow import normalize_netflow_records
        from repro.profiling import DailyTraffic, DestinationHistory, extract_rare_domains
        from repro.timing import AutomationDetector

        pdns = PassiveDnsMap(fold_level=3)
        for record in lanl_dataset.day_records(2):
            pdns.observe(record)
        history = DestinationHistory()
        history.bootstrap(lanl_dataset.bootstrap_domains)
        day = lanl_dataset.config.bootstrap_days + 1
        traffic = DailyTraffic(day)
        traffic.ingest(
            normalize_netflow_records(lanl_dataset.day_netflow(2), pdns)
        )
        traffic.finalize()
        rare = extract_rare_domains(traffic, history)
        truth = lanl_dataset.campaign_for_date(2)
        assert set(truth.cc_domains) <= rare
        detector = AutomationDetector()
        verdicts = detector.automated_pairs(
            (key, times) for key, times in sorted(traffic.series())
            if key[1] in rare
        )
        automated_domains = {v.domain for v in verdicts}
        assert set(truth.cc_domains) <= automated_domains
