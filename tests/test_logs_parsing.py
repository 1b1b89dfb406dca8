"""Unit tests for DNS and proxy log serialization/parsing."""

import pytest

from repro.logs import (
    DnsLogFormatError,
    DnsRecord,
    DnsRecordType,
    ProxyLogFormatError,
    ProxyRecord,
    format_dns_line,
    format_proxy_line,
    parse_dns_line,
    parse_dns_log,
    parse_proxy_line,
    parse_proxy_log,
)
from repro.logs.dns import is_a_record, is_external_query, is_from_client


def make_dns(**overrides) -> DnsRecord:
    base = dict(
        timestamp=1000.5,
        source_ip="10.0.0.1",
        domain="evil.example.com",
        record_type=DnsRecordType.A,
        resolved_ip="93.184.216.34",
    )
    base.update(overrides)
    return DnsRecord(**base)


def make_proxy(**overrides) -> ProxyRecord:
    base = dict(
        timestamp=2000.25,
        source_ip="172.16.0.9",
        destination="www.evil.example.com",
        destination_ip="93.184.216.34",
        url_path="/logo.gif",
        method="GET",
        status_code=200,
        user_agent="Mozilla/5.0 (Windows NT 6.1) Corp/35.0",
        referer="http://portal.example/",
        tz_offset_hours=-5.0,
    )
    base.update(overrides)
    return ProxyRecord(**base)


class TestDnsRoundTrip:
    def test_round_trip(self):
        record = make_dns()
        assert parse_dns_line(format_dns_line(record)) == record

    def test_missing_resolution_round_trips(self):
        record = make_dns(resolved_ip="")
        line = format_dns_line(record)
        assert line.endswith(" -")
        assert parse_dns_line(line) == record

    def test_non_a_round_trips(self):
        record = make_dns(record_type=DnsRecordType.TXT, resolved_ip="")
        assert parse_dns_line(format_dns_line(record)) == record

    def test_wrong_field_count(self):
        with pytest.raises(DnsLogFormatError):
            parse_dns_line("1000.5 10.0.0.1 A evil.com")

    def test_bad_timestamp(self):
        with pytest.raises(DnsLogFormatError):
            parse_dns_line("nan-ish 10.0.0.1 A evil.com 1.2.3.4".replace("nan-ish", "xx"))

    def test_unknown_record_type(self):
        with pytest.raises(DnsLogFormatError):
            parse_dns_line("1.0 10.0.0.1 ZZZ evil.com 1.2.3.4")

    def test_stream_skips_malformed(self):
        lines = [format_dns_line(make_dns()), "garbage", "", format_dns_line(make_dns(domain="b.co"))]
        parsed = list(parse_dns_log(lines))
        assert len(parsed) == 2

    def test_stream_raises_when_strict(self):
        with pytest.raises(DnsLogFormatError):
            list(parse_dns_log(["garbage"], skip_malformed=False))


class TestProxyRoundTrip:
    def test_round_trip(self):
        record = make_proxy()
        assert parse_proxy_line(format_proxy_line(record)) == record

    def test_empty_optional_fields(self):
        record = make_proxy(user_agent="", referer="", destination_ip="")
        assert parse_proxy_line(format_proxy_line(record)) == record

    def test_ua_with_spaces_survives(self):
        record = make_proxy(user_agent="Agent With Many Spaces 1.0")
        parsed = parse_proxy_line(format_proxy_line(record))
        assert parsed.user_agent == "Agent With Many Spaces 1.0"

    def test_tabs_in_fields_are_sanitized(self):
        record = make_proxy(user_agent="bad\tagent")
        parsed = parse_proxy_line(format_proxy_line(record))
        assert "\t" not in parsed.user_agent

    def test_wrong_field_count(self):
        with pytest.raises(ProxyLogFormatError):
            parse_proxy_line("a\tb\tc")

    def test_bad_status(self):
        line = format_proxy_line(make_proxy()).replace("\t200\t", "\tabc\t")
        with pytest.raises(ProxyLogFormatError):
            parse_proxy_line(line)

    @pytest.mark.parametrize("field", [0, 1])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_time_fields_are_malformed(self, field, value):
        # "nan"/"inf" parse as floats but place the event at no instant.
        parts = format_proxy_line(make_proxy()).split("\t")
        parts[field] = value
        with pytest.raises(ProxyLogFormatError):
            parse_proxy_line("\t".join(parts))

    def test_stream_skips_blank_and_bad(self):
        lines = ["", format_proxy_line(make_proxy()), "junk\tline"]
        assert len(list(parse_proxy_log(lines))) == 1

    def test_strict_mode_raises(self):
        with pytest.raises(ProxyLogFormatError):
            list(parse_proxy_log(["junk"], skip_malformed=False))


class TestDnsFilters:
    def test_is_a_record(self):
        assert is_a_record(make_dns())
        assert not is_a_record(make_dns(record_type=DnsRecordType.TXT))

    def test_external_query(self):
        assert is_external_query(make_dns(), ("corp.internal",))
        internal = make_dns(domain="fileserver.corp.internal")
        assert not is_external_query(internal, ("corp.internal",))

    def test_from_client(self):
        servers = frozenset({"10.0.0.250"})
        assert is_from_client(make_dns(), servers)
        assert not is_from_client(make_dns(source_ip="10.0.0.250"), servers)


class TestRecordProperties:
    def test_connection_day(self):
        from repro.logs import Connection

        conn = Connection(timestamp=86_400.0 * 3 + 10, host="h", domain="d.com")
        assert conn.day == 3
