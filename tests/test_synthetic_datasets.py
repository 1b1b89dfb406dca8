"""Tests for the LANL and enterprise dataset generators."""

import pytest

from repro.logs import DnsRecordType, parse_dns_log, format_dns_line
from repro.logs.domains import same_subnet
from repro.synthetic import CASE_DATES, TRAINING_DATES, generate_lanl_dataset
from repro.synthetic.lanl import LanlConfig

from repro.testing import SMALL_LANL


class TestLanlLayout:
    def test_twenty_campaigns(self, lanl_dataset):
        assert len(lanl_dataset.campaigns) == 20

    def test_table1_case_dates(self, lanl_dataset):
        for case, dates in CASE_DATES.items():
            campaigns = [c for c in lanl_dataset.campaigns if c.case == case]
            assert sorted(c.march_date for c in campaigns) == sorted(dates)

    def test_train_test_split_is_ten_ten(self, lanl_dataset):
        training = [c for c in lanl_dataset.campaigns if c.is_training]
        assert len(training) == 10
        assert len(TRAINING_DATES) == 10

    def test_hint_structure_per_case(self, lanl_dataset):
        for truth in lanl_dataset.campaigns:
            if truth.case == 1:
                assert len(truth.hint_hosts) == 1
            elif truth.case == 2:
                assert 3 <= len(truth.hint_hosts) <= 4
            elif truth.case == 3:
                assert len(truth.hint_hosts) == 1
                assert len(truth.compromised_hosts) > 1
            else:
                assert truth.hint_hosts == ()

    def test_hints_subset_of_compromised(self, lanl_dataset):
        for truth in lanl_dataset.campaigns:
            assert set(truth.hint_hosts) <= set(truth.compromised_hosts)

    def test_cc_domains_subset_of_malicious(self, lanl_dataset):
        for truth in lanl_dataset.campaigns:
            assert set(truth.cc_domains) <= set(truth.malicious_domains)


class TestLanlRecords:
    def test_records_sorted(self, lanl_dataset):
        records = lanl_dataset.day_records(2)
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_contains_non_a_records(self, lanl_dataset):
        records = lanl_dataset.day_records(2)
        assert any(r.record_type is not DnsRecordType.A for r in records)

    def test_contains_internal_queries(self, lanl_dataset):
        records = lanl_dataset.day_records(2)
        assert any(r.domain.endswith(".int.c0") for r in records)

    def test_contains_server_queries(self, lanl_dataset):
        records = lanl_dataset.day_records(2)
        server_ips = lanl_dataset.server_ips
        assert any(r.source_ip in server_ips for r in records)

    def test_campaign_traffic_present(self, lanl_dataset):
        truth = lanl_dataset.campaign_for_date(2)
        records = lanl_dataset.day_records(2)
        seen = {r.domain for r in records}
        assert set(truth.malicious_domains) <= seen

    def test_malicious_domains_absent_from_bootstrap(self, lanl_dataset):
        for truth in lanl_dataset.campaigns:
            for domain in truth.malicious_domains:
                assert domain not in lanl_dataset.bootstrap_domains

    def test_campaign_infrastructure_colocated(self, lanl_dataset):
        records = lanl_dataset.day_records(2)
        truth = lanl_dataset.campaign_for_date(2)
        ips = {}
        for record in records:
            if record.domain in truth.malicious_domains and record.resolved_ip:
                ips[record.domain] = record.resolved_ip
        values = list(ips.values())
        assert len(values) >= 2
        assert any(
            same_subnet(values[0], other, 16) for other in values[1:]
        )

    def test_round_trip_through_text_format(self, lanl_dataset):
        records = lanl_dataset.day_records(3)[:100]
        lines = [format_dns_line(r) for r in records]
        parsed = list(parse_dns_log(lines))
        assert len(parsed) == len(records)
        for before, after in zip(records, parsed):
            # The text format keeps millisecond precision.
            assert after.timestamp == pytest.approx(before.timestamp, abs=1e-3)
            assert (after.source_ip, after.domain, after.record_type,
                    after.resolved_ip) == (
                before.source_ip, before.domain, before.record_type,
                before.resolved_ip,
            )

    def test_deterministic_regeneration(self):
        a = generate_lanl_dataset(SMALL_LANL)
        b = generate_lanl_dataset(SMALL_LANL)
        assert [c.malicious_domains for c in a.campaigns] == [
            c.malicious_domains for c in b.campaigns
        ]
        assert a.day_records(5) == b.day_records(5)

    def test_different_seeds_differ(self):
        other = LanlConfig(**{**SMALL_LANL.__dict__, "seed": 99})
        a = generate_lanl_dataset(SMALL_LANL)
        b = generate_lanl_dataset(other)
        assert a.campaigns[0].malicious_domains != b.campaigns[0].malicious_domains


class TestEnterpriseDataset:
    def test_raw_records_carry_timezones(self, enterprise_dataset):
        records = enterprise_dataset.day_proxy_records(0)
        offsets = {r.tz_offset_hours for r in records}
        assert len(offsets) > 1

    def test_connections_are_utc_and_folded(self, enterprise_dataset):
        conns = enterprise_dataset.day_connections(0)
        day_span = (0 * 86_400.0, 2 * 86_400.0)
        for conn in conns[:200]:
            assert day_span[0] <= conn.timestamp < day_span[1]
            assert conn.domain.count(".") <= 2

    def test_hostnames_resolved_from_leases(self, enterprise_dataset):
        conns = enterprise_dataset.day_connections(0)
        hostnames = {c.host for c in conns}
        model_names = {h.name for h in enterprise_dataset.model.hosts}
        assert hostnames <= model_names

    def test_bare_ip_destinations_dropped(self, enterprise_dataset):
        from repro.logs.domains import is_ip_address

        conns = enterprise_dataset.day_connections(0)
        assert not any(is_ip_address(c.domain) for c in conns)

    def test_leases_cover_every_host(self, enterprise_dataset):
        leases = enterprise_dataset.day_leases(0)
        assert len(leases) == len(enterprise_dataset.model.hosts)

    def test_lease_ips_change_across_days(self, enterprise_dataset):
        day0 = {l.hostname: l.ip for l in enterprise_dataset.day_leases(0)}
        day1 = {l.hostname: l.ip for l in enterprise_dataset.day_leases(1)}
        changed = sum(1 for h in day0 if day0[h] != day1.get(h))
        assert changed > 0

    def test_ground_truth_nonempty(self, enterprise_dataset):
        assert enterprise_dataset.malicious_domains
        assert enterprise_dataset.campaigns

    def test_quiet_days_are_attack_free(self, enterprise_dataset):
        for day in range(enterprise_dataset.config.quiet_days):
            assert enterprise_dataset.campaigns_active_on(day) == []

    def test_ioc_list_subset_of_truth(self, enterprise_dataset):
        ioc = enterprise_dataset.build_ioc_list()
        assert set(ioc.seeds()) <= enterprise_dataset.malicious_domains

    def test_virustotal_partial_coverage(self, enterprise_dataset):
        vt = enterprise_dataset.build_virustotal()
        malicious = enterprise_dataset.malicious_domains
        reported = {d for d in malicious if vt.is_reported(d)}
        assert reported                    # knows something
        assert reported != malicious       # but not everything

    def test_dga_campaign_present(self, enterprise_dataset):
        dga = [c for c in enterprise_dataset.campaigns if c.dga_domains]
        assert dga
        assert any(len(c.dga_domains) == 10 for c in dga)
