"""Adversarial campaign suite: determinism, detection-rate curves,
DGA label recovery, slow-burn persistence, and tenant churn.

The library under test (`repro.synthetic.campaigns`) and its
evaluation harness (`repro.eval.evasion`) power
``benchmarks/bench_evasion_suite.py``; these tests pin the contracts
the bench relies on at a scale small enough for tier-1.
"""

from pathlib import Path

import pytest

from repro.config import LANL_CONFIG
from repro.eval.evasion import DNS_EVAL_WORLD, dns_evasion_curve
from repro.intelstore.ct import CertObservation, CtIndex
from repro.logs import format_dns_line
from repro.streaming import StreamingDetector, replay_directory
from repro.synthetic import (
    ADVERSARIAL_DGA_FAMILIES,
    CAMPAIGN_NAMES,
    AdversarialCampaignSpec,
    WorldView,
    campaign_dns_records,
    churn_fleet_config,
    classify_dga,
    generate_fleet_dataset,
    generate_lanl_dataset,
    realize_campaign,
    write_fleet_layout,
)


@pytest.fixture(scope="module")
def dns_dataset():
    """The small LANL world the evasion curves run against."""
    return generate_lanl_dataset(DNS_EVAL_WORLD)


@pytest.fixture(scope="module")
def world(dns_dataset):
    return WorldView.from_dataset(dns_dataset)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("campaign", CAMPAIGN_NAMES)
    def test_same_seed_byte_identical_events(self, campaign, world,
                                             dns_dataset):
        spec = AdversarialCampaignSpec(
            campaign=campaign, strength=0.7, seed=13,
            start_day=5, duration_days=3,
        )
        first = realize_campaign(world, spec)
        second = realize_campaign(world, spec)
        assert first == second
        # Per-day emission is pure in (spec, day): visiting the days in
        # opposite orders must not change a single event.
        days = list(spec.active_days)
        for day in days:
            assert first.day_visits(day) == second.day_visits(day)
        for day in reversed(days):
            assert first.day_visits(day) == second.day_visits(day)
        assert campaign_dns_records(first, dns_dataset.host_ips, days[0]) \
            == campaign_dns_records(second, dns_dataset.host_ips, days[0])

    def test_different_seed_different_campaign(self, world):
        base = AdversarialCampaignSpec(campaign="jitter", seed=13)
        other = AdversarialCampaignSpec(campaign="jitter", seed=14)
        assert realize_campaign(world, base).cc_domains \
            != realize_campaign(world, other).cc_domains

    def test_spec_validation(self, world):
        with pytest.raises(ValueError):
            AdversarialCampaignSpec(campaign="nope")
        with pytest.raises(ValueError):
            AdversarialCampaignSpec(campaign="jitter", strength=1.5)
        with pytest.raises(ValueError):
            AdversarialCampaignSpec(campaign="jitter", duration_days=0)


# ---------------------------------------------------------------------------
# Strength monotonicity
# ---------------------------------------------------------------------------

class TestStrengthKnob:
    @pytest.mark.parametrize("campaign", CAMPAIGN_NAMES)
    def test_detection_rate_non_increasing(self, campaign, dns_dataset):
        """Turning the knob up must never help the defender: full
        detection at strength 0, and a (near) monotone decay after --
        the small-sample middle points get a noise allowance."""
        curve = dns_evasion_curve(
            campaign, (0.0, 0.5, 1.0), trials=1, dataset=dns_dataset,
        )
        rates = [point.rate for point in curve.points]
        assert rates[0] == 1.0
        assert rates[-1] <= rates[0]
        for previous, current in zip(rates, rates[1:]):
            assert current <= previous + 0.15, rates


# ---------------------------------------------------------------------------
# DGA families
# ---------------------------------------------------------------------------

class TestDgaFamilies:
    @pytest.mark.parametrize("family", ADVERSARIAL_DGA_FAMILIES)
    def test_label_recovery_per_family(self, family, world):
        """Every rotated domain must classify back to the family that
        generated it -- the label channel the triage tooling keys on."""
        spec = AdversarialCampaignSpec(
            campaign=f"dga-{family}", strength=1.0, seed=5,
            start_day=3, duration_days=2,
        )
        realized = realize_campaign(world, spec)
        assert set(realized.dga_labels) == set(realized.cc_domains)
        assert set(realized.dga_labels.values()) == {family}
        for domain in realized.cc_domains:
            assert classify_dga(domain) == family

    def test_families_do_not_cross_classify(self, world):
        seen: dict[str, str] = {}
        for family in ADVERSARIAL_DGA_FAMILIES:
            spec = AdversarialCampaignSpec(
                campaign=f"dga-{family}", strength=0.5, seed=5,
            )
            for domain in realize_campaign(world, spec).cc_domains:
                assert seen.setdefault(domain, family) == family

    def test_non_dga_campaigns_carry_no_labels(self, world):
        spec = AdversarialCampaignSpec(campaign="jitter", seed=5)
        assert realize_campaign(world, spec).dga_labels == {}


# ---------------------------------------------------------------------------
# Slow burn across rollovers and checkpoint/restore
# ---------------------------------------------------------------------------

class TestSlowBurnPersistence:
    @pytest.fixture(scope="class")
    def burn_dir(self, dns_dataset, tmp_path_factory):
        """A week of campaign-free LANL dates (3/23on) with a slow-burn
        campaign overlaid from the second file; the first file is the
        replay bootstrap."""
        directory = tmp_path_factory.mktemp("slowburn")
        bootstrap = dns_dataset.config.bootstrap_days
        spec = AdversarialCampaignSpec(
            campaign="slow-burn", strength=0.0, seed=31,
            start_day=bootstrap + 23, duration_days=6,
        )
        realized = realize_campaign(
            WorldView.from_dataset(dns_dataset), spec
        )
        for date in range(23, 30):
            records = dns_dataset.day_records(date) + campaign_dns_records(
                realized, dns_dataset.host_ips, bootstrap + date - 1
            )
            records.sort(key=lambda r: r.timestamp)
            path = directory / f"dns-march-{date:02d}.log"
            with path.open("w") as handle:
                for record in records:
                    handle.write(format_dns_line(record) + "\n")
        return directory, realized

    def _kwargs(self, dns_dataset):
        return dict(
            bootstrap_files=1,
            pattern="dns-*.log",
            internal_suffixes=dns_dataset.internal_suffixes,
            server_ips=dns_dataset.server_ips,
            batch_size=250,
        )

    def test_fresh_domains_reenter_funnel_across_rollovers(
        self, burn_dir, dns_dataset
    ):
        directory, realized = burn_dir
        result = replay_directory(directory, **self._kwargs(dns_dataset))
        truth = realized.truth_domains()
        hit_days = [
            report.day for report in result.reports
            if truth & set(report.detected)
        ]
        # Each activation burns a fresh domain, so the campaign keeps
        # re-entering the new-domain funnel day after day.
        assert len(hit_days) >= 3
        detected = set().union(
            *(report.detected for report in result.reports)
        )
        assert len(truth & detected) >= 3

    def test_interrupted_replay_matches_uninterrupted(
        self, burn_dir, dns_dataset, tmp_path
    ):
        """A checkpoint/restore cycle mid-campaign must not lose or
        invent a single detection on any day."""
        directory, _ = burn_dir
        kwargs = self._kwargs(dns_dataset)
        full = replay_directory(directory, **kwargs)

        checkpoint = tmp_path / "burn.ckpt.json"
        first = replay_directory(
            directory, checkpoint_path=checkpoint, max_batches=10,
            **kwargs,
        )
        assert first.interrupted
        second = replay_directory(
            directory, checkpoint_path=checkpoint, resume=True, **kwargs
        )
        combined = first.reports + second.reports
        assert [r.day for r in combined] == [r.day for r in full.reports]
        for got, want in zip(combined, full.reports):
            assert got.detected == want.detected
            assert got.rare_domains == want.rare_domains


# ---------------------------------------------------------------------------
# CT sibling evidence under adversarial campaigns
# ---------------------------------------------------------------------------

class TestCtParityUnderCampaigns:
    def test_ct_seeding_reaches_evading_campaign_with_parity(
        self, dns_dataset, world
    ):
        """An attacker who randomizes timing (jitter at full strength)
        evades the automation detector -- but a CT certificate shared
        with a detected campaign pulls its domain back in, identically
        after one whole-day poll and after a micro-batched day."""
        bootstrap = dns_dataset.config.bootstrap_days
        start_day = bootstrap + 22
        loud = realize_campaign(world, AdversarialCampaignSpec(
            campaign="jitter", strength=0.0, seed=7, start_day=start_day,
        ))
        quiet = realize_campaign(world, AdversarialCampaignSpec(
            campaign="jitter", strength=1.0, seed=8, start_day=start_day,
        ))
        index = CtIndex([CertObservation(
            "ab" * 32, 0.0, 1.0, "CA",
            (loud.cc_domains[0], quiet.cc_domains[0]),
        )])

        date = 23
        records = sorted(
            dns_dataset.day_records(date) + [
                record for campaign in (loud, quiet)
                for record in campaign_dns_records(
                    campaign, dns_dataset.host_ips, start_day
                )
            ],
            key=lambda r: r.timestamp,
        )

        def engine():
            detector = StreamingDetector(
                config=LANL_CONFIG,
                internal_suffixes=dns_dataset.internal_suffixes,
                server_ips=dns_dataset.server_ips,
            )
            detector.history.bootstrap(dns_dataset.bootstrap_domains)
            return detector

        def whole_day(ct_edges):
            detector = engine()
            detector.submit_raw(records)
            return detector.rollover(ct_edges=ct_edges)

        without = whole_day(None)
        whole = whole_day(index)
        assert loud.cc_domains[0] in without.detected
        assert quiet.cc_domains[0] not in without.detected
        assert quiet.cc_domains[0] in whole.detected

        stream = engine()
        for start in range(0, len(records), 500):
            stream.submit_raw(records[start:start + 500])
            stream.poll()
            stream.score()
        report = stream.rollover(ct_edges=index)
        assert report.detected == whole.detected


# ---------------------------------------------------------------------------
# Tenant churn
# ---------------------------------------------------------------------------

class TestTenantChurn:
    def test_churn_config_validation(self):
        with pytest.raises(ValueError):
            churn_fleet_config(strength=2.0)
        with pytest.raises(ValueError):
            churn_fleet_config(n_tenants=2)

    def test_resident_worker_parity_across_churn(self, tmp_path):
        """Joining and leaving tenants must not make detections depend
        on worker count: identical per-tenant results at 1, 2 and 4
        resident workers."""
        from repro.fleet import FleetManager, load_manifest
        from repro.testing import SMALL_FLEET_TENANT

        config = churn_fleet_config(
            strength=0.5, seed=11, n_tenants=3, tenant=SMALL_FLEET_TENANT,
        )
        fleet = generate_fleet_dataset(config)
        manifest = load_manifest(
            write_fleet_layout(fleet, tmp_path / "fleet", days=8)
        )
        joiners = [s.tenant_id for s in manifest.tenants if s.join_round]
        assert joiners, "churn scenario must produce a mid-run joiner"

        results = {}
        for workers in (1, 2, 4):
            manager = FleetManager.from_manifest(manifest, workers=workers)
            report = manager.run()
            results[workers] = {
                tenant: sorted(domains)
                for tenant, domains in report.detected_by_tenant().items()
            }
        assert results[1] == results[2] == results[4]
        assert set(results[1]) == {s.tenant_id for s in manifest.tenants}
        # The scenario really churned: one tenant left early (fewer
        # log files than the fleet span) in addition to the joiner.
        file_counts = {
            spec.tenant_id: len(sorted(spec.directory.glob(spec.pattern)))
            for spec in manifest.tenants
        }
        assert min(file_counts.values()) < max(file_counts.values())
