"""Tests for SOC incident-report assembly."""

from functools import partial

import pytest

from repro.config import LANL_CONFIG
from repro.core.dayloop import detect_day
from repro.core.scoring import AdditiveSimilarityScorer, multi_host_cc_scores
from repro.eval import LanlChallengeSolver, build_incident
from repro.intel import VirusTotalOracle


@pytest.fixture(scope="module")
def solved_day(lanl_dataset):
    """3/2 as a context (traffic, verdicts) and, from a second solver,
    as the engine's hinted end of day."""
    solver = LanlChallengeSolver(lanl_dataset)
    context = solver.day_context(2)
    verdicts = solver.engine.automation.automated_pairs(context.rare_series())
    truth = lanl_dataset.campaign_for_date(2)
    result = LanlChallengeSolver(lanl_dataset).solve_day(2).bp_result
    return context, verdicts, result, truth


class TestBuildIncident:
    def test_evidence_for_every_detection(self, solved_day):
        context, verdicts, result, _truth = solved_day
        report = build_incident(result, context.traffic, verdicts=verdicts)
        assert report.domains == result.detected_domains

    def test_seed_exclusion_default(self, solved_day, lanl_dataset):
        context, verdicts, result, truth = solved_day
        # Re-run the kernel with seed domains to check exclusion.
        seeded = detect_day(
            context.traffic,
            context.rare,
            cc=set(multi_host_cc_scores(verdicts)),
            new_scorer=partial(
                AdditiveSimilarityScorer().frontier_scorer, context.traffic
            ),
            config=LANL_CONFIG.belief_propagation,
            hint_hosts=truth.hint_hosts,
            hint_domains=truth.cc_domains,
        ).bp_result
        report = build_incident(seeded, context.traffic, verdicts=verdicts)
        assert not (set(report.domains) & set(truth.cc_domains))
        with_seeds = build_incident(
            seeded, context.traffic, verdicts=verdicts, include_seeds=True
        )
        assert set(truth.cc_domains) <= set(with_seeds.domains)

    def test_beacon_period_attached_to_cc(self, solved_day):
        context, verdicts, result, truth = solved_day
        report = build_incident(result, context.traffic, verdicts=verdicts)
        cc_evidence = [
            e for e in report.evidence if e.domain in truth.cc_domains
        ]
        assert cc_evidence
        for evidence in cc_evidence:
            assert evidence.beacon_period == pytest.approx(600.0, abs=30.0)

    def test_hosts_and_connection_counts(self, solved_day):
        context, verdicts, result, _ = solved_day
        report = build_incident(result, context.traffic, verdicts=verdicts)
        for evidence in report.evidence:
            assert evidence.hosts
            assert evidence.connection_count >= len(evidence.hosts)

    def test_whois_enrichment(self, solved_day, lanl_dataset):
        context, verdicts, result, truth = solved_day
        when = (context.day + 1) * 86_400.0
        report = build_incident(
            result, context.traffic, verdicts=verdicts,
            whois=lanl_dataset.whois, when=when,
        )
        aged = [e for e in report.evidence if e.dom_age_days is not None]
        assert aged
        for evidence in aged:
            assert evidence.dom_age_days < 45  # attacker registrations young

    def test_vt_enrichment(self, solved_day):
        context, verdicts, result, truth = solved_day
        vt = VirusTotalOracle(truth.malicious_domains, coverage=1.0)
        report = build_incident(
            result, context.traffic, verdicts=verdicts, virustotal=vt
        )
        assert all(e.vt_reported for e in report.evidence
                   if e.domain in truth.malicious_domains)

    def test_render_mentions_key_facts(self, solved_day):
        context, verdicts, result, _ = solved_day
        report = build_incident(result, context.traffic, verdicts=verdicts)
        text = report.render()
        assert "incident report" in text
        assert "hosts:" in text
        for domain in report.domains:
            assert domain in text

    def test_compromised_hosts_listed(self, solved_day, lanl_dataset):
        context, verdicts, result, truth = solved_day
        report = build_incident(result, context.traffic, verdicts=verdicts)
        assert set(truth.compromised_hosts) <= set(report.compromised_hosts)
