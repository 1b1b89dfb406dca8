"""Integration tests: the LANL challenge end to end (Section V)."""

import pytest

from repro.eval import LanlChallengeSolver, sweep_histogram_parameters, timing_gap_samples
from repro.synthetic import TRAINING_DATES


class TestChallengeReport:
    def test_all_twenty_days_solved(self, lanl_report):
        assert len(lanl_report.outcomes) == 20

    def test_overall_accuracy_matches_paper_shape(self, lanl_report):
        """Paper: TDR 98.33%, FDR 1.67%, FNR 6.25% -- we require the
        same regime: high precision, low miss rate."""
        overall = lanl_report.overall
        assert overall.tdr >= 0.9
        assert overall.fdr <= 0.1
        assert overall.fnr <= 0.15

    def test_testing_split_also_accurate(self, lanl_report):
        testing = lanl_report.totals(training=False)
        assert testing.tdr >= 0.85

    def test_case4_detected_without_hints(self, lanl_report):
        case4 = [o for o in lanl_report.outcomes if o.case == 4]
        assert len(case4) == 1
        assert case4[0].counts.true_positives >= 3
        assert case4[0].cc_seeds  # C&C seeding actually happened

    def test_counts_partition_by_case(self, lanl_report):
        total = sum(
            (lanl_report.counts_for(case, training)
             for case in (1, 2, 3, 4) for training in (True, False)),
            start=lanl_report.counts_for(1, True).__class__(0, 0, 0),
        )
        overall = lanl_report.overall
        assert total.true_positives == overall.true_positives
        assert total.false_positives == overall.false_positives

    def test_detections_ordered_by_iteration(self, lanl_report):
        for outcome in lanl_report.outcomes:
            if outcome.bp_result is None:
                continue
            iterations = [
                d.iteration for d in outcome.bp_result.detections
                if d.reason != "seed"
            ]
            assert iterations == sorted(iterations)


class TestDaysAreSolvedOnce:
    def test_repeated_or_earlier_date_is_refused(self, lanl_dataset):
        """A date fed twice finds its own domains in the history: the
        second answer (TP 0 / FN 3) would be silently wrong."""
        solver = LanlChallengeSolver(lanl_dataset)
        first = solver.solve_day(3)
        assert first.counts.true_positives
        for march_date, feed in (
            (3, solver.solve_day), (3, solver.day_context),
            (2, solver.solve_day), (2, solver.day_context),
        ):
            with pytest.raises(
                ValueError,
                match=f"3/{march_date} is not after 3/3: days are solved once",
            ):
                feed(march_date)
        assert solver.solve_day(4).counts.true_positives

    def test_the_solver_owns_no_pipeline_stage(self, lanl_dataset):
        solver = LanlChallengeSolver(lanl_dataset)
        assert solver.funnel is solver.engine.funnel
        for stage in ("history", "automation", "scorer", "detect"):
            assert not hasattr(solver, stage)


class TestCcDetectionWithinChallenge:
    def test_cc_domain_found_on_hinted_days(self, lanl_dataset):
        solver = LanlChallengeSolver(lanl_dataset)
        context = solver.day_context(2)
        cc, verdicts = solver.detect_cc_domains(context)
        truth = lanl_dataset.campaign_for_date(2)
        assert set(truth.cc_domains) <= cc
        assert verdicts

    def test_cc_heuristic_rejects_benign_automation(self, lanl_dataset):
        solver = LanlChallengeSolver(lanl_dataset)
        context = solver.day_context(2)
        cc, _ = solver.detect_cc_domains(context)
        truth = set(lanl_dataset.campaign_for_date(2).malicious_domains)
        assert cc <= truth  # nothing benign labeled C&C


class TestTimingGaps:
    def test_figure3_shape(self, lanl_dataset):
        """Malicious-malicious gaps stochastically dominate (are
        smaller than) malicious-legitimate gaps."""
        solver = LanlChallengeSolver(lanl_dataset)
        dates = sorted(TRAINING_DATES)[:5]
        mal_mal, mal_legit = timing_gap_samples(solver, dates)
        assert mal_mal and mal_legit
        import statistics

        assert statistics.median(mal_mal) < statistics.median(mal_legit)

    def test_paper_checkpoint_160s(self, lanl_dataset):
        """Paper: 56% of mal-mal gaps < 160 s vs 3.8% of mal-legit.
        We require a wide separation at the same checkpoint."""
        from repro.eval import cdf_at

        solver = LanlChallengeSolver(lanl_dataset)
        mal_mal, mal_legit = timing_gap_samples(solver, sorted(TRAINING_DATES))
        assert cdf_at(mal_mal, 160.0) > 3 * cdf_at(mal_legit, 160.0)


class TestParameterSweep:
    @pytest.fixture(scope="class")
    def sweep(self, lanl_dataset):
        return sweep_histogram_parameters(
            lanl_dataset,
            bin_widths=(5.0, 10.0),
            thresholds=(0.0, 0.06),
        )

    def test_row_count(self, sweep):
        assert len(sweep) == 4

    def test_looser_threshold_never_detects_fewer(self, sweep):
        """Table II monotonicity: raising JT at fixed W can only add
        automated pairs."""
        by_width = {}
        for row in sweep:
            by_width.setdefault(row.bin_width, []).append(row)
        for rows in by_width.values():
            rows.sort(key=lambda r: r.jeffrey_threshold)
            for earlier, later in zip(rows, rows[1:]):
                assert later.all_pairs_testing >= earlier.all_pairs_testing
                assert (later.malicious_pairs_training
                        >= earlier.malicious_pairs_training)

    def test_chosen_parameters_capture_malicious_pairs(self, sweep):
        chosen = next(
            r for r in sweep
            if r.bin_width == 10.0 and r.jeffrey_threshold == 0.06
        )
        assert chosen.malicious_pairs_training > 0
        assert chosen.malicious_pairs_testing > 0
