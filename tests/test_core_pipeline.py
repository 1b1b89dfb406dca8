"""Integration tests for the enterprise pipeline: training
(:class:`EnterpriseDetector`) and the daily operation stages
(:class:`StreamingEnterpriseDetector` fed one day per poll)."""

import pytest

from repro.core import EnterpriseDetector
from repro.streaming import StreamingEnterpriseDetector


class TestTraining:
    def test_histories_populated(self, training_report):
        assert training_report.history_size > 50
        assert training_report.ua_count > 5

    def test_models_exist(self, trained_detector):
        assert trained_detector.cc_scorer is not None
        assert trained_detector.similarity_scorer is not None

    def test_profiled_all_days(self, training_report, enterprise_dataset):
        assert (
            training_report.profiled_days
            == enterprise_dataset.config.bootstrap_days
        )


def _operate(engine, dataset, **seeding):
    """Feed every operation day in one poll each; yield the day's
    :class:`~repro.core.DayReport`."""
    first = dataset.config.bootstrap_days
    for day in range(first, dataset.config.total_days):
        engine.ingest(dataset.day_batch(day))
        report = engine.rollover(**seeding)
        assert report.day == day
        yield report


class TestOperation:
    def test_untrained_detector_refuses_operation(self, enterprise_dataset):
        detector = EnterpriseDetector(whois=enterprise_dataset.whois)
        with pytest.raises(RuntimeError):
            StreamingEnterpriseDetector(detector)

    def test_day_result_shape(self, trained_detector, enterprise_dataset):
        engine = StreamingEnterpriseDetector(trained_detector)
        day = enterprise_dataset.config.bootstrap_days
        assert engine.window.day == day
        report = next(_operate(engine, enterprise_dataset))
        assert report.day == day
        assert report.rare_domains
        assert isinstance(report.detected, list)
        assert len(set(report.detected)) == len(report.detected)

    def test_cc_detections_on_attack_day(
        self, trained_detector, enterprise_dataset
    ):
        """On a day with active beaconing campaigns, at least one true
        C&C domain must clear the threshold."""
        truth_cc = {d for c in enterprise_dataset.campaigns for d in c.cc_domains}
        found = set()
        engine = StreamingEnterpriseDetector(trained_detector)
        for report in _operate(engine, enterprise_dataset):
            found |= report.cc_domains
        assert found & truth_cc

    def test_soc_seeds_trigger_hints_mode(
        self, trained_detector, enterprise_dataset
    ):
        ioc = enterprise_dataset.build_ioc_list()
        ran_hints = False
        engine = StreamingEnterpriseDetector(trained_detector)
        for report in _operate(
            engine, enterprise_dataset, soc_seed_domains=ioc.seeds()
        ):
            if report.soc_hints is not None:
                ran_hints = True
                assert report.soc_hints.domains  # seeds at minimum
        assert ran_hints

    def test_cc_scores_are_the_cc_domains_above_tc(
        self, trained_detector, enterprise_dataset
    ):
        engine = StreamingEnterpriseDetector(trained_detector)
        threshold = trained_detector.cc_scorer.threshold
        seen_cc = False
        for report in _operate(engine, enterprise_dataset):
            assert set(report.cc_scores) == report.cc_domains
            assert all(s >= threshold for s in report.cc_scores.values())
            seen_cc = seen_cc or bool(report.cc_domains)
        assert seen_cc

    def test_soc_hints_labels_publish_their_labeling_score(self):
        """A label only the SOC-hints run made is published with its
        labeling score, not as confirmed; the hints' seeds are inputs,
        not detections, and a label both runs made keeps the no-hint
        run's score."""
        from repro.core import BeliefPropagationResult, DayReport, Detection

        def run(*detections):
            return BeliefPropagationResult(
                hosts=set(), domains={d.domain for d in detections},
                detections=list(detections), trace=[],
            )

        report = DayReport(
            day=0,
            rare_domains={"cc.c1", "both.c1", "ioc.c1", "hinted.c1"},
            detected=["cc.c1", "both.c1", "hinted.c1"],
            bp_result=run(
                Detection("cc.c1", 0, "seed", 0.0),
                Detection("both.c1", 1, "similarity", 0.7),
            ),
            soc_hints=run(
                Detection("ioc.c1", 0, "seed", 0.0),
                Detection("both.c1", 1, "similarity", 0.9),
                Detection("hinted.c1", 2, "similarity", 0.6),
            ),
        )
        assert report.publication_scores() == {
            "cc.c1": 1.0, "both.c1": 0.7, "hinted.c1": 0.6,
        }
