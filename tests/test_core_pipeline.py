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
    :class:`~repro.core.DayResult`."""
    first = dataset.config.bootstrap_days
    for day in range(first, dataset.config.total_days):
        engine.ingest(dataset.day_connections(day))
        report = engine.rollover(**seeding)
        assert report.day == day
        yield report.day_result


class TestOperation:
    def test_untrained_detector_refuses_operation(self, enterprise_dataset):
        detector = EnterpriseDetector(whois=enterprise_dataset.whois)
        with pytest.raises(RuntimeError):
            StreamingEnterpriseDetector(detector)

    def test_day_result_shape(self, trained_detector, enterprise_dataset):
        engine = StreamingEnterpriseDetector(trained_detector)
        day = enterprise_dataset.config.bootstrap_days
        assert engine.window.day == day
        result = next(_operate(engine, enterprise_dataset))
        assert result.day == day
        assert result.rare_domains
        assert isinstance(result.all_detected_domains(), set)

    def test_cc_detections_on_attack_day(
        self, trained_detector, enterprise_dataset
    ):
        """On a day with active beaconing campaigns, at least one true
        C&C domain must clear the threshold."""
        truth_cc = {d for c in enterprise_dataset.campaigns for d in c.cc_domains}
        found = set()
        engine = StreamingEnterpriseDetector(trained_detector)
        for result in _operate(engine, enterprise_dataset):
            found |= result.cc_domain_names
        assert found & truth_cc

    def test_soc_seeds_trigger_hints_mode(
        self, trained_detector, enterprise_dataset
    ):
        ioc = enterprise_dataset.build_ioc_list()
        ran_hints = False
        engine = StreamingEnterpriseDetector(trained_detector)
        for result in _operate(
            engine, enterprise_dataset, soc_seed_domains=ioc.seeds()
        ):
            if result.soc_hints is not None:
                ran_hints = True
                assert result.soc_hints.domains  # seeds at minimum
        assert ran_hints

    def test_cc_domains_sorted_by_score(
        self, trained_detector, enterprise_dataset
    ):
        engine = StreamingEnterpriseDetector(trained_detector)
        for result in _operate(engine, enterprise_dataset):
            scores = [s.score for s in result.cc_domains]
            assert scores == sorted(scores, reverse=True)
            if result.cc_domains:
                break
