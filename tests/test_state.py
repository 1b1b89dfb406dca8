"""Tests for detector state persistence."""

import json

import pytest

from repro.config import BeliefPropagationConfig, SystemConfig
from repro.core import EnterpriseDetector
from repro.state import (
    StateError,
    decode_config,
    decode_history,
    decode_model,
    decode_ua_history,
    detector_state,
    encode_config,
    encode_history,
    encode_model,
    encode_ua_history,
    load_detector,
    restore_detector,
    save_detector,
)


class TestComponentRoundTrips:
    def test_history(self, trained_detector):
        restored = decode_history(encode_history(trained_detector.history))
        assert len(restored) == len(trained_detector.history)
        some = next(iter(trained_detector.history._first_seen))
        assert restored.first_seen(some) == trained_detector.history.first_seen(some)

    def test_ua_history(self, trained_detector):
        restored = decode_ua_history(encode_ua_history(trained_detector.ua_history))
        assert len(restored) == len(trained_detector.ua_history)
        for ua in list(trained_detector.ua_history._hosts_by_ua)[:5]:
            assert restored.popularity(ua) == trained_detector.ua_history.popularity(ua)
            assert restored.is_rare(ua) == trained_detector.ua_history.is_rare(ua)

    def test_model(self, trained_detector):
        model = trained_detector.cc_scorer.model
        restored = decode_model(encode_model(model))
        assert restored.feature_names == model.feature_names
        vector = [0.1, 0.2, 0.5, 1.0, 0.3, 0.7]
        assert restored.score(vector) == pytest.approx(model.score(vector))
        for original, copy in zip(model.coefficients, restored.coefficients):
            assert copy.name == original.name
            assert copy.p_value == pytest.approx(original.p_value)

    def test_config(self):
        config = SystemConfig(belief_propagation=BeliefPropagationConfig(
            similarity_threshold=0.6, cc_score_threshold=0.45
        ))
        restored = decode_config(encode_config(config))
        assert restored == config

    def test_state_is_json_serializable(self, trained_detector):
        text = json.dumps(detector_state(trained_detector))
        assert "cc_model" in text


class TestDetectorRoundTrip:
    def test_save_load(self, freshly_trained, enterprise_dataset, tmp_path):
        path = tmp_path / "state.json"
        save_detector(freshly_trained, path)
        restored = load_detector(path, whois=enterprise_dataset.whois)

        from repro.streaming import StreamingEnterpriseDetector

        day = enterprise_dataset.config.bootstrap_days
        conns = enterprise_dataset.day_connections(day)
        reports = []
        for detector in (freshly_trained, restored):
            engine = StreamingEnterpriseDetector(detector)
            engine.ingest(conns)
            reports.append(engine.rollover())
        original_report, restored_report = reports
        assert original_report.day == restored_report.day == day
        assert original_report.rare_domains == restored_report.rare_domains
        assert original_report.cc_domains == restored_report.cc_domains

    def test_restored_scores_identical(self, trained_detector, enterprise_dataset, tmp_path):
        path = tmp_path / "state.json"
        save_detector(trained_detector, path)
        restored = load_detector(path, whois=enterprise_dataset.whois)
        vector = [0.0, 0.0, 1.0, 1.0, 0.1, 0.2]
        assert restored.cc_scorer.model.score(vector) == pytest.approx(
            trained_detector.cc_scorer.model.score(vector)
        )
        assert restored.cc_scorer.threshold == trained_detector.cc_scorer.threshold

    def test_version_check(self, trained_detector):
        payload = detector_state(trained_detector)
        payload["version"] = 999
        with pytest.raises(StateError):
            restore_detector(payload)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateError):
            load_detector(path)

    def test_untrained_detector_round_trips(self, tmp_path):
        detector = EnterpriseDetector()
        path = tmp_path / "fresh.json"
        save_detector(detector, path)
        restored = load_detector(path)
        assert restored.cc_scorer is None
        assert restored.similarity_scorer is None


class TestEngineDispatch:
    """encode_engine/restore_engine route on the snapshot's kind tag."""

    def test_dns_engine_round_trip(self):
        from repro.state import encode_engine, restore_engine
        from repro.streaming import StreamingDetector

        engine = StreamingDetector()
        payload = encode_engine(engine)
        assert payload["kind"] == "streaming"
        restored = restore_engine(payload)
        assert isinstance(restored, StreamingDetector)

    def test_enterprise_engine_round_trip(self, trained_detector, enterprise_dataset):
        from repro.state import encode_engine, restore_engine
        from repro.streaming import StreamingEnterpriseDetector

        engine = StreamingEnterpriseDetector(trained_detector)
        payload = encode_engine(engine)
        assert payload["kind"] == "streaming-enterprise"
        restored = restore_engine(payload, whois=enterprise_dataset.whois)
        assert isinstance(restored, StreamingEnterpriseDetector)
        assert restored.start_day == engine.start_day
        assert restored.batch.cc_scorer.threshold == pytest.approx(
            engine.batch.cc_scorer.threshold
        )

    def test_unknown_kind_rejected(self):
        from repro.state import restore_engine

        with pytest.raises(StateError, match="not a streaming engine"):
            restore_engine({"version": 1, "kind": "detector"})
