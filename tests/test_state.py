"""Tests for detector state persistence."""

import json

import pytest
from document_files import reloaded

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
    load_json,
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
        conns = enterprise_dataset.day_batch(day)
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
        payload = reloaded(encode_engine(engine))
        assert payload["kind"] == "streaming"
        restored = restore_engine(payload)
        assert isinstance(restored, StreamingDetector)

    def test_enterprise_engine_round_trip(self, trained_detector, enterprise_dataset):
        from repro.state import encode_engine, restore_engine
        from repro.streaming import StreamingEnterpriseDetector

        engine = StreamingEnterpriseDetector(trained_detector)
        payload = reloaded(encode_engine(engine))
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


#: The writer's chunk size while a test patches it small, and the
#: window sizes around its boundaries: empty, one event, a chunk but
#: one, one chunk, a chunk and one, two chunks and one.
SMALL_CHUNK = 6
WINDOW_SIZES = [0, 1, 5, 6, 7, 13]


def _whole_columns(engine) -> dict[str, str]:
    """Reference packer: each window column as base64 of the whole
    ``<u4`` / ``<f8`` column, split from the engine's event store."""
    import base64

    import numpy as np

    from repro.profiling.rare import DOMAIN_MASK, PAIR_SHIFT

    pairs, times = engine.window.traffic.event_columns()[2:]
    columns = {
        "host_index": (pairs >> PAIR_SHIFT).astype("<u4"),
        "domain_index": (pairs & DOMAIN_MASK).astype("<u4"),
        "timestamps": np.asarray(times, dtype="<f8"),
    }
    return {
        key: base64.b64encode(column.tobytes()).decode("ascii")
        for key, column in columns.items()
    }


def _dumped_whole(document, engine) -> bytes:
    """``json.dumps`` of an engine document with its window's columns
    packed whole by :func:`_whole_columns`."""
    window = {**document["window"], **_whole_columns(engine)}
    return json.dumps({**document, "window": window}).encode()


class TestCheckpointBytes:
    """The checkpoint writer puts ``json.dumps`` of the document on
    disk, byte for byte, with each window column as the base64 of the
    whole packed column -- though it packs and writes a column a chunk
    at a time.  The golden ``checkpoint-sha256:*`` cases hash a
    re-dump of the parsed document, so only these see the raw bytes
    the writer assembles piece by piece."""

    @staticmethod
    def _dns_engine_mid_day(dataset, events=None):
        """A DNS engine a day into ``dataset``, its open day holding
        the first ``events`` events of day 2 (half the day if None)."""
        from repro.logs import format_dns_line
        from repro.obs import MetricsRegistry
        from repro.streaming import StreamingDetector

        engine = StreamingDetector(
            internal_suffixes=dataset.internal_suffixes,
            server_ips=dataset.server_ips,
            metrics=MetricsRegistry(),
        )
        engine.ingest_lines(
            format_dns_line(r) for r in dataset.day_records(1)
        )
        engine.rollover(detect=False)
        lines = [format_dns_line(r) for r in dataset.day_records(2)]
        if events is None:
            engine.ingest_lines(lines[: len(lines) // 2])
        else:
            lines = iter(lines)
            while engine.window.events_today < events:
                engine.ingest_lines([next(lines)])
            assert engine.window.events_today == events
        engine.score()
        return engine

    @staticmethod
    def _enterprise_engine_mid_day(detector, dataset, events=None):
        from repro.streaming import StreamingEnterpriseDetector

        engine = StreamingEnterpriseDetector(detector)
        conns = dataset.day_batch(dataset.config.bootstrap_days)
        engine.ingest(conns.take(
            slice(len(conns) // 2 if events is None else events)
        ))
        if events is not None:
            assert engine.window.events_today == events
        engine.score()
        return engine

    @staticmethod
    def _assert_written_whole(engine, path):
        from repro.state import encode_engine, save_json_atomic

        document = encode_engine(engine, include_metrics=True)
        save_json_atomic(document, path)
        assert path.read_bytes() == _dumped_whole(document, engine)
        assert not path.with_name(path.name + ".tmp").exists()

    @staticmethod
    def _assert_tenant_written_whole(engine, path):
        from repro.fleet.workers import _save_tenant_checkpoint
        from repro.state import encode_engine

        _save_tenant_checkpoint(engine, path, {"day": 2, "detected": []}, 2)
        raw = path.read_bytes()
        wrapper = json.loads(raw)
        engine_text = _dumped_whole(encode_engine(engine), engine)
        assert raw == json.dumps(
            {**wrapper, "engine": json.loads(engine_text)}
        ).encode()

    def test_midday_dns_stream(self, lanl_dataset, tmp_path):
        engine = self._dns_engine_mid_day(lanl_dataset)
        assert engine.window.events_today > 0
        assert engine.metrics.enabled
        self._assert_written_whole(engine, tmp_path / "ckpt.json")

    def test_midday_enterprise_stream(
        self, trained_detector, enterprise_dataset, tmp_path
    ):
        engine = self._enterprise_engine_mid_day(
            trained_detector, enterprise_dataset
        )
        assert engine.window.events_today > 0
        self._assert_written_whole(engine, tmp_path / "ckpt.json")

    def test_fleet_tenant_document(self, lanl_dataset, tmp_path):
        engine = self._dns_engine_mid_day(lanl_dataset)
        self._assert_tenant_written_whole(
            engine, tmp_path / "t0" / "checkpoint.json"
        )

    @pytest.mark.parametrize("events", WINDOW_SIZES)
    def test_chunk_boundaries_dns_and_fleet_tenant(
        self, lanl_dataset, tmp_path, monkeypatch, events
    ):
        from repro import state

        monkeypatch.setattr(state, "_CHUNK_ROWS", SMALL_CHUNK)
        engine = self._dns_engine_mid_day(lanl_dataset, events)
        self._assert_written_whole(engine, tmp_path / "ckpt.json")
        self._assert_tenant_written_whole(
            engine, tmp_path / "t0" / "checkpoint.json"
        )

    @pytest.mark.parametrize("events", WINDOW_SIZES)
    def test_chunk_boundaries_enterprise(
        self, trained_detector, enterprise_dataset, tmp_path, monkeypatch,
        events,
    ):
        from repro import state

        monkeypatch.setattr(state, "_CHUNK_ROWS", SMALL_CHUNK)
        engine = self._enterprise_engine_mid_day(
            trained_detector, enterprise_dataset, events
        )
        self._assert_written_whole(engine, tmp_path / "ckpt.json")

    def test_window_of_several_real_chunks(self, tmp_path):
        from repro import state
        from repro.logs.records import ConnectionBatch
        from repro.streaming import StreamingDetector

        rows = range(2 * state._CHUNK_ROWS + 1)
        engine = StreamingDetector()
        engine.submit(ConnectionBatch(
            [float(k) for k in rows],
            [f"10.0.0.{k % 7}" for k in rows],
            [f"d{k % 13}.example.c3" for k in rows],
            ["198.51.100.7"] * len(rows),
        ))
        engine.poll()
        assert engine.window.events_today == len(rows)
        self._assert_written_whole(engine, tmp_path / "ckpt.json")

    def test_names_with_odd_characters(self, tmp_path):
        """Name tables and feature keys that look like JSON, or like
        the column keys, go out escaped exactly as ``json.dumps`` does."""
        from repro.logs.records import ConnectionBatch
        from repro.streaming import StreamingDetector

        names = [
            'q"uote.c3', "back\\slash.c3", "ünïcode.c3",
            "line\u2028sep.c3", "nul\x00.c3", "lone\ud800.c3",
            "timestamps", "window", '", "host_index": "',
        ]
        engine = StreamingDetector()
        engine.submit(ConnectionBatch(
            [float(i) for i in range(len(names))],
            list(reversed(names)),
            names,
            ["198.51.100.7"] * len(names),
        ))
        engine.poll()
        path = tmp_path / "odd.json"
        self._assert_written_whole(engine, path)
        assert load_json(path)["window"]["domains"] == names
