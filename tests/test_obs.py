"""Tests for the unified observability plane (repro.obs).

The load-bearing properties: instrument semantics match Prometheus
conventions (monotone counters, fixed-bucket cumulative histograms);
snapshot merge is associative and commutative so fleet-wide
aggregation is order-independent; ``snapshot_delta`` round-trips
through the resident-worker queue pattern without losing or double
counting samples under concurrency; metrics are invisible to
detection outcomes (byte-identical reports on vs off); snapshots
survive ``state.py`` checkpoints; and a multi-worker resident fleet
merges per-worker deltas into one fleet-wide view whose per-tenant
counters equal the per-tenant report sums.
"""

import json
import queue
import threading

import pytest
from document_files import reloaded

from repro.obs.logs import configure_logging, get_logger, log_event
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    MetricsSnapshot,
    sample_key,
    split_sample_key,
)
from repro.synthetic import generate_lanl_dataset
from repro.testing import SMALL_LANL


@pytest.fixture(scope="module")
def lanl_dataset():
    return generate_lanl_dataset(SMALL_LANL)


class TestInstruments:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        counter = reg.counter("requests_total")
        counter.inc()
        counter.inc(4)
        snap = reg.snapshot()
        assert snap.counter_value("requests_total") == 5.0

    def test_labels_are_separate_samples(self):
        reg = MetricsRegistry()
        reg.counter("drops_total", stage="a").inc()
        reg.counter("drops_total", stage="b").inc(2)
        snap = reg.snapshot()
        assert snap.counter_value("drops_total", stage="a") == 1.0
        assert snap.counter_value("drops_total", stage="b") == 2.0
        assert snap.families() == {"drops_total"}

    def test_label_order_is_canonical(self):
        assert sample_key("m", b=1, a=2) == sample_key("m", a=2, b=1)
        name, labels = split_sample_key(sample_key("m", a=2, b=1))
        assert name == "m"
        assert labels == '{a="2",b="1"}'

    def test_same_instrument_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        assert reg.counter("x_total") is not reg.counter("x_total", k="v")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("queue_depth")
        gauge.set(7)
        gauge.set(3)
        assert reg.snapshot().gauge_value("queue_depth") == 3.0

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        hist = reg.histogram("batch_size", buckets=DEFAULT_SIZE_BUCKETS)
        for value in (0.5, 1, 2, 10_000):
            hist.observe(value)
        stats = reg.snapshot().histogram_stats("batch_size")
        assert stats["count"] == 4
        assert stats["sum"] == pytest.approx(10_003.5)
        # Bounds are upper bounds; the trailing count is the +Inf bucket.
        assert len(stats["counts"]) == len(stats["bounds"]) + 1
        assert stats["counts"][-1] == 1  # 10_000 overflows every bound
        assert sum(stats["counts"]) == 4

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(3.0, 1.0))

    def test_span_records_seconds_histogram(self):
        reg = MetricsRegistry()
        with reg.span("stage") as span:
            pass
        assert span.elapsed >= 0.0
        stats = reg.snapshot().histogram_stats("stage_seconds")
        assert stats["count"] == 1
        assert reg.snapshot().timings().keys() == {"stage"}

    def test_null_registry_is_inert_but_spans_time(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("x_total").inc()
        with NULL_METRICS.span("stage") as span:
            pass
        assert span.elapsed >= 0.0
        assert NULL_METRICS.snapshot().is_empty()

    def test_span_propagates_exceptions(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("failing"):
                raise RuntimeError("boom")
        assert reg.snapshot().histogram_stats("failing_seconds")["count"] == 1


def _snap(counters=None, gauges=None, histograms=None):
    return MetricsSnapshot(counters, gauges, histograms)


def _hist(counts, bounds=(1.0, 2.0)):
    return {
        "bounds": list(bounds),
        "counts": list(counts),
        "sum": float(sum(counts)),
        "count": sum(counts),
    }


class TestSnapshotAlgebra:
    A = _snap({"c": 1.0}, {"g": 1.0}, {"h_seconds": _hist([1, 0, 2])})
    B = _snap({"c": 2.0, "d": 5.0}, {"g": 9.0},
              {"h_seconds": _hist([0, 1, 1])})
    C = _snap({"d": 1.0}, {}, {"k_seconds": _hist([3, 0, 0])})

    def test_merge_adds_counters_and_histograms(self):
        merged = self.A.merge(self.B)
        assert merged.counters == {"c": 3.0, "d": 5.0}
        assert merged.histograms["h_seconds"]["counts"] == [1, 1, 3]
        assert merged.histograms["h_seconds"]["count"] == 5

    def test_merge_gauges_right_biased(self):
        assert self.A.merge(self.B).gauges["g"] == 9.0
        assert self.B.merge(self.A).gauges["g"] == 1.0

    def test_merge_associative(self):
        left = self.A.merge(self.B).merge(self.C)
        right = self.A.merge(self.B.merge(self.C))
        assert left.as_dict() == right.as_dict()

    def test_merge_commutative_without_gauges(self):
        a = _snap(self.A.counters, None, self.A.histograms)
        b = _snap(self.B.counters, None, self.B.histograms)
        assert a.merge(b).as_dict() == b.merge(a).as_dict()

    def test_diff_then_merge_restores_counters(self):
        baseline, current = self.A, self.A.merge(self.B)
        delta = current.diff(baseline)
        restored = baseline.merge(delta)
        assert restored.counters == current.counters
        assert restored.histograms == current.histograms

    def test_serialization_round_trip(self):
        payload = json.loads(json.dumps(self.A.merge(self.C).as_dict()))
        restored = MetricsSnapshot.from_dict(payload)
        assert restored.as_dict() == self.A.merge(self.C).as_dict()

    def test_to_prom_exposition(self):
        reg = MetricsRegistry()
        reg.counter("events_total", kind="dns").inc(3)
        with reg.span("stage"):
            pass
        text = reg.snapshot().to_prom()
        assert 'events_total{kind="dns"} 3' in text
        assert "stage_seconds_count" in text
        assert 'le="+Inf"' in text


class TestRegistryMerging:
    def test_snapshot_delta_advances_baseline(self):
        reg = MetricsRegistry()
        reg.counter("ticks_total").inc(2)
        first = reg.snapshot_delta()
        assert first.counter_value("ticks_total") == 2.0
        assert reg.snapshot_delta().is_empty()
        reg.counter("ticks_total").inc()
        assert reg.snapshot_delta().counter_value("ticks_total") == 1.0
        # The full snapshot still carries the cumulative value.
        assert reg.snapshot().counter_value("ticks_total") == 3.0

    def test_absorb_folds_foreign_deltas(self):
        manager, worker = MetricsRegistry(), MetricsRegistry()
        manager.counter("ticks_total").inc()
        worker.counter("ticks_total").inc(4)
        manager.absorb(worker.snapshot_delta())
        assert manager.snapshot().counter_value("ticks_total") == 5.0

    def test_collector_sampled_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"hits": 0}
        reg.add_collector(
            lambda: {sample_key("hits_total"): float(state["hits"])}
        )
        state["hits"] = 7
        assert reg.snapshot().counter_value("hits_total") == 7.0

    def test_thread_safety_shared_registry(self):
        reg = MetricsRegistry()
        counter = reg.counter("contended_total")

        def hammer():
            for _ in range(5_000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot().counter_value("contended_total") == 40_000.0

    def test_worker_queue_pattern_preserves_totals(self):
        """Per-worker registries ship deltas over a queue mid-flight;
        the manager's merged view must equal the true totals."""
        manager = MetricsRegistry()
        deltas: queue.Queue = queue.Queue()

        def worker(worker_id: int):
            reg = MetricsRegistry()
            for round_no in range(10):
                reg.counter("work_total", worker=worker_id).inc(3)
                reg.counter("rounds_total").inc()
                deltas.put(reg.snapshot_delta().as_dict())

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        while not deltas.empty():
            manager.absorb(MetricsSnapshot.from_dict(deltas.get()))
        snap = manager.snapshot()
        assert snap.counter_value("rounds_total") == 40.0
        for worker_id in range(4):
            assert snap.counter_value(
                "work_total", worker=worker_id
            ) == 30.0


def _day_outcome(report):
    """The detection-relevant content of a day report (no timings)."""
    return (
        report.day,
        report.records,
        sorted(report.rare_domains),
        sorted(report.cc_domains),
        list(report.detected),
    )


def _replay_days(lanl_dataset, metrics):
    from repro.streaming import StreamingDetector

    detector = StreamingDetector(
        internal_suffixes=lanl_dataset.internal_suffixes,
        server_ips=lanl_dataset.server_ips,
        metrics=metrics,
    )
    outcomes = []
    for march_date in (1, 2, 3):
        detector.submit_raw(lanl_dataset.day_records(march_date))
        detector.poll()
        report = detector.rollover(detect=march_date > 1)
        outcomes.append(_day_outcome(report))
    return outcomes, detector


class TestDetectionParity:
    def test_metrics_do_not_change_detections(self, lanl_dataset):
        """The observability plane must be invisible to outcomes:
        identical day reports with metrics off, on, and NULL."""
        off, _ = _replay_days(lanl_dataset, None)
        on, detector = _replay_days(lanl_dataset, MetricsRegistry())
        assert on == off
        # And the instrumented run actually measured something.
        snap = detector.metrics.snapshot()
        assert snap.counter_value("stream_events_total") > 0
        assert "window_rollover" in snap.timings()
        # The legacy verdict-cache stats ride the unified registry via
        # the engine's collector.
        assert "verdict_cache_events_total" in snap.families()

    def test_reduction_counters_match_stats(self, lanl_dataset):
        """Batched flushing must not drop or double count records."""
        _, detector = _replay_days(lanl_dataset, MetricsRegistry())
        snap = detector.metrics.snapshot()
        stats = detector.funnel.stats
        seen = sum(stats.record_counts("all").values())
        kept = sum(stats.record_counts("filter_internal_servers").values())
        assert snap.counter_value("reduction_records_total") == seen
        assert snap.counter_value(
            "reduction_kept_total", stage="filter_internal_servers"
        ) == kept


class TestBeliefPropagationStops:
    """``bp_stops_total{reason=}`` says why each run of Algorithm 1
    ended: nothing cleared ``Ts`` (``converged``) or the iteration cap
    cut it (``cap``) -- also when a warm round finds the day's budget
    already spent and runs no iteration at all."""

    @staticmethod
    def _run(metrics, max_iterations, prior=None):
        from repro.config import BeliefPropagationConfig
        from repro.core import belief_propagation

        chain = [f"d{i}.ru" for i in range(4)]
        return belief_propagation(
            {"h0"},
            {chain[0]},
            dom_host={domain: {"h0"} for domain in chain},
            host_rdom={"h0": set(chain)},
            detect_cc=lambda domain: False,
            similarity_score=lambda domain, malicious: 0.9,
            config=BeliefPropagationConfig(
                similarity_threshold=0.5, max_iterations=max_iterations
            ),
            prior=prior,
            metrics=metrics,
        )

    def test_one_reason_per_run(self):
        metrics = MetricsRegistry()

        def stops(reason):
            return metrics.snapshot().counter_value(
                "bp_stops_total", reason=reason
            )

        # Three labels, then an iteration with an empty frontier.
        assert self._run(metrics, 10).iterations == 4
        assert (stops("converged"), stops("cap")) == (1, 0)
        capped = self._run(metrics, 2)
        assert capped.iterations == 2 and len(capped.domains) == 3
        assert (stops("converged"), stops("cap")) == (1, 1)
        # The budget is spent: a warm round runs zero iterations.
        spent = self._run(metrics, 2, prior=capped)
        assert spent.iterations == 0 and spent.domains == capped.domains
        assert (stops("converged"), stops("cap")) == (1, 2)
        snap = metrics.snapshot()
        assert snap.counter_value("bp_runs_total") == 3
        assert snap.counter_value("bp_iterations_total") == 6

    def test_off_path_records_nothing(self):
        assert self._run(None, 2).iterations == 2
        assert NULL_METRICS.snapshot().families() == set()


class TestCheckpointRoundTrip:
    def test_snapshot_survives_streaming_checkpoint(self, lanl_dataset):
        from repro.state import encode_engine, restore_engine

        _, detector = _replay_days(lanl_dataset, MetricsRegistry())
        before = detector.metrics.snapshot()
        assert not before.is_empty()

        payload = reloaded(encode_engine(detector, include_metrics=True))
        restored = restore_engine(payload, metrics=MetricsRegistry())
        after = restored.metrics.snapshot()
        assert after.counters == before.counters
        assert after.histograms == before.histograms

    def test_metrics_off_checkpoint_has_no_snapshot(self, lanl_dataset):
        from repro.state import encode_engine

        _, detector = _replay_days(lanl_dataset, None)
        assert encode_engine(detector, include_metrics=True)["metrics"] is None


class TestFleetAggregation:
    """The acceptance scenario: a 4-worker resident fleet merges
    per-worker deltas into one snapshot whose per-tenant counters
    equal the per-tenant report sums."""

    @pytest.fixture(scope="class")
    def fleet_run(self, tmp_path_factory):
        from repro.fleet import FleetManager, load_manifest
        from repro.synthetic import write_fleet_layout
        from repro.testing import make_multi_enterprise_dataset

        dataset = make_multi_enterprise_dataset(4)
        layout = write_fleet_layout(
            dataset, tmp_path_factory.mktemp("obsfleet"), days=4
        )
        manifest = load_manifest(layout)
        baseline = FleetManager.from_manifest(manifest, workers=1).run()
        registry = MetricsRegistry()
        report = FleetManager.from_manifest(
            manifest, workers=4, metrics=registry,
        ).run()
        return baseline, report, registry.snapshot()

    def test_detections_match_uninstrumented_serial(self, fleet_run):
        baseline, report, _ = fleet_run
        assert {
            t: sorted(d) for t, d in report.detected_by_tenant().items()
        } == {
            t: sorted(d) for t, d in baseline.detected_by_tenant().items()
        }

    def test_per_tenant_counters_equal_report_sums(self, fleet_run):
        _, report, snap = fleet_run
        days_by_tenant: dict[str, int] = {}
        records_by_tenant: dict[str, int] = {}
        for day in report.days:
            days_by_tenant[day.tenant_id] = days_by_tenant.get(day.tenant_id, 0) + 1
            records_by_tenant[day.tenant_id] = (
                records_by_tenant.get(day.tenant_id, 0) + day.records
            )
        for tenant, days in days_by_tenant.items():
            assert snap.counter_value(
                "tenant_days_total", tenant=tenant
            ) == days
            assert snap.counter_value(
                "tenant_records_total", tenant=tenant
            ) == records_by_tenant[tenant]

    def test_fleet_lifecycle_counters(self, fleet_run):
        _, report, snap = fleet_run
        # One round per layout day, bootstrap round included (the
        # report only lists post-bootstrap days).
        assert snap.counter_value("fleet_rounds_total") == 4
        # 4 tenants x 4 rounds of ADVANCE_DAY (checkpoint commands only
        # flow when the manifest configures checkpointing).
        assert snap.counter_value(
            "fleet_commands_total", cmd="advance_day"
        ) == 16

    def test_legacy_cache_stats_served_by_registry(self, fleet_run):
        """The shared intel plane's CacheStats ride the unified
        registry via the manager's collector (the verdict-cache
        counterpart is covered on the streaming engine, where its
        samples are non-empty)."""
        _, _, snap = fleet_run
        assert "intel_cache_lookups_total" in snap.families()

    def test_report_carries_snapshot_and_timings(self, fleet_run):
        _, report, snap = fleet_run
        doc = report.as_dict()
        assert doc["metrics"]["counters"]
        # Per-day rollover stages ride the report; the worker-side
        # advance span rides the merged registry snapshot.
        assert "automation" in doc["stage_seconds"]
        assert "worker_advance" in snap.timings()


class TestStructuredLogging:
    def test_json_lines_shape(self, capsys):
        configure_logging("info", json_mode=True)
        try:
            log_event(
                get_logger("test"), "unit_event", day=3, detected=2
            )
        finally:
            configure_logging("warning", json_mode=False)
        line = capsys.readouterr().err.strip()
        payload = json.loads(line)
        assert payload["event"] == "unit_event"
        assert payload["logger"] == "repro.test"
        assert payload["day"] == 3
        assert payload["detected"] == 2

    def test_disabled_level_emits_nothing(self, capsys):
        configure_logging("error", json_mode=True)
        try:
            log_event(get_logger("test"), "quiet_event")
        finally:
            configure_logging("warning", json_mode=False)
        assert capsys.readouterr().err == ""


class TestCliMetricsOut:
    @pytest.fixture(scope="class")
    def log_dir(self, tmp_path_factory):
        from repro.cli import main

        out_dir = tmp_path_factory.mktemp("obslogs") / "logs"
        assert main([
            "generate", str(out_dir), "--hosts", "30", "--days", "3",
        ]) == 0
        return out_dir

    def test_stream_writes_snapshot_and_prom(self, log_dir, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        code = main([
            "stream", str(log_dir), "--metrics-out", str(metrics_path),
        ])
        capsys.readouterr()
        assert code in (0, 1)  # detection outcome, not an error
        snap = MetricsSnapshot.from_dict(
            json.loads(metrics_path.read_text())
        )
        assert snap.counter_value("stream_events_total") > 0
        assert "stream_ingest" in snap.timings()
        prom = metrics_path.with_suffix(".prom").read_text()
        assert "stream_events_total" in prom

    def test_snapshot_checker_accepts_cli_output(self, log_dir, tmp_path, capsys):
        import sys as _sys
        from pathlib import Path

        from repro.cli import main

        _sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
        try:
            from check_metrics_snapshot import check_snapshot
        finally:
            _sys.path.pop(0)

        metrics_path = tmp_path / "metrics.json"
        main(["stream", str(log_dir), "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        assert check_snapshot(
            metrics_path,
            ["stream_events_total", "reduction_records_total",
             "bp_runs_total"],
        ) == []
        assert check_snapshot(metrics_path, ["no_such_family"]) != []

    def test_run_and_stream_log_the_same_day_rollovers(self, log_dir, capsys):
        """One ``day_rollover`` event per file from both day loops."""
        from repro.cli import main

        events = {}
        for verb in ("run", "stream"):
            try:
                assert main([
                    verb, str(log_dir), "--bootstrap-files", "1",
                    "--internal-suffix", "int.c0",
                    "--log-level", "info", "--log-json",
                ]) == 0
            finally:
                configure_logging("warning", json_mode=False)
            lines = capsys.readouterr().err.splitlines()
            events[verb] = [
                {key: value for key, value in json.loads(line).items()
                 if key != "ts"}
                for line in lines
                if json.loads(line)["event"] == "day_rollover"
            ]
        assert [event["file"] for event in events["run"]] == [
            "dns-march-01.log", "dns-march-02.log", "dns-march-03.log",
        ]
        assert [event["bootstrap"] for event in events["run"]] == [
            True, False, False,
        ]
        assert events["run"] == events["stream"]

    def test_log_json_error_is_structured(self, capsys):
        from repro.cli import main

        code = main(["stream", "/nonexistent", "--resume", "--log-json"])
        try:
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()[-1]
            payload = json.loads(err)
            assert payload["event"] == "error"
            assert "checkpoint" in payload["message"]
        finally:
            configure_logging("warning", json_mode=False)
