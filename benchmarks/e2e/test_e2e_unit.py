"""Unit tests of the benchmark's own arithmetic, parsers and schema.

Collected by tier-1; no dataset generation, no subprocesses.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_inputs  # noqa: E402
import e2e_measure  # noqa: E402
import e2e_spec  # noqa: E402
import e2e_trace  # noqa: E402
import run as e2e_run  # noqa: E402

RUN_OUTPUT = """\
dns-march-03.log: 25303 records, 31 rare, C&C=['sweetiegise.c2'], \
detected=['sweetiegise.c2', 'celestianacu.c1', 'spikedabo.c4']
dns-march-04.log: 25168 records, 31 rare, C&C=-, detected=-

triage of 3 detected domains

by naming family:
  [3] .c1 len10-16 alpha: celestianacu.c1
"""

STREAM_OUTPUT = """\
day 11: 11967 records, 28 rare, C&C=-, detected=-
day 12: 11784 records, 31 rare, C&C=['khnxkicsldqvbfh.org'], \
detected=['khnxkicsldqvbfh.org', 'svxdhxqabahbplm.org']
metrics written to m.json and m.prom
"""

FLEET_REPORT = {
    "rounds": 2,
    "tenants": {
        "t1": {"days": [
            {"tenant_id": "t1", "day": 1, "source": "dns-march-02.log",
             "records": 70, "rare_count": 4, "detected": ["b.c9", "a.c9"]},
        ]},
        "t0": {"days": [
            {"tenant_id": "t0", "day": 1, "source": "dns-march-02.log",
             "records": 90, "rare_count": 5, "detected": []},
        ]},
    },
}


def test_percentile_interpolates_and_handles_empty():
    assert e2e_measure.percentile([4, 1, 3, 2], 50) == 2.5
    assert e2e_measure.percentile([10], 99) == 10
    assert e2e_measure.percentile(list(range(101)), 99) == 99
    assert e2e_measure.percentile([], 50) == 0.0
    assert e2e_measure.median([1, 2, 9]) == 2


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["walk", 0.0, 10.0, None],
        ["logs.parse", 1.0, 4.0, 0],
        ["logs.parse", 4.0, 6.0, 0],
        ["logs.read", 1.0, 2.0, 1],
    ]
    assert e2e_trace.self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    assert e2e_trace.layer_seconds(spans) == {
        "walk": 5.0, "logs.parse": 4.0, "logs.read": 1.0,
    }
    assert e2e_trace.durations_ms(spans, "logs.parse") == [3000.0, 2000.0]


def test_split_lays_reported_stages_inside_the_call():
    tracer = e2e_trace.Tracer()
    tracer.spans.append(["core.detect_day", 0.0, 1.0, None])
    tracer.split(0, {"timing.automation": 0.25, "core.bp": 2.0})
    seconds = e2e_trace.layer_seconds(tracer.spans)
    assert seconds["timing.automation"] == 0.25
    assert seconds["core.bp"] == 0.75  # clipped to the call's end
    assert seconds["core.detect_day"] == 0.0


def test_tracer_nests_spans():
    tracer = e2e_trace.Tracer()
    with tracer.span("walk"):
        with tracer.span("logs.read"):
            pass
    (outer, _, _, outer_parent), (inner, _, _, inner_parent) = tracer.spans
    assert (outer, outer_parent, inner, inner_parent) == (
        "walk", None, "logs.read", 0,
    )


def test_day_lines_of_run_and_stream_output():
    first, second = e2e_measure.parse_day_lines(RUN_OUTPUT)
    assert (first.label, first.records) == ("dns-march-03.log", 25303)
    assert first.detected == (
        "sweetiegise.c2", "celestianacu.c1", "spikedabo.c4",
    )
    assert second.detected == ()
    days = e2e_measure.parse_day_lines(STREAM_OUTPUT)
    assert [day.label for day in days] == ["day 11", "day 12"]
    assert days[1].detected == ("khnxkicsldqvbfh.org", "svxdhxqabahbplm.org")


def test_fleet_report_days_come_out_tenant_sorted():
    days = e2e_measure.parse_fleet_report(json.dumps(FLEET_REPORT))
    assert [(d.tenant, d.records) for d in days] == [("t0", 90), ("t1", 70)]
    assert e2e_measure.detections(days) == [
        ("t0", ()), ("t1", ("a.c9", "b.c9")),
    ]


def test_quality_against_truth():
    days = e2e_measure.parse_day_lines(RUN_OUTPUT)
    quality = e2e_measure.score(
        days, {"sweetiegise.c2", "celestianacu.c1", "missing.c3"}
    )
    assert quality.detected == 3
    assert quality.recall == pytest.approx(2 / 3)
    assert quality.false_positives == 1


def test_truth_files_of_each_layout_kind():
    dns = (
        "3/02 case1 hints=10.0.0.1 domains=boot.c1,strap.c2\n"
        "3/03 case1 hints=- domains=live.c3\n"
    )
    assert e2e_inputs.parse_truth(dns, first_date=3) == {"live.c3"}
    assert e2e_inputs.parse_truth(dns) == {"boot.c1", "strap.c2", "live.c3"}
    enterprise = "days=10,11 campaign011 hosts=h1,h2 domains=a.ru,b.org\n"
    assert e2e_inputs.parse_truth(enterprise, first_date=3) == {
        "a.ru", "b.org",
    }
    shared = "3/02 t0 hosts=h1 domains=x.c9,y.c9\nct_siblings t1 domains=z.c9\n"
    assert e2e_inputs.parse_truth(shared) == {"x.c9", "y.c9", "z.c9"}


def _fake_layout(root: Path) -> None:
    root.mkdir()
    (root / "dns-march-01.log").write_text(
        "1.000 10.0.0.1 A ext.c1 1.2.3.4\n"
        "2.000 10.0.0.1 TXT ext.c1 -\n"
        "3.000 10.0.0.2 A printer.int.c0 10.9.9.9\n"
        "4.000 10.0.0.3 A other.c2 -\n"
    )
    (root / "proxy-march-01.log").write_text(
        "1.0\t0\thost1\tGET\texample.com\t/\t-\t200\t-\t-\n"
        "2.0\t0\thost1\tGET\t93.184.216.34\t/\t-\t200\t-\t-\n"
    )
    (root / "ground_truth.txt").write_text("3/01 case1 domains=ext.c1\n")


def test_manifest_round_trip_and_tamper_detection(tmp_path):
    layout = tmp_path / "layout"
    _fake_layout(layout)
    key = {"workload": "unit", "seed": 1, "size": {}}
    manifest = e2e_inputs.build_manifest(layout, key)
    assert manifest["records"] == 6
    assert manifest["files"]["dns-march-01.log"]["expected_events"] == 2
    assert manifest["files"]["proxy-march-01.log"]["expected_events"] == 1
    assert "records" not in manifest["files"]["ground_truth.txt"]
    (layout / e2e_inputs.MANIFEST_NAME).write_text(json.dumps(manifest))

    assert e2e_inputs.verify_manifest(layout, key) == manifest
    assert e2e_inputs.verify_manifest(layout, {**key, "seed": 2}) is None
    (layout / "ground_truth.txt").write_text("3/01 case1 domains=evil.c1\n")
    assert e2e_inputs.verify_manifest(layout, key) is None
    assert e2e_inputs.build_manifest(layout, key)["input_digest"] != (
        manifest["input_digest"]
    )


def test_server_queries_are_not_expected_events(tmp_path):
    _fake_layout(tmp_path / "t0")
    assert e2e_inputs.count_events(
        tmp_path / "t0" / "dns-march-01.log", frozenset({"10.0.0.3"})
    ) == (4, 1)


def test_setup_layout_keeps_the_shape_and_cuts_the_logs(tmp_path):
    layout = tmp_path / "layout"
    _fake_layout(layout)
    (layout / "dns-march-01.log").write_text("1.0 h A d.c1 -\n" * 500)
    e2e_inputs.write_setup_layout(layout, tmp_path / "minimal")
    cut = (tmp_path / "minimal" / "dns-march-01.log").read_text()
    assert cut.count("\n") == e2e_inputs.SETUP_LINES
    assert (tmp_path / "minimal" / "ground_truth.txt").read_text() == (
        layout / "ground_truth.txt"
    ).read_text()


def test_thinning_takes_whole_series_off_the_busiest_domain():
    popular = [
        f"{tick}.000 10.0.0.{host} A busy.c1 1.2.3.4\n"
        for tick in range(3) for host in range(10, 40)
    ]
    campaign = ["9.000 10.0.0.39 A evil.c2 6.6.6.6\n"]
    lines = popular + campaign
    thinned = e2e_inputs.thin_day(lines, 80, proxy=False)
    assert len(thinned) == 79  # 4 series of 3 records dropped
    assert campaign[0] in thinned
    assert thinned == [line for line in lines if line in set(thinned)]
    kept_hosts = {line.split()[1] for line in thinned if "busy.c1" in line}
    assert len(kept_hosts) == 26
    # Never below the floor, however small the cap.
    floor = e2e_inputs.thin_day(lines, 1, proxy=False)
    assert len({l.split()[1] for l in floor if "busy.c1" in l}) == (
        e2e_inputs.THIN_KEEP_HOSTS
    )
    proxy = [
        f"1.0\t0\thost{host}\tGET\tcdn.com\t/\t-\t200\t-\t-\n"
        for host in range(30)
    ]
    assert len(e2e_inputs.thin_day(proxy, 25, proxy=True)) == 25


def test_expected_days_skip_bootstrap_files_per_tenant():
    workload = e2e_inputs.BY_NAME["fleet-mixed"]
    manifest = {"files": {
        "t0/dns-march-01.log": {"records": 9, "expected_events": 5},
        "t0/dns-march-02.log": {"records": 9, "expected_events": 6},
        "t1/proxy-march-01.log": {"records": 9, "expected_events": 7},
        "t1/proxy-march-02.log": {"records": 9, "expected_events": 8},
        "t1/model.json": {},
    }}
    assert e2e_inputs.expected_days(workload, manifest) == [
        ("t0", 6), ("t1", 8),
    ]


# ---------------------------------------------------------------------------
# BENCHMARK.json against the tables it is generated from
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_spec_and_the_contract():
    document = json.loads((e2e_measure.REPO / "BENCHMARK.json").read_text())
    assert document == e2e_spec.benchmark_spec()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    workloads = [w["name"] for w in document["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    names = workloads + [
        m["name"] for m in document["end_to_end"] + document["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move():
    workloads = {w.name for w in e2e_inputs.WORKLOADS}
    for metric in e2e_spec.PER_LAYER:
        assert metric.moves in e2e_spec.END_TO_END_NAMES, metric.name
        assert metric.on and set(metric.on) <= workloads, metric.name


def test_result_line_has_exactly_the_contract_keys():
    result = {
        "failed": 0, "attempted": 7,
        "metrics": {"cli.import_s": 1.25, "fleet.run_s": None},
    }
    line = json.loads(e2e_run.result_line(result, e2e_spec.PER_LAYER_NAMES))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 7
    assert set(line["metrics"]) == set(e2e_spec.PER_LAYER_NAMES)
    assert line["metrics"]["cli.import_s"] == {"value": 1.25, "unit": "s"}
    assert line["metrics"]["fleet.run_s"]["value"] == 0.0


def _result_set(rps: float, digest: str = "d1") -> dict:
    return {"workloads": {"dns-batch-wide": {
        "input_digest": digest,
        "end_to_end": {"records_per_s": rps, "peak_rss_mb": 200.0,
                       "cpu_s_per_mrec": 8.0, "setup_s": 1.2},
        "recall_floor": 1.0, "false_positives_ceiling": 0,
    }}}


def test_compare_applies_each_metric_bound_in_its_direction():
    lines, ok = e2e_run.compare(_result_set(100_000), _result_set(95_000))
    assert ok and "inside" in lines[1] and "-5.0%" in lines[1]
    lines, ok = e2e_run.compare(_result_set(100_000), _result_set(70_000))
    assert not ok and "OUTSIDE" in lines[1]
    # Faster is never outside, however large the change.
    assert e2e_run.compare(_result_set(100_000), _result_set(300_000))[1]


def test_compare_refuses_different_inputs():
    lines, ok = e2e_run.compare(
        _result_set(100_000), _result_set(100_000, digest="d2")
    )
    assert not ok and "not comparable" in lines[1]
