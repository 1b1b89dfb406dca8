"""Enterprise (proxy-path) streaming throughput vs the batch pipeline.

Not a paper figure -- this bench characterizes the streaming enterprise
engine against ``EnterpriseDetector.process_day``, the batch routine it
must stay faithful to.  At each world scale one operational day is
processed twice by the *same trained system*:

* batch: one ``process_day`` call (aggregate, rare extraction,
  automation test, regression C&C scoring, belief propagation, profile
  commit);
* streaming: the same day as the pre-joined log text a layout ships,
  through ``submit_lines`` -- the route ``stream --pipeline enterprise``
  and a fleet's enterprise tenants take, parsing and normalization
  included -- in micro-batches with a full scoring round per batch,
  closed by the batch-parity ``rollover``.

Batch is handed ready-made ``Connection`` events and amortizes
everything over one pass, so raw events/sec favors it; streaming
starts from text and buys bounded detection latency (a scoring round
every ``MICRO_BATCH`` events), and the parity column shows it costs
nothing in outcome.  ``ENTERPRISE_BENCH_SMOKE=1`` keeps only the smallest
scale for CI.  Results go to
``benchmarks/out/enterprise_stream_throughput.json``.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import time

from conftest import OUT_DIR, save_output

from repro.eval import render_table
from repro.logs import (
    IpResolver,
    format_proxy_line,
    normalize_proxy_records,
    parse_proxy_log,
)
from repro.streaming import StreamingEnterpriseDetector
from repro.synthetic import EnterpriseDatasetConfig, generate_enterprise_dataset
from repro.synthetic.fleet import (
    _prejoined_proxy_records,
    train_enterprise_detector,
)

SMOKE = os.environ.get("ENTERPRISE_BENCH_SMOKE", "") not in ("", "0")
#: Micro-batch size, i.e. the scoring cadence.  Sized to the synthetic
#: day (~10k proxy events): 1000-event batches still give ~10 full
#: scoring rounds per day -- detection latency bounded in minutes, not
#: hours -- without over-paying the fixed per-round costs (verdict
#: refresh, regression re-score, belief propagation) twenty-plus times
#: a day.  Per-event latency is amortized and stays microsecond-scale.
MICRO_BATCH = 1000
#: best-of-N timing per arm (arms interleaved): one day is a ~100ms
#: region, well inside single-vCPU scheduler noise, so single-run
#: numbers mis-rank the arms.  Smoke keeps one run for CI speed.
TIMING_RUNS = 1 if SMOKE else 4

_BASE = dict(
    seed=2014,
    bootstrap_days=9,
    operation_days=4,
    quiet_days=1,
    popular_domains=60,
    churn_domains_per_day=12,
    n_campaigns=20,
)
SCALES = [
    ("small", EnterpriseDatasetConfig(n_hosts=50, **_BASE)),
    ("medium", EnterpriseDatasetConfig(n_hosts=90, **_BASE)),
]
if SMOKE:
    SCALES = SCALES[:1]


def _day_text(dataset, day):
    """One day as a layout's log lines, and the events those lines hold."""
    lines = [
        format_proxy_line(record) + "\n"
        for record in _prejoined_proxy_records(dataset, day)
    ]
    events = list(normalize_proxy_records(parse_proxy_log(lines), IpResolver()))
    return lines, events


def _batch_arm(trained, warmup_conns, day, conns):
    """One timed bulk ``process_day`` on a fresh copy of the system."""
    batch = copy.deepcopy(trained)
    batch.process_day(day - 1, warmup_conns)
    gc.collect()
    start = time.perf_counter()
    batch_result = batch.process_day(day, conns)
    elapsed = time.perf_counter() - start
    return elapsed, batch_result.all_detected_domains()


def _stream_arm(trained, warmup_lines, lines):
    """One timed streaming day: text micro-batches, score per batch,
    rollover."""
    stream = StreamingEnterpriseDetector(copy.deepcopy(trained))
    stream.submit_lines(warmup_lines)
    stream.poll()
    stream.rollover()
    latencies = []
    gc.collect()
    start = time.perf_counter()
    for lo in range(0, len(lines), MICRO_BATCH):
        chunk = lines[lo:lo + MICRO_BATCH]
        t0 = time.perf_counter()
        stream.submit_lines(chunk)
        stream.poll()
        stream.score()
        latencies.append((time.perf_counter() - t0) / len(chunk))
    report = stream.rollover()
    elapsed = time.perf_counter() - start
    return elapsed, latencies, report, stream


def test_enterprise_stream_throughput():
    rows, results = [], []
    for name, config in SCALES:
        dataset = generate_enterprise_dataset(config)
        trained = train_enterprise_detector(dataset)
        day = dataset.config.bootstrap_days + 1
        lines, conns = _day_text(dataset, day)
        warmup_lines, warmup_conns = _day_text(dataset, day - 1)
        assert len(conns) == len(lines)

        # Both arms run TIMING_RUNS times, interleaved, keeping the
        # best of each -- see the noise note on ``TIMING_RUNS``.
        batch_elapsed = stream_elapsed = float("inf")
        batch_detected = latencies = report = stream = None
        for attempt in range(TIMING_RUNS):
            elapsed_b, detected = _batch_arm(
                trained, warmup_conns, day, conns
            )
            batch_elapsed = min(batch_elapsed, elapsed_b)
            elapsed_s, lat, rep, det = _stream_arm(
                trained, warmup_lines, lines
            )
            stream_elapsed = min(stream_elapsed, elapsed_s)
            if attempt == 0:
                batch_detected, latencies, report, stream = (
                    detected, lat, rep, det
                )
            parity = set(rep.detected) == detected
            assert parity, (sorted(rep.detected), sorted(detected))

        parity = set(report.detected) == batch_detected
        assert parity, (sorted(report.detected), sorted(batch_detected))

        latencies.sort()
        p50 = latencies[len(latencies) // 2] * 1e6
        p99 = latencies[min(len(latencies) - 1,
                            int(len(latencies) * 0.99))] * 1e6
        n_events = len(conns)
        batch_eps = n_events / batch_elapsed
        stream_eps = n_events / stream_elapsed
        rows.append((
            name, n_events,
            f"{batch_eps:,.0f}", f"{stream_eps:,.0f}",
            f"{p50:.1f}", f"{p99:.1f}",
            "yes" if parity else "NO",
        ))
        results.append({
            "scale": name,
            "hosts": config.n_hosts,
            "events": n_events,
            "micro_batch": MICRO_BATCH,
            "batch_events_per_sec": batch_eps,
            "stream_events_per_sec": stream_eps,
            "stream_event_latency_p50_us": p50,
            "stream_event_latency_p99_us": p99,
            "batch_elapsed_sec": batch_elapsed,
            "stream_elapsed_sec": stream_elapsed,
            "detect_parity": parity,
            "verdict_cache": stream.verdict_stats.as_dict(),
            "cpu_count": os.cpu_count(),
        })

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "enterprise_stream_throughput.json").write_text(
        json.dumps(results, indent=1) + "\n"
    )
    save_output(
        "enterprise_stream_throughput",
        render_table(
            ("scale", "events", "batch ev/s", "stream ev/s",
             "lat p50 us", "lat p99 us", "detect parity"),
            rows,
            title=(
                "Streaming enterprise engine from log text vs batch "
                "process_day (one operational day, micro-batch="
                f"{MICRO_BATCH}, scoring round per batch)"
            ),
        ),
    )
