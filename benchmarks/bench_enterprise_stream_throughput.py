"""Enterprise (proxy-path) engine: a day in one poll vs micro-batched.

Not a paper figure -- this bench prices the intra-day visibility of the
streaming enterprise engine.  At each world scale one operational day,
as the pre-joined log text a layout ships, goes through
``submit_lines`` -- the route ``stream --pipeline enterprise`` and a
fleet's enterprise tenants take, parsing and normalization included --
twice, on the *same trained system*:

* batch: the whole day in one poll, then ``rollover()`` (aggregate,
  rare extraction, automation test, regression C&C scoring, belief
  propagation, profile commit);
* streaming: micro-batches with a full scoring round per batch, closed
  by the same ``rollover()``.

Both arms start from text and end in the same end of day, so the gap
between them is what the scoring rounds (and the incremental ingest
they need) cost; it buys bounded detection latency (a round every
``MICRO_BATCH`` events), and the parity column shows it changes
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
from repro.logs import format_proxy_line
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
    """One day as a layout's log lines."""
    return [
        format_proxy_line(record) + "\n"
        for record in _prejoined_proxy_records(dataset, day)
    ]


def _warmed_engine(trained, warmup_lines):
    """A fresh copy of the system, one day past its training."""
    engine = StreamingEnterpriseDetector(copy.deepcopy(trained))
    engine.submit_lines(warmup_lines)
    engine.rollover()
    gc.collect()
    return engine


def _batch_arm(trained, warmup_lines, lines):
    """One timed day fed in a single poll: no scoring round."""
    engine = _warmed_engine(trained, warmup_lines)
    start = time.perf_counter()
    engine.submit_lines(lines)
    report = engine.rollover()
    return time.perf_counter() - start, report


def _stream_arm(trained, warmup_lines, lines):
    """One timed streaming day: text micro-batches, score per batch,
    rollover."""
    stream = _warmed_engine(trained, warmup_lines)
    latencies = []
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
        lines = _day_text(dataset, day)
        warmup_lines = _day_text(dataset, day - 1)

        # Both arms run TIMING_RUNS times, interleaved, keeping the
        # best of each -- see the noise note on ``TIMING_RUNS``.
        batch_elapsed = stream_elapsed = float("inf")
        latencies = report = stream = None
        for attempt in range(TIMING_RUNS):
            elapsed_b, batch_report = _batch_arm(trained, warmup_lines, lines)
            batch_elapsed = min(batch_elapsed, elapsed_b)
            elapsed_s, lat, rep, det = _stream_arm(
                trained, warmup_lines, lines
            )
            stream_elapsed = min(stream_elapsed, elapsed_s)
            if attempt == 0:
                latencies, report, stream = lat, rep, det
            parity = rep.detected == batch_report.detected
            assert parity, (rep.detected, batch_report.detected)
            assert rep.records == batch_report.records == len(lines)

        latencies.sort()
        p50 = latencies[len(latencies) // 2] * 1e6
        p99 = latencies[min(len(latencies) - 1,
                            int(len(latencies) * 0.99))] * 1e6
        n_events = report.records
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
                "Enterprise engine from log text: one poll per day vs "
                f"micro-batch={MICRO_BATCH} with a scoring round per batch "
                "(one operational day)"
            ),
        ),
    )
