"""Streaming engine throughput: events/sec and per-event latency vs batch.

Not a paper figure -- this bench prices the engine's intra-day
visibility.  At three world scales it measures, on the same engine:

* batch: a day fed through ``ingest_lines`` (``INGEST_CHUNK``-row
  polls) and closed by ``rollover()``, what ``repro-detect run`` does
  per file (aggregate, rare extraction, automation test, belief
  propagation);
* streaming: the same day consumed in micro-batches with a scoring
  round per batch (the minutes-not-hours operating point).

Batch amortizes everything over one pass, so raw events/sec favors it;
the streaming column buys bounded detection latency, and the `detect
parity` column shows it costs nothing in outcome.  A third pass per
scale repeats the streaming run with a live
:class:`~repro.obs.metrics.MetricsRegistry` to price the observability
plane: detections must match the uninstrumented run exactly, the
overhead percentage is recorded, and the registry snapshot's per-stage
timing breakdown rides along.  ``STREAMING_BENCH_SMOKE=1`` keeps only
the smallest scale with a single timing run -- the CI ingest-stage
smoke, gating on detection parity and the presence of the stage
breakdown rather than on timings.  Results go to
``benchmarks/out/streaming_throughput.json`` (plus the usual rendered
table) for EXPERIMENTS.md.
"""

from __future__ import annotations

import gc
import json
import os
import time
from statistics import median

from conftest import OUT_DIR, save_output

from repro.eval import render_table
from repro.logs import format_dns_line
from repro.obs.metrics import MetricsRegistry
from repro.streaming import StreamingDetector
from repro.synthetic import generate_lanl_dataset
from repro.synthetic.lanl import LanlConfig

SMOKE = os.environ.get("STREAMING_BENCH_SMOKE", "") not in ("", "0")
SCALES = (
    ("small", LanlConfig(seed=7, n_hosts=40, bootstrap_days=2)),
    ("medium", LanlConfig(seed=7, n_hosts=100, bootstrap_days=2)),
    ("large", LanlConfig(seed=7, n_hosts=220, bootstrap_days=2,
                         browsing_visits_per_host=9)),
)
if SMOKE:
    SCALES = SCALES[:1]
MICRO_BATCH = 500
#: best-of-N timing per arm (arms interleaved) -- see the overhead
#: measurement note in ``test_streaming_throughput``.  Odd so the
#: paired-ratio median is a real sample, not an interpolation.  The
#: CI smoke keeps one run: it gates on parity and the stage breakdown,
#: not on the (noise-dominated) single-run numbers.
TIMING_RUNS = 1 if SMOKE else 5


def _bootstrap(dataset, metrics=None) -> StreamingDetector:
    detector = StreamingDetector(
        internal_suffixes=dataset.internal_suffixes,
        server_ips=dataset.server_ips,
        metrics=metrics,
    )
    detector.ingest_lines(map(format_dns_line, dataset.day_records(1)))
    detector.rollover(detect=False)
    return detector


def _stream_day(dataset, lines, metrics=None):
    """One streaming pass over a day: micro-batches, score per batch.

    Reads the day's log lines through
    :meth:`ReductionFunnel.read_lines` -- the function ``repro-detect
    stream`` itself calls per file -- so the number is the CLI's hot
    path, parsing included; detections are asserted equal to the batch
    pass over the same lines.  Returns ``(elapsed,
    per_event_latencies, streamed, report)``.
    """
    detector = _bootstrap(dataset, metrics)
    latencies = []
    streamed = 0
    # Collect garbage from prior passes so a major collection from
    # *their* allocations cannot land inside this timed region (the
    # interleaved best-of-N runs otherwise cross-contaminate).
    gc.collect()
    start = time.perf_counter()
    for batch in detector.funnel.read_lines(lines, MICRO_BATCH):
        t0 = time.perf_counter()
        detector.submit(batch)
        detector.poll()
        detector.score()
        latencies.append((time.perf_counter() - t0) / len(batch))
        streamed += len(batch)
    report = detector.rollover()
    elapsed = time.perf_counter() - start
    return elapsed, latencies, streamed, report, detector


def _batch_day(dataset, lines) -> tuple[float, set, int]:
    """One day through ``ingest_lines``, timed: parse + reduce,
    aggregate, detect (what ``repro-detect run`` does per file)."""
    detector = _bootstrap(dataset)
    gc.collect()
    start = time.perf_counter()
    detector.ingest_lines(lines)
    report = detector.rollover()
    elapsed = time.perf_counter() - start
    return elapsed, set(report.detected), report.records


def test_streaming_throughput():
    rows = []
    results = []
    for name, config in SCALES:
        dataset = generate_lanl_dataset(config)
        lines = [format_dns_line(r) for r in dataset.day_records(2)]

        # Whole-day reference (history bootstrapped identically).
        batch_elapsed, batch_detected, n_events = _batch_day(dataset, lines)

        # Streaming: micro-batches with a scoring round per batch.
        # Both arms (uninstrumented / live registry) run N times with
        # the arms interleaved, taking the best of each for the
        # throughput columns -- the observability overhead is ~1%,
        # well under single-run scheduler noise, so anything less
        # reports spurious negative overheads.  The overhead itself is
        # the *median of the per-attempt paired ratios*: the two arms
        # of one attempt run back to back and share whatever load the
        # (single-vCPU) box is under, so the ratio cancels drift that
        # independent best-of-N minima cannot.
        stream_elapsed = on_elapsed = float("inf")
        latencies = streamed = report = detector = None
        metrics_parity = True
        ratios = []
        for attempt in range(TIMING_RUNS):
            elapsed, lat, n_streamed, rep, det = _stream_day(
                dataset, lines
            )
            if attempt == 0:
                latencies, streamed, report, detector = (
                    lat, n_streamed, rep, det
                )
            stream_elapsed = min(stream_elapsed, elapsed)
            registry = MetricsRegistry()
            elapsed_on, _, _, on_report, _ = _stream_day(
                dataset, lines, metrics=registry
            )
            if elapsed_on < on_elapsed:
                # Stage breakdown from the best instrumented attempt,
                # so the reported split matches the reported total.
                on_elapsed = elapsed_on
                stage_seconds = registry.snapshot().timings()
            ratios.append(elapsed_on / elapsed)
            run_parity = list(on_report.detected) == list(
                (rep if attempt else report).detected
            )
            metrics_parity = metrics_parity and run_parity
            assert run_parity, (on_report.detected, report.detected)

        assert streamed == n_events
        verdict_stats = detector.verdict_stats.as_dict()
        parity = set(report.detected) == batch_detected
        assert parity, (report.detected, batch_detected)
        overhead_pct = (median(ratios) - 1.0) * 100.0

        latencies.sort()
        p50 = latencies[len(latencies) // 2] * 1e6
        p99 = latencies[min(len(latencies) - 1,
                            int(len(latencies) * 0.99))] * 1e6
        batch_eps = n_events / batch_elapsed
        stream_eps = n_events / stream_elapsed
        rows.append((
            name, n_events,
            f"{batch_eps:,.0f}", f"{stream_eps:,.0f}",
            f"{p50:.1f}", f"{p99:.1f}",
            "yes" if parity else "NO",
            f"{overhead_pct:+.1f}%",
        ))
        results.append({
            "scale": name,
            "hosts": config.n_hosts,
            "events": n_events,
            "micro_batch": MICRO_BATCH,
            "cpu_count": os.cpu_count(),
            "batch_events_per_sec": batch_eps,
            "stream_events_per_sec": stream_eps,
            # Ingest-stage rate from the instrumented arm's span sum:
            # how fast the columnar path folds events into the window,
            # excluding generation and scoring.
            "ingest_events_per_sec": (
                n_events / stage_seconds["stream_ingest"]
                if stage_seconds.get("stream_ingest")
                else None
            ),
            "stream_event_latency_p50_us": p50,
            "stream_event_latency_p99_us": p99,
            "batch_elapsed_sec": batch_elapsed,
            "stream_elapsed_sec": stream_elapsed,
            "detect_parity": parity,
            # The observability plane, priced: same day with a live
            # registry, identical detections required.
            "metrics_overhead_pct": overhead_pct,
            "metrics_parity": metrics_parity,
            "stage_seconds": stage_seconds,
            # Period-aware verdict cache: how many series re-tests the
            # streaming engine avoided (short series, on-period beacons)
            # or served incrementally instead of rebuilding.
            "verdict_cache": verdict_stats,
        })

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "streaming_throughput.json").write_text(
        json.dumps(results, indent=1) + "\n"
    )
    save_output(
        "streaming_throughput",
        render_table(
            ("scale", "events", "batch ev/s", "stream ev/s",
             "lat p50 us", "lat p99 us", "detect parity", "metrics ovh"),
            rows,
            title=(
                "Streaming engine vs batch pass (one operational day, "
                f"micro-batch={MICRO_BATCH}, scoring round per batch)"
            ),
        ),
    )
