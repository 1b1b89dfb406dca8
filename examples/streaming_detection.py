#!/usr/bin/env python3
"""Streaming detection: events in, detections out, minutes not days.

Generates a synthetic LANL-style world, bootstraps the destination
history from day one, then feeds an attack day through the streaming
engine in micro-batches -- watching the detections appear *while* the
day's events are still arriving, then checkpointing and restoring the
engine mid-day to show crash recovery, and finally rolling the day
over to confirm the end-of-day report equals what ``run`` -- the same
engine fed each day's file in one poll -- says for the same records.

Run:  python examples/streaming_detection.py
(EXAMPLES_SMOKE=1 shrinks the world for CI smoke runs.)
"""

import os
import tempfile
from pathlib import Path

from repro.runner import run_directory
from repro.state import load_streaming, save_streaming
from repro.streaming import StreamingDetector
from repro.synthetic import LanlConfig, generate_lanl_dataset
from repro.logs import format_dns_line


def main() -> None:
    smoke = os.environ.get("EXAMPLES_SMOKE", "") not in ("", "0")
    config = LanlConfig(seed=7, n_hosts=40 if smoke else 80, bootstrap_days=2)
    print("generating synthetic LANL world ...")
    dataset = generate_lanl_dataset(config)
    truth = dataset.campaign_for_date(2)
    print(f"ground truth for 3/02: {sorted(truth.malicious_domains)}\n")

    detector = StreamingDetector(
        internal_suffixes=dataset.internal_suffixes,
        server_ips=dataset.server_ips,
    )

    # Day 1 builds the destination history (the training period).
    detector.submit_raw(dataset.day_records(1))
    detector.poll()
    detector.rollover(detect=False)
    print(f"bootstrapped history: {len(detector.history)} destinations\n")

    # Day 2 arrives as an event stream: the reduction funnel packs the
    # surviving records into 500-row column batches; score after each.
    batches = detector.funnel.read_records(dataset.day_records(2), 500)
    seen: set[str] = set()
    for i, batch in enumerate(batches):
        detector.ingest(batch)
        update = detector.score()
        new = set(update.detected) - seen
        if new:
            print(
                f"  after {update.events_today:5d} events "
                f"({update.mode:4s} propagation): NEW detections {sorted(new)}"
            )
            seen.update(new)
        if i == 10:
            # Simulate a process restart mid-day.
            with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
                ckpt = Path(f.name)
            save_streaming(detector, ckpt)
            detector = load_streaming(ckpt)
            ckpt.unlink()
            print(f"  -- checkpoint/restore at {detector.window.events_today} "
                  "events; stream continues --")

    report = detector.rollover()
    print(f"\nend-of-day report: C&C={sorted(report.cc_domains)}, "
          f"detected={report.detected}")

    # `run` over the same records: no micro-batches, no scoring rounds,
    # no restart.
    with tempfile.TemporaryDirectory() as tmp:
        for day in (1, 2):
            path = Path(tmp) / f"dns-march-{day:02d}.log"
            with path.open("w") as handle:
                for record in dataset.day_records(day):
                    handle.write(format_dns_line(record) + "\n")
        (batch,) = run_directory(
            tmp,
            bootstrap_files=1,
            internal_suffixes=dataset.internal_suffixes,
            server_ips=dataset.server_ips,
        )
    print(f"whole-day run says: C&C={sorted(batch.cc_domains)}, "
          f"detected={batch.detected}")
    assert batch.detected == report.detected
    print("\nend of day is independent of micro-batching: stream == run")


if __name__ == "__main__":
    main()
