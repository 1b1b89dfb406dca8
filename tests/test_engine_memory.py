"""A resident engine's heap is one day's worth of data plus the history.

The destination history (Section III-E) is the detector's only state
that must grow with the days it has seen.  These tests run one DNS
engine over a week of generated logs and pin that nothing else does:
after each rollover the reduction funnel keeps distinct-domain sets
for the open day only, and the heap the engine retains from the
second day to the last grows by no more than the history's own
growth plus a stated slack.  Writing a checkpoint costs a fixed
transient, however many events the open day holds.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.logs import format_dns_line
from repro.logs.records import ConnectionBatch
from repro.state import encode_engine, save_json_atomic
from repro.streaming import StreamingDetector
from repro.synthetic import generate_lanl_dataset
from repro.synthetic.lanl import LanlConfig

#: A week of a small world with many one-day destinations, so each day
#: brings ~400 new domains (and their addresses) for a per-day leak to
#: show up in.
CHURN_LANL = LanlConfig(
    seed=42,
    n_hosts=40,
    bootstrap_days=2,
    popular_domains=40,
    churn_domains_per_day=400,
    browsing_visits_per_host=6,
)
DAYS = 7

#: Day-to-day wobble of what one day legitimately holds (the open day's
#: funnel sets and name memo, the next window's tables): ~1,000 names.
SLACK_BYTES = 96 * 1024


def _history_bytes(history) -> int:
    """What the history holds: its tables and its domain names."""
    return (
        sys.getsizeof(history._first_seen)
        + sum(map(sys.getsizeof, history._first_seen))
        + sys.getsizeof(history._committed_days)
    )


@pytest.fixture(scope="module")
def week():
    world = generate_lanl_dataset(CHURN_LANL)
    days = [
        [format_dns_line(record) for record in world.day_records(date)]
        for date in range(1, DAYS + 1)
    ]
    engine = StreamingDetector(
        internal_suffixes=world.internal_suffixes,
        server_ips=world.server_ips,
    )
    retained, history, open_sets = [], [], []
    gc.collect()
    tracemalloc.start()
    try:
        for index, lines in enumerate(days):
            engine.ingest_lines(lines)
            engine.rollover(detect=index > 0)
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
            history.append(_history_bytes(engine.history))
            open_sets.append({
                step: sorted(per_day)
                for step, per_day in engine.funnel.stats.domains.items()
            })
    finally:
        tracemalloc.stop()
    return engine, retained, history, open_sets


def test_funnel_keeps_sets_for_the_open_day_only(week):
    engine, _, _, open_sets = week
    first = engine.funnel.stats.days()[0]
    for index, per_step in enumerate(open_sets):
        assert per_step and all(
            days == [first + index] for days in per_step.values()
        ), (index, per_step)
    # The closed days are still counted.
    assert len(engine.funnel.stats.days()) == DAYS
    assert all(engine.funnel.stats.domain_counts("all").values())


def test_retained_heap_grows_only_with_the_history(week):
    _, retained, history, _ = week
    grown = retained[-1] - retained[1]
    history_grown = history[-1] - history[1]
    assert history_grown > SLACK_BYTES, "the world brings too few new names"
    assert grown <= history_grown + SLACK_BYTES, (
        f"retained heap grew {grown:,} B over days 2-{DAYS}, the history "
        f"{history_grown:,} B"
    )


#: Open-day sizes the checkpoint transient is traced at: a window and
#: four times that window, over the same name tables.
WINDOW_EVENTS = 30_000
#: What writing a checkpoint may allocate beyond what was live before,
#: at any window size: a few column chunks and the name tables.
#: Packing the columns whole would cost ~56 B per event of the window.
CHECKPOINT_BUDGET = 512 * 1024


def test_checkpoint_transient_does_not_grow_with_the_window(tmp_path):
    hosts = [f"10.1.0.{n}" for n in range(40)]
    domains = [f"d{n}.example.c3" for n in range(250)]
    engine = StreamingDetector()
    path = tmp_path / "checkpoint.json"
    transients, done = {}, 0
    for events in (WINDOW_EVENTS, 4 * WINDOW_EVENTS):
        rows = range(done, events)
        engine.submit(ConnectionBatch(
            [float(k) for k in rows],
            [hosts[k % len(hosts)] for k in rows],
            [domains[k // 7 % len(domains)] for k in rows],
            ["198.51.100.7"] * len(rows),
        ))
        engine.poll()
        done = events
        assert engine.window.events_today == events
        gc.collect()
        tracemalloc.start()
        try:
            save_json_atomic(encode_engine(engine), path)
            transients[events] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(
        transient <= CHECKPOINT_BUDGET for transient in transients.values()
    ), f"checkpoint transient by window size: {transients}"
