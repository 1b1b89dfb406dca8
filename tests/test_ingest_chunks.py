"""A day's file reaches the window in fixed ``INGEST_CHUNK``-row polls.

``run`` and every fleet worker feed a log file through
``StreamingEngineBase.ingest_lines``: the pipeline's reader yields
``INGEST_CHUNK`` rows at a time and each chunk is submitted and polled
before the next is read, so a day holds its aggregate plus one chunk of
raw columns.  These tests pin that the chunking changes nothing a day
reports or persists, that no caller polls more than one chunk, and that
the transient memory of a day does not grow with its file by more than
the day's own event columns do.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from document_files import written

from repro.fleet.workers import _advance_one_day
from repro.intel.whois_db import load_whois_file
from repro.logs import format_dns_line
from repro.runner import run_directory
from repro.state import encode_engine, load_detector
from repro.streaming import StreamingDetector, StreamingEnterpriseDetector
from repro.streaming.engine import INGEST_CHUNK, StreamingEngineBase
from repro.synthetic import generate_lanl_dataset
from repro.testing import SMALL_LANL

#: 90 hosts give every day of this world between 8,192 and 12,288
#: reduced rows: one full chunk and a last one of at most 4,096, so a
#: day's close must not depend on its polls' sizes.
WIDE_LANL = replace(SMALL_LANL, n_hosts=90)


@pytest.fixture(scope="module")
def wide_world():
    return generate_lanl_dataset(WIDE_LANL)


@pytest.fixture(scope="module")
def wide_dir(wide_world, tmp_path_factory) -> Path:
    """Bootstrap day (3/1) + two attack days (3/2, 3/3) on disk."""
    directory = tmp_path_factory.mktemp("widelogs")
    for march_date in (1, 2, 3):
        path = directory / f"dns-march-{march_date:02d}.log"
        path.write_text("".join(
            format_dns_line(record) + "\n"
            for record in wide_world.day_records(march_date)
        ))
    return directory


def _dns_engine(world) -> StreamingDetector:
    return StreamingDetector(
        internal_suffixes=world.internal_suffixes,
        server_ips=world.server_ips,
    )


def _ingest_in_one_poll(engine, lines) -> None:
    """The route ``run`` took before chunking: the whole file as one
    batch, folded in by one poll."""
    engine.submit(engine.reader.read_lines(lines))
    engine.poll()


def _ingest_chunked(engine, lines) -> None:
    engine.ingest_lines(lines)


def _report_fields(report):
    return (
        report.day,
        report.records,
        report.rare_domains,
        report.cc_domains,
        report.detected,
        report.intel_seeded,
        report.ct_seeded,
        None if report.bp_result is None else report.bp_result.detections,
    )


def _days(engine, feed, paths, *, bootstrap: int):
    """Feed each file through ``feed`` and close its day; the document
    after the file's last chunk and the report of every day."""
    out = []
    for index, path in enumerate(paths):
        with path.open() as handle:
            feed(engine, handle)
        document = written(encode_engine(engine))
        report = engine.rollover(detect=index >= bootstrap)
        out.append((document, _report_fields(report)))
    return out


class _PollSpy:
    """Records the events each ``poll()`` folds in."""

    def __init__(self, monkeypatch) -> None:
        self.sizes: list[int] = []
        poll = StreamingEngineBase.poll

        def spy(engine):
            self.sizes.append(engine.events_pending)
            return poll(engine)

        monkeypatch.setattr(StreamingEngineBase, "poll", spy)


def test_the_days_split_into_both_grouping_routes(wide_dir, wide_world):
    """The fixture is what the parity tests below need: more than one
    chunk a day, a last chunk of at most half a full one and a (host,
    domain) series on both sides of a chunk boundary."""
    for path in sorted(wide_dir.glob("dns-*.log")):
        engine = _dns_engine(wide_world)
        with path.open() as handle:
            chunks = list(engine.reader.read_lines(handle, INGEST_CHUNK))
        assert [len(c) for c in chunks[:-1]] == [INGEST_CHUNK]
        assert 0 < len(chunks[-1]) <= 4096
        first, last = (set(zip(c.hosts, c.domains)) for c in chunks)
        assert first & last


@pytest.mark.parity
def test_dns_days_match_one_poll_ingest(wide_dir, wide_world):
    """Rollover reports, the engine document after each file's last
    chunk and the Figure 2 funnel counts are those of the whole file
    fed in one poll."""
    paths = sorted(wide_dir.glob("dns-*.log"))
    whole, chunked = _dns_engine(wide_world), _dns_engine(wide_world)
    want = _days(whole, _ingest_in_one_poll, paths, bootstrap=1)
    got = _days(chunked, _ingest_chunked, paths, bootstrap=1)
    assert got == want
    assert any(fields[4] for _, fields in got[1:]), "nothing detected"
    assert chunked.funnel.stats == whole.funnel.stats


@pytest.mark.parity
def test_proxy_day_matches_one_poll_ingest(mixed_fleet_layout):
    """The fleet layout's enterprise tenant: its first day is 10,667
    proxy rows, one full chunk and one of at most 4,096 rows."""
    tenant = mixed_fleet_layout / "t2"
    whois = load_whois_file(mixed_fleet_layout / "intel" / "whois.json")
    path = tenant / "proxy-march-01.log"

    def engine():
        return StreamingEnterpriseDetector(
            load_detector(tenant / "model.json", whois=whois)
        )

    with path.open() as handle:
        sizes = [
            len(c) for c in engine().reader.read_lines(handle, INGEST_CHUNK)
        ]
    assert sizes[0] == INGEST_CHUNK and 0 < sizes[-1] <= 4096
    want = _days(engine(), _ingest_in_one_poll, [path], bootstrap=0)
    got = _days(engine(), _ingest_chunked, [path], bootstrap=0)
    assert got == want


def _records_of_day(path: Path, world) -> int:
    with path.open() as handle:
        return sum(map(len, _dns_engine(world).reader.read_lines(handle)))


def test_run_directory_polls_one_chunk_at_a_time(
    wide_dir, wide_world, monkeypatch
):
    spy = _PollSpy(monkeypatch)
    reports = run_directory(
        wide_dir,
        bootstrap_files=1,
        internal_suffixes=wide_world.internal_suffixes,
        server_ips=wide_world.server_ips,
    )
    assert len(reports) == 2
    assert max(spy.sizes) == INGEST_CHUNK
    assert sum(spy.sizes) == sum(
        r.records for r in reports
    ) + _records_of_day(wide_dir / "dns-march-01.log", wide_world)


def test_fleet_tenant_day_polls_one_chunk_at_a_time(
    mixed_fleet_layout, monkeypatch
):
    tenant = mixed_fleet_layout / "t2"
    detector = StreamingEnterpriseDetector(load_detector(
        tenant / "model.json",
        whois=load_whois_file(mixed_fleet_layout / "intel" / "whois.json"),
    ))
    spy = _PollSpy(monkeypatch)
    report = _advance_one_day(
        detector, "t2", tenant / "proxy-march-01.log",
        bootstrap=False, seeds=frozenset(),
    )
    assert max(spy.sizes) == INGEST_CHUNK
    assert sum(spy.sizes) == report.records


def _transient_bytes(world, lines, feed) -> int:
    """Traced peak minus the resident day, over one day's ingest."""
    engine = _dns_engine(world)
    gc.collect()
    tracemalloc.start()
    try:
        feed(engine, lines)
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - resident


def test_day_transient_does_not_grow_with_the_file(wide_world):
    """One full chunk of a day against the same file tripled.  The
    one-poll route's transient grows with the raw batch; the chunked
    one grows at most by the copy a capacity doubling of the day's
    event columns makes (16 bytes an event held), never by a chunk."""
    engine = _dns_engine(wide_world)
    lines = [format_dns_line(r) for r in wide_world.day_records(2)]
    (kept,) = engine.reader.read_lines(lines)
    assert len(kept) > INGEST_CHUNK
    # Only rows the funnel keeps, so both files are whole chunks.
    rows = [
        f"{t!r} {h} A {d} {ip or '-'}"
        for t, h, d, ip in zip(
            kept.timestamps, kept.hosts, kept.domains, kept.resolved_ips
        )
    ][:INGEST_CHUNK]
    doubling = 16 * 3 * len(rows)
    once = _transient_bytes(wide_world, rows, _ingest_chunked)
    tripled = _transient_bytes(wide_world, rows * 3, _ingest_chunked)
    assert tripled - once <= doubling
    whole_once = _transient_bytes(wide_world, rows, _ingest_in_one_poll)
    whole_tripled = _transient_bytes(
        wide_world, rows * 3, _ingest_in_one_poll
    )
    assert whole_tripled - whole_once > 4 * doubling
