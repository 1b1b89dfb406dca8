"""Parity property tests: columnar/vectorized paths vs legacy scalar.

The columnar hot core (NumPy-backed :class:`repro.profiling.DailyTraffic`,
vectorized timing in :mod:`repro.timing.batch`, batched C&C features)
promises *bit-identical* results to the scalar implementations it
replaced.  These hypothesis tests pin that promise on randomized
inputs, explicitly covering the degenerate shapes the fast paths
special-case: empty series, single-event series, and
duplicate-timestamp series (zero intervals).

Every test here carries the ``parity`` marker (``pytest -m parity``
runs the whole legacy-vs-columnar equivalence group, see
``tests/conftest.py``).
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.domains import subnet_key
from repro.logs.records import Connection, ConnectionBatch
from repro.profiling import DestinationHistory
from repro.profiling.rare import (
    _SMALL_SPAN,
    DOMAIN_MASK,
    PAIR_SHIFT,
    DailyTraffic,
)
from repro.profiling.window import WindowedAggregator
from repro.state import (
    decode_window,
    encode_engine,
    encode_window,
    restore_engine,
)
from repro.streaming import StreamingDetector
from repro.timing.batch import automated_pairs_batch
from repro.timing.detector import AutomationDetector

pytestmark = pytest.mark.parity

# Mixing fine-grained floats with a coarse integer grid makes
# duplicate timestamps (and therefore zero intervals) common instead
# of vanishingly rare; ``min_size=0`` keeps empty and single-event
# series in every strategy's reachable set.
fine_times = st.floats(
    min_value=0.0, max_value=86_400.0, allow_nan=False, allow_infinity=False
)
coarse_times = st.integers(min_value=0, max_value=40).map(float)
timestamp_series = st.lists(
    st.one_of(fine_times, coarse_times), min_size=0, max_size=50
).map(sorted)


class TestVectorizedTimingParity:
    @given(st.lists(timestamp_series, min_size=0, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_automated_pairs_matches_scalar(self, series_list):
        detector = AutomationDetector()
        series = [
            ((f"host{i}", f"d{i}.example"), times)
            for i, times in enumerate(series_list)
        ]
        # The reference is the public per-series definition.
        reference = [
            verdict
            for (host, domain), times in series
            if (verdict := detector.test_series(host, domain, times)).automated
        ]
        assert automated_pairs_batch(detector, series) == reference


# A small pool of hosts/domains makes (host, domain) collisions -- the
# interesting merge cases -- frequent within a 60-event day.
_HOSTS = ("10.1.0.1", "10.1.0.2", "10.1.0.3")
_DOMAINS = ("a.example", "b.example", "c.example", "d.example")
_IPS = ("198.51.100.7", "203.0.113.9", "")

event_rows = st.lists(
    st.tuples(
        st.one_of(fine_times, coarse_times),
        st.sampled_from(_HOSTS),
        st.sampled_from(_DOMAINS),
        st.sampled_from(_IPS),
    ),
    min_size=0,
    max_size=60,
)


def _column_batch(rows) -> ConnectionBatch:
    return ConnectionBatch(
        [r[0] for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
    )


def _assert_same_traffic(left: DailyTraffic, right: DailyTraffic) -> None:
    assert dict(left.series()) == dict(right.series())
    assert left.hosts_by_domain == right.hosts_by_domain
    assert left.domains_by_host == right.domains_by_host
    assert left.resolved_ips == right.resolved_ips


def _assert_rows_match_definition(traffic: DailyTraffic) -> None:
    """The id-level scoring rows, read back through their accessors,
    equal what they are defined as over the string-level day: each
    domain's host row is ``hosts_by_domain[d]`` (and each host's domain
    row ``domains_by_host[h]``) in pair first-appearance order, a
    pair's first contact is the head of ``connection_times``, the
    subnet keys are those of ``resolved_ips[d]``, and the feeds list
    every pair and every novel /24 exactly once."""
    host_names, domain_names = traffic.event_columns()[:2]
    appearance = [pair for pair, _ in traffic.series()]
    for d_id, domain in enumerate(domain_names):
        assert traffic.domain_id(domain) == d_id
        assert traffic.domain_name(d_id) == domain
        hosts = [host_names[h] for h in traffic.host_row(d_id)]
        assert hosts == [h for h, dom in appearance if dom == domain]
        assert set(hosts) == traffic.hosts_by_domain[domain]
        assert traffic.host_count(d_id) == len(hosts)
        for h_id in traffic.host_row(d_id):
            times = traffic.connection_times(host_names[h_id], domain)
            assert traffic.pair_head(h_id, d_id) == times[0] == min(times)
        ips = traffic.resolved_ips.get(domain, ())
        assert traffic.keys24(d_id) == {subnet_key(ip, 24) for ip in ips}
        assert traffic.keys16(d_id) == {subnet_key(ip, 16) for ip in ips}
    for h_id, host in enumerate(host_names):
        domains = [domain_names[d] for d in traffic.domain_row(h_id)]
        assert domains == [dom for h, dom in appearance if h == host]
        assert set(domains) == traffic.domains_by_host[host]
    assert [
        (host_names[pair >> PAIR_SHIFT], domain_names[pair & DOMAIN_MASK])
        for pair in traffic.pair_feed
    ] == appearance
    novel = [(d, key24) for d, key24, _ in traffic.ip_feed]
    assert len(novel) == len(set(novel))
    assert set(novel) == {
        (d, key) for d in range(len(domain_names))
        for key in traffic.keys24(d)
    }
    for d, key24, key16 in traffic.ip_feed:
        assert key16 in traffic.keys16(d)


def _scoring_rows(traffic: DailyTraffic):
    """The scoring rows by name: per domain, its (host, first contact)
    row and its subnet keys."""
    host_names, domain_names = traffic.event_columns()[:2]
    return {
        domain: (
            [
                (host_names[h], traffic.pair_head(h, d))
                for h in traffic.host_row(d)
            ],
            traffic.keys24(d),
            traffic.keys16(d),
        )
        for d, domain in enumerate(domain_names)
    }


class TestColumnarIngestParity:
    @given(
        event_rows,
        st.integers(min_value=1, max_value=9),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_ingest_matches_single_pass(
        self, rows, chunk, batch_first, rng
    ):
        """One bulk ingest == per-record ingest == mixed chunked ingest
        (alternating columnar batches and scalar records) of the rows
        in any other order."""
        whole = DailyTraffic(0)
        whole.ingest([Connection(*row) for row in rows])
        whole.finalize()

        single = DailyTraffic(0)
        for row in rows:
            single.ingest(Connection(*row))
        single.finalize()

        shuffled = list(rows)
        rng.shuffle(shuffled)
        mixed = DailyTraffic(0)
        for index, lo in enumerate(range(0, len(shuffled), chunk)):
            part = shuffled[lo:lo + chunk]
            if batch_first == (index % 2 == 0):
                mixed.ingest(_column_batch(part))
            else:
                for row in part:
                    mixed.ingest(Connection(*row))
        mixed.finalize()

        _assert_same_traffic(whole, single)
        _assert_same_traffic(whole, mixed)
        for traffic in (whole, single, mixed):
            _assert_rows_match_definition(traffic)

    def test_finalize_paths_agree_across_small_span_boundary(self):
        """Spans above ``_SMALL_SPAN`` group via NumPy lexsort, spans
        below via the pure-Python dict pass -- one day built each way
        must be identical."""
        rng = random.Random(20150614)
        n = _SMALL_SPAN + 512
        rows = [
            (
                float(rng.randrange(0, 86_400)),
                rng.choice(_HOSTS),
                rng.choice(_DOMAINS),
                rng.choice(_IPS),
            )
            for _ in range(n)
        ]

        lexsorted = DailyTraffic(0)
        lexsorted.ingest(ConnectionBatch(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
        ))
        lexsorted.finalize()

        grouped = DailyTraffic(0)
        for lo in range(0, n, 256):
            grouped.ingest([Connection(*row) for row in rows[lo:lo + 256]])
        grouped.finalize()

        _assert_same_traffic(lexsorted, grouped)
        _assert_rows_match_definition(lexsorted)
        _assert_rows_match_definition(grouped)

    def test_an_earlier_timestamp_for_a_known_pair_is_a_rewrite(self):
        """Only a chunk that starts before a pair's series head moves
        its first contact, and only that lands in ``rewrite_feed``."""
        traffic = DailyTraffic(0)
        traffic.ingest([
            Connection(100.0, "h1", "a.example"),
            Connection(200.0, "h1", "a.example"),
            Connection(50.0, "h2", "a.example"),
        ])
        traffic.ingest(Connection(300.0, "h1", "a.example"))  # in order
        traffic.ingest([
            Connection(150.0, "h1", "a.example"),  # behind the tail only
            Connection(10.0, "h2", "a.example"),   # ahead of the head
        ])
        d_id = traffic.domain_id("a.example")
        h1, h2 = traffic.host_row(d_id)
        assert traffic.rewrite_feed == [(h2 << PAIR_SHIFT) | d_id]
        assert traffic.pair_head(h1, d_id) == 100.0
        assert traffic.pair_head(h2, d_id) == 10.0
        assert len(traffic.pair_feed) == 2
        _assert_rows_match_definition(traffic)

    @given(event_rows, st.integers(min_value=1, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_window_round_trip_keeps_the_rows(self, rows, chunk):
        """``encode_window`` -> ``decode_window`` rebuilds the same rows,
        series heads and subnet keys through the load/finalize route."""
        live = WindowedAggregator(0, DestinationHistory())
        for lo in range(0, len(rows), chunk):
            live.ingest([Connection(*row) for row in rows[lo:lo + chunk]])
        restored = WindowedAggregator(5, DestinationHistory())
        decode_window(
            restored, json.loads(json.dumps(encode_window(live)))
        )
        assert restored.day == restored.traffic.day == 0
        _assert_rows_match_definition(restored.traffic)
        assert _scoring_rows(restored.traffic) == _scoring_rows(live.traffic)
        assert restored.traffic.pair_feed == live.traffic.pair_feed


# Two hosts beaconing on a 600 s period: a multi-host C&C domain, so
# every drawn day closes with a seeded belief propagation, not an idle
# rollover.
_BEACON_ROWS = [
    (600.0 * tick + offset, host, "beacon.example", "")
    for host, offset in ((_HOSTS[0], 7.0), (_HOSTS[1], 31.0))
    for tick in range(24)
]


def _order_free_document(detector) -> str:
    """The engine's checkpoint document with the window's events as
    sorted per-pair series.  The document itself holds them as columns
    in arrival order (and name tables in first-appearance order), which
    is exactly what the drawn rounds shuffle."""
    document = encode_engine(detector)
    window = dict(document["window"])
    for key in ("hosts", "domains", "host_index", "domain_index",
                "timestamps"):
        del window[key]
    restored = restore_engine(document).window.traffic
    window["series"] = sorted(restored.series())
    return json.dumps({**document, "window": window}, sort_keys=True)


def _day_outcome(rounds):
    """Mid-day document, rollover report and next-day document of a
    fresh engine fed ``rounds`` (each a list of submissions followed by
    one ``poll()``)."""
    detector = StreamingDetector()
    for submissions in rounds:
        for submission in submissions:
            detector.submit(submission)
        detector.poll()
    mid_day = _order_free_document(detector)
    report = detector.rollover()
    return (
        mid_day,
        (
            report.day,
            report.records,
            report.rare_domains,
            report.cc_domains,
            report.detected,
            [
                (d.domain, d.iteration, d.reason, d.score)
                for d in report.bp_result.detections
            ],
        ),
        _order_free_document(detector),
    )


class TestSubmitPollOrderInvariance:
    @given(event_rows, st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_shuffled_rounds_match_one_whole_day_submit(self, rows, rng):
        """A day's rows in any order, cut into any ``submit``/``poll``
        rounds (columnar and scalar submissions mixed), close to the
        same report and the same checkpoint documents as one whole-day
        submit: what ``--batch-size`` independence rests on, and why
        the engine needs nothing between reader and window but a list."""
        rows = _BEACON_ROWS + rows
        shuffled = list(rows)
        rng.shuffle(shuffled)
        rounds, position = [], 0
        while position < len(shuffled):
            submissions = []
            for _ in range(rng.randint(1, 3)):
                part = shuffled[position:position + rng.randint(1, 9)]
                position += len(part)
                submissions.append(
                    _column_batch(part) if rng.random() < 0.5
                    else [Connection(*row) for row in part]
                )
            rounds.append(submissions)
        assert _day_outcome(rounds) == _day_outcome([[_column_batch(rows)]])


# ---------------------------------------------------------------------------
# DNS log text -> column batches (the route every CLI verb takes)
# ---------------------------------------------------------------------------

_SUFFIXES = ("int.c0",)
_SERVERS = frozenset({"10.1.0.250"})
def _mostly(common, rare, one_in: int):
    """``common`` draws, with a ``rare`` one about every ``one_in``
    (``one_of`` over repeated strategies does not weight them)."""
    return st.tuples(common, rare, st.integers(1, one_in)).map(
        lambda drawn: drawn[1] if drawn[2] == one_in else drawn[0]
    )


_times = _mostly(
    st.one_of(
        st.integers(min_value=86_390, max_value=86_410).map(str),
        st.floats(min_value=86_399.0, max_value=86_401.0).map(repr),
        st.sampled_from(["0", "172800.5", "1e5"]),
    ),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "12:30", "x"]),
    one_in=12,
)
_line_fields = st.tuples(
    _times,
    _mostly(st.sampled_from(_HOSTS), st.just("10.1.0.250"), one_in=8),
    _mostly(
        st.just("A"),
        st.sampled_from(["AAAA", "TXT", "PTR", "ANY", "a"]),
        one_in=5,
    ),
    st.sampled_from([
        "evil.c3", "EVIL.C3", "evil.c3.", "x.y.evil.c3", "Www.Evil.C3.",
        "other.c5", "b.other.c5", "c3", "notint.c0",
        "printer.int.c0", "PRINTER.INT.C0.", "int.c0",
    ]),
    st.sampled_from(["-", "198.51.100.7", "203.0.113.9"]),
)
_soup_lines = _mostly(
    st.tuples(_line_fields, st.sampled_from([" ", "  ", "\t"])).map(
        lambda pair: pair[1].join(pair[0]) + "\n"
    ),
    # Wrong field counts, blank lines, binary trash.
    st.one_of(
        _line_fields.map(lambda fields: " ".join(fields[:3])),
        _line_fields.map(lambda fields: " ".join(fields) + " extra"),
        st.sampled_from(["", "\n", "   \t ", "\x00\x01 binary trash", "-"]),
    ),
    one_in=6,
)


def _nonzero(table):
    """``{step: {day: value}}`` without empty days (the production
    funnel pre-creates a day's four step entries, the oracle does not)."""
    return {
        step: {day: value for day, value in per_day.items() if value}
        for step, per_day in table.items()
        if any(per_day.values())
    }


class TestDnsColumnRoute:
    @given(
        st.lists(_soup_lines, max_size=60),
        st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
    )
    @settings(max_examples=150, deadline=None)
    def test_read_lines_matches_scalar_oracle(self, lines, batch_size):
        from dns_oracle import reduce_lines

        from repro.logs import ReductionFunnel

        funnel = ReductionFunnel(_SUFFIXES, _SERVERS, fold_level=2)
        batches = list(funnel.read_lines(lines, batch_size))
        oracle = reduce_lines(lines, _SUFFIXES, _SERVERS, fold_level=2)

        events = [
            row
            for batch in batches
            for row in zip(
                batch.timestamps, batch.hosts, batch.domains,
                batch.resolved_ips,
            )
        ]
        assert events == oracle.events
        assert all(batches), "the route never yields an empty batch"
        if batch_size is not None:
            assert [len(b) for b in batches[:-1]] == (
                [batch_size] * (len(batches) - 1)
            )
        else:
            assert len(batches) <= 1

        stats = funnel.stats
        assert stats.malformed == oracle.malformed
        assert _nonzero(stats.domains) == _nonzero(oracle.domains)
        assert _nonzero(stats.records) == _nonzero(oracle.records)
        non_blank = sum(1 for line in lines if line.strip())
        assert non_blank == stats.malformed + sum(
            stats.record_counts("all").values()
        )

        # Same grouped digest -- pair, chunk, domain and first-seen-IP
        # order -- as the oracle's events ingested one object at a time.
        columnar = DailyTraffic(0).ingest(batches)
        scalar = DailyTraffic(0).ingest(
            [Connection(*event) for event in oracle.events]
        )
        assert columnar == scalar

    @given(st.lists(_soup_lines, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_in_memory_records_take_the_same_route(self, lines):
        """``read_records`` / ``reduce`` over parsed records == the
        file route over the lines they were parsed from."""
        from repro.logs import ReductionFunnel, parse_dns_log

        by_line = ReductionFunnel(_SUFFIXES, _SERVERS)
        by_record = ReductionFunnel(_SUFFIXES, _SERVERS)
        by_reduce = ReductionFunnel(_SUFFIXES, _SERVERS)
        records = list(parse_dns_log(lines))
        expected = list(by_line.read_lines(lines))
        assert list(by_record.read_records(records)) == expected
        kept = list(by_reduce.reduce(records))
        assert [r.timestamp for r in kept] == [
            t for batch in expected for t in batch.timestamps
        ]
        assert all(r in records for r in kept)
        for funnel in (by_record, by_reduce):
            assert funnel.stats.domains == by_line.stats.domains
            assert funnel.stats.records == by_line.stats.records


# ---------------------------------------------------------------------------
# Proxy log text -> column batches (stream --pipeline enterprise, fleet)
# ---------------------------------------------------------------------------

def _proxy_resolver():
    """Leases that overlap, abut and leave gaps, plus a static entry."""
    from repro.logs import DhcpLease, IpResolver, VpnSession

    return IpResolver(
        [
            DhcpLease("10.9.0.1", "alpha", 86_000.0, 86_400.0),
            VpnSession("10.9.0.1", "beta", 86_300.0, 86_500.0),
            DhcpLease("10.9.0.1", "gamma", 86_500.0, 90_000.0),
            DhcpLease("10.9.0.2", "delta", 0.0, 86_400.0),
        ],
        static_map={"10.9.0.3": "printer"},
    )


_PROXY_SOURCES = ("10.9.0.1", "10.9.0.2", "10.9.0.3", "host7")
_proxy_destinations = st.sampled_from([
    "evil.ru", "EVIL.RU", "evil.ru.", "cdn.Evil.ru", "a.b.news.com",
    "news.com", "localhost", "-", "bad domain.com",
    # IP literals and their near misses.
    "93.184.216.34", "1.2.3.4.", "1.2.3", "1.2.3.256", "::1",
    "fe80::1%eth0", "2001:db8::ff", "dead:beef", "host:8080", "4chan.org7",
])
_proxy_agents = st.sampled_from(
    ["-", "Corp/36.1", "Corp/36.1", "Backdoor/1.55", "Mozilla/5.0 (X11) x"]
)
_proxy_fields = st.tuples(
    _mostly(
        st.one_of(
            st.integers(min_value=86_290, max_value=86_510).map(str),
            st.floats(min_value=86_399.0, max_value=86_401.0).map(repr),
        ),
        st.sampled_from(["nan", "inf", "-inf", "1e999", "12:30", "", " "]),
        one_in=12,
    ),
    _mostly(
        st.sampled_from(["0", "0", "0", "-5", "5.5", "1e-2", "-0.0"]),
        st.sampled_from(["nan", "inf", "+2h", ""]),
        one_in=15,
    ),
    st.sampled_from(_PROXY_SOURCES),
    st.sampled_from(["GET", "POST"]),
    _proxy_destinations,
    st.sampled_from(["/", "/a b", "/index.html"]),
    st.sampled_from(["-", "198.51.100.7", "203.0.113.9"]),
    _mostly(
        st.sampled_from(["200", "404", " 301 "]),
        st.sampled_from(["2xx", "200.0", "", "nan"]),
        one_in=15,
    ),
    _proxy_agents,
    st.sampled_from(["-", "-", "http://news.com/", "x"]),
)
_proxy_soup = _mostly(
    st.tuples(_proxy_fields, st.sampled_from(["\n", "\n", "", "\r\n"])).map(
        lambda pair: "\t".join(pair[0]) + pair[1]
    ),
    # Wrong field counts, blank lines, binary trash.
    st.one_of(
        _proxy_fields.map(lambda fields: "\t".join(fields[:9])),
        _proxy_fields.map(lambda fields: "\t".join(fields) + "\textra"),
        _proxy_fields.map(lambda fields: " ".join(fields)),
        st.sampled_from(
            ["", "\n", "  \t ", "\t" * 9, "\x00\x01 binary trash", "-"]
        ),
    ),
    one_in=6,
)


def _ua_history():
    from repro.profiling import UserAgentHistory

    history = UserAgentHistory(rare_max_hosts=2)
    history.bootstrap([("Corp/36.1", "alpha"), ("Corp/36.1", "delta")])
    return history


class TestProxyColumnRoute:
    @given(
        st.lists(_proxy_soup, max_size=60),
        st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
    )
    @settings(max_examples=150, deadline=None)
    def test_read_lines_matches_scalar_oracle(self, lines, batch_size):
        from proxy_oracle import batch_rows, event_rows, normalize_lines

        from repro.logs import ProxyNormalizer
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        normalizer = ProxyNormalizer(fold_level=2, metrics=registry)
        batches = list(normalizer.read_lines(
            lines, batch_size, resolver=_proxy_resolver()
        ))
        oracle = normalize_lines(lines, _proxy_resolver(), fold_level=2)

        assert batch_rows(batches) == event_rows(oracle.events)
        assert all(batches), "the route never yields an empty batch"
        if batch_size is not None:
            assert [len(b) for b in batches[:-1]] == (
                [batch_size] * (len(batches) - 1)
            )
        else:
            assert len(batches) <= 1

        counters = registry.snapshot().counters
        kept = len(oracle.events)
        assert {k: v for k, v in counters.items() if v} == {
            name: float(count)
            for name, count in (
                ("proxy_records_total", kept + oracle.dropped),
                ("proxy_kept_total", kept),
                ('proxy_dropped_total{stage="ip_destination"}', oracle.dropped),
                ("proxy_malformed_total", oracle.malformed),
            )
            if count
        }
        non_blank = sum(1 for line in lines if line.strip())
        assert non_blank == oracle.malformed + oracle.dropped + kept

        # Same grouped digest and the same HTTP-context state as the
        # oracle's events ingested one object at a time.
        col_ua, obj_ua = _ua_history(), _ua_history()
        columnar, scalar = DailyTraffic(0), DailyTraffic(0)
        assert columnar.ingest(
            batches, ua_is_rare=col_ua.is_rare, ua_stage=col_ua.stage
        ) == scalar.ingest(
            oracle.events, ua_is_rare=obj_ua.is_rare, ua_stage=obj_ua.stage
        )
        _assert_same_traffic(columnar, scalar)
        assert columnar.no_referer_hosts == scalar.no_referer_hosts
        assert columnar.rare_ua_hosts == scalar.rare_ua_hosts
        assert col_ua._pending == obj_ua._pending
        assert list(col_ua._pending) == list(obj_ua._pending)

    @given(st.lists(_proxy_soup, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_in_memory_records_take_the_same_route(self, lines):
        """``read_records`` over parsed records == the file route over
        the lines those records format to."""
        from repro.logs import (
            ProxyNormalizer,
            format_proxy_line,
            parse_proxy_log,
        )

        # Through the formatter once first: it rounds to milliseconds
        # and writes "-" for blanks, so what is compared round-trips.
        records = list(parse_proxy_log(
            map(format_proxy_line, parse_proxy_log(lines))
        ))
        by_record = list(ProxyNormalizer().read_records(
            records, resolver=_proxy_resolver()
        ))
        by_line = list(ProxyNormalizer().read_lines(
            map(format_proxy_line, records), resolver=_proxy_resolver()
        ))
        assert by_record == by_line

    @given(event_rows, st.lists(st.integers(0, 59), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_take_selects_rows_of_every_column(self, rows, picks):
        with_http = ConnectionBatch(
            *(list(column) for column in zip(*rows)),
            [f"ua{i}" for i in range(len(rows))],
            [f"ref{i}" for i in range(len(rows))],
        ) if rows else ConnectionBatch([], [], [], [], [], [])
        picks = [p for p in picks if p < len(rows)]
        for selection in (picks, slice(len(rows) // 2, None)):
            taken = with_http.take(selection)
            want = (
                [list(with_http)[i] for i in selection]
                if isinstance(selection, list)
                else list(with_http)[selection]
            )
            assert list(taken) == want
        bare = ConnectionBatch([1.0], ["h"], ["d.com"], [""])
        assert bare.take([0]) == bare
        assert bare.take([0]).user_agents is None
