"""Properties of the intra-day streaming engine's shortcuts.

* **Reachability floor.**  The DNS engine tests a rare (host, domain)
  series only once its domain has the two same-day hosts the LANL C&C
  heuristic needs.  The reference is the same engine with the floor
  forced to 1 -- every stale rare series tested every round, the
  behaviour before the floor existed -- over drawn worlds where a
  domain gains its second host at an arbitrary point: before or after
  it stops being rare, before or after a checkpoint restore.
* **Stale verdicts.**  A scoring round re-tests only the series that
  saw events since the last one, yet the verdicts it hands the C&C
  stage are the day-close route's: ``automated_pairs`` over the
  window's rare series, restricted to domains at the floor -- with the
  real floor and with 1, across a restore at an arbitrary poll.
* **One graph.**  A scoring round reads Algorithm 1's two maps as
  ``traffic.bp_views(window.rare)`` and keeps only a dirty-domain set
  beside them.  The reference is both maps built from scratch
  (``rare_domains_by_host`` over ``extract_rare_domains`` and its
  inverse) and a dirty set modelled from the batches alone, at every
  round of drawn worlds where domains cross the popularity threshold
  and the engine is restored from a checkpoint at an arbitrary poll.
* **Checkpoint = the window's columns.**  ``encode_engine ->
  restore_engine -> encode_engine`` is a fixed point at any micro-batch
  cut, and a restored engine fed the rest of the day writes the same
  next document as the engine that never stopped -- for both pipelines.
* **One iteration budget per chain of warm rounds.**  A day's warm
  rounds are one run of Algorithm 1, so no live list -- before or after
  a mid-chain checkpoint restore, whose ``prior`` carries the spent
  budget -- holds more similarity labels than one cap allows, however
  many rounds the batch size cuts the day into.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from document_files import reloaded, written
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LANL_CONFIG, RarityConfig
from repro.logs.records import Connection
from repro.profiling.rare import extract_rare_domains, rare_domains_by_host
from repro.state import encode_engine, restore_engine
from repro.streaming import (
    StreamingDetector,
    StreamingEnterpriseDetector,
    WarmStartConfig,
)
from repro.synthetic import LanlConfig, generate_lanl_dataset

pytestmark = pytest.mark.parity

_HOSTS = [f"10.0.0.{n}" for n in range(1, 7)]
_DOMAINS = [f"svc{n}.example.c1" for n in range(5)]
#: Popular at four hosts, so a six-host world flips domains out of the
#: rare set mid-day.
_CONFIG = dataclasses.replace(
    LANL_CONFIG, rarity=RarityConfig(fold_level=3, unpopular_max_hosts=4)
)

# One host beaconing to one domain: periods 600 and 607 are "in sync"
# for the multi-host heuristic (within 10 s), 300 is not.  Starts come
# from a morning and an afternoon band, so a domain's second host often
# arrives after its first host's series has gone quiet.
_beacons = st.tuples(
    st.sampled_from(_HOSTS),
    st.sampled_from(_DOMAINS),
    st.sampled_from([300.0, 600.0, 607.0]),
    st.one_of(st.integers(0, 3000), st.integers(20_000, 23_000)).map(float),
    st.integers(1, 9),
)
_noise = st.tuples(
    st.one_of(st.integers(0, 6000), st.integers(20_000, 26_000)).map(float),
    st.sampled_from(_HOSTS),
    st.sampled_from(_DOMAINS),
)
_days = st.tuples(
    st.lists(_beacons, min_size=2, max_size=9),
    st.lists(_noise, max_size=12),
)
_batch_sizes = st.lists(st.integers(1, 15), min_size=1, max_size=6)


def _day_batches(day, sizes) -> list[list[Connection]]:
    """The day's events in time order (ties and all), cut into
    micro-batches of the drawn sizes, cycled."""
    beacons, noise = day
    rows = list(noise)
    for host, domain, period, start, count in beacons:
        rows += [(start + period * k, host, domain) for k in range(count)]
    rows.sort(key=lambda row: row[0])
    batches, position, turn = [], 0, 0
    while position < len(rows):
        size = sizes[turn % len(sizes)]
        batches.append([
            Connection(timestamp=ts, host=host, domain=domain)
            for ts, host, domain in rows[position:position + size]
        ])
        position += size
        turn += 1
    return batches


def _round_trip(engine):
    """The engine a ``--resume`` would continue with: the document's
    state under the caller's warm-start policy, which a checkpoint does
    not hold (``replay_directory(warm=...)`` sets it the same way)."""
    document = reloaded(encode_engine(engine))
    restored = restore_engine(document)
    restored.warm = engine.warm
    return restored


def _labels(result):
    if result is None:
        return None
    return [(d.domain, d.iteration, d.reason, d.score)
            for d in result.detections]


def _update_key(update):
    return (
        update.day, update.records, len(update.rare_domains),
        update.cc_domains, update.detected, update.mode,
        _labels(update.bp_result),
    )


def _report_key(report):
    return (
        report.day, report.records, report.rare_domains, report.cc_domains,
        report.detected, _labels(report.bp_result),
    )


class _EveryVerdict(StreamingDetector):
    """The engine before the floor: no series is below it."""

    cc_min_hosts = 1


class _Handed(StreamingDetector):
    """Keeps the verdicts each C&C stage call is handed."""

    handed = None

    def _cc_scores(self, traffic, verdicts):
        self.handed = list(verdicts)
        return super()._cc_scores(traffic, verdicts)


class _HandedEvery(_Handed, _EveryVerdict):
    """:class:`_Handed` with no series below the floor."""


def _crowded(day):
    """The day with its domains folded onto two, so a domain often
    crosses the popularity threshold after some of its series were
    found automated."""
    beacons, noise = day
    fold = {domain: _DOMAINS[i % 2] for i, domain in enumerate(_DOMAINS)}
    return (
        [(host, fold[domain], *rest) for host, domain, *rest in beacons],
        [(ts, host, fold[domain]) for ts, host, domain in noise],
    )


class TestStaleVerdicts:
    @given(st.sampled_from([_Handed, _HandedEvery]),
           st.lists(st.one_of(_days, _days.map(_crowded)),
                    min_size=1, max_size=2),
           _batch_sizes,
           st.integers(1, 3), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_round_verdicts_are_the_day_close_verdicts(
        self, engine_class, days, sizes, score_every, restore_at
    ):
        engine = engine_class(config=_CONFIG)
        floor = engine.cc_min_hosts
        assert floor == (1 if engine_class is _HandedEvery else 2)
        polls = 0
        for day in days:
            for batch in _day_batches(day, sizes):
                if polls == restore_at:
                    engine = _round_trip(engine)
                    # A restore builds the class the document names.
                    engine.__class__ = engine_class
                    engine.resync()
                polls += 1
                engine.ingest(batch)
                if polls % score_every:
                    continue
                engine.score()
                traffic = engine.window.traffic
                hosts = traffic.hosts_by_domain
                assert engine.handed == [
                    verdict for verdict in engine.automation.automated_pairs(
                        traffic.rare_series(engine.window.rare)
                    )
                    if len(hosts[verdict.domain]) >= floor
                ]
            engine.rollover()


class TestReachabilityFloor:
    @given(st.lists(_days, min_size=1, max_size=2), _batch_sizes,
           st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_floor_changes_no_update_and_no_report(
        self, days, sizes, restore_at
    ):
        real = StreamingDetector(config=_CONFIG)
        every = _EveryVerdict(config=_CONFIG)
        assert real.cc_min_hosts == 2
        polls = 0
        for day in days:
            for batch in _day_batches(day, sizes):
                if polls == restore_at:
                    real = _round_trip(real)
                    every = _round_trip(every)
                    # A restore builds the class the document names.
                    every.cc_min_hosts = 1
                    every.resync()
                polls += 1
                real.ingest(batch)
                every.ingest(batch)
                assert _update_key(real.score()) == _update_key(every.score())
            assert _report_key(real.rollover()) == _report_key(every.rollover())
        assert every.verdict_stats.unreachable_skips == 0
        assert real.verdict_stats.total <= every.verdict_stats.total

    def test_second_host_restales_the_first_hosts_series(self):
        """The case the floor must not lose: host A's beacon is complete
        (and skipped) long before host B's first event arrives."""
        real = StreamingDetector(config=_CONFIG)
        beacon_a = [
            Connection(timestamp=600.0 * k, host="10.0.0.1",
                       domain="svc0.example.c1")
            for k in range(8)
        ]
        real.ingest(beacon_a)
        assert real.score().cc_domains == frozenset()
        assert real.verdict_stats.unreachable_skips == 1
        assert real.verdict_stats.total == 0
        beacon_b = [
            Connection(timestamp=5000.0 + 603.0 * k, host="10.0.0.2",
                       domain="svc0.example.c1")
            for k in range(5)
        ]
        real.ingest(beacon_b)
        assert real.score().cc_domains == {"svc0.example.c1"}
        assert real.verdict_stats.full_tests == 2


class TestOneGraph:
    @given(st.lists(_days, min_size=1, max_size=2), _batch_sizes,
           st.integers(0, 40), st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_views_and_dirty_set_at_every_round(
        self, days, sizes, restore_at, score_every, score_after_restore
    ):
        engine = StreamingDetector(config=_CONFIG)
        popular = _CONFIG.rarity.unpopular_max_hosts
        polls = 0
        for day in days:
            dirty: set[str] = set()
            for batch in _day_batches(day, sizes):
                if polls == restore_at:
                    engine = _round_trip(engine)
                    dirty = set(engine.window.rare)
                    assert engine.dirty_domains == dirty
                    if score_after_restore:
                        engine.score()
                        dirty = set()
                polls += 1
                rare_before = set(engine.window.rare)
                engine.ingest(batch)
                traffic = engine.window.traffic
                rare = extract_rare_domains(
                    traffic, engine.history, unpopular_max_hosts=popular
                )
                assert engine.window.rare == rare
                touched = {conn.domain for conn in batch}
                dirty |= (rare ^ rare_before) | (touched & rare)
                assert engine.dirty_domains == dirty
                if polls % score_every:
                    continue

                dom_host, host_rdom = traffic.bp_views(engine.window.rare)
                by_host = rare_domains_by_host(traffic, rare)
                assert {
                    host: domains for host, domains in host_rdom.items()
                    if domains
                } == by_host
                by_domain: dict[str, set[str]] = {}
                for host, domains in by_host.items():
                    for domain in domains:
                        by_domain.setdefault(domain, set()).add(host)
                assert dict(dom_host) == by_domain
                assert not any(
                    domain in dom_host or dom_host.get(domain)
                    for domain in traffic.hosts_by_domain
                    if domain not in rare
                )
                engine.score()
                assert engine.dirty_domains == set()
                dirty = set()
            engine.rollover()
            assert engine.dirty_domains == set()


def _documents_after(engine, batches):
    """Feed ``batches`` one poll each; the document after every poll
    and after the day's rollover."""
    documents = []
    for batch in batches:
        engine.ingest(batch)
        documents.append(written(encode_engine(engine)))
    engine.rollover()
    documents.append(written(encode_engine(engine)))
    return documents


class TestCheckpointIsTheWindow:
    @given(_days, _batch_sizes, st.integers(0, 40), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_dns_fixed_point_and_same_next_documents(
        self, day, sizes, cut, score_first
    ):
        batches = _day_batches(day, sizes)
        cut = cut % (len(batches) + 1)
        engine = StreamingDetector(config=_CONFIG)
        for batch in batches[:cut]:
            engine.ingest(batch)
        if score_first:
            engine.score()  # the document then carries a prior
        document = written(encode_engine(engine))
        restored = restore_engine(json.loads(document))
        assert written(encode_engine(restored)) == document
        assert _documents_after(restored, batches[cut:]) == \
            _documents_after(engine, batches[cut:])

    @given(st.integers(0, 5000), st.integers(50, 900))
    @settings(max_examples=8, deadline=None)
    def test_enterprise_fixed_point_and_same_next_documents(
        self, ent_layout, cut, batch_size
    ):
        from repro.intel.whois_db import load_whois_file
        from repro.state import load_detector

        whois = load_whois_file(ent_layout / "whois.json")
        engine = StreamingEnterpriseDetector(
            load_detector(ent_layout / "model.json", whois=whois)
        )
        lines = (ent_layout / "proxy-march-01.log").read_text().splitlines()
        cut = cut % len(lines)
        engine.ingest_lines(lines[:cut])
        engine.score()
        document = written(encode_engine(engine))
        restored = restore_engine(json.loads(document), whois=whois)
        assert written(encode_engine(restored)) == document

        def rest(target):
            documents = []
            for start in range(cut, len(lines), batch_size):
                target.ingest_lines(lines[start:start + batch_size])
                documents.append(written(encode_engine(target)))
            target.rollover()
            documents.append(written(encode_engine(target)))
            return documents

        assert rest(restored) == rest(engine)


#: ``tests/test_streaming.py``'s ``RARE_WORLD``, denser: a dozen hosts
#: whose days are mostly rare domains, so a chain of warm rounds always
#: has a frontier domain clearing ``Ts`` (one budget per *round* let a
#: live list reach 103 non-C&C labels here, against a cap of 5).
_RARE_WORLD = LanlConfig(
    seed=5, n_hosts=12, churn_domains_per_day=150,
    rare_auto_services_per_day=80,
)


class TestOneBudgetPerChain:
    @pytest.fixture(scope="class")
    def rare_world(self):
        # Four operating days after the bootstrap: with two, a batch of
        # 359-400 events at recompute fraction 0.25 left at most five
        # warm rounds once the restore's cold round was paid, too few for
        # the chain guard below.  Four keep every drawn batch size at
        # eight or more.
        dataset = generate_lanl_dataset(_RARE_WORLD)
        return dataset, [
            list(dataset.day_records(march_date))
            for march_date in (1, 2, 3, 4, 5)
        ]

    @given(st.integers(25, 400), st.integers(0, 60),
           st.sampled_from([0.25, 1.01]))
    @settings(max_examples=8, deadline=None)
    def test_no_live_list_outgrows_the_cap(
        self, rare_world, batch_size, restore_at, recompute_fraction
    ):
        """``recompute_fraction`` 1.01 never falls back to a cold round
        for dirtiness, so the round after the restore (every rare
        domain dirty) is warm and runs from the decoded ``prior``."""
        dataset, (bootstrap, *days) = rare_world
        engine = StreamingDetector(
            internal_suffixes=dataset.internal_suffixes,
            server_ips=dataset.server_ips,
            warm=WarmStartConfig(full_recompute_fraction=recompute_fraction),
        )
        engine.submit_raw(bootstrap)
        engine.rollover(detect=False)
        bp = engine.config.belief_propagation
        budget = bp.max_iterations * bp.max_domains_per_iteration
        warm_rounds = 0
        restored = False
        for records in days:
            # The first engine's funnel reads the file to its end, across
            # the swap: its filters hold no per-day state.
            for batch in engine.funnel.read_records(records, batch_size):
                engine.ingest(batch)
                update = engine.score()
                assert len(update.detected) - len(update.cc_domains) <= budget
                if update.bp_result is not None:
                    assert max(
                        d.iteration for d in update.bp_result.detections
                    ) <= bp.max_iterations
                if update.mode == "warm":
                    warm_rounds += 1
                    if warm_rounds > restore_at and not restored:
                        engine = _round_trip(engine)
                        restored = True
                        assert _labels(engine.prior) == _labels(
                            update.bp_result
                        )
            engine.rollover()
        assert warm_rounds > 5
