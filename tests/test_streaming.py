"""Tests for the streaming detection engine (repro.streaming).

The load-bearing properties: a day's end-of-day detections do not
depend on how its events were micro-batched (one whole-day poll, as
``run`` feeds it, against 500-event polls with scoring rounds between,
as ``stream`` does -- bulk vs incremental ingest, rescan vs tracker;
``tests/golden_detections.json`` is the cross-check a bug shared by
both cannot pass); a mid-day checkpoint restores to identical final
state; day rollover commits histories exactly once; and warm-start
belief propagation reaches the cold-start fixed point.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LANL_CONFIG
from repro.core.dayloop import detect_day
from repro.logs import format_dns_line
from repro.logs.records import Connection
from repro.profiling.history import DestinationHistory
from repro.profiling.rare import DailyTraffic, extract_rare_domains
from repro.runner import run_directory
from repro.state import load_streaming, save_streaming
from repro.streaming import (
    StreamingDetector,
    WarmStartConfig,
    replay_directory,
)
from repro.streaming.incremental import warm_start_applies
from repro.profiling.window import WindowedAggregator
from repro.synthetic import LanlConfig, generate_lanl_dataset


@pytest.fixture(scope="module")
def log_dir(lanl_dataset, tmp_path_factory) -> Path:
    """Bootstrap day (3/1) + two attack days (3/2, 3/3) on disk."""
    directory = tmp_path_factory.mktemp("streamlogs")
    for march_date in (1, 2, 3):
        path = directory / f"dns-march-{march_date:02d}.log"
        with path.open("w") as handle:
            for record in lanl_dataset.day_records(march_date):
                handle.write(format_dns_line(record) + "\n")
    return directory


def _feed_history(detector, paths) -> None:
    """Fold training-period files into the history (no detection)."""
    for path in paths:
        with path.open() as handle:
            detector.ingest_lines(handle)
        detector.rollover(detect=False)


def _micro_batched(engine, batches) -> None:
    """Feed a day the way ``stream`` does: one poll and one scoring
    round per micro-batch."""
    for batch in batches:
        engine.submit(batch)
        engine.poll()
        engine.score()


def _chunks(events, size=500):
    return (events[i:i + size] for i in range(0, len(events), size))


def _replay_kwargs(lanl_dataset, **extra):
    kwargs = dict(
        bootstrap_files=1,
        pattern="dns-*.log",
        internal_suffixes=lanl_dataset.internal_suffixes,
        server_ips=lanl_dataset.server_ips,
        batch_size=250,
    )
    kwargs.update(extra)
    return kwargs


# ---------------------------------------------------------------------------
# Whole-day poll vs micro-batched replay
# ---------------------------------------------------------------------------

@pytest.mark.parity
class TestBatchParity:
    def test_replay_matches_batch_runner(self, log_dir, lanl_dataset):
        """``run`` (each file in ``INGEST_CHUNK``-row polls, no scoring
        round) against ``stream`` (250-event polls, a scoring round
        after each)."""
        batch = run_directory(
            log_dir,
            bootstrap_files=1,
            pattern="dns-*.log",
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        stream = replay_directory(log_dir, **_replay_kwargs(lanl_dataset))
        assert len(stream.reports) == len(batch) == 2
        for got, want in zip(stream.reports, batch):
            assert got.records == want.records
            assert got.rare_domains == want.rare_domains
            assert got.cc_domains == want.cc_domains
            assert got.detected == want.detected

    def test_replay_detects_campaigns(self, log_dir, lanl_dataset):
        stream = replay_directory(log_dir, **_replay_kwargs(lanl_dataset))
        for report, march_date in zip(stream.reports, (2, 3)):
            truth = lanl_dataset.campaign_for_date(march_date)
            assert set(truth.cc_domains) <= report.cc_domains
            assert set(truth.malicious_domains) <= set(report.detected)

    def test_hinted_rollover_matches_hinted_batch_day(
        self, log_dir, lanl_dataset
    ):
        """SOC-hints mode (III-C, LANL cases 1-3): hint hosts replace
        the day's C&C hits as seeds, identically whether the day
        arrived in whole chunks or micro-batched with no-hint scoring
        rounds between."""
        filters = dict(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        truth = lanl_dataset.campaign_for_date(2)
        assert truth.hint_hosts
        whole = StreamingDetector(**filters)
        _feed_history(whole, [log_dir / "dns-march-01.log"])
        with (log_dir / "dns-march-02.log").open() as handle:
            whole.ingest_lines(handle)
        want = whole.rollover(hint_hosts=truth.hint_hosts)
        stream = StreamingDetector(**filters)
        _feed_history(stream, [log_dir / "dns-march-01.log"])
        with (log_dir / "dns-march-02.log").open() as handle:
            _micro_batched(stream, stream.funnel.read_lines(handle, 500))
        got = stream.rollover(hint_hosts=truth.hint_hosts)
        assert got.detected == want.detected
        assert got.bp_result.detections == want.bp_result.detections
        assert set(truth.hint_hosts) <= got.bp_result.hosts
        # Hints seed hosts, not domains: no label is a seed, and the
        # day's C&C hits are found by Detect_C&C instead.
        assert "seed" not in {d.reason for d in got.bp_result.detections}
        assert set(truth.malicious_domains) <= set(got.detected)

    @pytest.mark.parametrize("pipeline", ["dns", "enterprise"])
    def test_both_pipelines_take_the_same_seeding_keywords(
        self, pipeline, request, log_dir, lanl_dataset
    ):
        """Either engine's close takes hint hosts (LANL cases 1-3) and
        IOC domains from SOC incident reports (the paper's hint mode),
        and times the same stages."""
        if pipeline == "dns":
            engine = StreamingDetector(
                internal_suffixes=lanl_dataset.internal_suffixes,
                server_ips=lanl_dataset.server_ips,
            )
            _feed_history(engine, [log_dir / "dns-march-01.log"])
            with (log_dir / "dns-march-02.log").open() as handle:
                engine.ingest_lines(handle)
            truth = lanl_dataset.campaign_for_date(2)
            hosts, campaign = truth.hint_hosts, set(truth.malicious_domains)
        else:
            dataset = request.getfixturevalue("enterprise_dataset")
            engine = request.getfixturevalue("enterprise_engine")()
            first = dataset.config.bootstrap_days
            engine.ingest(dataset.day_connections(first))
            engine.rollover()
            engine.ingest(dataset.day_connections(first + 1))
            active = next(
                c for c in dataset.campaigns if first + 1 in c.active_days
            )
            hosts, campaign = active.host_names[:1], set(active.domains)
        seed = min(campaign)
        report = engine.rollover(hint_hosts=hosts, soc_seed_domains=[seed])
        assert set(hosts) <= report.bp_result.hosts
        assert set(report.stage_seconds) == {
            "rare", "automation", "cc", "bp", "commit",
        }
        found = set(report.soc_hints.detected_domains)
        assert seed not in found
        assert found & campaign
        assert found <= set(report.detected)
        if pipeline == "dns":
            assert found == campaign - {seed}
            assert report.cc_scores == dict.fromkeys(report.cc_domains, 1.0)

    def test_batch_size_does_not_change_detections(self, log_dir, lanl_dataset):
        small = replay_directory(
            log_dir, **_replay_kwargs(lanl_dataset, batch_size=37)
        )
        large = replay_directory(
            log_dir, **_replay_kwargs(lanl_dataset, batch_size=5000)
        )
        for a, b in zip(small.reports, large.reports):
            assert a.detected == b.detected
            assert a.rare_domains == b.rare_domains

    def test_intra_day_updates_converge_to_day_report(self, log_dir, lanl_dataset):
        updates = []
        stream = replay_directory(
            log_dir, on_update=updates.append, **_replay_kwargs(lanl_dataset)
        )
        # The last scoring round of each day sees the full window, so
        # its detections agree with the end-of-day (batch-parity) pass.
        by_day = {}
        for update in updates:
            by_day[update.day] = update
        for report in stream.reports:
            final = by_day[report.day]
            assert set(final.detected) == set(report.detected)


# ---------------------------------------------------------------------------
# Checkpoint / restore
# ---------------------------------------------------------------------------

class TestCheckpointRestore:
    def test_midday_restore_resumes_to_identical_state(
        self, log_dir, lanl_dataset, tmp_path
    ):
        kwargs = _replay_kwargs(lanl_dataset)
        full = replay_directory(log_dir, **kwargs)

        ckpt = tmp_path / "ckpt.json"
        first = replay_directory(
            log_dir, checkpoint_path=ckpt, max_batches=40, **kwargs
        )
        assert first.interrupted
        second = replay_directory(
            log_dir, checkpoint_path=ckpt, resume=True, **kwargs
        )
        combined = first.reports + second.reports
        assert [r.day for r in combined] == [r.day for r in full.reports]
        for got, want in zip(combined, full.reports):
            assert got.records == want.records
            assert got.rare_domains == want.rare_domains
            assert got.cc_domains == want.cc_domains
            assert got.detected == want.detected

    def test_interrupt_writes_each_batchs_checkpoint_once(
        self, log_dir, lanl_dataset, tmp_path, monkeypatch
    ):
        """Stopping at ``max_batches`` persists that batch -- once, also
        when it lands on a ``checkpoint_every`` multiple (always, at
        the CLI's default of 1)."""
        import repro.state as state

        writes = []
        real = state.save_json_atomic

        def counting(payload, path):
            writes.append(path)
            real(payload, path)

        monkeypatch.setattr(state, "save_json_atomic", counting)
        # 6 batches of 250 stay inside the first file: no rollover write.
        for every, expected in ((1, 6), (2, 3), (4, 2)):
            del writes[:]
            result = replay_directory(log_dir, **_replay_kwargs(
                lanl_dataset, checkpoint_path=tmp_path / "ckpt.json",
                checkpoint_every=every, max_batches=6,
            ))
            assert result.interrupted and result.batches == 6
            assert len(writes) == expected

    def test_snapshot_round_trip_preserves_window(self, lanl_dataset, tmp_path):
        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        records = lanl_dataset.day_records(1)
        half = len(records) // 2
        detector.submit_raw(records[:half])
        detector.poll()
        detector.score()

        path = tmp_path / "snap.json"
        save_streaming(detector, path)
        restored = load_streaming(path)

        assert restored.window.day == detector.window.day
        assert restored.window.events_today == detector.window.events_today
        assert restored.window.rare == detector.window.rare
        assert (
            list(restored.window.traffic.series())
            == list(detector.window.traffic.series())
        )
        assert restored.history._first_seen == detector.history._first_seen
        if detector.prior is not None:
            assert restored.prior.domains == detector.prior.domains
            assert restored.prior.hosts == detector.prior.hosts

        # Both finish the day identically.
        detector.submit_raw(records[half:])
        detector.poll()
        restored.submit_raw(records[half:])
        restored.poll()
        assert detector.rollover().detected == restored.rollover().detected

    def test_rejects_wrong_kind(self, tmp_path):
        from repro.state import StateError, restore_engine

        with pytest.raises(StateError):
            restore_engine(
                {"version": 1, "kind": "detector"}, kind="streaming"
            )

    def test_save_is_atomic(self, tmp_path):
        detector = StreamingDetector()
        path = tmp_path / "ckpt.json"
        save_streaming(detector, path)
        good = path.read_text()
        # A crashed write leaves only the temp file; the checkpoint
        # itself must still hold the previous good document.
        assert not (tmp_path / "ckpt.json.tmp").exists()
        detector.ingest([_conn("h1", "d.c1", 5.0)])
        save_streaming(detector, path)
        assert path.read_text() != good
        assert load_streaming(path).window.events_today == 1

    def test_refuses_snapshot_with_queued_events(self, tmp_path):
        from repro.state import StateError

        detector = StreamingDetector()
        detector.submit([_conn("h1", "d.c1", 5.0)])  # submitted, not polled
        with pytest.raises(StateError, match="queued"):
            save_streaming(detector, tmp_path / "ckpt.json")
        detector.poll()
        save_streaming(detector, tmp_path / "ckpt.json")


# ---------------------------------------------------------------------------
# Day rollover
# ---------------------------------------------------------------------------

class TestRollover:
    def test_commits_histories_exactly_once(self, log_dir, lanl_dataset):
        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        with (log_dir / "dns-march-01.log").open() as handle:
            from repro.logs import parse_dns_log

            detector.submit_raw(parse_dns_log(handle))
        detector.poll()
        domains_today = set(detector.window.traffic.hosts_by_domain)
        assert all(detector.history.is_new(d) for d in domains_today)

        detector.rollover(detect=False)
        assert detector.history.committed_days == frozenset({0})
        assert not any(detector.history.is_new(d) for d in domains_today)
        sizes = len(detector.history)

        # A second rollover (empty day) must not re-stage or re-commit
        # day 0's observations.
        detector.rollover(detect=False)
        assert len(detector.history) == sizes
        assert detector.history.committed_days == frozenset({0, 1})

    def test_rollover_resets_window_and_beliefs(self, lanl_dataset):
        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        detector.submit_raw(lanl_dataset.day_records(1))
        detector.poll()
        detector.score()
        detector.rollover()
        assert detector.window.events_today == 0
        assert detector.window.rare == set()
        assert detector.dirty_domains == set()
        assert detector.prior is None

    def test_rollover_folds_unpolled_events_into_the_closing_day(self):
        """``submit(); rollover()`` files the events under the day being
        closed, not the next one (a snapshot of the same state is
        refused, so silently deferring them was never the contract)."""
        detector = StreamingDetector()
        detector.submit([_conn("h1", "a.c1", 1.0), _conn("h2", "b.c1", 2.0)])
        report = detector.rollover()
        assert (report.day, report.records) == (0, 2)
        assert report.rare_domains == {"a.c1", "b.c1"}
        assert not detector.history.is_new("a.c1")
        assert detector.events_pending == 0
        assert detector.poll() == 0
        assert detector.rollover().records == 0

    def test_history_matches_batch_after_replay(self, log_dir, lanl_dataset):
        """Whole files through the line reader and the same records
        parsed one by one and micro-batched commit the same history."""
        from repro.logs import parse_dns_log

        filters = dict(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        paths = sorted(log_dir.glob("dns-*.log"))
        whole = StreamingDetector(**filters)
        _feed_history(whole, paths[:1])
        for path in paths[1:]:
            with path.open() as handle:
                whole.ingest_lines(handle)
            whole.rollover()

        detector = StreamingDetector(**filters)
        _feed_history(detector, paths[:1])
        for path in paths[1:]:
            with path.open() as handle:
                records = list(parse_dns_log(handle))
            for chunk in _chunks(records):
                detector.submit_raw(chunk)
                detector.poll()
                detector.score()
            detector.rollover()

        assert len(whole.history) > 50
        assert detector.history._first_seen == whole.history._first_seen
        assert detector.history.committed_days == whole.history.committed_days


# ---------------------------------------------------------------------------
# Warm-start belief propagation
# ---------------------------------------------------------------------------

_TOY_SCORES = {"d2": 0.6, "d3": 0.5, "d4": 0.1}


def _toy_similarity(frontier, new_malicious):
    return {domain: _TOY_SCORES.get(domain, 0.0) for domain in frontier}


def _toy_day(edges) -> tuple[DailyTraffic, set[str]]:
    """A day of (host, domain) contacts, every domain rare."""
    traffic = DailyTraffic(0)
    traffic.ingest([_conn(host, domain) for host, domain in edges])
    return traffic, {domain for _, domain in edges}


def _toy_round(traffic, rare, *, cc=frozenset({"d1"}), prior=None):
    """One scoring round the way ``StreamingEngineBase.score`` runs
    it: ``d1`` is the day's C&C hit, the toy scores do the rest."""
    return detect_day(
        traffic, rare, cc=cc, new_scorer=lambda: _toy_similarity,
        config=LANL_CONFIG.belief_propagation, prior=prior,
    ).bp_result


class TestWarmStartBP:
    def test_warm_reaches_cold_fixed_point(self):
        warm_cfg = WarmStartConfig(full_recompute_fraction=0.95)

        # Round 1: partial graph.
        traffic, rare = _toy_day([("h1", "d1"), ("h1", "d2")])
        prior = _toy_round(traffic, rare)
        assert prior.domains == {"d1", "d2"}

        # New events arrive: h2 visits d2 and d3, h3 visits d4.
        arrivals = [("h2", "d2"), ("h2", "d3"), ("h3", "d4")]
        traffic.ingest([_conn(host, domain) for host, domain in arrivals])
        dirty = {domain for _, domain in arrivals}
        rare |= dirty
        assert warm_start_applies(rare, dirty, prior, warm_cfg)
        warm_result = _toy_round(traffic, rare, prior=prior)
        cold_result = _toy_round(traffic, rare)
        assert warm_result.domains == cold_result.domains
        assert warm_result.hosts == cold_result.hosts
        # Same marginals: each non-seed domain keeps its labeling score.
        warm_scores = {d.domain: d.score for d in warm_result.detections}
        cold_scores = {d.domain: d.score for d in cold_result.detections}
        for domain in warm_result.domains - {"d1"}:
            assert warm_scores[domain] == pytest.approx(
                cold_scores[domain], abs=1e-9
            )

    def test_warm_spends_fewer_iterations(self):
        traffic, rare = _toy_day([("h1", "d1"), ("h1", "d2")])
        prior = _toy_round(traffic, rare)
        traffic.ingest([_conn("h2", "d2")])
        warm_result = _toy_round(traffic, rare, prior=prior)
        cold_result = _toy_round(traffic, rare)
        assert warm_result.hosts == cold_result.hosts == {"h1", "h2"}
        # d2 was already labeled in the prior; only the no-op closing
        # iteration runs, instead of re-deriving every label.
        assert warm_result.iterations == 1 < cold_result.iterations

    def test_a_prior_alone_is_enough_to_propagate(self):
        """``detect_day`` runs on seed hosts *or* a prior: a round whose
        C&C set emptied still carries the beliefs forward, and one with
        neither has nothing to do."""
        traffic, rare = _toy_day([("h1", "d1"), ("h1", "d2")])
        prior = _toy_round(traffic, rare)
        carried = _toy_round(traffic, rare, cc=frozenset(), prior=prior)
        assert carried.domains == prior.domains
        assert _toy_round(traffic, rare, cc=frozenset()) is None

    def test_falls_back_when_dirty_fraction_large(self):
        traffic, rare = _toy_day([("h1", "d1")])
        prior = _toy_round(traffic, rare)
        default = WarmStartConfig()
        # 1 of 2 domains dirty = 0.5 > 0.25
        assert not warm_start_applies({"d1", "d2"}, {"d2"}, prior, default)
        # "At least this fraction": 1 of 4 is cold, 1 of 5 is warm.
        crowd = {"d1", "d2", "d3", "d4"}
        assert not warm_start_applies(crowd, {"d2"}, prior, default)
        assert warm_start_applies(crowd | {"d5"}, {"d2"}, prior, default)
        # ... and never without a prior, a rare set or the policy.
        assert not warm_start_applies(crowd | {"d5"}, {"d2"}, None, default)
        assert not warm_start_applies(set(), set(), prior, default)
        assert not warm_start_applies(
            crowd | {"d5"}, set(), prior, WarmStartConfig(enabled=False)
        )

    def test_cc_verdict_retraction_drops_prior(self):
        """A prior C&C belief that stops looking automated must not
        survive as a warm-start seed (verdicts are not monotone)."""
        detector = StreamingDetector(
            warm=WarmStartConfig(full_recompute_fraction=0.99)
        )
        # Two hosts beaconing in sync at 600 s: C&C by the multi-host
        # heuristic.  Background chatter keeps the dirty fraction low.
        beacons = [
            _conn(host, "evil.c1", 600.0 * i)
            for i in range(8) for host in ("h1", "h2")
        ]
        noise = [
            _conn("n1", f"bg{i}.c1", 100.0 + i) for i in range(30)
        ]
        detector.ingest(beacons + noise)
        first = detector.score()
        assert "evil.c1" in first.detected
        assert detector.prior is not None

        # Irregular events break the periodicity for both hosts.
        jitter = [
            _conn(host, "evil.c1", t)
            for t in (130.0, 655.0, 1790.0, 2233.0, 2904.0, 3111.0,
                      3517.0, 4020.0, 4444.0)
            for host in ("h1", "h2")
        ]
        detector.ingest(jitter)
        second = detector.score()
        assert "evil.c1" not in second.detected
        # Matches a cold detector over the identical traffic.
        cold = StreamingDetector()
        cold.ingest(beacons + noise + jitter)
        assert set(second.detected) == set(cold.score().detected)

    def test_falls_back_on_belief_retraction(self):
        edges = [("h1", "d1"), ("h1", "d2")]
        edges += [(f"x{n}", "d4") for n in range(20)]
        traffic, rare = _toy_day(edges)
        prior = _toy_round(traffic, rare)
        assert "d2" in prior.domains
        warm_cfg = WarmStartConfig(full_recompute_fraction=0.95)
        assert warm_start_applies(rare, {"d2"}, prior, warm_cfg)
        # d2 crossed the popularity threshold: the flip is all that is
        # dirty, yet the labeled domain is gone from the rare set.
        assert not warm_start_applies(rare - {"d2"}, {"d2"}, prior, warm_cfg)


# ---------------------------------------------------------------------------
# Day-lived frontier scorer: the per-round update sequence is pinned
# ---------------------------------------------------------------------------

#: A 12-host world whose day is mostly rare domains: ~50 non-idle
#: scoring rounds over two days, warm and cold, with similarity labels.
RARE_WORLD = LanlConfig(
    seed=5, n_hosts=12, churn_domains_per_day=60,
    rare_auto_services_per_day=25,
)
RARE_BATCH = 60


def _update_digest(updates) -> str:
    """Hash of everything a round reports: mode, detections with their
    scores, and the full iteration trace."""
    digest = hashlib.sha256()
    for update in updates:
        result = update.bp_result
        digest.update(repr((
            update.day, update.records, update.mode, tuple(update.detected),
            result and [
                (d.domain, d.iteration, d.reason, d.score)
                for d in result.detections
            ],
            result and [
                (t.iteration, t.cc_detected, t.labeled, t.top_score,
                 t.new_hosts, t.frontier_size)
                for t in result.trace
            ],
        )).encode())
    return digest.hexdigest()[:16]


class TestDayLivedScorer:
    """The digests below were taken from a per-round-fresh scorer (one
    ``IncrementalAdditiveScorer`` per ``score()`` call: ``_round_scorer``
    patched to build a new one every round), not from the day-lived
    scorer they pin: they are the truth, not a sibling run.  Re-pinned
    that way at the commit that made a day's warm rounds one run of
    Algorithm 1 under one iteration cap (carried labels keep their
    iteration, so every digest moved)."""

    PLAIN = "7ec30779802a93de"
    FORCED_COLD = "3f5265722b58bc60"
    RESUMED = "d414ed0953cf67e0"

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        dataset = generate_lanl_dataset(RARE_WORLD)
        directory = tmp_path_factory.mktemp("rareworld")
        for march_date in (1, 2, 3):
            path = directory / f"dns-march-{march_date:02d}.log"
            with path.open("w") as handle:
                for record in dataset.day_records(march_date):
                    handle.write(format_dns_line(record) + "\n")
        kwargs = dict(
            bootstrap_files=1,
            pattern="dns-*.log",
            internal_suffixes=dataset.internal_suffixes,
            server_ips=dataset.server_ips,
            batch_size=RARE_BATCH,
        )
        return directory, dataset, kwargs

    def test_update_sequence_is_pinned(self, world):
        directory, _, kwargs = world
        updates = []
        replay_directory(directory, on_update=updates.append, **kwargs)
        modes = [u.mode for u in updates]
        assert modes.count("warm") > 20 and modes.count("full") > 20
        assert _update_digest(updates) == self.PLAIN

    def test_forced_cold_rounds_drop_and_rebuild_the_scorer(self, world):
        """Cold rounds forced by the warm-start policy in the middle of the
        day: each one restarts M, so each one needs a new scorer."""
        directory, dataset, _ = world
        detector = StreamingDetector(
            internal_suffixes=dataset.internal_suffixes,
            server_ips=dataset.server_ips,
        )
        paths = sorted(directory.glob("dns-*.log"))
        _feed_history(detector, paths[:1])
        updates = []
        for path in paths[1:]:
            with path.open() as handle:
                for batch in detector.funnel.read_lines(handle, RARE_BATCH):
                    detector.submit(batch)
                    detector.poll()
                    detector.warm = WarmStartConfig(
                        enabled=len(updates) % 5 != 3
                    )
                    updates.append(detector.score())
            detector.rollover()
        assert _update_digest(updates) == self.FORCED_COLD
        stats = detector.similarity_stats
        modes = [u.mode for u in updates]
        assert stats.cold_restarts == modes.count("full")
        assert modes.count("warm") > 15
        assert stats.rebuilds == 0  # the log is time-ordered
        assert 0 < stats.tracked <= stats.rescored

    def test_scorer_is_rebuilt_from_the_persisted_prior(self, world, tmp_path):
        """Stop mid-day between two warm rounds; the checkpoint
        carries ``prior`` but no scorer."""
        directory, _, kwargs = world
        ckpt = tmp_path / "ck.json"
        first, second = [], []
        stopped = replay_directory(
            directory, on_update=first.append, checkpoint_path=ckpt,
            max_batches=89, **kwargs,
        )
        assert stopped.interrupted and first[-1].mode == "warm"
        restored = load_streaming(ckpt)
        assert restored.prior is not None and restored._day_scorer is None
        replay_directory(
            directory, on_update=second.append, checkpoint_path=ckpt,
            resume=True, **kwargs,
        )
        assert _update_digest(first + second) == self.RESUMED


class TestRoundReport:
    def test_a_returned_round_report_never_changes(self):
        """A scoring round hands out the day so far as a
        :class:`~repro.core.DayReport`: later ingests and rounds leave
        the report it returned as it was."""
        detector = StreamingDetector()
        detector.ingest([
            _conn(host, "evil.c1", 600.0 * i)
            for i in range(8) for host in ("h1", "h2")
        ])
        first = detector.score()
        kept = (set(first.rare_domains), first.records, list(first.detected))
        assert "evil.c1" in first.detected
        detector.ingest([
            _conn("h3", f"new{i}.c1", 5000.0 + i) for i in range(5)
        ])
        second = detector.score()
        assert second.rare_domains > kept[0]
        assert second.records > kept[1]
        assert (first.rare_domains, first.records, first.detected) == kept


# ---------------------------------------------------------------------------
# Substrates
# ---------------------------------------------------------------------------

def _conn(host, domain, ts=0.0):
    return Connection(timestamp=ts, host=host, domain=domain)


class TestEventBus:
    """The event layer: what the engines' ``submit`` / ``ingest``
    accept, and the replay's cadence arguments."""

    def test_one_acceptance_rule_on_every_ingest_entry(self):
        """A single ``Connection``, one ``ConnectionBatch`` or any
        iterable of either (generators included) -- the same for
        ``submit`` and ``ingest``, whatever is already queued."""
        from repro.logs.records import ConnectionBatch

        batch = ConnectionBatch(
            [2.0, 3.0], ["h2", "h3"], ["b.c1", "b.c1"], ["", ""]
        )
        detector = StreamingDetector()
        assert detector.submit(_conn("h1", "a.c1", 1.0)) == 1
        assert detector.submit(batch) == 2
        assert detector.submit(
            item for item in (_conn("h4", "c.c1", 4.0), batch)
        ) == 3
        assert detector.events_pending == 6
        # ... and with events already queued.
        assert detector.ingest(_conn("h5", "d.c1", 5.0)) == 1
        assert detector.events_pending == 0
        assert detector.window.events_today == 7
        assert detector.ingest(iter([_conn("h6", "d.c1", 6.0)])) == 1
        assert detector.submit(()) == 0
        assert detector.window.events_today == 8
        assert detector.window.traffic.hosts_by_domain["b.c1"] == {"h2", "h3"}

    def test_replay_rejects_nonpositive_intervals(self, tmp_path):
        with pytest.raises(ValueError, match="--score-every"):
            replay_directory(tmp_path, bootstrap_files=0, score_every=0)
        with pytest.raises(ValueError, match="--checkpoint-every"):
            replay_directory(tmp_path, bootstrap_files=0, checkpoint_every=0)
        with pytest.raises(ValueError, match="--max-batches"):
            replay_directory(tmp_path, bootstrap_files=0, max_batches=0)


class TestSeriesVerdictCache:
    """Period-aware verdict caching must be invisible in outcomes."""

    def _cache(self):
        from repro.streaming.verdicts import SeriesVerdictCache
        from repro.timing import AutomationDetector

        detector = AutomationDetector()
        return SeriesVerdictCache(detector), detector

    def test_incremental_matches_full_recompute(self):
        cache, detector = self._cache()
        # A beacon series with jitter, plus irregular noise, appended
        # in chunks: the cached verdict must always match a fresh
        # test_series over the whole prefix.
        import random

        rng = random.Random(5)
        times: list[float] = []
        t = 0.0
        for _ in range(60):
            t += 600.0 + rng.uniform(-3.0, 3.0)
            times.append(t)
        for burst in (7.0, 13.0, 29.0, 111.0, 222.0):
            times.append(t + burst)
        times.sort()

        series: list[float] = []
        for start in range(0, len(times), 7):
            chunk = times[start:start + 7]
            series.extend(chunk)
            got = cache.test("h", "d", sorted(series), chunk)
            want = detector.test_series("h", "d", sorted(series))
            assert got.automated == want.automated
            assert got.period == want.period
            assert got.connections == want.connections

    def test_on_period_beacons_skip(self):
        cache, detector = self._cache()
        times = [600.0 * i for i in range(1, 11)]
        first = cache.test("h", "d", times, times)
        assert first.automated
        assert cache.stats.full_tests == 1
        extended = times + [600.0 * i for i in range(11, 16)]
        second = cache.test("h", "d", extended, extended[10:])
        assert second.automated
        assert second.period == first.period
        assert second.connections == 15
        assert cache.stats.periodic_skips == 1
        assert cache.stats.incremental_tests == 0

    def test_short_series_skip_histogram(self):
        cache, detector = self._cache()
        verdict = cache.test("h", "d", [1.0, 2.0], [1.0, 2.0])
        assert not verdict.automated
        assert cache.stats.short_skips == 1
        assert cache.stats.full_tests == 0

    @given(
        beacon=st.tuples(
            st.sampled_from([60.0, 600.0, 3600.0]),
            st.floats(0.0, 5_000.0),
            st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=40),
        ),
        echo=st.tuples(
            st.sampled_from([97.0, 1_234.5]),
            st.floats(0.0, 1.0),
            st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=15),
        ),
        noise=st.lists(st.floats(0.0, 1.0), max_size=6),
        duplicates=st.lists(st.integers(0, 1_000), max_size=4),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        mode=st.sampled_from(["beacon", "noisy", "mixed"]),
        late=st.integers(-1, 12),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_chunking_matches_test_series(
        self, beacon, echo, noise, duplicates, sizes, mode, late, rng
    ):
        """Random sorted series -- a beacon with jitter below ``W``, a
        second period and noise starting anywhere in its span, duplicate
        timestamps -- fed in random chunks (events shuffled within a
        chunk, sometimes one chunk late): every verdict is
        :meth:`test_series`' on the prefix.  A pure in-order beacon
        takes the periodic skip on every call after its first full
        test; an off-period gap arriving with on-period ones must not."""
        cache, detector = self._cache()
        period, start, jitters = beacon
        times = [start + period * i + j for i, j in enumerate(jitters)]
        span = period * len(jitters)
        if mode != "beacon":
            times += [start + fraction * span for fraction in noise]
        if mode == "mixed":
            echo_period, offset, echo_jitters = echo
            times += [start + offset * span + echo_period * i + j
                      for i, j in enumerate(echo_jitters)]
            times += [times[i % len(times)] for i in duplicates if times]
        times.sort()
        chunks, position, turn = [], 0, 0
        while position < len(times):
            part = times[position:position + sizes[turn % len(sizes)]]
            chunks.append(rng.sample(part, len(part)))
            position, turn = position + len(part), turn + 1
        if mode == "mixed" and 0 <= late < len(chunks) - 1:
            chunks[late], chunks[late + 1] = chunks[late + 1], chunks[late]

        seen: list[float] = []
        for chunk in chunks:
            seen += chunk
            prefix = sorted(seen)
            skips = cache.stats.periodic_skips
            got = cache.test("h", "d", prefix, chunk)
            want = detector.test_series("h", "d", prefix)
            assert (got.automated, got.period, got.connections) == (
                want.automated, want.period, want.connections
            )
            if cache.stats.periodic_skips == skips:
                assert got.divergence == want.divergence
        stats = cache.stats
        if mode == "beacon" and stats.full_tests:
            assert stats.full_tests == 1
            assert stats.periodic_skips == (
                len(chunks) - stats.short_skips - 1
            )

    def test_out_of_order_arrival_falls_back_to_full(self):
        cache, detector = self._cache()
        times = [600.0 * i for i in range(1, 9)]
        cache.test("h", "d", times, times)
        # A late event lands in the *middle* of the series: the cached
        # clusters no longer describe the interval sequence.
        late = 900.0
        full = sorted(times + [late])
        got = cache.test("h", "d", full, [late])
        want = detector.test_series("h", "d", full)
        assert cache.stats.full_tests == 2
        assert got.automated == want.automated
        assert got.divergence == pytest.approx(want.divergence)

    def test_streaming_counters_move_and_parity_holds(self, lanl_dataset):
        from repro.logs.normalize import normalize_dns_records

        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        detector.submit_raw(lanl_dataset.day_records(1))
        detector.poll()
        detector.rollover(detect=False)
        events = list(normalize_dns_records(
            detector.funnel.reduce(lanl_dataset.day_records(2)), fold_level=3
        ))
        for start in range(0, len(events), 250):
            detector.ingest(events[start:start + 250])
            detector.score()
        final = detector.score()
        stats = detector.verdict_stats
        assert stats.periodic_skips > 0
        assert stats.short_skips > 0
        report = detector.rollover()
        assert set(final.detected) == set(report.detected)


class TestWindowRareSet:
    def test_matches_batch_extraction_incrementally(self):
        history = DestinationHistory()
        history.bootstrap(["old.c1"])
        window = WindowedAggregator(0, history, unpopular_max_hosts=3)
        events = (
            [_conn("h1", "old.c1"), _conn("h1", "new.c1")]
            + [_conn(f"h{i}", "busy.c1") for i in range(5)]
            + [_conn("h2", "new.c1")]
        )
        for conn in events:
            window.ingest([conn])
            assert window.rare == extract_rare_domains(
                window.traffic, history, unpopular_max_hosts=3
            )

    def test_popular_domain_never_returns(self):
        window = WindowedAggregator(
            0, DestinationHistory(), unpopular_max_hosts=2
        )
        assert window.ingest([_conn("h1", "d.c1")])[1] == {"d.c1"}
        assert window.ingest([_conn("h2", "d.c1")])[1] == {"d.c1"}
        assert window.ingest([_conn("h1", "d.c1")])[1] == set()
        assert window.ingest([_conn("h3", "d.c1")])[1] == set()
        assert "d.c1" not in window.rare


class TestWindowedAggregator:
    def test_window_equals_bulk_aggregation(self, lanl_dataset):
        from repro.logs.normalize import normalize_dns_records
        from repro.logs.reduction import ReductionFunnel

        funnel = ReductionFunnel(
            lanl_dataset.internal_suffixes,
            lanl_dataset.server_ips,
            fold_level=3,
        )
        conns = list(
            normalize_dns_records(
                funnel.reduce(lanl_dataset.day_records(1)), fold_level=3
            )
        )
        bulk = DailyTraffic(0)
        bulk.ingest(conns)
        bulk.finalize()

        window = WindowedAggregator(0, DestinationHistory())
        for start in range(0, len(conns), 101):
            window.ingest(conns[start:start + 101])
        window.traffic.finalize()
        assert list(window.traffic.series()) == list(bulk.series())
        assert window.traffic.hosts_by_domain == bulk.hosts_by_domain
        assert window.events_today == len(conns)

    def test_ingest_returns_its_own_flips(self):
        window = WindowedAggregator(0, DestinationHistory())
        digest, flips = window.ingest([_conn("h1", "d.c1")])
        assert list(digest.named_pairs) == [("h1", "d.c1")]
        assert flips == {"d.c1"}
        digest, flips = window.ingest([_conn("h2", "e.c1")])
        assert list(digest.named_pairs) == [("h2", "e.c1")]
        assert flips == {"e.c1"}
        assert window.ingest([_conn("h1", "d.c1")])[1] == set()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestStreamCommand:
    def test_interrupt_and_resume_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        logs = tmp_path / "logs"
        assert main([
            "generate", str(logs), "--hosts", "40", "--days", "2",
        ]) == 0
        capsys.readouterr()

        ckpt = tmp_path / "ckpt.json"
        interrupted = main([
            "stream", str(logs), "--bootstrap-files", "1",
            "--internal-suffix", "int.c0",
            "--batch-size", "200",
            "--checkpoint", str(ckpt), "--max-batches", "5",
        ])
        out = capsys.readouterr().out
        assert interrupted == 3
        assert "interrupted after 5 micro-batches" in out
        assert ckpt.exists()

        resumed = main([
            "stream", str(logs), "--bootstrap-files", "1",
            "--internal-suffix", "int.c0",
            "--batch-size", "200",
            "--checkpoint", str(ckpt), "--resume",
        ])
        out = capsys.readouterr().out
        assert resumed == 0
        assert "day 1:" in out

    def test_midfile_interrupt_resumes_to_identical_day_lines(
        self, tmp_path, capsys
    ):
        """Interrupt inside an operational file, resume with a
        *different* batch size (so the already-consumed rows end inside
        a column batch): the day lines are byte-identical to an
        uninterrupted run's."""
        from repro.cli import main
        from repro.state import load_streaming

        logs = tmp_path / "logs"
        main(["generate", str(logs), "--hosts", "40", "--days", "3"])
        base = ["stream", str(logs), "--bootstrap-files", "1",
                "--internal-suffix", "int.c0"]

        def day_lines() -> list[str]:
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if line.startswith("day ")]

        capsys.readouterr()
        assert main(base) == 0
        uninterrupted = day_lines()
        assert len(uninterrupted) == 2

        # Find a batch count that stops inside the first operational
        # file: one past the bootstrap file's batches.
        probe = tmp_path / "probe.json"
        batches = 1
        while True:
            probe.unlink(missing_ok=True)
            main(base + ["--batch-size", "200", "--checkpoint", str(probe),
                         "--max-batches", str(batches)])
            capsys.readouterr()
            window = load_streaming(probe).window
            if window.day == 1 and window.events_today:
                break
            batches += 1
        assert window.events_today % 170, "resume must land inside a batch"

        ckpt = tmp_path / "ckpt.json"
        assert main(base + ["--batch-size", "200", "--checkpoint", str(ckpt),
                            "--max-batches", str(batches)]) == 3
        first = day_lines()
        assert main(base + ["--batch-size", "170", "--checkpoint", str(ckpt),
                            "--resume"]) == 0
        assert first + day_lines() == uninterrupted

    def test_stream_matches_run_command(self, tmp_path, capsys):
        from repro.cli import main

        logs = tmp_path / "logs"
        main(["generate", str(logs), "--hosts", "40", "--days", "2"])
        capsys.readouterr()

        main(["run", str(logs), "--bootstrap-files", "1",
              "--internal-suffix", "int.c0"])
        run_out = capsys.readouterr().out
        main(["stream", str(logs), "--bootstrap-files", "1",
              "--internal-suffix", "int.c0"])
        stream_out = capsys.readouterr().out
        # Identical detection suffix: "N rare, C&C=..., detected=..."
        run_tail = [line.split(" records, ")[1]
                    for line in run_out.splitlines() if " records, " in line]
        stream_tail = [line.split(" records, ")[1]
                       for line in stream_out.splitlines() if " records, " in line]
        assert run_tail == stream_tail


# ---------------------------------------------------------------------------
# Enterprise (proxy-path) streaming
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def enterprise_layout(enterprise_dataset, tmp_path_factory) -> Path:
    """An on-disk enterprise layout (proxy logs + model.json + whois)."""
    from repro.synthetic import write_enterprise_layout

    directory = tmp_path_factory.mktemp("entlayout")
    return write_enterprise_layout(enterprise_dataset, directory, days=3)


@pytest.fixture
def enterprise_engine(trained_state, enterprise_dataset):
    """Factory: an independent engine over the same trained system per
    call (each restored from the session's ``trained_state``)."""
    from repro.state import restore_detector
    from repro.streaming import StreamingEnterpriseDetector

    return lambda: StreamingEnterpriseDetector(
        restore_detector(trained_state, whois=enterprise_dataset.whois)
    )


@pytest.mark.parity
class TestEnterpriseBatchParity:
    def test_rollover_matches_process_day(
        self, enterprise_engine, enterprise_dataset
    ):
        """One whole-day poll against 500-event polls with a scoring
        round after each: the same close, day after day (histories and
        WHOIS imputation carry over)."""
        whole, stream = enterprise_engine(), enterprise_engine()
        first = enterprise_dataset.config.bootstrap_days
        for day in range(first, first + 3):
            conns = enterprise_dataset.day_connections(day)
            whole.ingest(conns)
            want = whole.rollover()
            _micro_batched(stream, _chunks(conns))
            report = stream.rollover()
            assert report.day == want.day == day
            assert report.records == want.records == len(conns)
            assert report.rare_domains == want.rare_domains
            assert report.cc_domains == want.cc_domains
            assert report.detected == want.detected
            assert report.cc_scores == want.cc_scores
            assert report.bp_result is not None or not want.cc_domains

    def test_soc_seeded_rollover_matches_soc_seeded_process_day(
        self, enterprise_engine, enterprise_dataset
    ):
        """SOC-hints mode (V cases 1-3, Fig. 6c): the IOC-seeded run
        rides next to the no-hint run, identically after one poll and
        after micro-batches with (no-hint) scoring rounds between."""
        whole, stream = enterprise_engine(), enterprise_engine()
        seeds = enterprise_dataset.build_ioc_list().seeds()
        first = enterprise_dataset.config.bootstrap_days
        ran_hints = False
        for day in range(first, first + 4):
            conns = enterprise_dataset.day_connections(day)
            whole.ingest(conns)
            want = whole.rollover(soc_seed_domains=seeds)
            _micro_batched(stream, _chunks(conns))
            got = stream.rollover(soc_seed_domains=seeds)
            assert got.detected == want.detected
            for mine, theirs in ((got.bp_result, want.bp_result),
                                 (got.soc_hints, want.soc_hints)):
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine.detections == theirs.detections
                    assert mine.hosts == theirs.hosts
            ran_hints = ran_hints or got.soc_hints is not None
        assert ran_hints

    def test_micro_batch_size_irrelevant(
        self, enterprise_engine, enterprise_dataset
    ):
        small, large = enterprise_engine(), enterprise_engine()
        day = enterprise_dataset.config.bootstrap_days
        conns = enterprise_dataset.day_connections(day)
        _micro_batched(small, _chunks(conns, 97))
        large.ingest(conns)
        assert small.rollover().detected == large.rollover().detected

    def test_final_scoring_round_matches_rollover(
        self, enterprise_engine, enterprise_dataset
    ):
        stream = enterprise_engine()
        day = enterprise_dataset.config.bootstrap_days + 1
        prev = enterprise_dataset.day_connections(day - 1)
        stream.ingest(prev)
        stream.rollover(detect=False)
        stream.ingest(enterprise_dataset.day_connections(day))
        update = stream.score()
        report = stream.rollover()
        # No SOC hints and no intel: the last intra-day round saw the
        # full window, so it already equals the end-of-day close.
        assert set(update.detected) == set(report.detected)

    def test_requires_trained_detector(self):
        from repro.core import EnterpriseDetector
        from repro.streaming import StreamingEnterpriseDetector

        with pytest.raises(RuntimeError, match="trained"):
            StreamingEnterpriseDetector(EnterpriseDetector())


class TestEnterpriseIngestRoutes:
    def test_lines_records_and_scalar_events_build_the_same_window(
        self, enterprise_engine, enterprise_dataset
    ):
        """``ingest_lines`` == ``submit_raw`` over the same records ==
        the scalar adapters' ``Connection`` events, on a real day:
        non-zero collector offsets, bare-IP noise, lease-resolved
        hosts."""
        from repro.logs import (
            IpResolver,
            format_proxy_line,
            normalize_proxy_records,
            parse_proxy_log,
        )

        day = enterprise_dataset.config.bootstrap_days
        resolver = enterprise_dataset.resolver_for_day(day)
        lines = [
            format_proxy_line(record)
            for record in enterprise_dataset.day_proxy_records(day)
        ]
        records = list(parse_proxy_log(lines))
        assert any(r.tz_offset_hours for r in records)

        def window_of(feed):
            stream = enterprise_engine()
            count = feed(stream)
            stream.poll()
            assert stream.window.events_today == count
            window = stream.window
            return (
                window.events_today,
                dict(window.traffic.series()),
                window.traffic.resolved_ips,
                window.traffic.no_referer_hosts,
                window.traffic.rare_ua_hosts,
                window.ua_history._pending,
                window.rare,
            )

        by_lines = window_of(lambda s: s.ingest_lines(lines))
        assert 0 < by_lines[0] < len(records), "bare-IP noise is dropped"
        assert window_of(lambda s: s.submit_raw(records)) == by_lines
        assert window_of(lambda s: s.submit(list(
            normalize_proxy_records(records, IpResolver())
        ))) == by_lines

        joined = window_of(lambda s: s.submit_raw(records, resolver=resolver))
        assert joined == window_of(lambda s: s.submit(list(
            normalize_proxy_records(records, resolver)
        )))
        assert joined[1].keys() != by_lines[1].keys()


class TestEnterpriseCheckpoint:
    def test_midday_restore_finishes_identically(
        self, enterprise_engine, enterprise_dataset, tmp_path
    ):
        from repro.state import save_streaming_enterprise

        whole, stream = enterprise_engine(), enterprise_engine()
        day = enterprise_dataset.config.bootstrap_days
        conns = enterprise_dataset.day_connections(day)
        whole.ingest(conns)
        want = whole.rollover()

        half = len(conns) // 2
        stream.ingest(conns[:half])
        stream.score()
        path = tmp_path / "ent.json"
        save_streaming_enterprise(stream, path)
        restored = load_streaming(path, whois=enterprise_dataset.whois)
        assert restored.window.events_today == stream.window.events_today
        assert restored.window.rare == stream.window.rare

        restored.ingest(conns[half:])
        report = restored.rollover()
        assert want.detected
        assert report.detected == want.detected

    def test_restore_resumes_whois_imputation_counters(
        self, enterprise_engine, enterprise_dataset, tmp_path
    ):
        from repro.state import save_streaming_enterprise

        stream = enterprise_engine()
        # A restored trained state starts its imputation means at zero;
        # one operated day advances them.
        day = enterprise_dataset.config.bootstrap_days
        stream.ingest(enterprise_dataset.day_connections(day))
        stream.rollover()
        whois = stream.batch.extractor.whois
        assert whois._observed > 0
        path = tmp_path / "ent.json"
        save_streaming_enterprise(stream, path)
        restored = load_streaming(path, whois=None)
        impute = restored.batch.extractor.whois
        assert impute._observed == whois._observed
        assert impute._age_sum == pytest.approx(whois._age_sum)

    def test_refuses_queued_events(self, enterprise_engine, tmp_path):
        from repro.state import StateError, save_streaming_enterprise

        stream = enterprise_engine()
        stream.submit([_conn("h1", "d.com", 5.0)])
        with pytest.raises(StateError, match="queued"):
            save_streaming_enterprise(stream, tmp_path / "x.json")

    def test_rejects_wrong_kind(self):
        from repro.state import StateError, restore_engine

        with pytest.raises(StateError, match="streaming-enterprise"):
            restore_engine(
                {"version": 1, "kind": "streaming"},
                kind="streaming-enterprise",
            )


class TestEnterpriseIntelSeeding:
    def test_intel_domain_seeds_rollover(
        self, enterprise_engine, enterprise_dataset
    ):
        plain, stream = enterprise_engine(), enterprise_engine()
        day = enterprise_dataset.config.bootstrap_days
        conns = enterprise_dataset.day_connections(day)
        plain.ingest(conns)
        want = plain.rollover()
        undetected_rare = sorted(want.rare_domains - set(want.detected))
        assert undetected_rare, "world has no undetected rare domain"
        target = undetected_rare[0]

        stream.ingest(conns)
        report = stream.rollover(intel_domains={target, "absent.example"})
        assert target in report.intel_seeded
        assert "absent.example" not in report.intel_seeded
        assert target in report.detected
        assert set(report.detected) >= set(want.detected)


class TestEnterpriseReplay:
    def test_replay_interrupt_resume_parity(
        self, enterprise_layout, tmp_path
    ):
        from repro.streaming import replay_enterprise_directory

        kwargs = dict(
            model_state=enterprise_layout / "model.json",
            whois_path=enterprise_layout / "whois.json",
            bootstrap_files=0,
            batch_size=400,
        )
        full = replay_enterprise_directory(enterprise_layout, **kwargs)
        assert len(full.reports) == 3

        ckpt = tmp_path / "ckpt.json"
        first = replay_enterprise_directory(
            enterprise_layout, checkpoint_path=ckpt, max_batches=7, **kwargs
        )
        assert first.interrupted
        second = replay_enterprise_directory(
            enterprise_layout, checkpoint_path=ckpt, resume=True, **kwargs
        )
        combined = first.reports + second.reports
        assert [r.day for r in combined] == [r.day for r in full.reports]
        for got, want in zip(combined, full.reports):
            assert got.rare_domains == want.rare_domains
            assert got.cc_domains == want.cc_domains
            assert got.detected == want.detected

    def test_replay_requires_model(self, enterprise_layout):
        from repro.streaming import replay_enterprise_directory

        with pytest.raises(Exception):
            replay_enterprise_directory(
                enterprise_layout,
                model_state=enterprise_layout / "absent.json",
                bootstrap_files=0,
            )
