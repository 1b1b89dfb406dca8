"""Tests for the fleet's resident workers (repro.fleet.workers).

The load-bearing properties: resident workers produce byte-identical
per-tenant detections at any worker count (including mixed-pipeline
fleets and sharded window aggregation); a SIGKILLed worker's tenants
respawn from their checkpoints and resume losslessly while the other
workers keep running; the seeds an ``ADVANCE_DAY`` task carries seed
that day, and its answer arrives only once the tenant's checkpoint
holds the round; and a checkpointed tenant is one document on disk.
"""

import json
import multiprocessing
import os
import re
import signal
from pathlib import Path

import pytest

from repro.fleet import FleetError, FleetManager, load_manifest
from repro.fleet.workers import (
    CMD_ADVANCE_DAY,
    ResidentPool,
    _load_tenant_checkpoint,
)
from repro.intel.whois_db import load_whois_file
from repro.synthetic import write_fleet_layout
from repro.testing import make_multi_enterprise_dataset

DAYS = 4


@pytest.fixture(scope="module")
def mixed_layout(tmp_path_factory) -> Path:
    """DNS lead + DNS follower + enterprise follower, 4 days on disk."""
    dataset = make_multi_enterprise_dataset(3, enterprise_tenants=1)
    directory = tmp_path_factory.mktemp("residentfleet")
    return write_fleet_layout(dataset, directory, days=DAYS)


@pytest.fixture(scope="module")
def serial_detections(mixed_layout):
    manifest = load_manifest(mixed_layout)
    report = FleetManager.from_manifest(manifest, workers=1).run()
    return _detections(report)


def _detections(report):
    return {t: sorted(d) for t, d in report.detected_by_tenant().items()}


class TestResidentParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, mixed_layout, serial_detections, workers):
        manifest = load_manifest(mixed_layout)
        report = FleetManager.from_manifest(manifest, workers=workers).run()
        assert _detections(report) == serial_detections

    def test_worker_stats_cover_all_tenants(self, mixed_layout):
        manifest = load_manifest(mixed_layout)
        manager = FleetManager.from_manifest(manifest, workers=2)
        report = manager.run()
        owned = sorted(
            t for stats in manager.worker_stats.values()
            for t in stats["tenants"]
        )
        assert owned == sorted(t.tenant_id for t in manifest.tenants)
        total_records = sum(
            stats["records"] for stats in manager.worker_stats.values()
        )
        assert total_records == sum(
            d.records for d in report.days
        )

    def test_worker_whois_stats_reach_the_plane(self, mixed_layout):
        # Enterprise engines run feature extraction inside the worker
        # process; their registry lookups must still land in the
        # manager's shared accounting (the hoisted-cache fix).
        manifest = load_manifest(mixed_layout)
        manager = FleetManager.from_manifest(manifest, workers=2)
        manager.run()
        assert manager.intel.whois_cache.stats.misses > 0

    def test_shipped_whois_stats_are_the_counts_since_the_last_ship(
        self, mixed_layout, monkeypatch
    ):
        """Each ``advanced`` answer carries the WHOIS lookups (and
        registry calls, the misses) made since the previous one -- the
        manager adds them up, so a cumulative count would double."""
        import repro.fleet.workers as workers

        manifest = load_manifest(mixed_layout)
        spec = next(s for s in manifest.tenants if s.pipeline == "enterprise")
        files = sorted(spec.directory.glob(spec.pattern))
        registry = load_whois_file(manifest.whois_path)
        lookups: list[str] = []
        fed: list[str] = []

        class CountingView(workers.TenantWhoisView):
            def lookup(self, domain):
                lookups.append(domain)
                return super().lookup(domain)

        class CountingRegistry:
            def lookup(self, domain):
                fed.append(domain)
                return registry.lookup(domain)

        class Commands(list):
            def get(self):
                return self.pop(0)

        class Responses(list):
            def send(self, message):
                self.append((message, len(lookups), len(fed)))

        monkeypatch.setattr(workers, "TenantWhoisView", CountingView)
        monkeypatch.setattr(
            workers, "load_whois_file", lambda path: CountingRegistry()
        )
        commands = Commands(
            {"cmd": CMD_ADVANCE_DAY, "round": rnd, "tasks": [{
                "tenant_id": spec.tenant_id, "log_path": str(path),
                "bootstrap": rnd < spec.bootstrap_files, "seeds": [],
            }]}
            for rnd, path in enumerate(files)
        )
        commands.append({"cmd": workers.CMD_SHUTDOWN})
        responses = Responses()
        workers.worker_main(0, commands, responses, {
            "checkpoint_dir": None, "whois_path": str(manifest.whois_path),
            "ct_path": None, "resume": False, "metrics": False,
            "tenants": [{
                "tenant_id": spec.tenant_id, "pipeline": spec.pipeline,
                "model_state": str(spec.model_state),
                "internal_suffixes": list(spec.internal_suffixes),
                "server_ips": sorted(spec.server_ips), "config": None,
            }],
        })
        advanced = [
            entry for entry in responses if entry[0]["event"] == "advanced"
        ]
        assert len(advanced) == len(files), responses
        seen = called = 0
        for message, looked_up, registry_calls in advanced:
            stats = message["whois_stats"]
            assert stats["hits"] + stats["misses"] == looked_up - seen
            assert stats["misses"] == registry_calls - called
            assert stats["cross_tenant_hits"] == 0
            seen, called = looked_up, registry_calls
        # Two rounds with registry calls: a running total would show.
        assert sum(1 for m, *_ in advanced if m["whois_stats"]["misses"]) > 1


class TestResidentCheckpoints:
    def test_interrupt_resume_writes_one_document_per_tenant(
        self, mixed_layout, serial_detections, tmp_path
    ):
        manifest = load_manifest(mixed_layout)
        ckpt = tmp_path / "ckpt"
        first = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt,
        ).run(max_rounds=2)
        assert first.interrupted
        # Every round rewrote each tenant's one document.
        assert sorted(p.name for p in ckpt.iterdir()) == sorted(
            ["fleet.json", *(spec.tenant_id for spec in manifest.tenants)]
        )
        for spec in manifest.tenants:
            path = ckpt / spec.tenant_id / "checkpoint.json"
            assert list(path.parent.iterdir()) == [path]
            assert _load_tenant_checkpoint(path)["round"] == 2

        second = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt, resume=True,
        ).run()
        assert not second.interrupted
        combined = {}
        for day in first.days + second.days:
            combined.setdefault(day.tenant_id, []).extend(day.detected)
        assert {
            t: sorted(d) for t, d in combined.items()
        } == serial_detections

    @pytest.mark.parametrize("damage", ["missing", -1, "2", True, 2.0])
    def test_wrapper_without_a_valid_round_is_one_error(
        self, damage, mixed_layout, tmp_path, capsys
    ):
        """No guessing the cursor from the engine's window day: for the
        enterprise tenant that is ``start_day + rounds`` (10 > 4 files),
        and the tenant used to drop out of the resumed report."""
        from repro.cli import main

        ckpt = tmp_path / "ck"
        flags = ["fleet", str(mixed_layout),
                 "--workers", "1", "--checkpoint-dir", str(ckpt)]
        assert main(flags + ["--max-rounds", "2"]) == 3
        path = ckpt / "t2" / "checkpoint.json"
        wrapper = json.loads(path.read_text())
        if damage == "missing":
            del wrapper["round"]
        else:
            wrapper["round"] = damage
        path.write_text(json.dumps(wrapper))
        with pytest.raises(FleetError, match="non-negative integer 'round'"):
            _load_tenant_checkpoint(path)
        capsys.readouterr()
        assert main(flags + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCrashRecovery:
    def test_sigkill_resumes_losslessly(
        self, mixed_layout, serial_detections, tmp_path
    ):
        # Kill the worker that owns the enterprise tenant after the
        # first committed round; its tenants must respawn from their
        # checkpoints and the fleet must still match the serial run.
        manifest = load_manifest(mixed_layout)
        manager = FleetManager.from_manifest(
            manifest, workers=2,
            checkpoint_dir=tmp_path / "ckpt",
        )
        killed = []

        def on_round(reports):
            if not killed:
                victim = next(
                    h for h in manager.resident_pool.workers
                    if "t2" in h.tenant_ids
                )
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.worker_id)

        report = manager.run(on_round=on_round)
        assert killed
        assert _detections(report) == serial_detections
        assert manager.worker_stats[killed[0]]["respawns"] == 1
        others = [
            stats["respawns"]
            for worker_id, stats in manager.worker_stats.items()
            if worker_id != killed[0]
        ]
        assert all(r == 0 for r in others)


    def test_death_after_the_checkpoints_adopts_them_with_their_seeds(
        self, mixed_layout, tmp_path, monkeypatch
    ):
        """Worker 0 (t0, t2) dies in the last round after writing both
        checkpoints but before answering: the respawned worker's
        tenants are adopted, and the seeds their tasks carried still
        count (the worker's answer used to carry the count)."""
        from repro.fleet.workers import _TenantRuntime

        manifest = load_manifest(mixed_layout)
        whole = FleetManager.from_manifest(manifest, workers=2).run()
        marker = tmp_path / "died"
        commit = _TenantRuntime.commit

        def commit_then_die(runtime):
            commit(runtime)
            if (runtime.tenant_id == "t2" and runtime.cursor == DAYS
                    and not marker.exists()):
                marker.write_text("")
                os._exit(9)

        # The workers fork, so they inherit the patched method.
        monkeypatch.setattr(_TenantRuntime, "commit", commit_then_die)
        manager = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=tmp_path / "ckpt",
        )
        report = manager.run()
        assert marker.exists() and manager.worker_stats[0]["respawns"] == 1
        assert _detections(report) == _detections(whole)
        assert report.intel.seeds_served == whole.intel.seeds_served

    def test_failed_handshake_leaves_no_live_workers(
        self, mixed_layout, tmp_path
    ):
        # Worker 1 fails to restore its tenant on resume; worker 0,
        # already started and healthy, must be reaped before the error
        # surfaces -- not left running behind a pool nobody holds.
        manifest = load_manifest(mixed_layout)
        ckpt = tmp_path / "ckpt"
        FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt,
        ).run(max_rounds=1)
        (ckpt / "t1" / "checkpoint.json").write_text(json.dumps({
            "version": 1, "kind": "fleet-tenant", "round": 1,
            "engine": {"kind": "bogus"}, "report": None,
        }))
        broken = re.escape(f"tenant checkpoint {ckpt / 't1' / 'checkpoint.json'}")
        with pytest.raises(FleetError, match=f"worker 1: StateError: {broken}"):
            FleetManager.from_manifest(
                manifest, workers=2, checkpoint_dir=ckpt, resume=True,
            ).run()
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("fleet-worker-")
        ]


class TestSeedsInTheTask:
    def test_seeded_advance_answers_once_durable(self, mixed_layout, tmp_path):
        # Drive a single-worker pool by hand, one ADVANCE_DAY at a time.
        # The seeds the task carries must seed that day's detection, and
        # the tenant's checkpoint must hold the round by the time the
        # answer arrives -- there is no separate checkpoint command.
        manifest = load_manifest(mixed_layout)
        follower = next(
            spec for spec in manifest.tenants
            if spec.pipeline == "dns" and spec.tenant_id != "t0"
        )
        files = sorted(follower.directory.glob(follower.pattern))
        serial = FleetManager.from_manifest(
            load_manifest(mixed_layout), workers=1,
        ).run()
        seeded_day = next(
            d for d in serial.days_for(follower.tenant_id) if d.intel_seeded
        )
        seeds = sorted(seeded_day.intel_seeded)
        checkpoint = tmp_path / "ckpt" / follower.tenant_id / "checkpoint.json"

        pool = ResidentPool(
            [follower],
            workers=1,
            checkpoint_dir=tmp_path / "ckpt",
            whois_path=None,
            config=None,
            resume=False,
        )
        try:
            handle = pool.workers[0]
            for rnd, path in enumerate(files[: seeded_day.day + 1]):
                task_seeds = seeds if rnd == seeded_day.day else []
                pool.send(handle, {
                    "cmd": CMD_ADVANCE_DAY,
                    "round": rnd,
                    "tasks": [{
                        "tenant_id": follower.tenant_id,
                        "log_path": str(path),
                        "bootstrap": rnd < follower.bootstrap_files,
                        "seeds": task_seeds,
                    }],
                })
                answer = pool.recv(handle)
                assert answer["event"] == "advanced"
                assert _load_tenant_checkpoint(checkpoint)["round"] == rnd + 1
            final = answer["reports"][0]["report"]
            assert set(seeds) <= set(final["intel_seeded"])
            assert set(seeds) <= set(final["detected"])
        finally:
            pool.shutdown()
