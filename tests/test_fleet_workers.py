"""Tests for the fleet's resident workers (repro.fleet.workers).

The load-bearing properties: resident workers produce byte-identical
per-tenant detections at any worker count (including mixed-pipeline
fleets and sharded window aggregation); a SIGKILLed worker's tenants
respawn from their checkpoints and resume losslessly while the other
workers keep running; ``INJECT_INTEL`` is applied before any later
``ADVANCE_DAY`` on the same queue (FIFO ordered delivery); and a
checkpointed tenant is one document on disk.
"""

import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from repro.fleet import FleetError, FleetManager, load_manifest
from repro.fleet.workers import (
    CMD_ADVANCE_DAY,
    CMD_CHECKPOINT,
    CMD_INJECT_INTEL,
    ResidentPool,
    _load_tenant_checkpoint,
)
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
            checkpoint_dir=tmp_path / "ckpt", heartbeat=0.5,
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
        with pytest.raises(FleetError, match="worker 1: StateError"):
            FleetManager.from_manifest(
                manifest, workers=2, checkpoint_dir=ckpt, resume=True,
            ).run()
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("fleet-worker-")
        ]


class TestOrderedDelivery:
    def test_intel_applies_before_later_advance(self, mixed_layout, tmp_path):
        # Drive a single-worker pool by hand: enqueue INJECT_INTEL
        # immediately followed by ADVANCE_DAY without waiting.  FIFO
        # delivery must fold the board entries in first, so the
        # injected domains seed the advanced day's detection.
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
        injected = sorted(seeded_day.intel_seeded)

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
                if rnd == seeded_day.day:
                    pool.send(handle, {
                        "cmd": CMD_INJECT_INTEL,
                        "entries": [
                            {"domain": domain, "score": 1.0,
                             "tenants": ["t0"], "first_day": rnd - 1}
                            for domain in injected
                        ],
                    })
                pool.send(handle, {
                    "cmd": CMD_ADVANCE_DAY,
                    "round": rnd,
                    "tasks": [{
                        "tenant_id": follower.tenant_id,
                        "log_path": str(path),
                        "bootstrap": rnd < follower.bootstrap_files,
                    }],
                })
            responses = [
                pool.recv(handle) for _ in files[: seeded_day.day + 1]
            ]
            final = responses[-1]["reports"][0]["report"]
            assert set(injected) <= set(final["intel_seeded"])
            assert set(injected) <= set(final["detected"])
            pool.send(handle, {
                "cmd": CMD_CHECKPOINT, "round": seeded_day.day + 1,
            })
            ack = pool.recv(handle)
            assert ack["event"] == "checkpointed"
            wrapper = _load_tenant_checkpoint(
                tmp_path / "ckpt" / follower.tenant_id / "checkpoint.json"
            )
            assert wrapper["round"] == seeded_day.day + 1
        finally:
            pool.shutdown()
