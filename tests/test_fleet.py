"""Tests for the multi-tenant fleet subsystem (repro.fleet).

The load-bearing properties: serial and parallel execution produce
identical per-tenant detections (day-barrier seeding); one tenant's
traffic never leaks into another's profiles; the shared intel plane
counts cross-tenant cache hits and seeds follower tenants with the
lead's confirmations; and a checkpointed fleet resumes to the exact
uninterrupted outcome.
"""

import json
from pathlib import Path

import pytest

from repro.fleet import (
    BoardReplica,
    FleetError,
    FleetManager,
    IntelPlane,
    ManifestError,
    TenantSpec,
    load_manifest,
)
from repro.intel import VirusTotalOracle, WhoisDatabase
from repro.synthetic import write_fleet_layout
from repro.state import load_json, restore_engine
from repro.testing import make_multi_enterprise_dataset

N_TENANTS = 3
DAYS = 4


@pytest.fixture(scope="module")
def fleet_dataset():
    return make_multi_enterprise_dataset(N_TENANTS)


@pytest.fixture(scope="module")
def fleet_layout(fleet_dataset, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fleet")
    return write_fleet_layout(fleet_dataset, directory, days=DAYS)


@pytest.fixture(scope="module")
def serial_report(fleet_layout):
    manifest = load_manifest(fleet_layout)
    return FleetManager.from_manifest(manifest, workers=1).run()


def _detections(report):
    return {t: sorted(d) for t, d in report.detected_by_tenant().items()}


def _seeds(plane, tenant_id):
    """A tenant's seeds the way a worker computes them: a replica
    synced from the plane's full board delta."""
    replica = BoardReplica()
    replica.apply(plane.board_delta(0)[1])
    return replica.seeds_for(tenant_id)


# ---------------------------------------------------------------------------
# Intel plane
# ---------------------------------------------------------------------------

class TestIntelPlane:
    def test_vt_cache_counts_cross_tenant_hits(self):
        plane = IntelPlane(vt=VirusTotalOracle(["evil.c9"], coverage=1.0))
        assert plane.vt_reported("a", "evil.c9") is True
        assert plane.vt_cache.stats.misses == 1
        assert plane.vt_reported("a", "evil.c9") is True
        assert plane.vt_cache.stats.cross_tenant_hits == 0
        assert plane.vt_reported("b", "evil.c9") is True
        assert plane.vt_cache.stats.hits == 2
        assert plane.vt_cache.stats.cross_tenant_hits == 1

    def test_whois_cache_shared(self):
        whois = WhoisDatabase()
        whois.register("young.c9", 0.0, 86_400.0 * 365)
        plane = IntelPlane(whois=whois)
        assert plane.whois_lookup("a", "young.c9") is not None
        assert plane.whois_lookup("b", "young.c9") is not None
        assert plane.whois_lookup("b", "absent.c9") is None
        assert plane.whois_cache.stats.cross_tenant_hits == 1

    def test_lookup_without_oracle_still_cached(self):
        plane = IntelPlane()
        assert plane.vt_reported("a", "x.c9") is None
        assert plane.vt_reported("b", "x.c9") is None
        assert plane.vt_cache.stats.cross_tenant_hits == 1

    def test_board_excludes_own_findings_and_low_scores(self):
        plane = IntelPlane(prior_threshold=0.4)
        plane.publish("a", 1, [("cc.c9", 1.0), ("weak.c9", 0.2)])
        assert _seeds(plane, "b") == {"cc.c9"}
        assert _seeds(plane, "a") == frozenset()
        # Once a second tenant confirms it, everyone is seeded.
        plane.publish("b", 2, [("cc.c9", 1.0)])
        assert _seeds(plane, "a") == {"cc.c9"}
        entry = plane.board["cc.c9"]
        assert entry.tenants == {"a", "b"}
        assert entry.first_day == 1

    def test_encode_restore_round_trip(self):
        plane = IntelPlane(vt=VirusTotalOracle(["evil.c9"], coverage=1.0))
        plane.publish("a", 0, [("evil.c9", 1.0)])
        plane.vt_reported("a", "evil.c9")
        plane.vt_reported("b", "evil.c9")
        restored = IntelPlane(vt=plane.vt)
        restored.restore(plane.encode())
        assert _seeds(restored, "b") == {"evil.c9"}
        assert restored.vt_cache.stats.cross_tenant_hits == 1
        # The cached verdict (and its owner) survived.
        restored.vt_reported("c", "evil.c9")
        assert restored.vt_cache.stats.cross_tenant_hits == 2
        assert restored.vt_cache.stats.misses == 1


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

class TestManifest:
    def test_loads_generated_layout(self, fleet_layout):
        manifest = load_manifest(fleet_layout)
        assert [t.tenant_id for t in manifest.tenants] == ["t0", "t1", "t2"]
        assert all(t.directory.is_dir() for t in manifest.tenants)
        assert manifest.vt_reported

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(path)

    def test_missing_tenants(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "tenants": []}))
        with pytest.raises(ManifestError, match="non-empty"):
            load_manifest(path)

    def test_duplicate_tenant_ids(self, tmp_path):
        (tmp_path / "logs").mkdir()
        path = tmp_path / "m.json"
        entry = {"id": "a", "directory": "logs"}
        path.write_text(json.dumps({"tenants": [entry, entry]}))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_missing_directory(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"tenants": [{"id": "a", "directory": "absent"}]}
        ))
        with pytest.raises(ManifestError, match="directory not found"):
            load_manifest(path)

    def test_string_filters_rejected(self, tmp_path):
        # A bare string would iterate per-character into the funnel.
        (tmp_path / "logs").mkdir()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tenants": [{
            "id": "a", "directory": "logs", "internal_suffixes": "int.c0",
        }]}))
        with pytest.raises(ManifestError, match="list of strings"):
            load_manifest(path)


# ---------------------------------------------------------------------------
# Fleet runs
# ---------------------------------------------------------------------------

class TestFleetRun:
    def test_every_tenant_detects_its_own_campaigns(
        self, serial_report, fleet_dataset
    ):
        detected = _detections(serial_report)
        for tenant_id, dataset in fleet_dataset.tenants.items():
            for march_date in range(2, DAYS + 1):
                truth = dataset.campaign_for_date(march_date)
                assert set(truth.cc_domains) <= set(detected[tenant_id])

    def test_lead_detects_shared_campaign_locally(
        self, serial_report, fleet_dataset
    ):
        shared = fleet_dataset.shared
        lead = fleet_dataset.lead_tenant
        lead_days = serial_report.days_for(lead)
        day = next(d for d in lead_days if set(shared.cc_domains) & d.cc_domains)
        # Found by the multi-host heuristic, not by seeding.
        assert not day.intel_seeded
        assert set(shared.domains) <= set(day.detected)

    def test_followers_detect_only_through_seeding(
        self, serial_report, fleet_dataset
    ):
        shared = fleet_dataset.shared
        for follower in fleet_dataset.follower_tenants:
            days = serial_report.days_for(follower)
            seeded_days = [d for d in days if d.intel_seeded]
            assert len(seeded_days) == 1
            day = seeded_days[0]
            # One beaconing host stays below the C&C heuristic; the
            # shared domains arrive as elevated priors instead.
            assert set(shared.domains) <= day.intel_seeded
            assert set(shared.domains) <= set(day.detected)
            assert not set(shared.cc_domains) & day.cc_domains

    def test_cross_tenant_overlap_and_cache_hits(self, serial_report, fleet_dataset):
        overlap = dict(serial_report.overlap())
        for domain in fleet_dataset.shared.domains:
            assert overlap[domain] == ("t0", "t1", "t2")
        assert serial_report.intel.vt_cache.stats.cross_tenant_hits > 0

    def test_tenant_isolation(
        self, serial_report, fleet_dataset, fleet_layout, tmp_path
    ):
        # A domain unique to one tenant's world must never surface in
        # another tenant's detections, and parallel execution must keep
        # per-tenant histories disjoint from other tenants' traffic.
        detected = _detections(serial_report)
        manifest = load_manifest(fleet_layout)
        FleetManager.from_manifest(
            manifest, workers=N_TENANTS, checkpoint_dir=tmp_path,
        ).run()
        histories = {
            tenant_id: restore_engine(
                load_json(tmp_path / tenant_id / "checkpoint.json")["engine"]
            ).history
            for tenant_id in fleet_dataset.tenants
        }
        for tenant_id, dataset in fleet_dataset.tenants.items():
            own = {
                domain
                for truth in dataset.campaigns
                if truth.march_date <= DAYS
                for domain in truth.malicious_domains
            }
            for other_id in fleet_dataset.tenants:
                if other_id == tenant_id:
                    continue
                assert not own & set(detected[other_id])
                history = histories[other_id]
                assert not any(not history.is_new(d) for d in own)

    def test_serial_parallel_parity(self, fleet_layout, serial_report):
        manifest = load_manifest(fleet_layout)
        parallel = FleetManager.from_manifest(manifest, workers=3).run()
        assert _detections(parallel) == _detections(serial_report)

    def test_rejects_bad_configuration(self, fleet_layout, tmp_path):
        manifest = load_manifest(fleet_layout)
        with pytest.raises(FleetError, match="at least one tenant"):
            FleetManager([])
        with pytest.raises(FleetError, match="workers"):
            FleetManager.from_manifest(manifest, workers=0)
        with pytest.raises(FleetError, match="resume requires"):
            FleetManager.from_manifest(manifest, resume=True)
        with pytest.raises(FleetError, match="no fleet checkpoint"):
            FleetManager.from_manifest(
                manifest, resume=True, checkpoint_dir=tmp_path / "empty"
            ).run()

    def test_too_few_files(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "dns-march-01.log").write_text("")
        spec = TenantSpec(tenant_id="a", directory=logs, bootstrap_files=1)
        with pytest.raises(FleetError, match="need more than 1"):
            FleetManager([spec]).run()

    def test_tenant_pattern_matching_nothing_is_named(
        self, fleet_layout, tmp_path, capsys
    ):
        """Tenant files resolve as ``run`` and ``stream`` resolve
        theirs: one ``error:`` line that names the tenant and what is
        wrong, exit 2."""
        from repro.cli import main

        manifest = json.loads(fleet_layout.read_text())
        for key in ("vt_reported", "whois", "certs"):
            if key in manifest:
                manifest[key] = str(fleet_layout.parent / manifest[key])
        for entry in manifest["tenants"]:
            entry["directory"] = str(fleet_layout.parent / entry["directory"])
        tenant = manifest["tenants"][0]
        tenant["pattern"] = "nomatch-*.log"
        broken = tmp_path / "manifest.json"
        broken.write_text(json.dumps(manifest))
        assert main(["fleet", str(broken)]) == 2
        directory = Path(tenant["directory"]).resolve()
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: tenant {tenant['id']!r}: no file in {directory} "
            "matches 'nomatch-*.log'\n"
        )
        assert captured.out == ""


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

class TestFleetCheckpoint:
    def test_interrupt_resume_matches_full_run(
        self, fleet_layout, serial_report, tmp_path
    ):
        manifest = load_manifest(fleet_layout)
        ckpt = tmp_path / "ckpt"
        first = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt,
        ).run(max_rounds=2)
        assert first.interrupted
        second = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt, resume=True,
        ).run()
        assert not second.interrupted
        combined = {}
        for day in first.days + second.days:
            combined.setdefault(day.tenant_id, []).extend(day.detected)
        assert {t: sorted(d) for t, d in combined.items()} == _detections(
            serial_report
        )

    def test_resume_restores_intel_board(self, fleet_layout, tmp_path):
        manifest = load_manifest(fleet_layout)
        ckpt = tmp_path / "ckpt"
        FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt,
        ).run(max_rounds=2)  # through the lead tenant's detection day
        resumed = FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt, resume=True,
        )
        assert resumed.intel.board == {}
        report = resumed.run()
        # Followers were seeded from the board restored off disk.
        assert report.seeded_detections() > 0

    def test_fresh_run_clears_stale_fleet_state(self, fleet_layout, tmp_path):
        manifest = load_manifest(fleet_layout)
        ckpt = tmp_path / "ckpt"
        FleetManager.from_manifest(manifest, checkpoint_dir=ckpt).run()
        stale = json.loads((ckpt / "fleet.json").read_text())
        assert stale["rounds"] == DAYS
        # A fresh (non-resume) run into the same directory must not
        # leave the old cursor/board around to poison a later --resume.
        first = FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt,
        ).run(max_rounds=1)
        assert first.interrupted
        assert json.loads((ckpt / "fleet.json").read_text())["rounds"] == 1
        second = FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt, resume=True,
        ).run()
        assert second.rounds == DAYS

    def test_missing_tenant_checkpoint(self, fleet_layout, tmp_path):
        manifest = load_manifest(fleet_layout)
        ckpt = tmp_path / "ckpt"
        FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt,
        ).run(max_rounds=1)
        (ckpt / "t1" / "checkpoint.json").unlink()
        with pytest.raises(FleetError, match="no checkpoint for tenant 't1'"):
            FleetManager.from_manifest(
                manifest, checkpoint_dir=ckpt, resume=True,
            ).run()

    def test_wrong_kind_tenant_checkpoint(self, fleet_layout, tmp_path):
        manifest = load_manifest(fleet_layout)
        ckpt = tmp_path / "ckpt"
        FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt,
        ).run(max_rounds=1)
        (ckpt / "t1" / "checkpoint.json").write_text(
            json.dumps({"version": 1, "kind": "streaming"})
        )
        with pytest.raises(FleetError, match="not a fleet tenant checkpoint"):
            FleetManager.from_manifest(
                manifest, checkpoint_dir=ckpt, resume=True,
            ).run()

    @pytest.mark.parametrize("document", ["fleet.json", "t0/checkpoint.json"])
    def test_other_document_version_is_one_error(
        self, document, fleet_layout, tmp_path, capsys
    ):
        from repro.cli import main

        ckpt = tmp_path / "ck"
        flags = ["fleet", str(fleet_layout), "--workers", "1",
                 "--checkpoint-dir", str(ckpt)]
        assert main(flags + ["--max-rounds", "1"]) == 3
        path = ckpt / document
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        payload["version"] = 2
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(flags + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "version 2" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tenant_checkpoint_behind_the_fleet_is_one_error(
        self, tmp_path, capsys
    ):
        """A tenant snapshot older than the rounds the fleet committed
        for it would take the fleet's next file on top of an older day
        (t0 reported ``day 1`` for ``dns-march-04.log``, not ``day 3``)."""
        from repro.cli import main

        out = tmp_path / "fleet"
        assert main(["generate", str(out), "--tenants", "3", "--days", "4",
                     "--seed", "7"]) == 0
        ckpt = tmp_path / "ck"
        flags = ["fleet", str(out / "manifest.json"), "--workers", "1",
                 "--checkpoint-dir", str(ckpt)]
        assert main(flags + ["--max-rounds", "2"]) == 3
        saved = (ckpt / "t0" / "checkpoint.json").read_bytes()
        assert main(flags + ["--resume", "--max-rounds", "1"]) == 3
        # The old snapshot, and nothing newer beside it.
        for path in (ckpt / "t0").iterdir():
            path.unlink()
        (ckpt / "t0" / "checkpoint.json").write_bytes(saved)
        capsys.readouterr()
        assert main(flags + ["--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: tenant 't0': ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestFleetCommand:
    def test_generate_and_run_with_parity(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet"
        assert main([
            "generate", str(out), "--tenants", "3", "--hosts", "40",
            "--days", "4", "--seed", "11",
        ]) == 0
        capsys.readouterr()

        manifest = str(out / "manifest.json")
        assert main(["fleet", manifest, "--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["fleet", manifest, "--workers", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "Fleet detection report" in serial_out
        assert "cross-tenant" in serial_out

    def test_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet"
        main(["generate", str(out), "--tenants", "2", "--hosts", "40",
              "--days", "3", "--seed", "3"])
        report_path = tmp_path / "report.json"
        assert main([
            "fleet", str(out / "manifest.json"), "--json", str(report_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert set(payload["tenants"]) == {"t0", "t1"}
        assert payload["intel"]["vt"]["misses"] > 0

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fleet", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_retired_executor_flag_is_rejected(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", str(tmp_path / "m.json"), "--executor", "thread"])
        assert exit_info.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_generate_rejects_bad_tenant_combos(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "f")
        assert main(["generate", out, "--tenants", "2", "--netflow"]) == 2
        assert "netflow" in capsys.readouterr().err
        assert main(["generate", out, "--tenants", "2", "--days", "2"]) == 2
        assert "--days >= 3" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet"
        main(["generate", str(out), "--tenants", "2", "--hosts", "40",
              "--days", "3"])
        capsys.readouterr()
        assert main([
            "fleet", str(out / "manifest.json"), "--resume",
        ]) == 2
        assert "resume requires" in capsys.readouterr().err

    def test_interrupted_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet"
        main(["generate", str(out), "--tenants", "2", "--hosts", "40",
              "--days", "3"])
        ckpt = tmp_path / "ckpt"
        assert main([
            "fleet", str(out / "manifest.json"),
            "--checkpoint-dir", str(ckpt), "--max-rounds", "1",
        ]) == 3
        assert "resume with --resume" in capsys.readouterr().out

    def test_stream_bad_directory_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stream", str(tmp_path / "absent")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main([
            "stream", str(tmp_path), "--resume",
        ]) == 2
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_run_bad_directory_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", str(tmp_path / "absent")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# Mixed-pipeline fleets (DNS + enterprise tenants)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_dataset():
    """3 tenants: DNS lead + DNS follower + enterprise follower."""
    return make_multi_enterprise_dataset(3, enterprise_tenants=1)


@pytest.fixture(scope="module")
def mixed_layout(mixed_dataset, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("mixedfleet")
    return write_fleet_layout(mixed_dataset, directory, days=DAYS)


@pytest.fixture(scope="module")
def mixed_serial(mixed_layout):
    manifest = load_manifest(mixed_layout)
    return FleetManager.from_manifest(manifest, workers=1).run()


class TestMixedManifest:
    def test_layout_declares_pipelines(self, mixed_layout):
        manifest = load_manifest(mixed_layout)
        by_id = {t.tenant_id: t for t in manifest.tenants}
        assert by_id["t0"].pipeline == "dns"
        assert by_id["t2"].pipeline == "enterprise"
        assert by_id["t2"].model_state is not None
        assert by_id["t2"].model_state.is_file()
        assert by_id["t2"].pattern == "proxy-*.log"
        assert manifest.whois is not None
        assert manifest.whois_path is not None

    def test_unknown_pipeline_rejected(self, tmp_path):
        (tmp_path / "logs").mkdir()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tenants": [
            {"id": "a", "directory": "logs", "pipeline": "netflow"},
        ]}))
        with pytest.raises(ManifestError, match="unknown pipeline"):
            load_manifest(path)

    def test_enterprise_requires_model_state(self, tmp_path):
        (tmp_path / "logs").mkdir()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tenants": [
            {"id": "a", "directory": "logs", "pipeline": "enterprise"},
        ]}))
        with pytest.raises(ManifestError, match="requires 'model_state'"):
            load_manifest(path)

    def test_model_state_rejected_on_dns_path(self, tmp_path):
        (tmp_path / "logs").mkdir()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tenants": [
            {"id": "a", "directory": "logs", "model_state": "model.json"},
        ]}))
        with pytest.raises(ManifestError, match="only valid"):
            load_manifest(path)

    def test_missing_whois_file(self, tmp_path):
        (tmp_path / "logs").mkdir()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "whois": "absent.json",
            "tenants": [{"id": "a", "directory": "logs"}],
        }))
        with pytest.raises(ManifestError, match="whois file not found"):
            load_manifest(path)


class TestMixedFleetRun:
    def test_cross_pipeline_seeding_detects_shared_campaign(
        self, mixed_serial, mixed_dataset
    ):
        # The enterprise follower sees ONE beaconing host -- below the
        # regression C&C evidence its local model fires on -- so only
        # the DNS lead's confirmation, crossing pipeline types through
        # the intel plane, can surface the shared campaign there.
        shared = mixed_dataset.shared
        assert mixed_dataset.pipeline_of("t2") == "enterprise"
        seeded_days = [
            d for d in mixed_serial.days_for("t2") if d.intel_seeded
        ]
        assert len(seeded_days) == 1
        day = seeded_days[0]
        assert set(shared.domains) <= day.intel_seeded
        assert set(shared.domains) <= set(day.detected)
        assert not set(shared.cc_domains) & day.cc_domains

    def test_enterprise_tenant_detects_own_campaigns(
        self, mixed_serial, mixed_dataset
    ):
        dataset = mixed_dataset.tenants["t2"]
        first = dataset.config.bootstrap_days
        detected = set(mixed_serial.detected_by_tenant()["t2"])
        local = {
            domain
            for campaign in dataset.campaigns
            # Layout day k holds operation day first + (k - 1); with
            # one bootstrap file, detection covers days first+1 .. 
            for day in campaign.active_days
            if first + 1 <= day < first + DAYS
            for domain in campaign.domains
        }
        assert local & detected

    def test_whois_columns_cover_shared_campaign(
        self, mixed_serial, mixed_dataset
    ):
        facts = mixed_serial.whois_facts
        for domain in mixed_dataset.shared.domains:
            assert facts.get(domain) is not None
            age_days, validity_days = facts[domain]
            assert 0.0 < age_days < 10.0
            assert validity_days > 90.0
        rendered = mixed_serial.render()
        assert "WHOIS registration" in rendered
        payload = mixed_serial.as_dict()
        sample = payload["whois"][sorted(mixed_dataset.shared.domains)[0]]
        assert sample["age_days"] == pytest.approx(
            facts[sorted(mixed_dataset.shared.domains)[0]][0]
        )

    def test_serial_parallel_parity(self, mixed_layout, mixed_serial):
        manifest = load_manifest(mixed_layout)
        parallel = FleetManager.from_manifest(manifest, workers=3).run()
        assert _detections(parallel) == _detections(mixed_serial)

    def test_process_interrupt_resume_matches_serial(
        self, mixed_layout, mixed_serial, tmp_path
    ):
        # The acceptance scenario: a mixed-pipeline fleet interrupted
        # mid-run resumes from per-tenant checkpoints (enterprise
        # engines restored with their trained models and the shared
        # WHOIS registry) to the uninterrupted outcome.
        manifest = load_manifest(mixed_layout)
        ckpt = tmp_path / "ckpt"
        first = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt,
        ).run(max_rounds=2)
        assert first.interrupted
        second = FleetManager.from_manifest(
            manifest, workers=2, checkpoint_dir=ckpt, resume=True,
        ).run()
        assert not second.interrupted
        combined = {}
        for day in first.days + second.days:
            combined.setdefault(day.tenant_id, []).extend(day.detected)
        assert {t: sorted(d) for t, d in combined.items()} == _detections(
            mixed_serial
        )

    def test_whois_lookups_count_cross_tenant_hits(self, mixed_serial):
        stats = mixed_serial.intel.whois_cache.stats
        assert stats.misses > 0

    def test_crash_recovery_carries_enterprise_round(
        self, mixed_layout, mixed_serial, tmp_path
    ):
        # Crash window: a tenant's checkpoint is written for round k
        # but the fleet never commits round k.  Rewinding fleet.json
        # simulates it; on resume the uncommitted round's reports must
        # be re-published once -- including the enterprise tenant's,
        # whose engine day differs from the round number.
        manifest = load_manifest(mixed_layout)
        ckpt = tmp_path / "ckpt"
        FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt,
        ).run(max_rounds=2)
        state = json.loads((ckpt / "fleet.json").read_text())
        assert state["rounds"] == 2
        state["rounds"] = 1
        (ckpt / "fleet.json").write_text(json.dumps(state))

        resumed = FleetManager.from_manifest(
            manifest, checkpoint_dir=ckpt, resume=True,
        ).run()
        recovered = [d for d in resumed.days if d.tenant_id == "t2"]
        # Round 1 (the rewound one) is re-published from the carried
        # checkpoint; rounds 2..N run live.  No round is lost or doubled.
        assert len(recovered) == DAYS - 1
        assert len({d.day for d in recovered}) == len(recovered)
        combined = {}
        serial_days = {
            (d.tenant_id, d.day): d.detected for d in mixed_serial.days
        }
        for day in resumed.days:
            assert day.detected == serial_days[(day.tenant_id, day.day)]
