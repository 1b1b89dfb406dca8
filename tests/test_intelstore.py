"""Tests for the durable intel store and its evidence sources.

The load-bearing properties: the SQLite store round-trips every
record kind through write-behind batching, expires entries by TTL,
migrates v1 files in place, and refuses corrupt or too-new files; a
fleet re-run against the same ``--intel-db`` detects byte-identically
to the in-memory baseline while converting feed misses into store
hits; RDAP fixtures are a drop-in registration source; and CT
SAN-pivot edges recover sibling campaign domains belief propagation
misses without them -- while ``ct_edges`` off stays byte-identical.
"""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.fleet import FleetManager, load_manifest
from repro.intel.memo import IntelMemo, TenantWhoisView
from repro.intel.whois_db import WhoisDatabase, WhoisRecord, load_whois_file
from repro.intelstore import (
    SCHEMA_VERSION,
    CertObservation,
    CtIndex,
    IntelStore,
    IntelStoreError,
    create_schema,
    expand_ct_seeds,
    load_ct_cached,
    load_ct_log,
    parse_rdap_document,
    rdap_document,
    registry_from_rdap,
    save_ct_log,
    sibling_map,
)
from repro.synthetic import (
    fleet_cert_observations,
    fleet_rdap_documents,
    write_fleet_layout,
)
from repro.synthetic.fleet import build_fleet_whois
from repro.testing import make_multi_enterprise_dataset

DAYS = 4


class FakeClock:
    """An injectable, manually advanced time source."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# Store durability
# ---------------------------------------------------------------------------

class TestStoreDurability:
    def test_roundtrip_all_record_kinds(self, tmp_path):
        path = tmp_path / "intel.db"
        store = IntelStore(path)
        store.put_vt("evil.c9", True, "t0")
        store.put_vt("unknown.c9", None, "t1")
        store.put_whois(
            "young.c9", WhoisRecord("young.c9", 0.0, 864_000.0), "t0"
        )
        store.put_whois("gone.c9", None, "t1", source="rdap")
        cert = CertObservation("ff" * 32, 0.0, 100.0, "Test CA",
                               ("a.c9", "b.c9"))
        store.put_cert(cert)
        store.record_day("t0", 2, {"evil.c9": 1.0})
        assert store.pending_rows() > 0
        store.flush()
        assert store.pending_rows() == 0
        store.close()

        reopened = IntelStore(path)
        assert reopened.load_vt() == {
            "evil.c9": (True, "t0"), "unknown.c9": (None, "t1"),
        }
        whois = reopened.load_whois()
        assert whois["gone.c9"] == (None, "t1")
        record, owner = whois["young.c9"]
        assert owner == "t0"
        assert record.registered == 0.0 and record.expires == 864_000.0
        assert reopened.load_certs() == [cert]
        profiles = reopened.load_profiles()
        assert profiles[("t0", "evil.c9")]["days_detected"] == 1
        reopened.close()

    def test_flush_batches_and_last_writer_wins(self, tmp_path):
        store = IntelStore(tmp_path / "intel.db", batch_size=2)
        for index in range(5):
            store.put_vt(f"d{index}.c9", True)
        store.put_vt("d0.c9", False)  # upsert: later verdict wins
        flushed = store.flush()
        assert flushed == 6
        assert store.stats.flush_batches >= 3
        assert store.load_vt()["d0.c9"] == (False, "")
        store.close()

    def test_ttl_expiry_and_purge(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "intel.db"
        store = IntelStore(path, ttl_seconds=100.0, clock=clock)
        store.put_vt("old.c9", True)
        clock.now += 60.0
        store.put_vt("new.c9", True)
        store.flush()
        assert set(store.load_vt()) == {"old.c9", "new.c9"}
        clock.now += 80.0  # old is 140s stale, new only 80s
        assert set(store.load_vt()) == {"new.c9"}
        assert store.stats.evictions > 0
        assert store.purge_expired() == 1
        store.close()
        # the lapsed row is physically gone, not just filtered
        survivor = IntelStore(path, clock=clock)
        rows = survivor.stats_document()["tables"]["vt_verdicts"]
        assert rows == 1
        survivor.close()

    def test_profile_upsert_merges_across_flushes(self, tmp_path):
        store = IntelStore(tmp_path / "intel.db")
        store.record_day("t0", 3, {"evil.c9": 0.5})
        store.flush()
        store.record_day("t0", 1, {"evil.c9": 0.9})
        store.record_day("t0", 5, {"evil.c9": 0.2})
        store.flush()
        profile = store.load_profiles()[("t0", "evil.c9")]
        assert profile == {
            "first_day": 1, "last_day": 5,
            "days_detected": 3, "best_score": 0.9,
        }
        store.close()

    def test_v1_file_migrates_in_place(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(str(path))
        create_schema(conn, 1)
        conn.execute(
            "INSERT INTO vt_verdicts (domain, reported, tenant, "
            "updated_at, expires_at) VALUES ('evil.c9', 1, 't0', 0, NULL)"
        )
        conn.execute(
            "INSERT INTO whois_records (domain, registered, expires, "
            "tenant, updated_at, expires_at) "
            "VALUES ('young.c9', 0.0, 864000.0, 't0', 0, NULL)"
        )
        conn.commit()
        conn.close()

        store = IntelStore(path)
        assert store.schema_version == SCHEMA_VERSION
        assert store.load_vt() == {"evil.c9": (True, "t0")}
        record, _ = store.load_whois()["young.c9"]
        assert record.expires == 864_000.0
        # v2 tables exist and accept writes after the migration
        store.put_cert(CertObservation("aa" * 32, 0.0, 1.0, "CA", ("x.c9",)))
        store.record_day("t0", 1, {"evil.c9": 1.0})
        store.flush()
        assert len(store.load_certs()) == 1
        store.close()

    def test_future_schema_refused(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(str(path))
        create_schema(conn, SCHEMA_VERSION)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(IntelStoreError, match="newer"):
            IntelStore(path)

    def test_corrupt_file_raises_with_runbook_pointer(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is not a sqlite database at all......")
        with pytest.raises(IntelStoreError, match="runbook"):
            IntelStore(path)

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(IntelStoreError):
            IntelStore(tmp_path / "a.db", ttl_seconds=0)
        with pytest.raises(IntelStoreError):
            IntelStore(tmp_path / "b.db", batch_size=0)

    def test_close_flushes_pending(self, tmp_path):
        path = tmp_path / "intel.db"
        store = IntelStore(path)
        store.put_vt("evil.c9", True)
        store.close()  # no explicit flush
        reopened = IntelStore(path)
        assert "evil.c9" in reopened.load_vt()
        reopened.close()


class TestIntelMemo:
    """The one memoized lookup behind the plane, the fleet workers and
    ``stream --intel-db``."""

    def test_hydrated_entries_answer_without_registry(self, tmp_path):
        path = tmp_path / "intel.db"
        seeded = IntelStore(path)
        seeded.put_whois(
            "young.c9", WhoisRecord("young.c9", 0.0, 864_000.0)
        )
        seeded.close()

        registry = WhoisDatabase()
        registry.register("fresh.c9", 10.0, 964_000.0)
        store = IntelStore(path)
        memo = IntelMemo("whois", registry.lookup)
        memo.attach_store(store)
        cache = TenantWhoisView(memo, "stream")
        assert cache.lookup("young.c9").registered == 0.0
        assert store.stats.hits["whois"] == 1
        assert cache.lookup("fresh.c9").registered == 10.0
        assert cache.lookup("absent.c9") is None
        assert store.stats.misses["whois"] == 2
        store.flush()
        # novel lookups (including the negative one) were written behind
        assert set(store.load_whois()) == {
            "young.c9", "fresh.c9", "absent.c9",
        }
        store.close()

    def test_loading_the_store_never_overwrites_a_live_entry(self, tmp_path):
        store = IntelStore(tmp_path / "intel.db")
        store.put_vt("evil.c9", False, "old")
        store.put_vt("stored.c9", True, "old")
        store.flush()
        memo = IntelMemo("vt", {"evil.c9": True}.get)
        assert memo.lookup("a", "evil.c9") is True
        memo.attach_store(store)
        assert memo.entries["evil.c9"] == (True, "a")
        assert memo.entries["stored.c9"] == (True, "old")
        # A live entry is no store hit; a loaded one is.
        assert memo.lookup("a", "evil.c9") is True
        assert store.stats.total_hits() == 0
        assert memo.lookup("a", "stored.c9") is True
        assert store.stats.hits == {"vt": 1}
        store.close()

    def test_a_cross_tenant_hit_is_counted_once(self, tmp_path):
        store = IntelStore(tmp_path / "intel.db")
        store.put_vt("stored.c9", True, "a")
        store.flush()
        memo = IntelMemo("vt")
        memo.attach_store(store)
        assert memo.lookup("a", "live.c9") is None
        for key in ("live.c9", "stored.c9"):
            memo.lookup("b", key)
        assert memo.stats.as_dict() == {
            "hits": 2, "misses": 1, "cross_tenant_hits": 2,
        }
        assert store.stats.hits == {"vt": 1}
        assert store.stats.misses == {"vt": 1}
        store.close()


# ---------------------------------------------------------------------------
# RDAP evidence source
# ---------------------------------------------------------------------------

class TestRdap:
    def test_document_parses_to_normalized_record(self):
        doc = {
            "objectClassName": "domain",
            "ldhName": "Example.COM.",
            "events": [
                {"eventAction": "registration",
                 "eventDate": "1970-01-02T00:00:00Z"},
                {"eventAction": "expiration",
                 "eventDate": "1970-03-01T00:00:00+00:00"},
            ],
            "entities": [{
                "roles": ["registrar"],
                "vcardArray": ["vcard", [["fn", {}, "text", "Reg Inc"]]],
            }],
        }
        record = parse_rdap_document(doc)
        assert record.domain == "example.com"
        assert record.registered == 86_400.0
        assert record.registrar == "Reg Inc"
        whois = record.to_whois_record()
        assert whois.expires > whois.registered

    def test_incomplete_document_yields_no_whois_record(self):
        record = parse_rdap_document({"ldhName": "half.c9"})
        assert record is not None
        assert record.to_whois_record() is None
        assert parse_rdap_document({"events": []}) is None

    def test_fixture_builder_roundtrips(self):
        doc = rdap_document("evil.c9", 0.0, 864_000.0)
        record = parse_rdap_document(doc)
        assert record.to_whois_record() == WhoisRecord(
            "evil.c9", 0.0, 864_000.0
        )

    def test_registry_sniffs_both_formats(self, tmp_path):
        registry = WhoisDatabase()
        registry.register("a.c9", 0.0, 864_000.0)
        whois_path = tmp_path / "whois.json"
        whois_path.write_text(json.dumps(registry.to_json_dict()))
        rdap_path = tmp_path / "rdap.json"
        rdap_path.write_text(json.dumps([
            rdap_document("a.c9", 0.0, 864_000.0),
        ]))
        from_whois = load_whois_file(whois_path)
        from_rdap = load_whois_file(rdap_path)
        assert from_whois.to_json_dict() == from_rdap.to_json_dict()
        document = rdap_document("a.c9", 0.0, 864_000.0)
        for wrapped in (document, {"domains": [document]}):
            rdap_path.write_text(json.dumps(wrapped))
            assert load_whois_file(rdap_path).to_json_dict() == (
                from_whois.to_json_dict()
            )

    def test_registry_from_rdap_skips_incomplete(self):
        registry = registry_from_rdap([
            rdap_document("a.c9", 0.0, 864_000.0),
            {"ldhName": "no-dates.c9"},
        ])
        assert "a.c9" in registry
        assert "no-dates.c9" not in registry


# ---------------------------------------------------------------------------
# CT evidence source
# ---------------------------------------------------------------------------

def _index(*san_groups):
    return CtIndex([
        CertObservation(f"{i:02d}" * 32, 0.0, 1.0, "CA", tuple(sans))
        for i, sans in enumerate(san_groups)
    ])


class TestCt:
    def test_siblings_exclude_self_and_fold(self):
        index = _index(("a.c9", "www.b.c9"))
        assert index.siblings("a.c9") == frozenset({"b.c9"})
        assert "a.c9" not in index.siblings("a.c9")
        assert index.siblings("unknown.c9") == frozenset()

    def test_expand_ct_seeds_closes_within_rare(self):
        # a-b share cert 1, b-c share cert 2, c-d share cert 3:
        # the closure walks a -> b -> c but stops at d (not rare)
        index = _index(("a.c9", "b.c9"), ("b.c9", "c.c9"),
                       ("c.c9", "d.c9"))
        added = expand_ct_seeds(
            {"a.c9"}, {"a.c9", "b.c9", "c.c9"}, index
        )
        assert added == {"b.c9", "c.c9"}

    def test_sibling_map_restricted_to_rare(self):
        index = _index(("a.c9", "b.c9", "c.c9"))
        mapping = sibling_map(index, {"a.c9", "b.c9"})
        assert mapping == {
            "a.c9": frozenset({"b.c9"}), "b.c9": frozenset({"a.c9"}),
        }

    def test_log_roundtrip_and_memo(self, tmp_path):
        certs = [CertObservation("ab" * 32, 0.0, 9.0, "CA",
                                 ("a.c9", "b.c9"))]
        path = tmp_path / "certs.json"
        save_ct_log(certs, path)
        loaded = load_ct_log(path)
        assert loaded.observations == tuple(certs)
        assert load_ct_cached(path) is load_ct_cached(path)

    def test_bad_log_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a ct log"}')
        with pytest.raises(ValueError):
            load_ct_log(path)


# ---------------------------------------------------------------------------
# Fleet integration: hydration parity and SAN-pivot recovery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sibling_fleet():
    return make_multi_enterprise_dataset(3, ct_sibling_domains=1)


@pytest.fixture(scope="module")
def sibling_layout(sibling_fleet, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("ct-fleet")
    return write_fleet_layout(sibling_fleet, directory, days=DAYS)


@pytest.fixture(scope="module")
def baseline_report(sibling_layout):
    """In-memory run (no store) over the CT-enabled layout."""
    return FleetManager.from_manifest(load_manifest(sibling_layout)).run()


def _detections(report):
    return {t: sorted(d) for t, d in report.detected_by_tenant().items()}


class TestFleetStore:
    def test_rerun_hydrates_and_detects_identically(
        self, sibling_layout, baseline_report, tmp_path
    ):
        db = tmp_path / "intel.db"
        manifest = load_manifest(sibling_layout)
        first = FleetManager.from_manifest(manifest, intel_db=db).run()
        assert _detections(first) == _detections(baseline_report)
        first_store = first.as_dict()["intel"]["store"]
        assert sum(first_store["hits"].values()) == 0
        assert sum(first_store["misses"].values()) > 0
        assert first_store["flushed_rows"] > 0
        first_feed = first.as_dict()["intel"]

        second = FleetManager.from_manifest(
            load_manifest(sibling_layout), intel_db=db
        ).run()
        assert _detections(second) == _detections(baseline_report)
        second_doc = second.as_dict()["intel"]
        assert sum(second_doc["store"]["hits"].values()) > 0
        # hydration converts feed lookups into store hits: strictly
        # fewer VT/WHOIS cache misses than the cold run
        assert (
            second_doc["vt"]["misses"] + second_doc["whois"]["misses"]
            < first_feed["vt"]["misses"] + first_feed["whois"]["misses"]
        )

    def test_store_surfaces_in_report_and_render(
        self, sibling_layout, tmp_path
    ):
        report = FleetManager.from_manifest(
            load_manifest(sibling_layout),
            intel_db=tmp_path / "intel.db",
        ).run()
        assert "store" in report.as_dict()["intel"]
        assert "intel store:" in report.render()

    def test_ct_edges_recover_sibling_domain(
        self, sibling_fleet, sibling_layout, baseline_report, tmp_path
    ):
        sibling = sibling_fleet.shared.ct_sibling_domains[0]
        tenant = sibling_fleet.shared.ct_sibling_tenant
        assert sibling in _detections(baseline_report)[tenant]
        ct_days = [r for r in baseline_report.days if r.ct_seeded]
        assert any(sibling in r.ct_seeded for r in ct_days)

        # strip the certs reference: the sibling goes dark, everything
        # else is byte-identical
        doc = json.loads(sibling_layout.read_text())
        del doc["certs"]
        stripped = sibling_layout.parent / "manifest-noct.json"
        stripped.write_text(json.dumps(doc, indent=1))
        without = FleetManager.from_manifest(load_manifest(stripped)).run()
        assert sibling not in _detections(without)[tenant]
        assert not any(r.ct_seeded for r in without.days)

        def minus_sibling(report):
            return {
                t: sorted(set(d) - {sibling})
                for t, d in report.detected_by_tenant().items()
            }

        assert minus_sibling(without) == minus_sibling(baseline_report)


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

class TestSyntheticFixtures:
    def test_cert_fixture_links_campaign_to_sibling(self, sibling_fleet):
        index = CtIndex(fleet_cert_observations(sibling_fleet))
        sibling = sibling_fleet.shared.ct_sibling_domains[0]
        for cc in sibling_fleet.shared.cc_domains:
            assert sibling in index.siblings(cc)

    def test_rdap_fixture_equals_whois_registry(self, sibling_fleet):
        rebuilt = registry_from_rdap(fleet_rdap_documents(sibling_fleet))
        reference = build_fleet_whois(sibling_fleet)
        assert rebuilt.to_json_dict() == reference.to_json_dict()

    def test_layout_references_certs_only_with_siblings(
        self, sibling_layout, tmp_path
    ):
        doc = json.loads(sibling_layout.read_text())
        assert doc["certs"] == "intel/certs.json"
        assert (sibling_layout.parent / "intel" / "certs.json").is_file()
        assert (sibling_layout.parent / "intel" / "rdap.json").is_file()

        plain = make_multi_enterprise_dataset(3)
        manifest = write_fleet_layout(plain, tmp_path / "plain", days=DAYS)
        assert "certs" not in json.loads(manifest.read_text())

    def test_zero_siblings_leaves_world_unchanged(self):
        # fresh datasets on both sides: each tenant's noise RNG is a
        # shared stream, so days must be realized in the same order
        plain = make_multi_enterprise_dataset(3)
        with_ct = make_multi_enterprise_dataset(3, ct_sibling_domains=1)
        sibling = with_ct.shared.ct_sibling_domains[0]
        assert plain.shared.domains == with_ct.shared.domains
        tenant = with_ct.shared.ct_sibling_tenant
        for date in range(1, DAYS + 1):
            plain_day = plain.tenant_day_records(tenant, date)
            ct_day = [
                r for r in with_ct.tenant_day_records(tenant, date)
                if r.domain != sibling
            ]
            assert [
                (r.timestamp, r.domain) for r in plain_day
            ] == [(r.timestamp, r.domain) for r in ct_day]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def _seeded_db(self, tmp_path) -> Path:
        path = tmp_path / "intel.db"
        store = IntelStore(path)
        store.put_vt("evil.c9", True, "t0")
        store.record_day("t0", 1, {"evil.c9": 1.0})
        store.close()
        return path

    def test_intel_stats(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["intel", "stats", str(self._seeded_db(tmp_path))]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["tables"]["vt_verdicts"] == 1

    def test_intel_export(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["intel", "export", str(self._seeded_db(tmp_path))]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["vt_verdicts"]["evil.c9"]["reported"] is True
        assert document["tenant_profiles"]

    def test_intel_vacuum(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["intel", "vacuum", str(self._seeded_db(tmp_path))]) == 0
        assert "expired" in capsys.readouterr().out

    def test_intel_missing_or_corrupt_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["intel", "stats", str(tmp_path / "nope.db")]) == 2
        corrupt = tmp_path / "corrupt.db"
        corrupt.write_bytes(b"garbage bytes, not sqlite..........")
        assert main(["intel", "stats", str(corrupt)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ttl_flag_requires_db_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "stream", str(tmp_path), "--intel-ttl-days", "7",
        ]) == 2
        assert "--intel-db" in capsys.readouterr().err

    @pytest.mark.parametrize("ttl", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("verb", ["stream", "fleet"])
    def test_ttl_must_be_positive_and_finite(
        self, verb, ttl, sibling_layout, tmp_path, capsys
    ):
        """SQLite stores a NaN expiry as NULL ("never expires"): every
        such value is refused before the store is opened or a line is
        read."""
        from repro.cli import main

        db = tmp_path / "intel.db"
        target = (
            sibling_layout if verb == "fleet" else sibling_layout.parent / "t0"
        )
        assert main([
            verb, str(target), "--intel-db", str(db),
            f"--intel-ttl-days={ttl}",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --intel-ttl-days ")
        assert captured.err.count("\n") == 1
        assert not db.exists()

    def test_generate_ct_siblings_needs_fleet(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "generate", str(tmp_path / "x"), "--ct-siblings", "1",
        ]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_stream_intel_db_persists_profiles(self, tmp_path, capsys):
        from repro.cli import main

        logs = tmp_path / "logs"
        assert main([
            "generate", str(logs), "--hosts", "30", "--days", "3",
            "--seed", "5",
        ]) == 0
        db = tmp_path / "stream.db"
        assert main(["stream", str(logs), "--intel-db", str(db)]) in (0, 1)
        out = capsys.readouterr().out
        assert "intel store:" in out
        store = IntelStore(db)
        assert store.load_profiles()
        store.close()


class TestSnapshotCheckerNonzero:
    def test_nonzero_family_assertion(self, tmp_path):
        import sys as _sys

        _sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
        try:
            from check_metrics_snapshot import check_snapshot
        finally:
            _sys.path.pop(0)
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.counter("intel_store_hits_total", kind="vt").inc(0)
        metrics.counter("other_total").inc(3)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(metrics.snapshot().as_dict()))
        path.with_suffix(".prom").write_text("other_total 3\n")
        assert check_snapshot(path, [], ["other_total"]) == []
        problems = check_snapshot(path, [], ["intel_store_hits_total"])
        assert problems and "above zero" in problems[0]
