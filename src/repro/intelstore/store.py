"""Durable intel store: SQLite-backed persistence for the intel plane.

The paper's external evidence -- VirusTotal verdicts and WHOIS
registration records (conf_dsn_OpreaLYCA15 Section IV) -- is global
and slow-changing, yet the fleet's :class:`~repro.fleet.intel
.IntelPlane` caches were memory-only: every restart re-learned
"new/rare" and re-paid every lookup.  :class:`IntelStore` makes the
plane durable with nothing beyond the standard library:

* **SQLite in WAL mode** -- one file, concurrent readers, no server;
* **write-behind batching** -- ``put_*`` calls enqueue rows in memory
  and :meth:`flush` commits them in one transaction at fleet day
  barriers, so the detection hot path never waits on disk;
* **TTL'd entries** -- rows may carry an ``expires_at`` instant;
  expired rows are skipped on hydration and reaped by
  :meth:`purge_expired` (the CLI's ``intel vacuum``);
* **one schema version** -- the ``meta`` table records it, and a file
  at any other version is refused like a corrupt one: the store is a
  cache of re-derivable facts, so recovery is deletion.

What is persisted: VT verdicts, WHOIS/RDAP records (with registrar
and source provenance), certificate-transparency observations
(:class:`~repro.intelstore.ct.CertObservation` rows), and rolling
per-tenant detection history profiles.  :func:`open_intel_store`
opens it for ``stream`` and the fleet manager;
:class:`~repro.intel.memo.IntelMemo` loads and writes its VT/WHOIS
rows.  Fleet workers never touch it.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..config import InputError
from ..intel.whois_db import SECONDS_PER_DAY, WhoisRecord
from ..obs.metrics import NULL_METRICS, sample_key
from .ct import CertObservation

SCHEMA_VERSION = 2

#: The on-disk schema: VT verdicts, WHOIS/RDAP records with their
#: provenance (registrar, source), CT observations and per-tenant
#: detection profiles.
_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS vt_verdicts ("
    " domain TEXT PRIMARY KEY, reported INTEGER, tenant TEXT NOT NULL,"
    " updated_at REAL NOT NULL, expires_at REAL)",
    "CREATE TABLE IF NOT EXISTS whois_records ("
    " domain TEXT PRIMARY KEY, registered REAL, expires REAL,"
    " tenant TEXT NOT NULL, updated_at REAL NOT NULL, expires_at REAL,"
    " registrar TEXT, source TEXT NOT NULL DEFAULT 'whois')",
    "CREATE TABLE IF NOT EXISTS ct_certs ("
    " fingerprint TEXT PRIMARY KEY, not_before REAL NOT NULL,"
    " not_after REAL NOT NULL, issuer TEXT NOT NULL,"
    " updated_at REAL NOT NULL, expires_at REAL)",
    "CREATE TABLE IF NOT EXISTS ct_sans ("
    " fingerprint TEXT NOT NULL, domain TEXT NOT NULL,"
    " PRIMARY KEY (fingerprint, domain))",
    "CREATE INDEX IF NOT EXISTS ct_sans_by_domain ON ct_sans (domain)",
    "CREATE TABLE IF NOT EXISTS tenant_profiles ("
    " tenant TEXT NOT NULL, domain TEXT NOT NULL,"
    " first_day INTEGER NOT NULL, last_day INTEGER NOT NULL,"
    " days_detected INTEGER NOT NULL, best_score REAL NOT NULL,"
    " PRIMARY KEY (tenant, domain))",
)

_TABLES = (
    "vt_verdicts", "whois_records", "ct_certs", "ct_sans",
    "tenant_profiles",
)

#: Tables whose rows carry a TTL column (``expires_at``).
_TTL_TABLES = ("vt_verdicts", "whois_records", "ct_certs")


class IntelStoreError(InputError):
    """Raised on unreadable, corrupt or other-versioned databases."""


@dataclass
class StoreStats:
    """Plain-int accounting for one store (collector-served).

    ``hits``/``misses`` are keyed by lookup kind (``vt``/``whois``):
    a *hit* is a lookup answered by an entry hydrated from disk, a
    *miss* a lookup that had to be computed and was enqueued for the
    next flush.  The counters live here as plain ints (the hot-path
    mechanism); :meth:`metrics_samples` serves them into snapshots via
    the registry's collector pattern.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    evictions: int = 0
    flush_batches: int = 0
    flushed_rows: int = 0

    def count_hit(self, kind: str) -> None:
        self.hits[kind] = self.hits.get(kind, 0) + 1

    def count_miss(self, kind: str) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1

    def total_hits(self) -> int:
        return sum(self.hits.values())

    def total_misses(self) -> int:
        return sum(self.misses.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "evictions": self.evictions,
            "flush_batches": self.flush_batches,
            "flushed_rows": self.flushed_rows,
        }

    def metrics_samples(self) -> dict[str, int]:
        """Counter samples for a metrics-registry collector
        (``intel_store_*`` family)."""
        samples = {
            sample_key("intel_store_hits_total", kind=kind): value
            for kind, value in self.hits.items()
        }
        samples.update({
            sample_key("intel_store_misses_total", kind=kind): value
            for kind, value in self.misses.items()
        })
        samples[sample_key("intel_store_evictions_total")] = self.evictions
        samples[sample_key("intel_store_flush_batches_total")] = (
            self.flush_batches
        )
        return samples


def create_schema(conn: sqlite3.Connection) -> None:
    """Create the store schema on a raw connection (tests build files
    at other versions from it)."""
    for statement in _SCHEMA:
        conn.execute(statement)
    conn.execute(
        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
        ("schema_version", str(SCHEMA_VERSION)),
    )
    conn.commit()


class IntelStore:
    """Write-behind, TTL'd, schema-versioned SQLite intel store.

    ``ttl_seconds`` (optional) stamps every written row with an expiry
    instant; ``clock`` injects the time source (tests pass a fake).
    ``batch_size`` bounds the rows per ``executemany`` chunk at flush.
    All methods are thread-safe (one lock); the write path only ever
    appends to in-memory pending lists, so lookups stay cheap.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        ttl_seconds: float | None = None,
        batch_size: int = 500,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl_seconds is not None and not 0 < ttl_seconds < math.inf:
            raise IntelStoreError("ttl_seconds must be positive and finite")
        if batch_size < 1:
            raise IntelStoreError("batch_size must be positive")
        self.path = Path(path)
        self.ttl_seconds = ttl_seconds
        self.batch_size = batch_size
        self.clock = clock
        self.stats = StoreStats()
        self._metrics = NULL_METRICS
        self._lock = threading.Lock()
        self._pending: dict[str, list[tuple]] = {
            "vt": [], "whois": [], "certs": [], "sans": [],
        }
        self._pending_profiles: dict[tuple[str, str], list] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._ensure_schema()
        except sqlite3.DatabaseError as exc:
            raise IntelStoreError(
                f"cannot open intel store {self.path}: {exc} "
                "(if the file is corrupt, delete it and re-run -- the "
                "store re-fills from the live feeds; see the "
                "operations runbook)"
            ) from exc

    # ------------------------------------------------------------------
    # Schema lifecycle
    # ------------------------------------------------------------------

    def _ensure_schema(self) -> None:
        """Create a fresh schema; refuse a file at another version as
        unreadable, like a corrupt one -- its rows are re-derivable."""
        has_meta = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name='meta'"
        ).fetchone()
        if has_meta is None:
            create_schema(self._conn)
            return
        version = self.schema_version
        if version != SCHEMA_VERSION:
            raise sqlite3.DatabaseError(
                f"schema version {version} is "
                f"{'newer' if version > SCHEMA_VERSION else 'older'} than "
                f"this build's {SCHEMA_VERSION}"
            )

    @property
    def schema_version(self) -> int:
        """The on-disk schema version (current once open)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        return int(row[0]) if row is not None else 1

    # ------------------------------------------------------------------
    # Write-behind puts
    # ------------------------------------------------------------------

    def _expires_at(self) -> float | None:
        if self.ttl_seconds is None:
            return None
        return self.clock() + self.ttl_seconds

    def put_vt(
        self, domain: str, reported: bool | None, tenant: str = ""
    ) -> None:
        """Enqueue one VT verdict (``None`` = looked up, no feed)."""
        row = (
            domain,
            None if reported is None else int(reported),
            tenant, self.clock(), self._expires_at(),
        )
        with self._lock:
            self._pending["vt"].append(row)

    def put_whois(
        self,
        domain: str,
        record: WhoisRecord | None,
        tenant: str = "",
        *,
        registrar: str | None = None,
        source: str = "whois",
    ) -> None:
        """Enqueue one WHOIS/RDAP record (``None`` = negative entry:
        the registry was asked and had nothing -- worth persisting, so
        a restarted fleet skips the same fruitless lookups)."""
        if record is None:
            row = (domain, None, None, registrar, source, tenant,
                   self.clock(), self._expires_at())
        else:
            row = (domain, record.registered, record.expires, registrar,
                   source, tenant, self.clock(), self._expires_at())
        with self._lock:
            self._pending["whois"].append(row)

    def put_cert(self, cert: CertObservation) -> None:
        """Enqueue one CT certificate observation (plus its SAN rows)."""
        now = self.clock()
        expires = self._expires_at()
        with self._lock:
            self._pending["certs"].append((
                cert.fingerprint, cert.not_before, cert.not_after,
                cert.issuer, now, expires,
            ))
            for san in cert.sans:
                self._pending["sans"].append((cert.fingerprint, san))

    def record_day(
        self, tenant: str, day: int, scores: Mapping[str, float]
    ) -> None:
        """Fold one tenant's day of publication scores (domain -> score,
        as :meth:`~repro.core.DayReport.publication_scores`
        returns them) into its rolling domain profiles."""
        with self._lock:
            for domain, score in scores.items():
                entry = self._pending_profiles.get((tenant, domain))
                if entry is None:
                    self._pending_profiles[(tenant, domain)] = [
                        day, day, 1, float(score),
                    ]
                else:
                    entry[0] = min(entry[0], day)
                    entry[1] = max(entry[1], day)
                    entry[2] += 1
                    entry[3] = max(entry[3], float(score))

    def pending_rows(self) -> int:
        """Rows currently enqueued and not yet flushed to disk."""
        with self._lock:
            return (
                sum(len(rows) for rows in self._pending.values())
                + len(self._pending_profiles)
            )

    # ------------------------------------------------------------------
    # Flush (the day-barrier commit)
    # ------------------------------------------------------------------

    _INSERTS = {
        "vt": "INSERT OR REPLACE INTO vt_verdicts "
              "(domain, reported, tenant, updated_at, expires_at) "
              "VALUES (?, ?, ?, ?, ?)",
        "whois": "INSERT OR REPLACE INTO whois_records "
                 "(domain, registered, expires, registrar, source, "
                 "tenant, updated_at, expires_at) "
                 "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        "certs": "INSERT OR REPLACE INTO ct_certs "
                 "(fingerprint, not_before, not_after, issuer, "
                 "updated_at, expires_at) VALUES (?, ?, ?, ?, ?, ?)",
        "sans": "INSERT OR REPLACE INTO ct_sans (fingerprint, domain) "
                "VALUES (?, ?)",
    }

    _PROFILE_UPSERT = (
        "INSERT INTO tenant_profiles "
        "(tenant, domain, first_day, last_day, days_detected, best_score) "
        "VALUES (?, ?, ?, ?, ?, ?) "
        "ON CONFLICT (tenant, domain) DO UPDATE SET "
        "first_day=MIN(first_day, excluded.first_day), "
        "last_day=MAX(last_day, excluded.last_day), "
        "days_detected=days_detected+excluded.days_detected, "
        "best_score=MAX(best_score, excluded.best_score)"
    )

    def flush(self) -> int:
        """Commit every pending row in one transaction; rows written.

        Rows are applied in enqueue order per table (last writer wins
        on key collisions -- the ordering the tests pin down), chunked
        ``batch_size`` rows per ``executemany`` batch.
        """
        with self._lock:
            pending = {
                kind: rows for kind, rows in self._pending.items() if rows
            }
            profiles = self._pending_profiles
            if not pending and not profiles:
                return 0
            self._pending = {kind: [] for kind in self._pending}
            self._pending_profiles = {}
            with self._metrics.span("intel_store_flush"):
                written = 0
                batches = 0
                for kind, rows in pending.items():
                    statement = self._INSERTS[kind]
                    for start in range(0, len(rows), self.batch_size):
                        chunk = rows[start:start + self.batch_size]
                        self._conn.executemany(statement, chunk)
                        written += len(chunk)
                        batches += 1
                if profiles:
                    rows = [
                        (tenant, domain, *entry)
                        for (tenant, domain), entry
                        in sorted(profiles.items())
                    ]
                    for start in range(0, len(rows), self.batch_size):
                        chunk = rows[start:start + self.batch_size]
                        self._conn.executemany(self._PROFILE_UPSERT, chunk)
                        written += len(chunk)
                        batches += 1
                self._conn.commit()
            self.stats.flush_batches += batches
            self.stats.flushed_rows += written
            return written

    # ------------------------------------------------------------------
    # Hydration reads
    # ------------------------------------------------------------------

    def _fresh(self, expires_at: float | None, now: float) -> bool:
        """Whether a row's TTL (if any) has not lapsed; expired rows
        count as evictions (they are gone from the caller's view even
        before ``purge_expired`` reaps them from disk)."""
        if expires_at is None or expires_at > now:
            return True
        self.stats.evictions += 1
        return False

    def load_vt(self) -> dict[str, tuple[bool | None, str]]:
        """Every fresh VT verdict: domain -> (reported, owner tenant)."""
        now = self.clock()
        out: dict[str, tuple[bool | None, str]] = {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT domain, reported, tenant, expires_at "
                "FROM vt_verdicts"
            ).fetchall()
            for domain, reported, tenant, expires_at in rows:
                if not self._fresh(expires_at, now):
                    continue
                value = None if reported is None else bool(reported)
                out[str(domain)] = (value, str(tenant))
        return out

    def load_whois(self) -> dict[str, tuple[WhoisRecord | None, str]]:
        """Every fresh WHOIS record: domain -> (record | None, owner).

        ``None`` values are persisted negative entries (domain known
        unregistered/unparseable), hydrated so the imputation path is
        also served from disk.
        """
        now = self.clock()
        out: dict[str, tuple[WhoisRecord | None, str]] = {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT domain, registered, expires, tenant, expires_at "
                "FROM whois_records"
            ).fetchall()
            for domain, registered, expires, tenant, expires_at in rows:
                if not self._fresh(expires_at, now):
                    continue
                record = (
                    WhoisRecord(
                        domain=str(domain),
                        registered=float(registered),
                        expires=float(expires),
                    )
                    if registered is not None and expires is not None
                    else None
                )
                out[str(domain)] = (record, str(tenant))
        return out

    def load_certs(self) -> list[CertObservation]:
        """Every fresh CT observation, SANs re-attached, sorted by
        fingerprint (deterministic hydration order)."""
        now = self.clock()
        out: list[CertObservation] = []
        with self._lock:
            sans: dict[str, list[str]] = {}
            for fingerprint, domain in self._conn.execute(
                "SELECT fingerprint, domain FROM ct_sans ORDER BY "
                "fingerprint, domain"
            ):
                sans.setdefault(str(fingerprint), []).append(str(domain))
            rows = self._conn.execute(
                "SELECT fingerprint, not_before, not_after, issuer, "
                "expires_at FROM ct_certs ORDER BY fingerprint"
            ).fetchall()
            for fingerprint, not_before, not_after, issuer, expires_at \
                    in rows:
                if not self._fresh(expires_at, now):
                    continue
                out.append(CertObservation(
                    fingerprint=str(fingerprint),
                    not_before=float(not_before),
                    not_after=float(not_after),
                    issuer=str(issuer),
                    sans=tuple(sans.get(str(fingerprint), ())),
                ))
        return out

    def load_profiles(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Every per-tenant domain profile, keyed (tenant, domain)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, domain, first_day, last_day, "
                "days_detected, best_score FROM tenant_profiles"
            ).fetchall()
        return {
            (str(tenant), str(domain)): {
                "first_day": int(first), "last_day": int(last),
                "days_detected": int(days), "best_score": float(best),
            }
            for tenant, domain, first, last, days, best in rows
        }

    # ------------------------------------------------------------------
    # Maintenance (the `repro-detect intel` verbs)
    # ------------------------------------------------------------------

    def purge_expired(self) -> int:
        """Delete every TTL-lapsed row; returns rows reaped."""
        now = self.clock()
        reaped = 0
        with self._lock:
            for table in _TTL_TABLES:
                cursor = self._conn.execute(
                    f"DELETE FROM {table} WHERE expires_at IS NOT NULL "
                    "AND expires_at <= ?",
                    (now,),
                )
                reaped += cursor.rowcount
            # SANs of reaped certs go with them.
            cursor = self._conn.execute(
                "DELETE FROM ct_sans WHERE fingerprint NOT IN "
                "(SELECT fingerprint FROM ct_certs)"
            )
            reaped += cursor.rowcount
            self._conn.commit()
        self.stats.evictions += reaped
        return reaped

    def vacuum(self) -> None:
        """Flush pending rows, then compact the database file."""
        self.flush()
        with self._lock:
            self._conn.execute("VACUUM")

    def stats_document(self) -> dict[str, Any]:
        """Inspectable summary (the ``intel stats`` JSON document)."""
        with self._lock:
            tables = {
                table: int(self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0])
                for table in _TABLES
            }
        return {
            "path": str(self.path),
            "schema_version": self.schema_version,
            "size_bytes": (
                self.path.stat().st_size if self.path.exists() else 0
            ),
            "ttl_seconds": self.ttl_seconds,
            "tables": tables,
            "pending_rows": self.pending_rows(),
            "stats": self.stats.as_dict(),
        }

    def export_document(self) -> dict[str, Any]:
        """The full store contents as one JSON-able document."""
        vt = self.load_vt()
        whois = self.load_whois()
        return {
            "schema_version": self.schema_version,
            "vt_verdicts": {
                domain: {"reported": value, "tenant": tenant}
                for domain, (value, tenant) in sorted(vt.items())
            },
            "whois_records": {
                domain: {
                    "registered": (
                        record.registered if record is not None else None
                    ),
                    "expires": (
                        record.expires if record is not None else None
                    ),
                    "tenant": tenant,
                }
                for domain, (record, tenant) in sorted(whois.items())
            },
            "ct_certs": [
                {
                    "fingerprint": cert.fingerprint,
                    "not_before": cert.not_before,
                    "not_after": cert.not_after,
                    "issuer": cert.issuer,
                    "sans": list(cert.sans),
                }
                for cert in self.load_certs()
            ],
            "tenant_profiles": [
                {"tenant": tenant, "domain": domain, **profile}
                for (tenant, domain), profile
                in sorted(self.load_profiles().items())
            ],
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Serve this store's counters through a metrics registry and
        record flush timings into its ``intel_store_flush_seconds``
        span histogram (the collector pattern the plane uses)."""
        if metrics is None or not getattr(metrics, "enabled", False):
            return
        self._metrics = metrics
        metrics.add_collector(self.stats.metrics_samples)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush pending rows and release the connection."""
        try:
            self.flush()
        finally:
            self._conn.close()


def check_intel_flags(
    path: str | Path | None, ttl_days: float | None
) -> None:
    """Refuse, touching no file, a TTL without a path or one that is
    not a positive, finite number of days (SQLite stores a NaN expiry
    as NULL, which reads as "never expires")."""
    if path is None and ttl_days is not None:
        raise IntelStoreError("--intel-ttl-days requires --intel-db")
    if ttl_days is not None and not 0 < ttl_days < math.inf:
        raise IntelStoreError(
            "--intel-ttl-days must be a positive, finite number of days, "
            f"not {ttl_days}"
        )


def open_intel_store(
    path: str | Path | None,
    ttl_days: float | None = None,
    *,
    metrics=None,
) -> IntelStore | None:
    """The store behind ``--intel-db PATH`` / ``--intel-ttl-days N``
    (``None`` without a path), once :func:`check_intel_flags` passes;
    its counters and flush timings are served through ``metrics``.
    The one opener of ``replay_directory`` and ``FleetManager.run``.
    """
    check_intel_flags(path, ttl_days)
    if path is None:
        return None
    store = IntelStore(
        path,
        ttl_seconds=None if ttl_days is None else ttl_days * SECONDS_PER_DAY,
    )
    store.bind_metrics(metrics)
    return store


def export_json(store: IntelStore) -> str:
    """The export document rendered as pretty JSON (CLI helper)."""
    return json.dumps(store.export_document(), indent=1) + "\n"


__all__ = [
    "SCHEMA_VERSION",
    "IntelStore",
    "IntelStoreError",
    "StoreStats",
    "check_intel_flags",
    "create_schema",
    "export_json",
    "open_intel_store",
]
