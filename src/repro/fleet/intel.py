"""Shared intelligence plane for a multi-tenant detection fleet.

The paper's key external inputs -- VirusTotal verdicts and WHOIS
registration records -- are *global*: a domain's VT report or
registration date does not depend on which enterprise asks.  The
:class:`IntelPlane` therefore sits above all per-tenant engines and
provides:

* **memoized, hit/miss-counting caches** over the VT oracle and WHOIS
  database, shared across tenants.  Each cache entry remembers which
  tenant inserted it, so the plane can report *cross-tenant* hits --
  the lookups one enterprise saved another;
* a **cross-tenant prior board**: domains a tenant detected with score
  at or above ``prior_threshold`` are published to the board, and
  each worker's :class:`BoardReplica` answers ``seeds_for(tenant)`` with
  every *other* tenant's qualifying domains.
  Fed into :func:`repro.runner.detect_on_traffic` as ``intel_domains``,
  these become elevated belief-propagation priors -- the paper's
  community-feedback amplification (a domain confirmed malicious for
  one tenant immediately seeds detection everywhere else), applied at
  fleet scale.

Seeding is applied at *day barriers* by the
:class:`~repro.fleet.manager.FleetManager`: every tenant finishes day
``d`` before any detections from day ``d`` are published, so results
are identical regardless of how many workers advance the tenants in
parallel.

The plane is thread-safe (one lock around all mutation); during a
fleet run only the manager process touches it, at the barriers.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from ..intel.virustotal import VirusTotalOracle
from ..intel.whois_db import WhoisDatabase, WhoisRecord


@dataclass
class CacheStats:
    """Lookup accounting for one shared cache."""

    hits: int = 0
    misses: int = 0
    cross_tenant_hits: int = 0
    """Hits on entries first inserted by a *different* tenant."""

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "cross_tenant_hits": self.cross_tenant_hits,
        }

    def absorb(self, counts: dict[str, int]) -> None:
        """Fold another accounting delta (an :meth:`as_dict` document)
        into this one -- how resident workers' cache-fill counters
        reach the manager's plane at each barrier."""
        self.hits += int(counts.get("hits", 0))
        self.misses += int(counts.get("misses", 0))
        self.cross_tenant_hits += int(counts.get("cross_tenant_hits", 0))

    def metrics_samples(self, cache: str) -> dict[str, int]:
        """Counter samples for a metrics-registry collector.

        The plain-int fields stay the hot-path mechanism under the
        plane's lock; a collector registered via
        :meth:`repro.obs.MetricsRegistry.add_collector` folds them into
        every snapshot as
        ``intel_cache_lookups_total{cache=...,outcome=...}``, so the
        unified registry serves the intel-cache stats too.
        """
        from ..obs.metrics import sample_key

        return {
            sample_key(
                "intel_cache_lookups_total", cache=cache, outcome=outcome
            ): value
            for outcome, value in self.as_dict().items()
        }


class _TenantCache:
    """Memo cache whose entries remember the inserting tenant."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: dict[Any, tuple[Any, str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any, tenant_id: str, compute) -> Any:
        entry = self._entries.get(key)
        if entry is not None:
            value, owner = entry
            self.stats.hits += 1
            if owner != tenant_id:
                self.stats.cross_tenant_hits += 1
            return value
        value = compute()
        self.stats.misses += 1
        self._entries[key] = (value, tenant_id)
        return value


class TenantWhoisView:
    """A :class:`WhoisDatabase`-shaped view bound to one tenant.

    Enterprise-path engines query WHOIS during feature extraction
    (DomAge/DomValidity); handing them this view instead of the raw
    registry routes every lookup through a shared, memoized cache --
    anything with ``whois_lookup(tenant_id, domain)``: a worker's
    :class:`~repro.fleet.workers.WorkerIntelCache` or an
    :class:`IntelPlane` -- so one tenant's lookups save the others
    work, and the cross-tenant hit accounting reflects the proxy path
    too.
    """

    def __init__(self, cache, tenant_id: str) -> None:
        self.cache = cache
        self.tenant_id = tenant_id

    def lookup(self, domain: str) -> WhoisRecord | None:
        """Memoized lookup attributed to this view's tenant."""
        return self.cache.whois_lookup(self.tenant_id, domain)


@dataclass(frozen=True)
class BoardEntry:
    """One domain on the cross-tenant prior board."""

    domain: str
    score: float
    """Best detection score seen fleet-wide (C&C/seed labels are 1.0)."""

    tenants: frozenset[str]
    """Tenants that detected the domain."""

    first_day: int
    """Earliest fleet day (round index) the domain was detected on."""

    revision: int = field(default=0, compare=False)
    """Plane-wide revision at which this entry last changed; lets
    :meth:`IntelPlane.board_delta` ship only what a worker has not
    seen yet.  Bookkeeping, not identity -- excluded from equality."""

    def wire(self) -> dict[str, Any]:
        """The entry as plain JSON-able data (the ``INJECT_INTEL``
        payload element a :class:`BoardReplica` consumes)."""
        return {
            "domain": self.domain,
            "score": self.score,
            "tenants": sorted(self.tenants),
            "first_day": self.first_day,
        }


class BoardReplica:
    """Worker-side mirror of the cross-tenant prior board.

    Fleet workers cannot reach the manager's plane between barriers,
    so the manager streams :meth:`IntelPlane.board_delta` entries to
    each worker (the ``INJECT_INTEL`` command) and the replica answers
    :meth:`seeds_for` locally -- the one place the seeding rule lives.
    Entry application is last-writer-wins on whole entries, which is
    safe because the plane's merged entry is the only thing ever sent.
    """

    def __init__(self) -> None:
        self._tenants_by_domain: dict[str, frozenset[str]] = {}
        self.seeds_served = 0

    def __len__(self) -> int:
        return len(self._tenants_by_domain)

    def apply(self, entries: Iterable[dict[str, Any]]) -> None:
        """Fold a batch of :meth:`BoardEntry.wire` documents in."""
        for entry in entries:
            self._tenants_by_domain[str(entry["domain"])] = frozenset(
                entry["tenants"]
            )

    def seeds_for(self, tenant_id: str) -> frozenset[str]:
        """Domains other tenants confirmed -- this tenant's elevated
        priors.  A tenant is never seeded with only its own findings."""
        seeds = frozenset(
            domain
            for domain, tenants in self._tenants_by_domain.items()
            if tenants != frozenset({tenant_id})
        )
        self.seeds_served += len(seeds)
        return seeds


class IntelPlane:
    """Shared VT/WHOIS caches plus the cross-tenant prior board."""

    def __init__(
        self,
        vt: VirusTotalOracle | None = None,
        whois: WhoisDatabase | None = None,
        *,
        prior_threshold: float = 0.4,
    ) -> None:
        self.vt = vt
        self.whois = whois
        self.prior_threshold = prior_threshold
        self.vt_cache = _TenantCache()
        self.whois_cache = _TenantCache()
        self.seeds_served = 0
        self._board: dict[str, BoardEntry] = {}
        self._revision = 0
        self._lock = threading.Lock()
        self._store = None
        self._hydrated_vt: set[str] = set()
        self._hydrated_whois: set[str] = set()

    # ------------------------------------------------------------------
    # Durable store (hydration + write-behind)
    # ------------------------------------------------------------------

    def attach_store(self, store, *, hydrate: bool = True) -> None:
        """Back this plane with a durable :class:`repro.intelstore
        .store.IntelStore`.

        Hydration pre-fills the memoized VT/WHOIS caches from disk
        (never overwriting live entries), so a restarted fleet answers
        those lookups without touching the feeds; the hydrated keys
        are remembered so lookups against them count as store *hits*.
        Afterwards every cache miss is also a store *miss* and is
        written behind for the next :meth:`flush_store`.  Hydrated
        values equal what the feeds would return, so detections are
        byte-identical with or without the store.
        """
        with self._lock:
            self._store = store
            if not hydrate:
                return
            for domain, entry in store.load_vt().items():
                if domain not in self.vt_cache._entries:
                    self.vt_cache._entries[domain] = entry
                    self._hydrated_vt.add(domain)
            for domain, entry in store.load_whois().items():
                if domain not in self.whois_cache._entries:
                    self.whois_cache._entries[domain] = entry
                    self._hydrated_whois.add(domain)

    @property
    def store(self):
        """The attached durable store, or ``None``."""
        return self._store

    def flush_store(self) -> int:
        """Commit write-behind rows to the attached store (rows
        written; 0 when no store is attached) -- called by the manager
        at day barriers and at end of run."""
        store = self._store
        if store is None:
            return 0
        return store.flush()

    def store_stats(self) -> dict[str, Any] | None:
        """The attached store's accounting, or ``None`` without one."""
        store = self._store
        if store is None:
            return None
        return store.stats.as_dict()

    # ------------------------------------------------------------------
    # Shared lookups
    # ------------------------------------------------------------------

    def vt_reported(self, tenant_id: str, domain: str) -> bool | None:
        """Memoized VT verdict: ``True``/``False``, ``None`` if no
        oracle is attached (lookups are still cached and counted, so a
        fleet without a VT feed keeps its sharing accounting)."""
        with self._lock:
            known = domain in self.vt_cache._entries
            value = self.vt_cache.get(
                domain,
                tenant_id,
                lambda: self.vt.is_reported(domain) if self.vt else None,
            )
            if self._store is not None:
                if not known:
                    self._store.stats.count_miss("vt")
                    self._store.put_vt(domain, value, tenant_id)
                elif domain in self._hydrated_vt:
                    self._store.stats.count_hit("vt")
            return value

    def whois_lookup(self, tenant_id: str, domain: str) -> WhoisRecord | None:
        """Memoized WHOIS record (``None`` = unregistered/unparseable)."""
        with self._lock:
            known = domain in self.whois_cache._entries
            value = self.whois_cache.get(
                domain,
                tenant_id,
                lambda: self.whois.lookup(domain) if self.whois else None,
            )
            if self._store is not None:
                if not known:
                    self._store.stats.count_miss("whois")
                    self._store.put_whois(domain, value, tenant_id)
                elif domain in self._hydrated_whois:
                    self._store.stats.count_hit("whois")
            return value

    # ------------------------------------------------------------------
    # Cross-tenant prior board
    # ------------------------------------------------------------------

    def publish(
        self,
        tenant_id: str,
        day: int,
        scored_domains: Iterable[tuple[str, float]],
    ) -> int:
        """Record one tenant's day-``day`` detections on the board.

        Only domains scoring at or above ``prior_threshold`` qualify.
        Publishing is commutative (set union, max score), so the order
        tenants finish a round in does not affect the board.
        """
        added = 0
        with self._lock:
            for domain, score in scored_domains:
                if score < self.prior_threshold:
                    continue
                self._revision += 1
                entry = self._board.get(domain)
                if entry is None:
                    self._board[domain] = BoardEntry(
                        domain=domain,
                        score=score,
                        tenants=frozenset({tenant_id}),
                        first_day=day,
                        revision=self._revision,
                    )
                else:
                    self._board[domain] = BoardEntry(
                        domain=domain,
                        score=max(entry.score, score),
                        tenants=entry.tenants | {tenant_id},
                        first_day=min(entry.first_day, day),
                        revision=self._revision,
                    )
                added += 1
        return added

    def board_delta(
        self, since: int
    ) -> tuple[int, list[dict[str, Any]]]:
        """Board entries changed after revision ``since``, as wire
        documents, plus the current revision.

        The manager tracks each resident worker's synced revision and
        ships only this delta per round (``since=0`` is a full sync --
        what a freshly spawned or respawned worker gets).
        """
        with self._lock:
            entries = [
                entry.wire()
                for entry in self._board.values()
                if entry.revision > since
            ]
            return self._revision, entries

    @property
    def board(self) -> dict[str, BoardEntry]:
        with self._lock:
            return dict(self._board)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Serve this plane's cache stats through a metrics registry.

        Registers one collector sampling both tenant caches (VT and
        WHOIS) at snapshot time, so ``--metrics-out`` exposition and
        the plane's own ``CacheStats`` objects stay a single source of
        truth -- the counters live here, the registry reads them.
        """
        if metrics is None or not getattr(metrics, "enabled", False):
            return
        metrics.add_collector(self._metrics_samples)

    def _metrics_samples(self) -> dict[str, int]:
        with self._lock:
            samples = self.vt_cache.stats.metrics_samples("vt")
            samples.update(self.whois_cache.stats.metrics_samples("whois"))
        return samples

    # ------------------------------------------------------------------
    # Persistence (fleet checkpoint)
    # ------------------------------------------------------------------

    def encode(self) -> dict[str, Any]:
        """JSON-serializable snapshot (board + cache accounting).

        Cache *contents* for VT are persisted (they are plain verdicts);
        WHOIS records are re-fetchable from the attached database and
        only their accounting is kept.
        """
        with self._lock:
            return {
                "prior_threshold": self.prior_threshold,
                "board": {
                    entry.domain: {
                        "score": entry.score,
                        "tenants": sorted(entry.tenants),
                        "first_day": entry.first_day,
                    }
                    for entry in self._board.values()
                },
                "vt_entries": {
                    domain: [value, owner]
                    for domain, (value, owner)
                    in self.vt_cache._entries.items()
                },
                "vt_stats": self.vt_cache.stats.as_dict(),
                "whois_stats": self.whois_cache.stats.as_dict(),
                "seeds_served": self.seeds_served,
            }

    def restore(self, payload: dict[str, Any]) -> None:
        """Refill the board and accounting from :meth:`encode` output."""
        with self._lock:
            self.prior_threshold = float(payload["prior_threshold"])
            # Restored entries get fresh revisions so every worker's
            # next delta sync (since=0 after a restart) resends them.
            self._board = {}
            self._revision = 0
            for domain, entry in payload["board"].items():
                self._revision += 1
                self._board[str(domain)] = BoardEntry(
                    domain=str(domain),
                    score=float(entry["score"]),
                    tenants=frozenset(entry["tenants"]),
                    first_day=int(entry["first_day"]),
                    revision=self._revision,
                )
            self.vt_cache._entries = {
                str(domain): (value, str(owner))
                for domain, (value, owner) in payload["vt_entries"].items()
            }
            self.vt_cache.stats = CacheStats(**payload["vt_stats"])
            self.whois_cache.stats = CacheStats(**payload["whois_stats"])
            self.seeds_served = int(payload["seeds_served"])
