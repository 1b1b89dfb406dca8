"""Shared intelligence plane for a multi-tenant detection fleet.

The paper's key external inputs -- VirusTotal verdicts and WHOIS
registration records -- are *global*: a domain's VT report or
registration date does not depend on which enterprise asks.  The
:class:`IntelPlane` therefore sits above all per-tenant engines and
provides:

* **memoized, hit/miss-counting caches** over the VT oracle and WHOIS
  database, shared across tenants: two :class:`~repro.intel.memo
  .IntelMemo` instances, which count *cross-tenant* hits (the lookups
  one enterprise saved another) and, with a store, store hits;
* a **cross-tenant prior board**: domains a tenant detected with score
  at or above :data:`PRIOR_THRESHOLD` are published to the board, and
  :meth:`IntelPlane.seeds_for` answers a tenant with every *other*
  tenant's qualifying domains -- the seeds the manager puts in that
  tenant's next ``ADVANCE_DAY`` task.
  Fed into :func:`repro.core.dayloop.close_day` as ``intel_domains``,
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
from dataclasses import dataclass
from typing import Any

from ..intel.memo import CacheStats, IntelMemo
from ..intel.virustotal import VirusTotalOracle
from ..intel.whois_db import WhoisDatabase, WhoisRecord

#: Lowest publication score a detection needs to go on the prior board
#: (C&C and seed labels score 1.0).
PRIOR_THRESHOLD = 0.4


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


class IntelPlane:
    """Shared VT/WHOIS caches plus the cross-tenant prior board."""

    def __init__(
        self,
        vt: VirusTotalOracle | None = None,
        whois: WhoisDatabase | None = None,
    ) -> None:
        self.vt = vt
        self.whois = whois
        self.vt_cache = IntelMemo(
            "vt", vt.is_reported if vt is not None else None
        )
        self.whois_cache = IntelMemo(
            "whois", whois.lookup if whois is not None else None
        )
        self.seeds_served = 0
        self._board: dict[str, BoardEntry] = {}
        self._lock = threading.Lock()
        self.store = None
        """The attached durable store, or ``None``."""

    def attach_store(self, store) -> None:
        """Back both caches with a durable :class:`repro.intelstore
        .store.IntelStore`: a restarted fleet answers stored lookups
        without touching the feeds, and every new answer is written
        behind for the store's next ``flush``."""
        with self._lock:
            self.store = store
            self.vt_cache.attach_store(store)
            self.whois_cache.attach_store(store)

    # ------------------------------------------------------------------
    # Shared lookups
    # ------------------------------------------------------------------

    def vt_reported(self, tenant_id: str, domain: str) -> bool | None:
        """Memoized VT verdict: ``True``/``False``, ``None`` if no
        oracle is attached (lookups are still cached and counted, so a
        fleet without a VT feed keeps its sharing accounting)."""
        with self._lock:
            return self.vt_cache.lookup(tenant_id, domain)

    def whois_lookup(self, tenant_id: str, domain: str) -> WhoisRecord | None:
        """Memoized WHOIS record (``None`` = unregistered/unparseable)."""
        with self._lock:
            return self.whois_cache.lookup(tenant_id, domain)

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

        Only domains scoring at or above :data:`PRIOR_THRESHOLD` qualify.
        Publishing is commutative (set union, max score), so the order
        tenants finish a round in does not affect the board.
        """
        added = 0
        with self._lock:
            for domain, score in scored_domains:
                if score < PRIOR_THRESHOLD:
                    continue
                entry = self._board.get(domain)
                if entry is None:
                    self._board[domain] = BoardEntry(
                        domain=domain,
                        score=score,
                        tenants=frozenset({tenant_id}),
                        first_day=day,
                    )
                else:
                    self._board[domain] = BoardEntry(
                        domain=domain,
                        score=max(entry.score, score),
                        tenants=entry.tenants | {tenant_id},
                        first_day=min(entry.first_day, day),
                    )
                added += 1
        return added

    def seeds_for(self, tenant_id: str) -> frozenset[str]:
        """Domains other tenants confirmed -- this tenant's elevated
        priors.  A tenant is never seeded with only its own findings."""
        own = frozenset({tenant_id})
        with self._lock:
            return frozenset(
                domain
                for domain, entry in self._board.items()
                if entry.tenants != own
            )

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
                    in self.vt_cache.entries.items()
                },
                "vt_stats": self.vt_cache.stats.as_dict(),
                "whois_stats": self.whois_cache.stats.as_dict(),
                "seeds_served": self.seeds_served,
            }

    def restore(self, payload: dict[str, Any]) -> None:
        """Refill the board and accounting from :meth:`encode` output."""
        with self._lock:
            self._board = {
                str(domain): BoardEntry(
                    domain=str(domain),
                    score=float(entry["score"]),
                    tenants=frozenset(entry["tenants"]),
                    first_day=int(entry["first_day"]),
                )
                for domain, entry in payload["board"].items()
            }
            self.vt_cache.entries = {
                str(domain): (value, str(owner))
                for domain, (value, owner) in payload["vt_entries"].items()
            }
            self.vt_cache.stats = CacheStats(**payload["vt_stats"])
            self.whois_cache.stats = CacheStats(**payload["whois_stats"])
            self.seeds_served = int(payload["seeds_served"])
