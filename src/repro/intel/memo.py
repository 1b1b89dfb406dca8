"""One memoized intel lookup, shared by every verb.

VirusTotal verdicts and WHOIS registrations -- the paper's external
evidence (Section IV-C's DomAge/DomValidity features, Section VI-B's
validation) -- do not depend on which enterprise asks, so every
consumer memoizes them through :class:`IntelMemo`: the fleet
:class:`~repro.fleet.intel.IntelPlane`'s VT and WHOIS caches, a fleet
worker's WHOIS cache, and the registry ``stream --intel-db`` hands its
enterprise engine (through :class:`TenantWhoisView`, tenant
``"stream"``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .whois_db import WhoisRecord


@dataclass
class CacheStats:
    """Lookup accounting for one memo."""

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

        The plain-int fields stay the hot-path mechanism; a collector
        registered via :meth:`repro.obs.MetricsRegistry.add_collector`
        folds them into every snapshot as
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


class IntelMemo:
    """Memoized ``kind`` lookups (``"vt"`` or ``"whois"``) with tenant
    attribution and an optional durable store.

    ``feed`` answers a key the memo has not seen (a VT oracle's
    ``is_reported``, a registry's ``lookup``); without one every answer
    is ``None``, still memoized and counted.  Each entry remembers the
    tenant that asked first, so :class:`CacheStats` counts
    *cross-tenant* hits -- the lookups one enterprise saved another.

    With an :class:`~repro.intelstore.store.IntelStore` attached, each
    lookup of a loaded entry counts one store hit, and each newly
    computed entry one store miss plus one write-behind row for the
    store's next ``flush``.  A loaded value equals what the feed
    returns, so detections do not depend on the store.  The memo takes
    no lock: the fleet's plane holds its own around every call.
    """

    def __init__(
        self, kind: str, feed: Callable[[str], Any] | None = None
    ) -> None:
        self.kind = kind
        self.feed = feed
        self.stats = CacheStats()
        self.entries: dict[str, tuple[Any, str]] = {}
        """key -> (value, tenant that asked first)."""

        self.store = None
        self._loaded: set[str] = set()

    def attach_store(self, store) -> None:
        """Back this memo with a durable store: load its fresh entries
        (never over a live one) and write every new entry behind."""
        self.store = store
        stored = store.load_vt() if self.kind == "vt" else store.load_whois()
        for key, entry in stored.items():
            if key not in self.entries:
                self.entries[key] = entry
                self._loaded.add(key)

    def lookup(self, tenant_id: str, key: str) -> Any:
        """The memoized answer for ``key``, attributed to ``tenant_id``."""
        entry = self.entries.get(key)
        if entry is not None:
            value, owner = entry
            self.stats.hits += 1
            if owner != tenant_id:
                self.stats.cross_tenant_hits += 1
            if self.store is not None and key in self._loaded:
                self.store.stats.count_hit(self.kind)
            return value
        value = self.feed(key) if self.feed is not None else None
        self.stats.misses += 1
        self.entries[key] = (value, tenant_id)
        if self.store is not None:
            self.store.stats.count_miss(self.kind)
            store = self.store
            put = store.put_vt if self.kind == "vt" else store.put_whois
            put(key, value, tenant_id)
        return value


class TenantWhoisView:
    """A :class:`~repro.intel.whois_db.WhoisDatabase`-shaped view of a
    WHOIS :class:`IntelMemo`, bound to one tenant.

    Enterprise engines query WHOIS during feature extraction
    (DomAge/DomValidity); handing them this view instead of the raw
    registry routes every lookup through the shared memo, so one
    tenant's lookups save the others work and the hit accounting
    (cross-tenant and store) covers the proxy path too.
    """

    def __init__(self, memo: IntelMemo, tenant_id: str) -> None:
        self.memo = memo
        self.tenant_id = tenant_id

    def lookup(self, domain: str) -> WhoisRecord | None:
        """Memoized lookup attributed to this view's tenant."""
        return self.memo.lookup(self.tenant_id, domain)
