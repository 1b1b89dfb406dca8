"""Interned traffic index: the data layer of the scoring hot path.

Belief propagation rescoring (Algorithm 1) repeatedly asks the same
questions of one day's traffic: which hosts contact this domain, when
did a host first reach it, which subnets does it resolve into.  The
plain :class:`~repro.profiling.rare.DailyTraffic` dicts answer them
with string keys and per-call set copies; at production frontier sizes
that dominates a detection pass.

:class:`TrafficIndex` interns hosts and domains into dense integer
ids once and maintains:

* CSR-style host<->domain adjacency -- per-domain host-id lists (in
  first-contact order) and per-host domain-id lists;
* per-(host, domain) first-contact times keyed by the packed id
  pair, so similarity scoring never re-scans a timestamp series;
* per-domain /24 and /16 subnet-key sets, precomputed from resolved
  IPs as they arrive.

The index is built lazily from a day's aggregate
(:meth:`DailyTraffic.index <repro.profiling.rare.DailyTraffic.index>`)
and from then on updated *incrementally* by
:meth:`DailyTraffic.ingest` -- the streaming
:class:`~repro.profiling.window.WindowedAggregator` therefore pays
O(batch) per micro-batch instead of an O(day) rebuild per scoring
call.  Every incremental fold also appends to a *change feed*
(:attr:`TrafficIndex.pair_feed`, :attr:`~TrafficIndex.ip_feed`,
:attr:`~TrafficIndex.rewrite_feed`) so a consumer holding derived state
(:class:`repro.core.scoring.SimilarityIndexState`) keeps a cursor per
feed and pays O(changes since its last look), never a re-scan.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Set
from typing import TYPE_CHECKING

from ..logs.domains import subnet_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rare import DailyTraffic, IngestDigest

#: Shift packing (host_id, domain_id) into one dict key; ids are dense
#: small ints, so the packed key stays a machine-word int in practice.
PAIR_SHIFT = 32
DOMAIN_MASK = (1 << PAIR_SHIFT) - 1


class TrafficIndex:
    """Incrementally maintained integer-id view over one day's traffic."""

    def __init__(self, traffic: "DailyTraffic") -> None:
        # The intern tables are SHARED with the traffic store: both
        # sides assign ids from the same dicts, so the packed pair ids
        # in an :class:`IngestDigest` are directly usable here -- the
        # digest fold touches no string keys at all.  Per-id rows are
        # grown on demand because the traffic store may intern ids
        # before the index sees them.
        self._host_ids: dict[str, int] = traffic._host_ids
        self._domain_ids: dict[str, int] = traffic._domain_ids
        self._host_names: list[str] = traffic._host_names
        self._domain_names: list[str] = traffic._domain_names
        #: per domain id: host ids in first-contact order (CSR rows).
        self._hosts_of: list[list[int]] = []
        #: per host id: domain ids in first-contact order.
        self._domains_of: list[list[int]] = []
        #: packed (host_id << 32 | domain_id) -> earliest timestamp.
        self._first: dict[int, float] = {}
        self._keys24: list[set[str]] = []
        self._keys16: list[set[str]] = []
        # Change feed: append-only logs of what the incremental folds
        # did *after* construction (a consumer starts its cursors at
        # the feeds' ends, so ``_build`` logs nothing).  The pair
        # entries are the very int objects keying ``_first``: one
        # pointer per new pair.
        #: packed pairs, in the order their rows were created.
        self.pair_feed: list[int] = []
        #: ``(domain id, /24 key, /16 key)`` per resolution that put
        #: the domain into a /24 it was not in before.
        self.ip_feed: list[tuple[int, str, str]] = []
        #: packed pairs whose first contact a late, earlier timestamp
        #: rewrote (empty for a time-ordered stream).
        self.rewrite_feed: list[int] = []
        self._build(traffic)

    # ------------------------------------------------------------------
    # Construction / incremental maintenance
    # ------------------------------------------------------------------

    def _build(self, traffic: "DailyTraffic") -> None:
        """Index the traffic's current content (one full scan).  The
        index keeps the shared intern tables, never the traffic itself
        (a back-reference would be a cycle holding the whole day)."""
        for (host, domain), times in traffic.series():
            if not times:
                continue
            # Each pair arrives exactly once here: every row is new.
            h_id = self._intern_host(host)
            d_id = self._intern_domain(domain)
            key = (h_id << PAIR_SHIFT) | d_id
            self._first[key] = min(times)
            self._hosts_of[d_id].append(h_id)
            self._domains_of[h_id].append(d_id)
        for domain, ips in traffic.resolved_ips.items():
            for ip in ips:
                self._record_ip(domain, ip)

    def observe_digest(self, digest: "IngestDigest") -> None:
        """Fold one columnar ingest batch in, without re-looping events.

        Bit-identical to folding the batch's connections one by one:
        each touched pair's earliest batch timestamp (``chunk[0]`` --
        chunks are sorted) is all a row can ever keep from the batch,
        pairs arrive in first-appearance order so new rows land in the
        order per-event processing would produce, and novel
        (domain, ip) resolutions replay in arrival order.  The digest's
        packed pair ids come from the shared intern tables, so the pair
        loop does pure integer work -- no string lookups.
        """
        first = self._first
        hosts_of = self._hosts_of
        domains_of = self._domains_of
        new_pair = self.pair_feed.append
        for pair, chunk in zip(digest.pairs, digest.chunks):
            known = first.get(pair)
            if known is None:
                h_id = pair >> PAIR_SHIFT
                d_id = pair & DOMAIN_MASK
                while len(domains_of) <= h_id:
                    domains_of.append([])
                if len(hosts_of) <= d_id:
                    self._grow_domain_rows(d_id)
                first[pair] = chunk[0]
                hosts_of[d_id].append(h_id)
                domains_of[h_id].append(d_id)
                new_pair(pair)
            elif chunk[0] < known:
                first[pair] = chunk[0]
                self.rewrite_feed.append(pair)
        for domain, ip in digest.novel_ips:
            novel = self._record_ip(domain, ip)
            if novel is not None:
                self.ip_feed.append(novel)

    def _grow_domain_rows(self, d_id: int) -> None:
        """Extend the per-domain rows to cover ``d_id``.

        Ids can be interned by the traffic store before the index
        records them, so row growth is decoupled from id assignment;
        intermediate ids get empty rows, which downstream scorers
        already treat as "no traffic today".
        """
        while len(self._hosts_of) <= d_id:
            self._hosts_of.append([])
            self._keys24.append(set())
            self._keys16.append(set())

    def _intern_host(self, host: str) -> int:
        h_id = self._host_ids.get(host)
        if h_id is None:
            h_id = len(self._host_names)
            self._host_ids[host] = h_id
            self._host_names.append(host)
        while len(self._domains_of) <= h_id:
            self._domains_of.append([])
        return h_id

    def _intern_domain(self, domain: str) -> int:
        d_id = self._domain_ids.get(domain)
        if d_id is None:
            d_id = len(self._domain_names)
            self._domain_ids[domain] = d_id
            self._domain_names.append(domain)
        self._grow_domain_rows(d_id)
        return d_id

    def _record_ip(
        self, domain: str, ip: str
    ) -> tuple[int, str, str] | None:
        """Fold one resolution; the ``ip_feed`` entry when it put the
        domain into a new /24 (a known /24 implies a known /16)."""
        d_id = self._intern_domain(domain)
        key24 = subnet_key(ip, 24)
        if key24 in self._keys24[d_id]:
            return None
        key16 = subnet_key(ip, 16)
        self._keys24[d_id].add(key24)
        self._keys16[d_id].add(key16)
        return d_id, key24, key16

    # ------------------------------------------------------------------
    # Queries (id-level, used by the incremental scorers)
    # ------------------------------------------------------------------

    def domain_id(self, domain: str) -> int | None:
        """Dense id for a domain name; ``None`` when never indexed.

        A domain the shared intern tables know but the index has no
        row for (interned after the last fold) reports ``None`` --
        same contract as before intern-table sharing.
        """
        d_id = self._domain_ids.get(domain)
        if d_id is None or d_id >= len(self._hosts_of):
            return None
        return d_id

    def domain_name(self, d_id: int) -> str:
        """Name interned under ``d_id``."""
        return self._domain_names[d_id]

    def hosts_of(self, d_id: int) -> list[int]:
        """Host ids contacting the domain (first-contact order)."""
        return self._hosts_of[d_id]

    def domains_of(self, h_id: int) -> list[int]:
        """Domain ids the host contacted (first-contact order)."""
        return self._domains_of[h_id]

    def first_contact(self, h_id: int, d_id: int) -> float:
        """Earliest time ``h_id`` reached ``d_id`` (pair must exist)."""
        return self._first[(h_id << PAIR_SHIFT) | d_id]

    def host_count(self, d_id: int) -> int:
        """Distinct hosts contacting the domain today."""
        return len(self._hosts_of[d_id])

    def keys24(self, d_id: int) -> set[str]:
        """/24 subnet keys of the domain's resolved IPs."""
        return self._keys24[d_id]

    def keys16(self, d_id: int) -> set[str]:
        """/16 subnet keys of the domain's resolved IPs."""
        return self._keys16[d_id]

class RareDomHostView(Mapping):
    """Lazy ``dom_host`` map: rare domain -> hosts contacting it.

    Equivalent to ``{d: frozenset(hosts_by_domain[d]) for d in rare}``
    without materializing any copy; belief propagation only reads.
    """

    __slots__ = ("_hosts_by_domain", "_rare")

    def __init__(
        self, hosts_by_domain: Mapping[str, set[str]], rare: Set[str]
    ) -> None:
        self._hosts_by_domain = hosts_by_domain
        self._rare = rare

    def __getitem__(self, domain: str) -> Set[str]:
        if domain not in self._rare:
            raise KeyError(domain)
        hosts = self._hosts_by_domain.get(domain)
        if hosts is None:
            raise KeyError(domain)
        return hosts

    def __contains__(self, domain: object) -> bool:
        return domain in self._rare and domain in self._hosts_by_domain

    def __iter__(self) -> Iterator[str]:
        return (d for d in self._rare if d in self._hosts_by_domain)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class RareDomainsByHostView(Mapping):
    """Lazy ``host_rdom`` map: host -> rare domains it visited.

    Intersections are computed on first access and memoized -- belief
    propagation re-reads each compromised host once per iteration, so
    the cache turns O(iterations x hosts) set work into O(hosts).
    """

    __slots__ = ("_domains_by_host", "_rare", "_cache")

    def __init__(
        self, domains_by_host: Mapping[str, set[str]], rare: Set[str]
    ) -> None:
        self._domains_by_host = domains_by_host
        self._rare = rare
        self._cache: dict[str, set[str]] = {}

    def __getitem__(self, host: str) -> Set[str]:
        cached = self._cache.get(host)
        if cached is None:
            visited = self._domains_by_host.get(host)
            if visited is None:
                raise KeyError(host)
            cached = visited & self._rare
            self._cache[host] = cached
        return cached

    def __contains__(self, host: object) -> bool:
        return host in self._domains_by_host

    def __iter__(self) -> Iterator[str]:
        return iter(self._domains_by_host)

    def __len__(self) -> int:
        return len(self._domains_by_host)
