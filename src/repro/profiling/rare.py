"""Daily rare-destination extraction (Section III-A) over a columnar core.

A destination is **rare** on a day when it is both

* *new* -- never contacted by any internal host before that day, and
* *unpopular* -- contacted by fewer than ``unpopular_max_hosts``
  distinct hosts during the day (default 10, per SOC guidance).

:class:`DailyTraffic` aggregates one day of normalized connections into
the per-domain / per-host indexes everything downstream consumes:
the rare set, the ``dom_host`` and ``host_rdom`` maps of Algorithm 1,
and per-(host, domain) timestamp series for the timing detector.

**Columnar layout.**  Events land in typed NumPy columns -- one
``int64`` column of packed ``(host_id << 32) | domain_id`` pair keys
and one ``float64`` column of timestamps -- grown by amortized
doubling.  Each :meth:`DailyTraffic.ingest` call appends its batch,
lexsorts the new span by (pair, time) *once*, and merges the per-pair
runs into sorted per-pair series; the same grouped pass grows the
id-level scoring rows and produces an :class:`IngestDigest` that the
streaming window and engine consume instead of re-looping over the
batch event by event.  Readers get the sorted per-pair series by
lookup (:meth:`DailyTraffic.connection_times`) or all of them in pair
first-appearance order (:meth:`DailyTraffic.series`).
A checkpoint carries the event columns themselves
(:meth:`DailyTraffic.event_columns` / :meth:`DailyTraffic.load_events`).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from ..logs.domains import subnet_key
from ..logs.records import Connection, ConnectionBatch
from .history import DestinationHistory

#: Shift packing (host_id, domain_id) into one int key; ids are dense
#: small ints, so the packed key stays a machine-word int in practice.
PAIR_SHIFT = 32
DOMAIN_MASK = (1 << PAIR_SHIFT) - 1


def _run_key(item: Connection | ConnectionBatch) -> object:
    """A batch is a run of its own; connections run together while
    their ``user_agent`` / ``referer`` stay ``None`` (or strings)."""
    if item.__class__ is ConnectionBatch:
        return id(item)
    return item.user_agent is None, item.referer is None


def _batches(
    items: Iterable[Connection | ConnectionBatch],
) -> Iterator[ConnectionBatch]:
    """``items`` as columnar batches, in arrival order: a batch passes
    through, each run of connections packs into one (a batch column is
    all strings or ``None``, so a run ends where a field's ``None``-ness
    switches)."""
    for key, run in groupby(items, _run_key):
        if key.__class__ is int:
            yield from run
        else:
            yield ConnectionBatch.from_connections(list(run))


@dataclass(frozen=True, slots=True)
class IngestDigest:
    """Grouped summary of one :meth:`DailyTraffic.ingest` batch.

    Everything the per-event consumers of a batch used to recompute by
    looping over the connections again -- touched pairs and
    popularity-relevant domains -- derived once from the columnar
    grouping.  Pairs appear in first-within-batch order, which is
    exactly the order per-event processing would have first
    encountered them (the property that keeps downstream interning and
    set-insertion orders identical).
    """

    n_events: int
    #: (host, domain) pairs touched by the batch, first-appearance order.
    named_pairs: list[tuple[str, str]] = field(default_factory=list)
    #: distinct domains that gained a new host this batch (the only
    #: event that can move a domain's popularity, hence its rarity,
    #: within a day), first-appearance order.
    domains: list[str] = field(default_factory=list)


class DailyTraffic:
    """One day of aggregated connection state (columnar event store).

    Attributes populated by :meth:`ingest`:

    ``hosts_by_domain``
        domain -> set of hosts contacting it (``dom_host`` in Alg. 1).
    :meth:`connection_times` / :meth:`series`
        (host, domain) -> sorted list of connection times, read from
        the columnar series store.
    ``no_referer_hosts`` / ``rare_ua_hosts``
        domain -> hosts that contacted it with no referer / with a rare
        or missing UA (inputs to the NoRef and RareUA features).
    ``resolved_ips``
        domain -> set of IP addresses it resolved to during the day.

    The same pass keeps the id-level graph the frontier scorers of
    :mod:`repro.core.scoring` read (:meth:`host_row`,
    :meth:`domain_row`, :meth:`pair_head`, :meth:`keys24` /
    :meth:`keys16`) and three append-only change feeds, so a consumer
    holding derived state keeps one cursor per feed and pays only for
    what changed since its last look:

    ``pair_feed``
        packed pairs, in the order their rows were created;
    ``ip_feed``
        ``(domain id, /24 key, /16 key)`` per resolution that put the
        domain into a /24 it was not in before;
    ``rewrite_feed``
        packed pairs whose series head (first contact) a late, earlier
        timestamp moved -- empty for a time-ordered stream.
    """

    def __init__(self, day: int) -> None:
        self.day = day
        self.hosts_by_domain: dict[str, set[str]] = defaultdict(set)
        self.domains_by_host: dict[str, set[str]] = defaultdict(set)
        self.no_referer_hosts: dict[str, set[str]] = defaultdict(set)
        self.rare_ua_hosts: dict[str, set[str]] = defaultdict(set)
        self.resolved_ips: dict[str, set[str]] = defaultdict(set)
        # --- columnar core ------------------------------------------------
        self._host_ids: dict[str, int] = {}
        self._host_names: list[str] = []
        self._domain_ids: dict[str, int] = {}
        self._domain_names: list[str] = []
        #: packed event columns, amortized-doubling growth.
        self._ev_pair = np.empty(0, dtype=np.int64)
        self._ev_time = np.empty(0, dtype=np.float64)
        self._n_events = 0
        self._n_finalized = 0
        #: packed pair -> sorted timestamp series (Python floats).
        self._series: dict[int, list[float]] = {}
        #: packed pair -> its (host, domain) name tuple, assigned when
        #: the pair is first seen; doubles as the seen-pair set and
        #: saves re-materializing the tuple on every later touch.
        self._pair_names: dict[int, tuple[str, str]] = {}
        #: UA string -> rarity verdict memo.  UA popularity is frozen
        #: for the duration of a day (histories commit at rollover, and
        #: a DailyTraffic lives exactly one day), so each distinct UA
        #: needs one predicate call, not one per event.
        self._ua_rare_memo: dict[str, bool] = {}
        # --- scoring rows, one per interned id ----------------------------
        #: per domain id: host ids, pair first-appearance order.
        self._host_rows: list[list[int]] = []
        #: per host id: domain ids, pair first-appearance order.
        self._domain_rows: list[list[int]] = []
        #: per domain id: subnet keys of its resolved IPs.
        self._keys24: list[set[str]] = []
        self._keys16: list[set[str]] = []
        self.pair_feed: list[int] = []
        self.ip_feed: list[tuple[int, str, str]] = []
        self.rewrite_feed: list[int] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(
        self,
        connections: Iterable[Connection | ConnectionBatch]
        | Connection
        | ConnectionBatch,
        *,
        ua_is_rare=None,
        ua_stage=None,
    ) -> IngestDigest:
        """Aggregate a batch (or a single connection) into the day.

        Accepts a single :class:`Connection`, one columnar
        :class:`~repro.logs.records.ConnectionBatch`, or any iterable
        mixing the two.  Each run of consecutive connections packs into
        one batch (:func:`_batches`), so every row stages through the
        one columnar loop in arrival order and the call folds through
        ONE grouping pass: a poll of many submitted items costs one
        lexsort, not one per item.  The HTTP context comes from a
        batch's ``user_agents`` / ``referers`` columns; ``None`` (DNS
        events, DNS batches) means the source has no such field and
        leaves the UA/referer features untouched.  ``ua_is_rare`` is an
        optional predicate (typically ``UserAgentHistory.is_rare``)
        evaluated once per distinct UA of the day; without it
        ``rare_ua_hosts`` stays empty.  ``ua_stage`` is an optional
        ``(user_agent, host)`` callback (typically
        :meth:`UserAgentHistory.stage
        <repro.profiling.ua.UserAgentHistory.stage>`) fed each distinct
        (UA, host) pair of a batch with a UA column while its fields
        are already in hand, so callers that must stage UA observations
        avoid a second per-event loop.  Returns an
        :class:`IngestDigest` describing the whole call so downstream
        consumers (window, engine) never re-iterate the events.
        """
        if isinstance(connections, (Connection, ConnectionBatch)):
            connections = (connections,)
        host_ids = self._host_ids
        host_names = self._host_names
        domain_ids = self._domain_ids
        domain_names = self._domain_names
        resolved_ips = self.resolved_ips
        no_referer = self.no_referer_hosts
        rare_ua = self.rare_ua_hosts
        pair_stage: list[int] = []
        time_stage: list[float] = []
        stage_pair = pair_stage.append
        novel_ips: list[tuple[str, str]] = []
        ua_memo = self._ua_rare_memo
        for batch in _batches(connections):
            # Intern row-wise, bulk-extend the timestamp column (row
            # order keeps the two stages aligned).
            for host, domain, ip in zip(
                batch.hosts, batch.domains, batch.resolved_ips
            ):
                h_id = host_ids.get(host)
                if h_id is None:
                    h_id = len(host_names)
                    host_ids[host] = h_id
                    host_names.append(host)
                d_id = domain_ids.get(domain)
                if d_id is None:
                    d_id = len(domain_names)
                    domain_ids[domain] = d_id
                    domain_names.append(domain)
                stage_pair((h_id << PAIR_SHIFT) | d_id)
                if ip:
                    ips = resolved_ips[domain]
                    if ip not in ips:
                        ips.add(ip)
                        novel_ips.append((domain, ip))
            time_stage += batch.timestamps
            # HTTP context columns (proxy route; None on the DNS
            # route), one pass per column.
            if batch.referers is not None:
                for referer, host, domain in zip(
                    batch.referers, batch.hosts, batch.domains
                ):
                    if not referer:
                        no_referer[domain].add(host)
            agents = batch.user_agents
            if agents is not None:
                if ua_is_rare is not None:
                    for ua, host, domain in zip(
                        agents, batch.hosts, batch.domains
                    ):
                        rare = ua_memo.get(ua)
                        if rare is None:
                            rare = ua_memo[ua] = ua_is_rare(ua)
                        if rare:
                            rare_ua[domain].add(host)
                if ua_stage is not None:
                    # Staging is a set insert per (UA, host): once per
                    # distinct pair, in first-seen order.
                    for ua, host in dict.fromkeys(zip(agents, batch.hosts)):
                        ua_stage(ua, host)
        self._append_events(pair_stage, time_stage)
        return self._finalize_pending(novel_ips)

    def _append_events(
        self, pairs: Sequence[int], times: Sequence[float]
    ) -> None:
        """Slice-assign a staged batch into the amortized columns."""
        count = len(pairs)
        if not count:
            return
        need = self._n_events + count
        if need > self._ev_pair.shape[0]:
            capacity = max(self._ev_pair.shape[0] * 2, need, 1024)
            for name in ("_ev_pair", "_ev_time"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[: self._n_events] = old[: self._n_events]
                setattr(self, name, grown)
        self._ev_pair[self._n_events:need] = pairs
        self._ev_time[self._n_events:need] = times
        self._n_events = need

    def _finalize_pending(
        self, novel_ips: list[tuple[str, str]] | None = None
    ) -> IngestDigest:
        """Merge the unfinalized event span into the sorted series and
        the scoring rows.

        One lexsort by (pair, time) groups the span -- every pair's new
        timestamps as one sorted chunk, pairs in first-appearance order
        so new-pair set insertions and row appends land in the order
        per-event processing would produce -- and the chunks merge into
        the per-pair series.  A pair's first contact is the head of its
        series, so only a chunk that starts before the head can move it
        (logged to ``rewrite_feed``).  ``novel_ips`` -- the (domain, ip)
        resolutions first seen in the span, in arrival order -- then
        fold into the subnet keys.
        """
        lo, hi = self._n_finalized, self._n_events
        pairs, chunks = self._group_lexsort(lo, hi)
        series = self._series
        pair_names = self._pair_names
        hosts_by_domain = self.hosts_by_domain
        domains_by_host = self.domains_by_host
        host_names = self._host_names
        domain_names = self._domain_names
        host_rows = self._host_rows
        domain_rows = self._domain_rows
        keys24 = self._keys24
        keys16 = self._keys16
        # One row (and key set) per id interned since the last pass.
        grow = len(domain_names) - len(host_rows)
        host_rows.extend([] for _ in range(grow))
        keys24.extend(set() for _ in range(grow))
        keys16.extend(set() for _ in range(grow))
        domain_rows.extend(
            [] for _ in range(len(host_names) - len(domain_rows))
        )
        new_pair = self.pair_feed.append
        named_out: list[tuple[str, str]] = []
        domains_out: list[str] = []
        domains_seen: set[str] = set()
        for pair, values in zip(pairs, chunks):
            existing = series.get(pair)
            if existing is None:
                # First time this day sees the pair: register the edge
                # and its name tuple; only here can a domain's host
                # count -- hence its rarity -- change.
                series[pair] = values
                h_id = pair >> PAIR_SHIFT
                d_id = pair & DOMAIN_MASK
                host = host_names[h_id]
                domain = domain_names[d_id]
                named = (host, domain)
                pair_names[pair] = named
                hosts_by_domain[domain].add(host)
                domains_by_host[host].add(domain)
                host_rows[d_id].append(h_id)
                domain_rows[h_id].append(d_id)
                new_pair(pair)
                if domain not in domains_seen:
                    domains_seen.add(domain)
                    domains_out.append(domain)
            else:
                if existing[-1] <= values[0]:
                    existing += values
                else:
                    if values[0] < existing[0]:
                        self.rewrite_feed.append(pair)
                    existing += values
                    existing.sort()
                named = pair_names[pair]
            named_out.append(named)
        self._n_finalized = hi
        domain_ids = self._domain_ids
        for domain, ip in novel_ips or ():
            d_id = domain_ids[domain]
            key24 = subnet_key(ip, 24)
            if key24 not in keys24[d_id]:
                # A known /24 implies a known /16.
                key16 = subnet_key(ip, 16)
                keys24[d_id].add(key24)
                keys16[d_id].add(key16)
                self.ip_feed.append((d_id, key24, key16))
        return IngestDigest(
            n_events=hi - lo,
            named_pairs=named_out,
            domains=domains_out,
        )

    def _group_lexsort(
        self, lo: int, hi: int
    ) -> tuple[list[int], list[list[float]]]:
        """Array grouping of the span ``[lo, hi)``: packed pairs in
        first-appearance order and each pair's sorted timestamps."""
        if lo == hi:
            return [], []
        span_pair = self._ev_pair[lo:hi]
        span_time = self._ev_time[lo:hi]
        order = np.lexsort((span_time, span_pair))
        grouped_pair = span_pair[order]
        grouped_time = span_time[order]
        boundaries = np.flatnonzero(grouped_pair[1:] != grouped_pair[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [grouped_pair.shape[0]]))
        # The earliest original position inside each group is the
        # pair's first appearance in the span.
        first_seen_at = np.minimum.reduceat(order, starts)
        appearance = np.argsort(first_seen_at, kind="stable")
        starts = starts[appearance]
        # Convert once; per-group list slicing beats per-group ndarray
        # slicing + tolist by a wide margin at streaming batch sizes.
        time_list = grouped_time.tolist()
        return grouped_pair[starts].tolist(), [
            time_list[start:end]
            for start, end in zip(starts.tolist(), ends[appearance].tolist())
        ]

    def finalize(self) -> None:
        """Merge any events not yet folded into the sorted series.

        :meth:`ingest` finalizes its own span, so this is a cheap no-op
        on the streaming access pattern; :meth:`load_events` (bulk
        restore) appends a whole day first and groups it here.
        """
        if self._n_finalized != self._n_events:
            self._finalize_pending()

    def event_columns(
        self,
    ) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
        """The day's events as they arrived (checkpoint encode).

        ``(host names, domain names, pair, timestamp)``: the two intern
        tables in first-appearance order and one row per event, its
        packed ``(host index << PAIR_SHIFT) | domain index`` key
        pointing into them.  The columns are views of the store, not
        copies, and still a snapshot: later ingests do not show
        through (appends land past the viewed prefix, and growth
        copies into a new buffer).  :meth:`load_events` is the
        inverse, given the two index columns unpacked.
        """
        return (
            list(self._host_names),
            list(self._domain_names),
            self._ev_pair[: self._n_events],
            self._ev_time[: self._n_events],
        )

    def load_events(
        self,
        hosts: Sequence[str],
        domains: Sequence[str],
        host_index: np.ndarray,
        domain_index: np.ndarray,
        times: np.ndarray,
        resolved_ips: Mapping[str, Iterable[str]],
    ) -> None:
        """Bulk-restore :meth:`event_columns` output and the day's
        ``resolved_ips`` into an empty day (checkpoint decode): intern
        the tables, append the columns and group them in the one
        finalize pass -- the same intern order, event columns, series
        and scoring rows as ingesting the events live.  The caller has
        checked that the indices fit the tables and that every
        ``resolved_ips`` domain is in ``domains``.
        """
        if self._host_names or self._domain_names or self._n_events:
            raise ValueError("load_events needs an empty DailyTraffic")
        self._host_names.extend(hosts)
        self._host_ids.update(zip(hosts, range(len(hosts))))
        self._domain_names.extend(domains)
        self._domain_ids.update(zip(domains, range(len(domains))))
        self._append_events(
            (host_index.astype(np.int64) << PAIR_SHIFT)
            | domain_index.astype(np.int64),
            times,
        )
        novel_ips = []
        for domain, ips in resolved_ips.items():
            self.resolved_ips[domain] = set(ips)
            novel_ips.extend((domain, ip) for ip in ips)
        self._finalize_pending(novel_ips)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def connection_times(self, host: str, domain: str) -> list[float]:
        """Sorted timestamps of one (host, domain) pair's connections."""
        self.finalize()
        h_id = self._host_ids.get(host)
        d_id = self._domain_ids.get(domain)
        if h_id is None or d_id is None:
            return []
        return self._series.get((h_id << PAIR_SHIFT) | d_id, [])

    def series(self) -> Iterator[tuple[tuple[str, str], list[float]]]:
        """Every ``((host, domain), sorted times)`` of the day, in pair
        first-appearance order."""
        self.finalize()
        return zip(self._pair_names.values(), self._series.values())

    def first_contact(self, host: str, domain: str) -> float | None:
        """Earliest timestamp ``host`` reached ``domain`` today; ``None``
        when it never did."""
        times = self.connection_times(host, domain)
        return times[0] if times else None

    def rare_series(
        self, rare: Set[str]
    ) -> list[tuple[tuple[str, str], list[float]]]:
        """The automation candidate series, sorted by (host, domain).

        Equivalent to filtering ``sorted(traffic.series())``
        by rare domain -- the shape
        :meth:`~repro.timing.detector.AutomationDetector.automated_pairs`
        consumes -- but filters on interned domain ids *before* any
        string-tuple sorting, so the sort touches only the rare pairs
        instead of every series of the day.
        """
        self.finalize()
        domain_ids = self._domain_ids
        rare_ids = {
            domain_ids[domain]
            for domain in rare
            if domain in domain_ids
        }
        if not rare_ids:
            return []
        host_names = self._host_names
        domain_names = self._domain_names
        out = [
            (
                (
                    host_names[pair >> PAIR_SHIFT],
                    domain_names[pair & DOMAIN_MASK],
                ),
                times,
            )
            for pair, times in self._series.items()
            if pair & DOMAIN_MASK in rare_ids
        ]
        out.sort(key=lambda item: item[0])
        return out

    # -- id level: the frontier scorers' reads ------------------------

    def domain_id(self, domain: str) -> int | None:
        """Dense id of a domain; ``None`` when it has no traffic today."""
        return self._domain_ids.get(domain)

    def domain_name(self, d_id: int) -> str:
        """Name interned under ``d_id``."""
        return self._domain_names[d_id]

    def host_row(self, d_id: int) -> list[int]:
        """Host ids contacting the domain, first-appearance order."""
        return self._host_rows[d_id]

    def domain_row(self, h_id: int) -> list[int]:
        """Domain ids the host contacted, first-appearance order."""
        return self._domain_rows[h_id]

    def pair_head(self, h_id: int, d_id: int) -> float:
        """First contact of an id pair (the pair must exist): the head
        of its sorted series."""
        return self._series[(h_id << PAIR_SHIFT) | d_id][0]

    def host_count(self, d_id: int) -> int:
        """Distinct hosts contacting the domain today."""
        return len(self._host_rows[d_id])

    def keys24(self, d_id: int) -> set[str]:
        """/24 subnet keys of the domain's resolved IPs."""
        return self._keys24[d_id]

    def keys16(self, d_id: int) -> set[str]:
        """/16 subnet keys of the domain's resolved IPs."""
        return self._keys16[d_id]

    def bp_views(
        self, rare: Set[str]
    ) -> tuple[RareDomHostView, RareDomainsByHostView]:
        """``(dom_host, host_rdom)`` for belief propagation, zero-copy.

        Replaces the per-call ``{d: frozenset(...)}`` /
        :func:`rare_domains_by_host` rebuilds: both views answer
        lookups straight from the day's live dicts, restricted to
        ``rare``."""
        return (
            RareDomHostView(self.hosts_by_domain, rare),
            RareDomainsByHostView(self.domains_by_host, rare),
        )


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


def extract_rare_domains(
    traffic: DailyTraffic,
    history: DestinationHistory,
    *,
    unpopular_max_hosts: int = 10,
) -> set[str]:
    """Return the day's rare destinations (new AND unpopular)."""
    rare: set[str] = set()
    for domain, hosts in traffic.hosts_by_domain.items():
        if len(hosts) < unpopular_max_hosts and history.is_new(domain):
            rare.add(domain)
    return rare


def rare_domains_by_host(
    traffic: DailyTraffic, rare: set[str]
) -> dict[str, set[str]]:
    """``host_rdom`` map of Algorithm 1: host -> rare domains visited."""
    by_host: dict[str, set[str]] = defaultdict(set)
    for domain in rare:
        for host in traffic.hosts_by_domain.get(domain, ()):
            by_host[host].add(domain)
    return dict(by_host)
