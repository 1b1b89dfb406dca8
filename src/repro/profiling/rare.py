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
runs into sorted per-pair series; the same grouped pass produces an
:class:`IngestDigest` that the streaming window, engine and
:class:`~repro.profiling.index.TrafficIndex` consume instead of
re-looping over the batch event by event.  Readers get the sorted
per-pair series by lookup (:meth:`DailyTraffic.connection_times`) or all
of them in pair first-appearance order (:meth:`DailyTraffic.series`).
A checkpoint carries the event columns themselves
(:meth:`DailyTraffic.event_columns` / :meth:`DailyTraffic.load_events`).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence, Set
from dataclasses import dataclass, field

import numpy as np

from ..logs.records import Connection, ConnectionBatch
from .history import DestinationHistory
from .index import RareDomainsByHostView, RareDomHostView, TrafficIndex

#: Shift packing (host_id, domain_id) into one int key; ids are dense
#: small ints, so the packed key stays a machine-word int in practice.
_PAIR_SHIFT = 32
_DOMAIN_MASK = (1 << _PAIR_SHIFT) - 1
#: Pending-span size below which :meth:`DailyTraffic._finalize_pending`
#: groups in plain Python instead of lexsorting -- the array machinery
#: has a fixed per-call cost that only amortizes at batch-pipeline
#: span sizes, not at streaming micro-batch polls.
_SMALL_SPAN = 4096


@dataclass(frozen=True, slots=True)
class IngestDigest:
    """Grouped summary of one :meth:`DailyTraffic.ingest` batch.

    Everything the per-event consumers of a batch used to recompute by
    looping over the connections again -- touched pairs, their new
    timestamps, popularity-relevant domains, first-seen resolved IPs --
    derived once from the columnar lexsort.  Pairs appear in
    first-within-batch order, which is exactly the order per-event
    processing would have first encountered them (the property that
    keeps downstream interning and set-insertion orders identical).
    """

    n_events: int
    #: packed pair keys touched by the batch, first-appearance order.
    pairs: list[int] = field(default_factory=list)
    #: (host, domain) names aligned with :attr:`pairs`.
    named_pairs: list[tuple[str, str]] = field(default_factory=list)
    #: per touched pair: the batch's timestamps, sorted ascending.
    chunks: list[list[float]] = field(default_factory=list)
    #: distinct domains that gained a new host this batch (the only
    #: event that can move a domain's popularity, hence its rarity,
    #: within a day), first-appearance order.
    domains: list[str] = field(default_factory=list)
    #: (domain, ip) resolutions seen for the first time today, in order.
    novel_ips: list[tuple[str, str]] = field(default_factory=list)


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
        self._index: TrafficIndex | None = None

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
        mixing the two.  Everything stages in arrival order (a batch's
        rows count as arriving at its position) and folds through ONE
        grouping pass, so a poll of many submitted items costs one
        lexsort, not one per item.  The HTTP context comes from a
        scalar connection's ``user_agent`` / ``referer`` or from a
        batch's ``user_agents`` / ``referers`` columns; ``None`` (DNS
        events, DNS batches) means the source has no such field and
        leaves the UA/referer features untouched.  ``ua_is_rare`` is an
        optional predicate (typically ``UserAgentHistory.is_rare``)
        evaluated once per distinct UA of the day; without it
        ``rare_ua_hosts`` stays empty.  ``ua_stage`` is an optional
        ``(user_agent, host)`` callback (typically
        :meth:`UserAgentHistory.stage
        <repro.profiling.ua.UserAgentHistory.stage>`) fed every
        observation while its fields are already in hand, so callers
        that must stage UA observations avoid a second per-event loop.
        Returns an :class:`IngestDigest` describing the whole call so
        downstream consumers (window, engine, index) never re-iterate
        the events.
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
        stage_time = time_stage.append
        novel_ips: list[tuple[str, str]] = []
        ua_memo = self._ua_rare_memo
        for conn in connections:
            if conn.__class__ is ConnectionBatch:
                # Columnar staging: intern row-wise, bulk-extend the
                # timestamp column (row order keeps the two stages
                # aligned).
                for host, domain, ip in zip(
                    conn.hosts, conn.domains, conn.resolved_ips
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
                    stage_pair((h_id << _PAIR_SHIFT) | d_id)
                    if ip:
                        ips = resolved_ips[domain]
                        if ip not in ips:
                            ips.add(ip)
                            novel_ips.append((domain, ip))
                time_stage += conn.timestamps
                # HTTP context columns (proxy route; None on the DNS
                # route): the scalar branch's three updates below, one
                # pass per column.
                if conn.referers is not None:
                    for referer, host, domain in zip(
                        conn.referers, conn.hosts, conn.domains
                    ):
                        if not referer:
                            no_referer[domain].add(host)
                agents = conn.user_agents
                if agents is not None:
                    if ua_is_rare is not None:
                        for ua, host, domain in zip(
                            agents, conn.hosts, conn.domains
                        ):
                            rare = ua_memo.get(ua)
                            if rare is None:
                                rare = ua_memo[ua] = ua_is_rare(ua)
                            if rare:
                                rare_ua[domain].add(host)
                    if ua_stage is not None:
                        # Staging is a set insert per (UA, host): once
                        # per distinct pair, in first-seen order.
                        for ua, host in dict.fromkeys(zip(agents, conn.hosts)):
                            ua_stage(ua, host)
                continue
            host = conn.host
            domain = conn.domain
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
            stage_pair((h_id << _PAIR_SHIFT) | d_id)
            stage_time(conn.timestamp)
            ip = conn.resolved_ip
            if ip:
                ips = resolved_ips[domain]
                if ip not in ips:
                    ips.add(ip)
                    novel_ips.append((domain, ip))
            referer = conn.referer
            if referer is not None and not referer:
                no_referer[domain].add(host)
            ua = conn.user_agent
            if ua_is_rare is not None and ua is not None:
                rare = ua_memo.get(ua)
                if rare is None:
                    rare = ua_is_rare(ua)
                    ua_memo[ua] = rare
                if rare:
                    rare_ua[domain].add(host)
            if ua_stage is not None:
                ua_stage(ua, host)
        self._append_events(pair_stage, time_stage)
        digest = self._finalize_pending(novel_ips)
        if self._index is not None:
            self._index.observe_digest(digest)
        return digest

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
        """Merge the unfinalized event span into the sorted series.

        The span is grouped by pair -- every pair's new timestamps as
        one sorted chunk, pairs in first-appearance order so new-pair
        set insertions land in the order per-event processing would
        produce -- and the chunks merge into the per-pair series while
        becoming the :class:`IngestDigest` chunks.

        The grouping is picked by span size.  Batch-pipeline spans go
        through one lexsort by (pair, time); streaming-sized spans
        (micro-batch polls) skip the fixed per-call cost of the array
        machinery for a plain dict-of-lists grouping, which gives the
        same first-appearance order (dict insertion order) and the same
        sorted chunks (per-group timsort).  Both produce identical
        digests.
        """
        lo, hi = self._n_finalized, self._n_events
        if lo == hi:
            return IngestDigest(
                n_events=0, novel_ips=novel_ips if novel_ips else []
            )
        if hi - lo <= _SMALL_SPAN:
            pairs, chunks = self._group_small(lo, hi)
        else:
            pairs, chunks = self._group_lexsort(lo, hi)
        series = self._series
        pair_names = self._pair_names
        hosts_by_domain = self.hosts_by_domain
        domains_by_host = self.domains_by_host
        host_names = self._host_names
        domain_names = self._domain_names
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
                host = host_names[pair >> _PAIR_SHIFT]
                domain = domain_names[pair & _DOMAIN_MASK]
                named = (host, domain)
                pair_names[pair] = named
                hosts_by_domain[domain].add(host)
                domains_by_host[host].add(domain)
                if domain not in domains_seen:
                    domains_seen.add(domain)
                    domains_out.append(domain)
            else:
                if existing[-1] <= values[0]:
                    existing += values
                else:
                    existing += values
                    existing.sort()
                named = pair_names[pair]
            named_out.append(named)
        self._n_finalized = hi
        return IngestDigest(
            n_events=hi - lo,
            pairs=pairs,
            named_pairs=named_out,
            chunks=chunks,
            domains=domains_out,
            novel_ips=novel_ips if novel_ips else [],
        )

    def _group_lexsort(
        self, lo: int, hi: int
    ) -> tuple[list[int], list[list[float]]]:
        """Array grouping of the span ``[lo, hi)``: packed pairs in
        first-appearance order and each pair's sorted timestamps."""
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

    def _group_small(
        self, lo: int, hi: int
    ) -> tuple[list[int], list[list[float]]]:
        """Dict-of-lists twin of :meth:`_group_lexsort` for small spans."""
        groups: dict[int, list[float]] = {}
        for pair, value in zip(
            self._ev_pair[lo:hi].tolist(), self._ev_time[lo:hi].tolist()
        ):
            chunk = groups.get(pair)
            if chunk is None:
                groups[pair] = [value]
            else:
                chunk.append(value)
        chunks = list(groups.values())
        for chunk in chunks:
            chunk.sort()
        return list(groups), chunks

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
    ) -> tuple[list[str], list[str], np.ndarray, np.ndarray, np.ndarray]:
        """The day's events as they arrived (checkpoint encode).

        ``(host names, domain names, host index, domain index,
        timestamp)``: the two intern tables in first-appearance order
        and one row per event, the index columns pointing into them.
        A snapshot: later ingests do not show through (appends land
        past the returned slice).
        :meth:`load_events` is the inverse.
        """
        pairs = self._ev_pair[: self._n_events]
        return (
            list(self._host_names),
            list(self._domain_names),
            pairs >> _PAIR_SHIFT,
            pairs & _DOMAIN_MASK,
            self._ev_time[: self._n_events],
        )

    def load_events(
        self,
        hosts: Sequence[str],
        domains: Sequence[str],
        host_index: np.ndarray,
        domain_index: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Bulk-restore :meth:`event_columns` output into an empty day
        (checkpoint decode): intern the tables, append the columns and
        group them in the one :meth:`finalize` pass -- the same intern
        order, event columns and series as ingesting the events live.
        The caller has checked that the indices fit the tables.
        """
        if self._host_names or self._domain_names or self._n_events:
            raise ValueError("load_events needs an empty DailyTraffic")
        self._host_names.extend(hosts)
        self._host_ids.update(zip(hosts, range(len(hosts))))
        self._domain_names.extend(domains)
        self._domain_ids.update(zip(domains, range(len(domains))))
        self._append_events(
            (host_index.astype(np.int64) << _PAIR_SHIFT)
            | domain_index.astype(np.int64),
            times,
        )
        self.finalize()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def domain_popularity(self, domain: str) -> int:
        return len(self.hosts_by_domain.get(domain, ()))

    def connection_times(self, host: str, domain: str) -> list[float]:
        """Sorted timestamps of one (host, domain) pair's connections."""
        self.finalize()
        h_id = self._host_ids.get(host)
        d_id = self._domain_ids.get(domain)
        if h_id is None or d_id is None:
            return []
        return self._series.get((h_id << _PAIR_SHIFT) | d_id, [])

    def series(self) -> Iterator[tuple[tuple[str, str], list[float]]]:
        """Every ``((host, domain), sorted times)`` of the day, in pair
        first-appearance order."""
        self.finalize()
        return zip(self._pair_names.values(), self._series.values())

    def first_contact(self, host: str, domain: str) -> float | None:
        """Earliest timestamp any host reached ``domain`` today."""
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
                    host_names[pair >> _PAIR_SHIFT],
                    domain_names[pair & _DOMAIN_MASK],
                ),
                times,
            )
            for pair, times in self._series.items()
            if pair & _DOMAIN_MASK in rare_ids
        ]
        out.sort(key=lambda item: item[0])
        return out

    def index(self) -> TrafficIndex:
        """The day's :class:`~repro.profiling.index.TrafficIndex`.

        Built from the current aggregate on first call, then kept in
        sync incrementally by :meth:`ingest`.  Code that mutates the
        traffic dicts directly (checkpoint restore) must call
        :meth:`drop_index` so the next access rebuilds.
        """
        if self._index is None:
            self._index = TrafficIndex(self)
        return self._index

    def drop_index(self) -> None:
        """Invalidate the attached index (after out-of-band mutation)."""
        self._index = None

    def bp_views(
        self, rare: Set[str]
    ) -> tuple[RareDomHostView, RareDomainsByHostView]:
        """``(dom_host, host_rdom)`` for belief propagation, zero-copy.

        Replaces the per-call ``{d: frozenset(...)}`` /
        :func:`rare_domains_by_host` rebuilds: both views answer
        lookups straight from the day's live dicts, restricted to
        ``rare`` (no interned index required)."""
        return (
            RareDomHostView(self.hosts_by_domain, rare),
            RareDomainsByHostView(self.domains_by_host, rare),
        )


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


class RareDomainTracker:
    """Incrementally maintained rare set for one day of traffic.

    :func:`extract_rare_domains` rescans every domain of the day; at
    streaming rates that is O(domains) per micro-batch.  The tracker
    instead reacts to popularity changes: a domain enters the rare set
    on its first contact of the day (if absent from the history) and
    leaves it for good once ``unpopular_max_hosts`` distinct hosts have
    contacted it.  The invariant, checked by the parity tests, is that
    :attr:`rare` always equals ``extract_rare_domains`` on the same
    traffic and history.
    """

    def __init__(
        self,
        history: DestinationHistory,
        *,
        unpopular_max_hosts: int = 10,
    ) -> None:
        self.history = history
        self.unpopular_max_hosts = unpopular_max_hosts
        self.rare: set[str] = set()

    def update(self, domain: str, popularity: int) -> int:
        """React to ``domain`` now having ``popularity`` distinct hosts.

        Returns +1 when the domain entered the rare set, -1 when it
        left, 0 when nothing changed.
        """
        if popularity < self.unpopular_max_hosts and self.history.is_new(domain):
            if domain not in self.rare:
                self.rare.add(domain)
                return +1
        elif domain in self.rare:
            self.rare.discard(domain)
            return -1
        return 0

    def resync(self, traffic: DailyTraffic) -> set[str]:
        """Rebuild the rare set from scratch (checkpoint restore)."""
        self.rare = extract_rare_domains(
            traffic,
            self.history,
            unpopular_max_hosts=self.unpopular_max_hosts,
        )
        return self.rare

    def reset(self) -> None:
        """Clear for a new day (after the history committed)."""
        self.rare.clear()
