"""Normalization of raw proxy records (Section IV-A).

Two inconsistencies in the AC dataset require normalization before any
analysis:

* collection devices sit in different geographies, so raw timestamps
  are in several local timezones -- everything is converted to UTC;
* most of the client IP space is dynamically assigned (DHCP) or
  tunnel-allocated (VPN), so an IP address does not identify a machine
  across time -- addresses are resolved to stable hostnames by joining
  against the DHCP/VPN lease logs.

:class:`IpResolver` holds the lease intervals, indexed per address and
binary-searched by timestamp, so resolution is ``O(log n)`` per record
and the whole join streams.

:class:`ProxyNormalizer` is the detection route: one loop from the
fields of proxy log lines to :class:`~repro.logs.records.ConnectionBatch`
columns, the form :class:`~repro.profiling.rare.DailyTraffic` ingests.
:func:`to_utc` / :func:`normalize_proxy_records` are the scalar
adapters for callers that hold :class:`ProxyRecord` objects and want
:class:`Connection` events with their ``status_code`` (layout
generation, the benchmark's traced walk) and the oracle the tests hold
the loop to.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import attrgetter, methodcaller

from ..obs.metrics import NULL_METRICS
from .records import (
    Connection,
    ConnectionBatch,
    DhcpLease,
    DnsRecord,
    ProxyRecord,
    VpnSession,
)
from .domains import fold_domain, is_ip_address

#: A :class:`ProxyRecord` as the ten fields of its log line, in order.
_record_fields = attrgetter(
    "timestamp", "tz_offset_hours", "source_ip", "method", "destination",
    "url_path", "destination_ip", "status_code", "user_agent", "referer",
)
_split_tabs = methodcaller("split", "\t")


class IpResolver:
    """Resolves dynamic IP addresses to hostnames at a point in time.

    DHCP leases and VPN sessions are both ``(ip, hostname, start, end)``
    intervals; they are merged into one index.  Addresses outside any
    lease are treated as statically assigned and mapped through
    ``static_map`` (or identity if absent there -- the hostname *is*
    the address, which is what the paper falls back to as well).
    """

    def __init__(
        self,
        leases: Iterable[DhcpLease | VpnSession] = (),
        static_map: dict[str, str] | None = None,
    ) -> None:
        self._static = dict(static_map or {})
        per_ip: dict[str, list[tuple[float, float, str]]] = {}
        for lease in leases:
            per_ip.setdefault(lease.ip, []).append(
                (lease.start, lease.end, lease.hostname)
            )
        self._intervals: dict[str, list[tuple[float, float, str]]] = {}
        self._starts: dict[str, list[float]] = {}
        for ip, intervals in per_ip.items():
            intervals.sort()
            self._intervals[ip] = intervals
            self._starts[ip] = [start for start, _, _ in intervals]

    @property
    def is_identity(self) -> bool:
        """Whether it holds no lease and no static entry, i.e. resolves
        every address to itself (pre-joined logs)."""
        return not (self._intervals or self._static)

    def resolve(self, ip: str, timestamp: float) -> str:
        """Return the hostname using ``ip`` at ``timestamp``.

        Falls back to the static map, then to the raw address.
        """
        intervals = self._intervals.get(ip)
        if intervals:
            index = bisect_right(self._starts[ip], timestamp) - 1
            if index >= 0:
                start, end, hostname = intervals[index]
                if start <= timestamp < end:
                    return hostname
        return self._static.get(ip, ip)


def to_utc(record: ProxyRecord) -> ProxyRecord:
    """Shift a proxy record's collector-local timestamp to UTC."""
    if record.tz_offset_hours == 0.0:
        return record
    from dataclasses import replace

    return replace(
        record,
        timestamp=record.timestamp - record.tz_offset_hours * 3600.0,
        tz_offset_hours=0.0,
    )


def normalize_proxy_records(
    records: Iterable[ProxyRecord],
    resolver: IpResolver,
    *,
    fold_level: int = 2,
) -> Iterator[Connection]:
    """Normalize raw proxy records into :class:`Connection` events.

    Applies, in order: UTC conversion, DHCP/VPN hostname resolution,
    and destination folding.  Destinations that are bare IP addresses
    are dropped (Section IV-A: "we do not consider destinations that
    are IP addresses").
    """
    for record in records:
        if is_ip_address(record.destination):
            continue
        utc = to_utc(record)
        hostname = utc.hostname or resolver.resolve(utc.source_ip, utc.timestamp)
        yield Connection(
            timestamp=utc.timestamp,
            host=hostname,
            domain=fold_domain(utc.destination, fold_level),
            resolved_ip=utc.destination_ip,
            user_agent=utc.user_agent,
            referer=utc.referer,
            status_code=utc.status_code,
        )


class ProxyNormalizer:
    """Runs proxy log rows through the Section IV-A normalization.

    The proxy counterpart of :class:`~repro.logs.reduction
    .ReductionFunnel`: :meth:`column_batches` is the only loop between
    proxy log text and the traffic store on the detection route, and it
    accounts for every row it is given -- rows in = malformed +
    dropped (IP-literal destination) + kept -- through the
    ``proxy_*_total`` counters of ``metrics`` (an optional
    repro.obs.MetricsRegistry).  Counts are plain ints inside the loop
    and reach the registry at each yielded batch and at the end of a
    pass.
    """

    def __init__(self, *, fold_level: int = 2, metrics=None) -> None:
        self.fold_level = fold_level
        obs = metrics if metrics is not None else NULL_METRICS
        self._counters = (
            obs.counter("proxy_records_total"),
            obs.counter("proxy_kept_total"),
            obs.counter("proxy_dropped_total", stage="ip_destination"),
            obs.counter("proxy_malformed_total"),
        )

    def _count(self, kept: int, dropped: int, malformed: int) -> None:
        for counter, amount in zip(
            self._counters, (kept + dropped, kept, dropped, malformed)
        ):
            if amount:
                counter.inc(amount)

    def column_batches(
        self,
        rows: Iterable[Sequence],
        batch_size: int | None = None,
        *,
        resolver: IpResolver | None = None,
    ) -> Iterator[ConnectionBatch]:
        """Validate, normalize and pack proxy log rows into columns.

        ``rows`` are the tab-split fields of proxy log lines (see
        :mod:`repro.logs.proxy`).  A row without exactly ten fields, a
        finite float epoch and timezone offset and an integer status is
        counted as malformed and skipped -- what
        :func:`~repro.logs.proxy.parse_proxy_line` rejects -- and a row
        of blank fields (a blank line) is just skipped.  Rows whose
        destination is an IP literal are dropped ("we do not consider
        destinations that are IP addresses"); the rest are shifted to
        UTC, their source resolved through ``resolver`` (omit it, or
        pass one without leases, for pre-joined logs whose source field
        already is the stable hostname), their destination folded, and
        appended to ``(timestamps, hosts, domains, resolved_ips,
        user_agents, referers)`` columns yielded every ``batch_size``
        rows (``None``: one batch for the whole input; never an empty
        batch).

        The fold and the IP-literal test are pure functions of the raw
        destination and are memoized for the length of the pass -- one
        daily file on every CLI route.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be positive")
        limit = batch_size or sys.maxsize
        fold_level = self.fold_level
        resolve = (
            None if resolver is None or resolver.is_identity
            else resolver.resolve
        )
        isfinite = math.isfinite
        #: raw destination -> folded name, or False for an IP literal.
        folded_of: dict[str, str | bool] = {}
        times: list[float] = []
        hosts: list[str] = []
        domains: list[str] = []
        ips: list[str] = []
        agents: list[str] = []
        referers: list[str] = []
        dropped = malformed = 0
        try:
            for row in rows:
                try:
                    (raw_ts, raw_tz, source, _, destination, _, resolved,
                     raw_status, agent, referer) = row
                    timestamp = float(raw_ts)
                    tz_offset = float(raw_tz)
                    int(raw_status)
                except ValueError:
                    if any(str(field).strip() for field in row):
                        malformed += 1
                    continue
                if not (isfinite(timestamp) and isfinite(tz_offset)):
                    malformed += 1
                    continue
                domain = folded_of.get(destination)
                if domain is None:
                    domain = folded_of[destination] = (
                        False if is_ip_address(destination)
                        else fold_domain(destination, fold_level)
                    )
                if domain is False:
                    dropped += 1
                    continue
                if tz_offset:
                    timestamp -= tz_offset * 3600.0
                times.append(timestamp)
                hosts.append(
                    source if resolve is None else resolve(source, timestamp)
                )
                domains.append(domain)
                ips.append("" if resolved == "-" else resolved)
                agents.append("" if agent == "-" else agent)
                referers.append("" if referer == "-" else referer)
                if len(times) == limit:
                    self._count(limit, dropped, malformed)
                    dropped = malformed = 0
                    batch = ConnectionBatch(
                        times, hosts, domains, ips, agents, referers
                    )
                    times, hosts, domains = [], [], []
                    ips, agents, referers = [], [], []
                    yield batch
                    del batch  # freed once the consumer drops it
        finally:
            self._count(len(times), dropped, malformed)
        if times:
            yield ConnectionBatch(times, hosts, domains, ips, agents, referers)

    def read_lines(
        self,
        lines: Iterable[str],
        batch_size: int | None = None,
        *,
        resolver: IpResolver | None = None,
    ) -> Iterator[ConnectionBatch]:
        """:meth:`column_batches` over the lines of a proxy log file."""
        rows = map(_split_tabs, map(str.rstrip, lines, repeat("\n")))
        return self.column_batches(rows, batch_size, resolver=resolver)

    def read_records(
        self,
        records: Iterable[ProxyRecord],
        batch_size: int | None = None,
        *,
        resolver: IpResolver | None = None,
    ) -> Iterator[ConnectionBatch]:
        """:meth:`column_batches` over in-memory raw :class:`ProxyRecord` s.

        Equal to :meth:`read_lines` over the records' log lines, up to
        what :func:`~repro.logs.proxy.format_proxy_line` rounds; like a
        log line, a row has no place for a pre-filled ``hostname``.
        """
        return self.column_batches(
            map(_record_fields, records), batch_size, resolver=resolver
        )


def normalize_dns_records(
    records: Iterable[DnsRecord],
    *,
    fold_level: int = 3,
) -> Iterator[Connection]:
    """Normalize DNS records into :class:`Connection` events.

    DNS logs carry no HTTP context, so ``user_agent`` and ``referer``
    stay ``None`` (meaning "field does not exist", as opposed to the
    empty string used for "field exists but blank").  Scalar form for
    callers holding :class:`DnsRecord` objects; the detection route
    folds inside :meth:`ReductionFunnel.column_batches
    <repro.logs.reduction.ReductionFunnel.column_batches>` and never
    builds a :class:`Connection` per event.
    """
    for record in records:
        yield Connection(
            timestamp=record.timestamp,
            host=record.source_ip,
            domain=fold_domain(record.domain, fold_level),
            resolved_ip=record.resolved_ip,
        )
