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
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator

from .records import Connection, DhcpLease, DnsRecord, ProxyRecord, VpnSession
from .domains import fold_domain, is_ip_address


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

    def add_lease(self, lease: DhcpLease | VpnSession) -> None:
        """Insert one lease, keeping the per-address index sorted."""
        intervals = self._intervals.setdefault(lease.ip, [])
        starts = self._starts.setdefault(lease.ip, [])
        entry = (lease.start, lease.end, lease.hostname)
        index = bisect_right(starts, lease.start)
        intervals.insert(index, entry)
        starts.insert(index, lease.start)

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
