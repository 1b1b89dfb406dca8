"""Record types for the log formats the system consumes.

The paper's pipeline ingests two families of border logs:

* **DNS logs** (the LANL dataset): queries by internal hosts and the
  responses of the site's resolvers.  Only A records carry usable
  information there (Section IV-A).
* **Web-proxy logs** (the AC dataset): HTTP/HTTPS connections
  intercepted at the enterprise border, with URL, user-agent, referer
  and status code.

DHCP leases and VPN sessions are side inputs used to normalize dynamic
IP addresses back to stable hostnames (Section IV-A).

All timestamps are POSIX epoch seconds in UTC *after* normalization;
raw proxy records may carry a collector-local timestamp plus a timezone
offset that :mod:`repro.logs.normalize` resolves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat


class DnsRecordType(str, Enum):
    """DNS record types observed in the LANL logs.

    Non-A records are redacted in the released data and carry no usable
    payload, so the reduction step drops them.
    """

    A = "A"
    AAAA = "AAAA"
    TXT = "TXT"
    MX = "MX"
    CNAME = "CNAME"
    PTR = "PTR"
    SRV = "SRV"


@dataclass(frozen=True, slots=True)
class DnsRecord:
    """One DNS query/response pair from the LANL-style logs."""

    timestamp: float
    """Epoch seconds (UTC)."""

    source_ip: str
    """Internal host that issued the query (anonymized in LANL)."""

    domain: str
    """Queried name (anonymized in LANL, e.g. ``rainbow-.c3``)."""

    record_type: DnsRecordType = DnsRecordType.A
    resolved_ip: str = ""
    """Response address; empty when the lookup failed or was redacted."""


@dataclass(frozen=True, slots=True)
class ProxyRecord:
    """One web-proxy log line from the AC-style logs."""

    timestamp: float
    """Epoch seconds, possibly collector-local before normalization."""

    source_ip: str
    """Client address (frequently a DHCP or VPN address)."""

    destination: str
    """Destination host part of the URL; may be a bare IP address."""

    destination_ip: str = ""
    url_path: str = "/"
    method: str = "GET"
    status_code: int = 200
    user_agent: str = ""
    referer: str = ""
    tz_offset_hours: float = 0.0
    """Offset of the collector's clock from UTC in hours (0 after
    normalization)."""

    hostname: str = ""
    """Stable client hostname; filled in by normalization from DHCP/VPN
    logs, empty in raw records."""


@dataclass(frozen=True, slots=True)
class DhcpLease:
    """A DHCP lease binding an IP address to a hostname for an interval."""

    ip: str
    hostname: str
    start: float
    end: float


@dataclass(frozen=True, slots=True)
class VpnSession:
    """A VPN session binding a tunnel IP to a hostname for an interval."""

    ip: str
    hostname: str
    start: float
    end: float


@dataclass(frozen=True, slots=True)
class Connection:
    """Normalized connection event -- the unit the detectors consume.

    Both DNS and proxy records reduce to this shape: *who* (a stable
    host identifier) contacted *what* (a folded external domain) *when*,
    plus the HTTP context fields when the source log provides them.
    """

    timestamp: float
    host: str
    domain: str
    resolved_ip: str = ""
    user_agent: str | None = None
    """``None`` means the source log has no UA field (DNS logs);
    an empty string means the field exists but was blank."""

    referer: str | None = None
    """Same convention as :attr:`user_agent`."""

    status_code: int = 0

    @property
    def day(self) -> int:
        """Day index (UTC) of the event, for daily batching."""
        return int(self.timestamp // 86_400)


@dataclass(slots=True)
class ConnectionBatch:
    """Column-oriented micro-batch of :class:`Connection` events.

    Rows are stored as parallel lists -- one value per event -- instead
    of one object per event.  The columnar traffic store ingests the
    lists directly, so neither log route materializes per-event
    objects.  The four base columns are what every source provides;
    ``user_agents`` and ``referers`` are the HTTP context of the proxy
    route (one string per row, ``""`` for a blank field) and stay
    ``None`` on the DNS route, whose logs have no such fields -- the
    column-level form of :class:`Connection`'s ``None`` convention.
    ``status_code`` has no column: no detector reads it.

    Iterating a batch yields equivalent :class:`Connection` objects,
    so any consumer written against the scalar event type accepts a
    batch unchanged (at scalar cost).
    """

    timestamps: list[float]
    hosts: list[str]
    domains: list[str]
    resolved_ips: list[str]
    user_agents: list[str] | None = None
    referers: list[str] | None = None

    def __len__(self) -> int:
        return len(self.timestamps)

    @classmethod
    def from_connections(
        cls, connections: Sequence[Connection]
    ) -> ConnectionBatch:
        """Pack scalar events into one batch, in order -- the inverse of
        iterating a batch.  The first event decides whether the HTTP
        columns exist (``None``: no field), so the events must agree on
        which of ``user_agent`` / ``referer`` are ``None``."""
        head = connections[0]
        return cls(
            [c.timestamp for c in connections],
            [c.host for c in connections],
            [c.domain for c in connections],
            [c.resolved_ip for c in connections],
            None if head.user_agent is None
            else [c.user_agent for c in connections],
            None if head.referer is None
            else [c.referer for c in connections],
        )

    def take(self, rows: slice | Sequence[int]) -> ConnectionBatch:
        """The batch restricted to ``rows`` (a slice, or row positions
        in the order wanted), every column alike."""
        if isinstance(rows, slice):
            def pick(column):
                return column[rows]
        else:
            def pick(column):
                return [column[i] for i in rows]
        return ConnectionBatch(
            pick(self.timestamps),
            pick(self.hosts),
            pick(self.domains),
            pick(self.resolved_ips),
            None if self.user_agents is None else pick(self.user_agents),
            None if self.referers is None else pick(self.referers),
        )

    def __iter__(self):
        """Yield the rows as scalar :class:`Connection` events."""
        absent = repeat(None)
        for timestamp, host, domain, ip, user_agent, referer in zip(
            self.timestamps,
            self.hosts,
            self.domains,
            self.resolved_ips,
            absent if self.user_agents is None else self.user_agents,
            absent if self.referers is None else self.referers,
        ):
            yield Connection(
                timestamp=timestamp,
                host=host,
                domain=domain,
                resolved_ip=ip,
                user_agent=user_agent,
                referer=referer,
            )
