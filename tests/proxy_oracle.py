"""Scalar reference for the proxy ingest route (Section IV-A).

One line at a time through the documented adapters --
:func:`repro.logs.parse_proxy_line`, then
:func:`repro.logs.normalize_proxy_records` on the one record -- with
none of the production route's batching, memos or deferred counts.  The
property tests hold :meth:`repro.logs.ProxyNormalizer.read_lines` to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logs import (
    Connection,
    IpResolver,
    ProxyLogFormatError,
    normalize_proxy_records,
    parse_proxy_line,
)


@dataclass
class OracleResult:
    """What a file's lines normalize to."""

    events: list[Connection] = field(default_factory=list)
    malformed: int = 0
    dropped: int = 0
    """Well-formed lines whose destination is an IP literal."""


def normalize_lines(
    lines, resolver: IpResolver | None = None, fold_level: int = 2
) -> OracleResult:
    """Parse and normalize ``lines`` the slow, obvious way."""
    resolver = resolver if resolver is not None else IpResolver()
    result = OracleResult()
    for line in lines:
        if not line.strip():
            continue
        try:
            record = parse_proxy_line(line)
        except ProxyLogFormatError:
            result.malformed += 1
            continue
        events = list(
            normalize_proxy_records([record], resolver, fold_level=fold_level)
        )
        if events:
            result.events += events
        else:
            result.dropped += 1
    return result


def batch_rows(batches) -> list[tuple]:
    """Column batches as ``(timestamp, host, domain, ip, ua, referer)``."""
    return [
        row
        for batch in batches
        for row in zip(
            batch.timestamps, batch.hosts, batch.domains,
            batch.resolved_ips, batch.user_agents, batch.referers,
        )
    ]


def event_rows(events) -> list[tuple]:
    """Scalar events in the shape of :func:`batch_rows`."""
    return [
        (e.timestamp, e.host, e.domain, e.resolved_ip, e.user_agent, e.referer)
        for e in events
    ]
