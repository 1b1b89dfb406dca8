"""Scalar reference for the DNS ingest route (Section IV-A).

One record at a time, through the documented line parser and the three
filter predicates -- none of the production route's batching, memos or
deferred counts.  The property tests hold
:meth:`repro.logs.ReductionFunnel.read_lines` to it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.logs import DNS_REDUCTION_STEPS, DnsLogFormatError, fold_domain
from repro.logs.dns import (
    is_a_record,
    is_external_query,
    is_from_client,
    parse_dns_line,
)


@dataclass
class OracleResult:
    """What a day's (or several days') lines reduce to."""

    events: list[tuple[float, str, str, str]] = field(default_factory=list)
    """Survivors as ``(timestamp, host, folded domain, resolved ip)``."""

    domains: dict[str, dict[int, set[str]]] = field(
        default_factory=lambda: {s: defaultdict(set) for s in DNS_REDUCTION_STEPS}
    )
    records: dict[str, dict[int, int]] = field(
        default_factory=lambda: {s: defaultdict(int) for s in DNS_REDUCTION_STEPS}
    )
    malformed: int = 0


def reduce_lines(
    lines,
    internal_suffixes: tuple[str, ...] = (),
    server_ips: frozenset[str] = frozenset(),
    fold_level: int = 3,
) -> OracleResult:
    """Parse, filter and account ``lines`` the slow, obvious way."""
    result = OracleResult()
    for line in lines:
        if not line.strip():
            continue
        try:
            record = parse_dns_line(line)
        except DnsLogFormatError:
            result.malformed += 1
            continue
        reached = ["all"]
        if is_a_record(record):
            reached.append("a_records")
            if is_external_query(record, internal_suffixes):
                reached.append("filter_internal_queries")
                if is_from_client(record, server_ips):
                    reached.append("filter_internal_servers")
        day = int(record.timestamp // 86_400)
        folded = fold_domain(record.domain, fold_level)
        for step in reached:
            result.domains[step][day].add(folded)
            result.records[step][day] += 1
        if len(reached) == len(DNS_REDUCTION_STEPS):
            result.events.append(
                (record.timestamp, record.source_ip, folded, record.resolved_ip)
            )
    return result
