"""LANL-style DNS log serialization, parsing and filtering.

The released LANL data is anonymized DNS query/response traffic.  We
use a line-oriented text format with one query/response pair per line::

    <epoch> <source_ip> <record_type> <domain> <resolved_ip|->

Fields are space separated; a missing response address is ``-``.
:func:`format_dns_line` and :func:`parse_dns_line` round-trip this
format, and :func:`parse_dns_log` streams a whole file-like object.

The filtering predicates implement the reduction steps of Section IV-A:
keep only A records, drop queries for internal resources, and drop
queries initiated by internal servers (detection targets are user
hosts, not servers).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .records import DnsRecord, DnsRecordType


class DnsLogFormatError(ValueError):
    """Raised when a DNS log line cannot be parsed."""


def format_dns_line(record: DnsRecord) -> str:
    """Serialize a :class:`DnsRecord` to one log line."""
    resolved = record.resolved_ip or "-"
    return (
        f"{record.timestamp:.3f} {record.source_ip} "
        f"{record.record_type.value} {record.domain} {resolved}"
    )


def parse_dns_line(line: str) -> DnsRecord:
    """Parse one log line into a :class:`DnsRecord`.

    Raises :class:`DnsLogFormatError` on malformed input.
    """
    parts = line.split()
    if len(parts) != 5:
        raise DnsLogFormatError(f"expected 5 fields, got {len(parts)}: {line!r}")
    raw_ts, source_ip, raw_type, domain, resolved = parts
    try:
        timestamp = float(raw_ts)
    except ValueError as exc:
        raise DnsLogFormatError(f"bad timestamp {raw_ts!r}") from exc
    if not math.isfinite(timestamp):
        raise DnsLogFormatError(f"bad timestamp {raw_ts!r}")
    try:
        record_type = DnsRecordType(raw_type)
    except ValueError as exc:
        raise DnsLogFormatError(f"unknown record type {raw_type!r}") from exc
    return DnsRecord(
        timestamp=timestamp,
        source_ip=source_ip,
        domain=domain,
        record_type=record_type,
        resolved_ip="" if resolved == "-" else resolved,
    )


def parse_dns_log(
    lines: Iterable[str], *, skip_malformed: bool = True
) -> Iterator[DnsRecord]:
    """Stream-parse an iterable of log lines.

    Blank lines are ignored.  With ``skip_malformed`` (the default, as
    befits multi-terabyte operational logs) unparseable lines are
    dropped; otherwise they raise.  This is the scalar parser for
    callers that want :class:`DnsRecord` objects; log files on their
    way to detection go through
    :meth:`~repro.logs.reduction.ReductionFunnel.read_lines`, which
    applies the same validation and *counts* what it drops.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            yield parse_dns_line(line)
        except DnsLogFormatError:
            if not skip_malformed:
                raise


def is_a_record(record: DnsRecord) -> bool:
    """Reduction step 1: keep only A records (others are redacted)."""
    return record.record_type is DnsRecordType.A


def is_external_query(
    record: DnsRecord, internal_suffixes: tuple[str, ...]
) -> bool:
    """Reduction step 2: drop queries for the site's own namespace."""
    from .domains import is_internal_domain

    return not is_internal_domain(record.domain, internal_suffixes)


def is_from_client(record: DnsRecord, server_ips: frozenset[str]) -> bool:
    """Reduction step 3: drop queries initiated by internal servers."""
    return record.source_ip not in server_ips
