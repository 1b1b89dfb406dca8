"""AC-style web-proxy log serialization and parsing.

The enterprise ("AC") dataset consists of proxy logs captured at the
network border.  We use a tab-separated line format (URLs and UA
strings contain spaces, so whitespace splitting is not an option)::

    <epoch_local> <tz_offset_h> <source_ip> <method> <dest> <path>
    <dest_ip|-> <status> <user_agent|-> <referer|->

``epoch_local`` is the collector's local clock; normalization
(:mod:`repro.logs.normalize`) converts it to UTC using ``tz_offset_h``,
mirroring the paper's multi-timezone challenge.  ``-`` encodes an empty
field.

:func:`parse_proxy_line` / :func:`parse_proxy_log` are the scalar
adapters, for callers that want :class:`ProxyRecord` objects (layout
generation, the benchmark's traced walk, tests -- where they are the
oracle of the detection route).  The detection route itself,
:class:`repro.logs.normalize.ProxyNormalizer`, validates the same ten
fields by the same rules without building a record per line.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .records import ProxyRecord

_FIELD_COUNT = 10


class ProxyLogFormatError(ValueError):
    """Raised when a proxy log line cannot be parsed."""


def _encode(value: str) -> str:
    return value.replace("\t", " ") if value else "-"


def _decode(value: str) -> str:
    return "" if value == "-" else value


def format_proxy_line(record: ProxyRecord) -> str:
    """Serialize a :class:`ProxyRecord` to one tab-separated log line."""
    fields = (
        f"{record.timestamp:.3f}",
        f"{record.tz_offset_hours:g}",
        record.source_ip,
        record.method,
        record.destination,
        record.url_path or "/",
        _encode(record.destination_ip),
        str(record.status_code),
        _encode(record.user_agent),
        _encode(record.referer),
    )
    return "\t".join(fields)


def parse_proxy_line(line: str) -> ProxyRecord:
    """Parse one tab-separated log line into a :class:`ProxyRecord`."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != _FIELD_COUNT:
        raise ProxyLogFormatError(
            f"expected {_FIELD_COUNT} fields, got {len(parts)}: {line!r}"
        )
    (raw_ts, raw_tz, source_ip, method, dest, path,
     dest_ip, raw_status, user_agent, referer) = parts
    try:
        timestamp = float(raw_ts)
        tz_offset = float(raw_tz)
        status = int(raw_status)
    except ValueError as exc:
        raise ProxyLogFormatError(f"bad numeric field in {line!r}") from exc
    if not (math.isfinite(timestamp) and math.isfinite(tz_offset)):
        # "nan"/"inf" parse as floats but place the event at no instant.
        raise ProxyLogFormatError(f"non-finite time field in {line!r}")
    return ProxyRecord(
        timestamp=timestamp,
        source_ip=source_ip,
        destination=dest,
        destination_ip=_decode(dest_ip),
        url_path=path,
        method=method,
        status_code=status,
        user_agent=_decode(user_agent),
        referer=_decode(referer),
        tz_offset_hours=tz_offset,
    )


def parse_proxy_log(
    lines: Iterable[str], *, skip_malformed: bool = True
) -> Iterator[ProxyRecord]:
    """Stream-parse an iterable of proxy log lines.

    Blank lines are ignored; malformed lines are dropped unless
    ``skip_malformed`` is false.
    """
    for line in lines:
        if not line.strip():
            continue
        try:
            yield parse_proxy_line(line)
        except ProxyLogFormatError:
            if not skip_malformed:
                raise
