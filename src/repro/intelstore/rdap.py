"""Offline-fixture RDAP client feeding the WHOIS feature path.

RDAP (RFC 9083) is the structured successor to WHOIS: a JSON document
per domain with ``ldhName``, an ``events`` list carrying ISO-8601
``registration``/``expiration`` instants, and registrar entities.  The
paper's Detect_C&C features only need registration age and validity
(conf_dsn_OpreaLYCA15 Section IV), so this module normalizes RDAP
documents into the existing :class:`~repro.intel.whois_db.WhoisRecord`
epoch-seconds shape and folds them into a
:class:`~repro.intel.whois_db.WhoisDatabase` (:func:`registry_from_rdap`)
-- every manifest/CLI path that accepts a WHOIS registry file also
accepts an RDAP fixture, because
:func:`repro.intel.whois_db.load_whois_file` sniffs the format and hands
RDAP documents here.  All fixtures are offline JSON; nothing here talks
to a network.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone

from ..intel.whois_db import WhoisDatabase, WhoisRecord


@dataclass(frozen=True, slots=True)
class RdapRecord:
    """A normalized RDAP domain object.

    ``registered``/``expires`` are epoch seconds (UTC); either may be
    ``None`` when the document lacked the event, in which case the
    record cannot enter the registry and the feature path imputes, as
    it does for plain-WHOIS gaps.
    """

    domain: str
    registered: float | None
    expires: float | None
    registrar: str | None

    def to_whois_record(self) -> WhoisRecord | None:
        """The registry-shaped record, or ``None`` if incomplete or
        inconsistent (expiry not after registration)."""
        if self.registered is None or self.expires is None:
            return None
        if self.expires <= self.registered:
            return None
        return WhoisRecord(
            domain=self.domain,
            registered=self.registered,
            expires=self.expires,
        )


def _parse_event_date(value: str) -> float | None:
    """ISO-8601 instant -> epoch seconds UTC (``None`` on junk)."""
    text = str(value).strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _registrar_name(doc: dict) -> str | None:
    """Pull the registrar's display name out of the entity list."""
    for entity in doc.get("entities", ()):
        if "registrar" not in entity.get("roles", ()):
            continue
        vcard = entity.get("vcardArray")
        if (
            isinstance(vcard, list) and len(vcard) == 2
            and isinstance(vcard[1], list)
        ):
            for item in vcard[1]:
                if (
                    isinstance(item, list) and len(item) == 4
                    and item[0] == "fn"
                ):
                    return str(item[3])
        handle = entity.get("handle")
        if handle:
            return str(handle)
    return None


def parse_rdap_document(doc: dict) -> RdapRecord | None:
    """Normalize one RDAP domain document; ``None`` if it names no
    domain (``ldhName`` missing) -- anything else degrades to a record
    with ``None`` fields rather than raising, matching how the WHOIS
    path treats unparseable registry answers."""
    name = doc.get("ldhName") or doc.get("unicodeName")
    if not name:
        return None
    registered = expires = None
    for event in doc.get("events", ()):
        action = event.get("eventAction")
        when = event.get("eventDate")
        if when is None:
            continue
        if action == "registration" and registered is None:
            registered = _parse_event_date(when)
        elif action == "expiration" and expires is None:
            expires = _parse_event_date(when)
    return RdapRecord(
        domain=str(name).strip().rstrip(".").lower(),
        registered=registered,
        expires=expires,
        registrar=_registrar_name(doc),
    )


def registry_from_rdap(docs: Iterable[dict]) -> WhoisDatabase:
    """Fold RDAP documents into a WHOIS registry.

    Documents that normalize to an incomplete or inconsistent record
    are skipped (their domains then take the imputation path), so one
    bad fixture entry never poisons the registry.
    """
    database = WhoisDatabase()
    for doc in docs:
        record = parse_rdap_document(doc)
        if record is None:
            continue
        whois = record.to_whois_record()
        if whois is None:
            continue
        database.register(whois.domain, whois.registered, whois.expires)
    return database


def rdap_document(
    domain: str,
    registered: float,
    expires: float,
    *,
    registrar: str = "Example Registrar",
) -> dict:
    """Build a well-formed RDAP document (fixture generator helper)."""

    def _iso(stamp: float) -> str:
        return datetime.fromtimestamp(stamp, tz=timezone.utc).isoformat()

    return {
        "objectClassName": "domain",
        "ldhName": domain,
        "events": [
            {"eventAction": "registration", "eventDate": _iso(registered)},
            {"eventAction": "expiration", "eventDate": _iso(expires)},
        ],
        "entities": [
            {
                "objectClassName": "entity",
                "roles": ["registrar"],
                "vcardArray": [
                    "vcard",
                    [["fn", {}, "text", registrar]],
                ],
            }
        ],
    }


__all__ = [
    "RdapRecord",
    "parse_rdap_document",
    "rdap_document",
    "registry_from_rdap",
]
