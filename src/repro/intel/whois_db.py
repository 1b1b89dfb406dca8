"""Simulated WHOIS registry.

The paper queries WHOIS for two registration features: **DomAge** (days
since registration) and **DomValidity** (days until the registration
expires).  Attacker-controlled domains skew young and short-lived;
legitimate ones are old with long validity.

We cannot query real WHOIS offline, so the synthetic generators
populate this registry when they mint domains.  Three realism details
are preserved because the evaluation depends on them:

* some domains have *no* (or unparseable) records -- the paper imputes
  average feature values for those (Section VI-C);
* DGA domains may be **registered after they are observed** in traffic
  (Section VI-D found registration dates later than detection);
* lookups are relative to a query date, so age/validity change over
  the simulated timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True, slots=True)
class WhoisRecord:
    """Registration interval for one (folded) domain."""

    domain: str
    registered: float
    """Registration instant, epoch seconds."""

    expires: float
    """Expiry instant, epoch seconds."""

    def age_days(self, when: float) -> float:
        """Days since registration at time ``when`` (negative when the
        domain is observed before its registration -- the DGA case)."""
        return (when - self.registered) / SECONDS_PER_DAY

    def validity_days(self, when: float) -> float:
        """Days until expiry at time ``when``."""
        return (self.expires - when) / SECONDS_PER_DAY


class WhoisDatabase:
    """In-memory registry keyed by folded domain name."""

    def __init__(self) -> None:
        self._records: dict[str, WhoisRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, domain: str) -> bool:
        return domain in self._records

    def register(
        self, domain: str, registered: float, expires: float
    ) -> WhoisRecord:
        """Add (or overwrite) a registration record."""
        if expires <= registered:
            raise ValueError(
                f"expiry {expires} not after registration {registered} "
                f"for {domain!r}"
            )
        record = WhoisRecord(domain=domain, registered=registered, expires=expires)
        self._records[domain] = record
        return record

    def lookup(self, domain: str) -> WhoisRecord | None:
        """Return the record, or ``None`` for unregistered/unparseable
        domains (the caller imputes averages, as the paper does)."""
        return self._records.get(domain)

    def merge(self, other: "WhoisDatabase") -> None:
        """Fold another registry's records into this one."""
        self._records.update(other._records)

    # ------------------------------------------------------------------
    # On-disk form (fleet layouts, enterprise replay)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict[str, list[float]]:
        """JSON-serializable ``{domain: [registered, expires]}`` form."""
        return {
            domain: [record.registered, record.expires]
            for domain, record in sorted(self._records.items())
        }

    @classmethod
    def from_json_dict(
        cls, payload: dict[str, list[float]]
    ) -> "WhoisDatabase":
        """Rebuild a registry from :meth:`to_json_dict` output."""
        database = cls()
        for domain, (registered, expires) in payload.items():
            database.register(str(domain), float(registered), float(expires))
        return database


def save_whois_file(database: WhoisDatabase, path) -> None:
    """Write a registry to ``path`` as an inspectable JSON document."""
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(database.to_json_dict(), indent=1) + "\n")


def load_whois_file(path) -> WhoisDatabase:
    """Read a registration registry file, in either format it comes in.

    The JSON shape decides: the ``{domain: [registered, expires]}``
    mapping :func:`save_whois_file` writes, or an RDAP fixture -- a
    list of RFC 9083 domain documents, one document (``ldhName`` /
    ``objectClassName``) or ``{"domains": [...]}`` -- folded through
    :func:`repro.intelstore.rdap.registry_from_rdap`, which is imported
    only then.  Every CLI, manifest and worker path loads registries
    here.
    """
    import json
    from pathlib import Path

    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        if isinstance(payload.get("domains"), list):
            payload = payload["domains"]
        elif "ldhName" in payload or "objectClassName" in payload:
            payload = [payload]
        else:
            try:
                return WhoisDatabase.from_json_dict(payload)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed WHOIS registry {path}: {exc}"
                ) from exc
    if not isinstance(payload, list):
        raise ValueError(
            f"registration registry {path} is neither a WHOIS JSON mapping "
            "nor an RDAP fixture"
        )
    from ..intelstore.rdap import registry_from_rdap

    return registry_from_rdap(payload)
