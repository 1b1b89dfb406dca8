"""Certificate-transparency evidence source: SAN-pivot sibling edges.

The paper's guilt-by-association graph connects hosts and domains
through contacts (conf_dsn_OpreaLYCA15 Section V); this module adds a
second association signal the paper's registration features hint at:
two domains that appear as subject-alternative names (SANs) on the
*same* TLS certificate were provisioned together, so labelling one
malicious is evidence about its siblings.  A CT log fixture (offline
JSON -- no network) is folded into a :class:`CtIndex` whose
``domain -> cert -> sibling domains`` pivots feed detection two ways:

* **seed expansion** -- :func:`expand_ct_seeds` takes the day's seed
  domains and pulls in rare siblings reachable through shared certs
  (transitive closure, restricted to that day's rare set);
* **frontier edges** -- :func:`sibling_map` pre-filters a
  ``domain -> siblings`` mapping over the rare set that belief
  propagation uses to extend its candidate frontier when a domain is
  labelled malicious.

Everything is gated behind ``ct_edges=`` kwargs: when ``None`` (the
default) detection output is byte-identical to a build without this
module.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Set
from dataclasses import dataclass
from pathlib import Path

from ..logs.domains import fold_domain


@dataclass(frozen=True, slots=True)
class CertObservation:
    """One certificate seen in a CT log.

    ``sans`` holds the subject-alternative names exactly as logged
    (unfolded); :class:`CtIndex` folds them when building pivots so
    they line up with folded traffic domains.
    """

    fingerprint: str
    not_before: float
    not_after: float
    issuer: str
    sans: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "issuer": self.issuer,
            "sans": list(self.sans),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CertObservation":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            not_before=float(payload["not_before"]),
            not_after=float(payload["not_after"]),
            issuer=str(payload.get("issuer", "")),
            sans=tuple(str(san) for san in payload.get("sans", ())),
        )


class CtIndex:
    """SAN-pivot index over a set of CT observations.

    Folds every SAN to ``fold_level`` labels (matching the traffic
    normalizer) and answers :meth:`siblings`: the other folded domains
    sharing at least one certificate with the queried domain.
    """

    def __init__(
        self,
        observations: Iterable[CertObservation],
        *,
        fold_level: int = 2,
    ) -> None:
        self.fold_level = fold_level
        self.observations = tuple(observations)
        self._certs_by_domain: dict[str, set[str]] = {}
        self._domains_by_cert: dict[str, set[str]] = {}
        for cert in self.observations:
            folded = {
                fold_domain(san, fold_level) for san in cert.sans if san
            }
            self._domains_by_cert[cert.fingerprint] = folded
            for domain in folded:
                self._certs_by_domain.setdefault(domain, set()).add(
                    cert.fingerprint
                )

    def __len__(self) -> int:
        return len(self.observations)

    def siblings(self, domain: str) -> frozenset[str]:
        """Folded domains sharing a certificate with ``domain``
        (excluding ``domain`` itself); empty when unknown to CT."""
        certs = self._certs_by_domain.get(domain)
        if not certs:
            return frozenset()
        out: set[str] = set()
        for fingerprint in certs:
            out.update(self._domains_by_cert[fingerprint])
        out.discard(domain)
        return frozenset(out)

    def domains(self) -> frozenset[str]:
        """Every folded domain the index knows about."""
        return frozenset(self._certs_by_domain)


def expand_ct_seeds(
    seeds: Set[str], rare: Set[str], ct_edges: CtIndex
) -> set[str]:
    """Rare domains reachable from ``seeds`` through shared certs.

    Transitive closure over SAN pivots, restricted to ``rare`` (the
    day's rare-domain set) at every step so decoy SANs that never
    appear in traffic cannot seed anything.  The result excludes the
    input seeds: it is exactly the *additional* domains CT contributes.
    """
    frontier = list(seeds)
    reached: set[str] = set(seeds)
    added: set[str] = set()
    while frontier:
        domain = frontier.pop()
        for sibling in ct_edges.siblings(domain):
            if sibling in reached or sibling not in rare:
                continue
            reached.add(sibling)
            added.add(sibling)
            frontier.append(sibling)
    return added


def sibling_map(
    ct_edges: CtIndex, rare: Set[str]
) -> dict[str, frozenset[str]]:
    """``domain -> rare siblings`` restricted to the rare set.

    The belief-propagation frontier hook: entries exist only where the
    pivot lands inside ``rare``, so BP never grows its candidate set
    beyond the day's rare domains.
    """
    out: dict[str, frozenset[str]] = {}
    for domain in rare:
        siblings = ct_edges.siblings(domain)
        if not siblings:
            continue
        kept = frozenset(siblings & rare)
        if kept:
            out[domain] = kept
    return out


def load_ct_log(path: str | Path, *, fold_level: int = 2) -> CtIndex:
    """Read a CT fixture file into a :class:`CtIndex`.

    The fixture is offline JSON: either a list of observation dicts or
    ``{"certs": [...]}``.  Raises ``ValueError`` on any other shape so
    the CLI can map it to a config error.
    """
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        payload = payload.get("certs")
    if not isinstance(payload, list):
        raise ValueError(
            f"CT fixture {path} must be a JSON list of certificate "
            "observations (or {'certs': [...]})"
        )
    observations = [CertObservation.from_dict(entry) for entry in payload]
    return CtIndex(observations, fold_level=fold_level)


_CT_MEMO: dict[tuple[str, int], CtIndex] = {}


def load_ct_cached(path: str | Path, *, fold_level: int = 2) -> CtIndex:
    """Per-process memoized :func:`load_ct_log`: the fleet manager
    loads the index once and its forked workers inherit the memo."""
    key = (str(Path(path).resolve()), fold_level)
    index = _CT_MEMO.get(key)
    if index is None:
        index = load_ct_log(path, fold_level=fold_level)
        _CT_MEMO[key] = index
    return index


def save_ct_log(
    observations: Iterable[CertObservation], path: str | Path
) -> None:
    """Write observations as a CT fixture file (fixture generator)."""
    payload = {"certs": [cert.as_dict() for cert in observations]}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


__all__ = [
    "CertObservation",
    "CtIndex",
    "expand_ct_seeds",
    "load_ct_cached",
    "load_ct_log",
    "save_ct_log",
    "sibling_map",
]
