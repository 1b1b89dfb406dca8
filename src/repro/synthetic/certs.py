"""Deterministic CT-log and RDAP fixtures for generated fleets.

Real deployments of the paper's pipeline can tap two more public
evidence feeds: certificate-transparency logs (attackers routinely
reuse one TLS certificate across campaign infrastructure, so SAN
lists pivot between domains) and RDAP (the JSON successor to WHOIS).
This module mints offline fixtures of both for a generated fleet, so
every test and CI run exercises the feeds without network access:

* :func:`fleet_cert_observations` -- one **campaign certificate**
  covering the shared campaign's domains plus any CT-sibling domains
  the scenario injected (the SAN pivot the detector should exploit),
  padded with decoy SANs that never appear in traffic, plus a few
  benign certificates as noise;
* :func:`fleet_rdap_documents` -- the fleet WHOIS registry re-encoded
  as RDAP domain documents, byte-equivalent registration facts
  through :func:`repro.intel.whois_db.load_whois_file`;
* :func:`write_intel_fixtures` -- both serialized under a layout's
  ``intel/`` directory.

Everything is derived from the fleet's own ground truth with
content-hashed fingerprints -- no clocks, no randomness beyond the
fleet's seed -- so regenerating a layout reproduces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..intelstore.ct import CertObservation, save_ct_log
from ..intelstore.rdap import rdap_document
from .fleet import (
    SHARED_DOMAIN_EXPIRES,
    SHARED_DOMAIN_REGISTERED,
    FleetDataset,
    build_fleet_whois,
)

#: SANs on the campaign certificate that never resolve in any tenant's
#: traffic: they exercise the rare-set restriction (SAN pivots must
#: not seed domains the fleet never saw).
_DECOY_SANS = ("cdn-decoy-a.c9", "cdn-decoy-b.c9")

#: Benign certificates written as noise, so consumers cannot shortcut
#: by treating every fixture certificate as campaign evidence.
_BENIGN_CERTS = (
    ("portal.example-corp.com", "sso.example-corp.com"),
    ("static.news-site.net",),
)


def _fingerprint(sans: tuple[str, ...], issuer: str) -> str:
    """Stable hex fingerprint: content hash of the cert's identity."""
    digest = hashlib.sha256(
        "|".join((issuer,) + tuple(sorted(sans))).encode()
    )
    return digest.hexdigest()


def _observation(
    sans: tuple[str, ...],
    *,
    issuer: str,
    not_before: float = SHARED_DOMAIN_REGISTERED,
    not_after: float = SHARED_DOMAIN_EXPIRES,
) -> CertObservation:
    return CertObservation(
        fingerprint=_fingerprint(sans, issuer),
        not_before=not_before,
        not_after=not_after,
        issuer=issuer,
        sans=tuple(sans),
    )


def fleet_cert_observations(fleet: FleetDataset) -> list[CertObservation]:
    """The fleet's CT fixture: one campaign cert plus benign noise.

    The campaign certificate's SAN list is the shared campaign's
    delivery + C&C domains, any injected CT-sibling domains, and the
    decoy names -- the single shared certificate that lets SAN pivots
    walk from a confirmed C&C domain to the otherwise-invisible
    sibling infrastructure.
    """
    shared = fleet.shared
    campaign_sans = tuple(
        sorted(set(shared.domains) | set(shared.ct_sibling_domains))
    ) + _DECOY_SANS
    observations = [
        _observation(campaign_sans, issuer="Shady Free CA"),
    ]
    for sans in _BENIGN_CERTS:
        observations.append(
            _observation(
                sans,
                issuer="Reputable CA",
                not_before=SHARED_DOMAIN_REGISTERED,
                not_after=SHARED_DOMAIN_EXPIRES * 10,
            )
        )
    return observations


def fleet_rdap_documents(fleet: FleetDataset) -> list[dict]:
    """The fleet WHOIS registry as RDAP domain documents.

    Loading the result through
    :func:`repro.intelstore.rdap.registry_from_rdap` reproduces
    :func:`repro.synthetic.fleet.build_fleet_whois` exactly -- the
    fixture proves RDAP is a drop-in registration source.
    """
    registry = build_fleet_whois(fleet)
    return [
        rdap_document(domain, registered, expires)
        for domain, (registered, expires) in sorted(
            registry.to_json_dict().items()
        )
    ]


def write_intel_fixtures(fleet: FleetDataset, intel_dir) -> dict[str, Path]:
    """Write ``certs.json`` and ``rdap.json`` under ``intel_dir``.

    Returns the paths keyed by fixture name; layouts reference
    ``certs.json`` from their manifest only when the scenario injected
    CT siblings, so fixture presence alone never changes detections.
    """
    intel_dir = Path(intel_dir)
    intel_dir.mkdir(parents=True, exist_ok=True)
    certs_path = intel_dir / "certs.json"
    save_ct_log(fleet_cert_observations(fleet), certs_path)
    rdap_path = intel_dir / "rdap.json"
    rdap_path.write_text(
        json.dumps(fleet_rdap_documents(fleet), indent=1) + "\n"
    )
    return {"certs": certs_path, "rdap": rdap_path}
