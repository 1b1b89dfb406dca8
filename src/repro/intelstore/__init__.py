"""Durable intel store and the RDAP/CT evidence sources.

Three pieces layered on the paper's external-intelligence model
(conf_dsn_OpreaLYCA15 Section IV):

* :mod:`repro.intelstore.store` -- a dependency-free SQLite store
  (WAL, write-behind batching, TTLs, schema migration) persisting VT
  verdicts, WHOIS/RDAP records, CT observations and per-tenant
  detection profiles across runs;
* :mod:`repro.intelstore.rdap` -- offline RDAP fixtures normalized
  into the existing WHOIS feature path;
* :mod:`repro.intelstore.ct` -- certificate-transparency SAN pivots
  turned into domain-domain sibling edges for seeding and belief
  propagation (``ct_edges=``, byte-identical detections when off).
"""

from .ct import (
    CertObservation,
    CtIndex,
    expand_ct_seeds,
    load_ct_cached,
    load_ct_log,
    save_ct_log,
    sibling_map,
)
from .rdap import (
    RdapRecord,
    parse_rdap_document,
    rdap_document,
    registry_from_rdap,
)
from .store import (
    SCHEMA_VERSION,
    IntelStore,
    IntelStoreError,
    StoreStats,
    create_schema,
    export_json,
    open_intel_store,
)

__all__ = [
    "SCHEMA_VERSION",
    "CertObservation",
    "CtIndex",
    "IntelStore",
    "IntelStoreError",
    "RdapRecord",
    "StoreStats",
    "create_schema",
    "expand_ct_seeds",
    "export_json",
    "load_ct_cached",
    "load_ct_log",
    "open_intel_store",
    "parse_rdap_document",
    "rdap_document",
    "registry_from_rdap",
    "save_ct_log",
    "sibling_map",
]
