"""Tenant manifest: the on-disk description of a detection fleet.

A fleet is declared by one JSON document listing the enterprises to
run, each with its own log directory, pipeline and reduction filters,
plus optional shared intelligence inputs (a VT feed and a WHOIS
registry)::

    {
      "version": 1,
      "vt_reported": "intel/vt_reported.txt",
      "whois": "intel/whois.json",
      "tenants": [
        {
          "id": "acme",
          "directory": "acme/logs",
          "bootstrap_files": 1,
          "pattern": "dns-*.log",
          "internal_suffixes": ["int.c0"],
          "server_ips": ["172.17.2.1"]
        },
        {
          "id": "globex",
          "directory": "globex/logs",
          "pipeline": "enterprise",
          "model_state": "globex/model.json"
        }
      ]
    }

``pipeline`` selects the tenant's log family: ``"dns"`` (the default;
LANL-style logs through the multi-host C&C heuristic) or
``"enterprise"`` (pre-joined web-proxy logs through the trained
regression scorers, which ``model_state`` must supply).

Relative paths resolve against the manifest's own directory, so a
generated fleet layout is relocatable.  All validation errors raise
:class:`ManifestError` with a one-line message -- the CLI turns these
into a non-zero exit instead of a traceback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..config import InputError
from ..intel.whois_db import WhoisDatabase, load_whois_file

MANIFEST_VERSION = 1

PIPELINES = ("dns", "enterprise")


class ManifestError(InputError):
    """Raised on unreadable or invalid fleet manifests."""


@dataclass(frozen=True)
class TenantSpec:
    """One enterprise tenant: where its logs live, how to reduce them."""

    tenant_id: str
    directory: Path
    bootstrap_files: int = 1
    pattern: str = "dns-*.log"
    internal_suffixes: tuple[str, ...] = ()
    server_ips: frozenset[str] = frozenset()
    pipeline: str = "dns"
    """``"dns"`` or ``"enterprise"`` -- which engine consumes the logs."""

    join_round: int = 0
    """Fleet round at which this tenant comes online (tenant churn).
    Its first log file is consumed at round ``join_round``; before
    that the fleet runs without it.  A tenant *leaves* by simply
    having fewer files than the fleet has rounds -- no declaration
    needed.  ``0`` (the default) is the classic everyone-from-round-0
    fleet."""

    model_state: Path | None = None
    """Trained detector state for enterprise tenants (``None`` on the
    DNS path, whose scorers need no training)."""


@dataclass
class FleetManifest:
    """Parsed manifest: tenant specs plus the shared intel inputs."""

    tenants: list[TenantSpec]
    vt_reported: set[str] | None = None
    """Domains the shared VT feed reports, or ``None`` without a feed."""

    whois: WhoisDatabase | None = None
    """The shared WHOIS registry, or ``None`` without one."""

    whois_path: Path | None = None
    """Where :attr:`whois` was loaded from (process workers re-load it)."""

    certs_path: Path | None = None
    """Optional CT log fixture (``"certs"`` key): certificate
    observations whose SAN pivots become sibling evidence edges."""

    path: Path | None = field(default=None, repr=False)


def _tenant_from_payload(
    index: int, payload: Any, base: Path
) -> TenantSpec:
    if not isinstance(payload, dict):
        raise ManifestError(f"tenant #{index}: expected an object")
    tenant_id = payload.get("id")
    if not isinstance(tenant_id, str) or not tenant_id:
        raise ManifestError(f"tenant #{index}: missing or empty 'id'")
    directory = payload.get("directory")
    if not isinstance(directory, str) or not directory:
        raise ManifestError(f"tenant {tenant_id!r}: missing 'directory'")
    resolved = (base / directory).resolve()
    if not resolved.is_dir():
        raise ManifestError(
            f"tenant {tenant_id!r}: directory not found: {resolved}"
        )
    bootstrap_files = payload.get("bootstrap_files", 1)
    if not isinstance(bootstrap_files, int) or bootstrap_files < 0:
        raise ManifestError(
            f"tenant {tenant_id!r}: 'bootstrap_files' must be a "
            "non-negative integer"
        )
    join_round = payload.get("join_round", 0)
    if not isinstance(join_round, int) or join_round < 0:
        raise ManifestError(
            f"tenant {tenant_id!r}: 'join_round' must be a "
            "non-negative integer"
        )
    for key in ("internal_suffixes", "server_ips"):
        value = payload.get(key, [])
        # A bare string would silently explode into per-character
        # entries and corrupt the reduction filters.
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ManifestError(
                f"tenant {tenant_id!r}: {key!r} must be a list of strings"
            )
    pipeline = payload.get("pipeline", "dns")
    if pipeline not in PIPELINES:
        raise ManifestError(
            f"tenant {tenant_id!r}: unknown pipeline {pipeline!r} "
            f"(use one of {', '.join(PIPELINES)})"
        )
    model_state: Path | None = None
    raw_model = payload.get("model_state")
    if pipeline == "enterprise":
        if not isinstance(raw_model, str) or not raw_model:
            raise ManifestError(
                f"tenant {tenant_id!r}: enterprise pipeline requires "
                "'model_state' (a trained detector JSON)"
            )
        model_state = (resolved / raw_model).resolve()
        if not model_state.is_file():
            model_state = (base / raw_model).resolve()
        if not model_state.is_file():
            raise ManifestError(
                f"tenant {tenant_id!r}: model_state not found: {raw_model}"
            )
    elif raw_model is not None:
        raise ManifestError(
            f"tenant {tenant_id!r}: 'model_state' is only valid with "
            "the enterprise pipeline"
        )
    default_pattern = "proxy-*.log" if pipeline == "enterprise" else "dns-*.log"
    return TenantSpec(
        tenant_id=tenant_id,
        directory=resolved,
        bootstrap_files=bootstrap_files,
        pattern=str(payload.get("pattern", default_pattern)),
        internal_suffixes=tuple(payload.get("internal_suffixes", ())),
        server_ips=frozenset(payload.get("server_ips", ())),
        pipeline=pipeline,
        join_round=join_round,
        model_state=model_state,
    )


def load_manifest(path: str | Path) -> FleetManifest:
    """Parse and validate a fleet manifest file."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ManifestError(f"manifest {path}: expected a JSON object")
    version = payload.get("version", MANIFEST_VERSION)
    if version != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {version!r}")
    raw_tenants = payload.get("tenants")
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise ManifestError(f"manifest {path}: 'tenants' must be a non-empty list")

    base = path.parent
    tenants = [
        _tenant_from_payload(index, entry, base)
        for index, entry in enumerate(raw_tenants)
    ]
    seen: set[str] = set()
    for spec in tenants:
        if spec.tenant_id in seen:
            raise ManifestError(f"duplicate tenant id {spec.tenant_id!r}")
        seen.add(spec.tenant_id)

    vt_reported = None
    vt_path = payload.get("vt_reported")
    if vt_path is not None:
        vt_file = (base / str(vt_path)).resolve()
        if not vt_file.is_file():
            raise ManifestError(f"vt_reported file not found: {vt_file}")
        vt_reported = {
            line.strip()
            for line in vt_file.read_text().splitlines()
            if line.strip()
        }

    whois = None
    whois_path = None
    raw_whois = payload.get("whois")
    if raw_whois is not None:
        whois_path = (base / str(raw_whois)).resolve()
        if not whois_path.is_file():
            raise ManifestError(f"whois file not found: {whois_path}")
        try:
            # Classic WHOIS JSON or an RDAP fixture, sniffed by shape.
            whois = load_whois_file(whois_path)
        except (ValueError, KeyError) as exc:
            raise ManifestError(
                f"whois file {whois_path} is invalid: {exc}"
            ) from exc

    certs_path = None
    raw_certs = payload.get("certs")
    if raw_certs is not None:
        certs_path = (base / str(raw_certs)).resolve()
        if not certs_path.is_file():
            raise ManifestError(f"certs file not found: {certs_path}")
        try:
            from ..intelstore.ct import load_ct_log

            load_ct_log(certs_path)
        except (ValueError, KeyError, TypeError) as exc:
            raise ManifestError(
                f"certs file {certs_path} is invalid: {exc}"
            ) from exc
    return FleetManifest(
        tenants=tenants,
        vt_reported=vt_reported,
        whois=whois,
        whois_path=whois_path,
        certs_path=certs_path,
        path=path,
    )
