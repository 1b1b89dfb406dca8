"""Fleet-level reporting: per-tenant detections plus cross-tenant views.

A fleet run produces one :class:`TenantDayReport` per (tenant, day)
and aggregates them into a :class:`FleetReport`:

* per-tenant totals (records, rare domains, detections, how many came
  from intel seeding);
* **cross-tenant overlap** -- domains detected in two or more tenants,
  the fleet's version of the paper's observation that community
  feedback concentrates on shared attacker infrastructure;
* VT classification of every detected domain through the shared cache
  (``reported`` / ``unreported`` / ``unknown`` without a feed), i.e.
  the paper's known-malicious vs candidate-new-discovery split;
* **WHOIS registration columns** -- age and remaining validity (in
  days, at first detection) of every detected domain, resolved through
  the shared WHOIS cache.  The paper's DomAge/DomValidity observation
  -- attacker infrastructure skews young and short-lived -- surfaced
  fleet-wide for the SOC;
* the intel plane's cache and seeding accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from ..eval.reporting import render_table
from .intel import IntelPlane


@dataclass
class TenantDayReport:
    """What one tenant produced for one operational day."""

    tenant_id: str
    day: int
    source: str
    """Basename of the log file the day came from."""

    records: int
    rare_count: int
    cc_domains: set[str] = field(default_factory=set)
    detected: list[str] = field(default_factory=list)
    intel_seeded: set[str] = field(default_factory=set)
    ct_seeded: set[str] = field(default_factory=set)
    """Domains pulled in through CT SAN-pivot sibling edges."""

    scores: dict[str, float] = field(default_factory=dict)
    """Publication scores per detected domain (seed/C&C labels are 1.0)."""

    elapsed_seconds: float = 0.0
    """Wall-clock time the tenant's ingest + detection day took; the
    fleet throughput benchmark aggregates these into the per-PR
    performance trajectory (``BENCH_perf.json``)."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per detection stage of the day's rollover
    (``rare``, ``automation``, ``cc``, ``bp``, ``commit``), from the engine's
    :class:`~repro.core.DayReport`."""

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenant_id": self.tenant_id,
            "day": self.day,
            "source": self.source,
            "records": self.records,
            "rare_count": self.rare_count,
            "cc_domains": sorted(self.cc_domains),
            "detected": list(self.detected),
            "intel_seeded": sorted(self.intel_seeded),
            "ct_seeded": sorted(self.ct_seeded),
            "scores": dict(self.scores),
            "elapsed_seconds": self.elapsed_seconds,
            "stage_seconds": dict(self.stage_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TenantDayReport":
        return cls(
            tenant_id=str(payload["tenant_id"]),
            day=int(payload["day"]),
            source=str(payload["source"]),
            records=int(payload["records"]),
            rare_count=int(payload["rare_count"]),
            cc_domains=set(payload["cc_domains"]),
            detected=list(payload["detected"]),
            intel_seeded=set(payload["intel_seeded"]),
            ct_seeded=set(payload.get("ct_seeded", ())),
            scores={
                str(domain): float(score)
                for domain, score in payload.get("scores", {}).items()
            },
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            stage_seconds={
                str(stage): float(seconds)
                for stage, seconds in payload.get(
                    "stage_seconds", {}
                ).items()
            },
        )


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet run."""

    days: list[TenantDayReport] = field(default_factory=list)
    rounds: int = 0
    interrupted: bool = False
    vt_labels: dict[str, bool | None] = field(default_factory=dict)
    whois_facts: dict[str, tuple[float, float] | None] = field(
        default_factory=dict
    )
    """Detected domain -> (age_days, validity_days) at first detection,
    or ``None`` for unregistered domains; empty without a WHOIS feed.
    Ages are measured on the *detecting tenant's* clock -- the one its
    own registration features used -- so in a mixed-pipeline fleet two
    tenants confirming the same domain the same round can report
    slightly different ages (enterprise engines count days from their
    trained bootstrap)."""

    intel: IntelPlane | None = field(default=None, repr=False)

    metrics_snapshot: dict[str, Any] | None = field(
        default=None, repr=False
    )
    """Fleet-wide :meth:`~repro.obs.metrics.MetricsSnapshot.as_dict`
    document at the end of the run -- the manager's merged view over
    its own counters and every worker's shipped deltas; ``None`` when
    the run was not instrumented."""

    @property
    def tenant_ids(self) -> list[str]:
        """Sorted ids of every tenant with at least one day report."""
        seen: dict[str, None] = {}
        for report in self.days:
            seen.setdefault(report.tenant_id, None)
        return list(seen)

    def days_for(self, tenant_id: str) -> list[TenantDayReport]:
        return [r for r in self.days if r.tenant_id == tenant_id]

    def detected_by_tenant(self) -> dict[str, set[str]]:
        """Tenant id -> set of all domains it detected, any day."""
        out: dict[str, set[str]] = defaultdict(set)
        for report in self.days:
            out[report.tenant_id].update(report.detected)
        return dict(out)

    def overlap(self) -> list[tuple[str, tuple[str, ...]]]:
        """Domains detected in >= 2 tenants, with their tenant lists."""
        tenants_by_domain: dict[str, set[str]] = defaultdict(set)
        for report in self.days:
            for domain in report.detected:
                tenants_by_domain[domain].add(report.tenant_id)
        return sorted(
            (domain, tuple(sorted(tenants)))
            for domain, tenants in tenants_by_domain.items()
            if len(tenants) >= 2
        )

    def seeded_detections(self) -> int:
        return sum(len(r.intel_seeded) for r in self.days)

    def stage_totals(self) -> dict[str, float]:
        """Total seconds per detection stage across every tenant-day."""
        totals: dict[str, float] = {}
        for report in self.days:
            for stage, seconds in report.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (for --json and the benchmark)."""
        detected = self.detected_by_tenant()
        payload: dict[str, Any] = {
            "rounds": self.rounds,
            "interrupted": self.interrupted,
            "tenants": {
                tenant_id: {
                    "days": [r.as_dict() for r in self.days_for(tenant_id)],
                    "detected": sorted(detected.get(tenant_id, ())),
                }
                for tenant_id in self.tenant_ids
            },
            "overlap": [
                {"domain": domain, "tenants": list(tenants)}
                for domain, tenants in self.overlap()
            ],
            "vt_labels": {
                domain: label for domain, label in sorted(self.vt_labels.items())
            },
            "whois": {
                domain: (
                    {"age_days": facts[0], "validity_days": facts[1]}
                    if facts is not None else None
                )
                for domain, facts in sorted(self.whois_facts.items())
            },
            "seeded_detections": self.seeded_detections(),
            "stage_seconds": self.stage_totals(),
        }
        if self.metrics_snapshot is not None:
            payload["metrics"] = self.metrics_snapshot
        if self.intel is not None:
            payload["intel"] = {
                "vt": self.intel.vt_cache.stats.as_dict(),
                "whois": self.intel.whois_cache.stats.as_dict(),
                "board_size": len(self.intel.board),
                "seeds_served": self.intel.seeds_served,
            }
            if self.intel.store is not None:
                payload["intel"]["store"] = self.intel.store.stats.as_dict()
        return payload

    def render(self) -> str:
        """Human-readable fleet summary (the CLI's output)."""
        detected = self.detected_by_tenant()
        rows = []
        for tenant_id in sorted(self.tenant_ids):
            days = self.days_for(tenant_id)
            rows.append((
                tenant_id,
                len(days),
                sum(r.records for r in days),
                sum(r.rare_count for r in days),
                len(detected.get(tenant_id, ())),
                sum(len(r.intel_seeded) for r in days),
            ))
        lines = [render_table(
            ("tenant", "days", "records", "rare", "detected", "seeded"),
            rows,
            title=f"Fleet detection report ({len(rows)} tenants, "
                  f"{self.rounds} rounds)",
        )]
        overlap = self.overlap()
        if overlap:
            lines.append("")
            lines.append(render_table(
                ("domain", "tenants", "vt"),
                [
                    (
                        domain,
                        ",".join(tenants),
                        _vt_label(self.vt_labels.get(domain)),
                    )
                    for domain, tenants in overlap
                ],
                title="Cross-tenant overlap (domains seen in >= 2 tenants)",
            ))
        if self.whois_facts:
            lines.append("")
            lines.append(render_table(
                ("domain", "age_d", "valid_d", "vt"),
                [
                    (
                        domain,
                        _whois_days(facts, 0),
                        _whois_days(facts, 1),
                        _vt_label(self.vt_labels.get(domain)),
                    )
                    for domain, facts in sorted(self.whois_facts.items())
                ],
                title="WHOIS registration of detected domains "
                      "(age / remaining validity at first detection)",
            ))
        if self.intel is not None:
            vt = self.intel.vt_cache.stats
            lines.append("")
            lines.append(
                f"intel plane: vt lookups {vt.hits} hits / {vt.misses} "
                f"misses ({vt.cross_tenant_hits} cross-tenant), "
                f"board {len(self.intel.board)} domains, "
                f"{self.seeded_detections()} seeded detections"
            )
            if self.intel.store is not None:
                stats = self.intel.store.stats
                lines.append(
                    f"intel store: {stats.total_hits()} hits / "
                    f"{stats.total_misses()} misses, "
                    f"{stats.flushed_rows} rows flushed, "
                    f"{stats.evictions} evictions"
                )
        # Stage timings stay out of the rendered summary on purpose:
        # the CLI's output is compared across worker counts by the
        # parity tests, and wall-clock numbers never reproduce.  The
        # --json document and the metrics snapshot carry them.
        return "\n".join(lines)


def _vt_label(value: bool | None) -> str:
    if value is None:
        return "unknown"
    return "reported" if value else "new"


def _whois_days(facts: tuple[float, float] | None, index: int) -> str:
    if facts is None:
        return "-"
    return f"{facts[index]:.1f}"
