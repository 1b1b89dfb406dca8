"""Fleet throughput: one worker vs many, with and without checkpoints.

Not a paper figure -- this bench characterizes the multi-tenant fleet
subsystem (`repro.fleet`).  It generates N correlated enterprises
sharing one attacker campaign, writes the fleet layout to disk, then
runs the identical workload at several worker counts:

* ``workers-1``: the serial case (the baseline every arm must match);
* ``workers-2`` / ``workers-N``: the tenants split over that many
  long-lived worker processes (smoke mode runs 1 and N only);
* ``workers-N-ckpt`` (full run only): the same with
  ``--checkpoint-dir`` -- what writing each advanced tenant's one
  document inside every round costs on top of the durability-free
  run.

Every arm records per-worker busy stats (``workers_detail``) for the
operations runbook.

The parity assertion is the load-bearing part: per-tenant detections
must be identical across all arms (day-barrier seeding makes results
independent of worker count).  The table reports tenant-days/sec plus
the shared intel plane's cross-tenant cache hits.

``FLEET_BENCH_SMOKE=1`` shrinks the world for CI; results go to
``benchmarks/out/fleet_throughput.json``.  Full runs time each arm
best-of-``REPEATS`` and record the host's ``cpu_count``: on a
single-core host more workers can only *match* one worker, so the
scaling curve is meaningful only alongside the core count.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import OUT_DIR, save_output

from repro.eval import render_table
from repro.fleet import FleetManager, load_manifest
from repro.obs.metrics import MetricsRegistry
from repro.synthetic import (
    FleetScenarioConfig,
    LanlConfig,
    generate_fleet_dataset,
    write_fleet_layout,
)
from repro.testing import make_multi_enterprise_dataset

SMOKE = os.environ.get("FLEET_BENCH_SMOKE", "") not in ("", "0")
N_TENANTS = 3 if SMOKE else 4
DAYS = 3 if SMOKE else 8
WORKERS = N_TENANTS
#: Best-of-N timing in the full run: the container this bench runs on
#: shares its host, so single runs can lose 20%+ to stolen CPU; the
#: minimum over repeats is the standard way to strip that noise.
REPEATS = 1 if SMOKE else 5

#: Dense per-tenant world for the full run.  The test-suite template
#: (40 hosts) finishes a whole mode in well under a second, which is
#: spawn-overhead territory; scaling measurements need each round to
#: cost real compute so the worker-count difference dominates the noise.
FULL_BENCH_TENANT = LanlConfig(
    seed=42,  # replaced per tenant by the fleet generator
    n_hosts=100,
    bootstrap_days=2,
    popular_domains=60,
    churn_domains_per_day=12,
    browsing_visits_per_host=10,
)


def _bench_dataset():
    """The fleet world under test: small in smoke, dense in full."""
    if SMOKE:
        return make_multi_enterprise_dataset(N_TENANTS)
    return generate_fleet_dataset(FleetScenarioConfig(
        seed=42,
        n_tenants=N_TENANTS,
        tenant=FULL_BENCH_TENANT,
        lead_hosts=2,
        follower_hosts=1,
        vt_coverage=0.8,
    ))


def _run_once(manifest, *, workers: int, checkpoint_dir: Path | None):
    """One timed run of one arm."""
    manager = FleetManager.from_manifest(
        manifest, workers=workers, checkpoint_dir=checkpoint_dir
    )
    start = time.perf_counter()
    report = manager.run()
    elapsed = time.perf_counter() - start
    return report, elapsed, manager


def _time_modes(manifest, modes):
    """Best-of-``REPEATS`` per mode, repeats *interleaved* across modes.

    Detections are deterministic, so every repeat produces the same
    report and the minimum elapsed is the mode's real cost.  The
    interleaving matters on a shared host: noise arrives in time-slabs,
    and timing one mode's repeats back-to-back would let a single mode
    monopolize a quiet slab; round-robin order exposes every mode to
    the same conditions.
    """
    best: dict[str, tuple] = {}
    for _ in range(REPEATS):
        for name, workers, checkpoint_dir in modes:
            run = _run_once(
                manifest, workers=workers, checkpoint_dir=checkpoint_dir
            )
            if name not in best or run[1] < best[name][1]:
                best[name] = run
    return best


def test_fleet_throughput():
    fleet = _bench_dataset()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = load_manifest(
            write_fleet_layout(fleet, Path(tmp), days=DAYS)
        )
        counts = (1, WORKERS) if SMOKE else (1, 2, WORKERS)
        modes = [(f"workers-{n}", n, None) for n in counts]
        if not SMOKE:
            modes.append(
                (f"workers-{WORKERS}-ckpt", WORKERS, Path(tmp) / "ckpt")
            )

        timed = _time_modes(manifest, modes)
        rows, results = [], []
        baseline = None
        for name, workers, checkpoint_dir in modes:
            report, elapsed, manager = timed[name]
            detections = {
                tenant: sorted(domains)
                for tenant, domains in report.detected_by_tenant().items()
            }
            if baseline is None:
                baseline = detections
            # Parity is the contract: worker count and checkpointing
            # must never change what any tenant detects.
            assert detections == baseline, (name, detections, baseline)

            tenant_days = len(report.days)
            records = sum(r.records for r in report.days)
            vt = report.intel.vt_cache.stats
            assert vt.cross_tenant_hits > 0
            rows.append((
                name, workers, tenant_days,
                f"{tenant_days / elapsed:.2f}",
                f"{records / elapsed:,.0f}",
                vt.cross_tenant_hits,
                report.seeded_detections(),
            ))
            results.append({
                "mode": name,
                "workers": workers,
                "checkpoints": checkpoint_dir is not None,
                "tenants": N_TENANTS,
                "tenant_days": tenant_days,
                "records": records,
                "elapsed_sec": elapsed,
                "repeats": REPEATS,
                "tenant_days_per_sec": tenant_days / elapsed,
                "records_per_sec": records / elapsed,
                "vt_cache": vt.as_dict(),
                "seeded_detections": report.seeded_detections(),
                "detect_parity": detections == baseline,
                "workers_detail": {
                    str(worker_id): stats
                    for worker_id, stats in sorted(
                        manager.worker_stats.items()
                    )
                },
            })

        # One extra instrumented run (outside the timing loop): the
        # fleet-wide snapshot's stage breakdown for the summary, with
        # detection parity against the uninstrumented baseline asserted
        # -- the observability plane must be invisible to outcomes.
        registry = MetricsRegistry()
        manager = FleetManager.from_manifest(
            manifest, workers=WORKERS, metrics=registry,
        )
        instrumented = manager.run()
        instr_detections = {
            tenant: sorted(domains)
            for tenant, domains in instrumented.detected_by_tenant().items()
        }
        assert instr_detections == baseline, (instr_detections, baseline)
        snapshot = registry.snapshot()
        tenant_days_counted = sum(
            value for key, value in snapshot.counters.items()
            if key.startswith("tenant_days_total")
        )
        assert tenant_days_counted == len(instrumented.days)
        metrics_run = {
            "workers": WORKERS,
            "detect_parity": True,
            "stage_seconds": snapshot.timings(),
            "tenant_days_counted": tenant_days_counted,
        }

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "fleet_throughput.json").write_text(
        json.dumps(
            {
                "smoke": SMOKE,
                "cpu_count": os.cpu_count(),
                "modes": results,
                "metrics": metrics_run,
            },
            indent=1,
        ) + "\n"
    )
    save_output(
        "fleet_throughput",
        render_table(
            ("mode", "workers", "tenant-days", "td/s", "records/s",
             "x-tenant hits", "seeded"),
            rows,
            title=(
                f"Fleet execution ({N_TENANTS} tenants, {DAYS} days, "
                "shared campaign; identical detections asserted)"
            ),
        ),
    )
