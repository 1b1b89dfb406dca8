#!/usr/bin/env python3
"""Fleet detection: many enterprises, one shared intelligence plane.

Generates three correlated enterprise worlds that share one attacker
campaign: the lead tenant is hit with two beaconing hosts (enough for
the multi-host C&C heuristic), the followers with a *single* host each
-- locally invisible to the no-hint LANL path.  The fleet runs all
three engines in day-barrier rounds above a shared intel plane, so the
lead's confirmation becomes an elevated belief-propagation prior for
the followers the very next day: the paper's community-feedback
amplification at fleet scale.  The engines live in long-lived worker
processes that keep them in memory across rounds
(docs/OPERATIONS.md's runbook covers sizing); the same fleet is then
re-run split over three workers to show that parallel execution
changes wall-clock, never detections.

Run:  python examples/fleet_detection.py
(EXAMPLES_SMOKE=1 shrinks the run for CI smoke runs.)
"""

import os
import tempfile
from pathlib import Path

from repro.fleet import FleetManager, load_manifest
from repro.synthetic import write_fleet_layout
from repro.testing import make_multi_enterprise_dataset


def main() -> None:
    print("generating 3 correlated enterprise worlds ...")
    fleet = make_multi_enterprise_dataset(3)
    shared = fleet.shared
    print(f"shared campaign: {sorted(shared.domains)}")
    print(f"  lead {fleet.lead_tenant}: hosts "
          f"{shared.hosts_by_tenant[fleet.lead_tenant]} on "
          f"3/{shared.date_by_tenant[fleet.lead_tenant]:02d}")
    for follower in fleet.follower_tenants:
        print(f"  follower {follower}: host "
              f"{shared.hosts_by_tenant[follower]} on "
              f"3/{shared.date_by_tenant[follower]:02d} "
              "(one host -- below the C&C heuristic)")

    smoke = os.environ.get("EXAMPLES_SMOKE", "") not in ("", "0")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = load_manifest(
            write_fleet_layout(fleet, Path(tmp), days=3 if smoke else 4)
        )

        print("\nserial run (--workers 1):")
        serial = FleetManager.from_manifest(manifest, workers=1).run()
        print(serial.render())

        for follower in fleet.follower_tenants:
            seeded = [d for d in serial.days_for(follower) if d.intel_seeded]
            day = seeded[0]
            print(f"\n{follower} day {day.day}: seeded with "
                  f"{sorted(day.intel_seeded)} from the board -> "
                  f"detected {sorted(set(day.detected) & set(shared.domains))}")

        print("\nparallel run (--workers 3):")
        manager = FleetManager.from_manifest(manifest, workers=3)
        parallel = manager.run()
        assert (serial.detected_by_tenant() == parallel.detected_by_tenant())
        print("parity holds: per-tenant detections identical with 3 workers")
        for worker_id, stats in sorted(manager.worker_stats.items()):
            print(f"  worker {worker_id}: tenants {stats['tenants']}, "
                  f"{stats['tenant_days']} tenant-days, "
                  f"{stats['records']} records in "
                  f"{stats['elapsed_seconds']:.2f}s busy")


if __name__ == "__main__":
    main()
