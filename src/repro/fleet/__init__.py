"""Multi-tenant detection fleet: per-enterprise engines, shared intel.

The paper frames the detector for a single enterprise; its key external
inputs (VirusTotal verdicts, WHOIS registrations) are global.  This
subsystem runs **one detection engine per enterprise tenant** above a
shared intelligence plane:

* :mod:`~repro.fleet.manifest` -- the on-disk fleet declaration
  (:class:`TenantSpec`, :func:`load_manifest`);
* :mod:`~repro.fleet.intel` -- :class:`IntelPlane`: memoized,
  hit/miss-counting VT/WHOIS caches shared across tenants
  (:class:`repro.intel.IntelMemo`), plus the
  cross-tenant prior board (a domain confirmed malicious in one tenant
  becomes an elevated belief-propagation prior everywhere else);
* :mod:`~repro.fleet.manager` -- :class:`FleetManager`: day-barrier
  rounds over all tenants, round commitment to the intel plane and
  ``fleet.json``, and crash/resume;
* :mod:`~repro.fleet.workers` -- the long-lived worker processes the
  manager drives (:class:`ResidentPool`): engines stay in worker
  memory across rounds; a round is one request per worker (each
  tenant's day file and seeds) and one answer (its day reports), sent
  only after each advanced tenant's engine document is written whole
  to its one atomic checkpoint (on the :mod:`repro.state` atomic-write
  machinery), and a crashed worker's tenants respawn from those
  checkpoints;
* :mod:`~repro.fleet.report` -- :class:`FleetReport`: per-tenant
  detections, cross-tenant domain overlap, VT classification.

**Cross-tenant prior-seeding semantics.**  Publication happens only at
day barriers: every tenant finishes day ``d`` before any day-``d``
detection reaches the board, so a tenant's day-``d`` seeds are exactly
the fleet's confirmed domains through day ``d - 1``.  Seeds intersected
with the tenant's *rare* set enter belief propagation as seed labels
(:func:`repro.core.dayloop.close_day`); a domain that is popular or
already profiled in a tenant is never seeded there.  Results are
therefore identical for any worker count -- parallelism changes
wall-clock, not detections.
"""

from .intel import BoardEntry, IntelPlane
from .manager import FleetError, FleetManager
from .manifest import FleetManifest, ManifestError, TenantSpec, load_manifest
from .report import FleetReport, TenantDayReport
from .workers import ResidentPool, WorkerDied

__all__ = [
    "BoardEntry",
    "FleetError",
    "FleetManager",
    "FleetManifest",
    "FleetReport",
    "IntelPlane",
    "ManifestError",
    "ResidentPool",
    "TenantDayReport",
    "TenantSpec",
    "WorkerDied",
    "load_manifest",
]
