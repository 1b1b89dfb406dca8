"""Fleet orchestration: one detection engine per tenant, run in step.

The :class:`FleetManager` runs one streaming engine per enterprise
tenant -- a :class:`~repro.streaming.StreamingDetector` for DNS-path
tenants, a :class:`~repro.streaming.StreamingEnterpriseDetector`
(restored from the tenant's trained ``model_state``) for
enterprise/proxy-path tenants -- and advances all of them through
their log directories in **day-barrier rounds**: round ``k`` feeds
every tenant its ``k``-th daily log file, and only when all tenants
have finished the round are their detections published to the shared
:class:`~repro.fleet.intel.IntelPlane`.  The seeds a tenant receives
for day ``k`` are therefore exactly the fleet's confirmed domains
through day ``k - 1`` -- independent of how many workers advanced the
tenants concurrently, which is what makes ``--workers 1`` and
``--workers N`` produce identical per-tenant detections (the parity
the tests enforce).  Because seeding happens at the traffic level
(rare domains become belief-propagation seed labels), it crosses
pipeline types: a DNS tenant's confirmation seeds an enterprise
tenant's proxy-path run and vice versa.

The engines live in ``workers`` long-lived worker processes
(:mod:`repro.fleet.workers`), each owning a stable subset of tenants
across rounds.  A round is one ``ADVANCE_DAY`` request per worker --
each task naming a tenant's day file and its seeds from the board the
manager alone holds -- and one answer carrying the day reports; the
answer comes only after the worker has written its tenants'
checkpoints.  ``workers=1`` is the serial case.

Per-tenant checkpoints live at ``<dir>/<tenant>/checkpoint.json`` --
the engine document plus the tenant's cursor and day report in one
atomic document (:func:`repro.state.save_json_atomic`), rewritten in
every advance -- so a crash between a tenant finishing its day and the
round barrier loses nothing: on resume the embedded report is
re-published at the proper barrier, and a worker that dies mid-run is
respawned from its tenants' checkpoints without disturbing the other
workers.  The fleet-level document
``<dir>/fleet.json`` (intel board + completed-round cursor) is written
at each barrier.  Without a checkpoint directory nothing is written
and a worker death is fatal.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any

from ..config import SystemConfig
from ..intel.whois_db import SECONDS_PER_DAY
from ..obs.logs import get_logger, log_event
from ..obs.metrics import (
    NULL_METRICS,
    MetricsSnapshot,
    split_sample_key,
)
from ..state import load_json, reading_document, save_json_atomic
from ..streaming.engine import resolve_replay_paths
from .intel import IntelPlane
from .manifest import FleetManifest, TenantSpec
from .report import FleetReport, TenantDayReport
from .workers import (
    CMD_ADVANCE_DAY,
    FLEET_STATE_VERSION,
    FleetError,
    ResidentPool,
    WorkerDied,
    WorkerHandle,
    _tenant_checkpoint_path,
)

__all__ = ["FleetError", "FleetManager", "SECONDS_PER_DAY"]

_LOG = get_logger("fleet")


class FleetManager:
    """Drives N per-tenant engines with a shared intel plane."""

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        *,
        intel: IntelPlane | None = None,
        config: SystemConfig | None = None,
        workers: int = 1,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        whois_path: str | Path | None = None,
        metrics=None,
        intel_db: str | Path | None = None,
        intel_ttl_days: float | None = None,
        ct_path: str | Path | None = None,
    ) -> None:
        if not specs:
            raise FleetError("fleet needs at least one tenant")
        seen: set[str] = set()
        for spec in specs:
            if spec.tenant_id in seen:
                raise FleetError(f"duplicate tenant id {spec.tenant_id!r}")
            seen.add(spec.tenant_id)
        if workers < 1:
            raise FleetError(f"--workers must be positive, not {workers}")
        if resume and checkpoint_dir is None:
            raise FleetError("--resume requires --checkpoint-dir")
        if checkpoint_dir is not None and Path(checkpoint_dir).is_file():
            raise FleetError(
                f"--checkpoint-dir is not a directory: {checkpoint_dir}"
            )
        self.specs = list(specs)
        self.intel = intel if intel is not None else IntelPlane()
        self.config = config
        self.workers = workers
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self.whois_path = Path(whois_path) if whois_path is not None else None
        #: fleet-wide metrics view: the manager's own counters/spans
        #: plus the per-round deltas the workers ship back.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.intel.bind_metrics(self.metrics)
        #: CT SAN-pivot index, or ``None`` -- detections are
        #: byte-identical without it.  Loaded here for the intel store
        #: and so that forked workers inherit the parsed index.
        self.ct_path = Path(ct_path) if ct_path is not None else None
        self.ct_index = None
        if self.ct_path is not None:
            from ..intelstore.ct import load_ct_cached

            fold_level = (
                self.config.rarity.fold_level
                if self.config is not None else 2
            )
            self.ct_index = load_ct_cached(
                self.ct_path, fold_level=fold_level
            )
        self.intel_db = intel_db
        self.intel_ttl_days = intel_ttl_days
        #: the durable intel store (``intel_db``) while :meth:`run`
        #: runs: it backs the plane's VT and WHOIS memos, so it serves
        #: the manager's report lookups; worker engines read the
        #: registry file.
        self.intel_store = None
        #: per-worker execution stats of the last run
        #: (worker id -> tenants, tenant-days, records, busy seconds,
        #: respawns) -- surfaced in the fleet bench JSON.
        self.worker_stats: dict[int, dict[str, Any]] = {}
        #: the live :class:`ResidentPool` during a run
        #: (test/ops hook: worker handles expose pids).
        self.resident_pool: ResidentPool | None = None

    @classmethod
    def from_manifest(cls, manifest: FleetManifest, **kwargs) -> "FleetManager":
        """Build a fleet (and its intel plane) from a manifest.

        The plane is fed from the manifest's shared inputs: the VT feed
        (full coverage -- it *is* the feed) and the WHOIS registry.
        """
        if "intel" not in kwargs and (
            manifest.vt_reported is not None or manifest.whois is not None
        ):
            from ..intel.virustotal import VirusTotalOracle

            vt = (
                VirusTotalOracle(manifest.vt_reported, coverage=1.0)
                if manifest.vt_reported is not None else None
            )
            kwargs["intel"] = IntelPlane(vt=vt, whois=manifest.whois)
        kwargs.setdefault("whois_path", manifest.whois_path)
        kwargs.setdefault("ct_path", manifest.certs_path)
        return cls(manifest.tenants, **kwargs)

    # ------------------------------------------------------------------

    def _tenant_files(self) -> dict[str, list[Path]]:
        """Each tenant's daily log files, resolved as ``run`` and
        ``stream`` resolve theirs; a problem names its tenant."""
        files: dict[str, list[Path]] = {}
        for spec in self.specs:
            try:
                files[spec.tenant_id] = resolve_replay_paths(
                    spec.directory, spec.pattern, spec.bootstrap_files
                )
            except ValueError as exc:
                raise FleetError(f"tenant {spec.tenant_id!r}: {exc}") from exc
        return files

    @staticmethod
    def _file_index(spec: TenantSpec, files: list[Path], rnd: int) -> int | None:
        """The tenant's file position for fleet round ``rnd``.

        A tenant that joins at ``join_round`` consumes its ``k``-th
        file at round ``join_round + k``; ``None`` means the tenant is
        not active this round (not yet joined, or out of files -- i.e.
        it left the fleet).
        """
        index = rnd - spec.join_round
        if index < 0 or index >= len(files):
            return None
        return index

    def _fleet_state_path(self) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / "fleet.json"

    def _save_fleet_state(self, rounds: int) -> None:
        if self.checkpoint_dir is None:
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        save_json_atomic(
            {
                "version": FLEET_STATE_VERSION,
                "kind": "fleet",
                "rounds": rounds,
                "intel": self.intel.encode(),
                "metrics": (
                    self.metrics.snapshot().as_dict()
                    if self.metrics.enabled else None
                ),
            },
            self._fleet_state_path(),
        )

    def _restore(self) -> int:
        """Refill the board and metrics from ``fleet.json``; the rounds
        the fleet committed.  Where each tenant stands is the workers'
        to report: their handshake is the one reader of a tenant
        checkpoint."""
        state_path = self._fleet_state_path()
        if not state_path.exists():
            raise FleetError(f"no fleet checkpoint at {state_path}")
        payload = load_json(state_path)
        if not isinstance(payload, dict) or payload.get("kind") != "fleet":
            raise FleetError(f"{state_path} is not a fleet checkpoint")
        if payload.get("version") != FLEET_STATE_VERSION:
            raise FleetError(
                f"{state_path}: unsupported fleet checkpoint version "
                f"{payload.get('version')!r} (expected {FLEET_STATE_VERSION})"
            )
        with reading_document(f"fleet checkpoint {state_path}"):
            self.intel.restore(payload["intel"])
            saved_metrics = payload.get("metrics")
            if saved_metrics and self.metrics.enabled:
                snapshot = MetricsSnapshot.from_dict(saved_metrics)
                # The intel plane re-serves its restored CacheStats through
                # the bound collector; dropping the family here keeps the
                # resumed fleet snapshot from counting those lookups twice.
                for key in list(snapshot.counters):
                    if split_sample_key(key)[0] == "intel_cache_lookups_total":
                        del snapshot.counters[key]
                self.metrics.restore(snapshot)
            return int(payload["rounds"])

    def _fresh_start(self) -> None:
        if self.checkpoint_dir is not None and self.checkpoint_dir.is_dir():
            # A stale fleet document would make a later --resume skip
            # this run's rounds and seed from the old run's board.
            self._fleet_state_path().unlink(missing_ok=True)
            for spec in self.specs:
                # A stale tenant checkpoint would shadow the fresh run.
                _tenant_checkpoint_path(
                    self.checkpoint_dir, spec.tenant_id
                ).unlink(missing_ok=True)

    # ------------------------------------------------------------------

    def run(
        self,
        *,
        max_rounds: int | None = None,
        on_round=None,
    ) -> FleetReport:
        """Advance every tenant through its directory; aggregate.

        ``max_rounds`` bounds the number of day-barrier rounds this
        call executes (the fleet returns ``interrupted=True``); with a
        checkpoint directory, a later ``resume=True`` run continues at
        the next round.  ``on_round`` is called with the list of
        :class:`TenantDayReport` after each barrier.  The intel store
        is opened once the bound and every tenant's files check out,
        and closed on every exit path.
        """
        from ..intelstore.store import open_intel_store

        if max_rounds is not None and max_rounds < 1:
            raise FleetError(
                f"--max-rounds must be positive, not {max_rounds}"
            )
        files = self._tenant_files()
        self.intel_store = open_intel_store(
            self.intel_db, self.intel_ttl_days, metrics=self.metrics
        )
        try:
            if self.intel_store is not None:
                self.intel.attach_store(self.intel_store)
                if self.ct_index is not None:
                    # Persist the CT observations alongside the verdicts
                    # so `repro-detect intel export` documents the full
                    # evidence base (write-behind; lands at the first
                    # barrier flush).
                    for cert in self.ct_index.observations:
                        self.intel_store.put_cert(cert)
            report = self._run(files, max_rounds=max_rounds,
                               on_round=on_round)
            if self.metrics.enabled:
                report.metrics_snapshot = self.metrics.snapshot().as_dict()
            return report
        finally:
            if self.intel_store is not None:
                # Final flush + release; the accounting stays readable
                # in memory for the report, and the file is complete
                # for the next run (or `repro-detect intel`).
                self.intel_store.close()

    def _run(self, files, *, max_rounds, on_round) -> FleetReport:
        """Drive the rounds over the worker pool.

        Per round: send each worker the round's ``ADVANCE_DAY`` tasks,
        seeds included, and collect the answers (respawning any dead
        worker from its checkpoints) before publishing.  A worker
        answers only once its tenants' checkpoints are written, so the
        fleet-state commit never runs ahead of the tenants' durable
        state.  A resumed fleet starts where its workers' handshakes
        place each tenant, judged by :meth:`_reconcile` as after a
        respawn.  Without a checkpoint directory nothing is written and
        a worker death is fatal -- durability-free parallelism for
        ephemeral runs.
        """
        if self.resume:
            start_round = self._restore()
        else:
            self._fresh_start()
            start_round = 0
        total_rounds = max(
            spec.join_round + len(files[spec.tenant_id])
            for spec in self.specs
        )

        report = FleetReport(intel=self.intel)
        self.worker_stats = {}
        pool = ResidentPool(
            self.specs,
            workers=self.workers,
            checkpoint_dir=self.checkpoint_dir,
            whois_path=self.whois_path,
            config=self.config,
            resume=self.resume,
            metrics_enabled=self.metrics.enabled,
            ct_path=self.ct_path,
        )
        self.resident_pool = pool
        try:
            # Where each tenant stands, as its worker restored it.
            cursors = {
                tenant_id: cursor
                for handle in pool.workers
                for tenant_id, cursor in handle.cursors.items()
            }
            rounds_executed = 0
            for rnd in range(start_round, total_rounds):
                if max_rounds is not None and rounds_executed >= max_rounds:
                    report.interrupted = True
                    break
                results: dict[str, TenantDayReport] = {}
                waiting = [
                    handle for handle in pool.workers
                    if self._reconcile(pool, handle, files, cursors, rnd,
                                       results)
                ]
                for handle in waiting:
                    try:
                        response = pool.recv(handle)
                    except WorkerDied:
                        handle, response = self._recover_worker(
                            pool, handle, files, cursors, rnd, results
                        )
                    self._absorb_advance(handle, response, cursors,
                                         results, rnd)

                # Publish in spec order (deterministic) so day rnd+1
                # sees all of day rnd's findings.
                self._commit_round(report, rnd, [
                    results[spec.tenant_id]
                    for spec in self.specs
                    if spec.tenant_id in results
                ], on_round)
                rounds_executed += 1
        finally:
            pool.shutdown()
        return report

    # ------------------------------------------------------------------
    # Round commitment
    # ------------------------------------------------------------------

    def _commit_round(
        self,
        report: FleetReport,
        rnd: int,
        round_reports: list[TenantDayReport],
        on_round,
    ) -> None:
        """Publish a finished round at the barrier and persist state.

        The round's seeds are counted here, adopted reports included:
        the board has not changed since the round's tasks were built.
        """
        self.intel.seeds_served += sum(
            len(self.intel.seeds_for(day_report.tenant_id))
            for day_report in round_reports
        )
        for day_report in round_reports:
            self.intel.publish(
                day_report.tenant_id,
                day_report.day,
                day_report.scores.items(),
            )
            for domain in day_report.detected:
                report.vt_labels[domain] = self.intel.vt_reported(
                    day_report.tenant_id, domain
                )
                if (
                    self.intel.whois is not None
                    and domain not in report.whois_facts
                ):
                    record = self.intel.whois_lookup(
                        day_report.tenant_id, domain
                    )
                    when = (day_report.day + 1) * SECONDS_PER_DAY
                    report.whois_facts[domain] = (
                        (record.age_days(when),
                         record.validity_days(when))
                        if record is not None else None
                    )
        report.days.extend(
            sorted(round_reports, key=lambda r: r.tenant_id)
        )
        report.rounds = rnd + 1
        self.metrics.counter("fleet_rounds_total").inc()
        self.metrics.gauge("fleet_board_domains").set(len(self.intel.board))
        if self.intel_store is not None:
            # Day-barrier durability: fold the round's detections into
            # the rolling per-tenant profiles and commit the plane's
            # write-behind rows (VT/WHOIS lookups above plus any CT
            # observations) in one transaction.
            for day_report in round_reports:
                self.intel_store.record_day(
                    day_report.tenant_id, day_report.day, day_report.scores
                )
            self.intel_store.flush()
        self._save_fleet_state(rnd + 1)
        log_event(
            _LOG, "round_committed",
            round=rnd + 1,
            tenants=len(round_reports),
            detected=sum(len(r.detected) for r in round_reports),
            board=len(self.intel.board),
        )
        if on_round is not None:
            on_round(round_reports)

    # ------------------------------------------------------------------
    # Driving the workers
    # ------------------------------------------------------------------

    def _reconcile(
        self,
        pool: ResidentPool,
        handle: WorkerHandle,
        files: dict[str, list[Path]],
        cursors: dict[str, int],
        rnd: int,
        results: dict[str, TenantDayReport],
    ) -> bool:
        """Bring one worker's tenants to round ``rnd``; whether an
        ``ADVANCE_DAY`` went out (so an answer is owed).

        The one rule for where a tenant stands, whether its worker has
        run every round so far, was started by ``--resume`` or was just
        respawned: a tenant whose cursor is ``rnd + 1`` finished the
        round before the barrier committed it, and the report its
        checkpoint holds is adopted; a tenant at ``rnd`` (or a joiner
        whose first round this is) runs it; any other cursor is refused.
        A re-run is deterministic: its seeds come from the board every
        tenant saw this round, since publication waits for the barrier.
        """
        tasks: list[dict[str, Any]] = []
        for spec in pool.specs_of(handle):
            tenant_id = spec.tenant_id
            file_index = self._file_index(spec, files[tenant_id], rnd)
            if file_index is None:
                continue
            cursor = cursors[tenant_id]
            if cursor == rnd + 1:
                carried = handle.carried.get(tenant_id)
                path = _tenant_checkpoint_path(self.checkpoint_dir, tenant_id)
                if carried is not None:
                    with reading_document(f"tenant checkpoint {path}"):
                        results[tenant_id] = TenantDayReport.from_dict(carried)
            elif cursor == rnd or cursor < spec.join_round == rnd:
                # The day file and the seeds from the board the manager
                # alone holds.
                bootstrap = file_index < spec.bootstrap_files
                tasks.append({
                    "tenant_id": tenant_id,
                    "log_path": str(files[tenant_id][file_index]),
                    "bootstrap": bootstrap,
                    "seeds": (
                        [] if bootstrap
                        else sorted(self.intel.seeds_for(tenant_id))
                    ),
                })
            else:
                path = _tenant_checkpoint_path(self.checkpoint_dir, tenant_id)
                if cursor == 0:  # a commit always writes round >= 1
                    raise FleetError(
                        f"no checkpoint for tenant {tenant_id!r}: {path}"
                    )
                raise FleetError(
                    f"tenant {tenant_id!r}: {path} is at round {cursor}, "
                    + ("behind" if cursor < rnd else
                       "more than one round ahead of")
                    + f" the fleet's round {rnd}"
                )
        if tasks:
            pool.send(handle, {
                "cmd": CMD_ADVANCE_DAY, "round": rnd, "tasks": tasks,
            })
            self.metrics.counter(
                "fleet_commands_total", cmd="advance_day"
            ).inc()
        return bool(tasks)

    def _stats_of(self, handle: WorkerHandle) -> dict[str, Any]:
        """The worker's :attr:`worker_stats` row, created on first use."""
        return self.worker_stats.setdefault(handle.worker_id, {
            "tenants": sorted(handle.tenant_ids),
            "tenant_days": 0,
            "records": 0,
            "elapsed_seconds": 0.0,
            "respawns": 0,
        })

    def _absorb_advance(
        self,
        handle: WorkerHandle,
        response: dict[str, Any] | None,
        cursors: dict[str, int],
        results: dict[str, TenantDayReport],
        rnd: int,
    ) -> None:
        """Fold one worker's ``ADVANCE_DAY`` response into round state."""
        if response is None:
            return
        if response["metrics"] and self.metrics.enabled:
            self.metrics.absorb(MetricsSnapshot.from_dict(response["metrics"]))
        stats = self._stats_of(handle)
        for item in response["reports"]:
            cursors[item["tenant_id"]] = rnd + 1
            if item["report"] is not None:
                day_report = TenantDayReport.from_dict(item["report"])
                results[item["tenant_id"]] = day_report
                stats["tenant_days"] += 1
                stats["records"] += day_report.records
                stats["elapsed_seconds"] += day_report.elapsed_seconds
        self.intel.whois_cache.stats.absorb(response["whois_stats"])

    def _recover_worker(
        self,
        pool: ResidentPool,
        handle: WorkerHandle,
        files: dict[str, list[Path]],
        cursors: dict[str, int],
        rnd: int,
        results: dict[str, TenantDayReport],
    ) -> tuple[WorkerHandle, dict[str, Any] | None]:
        """Respawn a dead worker and bring it back to this round's
        barrier: its tenants restart from their checkpoints, which
        :meth:`_reconcile` then judges as it judges a resumed fleet's.
        The re-run's answer, like every answer, comes after its
        checkpoints are written."""
        if self.checkpoint_dir is None:
            raise FleetError(
                f"resident worker {handle.worker_id} died and no "
                "checkpoint directory is configured; run with "
                "--checkpoint-dir to make worker crashes recoverable"
            )
        handle = pool.respawn(handle)
        self.metrics.counter("fleet_worker_respawns_total").inc()
        self._stats_of(handle)["respawns"] += 1
        cursors.update(handle.cursors)
        owed = self._reconcile(pool, handle, files, cursors, rnd, results)
        return handle, pool.recv(handle) if owed else None
