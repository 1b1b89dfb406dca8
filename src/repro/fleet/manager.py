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
across rounds.  The manager drives them over per-worker command queues
(``INJECT_INTEL`` / ``ADVANCE_DAY`` / ``CHECKPOINT`` / ``SHUTDOWN``);
only prior-board deltas, day reports and checkpoint acks cross the
process boundary.  ``workers=1`` is the serial case.

Per-tenant checkpoints live at ``<dir>/<tenant>/checkpoint.json`` --
the engine document plus the tenant's cursor and day report in one
atomic document (:func:`repro.state.save_json_atomic`), rewritten at
every barrier -- so a crash between a tenant finishing its day and the
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
from ..obs.logs import get_logger, log_event
from ..obs.metrics import (
    NULL_METRICS,
    MetricsSnapshot,
    split_sample_key,
)
from ..state import load_json, save_json_atomic
from ..streaming.engine import resolve_replay_paths
from .intel import IntelPlane
from .manifest import FleetManifest, TenantSpec
from .report import FleetReport, TenantDayReport
from .workers import (
    CMD_ADVANCE_DAY,
    CMD_CHECKPOINT,
    CMD_INJECT_INTEL,
    FLEET_STATE_VERSION,
    FleetError,
    ResidentPool,
    WorkerDied,
    WorkerHandle,
    _load_tenant_checkpoint,
    _tenant_checkpoint_path,
)

__all__ = ["FleetError", "FleetManager", "SECONDS_PER_DAY"]

SECONDS_PER_DAY = 86_400.0

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
        heartbeat: float = 5.0,
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
            raise FleetError("workers must be positive")
        if resume and checkpoint_dir is None:
            raise FleetError("resume requires a checkpoint directory")
        if heartbeat <= 0:
            raise FleetError("heartbeat must be positive")
        self.specs = list(specs)
        self.intel = intel if intel is not None else IntelPlane()
        self.config = config
        self.workers = workers
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self.whois_path = Path(whois_path) if whois_path is not None else None
        self.heartbeat = heartbeat
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
        #: durable intel store; only the manager touches it (workers
        #: keep shipping deltas over their queues).
        self.intel_store = None
        if intel_db is not None:
            from ..intelstore.store import IntelStore

            self.intel_store = IntelStore(
                intel_db,
                ttl_seconds=(
                    intel_ttl_days * SECONDS_PER_DAY
                    if intel_ttl_days is not None else None
                ),
            )
            self.intel.attach_store(self.intel_store)
            self.intel_store.bind_metrics(self.metrics)
            if self.ct_index is not None:
                # Persist the CT observations alongside the verdicts so
                # `repro-detect intel export` documents the full
                # evidence base (write-behind; lands at the first
                # barrier flush).
                for cert in self.ct_index.observations:
                    self.intel_store.put_cert(cert)
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

    def _restore(
        self, files: dict[str, list[Path]]
    ) -> tuple[int, dict[str, int], list[tuple[int, TenantDayReport]]]:
        """Resume state: (completed rounds, per-tenant cursor, and
        ``(round, report)`` pairs recovered from tenants that finished
        a round the fleet never committed).

        A tenant checkpoint behind the rounds the fleet committed for
        that tenant is refused: resuming it would feed the tenant the
        fleet's next file on top of an older day.
        """
        state_path = self._fleet_state_path()
        if not state_path.exists():
            raise FleetError(f"no fleet checkpoint at {state_path}")
        payload = load_json(state_path)
        if payload.get("kind") != "fleet":
            raise FleetError(f"{state_path} is not a fleet checkpoint")
        if payload.get("version") != FLEET_STATE_VERSION:
            raise FleetError(
                f"{state_path}: unsupported fleet checkpoint version "
                f"{payload.get('version')!r} (expected {FLEET_STATE_VERSION})"
            )
        rounds = int(payload["rounds"])
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
        cursors: dict[str, int] = {}
        carried: list[tuple[int, TenantDayReport]] = []
        for spec in self.specs:
            ckpt = _tenant_checkpoint_path(self.checkpoint_dir, spec.tenant_id)
            if not ckpt.exists():
                if spec.join_round >= rounds:
                    # The tenant had not joined the fleet by the time
                    # the interrupted run stopped: no checkpoint is
                    # expected, it starts fresh when its round comes.
                    cursors[spec.tenant_id] = 0
                    continue
                raise FleetError(
                    f"no checkpoint for tenant {spec.tenant_id!r}: {ckpt}"
                )
            wrapper = _load_tenant_checkpoint(ckpt)
            cursor = wrapper["round"]
            cursors[spec.tenant_id] = cursor
            committed = min(
                rounds, spec.join_round + len(files[spec.tenant_id])
            )
            if spec.join_round < rounds and cursor < committed:
                raise FleetError(
                    f"tenant {spec.tenant_id!r}: {ckpt} is at round "
                    f"{cursor}, behind the {committed} rounds the fleet "
                    "committed for it"
                )
            if cursor > rounds and wrapper.get("report"):
                # The tenant finished a round the fleet never committed
                # (crash between task and barrier): re-publish its
                # report at the proper barrier.  Keyed by the round the
                # checkpoint recorded, not the report's engine day --
                # enterprise engines count days from their trained
                # bootstrap, so day and round differ there.
                carried.append((
                    cursor - 1, TenantDayReport.from_dict(wrapper["report"])
                ))
        return rounds, cursors, carried

    def _fresh_start(self) -> dict[str, int]:
        cursors = {spec.tenant_id: 0 for spec in self.specs}
        if self.checkpoint_dir is not None and self.checkpoint_dir.is_dir():
            # A stale fleet document would make a later --resume skip
            # this run's rounds and seed from the old run's board.
            self._fleet_state_path().unlink(missing_ok=True)
            for spec in self.specs:
                # A stale tenant checkpoint would shadow the fresh run.
                _tenant_checkpoint_path(
                    self.checkpoint_dir, spec.tenant_id
                ).unlink(missing_ok=True)
        return cursors

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
        :class:`TenantDayReport` after each barrier.
        """
        try:
            if max_rounds is not None and max_rounds < 1:
                raise FleetError("max_rounds must be positive")
            report = self._run(max_rounds=max_rounds, on_round=on_round)
            if self.metrics.enabled:
                report.metrics_snapshot = self.metrics.snapshot().as_dict()
            return report
        finally:
            if self.intel_store is not None:
                # Final flush + release; the accounting stays readable
                # in memory for the report, and the file is complete
                # for the next run (or `repro-detect intel`).
                self.intel_store.close()

    def _run(self, *, max_rounds, on_round) -> FleetReport:
        """Drive the rounds over the worker pool.

        Per round: sync each worker's prior-board replica with the
        board delta since its last sync, send the round's
        ``ADVANCE_DAY`` tasks, collect responses (respawning any dead
        worker from its checkpoints), then hold the checkpoint barrier
        before publishing -- so the fleet-state commit never runs ahead
        of the tenants' durable state.  Without a checkpoint directory
        the barrier (and crash recovery) is skipped entirely --
        durability-free parallelism for ephemeral runs.
        """
        files = self._tenant_files()
        if self.resume:
            start_round, cursors, carried = self._restore(files)
        else:
            cursors = self._fresh_start()
            start_round, carried = 0, []
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
            heartbeat=self.heartbeat,
            metrics_enabled=self.metrics.enabled,
            ct_path=self.ct_path,
        )
        self.resident_pool = pool
        try:
            rounds_executed = 0
            for rnd in range(start_round, total_rounds):
                if max_rounds is not None and rounds_executed >= max_rounds:
                    report.interrupted = True
                    break
                results: dict[str, TenantDayReport] = {}
                waiting: list[WorkerHandle] = []
                for handle in list(pool.workers):
                    self._sync_board(pool, handle)
                    tasks = self._round_tasks(pool, handle, files,
                                              cursors, rnd)
                    if tasks:
                        pool.send(handle, {
                            "cmd": CMD_ADVANCE_DAY,
                            "round": rnd,
                            "tasks": tasks,
                        })
                        self.metrics.counter(
                            "fleet_commands_total", cmd="advance_day"
                        ).inc()
                        waiting.append(handle)
                advanced: list[WorkerHandle] = []
                for handle in waiting:
                    try:
                        response = pool.recv(handle)
                    except WorkerDied:
                        handle, response = self._recover_worker(
                            pool, handle, files, cursors, rnd, results
                        )
                    self._absorb_advance(handle, response, cursors,
                                         results, rnd)
                    advanced.append(handle)

                if self.checkpoint_dir is not None:
                    # Checkpoint barrier: every advanced worker writes
                    # its tenants' checkpoints before the fleet state
                    # moves on.
                    for handle in advanced:
                        pool.send(handle, {
                            "cmd": CMD_CHECKPOINT, "round": rnd + 1,
                        })
                        self.metrics.counter(
                            "fleet_commands_total", cmd="checkpoint"
                        ).inc()
                    for handle in advanced:
                        try:
                            self._absorb_metrics(pool.recv(handle))
                        except WorkerDied:
                            self._recover_worker(
                                pool, handle, files, cursors, rnd, results
                            )

                # Publish in spec order (deterministic) so day rnd+1
                # sees all of day rnd's findings.
                round_reports = [
                    results[spec.tenant_id]
                    for spec in self.specs
                    if spec.tenant_id in results
                ]
                round_reports.extend(
                    rep for c_rnd, rep in carried if c_rnd == rnd
                )
                self._commit_round(report, rnd, round_reports, on_round)
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
        """Publish a finished round at the barrier and persist state."""
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
                for domain, score in day_report.scores.items():
                    self.intel_store.record_profile(
                        day_report.tenant_id, domain, day_report.day, score
                    )
            self.intel.flush_store()
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

    def _absorb_metrics(self, response: dict[str, Any] | None) -> None:
        """Fold a worker response's metrics delta into the fleet view."""
        payload = (response or {}).get("metrics")
        if payload and self.metrics.enabled:
            self.metrics.absorb(MetricsSnapshot.from_dict(payload))

    def _sync_board(self, pool: ResidentPool, handle: WorkerHandle) -> None:
        """Ship the prior-board delta since the worker's last sync."""
        revision, entries = self.intel.board_delta(handle.synced_revision)
        if entries:
            pool.send(handle, {"cmd": CMD_INJECT_INTEL, "entries": entries})
            self.metrics.counter(
                "fleet_commands_total", cmd="inject_intel"
            ).inc()
        handle.synced_revision = revision

    def _round_tasks(
        self,
        pool: ResidentPool,
        handle: WorkerHandle,
        files: dict[str, list[Path]],
        cursors: dict[str, int],
        rnd: int,
    ) -> list[dict[str, Any]]:
        """The round's ``ADVANCE_DAY`` task list for one worker."""
        tasks: list[dict[str, Any]] = []
        for spec in pool.specs_of(handle):
            tenant_files = files[spec.tenant_id]
            file_index = self._file_index(spec, tenant_files, rnd)
            if file_index is None:
                continue
            if cursors[spec.tenant_id] > rnd:
                continue  # recovered past this round already
            tasks.append({
                "tenant_id": spec.tenant_id,
                "log_path": str(tenant_files[file_index]),
                "bootstrap": file_index < spec.bootstrap_files,
            })
        return tasks

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
        self._absorb_metrics(response)
        stats = self._stats_of(handle)
        for item in response["reports"]:
            cursors[item["tenant_id"]] = rnd + 1
            if item["report"] is not None:
                day_report = TenantDayReport.from_dict(item["report"])
                results[item["tenant_id"]] = day_report
                stats["tenant_days"] += 1
                stats["records"] += day_report.records
                stats["elapsed_seconds"] += day_report.elapsed_seconds
        if response.get("whois_stats"):
            self.intel.whois_cache.stats.absorb(response["whois_stats"])
        self.intel.seeds_served += int(response.get("seeds_served", 0))

    def _recover_worker(
        self,
        pool: ResidentPool,
        handle: WorkerHandle,
        files: dict[str, list[Path]],
        cursors: dict[str, int],
        rnd: int,
        results: dict[str, TenantDayReport],
    ) -> tuple[WorkerHandle, dict[str, Any] | None]:
        """Respawn a dead worker and bring it back to this round's barrier.

        The replacement restores each owned tenant from its checkpoint;
        per tenant, either the crashed round was already committed
        (adopt the checkpoint's embedded report) or it is re-run
        -- deterministic, because the board the worker re-seeds from is
        exactly the one every tenant saw this round (publication only
        happens after the barrier).  Ends with a checkpoint ack so the
        fleet state never outruns the respawned tenants' durable state.
        """
        if self.checkpoint_dir is None:
            raise FleetError(
                f"resident worker {handle.worker_id} died and no "
                "checkpoint directory is configured; run with "
                "--checkpoint-dir to make worker crashes recoverable"
            )
        handle = pool.respawn(handle)
        self.metrics.counter("fleet_worker_respawns_total").inc()
        self._sync_board(pool, handle)
        self._stats_of(handle)["respawns"] += 1
        tasks: list[dict[str, Any]] = []
        for spec in pool.specs_of(handle):
            tenant_id = spec.tenant_id
            file_index = self._file_index(spec, files[tenant_id], rnd)
            if file_index is None:
                continue
            disk = handle.cursors.get(tenant_id, 0)
            if disk > rnd:
                # Committed before the crash; adopt the persisted report.
                cursors[tenant_id] = disk
                persisted = handle.carried.get(tenant_id)
                if persisted is not None:
                    results[tenant_id] = TenantDayReport.from_dict(persisted)
            else:
                if disk < rnd and disk < spec.join_round:
                    # A joiner's first round: no checkpoint exists yet,
                    # the respawned worker built it fresh -- nothing to
                    # catch up.
                    disk = spec.join_round
                if disk < rnd:
                    raise FleetError(
                        f"tenant {tenant_id!r} checkpoint at round {disk} "
                        f"cannot recover round {rnd}"
                    )
                tasks.append({
                    "tenant_id": tenant_id,
                    "log_path": str(files[tenant_id][file_index]),
                    "bootstrap": file_index < spec.bootstrap_files,
                })
        response: dict[str, Any] | None = None
        if tasks:
            pool.send(handle, {
                "cmd": CMD_ADVANCE_DAY, "round": rnd, "tasks": tasks,
            })
            response = pool.recv(handle)
        pool.send(handle, {"cmd": CMD_CHECKPOINT, "round": rnd + 1})
        self._absorb_metrics(pool.recv(handle))
        return handle, response
