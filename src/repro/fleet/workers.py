"""Resident fleet workers: long-lived per-tenant engine processes.

A fleet runs on N long-lived worker processes, each owning a stable
subset of tenants whose streaming engines stay in worker memory across
rounds (``N = 1`` is the serial case).  A round is one request and one
answer per worker:

* ``ADVANCE_DAY`` (manager -> worker -> manager): per owned tenant, the
  round's log file and its seeds (:meth:`IntelPlane.seeds_for
  <repro.fleet.intel.IntelPlane.seeds_for>`, computed on the manager,
  which holds the whole prior board) in; after every named tenant has
  closed its day and, with a checkpoint directory, its engine document
  (:func:`repro.state.encode_engine`, the one ``stream`` writes) has
  been written whole, with the tenant's cursor and day report, to its
  one atomic ``<dir>/<tenant>/checkpoint.json``, the per-tenant day
  reports plus the WHOIS cache-fill accounting delta come back out.
  An answer therefore means the round is durable.
* ``SHUTDOWN``: exit.

Commands travel over a per-worker ``multiprocessing`` queue, answers
over a one-way pipe whose only writer is the worker.

**Crash recovery.**  The manager waits on the answer pipe and the
worker's process sentinel together: a worker that exits without
answering raises :class:`WorkerDied` and is respawned by
:meth:`ResidentPool.respawn` with the same tenant subset, each engine
restored from its checkpoint by one :func:`repro.state.restore_engine`
call -- without disturbing the other workers.  The ready handshake
reports per-tenant cursors plus the last persisted report -- the only
read of a tenant checkpoint -- letting the manager decide per tenant,
after a respawn as after a ``--resume``, whether the round must be run
(deterministic: same files, same seeds) or its report can be adopted.
"""

from __future__ import annotations

import multiprocessing as mp
from collections.abc import Sequence, Set
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any

from ..config import InputError, SystemConfig
from ..intel.memo import CacheStats, IntelMemo, TenantWhoisView
from ..intel.whois_db import load_whois_file
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..state import (
    decode_config,
    encode_config,
    encode_engine,
    load_json,
    restore_engine,
    save_json_atomic,
)
from ..streaming import open_engine
from .manifest import TenantSpec
from .report import TenantDayReport

#: Version of both fleet documents, ``fleet.json`` and a tenant's
#: ``checkpoint.json``; a resume refuses any other.
FLEET_STATE_VERSION = 1

#: Command verbs of the manager -> worker protocol.
CMD_ADVANCE_DAY = "ADVANCE_DAY"
CMD_SHUTDOWN = "SHUTDOWN"


class FleetError(InputError):
    """Raised on fleet configuration or checkpoint problems."""


class WorkerDied(FleetError):
    """A resident worker process died while the manager awaited it."""

    def __init__(self, worker_id: int) -> None:
        super().__init__(f"resident worker {worker_id} died")
        self.worker_id = worker_id


# ---------------------------------------------------------------------------
# One tenant, one day
# ---------------------------------------------------------------------------

def _advance_one_day(
    detector,
    spec_id: str,
    path: Path,
    *,
    bootstrap: bool,
    seeds: Set[str],
    ct_edges=None,
    metrics=None,
) -> TenantDayReport | None:
    """Feed one log file through a tenant's engine; close the day.

    This is every fleet round's inner loop, so its cost rides on the
    scoring hot path: the engine's window grows the day's scoring rows
    in the ingest pass itself, and the rollover's belief propagation
    scores its frontier through the incremental scorers that read
    them.  The wall-clock cost of the day is timed through an obs span
    (``worker_advance``), so
    the per-tenant ``elapsed_seconds`` in the report and the
    fleet-wide timing histogram come from the same measurement.
    """
    obs = metrics if metrics is not None else NULL_METRICS
    with obs.span("worker_advance") as advance_span:
        with path.open() as handle:
            detector.ingest_lines(handle)
        report = detector.rollover(
            detect=not bootstrap, intel_domains=seeds, ct_edges=ct_edges
        )
    if bootstrap:
        return None
    obs.counter("tenant_days_total", tenant=spec_id).inc()
    obs.counter("tenant_records_total", tenant=spec_id).inc(report.records)
    obs.counter("tenant_detected_total", tenant=spec_id).inc(
        len(report.detected)
    )
    return TenantDayReport(
        tenant_id=spec_id,
        day=report.day,
        source=path.name,
        records=report.records,
        rare_count=len(report.rare_domains),
        cc_domains=set(report.cc_domains),
        detected=list(report.detected),
        intel_seeded=set(report.intel_seeded),
        ct_seeded=set(report.ct_seeded),
        scores=report.publication_scores(),
        elapsed_seconds=advance_span.elapsed,
        stage_seconds=dict(report.stage_seconds),
    )


# ---------------------------------------------------------------------------
# One checkpoint document per tenant
# ---------------------------------------------------------------------------

def _tenant_checkpoint_path(checkpoint_dir: Path, tenant_id: str) -> Path:
    """Location of one tenant's checkpoint document."""
    return checkpoint_dir / tenant_id / "checkpoint.json"


def _save_tenant_checkpoint(
    detector,
    path: Path,
    report: dict[str, Any] | None,
    rounds_done: int,
) -> None:
    """Write one tenant's checkpoint wrapper atomically: the engine
    document ``stream`` writes, the tenant's cursor and its last day
    report."""
    path.parent.mkdir(parents=True, exist_ok=True)
    save_json_atomic(
        {
            "version": FLEET_STATE_VERSION,
            "kind": "fleet-tenant",
            "round": rounds_done,
            "engine": encode_engine(detector),
            "report": report,
        },
        path,
    )


def _load_tenant_checkpoint(path: Path) -> dict[str, Any]:
    """Read a tenant checkpoint wrapper, validating its schema."""
    wrapper = load_json(path)
    kind = wrapper.get("kind") if isinstance(wrapper, dict) else None
    if kind != "fleet-tenant" or "engine" not in wrapper:
        raise FleetError(
            f"{path} is not a fleet tenant checkpoint (kind={kind!r})"
        )
    if wrapper.get("version") != FLEET_STATE_VERSION:
        raise FleetError(
            f"{path}: unsupported tenant checkpoint version "
            f"{wrapper.get('version')!r} (expected {FLEET_STATE_VERSION})"
        )
    # The tenant's cursor into its day files.  The engine's window day
    # cannot stand in for it: an enterprise engine counts days from its
    # trained bootstrap.
    rounds = wrapper.get("round")
    if type(rounds) is not int or rounds < 0:
        raise FleetError(
            f"{path}: tenant checkpoint needs a non-negative integer "
            f"'round', found {rounds!r}"
        )
    return wrapper


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------

@dataclass
class _TenantRuntime:
    """One tenant's resident state inside a worker process."""

    tenant_id: str
    detector: Any
    checkpoint: Path | None
    """Where :meth:`commit` writes; ``None`` without a checkpoint
    directory."""

    cursor: int = 0
    last_report: dict[str, Any] | None = None
    committed: int | None = None
    """The round :attr:`checkpoint` holds on disk, if any."""

    def commit(self) -> None:
        """Write the tenant's checkpoint for its cursor.  A round already
        on disk is not rewritten, so a tenant out of files writes
        nothing."""
        if self.checkpoint is None or self.cursor == self.committed:
            return
        _save_tenant_checkpoint(
            self.detector, self.checkpoint, self.last_report, self.cursor
        )
        self.committed = self.cursor


def _build_worker_tenant(
    tenant: dict[str, Any],
    checkpoint_dir: Path | None,
    whois: IntelMemo,
    *,
    resume: bool,
    metrics=None,
) -> _TenantRuntime:
    """Build (or restore from its checkpoint) one tenant's resident
    engine.

    A fresh engine comes from :func:`repro.streaming.open_engine`, as
    ``stream``'s and ``run``'s do.  With no checkpoint directory the
    engine is always built fresh and never written -- the
    durability-free fast path for ephemeral runs (benchmarks, parity
    checks) that never resume.
    """
    tenant_id = tenant["tenant_id"]
    whois_view = (
        TenantWhoisView(whois, tenant_id)
        if whois.feed is not None and tenant["pipeline"] == "enterprise"
        else None
    )
    path = (
        _tenant_checkpoint_path(checkpoint_dir, tenant_id)
        if checkpoint_dir is not None else None
    )
    if resume and path is not None and path.exists():
        wrapper = _load_tenant_checkpoint(path)
        return _TenantRuntime(
            tenant_id=tenant_id,
            detector=restore_engine(
                wrapper["engine"], whois=whois_view, metrics=metrics
            ),
            checkpoint=path,
            cursor=wrapper["round"],
            last_report=wrapper.get("report"),
            committed=wrapper["round"],
        )
    detector = open_engine(
        model_state=tenant["model_state"],
        whois=whois_view,
        config=(
            decode_config(tenant["config"])
            if tenant["config"] is not None else None
        ),
        internal_suffixes=tuple(tenant["internal_suffixes"]),
        server_ips=frozenset(tenant["server_ips"]),
        metrics=metrics,
    )
    return _TenantRuntime(
        tenant_id=tenant_id, detector=detector, checkpoint=path
    )


def worker_main(worker_id: int, commands, responses, init: dict[str, Any]):
    """Entry point of one resident fleet worker process.

    Builds (or restores) the engines of every owned tenant, answers the
    ready handshake with per-tenant cursors, then serves commands until
    ``SHUTDOWN``.  Any exception is reported as an ``error`` response
    rather than a silent death, so the manager can distinguish a
    detection failure (fatal, surfaced) from a crashed process
    (respawned).

    When ``init["metrics"]`` is set the worker owns a private
    :class:`~repro.obs.metrics.MetricsRegistry`; every ``ADVANCE_DAY``
    answer carries the registry's delta since the previous ship
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot_delta`) for the
    manager to fold into the fleet-wide view -- the same delta pattern
    as the WHOIS cache accounting.
    """
    try:
        checkpoint_dir = (
            Path(init["checkpoint_dir"])
            if init["checkpoint_dir"] is not None else None
        )
        # Only enterprise engines query the registry; sparing DNS-only
        # workers the parse keeps large fleets cheap.  The registry is
        # the file, never the manager's intel store.
        whois = IntelMemo("whois")
        if init["whois_path"] is not None and any(
            tenant["pipeline"] == "enterprise" for tenant in init["tenants"]
        ):
            whois.feed = load_whois_file(init["whois_path"]).lookup
        ct_index = None
        if init.get("ct_path") is not None:
            from ..intelstore.ct import load_ct_cached

            ct_index = load_ct_cached(
                init["ct_path"], fold_level=init["ct_fold_level"]
            )
        metrics = MetricsRegistry() if init.get("metrics") else NULL_METRICS
        runtimes: dict[str, _TenantRuntime] = {}
        for tenant in init["tenants"]:
            runtimes[tenant["tenant_id"]] = _build_worker_tenant(
                tenant,
                checkpoint_dir,
                whois,
                resume=init["resume"],
                metrics=metrics,
            )
        responses.send({
            "event": "ready",
            "worker": worker_id,
            "cursors": {t: rt.cursor for t, rt in runtimes.items()},
            "reports": {t: rt.last_report for t, rt in runtimes.items()},
        })
        while True:
            message = commands.get()
            cmd = message.get("cmd")
            if cmd == CMD_SHUTDOWN:
                return
            if cmd != CMD_ADVANCE_DAY:
                responses.send({
                    "event": "error",
                    "worker": worker_id,
                    "error": f"worker {worker_id}: unknown command {cmd!r}",
                })
                continue
            rnd = int(message["round"])
            advanced: list[_TenantRuntime] = []
            for task in message["tasks"]:
                runtime = runtimes[task["tenant_id"]]
                report = _advance_one_day(
                    runtime.detector,
                    runtime.tenant_id,
                    Path(task["log_path"]),
                    bootstrap=task["bootstrap"],
                    seeds=frozenset(task["seeds"]),
                    ct_edges=ct_index,
                    metrics=metrics,
                )
                runtime.cursor = rnd + 1
                runtime.last_report = (
                    report.as_dict() if report is not None else None
                )
                advanced.append(runtime)
            if checkpoint_dir is not None:
                # Durable before the answer: the manager commits the
                # round only once every answer is in.
                with metrics.span("worker_checkpoint"):
                    for runtime in advanced:
                        runtime.commit()
            # Ship the WHOIS accounting accrued since the last ship.
            shipped, whois.stats = whois.stats, CacheStats()
            responses.send({
                "event": "advanced",
                "worker": worker_id,
                "round": rnd,
                "reports": [
                    {"tenant_id": rt.tenant_id, "report": rt.last_report}
                    for rt in advanced
                ],
                "whois_stats": shipped.as_dict(),
                "metrics": (
                    metrics.snapshot_delta().as_dict()
                    if metrics.enabled else None
                ),
            })
    except Exception as exc:  # surfaced to the manager as a fatal error
        responses.send({
            "event": "error",
            "worker": worker_id,
            # A tenant document's own error already names its file.
            "error": (
                str(exc) if isinstance(exc, FleetError)
                else f"worker {worker_id}: {type(exc).__name__}: {exc}"
            ),
        })


# ---------------------------------------------------------------------------
# The manager-side pool
# ---------------------------------------------------------------------------

@dataclass
class WorkerHandle:
    """Manager-side view of one resident worker process."""

    worker_id: int
    tenant_ids: tuple[str, ...]
    process: Any
    commands: Any
    responses: Any
    """The read end of the worker's one-way answer pipe."""

    cursors: dict[str, int] = field(default_factory=dict)
    """Per-tenant rounds committed on disk, per the ready handshake."""

    carried: dict[str, dict[str, Any] | None] = field(default_factory=dict)
    """Per-tenant last persisted report, per the ready handshake."""

    @property
    def pid(self) -> int | None:
        """The worker process's PID (test hooks kill through this)."""
        return self.process.pid


class ResidentPool:
    """Spawns, drives and respawns the resident workers (manager side).

    Tenants are partitioned round-robin by position (``specs[i::n]``),
    so the assignment is stable across respawns and across runs of the
    same manifest -- a respawned worker always finds its own tenants'
    checkpoints.
    """

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        *,
        workers: int,
        checkpoint_dir: Path | None,
        whois_path: Path | None,
        config: SystemConfig | None,
        resume: bool,
        metrics_enabled: bool = False,
        ct_path: Path | None = None,
    ) -> None:
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.whois_path = whois_path
        self.ct_path = ct_path
        self.config = config
        self.metrics_enabled = metrics_enabled
        count = max(1, min(workers, len(specs)))
        self._assignment: list[list[TenantSpec]] = [
            list(specs[i::count]) for i in range(count)
        ]
        self._ctx = mp.get_context()
        self.workers: list[WorkerHandle] = []
        try:
            # Start them all, then shake hands: the workers build (or
            # restore) their engines side by side.
            for i in range(count):
                self.workers.append(self._start(i, resume=resume))
            for handle in self.workers:
                self._handshake(handle)
        except BaseException:
            # One worker failing its handshake must not leak the rest.
            self.shutdown()
            raise

    def specs_of(self, handle: WorkerHandle) -> list[TenantSpec]:
        """The tenant specs owned by one worker."""
        return self._assignment[handle.worker_id]

    # ------------------------------------------------------------------

    def _start(self, worker_id: int, *, resume: bool) -> WorkerHandle:
        """Start one worker process (its handshake is still to come)."""
        owned = self._assignment[worker_id]
        init = {
            "worker_id": worker_id,
            "checkpoint_dir": (
                str(self.checkpoint_dir)
                if self.checkpoint_dir is not None else None
            ),
            "whois_path": (
                str(self.whois_path) if self.whois_path is not None else None
            ),
            "ct_path": (
                str(self.ct_path) if self.ct_path is not None else None
            ),
            "ct_fold_level": (
                self.config.rarity.fold_level
                if self.config is not None else 2
            ),
            "resume": resume,
            "metrics": self.metrics_enabled,
            "tenants": [
                {
                    "tenant_id": spec.tenant_id,
                    "pipeline": spec.pipeline,
                    "model_state": (
                        str(spec.model_state)
                        if spec.model_state is not None else None
                    ),
                    "internal_suffixes": list(spec.internal_suffixes),
                    "server_ips": sorted(spec.server_ips),
                    "config": (
                        encode_config(self.config)
                        if self.config is not None else None
                    ),
                }
                for spec in owned
            ],
        }
        commands = self._ctx.Queue()
        responses, answers = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, commands, answers, init),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # The worker holds the only writing end, so its exit is EOF.
        answers.close()
        return WorkerHandle(
            worker_id=worker_id,
            tenant_ids=tuple(spec.tenant_id for spec in owned),
            process=process,
            commands=commands,
            responses=responses,
        )

    def _handshake(self, handle: WorkerHandle) -> None:
        """Await a started worker's ``ready`` and record its cursors."""
        ready = self.recv(handle)
        handle.cursors = {
            str(t): int(c) for t, c in ready["cursors"].items()
        }
        handle.carried = dict(ready["reports"])

    # ------------------------------------------------------------------

    def send(self, handle: WorkerHandle, message: dict[str, Any]) -> None:
        """Enqueue one command on a worker's FIFO command queue."""
        handle.commands.put(message)

    def recv(self, handle: WorkerHandle) -> dict[str, Any]:
        """Await a worker's next answer, or its exit.

        Raises :class:`WorkerDied` when the process exits without
        answering (crash -- respawnable) and :class:`FleetError` when
        the worker reports an error (fatal configuration/data problem).
        """
        ready = wait([handle.responses, handle.process.sentinel])
        if handle.responses not in ready:
            raise WorkerDied(handle.worker_id)
        try:
            message = handle.responses.recv()
        except (EOFError, OSError):
            raise WorkerDied(handle.worker_id) from None
        if message.get("event") == "error":
            raise FleetError(message["error"])
        return message

    def respawn(self, handle: WorkerHandle) -> WorkerHandle:
        """Replace a dead worker with a fresh process, same tenants.

        The replacement restores every owned engine from its checkpoint
        (``resume=True``); other workers are not disturbed.  The
        caller decides per tenant whether the in-flight round must be
        re-run.
        """
        self._reap(handle)
        replacement = self._start(handle.worker_id, resume=True)
        self.workers[handle.worker_id] = replacement
        self._handshake(replacement)
        return replacement

    def _reap(self, handle: WorkerHandle) -> None:
        """Release a dead worker's process, queue and pipe."""
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5)
        handle.commands.close()
        handle.commands.cancel_join_thread()
        handle.responses.close()

    def shutdown(self) -> None:
        """Stop every worker: polite ``SHUTDOWN`` first, then reap."""
        for handle in self.workers:
            if handle.process.is_alive():
                try:
                    self.send(handle, {"cmd": CMD_SHUTDOWN})
                except (OSError, ValueError):
                    pass
        for handle in self.workers:
            handle.process.join(timeout=5)
            self._reap(handle)
