"""Resident fleet workers: long-lived per-tenant engine processes.

A fleet runs on N long-lived worker processes, each owning a stable
subset of tenants whose streaming engines stay in worker memory across
rounds (``N = 1`` is the serial case).  Only three thin flows cross
the process boundary per round:

* ``INJECT_INTEL`` (manager -> worker): new cross-tenant prior-board
  entries since the worker's last sync (:meth:`IntelPlane.board_delta`
  wire documents), folded into a worker-local
  :class:`~repro.fleet.intel.BoardReplica`;
* ``ADVANCE_DAY`` (manager -> worker -> manager): the round's log file
  per owned tenant in, the per-tenant day reports plus WHOIS
  cache-fill and seeds-served accounting deltas back out;
* ``CHECKPOINT`` (manager -> worker, acked): each tenant's engine is
  committed to its on-disk *checkpoint chain* -- a periodic full
  snapshot plus per-round barrier deltas
  (:class:`repro.state.EngineDeltaTracker`) appended to a JSONL
  sidecar, so commit cost is O(changes), not O(history).

Commands and responses travel over per-worker ``multiprocessing``
queues.  Queue order is the ordering guarantee: ``INJECT_INTEL`` is
fire-and-forget, but because it is enqueued before the round's
``ADVANCE_DAY`` on the same FIFO queue, a worker always folds the
board delta in before computing any subsequent day's seeds (the
ordered-delivery property the tests pin down).

**Crash recovery.**  The manager polls liveness while waiting on a
response (``heartbeat`` seconds); a dead worker raises
:class:`WorkerDied` and is respawned by :meth:`ResidentPool.respawn`
with the same tenant subset, each engine restored from its checkpoint
chain -- without disturbing the other workers.  The ready handshake
reports per-tenant cursors plus the last persisted report, letting the
manager decide per tenant whether the crashed round must be re-run
(deterministic: same files, same seeds) or its report can be adopted.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue
from collections.abc import Sequence, Set
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..config import SystemConfig
from ..intel.whois_db import WhoisDatabase, load_whois_file
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..state import (
    EngineDeltaTracker,
    apply_engine_delta,
    decode_config,
    encode_config,
    encode_engine,
    load_json,
    restore_engine,
    save_json_atomic,
)
from ..streaming import open_engine
from .intel import BoardReplica, CacheStats, TenantWhoisView, _TenantCache
from .manifest import TenantSpec
from .report import TenantDayReport

FLEET_STATE_VERSION = 1

#: Command verbs of the manager -> worker protocol.
CMD_ADVANCE_DAY = "ADVANCE_DAY"
CMD_INJECT_INTEL = "INJECT_INTEL"
CMD_CHECKPOINT = "CHECKPOINT"
CMD_SHUTDOWN = "SHUTDOWN"


class FleetError(RuntimeError):
    """Raised on fleet configuration or checkpoint problems."""


class WorkerDied(FleetError):
    """A resident worker process died while the manager awaited it."""

    def __init__(self, worker_id: int) -> None:
        super().__init__(f"resident worker {worker_id} died")
        self.worker_id = worker_id


# ---------------------------------------------------------------------------
# Worker-resident read-only intel
# ---------------------------------------------------------------------------

class WorkerIntelCache:
    """Worker-resident memoized WHOIS lookups with tenant attribution.

    Enterprise engines inside a worker route their feature-extraction
    lookups through this cache via :class:`TenantWhoisView` (which only
    needs ``whois_lookup(tenant_id, domain)``).  :meth:`stats_delta`
    returns the accounting accrued since the previous call; the worker
    ships it with each ``ADVANCE_DAY`` response and the manager absorbs
    it into the plane, keeping fleet-wide hit counters meaningful
    across rounds and process boundaries.
    """

    def __init__(self, whois: WhoisDatabase | None) -> None:
        self.whois = whois
        self.cache = _TenantCache()
        self._reported = CacheStats()

    def whois_lookup(self, tenant_id: str, domain: str):
        """Memoized registry lookup attributed to ``tenant_id``."""
        return self.cache.get(
            domain,
            tenant_id,
            lambda: self.whois.lookup(domain) if self.whois else None,
        )

    def view(self, tenant_id: str) -> TenantWhoisView:
        """A per-tenant ``WhoisDatabase``-shaped view over this cache."""
        return TenantWhoisView(self, tenant_id)

    def stats_delta(self) -> dict[str, int]:
        """Accounting accrued since the last call (an ``as_dict`` doc)."""
        stats = self.cache.stats
        delta = {
            "hits": stats.hits - self._reported.hits,
            "misses": stats.misses - self._reported.misses,
            "cross_tenant_hits": (
                stats.cross_tenant_hits - self._reported.cross_tenant_hits
            ),
        }
        self._reported = CacheStats(**stats.as_dict())
        return delta


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
    scoring hot path: the engine's window maintains the day's
    :class:`~repro.profiling.index.TrafficIndex` incrementally during
    ingest, and the rollover's belief propagation scores its frontier
    through the index-backed incremental scorers.  The wall-clock cost
    of the day is timed through an obs span (``worker_advance``), so
    the per-tenant ``elapsed_seconds`` in the report and the
    fleet-wide timing histogram come from the same measurement.
    """
    obs = metrics if metrics is not None else NULL_METRICS
    with obs.span("worker_advance") as advance_span:
        with path.open() as handle:
            detector.submit_lines(handle)
        detector.poll()
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
# Checkpoint chains: periodic full snapshots + per-round barrier deltas
# ---------------------------------------------------------------------------

def _tenant_checkpoint_path(checkpoint_dir: Path, tenant_id: str) -> Path:
    """Location of one tenant's full checkpoint document."""
    return checkpoint_dir / tenant_id / "checkpoint.json"


def _tenant_delta_path(checkpoint_dir: Path, tenant_id: str) -> Path:
    """Location of one tenant's barrier-delta JSONL sidecar."""
    return checkpoint_dir / tenant_id / "deltas.jsonl"


def _save_tenant_checkpoint(
    detector,
    path: Path,
    report: dict[str, Any] | None,
    rounds_done: int,
) -> None:
    """Write one tenant's full checkpoint wrapper atomically.

    A full write supersedes the tenant's delta chain, so the sidecar is
    truncated here.  A directory holding only full wrappers (what
    ``full_every=1`` writes, and what the retired thread and process
    executors wrote) reads through :func:`load_tenant_chain` as a chain
    with no deltas.
    """
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
    path.with_name("deltas.jsonl").unlink(missing_ok=True)


def _load_tenant_checkpoint(path: Path) -> dict[str, Any]:
    """Read a tenant checkpoint wrapper, validating its schema."""
    wrapper = load_json(path)
    if wrapper.get("kind") != "fleet-tenant" or "engine" not in wrapper:
        raise FleetError(
            f"{path} is not a fleet tenant checkpoint "
            f"(kind={wrapper.get('kind')!r})"
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


@dataclass
class TenantChain:
    """One tenant's on-disk checkpoint chain, parsed and validated."""

    engine: dict[str, Any]
    """Full engine snapshot payload (the chain's base)."""

    base_rounds: int
    """Rounds committed as of the full snapshot."""

    deltas: list[dict[str, Any]]
    """Barrier deltas to apply on top, in round order."""

    rounds: int
    """Rounds committed after the last delta (the tenant's cursor)."""

    report: dict[str, Any] | None
    """Last persisted day report (``None`` after a bootstrap round)."""


def load_tenant_chain(checkpoint_dir: Path, tenant_id: str) -> TenantChain:
    """Parse a tenant's checkpoint chain from disk.

    Delta lines that predate the full snapshot (a crash between the
    full rewrite and the sidecar truncation), arrive out of order, or
    are torn mid-write (a crash mid-append) are dropped -- a torn tail
    can only belong to a round the fleet never committed, because the
    checkpoint ack always precedes the fleet-state commit.
    """
    wrapper = _load_tenant_checkpoint(
        _tenant_checkpoint_path(checkpoint_dir, tenant_id)
    )
    base_rounds = wrapper["round"]
    rounds = base_rounds
    report = wrapper.get("report")
    deltas: list[dict[str, Any]] = []
    delta_path = _tenant_delta_path(checkpoint_dir, tenant_id)
    if delta_path.exists():
        for line in delta_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break
            if int(entry.get("round", 0)) <= rounds:
                continue
            deltas.append(entry["delta"])
            rounds = int(entry["round"])
            report = entry.get("report")
    return TenantChain(
        engine=wrapper["engine"],
        base_rounds=base_rounds,
        deltas=deltas,
        rounds=rounds,
        report=report,
    )


def restore_tenant_chain(chain: TenantChain, whois=None, metrics=None):
    """Rebuild a streaming engine from its checkpoint chain."""
    detector = restore_engine(chain.engine, whois=whois, metrics=metrics)
    for delta in chain.deltas:
        apply_engine_delta(detector, delta)
    if chain.deltas:
        detector.resync()
    return detector


class TenantCheckpointStore:
    """Commits one tenant's engine to its checkpoint chain.

    Every ``full_every``-th commit (and the first) rewrites the full
    snapshot atomically and truncates the delta sidecar; the commits in
    between append one barrier-delta line each, costing O(changes)
    instead of O(history).  Re-committing an unchanged round is a
    no-op, so idle tenants (out of log files) stay cheap.
    """

    def __init__(
        self,
        detector,
        checkpoint_dir: Path,
        tenant_id: str,
        *,
        full_every: int = 16,
        since_full: int | None = None,
    ) -> None:
        self.detector = detector
        self.full_path = _tenant_checkpoint_path(checkpoint_dir, tenant_id)
        self.delta_path = _tenant_delta_path(checkpoint_dir, tenant_id)
        self.full_every = max(1, full_every)
        self.tracker = EngineDeltaTracker(detector)
        self._since_full = since_full
        self._committed_rounds: int | None = None

    def commit(self, report: dict[str, Any] | None, rounds_done: int) -> None:
        """Persist the engine's barrier state for ``rounds_done``."""
        if rounds_done == self._committed_rounds:
            return
        # `_since_full` counts the delta commits since the last full, so
        # this one is commit number `_since_full + 1` after it.
        if (
            self._since_full is None
            or self._since_full + 1 >= self.full_every
        ):
            _save_tenant_checkpoint(
                self.detector, self.full_path, report, rounds_done
            )
            self.tracker.rebase()
            self._since_full = 0
        else:
            line = json.dumps({
                "round": rounds_done,
                "report": report,
                "delta": self.tracker.delta(),
            })
            self.delta_path.parent.mkdir(parents=True, exist_ok=True)
            with self.delta_path.open("a") as handle:
                handle.write(line + "\n")
                handle.flush()
            self._since_full += 1
        self._committed_rounds = rounds_done


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------

@dataclass
class _TenantRuntime:
    """One tenant's resident state inside a worker process."""

    tenant_id: str
    detector: Any
    store: TenantCheckpointStore | None
    cursor: int = 0
    last_report: dict[str, Any] | None = None


def _build_worker_tenant(
    tenant: dict[str, Any],
    checkpoint_dir: Path | None,
    cache: WorkerIntelCache,
    *,
    resume: bool,
    full_every: int,
    metrics=None,
) -> _TenantRuntime:
    """Build (or restore from its chain) one tenant's resident engine.

    A fresh engine comes from :func:`repro.streaming.open_engine`, as
    ``stream``'s and ``run``'s do.  With no checkpoint directory the
    engine is always built fresh and gets no checkpoint store -- the
    durability-free fast path for ephemeral runs (benchmarks, parity
    checks) that never resume.
    """
    tenant_id = tenant["tenant_id"]
    whois_view = (
        cache.view(tenant_id)
        if cache.whois is not None and tenant["pipeline"] == "enterprise"
        else None
    )
    full_path = (
        _tenant_checkpoint_path(checkpoint_dir, tenant_id)
        if checkpoint_dir is not None else None
    )
    if resume and full_path is not None and full_path.exists():
        chain = load_tenant_chain(checkpoint_dir, tenant_id)
        detector = restore_tenant_chain(
            chain, whois=whois_view, metrics=metrics
        )
        cursor, last_report = chain.rounds, chain.report
        since_full: int | None = len(chain.deltas)
    else:
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
        cursor, last_report, since_full = 0, None, None
    store = (
        TenantCheckpointStore(
            detector,
            checkpoint_dir,
            tenant_id,
            full_every=full_every,
            since_full=since_full,
        )
        if checkpoint_dir is not None else None
    )
    return _TenantRuntime(
        tenant_id=tenant_id,
        detector=detector,
        store=store,
        cursor=cursor,
        last_report=last_report,
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
    and ``CHECKPOINT`` response carries the registry's delta since the
    previous ship (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot_delta`)
    for the manager to fold into the fleet-wide view -- the same
    queue-borne delta pattern as the WHOIS cache accounting.
    """
    try:
        checkpoint_dir = (
            Path(init["checkpoint_dir"])
            if init["checkpoint_dir"] is not None else None
        )
        whois = None
        # Only enterprise engines query the registry; sparing DNS-only
        # workers the parse keeps large fleets cheap.
        if init["whois_path"] is not None and any(
            tenant["pipeline"] == "enterprise" for tenant in init["tenants"]
        ):
            whois = load_whois_file(init["whois_path"])
        cache = WorkerIntelCache(whois)
        ct_index = None
        if init.get("ct_path") is not None:
            from ..intelstore.ct import load_ct_cached

            ct_index = load_ct_cached(
                init["ct_path"], fold_level=init["ct_fold_level"]
            )
        metrics = MetricsRegistry() if init.get("metrics") else NULL_METRICS
        replica = BoardReplica()
        seeds_reported = 0
        runtimes: dict[str, _TenantRuntime] = {}
        for tenant in init["tenants"]:
            runtimes[tenant["tenant_id"]] = _build_worker_tenant(
                tenant,
                checkpoint_dir,
                cache,
                resume=init["resume"],
                full_every=init["full_every"],
                metrics=metrics,
            )
        responses.put({
            "event": "ready",
            "worker": worker_id,
            "cursors": {t: rt.cursor for t, rt in runtimes.items()},
            "reports": {t: rt.last_report for t, rt in runtimes.items()},
        })
        while True:
            message = commands.get()
            cmd = message.get("cmd")
            if cmd == CMD_SHUTDOWN:
                responses.put({"event": "bye", "worker": worker_id})
                return
            if cmd == CMD_INJECT_INTEL:
                # Fire-and-forget; FIFO queue order guarantees the
                # entries land before any later ADVANCE_DAY's seeds.
                replica.apply(message["entries"])
                continue
            if cmd == CMD_ADVANCE_DAY:
                rnd = int(message["round"])
                reports = []
                for task in message["tasks"]:
                    runtime = runtimes[task["tenant_id"]]
                    seeds = (
                        frozenset() if task["bootstrap"]
                        else replica.seeds_for(runtime.tenant_id)
                    )
                    report = _advance_one_day(
                        runtime.detector,
                        runtime.tenant_id,
                        Path(task["log_path"]),
                        bootstrap=task["bootstrap"],
                        seeds=seeds,
                        ct_edges=ct_index,
                        metrics=metrics,
                    )
                    runtime.cursor = rnd + 1
                    runtime.last_report = (
                        report.as_dict() if report is not None else None
                    )
                    reports.append({
                        "tenant_id": runtime.tenant_id,
                        "report": runtime.last_report,
                    })
                served = replica.seeds_served - seeds_reported
                seeds_reported = replica.seeds_served
                responses.put({
                    "event": "advanced",
                    "worker": worker_id,
                    "round": rnd,
                    "reports": reports,
                    "whois_stats": cache.stats_delta(),
                    "seeds_served": served,
                    "metrics": (
                        metrics.snapshot_delta().as_dict()
                        if metrics.enabled else None
                    ),
                })
                continue
            if cmd == CMD_CHECKPOINT:
                with metrics.span("worker_checkpoint"):
                    for runtime in runtimes.values():
                        if runtime.store is not None:
                            runtime.store.commit(
                                runtime.last_report, runtime.cursor
                            )
                responses.put({
                    "event": "checkpointed",
                    "worker": worker_id,
                    "round": message.get("round"),
                    "metrics": (
                        metrics.snapshot_delta().as_dict()
                        if metrics.enabled else None
                    ),
                })
                continue
            responses.put({
                "event": "error",
                "worker": worker_id,
                "error": f"unknown command {cmd!r}",
            })
    except Exception as exc:  # surfaced to the manager as a fatal error
        responses.put({
            "event": "error",
            "worker": worker_id,
            "error": f"{type(exc).__name__}: {exc}",
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
    synced_revision: int = 0
    """Prior-board revision this worker has been synced through."""

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
    checkpoint chains.
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
        heartbeat: float = 5.0,
        full_every: int = 16,
        metrics_enabled: bool = False,
        ct_path: Path | None = None,
    ) -> None:
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.whois_path = whois_path
        self.ct_path = ct_path
        self.config = config
        self.heartbeat = heartbeat
        self.full_every = full_every
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
            "full_every": self.full_every,
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
        responses = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, commands, responses, init),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
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
        """Await a worker's next response, polling liveness.

        Raises :class:`WorkerDied` when the process exits without
        answering (crash -- respawnable) and :class:`FleetError` when
        the worker reports an error (fatal configuration/data problem).
        """
        while True:
            try:
                message = handle.responses.get(timeout=self.heartbeat)
            except queue.Empty:
                if not handle.process.is_alive():
                    raise WorkerDied(handle.worker_id) from None
                continue
            if message.get("event") == "error":
                raise FleetError(
                    f"worker {handle.worker_id}: {message['error']}"
                )
            return message

    def respawn(self, handle: WorkerHandle) -> WorkerHandle:
        """Replace a dead worker with a fresh process, same tenants.

        The replacement restores every owned engine from its checkpoint
        chain (``resume=True``); other workers are not disturbed.  The
        caller re-syncs the prior board (the new handle starts at
        revision 0) and decides per tenant whether the in-flight round
        must be re-run.
        """
        self._reap(handle)
        replacement = self._start(handle.worker_id, resume=True)
        self.workers[handle.worker_id] = replacement
        self._handshake(replacement)
        return replacement

    def _reap(self, handle: WorkerHandle) -> None:
        """Release a dead worker's process and queue resources."""
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5)
        for q in (handle.commands, handle.responses):
            q.close()
            q.cancel_join_thread()

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
