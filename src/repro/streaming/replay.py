"""Where an engine is opened, and the directory replay that drives one.

:func:`open_engine` is the one place a verb gets its engine: ``stream``
(both pipelines), ``run`` and a fleet worker's fresh tenant build it
here, or restore it from a checkpoint through
:func:`repro.state.restore_engine`.  The pipeline follows from what the
caller holds: a trained detector (``model_state``) opens the
enterprise/proxy-path engine, no detector the DNS one.

:func:`replay_directory` is the ``repro-detect stream`` engine for both
pipelines: it checks its inputs, opens the engine (and the durable
intel store, if any) and hands it to
:func:`~repro.streaming.engine.drive_replay`, the micro-batched loop.
"""

from __future__ import annotations

from pathlib import Path

from ..config import SystemConfig
from ..intel.whois_db import load_whois_file
from .detector import StreamingDetector
from .engine import (
    ReplayResult,
    checkpoint_to_resume,
    drive_replay,
    resolve_replay_paths,
)
from .enterprise import StreamingEnterpriseDetector
from .incremental import WarmStartConfig


def open_engine(
    *,
    model_state: str | Path | None = None,
    whois=None,
    config: SystemConfig | None = None,
    internal_suffixes: tuple[str, ...] = (),
    server_ips: frozenset[str] = frozenset(),
    checkpoint: str | Path | None = None,
    metrics=None,
):
    """Build a fresh engine, or restore one from ``checkpoint``.

    With ``model_state`` (a trained detector's JSON, as written by
    ``repro-detect enterprise --save-state`` or a generated layout's
    ``model.json``) the engine is a :class:`StreamingEnterpriseDetector`
    whose regression features query ``whois`` (anything with a
    ``lookup(domain)`` method; ``None`` imputes).  Without it the
    engine is a :class:`StreamingDetector` with the detection
    ``config`` and reduction filters given.

    A ``checkpoint`` must hold the same kind of engine -- the other
    pipeline's is refused with a :class:`~repro.state.StateError` -- and
    then supplies everything but ``whois`` and ``metrics``.
    """
    if checkpoint is not None:
        from ..state import load_json, restore_engine

        return restore_engine(
            load_json(checkpoint), whois, metrics=metrics,
            kind="streaming" if model_state is None
            else "streaming-enterprise",
        )
    if model_state is not None:
        from ..state import load_detector

        return StreamingEnterpriseDetector(
            load_detector(model_state, whois=whois), metrics=metrics
        )
    return StreamingDetector(
        config=config,
        internal_suffixes=internal_suffixes,
        server_ips=server_ips,
        metrics=metrics,
    )


def replay_directory(
    directory: str | Path,
    *,
    bootstrap_files: int,
    pattern: str = "*.log",
    model_state: str | Path | None = None,
    whois_path: str | Path | None = None,
    config: SystemConfig | None = None,
    internal_suffixes: tuple[str, ...] = (),
    server_ips: frozenset[str] = frozenset(),
    batch_size: int = 500,
    score_every: int = 1,
    warm: WarmStartConfig | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    max_batches: int | None = None,
    on_update=None,
    metrics=None,
    intel_db: str | Path | None = None,
    intel_ttl_days: float | None = None,
) -> ReplayResult:
    """Replay a directory of daily logs as an event stream.

    :func:`repro.runner.run_directory` with intra-day visibility, for
    either pipeline: the engine comes from :func:`open_engine` (DNS
    logs by default; pre-joined proxy logs with ``model_state``, whose
    registration registry is the file at ``whois_path``).  The first
    ``bootstrap_files`` logs only extend the profiles; the rest are
    consumed in ``batch_size`` micro-batches with a scoring round every
    ``score_every`` batches and a day rollover per file.

    With ``checkpoint_path`` the engine persists its full state every
    ``checkpoint_every`` micro-batches and after each rollover;
    ``resume=True`` restores from that checkpoint and continues from
    the exact event where the previous process stopped -- detection
    config, filters, histories and models then come from the
    checkpoint.  A checkpoint holds no warm-start policy: ``warm``
    (the default policy when omitted) governs a resumed replay as it
    does a fresh one.  ``max_batches`` bounds the number of micro-batches
    processed (the replay returns with ``interrupted=True``), which
    together with ``resume`` simulates a process restart mid-day.

    With ``intel_db`` (entries expire after ``intel_ttl_days``) the
    enterprise engine's WHOIS lookups go through a store-backed
    :class:`~repro.intel.memo.IntelMemo` and each reported day's
    publication scores are recorded (tenant ``"stream"``); the store is
    opened once every other input checked out, and always closed.
    """
    resume_from = checkpoint_to_resume(checkpoint_path, resume)
    if intel_db is not None or intel_ttl_days is not None:
        from ..intel.memo import IntelMemo, TenantWhoisView
        from ..intelstore.store import check_intel_flags, open_intel_store

        check_intel_flags(intel_db, intel_ttl_days)
    paths = resolve_replay_paths(
        directory, pattern, bootstrap_files, batch_size=batch_size,
        score_every=score_every, checkpoint_every=checkpoint_every,
        max_batches=max_batches,
    )
    whois = None if whois_path is None else load_whois_file(whois_path)
    memo = None
    if intel_db is not None and model_state is not None:
        memo = IntelMemo("whois", None if whois is None else whois.lookup)
        whois = TenantWhoisView(memo, "stream")
    engine = open_engine(
        model_state=model_state,
        whois=whois,
        config=config,
        internal_suffixes=internal_suffixes,
        server_ips=server_ips,
        checkpoint=resume_from,
        metrics=metrics,
    )
    if warm is not None:  # a checkpoint holds no warm-start policy
        engine.warm = warm
    store = None
    if intel_db is not None:
        store = open_intel_store(intel_db, intel_ttl_days, metrics=metrics)
    try:
        if memo is not None:  # stored facts answer, new ones write behind
            memo.attach_store(store)
        result = drive_replay(
            engine,
            paths,
            bootstrap_files=bootstrap_files,
            batch_size=batch_size,
            score_every=score_every,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            max_batches=max_batches,
            on_update=on_update,
        )
        if store is not None:
            for report in result.reports:
                store.record_day(
                    "stream", report.day, report.publication_scores()
                )
            result.intel_rows = store.flush()
    finally:
        if store is not None:
            store.close()
    return result


def replay_enterprise_directory(
    directory: str | Path,
    *,
    model_state: str | Path,
    whois_path: str | Path | None = None,
    bootstrap_files: int = 0,
    pattern: str = "proxy-*.log",
    **rest,
) -> ReplayResult:
    """:func:`replay_directory` with the proxy-log defaults of ``stream
    --pipeline enterprise``."""
    return replay_directory(
        directory,
        model_state=model_state,
        whois_path=whois_path,
        bootstrap_files=bootstrap_files,
        pattern=pattern,
        **rest,
    )
