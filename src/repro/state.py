"""Persistence of trained detector state (Figure 1's daily cycle).

The paper's system trains once per enterprise and then runs daily,
carrying two kinds of state across days: the profiles (destination and
user-agent histories) and the regression models with their thresholds.
A real deployment restarts; this module snapshots that state to a JSON
document and restores it, so an :class:`~repro.core.EnterpriseDetector`
survives process boundaries.

The format is versioned, self-describing JSON -- inspectable by the SOC
and diffable across days.  WHOIS is an external service, not state, so
a restored detector must be re-attached to its registry.

One section is not inspectable text: a streaming checkpoint's mid-day
``window`` holds the day's events as packed binary columns (base64
inside the same document; see :func:`encode_window`), because it is
rewritten every few micro-batches and is the bulk of the document.
Restore the engine to read it.  That section has its own layout tag;
``STATE_VERSION`` covers everything else and is shared with the
trained-detector (``--model-state``) documents.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
from collections.abc import Iterator
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .config import (
    BeliefPropagationConfig,
    HistogramConfig,
    InputError,
    RarityConfig,
    SystemConfig,
)
from .core.pipeline import EnterpriseDetector
from .core.scoring import RegressionCCScorer, RegressionSimilarityScorer
from .features.regression import Coefficient, LinearModel
from .intel.whois_db import WhoisDatabase
from .profiling.history import DestinationHistory
from .profiling.rare import DOMAIN_MASK, PAIR_SHIFT
from .profiling.ua import UserAgentHistory

STATE_VERSION = 1


class StateError(InputError):
    """Raised on malformed or incompatible state documents."""


# ---------------------------------------------------------------------------
# Component encoders / decoders
# ---------------------------------------------------------------------------

def encode_history(history: DestinationHistory) -> dict[str, Any]:
    return {
        "first_seen": dict(history._first_seen),
        "committed_days": sorted(history.committed_days),
    }


def decode_history(payload: dict[str, Any]) -> DestinationHistory:
    """Rebuild a DestinationHistory from :func:`encode_history` output."""
    history = DestinationHistory()
    history._first_seen.update(
        {str(domain): int(day) for domain, day in payload["first_seen"].items()}
    )
    history._committed_days.update(int(d) for d in payload["committed_days"])
    return history


def encode_ua_history(history: UserAgentHistory) -> dict[str, Any]:
    return {
        "rare_max_hosts": history.rare_max_hosts,
        "hosts_by_ua": {
            ua: sorted(hosts) for ua, hosts in history._hosts_by_ua.items()
        },
    }


def decode_ua_history(payload: dict[str, Any]) -> UserAgentHistory:
    """Rebuild a UserAgentHistory from :func:`encode_ua_history` output."""
    history = UserAgentHistory(rare_max_hosts=int(payload["rare_max_hosts"]))
    for ua, hosts in payload["hosts_by_ua"].items():
        history._hosts_by_ua[ua] = set(hosts)
    return history


def encode_model(model: LinearModel) -> dict[str, Any]:
    return {
        "feature_names": list(model.feature_names),
        "intercept": model.intercept,
        "weights": [float(w) for w in model.weights],
        "r_squared": model.r_squared,
        "n_samples": model.n_samples,
        "coefficients": [
            {
                "name": c.name,
                "estimate": c.estimate,
                "std_error": c.std_error if np.isfinite(c.std_error) else None,
                "t_statistic": c.t_statistic,
                "p_value": c.p_value,
            }
            for c in model.coefficients
        ],
    }


def decode_model(payload: dict[str, Any]) -> LinearModel:
    """Rebuild a LinearModel from :func:`encode_model` output."""
    coefficients = tuple(
        Coefficient(
            name=c["name"],
            estimate=float(c["estimate"]),
            std_error=(
                float(c["std_error"]) if c["std_error"] is not None
                else float("inf")
            ),
            t_statistic=float(c["t_statistic"]),
            p_value=float(c["p_value"]),
        )
        for c in payload["coefficients"]
    )
    return LinearModel(
        feature_names=tuple(payload["feature_names"]),
        intercept=float(payload["intercept"]),
        weights=np.asarray(payload["weights"], dtype=float),
        coefficients=coefficients,
        r_squared=float(payload["r_squared"]),
        n_samples=int(payload["n_samples"]),
    )


def encode_config(config: SystemConfig) -> dict[str, Any]:
    return {
        "histogram": vars(config.histogram).copy(),
        "rarity": vars(config.rarity).copy(),
        "belief_propagation": vars(config.belief_propagation).copy(),
        "training_days": config.training_days,
        "regression_ridge": config.regression_ridge,
    }


def decode_config(payload: dict[str, Any]) -> SystemConfig:
    return SystemConfig(
        histogram=HistogramConfig(**payload["histogram"]),
        rarity=RarityConfig(**payload["rarity"]),
        belief_propagation=BeliefPropagationConfig(**payload["belief_propagation"]),
        training_days=int(payload["training_days"]),
        regression_ridge=float(payload["regression_ridge"]),
    )


# ---------------------------------------------------------------------------
# Detector-level snapshot
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def reading_document(what: str):
    """Read a document -- in a ``with`` block, or as the decorator of a
    restore function -- so that a structurally incomplete or ill-typed
    document (valid JSON, wrong shape) raises :class:`StateError`
    naming ``what`` -- what callers and the CLI's one-line ``error:``
    exit handle -- instead of whichever ``KeyError`` / ``TypeError``
    the first bad key happens to produce."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError,
            IndexError) as exc:
        raise StateError(
            f"malformed {what}: {type(exc).__name__}: {exc}"
        ) from exc


def detector_state(detector: EnterpriseDetector) -> dict[str, Any]:
    """Full JSON-serializable snapshot of a trained detector."""
    return {
        "version": STATE_VERSION,
        "config": encode_config(detector.config),
        "history": encode_history(detector.history),
        "ua_history": encode_ua_history(detector.ua_history),
        "cc_model": (
            encode_model(detector.cc_scorer.model)
            if detector.cc_scorer is not None else None
        ),
        "cc_threshold": (
            detector.cc_scorer.threshold
            if detector.cc_scorer is not None else None
        ),
        "similarity_model": (
            encode_model(detector.similarity_scorer.model)
            if detector.similarity_scorer is not None else None
        ),
    }


@reading_document("detector state")
def restore_detector(
    payload: dict[str, Any], whois: WhoisDatabase | None = None
) -> EnterpriseDetector:
    """Rebuild a detector from :func:`detector_state` output.

    ``whois`` re-attaches the external registry (not part of the
    snapshot); omit it for DNS-style deployments without WHOIS.
    """
    version = payload.get("version")
    if version != STATE_VERSION:
        raise StateError(f"unsupported state version {version!r}")
    detector = EnterpriseDetector(decode_config(payload["config"]), whois=whois)
    detector.history = decode_history(payload["history"])
    detector.ua_history = decode_ua_history(payload["ua_history"])
    # The extractor closes over the UA history; rebuild it against the
    # restored instance.
    detector.extractor.ua_history = detector.ua_history
    if payload["cc_model"] is not None:
        detector.cc_scorer = RegressionCCScorer(
            decode_model(payload["cc_model"]),
            detector.extractor,
            threshold=float(payload["cc_threshold"]),
        )
    if payload["similarity_model"] is not None:
        detector.similarity_scorer = RegressionSimilarityScorer(
            decode_model(payload["similarity_model"]), detector.extractor
        )
    return detector


# ---------------------------------------------------------------------------
# Streaming checkpoint (mid-day window state)
# ---------------------------------------------------------------------------

def encode_ua_pending(history: UserAgentHistory) -> dict[str, Any]:
    """Same-day staged UA observations (not yet committed)."""
    return {ua: sorted(hosts) for ua, hosts in history._pending.items()}


def decode_ua_pending(history: UserAgentHistory, payload: dict[str, Any]) -> None:
    for ua, hosts in payload.items():
        history._pending.setdefault(ua, set()).update(hosts)


def encode_bp_result(result) -> dict[str, Any]:
    """Belief-propagation beliefs for warm restart (graph/trace dropped)."""
    return {
        "hosts": sorted(result.hosts),
        "domains": sorted(result.domains),
        "detections": [
            [d.domain, d.iteration, d.reason, d.score] for d in result.detections
        ],
    }


def decode_bp_result(payload: dict[str, Any]):
    """Rebuild a BP result from :func:`encode_bp_result` output.

    The result becomes an engine's ``prior``, whose detections'
    iterations say where the day's run of Algorithm 1 resumes, so every
    field is checked rather than coerced.
    """
    from .core.beliefprop import BeliefPropagationResult, Detection

    names: dict[str, set[str]] = {}
    for key in ("hosts", "domains"):
        values = payload[key]
        if not isinstance(values, list) or not all(
            isinstance(name, str) for name in values
        ):
            raise StateError(f"prior {key!r} is not a list of strings")
        names[key] = set(values)
    detections = []
    for entry in payload["detections"]:
        if not isinstance(entry, list) or len(entry) != 4:
            raise StateError(
                f"prior detection {entry!r} is not "
                "[domain, iteration, reason, score]"
            )
        domain, iteration, reason, score = entry
        if not isinstance(domain, str) or domain not in names["domains"]:
            raise StateError(
                f"prior detection {entry!r} names a domain that is not in "
                "the prior's 'domains'"
            )
        if type(iteration) is not int or iteration < 0:
            raise StateError(
                f"prior detection {entry!r}: iteration must be an "
                "integer >= 0"
            )
        if reason not in ("seed", "cc", "similarity"):
            raise StateError(
                f"prior detection {entry!r}: reason must be 'seed', 'cc' "
                "or 'similarity'"
            )
        if (
            isinstance(score, bool)
            or not isinstance(score, (int, float))
            or not math.isfinite(score)
        ):
            raise StateError(
                f"prior detection {entry!r}: score must be a finite number"
            )
        detections.append(Detection(domain, iteration, reason, float(score)))
    return BeliefPropagationResult(
        hosts=names["hosts"],
        domains=names["domains"],
        detections=detections,
        trace=[],
    )


#: Layout tag of an engine document's ``window`` section.  The section
#: is versioned on its own: ``STATE_VERSION`` is shared with the
#: ``--model-state`` detector documents, which this layout does not
#: touch.
WINDOW_LAYOUT = "event-columns/1"

#: Packed little-endian dtypes of the three event columns.
_INDEX_DTYPE = np.dtype("<u4")
_TIME_DTYPE = np.dtype("<f8")

#: Rows per base64 piece of a written window column.  A multiple of
#: 3, so every piece but the last packs to a whole number of 3-byte
#: groups, and the pieces join to the base64 of the whole column.
_CHUNK_ROWS = 3 * 2048


class _PackedColumn(NamedTuple):
    """One window column as :func:`encode_window` hands it to the
    writer: a view of the traffic store's append-only event prefix
    (later ingests land past it, so it stays a snapshot), the dtype it
    is packed as, and the shift and mask that take an index out of the
    packed ``(host << 32) | domain`` pair key."""

    rows: np.ndarray
    dtype: np.dtype
    shift: int = 0
    mask: int | None = None


def _column_pieces(column: _PackedColumn) -> Iterator[str]:
    """The column's base64 text, :data:`_CHUNK_ROWS` rows at a time:
    no packed copy of the whole column ever exists."""
    for start in range(0, len(column.rows), _CHUNK_ROWS):
        rows = column.rows[start:start + _CHUNK_ROWS]
        if column.shift:
            rows = rows >> column.shift
        if column.mask is not None:
            rows = rows & column.mask
        packed = rows.astype(column.dtype, copy=False)
        yield base64.b64encode(packed).decode("ascii")


def _unpack_column(text: Any, dtype: np.dtype, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise StateError(
            f"window column {name!r} is not valid base64: {exc}"
        ) from exc
    if len(raw) % dtype.itemsize:
        raise StateError(
            f"window column {name!r} is torn: {len(raw)} bytes is not a "
            f"multiple of {dtype.itemsize}"
        )
    return np.frombuffer(raw, dtype=dtype)


def encode_window(window) -> dict[str, Any]:
    """The mid-day traffic window, as it is in memory: the day's events
    in arrival order as three packed little-endian columns (host index
    and domain index ``u4``, timestamp ``f8``; base64 on disk) over the
    two name tables in first-appearance order, plus the small
    per-domain feature sets.

    The columns are :class:`_PackedColumn` views of the traffic's
    event store, packed only as :func:`save_json_atomic` writes them,
    so the section is not ``json.dumps``-able; its file reads back as
    plain JSON, base64 strings in their place.

    The rare set, the dirty-domain set and the per-pair automation
    verdicts are all derived state, recomputed on restore by
    :meth:`repro.streaming.StreamingDetector.resync`.
    """
    traffic = window.traffic
    host_names, domain_names, pairs, times = traffic.event_columns()
    return {
        "layout": WINDOW_LAYOUT,
        "day": window.day,
        "events_today": window.events_today,
        "hosts": host_names,
        "domains": domain_names,
        "host_index": _PackedColumn(pairs, _INDEX_DTYPE, shift=PAIR_SHIFT),
        "domain_index": _PackedColumn(pairs, _INDEX_DTYPE, mask=DOMAIN_MASK),
        "timestamps": _PackedColumn(times, _TIME_DTYPE),
        "resolved_ips": {
            domain: sorted(ips) for domain, ips in traffic.resolved_ips.items()
        },
        "no_referer_hosts": {
            domain: sorted(hosts)
            for domain, hosts in traffic.no_referer_hosts.items()
        },
        "rare_ua_hosts": {
            domain: sorted(hosts)
            for domain, hosts in traffic.rare_ua_hosts.items()
        },
    }


def decode_window(window, payload: dict[str, Any]) -> None:
    """Refill a fresh :class:`WindowedAggregator` from its snapshot:
    open its day, intern the name tables, append the event columns and
    group them -- with the resolved IPs -- in the traffic's one
    finalize pass, the route live ingest takes.

    A document whose columns disagree with each other, with
    ``events_today`` or with the name tables is refused: the replay
    skips ``events_today`` rows of the day's file on resume, so a torn
    or edited window would silently skip the wrong ones.  So is one
    whose feature sections name a domain or host missing from the
    tables: it would restore a phantom and write it out again.
    """
    layout = payload.get("layout")
    if layout != WINDOW_LAYOUT:
        raise StateError(
            f"unsupported checkpoint window layout {layout!r} (this build "
            f"reads {WINDOW_LAYOUT!r}); a checkpoint written by another "
            "build cannot be resumed -- restart the day without --resume"
        )
    host_names = [str(name) for name in payload["hosts"]]
    domain_names = [str(name) for name in payload["domains"]]
    host_index = _unpack_column(
        payload["host_index"], _INDEX_DTYPE, "host_index"
    )
    domain_index = _unpack_column(
        payload["domain_index"], _INDEX_DTYPE, "domain_index"
    )
    times = _unpack_column(payload["timestamps"], _TIME_DTYPE, "timestamps")
    events_today = int(payload["events_today"])
    if not len(host_index) == len(domain_index) == len(times):
        raise StateError(
            "window columns differ in length: "
            f"host_index={len(host_index)}, "
            f"domain_index={len(domain_index)}, timestamps={len(times)}"
        )
    if len(times) != events_today:
        raise StateError(
            f"window says events_today={events_today} but its columns "
            f"hold {len(times)} events"
        )
    for name, index, table in (
        ("host_index", host_index, host_names),
        ("domain_index", domain_index, domain_names),
    ):
        if len(index) and int(index.max()) >= len(table):
            raise StateError(
                f"window column {name!r} points past its name table "
                f"({int(index.max())} >= {len(table)})"
            )
        if len(set(table)) != len(table):
            raise StateError(
                f"window name table for {name!r} repeats a name"
            )
    # Ingest records these sections only under names it has interned.
    domain_set, host_set = set(domain_names), set(host_names)
    for section in ("resolved_ips", "no_referer_hosts", "rare_ua_hosts"):
        for domain, members in payload[section].items():
            named = [(domain, "domains", domain_set)]
            if section != "resolved_ips":
                named += [(host, "hosts", host_set) for host in members]
            for name, table, names in named:
                if name not in names:
                    raise StateError(
                        f"window section {section!r} names {name!r}, "
                        f"which is not in its {table!r} table"
                    )
    window.open_day(int(payload["day"]))
    window.events_today = events_today
    traffic = window.traffic
    traffic.load_events(
        host_names, domain_names, host_index, domain_index, times,
        payload["resolved_ips"],
    )
    for domain, hosts in payload["no_referer_hosts"].items():
        traffic.no_referer_hosts[domain] = set(hosts)
    for domain, hosts in payload["rare_ua_hosts"].items():
        traffic.rare_ua_hosts[domain] = set(hosts)


def _engine_base_state(
    detector, kind: str, include_metrics: bool
) -> dict[str, Any]:
    """The half of an engine document that is engine-base state,
    whatever the pipeline: the in-flight day window, the previous
    belief-propagation round and (when enabled and ``include_metrics``
    -- see :func:`encode_engine`) the metrics snapshot, so counters
    survive a checkpoint restart.

    A document holds only what a resume reads: no policy (the
    warm-start policy is the restoring caller's), no counter that
    nothing reads, no wall clock.

    Events submitted but not yet polled are not part of a snapshot;
    callers must ``poll()`` first or they would be lost across a
    restore.
    """
    queued = detector.events_pending
    if queued:
        raise StateError(
            f"{queued} events still queued (submitted, not polled); "
            "call poll() before snapshotting"
        )
    return {
        "version": STATE_VERSION,
        "kind": kind,
        "window": encode_window(detector.window),
        "prior": (
            encode_bp_result(detector.prior)
            if detector.prior is not None else None
        ),
        "metrics": (
            detector.metrics.snapshot().as_dict()
            if include_metrics and detector.metrics.enabled else None
        ),
    }


def _restore_engine_base(detector, payload: dict[str, Any], metrics) -> None:
    """Refill a freshly built engine from :func:`_engine_base_state`'s
    half of its document and rebuild its derived state.  A checkpointed
    metrics snapshot (if any) is folded into ``metrics`` so counters
    continue across the restart."""
    decode_window(detector.window, payload["window"])
    if payload["prior"] is not None:
        detector.prior = decode_bp_result(payload["prior"])
    snapshot = payload.get("metrics")
    if snapshot and metrics is not None and metrics.enabled:
        from .obs.metrics import MetricsSnapshot

        metrics.restore(MetricsSnapshot.from_dict(snapshot))
    detector.resync()


def _encode_whois_impute(whois) -> dict[str, Any] | None:
    """The WHOIS imputation counters -- detection state: imputed
    features depend on the running means, so a restore resumes them."""
    if whois is None:
        return None
    return {
        "age_sum": whois._age_sum,
        "validity_sum": whois._validity_sum,
        "observed": whois._observed,
    }


def _decode_whois_impute(whois, impute: dict[str, Any]) -> None:
    whois._age_sum = float(impute["age_sum"])
    whois._validity_sum = float(impute["validity_sum"])
    whois._observed = int(impute["observed"])


def encode_engine(engine, *, include_metrics: bool = False) -> dict[str, Any]:
    """Snapshot a streaming engine of either pipeline, tagged with its
    ``kind``.

    Both kinds open with the engine-base half
    (:func:`_engine_base_state`), so a restore resumes mid-day from
    the same window and prior.  A ``"streaming"`` (DNS) document adds
    the detection config, the reduction filters and the destination
    history; a ``"streaming-enterprise"`` one wraps the trained
    detector's document (config, histories, both regression models)
    with the same-day staged UA observations, the start day and the
    WHOIS imputation counters.  WHOIS *records* are an external
    registry, re-attached on restore; the reduction funnel's Figure 2
    counters are observability and are not snapshotted.

    The document is for :func:`save_json_atomic`, not ``json.dumps``:
    its window's event columns are views of the engine's event store
    (:func:`encode_window`; still a snapshot, as later ingests land
    past them), base64-packed chunk by chunk as the file is written.
    What :func:`load_json` reads back is plain JSON, and
    :func:`restore_engine` takes that.

    Fleet checkpoints never embed metrics snapshots (the default):
    fleet engines share one registry per worker process, so per-tenant
    snapshots would multiply the shared counters on restore; the
    fleet-wide metrics snapshot is persisted in the fleet state
    instead.  The single-engine ``stream`` replay owns its registry
    and passes ``include_metrics=True``.
    """
    from .streaming import StreamingEnterpriseDetector

    if isinstance(engine, StreamingEnterpriseDetector):
        batch = engine.batch
        return {
            **_engine_base_state(
                engine, "streaming-enterprise", include_metrics
            ),
            "detector": detector_state(batch),
            "ua_pending": encode_ua_pending(batch.ua_history),
            "start_day": engine.start_day,
            "whois_impute": _encode_whois_impute(batch.extractor.whois),
        }
    return {
        **_engine_base_state(engine, "streaming", include_metrics),
        "config": encode_config(engine.config),
        "internal_suffixes": list(engine.internal_suffixes),
        "server_ips": sorted(engine.server_ips),
        "history": encode_history(engine.history),
    }


@reading_document("engine checkpoint")
def restore_engine(
    payload: dict[str, Any], whois=None, *, metrics=None,
    kind: str | None = None,
):
    """Rebuild a streaming engine from :func:`encode_engine` output.

    The document's ``kind`` tag picks the engine.  A caller that knows
    which engine it wants passes that ``kind``, and a document of the
    other one is refused.  ``whois`` re-attaches an enterprise engine's
    registration registry (not part of the snapshot); without it the
    regression features fall back to imputation, resumed from the
    snapshotted counters.  ``metrics`` attaches a
    :class:`repro.obs.MetricsRegistry` to the restored engine.
    """
    from .streaming import StreamingDetector, StreamingEnterpriseDetector

    if kind is None:
        kind = payload.get("kind")
        if kind not in ("streaming", "streaming-enterprise"):
            raise StateError(
                f"not a streaming engine checkpoint (kind={kind!r})"
            )
    version = payload.get("version")
    if version != STATE_VERSION:
        raise StateError(f"unsupported state version {version!r}")
    if payload.get("kind") != kind:
        raise StateError(
            f"not a {kind} checkpoint (kind={payload.get('kind')!r})"
        )
    if kind == "streaming":
        detector = StreamingDetector(
            config=decode_config(payload["config"]),
            internal_suffixes=tuple(payload["internal_suffixes"]),
            server_ips=frozenset(payload["server_ips"]),
            history=decode_history(payload["history"]),
            metrics=metrics,
        )
    else:
        batch = restore_detector(payload["detector"], whois=whois)
        if payload.get("ua_pending"):
            decode_ua_pending(batch.ua_history, payload["ua_pending"])
        detector = StreamingEnterpriseDetector(
            batch,
            start_day=int(payload["start_day"]),
            metrics=metrics,
        )
        impute = payload.get("whois_impute")
        if impute is not None:
            if batch.extractor.whois is None:
                # The original engine had a registry; keep imputing from
                # the snapshotted means even when it isn't re-attached,
                # so registration features degrade gracefully instead of
                # snapping to the cold defaults.
                from .features.whois import WhoisFeatureExtractor

                batch.extractor.whois = WhoisFeatureExtractor(WhoisDatabase())
            _decode_whois_impute(batch.extractor.whois, impute)
    _restore_engine_base(detector, payload, metrics)
    return detector


#: The keys that lead to a window section: an engine document's
#: ``window``, a fleet tenant wrapper's ``engine``.
_WINDOW_PATH = frozenset({"engine", "window"})


def _json_pieces(payload: dict[str, Any]) -> Iterator[str]:
    """``json.dumps(payload)``, in pieces that join to the same text --
    with each :class:`_PackedColumn` as the JSON string of its base64.

    The dicts on the way to a window section are written key by key,
    and each column goes out in :data:`_CHUNK_ROWS`-row base64 pieces
    (base64 needs no JSON escaping); everything else is one
    ``json.dumps`` per value.  So no piece holds a whole column, and
    no joined text of the whole window ever exists.
    """
    yield "{"
    for position, (key, value) in enumerate(payload.items()):
        yield f"{', ' if position else ''}{json.dumps(key)}: "
        if isinstance(value, _PackedColumn):
            yield '"'
            yield from _column_pieces(value)
            yield '"'
        elif key in _WINDOW_PATH and isinstance(value, dict):
            yield from _json_pieces(value)
        else:
            yield json.dumps(value)
    yield "}"


def save_json_atomic(payload: dict[str, Any], path: str | Path) -> None:
    """Serialize ``payload`` to ``path`` atomically (temp file + rename).

    Checkpoints are written continuously while streaming (and
    concurrently across fleet tenants), and a crash mid-write must
    never destroy the previous good document -- that file is exactly
    what ``--resume`` needs afterwards.  The bytes are those of
    ``json.dumps(payload)`` with each window column packed whole, and
    are written piece by piece (:func:`_json_pieces`): a checkpoint's
    transient is one chunk of one column, whatever the window holds.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="ascii", newline="") as out:
        for piece in _json_pieces(payload):
            out.write(piece)
    os.replace(tmp, path)


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON state document, wrapping parse errors in StateError."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StateError(f"corrupt state file {path}: {exc}") from exc


def save_streaming(detector, path: str | Path) -> None:
    """Write an engine's checkpoint, metrics included, to ``path``."""
    save_json_atomic(encode_engine(detector, include_metrics=True), path)


#: The same file wrapper: the document's ``kind`` says which engine.
save_streaming_enterprise = save_streaming


def load_streaming(path: str | Path, whois=None, *, metrics=None):
    """Restore an engine checkpoint written by :func:`save_streaming`."""
    return restore_engine(load_json(path), whois, metrics=metrics)


def save_detector(detector: EnterpriseDetector, path: str | Path) -> None:
    """Write a trained detector's state to ``path`` as JSON."""
    Path(path).write_text(json.dumps(detector_state(detector), indent=1))


def load_detector(
    path: str | Path, whois: WhoisDatabase | None = None
) -> EnterpriseDetector:
    """Restore a detector previously saved with :func:`save_detector`."""
    return restore_detector(load_json(path), whois=whois)
