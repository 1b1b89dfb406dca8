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
import functools
import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from .config import (
    BeliefPropagationConfig,
    HistogramConfig,
    RarityConfig,
    SystemConfig,
)
from .core.pipeline import EnterpriseDetector
from .core.scoring import RegressionCCScorer, RegressionSimilarityScorer
from .features.regression import Coefficient, LinearModel
from .intel.whois_db import WhoisDatabase
from .profiling.history import DestinationHistory
from .profiling.ua import UserAgentHistory

STATE_VERSION = 1


class StateError(RuntimeError):
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
    field is checked rather than coerced.  (A checkpoint written before
    carried labels kept their iteration reads 0 for all of them: its
    chain may spend one more ``max_iterations`` after the restore.)
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


def _pack_column(values: np.ndarray, dtype: np.dtype) -> str:
    packed = values.astype(dtype, copy=False).tobytes()
    return base64.b64encode(packed).decode("ascii")


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
    and domain index ``u4``, timestamp ``f8``; base64) over the two
    name tables in first-appearance order, plus the small per-domain
    feature sets.

    The rare set, the dirty-domain set and the verdict cache are all
    derived state, recomputed on restore by
    :meth:`repro.streaming.StreamingDetector.resync`.
    """
    traffic = window.traffic
    host_names, domain_names, host_index, domain_index, times = (
        traffic.event_columns()
    )
    return {
        "layout": WINDOW_LAYOUT,
        "day": window.day,
        "events_today": window.events_today,
        "hosts": host_names,
        "domains": domain_names,
        "host_index": _pack_column(host_index, _INDEX_DTYPE),
        "domain_index": _pack_column(domain_index, _INDEX_DTYPE),
        "timestamps": _pack_column(times, _TIME_DTYPE),
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
    intern the name tables, append the event columns, group them in the
    traffic's one ``finalize()`` pass.

    A document whose columns disagree with each other, with
    ``events_today`` or with the name tables is refused: the replay
    skips ``events_today`` rows of the day's file on resume, so a torn
    or edited window would silently skip the wrong ones.
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
    window.day = int(payload["day"])
    window.events_today = events_today
    traffic = window.traffic
    traffic.day = window.day
    traffic.load_events(
        host_names, domain_names, host_index, domain_index, times
    )
    for domain, ips in payload["resolved_ips"].items():
        traffic.resolved_ips[domain] = set(ips)
    for domain, hosts in payload["no_referer_hosts"].items():
        traffic.no_referer_hosts[domain] = set(hosts)
    for domain, hosts in payload["rare_ua_hosts"].items():
        traffic.rare_ua_hosts[domain] = set(hosts)


def _require_polled(detector) -> None:
    """Refuse to snapshot an engine with events on its pending list."""
    queued = detector.events_pending
    if queued:
        raise StateError(
            f"{queued} events still queued (submitted, not polled); "
            "call poll() before snapshotting"
        )


def _engine_base_state(
    detector, kind: str, include_metrics: bool
) -> dict[str, Any]:
    """The half of an engine document that is engine-base state,
    whatever the pipeline: the in-flight day window, the previous
    belief-propagation round, the warm-start policy, the event counter
    and (when enabled and ``include_metrics`` -- see
    :func:`encode_engine`) the metrics snapshot, so counters survive a
    checkpoint restart.

    Events submitted but not yet polled are not part of a snapshot;
    callers must ``poll()`` first or they would be lost across a
    restore.
    """
    _require_polled(detector)
    return {
        "version": STATE_VERSION,
        "kind": kind,
        "window": encode_window(detector.window),
        "prior": (
            encode_bp_result(detector.prior)
            if detector.prior is not None else None
        ),
        "events_total": detector.events_total,
        "warm": {
            "enabled": detector.warm.enabled,
            "full_recompute_fraction": detector.warm.full_recompute_fraction,
        },
        "metrics": (
            detector.metrics.snapshot().as_dict()
            if include_metrics and detector.metrics.enabled else None
        ),
    }


def _engine_document_reader(restore):
    """Decorate an engine-restore function so that a structurally
    incomplete or ill-typed document (valid JSON, wrong shape) raises
    :class:`StateError` -- what callers and the CLI's one-line ``error:``
    exit handle -- instead of whichever ``KeyError`` / ``TypeError`` the
    first bad key happens to produce."""

    @functools.wraps(restore)
    def reader(payload, *args, **keywords):
        try:
            return restore(payload, *args, **keywords)
        except (
            KeyError, TypeError, ValueError, AttributeError, IndexError
        ) as exc:
            raise StateError(
                "malformed engine checkpoint: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    return reader


def _check_engine_document(payload: dict[str, Any], kind: str):
    """Validate an engine document's version and kind tag; returns its
    warm-start policy (a constructor argument of both engines)."""
    from .streaming import WarmStartConfig

    version = payload.get("version")
    if version != STATE_VERSION:
        raise StateError(f"unsupported state version {version!r}")
    if payload.get("kind") != kind:
        raise StateError(
            f"not a {kind} checkpoint (kind={payload.get('kind')!r})"
        )
    return WarmStartConfig(
        enabled=bool(payload["warm"]["enabled"]),
        full_recompute_fraction=float(
            payload["warm"]["full_recompute_fraction"]
        ),
    )


def _restore_engine_base(detector, payload: dict[str, Any], metrics) -> None:
    """Refill a freshly built engine from :func:`_engine_base_state`'s
    half of its document and rebuild its derived state.  A checkpointed
    metrics snapshot (if any) is folded into ``metrics`` so counters
    continue across the restart."""
    decode_window(detector.window, payload["window"])
    if payload["prior"] is not None:
        detector.prior = decode_bp_result(payload["prior"])
    detector.events_total = int(payload["events_total"])
    snapshot = payload.get("metrics")
    if snapshot and metrics is not None and metrics.enabled:
        from .obs.metrics import MetricsSnapshot

        metrics.restore(MetricsSnapshot.from_dict(snapshot))
    detector.resync()


def streaming_state(detector, *, include_metrics: bool = True) -> dict[str, Any]:
    """Full JSON-serializable snapshot of a streaming detector.

    Extends the version-1 detector document with the ``"streaming"``
    kind: the long-lived histories, the filters, and the engine-base
    half (:func:`_engine_base_state`), so a restore resumes mid-day
    with warm-start intact.  The reduction funnel's Figure 2 counters
    are observability, not detection state, and are not snapshotted.
    """
    ua_history = detector.window.ua_history
    return {
        **_engine_base_state(detector, "streaming", include_metrics),
        "config": encode_config(detector.config),
        "internal_suffixes": list(detector.internal_suffixes),
        "server_ips": sorted(detector.server_ips),
        "history": encode_history(detector.history),
        "ua_history": (
            encode_ua_history(ua_history) if ua_history is not None else None
        ),
        "ua_pending": (
            encode_ua_pending(ua_history) if ua_history is not None else None
        ),
    }


@_engine_document_reader
def restore_streaming(payload: dict[str, Any], *, metrics=None):
    """Rebuild a :class:`~repro.streaming.StreamingDetector` snapshot.

    ``metrics`` attaches a :class:`repro.obs.MetricsRegistry` to the
    restored engine.
    """
    from .streaming import StreamingDetector

    warm = _check_engine_document(payload, "streaming")
    ua_history = None
    if payload["ua_history"] is not None:
        ua_history = decode_ua_history(payload["ua_history"])
        if payload.get("ua_pending"):
            decode_ua_pending(ua_history, payload["ua_pending"])
    detector = StreamingDetector(
        config=decode_config(payload["config"]),
        internal_suffixes=tuple(payload["internal_suffixes"]),
        server_ips=frozenset(payload["server_ips"]),
        history=decode_history(payload["history"]),
        ua_history=ua_history,
        warm=warm,
        metrics=metrics,
    )
    _restore_engine_base(detector, payload, metrics)
    return detector


# ---------------------------------------------------------------------------
# Streaming enterprise checkpoint (trained models + mid-day window)
# ---------------------------------------------------------------------------

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


def streaming_enterprise_state(
    detector, *, include_metrics: bool = True
) -> dict[str, Any]:
    """Snapshot of a :class:`~repro.streaming.StreamingEnterpriseDetector`.

    Wraps the trained batch detector's document (config, histories,
    both regression models) with the streaming extras: same-day staged
    UA observations, the WHOIS imputation counters and the engine-base
    half (:func:`_engine_base_state`).  WHOIS *records* are an external
    registry and are re-attached by the caller.
    """
    return {
        **_engine_base_state(
            detector, "streaming-enterprise", include_metrics
        ),
        "detector": detector_state(detector.batch),
        "ua_pending": encode_ua_pending(detector.batch.ua_history),
        "start_day": detector.start_day,
        "whois_impute": _encode_whois_impute(detector.batch.extractor.whois),
    }


@_engine_document_reader
def restore_streaming_enterprise(
    payload: dict[str, Any], whois=None, *, metrics=None
):
    """Rebuild a streaming enterprise detector from its snapshot.

    ``whois`` re-attaches the external registration registry (not part
    of the snapshot); without it the regression features fall back to
    imputation, resumed from the snapshotted counters.
    """
    from .streaming import StreamingEnterpriseDetector

    warm = _check_engine_document(payload, "streaming-enterprise")
    batch = restore_detector(payload["detector"], whois=whois)
    if payload.get("ua_pending"):
        decode_ua_pending(batch.ua_history, payload["ua_pending"])
    detector = StreamingEnterpriseDetector(
        batch,
        start_day=int(payload["start_day"]),
        warm=warm,
        metrics=metrics,
    )
    impute = payload.get("whois_impute")
    if impute is not None:
        if batch.extractor.whois is None:
            # The original engine had a registry; keep imputing from
            # the snapshotted means even when it isn't re-attached, so
            # registration features degrade gracefully instead of
            # snapping to the cold defaults.
            from .features.whois import WhoisFeatureExtractor

            batch.extractor.whois = WhoisFeatureExtractor(WhoisDatabase())
        _decode_whois_impute(batch.extractor.whois, impute)
    _restore_engine_base(detector, payload, metrics)
    return detector


def save_streaming_enterprise(detector, path: str | Path) -> None:
    """Write a streaming enterprise detector's checkpoint as JSON."""
    save_json_atomic(streaming_enterprise_state(detector), path)


def load_streaming_enterprise(path: str | Path, whois=None, *, metrics=None):
    """Restore a checkpoint saved with :func:`save_streaming_enterprise`."""
    return restore_streaming_enterprise(
        load_json(path), whois=whois, metrics=metrics
    )


# ---------------------------------------------------------------------------
# Engine-generic dispatch (the fleet holds engines of either pipeline)
# ---------------------------------------------------------------------------

def encode_engine(engine, *, include_metrics: bool = False) -> dict[str, Any]:
    """Snapshot a streaming engine of either pipeline (kind-tagged).

    Fleet checkpoints never embed metrics snapshots (the default):
    fleet engines share one registry per worker process, so per-tenant
    snapshots would multiply the shared counters on restore; the
    fleet-wide metrics snapshot is persisted in the fleet state
    instead.  The single-engine ``stream`` replay owns its registry
    and passes ``include_metrics=True``.
    """
    from .streaming import StreamingEnterpriseDetector

    if isinstance(engine, StreamingEnterpriseDetector):
        return streaming_enterprise_state(
            engine, include_metrics=include_metrics
        )
    return streaming_state(engine, include_metrics=include_metrics)


def restore_engine(payload: dict[str, Any], whois=None, *, metrics=None):
    """Rebuild a streaming engine from :func:`encode_engine` output,
    dispatching on the snapshot's ``kind`` tag."""
    kind = payload.get("kind")
    if kind == "streaming-enterprise":
        return restore_streaming_enterprise(
            payload, whois=whois, metrics=metrics
        )
    if kind == "streaming":
        return restore_streaming(payload, metrics=metrics)
    raise StateError(f"not a streaming engine checkpoint (kind={kind!r})")


# ---------------------------------------------------------------------------
# Barrier delta checkpoints (resident fleet workers)
# ---------------------------------------------------------------------------

def _require_barrier(detector) -> None:
    """Reject delta snapshots taken away from a day barrier.

    Right after :meth:`rollover` an engine's volatile state is empty --
    fresh window, no queued events, no staged profile entries, no
    belief-propagation prior -- so everything that changed since the
    previous barrier lives in the committed histories and a handful of
    counters.  That is the whole reason deltas are cheap; anywhere else
    they would silently drop mid-day state.
    """
    _require_polled(detector)
    if detector.window.events_today != 0:
        raise StateError(
            "window holds same-day events; delta checkpoints are "
            "barrier-only (call rollover() first)"
        )
    if detector.history._pending:
        raise StateError(
            "destination history has staged entries; delta checkpoints "
            "are barrier-only"
        )
    ua = detector.window.ua_history
    if ua is not None and ua._pending:
        raise StateError(
            "user-agent history has staged entries; delta checkpoints "
            "are barrier-only"
        )


class EngineDeltaTracker:
    """Computes per-barrier deltas of a streaming engine's state.

    A full :func:`encode_engine` snapshot re-serializes the entire
    destination history every round -- O(lifetime) work per
    tenant-day.  At a day barrier the
    only state that changed since the previous barrier is *additive*:
    new first-seen history entries, newly committed days, new
    user-agent host sightings, plus a few scalar counters.  The tracker
    keeps a baseline of what was last persisted and emits exactly those
    additions (:meth:`delta`), advancing the baseline each call.

    First-seen additions are recovered from dict insertion order (the
    history only ever appends), so a delta costs O(changes), not
    O(history).  UA host sets have no such order; the tracker keeps a
    per-UA copy of the persisted sets -- bounded by the UA vocabulary,
    which is small next to the domain history.
    """

    def __init__(self, detector) -> None:
        self.detector = detector
        self._n_domains = 0
        self._days: set[int] = set()
        self._ua: dict[str, set[str]] | None = None
        self.rebase()

    def rebase(self) -> None:
        """Reset the baseline to the engine's current state (call after
        persisting a full snapshot)."""
        history = self.detector.history
        self._n_domains = len(history._first_seen)
        self._days = set(history.committed_days)
        ua = self.detector.window.ua_history
        self._ua = (
            {u: set(hosts) for u, hosts in ua._hosts_by_ua.items()}
            if ua is not None else None
        )

    def delta(self) -> dict[str, Any]:
        """Additions since the baseline, as a JSON-able document.

        Barrier-only (see :func:`_require_barrier`); advances the
        baseline, so consecutive calls chain.
        """
        from itertools import islice

        detector = self.detector
        _require_barrier(detector)
        history = detector.history
        first_seen = dict(
            islice(history._first_seen.items(), self._n_domains, None)
        )
        committed = sorted(set(history.committed_days) - self._days)
        ua = detector.window.ua_history
        ua_hosts: dict[str, list[str]] | None = None
        if ua is not None:
            assert self._ua is not None
            ua_hosts = {}
            for agent, hosts in ua._hosts_by_ua.items():
                seen = self._ua.get(agent)
                new = hosts - seen if seen is not None else set(hosts)
                if new:
                    ua_hosts[agent] = sorted(new)
        payload: dict[str, Any] = {
            "window_day": detector.window.day,
            "events_total": detector.events_total,
            "first_seen": first_seen,
            "committed_days": committed,
            "ua_hosts": ua_hosts,
        }
        batch = getattr(detector, "batch", None)
        if batch is not None and batch.extractor.whois is not None:
            payload["whois_impute"] = _encode_whois_impute(
                batch.extractor.whois
            )
        self.rebase()
        return payload


def apply_engine_delta(detector, delta: dict[str, Any]) -> None:
    """Replay one barrier delta onto a restored streaming engine.

    Applies the history/UA additions, advances the window to the
    delta's (empty) day and restores the scalar counters.  Callers
    apply deltas in round order and finish the chain with a single
    ``detector.resync()``.
    """
    history = detector.history
    for domain, day in delta["first_seen"].items():
        history._first_seen.setdefault(str(domain), int(day))
    history._committed_days.update(int(d) for d in delta["committed_days"])
    ua = detector.window.ua_history
    if delta.get("ua_hosts") and ua is not None:
        for agent, hosts in delta["ua_hosts"].items():
            ua._hosts_by_ua.setdefault(agent, set()).update(hosts)
    detector.window.open_day(int(delta["window_day"]))
    detector.prior = None
    detector.events_total = int(delta["events_total"])
    impute = delta.get("whois_impute")
    if impute is not None:
        batch = getattr(detector, "batch", None)
        extractor = batch.extractor.whois if batch is not None else None
        if extractor is not None:
            _decode_whois_impute(extractor, impute)


def save_json_atomic(payload: dict[str, Any], path: str | Path) -> None:
    """Serialize ``payload`` to ``path`` atomically (temp file + rename).

    Checkpoints are written continuously while streaming (and
    concurrently across fleet tenants), and a crash mid-write must
    never destroy the previous good document -- that file is exactly
    what ``--resume`` needs afterwards.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON state document, wrapping parse errors in StateError."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StateError(f"corrupt state file {path}: {exc}") from exc


def save_streaming(detector, path: str | Path) -> None:
    """Write a streaming detector's checkpoint to ``path`` as JSON."""
    save_json_atomic(streaming_state(detector), path)


def load_streaming(path: str | Path, *, metrics=None):
    """Restore a checkpoint previously saved with :func:`save_streaming`."""
    return restore_streaming(load_json(path), metrics=metrics)


def save_detector(detector: EnterpriseDetector, path: str | Path) -> None:
    """Write a trained detector's state to ``path`` as JSON."""
    Path(path).write_text(json.dumps(detector_state(detector), indent=1))


def load_detector(
    path: str | Path, whois: WhoisDatabase | None = None
) -> EnterpriseDetector:
    """Restore a detector previously saved with :func:`save_detector`."""
    return restore_detector(load_json(path), whois=whois)
