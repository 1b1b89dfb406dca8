"""The traced in-process run: where each CLI path's wall time goes.

Each walk re-walks one CLI path *from outside*, using only the public
functions that path composes today (``DnsLogRunner._aggregate``'s
sequence for ``run``; ``drive_replay``'s loop for ``stream``;
``FleetManager.from_manifest(...).run(on_round=...)`` plus solo engine
replays for ``fleet``), materialising one 8192-line file chunk per
stage so each stage's time is its own.  Spans (name, start, end,
parent) stay in memory and are written out once at the end.  Stages a
public call reports itself (``stage_seconds``) become child spans of
that call, so a layer's seconds are always *self* times and the layers
sum to the traced wall.

Spans inside ``src/`` are a later issue; so is re-pointing a probe when
a later PR removes the function it calls (the walk then fails as a
whole, its metrics read 0 and ``trace.probes_missing`` counts them --
end-to-end metrics depend on nothing but the CLI and are unaffected).
"""

from __future__ import annotations

import json
import resource
import shutil
import time
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from e2e_inputs import INTERNAL_SUFFIX, Workload
from e2e_measure import DayLine, percentile

CHUNK_LINES = 8192


class Tracer:
    """In-memory span recorder; a span is ``[name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time a block; nests under whatever span is open."""
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span measured elsewhere (a barrier callback)."""
        self.spans.append([name, start, end, parent])

    def split(self, parent: int, stages: dict[str, float]) -> None:
        """Turn the stage seconds a call reported into its child spans.

        Their true start times are unknown, so they are laid end to end
        from the parent's start and clipped to its duration; only
        durations are ever read back.
        """
        _, start, end, _ = self.spans[parent]
        cursor = start
        for name, seconds in stages.items():
            stop = min(cursor + max(seconds, 0.0), end)
            self.add(name, cursor, stop, parent)
            cursor = stop


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_seconds(spans: list[list]) -> dict[str, float]:
    """Self seconds summed by span name."""
    totals: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def durations_ms(spans: list[list], name: str) -> list[float]:
    """Whole durations (not self times) of every span called ``name``."""
    return [
        (end - start) * 1000.0
        for span_name, start, end, _ in spans if span_name == name
    ]


# ---------------------------------------------------------------------------
# Shared stages
# ---------------------------------------------------------------------------

def _traced_events(tr: Tracer, path: Path, counts: dict, *,
                   funnel=None, fold_level: int):
    """Yield each file chunk's normalized events, one span per stage.

    ``funnel`` selects the DNS route (parse, reduce, normalize); without
    it the chunk takes the proxy route (parse, normalize).
    """
    from repro.logs.dns import parse_dns_log
    from repro.logs.normalize import (
        IpResolver,
        normalize_dns_records,
        normalize_proxy_records,
    )
    from repro.logs.proxy import parse_proxy_log

    resolver = IpResolver()
    with path.open() as handle:
        while True:
            with tr.span("logs.read"):
                lines = list(islice(handle, CHUNK_LINES))
            if not lines:
                return
            if funnel is not None:
                with tr.span("logs.parse"):
                    raw = list(parse_dns_log(lines))
                counts["parsed"] += len(raw)
                counts["funnel_in"] += len(raw)
                with tr.span("logs.reduce"):
                    kept = list(funnel.reduce(raw))
                counts["funnel_out"] += len(kept)
                with tr.span("logs.normalize"):
                    events = list(
                        normalize_dns_records(kept, fold_level=fold_level)
                    )
            else:
                with tr.span("logs.parse"):
                    raw = list(parse_proxy_log(lines))
                counts["parsed"] += len(raw)
                with tr.span("logs.normalize"):
                    events = list(normalize_proxy_records(
                        raw, resolver, fold_level=fold_level
                    ))
            counts["events"] += len(events)
            yield events


_ROLLOVER_STAGES = {
    "rare": "profiling.rare",
    "automation": "timing.automation",
    "cc": "features.cc",
    "bp": "core.bp",
    "commit": "profiling.commit",
}


def _traced_rollover(tr: Tracer, detector, counts: dict, *, detect: bool):
    """``engine.rollover()`` with its reported stages as child spans."""
    with tr.span("streaming.rollover") as index:
        report = detector.rollover(detect=detect)
    tr.split(index, {
        _ROLLOVER_STAGES[stage]: seconds
        for stage, seconds in report.stage_seconds.items()
        if stage in _ROLLOVER_STAGES
    })
    if detect:
        counts["rare_domains"] += len(report.rare_domains)
    return report


def _new_counts() -> dict:
    return dict.fromkeys(
        ("parsed", "funnel_in", "funnel_out", "events", "rare_domains",
         "series", "batches", "score_rounds", "checkpoint_kb_max",
         "largest_events_today"), 0,
    )


# ---------------------------------------------------------------------------
# run  (DnsLogRunner._aggregate / process_records / _commit)
# ---------------------------------------------------------------------------

def walk_run(tr: Tracer, workload: Workload, layout: Path, tmp: Path):
    """Batch detection over a DNS layout, stage by stage."""
    from repro.config import LANL_CONFIG as config
    from repro.core.scoring import AdditiveSimilarityScorer
    from repro.logs.reduction import ReductionFunnel
    from repro.profiling.history import DestinationHistory
    from repro.profiling.rare import DailyTraffic, extract_rare_domains
    from repro.runner import detect_on_traffic
    from repro.timing.detector import AutomationDetector

    counts = _new_counts()
    fold_level = config.rarity.fold_level
    history = DestinationHistory()
    automation = AutomationDetector(config.histogram)
    scorer = AdditiveSimilarityScorer()
    funnel = ReductionFunnel((INTERNAL_SUFFIX,), fold_level=fold_level)
    days: list[DayLine] = []
    paths = sorted(layout.glob("dns-*.log"))
    for day, path in enumerate(paths):
        connections: list = []
        for events in _traced_events(
            tr, path, counts, funnel=funnel, fold_level=fold_level
        ):
            connections.extend(events)
        with tr.span("profiling.ingest"):
            traffic = DailyTraffic(day)
            traffic.ingest(connections)
            traffic.finalize()
        with tr.span("profiling.rare"):
            rare = extract_rare_domains(
                traffic, history,
                unpopular_max_hosts=config.rarity.unpopular_max_hosts,
            )
        if day >= workload.size["bootstrap_files"]:
            with tr.span("trace.probe"):
                counts["series"] += len(traffic.rare_series(rare))
            counts["rare_domains"] += len(rare)
            with tr.span("core.detect_day") as index:
                detection = detect_on_traffic(
                    traffic, rare, automation=automation, scorer=scorer,
                    config=config,
                )
            tr.split(index, {
                "timing.automation":
                    detection.stage_seconds.get("automation", 0.0),
                "core.bp": detection.stage_seconds.get("bp", 0.0),
            })
            days.append(DayLine(
                "", path.name, len(connections), tuple(detection.detected),
            ))
        with tr.span("profiling.commit"):
            for domain in traffic.hosts_by_domain:
                history.stage(domain, day)
            history.commit_day(day)
    return days, counts, {}


# ---------------------------------------------------------------------------
# stream  (drive_replay's loop, both pipelines)
# ---------------------------------------------------------------------------

def walk_stream(tr: Tracer, workload: Workload, layout: Path, tmp: Path):
    """Micro-batched replay: submit+poll, score, checkpoint, rollover."""
    from repro.streaming import (
        StreamingDetector,
        StreamingEnterpriseDetector,
        WarmStartConfig,
    )

    size = workload.size
    counts = _new_counts()
    enterprise = workload.name == "ent-stream"
    if enterprise:
        from repro.intel.whois_db import load_whois_file
        from repro.state import load_detector
        from repro.state import save_streaming_enterprise as save

        with tr.span("state.model_load"):
            detector = StreamingEnterpriseDetector(
                load_detector(
                    layout / "model.json",
                    whois=load_whois_file(layout / "whois.json"),
                ),
                warm=WarmStartConfig(enabled=True),
            )
        funnel, pattern = None, "proxy-*.log"
    else:
        from repro.state import save_streaming as save

        detector = StreamingDetector(
            internal_suffixes=(INTERNAL_SUFFIX,),
            warm=WarmStartConfig(enabled=True),
        )
        funnel, pattern = detector.funnel, "dns-*.log"
    fold_level = detector.config.rarity.fold_level
    # The CLI's defaults: 500-event batches, a scoring round per batch,
    # checkpoints only when --checkpoint names a file.
    batch_size, cadence = 500, size.get("checkpoint_every")
    checkpoint_path = tmp / "ck.json"
    largest = tmp / "largest.json"

    def checkpoint(mid_day: bool) -> None:
        if cadence is None:
            return
        with tr.span("state.checkpoint"):
            save(detector, checkpoint_path)
        with tr.span("trace.probe"):
            kb = checkpoint_path.stat().st_size / 1024.0
            if kb > counts["checkpoint_kb_max"]:
                counts["checkpoint_kb_max"] = kb
                if mid_day:
                    shutil.copyfile(checkpoint_path, largest)
                    counts["largest_events_today"] = (
                        detector.window.events_today
                    )

    def step(batch: list, is_bootstrap: bool) -> None:
        with tr.span("streaming.ingest"):
            detector.submit(batch)
            detector.poll()
        counts["batches"] += 1
        if not is_bootstrap:
            with tr.span("streaming.score"):
                detector.score()
            counts["score_rounds"] += 1
        if cadence is not None and counts["batches"] % cadence == 0:
            checkpoint(mid_day=True)

    days: list[DayLine] = []
    for index, path in enumerate(sorted(layout.glob(pattern))):
        is_bootstrap = index < size["bootstrap_files"]
        pending: list = []
        for events in _traced_events(
            tr, path, counts, funnel=funnel, fold_level=fold_level
        ):
            pending.extend(events)
            full = len(pending) - len(pending) % batch_size
            for offset in range(0, full, batch_size):
                step(pending[offset:offset + batch_size], is_bootstrap)
            del pending[:full]
        if pending:
            step(pending, is_bootstrap)
        report = _traced_rollover(
            tr, detector, counts, detect=not is_bootstrap
        )
        if not is_bootstrap:
            days.append(DayLine(
                "", f"day {report.day}", report.records,
                tuple(report.detected),
            ))
        checkpoint(mid_day=False)

    extras: dict = {}
    stats = detector.verdict_stats
    counts["series"] = stats.total
    if stats.total:
        extras["streaming.verdict_skip_ratio"] = (
            (stats.short_skips + stats.periodic_skips + stats.not_rare_skips)
            / stats.total
        )
    if largest.exists():
        from repro.state import load_streaming

        with tr.span("state.restore"):
            restored = load_streaming(largest)
        if restored.window.events_today != counts["largest_events_today"]:
            raise RuntimeError(
                "restored checkpoint lost events: "
                f"{restored.window.events_today} != "
                f"{counts['largest_events_today']}"
            )
    return days, counts, extras


# ---------------------------------------------------------------------------
# fleet  (FleetManager.run with a barrier callback, then solo engines)
# ---------------------------------------------------------------------------

def _cpu_seconds() -> float:
    """CPU of this process and its reaped children (any executor)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_fleet(workload: Workload, layout: Path, tmp: Path, on_round=None):
    """What ``repro-detect fleet`` does, in process; ``(manager-build
    seconds, run seconds, report)``."""
    from repro.fleet import FleetManager, load_manifest

    started = time.perf_counter()
    manager = FleetManager.from_manifest(
        load_manifest(layout / "manifest.json"),
        workers=workload.size["workers"],
        checkpoint_dir=tmp / "ck",
    )
    built = time.perf_counter()
    report = manager.run(on_round=on_round)
    return built - started, time.perf_counter() - built, report


def walk_fleet(tr: Tracer, workload: Workload, layout: Path, tmp: Path):
    """The fleet run between its barriers; then each tenant alone.

    From outside, a fleet round is opaque, so it is compared with the
    solo replay: every tenant's files through its own engine the way a
    fleet worker feeds them (whole-day ``submit_raw``, one poll,
    rollover) with no rounds, checkpoints, intel plane or second
    thread.  What the fleet run costs beyond that is its machinery; a
    second, chunk-by-chunk solo replay says which layers the rest went
    to.
    """
    from repro.fleet import load_manifest
    from repro.logs.dns import parse_dns_log
    from repro.logs.proxy import parse_proxy_log

    counts = _new_counts()
    extras: dict = {}
    marks = [time.perf_counter()]
    cpu = _cpu_seconds()
    with tr.span("fleet.total") as index:
        build_s, run_s, report = run_fleet(
            workload, layout, tmp,
            on_round=lambda _reports: marks.append(time.perf_counter()),
        )
    extras["fleet.cpu_s"] = _cpu_seconds() - cpu
    start = tr.spans[index][1]
    tr.add("fleet.build", start, start + build_s, index)
    marks[0] = start + build_s
    for begin, end in zip(marks, marks[1:]):
        tr.add("fleet.round", begin, end, index)
    extras["fleet.build_s"] = build_s
    extras["fleet.run_s"] = run_s
    extras["fleet.rounds"] = report.rounds
    extras["fleet.tenant_days"] = len(report.days)
    extras["fleet.checkpoint_kb"] = sum(
        path.stat().st_size for path in (tmp / "ck").rglob("*")
        if path.is_file()
    ) / 1024.0
    vt = report.as_dict()["intel"]["vt"]
    if vt["hits"] + vt["misses"]:
        extras["fleet.intel_hit_ratio"] = (
            vt["hits"] / (vt["hits"] + vt["misses"])
        )
    days = [
        DayLine(day.tenant_id, day.source, day.records, tuple(day.detected))
        for tenant_id in sorted(report.tenant_ids)
        for day in report.days_for(tenant_id)
    ]

    manifest = load_manifest(layout / "manifest.json")
    started = time.perf_counter()
    for spec in manifest.tenants:
        detector, _ = _tenant_engine(tr, spec, manifest)
        for position, path in enumerate(_tenant_files(spec)):
            with path.open() as handle:
                detector.submit_raw(
                    parse_proxy_log(handle) if spec.pipeline == "enterprise"
                    else parse_dns_log(handle)
                )
            detector.poll()
            detector.rollover(detect=position >= spec.bootstrap_files)
    extras["fleet.solo_sum_s"] = time.perf_counter() - started

    # The same replay again, chunk by chunk, for the layer budget.
    with tr.span("fleet.solo"):
        for spec in manifest.tenants:
            detector, funnel = _tenant_engine(tr, spec, manifest)
            fold_level = detector.config.rarity.fold_level
            for position, path in enumerate(_tenant_files(spec)):
                day_events: list = []
                for events in _traced_events(
                    tr, path, counts, funnel=funnel, fold_level=fold_level
                ):
                    day_events.extend(events)
                with tr.span("streaming.ingest"):
                    detector.submit(day_events)
                    detector.poll()
                _traced_rollover(
                    tr, detector, counts,
                    detect=position >= spec.bootstrap_files,
                )
    return days, counts, extras


def _tenant_files(spec) -> list[Path]:
    return sorted(spec.directory.glob(spec.pattern))


def _tenant_engine(tr: Tracer, spec, manifest):
    """A fresh engine for one tenant, built as the fleet builds it;
    ``(engine, its DNS funnel or None)``."""
    from repro.streaming import StreamingDetector, StreamingEnterpriseDetector

    if spec.pipeline == "enterprise":
        from repro.state import load_detector

        with tr.span("state.model_load"):
            detector = StreamingEnterpriseDetector(
                load_detector(spec.model_state, whois=manifest.whois)
            )
        return detector, None
    detector = StreamingDetector(
        internal_suffixes=spec.internal_suffixes,
        server_ips=spec.server_ips,
    )
    return detector, detector.funnel


def traced(workload: Workload, layout: Path, tmp: Path):
    """One traced walk: ``(days, per-layer metrics, spans)``."""
    tr = Tracer()
    if workload.verb == "fleet":
        days, counts, extras = walk_fleet(tr, workload, layout, tmp)
    else:
        walk = walk_run if workload.verb == "run" else walk_stream
        with tr.span("walk"):
            days, counts, extras = walk(tr, workload, layout, tmp)
    return days, layer_metrics(workload, tr.spans, counts, extras), tr.spans


def preload() -> None:
    """Import what the CLI verbs import lazily, so no timed call in
    this process pays for a cold import."""
    import repro.eval.clusters  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.state  # noqa: F401
    import repro.streaming  # noqa: F401


def untraced(workload: Workload, layout: Path, tmp: Path) -> float:
    """Wall seconds of the function the CLI verb wraps, called in
    process with the arguments the CLI would pass."""
    from repro.runner import run_directory
    from repro.streaming import (
        WarmStartConfig,
        replay_directory,
        replay_enterprise_directory,
    )

    size = workload.size
    started = time.perf_counter()
    if workload.verb == "fleet":
        run_fleet(workload, layout, tmp)
    elif workload.verb == "run":
        run_directory(
            layout, bootstrap_files=size["bootstrap_files"],
            pattern="dns-*.log", internal_suffixes=(INTERNAL_SUFFIX,),
        )
    elif workload.name == "ent-stream":
        replay_enterprise_directory(
            layout, model_state=layout / "model.json",
            whois_path=layout / "whois.json",
            bootstrap_files=size["bootstrap_files"],
            warm=WarmStartConfig(enabled=True),
        )
    else:
        replay_directory(
            layout, bootstrap_files=size["bootstrap_files"],
            pattern="dns-*.log", internal_suffixes=(INTERNAL_SUFFIX,),
            warm=WarmStartConfig(enabled=True),
            checkpoint_path=tmp / "ck.json",
            checkpoint_every=size["checkpoint_every"],
        )
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

#: span name -> the per-layer metric its summed self time feeds.
_SECONDS = (
    "logs.read", "logs.parse", "logs.reduce", "logs.normalize",
    "profiling.ingest", "profiling.rare", "profiling.commit",
    "timing.automation", "features.cc", "core.detect_day", "core.bp",
    "streaming.ingest", "streaming.score", "streaming.rollover",
    "state.model_load", "state.checkpoint", "state.restore",
)


def layer_metrics(workload: Workload, spans: list[list], counts: dict,
                  extras: dict) -> dict[str, float]:
    """Every per-layer metric the walk's spans and counters determine."""
    seconds = layer_seconds(spans)
    metrics: dict[str, float] = {
        f"{name}_s": seconds[name] for name in _SECONDS if name in seconds
    }
    metrics["logs.parse_records"] = counts["parsed"]
    metrics["logs.events"] = counts["events"]
    if counts["funnel_in"]:
        metrics["logs.reduce_kept_ratio"] = (
            counts["funnel_out"] / counts["funnel_in"]
        )
    metrics["profiling.rare_domains"] = counts["rare_domains"]
    metrics["timing.series"] = counts["series"]

    if workload.verb == "stream":
        ingest = durations_ms(spans, "streaming.ingest")
        score = durations_ms(spans, "streaming.score")
        metrics.update({
            "streaming.ingest_ms_p50": percentile(ingest, 50),
            "streaming.ingest_ms_p99": percentile(ingest, 99),
            "streaming.score_ms_p50": percentile(score, 50),
            "streaming.score_ms_p99": percentile(score, 99),
            "streaming.score_rounds": counts["score_rounds"],
            "streaming.batches": counts["batches"],
            "streaming.rollover_ms_max": max(
                durations_ms(spans, "streaming.rollover")
            ),
        })
        writes = durations_ms(spans, "state.checkpoint")
        if writes:
            metrics.update({
                "state.checkpoint_ms_p50": percentile(writes, 50),
                "state.checkpoint_ms_p99": percentile(writes, 99),
                "state.checkpoint_count": len(writes),
                "state.checkpoint_kb_max": counts["checkpoint_kb_max"],
            })

    roots = [
        (end - start, own)
        for (_, start, end, parent), own in zip(spans, self_times(spans))
        if parent is None
    ]
    wall = roots[0][0]
    if workload.verb == "fleet":
        rounds = durations_ms(spans, "fleet.round")
        solo, run_s = extras["fleet.solo_sum_s"], extras["fleet.run_s"]
        metrics.update({
            "fleet.round_ms_p50": percentile(rounds, 50),
            "fleet.round_ms_max": max(rounds),
            "fleet.overhead_ratio": run_s / solo,
            "trace.unattributed_s": max(run_s - solo, 0.0),
            "trace.coverage": min(solo / run_s, 1.0),
        })
    else:
        metrics["trace.unattributed_s"] = roots[0][1]
        metrics["trace.coverage"] = 1.0 - roots[0][1] / wall
    metrics["trace.wall_s"] = wall
    metrics.update(extras)
    return metrics


def write_trace(path: Path, workload: Workload, spans: list[list]) -> None:
    """Dump the spans (name, start, end, parent, workload) as JSON."""
    origin = spans[0][1] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload.name,
        "spans": [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for name, start, end, parent in spans
        ],
    }) + "\n")
