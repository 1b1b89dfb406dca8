#!/usr/bin/env python
"""Aggregate ``benchmarks/out/*.json`` into a root ``BENCH_perf.json``.

Each throughput/scale bench drops a JSON next to its rendered table;
this tool distills the headline numbers of every known bench into one
root-level document so the performance trajectory is tracked across
PRs (commit the refreshed file together with the ``benchmarks/out``
JSONs it summarizes).

Usage::

    PYTHONPATH=src python tools/bench_summary.py [--out BENCH_perf.json]
    python tools/bench_summary.py --e2e e2e-*.txt [--e2e-label change]

Unknown or missing JSONs are skipped with a note, so the summary stays
writable even when only a subset of the benches was re-run.

``--e2e FILE...`` folds single-measurement result lines of the
end-to-end benchmark (``benchmarks/e2e/run.py --workload W --trace 0``;
the last line of each file, named ``e2e-<workload>.txt`` as CI tees
them) into the document's ``e2e`` section: per workload and label, the
four end-to-end metrics -- the median when several files measure one
workload -- and whether every run was ``correct``.  Rows under other
labels are kept, so a parent's and a change's rows sit side by side;
without ``--e2e`` the section is carried over unchanged.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

#: The end-to-end metrics of ``BENCHMARK.json``, in its order.
E2E_METRICS = ("records_per_s", "peak_rss_mb", "cpu_s_per_mrec", "setup_s")


def _load(path: pathlib.Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_summary: skipping {path.name}: {err}", file=sys.stderr)
        return None


def _scale_rows(payload):
    """Per-scale rows of the streaming throughput benches (a list)."""
    return payload if isinstance(payload, list) else []


def summarize_streaming(payload) -> dict | None:
    """Headline of a streaming throughput bench: its largest scale."""
    rows = _scale_rows(payload)
    if not rows:
        return None
    top = rows[-1]
    summary = {
        "scale": top.get("scale"),
        "events": top.get("events"),
        "batch_events_per_sec": top.get("batch_events_per_sec"),
        "stream_events_per_sec": top.get("stream_events_per_sec"),
        "stream_event_latency_p50_us": top.get("stream_event_latency_p50_us"),
        "detect_parity": all(r.get("detect_parity") for r in rows),
    }
    # Columnar ingest-stage rate (events folded into the window per
    # second, excluding generation and scoring), when the bench
    # recorded it (older JSONs lack the field).
    if top.get("ingest_events_per_sec"):
        summary["ingest_events_per_sec"] = top["ingest_events_per_sec"]
    if top.get("cpu_count"):
        summary["cpu_count"] = top["cpu_count"]
    # The observability plane's cost and the per-stage breakdown, when
    # the bench ran with the metrics pass (older JSONs lack it).
    if "metrics_overhead_pct" in top:
        summary["metrics_overhead_pct"] = round(
            top["metrics_overhead_pct"], 2
        )
        summary["metrics_parity"] = all(
            r.get("metrics_parity", True) for r in rows
        )
    if top.get("stage_seconds"):
        summary["stage_seconds"] = {
            stage: round(seconds, 6)
            for stage, seconds in sorted(top["stage_seconds"].items())
        }
    # Verdict-cache tests vs skips of the streamed day (counts, exact
    # for a seed): ``unreachable_skips`` never reached the cache.
    if top.get("verdict_cache"):
        summary["verdict_cache"] = dict(sorted(top["verdict_cache"].items()))
    return summary


def summarize_fleet(payload) -> dict | None:
    """Headline of the fleet bench: records/sec per arm, with each
    arm's speedup over the one-worker baseline."""
    modes = payload.get("modes") if isinstance(payload, dict) else None
    if not modes:
        return None
    base_rps = next(
        (m.get("records_per_sec") for m in modes
         if m.get("mode") == "workers-1"),
        None,
    )
    summary_modes = {}
    for mode in modes:
        entry = {
            "workers": mode.get("workers"),
            "checkpoints": mode.get("checkpoints", False),
            "records_per_sec": mode.get("records_per_sec"),
            "tenant_days_per_sec": mode.get("tenant_days_per_sec"),
            "detect_parity": mode.get("detect_parity"),
        }
        rps = mode.get("records_per_sec")
        if base_rps and rps:
            entry["speedup_vs_workers_1"] = round(rps / base_rps, 3)
        summary_modes[mode.get("mode")] = entry
    summary = {
        "smoke": payload.get("smoke"),
        "cpu_count": payload.get("cpu_count"),
        "modes": summary_modes,
        "detect_parity": all(m.get("detect_parity") for m in modes),
    }
    metrics_run = payload.get("metrics")
    if metrics_run:
        summary["metrics"] = {
            "detect_parity": metrics_run.get("detect_parity"),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(
                    metrics_run.get("stage_seconds", {}).items()
                )
            },
        }
    return summary


def summarize_bp_scale(payload) -> dict | None:
    """Headline of the scoring bench: worst speedup of the largest
    configuration, parity across every row."""
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not rows:
        return None
    largest_name = rows[-1]["config"]
    largest = [r for r in rows if r["config"] == largest_name]
    summary = {
        "smoke": payload.get("smoke"),
        "largest_config": largest_name,
        "largest_frontier": largest[-1].get("frontier"),
        "largest_chain": largest[-1].get("chain"),
        "min_speedup": min(r["speedup"] for r in largest),
        "speedups": {
            f"{r['config']}/{r['scorer']}": r["speedup"] for r in rows
        },
        "detect_parity": payload.get("detect_parity", False),
    }
    # Growing-day arm: day-lived vs per-round-fresh frontier scorer
    # (older JSONs lack it).
    warm = payload.get("warm_rounds")
    if warm:
        summary["warm_rounds"] = {
            key: warm[key] for key in (
                "rounds", "fresh_seconds", "day_lived_seconds", "speedup",
            )
        }
    return summary


def summarize_evasion(payload) -> dict | None:
    """Headline of the adversarial campaign suite: detection rate at
    the endpoints of every (campaign, pipeline) curve, and the fleet
    curve's parallel-vs-serial parity."""
    curves = payload.get("curves") if isinstance(payload, dict) else None
    if not curves:
        return None
    summary_curves = {}
    for curve in curves:
        points = curve.get("points", [])
        if not points:
            continue
        summary_curves[f"{curve['campaign']}/{curve['pipeline']}"] = {
            "rate_at_0": points[0].get("rate"),
            "rate_at_max": points[-1].get("rate"),
            "max_strength": points[-1].get("strength"),
            "points": len(points),
        }
    return {
        "smoke": payload.get("smoke"),
        "strengths": payload.get("strengths"),
        "curves": summary_curves,
        "detect_parity": all(
            point.get("parity", True)
            for curve in curves for point in curve.get("points", [])
        ),
    }


#: bench JSON filename -> summarizer.
KNOWN = {
    "streaming_throughput.json": summarize_streaming,
    "enterprise_stream_throughput.json": summarize_streaming,
    "fleet_throughput.json": summarize_fleet,
    "bp_scale.json": summarize_bp_scale,
    "evasion_suite.json": summarize_evasion,
}


def build_summary(out_dir: pathlib.Path = OUT_DIR) -> dict:
    """One summary document over every known bench JSON present."""
    benches: dict[str, dict] = {}
    for name, summarize in sorted(KNOWN.items()):
        path = out_dir / name
        if not path.exists():
            print(f"bench_summary: {name} not present", file=sys.stderr)
            continue
        payload = _load(path)
        if payload is None:
            continue
        summary = summarize(payload)
        if summary is not None:
            benches[name.removesuffix(".json")] = summary
    # Metrics snapshots ride along with their bench; they are not
    # benches themselves.
    unknown = sorted(
        p.name for p in out_dir.glob("*.json")
        if p.name not in KNOWN and not p.name.endswith("_metrics.json")
    )
    summary = {
        "benches": benches,
        "detect_parity": all(
            b.get("detect_parity", True) for b in benches.values()
        ),
    }
    if unknown:
        summary["unsummarized"] = unknown
    return summary


def summarize_e2e(paths: list[pathlib.Path]) -> dict[str, dict]:
    """Workload -> the end-to-end row of its result files."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        name = path.name
        if not (name.startswith("e2e-") and name.endswith(".txt")):
            raise ValueError(f"{path}: not an e2e-<workload>.txt file")
        workload = name.removeprefix("e2e-").removesuffix(".txt")
        lines = path.read_text().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if not set(E2E_METRICS) <= set(result.get("metrics", {})):
            raise ValueError(f"{path}: last line is no --trace 0 result")
        runs.setdefault(workload, []).append(result)
    return {
        workload: {
            **{
                name: round(statistics.median(
                    r["metrics"][name]["value"] for r in results
                ), 4)
                for name in E2E_METRICS
            },
            "correct": all(r["correct"] is True for r in results),
            "runs": len(results),
        }
        for workload, results in sorted(runs.items())
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_perf.json"),
        help="where to write the summary (default: repo root)",
    )
    parser.add_argument(
        "--e2e", nargs="+", type=pathlib.Path, default=(), metavar="FILE",
        help="e2e-<workload>.txt result files to fold into the e2e section",
    )
    parser.add_argument(
        "--e2e-label", default="change",
        help="what the --e2e rows measured (default: change)",
    )
    args = parser.parse_args(argv)
    summary = build_summary()
    if not summary["benches"]:
        print("bench_summary: no known bench JSONs found", file=sys.stderr)
        return 1
    out_path = pathlib.Path(args.out)
    previous = _load(out_path) if out_path.exists() else None
    e2e = dict((previous or {}).get("e2e", {}))
    try:
        rows = summarize_e2e(list(args.e2e))
    except (OSError, ValueError) as err:
        print(f"bench_summary: {err}", file=sys.stderr)
        return 1
    for workload, row in rows.items():
        e2e[workload] = {**e2e.get(workload, {}), args.e2e_label: row}
    if e2e:
        summary["e2e"] = dict(sorted(e2e.items()))
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"bench_summary: wrote {out_path} "
          f"({len(summary['benches'])} benches)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
