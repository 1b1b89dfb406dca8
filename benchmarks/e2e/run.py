"""The repo's end-to-end benchmark: from log files on disk to detections.

Three ways to run it (always from the repo root)::

    # everything: 4 workloads x (end-to-end reps + one traced run);
    # prints every metric, rewrites BENCHMARK.json and baseline.json
    python3 benchmarks/e2e/run.py --seed 42

    # one measurement, one JSON result line (what the acceptance
    # driver calls; --trace 0 = end-to-end, --trace 1 = per-layer)
    python3 benchmarks/e2e/run.py --workload dns-batch-wide \\
        --seed 7 --seconds 8 --trace 0

    # two result sets side by side, against the bounds
    python3 benchmarks/e2e/run.py --compare A.json B.json

See README.md in this directory for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import e2e_inputs
import e2e_measure
import e2e_spec
from e2e_measure import REPO, SRC, Calibrator, median, run_cli, run_python

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BASELINE = HERE / "baseline.json"
SETUP_REPS = 3
MIN_REPS = 2

#: No noisy repetition is re-run once the measuring loop has taken this
#: many times ``--seconds``: the driver's time cap outranks the guard.
RERUN_BUDGET = 2.5


class Ops:
    """Attempted / failed operation counts with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)
        return ok


def load_baseline(path: Path = BASELINE) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


# ---------------------------------------------------------------------------
# One CLI repetition and its correctness checks
# ---------------------------------------------------------------------------

def repetition(workload, layout: Path, manifest: dict, scratch: Path,
               ops: Ops, extra: tuple[str, ...] = ()):
    """Run the workload's CLI command once; ``(CliRun, day lines)``.

    One op per invocation and per operational day expected in its
    output; a day whose event count differs from the manifest's
    independent count is a failed op.
    """
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=scratch))
    args = e2e_inputs.cli_args(workload, layout, tmp) + list(extra)
    run = run_cli(args, tmp)
    expected = e2e_inputs.expected_days(workload, manifest)
    days: list = []
    if ops.check(run.exit_code == 0,
                 f"{workload.name}: exit {run.exit_code}: "
                 f"{run.stderr.strip()[-300:]}"):
        if workload.verb == "fleet":
            days = e2e_measure.parse_fleet_report(
                (tmp / "report.json").read_text()
            )
        else:
            days = e2e_measure.parse_day_lines(run.stdout)
    for position, (tenant, events) in enumerate(expected):
        got = days[position] if position < len(days) else None
        ops.check(
            got is not None and got.tenant == tenant
            and got.records == events,
            f"{workload.name}: day {position} of {tenant or 'the replay'}: "
            f"expected {events} events, got "
            f"{got.records if got else 'no line'}",
        )
    shutil.rmtree(tmp, ignore_errors=True)
    return run, days


def gate_quality(workload, manifest: dict, quality, baseline: dict,
                 ops: Ops) -> None:
    """On the baseline's own input, recall may not fall below its floor
    nor false positives rise above its ceiling."""
    recorded = baseline.get("workloads", {}).get(workload.name)
    if not recorded or recorded["input_digest"] != manifest["input_digest"]:
        return
    ops.check(quality.recall >= recorded["recall_floor"],
              f"{workload.name}: recall {quality.recall:.3f} below the "
              f"floor {recorded['recall_floor']:.3f}")
    ops.check(
        quality.false_positives <= recorded["false_positives_ceiling"],
        f"{workload.name}: {quality.false_positives} false positives, "
        f"ceiling {recorded['false_positives_ceiling']}",
    )


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics from untraced subprocess runs
# ---------------------------------------------------------------------------

def measure_end_to_end(workload, seed: int, seconds: float, data_dir: Path,
                       calibrator: Calibrator, baseline: dict) -> dict:
    ops = Ops()
    layout, manifest, gen_s = e2e_inputs.ensure_layout(
        workload, seed, data_dir
    )
    records = manifest["records"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="e2e-", dir=OUT_DIR))
    try:
        minimal = scratch / "setup"
        e2e_inputs.write_setup_layout(layout, minimal)
        first_setup_sample = len(calibrator.samples)
        calibrator.measure()
        setup_walls = []
        for _ in range(SETUP_REPS):
            tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=scratch))
            run = run_cli(e2e_inputs.cli_args(workload, minimal, tmp), tmp)
            ops.check(run.exit_code == 0,
                      f"{workload.name}: setup run exit {run.exit_code}: "
                      f"{run.stderr.strip()[-300:]}")
            setup_walls.append(run.wall_s)

        # guarded() calibrates before and after each repetition, so the
        # sample it takes next also closes the set-up phase.
        reps: list = []
        started = time.perf_counter()
        while (len(reps) < MIN_REPS
               or time.perf_counter() - started < seconds):
            reps.extend(calibrator.guarded(
                lambda: repetition(workload, layout, manifest, scratch, ops),
                deadline=started + RERUN_BUDGET * seconds,
            ))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    good = [
        (run, days, slowdown) for (run, days), slowdown in reps
        if run.exit_code == 0
    ]
    if not good:
        raise RuntimeError(f"no repetition succeeded: {ops.notes}")
    first = e2e_measure.detections(good[0][1])
    ops.check(
        all(e2e_measure.detections(days) == first for _, days, _ in good),
        f"{workload.name}: detections differ between repetitions",
    )
    quality = e2e_measure.score(
        good[0][1], e2e_inputs.load_truth(workload, layout)
    )
    gate_quality(workload, manifest, quality, baseline, ops)
    rss_mb = median([run.rss_mb for run, _, _ in good])
    spawner_rss_mb = max(run.spawner_rss_mb for run, _, _ in good)
    ops.check(
        rss_mb > spawner_rss_mb,
        f"{workload.name}: peak RSS {rss_mb:.0f} MB is the benchmark's "
        f"own ({spawner_rss_mb:.0f} MB at spawn), not the CLI's",
    )
    # Every time is divided by the slowdown its own bracketing
    # calibrations saw; the median repetition supplies the value.
    setup_slowdown = calibrator.slowdown(
        first_setup_sample, first_setup_sample + 2
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "input_digest": manifest["input_digest"],
        "records": records,
        "metrics": {
            "records_per_s": records / median(
                [run.wall_s / slowdown for run, _, slowdown in good]
            ),
            "peak_rss_mb": rss_mb,
            "cpu_s_per_mrec": median(
                [run.cpu_s / slowdown for run, _, slowdown in good]
            ) / (records / 1e6),
            "setup_s": median(setup_walls) / setup_slowdown,
        },
        "gen_s": gen_s,
        "setup_walls_s": setup_walls,
        "setup_slowdown": setup_slowdown,
        "reps": [
            {"wall_s": run.wall_s, "cpu_s": run.cpu_s, "rss_mb": run.rss_mb,
             "slowdown": slowdown}
            for (run, _), slowdown in reps
        ],
        "recall": quality.recall,
        "false_positives": quality.false_positives,
        "detected": quality.detected,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "notes": ops.notes,
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from one traced in-process run
# ---------------------------------------------------------------------------

PROBE_ERRORS = (ImportError, AttributeError, TypeError)


def measure_per_layer(workload, seed: int, data_dir: Path,
                      calibrator: Calibrator, baseline: dict) -> dict:
    import e2e_trace

    ops = Ops()
    missing: list[str] = []
    layout, manifest, gen_s = e2e_inputs.ensure_layout(
        workload, seed, data_dir
    )
    metrics: dict = dict.fromkeys(e2e_spec.PER_LAYER_NAMES)
    metrics["gen.input_s"] = gen_s
    metrics["gen.input_mb"] = manifest["log_bytes"] / 2**20
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR))

    def probe(name: str, body) -> None:
        """Run one independent probe; a repo function it calls having
        gone away costs its metrics, not the run."""
        try:
            body()
        except PROBE_ERRORS as exc:
            missing.append(f"{name}: {type(exc).__name__}: {exc}")

    try:
        # End to end, untraced: the reference detections, and the
        # baseline the obs and trace overheads are measured against.
        plain: list = []
        deadline = time.perf_counter() + 60.0
        for _ in range(MIN_REPS):
            plain.extend(calibrator.guarded(
                lambda: repetition(workload, layout, manifest, scratch, ops),
                deadline=deadline,
            ))
        observed = calibrator.guarded(
            lambda: repetition(
                workload, layout, manifest, scratch, ops,
                extra=("--metrics-out", str(scratch / "metrics.json")),
            ),
            deadline=deadline,
        )
        good = [
            (run, days, slowdown) for (run, days), slowdown in plain
            if run.exit_code == 0
        ]
        if not good:
            raise RuntimeError(f"no repetition succeeded: {ops.notes}")
        walls = [run.wall_s / slowdown for run, _, slowdown in good]
        best, cli_days, _ = min(good, key=lambda rep: rep[0].wall_s)
        metrics["cli.cpu_s"] = best.cpu_s
        metrics["host.rep_spread_pct"] = (
            (max(walls) - min(walls)) / min(walls) * 100.0
        )
        (with_metrics, _), slowdown = observed[-1]
        metrics["obs.metrics_overhead_pct"] = (
            with_metrics.wall_s / slowdown / min(walls) - 1.0
        ) * 100.0

        def import_probe() -> None:
            bare = median([
                run_python(["-c", "pass"], scratch / "py").wall_s
                for _ in range(3)
            ])
            loaded = median([
                run_python(["-c", "import repro.cli"], scratch / "py").wall_s
                for _ in range(3)
            ])
            metrics["cli.import_s"] = loaded - bare

        def inproc_probe() -> None:
            e2e_trace.preload()
            tmp = Path(tempfile.mkdtemp(prefix="inproc-", dir=scratch))
            metrics["cli.inproc_wall_s"] = e2e_trace.untraced(
                workload, layout, tmp
            )

        def walk_probe() -> None:
            tmp = Path(tempfile.mkdtemp(prefix="walk-", dir=scratch))
            days, layers, spans = e2e_trace.traced(workload, layout, tmp)
            metrics.update(layers)
            e2e_trace.write_trace(
                OUT_DIR / f"trace-{workload.name}.json", workload, spans
            )
            ops.check(
                e2e_measure.detections(days)
                == e2e_measure.detections(cli_days),
                f"{workload.name}: traced detections differ from the CLI's",
            )
            if metrics["cli.inproc_wall_s"]:
                metrics["trace.overhead_pct"] = (
                    metrics["trace.wall_s"] / metrics["cli.inproc_wall_s"]
                    - 1.0
                ) * 100.0

        def invariant_probe() -> None:
            # The repo's stated batch/stream invariant: `stream` over
            # the same files detects what `run` does, day by day.
            tmp = Path(tempfile.mkdtemp(prefix="stream-", dir=scratch))
            run = run_cli(
                ["stream", str(layout), "--internal-suffix",
                 e2e_inputs.INTERNAL_SUFFIX], tmp,
            )
            ops.check(
                run.exit_code == 0
                and e2e_measure.detections(
                    e2e_measure.parse_day_lines(run.stdout)
                ) == e2e_measure.detections(cli_days),
                f"{workload.name}: stream and run detect differently",
            )

        probe("cli.import_s", import_probe)
        probe("cli.inproc_wall_s", inproc_probe)
        probe("walk", walk_probe)
        if workload.verb == "run":
            invariant_probe()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    quality = e2e_measure.score(
        cli_days, e2e_inputs.load_truth(workload, layout)
    )
    gate_quality(workload, manifest, quality, baseline, ops)
    metrics.update({
        "core.detected": quality.detected,
        "core.recall": quality.recall,
        "core.false_positives": quality.false_positives,
        "trace.probes_missing": len(missing),
        "host.calib_s": calibrator.best,
        "host.reruns": calibrator.reruns,
    })
    return {
        "workload": workload.name,
        "seed": seed,
        "input_digest": manifest["input_digest"],
        "records": manifest["records"],
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "notes": ops.notes + missing,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def result_line(result: dict, names: tuple[str, ...]) -> str:
    """The driver's result: one JSON object, exactly four keys.

    A per-layer metric that does not apply to the workload, or whose
    probe is missing, reads 0.
    """
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": float(result["metrics"].get(name) or 0.0),
                "unit": e2e_spec.UNITS[name],
            }
            for name in names
        },
    })


def print_metrics(result: dict, names: tuple[str, ...], stream) -> None:
    for name in names:
        value = result["metrics"].get(name)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {e2e_spec.UNITS[name]}", file=stream)
    for note in result["notes"]:
        print(f"  ! {note}", file=stream)


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# The full command
# ---------------------------------------------------------------------------

def measure_in_child(workload, args, trace: int) -> dict:
    """One measurement in a process of its own (``run.py --workload``):
    what the acceptance driver does, so the numbers agree with its --
    and no measurement inherits another's heap."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"detail-{os.getpid()}.json"
    run = run_python([
        str(HERE / "run.py"), "--workload", workload.name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--data-dir", str(args.data_dir),
        "--detail", str(detail),
    ], OUT_DIR / f"child-{os.getpid()}")
    if run.exit_code != 0:
        raise RuntimeError(
            f"{workload.name} --trace {trace} exited {run.exit_code}:\n"
            f"{run.stderr[-2000:]}"
        )
    result = json.loads(detail.read_text())
    detail.unlink()
    shutil.rmtree(OUT_DIR / f"child-{os.getpid()}", ignore_errors=True)
    return result


def full_run(args) -> int:
    """Every workload, end to end (``--reps`` measurements each,
    round-robin so host drift hits all workloads alike) and traced;
    writes the spec and the baseline."""
    end_to_end: dict[str, list[dict]] = {
        w.name: [] for w in e2e_inputs.WORKLOADS
    }
    for rep in range(args.reps):
        for workload in e2e_inputs.WORKLOADS:
            print(f"[{rep + 1}/{args.reps}] {workload.name}: end to end",
                  file=sys.stderr)
            end_to_end[workload.name].append(
                measure_in_child(workload, args, trace=0)
            )
    failed = 0
    document = {
        "claim": None,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "reps": args.reps,
        "host": host_info(),
        "workloads": {},
        "metrics": {
            "end_to_end": [m._asdict() for m in e2e_spec.END_TO_END],
            "per_layer": [m._asdict() for m in e2e_spec.PER_LAYER],
        },
    }
    for workload in e2e_inputs.WORKLOADS:
        print(f"{workload.name}: traced", file=sys.stderr)
        layers = measure_in_child(workload, args, trace=1)
        runs = end_to_end[workload.name]
        # The median measurement (by throughput) supplies all of the
        # workload's values; host-normalised numbers err both ways, so
        # the fastest would be the luckiest calibration.
        best = sorted(
            runs, key=lambda r: r["metrics"]["records_per_s"]
        )[len(runs) // 2]
        attempted = sum(r["attempted"] for r in runs) + layers["attempted"]
        workload_failed = sum(r["failed"] for r in runs) + layers["failed"]
        failed += workload_failed
        print(f"\n== {workload.name} ({best['records']} records, input "
              f"{best['input_digest'][:12]}) ==")
        print_metrics(best, e2e_spec.END_TO_END_NAMES, sys.stdout)
        print_metrics(layers, e2e_spec.PER_LAYER_NAMES, sys.stdout)
        print(f"  ops_attempted {attempted}  ops_failed {workload_failed}")
        document["workloads"][workload.name] = {
            "why": workload.why,
            "size": workload.size,
            "records": best["records"],
            "input_digest": best["input_digest"],
            "end_to_end": best["metrics"],
            "raw": [
                {**r["metrics"], "reps": r["reps"],
                 "setup_walls_s": r["setup_walls_s"]}
                for r in runs
            ],
            "per_layer": layers["metrics"],
            "recall_floor": best["recall"],
            "false_positives_ceiling": best["false_positives"],
            "ops_attempted": attempted,
            "ops_failed": workload_failed,
            "notes": sorted({n for r in runs for n in r["notes"]}
                            | set(layers["notes"])),
        }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    (REPO / "BENCHMARK.json").write_text(
        json.dumps(e2e_spec.benchmark_spec(), indent=2) + "\n"
    )
    print(f"\nwrote {args.out} and {REPO / 'BENCHMARK.json'}; "
          f"ops_failed={failed}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Per workload and end-to-end metric: both values, B's change
    relative to A, and whether B is worse by more than the bound.

    Result sets over different inputs are not comparable; a digest
    mismatch is reported and fails the comparison.
    """
    lines = [f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} "
             f"{'B vs A':>8} {'bound':>6}  verdict"]
    ok = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<16} missing from B")
            ok = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wa["input_digest"] != wb["input_digest"]:
            lines.append(f"{name:<16} input digests differ: not comparable")
            ok = False
            continue
        for metric in e2e_spec.END_TO_END:
            va = wa["end_to_end"][metric.name]
            vb = wb["end_to_end"][metric.name]
            change = (vb - va) / va
            worse = -change if metric.better == "higher" else change
            inside = worse <= metric.bound
            ok = ok and inside
            lines.append(
                f"{name:<16} {metric.name:<16} {va:>12.5g} {vb:>12.5g} "
                f"{change:>+8.1%} {metric.bound:>6.0%}  "
                f"{'inside' if inside else 'OUTSIDE'}"
            )
        for key in ("recall_floor", "false_positives_ceiling"):
            if wa[key] != wb[key]:
                ok = False
                lines.append(f"{name:<16} {key}: {wa[key]} != {wb[key]}")
    return lines, ok


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(e2e_inputs.BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(e2e_spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3,
                        help="end-to-end runs per workload (full command)")
    parser.add_argument("--data-dir", type=Path, default=HERE / ".data",
                        help="where generated layouts are cached")
    parser.add_argument("--out", type=Path, default=BASELINE,
                        help="where the full command writes its numbers")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    parser.add_argument("--detail", type=Path,
                        help="with --workload: also write the full "
                             "measurement record to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC} holds no repro package to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.compare:
        lines, ok = compare(*(json.loads(p.read_text()) for p in args.compare))
        print("\n".join(lines))
        return 0 if ok else 1
    if args.workload is None:
        return full_run(args)

    workload = e2e_inputs.BY_NAME[args.workload]
    calibrator = Calibrator()
    if args.trace:
        result = measure_per_layer(
            workload, args.seed, args.data_dir, calibrator, load_baseline()
        )
        names = e2e_spec.PER_LAYER_NAMES
    else:
        result = measure_end_to_end(
            workload, args.seed, args.seconds, args.data_dir, calibrator,
            load_baseline(),
        )
        names = e2e_spec.END_TO_END_NAMES
    print(f"{workload.name} seed={args.seed} "
          f"input={result['input_digest'][:12]} "
          f"host_slowdown={calibrator.slowdown():.3f}", file=sys.stderr)
    print_metrics(result, names, sys.stderr)
    if args.detail is not None:
        args.detail.write_text(json.dumps(result) + "\n")
    print(result_line(result, names))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
