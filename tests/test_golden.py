"""Golden detections: CLI output pinned against fixed truth.

Every other correctness test in the suite compares two routes through
the same code (batch vs stream, workers-1 vs workers-N, indexed vs
per-domain scorer); a bug shared by both passes them all.  This module
compares the CLI to ``golden_detections.json`` instead -- captured at
the commit *before* the day-loop refactor, over the two generated
layouts whose input bytes ``generated_layouts.sha256.json`` pins, so a
change in detections is a change in code, not in input.

An intended change is one reviewed commit::

    PYTHONPATH=src python tests/test_golden.py     # rewrites the file

which prints the cases that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("golden_detections.json")

T0_FLAGS = ("--bootstrap-files", "1", "--internal-suffix", "int.c0")

#: ``--max-batches`` that stops each pipeline inside an operational
#: day *after* a scoring round has labeled something, so the hashed
#: document carries a partial window and a non-null ``prior``.
MID_DAY_BATCHES = {"dns": "18", "enterprise": "14"}


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _ent_flags(ent: Path) -> tuple[str, ...]:
    return (
        "--pipeline", "enterprise", "--model-state", str(ent / "model.json"),
        "--whois", str(ent / "whois.json"), "--bootstrap-files", "0",
    )


def _provenance(reports, key) -> dict[str, list]:
    """Per day, every label Algorithm 1 assigned, in labeling order."""
    return {
        key(report): [
            [d.domain, d.iteration, d.reason, round(d.score, 9)]
            for d in report.bp_result.detections
        ]
        for report in reports if report.bp_result is not None
    }


def _canonical_sha256(path: Path) -> str:
    """SHA-256 of a JSON document with sorted keys.  Floats are hashed
    at twelve significant digits: the enterprise checkpoint embeds
    least-squares weights whose last bits belong to the BLAS build."""
    document = json.loads(
        path.read_text(), parse_float=lambda text: f"{float(text):.12g}"
    )
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def _strip_timings(node):
    """A fleet report without its wall-clock fields."""
    if isinstance(node, dict):
        return {
            key: _strip_timings(value) for key, value in node.items()
            if key not in ("elapsed_seconds", "stage_seconds")
        }
    if isinstance(node, list):
        return [_strip_timings(item) for item in node]
    return round(node, 9) if isinstance(node, float) else node


# ---------------------------------------------------------------------------
# The cases: name -> what the CLI (and the function its verb wraps,
# for per-detection provenance the verbs do not print) produces.
# ---------------------------------------------------------------------------

def case_run_t0(ctx) -> dict:
    from repro.runner import run_directory

    t0 = ctx.fleet / "t0"
    code, out = _cli("run", str(t0), *T0_FLAGS)
    assert code == 0
    reports = run_directory(
        t0, bootstrap_files=1, internal_suffixes=("int.c0",)
    )
    return {
        "lines": [l for l in out.splitlines() if l.startswith("dns-")],
        "provenance": _provenance(reports, lambda r: r.path.name),
    }


def case_stream_t0(ctx) -> dict:
    from repro.streaming import replay_directory

    t0 = ctx.fleet / "t0"
    code, out = _cli("stream", str(t0), *T0_FLAGS)
    assert code == 0
    result = replay_directory(
        t0, bootstrap_files=1, pattern="dns-*.log",
        internal_suffixes=("int.c0",),
    )
    return {
        "lines": [l for l in out.splitlines() if l.startswith("day ")],
        "provenance": _provenance(result.reports, lambda r: f"day {r.day}"),
    }


def case_stream_updates_t0(ctx) -> dict:
    """Every intra-day scoring round, not only the day lines: one hash
    over the ``StreamUpdate`` sequence, Algorithm 1's labels included."""
    from repro.streaming import replay_directory

    digest = hashlib.sha256()
    modes: dict[str, int] = {}

    def on_update(update) -> None:
        modes[update.mode] = modes.get(update.mode, 0) + 1
        labels = update.bp_result.detections if update.bp_result else ()
        digest.update(json.dumps([
            update.day, update.events_today, update.rare_count,
            sorted(update.cc_domains), list(update.detected), update.mode,
            [[d.domain, d.iteration, d.reason, round(d.score, 9)]
             for d in labels],
        ]).encode())

    replay_directory(
        ctx.fleet / "t0", bootstrap_files=1, pattern="dns-*.log",
        internal_suffixes=("int.c0",), on_update=on_update,
    )
    return {"rounds": modes, "sha256": digest.hexdigest()}


def case_stream_enterprise(ctx) -> dict:
    from repro.streaming import replay_enterprise_directory

    code, out = _cli("stream", str(ctx.ent), *_ent_flags(ctx.ent))
    assert code == 0
    result = replay_enterprise_directory(
        ctx.ent, model_state=ctx.ent / "model.json",
        whois_path=ctx.ent / "whois.json",
    )
    return {
        "lines": [l for l in out.splitlines() if l.startswith("day ")],
        "provenance": _provenance(result.reports, lambda r: f"day {r.day}"),
    }


def case_fleet(ctx) -> dict:
    report = ctx.tmp / "fleet.json"
    code, _ = _cli(
        "fleet", str(ctx.fleet / "manifest.json"), "--workers", "2",
        "--json", str(report),
    )
    assert code == 0
    return _strip_timings(json.loads(report.read_text()))


def case_lanl(ctx) -> list[str]:
    code, out = ctx.lanl_cli_output
    assert code == 0
    return out.splitlines()


def case_lanl_contexts(ctx) -> dict:
    """What reads a day's context rather than its detections: Table II
    rows, Figure 2's funnel over 3/1-3/7 and Figure 3's gap samples."""
    from repro.eval import (
        LanlChallengeSolver,
        sweep_histogram_parameters,
        timing_gap_samples,
    )
    from repro.synthetic import TRAINING_DATES, generate_lanl_dataset
    from repro.testing import SMALL_LANL

    # A world of its own: a LANL world realizes its days lazily, drawing
    # noise from one shared generator in the order dates are first
    # requested, so the session's world would hold whatever days earlier
    # tests realized first.
    dataset = generate_lanl_dataset(SMALL_LANL)
    rows = sweep_histogram_parameters(dataset, (5.0, 10.0), (0.0, 0.06))
    week = LanlChallengeSolver(dataset)
    for march_date in range(1, 8):
        week.day_context(march_date)
    stats = week.funnel.stats
    mal_mal, mal_legit = timing_gap_samples(
        LanlChallengeSolver(dataset), sorted(TRAINING_DATES)
    )
    return {
        "table2": [
            [row.bin_width, row.jeffrey_threshold,
             row.malicious_pairs_training, row.malicious_pairs_testing,
             row.all_pairs_testing]
            for row in rows
        ],
        "figure2": {
            step: [count for _, count in sorted(
                stats.domain_counts(step).items()
            )]
            for step in (
                "all", "a_records", "filter_internal_queries",
                "filter_internal_servers", "new", "rare",
            )
        },
        "figure3": {
            "mal_mal": sorted(round(gap, 6) for gap in mal_mal),
            "mal_legit": sorted(round(gap, 6) for gap in mal_legit),
        },
    }


def case_figure6(ctx) -> dict:
    evaluation = ctx.enterprise_evaluation
    return {
        name: [
            [point.threshold, sorted(point.detected)]
            for point in getattr(evaluation, name)()
        ]
        for name in ("cc_sweep", "no_hint_sweep", "soc_hints_sweep")
    }


def case_checkpoint_dns(ctx) -> str:
    path = ctx.tmp / "dns-ckpt.json"
    code, _ = _cli(
        "stream", str(ctx.fleet / "t0"), *T0_FLAGS, "--checkpoint",
        str(path), "--max-batches", MID_DAY_BATCHES["dns"],
    )
    assert code == 3
    return _canonical_sha256(path)


def case_checkpoint_enterprise(ctx) -> str:
    path = ctx.tmp / "ent-ckpt.json"
    code, _ = _cli(
        "stream", str(ctx.ent), *_ent_flags(ctx.ent), "--checkpoint",
        str(path), "--max-batches", MID_DAY_BATCHES["enterprise"],
    )
    assert code == 3
    return _canonical_sha256(path)


CASES = {
    "run:fleet/t0": case_run_t0,
    "stream:fleet/t0": case_stream_t0,
    "stream-updates:fleet/t0": case_stream_updates_t0,
    "stream-enterprise:ent": case_stream_enterprise,
    "fleet-workers-2:fleet": case_fleet,
    "lanl-table": case_lanl,
    "lanl-contexts": case_lanl_contexts,
    "figure6-sweeps": case_figure6,
    "checkpoint-sha256:dns": case_checkpoint_dns,
    "checkpoint-sha256:enterprise": case_checkpoint_enterprise,
}


@pytest.fixture
def ctx(ent_layout, mixed_fleet_layout, tmp_path, lanl_cli_output,
        enterprise_evaluation):
    """What the cases read: the two layouts, a scratch directory and
    the session's already-computed ``lanl`` output and evaluation."""
    return SimpleNamespace(
        ent=ent_layout, fleet=mixed_fleet_layout, tmp=tmp_path,
        lanl_cli_output=lanl_cli_output,
        enterprise_evaluation=enterprise_evaluation,
    )


class _Regold:
    """pytest plugin of a regold run: the test below hands its values
    to it instead of comparing them."""

    def __init__(self) -> None:
        self.regold_values: dict = {}


def _regold_sink(config) -> dict | None:
    for plugin in config.pluginmanager.get_plugins():
        if hasattr(plugin, "regold_values"):
            return plugin.regold_values
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, ctx, request):
    # Through JSON, so tuples and float keys compare as the file holds them.
    value = json.loads(json.dumps(CASES[name](ctx)))
    sink = _regold_sink(request.config)
    if sink is not None:
        sink[name] = value
        return
    assert value == json.loads(GOLDEN.read_text())[name]


def test_golden_file_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_fleet_resume_matches_golden(mixed_fleet_layout, tmp_path):
    """A fleet stopped after its first round and resumed reports, per
    tenant, the days of the uninterrupted ``fleet-workers-2:fleet``
    golden run -- pinned to the file, not to a sibling run."""
    flags = (
        "fleet", str(mixed_fleet_layout / "manifest.json"), "--workers",
        "2", "--checkpoint-dir", str(tmp_path / "ck"),
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert _cli(*flags, "--max-rounds", "1", "--json", str(first))[0] == 3
    assert _cli(*flags, "--resume", "--json", str(second))[0] == 0
    days: dict[str, list] = {}
    for report in (first, second):
        for tenant, entry in json.loads(report.read_text())["tenants"].items():
            days.setdefault(tenant, []).extend(_strip_timings(entry["days"]))
    golden = json.loads(GOLDEN.read_text())["fleet-workers-2:fleet"]
    assert days == {
        tenant: entry["days"] for tenant, entry in golden["tenants"].items()
    }


def _regold() -> int:
    """Rewrite the golden file from the current code; print what moved."""
    plugin = _Regold()
    code = pytest.main(
        [__file__, "-q", "-p", "no:cacheprovider", "-k", "matches_golden"],
        plugins=[plugin],
    )
    new = plugin.regold_values
    if code != 0 or sorted(new) != sorted(CASES):
        print("regold run failed; golden file left untouched")
        return 1
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in sorted(new):
        if old.get(name) != new[name]:
            print(f"changed: {name}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_regold())
