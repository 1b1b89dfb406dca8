"""``tools/bench_summary.py --e2e``: end-to-end rows in BENCH_perf.json."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_file(path: Path, rss: float, *, correct: bool = True) -> Path:
    """What CI tees: the harness's stderr-free stdout, result last."""
    metrics = {
        "records_per_s": 2e5, "peak_rss_mb": rss,
        "cpu_s_per_mrec": 4.0, "setup_s": 0.6,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("noise\n" + json.dumps({
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": value, "unit": "-"}
            for name, value in metrics.items()
        },
    }) + "\n")
    return path


def test_rows_fold_per_workload_and_label(bench_summary, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    parent = [
        _result_file(tmp_path / f"p{i}" / "e2e-dns-batch-wide.txt", rss)
        for i, rss in enumerate((120.0, 121.0, 119.0))
    ]
    assert bench_summary.main([
        "--out", str(out), "--e2e-label", "parent", "--e2e", *map(str, parent),
    ]) == 0
    change = _result_file(
        tmp_path / "c" / "e2e-dns-batch-wide.txt", 111.0, correct=False
    )
    assert bench_summary.main(["--out", str(out), "--e2e", str(change)]) == 0
    row = json.loads(out.read_text())["e2e"]["dns-batch-wide"]
    assert row["parent"] == {
        "records_per_s": 2e5, "peak_rss_mb": 120.0, "cpu_s_per_mrec": 4.0,
        "setup_s": 0.6, "correct": True, "runs": 3,
    }
    assert (row["change"]["peak_rss_mb"], row["change"]["correct"]) == (
        111.0, False
    )
    # A plain refresh keeps the rows.
    assert bench_summary.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text())["e2e"]["dns-batch-wide"] == row


def test_rejects_what_is_not_an_end_to_end_result(bench_summary, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    misnamed = _result_file(tmp_path / "dns-batch-wide.txt", 120.0)
    traced = tmp_path / "e2e-ent-stream.txt"
    traced.write_text(json.dumps({"correct": True, "metrics": {
        "trace.probes_missing": {"value": 0.0, "unit": "count"},
    }}) + "\n")
    for path in (misnamed, traced):
        assert bench_summary.main(
            ["--out", str(out), "--e2e", str(path)]
        ) == 1
    assert not out.exists()
