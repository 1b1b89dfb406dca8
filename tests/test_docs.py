"""Documentation gates: docstring coverage and doc-file integrity.

The CI runs ``tools/check_docstrings.py`` as its own step; this test
makes the same gate part of tier-1 so a missing docstring fails fast
locally, and keeps the architecture docs' cross-links from rotting.
A source scan also holds the one structural promise the docs make and
no behavioural test can: the paper's daily loop is written once.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _checker():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_docstrings
    finally:
        sys.path.pop(0)
    return check_docstrings


class TestDocstringCoverage:
    def test_src_repro_is_fully_documented(self, capsys):
        checker = _checker()
        assert checker.main(["check_docstrings"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_checker_flags_missing_module_docstring(self, tmp_path):
        checker = _checker()
        bad = tmp_path / "src" / "pkg"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text("def f():\n    x = 1\n    return x\n")
        problems = checker.check_file(bad / "mod.py", bad)
        assert any("module docstring" in p for p in problems)
        assert any("missing docstring on f" in p for p in problems)


class TestDocFiles:
    def test_docs_exist_and_are_linked_from_readme(self):
        readme = (REPO / "README.md").read_text()
        for name in ("docs/ARCHITECTURE.md", "docs/OPERATIONS.md"):
            assert (REPO / name).is_file()
            assert name in readme

    def test_architecture_links_resolve(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for target in re.findall(r"\]\(([^)#]+)\)", text):
            assert (REPO / "docs" / target).resolve().exists(), target

    def test_paper_md_has_real_content(self):
        text = (REPO / "PAPER.md").read_text()
        assert "Oprea" in text
        assert "belief propagation" in text.lower()
        assert len(text) > 1500


class TestOneDayLoop:
    """ARCHITECTURE.md "Execution modes": one seed -> Algorithm 1
    kernel under every mode, scheduled by one engine base."""

    SRC = REPO / "src" / "repro"

    def _lines_with(self, pattern: str, root: Path | None = None):
        """``{relative path: [matching code lines]}`` under ``root``."""
        hits: dict[str, list[str]] = {}
        regex = re.compile(pattern)
        for path in sorted((root or self.SRC).rglob("*.py")):
            found = [
                line.strip() for line in path.read_text().splitlines()
                if regex.search(line)
            ]
            if found:
                hits[path.relative_to(self.SRC).as_posix()] = found
        return hits

    def _files_matching(self, pattern: str) -> list[str]:
        """README, docs, ``src`` and examples that mention ``pattern``."""
        gone = re.compile(pattern)
        texts = [
            REPO / "README.md",
            *sorted((REPO / "docs").rglob("*.md")),
            *sorted((REPO / "src").rglob("*.py")),
            *sorted((REPO / "examples").rglob("*.py")),
        ]
        return [p.relative_to(REPO).as_posix() for p in texts
                if gone.search(p.read_text())]

    def test_algorithm_1_has_one_call_site(self):
        calls = self._lines_with(r"(?<![\w.`])belief_propagation\(")
        calls.pop("core/beliefprop.py")  # its definition
        assert sorted(calls) == ["core/dayloop.py"]
        assert len(calls["core/dayloop.py"]) == 1

    def test_the_second_graph_and_the_dict_view_are_gone(self):
        """Intra-day rounds read the window's own ``bp_views``; nothing
        keeps, wraps or documents a second copy."""
        assert self._files_matching(
            r"IncrementalGraph|warm_start_belief_propagation"
            r"|TimestampSeriesView"
        ) == []
        from repro.profiling.rare import DailyTraffic

        assert not hasattr(DailyTraffic, "timestamps")

    def test_the_day_graph_is_stored_once(self):
        """The traffic's own finalize pass keeps the scoring rows and
        change feeds: no second index object, no second build route,
        nothing that arms, drops or rebuilds one."""
        gone = (
            r"TrafficIndex|observe_digest|drop_index|_grow_domain_rows"
            r"|traffic\.index\("
        )
        assert self._files_matching(gone) == []
        benches = sorted((REPO / "benchmarks").glob("*.py"))
        assert [
            p.name for p in benches if re.search(gone, p.read_text())
        ] == []
        owners = self._lines_with(r"(?<![\w`])DailyTraffic\(")
        assert sorted(owners) == ["profiling/window.py"]
        assert len(owners["profiling/window.py"]) == 1

    def test_reference_paths_have_no_production_caller(self):
        """The per-domain scoring loop and the eager ``host_rdom`` map
        are the references the parity tests inject, nothing more."""
        assert sorted(self._lines_with(r"rare_domains_by_host")) == [
            "profiling/__init__.py", "profiling/rare.py",
        ]
        assert self._lines_with(r"similarity_score=|use_index|_parity") == {}

    def test_engine_schedule_is_written_once(self):
        streaming = self.SRC / "streaming"
        for method in ("score", "rollover", "submit_lines", "submit_raw"):
            owners = self._lines_with(rf"def {method}\(", streaming)
            assert sorted(owners) == ["streaming/engine.py"], method

    def test_a_day_has_one_lifecycle(self):
        """``run`` is the engine fed each file in one poll: no second
        batch runner, no ``process_day`` twin, no second home of the
        enterprise C&C stage -- in the code or in what documents it."""
        assert self._files_matching(
            r"DnsLogRunner|RunnerDayReport|process_day|update_profiles"
            r"|detect_on_enterprise_traffic|runner_days_total"
        ) == []
        # A day opens, fills and closes in the window, under every
        # verb, under training and under both evaluation harnesses:
        # histories commit at its rollover and nowhere else.
        for only_the_window in (
            r"(?<!ua_)history\.commit_day\(", r"ua_history\.commit_day\(",
            r"(?<![\w`])DailyTraffic\(",
        ):
            owners = self._lines_with(only_the_window)
            assert sorted(owners) == ["profiling/window.py"], only_the_window
            assert len(owners["profiling/window.py"]) == 1, only_the_window
        rare_set = self._lines_with(r"(?<![\w`])extract_rare_domains\(")
        assert sorted(rare_set) == ["profiling/rare.py", "streaming/engine.py"]
        # Its definition and the tracker's restore-path rescan.
        assert len(rare_set["profiling/rare.py"]) == 2
        assert len(rare_set["streaming/engine.py"]) == 1
        gone = (
            r"_aggregate_day|_profile_day|_commit_day|_solved_dates"
            r"|count_not_rare_skip|_checkpoint_rounds"
        )
        # benchmarks/e2e is frozen and keeps its own stage-by-stage walk.
        assert self._files_matching(gone) + [
            path.name for path in sorted((REPO / "benchmarks").glob("*.py"))
            if re.search(gone, path.read_text())
        ] == []
        cc_stage = self._lines_with(
            r"score_automated\(", self.SRC / "streaming"
        )
        assert list(cc_stage) == ["streaming/enterprise.py"]
        assert len(cc_stage["streaming/enterprise.py"]) == 1

    def test_an_engine_is_opened_in_one_place(self):
        """``stream`` (both pipelines), ``run`` and a fleet worker's
        fresh tenant build their engine in ``open_engine``; a checkpoint
        is read back by ``restore_engine``.  The evaluation harnesses
        drive engines of their own.  The per-kind checkpoint functions
        and the second and third WHOIS loaders are gone, not aliased."""
        built = self._lines_with(
            r"(?<![\w`])(?<!class )Streaming(Enterprise)?Detector\("
        )
        assert sorted(built) == [
            "eval/evasion.py", "eval/lanl_challenge.py", "state.py",
            "streaming/replay.py",
        ]
        assert len(built["streaming/replay.py"]) == 2
        assert len(built["state.py"]) == 2
        assert self._files_matching(
            r"\b(streaming_state|streaming_enterprise_state"
            r"|restore_streaming|restore_streaming_enterprise"
            r"|load_streaming_enterprise|load_rdap_file"
            r"|load_registration_registry)\b"
        ) == []

    def test_a_fleet_tenant_has_one_checkpoint_document(self):
        """A tenant's checkpoint is the engine document ``stream``
        writes, whole, at every barrier: the barrier-delta chain, its
        sidecar and its cadence option are gone, not aliased."""
        assert self._files_matching(
            r"deltas\.jsonl|EngineDeltaTracker|apply_engine_delta"
            r"|_require_barrier|_tenant_delta_path|TenantChain"
            r"|restore_tenant_chain|load_tenant_chain|TenantCheckpointStore"
            r"|full_every|full_checkpoint_every"
        ) == []

    def test_dns_cc_stage_is_written_once(self):
        uses = self._lines_with(
            r"(group_verdicts_by_domain|multi_host_beacon_heuristic)\("
        )
        assert sorted(uses) == ["core/scoring.py"]
        # Two definitions and the one place that combines them.
        assert len(uses["core/scoring.py"]) == 4

    def test_nothing_queues_or_shards_between_reader_and_window(self):
        """One ingest route: reader -> the engine's pending list ->
        ``window.ingest``.  The in-process bus, host sharding and the
        sharded fleet route are gone, not aliased."""
        assert self._lines_with(
            r"EventBus|n_shards|window_shards|split_by_shard"
            r"|merge_daily_traffic"
        ) == {}
