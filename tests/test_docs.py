"""Documentation gates: docstring coverage and doc-file integrity.

The CI runs ``tools/check_docstrings.py`` as its own step; this test
makes the same gate part of tier-1 so a missing docstring fails fast
locally, and keeps the architecture docs' cross-links from rotting.
A source scan also holds the one structural promise the docs make and
no behavioural test can: the paper's daily loop is written once.
"""

import ast
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
        for method in ("score", "rollover", "ingest_lines", "submit_raw"):
            owners = self._lines_with(rf"def {method}\(", streaming)
            assert sorted(owners) == ["streaming/engine.py"], method

    def _callers(self, name: str) -> list[str]:
        """``path:Qualified.function`` of every call to ``name`` under
        ``src/repro`` (``path:`` alone at module level), sorted."""
        found = []

        def visit(node, rel: str, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = (*scope, child.name)
                elif isinstance(child, ast.Call):
                    func = child.func
                    called = getattr(func, "id", getattr(func, "attr", None))
                    if called == name:
                        found.append(f"{rel}:{'.'.join(scope)}")
                visit(child, rel, inner)

        for path in sorted(self.SRC.rglob("*.py")):
            rel = path.relative_to(self.SRC).as_posix()
            visit(ast.parse(path.read_text()), rel, ())
        return sorted(found)

    def test_a_day_closes_in_one_place(self):
        """Both pipelines' end of day is ``close_day``: no engine keeps
        an end-of-day routine or a C&C-set hook of its own, and the
        streaming package does not reach into ``runner``."""
        assert self._lines_with(r"\b_(detect_day|cc_domains)\b") == {}
        assert self._callers("close_day") == [
            "runner.py:detect_on_traffic",
            "streaming/engine.py:StreamingEngineBase.rollover",
        ]
        assert self._callers("detect_day") == [
            "core/dayloop.py:close_day.run",
            "eval/enterprise_eval.py:EnterpriseEvaluation.detect",
            "streaming/engine.py:StreamingEngineBase.score",
        ]
        for path in sorted((self.SRC / "streaming").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [("." * node.level) + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert not any(
                    n in ("..runner", "repro.runner") for n in names
                ), path.name

    def test_a_day_has_one_lifecycle(self):
        """``run`` is the engine fed each file in chunks: no second
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
        # Its definition and the window's restore-path rescan: the end
        # of day reads the window's own rare set.
        assert {path: len(lines) for path, lines in rare_set.items()} == {
            "profiling/rare.py": 1, "profiling/window.py": 1,
        }
        gone = (
            r"_aggregate_day|_profile_day|_commit_day|_solved_dates"
            r"|count_not_rare_skip|_checkpoint_rounds|submit_lines"
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

    def test_no_library_surface_without_a_caller(self):
        """The detection ledger, the second NDR, the CDF and series
        renderers, URL-path triage, ``is_cc``, the v1 intel schema, the
        write-only NetFlow leg and the parameters no caller passed had
        no caller outside their own tests, and the per-object
        ``Connection`` twins of the proxy ingest route (the dataset's
        and the campaigns' connection lists, the training day window
        and the private automation pass the evaluation reached into)
        have been replaced by the engine's reader: nothing names,
        exports or accepts them again.  ``tests/test_callers.py`` holds the rule
        for every other public name; this scan also covers the docs,
        the benches and the build notes."""
        import inspect

        import repro.eval
        import repro.logs
        from repro.intelstore import create_schema
        from repro.runner import detect_on_traffic, run_directory

        gone = (
            r"DetectionLedger|DomainDossier|eval[./]ledger"
            r"|new_discovery_rate|render_cdf|render_series"
            r"|cluster_by_url_pattern|paths_by_domain|\bis_cc\b"
            r"|_MIGRATE_V1_TO_V2|_SCHEMA_V1"
            r"|(?i:netflow)|PassiveDnsMap"
            r"|day_connections|campaign_connections|_automation_verdicts"
            r"|day_window"
        )
        others = [
            *sorted((REPO / "benchmarks").rglob("*.py")),
            *(p for p in sorted((REPO / ".claude").rglob("*")) if p.is_file()),
        ]
        assert self._files_matching(gone) + [
            p.relative_to(REPO).as_posix() for p in others
            if re.search(gone, p.read_text())
        ] == []
        for package in (repro.eval, repro.logs):
            assert [n for n in package.__all__ if re.search(gone, n)] == []
        for function in (run_directory, detect_on_traffic):
            assert "ct_edges" not in inspect.signature(function).parameters
        assert list(inspect.signature(create_schema).parameters) == ["conn"]

    def test_a_day_has_one_report(
        self, enterprise_evaluation, trained_detector, mixed_fleet_layout
    ):
        """A day is one :class:`~repro.core.DayReport` in every mode,
        closed or in progress: the kernel returns it and the engines
        add to it, so no second report type, no round snapshot, no
        enterprise-only result and no scored-C&C list exists to copy
        fields between, and the day in progress keeps one rare set --
        in the code or in what documents it."""
        gone = (
            r"DayDetection|DayResult|StreamDayReport|ScoredDomain"
            r"|day_result|detected_in_order|all_detected_domains"
            r"|cc_domain_names|StreamUpdate|RareDomainTracker"
            r"|drain_changes|rare_changes"
        )
        skills = [
            p for p in sorted((REPO / ".claude").rglob("*")) if p.is_file()
        ]
        assert self._files_matching(gone) + [
            p.relative_to(REPO).as_posix() for p in skills
            if re.search(gone, p.read_text())
        ] == []

        from repro.core import DayReport, detect_day
        from repro.runner import detect_on_traffic, run_directory
        from repro.streaming import (
            StreamingDetector,
            StreamingEnterpriseDetector,
        )

        evaluation = enterprise_evaluation
        op_day = evaluation.days[0]
        dns = StreamingDetector()
        traffic = dns.window.traffic
        traffic.finalize()
        enterprise = StreamingEnterpriseDetector(
            trained_detector, start_day=99
        )
        reports = [
            dns.score(), enterprise.score(),
            detect_day(
                op_day.traffic, op_day.rare, cc=set(),
                new_scorer=lambda: None,
                config=evaluation.config.belief_propagation,
            ),
            evaluation.detect(op_day, 0.33),
            detect_on_traffic(
                traffic, set(), automation=dns.automation,
                scorer=dns.scorer, config=dns.config,
            ),
            dns.rollover(), dns.rollover(detect=False),
            enterprise.rollover(), enterprise.rollover(detect=False),
            *run_directory(
                mixed_fleet_layout / "t0", bootstrap_files=1,
                pattern="dns-*.log", internal_suffixes=("int.c0",),
            ),
        ]
        assert [type(report) for report in reports] == (
            [DayReport] * len(reports)
        )

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
            "eval/enterprise_eval.py", "eval/evasion.py",
            "eval/lanl_challenge.py", "state.py", "streaming/replay.py",
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

    def test_a_fleet_round_is_one_message_per_worker(self):
        """``ADVANCE_DAY`` carries each tenant's seeds and is answered
        once the tenants' checkpoints are durable: the worker-side board
        replica, its revision sync, the separate intel and checkpoint
        commands and the liveness-polling option are gone, not aliased."""
        from repro.fleet import workers

        verbs = {
            name: value for name, value in vars(workers).items()
            if name.startswith("CMD_")
        }
        assert verbs == {
            "CMD_ADVANCE_DAY": "ADVANCE_DAY", "CMD_SHUTDOWN": "SHUTDOWN",
        }
        gone = re.compile(
            r"INJECT_INTEL|BoardReplica|board_delta|synced_revision"
            r"|_sync_board|heartbeat"
        )
        ci = sorted(p for p in (REPO / ".github").rglob("*") if p.is_file())
        assert self._files_matching(gone.pattern) + [
            path.relative_to(REPO).as_posix() for path in ci
            if gone.search(path.read_text())
        ] == []

    def test_intel_lookups_have_one_memo(self):
        """The fleet plane's VT/WHOIS caches, a fleet worker's WHOIS
        cache and ``stream --intel-db``'s registry are one memo class;
        the per-verb caches and their store bookkeeping are gone."""
        assert self._files_matching(
            r"StoreCachingWhois|WorkerIntelCache|_hydrated_vt"
            r"|_hydrated_whois|_TenantCache|flush_store|store_stats\("
        ) == []
        memos = self._lines_with(r"^class \w*(Memo|Cache)\b.*:")
        assert memos == {"intel/memo.py": ["class IntelMemo:"]}
        # `stream` and the fleet manager open the store in one place
        # (`open_intel_store`); the `intel` verbs open the file named.
        openers = self._lines_with(r"(?<![\w.])IntelStore\(")
        assert openers == {
            "cli.py": ["store = IntelStore(args.db)"],
            "intelstore/store.py": ["store = IntelStore("],
        }

    def test_the_data_verbs_have_one_frame(self):
        """``run``, ``stream`` and ``fleet`` start and finish in one
        frame -- one call of ``_start_data_verb`` and one of
        ``_write_metrics`` -- and the durable intel store is opened by
        the library calls, once every other input checked out; the CLI
        wires no store, memo or WHOIS view of its own."""
        for step in ("_start_data_verb", "_write_metrics"):
            assert self._callers(step) == ["cli.py:_run_data_verb"], step
        assert self._callers("open_intel_store") == [
            "fleet/manager.py:FleetManager.run",
            "streaming/replay.py:replay_directory",
        ]
        cli = (self.SRC / "cli.py").read_text()
        assert re.findall(r"IntelMemo|TenantWhoisView|open_intel_store",
                          cli) == []

    def test_dns_cc_stage_is_written_once(self):
        """The DNS path's ``Detect_C&C`` (V-B) is one function, called
        by the engine's ``_cc_scores`` hook and by ``runner``'s stage
        for a day outside an engine; the per-domain and grouped forms
        it replaced are gone, not aliased."""
        definitions = self._lines_with(r"^\s*def multi_host_cc_scores\(")
        assert definitions == {
            "core/scoring.py": ["def multi_host_cc_scores("]
        }
        assert self._callers("multi_host_cc_scores") == [
            "runner.py:detect_on_traffic",
            "streaming/detector.py:StreamingDetector._cc_scores",
        ]
        assert self._files_matching(
            r"multi_host_(beacon_heuristic|cc_domains)|group_verdicts_by_"
        ) == []

    def test_proxy_cc_features_are_built_once(self):
        """The proxy path's six C&C features (IV-C) are built only by
        ``cc_feature_matrix``: training's labeled rows and every
        ``Detect_C&C`` scoring read the same matrix."""
        assert self._callers("cc_feature_matrix") == [
            "core/pipeline.py:EnterpriseDetector.train",
            "core/scoring.py:RegressionCCScorer.score_automated",
        ]
        assert self._files_matching(r"cc_features\(|CandC\w") == []

    def test_the_automation_test_is_written_once(self):
        """One dynamic histogram: every end of day and every intra-day
        verdict refresh test a series with ``test_series``, which
        clusters it with ``AutomationDetector.clusters`` and judges it
        with ``judge``.  The NumPy batch route and the streaming
        engine's own incremental clustering are gone, not aliased."""
        assert not (self.SRC / "timing" / "batch.py").exists()
        numpy = self._lines_with(
            r"^\s*(import|from) numpy\b", root=self.SRC / "timing"
        )
        assert sorted(numpy) == ["timing/baselines.py"]
        scans = self._lines_with(r"assign_intervals\(")
        assert sorted(scans) == ["timing/detector.py", "timing/histogram.py"]
        assert self._callers("test_series") == [
            "cli.py:_run_timing",
            "streaming/engine.py:StreamingEngineBase._refresh_verdicts",
            "timing/detector.py:AutomationDetector.automated_pairs",
        ]
        assert self._files_matching(
            r"SeriesVerdictCache|_SeriesState|_pending_times"
            r"|incremental_tests|streaming/verdicts"
        ) == []
        calls = {
            path: found
            for path, lines in self._lines_with(
                r"(?<![\w.`])divergence_from_periodic\("
            ).items()
            if (found := [line for line in lines
                          if not line.startswith("def ")])
        }
        assert sorted(calls) == ["timing/detector.py"]

    def test_nothing_queues_or_shards_between_reader_and_window(self):
        """One ingest route: reader -> the engine's pending list ->
        ``window.ingest``.  The in-process bus, host sharding and the
        sharded fleet route are gone, not aliased."""
        assert self._lines_with(
            r"EventBus|n_shards|window_shards|split_by_shard"
            r"|merge_daily_traffic"
        ) == {}
