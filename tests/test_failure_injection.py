"""Failure-injection tests: the pipeline under degraded inputs.

Operational log pipelines meet corrupt files, empty days, absent
intelligence sources and pathological timing series; none of these may
crash detection or corrupt carried state.
"""

import re

import pytest

from repro.config import HistogramConfig, SystemConfig
from repro.core import EnterpriseDetector, belief_propagation
from repro.intel import VirusTotalOracle, WhoisDatabase
from repro.logs import Connection, parse_dns_log, parse_proxy_log
from repro.profiling import DailyTraffic, DestinationHistory, extract_rare_domains
from repro.streaming import StreamingEnterpriseDetector
from repro.timing import AutomationDetector


class TestCorruptLogs:
    def test_dns_stream_survives_garbage(self):
        lines = [
            "100.0 10.0.0.1 A ok.c3 1.2.3.4",
            "\x00\x01 binary trash",
            "not even close",
            "200.0 10.0.0.1 A also-ok.c3 -",
            "300.0 10.0.0.1",                 # truncated
            "400 10.0.0.1 A trailing.c3 - extra fields here",
        ]
        records = list(parse_dns_log(lines))
        assert [r.domain for r in records] == ["ok.c3", "also-ok.c3"]

    def test_proxy_stream_survives_garbage(self):
        good = "100.0\t0\t1.2.3.4\tGET\td.com\t/\t-\t200\t-\t-"
        lines = [good, "a\tb", "", good.replace("200", "not-a-code")]
        assert len(list(parse_proxy_log(lines))) == 1

    def test_entirely_garbage_file_yields_nothing(self):
        assert list(parse_dns_log(["x"] * 100)) == []

    def test_non_finite_timestamps_are_malformed(self):
        # "nan"/"inf" parse as floats but belong to no day.
        lines = ["nan 10.0.0.1 A a.c3 -", "inf 10.0.0.1 A a.c3 -",
                 "1e999 10.0.0.1 A a.c3 -", "5.0 10.0.0.1 A a.c3 -"]
        assert [r.timestamp for r in parse_dns_log(lines)] == [5.0]

    def test_garbage_is_counted_and_changes_no_detection(
        self, lanl_dataset, tmp_path
    ):
        """Malformed lines leave a trace (``reduction_malformed_total``,
        balancing the funnel: lines in = malformed + drops + kept) and
        nothing else: detections equal the clean files'."""
        import random

        from repro.logs import format_dns_line
        from repro.obs import MetricsRegistry
        from repro.obs.metrics import split_sample_key
        from repro.runner import run_directory

        garbage = [
            "\x00\x01 binary trash", "not even close", "300.0 10.0.0.1",
            "400 10.0.0.1 A trailing.c3 - extra fields here",
            "nan 10.0.0.1 A nan-time.c3 -", "12:30 10.0.0.1 A clock.c3 -",
            "500.0 10.0.0.1 ANY unknown-type.c3 -",
        ]
        rng = random.Random(7)
        clean_dir, dirty_dir = tmp_path / "clean", tmp_path / "dirty"
        injected = lines_in = 0
        for directory in (clean_dir, dirty_dir):
            directory.mkdir()
        for march_date in (1, 2, 3):
            clean = [
                format_dns_line(r) for r in lanl_dataset.day_records(march_date)
            ]
            dirty = list(clean)
            for _ in range(200):
                dirty.insert(rng.randrange(len(dirty) + 1), rng.choice(garbage))
            dirty.insert(len(dirty) // 2, "")  # blank: skipped, not counted
            injected += 200
            lines_in += len(clean) + 200
            name = f"dns-march-{march_date:02d}.log"
            (clean_dir / name).write_text("\n".join(clean) + "\n")
            (dirty_dir / name).write_text("\n".join(dirty) + "\n")

        def run(directory):
            registry = MetricsRegistry()
            reports = run_directory(
                directory, bootstrap_files=1,
                internal_suffixes=lanl_dataset.internal_suffixes,
                server_ips=lanl_dataset.server_ips, metrics=registry,
            )
            counters = registry.snapshot().counters
            return reports, lambda name: sum(
                value for key, value in counters.items()
                if split_sample_key(key)[0] == name
            )

        clean_reports, clean_total = run(clean_dir)
        dirty_reports, dirty_total = run(dirty_dir)
        assert clean_total("reduction_malformed_total") == 0
        assert dirty_total("reduction_malformed_total") == injected
        assert lines_in == (
            dirty_total("reduction_malformed_total")
            + dirty_total("reduction_dropped_total")
            + dirty_total("reduction_kept_total")
        )
        assert dirty_total("reduction_records_total") == (
            clean_total("reduction_records_total")
        )
        assert any(r.detected for r in clean_reports)
        for dirty, clean in zip(dirty_reports, clean_reports, strict=True):
            assert dirty.records == clean.records
            assert dirty.rare_domains == clean.rare_domains
            assert dirty.cc_domains == clean.cc_domains
            assert dirty.detected == clean.detected

    def test_proxy_garbage_is_counted_and_changes_no_detection(
        self, enterprise_dataset, tmp_path
    ):
        """The proxy twin: malformed lines and IP-literal destinations
        leave a trace (``proxy_malformed_total``, ``proxy_dropped_total``;
        lines in = malformed + dropped + kept) and nothing else."""
        import random

        from repro.obs import MetricsRegistry
        from repro.streaming import replay_enterprise_directory
        from repro.synthetic import write_enterprise_layout

        good = "432001.5\t0\thost00001\tGET\tnan-epoch.ru\t/\t-\t200\tUA/1\t-"
        garbage = [
            "\x00\x01 binary trash", "not even close",
            good.rsplit("\t", 1)[0],                      # 9 fields
            good + "\textra",                             # 11 fields
            good.replace("\t200\t", "\tnot-a-code\t"),
            good.replace("432001.5", "nan"),
            good.replace("432001.5", "12:30"),
            good.replace("\t0\t", "\tinf\t", 1),
        ]
        ip_literals = [
            good.replace("nan-epoch.ru", "93.184.216.34"),
            good.replace("nan-epoch.ru", "2001:db8::1"),
        ]
        rng = random.Random(7)
        clean_dir = write_enterprise_layout(
            enterprise_dataset, tmp_path / "clean", days=2
        )
        dirty_dir = tmp_path / "dirty"
        dirty_dir.mkdir()
        lines_in = 0
        for path in sorted(clean_dir.glob("proxy-*.log")):
            dirty = path.read_text().splitlines()
            lines_in += len(dirty) + 230
            for pool, count in ((garbage, 200), (ip_literals, 30)):
                for _ in range(count):
                    dirty.insert(
                        rng.randrange(len(dirty) + 1), rng.choice(pool)
                    )
            dirty.insert(len(dirty) // 2, "")  # blank: skipped, not counted
            (dirty_dir / path.name).write_text("\n".join(dirty) + "\n")

        def run(directory):
            registry = MetricsRegistry()
            result = replay_enterprise_directory(
                directory, model_state=clean_dir / "model.json",
                whois_path=clean_dir / "whois.json", metrics=registry,
            )
            return result.reports, registry.snapshot().counters

        clean_reports, clean = run(clean_dir)
        dirty_reports, dirty = run(dirty_dir)
        dropped = 'proxy_dropped_total{stage="ip_destination"}'
        assert clean.get("proxy_malformed_total", 0) == 0
        assert clean.get(dropped, 0) == 0
        assert dirty["proxy_malformed_total"] == 400
        assert dirty[dropped] == 60
        assert dirty["proxy_kept_total"] == clean["proxy_kept_total"]
        assert dirty["proxy_records_total"] == clean["proxy_records_total"] + 60
        assert lines_in == (
            dirty["proxy_malformed_total"] + dirty[dropped]
            + dirty["proxy_kept_total"]
        )
        assert any(r.detected for r in clean_reports)
        for got, want in zip(dirty_reports, clean_reports, strict=True):
            assert got.records == want.records
            assert got.rare_domains == want.rare_domains
            assert got.cc_domains == want.cc_domains
            assert got.detected == want.detected


class TestEmptyAndDegenerateDays:
    def test_empty_day_produces_empty_result(self, trained_detector):
        engine = StreamingEnterpriseDetector(trained_detector, start_day=99)
        result = engine.rollover().day_result
        assert result.day == 99
        assert result.rare_domains == set()
        assert result.cc_domains == []
        assert result.no_hint is None

    def test_single_connection_day(self, trained_detector):
        conn = Connection(
            timestamp=99 * 86_400.0, host="h1", domain="lonely.ru",
            user_agent="UA", referer="",
        )
        engine = StreamingEnterpriseDetector(trained_detector, start_day=99)
        engine.ingest([conn])
        result = engine.rollover().day_result
        assert result.rare_domains == {"lonely.ru"}
        assert result.cc_domains == []  # one connection cannot beacon

    def test_rare_extraction_on_empty_traffic(self):
        traffic = DailyTraffic(0)
        traffic.finalize()
        assert extract_rare_domains(traffic, DestinationHistory()) == set()


class TestDegradedIntelligence:
    def test_all_whois_missing_uses_imputation(self, enterprise_dataset):
        """Training with an *empty* WHOIS registry must still work --
        every feature falls back to the imputed neutral value."""
        detector = EnterpriseDetector(whois=WhoisDatabase())
        report = detector.train(
            enterprise_dataset.day_batches(0, enterprise_dataset.config.bootstrap_days),
            enterprise_dataset.build_virustotal(),
        )
        assert report.cc_model is not None
        # dom_age carries no signal now; the model must lean on others.
        age = report.cc_model.coefficient("dom_age")
        assert not age.significant

    def test_blind_virustotal_degrades_gracefully(self, enterprise_dataset):
        """Coverage 0 leaves no positive labels: models may fit but
        everything scores near zero; nothing crashes."""
        blind = VirusTotalOracle(
            enterprise_dataset.malicious_domains, coverage=0.0
        )
        detector = EnterpriseDetector(whois=enterprise_dataset.whois)
        report = detector.train(
            enterprise_dataset.day_batches(0, enterprise_dataset.config.bootstrap_days),
            blind,
        )
        if report.cc_model is not None and report.similarity_model is not None:
            day = enterprise_dataset.config.bootstrap_days
            engine = StreamingEnterpriseDetector(detector)
            engine.ingest(enterprise_dataset.day_connections(day))
            # no positives -> no alarms
            assert engine.rollover().cc_domains == set()

    def test_no_whois_at_all(self):
        """DNS-style deployment: detector constructed without WHOIS."""
        detector = EnterpriseDetector()
        assert detector.extractor.whois is None


class TestPathologicalTiming:
    def test_identical_timestamps(self):
        detector = AutomationDetector()
        verdict = detector.test_series("h", "d", [100.0] * 10)
        # Zero intervals: perfectly "periodic" at period 0 -- flagged
        # automated, which is correct for a hammering process.
        assert verdict.automated
        assert verdict.period == 0.0

    def test_two_connections_insufficient(self):
        detector = AutomationDetector(HistogramConfig(min_connections=4))
        assert not detector.test_series("h", "d", [0.0, 600.0]).automated

    def test_huge_series_does_not_blow_up(self):
        times = [float(i) * 60.0 for i in range(5000)]
        verdict = AutomationDetector().test_series("h", "d", times)
        assert verdict.automated

    def test_extreme_interval_values(self):
        times = [0.0, 1e-9, 1e9, 2e9]
        verdict = AutomationDetector().test_series("h", "d", times)
        assert verdict.connections == 4  # no crash, finite divergence


class TestBeliefPropagationEdges:
    def test_empty_seeds(self):
        result = belief_propagation(
            set(), set(), dom_host={}, host_rdom={},
            detect_cc=lambda d: False, similarity_score=lambda d, m: 0.0,
        )
        assert result.hosts == set()
        assert result.domains == set()

    def test_seed_domain_without_traffic(self):
        """IOC seeds for domains not present today must not crash."""
        result = belief_propagation(
            {"h1"}, {"ghost.ru"}, dom_host={}, host_rdom={"h1": set()},
            detect_cc=lambda d: False, similarity_score=lambda d, m: 0.0,
        )
        assert "ghost.ru" in result.domains

    def test_scoring_function_raising_is_not_swallowed(self):
        def bad_score(domain, malicious):
            raise RuntimeError("scorer exploded")

        with pytest.raises(RuntimeError):
            belief_propagation(
                {"h1"}, set(),
                dom_host={"d.ru": {"h1"}}, host_rdom={"h1": {"d.ru"}},
                detect_cc=lambda d: False, similarity_score=bad_score,
            )


class TestStateResilience:
    def test_restore_rejects_missing_keys(self):
        from repro.state import StateError, restore_detector

        with pytest.raises((StateError, KeyError)):
            restore_detector({"version": 1})

    def test_config_round_trip_under_sweep(self):
        from repro.state import decode_config, encode_config

        config = SystemConfig().with_thresholds(similarity=0.33)
        for _ in range(3):
            config = decode_config(encode_config(config))
        assert config.belief_propagation.similarity_threshold == 0.33


class TestTornWindow:
    """A checkpoint's ``window`` section that contradicts itself is
    refused: ``--resume`` skips ``events_today`` rows of the day's file,
    so restoring it anyway would silently skip the wrong ones."""

    @pytest.fixture
    def document(self):
        from repro.state import encode_engine
        from repro.streaming import StreamingDetector

        detector = StreamingDetector()
        detector.ingest([
            Connection(timestamp=float(k), host=f"10.0.0.{k % 3}",
                       domain=f"d{k % 4}.example.c1")
            for k in range(12)
        ])
        return encode_engine(detector)

    @staticmethod
    def _restore(document):
        import json

        from repro.state import restore_engine

        return restore_engine(json.loads(json.dumps(document)))

    def test_intact_document_restores(self, document):
        assert self._restore(document).window.events_today == 12

    def test_events_today_must_equal_the_column_length(self, document):
        from repro.state import StateError

        document["window"]["events_today"] = 11
        with pytest.raises(StateError, match="events_today=11.*hold 12"):
            self._restore(document)

    @pytest.mark.parametrize(
        "column", ["host_index", "domain_index", "timestamps"]
    )
    def test_columns_must_agree_in_length(self, document, column):
        import base64

        from repro.state import StateError

        width = 8 if column == "timestamps" else 4
        raw = base64.b64decode(document["window"][column])
        document["window"][column] = base64.b64encode(raw[:-width]).decode()
        with pytest.raises(StateError, match="differ in length"):
            self._restore(document)

    @pytest.mark.parametrize("column", ["host_index", "domain_index"])
    def test_indices_must_fall_inside_the_name_tables(self, document, column):
        from repro.state import StateError

        table = "hosts" if column == "host_index" else "domains"
        document["window"][table].pop()
        with pytest.raises(StateError, match="past its name table"):
            self._restore(document)

    @pytest.mark.parametrize("section, entry, name", [
        ("resolved_ips", ("phantom.c1", ["10.9.9.9"]), "phantom.c1"),
        ("no_referer_hosts", ("phantom.c1", ["10.0.0.1"]), "phantom.c1"),
        ("rare_ua_hosts", ("phantom.c1", ["10.0.0.1"]), "phantom.c1"),
        ("rare_ua_hosts", ("d1.example.c1", ["10.6.6.6"]), "10.6.6.6"),
    ])
    def test_feature_sections_name_only_tabled_names(
        self, document, section, entry, name
    ):
        """A domain or host the name tables lack would restore as a
        phantom -- interned with no events -- and be saved again."""
        from repro.state import StateError

        domain, members = entry
        document["window"][section][domain] = members
        with pytest.raises(
            StateError, match=f"{section}.*{re.escape(name)}.*not in its"
        ):
            self._restore(document)

    def test_name_tables_hold_each_name_once(self, document):
        from repro.state import StateError

        hosts = document["window"]["hosts"]
        hosts[1] = hosts[0]
        with pytest.raises(StateError, match="repeats a name"):
            self._restore(document)

    @pytest.mark.parametrize("payload, complaint", [
        ("AAAAA", "not valid base64"),       # torn mid-quantum
        ("not base64 at all!", "not valid base64"),
        (None, "not valid base64"),
        ("AAAAAAA=", "is torn"),             # 5 bytes: not whole rows
    ])
    def test_undecodable_or_odd_length_column(
        self, document, payload, complaint
    ):
        from repro.state import StateError

        document["window"]["timestamps"] = payload
        with pytest.raises(StateError, match=complaint):
            self._restore(document)

    def test_pre_column_series_window_is_refused(self, document):
        """The layout before this one: no tag, per-pair ``series``."""
        from repro.state import StateError

        document["window"] = {
            "day": 0, "events_today": 1,
            "series": [["10.0.0.1", "d.example.c1", [5.0]]],
            "resolved_ips": {}, "no_referer_hosts": {}, "rare_ua_hosts": {},
        }
        with pytest.raises(StateError, match="window layout None"):
            self._restore(document)


class TestCorruptPrior:
    """A checkpoint's ``prior`` steers the restored engine's next round
    (its detections' iterations say where the day's run of Algorithm 1
    resumes), so each field is validated, not coerced: one
    ``StateError`` per kind of damage, through ``restore_engine`` and
    through ``stream --resume`` (exit 2, one ``error:`` line)."""

    PRIOR = {
        "hosts": ["10.0.0.1"],
        "domains": ["d0.example.c1", "d1.example.c1"],
        "detections": [
            ["d0.example.c1", 0, "seed", 0.0],
            ["d1.example.c1", 2, "similarity", 0.5],
        ],
    }

    #: (what replaces the similarity detection, the complaint).
    BAD_DETECTIONS = [
        (["d1.example.c1", -3, "similarity", 0.5], "integer >= 0"),
        (["d1.example.c1", 2, "bogus", 0.5], "reason must be"),
        (["d1.example.c1", 2, "similarity", "nan"], "finite number"),
        (["elsewhere.c1", 2, "similarity", 0.5], "not in the prior's"),
        (["d1.example.c1", 2.0, "similarity", 0.5], "integer >= 0"),
        (["d1.example.c1", True, "similarity", 0.5], "integer >= 0"),
        (["d1.example.c1", 2, "similarity", float("inf")], "finite number"),
        (["d1.example.c1", 2, "similarity"],
         r"not \[domain, iteration, reason, score\]"),
        ([7, 2, "similarity", 0.5], "not in the prior's"),
    ]

    @pytest.fixture
    def document(self):
        import copy

        from repro.state import encode_engine
        from repro.streaming import StreamingDetector

        detector = StreamingDetector()
        detector.ingest([
            Connection(timestamp=float(k), host="10.0.0.1",
                       domain=f"d{k % 2}.example.c1")
            for k in range(6)
        ])
        state = encode_engine(detector)
        state["prior"] = copy.deepcopy(self.PRIOR)
        return state

    def test_intact_prior_restores_with_its_iterations(self, document):
        restored = TestTornWindow._restore(document)
        assert [
            (d.domain, d.iteration, d.reason, d.score)
            for d in restored.prior.detections
        ] == [tuple(entry) for entry in self.PRIOR["detections"]]
        assert restored.prior.hosts == {"10.0.0.1"}

    @pytest.mark.parametrize("entry, complaint", BAD_DETECTIONS)
    def test_restore_engine_refuses_a_bad_detection(
        self, document, entry, complaint
    ):
        from repro.state import StateError, restore_engine

        document["prior"]["detections"][1] = entry
        with pytest.raises(StateError, match=complaint):
            restore_engine(document)

    @pytest.mark.parametrize("key, value", [
        ("hosts", "10.0.0.1"),
        ("domains", ["d0.example.c1", 1]),
    ])
    def test_restore_engine_refuses_a_bad_name_list(
        self, document, key, value
    ):
        from repro.state import StateError, restore_engine

        document["prior"][key] = value
        with pytest.raises(StateError, match=f"'{key}' is not a list of"):
            restore_engine(document)

    @pytest.mark.parametrize("entry, complaint", BAD_DETECTIONS[:4])
    def test_stream_resume_is_one_error_line(
        self, document, entry, complaint, tmp_path, capsys
    ):
        import json

        from repro.cli import main

        document["prior"]["detections"][1] = entry
        (tmp_path / "dns-march-01.log").write_text("")
        ckpt = tmp_path / "ck.json"
        ckpt.write_text(json.dumps(document))
        assert main([
            "stream", str(tmp_path), "--bootstrap-files", "0",
            "--checkpoint", str(ckpt), "--resume",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert re.search(complaint, captured.err)
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
