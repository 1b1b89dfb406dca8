"""Tests for the repro-detect command-line interface."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: SHA-256 of every file ``generate`` wrote for the two enterprise
#: fixtures below, taken at PR 14 (before the CLI's proxy route went
#: columnar).  The e2e benchmark's layouts come from the same code, and
#: results over different inputs are not comparable.
GENERATED_PINS = Path(__file__).with_name("generated_layouts.sha256.json")


def layout_digests(directory: Path) -> dict[str, str]:
    """``{relative path: sha256}`` of a generated layout.

    ``model.json`` holds least-squares fits whose last bits belong to
    the BLAS build; its floats are hashed at six significant digits.
    """
    digests = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "model.json":
            data = json.dumps(
                json.loads(data, parse_float=lambda t: f"{float(t):.6g}"),
                sort_keys=True,
            ).encode()
        digests[path.relative_to(directory).as_posix()] = (
            hashlib.sha256(data).hexdigest()
        )
    return digests


def _forbid_construction(monkeypatch, *names: str) -> None:
    """Make building any of the named ``repro.logs.records`` classes an
    error.  Raising (rather than counting) also fails the fleet verb,
    whose engines run in forked worker processes: the worker reports
    the error and the CLI exits 2."""
    import repro.logs.records as records

    for name in names:
        def forbidden(self, *args, _name=name, **kwargs):
            raise AssertionError(f"{_name} built on a CLI route")

        monkeypatch.setattr(getattr(records, name), "__init__", forbidden)


def _day_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("day ")]


#: Parses as a float, belongs to no instant: must count as malformed.
NAN_EPOCH_LINE = (
    "nan\t0\thost00075\tGET\tfoo-bar.ru\t/\t58.224.194.97\t200"
    "\tBackdoor/1.55\t-\n"
)


def _interpreter(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports ``repro`` from src.

    ``OPENBLAS_NUM_THREADS`` reaches it only through ``env``: an
    in-process ``main()`` earlier in the session has set it here.
    """
    inherited = {key: value for key, value in os.environ.items()
                 if key != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, *argv],
        env={**inherited, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=120,
    )


def _python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from src."""
    return _interpreter("-c", code, *args, **env)


def _assert_usage_error(capsys) -> None:
    """Exit 2 already checked: one ``error:`` line, nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


#: Loaded by the LANL / enterprise harnesses and ``generate``, never
#: by a detection verb.
HARNESS_MODULES = (
    "repro.synthetic", "repro.intelstore", "sqlite3",
    "repro.eval.enterprise_eval", "repro.eval.lanl_challenge",
    "repro.eval.evasion",
)

#: ``main(["timing", file])``, then numpy and scipy's BLAS pools, then
#: the process's thread count.
THREADS_AFTER_TIMING = (
    "import re, sys\n"
    "from repro.cli import main\n"
    "main(['timing', sys.argv[1]])\n"
    "import numpy, scipy.stats\n"
    "status = open('/proc/self/status').read()\n"
    "print('THREADS', re.search(r'Threads:\\s+(\\d+)', status).group(1))"
)


class TestStartupImports:
    """What a fresh process loads, and which thread pools it starts.

    ``import repro`` is lazy and changes nothing in the environment;
    ``main()`` makes OpenBLAS single-threaded before its verb loads
    numpy, and each verb loads only what it runs.
    """

    def test_package_import_loads_no_numpy_and_leaves_blas_alone(self):
        done = _python(
            "import os, sys, repro, repro.cli\n"
            "print([m for m in ('numpy', 'scipy') if m in sys.modules],"
            " os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[] None"

    def test_help_loads_no_numpy(self):
        done = _interpreter("-X", "importtime", "-m", "repro.cli", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: repro-detect")
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in done.stderr.splitlines()}
        assert "repro" in imported
        assert "numpy" not in imported

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="needs /proc")
    def test_cli_process_blas_is_single_threaded(self, tmp_path):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(600.0 * i) for i in range(8)))
        done = _python(THREADS_AFTER_TIMING, str(series))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "THREADS 1"

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists() or (os.cpu_count() or 1) < 2,
        reason="needs /proc and two CPUs",
    )
    def test_an_exported_blas_thread_count_wins(self, tmp_path):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(600.0 * i) for i in range(8)))
        done = _python(
            THREADS_AFTER_TIMING + "\n"
            "import os; print('ENV', os.environ['OPENBLAS_NUM_THREADS'])",
            str(series), OPENBLAS_NUM_THREADS="2",
        )
        assert done.returncode == 0, done.stderr
        threads, env = done.stdout.splitlines()[-2:]
        assert env == "ENV 2"
        assert int(threads.split()[1]) >= 2

    @pytest.mark.parametrize("verb", ["run", "stream", "stream-enterprise"])
    def test_detection_verbs_skip_the_evaluation_harness(
        self, verb, mixed_fleet_layout, ent_layout
    ):
        """``stream-enterprise`` reads the classic ``whois.json``: only
        an RDAP registry loads the intel store's parser."""
        if verb == "stream-enterprise":
            argv = _stream_flags("enterprise", ent_layout, mixed_fleet_layout)
        else:
            argv = _data_verb_argv(verb, mixed_fleet_layout)
        done = _python(
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print('LOADED', [m for m in {HARNESS_MODULES!r}"
            " if m in sys.modules])\n"
            "sys.exit(code)",
            *argv,
        )
        assert done.returncode == 0, done.stderr
        assert "detected=['" in done.stdout
        assert done.stdout.splitlines()[-1] == "LOADED []"

    @pytest.mark.parametrize("package", ["repro", "repro.eval"])
    def test_every_export_resolves_and_is_listed(self, package):
        done = _python(
            "import importlib, sys\n"
            "name = sys.argv[1]\n"
            "package = importlib.import_module(name)\n"
            "for export in package.__all__:\n"
            "    scope = {}\n"
            "    exec(f'from {name} import {export}', scope)\n"
            "    assert scope[export] is getattr(package, export), export\n"
            "    assert export in dir(package), export\n"
            "print(len(package.__all__))",
            package,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 10

    def test_cli_import_does_not_load_networkx(self):
        done = _python(
            "import sys, repro.cli\n"
            "print('networkx' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_stream_with_intel_db_does_not_load_the_fleet_package(
        self, mixed_fleet_layout, tmp_path
    ):
        """Publication scores are a method of the day report: the
        single-engine verb needs neither ``repro.fleet`` nor
        ``multiprocessing`` to publish its detections."""
        done = _python(
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('LOADED', [m for m in ('repro.fleet', 'multiprocessing')"
            " if m in sys.modules])\n"
            "sys.exit(code)",
            "stream", str(mixed_fleet_layout / "t0"), "--bootstrap-files", "1",
            "--internal-suffix", "int.c0",
            "--intel-db", str(tmp_path / "intel.db"),
        )
        assert done.returncode == 0, done.stderr
        assert "rows flushed" in done.stdout
        assert "LOADED []" in done.stdout

    def test_stream_enterprise_intel_db_memo_is_not_the_fleet_package(
        self, ent_layout, mixed_fleet_layout, tmp_path
    ):
        """The engine's store-backed WHOIS lookups go through the one
        intel memo (``repro.intel.memo``), which lives outside
        ``repro.fleet``."""
        done = _python(
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('LOADED', 'repro.intel.memo' in sys.modules,"
            " [m for m in sys.modules if m.startswith('repro.fleet')])\n"
            "sys.exit(code)",
            *_stream_flags("enterprise", ent_layout, mixed_fleet_layout),
            "--intel-db", str(tmp_path / "intel.db"),
        )
        assert done.returncode == 0, done.stderr
        assert "rows flushed" in done.stdout
        assert "LOADED True []" in done.stdout


#: The process entry (``python -m repro.cli``) in a fresh interpreter,
#: then whether anything is frozen once it has exited.
FREEZE_AT_EXIT = (
    "import gc, runpy\n"
    "try:\n"
    "    runpy.run_module('repro.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    print('EXIT', exc.code, gc.get_freeze_count() > 0)"
)


def _data_verb_argv(verb: str, fleet: Path) -> list[str]:
    """``verb`` over the session's mixed fleet (``run`` / ``stream``:
    its DNS lead tenant ``t0``)."""
    if verb == "fleet":
        return ["fleet", str(fleet / "manifest.json")]
    return [verb, str(fleet / "t0"), "--bootstrap-files", "1",
            "--internal-suffix", "int.c0"]


class TestImportHeapFreeze:
    """A CLI process freezes its import heap before a data verb's day
    loop (and a fleet's fork) and again at exit; an in-process caller
    of ``main()`` gets its GC state back."""

    @pytest.mark.parametrize("verb", ["run", "timing"])
    def test_process_entry_exits_frozen(
        self, verb, mixed_fleet_layout, tmp_path
    ):
        """``timing`` freezes nothing itself: only the exit does."""
        if verb == "run":
            argv = _data_verb_argv("run", mixed_fleet_layout)
        else:
            series = tmp_path / "series.txt"
            series.write_text("\n".join(str(600.0 * i) for i in range(8)))
            argv = ["timing", str(series)]
        done = _python(FREEZE_AT_EXIT, *argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "EXIT 0 True"

    @pytest.mark.parametrize("verb", ["run", "fleet"])
    def test_day_loop_runs_frozen(
        self, verb, mixed_fleet_layout, monkeypatch, capsys
    ):
        import repro.runner
        from repro.fleet import FleetManager

        owner, name = {
            "run": (repro.runner, "run_directory"),
            "fleet": (FleetManager, "run"),
        }[verb]
        original, seen = getattr(owner, name), []

        def recording(*args, **kwargs):
            seen.append(gc.get_freeze_count())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        assert main(_data_verb_argv(verb, mixed_fleet_layout)) == 0
        assert len(seen) == 1 and seen[0] > 0

    @pytest.mark.parametrize("verb", ["run", "stream", "fleet"])
    def test_in_process_caller_keeps_its_gc_state(
        self, verb, mixed_fleet_layout, capsys
    ):
        before = gc.get_freeze_count()
        assert main(_data_verb_argv(verb, mixed_fleet_layout)) == 0
        assert gc.get_freeze_count() == before


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lanl_defaults(self):
        args = build_parser().parse_args(["lanl"])
        assert args.seed == 42

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTimingCommand:
    def test_beacon_detected(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(600.0 * i) for i in range(8)))
        code = main(["timing", str(series)])
        out = capsys.readouterr().out
        assert code == 0
        assert "automated:    YES" in out
        assert "period:       600.0 s" in out

    def test_browsing_not_detected(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(t) for t in (0, 55, 300, 1234, 1500, 4000)))
        code = main(["timing", str(series)])
        assert code == 1
        assert "automated:    no" in capsys.readouterr().out

    def test_bad_input(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("not-a-number\n")
        assert main(["timing", str(series)]) == 2

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_series_is_a_usage_error(
        self, target, tmp_path, capsys
    ):
        """Not a traceback and exit 1, the verb's "not automated"."""
        path = tmp_path / "nothing-here"
        if target == "directory":
            path.mkdir()
        assert main(["timing", str(path)]) == 2
        _assert_usage_error(capsys)

    @pytest.mark.parametrize("width", ["0", "-5", "inf", "nan"])
    def test_nonpositive_bin_width_is_a_usage_error(
        self, width, tmp_path, capsys
    ):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(600.0 * i) for i in range(8)))
        assert main(["timing", str(series), "--bin-width", width]) == 2
        _assert_usage_error(capsys)

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_meaningless_threshold_is_a_usage_error(
        self, threshold, tmp_path, capsys
    ):
        """Not "no" (exit 1) for any series, nor "YES" for every one."""
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(600.0 * i) for i in range(8)))
        assert main(["timing", str(series), "--threshold", threshold]) == 2
        _assert_usage_error(capsys)

    @pytest.mark.parametrize("epoch", ["nan", "inf"])
    def test_non_finite_epoch_is_a_usage_error(self, epoch, tmp_path, capsys):
        """As the DNS funnel counts a non-finite epoch as malformed."""
        series = tmp_path / "series.txt"
        series.write_text(f"0\n600\n{epoch}\n1800\n")
        assert main(["timing", str(series)]) == 2
        _assert_usage_error(capsys)

    def test_custom_threshold(self, tmp_path):
        series = tmp_path / "series.txt"
        values, t = [], 0.0
        for i in range(10):
            values.append(t)
            t += 600.0 + (40.0 if i % 2 else -40.0)
        series.write_text("\n".join(map(str, values)))
        strict = main(["timing", str(series), "--threshold", "0.0"])
        loose = main(["timing", str(series), "--threshold", "1.0",
                      "--bin-width", "100"])
        assert strict == 1
        assert loose == 0


class TestGenerateCommand:
    def test_writes_logs_and_truth(self, tmp_path, capsys):
        out_dir = tmp_path / "logs"
        code = main([
            "generate", str(out_dir), "--hosts", "40", "--days", "2",
        ])
        assert code == 0
        assert (out_dir / "dns-march-01.log").exists()
        assert (out_dir / "dns-march-02.log").exists()
        assert (out_dir / "ground_truth.txt").exists()

    def test_generated_logs_parse_back(self, tmp_path):
        from repro.logs import parse_dns_log

        out_dir = tmp_path / "logs"
        main(["generate", str(out_dir), "--hosts", "30", "--days", "1"])
        with (out_dir / "dns-march-01.log").open() as handle:
            records = list(parse_dns_log(handle))
        assert len(records) > 100

    def test_zero_days_is_a_usage_error(self, tmp_path, capsys):
        """Not exit 0 with only ``ground_truth.txt`` written."""
        out_dir = tmp_path / "logs"
        assert main(["generate", str(out_dir), "--days", "0"]) == 2
        _assert_usage_error(capsys)
        assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["generate", "lanl", "enterprise"])
def test_zero_hosts_is_a_usage_error(verb, tmp_path, capsys):
    """Not ``ValueError: need at least one host`` and exit 1."""
    argv = [verb, "--hosts", "0"]
    if verb == "generate":
        argv.insert(1, str(tmp_path / "logs"))
    assert main(argv) == 2
    _assert_usage_error(capsys)


@pytest.mark.parametrize("argv", [
    "generate {file}", "generate {file}/sub", "generate {file} --tenants 3",
    "generate {file}/sub --pipeline enterprise",
    "enterprise --save-state {tmp}/missing/state.json",
])
def test_unwritable_output_is_refused_before_any_world(
    argv, tmp_path, capsys, monkeypatch
):
    """Not a traceback (exit 1) once the world is generated -- or, for
    ``enterprise``, trained and its tables printed: one ``error:``
    line, and no world."""
    import repro.synthetic

    def never(*args, **kwargs):
        raise AssertionError("an unwritable output generated a world")

    for name in ("generate_lanl_dataset", "generate_enterprise_dataset",
                 "generate_fleet_dataset"):
        monkeypatch.setattr(repro.synthetic, name, never)
    file = tmp_path / "file"
    file.write_text("")
    assert main(argv.format(file=file, tmp=tmp_path).split()) == 2
    _assert_usage_error(capsys)


#: Harness sizes no world can have, and the ``error:`` line each gets.
IMPOSSIBLE_SIZES = [
    ("enterprise --campaigns 0", "--campaigns must be positive, not 0"),
    ("enterprise --campaigns -2", "--campaigns must be positive, not -2"),
    ("enterprise --operation-days 0",
     "--operation-days must be positive, not 0"),
    ("enterprise --operation-days -1",
     "--operation-days must be positive, not -1"),
    ("lanl --bootstrap-days -1",
     "--bootstrap-days must be non-negative, not -1"),
    ("enterprise --campaigns 1 --hosts 20", "training failed: "),
]


@pytest.mark.parametrize(
    ("argv", "error"), IMPOSSIBLE_SIZES, ids=[a for a, _ in IMPOSSIBLE_SIZES]
)
def test_impossible_harness_size_is_a_usage_error(
    argv, error, capsys, monkeypatch
):
    """Not a ``ValueError`` traceback (exit 1), nor an all-zero table or
    a run over a negative bootstrap (exit 0): one ``error:`` line, and
    a refused size generates no world."""
    import repro.synthetic

    if not error.startswith("training"):
        def never(*args, **kwargs):
            raise AssertionError("a refused size generated a world")

        for name in ("generate_lanl_dataset", "generate_enterprise_dataset"):
            monkeypatch.setattr(repro.synthetic, name, never)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {error}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


class TestLanlCommand:
    def test_prints_table_and_rates(self, lanl_cli_output):
        code, out = lanl_cli_output
        assert code == 0
        assert "LANL challenge results" in out
        assert "TDR=" in out


class TestEnterpriseStreamCommand:
    @pytest.fixture(scope="class")
    def layout(self, ent_layout):
        return ent_layout

    def _stream(self, layout, capsys, *extra, directory=None):
        code = main([
            "stream", str(directory or layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"),
            "--bootstrap-files", "0", *extra,
        ])
        return code, capsys.readouterr().out

    def test_generated_layout_is_byte_identical_to_pr14(self, layout):
        pins = json.loads(GENERATED_PINS.read_text())
        assert layout_digests(layout) == pins["ent"]

    def test_non_finite_epoch_line_is_malformed(
        self, layout, tmp_path, capsys
    ):
        import shutil

        dirty = tmp_path / "dirty"
        shutil.copytree(layout, dirty)
        first = dirty / "proxy-march-01.log"
        first.write_text(NAN_EPOCH_LINE + first.read_text())
        code, clean_out = self._stream(layout, capsys)
        assert code == 0
        code, dirty_out = self._stream(layout, capsys, directory=dirty)
        assert code == 0
        assert len(_day_lines(clean_out)) == 3
        assert _day_lines(dirty_out) == _day_lines(clean_out)

    def test_resume_with_another_batch_size_prints_the_same_days(
        self, layout, tmp_path, capsys
    ):
        """The resume skip counts rows, not batches: stop mid-file,
        come back with a batch size that divides nothing evenly."""
        ckpt = ["--checkpoint", str(tmp_path / "ckpt.json")]
        code, whole = self._stream(layout, capsys)
        assert code == 0
        code, first = self._stream(
            layout, capsys, *ckpt, "--batch-size", "300", "--max-batches", "17"
        )
        assert code == 3
        code, second = self._stream(
            layout, capsys, *ckpt, "--resume", "--batch-size", "170"
        )
        assert code == 0
        assert _day_lines(first) + _day_lines(second) == _day_lines(whole)
        assert len(_day_lines(first)) == 1  # 17 x 300 rows: inside day 2

    def test_rdap_registry_prints_the_classic_files_days(
        self, layout, tmp_path, capsys
    ):
        """``--whois`` takes an RDAP copy of ``whois.json`` as it is,
        with or without ``--intel-db``."""
        from repro.intelstore.rdap import rdap_document

        classic = json.loads((layout / "whois.json").read_text())
        rdap = tmp_path / "rdap.json"
        rdap.write_text(json.dumps([
            rdap_document(domain, registered, expires)
            for domain, (registered, expires) in classic.items()
        ]))
        code, whole = self._stream(layout, capsys)
        assert code == 0
        code = main([
            "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(rdap), "--bootstrap-files", "0",
        ])
        assert code == 0
        assert _day_lines(capsys.readouterr().out) == _day_lines(whole)

    def test_generate_writes_enterprise_layout(self, layout):
        assert (layout / "proxy-march-01.log").exists()
        assert (layout / "proxy-march-03.log").exists()
        assert (layout / "model.json").exists()
        assert (layout / "whois.json").exists()
        assert (layout / "ground_truth.txt").exists()

    def test_stream_enterprise_runs(self, layout, capsys):
        code = main([
            "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"),
            "--bootstrap-files", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("records,") == 3

    def test_stream_enterprise_interrupt_resume(self, layout, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        base = [
            "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"),
            "--bootstrap-files", "0", "--batch-size", "300",
            "--checkpoint", str(ckpt),
        ]
        assert main(base + ["--max-batches", "4"]) == 3
        assert "interrupted after 4 micro-batches" in capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        assert "records," in capsys.readouterr().out

    def test_detection_runs_without_networkx(self, layout, tmp_path):
        """With networkx unimportable, ``stream --pipeline enterprise``
        and DNS ``run`` still detect: only graph export needs it."""
        blocked = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))"
        )
        enterprise = _python(
            blocked, "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"), "--bootstrap-files", "0",
        )
        assert enterprise.returncode == 0, enterprise.stderr
        assert enterprise.stdout.count("records,") == 3

        logs = tmp_path / "logs"
        assert main(["generate", str(logs), "--hosts", "40", "--days", "2"]) == 0
        dns = _python(
            blocked, "run", str(logs), "--bootstrap-files", "1",
            "--internal-suffix", "int.c0",
        )
        assert dns.returncode == 0, dns.stderr
        assert "detected=" in dns.stdout

    def test_enterprise_requires_model_state(self, tmp_path, capsys):
        assert main([
            "stream", str(tmp_path), "--pipeline", "enterprise",
        ]) == 2
        assert "--model-state" in capsys.readouterr().err

    def test_dns_rejects_enterprise_flags(self, tmp_path, capsys):
        assert main([
            "stream", str(tmp_path), "--model-state", "m.json",
        ]) == 2
        assert "only valid" in capsys.readouterr().err
        assert main([
            "stream", str(tmp_path), "--whois", "w.json",
        ]) == 2
        assert "only valid" in capsys.readouterr().err

    def test_enterprise_rejects_internal_suffix(self, tmp_path, capsys):
        assert main([
            "stream", str(tmp_path), "--pipeline", "enterprise",
            "--model-state", "m.json", "--internal-suffix", "int.c0",
        ]) == 2
        assert "reduction funnel" in capsys.readouterr().err

    def test_generate_rejects_bad_combos(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert main([
            "generate", out, "--pipeline", "enterprise", "--tenants", "2",
        ]) == 2
        assert "--enterprise-tenants" in capsys.readouterr().err
        assert main([
            "generate", out, "--tenants", "2", "--enterprise-tenants", "2",
        ]) == 2
        assert "lead tenant" in capsys.readouterr().err
        assert main([
            "generate", out, "--enterprise-tenants", "1",
        ]) == 2
        assert "--tenants" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def mixed_fleet(self, mixed_fleet_layout):
        return mixed_fleet_layout

    def test_generate_mixed_fleet_manifest(self, mixed_fleet):
        manifest = json.loads((mixed_fleet / "manifest.json").read_text())
        pipelines = [t.get("pipeline", "dns") for t in manifest["tenants"]]
        assert pipelines == ["dns", "dns", "enterprise"]
        assert manifest["whois"] == "intel/whois.json"
        assert (mixed_fleet / "t2" / "model.json").exists()
        pins = json.loads(GENERATED_PINS.read_text())
        assert layout_digests(mixed_fleet) == pins["fleet"]

    def test_fleet_tenant_non_finite_epoch_line_is_malformed(
        self, mixed_fleet, tmp_path, capsys
    ):
        import shutil

        dirty = tmp_path / "dirty"
        shutil.copytree(mixed_fleet, dirty)
        operational = dirty / "t2" / "proxy-march-02.log"
        operational.write_text(NAN_EPOCH_LINE + operational.read_text())
        outputs = []
        for root in (mixed_fleet, dirty):
            assert main(["fleet", str(root / "manifest.json"),
                         "--workers", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert "t2" in outputs[0]
        assert outputs[1] == outputs[0]

    def test_proxy_route_builds_no_record_objects(
        self, layout, mixed_fleet, capsys, monkeypatch
    ):
        """Log text goes straight to column batches: neither ``stream
        --pipeline enterprise`` nor a fleet's enterprise tenant builds
        a ``ProxyRecord`` or a ``Connection``."""
        _forbid_construction(
            monkeypatch, "ProxyRecord", "DnsRecord", "Connection"
        )
        code, out = self._stream(layout, capsys)
        assert code == 0 and out.count("records,") == 3
        assert main(["fleet", str(mixed_fleet / "manifest.json"),
                     "--workers", "2"]) == 0
        assert "Fleet detection report" in capsys.readouterr().out


class TestDnsRouteBuildsNoRecordObjects:
    def test_run_stream_fleet_never_build_a_record_or_connection(
        self, tmp_path, capsys, monkeypatch
    ):
        """Log text goes straight to column batches: no ``DnsRecord``
        and no ``Connection`` is constructed on any DNS verb."""
        logs, fleet = tmp_path / "logs", tmp_path / "fleet"
        assert main(["generate", str(logs), "--hosts", "40", "--days", "2"]) == 0
        assert main(["generate", str(fleet), "--tenants", "2",
                     "--hosts", "40", "--days", "3"]) == 0
        _forbid_construction(monkeypatch, "DnsRecord", "Connection")
        dns = ["--bootstrap-files", "1", "--internal-suffix", "int.c0"]
        assert main(["run", str(logs), *dns]) == 0
        assert main(["stream", str(logs), *dns]) == 0
        assert main(["fleet", str(fleet / "manifest.json"),
                     "--workers", "2"]) == 0
        assert "detected=" in capsys.readouterr().out


def _stream_flags(pipeline: str, ent: Path, fleet: Path) -> list[str]:
    """``stream`` over the session's layout of either pipeline, first
    file as bootstrap."""
    if pipeline == "enterprise":
        return [
            "stream", str(ent), "--pipeline", "enterprise",
            "--model-state", str(ent / "model.json"),
            "--whois", str(ent / "whois.json"), "--bootstrap-files", "1",
        ]
    return ["stream", str(fleet / "t0"), "--bootstrap-files", "1",
            "--internal-suffix", "int.c0"]


def _batches_per_file(pipeline: str, ent: Path, fleet: Path) -> list[int]:
    """Micro-batches (of the default 500 events) each daily file of the
    layout makes, through the pipeline's own reader."""
    if pipeline == "enterprise":
        from repro.logs.normalize import ProxyNormalizer

        reader, paths = ProxyNormalizer(fold_level=2), ent.glob("proxy-*.log")
    else:
        from repro.logs.reduction import ReductionFunnel

        reader = ReductionFunnel(("int.c0",), fold_level=3)
        paths = (fleet / "t0").glob("dns-*.log")
    counts = []
    for path in sorted(paths):
        with path.open() as handle:
            counts.append(sum(1 for _ in reader.read_lines(handle, 500)))
    return counts


@pytest.mark.parametrize("pipeline", ["dns", "enterprise"])
class TestStreamStopResume:
    @pytest.mark.parametrize(
        "stop", ["inside-bootstrap-day", "mid-day", "day-boundary"]
    )
    def test_stop_and_resume_print_the_uninterrupted_days(
        self, pipeline, stop, ent_layout, mixed_fleet_layout, tmp_path, capsys
    ):
        flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
        per_file = _batches_per_file(pipeline, ent_layout, mixed_fleet_layout)
        batches = {
            "inside-bootstrap-day": 3,
            # Past a scoring round that labeled something (the cut the
            # golden checkpoint hashes use, one bootstrap file later
            # for the enterprise layout).
            "mid-day": per_file[0] + (8 if pipeline == "dns" else 5),
            # The last batch of the first operational day: the stop
            # comes before its rollover, which the resumed run does.
            "day-boundary": per_file[0] + per_file[1],
        }[stop]
        assert main(flags) == 0
        whole = _day_lines(capsys.readouterr().out)
        assert len(whole) == 2
        ckpt = ["--checkpoint", str(tmp_path / "ck.json")]
        assert main(flags + ckpt + ["--max-batches", str(batches)]) == 3
        first = _day_lines(capsys.readouterr().out)
        assert main(flags + ckpt + ["--resume"]) == 0
        second = _day_lines(capsys.readouterr().out)
        assert first + second == whole

    def test_a_checkpoint_with_the_retired_keys_resumes_to_the_same_days(
        self, pipeline, ent_layout, mixed_fleet_layout, tmp_path, capsys
    ):
        """An engine document an earlier build wrote -- with the
        warm-start policy, the event counter and, for DNS, the
        always-null UA sections -- resumes to the uninterrupted days,
        and the checkpoints the resumed run writes hold none of them."""
        flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
        per_file = _batches_per_file(pipeline, ent_layout, mixed_fleet_layout)
        retired = {"warm": {"enabled": True, "full_recompute_fraction": 0.25},
                   "events_total": 12345}
        if pipeline == "dns":
            retired.update(ua_history=None, ua_pending=None)
        assert main(flags) == 0
        whole = _day_lines(capsys.readouterr().out)
        ckpt = tmp_path / "ck.json"
        stop = per_file[0] + (8 if pipeline == "dns" else 5)
        assert main(
            flags + ["--checkpoint", str(ckpt), "--max-batches", str(stop)]
        ) == 3
        first = _day_lines(capsys.readouterr().out)
        document = json.loads(ckpt.read_text())
        assert not set(retired) & set(document)
        ckpt.write_text(json.dumps({**document, **retired}))
        assert main(flags + ["--checkpoint", str(ckpt), "--resume"]) == 0
        second = _day_lines(capsys.readouterr().out)
        assert first + second == whole
        assert not set(retired) & set(json.loads(ckpt.read_text()))

    @pytest.mark.parametrize("damage", [
        "missing-keys", "pre-column-window", "torn-column", "not-an-object",
    ])
    def test_resume_from_a_bad_checkpoint_is_one_error_line(
        self, pipeline, damage, ent_layout, mixed_fleet_layout, tmp_path,
        capsys,
    ):
        flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
        ckpt = tmp_path / "ck.json"
        assert main(
            flags + ["--checkpoint", str(ckpt), "--max-batches", "12"]
        ) == 3
        document = json.loads(ckpt.read_text())
        if damage == "missing-keys":
            document = {key: document[key]
                        for key in ("version", "kind")}
        elif damage == "pre-column-window":
            document["window"] = {
                "day": document["window"]["day"], "events_today": 1,
                "series": [["h1", "d.example", [5.0]]],
                "resolved_ips": {}, "no_referer_hosts": {},
                "rare_ua_hosts": {},
            }
        elif damage == "torn-column":
            document["window"]["timestamps"] = (
                document["window"]["timestamps"][:-3]
            )
        else:
            document = [document]
        ckpt.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(flags + ["--checkpoint", str(ckpt), "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_resume_from_the_other_pipelines_checkpoint_is_one_error_line(
        self, pipeline, ent_layout, mixed_fleet_layout, tmp_path, capsys
    ):
        other = "dns" if pipeline == "enterprise" else "enterprise"
        ckpt = ["--checkpoint", str(tmp_path / "ck.json")]
        assert main(
            _stream_flags(other, ent_layout, mixed_fleet_layout)
            + ckpt + ["--max-batches", "3"]
        ) == 3
        capsys.readouterr()
        flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
        assert main(flags + ckpt + ["--resume"]) == 2
        kind, found = {
            "dns": ("streaming", "streaming-enterprise"),
            "enterprise": ("streaming-enterprise", "streaming"),
        }[pipeline]
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: not a {kind} checkpoint (kind={found!r})\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_nonpositive_max_batches_is_a_usage_error(
        self, pipeline, bound, ent_layout, mixed_fleet_layout, tmp_path,
        capsys,
    ):
        """Not "one micro-batch, a checkpoint and exit 3"."""
        flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
        ckpt = tmp_path / "ck.json"
        assert main(
            flags + ["--checkpoint", str(ckpt), "--max-batches", bound]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --max-batches must be positive, not {bound}\n"
        )
        assert captured.out == "" and not ckpt.exists()

    @pytest.mark.parametrize(
        "flag", ["--batch-size", "--score-every", "--checkpoint-every"]
    )
    def test_nonpositive_cadence_is_a_usage_error(
        self, pipeline, flag, ent_layout, mixed_fleet_layout, tmp_path,
        capsys,
    ):
        flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
        ckpt = tmp_path / "ck.json"
        assert main(flags + ["--checkpoint", str(ckpt), flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be positive, not 0\n"
        assert captured.out == "" and not ckpt.exists()


@pytest.mark.parametrize("verb", ["run", "stream"])
def test_negative_bootstrap_files_is_a_usage_error(
    verb, mixed_fleet_layout, capsys
):
    """Not "all but the last file" (``run``'s old slice) nor "score day
    0 against an empty history" (``stream``'s)."""
    assert main([
        verb, str(mixed_fleet_layout / "t0"), "--bootstrap-files", "-1",
        "--internal-suffix", "int.c0",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: --bootstrap-files must not be negative, not -1\n"
    )
    assert captured.out == ""


def _replay_argv(verb: str, directory: Path, ent: Path) -> list[str]:
    """``run`` / ``stream`` over ``directory``; the enterprise layout's
    model makes ``stream`` look for proxy logs."""
    if verb == "run":
        return ["run", str(directory), "--bootstrap-files", "1"]
    return ["stream", str(directory), "--pipeline", "enterprise",
            "--model-state", str(ent / "model.json"), "--bootstrap-files", "0"]


@pytest.mark.parametrize("verb", ["run", "stream"])
class TestReplayInputErrors:
    """Each bad input is named as what it is, not as "found 0 files"."""

    def _fails_with(self, argv, message, capsys) -> None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_missing_directory(self, verb, ent_layout, tmp_path, capsys):
        missing = tmp_path / "no-such-logs"
        self._fails_with(_replay_argv(verb, missing, ent_layout),
                         f"directory not found: {missing}", capsys)

    def test_file_instead_of_directory(
        self, verb, ent_layout, tmp_path, capsys
    ):
        path = tmp_path / "dns-march-01.log"
        path.write_text("")
        self._fails_with(_replay_argv(verb, path, ent_layout),
                         f"not a directory: {path}", capsys)

    def test_no_file_matches_the_pattern(
        self, verb, ent_layout, mixed_fleet_layout, capsys
    ):
        """``run`` on a proxy layout, ``stream --pipeline enterprise`` on
        a DNS one."""
        directory = ent_layout if verb == "run" else mixed_fleet_layout / "t0"
        pattern = "dns-*.log" if verb == "run" else "proxy-*.log"
        self._fails_with(_replay_argv(verb, directory, ent_layout),
                         f"no file in {directory} matches {pattern!r}", capsys)


@pytest.mark.parametrize("pipeline", ["dns", "enterprise"])
def test_checkpoint_into_a_missing_directory_reads_nothing(
    pipeline, ent_layout, mixed_fleet_layout, tmp_path, capsys, monkeypatch
):
    """Refused up front, not with ``[Errno 2] ... ck.json.tmp`` after
    the first micro-batch."""
    from repro.streaming.engine import StreamingEngineBase

    def no_ingest(self, connections):
        raise AssertionError("a micro-batch was submitted")

    monkeypatch.setattr(StreamingEngineBase, "submit", no_ingest)
    folder = tmp_path / "no-such-dir"
    flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
    assert main(flags + ["--checkpoint", str(folder / "ck.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: checkpoint directory not found: {folder}\n"
    assert captured.out == "" and not folder.exists()


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_fleet_nonpositive_max_rounds_is_a_usage_error(
    bound, mixed_fleet_layout, tmp_path, capsys
):
    """Not "interrupted after -2 rounds"; DNS and enterprise tenants."""
    import multiprocessing

    state = tmp_path / "ck"
    assert main([
        "fleet", str(mixed_fleet_layout / "manifest.json"), "--workers", "1",
        "--checkpoint-dir", str(state), "--max-rounds", bound,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: --max-rounds must be positive, not {bound}\n"
    )
    assert captured.out == ""
    assert not (state / "fleet.json").exists()
    assert multiprocessing.active_children() == []


#: A data verb's input error, given with ``--intel-db``: refused before
#: the store file is created.
STORELESS_USAGE_ERRORS = {
    "stream --batch-size 0": (
        "stream {t0} --bootstrap-files 1 --batch-size 0",
        "--batch-size must be positive, not 0",
    ),
    "stream missing directory": (
        "stream {missing} --bootstrap-files 1",
        "directory not found: {missing}",
    ),
    "stream --resume without --checkpoint": (
        "stream {t0} --bootstrap-files 1 --resume",
        "--resume requires --checkpoint",
    ),
    "fleet --max-rounds 0": (
        "fleet {manifest} --max-rounds 0",
        "--max-rounds must be positive, not 0",
    ),
    "fleet missing tenant directory": (
        "fleet {tmp}/gone.json",
        "tenant 't0': directory not found: {missing}",
    ),
    "fleet tenant without logs": (
        "fleet {tmp}/empty.json",
        "tenant 't0': no file in {empty} matches 'dns-*.log'",
    ),
}


@pytest.mark.parametrize("case", sorted(STORELESS_USAGE_ERRORS))
def test_usage_error_leaves_no_intel_store(
    case, mixed_fleet_layout, tmp_path, capsys
):
    """Exit 2, one ``error:`` line and no ``*.db`` / ``-wal`` /
    ``-shm``: every input is checked before the store is opened."""
    import multiprocessing

    paths = {"t0": mixed_fleet_layout / "t0",
             "manifest": mixed_fleet_layout / "manifest.json",
             "missing": tmp_path / "no-such-logs",
             "empty": tmp_path / "empty", "tmp": tmp_path}
    paths["empty"].mkdir()
    for name, directory in (("gone", "no-such-logs"), ("empty", "empty")):
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "version": 1,
            "tenants": [{"id": "t0", "directory": directory,
                         "pattern": "dns-*.log"}],
        }))
    argv, error = STORELESS_USAGE_ERRORS[case]
    store = tmp_path / "store" / "intel.db"
    store.parent.mkdir()
    assert main(argv.format(**paths).split()
                + ["--intel-db", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error.format(**paths)}\n"
    assert captured.out == ""
    assert list(store.parent.iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(("flag", "value", "shown"), [("--workers", "0", "0")])
def test_fleet_nonpositive_pool_flag_is_a_usage_error(
    flag, value, shown, mixed_fleet_layout, capsys
):
    import multiprocessing

    assert main([
        "fleet", str(mixed_fleet_layout / "manifest.json"), flag, value,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be positive, not {shown}\n"
    assert captured.out == ""
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(("flag", "document"), [
    ("--model-state", "[]"),
    ("--model-state", '{"version": 1}'),
    ("--model-state", "dns-checkpoint"),
    ("--model-state", "untrained:cc_model"),
    ("--model-state", "untrained:similarity_model"),
    ("--whois", '{"tenants": 5}'),
])
def test_malformed_model_or_registry_is_one_error_line(
    flag, document, ent_layout, mixed_fleet_layout, tmp_path, capsys
):
    """Not an ``AttributeError`` / ``KeyError`` / ``TypeError`` /
    ``RuntimeError`` traceback (exit 1).  ``untrained:<model>`` is the
    layout's trained model with that regression model nulled."""
    path = tmp_path / "document.json"
    if document == "dns-checkpoint":
        assert main(_stream_flags("dns", ent_layout, mixed_fleet_layout)
                    + ["--checkpoint", str(path), "--max-batches", "3"]) == 3
    elif document.startswith("untrained:"):
        model = json.loads((ent_layout / "model.json").read_text())
        model[document.split(":")[1]] = None
        path.write_text(json.dumps(model))
    else:
        path.write_text(document)
    argv = _stream_flags("enterprise", ent_layout, mixed_fleet_layout)
    argv[argv.index(flag) + 1] = str(path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    if document.startswith("untrained:"):
        assert captured.err == (
            "error: streaming requires a trained EnterpriseDetector "
            "(both regression models fitted)\n"
        )


@pytest.mark.parametrize(("source", "field", "value"), [
    ("model", "min_connections", 1),
    ("model", "bin_width", 0),
    ("model", "bin_width", float("nan")),
    ("model", "jeffrey_threshold", -0.5),
    ("dns-checkpoint", "min_connections", 1),
    ("enterprise-checkpoint", "bin_width", float("inf")),
])
def test_bad_histogram_config_is_refused_before_any_line(
    source, field, value, ent_layout, mixed_fleet_layout, tmp_path, capsys,
    monkeypatch,
):
    """Not an empty-histogram error mid-replay (``min_connections: 1``)
    nor an automation test that passes everything (``bin_width: 0``) or
    nothing (``nan``): one ``error:`` line naming the field."""
    from repro.streaming.engine import StreamingEngineBase

    pipeline = "dns" if source == "dns-checkpoint" else "enterprise"
    # An enterprise checkpoint nests the trained detector's document.
    what = "engine checkpoint" if pipeline == "dns" else "detector state"
    flags = _stream_flags(pipeline, ent_layout, mixed_fleet_layout)
    path = tmp_path / "document.json"
    if source == "model":
        document = json.loads((ent_layout / "model.json").read_text())
        document["config"]["histogram"][field] = value
        flags[flags.index("--model-state") + 1] = str(path)
    else:
        assert main(flags + ["--checkpoint", str(path),
                             "--max-batches", "3"]) == 3
        document = json.loads(path.read_text())
        config = document["config"] if pipeline == "dns" else (
            document["detector"]["config"]
        )
        config["histogram"][field] = value
        flags += ["--checkpoint", str(path), "--resume"]
    path.write_text(json.dumps(document))

    def no_ingest(self, connections):
        raise AssertionError("a line was read")

    monkeypatch.setattr(StreamingEngineBase, "submit", no_ingest)
    capsys.readouterr()
    assert main(flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: malformed {what}: ValueError: {field} must be "
    )
    assert captured.err.count("\n") == 1 and captured.out == ""


#: An output no run can write, and the ``error:`` line it gets.
UNWRITABLE_OUTPUTS = [
    ("run", "--metrics-out {dir}", "--metrics-out is a directory: {dir}"),
    ("run", "--metrics-out {file}/m.json",
     "--metrics-out: not a directory: {file}"),
    ("stream", "--metrics-out {dir}", "--metrics-out is a directory: {dir}"),
    ("stream", "--metrics-out {file}/sub/m.json",
     "--metrics-out: not a directory: {file}"),
    ("stream", "--checkpoint {dir}", "checkpoint is a directory: {dir}"),
    ("fleet", "--metrics-out {dir}", "--metrics-out is a directory: {dir}"),
    ("fleet", "--metrics-out {file}/m.json",
     "--metrics-out: not a directory: {file}"),
    ("fleet", "--json {dir}", "--json is a directory: {dir}"),
    ("fleet", "--json {missing}/r.json",
     "--json directory not found: {missing}"),
]


@pytest.mark.parametrize(
    ("verb", "flags", "error"), UNWRITABLE_OUTPUTS,
    ids=[f"{verb} {flags}" for verb, flags, _ in UNWRITABLE_OUTPUTS],
)
def test_unwritable_output_is_refused_before_any_line(
    verb, flags, error, mixed_fleet_layout, tmp_path, capsys, monkeypatch
):
    """Not a traceback (exit 1) after the whole run, nor a printed
    report followed by exit 2: one ``error:`` line, no line read, no
    worker spawned and nothing written."""
    import multiprocessing

    from repro.streaming.engine import StreamingEngineBase

    def no_ingest(self, connections):
        raise AssertionError("a line was read")

    monkeypatch.setattr(StreamingEngineBase, "submit", no_ingest)
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file",
             "missing": tmp_path / "missing" / "dir"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    argv = {
        "run": ["run", str(mixed_fleet_layout / "t0"),
                "--bootstrap-files", "1"],
        "stream": ["stream", str(mixed_fleet_layout / "t0"),
                   "--bootstrap-files", "1"],
        "fleet": ["fleet", str(mixed_fleet_layout / "manifest.json"),
                  "--workers", "2"],
    }[verb]
    assert main(argv + flags.format(**paths).split()) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error.format(**paths)}\n"
    assert captured.out == ""
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list(paths["dir"].iterdir()) == []
