"""Running the real CLI in a fresh subprocess, and reading what it printed.

End-to-end numbers depend on nothing but ``python -m repro.cli``: wall
time from spawn to exit, CPU and peak RSS of that child's process tree
from ``os.wait4``, and the detections parsed from its per-day lines
(fleet: its ``--json`` report).  A fixed calibration kernel brackets
every repetition: its time says how fast the host was just then, which
each reported time is divided by, and a repetition that ran while the
host was at its slowest is re-run instead of believed.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: A repetition bracketed by a calibration slower than this multiple of
#: the session's best is re-run.
NOISE_FACTOR = 1.25
MAX_RERUNS = 2

#: Passes of the calibration kernel per measurement (~0.5 s in all: long
#: enough to average the host's sub-second jitter, short enough to
#: bracket every repetition).
CALIBRATION_PASSES = 5

#: One calibration measurement on the reference host (2 cores, Python
#: 3.11) at its nominal speed; a slowdown is relative to it.
CALIBRATION_REF_S = 0.44

#: Hard cap on one CLI invocation; the driver allows a run 180 s.
CLI_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    """The subprocess environment: ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    )
    return env


@dataclass
class CliRun:
    """One finished subprocess: what it cost and what it printed."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    spawner_rss_mb: float
    """RSS of this (the spawning) process at spawn.  Linux carries
    ``ru_maxrss`` across fork+exec, so a child's reading is only its
    own when it exceeds this."""

    exit_code: int
    stdout: str
    stderr: str


def own_rss_mb() -> float:
    """Resident set of the calling process right now (``VmRSS``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run_python(argv: list[str], scratch: Path) -> CliRun:
    """Run ``python <argv>`` to completion; rusage is this child's own.

    Output goes to files (a full pipe would stall the child, and
    ``communicate()`` would reap it before ``wait4`` could).
    """
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    spawner_rss = own_rss_mb()
    with out_path.open("w") as out, err_path.open("w") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err,
            env=child_env(), cwd=REPO,
        )
        killer = threading.Timer(CLI_TIMEOUT_S, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        spawner_rss_mb=spawner_rss,
        exit_code=process.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def run_cli(args: list[str], scratch: Path) -> CliRun:
    """``python -m repro.cli <args>`` in a fresh interpreter."""
    return run_python(["-m", "repro.cli", *args], scratch)


# ---------------------------------------------------------------------------
# Host speed: calibration, normalisation, noise guard
# ---------------------------------------------------------------------------

class _Event:
    """What the kernel allocates per line, like the parsers it mimics."""

    __slots__ = ("timestamp", "host", "domain")

    def __init__(self, timestamp: float, host: str, domain: str) -> None:
        self.timestamp = timestamp
        self.host = host
        self.domain = domain


class Calibrator:
    """A fixed kernel (line split, small objects, dict and set updates,
    one ``np.lexsort``; no ``repro`` code) timed around every
    repetition, to know how fast the host is *now*.

    The reference host runs the same CLI command at 3.2 s and at 6.2 s
    minutes apart, CPU time tracking wall time, for minutes on end --
    the kernel slows by the same factor.  Two uses:

    * slowdown -- the kernel time around a repetition over
      :data:`CALIBRATION_REF_S`.  Every reported *time* is divided by
      its own bracket's, so a number means "on the reference host at
      its nominal speed" whenever it was taken.  Without this no bound under 2x
      would be honest, and a before/after pair measured across a speed
      change would be decided by the host.
    * :meth:`guarded` -- a repetition bracketed by a kernel time above
      :data:`NOISE_FACTOR` x the session's best is re-run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 5000, 60_000)
        self._times = rng.random(60_000)
        self._lines = [
            f"{t:.3f} 10.0.{k % 250}.{k % 199} A name{k}.c{k % 7} 1.2.3.4"
            for t, k in zip(self._times, self._keys)
        ]
        self.samples: list[float] = []
        self.reruns = 0

    def measure(self) -> float:
        """Time one kernel pass and remember it."""
        started = time.perf_counter()
        for _ in range(CALIBRATION_PASSES):
            events = []
            counts: dict[tuple[str, str], int] = {}
            for line in self._lines:
                fields = line.split()
                event = _Event(float(fields[0]), fields[1], fields[3])
                events.append(event)
                key = (event.host, event.domain)
                counts[key] = counts.get(key, 0) + 1
            hosts: dict[str, set[str]] = {}
            for event in events:
                hosts.setdefault(event.domain, set()).add(event.host)
            order = np.lexsort((self._times, self._keys))
        elapsed = time.perf_counter() - started
        self._sink = (len(counts), len(hosts), int(order[0]))  # consumed
        self.samples.append(elapsed)
        return elapsed

    @property
    def best(self) -> float:
        return min(self.samples)

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """How much slower than the reference host at nominal speed
        this host ran (median kernel time over ``samples[start:stop]``)."""
        return median(self.samples[start:stop]) / CALIBRATION_REF_S

    def guarded(self, run, deadline: float):
        """``run()`` bracketed by calibrations; re-run while noisy.

        Returns ``(result, slowdown)`` for every attempt, where
        ``slowdown`` is that attempt's own bracket (mean of the kernel
        time before and after it over :data:`CALIBRATION_REF_S`).  At
        most :data:`MAX_RERUNS` re-runs per session and none past
        ``deadline`` (a ``perf_counter`` reading).
        """
        attempts = []
        before = self.measure()
        while True:
            result = run()
            after = self.measure()
            attempts.append(
                (result, (before + after) / 2.0 / CALIBRATION_REF_S)
            )
            noisy = max(before, after) > NOISE_FACTOR * self.best
            if (not noisy or self.reruns >= MAX_RERUNS
                    or time.perf_counter() > deadline):
                return attempts
            self.reruns += 1
            before = after


# ---------------------------------------------------------------------------
# Reading the CLI's output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DayLine:
    """One operational day as the CLI reported it."""

    tenant: str
    label: str
    records: int
    detected: tuple[str, ...]


_DAY_LINE = re.compile(
    r"^(?P<label>\S.*?): (?P<records>\d+) records, \d+ rare, "
    r"C&C=(?:\[.*?\]|-), detected=(?P<detected>\[.*\]|-)$"
)


def parse_day_lines(stdout: str) -> list[DayLine]:
    """Per-day lines of ``run`` (``<file>: ...``) / ``stream``
    (``day N: ...``) output, in print order."""
    days = []
    for line in stdout.splitlines():
        match = _DAY_LINE.match(line)
        if match is None:
            continue
        detected = match.group("detected")
        days.append(DayLine(
            tenant="",
            label=match.group("label"),
            records=int(match.group("records")),
            detected=(
                () if detected == "-" else tuple(ast.literal_eval(detected))
            ),
        ))
    return days


def parse_fleet_report(text: str) -> list[DayLine]:
    """Tenant-days of a ``fleet --json`` report, tenants sorted."""
    report = json.loads(text)
    return [
        DayLine(
            tenant=tenant_id,
            label=day["source"],
            records=int(day["records"]),
            detected=tuple(day["detected"]),
        )
        for tenant_id in sorted(report["tenants"])
        for day in report["tenants"][tenant_id]["days"]
    ]


def detections(days: list[DayLine]) -> list[tuple[str, tuple[str, ...]]]:
    """The comparable core of a replay: per day, in order, which tenant
    detected which domains (labels differ between run and stream)."""
    return [(day.tenant, tuple(sorted(day.detected))) for day in days]


@dataclass
class Quality:
    """Detections scored against a layout's ground truth."""

    detected: int
    recall: float
    false_positives: int


def score(days: list[DayLine], truth: set[str]) -> Quality:
    found = {domain for day in days for domain in day.detected}
    return Quality(
        detected=len(found),
        recall=len(found & truth) / len(truth) if truth else 1.0,
        false_positives=len(found - truth),
    )


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 50.0)
