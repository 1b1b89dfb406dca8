"""Period-aware automation-verdict caching for the streaming engine.

The batch pipeline tests every rare (host, domain) timestamp series
from scratch once per day; the streaming engine re-tests a series on
every scoring round that saw new events for it.  Most of that work is
redundant: the dynamic histogram clusters intervals in arrival order,
so *appending* events to a series extends the existing clusters
without disturbing them (:func:`repro.timing.histogram.assign_intervals`).
The cache exploits three increasingly strong facts, all exact:

``short``
    a series below ``min_connections`` is never automated -- no
    histogram is needed at all;
``incremental``
    when every new event lands at or after the last tested timestamp,
    the cached cluster state is extended with just the new intervals
    and the divergence recomputed over the bins -- O(new + bins)
    instead of O(series);
``periodic``
    when, additionally, the cached verdict was *automated* and every
    new interval joined the dominant bin, the verdict provably cannot
    change: the dominant bin only gains mass, and the Jeffrey
    divergence from the periodic reference is a strictly decreasing
    function of the dominant bin's frequency alone (the off-dominant
    terms sum to ``(1 - h_d) log 2``).  New beacons arriving on period
    therefore skip even the divergence recomputation -- the
    "period-aware invalidation" the roadmap names.

Any out-of-order arrival (a new event earlier than the last tested
timestamp) falls back to a full rebuild, so cached verdicts always
equal what :meth:`AutomationDetector.test_series` would return for the
``automated``/``period``/``connections`` fields -- the only fields
detection consumes.  On a ``periodic`` skip the recorded divergence is
the last computed (upper-bound) value rather than the slightly smaller
current one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from ..timing.detector import AutomationDetector, AutomationVerdict
from ..timing.histogram import assign_intervals, intervals


@dataclass
class VerdictCacheStats:
    """Counters for the benchmark to report (one engine's lifetime)."""

    full_tests: int = 0
    incremental_tests: int = 0
    short_skips: int = 0
    periodic_skips: int = 0
    not_rare_skips: int = 0
    unreachable_skips: int = 0
    """Stale rare series the engine never handed to the cache: their
    domain had fewer same-day hosts than the C&C stage needs
    (:attr:`StreamingEngineBase.cc_min_hosts
    <repro.streaming.engine.StreamingEngineBase.cc_min_hosts>`)."""

    @property
    def total(self) -> int:
        """Series the cache was asked about (``unreachable_skips`` are
        not: nothing could have read their verdict)."""
        return (
            self.full_tests + self.incremental_tests + self.short_skips
            + self.periodic_skips + self.not_rare_skips
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "full_tests": self.full_tests,
            "incremental_tests": self.incremental_tests,
            "short_skips": self.short_skips,
            "periodic_skips": self.periodic_skips,
            "not_rare_skips": self.not_rare_skips,
            "unreachable_skips": self.unreachable_skips,
        }

    def metrics_samples(self) -> dict[str, int]:
        """Counter samples for a metrics-registry collector.

        The plain-int fields stay the hot-path mechanism (no lock per
        skip); registering this method with
        :meth:`repro.obs.MetricsRegistry.add_collector` folds them into
        every snapshot as ``verdict_cache_events_total{kind=...}``, so
        the unified registry serves the verdict-cache stats too.
        """
        from ..obs.metrics import sample_key

        return {
            sample_key("verdict_cache_events_total", kind=kind): value
            for kind, value in self.as_dict().items()
        }


@dataclass
class _SeriesState:
    """Cached cluster state and last verdict of one (host, domain) series."""

    hubs: list[float]
    counts: list[int]
    n_events: int
    last_ts: float
    verdict: AutomationVerdict


class SeriesVerdictCache:
    """Incrementally maintained automation verdicts for one day's series."""

    def __init__(self, automation: AutomationDetector) -> None:
        self.automation = automation
        self.stats = VerdictCacheStats()
        self._states: dict[tuple[str, str], _SeriesState] = {}

    def __len__(self) -> int:
        return len(self._states)

    # ------------------------------------------------------------------

    def test(
        self,
        host: str,
        domain: str,
        timestamps: Sequence[float],
        new_timestamps: Sequence[float],
    ) -> AutomationVerdict:
        """Verdict for a sorted series, reusing cached cluster state.

        ``new_timestamps`` are the events appended since the previous
        call for this pair (unsorted, as they arrived); they determine
        whether the incremental path is sound.
        """
        pair = (host, domain)
        count = len(timestamps)
        if count < self.automation.config.min_connections:
            self.stats.short_skips += 1
            self._states.pop(pair, None)
            return AutomationVerdict(
                host=host, domain=domain, automated=False,
                divergence=float("inf"), period=0.0, connections=count,
            )

        state = self._states.get(pair)
        appended = (
            state is not None
            and new_timestamps
            and count == state.n_events + len(new_timestamps)
            and min(new_timestamps) >= state.last_ts
        )
        if appended:
            verdict = self._extend(pair, state, timestamps, new_timestamps)
        else:
            verdict = self._rebuild(pair, host, domain, timestamps)
        return verdict

    def invalidate(self, pair: tuple[str, str]) -> None:
        self._states.pop(pair, None)

    def clear(self) -> None:
        """Drop all series state (day rollover / checkpoint restore)."""
        self._states.clear()

    # ------------------------------------------------------------------

    def _rebuild(
        self,
        pair: tuple[str, str],
        host: str,
        domain: str,
        timestamps: Sequence[float],
    ) -> AutomationVerdict:
        """Full test, retaining the cluster state it builds."""
        self.stats.full_tests += 1
        automation = self.automation
        hubs, counts = automation.clusters(intervals(timestamps))
        verdict = automation.judge(host, domain, hubs, counts, len(timestamps))
        self._states[pair] = _SeriesState(
            hubs, counts, len(timestamps), timestamps[-1], verdict
        )
        return verdict

    def _extend(
        self,
        pair: tuple[str, str],
        state: _SeriesState,
        timestamps: Sequence[float],
        new_timestamps: Sequence[float],
    ) -> AutomationVerdict:
        """Append-only update: extend clusters with the new intervals."""
        counts = state.counts
        dominant = counts.index(max(counts))
        before = counts[dominant]
        assign_intervals(
            state.hubs, counts,
            intervals([state.last_ts, *sorted(new_timestamps)]),
            self.automation.config.bin_width,
        )
        state.n_events = len(timestamps)
        state.last_ts = timestamps[-1]
        if state.verdict.automated and (
            counts[dominant] - before == len(new_timestamps)
        ):
            # Every new interval fed the dominant bin (one that founds a
            # cluster feeds none): it stays dominant and the divergence
            # only decreased, so the automated verdict holds with the
            # same inferred period.
            self.stats.periodic_skips += 1
            verdict = replace(state.verdict, connections=state.n_events)
        else:
            self.stats.incremental_tests += 1
            verdict = self.automation.judge(
                pair[0], pair[1], state.hubs, counts, state.n_events
            )
        state.verdict = verdict
        return verdict
