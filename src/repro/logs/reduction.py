"""Data-reduction funnel with per-step accounting (Section IV-A, Figure 2).

The paper reduces multi-terabyte daily logs by an order of magnitude
before any detection runs.  For DNS logs the steps are:

1. keep only A records;
2. drop queries for internal resources;
3. drop queries initiated by internal servers.

Profiling then derives *new* and *rare* destinations on top of the
reduced stream.  :class:`ReductionFunnel` runs log rows through the
filters while counting distinct domains surviving each step per day --
exactly the series plotted in Figure 2 -- and packs the survivors
straight into :class:`~repro.logs.records.ConnectionBatch` columns,
the form :class:`~repro.profiling.rare.DailyTraffic` ingests.  That
one loop (:meth:`ReductionFunnel.column_batches`) is the only
implementation of the filters and their accounting: log files reach it
through :meth:`~ReductionFunnel.read_lines`, in-memory records through
:meth:`~ReductionFunnel.read_records`.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from ..obs.metrics import NULL_METRICS
from .domains import fold_domain, is_internal_domain
from .records import ConnectionBatch, DnsRecord, DnsRecordType

SECONDS_PER_DAY = 86_400

#: Ordered step names; "new"/"rare" are appended by the profiling layer.
DNS_REDUCTION_STEPS = (
    "all",
    "a_records",
    "filter_internal_queries",
    "filter_internal_servers",
)

_RECORD_TYPES = frozenset(kind.value for kind in DnsRecordType)

#: A :class:`DnsRecord` as the five fields of its log line, in order.
_record_fields = attrgetter(
    "timestamp", "source_ip", "record_type.value", "domain", "resolved_ip"
)


@dataclass
class ReductionStats:
    """Distinct-domain and record counts per reduction step and day."""

    domains: dict[str, dict[int, set[str]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(set))
    )
    records: dict[str, dict[int, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )
    malformed: int = 0
    """Non-blank log lines that failed validation (wrong field count,
    bad timestamp, unknown record type); they belong to no day."""

    def observe(self, step: str, day: int, domain: str) -> None:
        """Record one day's pre/post-reduction record counts."""
        self.domains[step][day].add(domain)
        self.records[step][day] += 1

    def domain_counts(self, step: str) -> dict[int, int]:
        """Distinct domains per day surviving ``step``."""
        return {day: len(doms) for day, doms in self.domains[step].items()}

    def record_counts(self, step: str) -> dict[int, int]:
        return dict(self.records[step])

    def days(self) -> list[int]:
        """How many days of reduction this tracker has observed."""
        observed: set[int] = set()
        for per_day in self.domains.values():
            observed.update(per_day)
        return sorted(observed)


class ReductionFunnel:
    """Runs DNS log rows through the Section IV-A reduction filters.

    Parameters mirror the paper's setting: the organization's internal
    namespace suffixes and the set of internal server addresses whose
    queries should be ignored.  One pass at a time: the funnel carries
    the open day's accounting between passes, not between interleaved
    ones.
    """

    _FLUSH_EVERY = 4096

    def __init__(
        self,
        internal_suffixes: tuple[str, ...] = (),
        server_ips: frozenset[str] = frozenset(),
        *,
        fold_level: int = 3,
        metrics=None,
    ) -> None:
        self.internal_suffixes = internal_suffixes
        self.server_ips = server_ips
        self.fold_level = fold_level
        self.stats = ReductionStats()
        # The row loop never touches the registry: counts accumulate in
        # ``_pending`` (aligned with ``_counters``) and flush in bulk
        # every ``_FLUSH_EVERY`` records and at the end of each pass,
        # so a registry lock is taken a handful of times per day
        # (``metrics`` is an optional repro.obs.MetricsRegistry).
        obs = metrics if metrics is not None else NULL_METRICS
        self._counters = (
            obs.counter("reduction_records_total"),
            obs.counter(
                "reduction_kept_total", stage="filter_internal_servers"
            ),
            obs.counter("reduction_dropped_total", stage="non_a_record"),
            obs.counter("reduction_dropped_total", stage="internal_query"),
            obs.counter("reduction_dropped_total", stage="internal_server"),
            obs.counter("reduction_malformed_total"),
        )
        self._pending = [0] * len(self._counters)
        # Folding and the internal-namespace test are pure functions of
        # the raw name, and a name's step sets only change the first
        # time it reaches a deeper step that day: raw name ->
        # ``[folded, external, deepest step reached today]``.  Cleared
        # at each day boundary, so it holds one day's vocabulary however
        # long the funnel lives.
        self._domain_memo: dict[str, list] = {}
        self._stat_day: int | None = None
        self._day_sets: tuple[set[str], ...] = (set(),) * 4

    def _open_day(self, day: int) -> tuple[set[str], ...]:
        """Make ``day`` the accounting day; its four per-step sets."""
        self._stat_day = day
        self._domain_memo.clear()
        self._day_sets = tuple(
            self.stats.domains[step][day] for step in DNS_REDUCTION_STEPS
        )
        return self._day_sets

    def _account(
        self,
        kept: int,
        drop_a: int,
        drop_query: int,
        drop_server: int,
        malformed: int,
    ) -> None:
        """Fold one span's counts (all of the open day) into the stats
        and the pending registry counts."""
        seen = kept + drop_a + drop_query + drop_server
        records = self.stats.records
        for step, count in zip(
            DNS_REDUCTION_STEPS,
            (seen, seen - drop_a, kept + drop_server, kept),
        ):
            if count:
                records[step][self._stat_day] += count
        self.stats.malformed += malformed
        pending = self._pending
        for slot, count in enumerate(
            (seen, kept, drop_a, drop_query, drop_server, malformed)
        ):
            pending[slot] += count
        if pending[0] >= self._FLUSH_EVERY:
            self.flush_metrics()

    def flush_metrics(self) -> None:
        """Fold the locally accumulated counts into the registry.

        Called automatically on the flush cadence and when a pass ends;
        snapshots taken at day/round barriers are therefore exact.
        """
        pending = self._pending
        for slot, counter in enumerate(self._counters):
            if pending[slot]:
                counter.inc(pending[slot])
                pending[slot] = 0

    def column_batches(
        self,
        rows: Iterable[Sequence],
        batch_size: int | None = None,
    ) -> Iterator[ConnectionBatch]:
        """Validate, filter, account and pack log rows into columns.

        ``rows`` are the whitespace-split fields of DNS log lines
        (``<epoch> <source_ip> <record_type> <domain> <resolved_ip|->``).
        A row with the wrong field count, a non-finite or unparseable
        timestamp or an unknown record type is counted as malformed
        and skipped (an empty row -- a blank line -- is just skipped);
        the rest pass the three filters in order, each step counted per
        day and distinct folded domain.  Survivors are appended to
        ``(timestamps, hosts, domains, resolved_ips)`` columns and
        yielded every ``batch_size`` rows (``None``: one batch for the
        whole input; never an empty batch).  Stats and pending metric
        counts are exact whenever the consumer holds control.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be positive")
        limit = batch_size or sys.maxsize
        memo = self._domain_memo
        fold_level = self.fold_level
        suffixes = self.internal_suffixes
        server_ips = self.server_ips
        record_types = _RECORD_TYPES
        dom_all, dom_a, dom_ext, dom_kept = self._day_sets
        day_lo = day_hi = 0.0
        if self._stat_day is not None:
            day_lo = float(self._stat_day * SECONDS_PER_DAY)
            day_hi = day_lo + SECONDS_PER_DAY
        times: list[float] = []
        hosts: list[str] = []
        domains: list[str] = []
        ips: list[str] = []
        accounted = 0  # rows of ``times`` already folded into the stats
        drop_a = drop_query = drop_server = malformed = 0
        try:
            for row in rows:
                try:
                    raw_ts, source_ip, raw_type, domain, resolved = row
                    timestamp = float(raw_ts)
                except ValueError:
                    if row:
                        malformed += 1
                    continue
                # How deep the row gets through the funnel: 1 = dropped
                # as non-A, 2 = internal query, 3 = internal server,
                # 4 = kept.
                depth = 0
                if raw_type != "A":
                    if raw_type not in record_types:
                        malformed += 1
                        continue
                    depth = 1
                if not day_lo <= timestamp < day_hi:
                    if not math.isfinite(timestamp):
                        malformed += 1
                        continue
                    self._account(
                        len(times) - accounted,
                        drop_a, drop_query, drop_server, malformed,
                    )
                    accounted = len(times)
                    drop_a = drop_query = drop_server = malformed = 0
                    day = int(timestamp // SECONDS_PER_DAY)
                    dom_all, dom_a, dom_ext, dom_kept = self._open_day(day)
                    day_lo = float(day * SECONDS_PER_DAY)
                    day_hi = day_lo + SECONDS_PER_DAY
                entry = memo.get(domain)
                if entry is None:
                    entry = memo[domain] = [
                        fold_domain(domain, fold_level),
                        not is_internal_domain(domain, suffixes),
                        0,
                    ]
                if not depth:
                    if not entry[1]:
                        depth = 2
                    elif source_ip in server_ips:
                        depth = 3
                    else:
                        depth = 4
                reached = entry[2]
                if depth > reached:
                    entry[2] = depth
                    folded = entry[0]
                    if not reached:
                        dom_all.add(folded)
                    if reached < 2 <= depth:
                        dom_a.add(folded)
                    if reached < 3 <= depth:
                        dom_ext.add(folded)
                    if depth == 4:
                        dom_kept.add(folded)
                if depth == 4:
                    times.append(timestamp)
                    hosts.append(source_ip)
                    domains.append(entry[0])
                    ips.append("" if resolved == "-" else resolved)
                    if len(times) == limit:
                        self._account(
                            limit - accounted,
                            drop_a, drop_query, drop_server, malformed,
                        )
                        drop_a = drop_query = drop_server = malformed = 0
                        batch = ConnectionBatch(times, hosts, domains, ips)
                        times, hosts, domains, ips = [], [], [], []
                        accounted = 0
                        yield batch
                elif depth == 1:
                    drop_a += 1
                elif depth == 2:
                    drop_query += 1
                else:
                    drop_server += 1
        finally:
            self._account(
                len(times) - accounted,
                drop_a, drop_query, drop_server, malformed,
            )
            self.flush_metrics()
        if times:
            yield ConnectionBatch(times, hosts, domains, ips)

    def read_lines(
        self, lines: Iterable[str], batch_size: int | None = None
    ) -> Iterator[ConnectionBatch]:
        """:meth:`column_batches` over the lines of a DNS log file."""
        return self.column_batches(map(str.split, lines), batch_size)

    def read_records(
        self, records: Iterable[DnsRecord], batch_size: int | None = None
    ) -> Iterator[ConnectionBatch]:
        """:meth:`column_batches` over in-memory :class:`DnsRecord` s."""
        return self.column_batches(map(_record_fields, records), batch_size)

    def reduce(self, records: Iterable[DnsRecord]) -> Iterator[DnsRecord]:
        """Yield the records surviving all filters, with the accounting.

        In-memory adapter for callers that want the records themselves:
        each record rides through :meth:`column_batches` in its own
        answer field, which the loop passes through untouched, so the
        survivors come back out of the ``resolved_ips`` column.
        """
        rows = (
            (r.timestamp, r.source_ip, r.record_type.value, r.domain, r)
            for r in records
        )
        for batch in self.column_batches(rows, 512):
            yield from batch.resolved_ips

    def observe_profiling_step(self, step: str, day: int, domains: Iterable[str]) -> None:
        """Record domains surviving a downstream profiling step.

        The profiling layer calls this with the daily "new" and "rare"
        destination sets so the full Figure 2 funnel lives in one place.
        """
        for domain in domains:
            self.stats.observe(step, day, domain)
