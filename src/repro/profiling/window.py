"""Windowed profiling: the current day as an incrementally built window.

The one place a day of traffic opens, fills and closes -- under the
streaming engines (every verb), under training and under the
evaluation harnesses.  The :class:`WindowedAggregator` maintains the
day's :class:`~repro.profiling.rare.DailyTraffic` aggregate and its
rare set *as events arrive*:

* the day's traffic indexes grow per micro-batch (append-only);
* the rare-destination set, :attr:`WindowedAggregator.rare`, reacts to
  the popularity changes of each ingest instead of rescanning all
  domains, and :meth:`WindowedAggregator.ingest` returns the ingest's
  rarity flips with its digest, so the detector can invalidate exactly
  the automation verdicts and count exactly the rare domains that
  changed.

At a day boundary, :meth:`rollover` commits the window into the
long-lived :class:`~repro.profiling.history.DestinationHistory` (and
:class:`~repro.profiling.ua.UserAgentHistory` when present) exactly
once -- the same end-of-day update the paper's nightly cycle performs
-- and opens a fresh window.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..logs.records import Connection, ConnectionBatch
from .history import DestinationHistory
from .rare import DailyTraffic, IngestDigest, extract_rare_domains
from .ua import UserAgentHistory


class WindowedAggregator:
    """Maintains the current day's traffic window incrementally."""

    def __init__(
        self,
        day: int,
        history: DestinationHistory,
        *,
        unpopular_max_hosts: int = 10,
        ua_history: UserAgentHistory | None = None,
    ) -> None:
        self.history = history
        self.ua_history = ua_history
        self.unpopular_max_hosts = unpopular_max_hosts
        self.open_day(day)

    def open_day(self, day: int) -> None:
        """Make ``day`` the window's day, with nothing in it yet."""
        self.day = day
        self.traffic = DailyTraffic(day)
        #: the day's rare destinations (new AND unpopular); always
        #: equal to ``extract_rare_domains`` over the traffic so far.
        self.rare: set[str] = set()
        self.events_today = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(
        self, connections: Iterable[Connection] | ConnectionBatch
    ) -> tuple[IngestDigest, set[str]]:
        """Fold a micro-batch into the window; returns its digest and
        the domains whose rarity it flipped.

        The columnar :meth:`DailyTraffic.ingest
        <repro.profiling.rare.DailyTraffic.ingest>` already groups the
        batch once; everything here reads the resulting
        :class:`~repro.profiling.rare.IngestDigest` instead of
        re-looping over the connections.  A domain enters :attr:`rare`
        on its first contact of the day if the history has never seen
        it, and leaves for good once ``unpopular_max_hosts`` distinct
        hosts have contacted it (host counts only grow within a day,
        and the history commits only at :meth:`rollover`).
        """
        traffic = self.traffic
        if self.ua_history is not None:
            # UA staging rides inside the traffic ingest (the
            # ``ua_stage`` hook is fed from a scalar event's fields or
            # a batch's ``user_agents`` column while they are in hand);
            # events without HTTP context -- DNS -- stage nothing.
            digest = traffic.ingest(
                connections,
                ua_is_rare=self.ua_history.is_rare,
                ua_stage=self.ua_history.stage,
            )
        else:
            digest = traffic.ingest(connections)
        hosts_by_domain = traffic.hosts_by_domain
        is_new = self.history.is_new
        limit = self.unpopular_max_hosts
        rare = self.rare
        flips: set[str] = set()
        for domain in digest.domains:
            if len(hosts_by_domain[domain]) < limit:
                if domain not in rare and is_new(domain):
                    rare.add(domain)
                    flips.add(domain)
            elif domain in rare:
                rare.discard(domain)
                flips.add(domain)
        self.events_today += digest.n_events
        return digest, flips

    # ------------------------------------------------------------------
    # Day boundary
    # ------------------------------------------------------------------

    def rollover(self) -> DailyTraffic:
        """Close the window: commit histories once, open the next day.

        Staging happens here rather than per event: domains observed
        today still count as *new* for today's own detection, and a
        mid-day checkpoint never holds half-staged history state.
        """
        self.traffic.finalize()
        finished = self.traffic
        for domain in finished.hosts_by_domain:
            self.history.stage(domain, self.day)
        self.history.commit_day(self.day)
        if self.ua_history is not None:
            self.ua_history.commit_day()
        self.open_day(self.day + 1)
        return finished

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def resync(self) -> None:
        """Recompute the rare set from the traffic (restore path).  The
        traffic itself -- series and scoring rows -- was rebuilt by the
        same finalize pass as live ingest."""
        self.rare = extract_rare_domains(
            self.traffic,
            self.history,
            unpopular_max_hosts=self.unpopular_max_hosts,
        )
