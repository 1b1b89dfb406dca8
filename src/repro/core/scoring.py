"""Domain scorers: regression-weighted (enterprise) and additive (LANL).

Two interchangeable scorer families plug into belief propagation:

* :class:`RegressionCCScorer` / :class:`RegressionSimilarityScorer` --
  the enterprise path (Sections IV-C, IV-D): features weighted by a
  trained linear model.
* :class:`AdditiveSimilarityScorer` and
  :func:`multi_host_beacon_heuristic` -- the LANL path (Section V-B),
  where registration and HTTP features do not exist and training data
  is too scarce for regression: a normalized additive score over
  connectivity, timing and IP proximity, and the "two hosts beaconing
  in sync" C&C heuristic.

Each family also ships an *incremental frontier scorer* for the
belief-propagation hot path (:class:`IncrementalAdditiveScorer`,
:class:`BatchedSimilarityScorer`).  Rescoring every frontier domain
against the entire malicious set each iteration is
O(iterations x frontier x malicious); because Algorithm 1 is monotone
(domains only ever *enter* the malicious set) and its timing/subnet
similarity components are min/max aggregates, the incremental scorers
fold in only the domains labeled since the previous iteration and
reproduce the per-domain scorers' results exactly -- the parity the
randomized tests and ``bench_bp_scale`` assert.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..features.extract import (
    SIMILARITY_FEATURE_NAMES,
    FeatureExtractor,
    timing_closeness,
)
from ..features.regression import LinearModel
from ..profiling.rare import DOMAIN_MASK, PAIR_SHIFT, DailyTraffic
from ..timing.detector import AutomationVerdict


@dataclass(frozen=True)
class ScoredDomain:
    """A domain with its computed suspiciousness score."""

    domain: str
    score: float


class RegressionCCScorer:
    """Scores rare automated domains with the trained C&C model."""

    def __init__(
        self,
        model: LinearModel,
        extractor: FeatureExtractor,
        threshold: float = 0.4,
    ) -> None:
        self.model = model
        self.extractor = extractor
        self.threshold = threshold

    def score(
        self,
        domain: str,
        traffic: DailyTraffic,
        automated_hosts: set[str],
        when: float,
    ) -> float:
        """Regression C&C score for a domain's automated hosts at ``when``."""
        features = self.extractor.cc_features(domain, traffic, automated_hosts, when)
        return self.model.score(features.as_vector())

    def score_automated(
        self,
        verdicts: Iterable[AutomationVerdict],
        traffic: DailyTraffic,
        when: float,
    ) -> dict[str, float]:
        """The day's ``Detect_C&C`` scores in one matrix pass: every
        domain with an automated host, in sorted-name order.  Domains
        at or above :attr:`threshold` are the day's potential C&C.

        Builds one feature matrix
        (:meth:`~repro.features.extract.FeatureExtractor.cc_feature_matrix`)
        and scores it column-wise
        (:meth:`~repro.features.regression.LinearModel.score_many`);
        both steps are documented bit-identical to the per-domain
        :meth:`score` loop in that order, including the WHOIS
        imputation state evolution.
        """
        auto_hosts = automated_hosts_by_domain(verdicts)
        if not auto_hosts:
            return {}
        domains = sorted(auto_hosts)
        matrix = self.extractor.cc_feature_matrix(
            domains, traffic, auto_hosts, when
        )
        return dict(zip(domains, self.model.score_many(matrix).tolist()))

    def is_cc(
        self,
        domain: str,
        traffic: DailyTraffic,
        automated_hosts: set[str],
        when: float,
    ) -> bool:
        """``Detect_C&C``: automated connections + score above ``Tc``."""
        if not automated_hosts:
            return False
        return self.score(domain, traffic, automated_hosts, when) >= self.threshold


class RegressionSimilarityScorer:
    """Scores rare domains against the labeled-malicious set."""

    def __init__(self, model: LinearModel, extractor: FeatureExtractor) -> None:
        self.model = model
        self.extractor = extractor

    def score(
        self,
        domain: str,
        malicious: set[str],
        traffic: DailyTraffic,
        when: float,
    ) -> float:
        """Regression similarity of ``domain`` to the malicious set."""
        features = self.extractor.similarity_features(
            domain, malicious, traffic, when
        )
        return self.model.score(features.as_vector())

    def frontier_scorer(self, traffic: DailyTraffic, when: float):
        """A fresh :data:`~repro.core.beliefprop.ScoreFrontier` hook
        for one belief-propagation run over ``traffic``: :meth:`score`
        batched over the frontier (:class:`BatchedSimilarityScorer`)."""
        return BatchedSimilarityScorer(self, traffic, when).score_frontier


class AdditiveSimilarityScorer:
    """LANL additive similarity score (Section V-B).

    Three components, summed then normalized by the maximum possible
    sum so the score lies in [0, 1]:

    * connectivity: hosts contacting the domain, scaled to [0, 1];
    * timing: 1 when the domain was first contacted within
      ``timing_window`` of a malicious domain by the same host;
    * IP proximity: 2 for sharing a /24 with a malicious domain, 1 for
      a /16, 0 otherwise.
    """

    MAX_COMPONENT_SUM = 4.0  # 1 (connectivity) + 1 (timing) + 2 (IP/24)

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        *,
        timing_window: float = 600.0,
        host_cap: int = 10,
    ) -> None:
        self.extractor = extractor or FeatureExtractor()
        self.timing_window = timing_window
        self.host_cap = host_cap

    def components(
        self, domain: str, malicious: set[str], traffic: DailyTraffic
    ) -> tuple[float, float, float]:
        """(connectivity, timing, ip) raw components."""
        hosts = len(traffic.hosts_by_domain.get(domain, ()))
        connectivity = min(hosts, self.host_cap) / self.host_cap
        gap = FeatureExtractor.min_visit_gap(domain, malicious, traffic)
        timing = 1.0 if gap is not None and gap <= self.timing_window else 0.0
        ip24, ip16 = FeatureExtractor.subnet_proximity(domain, malicious, traffic)
        if ip24:
            ip = 2.0
        elif ip16:
            ip = 1.0
        else:
            ip = 0.0
        return connectivity, timing, ip

    def score(
        self,
        domain: str,
        malicious: set[str],
        traffic: DailyTraffic,
        when: float = 0.0,
    ) -> float:
        """Additive (feature-count) similarity score in [0, 1]."""
        connectivity, timing, ip = self.components(domain, malicious, traffic)
        return (connectivity + timing + ip) / self.MAX_COMPONENT_SUM

    def frontier_scorer(
        self, traffic: DailyTraffic, *, stats: "SimilarityStats | None" = None
    ):
        """A fresh :data:`~repro.core.beliefprop.ScoreFrontier` hook
        over ``traffic``: :meth:`score` made incremental
        (:class:`IncrementalAdditiveScorer`).  One per run, or one per
        streaming day for as long as the malicious set only grows."""
        return IncrementalAdditiveScorer(
            self, traffic, stats=stats
        ).score_frontier


@dataclass
class SimilarityStats:
    """Plain-int work counters of the frontier scorers (they outlive
    any one scorer: an engine hands the same object to each)."""

    rescored: int = 0
    tracked: int = 0
    rebuilds: int = 0
    cold_restarts: int = 0

    def metrics_samples(self) -> dict[str, int]:
        """Collector samples, ``stream_similarity_events_total{kind=}``
        (same bridge as ``VerdictCacheStats.metrics_samples``)."""
        from ..obs.metrics import sample_key

        return {
            sample_key("stream_similarity_events_total", kind=kind): value
            for kind, value in vars(self).items()
        }


class SimilarityIndexState:
    """Incremental best-gap / subnet-hit state against a growing set.

    The similarity components that depend on the malicious set are a
    min (first-visit gap) and two ORs (/24 and /16 co-location) -- all
    monotone under set growth *and* under traffic growth, so folding in
    only newly labeled domains and only new traffic is exact.  One
    instance lives as long as its malicious set only grows: one batch
    belief-propagation run, or a streaming day between cold rounds.  It
    follows its :class:`~repro.profiling.rare.DailyTraffic` through the
    traffic's change feeds (:meth:`sync`); the one non-monotone event --
    a late, earlier timestamp rewriting a first contact it depends on --
    makes it rebuild itself from the ids it has absorbed and tracked.

    State per tracked frontier domain: the best first-visit gap to any
    malicious domain over co-visiting hosts, and whether any malicious
    domain shares a /24 (/16).  Absorbing ``k`` new labels touches only
    hosts and subnet keys of those ``k`` domains.  :meth:`drain_dirty`
    names the tracked domains whose scoring inputs changed.
    """

    def __init__(
        self, traffic: DailyTraffic, stats: SimilarityStats | None = None
    ) -> None:
        self.traffic = traffic
        self.stats = stats if stats is not None else SimilarityStats()
        self._mal_ids: set[int] = set()
        self._tracked: set[int] = set()
        self._reset()

    def _reset(self) -> None:
        """Empty derived state, cursors at the ends of the feeds."""
        traffic = self.traffic
        self._pair_cursor = len(traffic.pair_feed)
        self._ip_cursor = len(traffic.ip_feed)
        self._rewrite_cursor = len(traffic.rewrite_feed)
        #: host id -> sorted first-contact times of malicious domains.
        self._mal_first: dict[int, list[float]] = {}
        #: per prefix: (malicious subnet keys, key -> tracked domain
        #: ids resolving into it, tracked ids sharing a malicious key).
        self._nets24: tuple[set, dict, set] = (set(), {}, set())
        self._nets16: tuple[set, dict, set] = (set(), {}, set())
        self._best_gap: dict[int, float] = {}
        self._dirty: set[int] = set()

    def sync(self) -> None:
        """Fold in what the traffic recorded since the last call."""
        traffic = self.traffic
        mal_ids = self._mal_ids
        tracked = self._tracked
        feed = traffic.rewrite_feed
        if len(feed) > self._rewrite_cursor:
            # Min-gaps cannot be repaired locally once a first contact
            # they were taken over has moved: start over.
            if any(
                pair & DOMAIN_MASK in mal_ids or pair & DOMAIN_MASK in tracked
                for pair in feed[self._rewrite_cursor:]
            ):
                self.stats.rebuilds += 1
                self._reset()
                for m in mal_ids:
                    self._absorb_id(m)
                for d in tracked:
                    self._track_id(d)
                return
            self._rewrite_cursor = len(feed)
        feed = traffic.pair_feed
        if len(feed) > self._pair_cursor:
            for pair in feed[self._pair_cursor:]:
                h, d = pair >> PAIR_SHIFT, pair & DOMAIN_MASK
                if d in mal_ids:
                    self._malicious_pair(h, traffic.pair_head(h, d))
                elif d in tracked:
                    self._dirty.add(d)  # one more host: connectivity
                    self._tracked_pair(h, d, traffic.pair_head(h, d))
            self._pair_cursor = len(feed)
        feed = traffic.ip_feed
        if len(feed) > self._ip_cursor:
            for d, key24, key16 in feed[self._ip_cursor:]:
                if d in mal_ids:
                    self._malicious_keys((key24,), (key16,))
                elif d in tracked:
                    self._tracked_keys(d, (key24,), (key16,))
            self._ip_cursor = len(feed)

    # -- the four folds (shared by sync, absorb and track) ------------

    def _malicious_pair(self, h: int, t_mal: float) -> None:
        """Host ``h`` first reached a malicious domain at ``t_mal``."""
        traffic = self.traffic
        insort(self._mal_first.setdefault(h, []), t_mal)
        # Only domains co-visited by this host can see their gap
        # shrink -- walk its neighborhood.
        for d in traffic.domain_row(h):
            if d not in self._tracked or d in self._mal_ids:
                continue
            gap = abs(traffic.pair_head(h, d) - t_mal)
            best = self._best_gap.get(d)
            if best is None or gap < best:
                self._best_gap[d] = gap
                self._dirty.add(d)

    def _tracked_pair(self, h: int, d: int, t_dom: float) -> None:
        """Host ``h`` first reached tracked domain ``d`` at ``t_dom``."""
        times = self._mal_first.get(h)
        if not times:
            return
        # Nearest malicious first-contact on this shared host.
        pos = bisect_left(times, t_dom)
        gap = times[pos] - t_dom if pos < len(times) else None
        if pos and (gap is None or t_dom - times[pos - 1] < gap):
            gap = t_dom - times[pos - 1]
        best = self._best_gap.get(d)
        if best is None or gap < best:
            self._best_gap[d] = gap
            self._dirty.add(d)

    def _malicious_keys(self, keys24: Iterable[str], keys16) -> None:
        """A malicious domain resolves into these subnets."""
        for keys, (malicious, owners, hit) in (
            (keys24, self._nets24), (keys16, self._nets16)
        ):
            for key in keys:
                if key not in malicious:
                    malicious.add(key)
                    sharing = owners.get(key, ())
                    hit.update(sharing)
                    self._dirty.update(sharing)

    def _tracked_keys(self, d: int, keys24: Iterable[str], keys16) -> None:
        """Tracked domain ``d`` resolves into these subnets."""
        for keys, (malicious, owners, hit) in (
            (keys24, self._nets24), (keys16, self._nets16)
        ):
            for key in keys:
                # A /16 can arrive twice (once per new /24 inside it);
                # the repeated owner entry is harmless.
                owners.setdefault(key, []).append(d)
                if key in malicious:
                    hit.add(d)
                    self._dirty.add(d)

    def _absorb_id(self, m: int) -> None:
        traffic = self.traffic
        self._malicious_keys(traffic.keys24(m), traffic.keys16(m))
        for h in traffic.host_row(m):
            self._malicious_pair(h, traffic.pair_head(h, m))

    def _track_id(self, d: int) -> None:
        traffic = self.traffic
        self._dirty.add(d)
        self._tracked_keys(d, traffic.keys24(d), traffic.keys16(d))
        for h in traffic.host_row(d):
            self._tracked_pair(h, d, traffic.pair_head(h, d))

    # -- growing the two sets -----------------------------------------

    def absorb(self, new_malicious: Iterable[str]) -> None:
        """Fold newly labeled domains into the malicious-side state."""
        self.sync()
        for name in new_malicious:
            m = self.traffic.domain_id(name)
            if m is None or m in self._mal_ids:
                # Domains with no traffic today contribute no hosts,
                # timestamps or IPs -- exactly the legacy scorers'
                # empty-set behaviour.
                continue
            self._mal_ids.add(m)
            self._absorb_id(m)

    def track(self, frontier: Iterable[str]) -> None:
        """Initialize state for frontier domains seen for the first
        time, against the malicious set absorbed so far."""
        self.sync()
        for name in frontier:
            d = self.traffic.domain_id(name)
            if d is None or d in self._tracked:
                continue
            self._tracked.add(d)
            self.stats.tracked += 1
            self._track_id(d)

    # -- per-domain reads ---------------------------------------------

    def drain_dirty(self) -> set[int]:
        """Tracked ids whose inputs changed since the last drain: a new
        host, a smaller gap, a new subnet hit, or newly tracked."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def best_gap(self, d_id: int) -> float | None:
        """Minimum first-visit gap to the malicious set; ``None`` when
        no host co-visited the domain and a malicious one."""
        return self._best_gap.get(d_id)

    def subnet_flags(self, d_id: int) -> tuple[float, float]:
        """(ip24, ip16) indicators against the malicious set."""
        return (
            1.0 if d_id in self._nets24[2] else 0.0,
            1.0 if d_id in self._nets16[2] else 0.0,
        )


class IncrementalAdditiveScorer:
    """LANL frontier scorer: :class:`AdditiveSimilarityScorer` made
    incremental.

    Exposes the :data:`repro.core.beliefprop.ScoreFrontier` hook --
    ``score_frontier(frontier, new_malicious)`` -- and reproduces the
    per-domain scorer's arithmetic term by term, so detections are
    byte-identical while a call costs O(labeled delta + traffic delta)
    in Python: it keeps every tracked domain's score and recomputes
    only those whose inputs the state reports changed.  The batch path
    builds one per run; :class:`repro.streaming.StreamingDetector`
    keeps one for as long as the day's malicious set only grows.
    """

    def __init__(
        self,
        base: AdditiveSimilarityScorer,
        traffic: DailyTraffic,
        *,
        stats: SimilarityStats | None = None,
    ) -> None:
        self.base = base
        self.traffic = traffic
        self.state = SimilarityIndexState(traffic, stats)
        #: tracked domain name -> its current score.
        self._scores: dict[str, float] = {}

    def score_frontier(
        self, frontier: Sequence[str], new_malicious: Set[str]
    ) -> dict[str, float]:
        """Scores for every frontier domain after folding in the delta."""
        state = self.state
        scores = self._scores
        state.absorb(new_malicious)
        state.track(set(frontier).difference(scores))
        dirty = state.drain_dirty()
        state.stats.rescored += len(dirty)
        traffic = self.traffic
        base = self.base
        cap = base.host_cap
        window = base.timing_window
        for d in dirty:
            connectivity = min(traffic.host_count(d), cap) / cap
            gap = state.best_gap(d)
            timing = 1.0 if gap is not None and gap <= window else 0.0
            ip24, ip16 = state.subnet_flags(d)
            if ip24:
                ip = 2.0
            elif ip16:
                ip = 1.0
            else:
                ip = 0.0
            scores[traffic.domain_name(d)] = (
                connectivity + timing + ip
            ) / base.MAX_COMPONENT_SUM
        # A name with no traffic today is in no map: it scores 0.
        return dict(zip(frontier, map(scores.get, frontier, repeat(0.0))))


class BatchedSimilarityScorer:
    """Enterprise frontier scorer: :class:`RegressionSimilarityScorer`
    batched over the frontier.

    Assembles the frontier's eight-feature matrix -- static columns
    cached per domain, timing/subnet columns maintained incrementally
    by :class:`SimilarityIndexState` -- and scores it with one
    :meth:`~repro.features.regression.LinearModel.score_many` pass.

    WHOIS registration features need care: the per-domain extractor
    advances running imputation means on every successful lookup, and
    imputed domains read those means at extraction time.  The batched
    scorer replays the cached lookup values through
    :meth:`~repro.features.whois.WhoisFeatureExtractor.extract_known`
    in the same sorted-frontier order every round, so the shared
    extractor's state (and every imputed feature) stays bit-identical
    to the per-domain path's.  That replay over the *whole* frontier
    is why :class:`~repro.streaming.StreamingEnterpriseDetector` still
    builds one per scoring round: a day-lived instance would save only
    the state's share, not the per-name loop the replay needs.
    """

    def __init__(
        self,
        scorer: RegressionSimilarityScorer,
        traffic: DailyTraffic,
        when: float,
    ) -> None:
        if scorer.model.feature_names != SIMILARITY_FEATURE_NAMES:
            raise ValueError(
                "similarity model features "
                f"{scorer.model.feature_names} do not match "
                f"{SIMILARITY_FEATURE_NAMES}"
            )
        self.model = scorer.model
        self.extractor = scorer.extractor
        self.traffic = traffic
        self.when = when
        self.state = SimilarityIndexState(traffic)
        #: domain -> (no_hosts, no_ref, rare_ua), frozen for the day.
        self._static: dict[str, tuple[float, float, float]] = {}
        #: domain -> (dom_age, dom_validity) of a successful WHOIS
        #: lookup, or None when the domain imputes.
        self._registration: dict[str, tuple[float, float] | None] = {}

    def _registration_pair(self, domain: str) -> tuple[float, float]:
        whois = self.extractor.whois
        if whois is None:
            # DNS-only datasets: the extractor's neutral constant.
            return (0.5, 0.5)
        if domain not in self._registration:
            features = whois.extract(domain, self.when)
            self._registration[domain] = (
                None if features.imputed
                else (features.dom_age, features.dom_validity)
            )
            return (features.dom_age, features.dom_validity)
        cached = self._registration[domain]
        if cached is None:
            features = whois.impute_defaults()
            return (features.dom_age, features.dom_validity)
        features = whois.extract_known(*cached)
        return (features.dom_age, features.dom_validity)

    def score_frontier(
        self, frontier: Sequence[str], new_malicious: Set[str]
    ) -> dict[str, float]:
        """Scores for every frontier domain after folding in the delta."""
        state = self.state
        state.absorb(new_malicious)
        state.track(frontier)
        traffic = self.traffic
        matrix = np.empty((len(frontier), len(SIMILARITY_FEATURE_NAMES)))
        for row, name in enumerate(frontier):
            static = self._static.get(name)
            if static is None:
                static = self.extractor.similarity_static(name, traffic)
                self._static[name] = static
            no_hosts, no_ref, rare_ua = static
            d = traffic.domain_id(name)
            if d is None:
                dom_interval, ip24, ip16 = 0.0, 0.0, 0.0
            else:
                dom_interval = timing_closeness(state.best_gap(d))
                ip24, ip16 = state.subnet_flags(d)
            dom_age, dom_validity = self._registration_pair(name)
            matrix[row] = (
                no_hosts, dom_interval, ip24, ip16,
                no_ref, rare_ua, dom_age, dom_validity,
            )
        scores = self.model.score_many(matrix)
        return {
            name: float(score) for name, score in zip(frontier, scores)
        }


def group_verdicts_by_domain(
    verdicts: Iterable[AutomationVerdict],
) -> dict[str, list[AutomationVerdict]]:
    """Automation verdicts grouped by domain, insertion-ordered.

    :func:`multi_host_beacon_heuristic` filters its ``verdicts``
    argument down to one domain; callers testing every automated
    domain should group once and pass each domain's slice instead of
    re-scanning the full verdict list per domain
    (O(domains x verdicts))."""
    by_domain: dict[str, list[AutomationVerdict]] = {}
    for verdict in verdicts:
        by_domain.setdefault(verdict.domain, []).append(verdict)
    return by_domain


#: Fewest distinct same-day hosts that must beacon to a rare domain
#: before the LANL heuristic can call it C&C (Section V-B).  The DNS
#: streaming engine reads the same constant as the floor below which a
#: (host, domain) automation verdict cannot reach a detection.
MULTI_HOST_MIN_HOSTS = 2


def multi_host_beacon_heuristic(
    domain: str,
    verdicts: Sequence[AutomationVerdict],
    *,
    sync_window: float = 10.0,
    min_hosts: int = MULTI_HOST_MIN_HOSTS,
) -> bool:
    """LANL C&C heuristic (Section V-B).

    A rare automated domain is potential C&C when at least ``min_hosts``
    distinct hosts beacon to it *at similar time periods* -- their
    inferred periods differ by at most ``sync_window`` seconds.  This
    works on LANL because every simulated campaign infects multiple
    hosts; the enterprise regression scorer handles the single-host
    case.
    """
    periods = [
        v.period for v in verdicts if v.domain == domain and v.automated
    ]
    if len(periods) < min_hosts:
        return False
    periods.sort()
    # Any pair within the window qualifies; with sorted periods the
    # closest pairs are adjacent.
    return any(
        later - earlier <= sync_window
        for earlier, later in zip(periods, periods[1:])
    )


def multi_host_cc_domains(verdicts: Iterable[AutomationVerdict]) -> set[str]:
    """The DNS path's whole C&C stage: the domains of a day's
    automation verdicts that pass :func:`multi_host_beacon_heuristic`."""
    return {
        domain
        for domain, domain_verdicts
        in group_verdicts_by_domain(verdicts).items()
        if multi_host_beacon_heuristic(domain, domain_verdicts)
    }


def automated_hosts_by_domain(
    verdicts: Iterable[AutomationVerdict],
) -> dict[str, set[str]]:
    """Domain -> the hosts whose series to it tested automated."""
    by_domain: dict[str, set[str]] = {}
    for verdict in verdicts:
        if verdict.automated:
            by_domain.setdefault(verdict.domain, set()).add(verdict.host)
    return by_domain
