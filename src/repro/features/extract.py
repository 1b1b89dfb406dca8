"""Feature extraction for C&C scoring and domain similarity (IV-C, IV-D).

Two feature families, both normalized to [0, 1] so regression scores
land on a comparable scale:

**C&C features** (six, Section IV-C) for rare *automated* domains:

================  ====================================================
``no_hosts``      domain connectivity: distinct hosts contacting the
                  domain, capped and scaled
``auto_hosts``    hosts with automated connections to the domain
``no_ref``        fraction of contacting hosts using no web referer
``rare_ua``       fraction of contacting hosts using no or a rare UA
``dom_age``       normalized days since registration (old = high)
``dom_validity``  normalized days until expiry (long = high)
================  ====================================================

**Similarity features** (eight, Section IV-D) for rare domains compared
against the set labeled malicious in earlier belief-propagation
iterations: connectivity, ``dom_interval`` (timing closeness to the
malicious set), ``ip24``/``ip16`` subnet co-location, plus the NoRef /
RareUA / registration features above.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..logs.domains import subnet_key
from ..profiling.rare import DailyTraffic
from ..profiling.ua import UserAgentHistory
from .whois import RegistrationFeatures, WhoisFeatureExtractor

CC_FEATURE_NAMES = (
    "no_hosts",
    "auto_hosts",
    "no_ref",
    "rare_ua",
    "dom_age",
    "dom_validity",
)

SIMILARITY_FEATURE_NAMES = (
    "no_hosts",
    "dom_interval",
    "ip24",
    "ip16",
    "no_ref",
    "rare_ua",
    "dom_age",
    "dom_validity",
)

#: Cap used to scale host counts into [0, 1]; rare domains see at most
#: ~10 hosts by construction (the rarity threshold).
HOST_COUNT_CAP = 10

#: e-folding time (seconds) for timing closeness: visits 30 minutes
#: apart score ~0.37, same-minute visits score ~1.
TIMING_SCALE_SECONDS = 1800.0


def scale_count(count: int, cap: int = HOST_COUNT_CAP) -> float:
    """Scale a small count into [0, 1] with saturation at ``cap``."""
    if count <= 0:
        return 0.0
    return min(count, cap) / cap


def timing_closeness(gap_seconds: float | None) -> float:
    """Exponential closeness of two first-visit times.

    ``None`` (no co-visiting host) maps to 0 -- no timing evidence.
    """
    if gap_seconds is None:
        return 0.0
    return math.exp(-abs(gap_seconds) / TIMING_SCALE_SECONDS)


@dataclass(frozen=True, slots=True)
class SimilarityFeatures:
    """Feature vector for one rare domain vs. the labeled-malicious set."""

    domain: str
    no_hosts: float
    dom_interval: float
    ip24: float
    ip16: float
    no_ref: float
    rare_ua: float
    dom_age: float
    dom_validity: float

    def as_vector(self) -> tuple[float, ...]:
        return (
            self.no_hosts,
            self.dom_interval,
            self.ip24,
            self.ip16,
            self.no_ref,
            self.rare_ua,
            self.dom_age,
            self.dom_validity,
        )


class FeatureExtractor:
    """Computes both feature families from one day of traffic."""

    def __init__(
        self,
        ua_history: UserAgentHistory | None = None,
        whois: WhoisFeatureExtractor | None = None,
    ) -> None:
        self.ua_history = ua_history
        self.whois = whois

    # -- shared helpers -------------------------------------------------

    def _registration(self, domain: str, when: float) -> RegistrationFeatures:
        if self.whois is None:
            # DNS-only datasets have no WHOIS (anonymized names); a
            # neutral constant keeps the vector shape without signal.
            return RegistrationFeatures(dom_age=0.5, dom_validity=0.5, imputed=True)
        return self.whois.extract(domain, when)

    @staticmethod
    def _fraction(part_hosts: set[str] | None, all_hosts: set[str]) -> float:
        if not all_hosts or not part_hosts:
            return 0.0
        return len(part_hosts & all_hosts) / len(all_hosts)

    # -- C&C features (IV-C) --------------------------------------------

    def cc_feature_matrix(
        self,
        domains: Sequence[str],
        traffic: DailyTraffic,
        automated_hosts: Mapping[str, set[str]],
        when: float,
    ) -> np.ndarray:
        """One (n_domains, 6) C&C feature matrix for a day's candidates.

        Row ``i`` holds the :data:`CC_FEATURE_NAMES` features of
        ``domains[i]``, whose automated hosts are
        ``automated_hosts[domains[i]]``.  This is the one place the six
        features are built: training's labeled rows and every
        ``Detect_C&C`` scoring
        (:meth:`~repro.core.scoring.RegressionCCScorer.score_automated`)
        read it.  Rows are built in the given ``domains`` order because
        :meth:`_registration` advances the WHOIS imputation counters
        per lookup; both callers pass ``sorted(auto_hosts)``.
        """
        matrix = np.empty((len(domains), len(CC_FEATURE_NAMES)))
        hosts_by_domain = traffic.hosts_by_domain
        no_referer = traffic.no_referer_hosts
        rare_ua = traffic.rare_ua_hosts
        fraction = self._fraction
        for row, domain in enumerate(domains):
            hosts = hosts_by_domain.get(domain, set())
            registration = self._registration(domain, when)
            matrix[row, 0] = scale_count(len(hosts))
            matrix[row, 1] = scale_count(
                len(automated_hosts[domain] & hosts)
            )
            matrix[row, 2] = fraction(no_referer.get(domain), hosts)
            matrix[row, 3] = fraction(rare_ua.get(domain), hosts)
            matrix[row, 4] = registration.dom_age
            matrix[row, 5] = registration.dom_validity
        return matrix

    # -- similarity features (IV-D) ---------------------------------------

    @staticmethod
    def min_visit_gap(
        domain: str, malicious: Iterable[str], traffic: DailyTraffic
    ) -> float | None:
        """Minimum |first-visit(D) - first-visit(M)| over co-visiting hosts.

        Returns ``None`` when no host visited both ``domain`` and some
        malicious domain that day.
        """
        best: float | None = None
        hosts = traffic.hosts_by_domain.get(domain, set())
        for mal in malicious:
            if mal == domain:
                continue
            shared = hosts & traffic.hosts_by_domain.get(mal, set())
            for host in shared:
                t_dom = traffic.first_contact(host, domain)
                t_mal = traffic.first_contact(host, mal)
                if t_dom is None or t_mal is None:
                    continue
                gap = abs(t_dom - t_mal)
                if best is None or gap < best:
                    best = gap
        return best

    @staticmethod
    def subnet_proximity(
        domain: str, malicious: Iterable[str], traffic: DailyTraffic
    ) -> tuple[float, float]:
        """(ip24, ip16) indicators of subnet co-location.

        ``ip16`` is 1 whenever a /16 is shared, including the /24 case;
        the paper observed exactly this correlation and dropped IP16
        from the regression for it.
        """
        own_ips = traffic.resolved_ips.get(domain, set())
        if not own_ips:
            return 0.0, 0.0
        own24 = {subnet_key(ip, 24) for ip in own_ips}
        own16 = {subnet_key(ip, 16) for ip in own_ips}
        ip24 = ip16 = 0.0
        for mal in malicious:
            if mal == domain:
                continue
            for ip in traffic.resolved_ips.get(mal, ()):
                if subnet_key(ip, 24) in own24:
                    ip24 = 1.0
                if subnet_key(ip, 16) in own16:
                    ip16 = 1.0
            if ip24 and ip16:
                break
        return ip24, ip16

    def similarity_static(
        self, domain: str, traffic: DailyTraffic
    ) -> tuple[float, float, float]:
        """(no_hosts, no_ref, rare_ua) -- the similarity features that
        do not depend on the malicious set.

        During belief propagation the malicious set grows every
        iteration but the day's traffic is frozen, so these three are
        computed once per frontier domain and cached by the batched
        scorer (:class:`repro.core.scoring.BatchedSimilarityScorer`);
        only ``dom_interval``/``ip24``/``ip16`` need incremental
        updates, and the registration pair is replayed separately to
        keep WHOIS imputation state batch-identical.
        """
        hosts = traffic.hosts_by_domain.get(domain, set())
        return (
            scale_count(len(hosts)),
            self._fraction(traffic.no_referer_hosts.get(domain), hosts),
            self._fraction(traffic.rare_ua_hosts.get(domain), hosts),
        )

    def similarity_features(
        self,
        domain: str,
        malicious: set[str],
        traffic: DailyTraffic,
        when: float,
    ) -> SimilarityFeatures:
        """Eight-feature vector for a rare domain vs. the malicious set."""
        hosts = traffic.hosts_by_domain.get(domain, set())
        gap = self.min_visit_gap(domain, malicious, traffic)
        ip24, ip16 = self.subnet_proximity(domain, malicious, traffic)
        registration = self._registration(domain, when)
        return SimilarityFeatures(
            domain=domain,
            no_hosts=scale_count(len(hosts)),
            dom_interval=timing_closeness(gap),
            ip24=ip24,
            ip16=ip16,
            no_ref=self._fraction(traffic.no_referer_hosts.get(domain), hosts),
            rare_ua=self._fraction(traffic.rare_ua_hosts.get(domain), hosts),
            dom_age=registration.dom_age,
            dom_validity=registration.dom_validity,
        )
