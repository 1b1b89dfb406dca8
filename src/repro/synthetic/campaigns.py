"""Composable adversarial campaign library (evasion scenarios).

The paper's detectors rest on behavioral signals a motivated attacker
can deliberately degrade: beaconing regularity (the dynamic-histogram
test of Section IV-C), new/rare destinations (the Figure 2 funnel),
WHOIS age, and multi-host graph association.  This module provides a
registry of campaign archetypes, each with an **evasion strength**
knob in ``[0, 1]`` mapping continuously from the cooperative attacker
the happy-path tests use (strength 0) to a detector-aware adversary
(strength 1):

``jitter``
    Randomized beacon timing.  Strength scales the per-beacon jitter
    from the paper's ±3 s up to a full period, pushing the Jeffrey
    divergence of the inter-arrival histogram past ``JT``.
``dga-chardist`` / ``dga-dictionary`` / ``dga-hashhex``
    Domain rotation through one of the three seeded DGA families of
    :mod:`repro.synthetic.dga`.  Strength scales the rotation rate:
    more domains per day, each dwelled on for fewer beacons, until the
    per-(host, domain) series drops below the automation detector's
    ``min_connections`` evidence threshold.
``cdn-fronting``
    Domain fronting behind the world's popular/CDN core.  Strength is
    the fraction of C&C traffic carried by whitelisted popular
    domains (which the reduction funnel never surfaces as rare); the
    attacker's own domains keep only the thinned, gappy residue.
``slow-burn``
    A multi-week low-and-slow campaign.  Strength stretches the
    beacon period toward hours and skips days entirely; each
    activation burns a fresh domain, so the campaign keeps re-entering
    the new-domain funnel across window rollovers (and any
    checkpoint/restore in between).

A sixth, fleet-level archetype -- ``tenant-churn`` (enterprises
joining and leaving mid-fleet) -- is built by
:func:`churn_fleet_config` on top of
:class:`~repro.synthetic.fleet.FleetScenarioConfig` rather than
realized against a single-tenant world.

**Determinism contract.**  Realization and per-day emission derive
every ``random.Random`` from ``(spec.seed, spec.campaign, day)``:
:func:`realize_campaign` twice with equal specs yields byte-identical
campaigns, and :meth:`RealizedCampaign.day_visits` is a pure function
of (spec, day) -- independent of call order, process, or what else
the world generated.  Attacker namespaces are disjoint from the
benign world's by construction: domains use the ``.ru``/``.info``
TLDs (never the benign ``com/net/org/io/co`` set nor LANL's
``.cN``/``.nN``), and infrastructure lives in ``192.0.0.0/16``, which
:class:`~repro.synthetic.ipspace.IpAllocator` explicitly avoids.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from .benign import Visit
from .dga import ADVERSARIAL_DGA_FAMILIES, DgaFamily, _syllables

SECONDS_PER_DAY = 86_400.0
DAY_END_MARGIN = 60.0

#: Fresh pool region the DGA archetypes may rotate through per day.
_DGA_DOMAINS_PER_DAY = 48

#: Campaign archetypes realizable against one tenant's world.
CAMPAIGN_NAMES = (
    "jitter",
    "dga-chardist",
    "dga-dictionary",
    "dga-hashhex",
    "cdn-fronting",
    "slow-burn",
)

#: Fleet-level archetypes (built as fleet scenarios, not realized).
FLEET_CAMPAIGN_NAMES = ("tenant-churn",)


def _mix(*parts: int | str) -> int:
    """Deterministic FNV-style mix of ints and strings into a seed."""
    acc = 0x811C9DC5
    for part in parts:
        value = zlib.crc32(part.encode()) if isinstance(part, str) \
            else (part & 0xFFFFFFFFFFFF)
        acc = ((acc ^ value) * 0x01000193) & 0xFFFFFFFFFFFF
    return acc


@dataclass(frozen=True)
class AdversarialCampaignSpec:
    """One adversarial campaign: archetype, strength knob, seed.

    ``start_day`` and day indexes throughout are *absolute* day
    indexes of the target world (timestamps land in
    ``[day * 86400, (day + 1) * 86400)``), so a realized campaign can
    be overlaid directly onto a dataset's day records.
    """

    campaign: str
    strength: float = 0.0
    seed: int = 7
    start_day: int = 0
    duration_days: int = 2
    n_hosts: int = 3
    beacon_period: float = 600.0

    def __post_init__(self) -> None:
        if self.campaign not in CAMPAIGN_NAMES:
            raise ValueError(
                f"unknown campaign {self.campaign!r}; "
                f"expected one of {CAMPAIGN_NAMES}"
            )
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(
                f"strength must be in [0, 1], got {self.strength}"
            )
        if self.duration_days < 1:
            raise ValueError("duration_days must be at least 1")
        if self.n_hosts < 1:
            raise ValueError("n_hosts must be at least 1")
        if self.beacon_period <= 0:
            raise ValueError("beacon_period must be positive")

    @property
    def active_days(self) -> range:
        return range(self.start_day, self.start_day + self.duration_days)


@dataclass(frozen=True)
class WorldView:
    """The slice of a tenant world a campaign realization needs."""

    hosts: tuple[str, ...]
    popular_sites: tuple[tuple[str, str], ...]
    """(domain, resolved IP) pairs of the popular/CDN core."""

    host_uas: tuple[tuple[str, str], ...] = ()
    """(host, primary UA) pairs; empty for the DNS world."""

    @classmethod
    def from_dataset(cls, dataset) -> "WorldView":
        """Build from a generated LANL or enterprise dataset."""
        return cls(
            hosts=tuple(h.name for h in dataset.model.hosts),
            popular_sites=dataset._workload.popular_sites,
            host_uas=tuple(
                (h.name, h.primary_ua()) for h in dataset.model.hosts
            ),
        )


@dataclass
class RealizedCampaign:
    """A campaign materialized against one world, with ground truth."""

    spec: AdversarialCampaignSpec
    hosts: tuple[str, ...]
    delivery_domains: tuple[str, ...]
    cc_domains: tuple[str, ...]
    """Every attacker-owned C&C domain across the whole horizon (the
    rotating archetypes schedule a per-day subset)."""

    domain_ips: dict[str, str]
    dga_labels: dict[str, str] = field(default_factory=dict)
    fronted_sites: tuple[tuple[str, str], ...] = ()
    """Popular (domain, IP) pairs carrying fronted C&C traffic."""

    whois_records: tuple[tuple[str, float, float], ...] = ()
    """(domain, registered, expires) for registered attacker domains;
    domains absent here are unregistered at observation time."""

    host_ua: dict[str, str] = field(default_factory=dict)

    @property
    def attacker_domains(self) -> tuple[str, ...]:
        """All attacker-owned domains (delivery chain plus C&C)."""
        return self.delivery_domains + self.cc_domains

    @property
    def active_days(self) -> range:
        return self.spec.active_days

    def truth_domains(self) -> set[str]:
        """The detectable ground truth: attacker domains that actually
        carry traffic on some active day (fronted popular domains are
        excluded -- they are not attacker-owned)."""
        truth: set[str] = set()
        for day in self.active_days:
            truth.update(d for _, d in self._day_schedule(day))
        truth.update(self.delivery_domains)
        return truth

    # ------------------------------------------------------------------
    # Per-day emission (pure in (spec, day))
    # ------------------------------------------------------------------

    def _rng(self, day: int, stage: str) -> random.Random:
        return random.Random(
            _mix(self.spec.seed, self.spec.campaign, stage, day)
        )

    def _beacon_count(self) -> int:
        return int(SECONDS_PER_DAY // self.spec.beacon_period)

    def _day_schedule(self, day: int) -> list[tuple[int, str]]:
        """(slot, domain) beacon schedule for one day.

        Slots index the day's nominal beacon grid (period-spaced).  The
        rotating archetypes map contiguous slot runs to successive
        domains; the fixed archetypes use their single C&C domain, and
        ``slow-burn`` skips days and stretches the grid.
        """
        spec = self.spec
        if day not in self.active_days:
            return []
        offset = day - spec.start_day
        slots = self._beacon_count()
        if spec.campaign.startswith("dga-"):
            # Rotate through the day's fresh region of the domain pool
            # with exponentially distributed dwell runs.  The mean
            # dwell interpolates geometrically from "one domain all
            # day" (strength 0) down to ~2 beacons per domain
            # (strength 1), straddling the automation detector's
            # min_connections threshold smoothly.
            rng = self._rng(day, "sched")
            mean_dwell = slots ** (1.0 - spec.strength) \
                * 2.0 ** spec.strength
            pool = self.cc_domains
            region = offset * _DGA_DOMAINS_PER_DAY
            schedule: list[tuple[int, str]] = []
            slot = 0
            used = 0
            while slot < slots:
                run = int(round(rng.expovariate(1.0 / mean_dwell)))
                run = max(1, min(run, slots - slot))
                domain = pool[
                    (region + used % _DGA_DOMAINS_PER_DAY) % len(pool)
                ]
                used += 1
                schedule.extend(
                    (s, domain) for s in range(slot, slot + run)
                )
                slot += run
            return schedule
        if spec.campaign == "slow-burn":
            # Activate every Nth day with a fresh domain, a stretched
            # beacon grid, and probabilistic slot drops -- the
            # per-domain daily series thins toward (and below) the
            # detector's evidence threshold as strength rises.
            every = 1 + round(spec.strength * 2)
            if offset % every:
                return []
            rng = self._rng(day, "sched")
            stretch = 1 + round(spec.strength * 23)
            keep = 1.0 - 0.7 * spec.strength
            domain = self.cc_domains[
                (offset // every) % len(self.cc_domains)
            ]
            return [
                (slot, domain)
                for slot in range(0, slots, stretch)
                if rng.random() < keep
            ]
        domain = self.cc_domains[0]
        return [(slot, domain) for slot in range(slots)]

    def day_visits(self, day: int) -> list[Visit]:
        """The campaign's traffic on one absolute day, time-sorted.

        Byte-identical across calls and realizations: all randomness
        derives from ``(spec.seed, spec.campaign, day)``.  Days outside
        the active range yield no events, and every timestamp lies in
        ``[day * 86400, (day + 1) * 86400)``.
        """
        spec = self.spec
        schedule = self._day_schedule(day)
        if not schedule:
            return []
        rng = self._rng(day, "emit")
        base = day * SECONDS_PER_DAY
        end = base + SECONDS_PER_DAY - DAY_END_MARGIN
        jitter = 3.0
        if spec.campaign == "jitter":
            jitter = 3.0 + spec.strength * spec.beacon_period
        front_rate = spec.strength if spec.campaign == "cdn-fronting" \
            else 0.0
        visits: list[Visit] = []
        infection = base + rng.uniform(8 * 3600.0, 11 * 3600.0)

        for index, host in enumerate(self.hosts):
            ua = self.host_ua.get(host, "")
            beacon_start = base + rng.uniform(60.0, spec.beacon_period)
            if day == spec.start_day:
                # Delivery chain on the first day, minutes apart.
                t = infection + index * rng.uniform(10.0, 300.0)
                for domain in self.delivery_domains:
                    visits.append(Visit(
                        min(t, end), host, domain,
                        self.domain_ips[domain], ua, "",
                    ))
                    t += rng.uniform(5.0, 120.0)
            t = beacon_start
            previous_slot = 0
            for slot, domain in schedule:
                t += (slot - previous_slot) * spec.beacon_period \
                    + rng.uniform(-jitter, jitter)
                previous_slot = slot
                t = min(max(t, base), end)
                if rng.random() < front_rate:
                    front, front_ip = self.fronted_sites[
                        rng.randrange(len(self.fronted_sites))
                    ]
                    visits.append(Visit(t, host, front, front_ip, ua, ""))
                else:
                    visits.append(Visit(
                        t, host, domain, self.domain_ips[domain], ua, "",
                    ))
        visits.sort(key=lambda v: v.timestamp)
        return visits


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

def _attacker_names(rng: random.Random, count: int) -> list[str]:
    """Unique ``.ru``-style attacker names from a dedicated stream."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = f"{_syllables(rng, 7)}.ru"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _cc_pool_size(spec: AdversarialCampaignSpec) -> int:
    """How many C&C domains the archetype can schedule in total."""
    if spec.campaign.startswith("dga-"):
        return spec.duration_days * _DGA_DOMAINS_PER_DAY
    if spec.campaign == "slow-burn":
        return spec.duration_days
    return 1


def realize_campaign(
    world: WorldView, spec: AdversarialCampaignSpec
) -> RealizedCampaign:
    """Materialize one adversarial campaign against a world view.

    Pure in its arguments: equal (world, spec) pairs produce
    byte-identical campaigns.  Nothing in the world is mutated --
    registrations the enterprise pipeline needs are returned as
    :attr:`RealizedCampaign.whois_records` for the caller to apply.
    """
    rng = random.Random(_mix(spec.seed, spec.campaign, "realize"))
    hosts = tuple(rng.sample(world.hosts,
                             min(spec.n_hosts, len(world.hosts))))

    n_cc = _cc_pool_size(spec)
    dga_labels: dict[str, str] = {}
    if spec.campaign.startswith("dga-"):
        family = spec.campaign.removeprefix("dga-")
        generator = DgaFamily(family, _mix(spec.seed, family))
        cc = tuple(generator.generate(n_cc))
        dga_labels = {domain: family for domain in cc}
        delivery = tuple(_attacker_names(rng, 2))
    else:
        names = _attacker_names(rng, 2 + n_cc)
        delivery, cc = tuple(names[:2]), tuple(names[2:])

    # Attacker infrastructure: a /24 inside 192.0.0.0/16, which the
    # world's allocator never hands out.  CDN-fronted campaigns park
    # some C&C domains on popular-site addresses instead (shared
    # infrastructure defeating subnet-association features).
    block_c = rng.randrange(256)
    domain_ips: dict[str, str] = {}
    for domain in delivery + cc:
        if spec.campaign == "cdn-fronting" and world.popular_sites \
                and rng.random() < spec.strength:
            domain_ips[domain] = rng.choice(world.popular_sites)[1]
        else:
            domain_ips[domain] = \
                f"192.0.{block_c}.{rng.randint(1, 254)}"

    fronted: tuple[tuple[str, str], ...] = ()
    if spec.campaign == "cdn-fronting" and world.popular_sites:
        count = min(len(world.popular_sites), 4)
        fronted = tuple(rng.sample(world.popular_sites, count))

    # WHOIS ground truth: young registrations shortly before first
    # use; DGA rotations increasingly skip registration entirely
    # (Section VI-D's unregistered cluster).
    first_use = spec.start_day * SECONDS_PER_DAY
    records: list[tuple[str, float, float]] = []
    unregistered_rate = 0.0
    if dga_labels:
        unregistered_rate = 0.2 + 0.6 * spec.strength
    for domain in delivery + cc:
        if rng.random() < unregistered_rate:
            continue
        registered = first_use - rng.uniform(2, 28) * SECONDS_PER_DAY
        expires = registered + rng.uniform(0.9, 1.1) * 365 * SECONDS_PER_DAY
        records.append((domain, registered, expires))

    return RealizedCampaign(
        spec=spec,
        hosts=hosts,
        delivery_domains=delivery,
        cc_domains=cc,
        domain_ips=domain_ips,
        dga_labels=dga_labels,
        fronted_sites=fronted,
        whois_records=tuple(records),
        host_ua=dict(world.host_uas),
    )


# ---------------------------------------------------------------------------
# Record conversion (overlaying a campaign onto a dataset's days)
# ---------------------------------------------------------------------------

def campaign_dns_records(
    realized: RealizedCampaign, host_ips: dict[str, str], day: int
):
    """The campaign's DNS A-record traffic for one absolute day."""
    from ..logs.records import DnsRecord, DnsRecordType

    return [
        DnsRecord(
            timestamp=visit.timestamp,
            source_ip=host_ips[visit.host],
            domain=visit.domain,
            record_type=DnsRecordType.A,
            resolved_ip=visit.resolved_ip,
        )
        for visit in realized.day_visits(day)
    ]


def campaign_proxy_records(realized: RealizedCampaign, day: int):
    """The campaign's pre-joined proxy log records for one day.

    Same shape the fleet layout writers emit: the stable hostname in
    the source field, zero collector offset -- ready for
    :func:`~repro.logs.format_proxy_line`.
    """
    from ..logs.records import ProxyRecord

    return [
        ProxyRecord(
            timestamp=visit.timestamp,
            source_ip=visit.host,
            destination=visit.domain,
            destination_ip=visit.resolved_ip,
            status_code=200,
            user_agent=visit.user_agent,
            referer=visit.referer,
        )
        for visit in realized.day_visits(day)
    ]


# ---------------------------------------------------------------------------
# Fleet-level archetype: tenant churn
# ---------------------------------------------------------------------------

def churn_fleet_config(
    *,
    strength: float = 0.0,
    seed: int = 42,
    n_tenants: int = 3,
    tenant=None,
    enterprise_tenants: int = 0,
    enterprise_tenant=None,
):
    """Fleet scenario with tenants joining and leaving mid-fleet.

    The last tenant joins ``1 + round(strength * 2)`` rounds into the
    run and is hit by the shared campaign right after joining; the
    second tenant leaves after its own follower date.  Strength also
    feeds the shared campaign's beacon jitter (as in ``jitter``), so
    the fleet curve degrades for the same reason the single-tenant one
    does while exercising join/leave bookkeeping at every measured
    point.  Returns a :class:`~repro.synthetic.fleet
    .FleetScenarioConfig` ready for
    :func:`~repro.synthetic.fleet.generate_fleet_dataset`.
    """
    from .fleet import FleetScenarioConfig

    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    if n_tenants < 3:
        raise ValueError("tenant churn needs at least 3 tenants")
    join_round = 1 + round(strength * 2)
    join_rounds = [0] * n_tenants
    join_rounds[-1] = join_round
    leave_rounds = [0] * n_tenants
    leave_rounds[1] = join_round + 3
    follower_dates = [3] * n_tenants
    # The joiner's first post-bootstrap detection round lands after
    # join_round bootstrap-shifted files; hit it on its first
    # operational date.
    follower_dates[-1] = join_round + 3
    kwargs = {}
    if tenant is not None:
        kwargs["tenant"] = tenant
    if enterprise_tenant is not None:
        kwargs["enterprise_tenant"] = enterprise_tenant
    return FleetScenarioConfig(
        seed=seed,
        n_tenants=n_tenants,
        enterprise_tenants=enterprise_tenants,
        lead_hosts=2,
        follower_hosts=2,
        beacon_jitter=3.0 + strength * 600.0,
        join_rounds=tuple(join_rounds),
        leave_rounds=tuple(leave_rounds),
        follower_dates=tuple(follower_dates),
        **kwargs,
    )
