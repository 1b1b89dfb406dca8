"""Synthetic enterprise ("AC") web-proxy dataset (Sections IV-A, VI).

The real AC corpus is 38 TB of proxy logs from a >100 000-host
enterprise, with DHCP/VPN churn and collectors in several timezones.
This generator reproduces every property the pipeline actually
exercises, at configurable scale:

* proxy records with URL, user-agent, referer, status code;
* collector-local timestamps (per-host timezone offsets) that
  normalization must shift to UTC;
* DHCP leases and VPN sessions rebinding host IPs daily, so IP->host
  resolution is required for host identity;
* subdomain-bearing destinations so second-level folding matters, and
  occasional bare-IP destinations that must be dropped;
* benign workload plus injected malware campaigns, including
  single-host infections and the two DGA clusters of Section VI;
* a WHOIS registry, a VirusTotal oracle with partial coverage, and a
  SOC IOC list for the hints mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..intel.ioc import IocList
from ..intel.virustotal import VirusTotalOracle
from ..intel.whois_db import WhoisDatabase
from ..logs.normalize import IpResolver, ProxyNormalizer
from ..logs.records import ConnectionBatch, DhcpLease, ProxyRecord, VpnSession
from .attacks import Campaign, CampaignFactory, CampaignSpec
from .benign import BenignConfig, BenignWorkload, Visit
from .dga import DomainNameFactory
from .entities import EnterpriseModel, build_enterprise
from .ipspace import IpAllocator

SECONDS_PER_DAY = 86_400.0

_COLLECTOR_OFFSETS = (-8.0, -5.0, 0.0, 1.0, 8.0)
_URL_PATHS = ("/", "/index.html", "/api/v1/ping", "/logo.gif", "/news",
              "/search?q=report", "/static/app.js", "/tan2.html")


@dataclass(frozen=True)
class EnterpriseDatasetConfig:
    """Scale and attack-mix knobs for the synthetic AC world."""

    seed: int = 2014
    n_hosts: int = 120
    n_servers: int = 3
    bootstrap_days: int = 10
    operation_days: int = 12
    quiet_days: int = 4
    """Attack-free leading days so early history is clean."""

    popular_domains: int = 140
    churn_domains_per_day: int = 25
    browsing_visits_per_host: int = 14
    rare_auto_services_per_day: int = 3
    n_campaigns: int = 14
    single_host_campaign_rate: float = 0.3
    dga_campaign_count: int = 2
    vt_coverage: float = 0.65
    ioc_count: int = 10
    bare_ip_noise_per_day: int = 10

    @property
    def total_days(self) -> int:
        return self.bootstrap_days + self.operation_days


@dataclass
class EnterpriseDataset:
    """The generated world plus its oracles and ground truth."""

    config: EnterpriseDatasetConfig
    model: EnterpriseModel
    whois: WhoisDatabase
    campaigns: list[Campaign]
    collector_offset: dict[str, float]
    _workload: BenignWorkload = field(repr=False, default=None)
    _factory: CampaignFactory = field(repr=False, default=None)
    _rng: random.Random = field(repr=False, default=None)
    _ips: IpAllocator = field(repr=False, default=None)
    _lease_cache: dict[int, list] = field(repr=False, default_factory=dict)

    # -- ground truth ----------------------------------------------------

    @property
    def malicious_domains(self) -> set[str]:
        return {d for c in self.campaigns for d in c.domains}

    def campaigns_active_on(self, day: int) -> list[Campaign]:
        return [c for c in self.campaigns if day in c.active_days]

    def build_virustotal(self) -> VirusTotalOracle:
        """VT oracle with partial coverage of the true malicious set."""
        return VirusTotalOracle(
            self.malicious_domains,
            coverage=self.config.vt_coverage,
            seed=self.config.seed ^ 0x5EED,
        )

    def build_ioc_list(self) -> IocList:
        """The SOC's IOC list: a deterministic slice of true campaign
        domains (what incident response has already confirmed)."""
        ordered = sorted(self.malicious_domains)
        rng = random.Random(self.config.seed ^ 0x10C)
        count = min(self.config.ioc_count, len(ordered))
        return IocList(rng.sample(ordered, count))

    # -- leases ------------------------------------------------------------

    def day_leases(self, day: int) -> list[DhcpLease | VpnSession]:
        """DHCP/VPN bindings for one day (each host one lease/session)."""
        cached = self._lease_cache.get(day)
        if cached is not None:
            return cached
        rng = random.Random((self.config.seed << 8) ^ day)
        start = day * SECONDS_PER_DAY
        end = start + SECONDS_PER_DAY
        indexes = list(range(len(self.model.hosts)))
        rng.shuffle(indexes)
        leases: list[DhcpLease | VpnSession] = []
        for host, index in zip(self.model.hosts, indexes):
            if rng.random() < host.mobility:
                leases.append(
                    VpnSession(
                        ip=self._ips.vpn_pool_ip(index),
                        hostname=host.name, start=start, end=end,
                    )
                )
            else:
                leases.append(
                    DhcpLease(
                        ip=self._ips.dhcp_pool_ip(index),
                        hostname=host.name, start=start, end=end,
                    )
                )
        self._lease_cache[day] = leases
        return leases

    def resolver_for_day(self, day: int) -> IpResolver:
        return IpResolver(self.day_leases(day))

    # -- raw records -------------------------------------------------------

    def _visit_to_record(
        self, visit: Visit, ip_of_host: dict[str, str], rng: random.Random
    ) -> ProxyRecord:
        offset = self.collector_offset[visit.host]
        prefix = rng.choice(("", "", "www.", "cdn.", "api."))
        status = 200 if rng.random() < 0.95 else rng.choice((301, 404, 503))
        return ProxyRecord(
            timestamp=visit.timestamp + offset * 3600.0,
            source_ip=ip_of_host[visit.host],
            destination=prefix + visit.domain,
            destination_ip=visit.resolved_ip,
            url_path=rng.choice(_URL_PATHS),
            method="GET" if rng.random() < 0.9 else "POST",
            status_code=status,
            user_agent=visit.user_agent,
            referer=visit.referer,
            tz_offset_hours=offset,
        )

    def day_proxy_records(self, day: int) -> list[ProxyRecord]:
        """Raw (pre-normalization) proxy records for one day."""
        rng = random.Random((self.config.seed << 12) ^ (day * 7919))
        ip_of_host = {
            lease.hostname: lease.ip for lease in self.day_leases(day)
        }
        visits = self._workload.day_visits(day)
        for campaign in self.campaigns_active_on(day):
            visits = visits + self._factory.day_visits(campaign, day)

        records = [self._visit_to_record(v, ip_of_host, rng) for v in visits]

        # Direct-to-IP noise the normalizer must drop.
        hosts = self.model.hosts
        for _ in range(self.config.bare_ip_noise_per_day):
            host = rng.choice(hosts)
            records.append(
                ProxyRecord(
                    timestamp=day * SECONDS_PER_DAY + rng.uniform(0, SECONDS_PER_DAY),
                    source_ip=ip_of_host[host.name],
                    destination=f"{rng.randint(11, 200)}.{rng.randint(0, 255)}"
                                f".{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                    user_agent=host.primary_ua(),
                )
            )
        records.sort(key=lambda r: r.timestamp)
        return records

    # -- normalized convenience --------------------------------------------

    def day_batch(self, day: int) -> ConnectionBatch:
        """One day through the engine's proxy normalization (UTC,
        DHCP/VPN join, second-level fold) as one column batch, empty
        for a day without records."""
        for batch in ProxyNormalizer(fold_level=2).read_records(
            self.day_proxy_records(day),
            resolver=self.resolver_for_day(day),
        ):
            return batch
        return ConnectionBatch([], [], [], [], [], [])

    def day_batches(
        self, first_day: int = 0, last_day: int | None = None
    ) -> list[tuple[int, ConnectionBatch]]:
        """(day, :meth:`day_batch`) pairs over a day range."""
        last = self.config.total_days if last_day is None else last_day
        return [(day, self.day_batch(day)) for day in range(first_day, last)]


def _campaign_specs(
    config: EnterpriseDatasetConfig, rng: random.Random
) -> list[CampaignSpec]:
    """The campaign mix: ordinary, single-host, and DGA campaigns."""
    specs: list[CampaignSpec] = []
    ordinary = config.n_campaigns - config.dga_campaign_count
    for _ in range(ordinary):
        single = rng.random() < config.single_host_campaign_rate
        specs.append(
            CampaignSpec(
                n_hosts=1 if single else rng.randint(2, 4),
                n_delivery=rng.randint(1, 3),
                n_cc=1,
                beacon_period=rng.choice((120.0, 300.0, 600.0, 1200.0)),
                beacon_jitter=rng.uniform(1.0, 5.0),
                duration_days=rng.randint(2, 6),
            )
        )
    # The Section VI DGA clusters: ten .info domains each; the hex
    # cluster is partly unregistered at observation time.
    specs.append(
        CampaignSpec(
            n_hosts=2, n_delivery=2, n_cc=1, beacon_period=300.0,
            beacon_jitter=3.0, dga_style="short_info", dga_cluster=10,
            duration_days=2,
        )
    )
    for _ in range(max(config.dga_campaign_count - 1, 0)):
        specs.append(
            CampaignSpec(
                n_hosts=2, n_delivery=2, n_cc=1, beacon_period=600.0,
                beacon_jitter=3.0, dga_style="hex_info", dga_cluster=10,
                duration_days=2, unregistered_rate=0.5,
            )
        )
    return specs


def generate_enterprise_dataset(
    config: EnterpriseDatasetConfig | None = None,
) -> EnterpriseDataset:
    """Build the full synthetic AC world from a seed."""
    config = config or EnterpriseDatasetConfig()
    rng = random.Random(config.seed)
    model = build_enterprise(config.n_hosts, rng, n_servers=config.n_servers)
    ips = IpAllocator(seed=rng.randrange(2**31))
    names = DomainNameFactory(rng)
    whois = WhoisDatabase()

    benign_config = BenignConfig(
        popular_domains=config.popular_domains,
        browsing_visits_per_host=config.browsing_visits_per_host,
        churn_domains_per_day=config.churn_domains_per_day,
        rare_auto_services_per_day=config.rare_auto_services_per_day,
    )
    workload = BenignWorkload(model, names, ips, whois, rng, benign_config)
    factory = CampaignFactory(names, ips, whois, rng, name_style="enterprise")

    collector_offset = {
        host.name: rng.choice(_COLLECTOR_OFFSETS) for host in model.hosts
    }

    campaigns: list[Campaign] = []
    for spec in _campaign_specs(config, rng):
        last_start = config.total_days - spec.duration_days
        start_day = rng.randint(config.quiet_days, max(config.quiet_days, last_start))
        campaigns.append(factory.create(start_day, model.hosts, spec))

    dataset = EnterpriseDataset(
        config=config,
        model=model,
        whois=whois,
        campaigns=campaigns,
        collector_offset=collector_offset,
    )
    dataset._workload = workload
    dataset._factory = factory
    dataset._rng = rng
    dataset._ips = ips
    return dataset
