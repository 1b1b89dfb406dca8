"""Synthetic LANL challenge dataset (Sections IV-A, V).

The real corpus is two months of anonymized DNS traffic from Los Alamos
National Lab plus 20 expert-simulated APT infections, released as the
*APT Infection Discovery using DNS Data* challenge.  The corpus is not
publicly redistributable at full fidelity, so this module generates a
statistically equivalent world:

* anonymized domain names (no TLD semantics, hence third-level folding);
* A records mixed with redacted non-A records (~30% of the volume);
* queries for internal resources and queries by internal servers, both
  of which the reduction funnel must strip (Figure 2);
* a bootstrap month for history profiling, then "March" operation days;
* 20 campaigns laid out exactly as Table I: case 1 on 3/2, 3/3, 3/4,
  3/9, 3/10 (one hint host); case 2 on 3/5-3/8, 3/11-3/13 (three or
  four hint hosts); case 3 on 3/14, 3/15, 3/17-3/21 (one hint host,
  further compromised hosts to discover); case 4 on 3/22 (no hints).

The paper's train/test split of the 20 attacks (Section V-B) is
reproduced in :data:`TRAINING_DATES`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..logs.records import DnsRecord, DnsRecordType
from .attacks import Campaign, CampaignFactory, CampaignSpec
from .benign import BenignConfig, BenignWorkload
from .dga import DomainNameFactory
from .entities import EnterpriseModel, build_enterprise
from .ipspace import IpAllocator
from ..intel.whois_db import WhoisDatabase

SECONDS_PER_DAY = 86_400.0

#: Table I -- which March dates host which challenge case.
CASE_DATES: dict[int, tuple[int, ...]] = {
    1: (2, 3, 4, 9, 10),
    2: (5, 6, 7, 8, 11, 12, 13),
    3: (14, 15, 17, 18, 19, 20, 21),
    4: (22,),
}

#: Section V-B -- March dates whose attacks form the training set.
TRAINING_DATES = frozenset({2, 3, 4, 5, 7, 12, 14, 15, 17, 18})

_CASE_SPECS: dict[int, CampaignSpec] = {
    1: CampaignSpec(n_hosts=2, n_delivery=2, n_cc=1,
                    beacon_period=600.0, beacon_jitter=3.0),
    2: CampaignSpec(n_hosts=4, n_delivery=3, n_cc=1,
                    beacon_period=600.0, beacon_jitter=3.0),
    3: CampaignSpec(n_hosts=3, n_delivery=3, n_cc=1,
                    beacon_period=600.0, beacon_jitter=3.0),
    4: CampaignSpec(n_hosts=3, n_delivery=4, n_cc=1,
                    beacon_period=600.0, beacon_jitter=3.0),
}


@dataclass(frozen=True)
class LanlConfig:
    """Scale and realism knobs for the synthetic LANL world."""

    seed: int = 42
    n_hosts: int = 250
    n_servers: int = 5
    bootstrap_days: int = 8
    popular_domains: int = 120
    churn_domains_per_day: int = 25
    browsing_visits_per_host: int = 12
    non_a_record_rate: float = 0.3
    internal_queries_per_host: int = 6
    internal_domains: int = 40
    server_only_domains: int = 25
    rare_auto_services_per_day: int = 3


@dataclass(frozen=True)
class LanlCampaignTruth:
    """Ground truth for one simulated attack (the challenge "answers")."""

    march_date: int
    case: int
    hint_hosts: tuple[str, ...]
    compromised_hosts: tuple[str, ...]
    malicious_domains: tuple[str, ...]
    cc_domains: tuple[str, ...]

    @property
    def is_training(self) -> bool:
        return self.march_date in TRAINING_DATES


class _LanlNames:
    """Adapter steering the benign workload to anonymized names."""

    def __init__(self, factory: DomainNameFactory) -> None:
        self._factory = factory

    def benign(self) -> str:
        return self._factory.lanl_benign()

    def benign_service(self) -> str:
        return self._factory.lanl_benign()


@dataclass
class LanlDataset:
    """The generated world: records per day plus ground truth."""

    config: LanlConfig
    model: EnterpriseModel
    host_ips: dict[str, str]
    server_ips: frozenset[str]
    internal_suffixes: tuple[str, ...]
    campaigns: list[LanlCampaignTruth]
    bootstrap_domains: set[str]
    whois: WhoisDatabase
    _workload: BenignWorkload = field(repr=False, default=None)
    _factory: CampaignFactory = field(repr=False, default=None)
    _campaign_objects: dict[int, Campaign] = field(repr=False, default_factory=dict)
    _record_rng: random.Random = field(repr=False, default=None)
    _internal_names: list[str] = field(repr=False, default_factory=list)
    _server_domains: list[str] = field(repr=False, default_factory=list)
    _records_cache: dict[int, list[DnsRecord]] = field(
        repr=False, default_factory=dict
    )

    def campaign_for_date(self, march_date: int) -> LanlCampaignTruth | None:
        """The challenge campaign injected on the given March date."""
        for truth in self.campaigns:
            if truth.march_date == march_date:
                return truth
        return None

    def _day_index(self, march_date: int) -> int:
        return self.config.bootstrap_days + (march_date - 1)

    def day_records(self, march_date: int) -> list[DnsRecord]:
        """Full (unreduced) DNS records for one March date.

        Memoized: the record-noise RNG is a shared stream, so repeated
        reads of the same date must return the same realized day.
        """
        cached = self._records_cache.get(march_date)
        if cached is not None:
            return cached
        day = self._day_index(march_date)
        base = day * SECONDS_PER_DAY
        rng = self._record_rng
        visits = self._workload.day_visits(day)
        campaign = self._campaign_objects.get(march_date)
        if campaign is not None:
            visits = visits + self._factory.day_visits(campaign, day)

        records: list[DnsRecord] = []
        for visit in visits:
            records.append(
                DnsRecord(
                    timestamp=visit.timestamp,
                    source_ip=self.host_ips[visit.host],
                    domain=visit.domain,
                    record_type=DnsRecordType.A,
                    resolved_ip=visit.resolved_ip,
                )
            )
            # Non-A noise rides along with real lookups (PTR, TXT, ...).
            if rng.random() < self.config.non_a_record_rate:
                records.append(
                    DnsRecord(
                        timestamp=visit.timestamp + rng.uniform(0.0, 1.0),
                        source_ip=self.host_ips[visit.host],
                        domain=visit.domain,
                        record_type=rng.choice(
                            (DnsRecordType.TXT, DnsRecordType.PTR,
                             DnsRecordType.AAAA, DnsRecordType.MX)
                        ),
                        resolved_ip="",
                    )
                )

        # Queries for internal resources (filtered by reduction step 2).
        for host in self.model.hosts:
            for _ in range(self.config.internal_queries_per_host):
                records.append(
                    DnsRecord(
                        timestamp=base + rng.uniform(0, SECONDS_PER_DAY),
                        source_ip=self.host_ips[host.name],
                        domain=rng.choice(self._internal_names),
                        record_type=DnsRecordType.A,
                        resolved_ip="10.9.9.9",
                    )
                )

        # Queries by internal servers (filtered by reduction step 3).
        for server in self.model.servers:
            for _ in range(40):
                records.append(
                    DnsRecord(
                        timestamp=base + rng.uniform(0, SECONDS_PER_DAY),
                        source_ip=self.host_ips[server.name],
                        domain=rng.choice(self._server_domains),
                        record_type=DnsRecordType.A,
                        resolved_ip="",
                    )
                )

        records.sort(key=lambda r: r.timestamp)
        self._records_cache[march_date] = records
        return records


def generate_lanl_dataset(config: LanlConfig | None = None) -> LanlDataset:
    """Build the full synthetic LANL world from a seed."""
    config = config or LanlConfig()
    rng = random.Random(config.seed)
    model = build_enterprise(config.n_hosts, rng, n_servers=config.n_servers)
    ips = IpAllocator(seed=rng.randrange(2**31))
    factory_names = DomainNameFactory(rng)
    whois = WhoisDatabase()

    host_ips: dict[str, str] = {}
    for index, host in enumerate(model.hosts):
        host_ips[host.name] = ips.internal_static_ip(index + 1)
    server_ip_list = []
    for index, server in enumerate(model.servers):
        ip = ips.internal_static_ip(60_000 + index)
        host_ips[server.name] = ip
        server_ip_list.append(ip)

    benign_config = BenignConfig(
        popular_domains=config.popular_domains,
        browsing_visits_per_host=config.browsing_visits_per_host,
        churn_domains_per_day=config.churn_domains_per_day,
        rare_auto_services_per_day=config.rare_auto_services_per_day,
    )
    workload = BenignWorkload(
        model, _LanlNames(factory_names), ips, whois, rng, benign_config
    )

    internal_names = [
        f"{factory_names.lanl_benign().split('.')[0]}.int.c0"
        for _ in range(config.internal_domains)
    ]
    server_domains = [factory_names.lanl_benign()
                      for _ in range(config.server_only_domains)]

    # Bootstrap "February": build the destination history cheaply by
    # walking the benign workload and collecting names (the challenge
    # solver never needs February's raw records).
    bootstrap_domains: set[str] = set()
    for day in range(config.bootstrap_days):
        for visit in workload.day_visits(day):
            bootstrap_domains.add(visit.domain)
    bootstrap_domains.update(server_domains)

    factory = CampaignFactory(
        factory_names, ips, whois, rng, name_style="lanl"
    )
    campaigns: list[LanlCampaignTruth] = []
    campaign_objects: dict[int, Campaign] = {}
    for case, dates in CASE_DATES.items():
        for march_date in dates:
            spec = _CASE_SPECS[case]
            day = config.bootstrap_days + (march_date - 1)
            campaign = factory.create(day, model.hosts, spec)
            campaign_objects[march_date] = campaign
            host_names = tuple(campaign.host_names)
            if case == 1:
                hints = host_names[:1]
            elif case == 2:
                hints = host_names[:4]
            elif case == 3:
                hints = host_names[:1]
            else:
                hints = ()
            campaigns.append(
                LanlCampaignTruth(
                    march_date=march_date,
                    case=case,
                    hint_hosts=tuple(host_ips[h] for h in hints),
                    compromised_hosts=tuple(host_ips[h] for h in host_names),
                    malicious_domains=tuple(campaign.domains),
                    cc_domains=tuple(campaign.cc_domains),
                )
            )

    dataset = LanlDataset(
        config=config,
        model=model,
        host_ips=host_ips,
        server_ips=frozenset(server_ip_list),
        internal_suffixes=("int.c0",),
        campaigns=campaigns,
        bootstrap_domains=bootstrap_domains,
        whois=whois,
    )
    dataset._workload = workload
    dataset._factory = factory
    dataset._campaign_objects = campaign_objects
    dataset._record_rng = random.Random(config.seed ^ 0xBEEF)
    dataset._internal_names = internal_names
    dataset._server_domains = server_domains
    return dataset
