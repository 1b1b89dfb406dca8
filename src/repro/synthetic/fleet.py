"""Correlated multi-enterprise worlds (the fleet scenario).

The paper observes that community feedback (VT reports) amplifies
detection across organizations; the fleet scenario makes that testable:
``n_tenants`` independent enterprise worlds -- each with its own hosts,
benign workload and campaigns -- plus **one shared attacker campaign**
whose C&C infrastructure hits several tenants:

* the **lead tenant** is hit first, with enough compromised hosts
  (default two) for the multi-host beaconing heuristic to fire on its
  own -- the tenant that "discovers" the campaign;
* **follower tenants** are hit on a later date with a *single*
  beaconing host each, below the heuristic's ``min_hosts`` -- locally
  invisible to the no-hint LANL path, detectable only when the lead's
  confirmation arrives as an elevated prior through the fleet's shared
  intel plane.

Fleets may be **mixed-pipeline**: with
:attr:`FleetScenarioConfig.enterprise_tenants` set, the trailing
tenants are enterprise (web-proxy) worlds instead of LANL-style DNS
worlds.  Their daily logs are written *pre-joined* (the collector has
already resolved DHCP/VPN addresses to stable hostnames -- the full
join is exercised by :mod:`repro.synthetic.enterprise` itself), their
regression models are trained on their bootstrap month at layout-write
time, and the shared campaign beacons into their proxy traffic -- so
the lead's (DNS-path) confirmation seeds the follower's proxy-path
belief propagation across *pipeline types*.

Shared-campaign names use the ``.c9`` label space (DNS tenant worlds
mint ``.c1``-``.c4``/``.n*``, enterprise worlds realistic TLDs), so
cross-tenant overlap in a generated fleet is attacker infrastructure
by construction, never a naming collision.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from ..config import ENTERPRISE_CONFIG, SystemConfig
from ..intel.virustotal import VirusTotalOracle
from ..logs import format_dns_line, format_proxy_line, normalize_proxy_records
from ..logs.records import DnsRecord, DnsRecordType, ProxyRecord
from .dga import _syllables
from .enterprise import (
    EnterpriseDataset,
    EnterpriseDatasetConfig,
    generate_enterprise_dataset,
)
from .ipspace import IpAllocator
from .lanl import LanlConfig, LanlDataset, generate_lanl_dataset

SECONDS_PER_DAY = 86_400.0

#: Registration interval written for shared-campaign domains in the
#: fleet's WHOIS registry: minted at epoch, short validity -- the young,
#: short-lived profile the paper associates with attacker infrastructure.
SHARED_DOMAIN_REGISTERED = 0.0
SHARED_DOMAIN_EXPIRES = 200 * SECONDS_PER_DAY


@dataclass(frozen=True)
class FleetScenarioConfig:
    """Shape of a correlated multi-enterprise world."""

    seed: int = 42
    n_tenants: int = 3
    tenant: LanlConfig = field(
        default_factory=lambda: LanlConfig(n_hosts=60, bootstrap_days=3)
    )
    """Template for every DNS tenant's world; seeds are derived per
    tenant."""

    enterprise_tenants: int = 0
    """How many of the *trailing* tenants are enterprise (proxy-path)
    worlds.  Must leave at least the lead tenant on the DNS path: the
    lead's discovery story relies on the multi-host beaconing
    heuristic."""

    enterprise_tenant: EnterpriseDatasetConfig = field(
        default_factory=lambda: EnterpriseDatasetConfig(
            n_hosts=50,
            bootstrap_days=9,
            operation_days=6,
            quiet_days=3,
            popular_domains=60,
            churn_domains_per_day=12,
            n_campaigns=20,
        )
    )
    """Template for enterprise tenants' worlds; must be rich enough to
    train both regression models at layout-write time."""

    lead_date: int = 2
    """March date the shared campaign hits the lead tenant."""

    follower_date: int = 3
    """March date the shared campaign reaches every follower tenant."""

    lead_hosts: int = 2
    """Compromised hosts in the lead tenant (>= 2 fires the multi-host
    C&C heuristic locally)."""

    follower_hosts: int = 1
    """Compromised hosts per follower (1 stays below the heuristic --
    detectable only through cross-tenant prior seeding)."""

    shared_cc_domains: int = 1
    shared_delivery_domains: int = 2
    beacon_period: float = 600.0
    beacon_jitter: float = 3.0
    vt_coverage: float = 0.8
    """Fraction of fleet-wide malicious domains the shared VT feed knows."""

    ct_sibling_domains: int = 0
    """Extra campaign domains visible *only* through the CT fixture's
    SAN pivot: each is looked up a handful of times (non-periodically,
    from an uncompromised host) in one follower tenant, so it lands in
    the day's rare set but never beacons, is absent from the VT feed,
    and shares no host with the campaign -- belief propagation cannot
    reach it without the certificate edge.  ``0`` (the default) leaves
    generated worlds byte-identical to earlier versions."""

    join_rounds: tuple[int, ...] = ()
    """Per-tenant fleet round at which the tenant comes online (tenant
    churn).  Index-aligned with the tenants; empty (the default) means
    everyone joins at round 0, byte-identical to earlier versions.  A
    late joiner's files are still its own ``march-01..`` days -- it
    brings a fresh world whose day 1 coincides with the fleet's round
    ``join_rounds[i]`` (:func:`write_fleet_layout` records the offset
    in the manifest)."""

    leave_rounds: tuple[int, ...] = ()
    """Per-tenant number of daily files to ship before the tenant
    leaves the fleet; ``0`` entries (and the empty default) mean the
    tenant stays for the full run.  Leaving is purely a layout fact --
    the tenant's directory simply ends early."""

    follower_dates: tuple[int, ...] = ()
    """Per-tenant override of :attr:`follower_date` (index-aligned;
    the lead entry is ignored).  Lets a late joiner be hit on a date
    it actually observes.  Empty means every follower is hit on
    :attr:`follower_date`."""


@dataclass(frozen=True)
class SharedCampaignTruth:
    """Ground truth of the cross-tenant campaign."""

    cc_domains: tuple[str, ...]
    delivery_domains: tuple[str, ...]
    hosts_by_tenant: dict[str, tuple[str, ...]]
    date_by_tenant: dict[str, int]
    ct_sibling_domains: tuple[str, ...] = ()
    """Campaign domains reachable only via the CT certificate's SAN
    pivot (kept out of :attr:`domains` so the VT feed stays blind to
    them -- the certificate is their only evidence channel)."""

    ct_sibling_tenant: str = ""
    """Tenant whose traffic carries the sibling lookups (empty when
    the scenario injected none)."""

    @property
    def domains(self) -> tuple[str, ...]:
        return self.delivery_domains + self.cc_domains


@dataclass
class FleetDataset:
    """``n_tenants`` worlds plus the shared campaign ground truth."""

    config: FleetScenarioConfig
    tenants: dict[str, "LanlDataset | EnterpriseDataset"]
    shared: SharedCampaignTruth
    pipelines: dict[str, str] = field(default_factory=dict)
    """Tenant id -> ``"dns"`` or ``"enterprise"`` (missing = dns)."""

    _injected: dict[tuple[str, int], list] = field(
        repr=False, default_factory=dict
    )
    _merged_cache: dict[tuple[str, int], list] = field(
        repr=False, default_factory=dict
    )

    @property
    def tenant_ids(self) -> list[str]:
        return list(self.tenants)

    @property
    def lead_tenant(self) -> str:
        return self.tenant_ids[0]

    @property
    def follower_tenants(self) -> list[str]:
        return self.tenant_ids[1:]

    def pipeline_of(self, tenant_id: str) -> str:
        """The tenant's log pipeline (``"dns"`` or ``"enterprise"``)."""
        return self.pipelines.get(tenant_id, "dns")

    def tenant_day_records(self, tenant_id: str, march_date: int) -> list:
        """One tenant's full day: its own world + shared-campaign hits.

        DNS tenants yield :class:`DnsRecord` lists; enterprise tenants
        yield *pre-joined* :class:`ProxyRecord` lists (UTC timestamps,
        stable hostnames in the source field).
        """
        key = (tenant_id, march_date)
        cached = self._merged_cache.get(key)
        if cached is None:
            dataset = self.tenants[tenant_id]
            if self.pipeline_of(tenant_id) == "enterprise":
                day = dataset.config.bootstrap_days + (march_date - 1)
                records = _prejoined_proxy_records(dataset, day)
            else:
                records = list(dataset.day_records(march_date))
            records.extend(self._injected.get(key, ()))
            records.sort(key=lambda r: r.timestamp)
            self._merged_cache[key] = cached = records
        return cached

    def malicious_domains(self) -> set[str]:
        """Fleet-wide ground-truth malicious set (all tenants + shared)."""
        domains: set[str] = set(self.shared.domains)
        for tenant_id, dataset in self.tenants.items():
            if self.pipeline_of(tenant_id) == "enterprise":
                domains.update(dataset.malicious_domains)
            else:
                for truth in dataset.campaigns:
                    domains.update(truth.malicious_domains)
        return domains

    def vt_oracle(self) -> VirusTotalOracle:
        """The fleet's shared VT feed over the ground truth."""
        return VirusTotalOracle(
            self.malicious_domains(),
            coverage=self.config.vt_coverage,
            seed=self.config.seed,
        )


def _mint_shared_domains(rng: random.Random, count: int) -> list[str]:
    issued: set[str] = set()
    while len(issued) < count:
        issued.add(f"{_syllables(rng, 3)}.c9")
    return sorted(issued)


def _inject_campaign(
    dataset: LanlDataset,
    march_date: int,
    hosts: tuple[str, ...],
    delivery: list[str],
    cc: list[str],
    domain_ips: dict[str, str],
    config: FleetScenarioConfig,
    rng: random.Random,
) -> list[DnsRecord]:
    """Shared-campaign DNS records inside one tenant, one day.

    Mirrors :meth:`repro.synthetic.attacks.CampaignFactory.day_visits`:
    a delivery chain minutes apart at infection time, then periodic
    C&C beaconing until end of day.
    """
    day = dataset.config.bootstrap_days + (march_date - 1)
    base = day * SECONDS_PER_DAY
    records: list[DnsRecord] = []
    infection = base + rng.uniform(8 * 3600.0, 13 * 3600.0)
    for index, host in enumerate(hosts):
        source_ip = dataset.host_ips[host]
        t = infection + index * rng.uniform(10.0, 300.0)
        for domain in delivery:
            records.append(DnsRecord(
                timestamp=t, source_ip=source_ip, domain=domain,
                record_type=DnsRecordType.A,
                resolved_ip=domain_ips[domain],
            ))
            t += rng.uniform(5.0, 120.0)
        beacon_start = t + rng.uniform(10.0, 120.0)
        for domain in cc:
            t = beacon_start
            end = base + SECONDS_PER_DAY - 60.0
            while t < end:
                records.append(DnsRecord(
                    timestamp=t, source_ip=source_ip, domain=domain,
                    record_type=DnsRecordType.A,
                    resolved_ip=domain_ips[domain],
                ))
                t += config.beacon_period + rng.uniform(
                    -config.beacon_jitter, config.beacon_jitter
                )
    return records


def _prejoined_proxy_records(
    dataset: EnterpriseDataset, day: int
) -> list[ProxyRecord]:
    """One enterprise day as pre-joined proxy records.

    The raw day is pushed through the scalar normalization (UTC
    conversion, DHCP/VPN joins, bare-IP drops, second-level fold) and
    re-emitted with the stable hostname in the source field and a zero
    collector offset -- the form a fleet collector ships after its own
    join, so consuming engines need no lease registry.  Scalar, not
    columns: the lines keep each record's ``status_code``.
    """
    records = []
    for conn in normalize_proxy_records(
        dataset.day_proxy_records(day),
        dataset.resolver_for_day(day),
        fold_level=2,
    ):
        records.append(ProxyRecord(
            timestamp=conn.timestamp,
            source_ip=conn.host,
            destination=conn.domain,
            destination_ip=conn.resolved_ip,
            status_code=conn.status_code,
            user_agent=conn.user_agent or "",
            referer=conn.referer if conn.referer is not None else "",
        ))
    return records


def _inject_enterprise_campaign(
    dataset: EnterpriseDataset,
    march_date: int,
    hosts: tuple[str, ...],
    delivery: list[str],
    cc: list[str],
    domain_ips: dict[str, str],
    config: FleetScenarioConfig,
    rng: random.Random,
) -> list[ProxyRecord]:
    """Shared-campaign proxy records inside one enterprise tenant.

    Same delivery-then-beacon shape as :func:`_inject_campaign`, emitted
    as pre-joined proxy lines: no referer and no user agent, exactly
    the NoRef/RareUA evidence profile the regression features expect of
    malware traffic.
    """
    day = dataset.config.bootstrap_days + (march_date - 1)
    base = day * SECONDS_PER_DAY
    records: list[ProxyRecord] = []
    infection = base + rng.uniform(8 * 3600.0, 13 * 3600.0)
    for index, host in enumerate(hosts):
        t = infection + index * rng.uniform(10.0, 300.0)
        for domain in delivery:
            records.append(ProxyRecord(
                timestamp=t, source_ip=host, destination=domain,
                destination_ip=domain_ips[domain],
                user_agent="", referer="",
            ))
            t += rng.uniform(5.0, 120.0)
        beacon_start = t + rng.uniform(10.0, 120.0)
        for domain in cc:
            t = beacon_start
            end = base + SECONDS_PER_DAY - 60.0
            while t < end:
                records.append(ProxyRecord(
                    timestamp=t, source_ip=host, destination=domain,
                    destination_ip=domain_ips[domain],
                    user_agent="", referer="",
                ))
                t += config.beacon_period + rng.uniform(
                    -config.beacon_jitter, config.beacon_jitter
                )
    return records


def _inject_ct_siblings(
    dataset,
    march_date: int,
    campaign_hosts: tuple[str, ...],
    siblings: list[str],
    domain_ips: dict[str, str],
    pipeline: str,
    rng: random.Random,
) -> list:
    """Sparse lookups of the CT-sibling domains in one tenant's day.

    Three visits per domain, hours apart (nothing periodic), from a
    host the campaign never compromised: rare by first appearance, but
    invisible to the beaconing heuristic and unreachable from the
    campaign through host-domain edges.
    """
    day = dataset.config.bootstrap_days + (march_date - 1)
    base = day * SECONDS_PER_DAY
    candidates = [
        host.name
        for host in dataset.model.hosts
        if host.name not in campaign_hosts
    ]
    source = rng.choice(candidates)
    records: list = []
    windows = ((9.0, 11.0), (13.5, 15.5), (18.0, 20.0))
    for domain in siblings:
        for lo, hi in windows:
            t = base + rng.uniform(lo * 3600.0, hi * 3600.0)
            if pipeline == "enterprise":
                records.append(ProxyRecord(
                    timestamp=t, source_ip=source, destination=domain,
                    destination_ip=domain_ips[domain],
                    user_agent="", referer="",
                ))
            else:
                records.append(DnsRecord(
                    timestamp=t,
                    source_ip=dataset.host_ips[source],
                    domain=domain,
                    record_type=DnsRecordType.A,
                    resolved_ip=domain_ips[domain],
                ))
    return records


def generate_fleet_dataset(
    config: FleetScenarioConfig | None = None,
) -> FleetDataset:
    """Build ``n_tenants`` correlated worlds from one seed.

    With :attr:`FleetScenarioConfig.enterprise_tenants` set, the
    trailing tenants are enterprise (proxy-path) worlds; the lead (and
    any other leading tenants) stay on the DNS path.
    """
    config = config or FleetScenarioConfig()
    if config.n_tenants < 2:
        raise ValueError("a fleet scenario needs at least 2 tenants")
    if not 0 <= config.enterprise_tenants < config.n_tenants:
        raise ValueError(
            "enterprise_tenants must leave at least the lead tenant "
            "on the DNS path"
        )
    for name in ("join_rounds", "leave_rounds", "follower_dates"):
        value = getattr(config, name)
        if value and len(value) != config.n_tenants:
            raise ValueError(
                f"{name} must have one entry per tenant "
                f"({config.n_tenants}), got {len(value)}"
            )
    rng = random.Random(config.seed ^ 0xF1EE7)

    n_dns = config.n_tenants - config.enterprise_tenants
    tenants: dict[str, LanlDataset | EnterpriseDataset] = {}
    pipelines: dict[str, str] = {}
    for index in range(config.n_tenants):
        tenant_id = f"t{index}"
        tenant_seed = config.seed + 1009 * index
        if index < n_dns:
            tenants[tenant_id] = generate_lanl_dataset(
                replace(config.tenant, seed=tenant_seed)
            )
            pipelines[tenant_id] = "dns"
        else:
            tenants[tenant_id] = generate_enterprise_dataset(
                replace(config.enterprise_tenant, seed=tenant_seed)
            )
            pipelines[tenant_id] = "enterprise"

    delivery = _mint_shared_domains(rng, config.shared_delivery_domains)
    cc = _mint_shared_domains(rng, config.shared_cc_domains)
    ips = IpAllocator(seed=rng.randrange(2**31))
    block = ips.attacker_block()
    domain_ips = {domain: ips.ip_in_block(block) for domain in delivery + cc}

    hosts_by_tenant: dict[str, tuple[str, ...]] = {}
    date_by_tenant: dict[str, int] = {}
    injected: dict[tuple[str, int], list] = {}
    for index, (tenant_id, dataset) in enumerate(tenants.items()):
        lead = index == 0
        n_hosts = config.lead_hosts if lead else config.follower_hosts
        if lead:
            date = config.lead_date
        elif config.follower_dates:
            date = config.follower_dates[index]
        else:
            date = config.follower_date
        hosts = tuple(
            host.name
            for host in rng.sample(dataset.model.hosts, n_hosts)
        )
        hosts_by_tenant[tenant_id] = hosts
        date_by_tenant[tenant_id] = date
        if pipelines[tenant_id] == "enterprise":
            injected[(tenant_id, date)] = _inject_enterprise_campaign(
                dataset, date, hosts, delivery, cc, domain_ips, config, rng,
            )
        else:
            injected[(tenant_id, date)] = _inject_campaign(
                dataset, date, hosts, delivery, cc, domain_ips, config, rng,
            )

    ct_siblings: tuple[str, ...] = ()
    ct_tenant = ""
    if config.ct_sibling_domains > 0:
        # A dedicated generator (and draws strictly after every
        # existing one) keeps ct_sibling_domains=0 worlds
        # byte-identical to earlier versions.
        ct_rng = random.Random(config.seed ^ 0xCE127)
        taken = set(delivery) | set(cc)
        minted: list[str] = []
        while len(minted) < config.ct_sibling_domains:
            name = f"{_syllables(ct_rng, 3)}.c9"
            if name not in taken:
                taken.add(name)
                minted.append(name)
        ct_siblings = tuple(minted)
        sibling_ips = {
            domain: ips.ip_in_block(block) for domain in ct_siblings
        }
        followers = list(tenants)[1:]
        ct_tenant = next(
            (tid for tid in followers if pipelines[tid] == "dns"),
            followers[0],
        )
        key = (ct_tenant, config.follower_date)
        injected.setdefault(key, []).extend(_inject_ct_siblings(
            tenants[ct_tenant],
            config.follower_date,
            hosts_by_tenant[ct_tenant],
            list(ct_siblings),
            sibling_ips,
            pipelines[ct_tenant],
            ct_rng,
        ))

    shared = SharedCampaignTruth(
        cc_domains=tuple(cc),
        delivery_domains=tuple(delivery),
        hosts_by_tenant=hosts_by_tenant,
        date_by_tenant=date_by_tenant,
        ct_sibling_domains=ct_siblings,
        ct_sibling_tenant=ct_tenant,
    )
    return FleetDataset(
        config=config,
        tenants=tenants,
        shared=shared,
        pipelines=pipelines,
        _injected=injected,
    )


# ---------------------------------------------------------------------------
# On-disk layout (what `repro-detect fleet` consumes)
# ---------------------------------------------------------------------------

def train_enterprise_detector(
    dataset: EnterpriseDataset, config: SystemConfig = ENTERPRISE_CONFIG
):
    """Train the batch pipeline on an enterprise world's bootstrap month.

    Returns a trained :class:`repro.core.EnterpriseDetector`; raises
    :class:`ValueError` when the world is too small to fit both
    regression models (enlarge the tenant template).
    """
    from ..core.pipeline import EnterpriseDetector

    detector = EnterpriseDetector(config, whois=dataset.whois)
    detector.train(
        dataset.day_batches(0, dataset.config.bootstrap_days),
        dataset.build_virustotal(),
    )
    if detector.cc_scorer is None or detector.similarity_scorer is None:
        raise ValueError(
            "enterprise tenant training did not produce both regression "
            "models; enlarge the enterprise tenant configuration"
        )
    return detector


def write_enterprise_tenant(
    dataset: EnterpriseDataset,
    tenant_dir,
    *,
    days: int,
    day_records=None,
) -> None:
    """Write one enterprise tenant's runnable files into ``tenant_dir``.

    Produces ``proxy-march-XX.log`` (pre-joined daily logs covering
    operation days ``bootstrap_days .. bootstrap_days + days - 1``),
    the trained ``model.json`` the streaming engine restores, and
    ``ground_truth.txt``.  ``day_records`` overrides the per-March-date
    record source (the fleet writer injects the shared campaign there).
    """
    from pathlib import Path

    from ..state import save_detector

    tenant_dir = Path(tenant_dir)
    tenant_dir.mkdir(parents=True, exist_ok=True)
    first = dataset.config.bootstrap_days
    for march_date in range(1, days + 1):
        if day_records is not None:
            records = day_records(march_date)
        else:
            records = _prejoined_proxy_records(
                dataset, first + (march_date - 1)
            )
        path = tenant_dir / f"proxy-march-{march_date:02d}.log"
        with path.open("w") as handle:
            for record in records:
                handle.write(format_proxy_line(record) + "\n")

    save_detector(train_enterprise_detector(dataset), tenant_dir / "model.json")

    last = first + days - 1
    with (tenant_dir / "ground_truth.txt").open("w") as handle:
        for campaign in dataset.campaigns:
            active = sorted(set(campaign.active_days) & set(range(first, last + 1)))
            if not active:
                continue
            handle.write(
                f"days={','.join(str(d) for d in active)} "
                f"{campaign.campaign_id} "
                f"hosts={','.join(campaign.host_names)} "
                f"domains={','.join(campaign.domains)}\n"
            )


def write_enterprise_layout(dataset: EnterpriseDataset, directory, *, days: int):
    """Write a single-tenant enterprise layout for streaming replay.

    Produces the files ``repro-detect stream --pipeline enterprise``
    consumes: pre-joined daily proxy logs, the trained ``model.json``,
    the ``whois.json`` registry, and ``ground_truth.txt``.  Returns the
    directory.
    """
    from pathlib import Path

    from ..intel.whois_db import save_whois_file

    directory = Path(directory)
    write_enterprise_tenant(dataset, directory, days=days)
    save_whois_file(dataset.whois, directory / "whois.json")
    return directory


def build_fleet_whois(fleet: FleetDataset):
    """The fleet-wide WHOIS registry: every enterprise tenant's records
    plus young, short-validity registrations for the shared campaign --
    what the intel plane serves and the report's registration columns
    read."""
    from ..intel.whois_db import WhoisDatabase

    merged = WhoisDatabase()
    for tenant_id, dataset in fleet.tenants.items():
        if fleet.pipeline_of(tenant_id) == "enterprise":
            merged.merge(dataset.whois)
    for domain in fleet.shared.domains:
        merged.register(
            domain, SHARED_DOMAIN_REGISTERED, SHARED_DOMAIN_EXPIRES
        )
    return merged


def write_fleet_layout(
    fleet: FleetDataset,
    directory,
    *,
    days: int = 4,
    bootstrap_files: int = 1,
):
    """Write a runnable fleet layout; returns the manifest path.

    Layout::

        <dir>/manifest.json
        <dir>/intel/vt_reported.txt      # the shared VT feed
        <dir>/intel/whois.json           # the shared WHOIS registry
        <dir>/shared_truth.txt           # cross-tenant campaign answers
        <dir>/<tenant>/dns-march-*.log   # DNS tenant daily logs
        <dir>/<tenant>/proxy-march-*.log # enterprise tenant daily logs
        <dir>/<tenant>/model.json        # enterprise tenant trained models
        <dir>/<tenant>/ground_truth.txt
    """
    from pathlib import Path

    from ..intel.whois_db import save_whois_file

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    tenant_entries = []
    scenario = fleet.config
    for index, (tenant_id, dataset) in enumerate(fleet.tenants.items()):
        # Churn: a leaver ships fewer daily files, a joiner carries a
        # manifest round offset (its files are still its own days 1..N).
        tenant_days = days
        if scenario.leave_rounds and scenario.leave_rounds[index]:
            tenant_days = min(days, scenario.leave_rounds[index])
        join_round = (
            scenario.join_rounds[index] if scenario.join_rounds else 0
        )
        tenant_dir = directory / tenant_id
        tenant_dir.mkdir(exist_ok=True)
        if fleet.pipeline_of(tenant_id) == "enterprise":
            write_enterprise_tenant(
                dataset,
                tenant_dir,
                days=tenant_days,
                day_records=lambda march, tid=tenant_id: (
                    fleet.tenant_day_records(tid, march)
                ),
            )
            entry = {
                "id": tenant_id,
                "directory": tenant_id,
                "pipeline": "enterprise",
                "bootstrap_files": bootstrap_files,
                "pattern": "proxy-*.log",
                "model_state": "model.json",
            }
            if join_round:
                entry["join_round"] = join_round
            tenant_entries.append(entry)
            continue
        for march_date in range(1, tenant_days + 1):
            path = tenant_dir / f"dns-march-{march_date:02d}.log"
            with path.open("w") as handle:
                for record in fleet.tenant_day_records(tenant_id, march_date):
                    handle.write(format_dns_line(record) + "\n")
        truth_path = tenant_dir / "ground_truth.txt"
        with truth_path.open("w") as handle:
            for truth in dataset.campaigns:
                if truth.march_date > tenant_days:
                    continue
                handle.write(
                    f"3/{truth.march_date:02d} case{truth.case} "
                    f"domains={','.join(truth.malicious_domains)}\n"
                )
        entry = {
            "id": tenant_id,
            "directory": tenant_id,
            "bootstrap_files": bootstrap_files,
            "pattern": "dns-*.log",
            "internal_suffixes": list(dataset.internal_suffixes),
            "server_ips": sorted(dataset.server_ips),
        }
        if join_round:
            entry["join_round"] = join_round
        tenant_entries.append(entry)

    intel_dir = directory / "intel"
    intel_dir.mkdir(exist_ok=True)
    oracle = fleet.vt_oracle()
    (intel_dir / "vt_reported.txt").write_text(
        "\n".join(sorted(oracle.reported_domains)) + "\n"
    )
    save_whois_file(build_fleet_whois(fleet), intel_dir / "whois.json")
    from .certs import write_intel_fixtures

    write_intel_fixtures(fleet, intel_dir)

    shared = fleet.shared
    truth_lines = [
        f"3/{shared.date_by_tenant[tid]:02d} {tid} "
        f"hosts={','.join(shared.hosts_by_tenant[tid])} "
        f"domains={','.join(shared.domains)}"
        for tid in fleet.tenant_ids
    ]
    if shared.ct_sibling_domains:
        truth_lines.append(
            f"ct_siblings {shared.ct_sibling_tenant} "
            f"domains={','.join(shared.ct_sibling_domains)}"
        )
    (directory / "shared_truth.txt").write_text(
        "\n".join(truth_lines) + "\n"
    )

    manifest: dict = {
        "version": 1,
        "vt_reported": "intel/vt_reported.txt",
        "whois": "intel/whois.json",
        "tenants": tenant_entries,
    }
    if shared.ct_sibling_domains:
        # The certs fixture is always written, but only referenced --
        # and therefore only consulted -- when the scenario injected
        # SAN-pivot siblings, so existing layouts detect identically.
        manifest["certs"] = "intel/certs.json"
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest_path
