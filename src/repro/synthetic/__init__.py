"""Synthetic world: enterprises, benign workloads, attack campaigns."""

from .attacks import Campaign, CampaignFactory, CampaignSpec
from .benign import BenignConfig, BenignWorkload, Visit
from .campaigns import (
    CAMPAIGN_NAMES,
    FLEET_CAMPAIGN_NAMES,
    AdversarialCampaignSpec,
    RealizedCampaign,
    WorldView,
    campaign_dns_records,
    campaign_proxy_records,
    churn_fleet_config,
    realize_campaign,
)
from .certs import (
    fleet_cert_observations,
    fleet_rdap_documents,
    write_intel_fixtures,
)
from .dga import (
    ADVERSARIAL_DGA_FAMILIES,
    DgaFamily,
    DomainNameFactory,
    classify_dga,
)
from .entities import POPULAR_USER_AGENTS, EnterpriseModel, Host, build_enterprise
from .enterprise import (
    EnterpriseDataset,
    EnterpriseDatasetConfig,
    generate_enterprise_dataset,
)
from .fleet import (
    FleetDataset,
    FleetScenarioConfig,
    SharedCampaignTruth,
    build_fleet_whois,
    generate_fleet_dataset,
    train_enterprise_detector,
    write_enterprise_layout,
    write_fleet_layout,
)
from .ipspace import IpAllocator
from .lanl import (
    CASE_DATES,
    TRAINING_DATES,
    LanlCampaignTruth,
    LanlConfig,
    LanlDataset,
    generate_lanl_dataset,
)

__all__ = [
    "Campaign",
    "CampaignFactory",
    "CampaignSpec",
    "BenignConfig",
    "BenignWorkload",
    "Visit",
    "ADVERSARIAL_DGA_FAMILIES",
    "CAMPAIGN_NAMES",
    "FLEET_CAMPAIGN_NAMES",
    "AdversarialCampaignSpec",
    "RealizedCampaign",
    "WorldView",
    "campaign_dns_records",
    "campaign_proxy_records",
    "churn_fleet_config",
    "classify_dga",
    "realize_campaign",
    "DgaFamily",
    "DomainNameFactory",
    "POPULAR_USER_AGENTS",
    "EnterpriseModel",
    "Host",
    "build_enterprise",
    "EnterpriseDataset",
    "EnterpriseDatasetConfig",
    "FleetDataset",
    "FleetScenarioConfig",
    "SharedCampaignTruth",
    "build_fleet_whois",
    "fleet_cert_observations",
    "fleet_rdap_documents",
    "write_intel_fixtures",
    "generate_enterprise_dataset",
    "generate_fleet_dataset",
    "train_enterprise_detector",
    "write_enterprise_layout",
    "write_fleet_layout",
    "IpAllocator",
    "CASE_DATES",
    "TRAINING_DATES",
    "LanlCampaignTruth",
    "LanlConfig",
    "LanlDataset",
    "generate_lanl_dataset",
]
