"""Detection-rate-vs-evasion-strength curves over adversarial campaigns.

The harness realizes one :class:`~repro.synthetic.campaigns
.AdversarialCampaignSpec` per (strength, trial), overlays it onto a
fixed benign world, and drives the merged record lists through one
detection engine per trial -- in 500-event polls with a scoring round
after each, the way ``stream`` runs -- recording how recall over the
campaign's ground truth degrades as the evasion strength knob rises.

Two single-tenant pipelines are covered:

* **DNS** -- a campaign-free span of the synthetic LANL world
  (March dates past the Table I case layout) through a
  :class:`~repro.streaming.StreamingDetector`;
* **enterprise** -- a proxy world trained on its bootstrap month and
  evaluated on campaign-free post-training days through a
  :class:`~repro.streaming.enterprise.StreamingEnterpriseDetector`
  restored from one serialized trained state, so every trial starts
  from byte-identical profiles.

The fleet-level ``tenant-churn`` archetype gets its own curve:
detection of a shared campaign across follower tenants while
enterprises join and leave mid-fleet (see
:func:`~repro.synthetic.campaigns.churn_fleet_config`).

Everything is a pure function of seeds: curves are reproducible to the
digit, which is what lets BENCH_perf.json track robustness as a
trajectory the way it tracks throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LANL_CONFIG
from ..streaming.detector import StreamingDetector
from ..synthetic import (
    EnterpriseDatasetConfig,
    LanlConfig,
    generate_enterprise_dataset,
    generate_lanl_dataset,
)
from ..synthetic.campaigns import (
    AdversarialCampaignSpec,
    WorldView,
    campaign_connections,
    campaign_dns_records,
    realize_campaign,
)

#: First campaign-free March date of the synthetic LANL world (the
#: Table I cases occupy 3/02 through 3/22).
_FIRST_FREE_DATE = 23

#: Small LANL world shared by every DNS-path curve.
DNS_EVAL_WORLD = LanlConfig(
    seed=1097,
    n_hosts=36,
    bootstrap_days=2,
    popular_domains=30,
    churn_domains_per_day=6,
    browsing_visits_per_host=6,
    rare_auto_services_per_day=2,
)

#: Small enterprise world shared by every proxy-path curve.  All of
#: its built-in campaigns live inside the bootstrap month (they train
#: the regression models); post-training days are campaign-free, so
#: the overlaid adversarial campaign is the only ground truth.
ENTERPRISE_EVAL_WORLD = EnterpriseDatasetConfig(
    seed=2097,
    n_hosts=40,
    bootstrap_days=16,
    operation_days=0,
    quiet_days=2,
    popular_domains=40,
    churn_domains_per_day=8,
    n_campaigns=16,
)

#: (campaign duration, evaluation horizon) per archetype; slow-burn
#: needs a multi-week span to exercise day-skipping activations.
_HORIZONS: dict[str, tuple[int, int]] = {"slow-burn": (6, 7)}
_DEFAULT_HORIZON = (2, 3)


def campaign_horizon(campaign: str) -> tuple[int, int]:
    """(duration_days, evaluation days) the curve uses per archetype."""
    return _HORIZONS.get(campaign, _DEFAULT_HORIZON)


@dataclass(frozen=True)
class EvasionPoint:
    """One measured point of a detection-rate curve."""

    campaign: str
    pipeline: str
    strength: float
    trials: int
    rate: float
    truth_count: int
    """Ground-truth attacker domains across the point's trials."""

    detected_count: int
    parity: bool | None = None
    """Fleet curve only: whether a serial (1-worker) rerun produced
    identical per-tenant detections."""


@dataclass
class EvasionCurve:
    """Detection rate as a function of evasion strength."""

    campaign: str
    pipeline: str
    points: list[EvasionPoint]

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "pipeline": self.pipeline,
            "points": [
                {
                    "strength": p.strength,
                    "trials": p.trials,
                    "rate": round(p.rate, 4),
                    "truth_count": p.truth_count,
                    "detected_count": p.detected_count,
                    **({} if p.parity is None else {"parity": p.parity}),
                }
                for p in self.points
            ],
        }


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _sweep(campaign, pipeline, strengths, trials, seed, trial) -> EvasionCurve:
    """One curve: ``trial(strength, trial seed) -> (truth, detected)``
    summed over ``trials`` per strength."""
    points: list[EvasionPoint] = []
    for strength in strengths:
        truth_n = hits = 0
        for index in range(trials):
            truth, detected = trial(strength, seed + 1000 * index)
            truth_n += len(truth)
            hits += len(truth & detected)
        points.append(EvasionPoint(
            campaign=campaign,
            pipeline=pipeline,
            strength=strength,
            trials=trials,
            rate=hits / truth_n if truth_n else 0.0,
            truth_count=truth_n,
            detected_count=hits,
        ))
    return EvasionCurve(campaign=campaign, pipeline=pipeline, points=points)


# ---------------------------------------------------------------------------
# DNS pipeline
# ---------------------------------------------------------------------------

def _dns_trial(
    dataset, campaign, strength, seed, *, metrics=None
) -> tuple[set[str], set[str]]:
    """(truth, detected) for one trial."""
    duration, horizon = campaign_horizon(campaign)
    start_day = dataset.config.bootstrap_days + (_FIRST_FREE_DATE - 1)
    spec = AdversarialCampaignSpec(
        campaign=campaign,
        strength=strength,
        seed=seed,
        start_day=start_day,
        duration_days=duration,
        n_hosts=3,
    )
    realized = realize_campaign(WorldView.from_dataset(dataset), spec)

    engine = StreamingDetector(
        config=LANL_CONFIG,
        internal_suffixes=dataset.internal_suffixes,
        server_ips=dataset.server_ips,
        metrics=metrics,
    )
    engine.history.bootstrap(dataset.bootstrap_domains)

    detected: set[str] = set()
    for offset in range(horizon):
        records = dataset.day_records(
            _FIRST_FREE_DATE + offset
        ) + campaign_dns_records(
            realized, dataset.host_ips, start_day + offset
        )
        records.sort(key=lambda r: r.timestamp)
        for chunk in _chunks(records, 500):
            engine.submit_raw(chunk)
            engine.poll()
            engine.score()
        detected.update(engine.rollover().detected)
    return realized.truth_domains(), detected


def dns_evasion_curve(
    campaign: str,
    strengths=(0.0, 0.25, 0.5, 0.75, 1.0),
    *,
    trials: int = 3,
    seed: int = 11,
    dataset=None,
    metrics=None,
) -> EvasionCurve:
    """Detection-rate curve for one archetype on the DNS pipeline.

    ``dataset`` shares a pre-generated :data:`DNS_EVAL_WORLD` across
    curves (the benign world is identical at every point -- only the
    campaign realization varies with strength and trial seed).
    """
    if dataset is None:
        dataset = generate_lanl_dataset(DNS_EVAL_WORLD)
    return _sweep(
        campaign, "dns", strengths, trials, seed,
        lambda strength, trial_seed: _dns_trial(
            dataset, campaign, strength, trial_seed, metrics=metrics
        ),
    )


# ---------------------------------------------------------------------------
# Enterprise pipeline
# ---------------------------------------------------------------------------

def trained_enterprise_world(config: EnterpriseDatasetConfig | None = None):
    """(dataset, serialized trained state) for the proxy-path curves.

    Training happens once; every trial restores a fresh detector from
    the returned state payload, so each starts from byte-identical
    profiles.
    """
    from ..state import detector_state
    from ..synthetic.fleet import train_enterprise_detector

    dataset = generate_enterprise_dataset(
        config or ENTERPRISE_EVAL_WORLD
    )
    detector = train_enterprise_detector(dataset)
    return dataset, detector_state(detector)


def _enterprise_trial(
    dataset, state, campaign, strength, seed, *, metrics=None
) -> tuple[set[str], set[str]]:
    """(truth, detected) for one trial."""
    from ..state import restore_detector
    from ..streaming.enterprise import StreamingEnterpriseDetector

    duration, horizon = campaign_horizon(campaign)
    start_day = dataset.config.total_days
    spec = AdversarialCampaignSpec(
        campaign=campaign,
        strength=strength,
        seed=seed,
        start_day=start_day,
        duration_days=duration,
        n_hosts=3,
    )
    realized = realize_campaign(WorldView.from_dataset(dataset), spec)
    for domain, registered, expires in realized.whois_records:
        dataset.whois.register(domain, registered, expires)

    engine = StreamingEnterpriseDetector(
        restore_detector(state, whois=dataset.whois), metrics=metrics
    )
    detected: set[str] = set()
    for day in range(start_day, start_day + horizon):
        connections = dataset.day_connections(day) + campaign_connections(
            realized, day
        )
        connections.sort(key=lambda c: c.timestamp)
        for chunk in _chunks(connections, 500):
            engine.ingest(chunk)
            engine.score()
        detected.update(engine.rollover().detected)
    return realized.truth_domains(), detected


def enterprise_evasion_curve(
    campaign: str,
    strengths=(0.0, 0.25, 0.5, 0.75, 1.0),
    *,
    trials: int = 2,
    seed: int = 23,
    world=None,
    metrics=None,
) -> EvasionCurve:
    """Detection-rate curve for one archetype on the proxy pipeline.

    ``world`` is the (dataset, trained state) pair from
    :func:`trained_enterprise_world`, shared across curves so the
    expensive training step runs once.
    """
    if world is None:
        world = trained_enterprise_world()
    dataset, state = world
    return _sweep(
        campaign, "enterprise", strengths, trials, seed,
        lambda strength, trial_seed: _enterprise_trial(
            dataset, state, campaign, strength, trial_seed, metrics=metrics
        ),
    )


# ---------------------------------------------------------------------------
# Fleet pipeline: tenant churn
# ---------------------------------------------------------------------------

def churn_evasion_curve(
    strengths=(0.0, 0.5, 1.0),
    *,
    seed: int = 42,
    n_tenants: int = 3,
    workers: int = 2,
    metrics=None,
) -> EvasionCurve:
    """Detection rate of a shared campaign across a churning fleet.

    For each strength, generates a fleet where the last tenant joins
    mid-run and another leaves early
    (:func:`~repro.synthetic.campaigns.churn_fleet_config`), writes
    the layout, runs the fleet manager, and measures the fraction of
    campaign-hit tenants whose shared C&C domains were detected.  The
    point's ``parity`` flag says whether a serial (1-worker) rerun
    produced identical per-tenant detections.
    """
    import tempfile
    from pathlib import Path

    from ..fleet.manager import FleetManager
    from ..fleet.manifest import load_manifest
    from ..synthetic.campaigns import churn_fleet_config
    from ..synthetic.fleet import generate_fleet_dataset, write_fleet_layout
    from ..testing import SMALL_FLEET_TENANT

    points: list[EvasionPoint] = []
    for strength in strengths:
        config = churn_fleet_config(
            strength=strength,
            seed=seed,
            n_tenants=n_tenants,
            tenant=SMALL_FLEET_TENANT,
        )
        fleet = generate_fleet_dataset(config)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "fleet"
            manifest = load_manifest(
                write_fleet_layout(fleet, directory, days=8)
            )

            def run(n_workers: int):
                manager = FleetManager.from_manifest(
                    manifest, workers=n_workers, metrics=metrics,
                )
                report = manager.run()
                return {
                    tenant: sorted(domains)
                    for tenant, domains in
                    report.detected_by_tenant().items()
                }

            parallel = run(workers)
            serial = run(1)
        # Every tenant is hit by the shared campaign; the fleet's
        # detection rate is the fraction of hit tenants that surfaced
        # any of its domains (locally or through intel seeding).
        truth = set(fleet.shared.domains)
        hit_tenants = list(fleet.shared.hosts_by_tenant)
        detected = sum(
            1 for tenant in hit_tenants
            if truth & set(parallel.get(tenant, ()))
        )
        points.append(EvasionPoint(
            campaign="tenant-churn",
            pipeline="fleet",
            strength=strength,
            trials=1,
            rate=detected / len(hit_tenants) if hit_tenants else 0.0,
            truth_count=len(hit_tenants),
            detected_count=detected,
            parity=parallel == serial,
        ))
    return EvasionCurve(
        campaign="tenant-churn", pipeline="fleet", points=points
    )
