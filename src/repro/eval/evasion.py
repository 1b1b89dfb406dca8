"""Detection-rate-vs-evasion-strength curves over adversarial campaigns.

The harness realizes one :class:`~repro.synthetic.campaigns
.AdversarialCampaignSpec` per (strength, trial), overlays it onto a
fixed benign world, and drives the *same merged record lists* through
both the batch pipeline and the streaming engine -- asserting
batch/streaming detection parity at every measured point while
recording how recall over the campaign's ground truth degrades as the
evasion strength knob rises.

Two single-tenant pipelines are covered:

* **DNS** -- a campaign-free span of the synthetic LANL world
  (March dates past the Table I case layout), batch
  :class:`~repro.runner.DnsLogRunner` vs
  :class:`~repro.streaming.StreamingDetector`;
* **enterprise** -- a proxy world trained on its bootstrap month and
  evaluated on campaign-free post-training days,
  :meth:`~repro.core.pipeline.EnterpriseDetector.process_day` vs
  :class:`~repro.streaming.enterprise.StreamingEnterpriseDetector`.
  Both arms run from the *same* serialized trained state, so every
  trial starts from byte-identical profiles.

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
from ..runner import DnsLogRunner
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
    batch_rate: float
    stream_rate: float
    parity: bool
    """Whether batch and streaming detections matched on every day of
    every trial at this point."""

    truth_count: int
    """Ground-truth attacker domains across the point's trials."""

    detected_count: int


@dataclass
class EvasionCurve:
    """Detection rate as a function of evasion strength."""

    campaign: str
    pipeline: str
    points: list[EvasionPoint]

    @property
    def parity(self) -> bool:
        return all(point.parity for point in self.points)

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "pipeline": self.pipeline,
            "parity": self.parity,
            "points": [
                {
                    "strength": p.strength,
                    "trials": p.trials,
                    "batch_rate": round(p.batch_rate, 4),
                    "stream_rate": round(p.stream_rate, 4),
                    "parity": p.parity,
                    "truth_count": p.truth_count,
                    "detected_count": p.detected_count,
                }
                for p in self.points
            ],
        }


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


# ---------------------------------------------------------------------------
# DNS pipeline
# ---------------------------------------------------------------------------

def _dns_trial(
    dataset, campaign, strength, seed, *, metrics=None
) -> tuple[set[str], set[str], set[str], bool]:
    """(truth, batch detected, stream detected, parity) for one trial."""
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

    runner = DnsLogRunner(
        config=LANL_CONFIG,
        internal_suffixes=dataset.internal_suffixes,
        server_ips=dataset.server_ips,
        metrics=metrics,
    )
    runner.history.bootstrap(dataset.bootstrap_domains)
    stream = StreamingDetector(
        config=LANL_CONFIG,
        internal_suffixes=dataset.internal_suffixes,
        server_ips=dataset.server_ips,
        metrics=metrics,
    )
    stream.history.bootstrap(dataset.bootstrap_domains)

    batch_detected: set[str] = set()
    stream_detected: set[str] = set()
    parity = True
    for offset in range(horizon):
        date = _FIRST_FREE_DATE + offset
        records = dataset.day_records(date) + campaign_dns_records(
            realized, dataset.host_ips, start_day + offset
        )
        records.sort(key=lambda r: r.timestamp)
        batch_report = runner.process_records(
            records, label=f"march-{date:02d}"
        )
        for chunk in _chunks(records, 500):
            stream.submit_raw(chunk)
            stream.poll()
            stream.score()
        stream_report = stream.rollover()
        parity = parity and (
            batch_report.detected == stream_report.detected
        )
        batch_detected.update(batch_report.detected)
        stream_detected.update(stream_report.detected)
    return realized.truth_domains(), batch_detected, stream_detected, parity


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
    points: list[EvasionPoint] = []
    for strength in strengths:
        truth_n = hit_b = hit_s = 0
        parity = True
        for trial in range(trials):
            truth, batch, stream, ok = _dns_trial(
                dataset, campaign, strength, seed + 1000 * trial,
                metrics=metrics,
            )
            truth_n += len(truth)
            hit_b += len(truth & batch)
            hit_s += len(truth & stream)
            parity = parity and ok
        points.append(EvasionPoint(
            campaign=campaign,
            pipeline="dns",
            strength=strength,
            trials=trials,
            batch_rate=hit_b / truth_n if truth_n else 0.0,
            stream_rate=hit_s / truth_n if truth_n else 0.0,
            parity=parity,
            truth_count=truth_n,
            detected_count=hit_b,
        ))
    return EvasionCurve(campaign=campaign, pipeline="dns", points=points)


# ---------------------------------------------------------------------------
# Enterprise pipeline
# ---------------------------------------------------------------------------

def trained_enterprise_world(config: EnterpriseDatasetConfig | None = None):
    """(dataset, serialized trained state) for the proxy-path curves.

    Training happens once; every trial restores a fresh detector from
    the returned state payload so both arms start from byte-identical
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
) -> tuple[set[str], set[str], set[str], bool]:
    """(truth, batch detected, stream detected, parity) for one trial."""
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

    days: list[tuple[int, list]] = []
    for offset in range(horizon):
        day = start_day + offset
        connections = dataset.day_connections(day) + campaign_connections(
            realized, day
        )
        connections.sort(key=lambda c: c.timestamp)
        days.append((day, connections))

    batch = restore_detector(state, whois=dataset.whois)
    stream = StreamingEnterpriseDetector(
        restore_detector(state, whois=dataset.whois), metrics=metrics
    )

    batch_detected: set[str] = set()
    stream_detected: set[str] = set()
    parity = True
    for day, connections in days:
        result = batch.process_day(day, connections)
        day_batch = result.all_detected_domains()
        for chunk in _chunks(connections, 500):
            stream.ingest(chunk)
            stream.score()
        report = stream.rollover()
        parity = parity and (set(report.detected) == day_batch)
        batch_detected.update(day_batch)
        stream_detected.update(report.detected)
    return realized.truth_domains(), batch_detected, stream_detected, parity


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
    points: list[EvasionPoint] = []
    for strength in strengths:
        truth_n = hit_b = hit_s = 0
        parity = True
        for trial in range(trials):
            truth, batch, stream, ok = _enterprise_trial(
                dataset, state, campaign, strength,
                seed + 1000 * trial, metrics=metrics,
            )
            truth_n += len(truth)
            hit_b += len(truth & batch)
            hit_s += len(truth & stream)
            parity = parity and ok
        points.append(EvasionPoint(
            campaign=campaign,
            pipeline="enterprise",
            strength=strength,
            trials=trials,
            batch_rate=hit_b / truth_n if truth_n else 0.0,
            stream_rate=hit_s / truth_n if truth_n else 0.0,
            parity=parity,
            truth_count=truth_n,
            detected_count=hit_b,
        ))
    return EvasionCurve(
        campaign=campaign, pipeline="enterprise", points=points
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
    "parity" flag asserts a serial (1-worker) rerun produces identical
    per-tenant detections -- the fleet analogue of batch/streaming
    parity.
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
        parity = parallel == serial
        # Every tenant is hit by the shared campaign; the fleet's
        # detection rate is the fraction of hit tenants that surfaced
        # any of its domains (locally or through intel seeding).
        truth = set(fleet.shared.domains)
        hit_tenants = list(fleet.shared.hosts_by_tenant)
        detected = sum(
            1 for tenant in hit_tenants
            if truth & set(parallel.get(tenant, ()))
        )
        rate = detected / len(hit_tenants) if hit_tenants else 0.0
        points.append(EvasionPoint(
            campaign="tenant-churn",
            pipeline="fleet",
            strength=strength,
            trials=1,
            batch_rate=rate,
            stream_rate=rate,
            parity=parity,
            truth_count=len(hit_tenants),
            detected_count=detected,
        ))
    return EvasionCurve(
        campaign="tenant-churn", pipeline="fleet", points=points
    )
