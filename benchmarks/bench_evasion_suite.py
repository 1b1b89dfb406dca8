"""Adversarial campaign suite: detection-rate-vs-evasion-strength curves.

Not a paper figure -- this bench tracks the detector's robustness
against the adversarial scenario library
(`repro.synthetic.campaigns`) as a trajectory in BENCH_perf.json the
same way the throughput benches track speed.  For every campaign
archetype it sweeps the evasion strength knob and measures the
detection rate over the campaign's ground-truth domains on *both*
single-tenant pipelines, each trial through one micro-batched engine
(500-event polls, a scoring round after each, ``rollover()`` per day):

* DNS: a ``StreamingDetector`` over a campaign-free span of the
  synthetic LANL world;
* enterprise: a ``StreamingEnterpriseDetector`` restored from one
  shared trained state.

The ``tenant-churn`` archetype runs at fleet level: a shared campaign
across enterprises that join and leave mid-run, with a serial rerun
as the parity arm -- per-tenant detections must not depend on the
worker count.  A curve whose rates drift is a finding; a churn point
whose parity breaks is a bug.

``EVASION_BENCH_SMOKE=1`` shrinks the sweep for CI (two strength
points, one trial); results go to ``benchmarks/out/evasion_suite.json``
plus a metrics snapshot (``evasion_suite_metrics.json`` + ``.prom``)
that ``tools/check_metrics_snapshot.py`` validates.
"""

from __future__ import annotations

import json
import os

from conftest import OUT_DIR, save_output

from repro.eval import render_table
from repro.eval.evasion import (
    DNS_EVAL_WORLD,
    churn_evasion_curve,
    dns_evasion_curve,
    enterprise_evasion_curve,
    trained_enterprise_world,
)
from repro.obs.metrics import MetricsRegistry
from repro.synthetic import CAMPAIGN_NAMES, generate_lanl_dataset

SMOKE = os.environ.get("EVASION_BENCH_SMOKE", "") not in ("", "0")

#: Strength sweep per pipeline.  Smoke keeps the two endpoints so the
#: CI curve still shows the full-evasion drop; the full run adds the
#: interior points that make the knee visible.
STRENGTHS = (0.0, 1.0) if SMOKE else (0.0, 0.25, 0.5, 0.75, 1.0)
CHURN_STRENGTHS = (0.0, 1.0) if SMOKE else (0.0, 0.5, 1.0)
DNS_TRIALS = 1 if SMOKE else 3
ENTERPRISE_TRIALS = 1 if SMOKE else 2

#: Archetypes swept on the single-tenant pipelines.  Smoke keeps one
#: campaign per evasion mechanism (timing, DGA, infrastructure,
#: persistence) -- still four curve families per pipeline for the
#: acceptance gate; the full run covers every archetype.
CAMPAIGNS = (
    ("jitter", "dga-chardist", "slow-burn", "cdn-fronting")
    if SMOKE
    else CAMPAIGN_NAMES
)


def _write_metrics(registry: MetricsRegistry) -> None:
    """Snapshot + Prometheus sibling for check_metrics_snapshot.py."""
    snapshot = registry.snapshot()
    path = OUT_DIR / "evasion_suite_metrics.json"
    path.write_text(json.dumps(snapshot.as_dict(), indent=1) + "\n")
    path.with_suffix(".prom").write_text(snapshot.to_prom())


def test_evasion_suite():
    registry = MetricsRegistry()

    # Both expensive fixtures are built once and shared across curves:
    # the benign worlds are identical at every point, only the overlaid
    # campaign realization varies with (strength, trial seed).
    dns_dataset = generate_lanl_dataset(DNS_EVAL_WORLD)
    enterprise_world = trained_enterprise_world()

    curves = []
    for campaign in CAMPAIGNS:
        curves.append(dns_evasion_curve(
            campaign, STRENGTHS, trials=DNS_TRIALS,
            dataset=dns_dataset, metrics=registry,
        ))
        curves.append(enterprise_evasion_curve(
            campaign, STRENGTHS, trials=ENTERPRISE_TRIALS,
            world=enterprise_world, metrics=registry,
        ))
    curves.append(churn_evasion_curve(
        CHURN_STRENGTHS, metrics=registry,
    ))

    rows = []
    for curve in curves:
        for point in curve.points:
            assert 0.0 <= point.rate <= 1.0
            assert point.truth_count > 0
            # Fleet curve: the serial rerun found the same detections.
            assert point.parity in (None, True), point
        # With the knob at zero the campaign is an undisguised
        # beaconing infection; the pipelines must catch all of it.
        assert curve.points[0].strength == 0.0
        assert curve.points[0].rate == 1.0, (
            curve.campaign, curve.pipeline, curve.points[0]
        )
        rows.append((
            curve.campaign,
            curve.pipeline,
            " ".join(f"{p.rate:.2f}" for p in curve.points),
            curve.points[0].trials,
        ))

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "evasion_suite.json").write_text(
        json.dumps(
            {
                "smoke": SMOKE,
                "strengths": list(STRENGTHS),
                "churn_strengths": list(CHURN_STRENGTHS),
                "curves": [curve.as_dict() for curve in curves],
            },
            indent=1,
        ) + "\n"
    )
    strength_axis = " ".join(f"{s:.2f}" for s in STRENGTHS)
    save_output(
        "evasion_suite",
        render_table(
            ("campaign", "pipeline", f"rate @ [{strength_axis}]", "trials"),
            rows,
            title="Detection rate vs evasion strength",
        ),
    )
    _write_metrics(registry)
