#!/usr/bin/env python3
"""A SOC's daily workflow: train once, persist, detect daily, triage.

Simulates the deployment loop of Figure 1 end to end:

1. train the detector on the bootstrap month of proxy logs;
2. persist its state to JSON (the nightly restart boundary);
3. restore the detector into the detection engine; each operational
   day is one ``ingest`` + ``rollover()`` that runs both modes, and
   yields the analyst-facing incident report;
4. triage the month's detections into campaign clusters.

Run:  python examples/soc_workflow.py
"""

import tempfile
from pathlib import Path

from repro.eval import build_incident, triage_report
from repro.state import load_detector, save_detector
from repro.streaming import StreamingEnterpriseDetector
from repro.synthetic import EnterpriseDatasetConfig, generate_enterprise_dataset


def main() -> None:
    config = EnterpriseDatasetConfig(
        seed=99, n_hosts=70, bootstrap_days=9, operation_days=5,
        quiet_days=3, n_campaigns=14,
    )
    print("generating enterprise world ...")
    dataset = generate_enterprise_dataset(config)
    virustotal = dataset.build_virustotal()
    ioc = dataset.build_ioc_list()

    # --- training, once ---------------------------------------------------
    from repro.core import EnterpriseDetector

    detector = EnterpriseDetector(whois=dataset.whois)
    report = detector.train(
        dataset.day_batches(0, config.bootstrap_days), virustotal
    )
    print(
        f"trained: {report.history_size} destinations profiled, "
        f"{report.automated_domain_samples} labeled automated domains, "
        f"{report.similarity_samples} similarity samples"
    )

    state_path = Path(tempfile.mkdtemp()) / "detector-state.json"
    save_detector(detector, state_path)
    print(f"state persisted to {state_path}\n")

    # --- daily operation ---------------------------------------------------
    # The service starts from the persisted state; the engine commits
    # each day's profiles at rollover.
    engine = StreamingEnterpriseDetector(
        load_detector(state_path, whois=dataset.whois)
    )
    month_detections: set[str] = set()
    ips_by_domain: dict[str, set[str]] = {}
    for day in range(config.bootstrap_days, config.total_days):
        connections = dataset.day_connections(day)
        engine.ingest(connections)
        traffic = engine.window.traffic  # rollover() opens a fresh one
        result = engine.rollover(soc_seed_domains=ioc.seeds()).day_result

        print(f"--- day {day}: {len(connections)} connections, "
              f"{len(result.rare_domains)} rare, "
              f"{len(result.cc_domains)} C&C alerts")
        for bp_name, bp in (("no-hint", result.no_hint),
                            ("SOC-hints", result.soc_hints)):
            if bp is None or not bp.detected_domains:
                continue
            incident = build_incident(
                bp, traffic,
                verdicts=result.automated_verdicts,
                whois=dataset.whois,
                virustotal=virustotal,
                when=(day + 1) * 86_400.0,
            )
            print(f"[{bp_name}] " + incident.render())
            month_detections.update(incident.domains)
            for evidence in incident.evidence:
                ips_by_domain.setdefault(
                    evidence.domain, set()
                ).update(evidence.resolved_ips)

    # --- end-of-month triage -----------------------------------------------
    if month_detections:
        print()
        print(triage_report(month_detections, ips_by_domain=ips_by_domain))
    truth = dataset.malicious_domains
    confirmed = month_detections & truth
    print(
        f"\nmonth summary: {len(month_detections)} detections, "
        f"{len(confirmed)} confirmed malicious, "
        f"{len(month_detections - truth)} false positives"
    )


if __name__ == "__main__":
    main()
