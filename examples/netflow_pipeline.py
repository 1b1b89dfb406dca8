#!/usr/bin/env python3
"""Running the detection pipeline on NetFlow instead of DNS/proxy logs.

Section II-C of the paper claims its infection patterns are visible in
"various types of network data (e.g., NetFlow, DNS logs, web proxies
logs)".  Flow records carry no domain names, so the trick -- used by
real enterprise deployments -- is to join flows against *passive DNS*:
the (address -> domain) bindings observed in the site's own DNS
traffic.  After the join, the exact same rare-destination + automation
+ belief-propagation pipeline runs unchanged.

Run:  python examples/netflow_pipeline.py
"""

from repro.config import SystemConfig
from repro.core.scoring import AdditiveSimilarityScorer
from repro.logs import PassiveDnsMap, normalize_netflow_records
from repro.profiling import (
    DailyTraffic,
    DestinationHistory,
    extract_rare_domains,
)
from repro.runner import detect_on_traffic
from repro.synthetic import LanlConfig, generate_lanl_dataset
from repro.timing import AutomationDetector


def main() -> None:
    config = LanlConfig(seed=11, n_hosts=80, bootstrap_days=3,
                        popular_domains=50, churn_domains_per_day=10)
    print("generating synthetic world with paired DNS + NetFlow ...")
    dataset = generate_lanl_dataset(config)
    march_date = 5
    truth = dataset.campaign_for_date(march_date)

    # 1. Build the passive-DNS view from the day's DNS answers.
    pdns = PassiveDnsMap(fold_level=3)
    dns_records = dataset.day_records(march_date)
    pdns.observe_all(dns_records)
    print(f"passive DNS: {len(pdns)} addresses mapped from "
          f"{len(dns_records)} DNS records")

    # 2. Join the flow export against it.
    flows = dataset.day_netflow(march_date)
    connections = list(normalize_netflow_records(flows, pdns))
    print(f"flows: {len(flows)} exported, {len(connections)} joined to domains")

    # 3. The standard pipeline, unchanged.
    history = DestinationHistory()
    history.bootstrap(dataset.bootstrap_domains)
    day = config.bootstrap_days + (march_date - 1)
    traffic = DailyTraffic(day)
    traffic.ingest(connections)
    traffic.finalize()
    rare = extract_rare_domains(traffic, history)
    print(f"rare destinations: {len(rare)}")

    detection = detect_on_traffic(
        traffic,
        rare,
        automation=AutomationDetector(),
        scorer=AdditiveSimilarityScorer(),
        config=SystemConfig(),
        hint_hosts=truth.hint_hosts,
    )
    print(f"C&C candidates from flow timing: {sorted(detection.cc_domains)}")
    result = detection.bp_result

    print("\ndetections from NetFlow (vs ground truth):")
    for domain in result.detected_domains:
        mark = "TRUE" if domain in truth.malicious_domains else "FALSE"
        print(f"  {domain:<30} {mark} POSITIVE")
    missed = set(truth.malicious_domains) - set(result.detected_domains)
    print(f"missed: {sorted(missed) if missed else 'none'}")


if __name__ == "__main__":
    main()
