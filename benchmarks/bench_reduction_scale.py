"""Section IV-A scale numbers: hosts/domains before vs after reduction.

No CLI path calls the timed function: ``LanlChallengeSolver.day_context``
reduces and closes a day undetected; ``run`` / ``stream`` take the same
funnel through ``ingest_lines``.

Paper: LANL shrinks from ~80k hosts querying 400k+ domains daily to
3,369 hosts and 31,582 domains in the reduced set; the enterprise
dataset from 120k hosts / 600k domains to 20k hosts / 59k rare domains.
Shape: reduction retains a small fraction of domains while keeping all
campaign traffic, and the streaming funnel sustains high record
throughput.
"""

from conftest import save_output

from repro.eval import LanlChallengeSolver, render_table


def test_reduction_scale(benchmark, lanl_dataset):
    solver = LanlChallengeSolver(lanl_dataset)
    records = lanl_dataset.day_records(2)

    def reduce_day():
        funnel_solver = LanlChallengeSolver(lanl_dataset)
        return funnel_solver.day_context(2)

    context = benchmark.pedantic(reduce_day, rounds=1, iterations=1)

    raw_domains = {r.domain for r in records}
    raw_hosts = {r.source_ip for r in records}
    reduced_domains = set(context.traffic.hosts_by_domain)
    reduced_hosts = set(context.traffic.domains_by_host)

    # Reduced view keeps a fraction of the raw domains plus all rare
    # campaign destinations.
    truth = set(lanl_dataset.campaign_for_date(2).malicious_domains)
    assert truth <= reduced_domains
    assert len(reduced_domains) < len(raw_domains)
    assert len(context.rare) < len(reduced_domains)

    save_output(
        "reduction_scale",
        render_table(
            ("view", "hosts", "domains"),
            [
                ("raw records", len(raw_hosts), len(raw_domains)),
                ("after reduction", len(reduced_hosts), len(reduced_domains)),
                ("rare destinations", "-", len(context.rare)),
            ],
            title=(
                "Section IV-A analogue -- daily scale before/after reduction "
                f"({len(records)} records on 3/2; paper: 400k->31.6k domains)"
            ),
        ),
    )
