"""Figure 7: a community discovered in no-hint mode.

Paper (2/13): a C&C domain beaconed by three hosts at a 120 s period
seeds belief propagation, which then pulls in two delivery-stage
domains and two further hosts -- a connected bipartite community.
Shape: starting from detected C&C only, BP yields a connected
community containing additional (non-C&C) campaign domains.
"""

import networkx as nx
from conftest import save_output

from repro.eval.enterprise_eval import EnterpriseEvaluation


def find_community(evaluation: EnterpriseEvaluation):
    """First operation day whose no-hint BP expands past its seeds."""
    for op_day in evaluation.days:
        result = evaluation.detect(op_day, 0.33).bp_result
        if result is not None and result.detected_domains:
            return op_day.day, result
    return None, None


def test_fig7_nohint_community(benchmark, enterprise_evaluation, enterprise_dataset):
    day, result = benchmark.pedantic(
        find_community, args=(enterprise_evaluation,), rounds=1, iterations=1
    )
    assert result is not None, "no expanding no-hint community found"

    graph = result.graph.to_networkx()
    # Two campaigns seeded the same day yield two components; the
    # community property is that every component grows around a seed.
    seeds = {
        name for name, record in result.graph.domains.items()
        if record.label.value == "seed" or record.label.value == "cc"
    }
    components = list(nx.connected_components(graph))
    assert all(component & seeds for component in components)
    truth = enterprise_dataset.malicious_domains
    expanded_true = set(result.detected_domains) & truth
    assert expanded_true, "expansion found no true campaign siblings"

    lines = [
        f"Figure 7 analogue -- no-hint community on day {day}",
        "",
        result.graph.ascii_render(),
        "",
        f"communities: {len(components)} (each anchored on a C&C seed)",
        f"expanded domains that are truly malicious: {sorted(expanded_true)}",
    ]
    save_output("fig7_nohint_community", "\n".join(lines))
