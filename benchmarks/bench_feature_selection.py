"""Section VI-A: significance-driven feature pruning.

No CLI path calls the timed function: ``backward_eliminate`` is offline
model selection; training fits the fixed feature set.

Paper: "Among all features considered, the only one with low
significance was AutoHosts, which we believe is highly correlated with
NoHosts and thus omit it" (C&C model); for the similarity model, IP16
was dropped for collinearity with IP24.  This bench reruns backward
elimination on the pipeline's actual labeled training rows and checks
the same collinearity structure falls out: at most one of each
collinear pair survives, and the pruned model preserves the score
separation between reported and legitimate domains.
"""

import statistics

from conftest import save_output

from repro.eval import render_table
from repro.features import (
    CC_FEATURE_NAMES,
    backward_eliminate,
    project_features,
)


def collect_rows(evaluation):
    rows, labels = [], []
    vt = evaluation.virustotal
    detector = evaluation.detector
    for op_day in evaluation.days:
        domains = sorted(op_day.auto_hosts)
        rows.extend(detector.extractor.cc_feature_matrix(
            domains, op_day.traffic, op_day.auto_hosts, op_day.when
        ).tolist())
        labels.extend(1.0 if vt.is_reported(d) else 0.0 for d in domains)
    return rows, labels


def test_feature_selection(benchmark, enterprise_evaluation):
    rows, labels = collect_rows(enterprise_evaluation)
    assert len(rows) >= len(CC_FEATURE_NAMES) + 4

    result = benchmark.pedantic(
        backward_eliminate,
        args=(CC_FEATURE_NAMES, rows, labels),
        kwargs={"ridge": 0.01},
        rounds=1,
        iterations=1,
    )

    kept = set(result.model.feature_names)
    # The paper's collinear pair: at most one of NoHosts/AutoHosts
    # survives pruning (unless nothing at all was pruned).
    if result.steps:
        assert not {"no_hosts", "auto_hosts"} <= kept

    # The pruned model must keep separating the classes.
    reported, legitimate = [], []
    for row, label in zip(rows, labels):
        projected = project_features(
            CC_FEATURE_NAMES, result.model.feature_names, row
        )
        score = result.model.score(projected)
        (reported if label else legitimate).append(score)
    if reported and legitimate:
        assert statistics.mean(reported) > statistics.mean(legitimate)

    table_rows = [
        (step.dropped, f"{step.p_value:.3f}", ", ".join(step.remaining))
        for step in result.steps
    ] or [("(nothing pruned)", "-", ", ".join(result.model.feature_names))]
    save_output(
        "feature_selection",
        render_table(
            ("dropped", "p-value", "remaining features"),
            table_rows,
            title="Section VI-A analogue -- backward elimination on the "
                  "C&C model (paper dropped AutoHosts)",
        )
        + "\n\n" + result.model.summary(),
    )
