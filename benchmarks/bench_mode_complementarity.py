"""Section VI-D: the two operation modes are complementary.

Paper: "Only 21 domains are detected in both modes, which is a small
portion compared to 202 and 108 malicious and suspicious domains
detected separately.  When deployed by the enterprise, we suggest our
detector configured to run in both modes, in order to have better
coverage."  Also counts the Section VIII longitudinal view: which C&C
domains are redetected on more than one day of the month.
"""

from collections import Counter

from conftest import save_output

from repro.eval import render_table


def collect(evaluation):
    no_hint = evaluation.no_hint_detections(0.33)
    hints = evaluation.soc_hints_detections(0.33)
    return no_hint, hints


def test_mode_complementarity(benchmark, enterprise_evaluation, enterprise_dataset):
    no_hint, hints = benchmark.pedantic(
        collect, args=(enterprise_evaluation,), rounds=1, iterations=1
    )
    overlap = no_hint & hints
    union = no_hint | hints
    assert union
    # The paper's shape: the overlap is a strict minority of the union.
    assert len(overlap) < len(union)
    truth = enterprise_dataset.malicious_domains
    union_true = len(union & truth)
    best_single = max(len(no_hint & truth), len(hints & truth))
    assert union_true >= best_single  # both modes never hurt coverage

    # Longitudinal view: the days of the month each C&C domain scored on.
    cc_days = Counter(
        domain
        for op_day in enterprise_evaluation.days
        for domain, score in op_day.cc_scores.items()
        if score >= 0.4
    )

    table = render_table(
        ("view", "domains", "truly malicious"),
        [
            ("no-hint (Ts=0.33)", len(no_hint), len(no_hint & truth)),
            ("SOC-hints (Ts=0.33)", len(hints), len(hints & truth)),
            ("overlap", len(overlap), len(overlap & truth)),
            ("union (deploy both)", len(union), union_true),
        ],
        title="Section VI-D analogue -- mode complementarity "
              "(paper: 21 shared vs 202/108 separate)",
    )
    recurring = sum(1 for days in cc_days.values() if days >= 2)
    extra = (
        f"\nledger: {len(cc_days)} C&C domains across the month, "
        f"{recurring} redetected on multiple days (C&C scores go only to "
        "a day's rare, i.e. new, destinations, and every domain a day sees "
        "joins the history, which never expires)"
    )
    save_output("mode_complementarity", table + extra)
