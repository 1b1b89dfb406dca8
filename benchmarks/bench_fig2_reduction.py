"""Figure 2: domains per day surviving each reduction step.

No CLI path calls the timed function: ``LanlChallengeSolver.day_context``
closes a day undetected, while ``repro-detect lanl`` closes its days
through ``solve_day``.

Paper (LANL, first week of March): ~400k domains/day in the raw logs
drop by roughly an order of magnitude through A-record filtering,
internal-query filtering and internal-server filtering, down to ~31.5k
rare destinations.  The shape to reproduce is the strictly decreasing
funnel: all > filtered > new > rare, with a large total reduction.
"""

from conftest import save_output

from repro.eval import LanlChallengeSolver, render_table

STEPS = (
    "all",
    "a_records",
    "filter_internal_queries",
    "filter_internal_servers",
    "new",
    "rare",
)


def run_first_week(dataset):
    solver = LanlChallengeSolver(dataset)
    for march_date in range(1, 8):
        solver.day_context(march_date)
    return solver.funnel.stats


def test_fig2_reduction_funnel(benchmark, lanl_dataset):
    stats = benchmark.pedantic(
        run_first_week, args=(lanl_dataset,), rounds=1, iterations=1
    )

    days = stats.days()
    rows = []
    for step in STEPS:
        counts = stats.domain_counts(step)
        rows.append((step,) + tuple(counts.get(day, 0) for day in days))

    # Funnel must decrease monotonically on every day.
    for column in range(1, len(days) + 1):
        values = [row[column] for row in rows]
        assert values == sorted(values, reverse=True), values
    # And achieve a substantial total reduction, as in the paper.
    assert rows[0][1] > 3 * rows[-1][1]

    save_output(
        "fig2_reduction",
        render_table(
            ("step",) + tuple(f"3/{d - days[0] + 1}" for d in days),
            rows,
            title="Figure 2 analogue -- distinct domains per reduction step "
                  "(first week of March)",
        ),
    )
