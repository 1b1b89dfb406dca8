"""Table II: automated-pair counts across (W, JT) parameterizations.

No CLI path calls the timed function: ``sweep_histogram_parameters``
re-tests the days under every (W, JT), while each verb runs one
``HistogramConfig``.

Paper: sweeping bin width W over {5, 10, 20} seconds and Jeffrey
threshold JT over {0, 0.034, 0.06, 0.35} shows (a) larger thresholds
capture more malicious beacon pairs but admit more legitimate automated
pairs, and (b) W=10s with JT=0.06 captures all labeled malicious pairs.
The shape: counts are monotone in JT at fixed W, and the paper's chosen
parameters capture the malicious pairs.
"""

from conftest import save_output

from repro.eval import render_table, sweep_histogram_parameters


def test_table2_parameter_sweep(benchmark, lanl_dataset):
    rows = benchmark.pedantic(
        sweep_histogram_parameters,
        args=(lanl_dataset,),
        kwargs={
            "bin_widths": (5.0, 10.0, 20.0),
            "thresholds": (0.0, 0.034, 0.06, 0.35),
        },
        rounds=1,
        iterations=1,
    )

    by_width = {}
    for row in rows:
        by_width.setdefault(row.bin_width, []).append(row)
    for width_rows in by_width.values():
        width_rows.sort(key=lambda r: r.jeffrey_threshold)
        totals = [r.all_pairs_testing for r in width_rows]
        assert totals == sorted(totals)

    chosen = next(
        r for r in rows if r.bin_width == 10.0 and r.jeffrey_threshold == 0.06
    )
    assert chosen.malicious_pairs_training > 0
    assert chosen.malicious_pairs_testing > 0

    save_output(
        "table2_histogram_params",
        render_table(
            ("W (s)", "JT", "mal pairs (train)", "mal pairs (test)",
             "all pairs (test)"),
            [
                (f"{r.bin_width:g}", f"{r.jeffrey_threshold:g}",
                 r.malicious_pairs_training, r.malicious_pairs_testing,
                 r.all_pairs_testing)
                for r in rows
            ],
            title="Table II analogue -- automated pairs vs (W, JT)",
        ),
    )
