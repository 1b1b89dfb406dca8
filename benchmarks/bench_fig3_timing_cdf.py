"""Figure 3: CDFs of first-visit gaps between domain pairs.

No CLI path calls the timed function: ``timing_gap_samples`` (over
``LanlChallengeSolver.day_context``) feeds this figure and the golden
file only.

Paper: for a compromised host, the gap between its first visits to two
malicious domains is much shorter than between a malicious and a rare
legitimate domain -- 56% of malicious-malicious gaps fall under 160
seconds versus 3.8% of malicious-legitimate gaps.  The shape to
reproduce: the malicious-malicious CDF lies far above the mixed CDF at
short gaps.
"""

from conftest import save_output

from repro.eval import LanlChallengeSolver, cdf_at, render_table, timing_gap_samples
from repro.synthetic import TRAINING_DATES

CHECKPOINTS = (60.0, 160.0, 600.0, 3600.0, 10_000.0, 70_000.0)


def collect(dataset):
    solver = LanlChallengeSolver(dataset)
    return timing_gap_samples(solver, sorted(TRAINING_DATES))


def test_fig3_timing_cdfs(benchmark, lanl_dataset):
    mal_mal, mal_legit = benchmark.pedantic(
        collect, args=(lanl_dataset,), rounds=1, iterations=1
    )
    assert mal_mal and mal_legit

    rows = []
    for checkpoint in CHECKPOINTS:
        rows.append(
            (f"{checkpoint:g}",
             f"{cdf_at(mal_mal, checkpoint):.3f}",
             f"{cdf_at(mal_legit, checkpoint):.3f}")
        )

    # The paper's 160 s checkpoint: wide separation.
    assert cdf_at(mal_mal, 160.0) > 3 * cdf_at(mal_legit, 160.0)

    save_output(
        "fig3_timing_cdf",
        render_table(
            ("gap (s)", "CDF mal-mal", "CDF mal-legit"),
            rows,
            title=(
                "Figure 3 analogue -- first-visit gap CDFs "
                f"(n={len(mal_mal)} mal-mal, n={len(mal_legit)} mal-legit; "
                "paper checkpoint: 56% vs 3.8% at 160 s)"
            ),
        ),
    )
