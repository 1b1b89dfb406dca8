"""Figure 5: score CDFs of VT-reported vs legitimate automated domains.

No CLI path calls the timed function:
``EnterpriseEvaluation.score_samples`` reads the cached C&C scores, and
``repro-detect enterprise`` prints the Figure 6 sweeps only.

Paper: automated domains reported by VirusTotal score visibly higher
than legitimate automated domains under the trained C&C regression
model; a 0.4 threshold yields ~57% TDR at ~11% FPR on their training
fortnight.  The shape: the reported-score distribution stochastically
dominates the legitimate one.
"""

import statistics

from conftest import save_output

from repro.eval import cdf_at, render_table

CHECKPOINTS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8)


def test_fig5_score_cdfs(benchmark, enterprise_evaluation):
    reported, legitimate = benchmark.pedantic(
        enterprise_evaluation.score_samples, rounds=1, iterations=1
    )
    assert reported and legitimate
    assert statistics.mean(reported) > statistics.mean(legitimate)

    rows = [
        (f"{c:.1f}",
         f"{cdf_at(reported, c):.3f}",
         f"{cdf_at(legitimate, c):.3f}")
        for c in CHECKPOINTS
    ]
    # At every checkpoint the legitimate CDF is at least the reported
    # one (stochastic dominance of reported scores).
    for _, rep, leg in rows:
        assert float(leg) >= float(rep) - 0.10

    save_output(
        "fig5_score_cdf",
        render_table(
            ("score", "CDF reported", "CDF legitimate"),
            rows,
            title=(
                "Figure 5 analogue -- automated-domain score CDFs "
                f"(n={len(reported)} reported, n={len(legitimate)} legitimate)"
            ),
        ),
    )
