"""Shared fixtures for the benchmark suite.

Each bench regenerates one table or figure of the paper and saves its
rendered output under ``benchmarks/out/``, to be read paper-vs-measured
side by side.  Dataset worlds and trained pipelines
are session-scoped: they are deterministic in their seeds.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.eval import EnterpriseEvaluation, LanlChallengeSolver
from repro.synthetic import (
    EnterpriseDatasetConfig,
    LanlConfig,
    generate_enterprise_dataset,
    generate_lanl_dataset,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: LANL world used by every LANL bench (Table I-III, Figures 2-4).
BENCH_LANL = LanlConfig(
    seed=42,
    n_hosts=100,
    bootstrap_days=4,
    popular_domains=60,
    churn_domains_per_day=15,
    browsing_visits_per_host=10,
)

#: Enterprise world used by the Section VI benches (Figures 5-8).
BENCH_ENTERPRISE = EnterpriseDatasetConfig(
    seed=2014,
    n_hosts=90,
    bootstrap_days=9,
    operation_days=12,
    quiet_days=3,
    popular_domains=80,
    churn_domains_per_day=15,
    n_campaigns=26,
    dga_campaign_count=3,
)


def save_output(name: str, text: str) -> None:
    """Persist one bench's rendered table as ``benchmarks/out/<name>.txt``."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def lanl_dataset():
    return generate_lanl_dataset(BENCH_LANL)


@pytest.fixture(scope="session")
def lanl_report(lanl_dataset):
    return LanlChallengeSolver(lanl_dataset).solve_all()


@pytest.fixture(scope="session")
def enterprise_dataset():
    return generate_enterprise_dataset(BENCH_ENTERPRISE)


@pytest.fixture(scope="session")
def enterprise_evaluation(enterprise_dataset):
    return EnterpriseEvaluation(enterprise_dataset)
