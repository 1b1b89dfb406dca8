"""Shared fixtures.

Dataset-generation and pipeline-training fixtures are session-scoped:
the synthetic worlds are deterministic functions of their seeds, so
sharing them across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.synthetic import generate_enterprise_dataset, generate_lanl_dataset
from repro.testing import SMALL_ENTERPRISE, SMALL_LANL


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "parity: scalar-reference vs columnar/vectorized equivalence "
        "tests.  No reference is selectable in production; the tests "
        "build or inject it (tests/dns_oracle.py, tests/proxy_oracle.py, "
        "the per-domain scorers of tests/test_scoring_index.py).  Run "
        "the whole group with `pytest -m parity` before touching either "
        "side.",
    )


@pytest.fixture(scope="session")
def lanl_dataset():
    return generate_lanl_dataset(SMALL_LANL)


@pytest.fixture(scope="session")
def enterprise_dataset():
    return generate_enterprise_dataset(SMALL_ENTERPRISE)


@pytest.fixture(scope="session")
def _training_run(enterprise_dataset):
    """The suite's one training run over ``enterprise_dataset``'s
    bootstrap month: the ``detector`` as training left it, its
    ``detector_state`` document (``state``) and the ``report``."""
    from types import SimpleNamespace

    from repro.core import EnterpriseDetector
    from repro.state import detector_state

    detector = EnterpriseDetector(whois=enterprise_dataset.whois)
    report = detector.train(
        enterprise_dataset.day_batches(
            0, enterprise_dataset.config.bootstrap_days
        ),
        enterprise_dataset.build_virustotal(),
    )
    return SimpleNamespace(
        detector=detector, state=detector_state(detector), report=report
    )


@pytest.fixture(scope="session")
def trained_state(_training_run):
    """The trained system as its ``detector_state`` document: read-only,
    so every test restores its own detector from it."""
    return _training_run.state


@pytest.fixture(scope="session")
def training_report(_training_run):
    return _training_run.report


@pytest.fixture
def freshly_trained(_training_run):
    """A copy of the detector exactly as training left it in memory --
    what a save/load round trip is compared against."""
    import copy

    return copy.deepcopy(_training_run.detector)


@pytest.fixture
def trained_detector(trained_state, enterprise_dataset):
    """A fresh trained ``EnterpriseDetector`` the test may advance."""
    from repro.state import restore_detector

    return restore_detector(trained_state, whois=enterprise_dataset.whois)


@pytest.fixture(scope="session")
def enterprise_evaluation(enterprise_dataset):
    from repro.eval import EnterpriseEvaluation

    return EnterpriseEvaluation(enterprise_dataset)


def _generate(tmp_path_factory, name: str, *args: str):
    """One ``repro-detect generate`` layout, shared by the session (the
    CLI tests and the golden pin read it; nobody writes to it)."""
    from repro.cli import main

    out = tmp_path_factory.mktemp(name + "cli") / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", str(out), *args]) == 0
    return out


@pytest.fixture(scope="session")
def ent_layout(tmp_path_factory):
    """The ``ent`` layout of ``tests/generated_layouts.sha256.json``."""
    return _generate(
        tmp_path_factory, "ent", "--pipeline", "enterprise",
        "--hosts", "30", "--days", "3", "--seed", "7",
    )


@pytest.fixture(scope="session")
def mixed_fleet_layout(tmp_path_factory):
    """The ``fleet`` layout of ``tests/generated_layouts.sha256.json``."""
    return _generate(
        tmp_path_factory, "fleet", "--tenants", "3",
        "--enterprise-tenants", "1", "--hosts", "40",
        "--days", "3", "--seed", "11",
    )


@pytest.fixture(scope="session")
def lanl_cli_output():
    """``(exit code, stdout)`` of the ``lanl`` verb at its test size."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lanl", "--hosts", "50", "--bootstrap-days", "2"])
    return code, out.getvalue()


@pytest.fixture(scope="session")
def lanl_report(lanl_dataset):
    from repro.eval import LanlChallengeSolver

    return LanlChallengeSolver(lanl_dataset).solve_all()
