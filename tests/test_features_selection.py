"""Tests for significance-driven backward feature elimination."""

import numpy as np
import pytest

from repro.features import backward_eliminate, project_features


def make_collinear_data(n=200, seed=0):
    """signal drives y; twin is collinear with signal; noise is junk."""
    rng = np.random.default_rng(seed)
    signal = rng.uniform(size=n)
    twin = signal + rng.normal(scale=0.01, size=n)
    noise = rng.uniform(size=n)
    y = 2.0 * signal + rng.normal(scale=0.05, size=n)
    matrix = np.column_stack([signal, twin, noise])
    return matrix.tolist(), y.tolist()


class TestBackwardElimination:
    def test_drops_collinear_twin_and_noise(self):
        """The paper's AutoHosts/IP16 situation: the collinear twin and
        the junk feature go; the true signal stays."""
        matrix, labels = make_collinear_data()
        result = backward_eliminate(
            ("signal", "twin", "noise"), matrix, labels
        )
        assert "signal" in result.model.feature_names
        assert "noise" in result.dropped_features
        # One of the collinear pair must have been eliminated.
        assert ("twin" in result.dropped_features) != (
            "signal" in result.dropped_features
        )

    def test_steps_record_p_values(self):
        matrix, labels = make_collinear_data()
        result = backward_eliminate(("signal", "twin", "noise"), matrix, labels)
        for step in result.steps:
            assert step.p_value > 0.05
            assert step.dropped not in step.remaining

    def test_keeps_all_when_all_significant(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=150)
        b = rng.uniform(size=150)
        y = a + 2 * b + rng.normal(scale=0.05, size=150)
        result = backward_eliminate(
            ("a", "b"), np.column_stack([a, b]).tolist(), y.tolist()
        )
        assert result.steps == ()
        assert result.model.feature_names == ("a", "b")

    def test_min_features_floor(self):
        rng = np.random.default_rng(2)
        matrix = rng.uniform(size=(50, 3)).tolist()
        labels = rng.normal(size=50).tolist()  # pure noise labels
        result = backward_eliminate(
            ("a", "b", "c"), matrix, labels, min_features=2
        )
        assert len(result.model.feature_names) >= 2

    def test_invalid_min_features(self):
        with pytest.raises(ValueError):
            backward_eliminate(("a",), [[0.0], [1.0]], [0.0, 1.0], min_features=0)

    def test_pruned_model_scores(self):
        matrix, labels = make_collinear_data()
        result = backward_eliminate(("signal", "twin", "noise"), matrix, labels)
        kept = result.model.feature_names
        projected = project_features(("signal", "twin", "noise"), kept, matrix[0])
        assert np.isfinite(result.model.score(projected))


class TestProjectFeatures:
    def test_projection_order(self):
        vector = [1.0, 2.0, 3.0]
        assert project_features(("a", "b", "c"), ("c", "a"), vector) == [3.0, 1.0]

    def test_missing_feature_raises(self):
        with pytest.raises(KeyError):
            project_features(("a",), ("z",), [1.0])

    def test_identity_projection(self):
        vector = [1.0, 2.0]
        assert project_features(("a", "b"), ("a", "b"), vector) == vector


class TestOnPipelineModels:
    def test_paper_pruning_on_cc_model(self, enterprise_evaluation):
        """Re-run selection on the pipeline's actual training rows --
        collinearity between no_hosts and auto_hosts means at most one
        survives (the paper dropped AutoHosts)."""
        import random

        from repro.features import CC_FEATURE_NAMES

        # Rebuild labeled rows via the same features the detector used.
        rows, labels = [], []
        vt = enterprise_evaluation.virustotal
        detector = enterprise_evaluation.detector
        for op_day in enterprise_evaluation.days:
            domains = list(op_day.auto_hosts)
            rows.extend(detector.extractor.cc_feature_matrix(
                domains, op_day.traffic, op_day.auto_hosts, op_day.when
            ).tolist())
            labels.extend(1.0 if vt.is_reported(d) else 0.0 for d in domains)
        if len(rows) < len(CC_FEATURE_NAMES) + 4:
            import pytest as _pytest

            _pytest.skip("not enough automated rows in this world")
        result = backward_eliminate(
            CC_FEATURE_NAMES, rows, labels, ridge=0.01
        )
        kept = set(result.model.feature_names)
        assert not {"no_hosts", "auto_hosts"} <= kept or not result.steps
