"""Tests for configuration objects."""

import dataclasses

import pytest

from repro.config import (
    ENTERPRISE_CONFIG,
    LANL_CONFIG,
    BeliefPropagationConfig,
    HistogramConfig,
    RarityConfig,
    SystemConfig,
)


class TestDefaults:
    def test_paper_histogram_parameters(self):
        config = HistogramConfig()
        assert config.bin_width == 10.0
        assert config.jeffrey_threshold == 0.06

    def test_paper_rarity_threshold(self):
        assert RarityConfig().unpopular_max_hosts == 10
        assert RarityConfig().rare_ua_max_hosts == 10

    def test_paper_bp_thresholds(self):
        config = BeliefPropagationConfig()
        assert config.cc_score_threshold == 0.4
        assert config.max_domains_per_iteration == 1

    def test_lanl_config_specializations(self):
        assert LANL_CONFIG.rarity.fold_level == 3
        assert LANL_CONFIG.belief_propagation.similarity_threshold == 0.25
        assert LANL_CONFIG.belief_propagation.max_iterations == 5

    def test_enterprise_config_folds_second_level(self):
        assert ENTERPRISE_CONFIG.rarity.fold_level == 2


class TestImmutability:
    def test_configs_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            HistogramConfig().bin_width = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemConfig().training_days = 1
