"""Core contribution: belief propagation, scorers, detection pipeline."""

from .beliefprop import (
    BeliefPropagationResult,
    Detection,
    IterationTrace,
    belief_propagation,
)
from .dayloop import DayDetection, detect_day
from .graph import InfectionGraph, Label, NodeKind, NodeRecord
from .pipeline import DayResult, EnterpriseDetector, TrainingReport
from .scoring import (
    AdditiveSimilarityScorer,
    RegressionCCScorer,
    RegressionSimilarityScorer,
    ScoredDomain,
    multi_host_beacon_heuristic,
)

__all__ = [
    "BeliefPropagationResult",
    "Detection",
    "IterationTrace",
    "belief_propagation",
    "DayDetection",
    "detect_day",
    "InfectionGraph",
    "Label",
    "NodeKind",
    "NodeRecord",
    "DayResult",
    "EnterpriseDetector",
    "TrainingReport",
    "AdditiveSimilarityScorer",
    "RegressionCCScorer",
    "RegressionSimilarityScorer",
    "ScoredDomain",
    "multi_host_beacon_heuristic",
]
