"""Core contribution: belief propagation, scorers, detection pipeline."""

from .beliefprop import (
    BeliefPropagationResult,
    Detection,
    IterationTrace,
    belief_propagation,
)
from .dayloop import DayReport, detect_day
from .graph import InfectionGraph, Label, NodeKind, NodeRecord
from .pipeline import EnterpriseDetector, TrainingReport
from .scoring import (
    AdditiveSimilarityScorer,
    RegressionCCScorer,
    RegressionSimilarityScorer,
    multi_host_beacon_heuristic,
)

__all__ = [
    "BeliefPropagationResult",
    "Detection",
    "IterationTrace",
    "belief_propagation",
    "DayReport",
    "detect_day",
    "InfectionGraph",
    "Label",
    "NodeKind",
    "NodeRecord",
    "EnterpriseDetector",
    "TrainingReport",
    "AdditiveSimilarityScorer",
    "RegressionCCScorer",
    "RegressionSimilarityScorer",
    "multi_host_beacon_heuristic",
]
