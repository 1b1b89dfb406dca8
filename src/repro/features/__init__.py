"""Feature extraction and regression modelling."""

from .extract import (
    CC_FEATURE_NAMES,
    SIMILARITY_FEATURE_NAMES,
    FeatureExtractor,
    SimilarityFeatures,
    scale_count,
    timing_closeness,
)
from .regression import Coefficient, LinearModel, fit_linear_model
from .selection import (
    EliminationStep,
    SelectionResult,
    backward_eliminate,
    project_features,
)
from .whois import (
    RegistrationFeatures,
    WhoisFeatureExtractor,
    normalize_age,
    normalize_validity,
)

__all__ = [
    "CC_FEATURE_NAMES",
    "SIMILARITY_FEATURE_NAMES",
    "FeatureExtractor",
    "SimilarityFeatures",
    "scale_count",
    "timing_closeness",
    "EliminationStep",
    "SelectionResult",
    "backward_eliminate",
    "project_features",
    "Coefficient",
    "LinearModel",
    "fit_linear_model",
    "RegistrationFeatures",
    "WhoisFeatureExtractor",
    "normalize_age",
    "normalize_validity",
]
