"""Evaluation harness: metrics, LANL challenge, enterprise sweeps.

The re-exports are resolved on first access, so a caller that needs
one of them (``run`` / ``stream`` print ``triage_report``) does not
load the LANL and enterprise harnesses and the synthetic worlds behind
them.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("clusters", ("DomainCluster", "cluster_by_name",
                      "cluster_by_subnet", "name_entropy", "name_signature",
                      "triage_report")),
        ("incident", ("DomainEvidence", "IncidentReport", "build_incident")),
        ("enterprise_eval", ("EnterpriseEvaluation", "OperationalDay",
                             "SweepPoint")),
        ("evasion", ("EvasionCurve", "EvasionPoint", "campaign_horizon",
                     "churn_evasion_curve", "dns_evasion_curve",
                     "enterprise_evasion_curve", "trained_enterprise_world")),
        ("lanl_challenge", ("ChallengeReport", "DayOutcome",
                            "LanlChallengeSolver", "LanlDayContext",
                            "SweepRow", "sweep_histogram_parameters",
                            "timing_gap_samples")),
        ("metrics", ("DetectionCounts", "ValidationBreakdown",
                     "score_detections", "validate_detections")),
        ("reporting", ("cdf_at", "render_table")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
