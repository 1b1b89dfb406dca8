"""repro -- reproduction of Oprea et al., "Detection of Early-Stage
Enterprise Infection by Mining Large-Scale Log Data" (DSN 2015).

Public API overview
-------------------

* :mod:`repro.core` -- belief propagation (Algorithm 1), domain
  scorers, and the end-to-end :class:`~repro.core.EnterpriseDetector`.
* :mod:`repro.timing` -- dynamic-histogram automation detection and
  baseline periodicity detectors.
* :mod:`repro.logs` -- DNS / web-proxy log parsing, normalization and
  the data-reduction funnel.
* :mod:`repro.profiling` -- destination and user-agent histories,
  rare-destination extraction.
* :mod:`repro.features` -- feature extraction and linear regression.
* :mod:`repro.intel` -- WHOIS / VirusTotal / IOC substrates.
* :mod:`repro.synthetic` -- seeded generators for the LANL and
  enterprise (AC) datasets, including attack campaigns.
* :mod:`repro.eval` -- metrics and the harnesses regenerating every
  table and figure of the paper.
* :mod:`repro.streaming` -- the online engine: micro-batch event
  ingestion, incrementally maintained daily windows, warm-start belief
  propagation and a checkpointable :class:`~repro.streaming.StreamingDetector`
  whose ``rollover()`` is the one end of day every verb runs.

Quickstart::

    from repro.synthetic import generate_lanl_dataset
    from repro.eval import LanlChallengeSolver

    dataset = generate_lanl_dataset()
    solver = LanlChallengeSolver(dataset)
    report = solver.solve_all()
    print(report.overall.tdr)

The re-exports below are resolved on first access: ``import repro``
loads no submodule (and so neither numpy nor scipy), which lets
``repro.cli.main`` pick the process's BLAS threading before numpy
loads.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("config", ("ENTERPRISE_CONFIG", "LANL_CONFIG",
                    "BeliefPropagationConfig", "HistogramConfig",
                    "RarityConfig", "SystemConfig")),
        ("core", ("BeliefPropagationResult", "EnterpriseDetector",
                  "belief_propagation")),
        ("runner", ("run_directory",)),
        ("streaming", ("StreamingDetector", "replay_directory")),
        ("state", ("load_detector", "save_detector", "load_streaming",
                   "save_streaming")),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
