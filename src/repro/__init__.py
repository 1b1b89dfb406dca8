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
"""

from .config import (
    ENTERPRISE_CONFIG,
    LANL_CONFIG,
    BeliefPropagationConfig,
    HistogramConfig,
    RarityConfig,
    SystemConfig,
)
from .core import (
    BeliefPropagationResult,
    EnterpriseDetector,
    belief_propagation,
)
from .runner import run_directory
from .state import (
    load_detector,
    load_streaming,
    save_detector,
    save_streaming,
)
from .streaming import StreamingDetector, replay_directory

__version__ = "1.0.0"

__all__ = [
    "ENTERPRISE_CONFIG",
    "LANL_CONFIG",
    "BeliefPropagationConfig",
    "HistogramConfig",
    "RarityConfig",
    "SystemConfig",
    "BeliefPropagationResult",
    "EnterpriseDetector",
    "belief_propagation",
    "run_directory",
    "StreamingDetector",
    "replay_directory",
    "load_detector",
    "save_detector",
    "load_streaming",
    "save_streaming",
    "__version__",
]
