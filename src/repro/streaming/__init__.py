"""Streaming detection engine: the batch pipeline turned online.

The subsystem layers three pieces on top of the unchanged batch
components (Section III's pipeline, Algorithm 1's belief propagation):

* :mod:`repro.profiling.window` -- :class:`WindowedAggregator`, the
  current day's profiles maintained per micro-batch with end-of-day
  rollover into the long-lived histories;
* :mod:`~repro.streaming.incremental` -- :class:`WarmStartConfig` and
  the one predicate deciding whether a scoring round reuses the
  previous round's beliefs;
* :mod:`~repro.streaming.engine` -- :class:`StreamingEngineBase`, the
  scheduler: submissions queue on a plain pending list that ``poll()``
  folds into the window in arrival order, ``score()`` and
  ``rollover()`` both end in :func:`repro.core.dayloop.detect_day`;
  :class:`StreamingDetector` / :class:`StreamingEnterpriseDetector` are
  its DNS and proxy facades with checkpoint/restore and directory
  replay.

The engine's invariant: a day's end-of-day detections do not depend on
how its events were micro-batched -- fed in one poll
(:func:`repro.runner.run_directory`) or in many with scoring rounds
between, the report is the same.
"""

from ..profiling.window import WindowedAggregator
from .detector import StreamingDetector, replay_directory
from .engine import (
    ReplayResult,
    StreamDayReport,
    StreamingEngineBase,
    StreamUpdate,
)
from .enterprise import StreamingEnterpriseDetector, replay_enterprise_directory
from .incremental import WarmStartConfig

__all__ = [
    "ReplayResult",
    "StreamDayReport",
    "StreamUpdate",
    "StreamingDetector",
    "StreamingEngineBase",
    "StreamingEnterpriseDetector",
    "WarmStartConfig",
    "WindowedAggregator",
    "replay_directory",
    "replay_enterprise_directory",
]
