"""Streaming detection engine: the batch pipeline turned online.

The subsystem layers four pieces on top of the unchanged batch
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
  ``rollover()`` both end in :func:`repro.core.dayloop.detect_day` and
  hand out its :class:`~repro.core.dayloop.DayReport` (a round's is the
  day so far);
  :class:`StreamingDetector` / :class:`StreamingEnterpriseDetector` are
  its DNS and proxy facades;
* :mod:`~repro.streaming.replay` -- :func:`open_engine`, where every
  verb builds an engine or restores one from a checkpoint, and
  :func:`replay_directory`, the directory replay of both pipelines.

The engine's invariant: a day's end-of-day detections do not depend on
how its events were micro-batched -- fed in fixed
:data:`~repro.streaming.engine.INGEST_CHUNK`-row polls
(:func:`repro.runner.run_directory`) or in small ones with scoring
rounds between, the report is the same.
"""

from ..profiling.window import WindowedAggregator
from .detector import StreamingDetector
from .engine import ReplayResult, StreamingEngineBase
from .enterprise import StreamingEnterpriseDetector
from .incremental import WarmStartConfig
from .replay import open_engine, replay_directory, replay_enterprise_directory

__all__ = [
    "ReplayResult",
    "StreamingDetector",
    "StreamingEngineBase",
    "StreamingEnterpriseDetector",
    "WarmStartConfig",
    "WindowedAggregator",
    "open_engine",
    "replay_directory",
    "replay_enterprise_directory",
]
