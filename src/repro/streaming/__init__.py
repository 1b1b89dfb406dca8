"""Streaming detection engine: the batch pipeline turned online.

The subsystem layers four pieces on top of the unchanged batch
components (Section III's pipeline, Algorithm 1's belief propagation):

* :mod:`~repro.streaming.events` -- :func:`micro_batches`, the unit
  of ingestion (engines queue submissions on a plain pending list that
  ``poll()`` folds into the window in arrival order);
* :mod:`~repro.streaming.window` -- :class:`WindowedAggregator`, the
  current day's profiles maintained per micro-batch with end-of-day
  rollover into the long-lived histories;
* :mod:`~repro.streaming.incremental` -- :class:`IncrementalGraph` and
  warm-start belief propagation reusing the previous round's beliefs;
* :mod:`~repro.streaming.detector` -- the :class:`StreamingDetector`
  facade with checkpoint/restore and directory replay.

The engine's invariant: replaying a day's events produces the same
end-of-day detections as the batch :class:`~repro.runner.DnsLogRunner`
over the same records.
"""

from .detector import StreamingDetector, replay_directory
from .engine import (
    ReplayResult,
    StreamDayReport,
    StreamingEngineBase,
    StreamUpdate,
)
from .enterprise import StreamingEnterpriseDetector, replay_enterprise_directory
from .events import micro_batches
from .incremental import (
    IncrementalGraph,
    WarmStartConfig,
    warm_start_belief_propagation,
)
from .window import WindowedAggregator

__all__ = [
    "IncrementalGraph",
    "ReplayResult",
    "StreamDayReport",
    "StreamUpdate",
    "StreamingDetector",
    "StreamingEngineBase",
    "StreamingEnterpriseDetector",
    "WarmStartConfig",
    "WindowedAggregator",
    "micro_batches",
    "replay_directory",
    "replay_enterprise_directory",
    "warm_start_belief_propagation",
]
