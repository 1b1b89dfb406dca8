"""Event ingestion layer: micro-batches.

The batch pipeline consumes whole days of records at once; a streaming
deployment receives events continuously.  :func:`micro_batches` groups
any event iterator into bounded batches, the unit of ingestion and
scoring; the engines queue what they are handed on a plain pending
list (:meth:`StreamingEngineBase.submit
<repro.streaming.engine.StreamingEngineBase.submit>`) until the next
``poll()`` folds it into the day window.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

from ..logs.records import Connection


def micro_batches(
    events: Iterable[Connection], size: int
) -> Iterator[list[Connection]]:
    """Group an event stream into micro-batches of at most ``size``."""
    if size < 1:
        raise ValueError("batch size must be positive")
    source = iter(events)
    while batch := list(islice(source, size)):
        yield batch
