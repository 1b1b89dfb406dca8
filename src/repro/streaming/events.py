"""Event ingestion layer: micro-batches and host sharding.

The batch pipeline consumes whole days of records at once; a streaming
deployment receives events continuously from many collectors.  This
module provides the glue between the two worlds:

* :class:`EventBus` -- an in-process, host-sharded queue of normalized
  :class:`~repro.logs.records.Connection` events.  Sharding by host is
  the natural partition for this workload: every per-day index the
  detectors consume (timestamp series, ``host_rdom``) is keyed by
  host first, so shard consumers never contend on the same series.
  Shard assignment uses CRC32 so it is stable across processes and
  Python hash randomization.
* :func:`split_by_shard` -- the same partition applied to a columnar
  :class:`~repro.logs.records.ConnectionBatch` (what both log routes
  produce, see :meth:`ReductionFunnel.column_batches
  <repro.logs.reduction.ReductionFunnel.column_batches>` and
  :meth:`ProxyNormalizer.column_batches
  <repro.logs.normalize.ProxyNormalizer.column_batches>`).
* :func:`micro_batches` -- group any event iterator into bounded
  batches, the unit of ingestion and scoring.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from itertools import islice
from zlib import crc32

from ..logs.records import Connection, ConnectionBatch


def shard_of(host: str, n_shards: int) -> int:
    """Stable shard index of ``host`` (CRC32, not ``hash``)."""
    return crc32(host.encode("utf-8", "replace")) % n_shards


def split_by_shard(
    batch: ConnectionBatch, n_shards: int, memo: dict[str, int] | None = None
) -> list[ConnectionBatch | None]:
    """Partition a batch's rows by host shard; ``None`` for empty shards.

    Row order is kept within each shard.  A batch whose rows all land
    on one shard is returned as is, not copied.  ``memo`` caches
    host -> shard across calls.
    """
    if memo is None:
        memo = {}
    rows: list[list[int] | None] = [None] * n_shards
    for position, host in enumerate(batch.hosts):
        shard = memo.get(host)
        if shard is None:
            shard = memo[host] = shard_of(host, n_shards)
        row = rows[shard]
        if row is None:
            rows[shard] = [position]
        else:
            row.append(position)
    return [
        None if row is None
        else batch if len(row) == len(batch)
        else batch.take(row)
        for row in rows
    ]


class EventBus:
    """In-process event queue sharded by source host.

    Producers :meth:`publish` connections (singly or in micro-batches);
    consumers :meth:`drain` one shard or all of them.  The bus is
    deliberately synchronous -- it models the partition boundaries a
    distributed deployment would place between collector and detector
    processes, while keeping replays deterministic.  Draining all
    shards interleaves events across hosts, which is safe because every
    downstream aggregate is order-insensitive within a day.
    """

    def __init__(self, n_shards: int = 4) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards
        self._shards: list[deque[Connection | ConnectionBatch]] = [
            deque() for _ in range(n_shards)
        ]
        self._shard_memo: dict[str, int] = {}
        self.published = 0
        self.drained = 0

    def __len__(self) -> int:
        """Pending event count (batch items count their rows)."""
        return sum(self.shard_sizes())

    def shard_sizes(self) -> list[int]:
        """Pending event counts per shard (batch items count their rows)."""
        return [
            sum(
                len(item) if isinstance(item, ConnectionBatch) else 1
                for item in shard
            )
            for shard in self._shards
        ]

    def publish(self, events: Iterable[Connection] | ConnectionBatch) -> int:
        """Route events to their host shards; returns the count.

        A :class:`~repro.logs.records.ConnectionBatch` is routed
        columnar: its rows are split into per-shard sub-batches that
        travel through the queue as single items, so a drain hands the
        window whole columns instead of one object per event.
        """
        if isinstance(events, ConnectionBatch):
            return self._publish_batch(events)
        count = 0
        memo = self._shard_memo
        shards = self._shards
        n_shards = self.n_shards
        for event in events:
            host = event.host
            shard = memo.get(host)
            if shard is None:
                shard = shard_of(host, n_shards)
                memo[host] = shard
            shards[shard].append(event)
            count += 1
        self.published += count
        return count

    def _publish_batch(self, batch: ConnectionBatch) -> int:
        """Queue a columnar batch as one sub-batch per host shard."""
        count = len(batch)
        if not count:
            return 0
        if self.n_shards == 1:
            self._shards[0].append(batch)
        else:
            for queue, part in zip(
                self._shards,
                split_by_shard(batch, self.n_shards, self._shard_memo),
            ):
                if part is not None:
                    queue.append(part)
        self.published += count
        return count

    def drain(
        self, shard: int | None = None, max_events: int | None = None
    ) -> list[Connection | ConnectionBatch]:
        """Pop up to ``max_events`` events (all shards unless one is given).

        With ``shard=None`` and a ``max_events`` bound the shards are
        drained round-robin so no single busy host can starve the
        others; an unbounded drain empties shard by shard instead --
        within a day every downstream aggregate is order-insensitive
        (see the class docstring), and the bulk path skips the
        per-event rotation.  The returned list mixes scalar events and
        whole columnar batches; ``max_events`` bounds the total *event*
        count, and a batch is never split, so the bound can overshoot
        by at most one batch.
        """
        shards = self._shards if shard is None else [self._shards[shard]]
        out: list[Connection | ConnectionBatch] = []
        count = 0
        if max_events is None:
            for queue in shards:
                if not queue:
                    continue
                for item in queue:
                    count += (
                        len(item) if item.__class__ is ConnectionBatch else 1
                    )
                out.extend(queue)
                queue.clear()
            self.drained += count
            return out
        while any(shards):
            for queue in shards:
                if queue:
                    item = queue.popleft()
                    out.append(item)
                    count += (
                        len(item)
                        if isinstance(item, ConnectionBatch)
                        else 1
                    )
                    if max_events is not None and count >= max_events:
                        self.drained += count
                        return out
        self.drained += count
        return out


def micro_batches(
    events: Iterable[Connection], size: int
) -> Iterator[list[Connection]]:
    """Group an event stream into micro-batches of at most ``size``."""
    if size < 1:
        raise ValueError("batch size must be positive")
    source = iter(events)
    while batch := list(islice(source, size)):
        yield batch
