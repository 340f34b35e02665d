"""Shard worker process: apply batched plane requests to owned shards.

``worker_main`` is the target of every worker process spawned by
:class:`~repro.parallel.pool.ProcessShardPool`. The worker

1. rebuilds its shard estimators from the serialized blobs shipped in
   the spec (the same ``to_bytes`` images the checkpoint layer uses, so
   resuming from a generation and cold-starting are the same code
   path),
2. attaches the :class:`~repro.parallel.shm.WorkerArena` and adopts the
   estimator plane arrays into shared memory,
3. loops on its :class:`~repro.parallel.ring.ShmRing`, hashing each
   incoming value batch locally (a :class:`~repro.kernels.HashPlane`
   per message — this is where the parallel speedup comes from) and
   applying the per-shard sub-planes in arrival order.

After every applied batch the worker refreshes the arena's per-shard
estimate slots under a seqlock (odd sequence = refresh in progress), so
the parent answers ESTIMATE with one shared-memory read and no IPC.

Message protocol (one byte of type, then payload)::

    b"D" | u32 n | n x u64 values | n x u32 global shard ids   (data)
    b"F" | u64 token                                           (flush)
    b"S" | u64 token                                           (snapshot)
    b"Q"                                                       (stop)

Control replies travel over a pipe: ``("ready", plane_bytes)`` once at
startup, ``("flush", token, batches, records)``,
``("snapshot", token, [(class_name, blob), ...], batches, records)``,
``("stopped",)``, and ``("error", traceback_text)`` on any failure.
Within-shard arrival order is preserved end to end (the parent's and
the worker's counting sorts are both stable), which is what keeps the
process backend bit-exact with the threaded path for order-sensitive
estimators such as SMB.
"""

from __future__ import annotations

import struct
import traceback
from typing import Any, Iterable

import numpy as np

from repro.engine.partition import group_by_shard
from repro.engine.shards import estimator_registry, shared_plane_requests
from repro.kernels import HashPlane
from repro.parallel.ring import ShmRing
from repro.parallel.shm import WorkerArena

_COUNT = struct.Struct("<I")
_TOKEN = struct.Struct("<Q")


class _WorkerState:
    """One worker's shards, arena and counters."""

    def __init__(self, spec: dict[str, Any]) -> None:
        registry = estimator_registry()
        self.shards = [
            registry[class_name].from_bytes(blob)
            for class_name, blob in spec["shards"]
        ]
        #: Global id of the first owned shard; owned ids are contiguous.
        self.first_id = int(spec["shard_ids"][0])
        self.arena = WorkerArena.attach(spec["arena"])
        self.plane_bytes = self.arena.adopt(self.shards)
        self.requests = shared_plane_requests(self.shards)
        self.batches = 0
        self.records = 0
        self._sequence = 0
        self.refresh_estimates(range(len(self.shards)))

    def refresh_estimates(self, local_indices: Iterable[int]) -> None:
        """Seqlock-guarded refresh of the arena's status header."""
        self._sequence += 1
        self.arena.set_counters(self.batches, self.records, self._sequence)
        estimates = self.arena.estimates()
        for index in local_indices:
            estimates[index] = self.shards[index].query()
        self._sequence += 1
        self.arena.set_counters(self.batches, self.records, self._sequence)

    def apply(self, payload: bytes) -> None:
        """Apply one data message to the owned shards, in order."""
        (count,) = _COUNT.unpack_from(payload, 1)
        offset = 1 + _COUNT.size
        values = np.frombuffer(payload, dtype=np.uint64, count=count,
                               offset=offset)
        ids = np.frombuffer(payload, dtype=np.uint32, count=count,
                            offset=offset + 8 * count)
        plane = HashPlane(values)
        touched: list[int] = []
        if len(self.shards) == 1:
            plane.prefetch(self.requests)
            self.shards[0]._record_plane(plane)
            touched.append(0)
        else:
            order, bounds = group_by_shard(
                ids - np.uint32(self.first_id), len(self.shards)
            )
            # analysis: allow(purity.loop) -- one iteration per owned
            # shard, each applying a vectorized sub-plane
            for index, part in enumerate(
                plane.split(order, bounds, self.requests)
            ):
                if part.size:
                    self.shards[index]._record_plane(part)
                    touched.append(index)
        self.batches += 1
        self.records += count
        self.refresh_estimates(touched)

    def snapshot(self) -> list[tuple[str, bytes]]:
        """Serialized ``(class_name, blob)`` per owned shard."""
        self.refresh_estimates(range(len(self.shards)))
        return [
            (type(shard).__name__, shard.to_bytes())
            for shard in self.shards
        ]


def worker_main(spec: dict[str, Any]) -> None:
    """Entry point of one shard worker process (see module docstring)."""
    connection = spec["conn"]
    try:
        state = _WorkerState(spec)
        ring = ShmRing.attach(spec["ring"])
        connection.send(("ready", state.plane_bytes))
        while True:
            message = ring.get()
            kind = message[:1]
            if kind == b"D":
                state.apply(message)
            elif kind == b"F":
                (token,) = _TOKEN.unpack_from(message, 1)
                state.refresh_estimates(())
                connection.send(
                    ("flush", token, state.batches, state.records)
                )
            elif kind == b"S":
                (token,) = _TOKEN.unpack_from(message, 1)
                connection.send(
                    ("snapshot", token, state.snapshot(),
                     state.batches, state.records)
                )
            elif kind == b"Q":
                connection.send(("stopped",))
                return
            else:
                raise ValueError(f"unknown ring message type {kind!r}")
    except BaseException:
        try:
            connection.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass
