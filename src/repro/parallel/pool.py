"""Process-parallel shard pool: N worker processes over shared memory.

:class:`ProcessShardPool` wraps a regular
:class:`~repro.engine.shards.ShardPool` and moves shard *execution*
into worker processes, each owning a contiguous range of shards:

- the parent computes only the **routing** hash (the same partition
  function as the threaded path, so an item lands on the same shard
  either way), groups each message by shard with one stable counting
  sort, and appends each worker's contiguous slice of values plus their
  global shard ids to that worker's SPSC
  :class:`~repro.parallel.ring.ShmRing`;
- workers hash and apply batches against estimator planes adopted into
  :class:`~repro.parallel.shm.WorkerArena` shared-memory segments and
  keep per-shard estimates fresh there, so :meth:`query` is an O(1)
  shared-memory read with no IPC;
- :meth:`sync` pulls every worker's serialized shard state back into
  the wrapped pool, which then checkpoints/serializes exactly like a
  threaded pool — a generation written from a process-backed run
  resumes on either backend, bit-exact.

**Parity.** Same partitioner, same seeds, same per-shard arrival order
and the library's batch ≡ scalar recording contract make the folded
state bit-for-bit identical to the threaded path
(``tests/test_parallel.py`` asserts ``to_bytes`` equality across the
estimator zoo).

**Failure model.** A dead worker surfaces as
:class:`WorkerCrashedError` on the next submit/drain/sync — the pool
does not limp along with a shard range missing. Recover by resuming
from the last checkpoint generation (the engine CLI's ``--resume``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import struct
from typing import TYPE_CHECKING, Any, Callable, NoReturn

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.engine.partition import group_by_shard
from repro.engine.shards import ShardPool, estimator_registry
from repro.kernels import HashPlane
from repro.parallel.ring import RingBrokenError, ShmRing
from repro.parallel.shm import WorkerArena
from repro.parallel.worker import worker_main

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess
    from types import TracebackType

__all__ = ["DEFAULT_RING_BYTES", "ProcessShardPool", "WorkerCrashedError"]

#: Per-worker request ring capacity. Messages are capped at
#: ``_MAX_MESSAGE_ITEMS`` items (~768 KiB), so the default ring holds a
#: few messages of headroom before the producer blocks (backpressure).
DEFAULT_RING_BYTES = 1 << 22

#: Largest number of values in one ring message; larger submissions are
#: split. Bounded so a message always fits the ring with room to spare.
_MAX_MESSAGE_ITEMS = 65_536

_COUNT = struct.Struct("<I")
_TOKEN = struct.Struct("<Q")


class WorkerCrashedError(RuntimeError):
    """A shard worker process died; the pool state is incomplete."""


def default_start_method() -> str:
    """The multiprocessing start method workers use.

    ``fork`` where available (fast startup, cheap on Linux), else
    ``spawn``; override with the ``REPRO_PARALLEL_START`` environment
    variable (``fork`` / ``spawn`` / ``forkserver``).
    """
    override = os.environ.get("REPRO_PARALLEL_START")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessShardPool(CardinalityEstimator):
    """Process-parallel execution backend over a wrapped shard pool.

    Parameters
    ----------
    pool:
        The shard pool whose shards the workers take ownership of. The
        wrapped pool's shard objects become a stale *template* once the
        workers start; :meth:`sync` refreshes them from worker state.
    workers:
        Worker process count (clamped to the pool's shard count).
    ring_bytes:
        Per-worker request ring capacity in bytes.
    start_method:
        Multiprocessing start method; default per
        :func:`default_start_method`.
    """

    name = "ProcessShardPool"

    def __init__(
        self,
        pool: ShardPool,
        workers: int,
        ring_bytes: int = DEFAULT_RING_BYTES,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if ring_bytes < 32 * _MAX_MESSAGE_ITEMS:
            raise ValueError(
                f"ring_bytes must be >= {32 * _MAX_MESSAGE_ITEMS}, "
                f"got {ring_bytes}"
            )
        self._pool = pool
        self.num_workers = min(int(workers), pool.num_shards)
        self.ring_bytes = int(ring_bytes)
        self.start_method = start_method or default_start_method()
        context = multiprocessing.get_context(self.start_method)
        boundaries = np.linspace(
            0, pool.num_shards, self.num_workers + 1
        ).astype(int)
        #: Per-worker ``(lo, hi)`` global shard ranges (contiguous).
        self.ranges: list[tuple[int, int]] = [
            (int(boundaries[w]), int(boundaries[w + 1]))
            for w in range(self.num_workers)
        ]
        self._tokens = itertools.count(1)
        self._closed = False
        self._crashed: str | None = None
        # Final readings cached at close(), after which the shared
        # segments are gone but callers may still ask for totals.
        self._final_records = 0
        self._final_batches = 0
        self._final_query = 0.0
        self._rings: list[ShmRing] = []
        self._arenas: list[WorkerArena] = []
        self._connections: list["Connection"] = []
        self._processes: list["BaseProcess"] = []
        self.plane_bytes: list[int] = []
        try:
            self._start_workers(context)
        except BaseException:
            self.close()
            raise
        super().__init__()

    def _start_workers(self, context: "BaseContext") -> None:
        for lo, hi in self.ranges:
            local = self._pool.shards[lo:hi]
            arena = WorkerArena.create(local)
            ring = ShmRing.create(self.ring_bytes)
            parent_end, child_end = context.Pipe()
            spec: dict[str, Any] = {
                "shards": [
                    (type(shard).__name__, shard.to_bytes())
                    for shard in local
                ],
                "shard_ids": list(range(lo, hi)),
                "ring": ring.handle(),
                "arena": arena.handle(),
                "conn": child_end,
            }
            process = context.Process(
                target=worker_main, args=(spec,), daemon=True,
                name=f"repro-shard-worker-{lo}-{hi}",
            )
            process.start()
            child_end.close()
            self._rings.append(ring)
            self._arenas.append(arena)
            self._connections.append(parent_end)
            self._processes.append(process)
        # analysis: allow(purity.loop) -- startup handshake, once per worker
        for worker_index in range(self.num_workers):
            reply = self._receive(worker_index, "ready")
            self.plane_bytes.append(int(reply[1]))

    # ------------------------------------------------------------------
    # Control-plane plumbing
    # ------------------------------------------------------------------
    def _alive(self, worker_index: int) -> Callable[[], bool]:
        return self._processes[worker_index].is_alive

    def _fail(self, worker_index: int, detail: str = "") -> NoReturn:
        self._crashed = (
            f"shard worker {worker_index} "
            f"(shards {self.ranges[worker_index]}) died"
            + (f": {detail}" if detail else "")
        )
        raise WorkerCrashedError(self._crashed)

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessShardPool is closed")
        if self._crashed:
            raise WorkerCrashedError(self._crashed)

    def _receive(
        self,
        worker_index: int,
        expected_kind: str,
        token: int | None = None,
    ) -> tuple[Any, ...]:
        """Next control reply of the expected kind from one worker."""
        connection = self._connections[worker_index]
        while True:
            if connection.poll(0.05):
                try:
                    reply = connection.recv()
                except (EOFError, OSError):
                    self._fail(worker_index, "control pipe closed")
                if reply[0] == "error":
                    self._fail(worker_index, str(reply[1]))
                if reply[0] != expected_kind:
                    continue  # stale reply from an interrupted exchange
                if token is not None and reply[1] != token:
                    continue
                return reply
            if not self._processes[worker_index].is_alive():
                # One final poll: the reply may have raced the exit.
                if not connection.poll(0.0):
                    self._fail(worker_index, "process exited")

    def _post(self, worker_index: int, message: bytes) -> None:
        try:
            self._rings[worker_index].put(
                message, alive=self._alive(worker_index)
            )
        except RingBrokenError:
            self._fail(worker_index, "request ring broken")

    # ------------------------------------------------------------------
    # Recording (CardinalityEstimator contract + bulk submit)
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.submit_values(np.array([value], dtype=np.uint64))

    def _record_plane(self, plane: HashPlane) -> None:
        self.submit_values(plane.values)

    def submit_values(self, values: np.ndarray) -> int:
        """Route a canonical uint64 batch to the workers' rings.

        Asynchronous: returns once every message is enqueued (blocking
        only on ring backpressure); call :meth:`drain` for a barrier.
        Returns the number of values submitted.
        """
        self._check_usable()
        partitioner = self._pool.partitioner
        num_shards = self._pool.num_shards
        for start in range(0, values.size, _MAX_MESSAGE_ITEMS):
            chunk = values[start:start + _MAX_MESSAGE_ITEMS]
            if num_shards > 1:
                ids = partitioner.shard_ids(chunk)
                self._pool._route_hash_ops += chunk.size
                # One stable counting sort: each worker's shard range
                # becomes one contiguous slice, in stream order per shard.
                order, bounds = group_by_shard(ids, num_shards)
                chunk, ids = chunk[order], ids[order]
            else:
                ids = np.zeros(chunk.size, dtype=np.uint8)
                bounds = np.array([0, chunk.size])
            # analysis: allow(purity.loop) -- one slice per worker (N),
            # never per item
            for worker_index, (lo, hi) in enumerate(self.ranges):
                first, last = bounds[lo], bounds[hi]
                if first == last:
                    continue
                self._post(
                    worker_index,
                    b"D"
                    + _COUNT.pack(last - first)
                    + chunk[first:last].tobytes()
                    + ids[first:last].astype(np.uint32).tobytes(),
                )
        return int(values.size)

    def drain(self) -> None:
        """Barrier: block until every submitted batch has been applied."""
        self._check_usable()
        token = next(self._tokens)
        message = b"F" + _TOKEN.pack(token)
        for worker_index in range(self.num_workers):
            self._post(worker_index, message)
        for worker_index in range(self.num_workers):
            self._receive(worker_index, "flush", token)

    # ------------------------------------------------------------------
    # State fold-back
    # ------------------------------------------------------------------
    def sync(self) -> ShardPool:
        """Fold worker shard state back into the wrapped pool.

        Implies a drain (the snapshot request queues behind all pending
        data in each FIFO ring). The wrapped pool's shard objects are
        replaced with deserialized worker state, after which it
        serializes/checkpoints exactly like a threaded pool.
        """
        self._check_usable()
        token = next(self._tokens)
        message = b"S" + _TOKEN.pack(token)
        for worker_index in range(self.num_workers):
            self._post(worker_index, message)
        registry = estimator_registry()
        for worker_index, (lo, hi) in enumerate(self.ranges):
            reply = self._receive(worker_index, "snapshot", token)
            blobs = reply[2]
            if len(blobs) != hi - lo:
                self._fail(
                    worker_index,
                    f"snapshot returned {len(blobs)} shards, "
                    f"expected {hi - lo}",
                )
            for local_index, (class_name, blob) in enumerate(blobs):
                self._pool.shards[lo + local_index] = (
                    registry[class_name].from_bytes(blob)
                )
        return self._pool

    def to_bytes(self) -> bytes:
        """Serialize the folded pool (identical framing to ShardPool)."""
        return self.sync().to_bytes()

    # ------------------------------------------------------------------
    # Querying and introspection
    # ------------------------------------------------------------------
    def query(self) -> float:
        """Sum of per-shard estimates from the shared-memory headers.

        O(1) in the stream: one seqlock-guarded read per worker arena,
        no IPC, no locks shared with the data path. Reflects all
        *applied* batches; call :meth:`drain` first for an exact
        cut-off.
        """
        if self._closed:
            return self._final_query
        partials: list[float] = []
        for arena in self._arenas:
            snapshot: list[float] = []
            # analysis: allow(purity.loop) -- bounded seqlock retry
            for __ in range(1000):
                before = arena.counters()[2]
                if before % 2 == 0:
                    snapshot = arena.estimates().tolist()
                    if arena.counters()[2] == before:
                        break
            partials.extend(snapshot)
        # Left-to-right Python sum in global shard order: the identical
        # accumulation ShardPool.query performs, so the two backends
        # agree to the last ULP, not just to rounding.
        return float(sum(partials))

    def memory_bits(self) -> int:
        """Nominal estimator memory (from the wrapped pool's sizing)."""
        return self._pool.memory_bits()

    @property
    def num_shards(self) -> int:
        return self._pool.num_shards

    @property
    def seed(self) -> int:
        return self._pool.seed

    @property
    def pool(self) -> ShardPool:
        """The wrapped pool (stale until :meth:`sync`)."""
        return self._pool

    @property
    def records_applied(self) -> int:
        """Records applied across workers (live shared-memory read)."""
        if self._closed:
            return self._final_records
        return sum(
            int(arena.counters()[1]) for arena in self._arenas
        )

    @property
    def batches_applied(self) -> int:
        """Batches applied across workers (live shared-memory read)."""
        if self._closed:
            return self._final_batches
        return sum(
            int(arena.counters()[0]) for arena in self._arenas
        )

    def worker_metrics(self) -> list[dict[str, object]]:
        """Per-worker health snapshot (queue depth, counters, bytes)."""
        metrics: list[dict[str, object]] = []
        for worker_index, (lo, hi) in enumerate(self.ranges):
            batches, records, __ = self._arenas[worker_index].counters()
            metrics.append({
                "worker": worker_index,
                "shards": hi - lo,
                "alive": self._processes[worker_index].is_alive(),
                "ring_backlog_bytes": (
                    self._rings[worker_index].pending_bytes()
                ),
                "batches_applied": int(batches),
                "records_applied": int(records),
                "shm_bytes": (
                    self._arenas[worker_index].size
                    + self._rings[worker_index].capacity
                ),
            })
        return metrics

    # ------------------------------------------------------------------
    # Builders and lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def of(
        cls,
        estimator: str,
        memory_bits: int,
        num_shards: int,
        design_cardinality: int = 1_000_000,
        seed: int = 0,
        workers: int = 2,
        **kwargs: Any,
    ) -> "ProcessShardPool":
        """Build a process-backed pool with ``ShardPool.of`` sizing."""
        pool = ShardPool.of(
            estimator,
            memory_bits,
            num_shards,
            design_cardinality=design_cardinality,
            seed=seed,
        )
        assert isinstance(pool, ShardPool)
        return cls(pool, workers, **kwargs)

    def close(self) -> None:
        """Stop the workers and release every shared segment.

        Does **not** fold state back first — call :meth:`sync` (or
        :meth:`to_bytes`) before closing when the final state matters.
        Idempotent; tolerates already-dead workers.
        """
        if self._closed:
            return
        try:
            self._final_records = self.records_applied
            self._final_batches = self.batches_applied
            self._final_query = self.query()
        except (ValueError, TypeError):  # pragma: no cover - torn state
            pass
        self._closed = True
        for worker_index, process in enumerate(self._processes):
            if process.is_alive():
                try:
                    self._rings[worker_index].put(
                        b"Q", alive=self._alive(worker_index)
                    )
                except (RingBrokenError, ValueError):
                    pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass
        for ring in self._rings:
            ring.close()
            ring.unlink()
        for arena in self._arenas:
            arena.close()
            arena.unlink()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: "TracebackType | None",
    ) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessShardPool(workers={self.num_workers}, "
            f"shards={self.num_shards}, start={self.start_method!r}, "
            f"closed={self._closed})"
        )
