"""Bounded-queue producer/consumer ingestion over a shard pool.

:class:`IngestPipeline` turns a :class:`~repro.engine.shards.ShardPool`
into a concurrent streaming sink:

- the **submitting thread** canonicalizes each incoming batch, slices it
  into chunks of ``chunk_size`` items, builds one shared
  :class:`~repro.kernels.HashPlane` per chunk, prefetches the hash
  arrays the pool's shards will read, splits it once into per-shard
  sub-planes and enqueues the chunk's sub-planes together — one mixing
  pass, one split and one queue hand-off per chunk, all in the producer;
- **one apply thread** drains that single bounded FIFO of chunks and
  applies each chunk's sub-planes in shard order. The apply thread is
  the only writer of every shard, so the hot path takes no locks, and
  FIFO chunk order keeps within-shard arrival order — a drained
  pipeline holds *bit-for-bit* the same state as synchronous
  ``pool.record_many`` over the same stream (asserted by the stateful
  engine test). Sub-planes are slices of arrays gathered for that chunk
  alone, so handing them across the thread boundary is safe.

One apply thread is enough: CPython threads interleave on the GIL, so
per-shard threads would only contend for it. The overlap that matters —
the producer hashing and splitting chunk ``i+1`` while chunk ``i`` is
applied — needs only two threads.

**Backpressure.** The queue is bounded (``queue_depth`` chunks);
:meth:`IngestPipeline.submit` blocks when the apply thread falls
behind, so an unbounded producer cannot exhaust memory.

**Multiple producers.** :meth:`submit` may be called from any number of
threads concurrently — in particular from an executor pool driven by an
``asyncio`` event loop (``loop.run_in_executor``), which is how the
serving layer (:mod:`repro.serve`) feeds the pipeline. All counters are
lock-guarded, and :meth:`checkpoint_now` *quiesces* the producers (new
submits park at a gate, in-flight submits are waited out) before
draining, so a checkpoint can never capture a half-enqueued chunk from
a concurrent producer. Within-shard arrival order across producers is
whatever order their enqueues interleave in — estimator state is
order-insensitive for a fixed key *set*, and per-producer FIFO still
holds, which is what the serving layer's per-connection semantics need.

**Shutdown.** :meth:`drain` blocks until every enqueued chunk has
been applied (safe point for :meth:`estimate` or a checkpoint);
:meth:`close` drains, stops the apply thread, and re-raises the first
apply error, if any. Lifecycle transitions are lock-guarded: concurrent
``close`` calls elect exactly one finisher, a submit racing a close
either completes before the stop sentinel goes out or raises
``RuntimeError`` — never enqueues behind a sentinel. The pipeline is a
context manager::

    with IngestPipeline(pool) as pipe:
        for batch in batches:
            pipe.submit(batch)
    print(pool.query())

**Failure accounting.** Once a sub-plane has failed to apply, the apply
thread drops the rest of that chunk and every later chunk instead of
applying them; ``submit`` stops enqueueing at the next chunk boundary
and raises. The counters stay honest through this:
``records_submitted`` counts only records of chunks that were actually
enqueued, ``records_dropped`` counts records the apply thread discarded
(including the partially-applied failing sub-plane, whose shard state
is suspect), so ``records_submitted - records_dropped`` is the number
of records fully applied to the pool.

**Observability.** When the process-wide :mod:`repro.obs` registry is
enabled, the pipeline emits submitted/dropped counters, per-shard queue
depth gauges (every shard reads the chunk queue's depth: each queued
chunk carries at most one sub-plane per shard), and backpressure-wait /
per-shard apply latency histograms, and attaches per-shard SMB
adaptivity gauges via the pool observer (exposed as
:attr:`IngestPipeline.pool_observer`). All metric work happens per
chunk or per sub-plane — never per item — and with the default
:class:`~repro.obs.metrics.NullRegistry` the instrumented branches
collapse to a single ``is None`` check.

**Durability.** Constructed with a
:class:`~repro.engine.recovery.CheckpointManager` and
``checkpoint_every=N``, the submit path checkpoints the pool at a
drained safe point every ``N`` enqueued records (see
:meth:`IngestPipeline.checkpoint_now` and ``docs/recovery.md``); the
crash windows on both sides of the queue hand-off carry
:mod:`repro.testing.faults` failpoints for the fault-injection suite:
``pipeline.queue-put`` fires once per non-empty sub-plane before the
chunk's single enqueue, ``pipeline.worker-apply`` once per sub-plane
applied.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.engine.shards import ShardPool
from repro.hashing import canonical_u64_array
from repro.kernels import HashPlane
from repro.obs.metrics import get_registry
from repro.testing.faults import fire

if TYPE_CHECKING:  # import cycle guard: recovery imports checkpoint
    from types import TracebackType

    from repro.engine.recovery import CheckpointManager, Generation
    from repro.obs.instrument import PipelineMetrics, PoolObserver

#: Default chunk size of the submit path — same order as SMB's dedup
#: window (``repro.core.smb.BATCH_CHUNK``), large enough to amortize
#: vectorized hashing, small enough to keep queues responsive.
DEFAULT_CHUNK = 8192

_STOP = None  # queue sentinel


class IngestPipeline:
    """Concurrent, backpressured ingestion into a shard pool.

    Parameters
    ----------
    pool:
        The shard pool to ingest into. The pipeline takes exclusive
        write ownership of the pool until :meth:`close`.
    chunk_size:
        Submitted batches are partitioned in chunks of this many items.
    queue_depth:
        Bound of the chunk queue, in chunks; the submit path blocks
        (backpressure) when it is full.
    checkpoint_manager / checkpoint_every:
        Optional crash-durability wiring: with a
        :class:`~repro.engine.recovery.CheckpointManager` and a
        positive ``checkpoint_every`` (records), the submit path drains
        to a safe point and writes a checkpoint generation every time
        that many records have been enqueued since the last one. Set
        :attr:`checkpoint_meta` to enrich the generation metadata (the
        engine CLI records the absolute stream offset there for exact
        resume).
    """

    def __init__(
        self,
        pool: ShardPool,
        chunk_size: int = DEFAULT_CHUNK,
        queue_depth: int = 8,
        checkpoint_manager: "CheckpointManager | None" = None,
        checkpoint_every: int = 0,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every and checkpoint_manager is None:
            raise ValueError(
                "checkpoint_every requires a checkpoint_manager"
            )
        self.pool = pool
        self.chunk_size = int(chunk_size)
        self.records_submitted = 0  # guarded-by: _count_lock
        self._records_applied = 0  # guarded-by: _count_lock
        self.records_dropped = 0  # guarded-by: _count_lock
        self.checkpoint_manager = checkpoint_manager
        self.checkpoint_every = int(checkpoint_every)
        #: Optional ``() -> dict`` hook merged into every periodic
        #: checkpoint's metadata (e.g. an absolute stream offset).
        self.checkpoint_meta: Callable[[], dict[str, Any]] | None = None
        self._records_since_checkpoint = 0  # guarded-by: _count_lock
        # One lock for every counter that more than one thread writes:
        # submitted / applied / dropped / since-checkpoint / the pool's
        # routing-hash ops. Producers may be an executor pool, so the
        # unsynchronized += of a single-producer design would lose
        # updates. Cost is one uncontended acquire per *chunk* or
        # sub-batch, never per item.
        self._count_lock = threading.Lock()
        # Each entry is one chunk's list of (shard index, sub-plane)
        # pairs, or the _STOP sentinel, hence Any.
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=queue_depth)
        self._errors: list[BaseException] = []
        # Lifecycle state: _closed flips exactly once, under _lifecycle;
        # submits register in _active_submits so close() can wait for
        # them instead of racing them to the queue sentinels. _paused
        # counts outstanding quiesce requests (checkpoint_now): while it
        # is non-zero, new submits park at the gate instead of starting,
        # so a checkpoint drains a stable, chunk-aligned state even with
        # concurrent producers.
        self._lifecycle = threading.Condition()
        self._active_submits = 0  # guarded-by: _lifecycle
        self._paused = 0  # guarded-by: _lifecycle
        # Serializes checkpoint writers; the periodic trigger inside
        # submit try-acquires it so two producers crossing the threshold
        # together cannot deadlock waiting for each other to quiesce.
        self._checkpoint_mutex = threading.Lock()
        self._close_complete = threading.Event()
        self._closed = False  # guarded-by: _lifecycle
        registry = get_registry()
        self._obs: "PipelineMetrics | None" = None
        #: Per-shard estimate/skew gauges (None when obs disabled);
        #: call ``pool_observer.update()`` at safe points.
        self.pool_observer: "PoolObserver | None" = None
        if registry.enabled:
            from repro.obs.instrument import PipelineMetrics, PoolObserver

            self._obs = PipelineMetrics(registry, pool.num_shards)
            self.pool_observer = PoolObserver(registry, pool)
        self._applier = threading.Thread(
            target=self._apply, name="ingest-apply", daemon=True
        )
        self._applier.start()

    # ------------------------------------------------------------------
    # Apply side
    # ------------------------------------------------------------------
    def _apply(self) -> None:
        """Apply queued chunks to the shards (the apply thread)."""
        inbox = self._queue
        while True:
            chunk = inbox.get()
            try:
                if chunk is _STOP:
                    return
                self._apply_chunk(chunk)
            finally:
                inbox.task_done()

    def _apply_chunk(self, parts: list[tuple[int, HashPlane]]) -> None:
        """Apply one chunk's sub-planes in shard order.

        After any sub-plane has failed, the rest of this chunk and every
        later one is *dropped* (counted in :attr:`records_dropped`)
        instead of applied — the pool state is already suspect and the
        submitting thread is about to raise. Counters are billed once
        per chunk.
        """
        shards = self.pool.shards
        obs = self._obs
        applied = dropped = dropped_batches = 0
        # analysis: allow(purity.loop) -- one iteration per non-empty
        # sub-plane (at most K per chunk), each applied vectorized
        for shard_index, part in parts:
            if self._errors:
                dropped += part.size
                dropped_batches += 1
                continue
            began = time.perf_counter() if obs is not None else 0.0
            try:
                fire("pipeline.worker-apply")
                shards[shard_index]._record_plane(part)
                applied += part.size
            except BaseException as error:
                # Not re-raised: the apply thread must outlive any
                # failure or drain() would wait forever; producers
                # re-raise it from _errors. The failing sub-plane may be
                # partially applied, so bill it whole as dropped.
                self._errors.append(error)
                dropped += part.size
                dropped_batches += 1
            finally:
                if obs is not None:
                    obs.apply_latency[shard_index].observe(
                        time.perf_counter() - began
                    )
        if applied:
            self._count_applied(applied)
        if dropped:
            self._count_dropped(dropped, dropped_batches)
        if obs is not None:
            self._observe_depth(obs)

    def _count_dropped(self, count: int, batches: int) -> None:
        with self._count_lock:
            self.records_dropped += int(count)
        if self._obs is not None:
            self._obs.dropped.inc(count)
            self._obs.batches_dropped.inc(batches)

    def _count_applied(self, count: int) -> None:
        with self._count_lock:
            self._records_applied += int(count)

    @property
    def records_applied(self) -> int:
        """Records fully applied to the pool (the apply thread's counter)."""
        with self._count_lock:
            return self._records_applied

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, items: Iterable[object] | np.ndarray) -> int:
        """Partition a batch and enqueue it; returns the enqueued count.

        Blocks while the chunk queue is full (backpressure). Raises
        ``RuntimeError`` if the pipeline is closed or applying has
        failed — the failure check runs before *every* chunk, so a
        mid-stream apply failure stops the producer at the next chunk
        boundary. Counters (:attr:`records_submitted`, the pool's
        routing hash ops) only ever cover chunks that were actually
        enqueued — both are billed *after* the enqueue, so a failure
        mid-chunk (partitioner error, injected ``pipeline.queue-put``
        fault) enqueues nothing of that chunk and cannot skew
        routing-ops accounting relative to the record counters.

        Submit-vs-close is deterministic: a submit that starts after
        :meth:`close` was called raises immediately; a submit already
        in flight is waited for by ``close`` (nothing is ever enqueued
        behind the stop sentinel). While a :meth:`checkpoint_now` is
        quiescing, new submits park at the entry gate and resume once
        the generation is written — callers observe extra latency, not
        an error. Safe to call from many threads at once (an
        ``asyncio`` ``run_in_executor`` pool included).
        """
        with self._lifecycle:
            while self._paused and not self._closed:
                self._lifecycle.wait()
            if self._closed:
                raise RuntimeError("cannot submit to a closed pipeline")
            self._active_submits += 1
        try:
            return self._submit_registered(items)
        finally:
            with self._lifecycle:
                self._active_submits -= 1
                self._lifecycle.notify_all()

    def _submit_registered(self, items: Iterable[object] | np.ndarray) -> int:
        """The body of :meth:`submit`, after lifecycle registration."""
        self._raise_pending()
        values = canonical_u64_array(items)
        # Hash and split in the producer, at full chunk width, so the
        # apply thread only records; with one shard the split is the
        # identity and the prefetch is all the hashing there is.
        requests = self.pool.plane_requests()
        obs = self._obs
        enqueued = 0
        for start in range(0, values.size, self.chunk_size):
            self._raise_pending()  # fast-fail between chunks
            plane = HashPlane(values[start:start + self.chunk_size])
            plane.prefetch(requests)
            parts = [
                (shard_index, part)
                for shard_index, part in enumerate(
                    self.pool.partitioner.split_plane(plane)
                )
                if part.size
            ]
            # analysis: allow(purity.loop) -- one failpoint per
            # non-empty sub-plane (at most K per chunk), never per item
            for __ in parts:
                fire("pipeline.queue-put")
            if obs is None:
                self._queue.put(parts)
            else:
                self._put_observed(parts, obs)
            # Billed only after the chunk is enqueued — the routing
            # hashes were *used* (split_plane), but accounting must stay
            # consistent with records_submitted, which a mid-chunk
            # failure must not advance either. Same routing-hash
            # accounting as ShardPool._record_plane (the pipeline
            # partitions directly, bypassing that method).
            checkpoint_due = False
            with self._count_lock:
                if self.pool.num_shards > 1:
                    self.pool._route_hash_ops += plane.size
                self.records_submitted += plane.size
                if self.checkpoint_every:
                    self._records_since_checkpoint += plane.size
                    checkpoint_due = (
                        self._records_since_checkpoint
                        >= self.checkpoint_every
                    )
            enqueued += plane.size
            if obs is not None:
                obs.submitted.inc(plane.size)
            if checkpoint_due:
                # Try-acquire: when several producers cross the
                # threshold together exactly one writes the generation
                # (it quiesces the others); the losers skip and the
                # still-high since-checkpoint counter re-triggers on
                # the winner's next chunk if the threshold is crossed
                # again.
                if self._checkpoint_mutex.acquire(blocking=False):
                    try:
                        self._checkpoint_quiesced(None, active_allowance=1)
                    finally:
                        self._checkpoint_mutex.release()
        return enqueued

    def checkpoint_now(
        self, meta: dict[str, Any] | None = None
    ) -> "Generation":
        """Drain to a safe point and write one checkpoint generation.

        Requires a ``checkpoint_manager``. Producers are quiesced
        first (new submits park at the entry gate, in-flight submits
        are waited out) and the pool is then drained, so the generation
        captures a state exactly equivalent to a synchronous ingest of
        every record submitted so far — never a half-enqueued chunk
        from a concurrent producer. The metadata records
        :attr:`records_submitted` (plus anything the
        :attr:`checkpoint_meta` hook or the ``meta`` argument adds), so
        a resumed run knows the exact stream offset to replay from.
        Concurrent callers serialize; each writes its own generation.
        """
        with self._checkpoint_mutex:
            return self._checkpoint_quiesced(meta, active_allowance=0)

    def _checkpoint_quiesced(
        self, meta: dict[str, Any] | None, active_allowance: int
    ) -> "Generation":
        """Quiesce producers, drain, save one generation, resume.

        ``active_allowance`` is the number of in-flight submits allowed
        to remain registered while draining: 0 for an external caller,
        1 when called *from inside* a submit (the caller itself). The
        caller must hold :attr:`_checkpoint_mutex`.
        """
        if self.checkpoint_manager is None:
            raise RuntimeError(
                "pipeline has no checkpoint_manager to checkpoint into"
            )
        with self._lifecycle:
            self._paused += 1
            while self._active_submits > active_allowance:
                self._lifecycle.wait()
        try:
            self.drain()
            merged: dict[str, Any] = {}
            if self.checkpoint_meta is not None:
                merged.update(self.checkpoint_meta())
            if meta:
                merged.update(meta)
            with self._count_lock:
                merged.setdefault("records_submitted", self.records_submitted)
            generation = self.checkpoint_manager.save(self.pool, meta=merged)
            with self._count_lock:
                self._records_since_checkpoint = 0
            return generation
        finally:
            with self._lifecycle:
                self._paused -= 1
                self._lifecycle.notify_all()

    def _put_observed(
        self, parts: list[tuple[int, HashPlane]], obs: "PipelineMetrics"
    ) -> None:
        """Enqueue one chunk, timing any backpressure stall."""
        try:
            self._queue.put_nowait(parts)
        except queue.Full:
            began = time.perf_counter()
            self._queue.put(parts)
            obs.backpressure.observe(time.perf_counter() - began)
        self._observe_depth(obs)

    def _observe_depth(self, obs: "PipelineMetrics") -> None:
        """Publish the chunk queue's depth on every shard's gauge."""
        depth = self._queue.qsize()
        # analysis: allow(purity.loop) -- one gauge per shard (K), per chunk
        for gauge in obs.queue_depth:
            gauge.set(depth)

    def drain(self) -> None:
        """Block until every enqueued chunk has been applied.

        After ``drain`` returns (and before further ``submit`` calls)
        the estimator state is identical to a synchronous ingest of all
        submitted items — a safe point to query or checkpoint.
        """
        self._queue.join()
        if self.pool_observer is not None:
            self.pool_observer.update()
        self._raise_pending()

    def estimate(self) -> float:
        """Drain, then return the pool's cardinality estimate."""
        self.drain()
        return self.pool.query()

    def close(self) -> None:
        """Drain, stop the apply thread, and surface any apply error.

        Thread-safe and idempotent *under concurrency*: the ``_closed``
        flip happens under the lifecycle lock, so exactly one caller
        becomes the finisher (joins the queue, enqueues the stop
        sentinel once, joins the apply thread); every other concurrent
        or later call waits for that shutdown to complete and returns.
        The finisher also waits out in-flight :meth:`submit` calls
        before sending the sentinel, so no chunk is ever enqueued
        behind it — the submit-vs-close race resolves deterministically
        (late submits raise, in-flight submits finish first).
        """
        with self._lifecycle:
            finisher = not self._closed
            self._closed = True
            # Wake submits parked at the pause gate so they observe the
            # close and raise instead of sleeping until the in-progress
            # checkpoint (if any) notifies.
            self._lifecycle.notify_all()
            if finisher:
                while self._active_submits:
                    self._lifecycle.wait()
        if not finisher:
            self._close_complete.wait()
            return
        try:
            self._queue.join()
            self._queue.put(_STOP)
            self._applier.join()
            if self.pool_observer is not None:
                self.pool_observer.update()
        finally:
            self._close_complete.set()
        self._raise_pending()

    def _raise_pending(self) -> None:
        if self._errors:
            raise RuntimeError(
                "ingest worker failed"
            ) from self._errors[0]

    def __enter__(self) -> "IngestPipeline":
        """Enter: the pipeline is usable immediately after construction."""
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: "TracebackType | None",
    ) -> None:
        """Exit: close the pipeline (always drains — after an apply
        failure the remaining queue entries drain as counted drops)."""
        self.close()

    def __repr__(self) -> str:
        # analysis: allow(guards.unguarded-access) -- diagnostic repr:
        # lock-free reads of GIL-atomic ints/bools. A momentarily stale
        # value is fine here, and taking locks in repr would let a
        # debugger contend with the ingest path.
        submitted = self.records_submitted
        # analysis: allow(guards.unguarded-access) -- same repr waiver
        dropped = self.records_dropped
        # analysis: allow(guards.unguarded-access) -- same repr waiver
        closed = self._closed
        return (
            f"IngestPipeline(shards={self.pool.num_shards}, "
            f"chunk_size={self.chunk_size}, "
            f"submitted={submitted}, dropped={dropped}, closed={closed})"
        )
