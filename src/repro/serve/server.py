"""The asyncio cardinality server.

:class:`CardinalityServer` binds a TCP listener speaking the frame
protocol of :mod:`repro.serve.protocol` over a
:class:`~repro.serve.tenants.TenantRegistry`, with one
:class:`~repro.engine.pipeline.IngestPipeline` per active tenant.

**Connection model.** Each connection is an ``asyncio.Protocol`` (the
callback API, not streams — the hot ESTIMATE path must not pay a task
switch per request). Responses are strictly FIFO per connection, so
clients pipeline freely:

- while a connection has no asynchronous work pending, fast verbs
  (ESTIMATE, STATS, malformed frames) are answered *inline* inside
  ``data_received`` — a pipelined burst of ESTIMATEs is decoded,
  served and answered with a single ``write`` per ``data_received``
  call;
- the first slow verb (RECORD, CHECKPOINT) parks the connection's
  frames in a backlog drained by one sequential task, preserving order
  until the backlog empties, at which point the connection returns to
  inline mode.

**Backpressure** is layered: the per-connection backlog pauses the
transport (``pause_reading``) above a high-water mark and resumes below
a low-water mark, and the per-tenant pipelines' bounded shard queues
block the executor thread running ``submit`` — a flooding producer
stalls in its own lane; it cannot exhaust server memory.

**Ingest vs checkpoint.** RECORDs hold a shared (reader) side of an
async gate; CHECKPOINT — and the final checkpoint of :meth:`stop` —
takes the exclusive side, drains every pipeline to a safe point and
saves the whole registry as one atomic
:class:`~repro.engine.recovery.CheckpointManager` generation. A server
restarted with ``resume=True`` restores the newest valid generation
and continues bit-exact from that safe point.

**Estimates are lock-light.** ESTIMATE reads the tenant pool's O(1)
query directly — no drain, no locks, no allocation for unknown tenants
— so its answer reflects all *applied* records and may lag records
still queued in the pipeline; issue CHECKPOINT (or stop recording)
first when an exact cut-off matters. This is the paper's operating
point: the estimate is available at any instant at O(1) cost.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import TYPE_CHECKING, cast

from repro.engine.pipeline import DEFAULT_CHUNK, IngestPipeline
from repro.estimators.base import CardinalityEstimator, IncompatibleSketchError
from repro.obs.metrics import get_registry
from repro.serve import protocol
from repro.serve.protocol import (
    Checkpoint,
    CheckpointOk,
    Estimate,
    EstimateOk,
    Export,
    ExportOk,
    FrameDecoder,
    MergeIn,
    MergeInOk,
    ProtocolError,
    Record,
    RecordOk,
    Stats,
    StatsOk,
    encode_error,
    encode_response,
)
from repro.serve.tenants import TenantConfig, TenantLimitError, TenantRegistry
from repro.wire import decode_sketch, encode_sketch

if TYPE_CHECKING:
    from repro.engine.recovery import CheckpointManager, Generation

__all__ = ["CardinalityServer"]

#: Per-connection backlog watermarks (frames). Above the high mark the
#: transport stops reading; below the low mark it resumes.
BACKLOG_HIGH = 64
BACKLOG_LOW = 8

#: STATS includes the per-tenant record accounting only up to this many
#: tenants; beyond it only the aggregate is reported (the document is
#: sent on every STATS request and must stay bounded).
STATS_TENANT_DETAIL_LIMIT = 256


class _IngestGate:
    """A tiny async reader/writer gate.

    RECORD handlers hold the shared side; CHECKPOINT and shutdown take
    the exclusive side. A pending writer blocks *new* readers (no
    writer starvation) and then waits out the in-flight ones, so the
    pipelines it drains are quiesced — the asyncio twin of the
    pipeline's own producer pause gate.
    """

    def __init__(self) -> None:
        self._readers = 0  # guarded-by: _condition
        self._writer = False  # guarded-by: _condition
        self._condition = asyncio.Condition()

    async def acquire_read(self) -> None:
        async with self._condition:
            while self._writer:
                await self._condition.wait()
            self._readers += 1

    async def release_read(self) -> None:
        async with self._condition:
            self._readers -= 1
            if not self._readers:
                self._condition.notify_all()

    async def acquire_write(self) -> None:
        async with self._condition:
            while self._writer:
                await self._condition.wait()
            self._writer = True
            try:
                while self._readers:
                    await self._condition.wait()
            except asyncio.CancelledError:
                # Cancelled while waiting out readers (a client can
                # vanish mid-CHECKPOINT): roll the claim back, or every
                # future writer *and reader* would block forever.
                self._writer = False
                self._condition.notify_all()
                raise

    async def release_write(self) -> None:
        async with self._condition:
            self._writer = False
            self._condition.notify_all()


class _Connection(asyncio.Protocol):
    """One client connection: frame splitting, FIFO dispatch, writes."""

    def __init__(self, server: "CardinalityServer") -> None:
        self._server = server
        self._decoder = FrameDecoder(server.max_frame)
        self._backlog: deque[bytes] = deque()
        self._worker: asyncio.Task | None = None
        self._paused = False
        self.transport: asyncio.Transport | None = None

    # -- asyncio.Protocol callbacks ------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self._server._register_connection(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        if self._worker is not None:
            self._worker.cancel()
        self._server._unregister_connection(self)

    def data_received(self, data: bytes) -> None:
        server = self._server
        if server.metrics is not None:
            server.metrics.bytes_read.inc(len(data))
        out = bytearray()
        try:
            for body in self._decoder.feed(data):
                if self._worker is not None:
                    self._backlog.append(body)
                    continue
                response = server.handle_inline(body)
                if response is None:
                    self._backlog.append(body)
                    self._worker = server._loop.create_task(
                        self._drain_backlog()
                    )
                else:
                    out += response
        except ProtocolError as error:
            # Framing itself is lost: answer once, then hang up.
            out += encode_error(error.code, str(error))
            self._write(bytes(out))
            if server.metrics is not None:
                server.metrics.error(error.code)
            if self.transport is not None:
                self.transport.close()
            return
        if out:
            self._write(bytes(out))
        self._maybe_pause()

    def eof_received(self) -> bool:
        return False  # close when the peer half-closes

    # -- internals -----------------------------------------------------
    def _write(self, payload: bytes) -> None:
        if self.transport is None:
            return
        self.transport.write(payload)
        if self._server.metrics is not None:
            self._server.metrics.bytes_written.inc(len(payload))

    def _maybe_pause(self) -> None:
        if (
            not self._paused
            and len(self._backlog) > BACKLOG_HIGH
            and self.transport is not None
        ):
            self._paused = True
            self.transport.pause_reading()

    def _maybe_resume(self) -> None:
        if (
            self._paused
            and len(self._backlog) < BACKLOG_LOW
            and self.transport is not None
        ):
            self._paused = False
            self.transport.resume_reading()

    async def _drain_backlog(self) -> None:
        """Serve backlogged frames in order, then return to inline mode."""
        try:
            while self._backlog:
                body = self._backlog.popleft()
                try:
                    response = await self._server.handle(body)
                except Exception as error:
                    # An unexpected handler failure must not kill the
                    # drain task: the stranded frames would never be
                    # answered while later fast verbs are served inline
                    # ahead of them, breaking FIFO for pipelining
                    # clients. Answer E_INTERNAL and keep draining.
                    response = self._server._error(
                        protocol.E_INTERNAL, f"internal error: {error!r}"
                    )
                self._write(response)
                self._maybe_resume()
        finally:
            # No await between the empty-backlog check and this line,
            # so data_received cannot have parked a frame that nobody
            # will drain.
            self._worker = None
            if self._backlog and self.transport is not None:
                # Exited with frames still parked (cancellation or a
                # non-Exception failure): responses can no longer be
                # delivered in order, so hang up rather than desync.
                self.transport.close()
            self._maybe_resume()


class CardinalityServer:
    """The serving layer: a TCP frame server over a tenant registry.

    Parameters
    ----------
    config:
        Estimator sizing shared by every tenant.
    checkpoint_manager:
        Optional durability wiring; enables the CHECKPOINT verb, the
        final checkpoint of :meth:`stop`, and ``resume``.
    resume:
        Restore the newest valid generation from the manager's
        directory at :meth:`start` (fresh start when none restores;
        an unsupported format version is refused, see :meth:`start`).
    chunk_size / queue_depth:
        Per-tenant :class:`~repro.engine.pipeline.IngestPipeline`
        tuning. Each active tenant costs one apply thread — bound
        ``config.max_tenants`` accordingly. Both must be >= 1
        (``ValueError`` at construction otherwise).
    """

    def __init__(
        self,
        config: TenantConfig | None = None,
        checkpoint_manager: "CheckpointManager | None" = None,
        resume: bool = False,
        chunk_size: int = DEFAULT_CHUNK,
        queue_depth: int = 8,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.config = config if config is not None else TenantConfig()
        self.checkpoint_manager = checkpoint_manager
        self.resume = bool(resume)
        self.chunk_size = int(chunk_size)
        self.queue_depth = int(queue_depth)
        self.max_frame = int(max_frame)
        self.registry = TenantRegistry(self.config)
        #: Number of the newest generation saved or restored (0 = none).
        self.last_generation = 0
        self._pipelines: dict[str, IngestPipeline] = {}
        self._connections: set[_Connection] = set()
        self._gate = _IngestGate()
        self._listener: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop = None  # type: ignore[assignment]
        self._shutting_down = False
        self._started_at = 0.0
        obs = get_registry()
        if obs.enabled:
            from repro.obs.instrument import ServerMetrics

            self.metrics: "ServerMetrics | None" = ServerMetrics(obs)
        else:
            self.metrics = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and listen; returns the actual (host, port) bound.

        With ``resume=True`` and a checkpoint manager, the newest valid
        generation is restored first (a missing or unreadable directory
        falls back to a fresh registry — the same semantics as the
        engine CLI's ``--resume``). Generations in a format version
        this build cannot read raise
        :class:`~repro.engine.recovery.IncompatibleCheckpointError`
        instead: starting fresh over them would discard their data.
        """
        if self._listener is not None:
            raise RuntimeError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._started_at = time.perf_counter()
        if self.resume and self.checkpoint_manager is not None:
            from repro.engine.recovery import (
                IncompatibleCheckpointError,
                RecoveryError,
            )

            try:
                restored, generation = self.checkpoint_manager.load_latest()
            except IncompatibleCheckpointError:
                raise
            except RecoveryError:
                pass  # nothing restorable: fresh start
            else:
                if not isinstance(restored, TenantRegistry):
                    raise RecoveryError(
                        "checkpoint directory holds a "
                        f"{type(restored).__name__}, not a TenantRegistry"
                    )
                if (
                    restored.config.canonical_json()
                    != self.config.canonical_json()
                ):
                    # Adopting the checkpoint's config would silently
                    # ignore the server's sizing flags; keeping the
                    # server's would mis-describe the restored pools.
                    raise RecoveryError(
                        "checkpointed tenant config does not match the "
                        f"server's: checkpoint has "
                        f"{restored.config.canonical_json()}, server "
                        f"configured {self.config.canonical_json()}; "
                        "restart with matching sizing flags or point at "
                        "a fresh checkpoint directory"
                    )
                self.registry = restored
                self.last_generation = generation.generation
        self._listener = await self._loop.create_server(
            lambda: _Connection(self), host, port
        )
        sockets = self._listener.sockets
        bound = sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        """Block until the listener is closed (by :meth:`stop`)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        try:
            await self._listener.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> "Generation | None":
        """Graceful drain: stop accepting, quiesce, checkpoint, close.

        New RECORD/CHECKPOINT requests are refused with SHUTTING_DOWN
        while in-flight ones are waited out (the exclusive gate); every
        pipeline is then closed (which drains it) and — when a manager
        is configured — one final generation captures the fully-applied
        registry, so a ``resume`` restart is bit-exact with no replay.
        """
        self._shutting_down = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        await self._gate.acquire_write()
        try:
            final = await self._loop.run_in_executor(
                None, self._close_and_checkpoint
            )
        finally:
            await self._gate.release_write()
        for connection in list(self._connections):
            if connection.transport is not None:
                connection.transport.close()
        return final

    def _close_and_checkpoint(self) -> "Generation | None":
        for pipeline in self._pipelines.values():
            pipeline.close()
        if self.checkpoint_manager is None:
            return None
        generation = self.checkpoint_manager.save(
            cast(CardinalityEstimator, self.registry),
            meta=self._checkpoint_meta(final=True),
        )
        self.last_generation = generation.generation
        return generation

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_inline(self, body: bytes) -> bytes | None:
        """Serve one frame synchronously if it needs no awaiting.

        Returns the encoded response for fast verbs (ESTIMATE, STATS)
        and for malformed frames; returns ``None`` for slow verbs
        (RECORD, CHECKPOINT), which the caller must queue for the
        sequential path.
        """
        metrics = self.metrics
        began = time.perf_counter() if metrics is not None else 0.0
        try:
            request = protocol.decode_request(body)
        except ProtocolError as error:
            if metrics is not None:
                metrics.error(error.code)
            return encode_error(error.code, str(error))
        if isinstance(request, (Estimate, Stats)):
            return self._respond_fast(request, began)
        return None

    def _respond_fast(
        self, request: Estimate | Stats, began: float
    ) -> bytes:
        try:
            if isinstance(request, Estimate):
                response = encode_response(
                    EstimateOk(self.registry.estimate(request.tenant))
                )
                verb = "estimate"
            else:
                response = encode_response(StatsOk(self.stats_document()))
                verb = "stats"
        except Exception as error:
            # The lock-light fast path reads estimator state that the
            # pipeline's apply thread mutates concurrently; an exception
            # here (however unlikely — SMB.query snapshots its counters)
            # must become an error *frame*, not escape data_received
            # and tear the connection down.
            return self._error(protocol.E_INTERNAL, f"query failed: {error!r}")
        metrics = self.metrics
        if metrics is not None:
            metrics.requests[verb].inc()
            metrics.latency[verb].observe(time.perf_counter() - began)
        return response

    async def handle(self, body: bytes) -> bytes:
        """Serve one frame on the sequential (backlog) path."""
        metrics = self.metrics
        began = time.perf_counter() if metrics is not None else 0.0
        try:
            request = protocol.decode_request(body)
        except ProtocolError as error:
            if metrics is not None:
                metrics.error(error.code)
            return encode_error(error.code, str(error))
        if isinstance(request, (Estimate, Stats)):
            return self._respond_fast(request, began)
        if metrics is not None:
            metrics.in_flight.inc()
        try:
            if isinstance(request, Record):
                response = await self._handle_record(request)
                verb = "record"
            elif isinstance(request, Export):
                response = await self._handle_export(request)
                verb = "export"
            elif isinstance(request, MergeIn):
                response = await self._handle_merge_in(request)
                verb = "merge_in"
            else:
                assert isinstance(request, Checkpoint)
                response = await self._handle_checkpoint()
                verb = "checkpoint"
        finally:
            if metrics is not None:
                metrics.in_flight.dec()
        if metrics is not None:
            metrics.requests[verb].inc()
            metrics.latency[verb].observe(time.perf_counter() - began)
        return response

    async def _handle_record(self, request: Record) -> bytes:
        if self._shutting_down:
            return self._error(
                protocol.E_SHUTTING_DOWN, "server is draining"
            )
        # Shielded: a client disconnect cancels its backlog worker, but
        # the submit keeps running in the executor regardless — the gate
        # must stay held until it finishes, or a concurrent CHECKPOINT
        # could capture a half-enqueued chunk.
        return await asyncio.shield(self._record_gated(request))

    async def _record_gated(self, request: Record) -> bytes:
        await self._gate.acquire_read()
        try:
            try:
                pipeline = self._pipeline(request.tenant)
            except TenantLimitError as error:
                return self._error(protocol.E_OVERLOADED, str(error))
            try:
                accepted = await self._loop.run_in_executor(
                    None, pipeline.submit, request.keys
                )
            except RuntimeError as error:
                return self._error(protocol.E_INTERNAL, str(error))
            # Acknowledge what the pipeline actually enqueued, not what
            # the client sent — they differ when sub-batches are dropped
            # (worker failure, fault injection).
            return encode_response(RecordOk(int(accepted)))
        finally:
            await self._gate.release_read()

    async def _handle_checkpoint(self) -> bytes:
        if self.checkpoint_manager is None:
            return self._error(
                protocol.E_INTERNAL,
                "checkpointing is not configured (start the server with "
                "a checkpoint directory)",
            )
        if self._shutting_down:
            return self._error(
                protocol.E_SHUTTING_DOWN, "server is draining"
            )
        # Shielded: cancellation mid-checkpoint (client disconnect) must
        # not release the exclusive gate while the save still runs in
        # the executor — the drain/save/release sequence is atomic with
        # respect to connection lifetime.
        return await asyncio.shield(self._checkpoint_gated())

    async def _checkpoint_gated(self) -> bytes:
        await self._gate.acquire_write()
        try:
            generation = await self._loop.run_in_executor(
                None, self._checkpoint_sync
            )
        except (OSError, RuntimeError, ValueError) as error:
            return self._error(protocol.E_INTERNAL, str(error))
        finally:
            await self._gate.release_write()
        return encode_response(CheckpointOk(generation.generation))

    def _checkpoint_sync(self) -> "Generation":
        # The exclusive gate guarantees no RECORD is mid-submit, so
        # drain really is a safe point across every tenant at once.
        for pipeline in self._pipelines.values():
            pipeline.drain()
        assert self.checkpoint_manager is not None
        generation = self.checkpoint_manager.save(
            cast(CardinalityEstimator, self.registry),
            meta=self._checkpoint_meta(final=False),
        )
        self.last_generation = generation.generation
        return generation

    def _checkpoint_meta(self, final: bool) -> dict:
        submitted, applied, dropped = self._record_totals()
        return {
            "records_submitted": submitted,
            "records_applied": applied,
            "records_dropped": dropped,
            "tenants": len(self.registry),
            "final": final,
        }

    async def _handle_export(self, request: Export) -> bytes:
        if self._shutting_down:
            return self._error(
                protocol.E_SHUTTING_DOWN, "server is draining"
            )
        # Shielded like CHECKPOINT: the drain/encode must finish and the
        # exclusive gate be released even if the client disconnects.
        return await asyncio.shield(self._export_gated(request.tenant))

    async def _export_gated(self, tenant: str) -> bytes:
        await self._gate.acquire_write()
        try:
            frame = await self._loop.run_in_executor(
                None, self._export_sync, tenant
            )
        except (RuntimeError, ValueError) as error:
            return self._error(protocol.E_INTERNAL, str(error))
        finally:
            await self._gate.release_write()
        return encode_response(ExportOk(frame))

    def _export_sync(self, tenant: str) -> bytes:
        # The exclusive gate quiesced ingest, so drain reaches a safe
        # point and the exported frame is a consistent cut.
        pipeline = self._pipelines.get(tenant)
        if pipeline is not None:
            pipeline.drain()
        pool = self.registry.pools.get(tenant)
        if pool is None:
            # Unknown tenant: export a deterministic empty pool without
            # registering it — EXPORT, like ESTIMATE, never mutates the
            # registry, and the empty frame merges as the identity.
            pool = self.config.build_pool(tenant)
        return encode_sketch(pool)

    async def _handle_merge_in(self, request: MergeIn) -> bytes:
        if self._shutting_down:
            return self._error(
                protocol.E_SHUTTING_DOWN, "server is draining"
            )
        # Shielded: the registry pool mutates inside the executor; the
        # gate must outlive any client disconnect mid-merge.
        return await asyncio.shield(self._merge_in_gated(request))

    async def _merge_in_gated(self, request: MergeIn) -> bytes:
        await self._gate.acquire_write()
        try:
            estimate = await self._loop.run_in_executor(
                None, self._merge_in_sync, request.tenant, request.frame
            )
        except TenantLimitError as error:
            return self._error(protocol.E_OVERLOADED, str(error))
        except (IncompatibleSketchError, TypeError, NotImplementedError) as error:
            # A bad sketch is the *request's* problem, not the
            # connection's: answer a typed error frame and keep serving.
            return self._error(protocol.E_INCOMPATIBLE, str(error))
        except ValueError as error:
            return self._error(
                protocol.E_BAD_PAYLOAD, f"undecodable sketch frame: {error}"
            )
        except RuntimeError as error:
            return self._error(protocol.E_INTERNAL, str(error))
        finally:
            await self._gate.release_write()
        return encode_response(MergeInOk(estimate))

    def _merge_in_sync(self, tenant: str, frame: bytes) -> float:
        sketch = decode_sketch(frame)  # ValueError -> E_BAD_PAYLOAD
        pipeline = self._pipelines.get(tenant)
        if pipeline is not None:
            # The apply thread mutates the registry pool in place; drain
            # to a safe point (the gate already stopped producers) so
            # the merge composes with fully-applied records.
            pipeline.drain()
        pool = self.registry.pool(tenant)  # may raise TenantLimitError
        pool.merge(sketch)  # typed incompatibility errors propagate
        return float(pool.query())

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _pipeline(self, tenant: str) -> IngestPipeline:
        pipeline = self._pipelines.get(tenant)
        if pipeline is None:
            pool = self.registry.pool(tenant)  # may raise TenantLimitError
            pipeline = IngestPipeline(
                pool,
                chunk_size=self.chunk_size,
                queue_depth=self.queue_depth,
            )
            self._pipelines[tenant] = pipeline
            if self.metrics is not None:
                self.metrics.tenants.set(len(self.registry))
        return pipeline

    def _record_totals(self) -> tuple[int, int, int]:
        submitted = applied = dropped = 0
        for pipeline in self._pipelines.values():
            submitted += pipeline.records_submitted
            applied += pipeline.records_applied
            dropped += pipeline.records_dropped
        return submitted, applied, dropped

    def stats_document(self) -> dict:
        """The STATS response body (also useful for in-process tests).

        ``records`` satisfies ``submitted == applied + dropped`` at any
        drained safe point (after CHECKPOINT, or once ingest is idle);
        mid-flight, ``applied`` lags ``submitted`` by what is queued.
        """
        submitted, applied, dropped = self._record_totals()
        document: dict = {
            "tenants": len(self.registry),
            "connections": len(self._connections),
            "shutting_down": self._shutting_down,
            "uptime_seconds": (
                time.perf_counter() - self._started_at
                if self._started_at
                else 0.0
            ),
            "records": {
                "submitted": submitted,
                "applied": applied,
                "dropped": dropped,
            },
            "checkpoint": {
                "configured": self.checkpoint_manager is not None,
                "generation": self.last_generation,
            },
        }
        if len(self.registry) <= STATS_TENANT_DETAIL_LIMIT:
            document["per_tenant"] = {
                tenant: {
                    "submitted": pipe.records_submitted,
                    "applied": pipe.records_applied,
                    "dropped": pipe.records_dropped,
                }
                for tenant, pipe in sorted(self._pipelines.items())
            }
        obs = get_registry()
        if obs.enabled:
            from repro.obs.render import snapshot

            document["metrics"] = snapshot(obs)["metrics"]
        return document

    def _error(self, code: int, message: str) -> bytes:
        if self.metrics is not None:
            self.metrics.error(code)
        return encode_error(code, message)

    # -- connection registry -------------------------------------------
    def _register_connection(self, connection: _Connection) -> None:
        self._connections.add(connection)
        if self.metrics is not None:
            self.metrics.connections.set(len(self._connections))
            self.metrics.connections_total.inc()

    def _unregister_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if self.metrics is not None:
            self.metrics.connections.set(len(self._connections))

    def __repr__(self) -> str:
        return (
            f"CardinalityServer(tenants={len(self.registry)}, "
            f"connections={len(self._connections)}, "
            f"generation={self.last_generation}, "
            f"shutting_down={self._shutting_down})"
        )
