"""Integration tests of the serving layer (in-process server).

An ephemeral :class:`~repro.serve.server.CardinalityServer` on
127.0.0.1:0 is driven through real sockets by asyncio clients:

- the headline test interleaves RECORD/ESTIMATE from several concurrent
  clients across *overlapping* tenants (disjoint key lanes per
  client/tenant pair keep the exact oracle in closed form), drains with
  CHECKPOINT, and checks every tenant's estimate against the oracle
  within the Theorem-3 tolerance of its SMB configuration — plus the
  ``submitted == applied + dropped`` accounting from STATS;
- protocol-level misbehavior over a live socket: garbage payloads get
  an ERROR frame while the connection keeps serving, broken framing
  gets an ERROR frame and a close;
- graceful stop + resume round-trips the whole registry bit-exactly;
- the load generator runs against the real server (it is both the
  benchmark driver and this suite's concurrency harness).

No pytest-asyncio in the toolchain: each test wraps its coroutine in
``asyncio.run`` — event-loop lifecycle is part of what is under test.
"""

import asyncio
import struct
import time

import numpy as np
import pytest

from repro.core.theory import smb_error_bound
from repro.core.tuning import optimal_threshold
from repro.engine.pipeline import IngestPipeline
from repro.engine.recovery import CheckpointManager, RecoveryError, RetryPolicy
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import run_load
from repro.serve.server import CardinalityServer, _IngestGate
from repro.serve.tenants import TenantConfig, TenantRegistry

MEMORY_BITS = 5000
DESIGN = 200_000


def make_config(**overrides) -> TenantConfig:
    base = dict(
        estimator="SMB",
        memory_bits=MEMORY_BITS,
        design_cardinality=DESIGN,
        shards=1,
        seed=7,
    )
    base.update(overrides)
    return TenantConfig(**base)


def manager(tmp_path) -> CheckpointManager:
    return CheckpointManager(
        tmp_path / "ckpts",
        sync_directory=False,
        orphan_grace=0.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda s: None),
    )


def theorem3_tolerance(n: int, confidence: float = 0.99) -> float:
    """Smallest δ Theorem 3 guarantees at cardinality n for our config."""
    threshold = optimal_threshold(MEMORY_BITS, DESIGN)
    for delta in np.linspace(0.005, 0.95, 400):
        if (
            smb_error_bound(float(delta), float(n), MEMORY_BITS, threshold)
            >= confidence
        ):
            return float(delta)
    pytest.fail("no δ < 0.95 reaches the requested confidence")


async def start_server(server: CardinalityServer) -> tuple[str, int]:
    return await server.start("127.0.0.1", 0)


# ----------------------------------------------------------------------
# Concurrency: interleaved clients over overlapping tenants
# ----------------------------------------------------------------------

def test_concurrent_clients_within_theorem3_tolerance(tmp_path):
    """N clients interleaving RECORD/ESTIMATE across shared tenants."""
    clients = 4
    tenants = ["shared-a", "shared-b", "shared-c"]
    rounds = 6
    batch = 4096

    async def one_client(host, port, client_index):
        async with await ServeClient.connect(host, port) as client:
            for round_index in range(rounds):
                tenant_index = (client_index + round_index) % len(tenants)
                lane = client_index * len(tenants) + tenant_index
                start = (lane + 1) * 10**9 + round_index * batch
                accepted = await client.record(
                    tenants[tenant_index],
                    np.arange(start, start + batch, dtype=np.uint64),
                )
                assert accepted == batch
                # Interleave the high-QPS verb against a tenant another
                # client is concurrently writing — must never error.
                other = tenants[(tenant_index + 1) % len(tenants)]
                value = await client.estimate(other)
                assert value >= 0.0

    async def scenario():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        host, port = await start_server(server)
        try:
            await asyncio.gather(
                *(one_client(host, port, index) for index in range(clients))
            )
            async with await ServeClient.connect(host, port) as control:
                generation = await control.checkpoint()  # drains
                assert generation >= 1
                estimates = {
                    tenant: await control.estimate(tenant)
                    for tenant in tenants
                }
                stats = await control.stats()
        finally:
            await server.stop()
        return estimates, stats

    estimates, stats = asyncio.run(scenario())

    # Exact oracle: every (client, tenant, round) lane is disjoint, so
    # a tenant's distinct count is (rounds hitting it across clients).
    exact = {tenant: 0 for tenant in tenants}
    for client_index in range(clients):
        for round_index in range(rounds):
            tenant = tenants[(client_index + round_index) % len(tenants)]
            exact[tenant] += batch
    for tenant in tenants:
        relative = abs(estimates[tenant] - exact[tenant]) / exact[tenant]
        assert relative <= theorem3_tolerance(exact[tenant]), (
            f"{tenant}: estimate {estimates[tenant]:.0f} vs exact "
            f"{exact[tenant]} (rel {relative:.4f})"
        )

    records = stats["records"]
    total_keys = clients * rounds * batch
    assert records["submitted"] == total_keys
    assert records["submitted"] == records["applied"] + records["dropped"]
    assert records["dropped"] == 0
    per_tenant = stats["per_tenant"]
    assert set(per_tenant) == set(tenants)
    for tenant in tenants:
        entry = per_tenant[tenant]
        assert entry["submitted"] == exact[tenant]
        assert entry["submitted"] == entry["applied"] + entry["dropped"]


# ----------------------------------------------------------------------
# Protocol behavior over a live socket
# ----------------------------------------------------------------------

def test_garbage_payload_gets_error_frame_and_connection_survives():
    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # A garbage body inside valid framing, then a valid request.
            writer.write(protocol.encode_frame(b"\xee nonsense"))
            writer.write(
                protocol.encode_request(protocol.Estimate("nobody"))
            )
            await writer.drain()
            decoder = protocol.FrameDecoder()
            responses = []
            while len(responses) < 2:
                chunk = await reader.read(65536)
                assert chunk, "server closed a recoverable connection"
                responses.extend(
                    protocol.decode_response(body)
                    for body in decoder.feed(chunk)
                )
            writer.close()
            return responses
        finally:
            await server.stop()

    first, second = asyncio.run(scenario())
    assert isinstance(first, protocol.Error)
    assert first.code == protocol.E_UNKNOWN_VERB
    assert isinstance(second, protocol.EstimateOk)
    assert second.estimate == 0.0  # unknown tenant reads as empty


def test_broken_framing_gets_error_frame_then_close():
    async def scenario():
        server = CardinalityServer(make_config(), max_frame=1024)
        host, port = await start_server(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack("<I", 2**31))  # absurd length prefix
            await writer.drain()
            payload = await reader.read()  # server answers, then EOF
            writer.close()
            return payload
        finally:
            await server.stop()

    payload = asyncio.run(scenario())
    decoder = protocol.FrameDecoder()
    (body,) = list(decoder.feed(payload))
    error = protocol.decode_response(body)
    assert isinstance(error, protocol.Error)
    assert error.code == protocol.E_BAD_FRAME
    decoder.check_eof()  # nothing after the error frame


def test_tenant_limit_is_overloaded_error():
    async def scenario():
        server = CardinalityServer(make_config(max_tenants=1))
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                await client.record(
                    "first", np.arange(10, dtype=np.uint64)
                )
                with pytest.raises(ServeError) as caught:
                    await client.record(
                        "second", np.arange(10, dtype=np.uint64)
                    )
                return caught.value
        finally:
            await server.stop()

    error = asyncio.run(scenario())
    assert error.code == protocol.E_OVERLOADED
    assert error.transient  # RetryPolicy will retry it


@pytest.mark.parametrize("sizes", [{"chunk_size": 0}, {"queue_depth": 0}])
def test_invalid_pipeline_sizes_rejected_at_construction(sizes):
    """A bad chunk or queue size fails when the server is built, not as
    an E_INTERNAL on every later RECORD."""
    (name,) = sizes
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        CardinalityServer(make_config(), **sizes)


def test_checkpoint_without_manager_is_clean_error():
    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(ServeError) as caught:
                    await client.checkpoint()
                return caught.value
        finally:
            await server.stop()

    assert asyncio.run(scenario()).code == protocol.E_INTERNAL


def test_stats_document_shape():
    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                await client.record(
                    "alpha", np.arange(1000, dtype=np.uint64)
                )
                return await client.stats()
        finally:
            await server.stop()

    stats = asyncio.run(scenario())
    assert stats["tenants"] == 1
    assert stats["connections"] == 1
    assert stats["shutting_down"] is False
    assert stats["records"]["submitted"] == 1000
    assert stats["checkpoint"] == {"configured": False, "generation": 0}
    assert "alpha" in stats["per_tenant"]


# ----------------------------------------------------------------------
# Cancellation vs the ingest gate (client disconnect mid-verb)
# ----------------------------------------------------------------------

def test_ingest_gate_survives_cancelled_writer():
    """A writer cancelled while waiting out readers must roll back.

    Regression: ``acquire_write`` used to set ``_writer`` before
    awaiting in-flight readers; cancellation at that await left the
    claim in place forever, deadlocking every later RECORD, CHECKPOINT
    and ``stop()``.
    """

    async def scenario():
        gate = _IngestGate()
        await gate.acquire_read()
        writer = asyncio.create_task(gate.acquire_write())
        await asyncio.sleep(0)  # writer claims the gate, parks on readers
        await asyncio.sleep(0)
        writer.cancel()
        with pytest.raises(asyncio.CancelledError):
            await writer
        await gate.release_read()
        # The gate must be fully usable afterwards, in both directions.
        await asyncio.wait_for(gate.acquire_write(), timeout=2.0)
        await gate.release_write()
        await asyncio.wait_for(gate.acquire_read(), timeout=2.0)
        await gate.release_read()

    asyncio.run(scenario())


def test_cancelled_checkpoint_does_not_wedge_the_gate(
    tmp_path, monkeypatch
):
    """Cancelling a CHECKPOINT parked behind a RECORD leaves no debris.

    The per-connection worker is cancelled when a client disconnects
    mid-verb; the exclusive side of the gate (and the checkpoint work
    itself) must survive that and keep serving everyone else.
    """
    real_submit = IngestPipeline.submit

    def slow_submit(self, items):
        time.sleep(0.3)  # hold the read gate long enough to race
        return real_submit(self, items)

    monkeypatch.setattr(IngestPipeline, "submit", slow_submit)

    def body_of(request) -> bytes:
        (body,) = protocol.FrameDecoder().feed(
            protocol.encode_request(request)
        )
        return body

    def response_of(framed: bytes):
        (body,) = protocol.FrameDecoder().feed(framed)
        return protocol.decode_response(body)

    async def scenario():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        await server.start("127.0.0.1", 0)
        try:
            record = server._loop.create_task(
                server.handle(
                    body_of(
                        protocol.Record(
                            "alpha", np.arange(64, dtype=np.uint64)
                        )
                    )
                )
            )
            await asyncio.sleep(0.05)  # RECORD holds the read gate
            checkpoint = server._loop.create_task(
                server.handle(body_of(protocol.Checkpoint()))
            )
            await asyncio.sleep(0.05)  # CHECKPOINT waits out the reader
            checkpoint.cancel()
            with pytest.raises(asyncio.CancelledError):
                await checkpoint
            assert isinstance(response_of(await record), protocol.RecordOk)
            # The gate must not be wedged: a fresh CHECKPOINT completes.
            answer = await asyncio.wait_for(
                server.handle(body_of(protocol.Checkpoint())), timeout=5.0
            )
            assert isinstance(response_of(answer), protocol.CheckpointOk)
        finally:
            await asyncio.wait_for(server.stop(), timeout=10.0)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Fault containment on both serving paths
# ----------------------------------------------------------------------

def test_unexpected_backlog_failure_answers_internal_in_order():
    """An uncaught handler error must not strand the drain task.

    Regression: an exception outside the anticipated types killed the
    backlog worker silently — later frames were never answered while
    new fast verbs jumped the queue, desynchronizing pipelined clients.
    """

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)

        def boom(tenant):
            raise ZeroDivisionError("synthetic pipeline failure")

        server._pipeline = boom
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # One pipelined burst: the RECORD parks the connection in
            # backlog mode; every frame must still be answered, in order.
            writer.write(
                protocol.encode_request(
                    protocol.Record("t", np.arange(8, dtype=np.uint64))
                )
            )
            writer.write(protocol.encode_request(protocol.Estimate("t")))
            writer.write(protocol.encode_request(protocol.Stats()))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            responses = []
            while len(responses) < 3:
                chunk = await reader.read(65536)
                assert chunk, "server closed a recoverable connection"
                responses.extend(
                    protocol.decode_response(body)
                    for body in decoder.feed(chunk)
                )
            writer.close()
            return responses
        finally:
            await server.stop()

    first, second, third = asyncio.run(scenario())
    assert isinstance(first, protocol.Error)
    assert first.code == protocol.E_INTERNAL
    assert isinstance(second, protocol.EstimateOk)
    assert isinstance(third, protocol.StatsOk)


def test_estimate_failure_is_error_frame_not_disconnect():
    """The inline fast path answers E_INTERNAL instead of tearing the
    connection down when a concurrent-read anomaly raises."""

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)

        def torn_read(tenant):
            raise ValueError("math domain error")

        server.registry.estimate = torn_read
        try:
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(ServeError) as caught:
                    await client.estimate("t")
                # Same connection keeps serving after the error frame.
                stats = await client.stats()
            return caught.value, stats
        finally:
            await server.stop()

    error, stats = asyncio.run(scenario())
    assert error.code == protocol.E_INTERNAL
    assert stats["tenants"] == 0


def test_record_ack_reports_pipeline_accepted_count(monkeypatch):
    """RECORD acknowledges what the pipeline enqueued, not frame size."""
    monkeypatch.setattr(IngestPipeline, "submit", lambda self, items: 7)

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                return await client.record(
                    "t", np.arange(64, dtype=np.uint64)
                )
        finally:
            await server.stop()

    assert asyncio.run(scenario()) == 7


# ----------------------------------------------------------------------
# Stop / resume
# ----------------------------------------------------------------------

def test_graceful_stop_then_resume_is_bit_exact(tmp_path):
    keys = {
        "alpha": np.arange(0, 30_000, dtype=np.uint64),
        "beta": np.arange(10**9, 10**9 + 50_000, dtype=np.uint64),
    }

    async def first_run():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        host, port = await start_server(server)
        async with await ServeClient.connect(host, port) as client:
            for tenant, batch in keys.items():
                await client.record(tenant, batch)
        final = await server.stop()
        assert final is not None and final.meta["final"]
        return server.registry.to_bytes()

    async def resumed_run():
        server = CardinalityServer(
            make_config(),
            checkpoint_manager=manager(tmp_path),
            resume=True,
        )
        host, port = await start_server(server)
        try:
            assert server.last_generation >= 1
            async with await ServeClient.connect(host, port) as client:
                estimates = {
                    tenant: await client.estimate(tenant) for tenant in keys
                }
        finally:
            await server.stop()
        return server.registry.to_bytes(), estimates

    image_before = asyncio.run(first_run())
    image_after, estimates = asyncio.run(resumed_run())
    assert image_after == image_before  # bit-exact registry round-trip

    # And the resumed estimates equal a local oracle built identically.
    oracle = TenantRegistry(make_config())
    for tenant, batch in keys.items():
        oracle.record_many(tenant, batch)
    for tenant in keys:
        assert estimates[tenant] == oracle.estimate(tenant)


def test_resume_from_empty_directory_starts_fresh(tmp_path):
    async def scenario():
        server = CardinalityServer(
            make_config(),
            checkpoint_manager=manager(tmp_path),
            resume=True,
        )
        await start_server(server)
        try:
            return server.last_generation, len(server.registry)
        finally:
            await server.stop()

    generation, tenants = asyncio.run(scenario())
    assert generation == 0 and tenants == 0


def test_resume_with_mismatched_config_is_refused(tmp_path):
    """Resume must not silently ignore the server's sizing flags.

    Regression: a restored registry replaced ``server.registry``
    without comparing configs, so ``--memory-bits`` etc. appeared to
    take effect while the checkpointed sizing actually governed.
    """

    async def first_run():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        await server.start("127.0.0.1", 0)
        final = await server.stop()
        assert final is not None

    asyncio.run(first_run())

    async def mismatched_resume():
        server = CardinalityServer(
            make_config(memory_bits=9000),
            checkpoint_manager=manager(tmp_path),
            resume=True,
        )
        with pytest.raises(RecoveryError, match="does not match"):
            await server.start("127.0.0.1", 0)

    asyncio.run(mismatched_resume())


# ----------------------------------------------------------------------
# The loadgen harness against a real server
# ----------------------------------------------------------------------

def test_loadgen_end_to_end(tmp_path):
    async def scenario():
        server = CardinalityServer(
            make_config(design_cardinality=500_000),
            checkpoint_manager=manager(tmp_path),
        )
        host, port = await start_server(server)
        try:
            return await run_load(
                host,
                port,
                tenants=2,
                connections=2,
                record_frames=6,
                batch_size=4096,
                estimate_requests=500,
                window=32,
            )
        finally:
            await server.stop()

    result = asyncio.run(scenario())
    assert result["record"]["keys"] == 2 * 6 * 4096
    assert result["record"]["keys_per_second"] > 0
    assert result["estimate"]["requests"] == 2 * 500
    assert result["estimate"]["qps"] > 0
    latency = result["estimate"]["latency_seconds"]
    assert 0 <= latency["p50"] <= latency["p90"] <= latency["p99"]
    assert result["accuracy"]["max_relative_error"] <= theorem3_tolerance(
        6 * 4096 * 2 // 2, confidence=0.95
    )
    server_section = result["server"]
    assert server_section["records_submitted"] == 2 * 6 * 4096
    assert (
        server_section["records_submitted"]
        == server_section["records_applied"]
        + server_section["records_dropped"]
    )
