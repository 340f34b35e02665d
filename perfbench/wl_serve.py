"""serve-mixed: writes beside reads on one ``repro serve`` subprocess.

The server runs with its defaults (SMB, one shard per tenant) and a
checkpoint directory. One asyncio process drives it over two loopback
connections:

- connection 1 streams RECORD frames in a closed loop with ``WINDOW``
  frames in flight, cycling over a fixed frame pool whose tenants have
  zipf popularity; each cycle XORs the keys with a fresh seeded salt
  (``Feed``), so no key repeats across cycles and the sketches keep
  growing as they would under live traffic;
- connection 2 sends ESTIMATEs in an open loop at ``RATE`` per second,
  each timed from its due time (``openloop.OpenLoop``).

The inline O(1) ESTIMATE shares the server's event loop with RECORD
decoding, so a write path that holds the loop longer shows up as
ESTIMATE latency. With one shard per tenant partitioning is the
identity, so a routing-only change should not move this workload.
"""

from __future__ import annotations

import asyncio
import gc
import os
import select
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from harness import ROOT, median, peak_rss_mb, percentile, window_p99
from layers import tolerance, waterfall
from openloop import OpenLoop
from repro.agg import tree_reduce
from repro.engine import CheckpointManager, ShardPool
from repro.serve import ServeClient, TenantConfig
from repro.serve.protocol import (
    Estimate, EstimateOk, FrameDecoder, Record, RecordOk, Stats, StatsOk,
    decode_response, encode_request,
)
from repro.streams.synthetic import stream_with_duplicates, zipf_weights
from repro.wire import decode_sketch, encode_sketch, frame_info

TENANTS = 32
FRAME_KEYS = 8192
FRAMES = 256
WINDOW = 8
RATE = 500.0
#: The generator counts as behind when its 99th-percentile send
#: lateness exceeds this (five send intervals); latencies are then not
#: the server's alone.
LATE_LIMIT = 0.010
STATS_RATE = 10.0
IDLE_SECONDS = 1.5
#: Server starts timed before the load and again after it, so the set-up
#: median covers the whole run rather than its first seconds.
SETUP_STARTS = 3
#: Rounds of the post-load state operations (CHECKPOINT, restore, EXPORT
#: + fold); each takes milliseconds, so medians need many samples. The
#: first ``WARMUP`` rounds fill caches and are not reported.
STATE_REPEATS = 40
WARMUP = 10
START_TIMEOUT = 60.0

CONFIG = TenantConfig()  # the server's defaults


def tenant_name(index: int) -> str:
    return f"tenant-{index:02d}"


@dataclass
class Inputs:
    frames: list[tuple[str, np.ndarray]]  # tenant, keys of one RECORD frame
    first: dict[str, int]  # tenant -> index of its first frame
    distinct: dict[str, int]  # tenant -> exact distinct keys in one cycle
    estimates: list[bytes]  # pre-encoded ESTIMATE frames, zipf tenants


def make_inputs(seed: int, estimates: int) -> Inputs:
    rng = np.random.default_rng(seed)
    weights = zipf_weights(TENANTS)
    counts = np.maximum(1, np.round(weights * FRAMES)).astype(int)
    frames: list[tuple[str, np.ndarray]] = []
    distinct: dict[str, int] = {}
    for index, count in enumerate(counts):
        tenant = tenant_name(index)
        length = int(count) * FRAME_KEYS
        distinct[tenant] = length // 2
        keys = stream_with_duplicates(
            distinct[tenant], length, model="zipf", seed=rng
        )
        for start in range(0, length, FRAME_KEYS):
            frames.append((tenant, keys[start:start + FRAME_KEYS]))
    order = rng.permutation(len(frames))
    frames = [frames[i] for i in order]
    first: dict[str, int] = {}
    for position, (tenant, __) in enumerate(frames):
        first.setdefault(tenant, position)
    picks = rng.choice(TENANTS, size=estimates, p=weights)
    return Inputs(
        frames, first, distinct,
        [encode_request(Estimate(tenant_name(int(i)))) for i in picks],
    )


class Feed:
    """RECORD frames in send order, numbered across every phase of a run.

    Send ``i`` is frame ``i % F`` of cycle ``i // F``. Cycle ``c`` sends
    that frame's keys XORed with a 64-bit salt drawn from the seed (0 for
    cycle 0), so a cycle repeats no key of another cycle (up to 64-bit
    collisions, under one in a thousand per run) and within a cycle each
    key is seen twice on average. Frames are encoded as they are sent.
    """

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.inputs = inputs
        self.seed = seed
        self.sent = 0
        self.salts = [np.uint64(0)]

    def salt(self, cycle: int) -> np.uint64:
        while len(self.salts) <= cycle:
            rng = np.random.default_rng([self.seed, len(self.salts)])
            self.salts.append(rng.integers(1, 1 << 64, dtype=np.uint64))
        return self.salts[cycle]

    def next(self) -> tuple[bytes, int]:
        """The next frame to send and its key count."""
        cycle, index = divmod(self.sent, len(self.inputs.frames))
        tenant, keys = self.inputs.frames[index]
        self.sent += 1
        frame = encode_request(Record(tenant, keys ^ self.salt(cycle)))
        return frame, keys.size

    def exact_distinct(self) -> dict[str, int]:
        """Distinct keys each tenant was sent: every whole cycle adds the
        tenant's per-cycle count, the cut cycle adds what it reached, and
        the warm-up frames (cycle 0) count when no cycle was whole."""
        cycles, rest = divmod(self.sent, len(self.inputs.frames))
        exact = {tenant: cycles * count
                 for tenant, count in self.inputs.distinct.items()}
        partial: dict[str, list[np.ndarray]] = {}
        reached = set(range(rest))
        if cycles == 0:
            reached.update(self.inputs.first.values())
        for index in sorted(reached):
            tenant, keys = self.inputs.frames[index]
            partial.setdefault(tenant, []).append(keys ^ self.salt(cycles))
        for tenant, parts in partial.items():
            exact[tenant] += int(np.unique(np.concatenate(parts)).size)
        return exact


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
def start_server(checkpoints: str) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` and wait for its ``serving`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--checkpoint-dir", checkpoints],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        bufsize=0,
    )
    buffered = b""
    deadline = time.perf_counter() + START_TIMEOUT
    try:
        while True:
            for line in buffered.split(b"\n")[:-1]:
                if line.startswith(b"serving "):
                    host, port = line.split()[-1].decode().rsplit(":", 1)
                    return proc, host, int(port)
            remaining = deadline - time.perf_counter()
            ready, __, __ = select.select([proc.stdout], [], [],
                                          max(remaining, 0))
            chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                output = buffered.decode(errors="replace")
                raise RuntimeError(f"server did not start: {output}")
            buffered += chunk
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM the server, wait for its graceful drain, return its output."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        output, __ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, __ = proc.communicate()
    return output.decode(errors="replace")


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def window_rates(phase: "Phase") -> list[float]:
    """Acked keys in each whole second of the RECORD phase."""
    counts = [0] * int(phase.wall)
    for at, keys in phase.acks:
        second = int(at - phase.began)
        if second < len(counts):
            counts[second] += keys
    return [float(count) for count in counts]


@dataclass
class Phase:
    keys: int = 0
    began: float = 0.0
    wall: float = 0.0
    rtt: list[float] = field(default_factory=list)
    acks: list[tuple[float, int]] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)  # from due time
    service: list[float] = field(default_factory=list)  # from send time
    decode: list[float] = field(default_factory=list)
    backlog: int = 0
    late_p99: float = 0.0
    behind: bool = False


async def record_loop(reader, writer, feed: Feed, start: float,
                      stop: float, phase: Phase, ctx) -> None:
    """Closed loop: keep ``WINDOW`` RECORD frames in flight from ``start``
    until ``stop``."""
    decoder = FrameDecoder()
    inflight: deque[tuple[float, int, int]] = deque()

    def send_next() -> None:
        index = feed.sent
        frame, keys = feed.next()
        writer.write(frame)
        inflight.append((time.perf_counter(), index, keys))

    await asyncio.sleep(max(0.0, start - time.perf_counter()))
    began = phase.began = time.perf_counter()
    for __ in range(WINDOW):
        send_next()
    await writer.drain()
    last = began
    while inflight:
        chunk = await reader.read(65536)
        if not chunk:
            raise ConnectionError("server closed the RECORD connection")
        for body in decoder.feed(chunk):
            response = decode_response(body)
            sent_at, index, keys = inflight.popleft()
            last = time.perf_counter()
            phase.rtt.append(last - sent_at)
            ctx.rec.record("serve.record", sent_at, last, request=index)
            ok = isinstance(response, RecordOk) and response.accepted == keys
            ctx.out.check("RECORD ack count == keys sent", ok, repr(response))
            phase.keys += keys if ok else 0
            phase.acks.append((last, keys if ok else 0))
            if last < stop:
                send_next()
        await writer.drain()
    phase.wall = last - began


async def estimate_load(host: str, port: int, inputs: Inputs, start: float,
                        stop: float, phase: Phase, ctx,
                        poll_stats: bool) -> None:
    """Open loop of ESTIMATEs (and, traced, STATS polls) on one connection."""
    reader, writer = await asyncio.open_connection(host, port)
    pending: deque[tuple[str, float, int, float]] = deque()
    decoder = FrameDecoder()
    stats_frame = encode_request(Stats())

    def send_estimate(index: int, due: float) -> None:
        writer.write(inputs.estimates[index % len(inputs.estimates)])
        pending.append(("estimate", due, index, time.perf_counter()))

    def send_stats(index: int, due: float) -> None:
        writer.write(stats_frame)
        pending.append(("stats", due, index, time.perf_counter()))

    async def read_responses() -> None:
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                raise ConnectionError("server closed the ESTIMATE connection")
            for body in decoder.feed(chunk):
                t0 = time.perf_counter()
                response = decode_response(body)
                t1 = time.perf_counter()
                kind, due, index, sent = pending.popleft()
                if kind == "stats":
                    ok = isinstance(response, StatsOk)
                    if ok:
                        records = response.document["records"]
                        phase.backlog = max(
                            phase.backlog,
                            records["submitted"] - records["applied"],
                        )
                    ctx.out.check("STATS answered", ok, repr(response))
                    continue
                phase.latency.append(t1 - due)
                phase.service.append(t1 - sent)
                phase.decode.append(t1 - t0)
                parent = ctx.rec.record("serve.estimate", due, t1,
                                        request=index)
                ctx.rec.record("serve.protocol.decode_response", t0, t1,
                               parent=parent, request=index)
                ctx.out.check("ESTIMATE answered",
                              isinstance(response, EstimateOk), repr(response))

    generator = OpenLoop(RATE, LATE_LIMIT)
    reading = asyncio.ensure_future(read_responses())
    try:
        senders = [generator.run(start, stop, send_estimate)]
        if poll_stats:
            senders.append(OpenLoop(STATS_RATE, LATE_LIMIT).run(
                start, stop, send_stats))
        await asyncio.gather(*senders)
        await writer.drain()
        while pending and not reading.done():
            await asyncio.sleep(0.001)
        if reading.done():
            reading.result()  # re-raise a reader failure
    finally:
        reading.cancel()
        try:
            await reading
        except asyncio.CancelledError:
            pass
        writer.close()
        await writer.wait_closed()
    phase.late_p99 = generator.late_p99
    phase.behind = generator.behind


async def drive(ctx, host: str, port: int, feed: Feed,
                phases: list[tuple[float, bool]]) -> tuple[list[Phase], dict]:
    """Warm every tenant, run the idle probe (traced) and the phases."""
    inputs = feed.inputs
    extras: dict = {}
    reader, writer = await asyncio.open_connection(host, port)
    decoder = FrameDecoder()
    first: list[float] = []
    warm_keys = 0
    for tenant in sorted(inputs.first):
        __, keys = inputs.frames[inputs.first[tenant]]
        frame = encode_request(Record(tenant, keys))
        with ctx.rec.span("serve.tenants.first_record") as answered:
            writer.write(frame)
            await writer.drain()
            bodies: list[bytes] = []
            while not bodies:
                chunk = await reader.read(65536)
                if not chunk:
                    raise ConnectionError(
                        "server closed the RECORD connection")
                bodies = list(decoder.feed(chunk))
        first.append(answered.duration)
        response = decode_response(bodies[0])
        ok = isinstance(response, RecordOk) and response.accepted == keys.size
        ctx.out.check("RECORD ack count == keys sent", ok, repr(response))
        warm_keys += keys.size if ok else 0
    extras["first_record"] = first
    extras["warm_keys"] = warm_keys

    if ctx.trace:
        idle = Phase()
        start = time.perf_counter() + 0.05
        await estimate_load(host, port, inputs, start, start + IDLE_SECONDS,
                            idle, ctx, poll_stats=False)
        extras["idle"] = idle

    # The generator's own heap is frozen so that its garbage collections
    # stay short and cannot push requests off schedule.
    gc.collect()
    gc.freeze()
    results = []
    try:
        for seconds, traced in phases:
            phase = Phase()
            saved = ctx.rec.enabled
            ctx.rec.enabled = traced
            try:
                start = time.perf_counter() + 0.05
                stop = start + seconds
                await asyncio.gather(
                    record_loop(reader, writer, feed, start, stop, phase,
                                ctx),
                    estimate_load(host, port, inputs, start, stop, phase,
                                  ctx, poll_stats=traced),
                )
            finally:
                ctx.rec.enabled = saved
            ctx.out.check("open-loop generator kept its schedule",
                          not phase.behind,
                          f"late p99 {phase.late_p99 * 1e3:.2f} ms")
            results.append(phase)
    finally:
        writer.close()
        await writer.wait_closed()
    return results, extras


async def settle(ctx, host: str, port: int, inputs: Inputs,
                 exact: dict[str, int], acked: int,
                 checkpoints: str) -> dict:
    """After the load: check, then checkpoint, restore and fold, timed.

    The three state operations run round-robin, so each one's samples
    spread over seconds of host time instead of one burst of
    milliseconds; each sample starts from a collected heap.
    """
    timings: dict = {"checkpoint": [], "fold": [], "restore": []}
    tenants = sorted(inputs.distinct)
    client = await ServeClient.connect(host, port)
    try:
        await client.checkpoint()  # a drained safe point for the checks
        records = (await client.stats())["records"]
        ctx.out.check(
            "STATS after CHECKPOINT: submitted == applied == keys acked, "
            "dropped == 0",
            records["submitted"] == records["applied"] == acked
            and records["dropped"] == 0,
            f"{records} vs {acked} acked",
        )
        estimates = await client.estimate_many(tenants)
        reference = CONFIG.build_pool(tenants[0]).shards[0]
        for tenant, estimate in zip(tenants, estimates):
            count = exact[tenant]
            error = abs(estimate - count) / count
            allowed = tolerance(reference, count)
            ctx.out.check("tenant estimate within the Theorem-3 bound",
                          error <= allowed,
                          f"{tenant}: {estimate:.1f} vs {count}, "
                          f"error {error:.4f} > {allowed:.4f}")
        frames: dict[str, bytes] = {}
        for repeat in range(WARMUP + STATE_REPEATS):
            gc.collect()
            with ctx.rec.span("serve.checkpoint") as checkpointed:
                await client.checkpoint()
            manager = CheckpointManager(checkpoints)
            gc.collect()
            with ctx.rec.span("engine.recovery.load") as loaded:
                registry, __ = manager.load_latest()
            gc.collect()
            with ctx.rec.span("serve.export_fold") as exported:
                for tenant in tenants:
                    frames[tenant] = await client.export(tenant)
                    tree_reduce([frames[tenant]]).query()
            ctx.out.ops(2 + len(tenants))
            if repeat >= WARMUP:
                timings["checkpoint"].append(checkpointed.duration)
                timings["restore"].append(loaded.duration)
                timings["fold"].append(exported.duration)
        for tenant, estimate in zip(tenants, estimates):
            ctx.out.check("EXPORT frame estimate == ESTIMATE",
                          tree_reduce([frames[tenant]]).query() == estimate,
                          tenant)
    finally:
        await client.close()
    for tenant in tenants:
        ctx.out.check("restored checkpoint == EXPORTed state",
                      registry.pools[tenant].to_bytes()
                      == decode_sketch(frames[tenant]).to_bytes(), tenant)
    timings["frames"] = frames
    timings["registry"] = registry
    return timings


def run(ctx) -> None:
    out = ctx.out
    estimates_needed = int(RATE * (ctx.seconds + IDLE_SECONDS + 1)) + 1
    inputs = make_inputs(ctx.seed, estimates_needed)
    feed = Feed(inputs, ctx.seed)
    ctx.inputs.update(
        tenants=TENANTS, tenant_popularity="zipf(1.0)",
        frames_per_cycle=len(inputs.frames),
        keys_per_frame=FRAME_KEYS, record_window=WINDOW,
        estimate_rate_per_s=RATE, server="repro serve defaults (SMB, 1 shard)",
        keys="stream_with_duplicates(model='zipf') per tenant, "
        "distinct = half; cycle c XORs every key with seeded salt c "
        "(0 for cycle 0), so no key repeats across cycles",
        loops="RECORD closed loop + ESTIMATE open loop, one process, "
        "2 connections",
    )
    checkpoints = str(ctx.work / "server-ckpt")
    setup: list[float] = []

    def start_timed(directory: str) -> tuple[subprocess.Popen, str, int]:
        with ctx.rec.span("serve.setup") as started:
            started_server = start_server(directory)
        setup.append(started.duration)
        return started_server

    proc = None
    try:
        for __ in range(SETUP_STARTS - 1):
            stop_server(start_timed(checkpoints)[0])
        proc, host, port = start_timed(checkpoints)
        if ctx.trace:
            plan = [(ctx.seconds / 2, False), (ctx.seconds / 2, True)]
        else:
            plan = [(ctx.seconds, False)]
        phases, extras = asyncio.run(drive(ctx, host, port, feed, plan))
        acked = extras["warm_keys"] + sum(phase.keys for phase in phases)
        exact = feed.exact_distinct()
        timings = asyncio.run(
            settle(ctx, host, port, inputs, exact, acked, checkpoints)
        )
        rss = peak_rss_mb(proc.pid)
        for attempt in range(SETUP_STARTS):
            stop_server(start_timed(str(ctx.work / f"spare-{attempt}"))[0])
    finally:
        if proc is not None:
            tail = stop_server(proc)
            out.check("server drained cleanly on SIGTERM",
                      proc.returncode == 0 and "drained" in tail, tail[-200:])

    frames = timings["frames"]
    phase = phases[-1]
    sent_keys = acked - extras["warm_keys"]
    ctx.inputs.update(
        record_frames_sent=feed.sent,
        record_cycles=round(feed.sent / len(inputs.frames), 3),
        distinct_share_of_sent_keys=round(sum(exact.values()) / sent_keys, 4),
    )
    if not ctx.trace:
        rate = median(window_rates(phase))
        ctx.put("setup_s", median(setup), "s", len(setup),
                "server spawn until its 'serving' line")
        ctx.put("peak_rss_mb", rss, "MB", 1, "VmHWM of the server process")
        ctx.put("throughput_per_s", rate, "1/s", len(window_rates(phase)),
                "acked RECORD keys per second, median of 1-s windows",
                alias=("record_keys_s", rate, "keys/s"))
        p50 = percentile(phase.latency, 0.5) * 1e6
        p99 = window_p99(phase.latency) * 1e6
        ctx.put("latency_p50_us", p50, "us", len(phase.latency),
                "ESTIMATE, timed from its due time",
                alias=("estimate_p50_us", p50, "us"))
        ctx.extra("estimate_p99_us", p99, "us", len(phase.latency),
                  "median of p99 per 1000 (not gated: see interactions.json)")
        ctx.extra("checkpoint_s", median(timings["checkpoint"]), "s",
                  STATE_REPEATS, "CHECKPOINT round trip (drain + save)")
        ctx.extra("restore_s", median(timings["restore"]), "s", STATE_REPEATS,
                  "load_latest of the server's checkpoint directory")
        ctx.put("fold_s", median(timings["fold"]), "s", STATE_REPEATS,
                "EXPORT every tenant + tree_reduce + query")
        ctx.put("frame_bytes", sum(len(f) for f in frames.values()), "bytes",
                len(frames), "EXPORT frames of every tenant")
        ctx.extra("gen_late_p99_ms", phase.late_p99 * 1e3, "ms",
                  len(phase.latency))
        return

    first_phase = phases[0]
    ctx.per_layer["bench.trace_overhead"] = (
        (first_phase.keys / first_phase.wall) / (phase.keys / phase.wall) - 1.0
    )
    registry = timings["registry"]
    resave = CheckpointManager(ctx.work / "resave")
    saves = []
    for __ in range(STATE_REPEATS):
        with ctx.rec.span("engine.recovery.save") as saved:
            generation = resave.save(registry)
        saves.append(saved.duration)
    ctx.per_layer["engine.recovery.save_ms"] = median(saves) * 1e3
    ctx.per_layer["engine.recovery.load_ms"] = median(timings["restore"]) * 1e3
    ctx.per_layer["engine.recovery.bytes_per_tenant"] = (
        generation.size / len(registry)
    )
    encode, decode, ratios = [], [], []
    for frame in frames.values():
        with ctx.rec.span("wire.frame.decode") as decoded:
            pool = decode_sketch(frame)
        with ctx.rec.span("wire.frame.encode") as encoded:
            again = encode_sketch(pool)
        decode.append(decoded.duration)
        encode.append(encoded.duration)
        ratios.append(frame_info(frame).ratio)
        out.check("EXPORT frame re-encodes to the same bytes", again == frame)
    ctx.per_layer["wire.frame.encode_us"] = median(encode) * 1e6
    ctx.per_layer["wire.frame.decode_us"] = median(decode) * 1e6
    ctx.per_layer["wire.frame.ratio"] = float(np.mean(ratios))

    # The server-side split is timed from each request's send, not its due
    # time, so the generator's own wake-up lateness stays out of it.
    idle = extras["idle"]
    idle_p50 = percentile(idle.service, 0.5) * 1e6
    ctx.extra("serve.server.estimate_idle_p50_us", idle_p50, "us",
              len(idle.service))
    ctx.extra("serve.server.estimate_wait_p50_us",
              percentile(phase.service, 0.5) * 1e6 - idle_p50, "us",
              len(phase.service))
    ctx.extra("serve.server.record_rtt_p50_ms",
              percentile(phase.rtt, 0.5) * 1e3, "ms", len(phase.rtt))
    ctx.extra("serve.server.record_rtt_p99_ms",
              percentile(phase.rtt, 0.99) * 1e3, "ms", len(phase.rtt))
    ctx.extra("serve.server.backlog_max_records", phase.backlog, "records",
              int(STATS_RATE * ctx.seconds / 2))
    ctx.extra("serve.tenants.first_record_ms",
              median(extras["first_record"]) * 1e3, "ms",
              len(extras["first_record"]))
    ctx.extra("serve.protocol.decode_response_us",
              median(phase.decode) * 1e6, "us", len(phase.decode))
    ctx.extra("bench.gen_late_p99_ms", phase.late_p99 * 1e3, "ms",
              len(phase.latency))

    def make_pool(tenant: str, shards: int) -> ShardPool:
        return TenantConfig(shards=shards).build_pool(tenant)

    batches = list(inputs.frames)
    waterfall(batches, make_pool, CONFIG.shards, ctx.rec, out, ctx.per_layer)
    ctx.extra("serve.protocol.encode_record_us",
              ctx.span_ms("serve.protocol.encode_record") * 1e3, "us",
              len(batches))
    ctx.extra("serve.protocol.decode_record_us",
              ctx.span_ms("serve.protocol.decode_record") * 1e3, "us",
              len(batches))
