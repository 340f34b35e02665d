"""ingest-zipf: the ``repro engine`` job, closed loop.

A zipf-duplicated stream is submitted from one thread, in fixed
batches, to an ``IngestPipeline`` over an 8-shard SMB ``ShardPool``
that checkpoints itself every ``CHECKPOINT_EVERY`` records. ``submit``
blocks on backpressure, so the producer never runs ahead of the
workers. After each pass the benchmark saves, restores and frames the
pool, so the state-movement layers are timed on a realistic SMB pool as
well.
"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import (
    SpanRecorder, median, peak_rss_mb, percentile, window_p99,
)
from layers import check_pool_estimate, waterfall
from repro.agg import tree_reduce
from repro.engine import CheckpointManager, IngestPipeline, ShardPool
from repro.wire import decode_sketch, encode_sketch, frame_info

DISTINCT = 2_000_000
LENGTH = 6_000_000
SHARDS = 8
MEMORY_BITS = 40_000
BATCH = 8192
CHECKPOINT_EVERY = 2_000_000
#: Save/restore/frame repetitions after each pass: each takes a few
#: milliseconds, so the medians need many samples.
STATE_REPEATS = 4
MIN_PASSES = 4
#: Set-ups per pass: the pass's own and extra ones that are closed at
#: once. Building the 8 SMB shards is pure-Python work that the shared
#: host's speed moves, so set-up is sampled through the whole run.
SETUP_REPEATS = 3


def make_pool(key: str, shards: int) -> ShardPool:
    return ShardPool.of("SMB", MEMORY_BITS, shards)


@dataclass
class Passes:
    setup: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    submit: list[float] = field(default_factory=list)
    save: list[float] = field(default_factory=list)
    load: list[float] = field(default_factory=list)
    fold: list[float] = field(default_factory=list)
    frame: bytes = b""
    checkpoint_bytes: int = 0
    pool: ShardPool | None = None


def main_phase(ctx, stream: np.ndarray, seconds: float,
               rec: SpanRecorder) -> Passes:
    """Ingest the stream from scratch, pass after pass, for ``seconds``."""
    out = ctx.out
    passes = Passes()
    reference: bytes | None = None
    deadline = time.perf_counter() + seconds
    number = 0
    while number < MIN_PASSES or time.perf_counter() < deadline:
        number += 1
        directory = ctx.work / f"ckpt-{number}"
        setups = []
        for repeat in range(SETUP_REPEATS):
            with rec.span("ingest.setup") as setup:
                pool = make_pool("ingest", SHARDS)
                manager = CheckpointManager(directory / str(repeat))
                pipe = IngestPipeline(
                    pool, checkpoint_manager=manager,
                    checkpoint_every=CHECKPOINT_EVERY,
                )
            setups.append(setup.duration)
            if repeat < SETUP_REPEATS - 1:
                pipe.close()
        submits = []
        with rec.span("ingest.run") as ingest:
            for start in range(0, stream.size, BATCH):
                batch = stream[start:start + BATCH]
                with rec.span("engine.pipeline.submit") as submitted:
                    accepted = pipe.submit(batch)
                submits.append(submitted.duration)
                out.ops(1, int(accepted != batch.size))
            with rec.span("engine.pipeline.close"):
                pipe.close()
        if number > 1:  # the first pass warms caches and is not reported
            passes.setup.extend(setups)
            passes.submit.extend(submits)
            passes.wall.append(ingest.duration)
        state = pool.to_bytes()
        if reference is None:
            reference = state
        out.check("every pass ends in the same pool", state == reference)
        move_state(ctx, manager, pool, state, passes, rec, report=number > 1)
        shutil.rmtree(directory)
    passes.pool = pool
    return passes


def move_state(ctx, manager: CheckpointManager, pool: ShardPool,
               state: bytes, passes: Passes, rec: SpanRecorder,
               report: bool) -> None:
    """Save, restore and frame a pass's pool ``STATE_REPEATS`` times.

    Samples are spread over the passes so their median covers the whole
    run, and each starts from a collected heap, so a garbage collection
    owed to earlier work never lands inside it. The first repetition
    warms caches and is not reported.
    """
    out = ctx.out
    directory = manager.directory
    for repeat in range(STATE_REPEATS):
        gc.collect()
        with rec.span("engine.recovery.save") as saved:
            generation = manager.save(pool)
        reopened = CheckpointManager(directory)
        gc.collect()
        with rec.span("engine.recovery.load") as loaded:
            restored, __ = reopened.load_latest()
        gc.collect()
        with rec.span("ingest.fold") as folded:
            with rec.span("wire.frame.encode"):
                frame = encode_sketch(pool)
            with rec.span("agg.tree.reduce"):
                estimate = tree_reduce([frame]).query()
        if report and repeat:
            passes.save.append(saved.duration)
            passes.load.append(loaded.duration)
            passes.fold.append(folded.duration)
        out.ops(3)
        out.check("restored pool == saved pool", restored.to_bytes() == state)
        out.check("folded frame estimate == pool estimate",
                  estimate == pool.query(), f"{estimate} != {pool.query()}")
    passes.frame = frame
    passes.checkpoint_bytes = generation.size


def run(ctx) -> None:
    out = ctx.out
    path = ctx.work / "stream.npy"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("gen.py")), str(path),
         str(ctx.seed), str(DISTINCT), str(LENGTH)],
        check=True, timeout=150,
    )
    stream = np.load(path)
    path.unlink()
    ctx.inputs.update(
        stream="stream_with_duplicates(model='zipf')",
        distinct=DISTINCT, length=LENGTH, batch=BATCH,
        estimator="SMB", memory_bits=MEMORY_BITS, shards=SHARDS,
        checkpoint_every=CHECKPOINT_EVERY, loop="closed, one producer",
    )

    if ctx.trace:
        untraced = main_phase(ctx, stream, ctx.seconds / 2, ctx.null)
        passes = main_phase(ctx, stream, ctx.seconds / 2, ctx.rec)
        ctx.per_layer["bench.trace_overhead"] = (
            median(passes.wall) / median(untraced.wall) - 1.0
        )
    else:
        passes = main_phase(ctx, stream, ctx.seconds, ctx.null)
        rss = peak_rss_mb()
        runs = len(passes.wall)
        rate = median([LENGTH / wall for wall in passes.wall])
        ctx.put("setup_s", median(passes.setup), "s", len(passes.setup),
                "pool, checkpoint manager and pipeline built")
        ctx.put("peak_rss_mb", rss, "MB", 1,
                "VmHWM of this process; the stream is loaded, not generated")
        ctx.put("throughput_per_s", rate, "1/s", runs,
                "stream items, first submit to close() returning",
                alias=("ingest_mitems_s", rate / 1e6, "Mitems/s"))
        ctx.put("latency_p50_us", percentile(passes.submit, 0.5) * 1e6, "us",
                len(passes.submit), "submit() call, backpressure included")
        ctx.extra("submit_p99_us", window_p99(passes.submit) * 1e6, "us",
                  len(passes.submit),
                  "median of p99 per 1000 (not gated: see interactions.json)")
        ctx.extra("checkpoint_s", median(passes.save), "s", len(passes.save),
                  "CheckpointManager.save of the closed pool")
        ctx.extra("restore_s", median(passes.load), "s", len(passes.load),
                  "load_latest on a reopened manager")
        ctx.put("fold_s", median(passes.fold), "s", len(passes.fold),
                "encode_sketch + tree_reduce + query of the pool")
        ctx.put("frame_bytes", len(passes.frame), "bytes", 1,
                "wire frame of the final pool")
        ctx.extra("checkpoint_bytes", passes.checkpoint_bytes, "bytes", 1)

    # Oracles: the drained pipeline equals a synchronous ShardPool fed the
    # same stream, and every shard's estimate is inside its bound.
    oracle = make_pool("ingest", SHARDS)
    for start in range(0, stream.size, BATCH):
        oracle.record_many(stream[start:start + BATCH])
    out.check("pipeline pool == synchronous ShardPool.record_many",
              passes.pool.to_bytes() == oracle.to_bytes())
    check_pool_estimate(out, "shard estimate within the Theorem-3 bound",
                        passes.pool, np.unique(stream))

    if ctx.trace:
        for layer in ("save", "load"):
            ctx.per_layer[f"engine.recovery.{layer}_ms"] = ctx.span_ms(
                f"engine.recovery.{layer}")
        ctx.per_layer["engine.recovery.bytes_per_tenant"] = (
            passes.checkpoint_bytes)
        ctx.per_layer["wire.frame.encode_us"] = (
            ctx.span_ms("wire.frame.encode") * 1e3)
        decode = []
        for __ in range(STATE_REPEATS):
            with ctx.rec.span("wire.frame.decode") as decoded:
                decode_sketch(passes.frame)
            decode.append(decoded.duration)
        ctx.per_layer["wire.frame.decode_us"] = median(decode) * 1e6
        ctx.per_layer["wire.frame.ratio"] = frame_info(passes.frame).ratio
        batches = [("ingest", stream[start:start + BATCH])
                   for start in range(0, stream.size, BATCH)]
        waterfall(batches, make_pool, SHARDS, ctx.rec, out, ctx.per_layer)
