"""The layer waterfall: one workload's items replayed layer by layer.

Every workload hands its own item batches here (the ingest stream, the
RECORD batches a server receives, a node's prefill streams) together
with the estimator pools it uses. The replay calls each layer's public
functions in the order the engine calls them -- hash plane, partition,
sketch scatter, then the whole synchronous pool, the threaded pipeline
and the RECORD codec -- with a span around every call, so each layer's
cost on that workload's inputs can be read off the trace. Each replay
is also an oracle: every path must end in the same pool bytes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from harness import Outcome, SpanRecorder, percentile
from repro.core.smb import SelfMorphingBitmap
from repro.core.theory import hll_standard_error, smb_error_bound
from repro.engine import IngestPipeline, ShardPool
from repro.engine.pipeline import DEFAULT_CHUNK
from repro.kernels import HashPlane
from repro.serve.protocol import Record, decode_request, encode_request

#: Confidence at which an estimate must sit inside its error bound.
#: Theorem 3's tail is exponential, so SMB is held to one false alarm in
#: a million; HLL++'s bound is Chebyshev's, which is loose enough that
#: 0.99 already allows ten standard errors.
SMB_CONFIDENCE = 1.0 - 1e-6
HLL_CONFIDENCE = 0.99

PoolFactory = Callable[[str, int], ShardPool]


def tolerance(sketch: object, n: int) -> float:
    """Largest relative error the paper's bound allows for ``sketch`` at
    true cardinality ``n``: Theorem 3 for SMB, Chebyshev for HLL++."""
    if n <= 0:
        return 0.0
    if isinstance(sketch, SelfMorphingBitmap):
        if smb_error_bound(0.999, n, sketch.m, sketch.T) < SMB_CONFIDENCE:
            return 1.0
        lo, hi = 1e-6, 0.999
        for __ in range(50):
            mid = (lo + hi) / 2
            if smb_error_bound(mid, n, sketch.m, sketch.T) >= SMB_CONFIDENCE:
                hi = mid
            else:
                lo = mid
        return hi
    sigma = hll_standard_error(sketch.memory_bits() // 5)
    return sigma / math.sqrt(1.0 - HLL_CONFIDENCE)


def check_pool_estimate(
    out: Outcome, name: str, pool: ShardPool, items: np.ndarray
) -> None:
    """Each shard's estimate within its bound of its exact distinct count.

    ``items`` are the distinct items the pool saw; shard ids come from
    the pool's own partitioner, so every shard is judged on exactly the
    items it received.
    """
    if pool.num_shards == 1:
        counts = [items.size]
    else:
        ids = pool.partitioner.shard_ids(items)
        counts = np.bincount(ids.astype(np.int64), minlength=pool.num_shards)
    for shard, count in zip(pool.shards, counts):
        estimate = shard.query()
        error = abs(estimate - count) / count if count else estimate
        allowed = tolerance(shard, int(count))
        out.check(
            name, error <= allowed,
            f"estimate {estimate:.1f} vs exact {count}: error {error:.4f} "
            f"> bound {allowed:.4f}",
        )


def waterfall(
    batches: list[tuple[str, np.ndarray]],
    make_pool: PoolFactory,
    shards: int,
    rec: SpanRecorder,
    out: Outcome,
    per_layer: dict[str, float],
) -> None:
    """Replay ``batches`` (``(pool key, uint64 items)``) layer by layer.

    Fills ``per_layer`` with the waterfall's metrics and records one
    oracle check per pool and path.
    """
    items = sum(batch.size for __, batch in batches)
    early_end, late_start = items // 10, items - items // 10

    # 1. Hash plane -> partition -> sketch, one chunk at a time, exactly
    #    as ShardPool.record_plane and the pipeline's producer do it.
    replay: dict[str, ShardPool] = {}
    shard_items = np.zeros(shards, dtype=np.int64)
    mix_passes: list[int] = []
    early = [0.0, 0]  # record seconds, items in the first tenth
    late = [0.0, 0]  # ... and in the last tenth
    hash_s = split_s = record_s = 0.0
    seen = 0
    for key, batch in batches:
        pool = replay.get(key)
        if pool is None:
            pool = replay[key] = make_pool(key, shards)
        requests = pool.plane_requests()
        for start in range(0, batch.size, DEFAULT_CHUNK):
            chunk = batch[start:start + DEFAULT_CHUNK]
            with rec.span("waterfall.chunk"):
                with rec.span("kernels.plane.hash") as hashed:
                    plane = HashPlane.of(chunk)
                    plane.prefetch(requests)
                with rec.span("engine.partition.split") as split:
                    parts = pool.partitioner.split_plane(plane)
                with rec.span("core.sketch.record") as recorded:
                    for shard, part in zip(pool.shards, parts):
                        shard.record_plane(part)
            hash_s += hashed.duration
            split_s += split.duration
            record_s += recorded.duration
            shard_items += [part.size for part in parts]
            mix_passes.append(
                sum(1 for request in plane.materialized()
                    if request[0] == "uniform")
            )
            for window, inside in ((early, seen < early_end),
                                   (late, seen + chunk.size > late_start)):
                if inside:
                    window[0] += recorded.duration
                    window[1] += chunk.size
            seen += chunk.size
    per_layer["kernels.plane.hash_ns_per_item"] = hash_s / items * 1e9
    per_layer["kernels.plane.mix_passes"] = float(np.mean(mix_passes))
    per_layer["engine.partition.split_ns_per_item"] = split_s / items * 1e9
    per_layer["engine.partition.max_shard_share"] = float(
        shard_items.max() / items
    )
    per_layer["core.sketch.record_ns_per_item"] = record_s / items * 1e9
    per_layer["core.sketch.record_ns_per_item.early"] = (
        early[0] / early[1] * 1e9
    )
    per_layer["core.sketch.record_ns_per_item.late"] = late[0] / late[1] * 1e9

    # 2. The synchronous pool: one sketch per key, then the workload's
    #    shard count (the single-threaded baseline of the pipeline).
    sync: dict[str, dict[str, ShardPool]] = {}
    for label, count in (("pool1", 1), ("pool", shards)):
        pools: dict[str, ShardPool] = {}
        for key, __ in batches:
            if key not in pools:
                pools[key] = make_pool(key, count)
        with rec.span(f"engine.shards.{label}") as synced:
            for key, batch in batches:
                pools[key].record_many(batch)
        per_layer[f"engine.shards.{label}_mitems_s"] = (
            items / synced.duration / 1e6
        )
        sync[label] = pools
        if label == "pool":
            sync_wall = synced.duration
    bits = sum(pool.bits_accessed for pool in sync["pool"].values())
    per_layer["core.sketch.bits_accessed_per_item"] = bits / items
    for key, pool in replay.items():
        out.check(
            "layer replay bytes == ShardPool.record_many bytes",
            pool.to_bytes() == sync["pool"][key].to_bytes(), key,
        )

    # 3. The threaded pipeline over fresh pools, closed after each key's
    #    last batch so a many-key workload never holds a thread per key.
    last = {key: index for index, (key, __) in enumerate(batches)}
    pipes: dict[str, IngestPipeline] = {}
    closed: dict[str, ShardPool] = {}
    submits: list[float] = []
    drains: list[float] = []
    with rec.span("engine.pipeline") as piped:
        for index, (key, batch) in enumerate(batches):
            pipe = pipes.get(key)
            if pipe is None:
                pipe = pipes[key] = IngestPipeline(make_pool(key, shards))
            with rec.span("engine.pipeline.submit") as submitted:
                accepted = pipe.submit(batch)
            submits.append(submitted.duration)
            out.ops(1, int(accepted != batch.size))
            if last[key] == index:
                with rec.span("engine.pipeline.close") as drained:
                    pipe.close()
                drains.append(drained.duration)
                closed[key] = pipes.pop(key).pool
    pipeline_wall = piped.duration
    per_layer["engine.pipeline.submit_p50_ms"] = percentile(submits, 0.5) * 1e3
    per_layer["engine.pipeline.submit_p99_ms"] = (
        percentile(submits, 0.99) * 1e3
    )
    per_layer["engine.pipeline.drain_s"] = sum(drains)
    per_layer["engine.pipeline.handoff_ns_per_item"] = (
        (pipeline_wall - sync_wall) / items * 1e9
    )
    for key, pool in closed.items():
        out.check(
            "pipeline bytes == ShardPool.record_many bytes",
            pool.to_bytes() == sync["pool"][key].to_bytes(), key,
        )

    # 4. The RECORD codec over the same batches.
    encode_s = decode_s = 0.0
    for key, batch in batches:
        with rec.span("serve.protocol.encode_record") as encoded:
            frame = encode_request(Record(key, batch))
        with rec.span("serve.protocol.decode_record") as decoded_span:
            decoded = decode_request(frame[4:])
        encode_s += encoded.duration
        decode_s += decoded_span.duration
        out.check(
            "RECORD codec round trip",
            isinstance(decoded, Record) and decoded.tenant == key
            and np.array_equal(decoded.keys, batch), key,
        )
    per_layer["serve.protocol.encode_record_ns_per_key"] = (
        encode_s / items * 1e9
    )
    per_layer["serve.protocol.decode_record_ns_per_key"] = (
        decode_s / items * 1e9
    )
