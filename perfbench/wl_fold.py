"""fold-restore: what an operator runs with ``repro agg <ckpt-dirs>``.

Four node ``TenantRegistry``s (HLL++, one shard per tenant) are
prefilled from disjoint seeded streams before timing. Each cycle saves
every node with ``CheckpointManager.save``, restores it with
``load_latest``, then frames every tenant's four pools with
``encode_sketch`` and folds them with ``tree_reduce`` into one global
estimate. Nothing hashes items while the clock runs, so this is the
workload on which a hashing or routing change should move nothing.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from harness import median, peak_rss_mb, percentile, window_p99
from layers import tolerance, waterfall
from repro.agg import tree_reduce
from repro.engine import CheckpointManager, ShardPool
from repro.serve import TenantConfig, TenantRegistry
from repro.streams.synthetic import stream_with_duplicates
from repro.wire import decode_sketch, encode_sketch, frame_info

NODES = 4
TENANTS = 2048
MEMORY_BITS = 1024
#: Per node and tenant the distinct count is log-uniform in this range,
#: so the registries hold both sparse and saturated-looking sketches.
DISTINCT_RANGE = (16, 8192)
DUPLICATION = 1.5
MIN_CYCLES = 2
#: Set-up opens the four managers and lists each one's generations, as
#: ``repro agg <ckpt-dirs>`` does before it loads. That takes about
#: 0.3 ms, so one sample times ``SETUP_BATCH`` such opens, and samples
#: are taken between the state operations all through the run.
SETUP_BATCH = 10
#: The fold of all tenants is timed in this many slices, with a set-up
#: sample between two slices, so set-up samples also cover the fold,
#: which takes most of each cycle.
FOLD_SLICES = 8
#: Saves and restores per cycle; each sample starts from a collected heap
#: so that a garbage collection owed to earlier work never lands in it.
STATE_REPEATS = 5

CONFIG = TenantConfig(estimator="HLL++", memory_bits=MEMORY_BITS)


def tenant_name(index: int) -> str:
    return f"tenant-{index:04d}"


def make_pool(tenant: str, shards: int) -> ShardPool:
    return TenantConfig(
        estimator="HLL++", memory_bits=MEMORY_BITS, shards=shards
    ).build_pool(tenant)


def prefill(seed: int):
    """Node registries, the union registry (the fold oracle), the exact
    distinct count per tenant and node 0's streams (for the waterfall)."""
    rng = np.random.default_rng(seed)
    nodes = [TenantRegistry(CONFIG) for __ in range(NODES)]
    union = TenantRegistry(CONFIG)
    exact: dict[str, int] = {}
    node0: list[tuple[str, np.ndarray]] = []
    low, high = np.log(DISTINCT_RANGE[0]), np.log(DISTINCT_RANGE[1])
    items = 0
    for index in range(TENANTS):
        tenant = tenant_name(index)
        streams = []
        for node in nodes:
            distinct = int(np.exp(rng.uniform(low, high)))
            stream = stream_with_duplicates(
                distinct, int(distinct * DUPLICATION), seed=rng
            )
            node.record_many(tenant, stream)
            union.record_many(tenant, stream)
            streams.append(stream)
            items += stream.size
        exact[tenant] = int(np.unique(np.concatenate(streams)).size)
        node0.append((tenant, streams[0]))
    return nodes, union, exact, node0, items


def run(ctx) -> None:
    out = ctx.out
    nodes, union, exact, node0, items = prefill(ctx.seed)
    # The node registries stand in for state that lives on other machines,
    # and the union registry is the oracle: neither belongs in the heap the
    # aggregator's garbage collector scans, so both are frozen out of it.
    gc.collect()
    gc.freeze()
    tenants = sorted(exact)
    ctx.inputs.update(
        nodes=NODES, tenants=TENANTS, estimator="HLL++",
        memory_bits=MEMORY_BITS, shards=1, prefill_items=items,
        distinct_per_node_tenant=f"log-uniform {DISTINCT_RANGE}",
        duplication=DUPLICATION,
    )

    def cycles(seconds: float, rec) -> dict:
        times: dict = {"setup": [], "save": [], "load": [], "fold": [],
                       "tenant": []}
        directories = [ctx.work / f"node-{i}" for i in range(NODES)]
        deadline = time.perf_counter() + seconds
        number = 0

        def open_managers() -> list[CheckpointManager]:
            with rec.span("fold.setup") as setup:
                for __ in range(SETUP_BATCH):
                    managers = [CheckpointManager(d) for d in directories]
                    for manager in managers:
                        manager.generations()
            times["setup"].append(setup.duration / SETUP_BATCH)
            return managers

        while number < MIN_CYCLES or time.perf_counter() < deadline:
            number += 1
            managers = open_managers()
            # Saves and restores alternate, so each one's samples spread
            # over the cycle; the first round warms caches.
            for repeat in range(1 + STATE_REPEATS):
                gc.collect()
                generations = []
                with rec.span("fold.save_nodes") as saved:
                    for manager, node in zip(managers, nodes):
                        with rec.span("engine.recovery.save"):
                            generations.append(manager.save(node))
                reopened = open_managers()
                gc.collect()
                restored = []
                with rec.span("fold.load_nodes") as loaded:
                    for manager in reopened:
                        with rec.span("engine.recovery.load"):
                            restored.append(manager.load_latest()[0])
                if repeat:
                    times["save"].append(saved.duration)
                    times["load"].append(loaded.duration)
            out.ops(2 * NODES * (1 + STATE_REPEATS))
            for node, again in zip(nodes, restored):
                out.check("restored registry == saved registry",
                          again.to_bytes() == node.to_bytes())
            frame_bytes = 0
            results = []
            fold_s = 0.0
            step = -(-len(tenants) // FOLD_SLICES)
            for first in range(0, len(tenants), step):
                if first:
                    open_managers()
                gc.collect()
                with rec.span("fold.slice") as folded_slice:
                    for tenant in tenants[first:first + step]:
                        with rec.span("fold.tenant") as one:
                            frames = []
                            for registry in restored:
                                with rec.span("wire.frame.encode"):
                                    frames.append(encode_sketch(
                                        registry.pools[tenant]))
                            with rec.span("agg.tree.reduce"):
                                folded = tree_reduce(frames)
                            estimate = folded.query()
                        times["tenant"].append(one.duration)
                        frame_bytes += sum(len(frame) for frame in frames)
                        results.append((tenant, folded, estimate))
                fold_s += folded_slice.duration
            times["fold"].append(fold_s)
            out.ops(len(results))
            for tenant, folded, estimate in results:
                out.check("fold == one pool fed the union of the streams",
                          folded.to_bytes() == union.pools[tenant].to_bytes(),
                          tenant)
                n = exact[tenant]
                allowed = tolerance(folded.shards[0], n)
                out.check("global estimate within the HLL++ bound",
                          abs(estimate - n) / n <= allowed,
                          f"{tenant}: {estimate:.1f} vs {n} > {allowed:.3f}")
            times["frame_bytes"] = frame_bytes
            times["checkpoint_bytes"] = sum(g.size for g in generations)
            times["restored"] = restored
        return times

    if ctx.trace:
        untraced = cycles(ctx.seconds / 2, ctx.null)
        times = cycles(ctx.seconds / 2, ctx.rec)
        ctx.per_layer["bench.trace_overhead"] = (
            median(times["fold"]) / median(untraced["fold"]) - 1.0
        )
    else:
        times = cycles(ctx.seconds, ctx.null)
        rss = peak_rss_mb()
        runs = len(times["fold"])
        sketches = NODES * TENANTS
        cycle = median(times["save"]) + median(times["load"]) + median(
            times["fold"])
        ctx.put("setup_s", median(times["setup"]), "s", len(times["setup"]),
                "the four nodes' CheckpointManagers opened and their "
                "generations listed")
        ctx.put("peak_rss_mb", rss, "MB", 1,
                "VmHWM of this process, prefilled registries included")
        ctx.put("throughput_per_s", sketches / cycle, "1/s", runs,
                "node-tenant sketches through save, restore and fold")
        ctx.put("latency_p50_us", percentile(times["tenant"], 0.5) * 1e6,
                "us", len(times["tenant"]),
                "one tenant: encode 4 pools, tree_reduce, query")
        ctx.extra("tenant_fold_p99_us", window_p99(times["tenant"]) * 1e6,
                  "us", len(times["tenant"]),
                  "median of p99 per 1000 (not gated: see interactions.json)")
        ctx.extra("checkpoint_s", median(times["save"]), "s",
                  len(times["save"]), "CheckpointManager.save of all nodes")
        ctx.extra("restore_s", median(times["load"]), "s",
                  len(times["load"]), "load_latest of all four nodes")
        ctx.put("fold_s", median(times["fold"]), "s", runs,
                "encode, decode and merge every tenant")
        ctx.put("frame_bytes", times["frame_bytes"], "bytes",
                sketches, "wire frames of every node-tenant pool")
        ctx.extra("checkpoint_bytes", times["checkpoint_bytes"], "bytes",
                  NODES)

    if ctx.trace:
        for layer in ("save", "load"):
            ctx.per_layer[f"engine.recovery.{layer}_ms"] = ctx.span_ms(
                f"engine.recovery.{layer}")
        ctx.per_layer["engine.recovery.bytes_per_tenant"] = (
            times["checkpoint_bytes"] / (NODES * TENANTS)
        )
        ctx.per_layer["wire.frame.encode_us"] = (
            ctx.span_ms("wire.frame.encode") * 1e3
        )
        restored = times["restored"]
        decoded, decode, ratios = [], [], []
        for tenant in tenants:
            frames = [encode_sketch(r.pools[tenant]) for r in restored]
            sketches = []
            for frame in frames:
                with ctx.rec.span("wire.frame.decode") as decoded_span:
                    sketches.append(decode_sketch(frame))
                decode.append(decoded_span.duration)
                ratios.append(frame_info(frame).ratio)
            decoded.append(sketches)
        merges = []
        for sketches in decoded:
            with ctx.rec.span("agg.tree.merge") as merged:
                tree_reduce(sketches)
            merges.append(merged.duration)
        ctx.per_layer["wire.frame.decode_us"] = median(decode) * 1e6
        ctx.per_layer["wire.frame.ratio"] = float(np.mean(ratios))
        ctx.extra("agg.tree.merge_us", median(merges) * 1e6, "us",
                  len(merges), "tree_reduce over four decoded sketches")
        waterfall(node0, make_pool, CONFIG.shards, ctx.rec, out, ctx.per_layer)
