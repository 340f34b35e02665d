"""Shard routing: one function, four entry points, independent of levels.

A pool routes by the high half of the uniform hash behind the geometric
level its shards share (SMB, HLL++), or by a dedicated route seed when
they share none (KMV). These tests pin that:

- every entry point — scalar ``shard_of``, vectorized ``shard_ids``,
  ``split`` and ``split_plane`` — computes the same grouping and keeps
  arrival order within each shard, for shard counts on both sides of
  the 8-bit id boundary, for empty chunks and for chunks that all route
  to one shard;
- the route reads the high bits while geometric levels read the low
  ones, so on a million distinct items the level distribution is the
  same in every shard (a χ² test of independence);
- a v1 pool, routed by the old function, is refused with a clear error
  on every restore path instead of being resumed under the new routing.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from repro.engine import CheckpointManager, Partitioner, ShardPool
from repro.engine.partition import ROUTE_SEED_OFFSET
from repro.engine.recovery import IncompatibleCheckpointError
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import HashPlane, geometric_request, uniform_request
from repro.serve.server import CardinalityServer
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.streams import distinct_items

SHARD_COUNTS = (1, 2, 3, 7, 8, 33, 300)
ESTIMATORS = ("SMB", "HLL++", "KMV")
SEED = 5

u64s = st.lists(st.integers(0, 2**64 - 1), max_size=400)


def pool_of(estimator: str, num_shards: int) -> ShardPool:
    return ShardPool.of(estimator, 4_000 * num_shards, num_shards, seed=SEED)


#: Read-only pools for the routing checks, which never record.
routing_pool = functools.lru_cache(maxsize=None)(pool_of)


# ----------------------------------------------------------------------
# Which hash routes
# ----------------------------------------------------------------------
class TestRouteSeed:
    @pytest.mark.parametrize("estimator", ["SMB", "HLL++", "MRB", "FM"])
    def test_geometric_pools_route_by_the_shared_level_hash(self, estimator):
        pool = pool_of(estimator, 4)
        [level_seed] = [
            request[1] for request in pool.shards[0].plane_requests()
            if request[0] == "geometric"
        ]
        assert pool.route_seed == level_seed
        route, *shared = pool.plane_requests()
        assert route == uniform_request(level_seed)
        assert geometric_request(level_seed) in shared

    def test_one_mixing_pass_per_smb_chunk(self):
        pool = pool_of("SMB", 8)
        plane = HashPlane(distinct_items(8192, seed=1))
        pool.record_plane(plane)
        uniform = [r for r in plane.materialized() if r[0] == "uniform"]
        assert uniform == [uniform_request(pool.route_seed)]

    @pytest.mark.parametrize("estimator", ["KMV", "Bitmap"])
    def test_pools_without_a_level_use_the_dedicated_seed(self, estimator):
        pool = pool_of(estimator, 4)
        assert pool.route_seed == SEED + ROUTE_SEED_OFFSET
        assert pool.plane_requests()[0] == uniform_request(
            SEED + ROUTE_SEED_OFFSET
        )

    def test_bare_partitioner_uses_the_dedicated_seed(self):
        assert Partitioner(4, seed=3).route_seed == 3 + ROUTE_SEED_OFFSET
        assert Partitioner(4, seed=3).plane_request() == uniform_request(
            3 + ROUTE_SEED_OFFSET
        )

    def test_route_is_the_multiply_shift_of_the_high_half(self):
        partitioner = Partitioner(7, seed=2)
        hashes = UniformHash(partitioner.route_seed)
        for value in distinct_items(200, seed=3).tolist():
            high = hashes.hash_u64(value) >> 32
            assert partitioner.shard_of(value) == (high * 7) >> 32

    def test_restored_pool_routes_like_the_original(self):
        pool = pool_of("SMB", 8)
        pool.record_many(distinct_items(5_000, seed=4))
        restored = ShardPool.from_bytes(pool.to_bytes())
        assert restored.route_seed == pool.route_seed
        values = distinct_items(1_000, seed=5)
        assert np.array_equal(
            restored.partitioner.shard_ids(values),
            pool.partitioner.shard_ids(values),
        )

    def test_shard_count_bounds(self):
        with pytest.raises(ValueError):
            Partitioner(0)
        with pytest.raises(ValueError):
            Partitioner(2**32 + 1)


# ----------------------------------------------------------------------
# Every entry point computes one grouping
# ----------------------------------------------------------------------
def assert_one_grouping(pool: ShardPool, values: np.ndarray) -> None:
    partitioner = pool.partitioner
    num_shards = pool.num_shards
    ids = partitioner.shard_ids(values)
    assert ids.size == values.size
    assert [partitioner.shard_of(v) for v in values.tolist()] == ids.tolist()
    arrays = partitioner.split(values)
    plane = HashPlane(values)
    plane.prefetch(pool.plane_requests())
    planes = partitioner.split_plane(plane)
    assert len(arrays) == len(planes) == num_shards
    for shard, (array, sub) in enumerate(zip(arrays, planes)):
        # Stable: the sub-stream is the input filtered, in arrival order.
        expected = values[ids == shard]
        assert np.array_equal(array, expected)
        assert np.array_equal(sub.values, expected)
        if num_shards > 1:
            # Sub-planes carry exactly the shards' requests, gathered.
            assert set(sub.materialized()) == set(partitioner.requests)
        for request in partitioner.requests:
            fresh = HashPlane(expected)
            fresh.prefetch([request])
            kind, key = request[0], request[1:]
            gathered = getattr(sub, kind)(*key)
            assert np.array_equal(gathered, getattr(fresh, kind)(*key))


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    estimator=st.sampled_from(ESTIMATORS),
    num_shards=st.sampled_from(SHARD_COUNTS),
    items=u64s,
)
def test_every_entry_point_computes_one_grouping(estimator, num_shards, items):
    pool = routing_pool(estimator, num_shards)
    assert_one_grouping(pool, np.asarray(items, dtype=np.uint64))


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    estimator=st.sampled_from(ESTIMATORS),
    num_shards=st.sampled_from(SHARD_COUNTS),
    items=u64s.filter(bool),
)
def test_chunks_routed_to_one_shard(estimator, num_shards, items):
    pool = routing_pool(estimator, num_shards)
    values = np.asarray(items, dtype=np.uint64)
    ids = pool.partitioner.shard_ids(values)
    only = values[ids == ids[0]]
    assert_one_grouping(pool, only)
    sizes = [part.size for part in pool.partitioner.split(only)]
    assert sizes[int(ids[0])] == only.size == sum(sizes)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_empty_chunk(estimator, num_shards):
    assert_one_grouping(routing_pool(estimator, num_shards),
                        np.zeros(0, dtype=np.uint64))


@pytest.mark.parametrize("num_shards", (33, 300))
def test_sharded_recording_matches_sub_stream_feeds(num_shards):
    """Many shards (ids past 8 bits at K=300): pool ≡ per-shard feeds."""
    pool = pool_of("SMB", num_shards)
    mirrors = pool_of("SMB", num_shards)
    values = distinct_items(20_000, seed=7)
    pool.record_many(values)
    for shard, sub in zip(mirrors.shards, mirrors.partitioner.split(values)):
        shard.record_many(sub)
    assert pool.to_bytes() == mirrors.to_bytes()


# ----------------------------------------------------------------------
# Route and level are independent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", (3, 8))
def test_levels_are_independent_of_the_shard(num_shards):
    """χ² test of shard id × geometric level on 1M distinct items.

    Levels 0..9 are kept apart and 10+ pooled, so every expected cell
    count is above 60. Under independence the p-value is
    uniform; 1e-4 keeps the fixed-seed test far from a false alarm
    while a real dependence at this n drives p to ~0.
    """
    pool = pool_of("SMB", num_shards)
    values = distinct_items(1_000_000, seed=11)
    ids = pool.partitioner.shard_ids(values).astype(np.int64)
    levels = GeometricHash(pool.route_seed).value_array(values)
    levels = np.minimum(levels, 10).astype(np.int64)
    table = np.zeros((num_shards, 11), dtype=np.int64)
    np.add.at(table, (ids, levels), 1)
    assert table.min() > 20
    __, p_value, __, __ = chi2_contingency(table)
    assert p_value > 1e-4
    # And the route itself is balanced.
    shares = table.sum(axis=1) / values.size
    assert np.all(np.abs(shares - 1 / num_shards) < 0.005)


# ----------------------------------------------------------------------
# v1 pools are refused on every restore path
# ----------------------------------------------------------------------
_POOL_HEADER = struct.Struct("<4sHIQ")


def as_v1(blob: bytes) -> bytes:
    """The same pool image under the v1 version number."""
    magic, __, shards, seed = _POOL_HEADER.unpack_from(blob)
    return _POOL_HEADER.pack(magic, 1, shards, seed) + blob[_POOL_HEADER.size:]


@contextlib.contextmanager
def writing_v1():
    """Make ShardPool.to_bytes emit v1 images inside the block."""
    original = ShardPool.to_bytes
    ShardPool.to_bytes = lambda self: as_v1(original(self))
    try:
        yield
    finally:
        ShardPool.to_bytes = original


def test_from_bytes_rejects_v1():
    pool = pool_of("SMB", 4)
    pool.record_many(distinct_items(1_000, seed=1))
    with pytest.raises(ValueError, match=r"version 1.*different routing"):
        ShardPool.from_bytes(as_v1(pool.to_bytes()))


def test_engine_resume_rejects_v1(tmp_path):
    from repro.cli import main

    pool = pool_of("SMB", 4)
    pool.record_many(distinct_items(1_000, seed=1))
    with writing_v1():
        CheckpointManager(tmp_path).save(pool)
    with pytest.raises(IncompatibleCheckpointError, match="version 1"):
        CheckpointManager(tmp_path).load_latest()
    with pytest.raises(
        SystemExit, match=r"cannot resume.*cannot restore.*version 1"
    ):
        main(["engine", "--checkpoint-dir", str(tmp_path), "--resume"])


def v1_registry_dir(tmp_path):
    config = TenantConfig(estimator="SMB", memory_bits=8_000, shards=2)
    registry = TenantRegistry(config)
    registry.record_many("t", distinct_items(1_000, seed=2))
    with writing_v1():
        CheckpointManager(tmp_path).save(registry)
    return config


def test_serve_resume_rejects_v1(tmp_path):
    from repro.cli import main

    config = v1_registry_dir(tmp_path)
    server = CardinalityServer(
        config, checkpoint_manager=CheckpointManager(tmp_path), resume=True
    )
    with pytest.raises(IncompatibleCheckpointError, match="version 1"):
        asyncio.run(server.start("127.0.0.1", 0))
    with pytest.raises(SystemExit, match=r"cannot restore.*version 1"):
        main([
            "serve", "--port", "0", "--estimator", "SMB",
            "--memory-bits", "8000", "--shards", "2",
            "--checkpoint-dir", str(tmp_path), "--resume",
        ])


def test_agg_checkpoint_dir_rejects_v1(tmp_path):
    from repro.cli import main

    v1_registry_dir(tmp_path)
    with pytest.raises(SystemExit, match=r"cannot restore.*version 1"):
        main(["agg", "--tenant", "t", str(tmp_path)])
