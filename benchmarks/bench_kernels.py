"""Microbenchmarks of the kernels layer: hash planes + scatter kernels.

Three groups:

- ``kernels-scatter`` — both scatter strategies (indexed ``ufunc.at``
  and the sorted ``reduceat`` fallback) head to head, so the strategy
  auto-selection in ``repro.kernels.scatter`` stays justified by data;
- ``kernels-plane`` — plane construction, prefetch, and partition
  (the per-chunk work the engine adds on top of raw recording);
- ``kernels-record`` — full-estimator recording through the plane path
  for the estimators whose kernels this layer hosts.

The closing plain tests assert the load-bearing speed claims: the plane
path must beat the scalar reference loop by a wide margin, and a shared
plane must make the second consumer of a chunk nearly free.
"""

import time

import numpy as np
import pytest

from _helpers import fresh
from repro.engine.partition import Partitioner
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
    scatter_max,
    scatter_or,
    uniform_request,
)
from repro.kernels import scatter as scatter_module
from repro.streams import distinct_items

ARRAY = distinct_items(100_000, seed=11)
RNG = np.random.default_rng(23)
SCATTER_IDX = RNG.integers(0, 4096, size=100_000, dtype=np.uint64)
SCATTER_VALS = RNG.integers(1, 32, size=100_000).astype(np.uint8)
SCATTER_MASKS = np.uint64(1) << RNG.integers(
    0, 64, size=100_000, dtype=np.uint64
)

PLANE_REQUESTS = (
    uniform_request(1),
    geometric_request(2),
    positions_request(3, 5_000),
)


def _with_strategy(fast: bool, fn):
    saved = scatter_module._FAST_UFUNC_AT
    scatter_module._FAST_UFUNC_AT = fast
    try:
        fn()
    finally:
        scatter_module._FAST_UFUNC_AT = saved


@pytest.mark.benchmark(group="kernels-scatter")
def test_scatter_max_ufunc_at_100k(benchmark):
    target = np.zeros(4096, dtype=np.uint8)
    benchmark(
        _with_strategy,
        True,
        lambda: scatter_max(target, SCATTER_IDX, SCATTER_VALS),
    )


@pytest.mark.benchmark(group="kernels-scatter")
def test_scatter_max_reduceat_100k(benchmark):
    target = np.zeros(4096, dtype=np.uint8)
    benchmark(
        _with_strategy,
        False,
        lambda: scatter_max(target, SCATTER_IDX, SCATTER_VALS),
    )


@pytest.mark.benchmark(group="kernels-scatter")
def test_scatter_or_ufunc_at_100k(benchmark):
    target = np.zeros(4096, dtype=np.uint64)
    benchmark(
        _with_strategy,
        True,
        lambda: scatter_or(target, SCATTER_IDX, SCATTER_MASKS),
    )


@pytest.mark.benchmark(group="kernels-scatter")
def test_scatter_or_reduceat_100k(benchmark):
    target = np.zeros(4096, dtype=np.uint64)
    benchmark(
        _with_strategy,
        False,
        lambda: scatter_or(target, SCATTER_IDX, SCATTER_MASKS),
    )


@pytest.mark.benchmark(group="kernels-plane")
def test_plane_prefetch_100k(benchmark):
    def run():
        plane = HashPlane(ARRAY)
        plane.prefetch(PLANE_REQUESTS)

    benchmark(run)


@pytest.mark.benchmark(group="kernels-plane")
def test_plane_memoized_reread_100k(benchmark):
    plane = HashPlane(ARRAY)
    plane.prefetch(PLANE_REQUESTS)
    benchmark(plane.uniform, 1)


@pytest.mark.benchmark(group="kernels-plane")
def test_plane_split_8_shards_100k(benchmark):
    partitioner = Partitioner(8, seed=3, requests=PLANE_REQUESTS)

    def run():
        plane = HashPlane(ARRAY)
        plane.prefetch(PLANE_REQUESTS)
        partitioner.split_plane(plane)

    benchmark(run)


@pytest.mark.benchmark(group="kernels-record")
@pytest.mark.parametrize("name", ("SMB", "MRB", "HLL++", "FM", "HLL-TailC"))
def test_record_plane_100k(benchmark, name):
    def run():
        fresh(name).record_many(ARRAY)

    benchmark(run)


def _per_item_seconds(fn, items: int) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) / items


def test_plane_path_is_much_faster_than_scalar_reference():
    """The acceptance-criterion claim, asserted at benchmark scale.

    The plane path on 100k items must beat the base-class scalar
    reference loop (timed on 5k items — it is far too slow for more)
    by at least 5× per item for each headline estimator.
    """
    for name in ("SMB", "MRB", "HLL++"):
        batch = _per_item_seconds(
            lambda: fresh(name).record_many(ARRAY), ARRAY.size
        )
        scalar = _per_item_seconds(
            lambda: fresh(name)._record_batch(ARRAY[:5_000]), 5_000
        )
        assert batch < scalar / 5, f"{name}: {scalar / batch:.1f}x < 5x"


def test_shared_plane_makes_second_consumer_cheap():
    """Two same-seed mirrors of one chunk: the second reads the cache."""
    plane = HashPlane(ARRAY)
    first, second = fresh("HLL++"), fresh("HLL++")
    cold = _per_item_seconds(lambda: first.record_plane(plane), ARRAY.size)
    warm = _per_item_seconds(lambda: second.record_plane(plane), ARRAY.size)
    assert warm < cold  # no re-hashing on the cached plane
    assert first.to_bytes() == second.to_bytes()


def test_sparse_set_batch_skips_the_full_popcount():
    """A tiny batch into a huge bitmap must not re-popcount every word.

    2^24 bits = 262144 words; a 512-position batch touches ≤ 512 words
    (≈0.02% — far under the 1% incremental threshold), so ``set_many``
    popcounts only the touched group. The full-recount reference is the
    same update followed by a whole-vector ``bitwise_count``. Best-of-N
    against a generous 3× factor so a noisy runner cannot flake it.
    """
    from repro.bitvector import BitVector

    size = 1 << 24
    rng = np.random.default_rng(41)
    positions = rng.integers(0, size, size=512, dtype=np.uint64)

    vector = BitVector(size)
    vector.set_many(rng.integers(0, size, size=4096, dtype=np.uint64))

    def best_of(fn, repeats=7):
        times = []
        for __ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    incremental = best_of(lambda: vector.set_many(positions))
    full = best_of(
        lambda: (
            vector.set_many(positions),
            int(np.bitwise_count(vector._words).sum()),
        )
    )
    assert incremental < full / 3, (
        f"incremental {incremental * 1e6:.1f}us vs full-recount "
        f"{full * 1e6:.1f}us: expected >= 3x headroom"
    )
