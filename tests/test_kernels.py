"""Unit tests of the kernels layer: hash planes and scatter kernels.

The estimator contract tests assert the end-to-end guarantee (plane
recording ≡ scalar recording); here the layer's own pieces are pinned
directly: plane arrays match the hashing-module oracles, memoization
returns the same object, ``take``/``prefetch`` gather instead of
re-hashing, and both scatter strategies (indexed ``ufunc.at`` and the
sorted ``reduceat`` fallback) stay exactly interchangeable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import GeometricHash, UniformHash
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

VALUES = distinct_items(4096, seed=13)


class TestHashPlane:
    def test_uniform_matches_oracle(self):
        plane = HashPlane(VALUES)
        for seed in (0, 7, 0x504F53):
            expected = UniformHash(seed).hash_array(VALUES)
            assert np.array_equal(plane.uniform(seed), expected)

    def test_geometric_matches_oracle(self):
        plane = HashPlane(VALUES)
        for seed in (0, 7):
            expected = GeometricHash(seed).value_array(VALUES)
            assert np.array_equal(plane.geometric(seed), expected)

    def test_positions_match_oracle(self):
        plane = HashPlane(VALUES)
        expected = UniformHash(3).hash_array(VALUES) % np.uint64(5000)
        assert np.array_equal(plane.positions(3, 5000), expected)

    def test_memoization_returns_same_array(self):
        plane = HashPlane(VALUES)
        assert plane.uniform(9) is plane.uniform(9)
        assert plane.geometric(9) is plane.geometric(9)
        assert plane.positions(9, 100) is plane.positions(9, 100)
        # Distinct keys stay distinct.
        assert plane.positions(9, 100) is not plane.positions(9, 101)

    def test_of_canonicalizes(self):
        from_items = HashPlane.of(["a", "b", 3])
        assert from_items.size == 3
        assert from_items.values.dtype == np.uint64

    def test_prefetch_materializes_requests(self):
        plane = HashPlane(VALUES)
        requests = (
            uniform_request(1),
            geometric_request(2),
            positions_request(3, 777),
        )
        plane.prefetch(requests)
        materialized = plane.materialized()
        for request in requests:
            assert request in materialized

    def test_prefetch_rejects_unknown_kind(self):
        plane = HashPlane(VALUES)
        with pytest.raises(ValueError, match="unknown plane request"):
            plane.prefetch([("md5", 0)])

    def test_split_gathers_requested_arrays(self):
        plane = HashPlane(VALUES)
        plane.prefetch([uniform_request(4), positions_request(5, 600)])
        order = np.argsort(VALUES % np.uint64(3), kind="stable")
        bounds = np.array([0, 100, 100, VALUES.size])
        children = plane.split(order, bounds, [positions_request(5, 600)])
        assert [child.size for child in children] == [100, 0, VALUES.size - 100]
        for child, lo, hi in zip(children, bounds[:-1], bounds[1:]):
            part = VALUES[order[lo:hi]]
            assert np.array_equal(child.values, part)
            # Only the requested array travels: the unrequested uniform
            # array stays behind with the parent.
            assert child.materialized() == (positions_request(5, 600),)
            # Gathered, not re-hashed — and still correct.
            assert np.array_equal(
                child.positions(5, 600),
                UniformHash(5).hash_array(part) % np.uint64(600),
            )
            # Arrays requested only on the child are computed at child width.
            assert child.geometric(6).size == part.size

    def test_split_children_own_copies(self):
        plane = HashPlane(VALUES)
        plane.prefetch([uniform_request(8)])
        order = np.arange(VALUES.size)
        bounds = np.array([0, 16, VALUES.size])
        first, __ = plane.split(order, bounds, [uniform_request(8)])
        first.uniform(8)[:] = 0
        first.values[:] = 0
        assert plane.uniform(8)[:16].any()  # parent untouched
        assert plane.values[:16].any()


class TestScatterKernels:
    indices = st.lists(st.integers(0, 63), min_size=1, max_size=300)

    @settings(deadline=None, max_examples=50)
    @given(indices=indices, data=st.data())
    def test_strategies_agree_max(self, indices, data):
        idx = np.asarray(indices, dtype=np.uint64)
        values = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 255),
                    min_size=len(indices),
                    max_size=len(indices),
                )
            ),
            dtype=np.uint8,
        )
        fast = np.random.default_rng(0).integers(
            0, 10, size=64, dtype=np.uint64
        ).astype(np.uint8)
        slow = fast.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scatter_module, "_FAST_UFUNC_AT", True)
            scatter_max(fast, idx, values)
            patch.setattr(scatter_module, "_FAST_UFUNC_AT", False)
            scatter_max(slow, idx, values)
        assert np.array_equal(fast, slow)

    @settings(deadline=None, max_examples=50)
    @given(indices=indices, data=st.data())
    def test_strategies_agree_or(self, indices, data):
        idx = np.asarray(indices, dtype=np.uint64)
        values = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 2**32 - 1),
                    min_size=len(indices),
                    max_size=len(indices),
                )
            ),
            dtype=np.uint32,
        )
        fast = np.zeros(64, dtype=np.uint32)
        slow = np.zeros(64, dtype=np.uint32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scatter_module, "_FAST_UFUNC_AT", True)
            scatter_or(fast, idx, values)
            patch.setattr(scatter_module, "_FAST_UFUNC_AT", False)
            scatter_or(slow, idx, values)
        assert np.array_equal(fast, slow)

    def test_matches_sequential_application(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 512, size=5000, dtype=np.uint64)
        values = rng.integers(0, 32, size=5000).astype(np.uint8)
        target = np.zeros(512, dtype=np.uint8)
        scatter_max(target, idx, values)
        expected = np.zeros(512, dtype=np.uint8)
        for i, v in zip(idx.tolist(), values.tolist()):
            if v > expected[i]:
                expected[i] = v
        assert np.array_equal(target, expected)

    def test_empty_scatter_is_noop(self):
        target = np.arange(8, dtype=np.uint8)
        scatter_max(target, np.array([], dtype=np.uint64), np.array([], dtype=np.uint8))
        scatter_or(target, np.array([], dtype=np.uint64), np.array([], dtype=np.uint8))
        assert np.array_equal(target, np.arange(8, dtype=np.uint8))


class TestPartitionerPlanes:
    def test_split_plane_matches_split(self):
        from repro.engine.partition import Partitioner

        for num_shards in (1, 4, 40, 300):  # 8-bit ids, and 16-bit ids
            partitioner = Partitioner(
                num_shards, seed=2, requests=[uniform_request(11)]
            )
            plane = HashPlane(VALUES)
            arrays = partitioner.split(VALUES)
            planes = partitioner.split_plane(plane)
            assert len(arrays) == len(planes) == num_shards
            for part, sub in zip(arrays, planes):
                assert np.array_equal(part, sub.values)
                if num_shards > 1:
                    # The shards' request travels with each sub-plane.
                    assert sub.materialized() == (uniform_request(11),)
                # Gathered arrays line up with a fresh hash of the part.
                assert np.array_equal(
                    sub.uniform(11), UniformHash(11).hash_array(part)
                )
