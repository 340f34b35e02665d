"""Deterministic hash partitioning of item streams into disjoint shards.

The engine scales out by splitting the *item space* (not the arrival
sequence) across ``K`` shards with a seeded uniform hash: every distinct
item maps to exactly one shard, for the whole lifetime of the pool.
Consequences the rest of the engine relies on:

- the distinct-item sets seen by different shards are **disjoint**, so
  per-shard cardinalities are *exactly additive* — summing shard
  estimates is unbiased even for non-mergeable estimators such as SMB;
- duplicates of an item always land on the same shard, so per-shard
  duplicate-insensitivity (Theorem 2 for SMB) is preserved;
- partitioning is a pure function of ``(route seed, item)``, so
  re-partitioning a replayed stream reproduces the same sub-streams bit
  for bit.

**Routing reads the hash the shards already need.** The shard id is the
top 32 bits of a 64-bit splitmix64 hash ``u``, reduced to ``K`` by
multiply-shift: ``shard = ((u >> 32) * K) >> 32``. Which hash ``u`` is
depends on the shards, and is chosen once, at construction, from their
shared plane requests:

- when every shard reads a *geometric* level (SMB, the LogLog / HLL /
  TailCut families, FM, MRB), ``u`` is the uniform hash behind that
  level. A geometric level is the trailing-zero count of ``u`` — its
  *low* bits — while the route reads the *high* bits, so the shard id
  and the level are independent and each shard still sees
  ``P(level = i) = 2^-(i+1)``. The one exception is a level of 32 or
  more: all 32 low bits are zero, so that level also depends on the
  high half. It happens with probability ``2^-32`` per item, far below
  any estimator's resolution at the cardinalities a shard sees. Every
  other hash a shard uses (positions, register routing) has a different
  seed and is independent of ``u`` altogether. A chunk's plane then
  mixes that seed **once** for both routing and estimation;
- otherwise (KMV reads the full uniform value, so the high bits would
  bias its minima; Bitmap has no geometric request; a bare
  ``Partitioner(K, seed)``) ``u`` comes from a dedicated seed,
  ``seed + ROUTE_SEED_OFFSET``, independent of every estimator hash.

Both cases run the same code; only the seed differs.

**One split.** :meth:`Partitioner.split_plane` groups a chunk with one
stable counting sort of the small-int shard ids, gathers the values and
each array the shards request once, in sorted order, and hands shard
``k`` the contiguous slice ``bounds[k]:bounds[k+1]``. Stability keeps
each shard's arrival order, which order-sensitive estimators (SMB)
need for bit-exact sharded recording.

Both a scalar path (:meth:`Partitioner.shard_of`) and a vectorized path
(:meth:`Partitioner.shard_ids`, :meth:`Partitioner.split`) are provided,
computing the same function — mirroring the library-wide scalar/batch
equivalence contract.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.hashing import UniformHash, canonical_u64_array
from repro.kernels import HashPlane, uniform_request
from repro.kernels.plane import PlaneRequest

#: Seed offset of the dedicated partition hash, used when the shards
#: share no geometric request; distinct from every offset the
#: estimators use (SMB position 0x504F53, LogLog/HLL geometric 0x47454F).
ROUTE_SEED_OFFSET = 0x53484152  # "SHAR"

#: Multiply-shift needs ``(2^32 - 1) * K`` to fit in 64 bits.
MAX_SHARDS = 1 << 32

_U64_32 = np.uint64(32)


def _id_dtype(num_shards: int) -> "type[np.unsignedinteger[Any]]":
    """Smallest unsigned dtype holding ids ``0..num_shards-1``.

    NumPy's stable sort is a radix sort for 8- and 16-bit keys, so
    compact ids make the counting sort linear.
    """
    if num_shards <= 1 << 8:
        return np.uint8
    if num_shards <= 1 << 16:
        return np.uint16
    return np.uint32


def group_by_shard(
    ids: np.ndarray, num_shards: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable counting sort of shard ids.

    Returns ``(order, bounds)``: ``order`` lists indices grouped by shard
    with arrival order kept inside each group, and shard ``k`` owns
    ``order[bounds[k]:bounds[k+1]]``.
    """
    ids = ids.astype(_id_dtype(num_shards), copy=False)
    order = np.argsort(ids, kind="stable")
    bounds = np.zeros(num_shards + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=num_shards), out=bounds[1:])
    return order, bounds


class Partitioner:
    """Deterministic hash partitioner over ``num_shards`` disjoint shards.

    Parameters
    ----------
    num_shards:
        Number of shards ``K`` (``1 <= K <= 2^32``).
    seed:
        Pool seed; the dedicated route seed is ``seed + ROUTE_SEED_OFFSET``.
    requests:
        The plane requests every shard shares (see
        ``ShardPool.plane_requests``). The first geometric request, if
        any, supplies the route seed; :meth:`split_plane` hands each
        shard exactly these arrays.

    With ``num_shards == 1`` partitioning degenerates to the identity:
    no hash is computed at all (in either path) and ``requests`` is not
    kept, so a single-shard pool adds no per-item overhead and almost no
    memory over the bare estimator.
    """

    __slots__ = (
        "num_shards", "seed", "requests",
        "_hash", "_num_shards_u64", "_id_dtype",
    )

    def __init__(
        self,
        num_shards: int,
        seed: int = 0,
        requests: Iterable[PlaneRequest] = (),
    ) -> None:
        if not 1 <= num_shards <= MAX_SHARDS:
            raise ValueError(
                f"num_shards must be in [1, {MAX_SHARDS}], got {num_shards}"
            )
        self.num_shards = int(num_shards)
        self.seed = int(seed)
        self.requests: tuple[PlaneRequest, ...] = (
            tuple(dict.fromkeys(requests)) if self.num_shards > 1 else ()
        )
        level_seeds = [
            request[1] for request in self.requests
            if request[0] == "geometric"
        ]
        self._hash = UniformHash(
            level_seeds[0] if level_seeds else self.seed + ROUTE_SEED_OFFSET
        )
        self._num_shards_u64 = np.uint64(self.num_shards)
        self._id_dtype = _id_dtype(self.num_shards)

    @property
    def route_seed(self) -> int:
        """Seed of the uniform hash the route reads."""
        return self._hash.seed

    def shard_of(self, value: int) -> int:
        """Shard index of one canonical uint64 value (scalar path)."""
        if self.num_shards == 1:
            return 0
        return ((self._hash.hash_u64(value) >> 32) * self.num_shards) >> 32

    def _route(self, hashes: np.ndarray) -> np.ndarray:
        """Multiply-shift the high half of ``hashes`` onto ``[0, K)``."""
        high = hashes >> _U64_32
        np.multiply(high, self._num_shards_u64, out=high)
        np.right_shift(high, _U64_32, out=high)
        return high.astype(self._id_dtype)

    def shard_ids(self, values: np.ndarray) -> np.ndarray:
        """Shard index of every value in a uint64 array (vectorized).

        Ids come back in the smallest unsigned dtype that holds ``K``.
        """
        if self.num_shards == 1:
            return np.zeros(values.size, dtype=self._id_dtype)
        return self._route(self._hash.hash_array(values))

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Split a uint64 array into ``K`` disjoint per-shard sub-arrays.

        The within-shard arrival order of the input is preserved (a
        stable grouping), which is what makes sharded recording
        bit-for-bit equivalent to feeding each shard its sub-stream
        sequentially — required for order-sensitive estimators (SMB).
        """
        values = canonical_u64_array(values)
        if self.num_shards == 1:
            return [values]
        order, bounds = group_by_shard(self.shard_ids(values), self.num_shards)
        grouped = values[order]
        return [
            grouped[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def plane_request(self) -> PlaneRequest:
        """The uniform array the route reads, as a plane request."""
        return uniform_request(self.route_seed)

    def split_plane(self, plane: HashPlane) -> list[HashPlane]:
        """Split a hash plane into ``K`` disjoint per-shard sub-planes.

        Same grouping (and the same stability guarantee) as
        :meth:`split`, but operating on a shared
        :class:`~repro.kernels.HashPlane`: the route reads the plane's
        uniform array for the route seed, and the sub-planes carry the
        values plus every array in :attr:`requests`, each gathered
        once (see :meth:`HashPlane.split`) — so downstream shards never
        re-hash what they share, and a chunk is hashed exactly once no
        matter how many shards consume it.
        """
        if self.num_shards == 1:
            return [plane]
        ids = self._route(plane.uniform(self.route_seed))
        order, bounds = group_by_shard(ids, self.num_shards)
        return plane.split(order, bounds, self.requests)

    def __repr__(self) -> str:
        return (
            f"Partitioner(num_shards={self.num_shards}, seed={self.seed}, "
            f"route_seed={self.route_seed})"
        )
