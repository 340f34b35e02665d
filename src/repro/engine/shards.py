"""A shard pool: one estimator per hash partition, additive queries.

:class:`ShardPool` holds ``K`` estimators and routes every item to
exactly one of them through a :class:`~repro.engine.partition.Partitioner`.
Because the partition assigns each *distinct item* to one shard, the
shards' distinct-item sets are disjoint and

    |stream| = Σ_k |sub-stream_k|

holds **exactly** — so summing the per-shard estimates is an unbiased
estimator of the total cardinality for *any* estimator type, including
SMB, which is not mergeable on overlapping streams (its morphing
schedule is arrival-order dependent; see ``repro.estimators.setops``).
Sharding is how an SMB deployment scales out despite non-mergeability.

For mergeable shard types (Bitmap, MRB, FM, LogLog family, HLL, KMV)
the pool additionally supports:

- :meth:`ShardPool.merge` — shard-wise union of two pools built over the
  same partition function (an item routes to the same shard in both
  pools, so per-shard unions stay disjoint across shards);
- :meth:`ShardPool.merged` — collapsing all shards into one sketch of
  the union stream, when every shard was built with identical
  parameters.

The pool is itself a :class:`~repro.estimators.base.CardinalityEstimator`
and honours the full library contract (scalar ≡ batch bit-for-bit,
duplicate insensitivity, serialization round-trips, instrumentation
counters), so it composes with the harness, the windowing sketches and
the checkpoint layer like any other estimator.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

from repro.estimators.base import CardinalityEstimator
from repro.engine.partition import Partitioner
from repro.framing import UnsupportedVersionError
from repro.kernels import HashPlane
from repro.kernels.plane import PlaneRequest

_HEADER = struct.Struct("<4sHIQ")  # magic, version, num_shards, seed
_SHARD_HEADER = struct.Struct("<BQ")  # class-name length, payload length
_MAGIC = b"POOL"
#: v2 routes by the high half of the shards' shared geometric hash
#: (see ``repro.engine.partition``); v1 used a dedicated route seed
#: reduced modulo K, so a v1 pool's shards hold different sub-streams.
_VERSION = 2


def shared_plane_requests(
    shards: Sequence[CardinalityEstimator],
) -> tuple[PlaneRequest, ...]:
    """Plane requests every one of ``shards`` makes, in first-seen order.

    Requests unique to a subset of shards are left out: they are cheaper
    to compute at sub-plane width after partitioning than at full chunk
    width before it.
    """
    counts: dict[PlaneRequest, int] = {}
    for shard in shards:
        for request in dict.fromkeys(shard.plane_requests()):
            counts[request] = counts.get(request, 0) + 1
    return tuple(
        request for request, count in counts.items() if count == len(shards)
    )


def estimator_registry() -> dict[str, type[CardinalityEstimator]]:
    """Class-name → class map of every serializable estimator.

    Used by the pool (and the checkpoint layer) to reconstruct shard
    estimators from their serialized form: each shard blob fully encodes
    its own configuration, so restoring needs only the class.
    """
    from repro.core.smb import SelfMorphingBitmap
    from repro.estimators import (
        Bitmap,
        FMSketch,
        HyperLogLog,
        HyperLogLogPlusPlus,
        HyperLogLogTailCut,
        HyperLogLogTailCutPlus,
        KMinValues,
        LogLog,
        MultiResolutionBitmap,
        RefinedHyperLogLog,
        SuperLogLog,
    )

    classes = (
        Bitmap,
        FMSketch,
        HyperLogLog,
        HyperLogLogPlusPlus,
        HyperLogLogTailCut,
        HyperLogLogTailCutPlus,
        KMinValues,
        LogLog,
        MultiResolutionBitmap,
        RefinedHyperLogLog,
        SuperLogLog,
        SelfMorphingBitmap,
    )
    return {cls.__name__: cls for cls in classes}


class ShardPool(CardinalityEstimator):
    """K hash-partitioned estimators with an exactly-additive query.

    Parameters
    ----------
    factory:
        ``factory(shard_index) -> CardinalityEstimator``; called once
        per shard. For :meth:`merged` to be available every shard must
        be built with identical parameters (same class, size and seed).
    num_shards:
        Number of shards ``K`` (>= 1).
    seed:
        Pool seed. Routing reuses the uniform hash behind a geometric
        request every shard shares, when there is one, and otherwise a
        dedicated seed derived from this one (see
        :class:`~repro.engine.partition.Partitioner`).
    """

    name = "ShardPool"

    def __init__(
        self,
        factory: Callable[[int], CardinalityEstimator],
        num_shards: int,
        seed: int = 0,
    ) -> None:
        self.shards: list[CardinalityEstimator] = [
            factory(index) for index in range(num_shards)
        ]
        for index, shard in enumerate(self.shards):
            if not isinstance(shard, CardinalityEstimator):
                raise TypeError(
                    f"factory returned {type(shard).__name__} for shard "
                    f"{index}; expected a CardinalityEstimator"
                )
        self.partitioner = Partitioner(
            num_shards, seed, shared_plane_requests(self.shards)
        )
        super().__init__()  # zeroes the routing counters via the setters

    @classmethod
    def of(
        cls,
        estimator: str,
        memory_bits: int,
        num_shards: int,
        design_cardinality: int = 1_000_000,
        seed: int = 0,
    ) -> "ShardPool":
        """Build a pool by estimator display name with the paper's sizing.

        The total ``memory_bits`` budget and the ``design_cardinality``
        are divided evenly across the ``num_shards`` shards (each shard
        sees ~1/K of the distinct items), and every shard shares the
        same estimator seed so that :meth:`merged` stays valid for
        mergeable types.
        """
        from repro.bench.runner import make_estimator

        shard_bits = max(64, int(memory_bits) // int(num_shards))
        shard_design = max(1_000, int(design_cardinality) // int(num_shards))
        return cls(
            lambda index: make_estimator(
                estimator, shard_bits, shard_design, seed
            ),
            num_shards,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Instrumentation: pool counters aggregate routing + shard counters.
    # ------------------------------------------------------------------
    @property
    def hash_ops(self) -> int:
        """Routing hash ops plus every shard's own hash ops."""
        return self._route_hash_ops + sum(s.hash_ops for s in self.shards)

    @hash_ops.setter
    def hash_ops(self, value: int) -> None:
        self._route_hash_ops = int(value)

    @property
    def bits_accessed(self) -> int:
        """Aggregate bits-accessed counter across all shards."""
        return self._route_bits_accessed + sum(
            s.bits_accessed for s in self.shards
        )

    @bits_accessed.setter
    def bits_accessed(self, value: int) -> None:
        self._route_bits_accessed = int(value)

    def reset_counters(self) -> None:
        """Zero the routing counters and every shard's counters."""
        super().reset_counters()
        for shard in self.shards:
            shard.reset_counters()

    # ------------------------------------------------------------------
    # Recording: route, then delegate. Both paths bill one routing hash
    # per item (none when K == 1, where no routing hash is computed).
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        if self.num_shards > 1:
            self._route_hash_ops += 1
        self.shards[self.partitioner.shard_of(value)]._record_u64(value)

    def plane_requests(self) -> tuple[PlaneRequest, ...]:
        """Routing hash plus every request shared by all shards.

        ``ShardPool.of`` gives every shard the same estimator seed, so
        there the full request set is prefetched and the shards never
        hash at all; when the shards share a geometric request the
        routing hash *is* that request's uniform array, so one mixing
        pass serves both.
        """
        if self.num_shards == 1:
            return shared_plane_requests(self.shards)
        route = self.partitioner.plane_request()
        return (route,) + tuple(
            r for r in self.partitioner.requests if r != route
        )

    def _record_plane(self, plane: HashPlane) -> None:
        if self.num_shards == 1:
            self.shards[0]._record_plane(plane)
            return
        self._route_hash_ops += plane.size
        # split_plane hashes once at full vector width, then hands each
        # shard a slice of one gather of the arrays it will read.
        # analysis: allow(purity.loop) -- one iteration per shard (K),
        # each applying a vectorized sub-plane, never per item
        for shard, part in zip(
            self.shards, self.partitioner.split_plane(plane)
        ):
            if part.size:
                shard._record_plane(part)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self) -> float:
        """Sum of shard estimates — exact additivity over disjoint shards."""
        return float(sum(shard.query() for shard in self.shards))

    def shard_estimates(self) -> list[float]:
        """Per-shard estimates (diagnostics; sums to :meth:`query`)."""
        return [shard.query() for shard in self.shards]

    def memory_bits(self) -> int:
        """Total memory across shards (the partitioner itself stores none)."""
        return sum(shard.memory_bits() for shard in self.shards)

    @property
    def num_shards(self) -> int:
        """Number of shards K."""
        return self.partitioner.num_shards

    @property
    def seed(self) -> int:
        """Pool seed (the dedicated route seed derives from it)."""
        return self.partitioner.seed

    @property
    def route_seed(self) -> int:
        """Seed of the uniform hash the partition reads."""
        return self.partitioner.route_seed

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        """Shard-wise union with a pool over the same partition function.

        Valid only when the shard estimators are themselves mergeable:
        an item routes to the same shard index in both pools, so shard
        ``k`` of the merged pool is the sketch of the union of the two
        shard-``k`` sub-streams, and those unions remain disjoint across
        shards — additivity is preserved.
        """
        self._check_mergeable(other)
        assert isinstance(other, ShardPool)  # _check_mergeable guarantees it
        self._check_merge_params(other, "num_shards", "seed", "route_seed")
        for mine, theirs in zip(self.shards, other.shards):
            mine.merge(theirs)

    def merged(self) -> CardinalityEstimator:
        """Collapse all shards into one sketch of the whole stream.

        Requires every shard to be mergeable and built with identical
        parameters (the :meth:`of` constructor guarantees this). Useful
        for exporting a single compact sketch after sharded ingestion.
        """
        from repro.estimators.setops import clone

        collapsed = clone(self.shards[0])
        for shard in self.shards[1:]:
            collapsed.merge(shard)
        return collapsed

    def to_bytes(self) -> bytes:
        """Serialize the whole pool (versioned header + shard blobs)."""
        parts = [
            _HEADER.pack(_MAGIC, _VERSION, self.num_shards, self.seed)
        ]
        for shard in self.shards:
            blob = shard.to_bytes()
            class_name = type(shard).__name__.encode("ascii")
            parts.append(_SHARD_HEADER.pack(len(class_name), len(blob)))
            parts.append(class_name)
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardPool":
        """Restore a pool serialized by :meth:`to_bytes`.

        Each shard blob fully encodes its own configuration, so no
        factory is needed; shard classes resolve through
        :func:`estimator_registry`. Framing is strict: a truncated
        shard header, class name or blob — and any trailing bytes
        after the last shard — raise ``ValueError``.
        """
        try:
            magic, version, num_shards, seed = _HEADER.unpack_from(data)
        except struct.error as error:
            raise ValueError("not a serialized ShardPool: too short") from error
        if magic != _MAGIC:
            raise ValueError("not a serialized ShardPool")
        if version == 1:
            raise UnsupportedVersionError(
                "unsupported ShardPool version 1: v1 pools used a different "
                "routing function (a dedicated route seed reduced modulo "
                "the shard count), so their shards hold sub-streams this "
                f"version would route elsewhere; version {_VERSION} is "
                "required. Re-ingest the stream to rebuild the pool."
            )
        if version != _VERSION:
            raise UnsupportedVersionError(
                f"unsupported ShardPool version {version}"
            )
        registry = estimator_registry()
        shards: list[CardinalityEstimator] = []
        offset = _HEADER.size
        for __ in range(num_shards):
            try:
                name_len, blob_len = _SHARD_HEADER.unpack_from(data, offset)
            except struct.error as error:
                raise ValueError(
                    "corrupt ShardPool payload: truncated shard header"
                ) from error
            offset += _SHARD_HEADER.size
            name_bytes = data[offset:offset + name_len]
            if len(name_bytes) != name_len:
                raise ValueError(
                    "corrupt ShardPool payload: truncated shard class name"
                )
            class_name = name_bytes.decode("ascii")
            offset += name_len
            blob = data[offset:offset + blob_len]
            if len(blob) != blob_len:
                raise ValueError("corrupt ShardPool payload: truncated shard")
            offset += blob_len
            shard_cls = registry.get(class_name)
            if shard_cls is None:
                raise ValueError(f"unknown shard estimator {class_name!r}")
            shards.append(shard_cls.from_bytes(blob))
        if offset != len(data):
            raise ValueError(
                "corrupt ShardPool payload: trailing bytes after last shard"
            )
        iterator = iter(shards)
        return cls(lambda __: next(iterator), num_shards, seed=seed)

    def __repr__(self) -> str:
        kinds = {type(shard).__name__ for shard in self.shards}
        return (
            f"ShardPool(num_shards={self.num_shards}, "
            f"shards={'/'.join(sorted(kinds))}, "
            f"memory_bits={self.memory_bits()})"
        )
