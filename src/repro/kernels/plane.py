"""The hash plane: per-chunk hash arrays computed once, shared by all.

Every estimator in this library derives its per-item randomness from
the same two primitives over the canonical uint64 value: a seeded
splitmix64 *uniform* hash and its trailing-zero *geometric* level
(Definition 1 of the paper). A chunk of the stream therefore has a
small set of hash arrays that every consumer of that chunk draws from —
the **hash plane**:

    plane = HashPlane.of(chunk)
    smb.record_plane(plane)        # geometric(seed), positions(seed', m)
    hll.record_plane(plane)        # positions(seed, t), geometric(seed'')
    pool.record_plane(plane)       # routing uniform + gathered sub-planes

:class:`HashPlane` memoizes each array by ``(kind, seed[, modulus])``
the first time a consumer asks for it. Consumers with the same seed
(mirrored estimators, the K same-seed shards of ``ShardPool.of``, the
d rows of a SpreadSketch, a benchmark recording one stream into several
baselines that share a route or geometric seed) hit the cache and pay
nothing. Morphing, round filters and register scatters all read from
the plane, so a chunk is hashed **once** no matter how many structures
consume it.

Memory: each materialized array is 8 bytes/item for uniform and
position arrays and 1 byte/item for geometric levels; a plane over an
8192-item chunk with three consumers typically holds 3-5 arrays
(~200 KB), freed with the plane when the chunk has been applied.

Partitioning: :meth:`split` turns one chunk into the engine's per-shard
sub-planes. It gathers the values and each requested array once, in
grouped order, and slices the gathered arrays into contiguous
sub-planes — nothing is re-hashed, and arrays no shard asked for are
left behind. The sub-planes share those gathered copies but never the
parent's arrays, so handing them to another thread is safe.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.hashing import (
    UniformHash,
    canonical_u64_array,
    trailing_zeros_array,
)

#: A plane request names one hash array: ("uniform", seed),
#: ("geometric", seed) or ("positions", seed, modulus). Estimators
#: advertise theirs via ``CardinalityEstimator.plane_requests`` so
#: pools and pipelines can prefetch full-width arrays before splitting.
PlaneRequest = Tuple


def uniform_request(seed: int) -> PlaneRequest:
    """Request the seeded uniform (splitmix64) hash array."""
    return ("uniform", int(seed))


def geometric_request(seed: int) -> PlaneRequest:
    """Request the seeded geometric-level array."""
    return ("geometric", int(seed))


def positions_request(seed: int, modulus: int) -> PlaneRequest:
    """Request the seeded uniform hash reduced modulo ``modulus``."""
    return ("positions", int(seed), int(modulus))


class HashPlane:
    """Memoized hash arrays over one chunk of canonical uint64 values.

    Parameters
    ----------
    values:
        Canonical ``uint64`` array (see ``repro.hashing.canonical_u64``).
        The constructor trusts the dtype; use :meth:`of` to canonicalize
        arbitrary items.
    """

    __slots__ = ("values", "_arrays")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        #: Materialized arrays keyed by their (normalized) plane request.
        self._arrays: dict[PlaneRequest, np.ndarray] = {}

    @classmethod
    def of(cls, items: Iterable[object] | np.ndarray) -> "HashPlane":
        """Canonicalize ``items`` and wrap them in a fresh plane."""
        return cls(canonical_u64_array(items))

    @property
    def size(self) -> int:
        """Number of values in the chunk."""
        return int(self.values.size)

    # ------------------------------------------------------------------
    # Hash arrays (memoized)
    # ------------------------------------------------------------------
    def uniform(self, seed: int) -> np.ndarray:
        """``UniformHash(seed)`` over the chunk, computed at most once."""
        key = uniform_request(seed)
        array = self._arrays.get(key)
        if array is None:
            array = UniformHash(key[1]).hash_array(self.values)
            self._arrays[key] = array
        return array

    def geometric(self, seed: int) -> np.ndarray:
        """``GeometricHash(seed)`` levels (uint8), computed at most once.

        Derived from :meth:`uniform` of the same seed, so a consumer
        pair needing both (e.g. SMB's sampling filter plus a mirror's
        register ranks) shares the expensive mixing pass.
        """
        key = geometric_request(seed)
        array = self._arrays.get(key)
        if array is None:
            array = trailing_zeros_array(self.uniform(key[1]))
            self._arrays[key] = array
        return array

    def positions(self, seed: int, modulus: int) -> np.ndarray:
        """``uniform(seed) % modulus``, memoized per ``(seed, modulus)``."""
        key = positions_request(seed, modulus)
        array = self._arrays.get(key)
        if array is None:
            array = self.uniform(key[1]) % np.uint64(key[2])
            self._arrays[key] = array
        return array

    def _array(self, request: PlaneRequest) -> np.ndarray:
        """The array one plane request names, computed at most once."""
        kind = request[0]
        if kind == "uniform":
            return self.uniform(request[1])
        if kind == "geometric":
            return self.geometric(request[1])
        if kind == "positions":
            return self.positions(request[1], request[2])
        raise ValueError(f"unknown plane request {request!r}")

    def prefetch(self, requests: Iterable[PlaneRequest]) -> None:
        """Materialize every requested array (full vector width).

        Pools call this before :meth:`split` so the per-shard sub-planes
        are pure gathers — the shards themselves never hash.
        """
        # analysis: allow(purity.loop) -- iterates the request list (a
        # handful of descriptors), never the chunk values
        for request in requests:
            self._array(request)

    # ------------------------------------------------------------------
    # Derived planes
    # ------------------------------------------------------------------
    def split(
        self,
        order: np.ndarray,
        bounds: np.ndarray,
        requests: Iterable[PlaneRequest],
    ) -> list["HashPlane"]:
        """Sub-planes of the chunk regrouped by ``order``.

        Sub-plane ``k`` holds ``values[order[bounds[k]:bounds[k+1]]]``.
        The values and each requested array (computed here first if not
        yet materialized) are gathered once, in ``order``; the sub-planes
        are contiguous slices of those gathered arrays and carry only
        the requested ones. Arrays a child reads later are computed at
        the child's width.
        """
        grouped = HashPlane(self.values[order])
        grouped._arrays = {
            request: self._array(request)[order] for request in requests
        }
        return [
            grouped._slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def _slice(self, lo: int, hi: int) -> "HashPlane":
        """Contiguous sub-plane sharing this plane's arrays as views."""
        child = HashPlane(self.values[lo:hi])
        child._arrays = {
            request: array[lo:hi] for request, array in self._arrays.items()
        }
        return child

    def materialized(self) -> Sequence[PlaneRequest]:
        """The requests currently cached (diagnostics and tests)."""
        return tuple(self._arrays)

    def __repr__(self) -> str:
        return (
            f"HashPlane(size={self.size}, "
            f"materialized={len(self.materialized())})"
        )
