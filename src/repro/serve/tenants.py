"""Multi-tenant estimator registry behind the cardinality service.

One server hosts many independent flows — the per-flow regime of the
Self-Learning Bitmap lineage that SMB inherits — so the serving layer
keys everything on a *tenant* name. :class:`TenantRegistry` maps tenant
names to :class:`~repro.engine.shards.ShardPool` instances, creating
pools lazily on first RECORD with a configuration shared by every
tenant (:class:`TenantConfig`). Creation is deterministic: a tenant's
pool seed is derived from the registry seed and the tenant name, so two
registries built from the same config that ingest the same per-tenant
streams hold bit-identical state — the property the kill-and-resume
test asserts against a local oracle.

The registry serializes with the same strict-framing discipline as the
estimators and is registered with the checkpoint layer
(:func:`repro.engine.checkpoint.register_checkpointable`), so the whole
multi-tenant state rides one atomic
:class:`~repro.engine.recovery.CheckpointManager` generation::

    magic "RPTR" | u16 version | u32 config-JSON length | config JSON
    | u32 tenant count
    | per tenant, sorted by utf-8 name:
        u16 name length | name | u64 blob length | ShardPool blob

Tenants are sorted by encoded name, making the byte image a canonical
function of the logical state (dict insertion order cannot leak in);
``from_bytes`` rejects truncation, trailing bytes, unsorted or
duplicate tenants, and any config/blob mismatch rather than restore a
silently-wrong registry.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass

from repro.engine.checkpoint import register_checkpointable
from repro.engine.shards import ShardPool

__all__ = ["TenantConfig", "TenantLimitError", "TenantRegistry"]

_HEADER = struct.Struct("<4sHI")  # magic, version, config length
_COUNT = struct.Struct("<I")
_NAME = struct.Struct("<H")
_BLOB = struct.Struct("<Q")
_MAGIC = b"RPTR"
_VERSION = 1


class TenantLimitError(RuntimeError):
    """Raised when a RECORD would create a tenant beyond ``max_tenants``."""


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant estimator sizing, shared by every tenant of a server.

    ``memory_bits`` / ``design_cardinality`` size each tenant's pool
    exactly like the paper's single-flow setting; ``shards`` > 1
    hash-partitions each tenant's pool into disjoint shards; ``max_tenants``
    bounds server memory (each tenant costs ~``memory_bits`` bits).
    """

    estimator: str = "SMB"
    memory_bits: int = 5000
    shards: int = 1
    design_cardinality: int = 1_000_000
    seed: int = 0
    max_tenants: int = 1_000_000

    def __post_init__(self) -> None:
        if self.memory_bits < 64:
            raise ValueError(
                f"memory_bits must be >= 64, got {self.memory_bits}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.design_cardinality < 1:
            raise ValueError(
                "design_cardinality must be >= 1, got "
                f"{self.design_cardinality}"
            )
        if self.max_tenants < 1:
            raise ValueError(
                f"max_tenants must be >= 1, got {self.max_tenants}"
            )

    def canonical_json(self) -> str:
        """Deterministic JSON image (sorted keys, no whitespace)."""
        return json.dumps(
            asdict(self), sort_keys=True, separators=(",", ":")
        )

    def tenant_seed(self, tenant: str) -> int:
        """Deterministic pool seed for one tenant.

        Mixes the registry seed with a CRC of the tenant name so
        distinct tenants decorrelate while any two registries with the
        same config agree — required for the oracle comparisons in the
        serve tests and for bit-exact resume.
        """
        return (int(self.seed) * 0x9E3779B1 + zlib.crc32(
            tenant.encode("utf-8")
        )) & 0xFFFFFFFF

    def build_pool(self, tenant: str) -> ShardPool:
        """A fresh, empty pool for one tenant."""
        return ShardPool.of(
            self.estimator,
            self.memory_bits,
            self.shards,
            design_cardinality=self.design_cardinality,
            seed=self.tenant_seed(tenant),
        )


@register_checkpointable
class TenantRegistry:
    """Lazily-populated tenant-name → shard-pool map."""

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.pools: dict[str, ShardPool] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def pool(self, tenant: str) -> ShardPool:
        """The tenant's pool, created on first use.

        Raises :class:`TenantLimitError` when creation would exceed
        ``max_tenants``.
        """
        existing = self.pools.get(tenant)
        if existing is not None:
            return existing
        if len(self.pools) >= self.config.max_tenants:
            raise TenantLimitError(
                f"tenant limit reached ({self.config.max_tenants}); "
                f"refusing to create {tenant!r}"
            )
        created = self.config.build_pool(tenant)
        self.pools[tenant] = created
        return created

    def estimate(self, tenant: str) -> float:
        """The tenant's current estimate; 0.0 for an unknown tenant.

        An unknown tenant has — observably — recorded nothing, so zero
        is the honest answer and ESTIMATE never mutates the registry
        (the high-QPS verb allocates nothing).
        """
        pool = self.pools.get(tenant)
        return pool.query() if pool is not None else 0.0

    def record_many(self, tenant: str, items) -> None:
        """Synchronous ingest (oracle/test path; the server uses
        :class:`~repro.engine.pipeline.IngestPipeline` instead)."""
        self.pool(tenant).record_many(items)

    def tenants(self) -> list[str]:
        """Tenant names, sorted (the serialization order)."""
        return sorted(self.pools)

    def __len__(self) -> int:
        return len(self.pools)

    def __repr__(self) -> str:
        return (
            f"TenantRegistry(tenants={len(self.pools)}, "
            f"config={self.config.canonical_json()})"
        )

    # ------------------------------------------------------------------
    # Serialization (strict framing, canonical bytes)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical byte image: config, then pools sorted by name bytes."""
        config_raw = self.config.canonical_json().encode("utf-8")
        parts = [
            _HEADER.pack(_MAGIC, _VERSION, len(config_raw)),
            config_raw,
            _COUNT.pack(len(self.pools)),
        ]
        for name in sorted(
            self.pools, key=lambda tenant: tenant.encode("utf-8")
        ):
            name_raw = name.encode("utf-8")
            blob = self.pools[name].to_bytes()
            parts.append(_NAME.pack(len(name_raw)))
            parts.append(name_raw)
            parts.append(_BLOB.pack(len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TenantRegistry":
        if len(data) < _HEADER.size:
            raise ValueError("not a tenant registry: too short")
        magic, version, config_length = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise ValueError("not a tenant registry: bad magic")
        if version != _VERSION:
            raise ValueError(
                f"unsupported tenant registry version {version}"
            )
        offset = _HEADER.size
        config_raw = data[offset:offset + config_length]
        if len(config_raw) != config_length:
            raise ValueError("corrupt tenant registry: truncated config")
        offset += config_length
        try:
            config = TenantConfig(**json.loads(config_raw.decode("utf-8")))
        except (TypeError, ValueError) as error:
            raise ValueError(
                "corrupt tenant registry: bad config JSON"
            ) from error
        try:
            (count,) = _COUNT.unpack_from(data, offset)
        except struct.error as error:
            raise ValueError(
                "corrupt tenant registry: truncated tenant count"
            ) from error
        offset += _COUNT.size
        registry = cls(config)
        previous: bytes | None = None
        for __ in range(count):
            try:
                (name_length,) = _NAME.unpack_from(data, offset)
            except struct.error as error:
                raise ValueError(
                    "corrupt tenant registry: truncated tenant name length"
                ) from error
            offset += _NAME.size
            name_raw = data[offset:offset + name_length]
            if len(name_raw) != name_length:
                raise ValueError(
                    "corrupt tenant registry: truncated tenant name"
                )
            offset += name_length
            if previous is not None and name_raw <= previous:
                # Canonical order doubles as a duplicate check.
                raise ValueError(
                    "corrupt tenant registry: tenants out of order"
                )
            previous = name_raw
            try:
                (blob_length,) = _BLOB.unpack_from(data, offset)
            except struct.error as error:
                raise ValueError(
                    "corrupt tenant registry: truncated pool length"
                ) from error
            offset += _BLOB.size
            blob = data[offset:offset + blob_length]
            if len(blob) != blob_length:
                raise ValueError(
                    "corrupt tenant registry: truncated pool blob"
                )
            offset += blob_length
            registry.pools[name_raw.decode("utf-8")] = ShardPool.from_bytes(
                blob
            )
        if offset != len(data):
            raise ValueError(
                "corrupt tenant registry: trailing bytes after payload"
            )
        return registry
