"""Cross-node aggregation: tree_reduce, EXPORT/MERGE_IN, the agg CLI."""

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import HyperLogLog, LogLog, ShardPool
from repro.agg import reduce_estimate, tree_reduce
from repro.agg.cli import agg_main
from repro.engine.recovery import CheckpointManager
from repro.estimators import IncompatibleSketchError
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import CardinalityServer
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.streams import distinct_items
from repro.wire import decode_sketch, encode_sketch, frame_info


def _pool(seed=3, items=0, stream_seed=0):
    pool = ShardPool.of("HLL", 4000, 4, seed=seed)
    if items:
        pool.record_many(distinct_items(items, seed=stream_seed))
    return pool


# ----------------------------------------------------------------------
# tree_reduce semantics
# ----------------------------------------------------------------------
class TestTreeReduce:
    def test_matches_sequential_merge(self):
        sketches = [
            _pool(items=2_000, stream_seed=50 + index) for index in range(5)
        ]
        oracle = _pool()
        for sketch in sketches:
            oracle.merge(sketch)
        reduced = tree_reduce(sketches)
        assert reduced.to_bytes() == oracle.to_bytes()

    def test_operands_never_mutated(self):
        sketches = [
            _pool(items=1_000, stream_seed=60 + index) for index in range(3)
        ]
        images = [sketch.to_bytes() for sketch in sketches]
        tree_reduce(sketches)
        assert [sketch.to_bytes() for sketch in sketches] == images

    def test_accepts_frames_objects_and_mixes(self):
        a = _pool(items=1_500, stream_seed=70)
        b = _pool(items=1_500, stream_seed=71)
        oracle = _pool(items=1_500, stream_seed=70)
        oracle.merge(b)
        for operands in (
            [encode_sketch(a), encode_sketch(b)],
            [a, encode_sketch(b)],
            [encode_sketch(a), b],
        ):
            assert tree_reduce(operands).to_bytes() == oracle.to_bytes()

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13])
    def test_any_fanin_any_order(self, count):
        sketches = [
            _pool(items=500, stream_seed=80 + index) for index in range(count)
        ]
        expected = tree_reduce(sketches).to_bytes()
        reversed_result = tree_reduce(list(reversed(sketches))).to_bytes()
        assert reversed_result == expected

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce([])

    def test_single_operand(self):
        single = _pool(items=1_000, stream_seed=90)
        assert tree_reduce([single]).to_bytes() == single.to_bytes()

    def test_incompatible_parameters_typed(self):
        with pytest.raises(IncompatibleSketchError):
            tree_reduce([_pool(seed=3), _pool(seed=4)])

    def test_mixed_classes_type_error(self):
        with pytest.raises(TypeError):
            tree_reduce([HyperLogLog(500, seed=1), LogLog(500, seed=1)])

    def test_bad_operand_type_error(self):
        with pytest.raises(TypeError):
            tree_reduce([_pool(), 42])

    def test_reduce_estimate(self):
        sketches = [
            _pool(items=2_000, stream_seed=95 + index) for index in range(3)
        ]
        assert reduce_estimate(sketches) == tree_reduce(sketches).query()


# ----------------------------------------------------------------------
# EXPORT / MERGE_IN over live servers
# ----------------------------------------------------------------------
def make_config(**overrides) -> TenantConfig:
    base = dict(
        estimator="HLL", memory_bits=8192, shards=2, seed=7
    )
    base.update(overrides)
    return TenantConfig(**base)


def test_two_node_fold_matches_single_node_oracle():
    """The acceptance scenario: two serving nodes each see half the
    stream; EXPORT + MERGE_IN folds them into the estimate a single
    node ingesting everything would give — exactly, because merging is
    the union operation on identically-seeded pools."""
    rng = np.random.default_rng(0)
    half_a = rng.integers(0, 2**63, 50_000, dtype=np.uint64)
    half_b = rng.integers(0, 2**63, 50_000, dtype=np.uint64)

    async def scenario():
        node_a = CardinalityServer(make_config())
        node_b = CardinalityServer(make_config())
        oracle = CardinalityServer(make_config())
        __, port_a = await node_a.start("127.0.0.1", 0)
        __, port_b = await node_b.start("127.0.0.1", 0)
        __, port_o = await oracle.start("127.0.0.1", 0)
        try:
            async with await ServeClient.connect("127.0.0.1", port_a) as a, \
                    await ServeClient.connect("127.0.0.1", port_b) as b, \
                    await ServeClient.connect("127.0.0.1", port_o) as o:
                await a.record("flows", half_a)
                await b.record("flows", half_b)
                await o.record("flows", half_a)
                await o.record("flows", half_b)
                frame_b = await b.export("flows")
                folded = await a.merge_in("flows", frame_b)
                # EXPORT drains, so the oracle frame reflects every
                # acked RECORD (an inline ESTIMATE might race ingest).
                single = decode_sketch(await o.export("flows")).query()
                after = await a.estimate("flows")
            return folded, after, single
        finally:
            await node_a.stop()
            await node_b.stop()
            await oracle.stop()

    folded, after, single = asyncio.run(scenario())
    true_count = len(np.union1d(half_a, half_b))
    assert folded == pytest.approx(single, rel=1e-12)
    assert after == pytest.approx(single, rel=1e-12)
    # ... and the union estimate is an actual estimate of the union.
    assert abs(folded - true_count) / true_count < 0.10


def test_export_unknown_tenant_is_identity_and_side_effect_free():
    async def scenario():
        server = CardinalityServer(make_config())
        __, port = await server.start("127.0.0.1", 0)
        try:
            async with await ServeClient.connect("127.0.0.1", port) as client:
                frame = await client.export("never-recorded")
                stats = await client.stats()
            return frame, stats, len(server.registry)
        finally:
            await server.stop()

    frame, stats, tenants = asyncio.run(scenario())
    assert tenants == 0 and stats["tenants"] == 0
    empty = decode_sketch(frame)
    assert empty.query() == 0.0
    # The identity property: folding it into a loaded pool is a no-op.
    loaded = TenantRegistry(make_config())
    loaded.record_many(
        "never-recorded", np.arange(1000, dtype=np.uint64)
    )
    pool = loaded.pools["never-recorded"]
    before = pool.to_bytes()
    pool.merge(empty)
    assert pool.to_bytes() == before


def test_merge_in_errors_keep_connection_alive():
    async def scenario():
        server = CardinalityServer(make_config())
        foreign = CardinalityServer(make_config(seed=99))
        __, port = await server.start("127.0.0.1", 0)
        __, foreign_port = await foreign.start("127.0.0.1", 0)
        results = {}
        try:
            async with await ServeClient.connect(
                "127.0.0.1", foreign_port
            ) as other:
                await other.record("flows", np.arange(64, dtype=np.uint64))
                foreign_frame = await other.export("flows")
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.record("flows", np.arange(256, dtype=np.uint64))
                try:
                    await client.merge_in("flows", b"not a frame at all")
                except ServeError as error:
                    results["garbage"] = error.code
                try:
                    await client.merge_in("flows", foreign_frame)
                except ServeError as error:
                    results["incompatible"] = (
                        error.code, error.transient, str(error)
                    )
                # The connection must still serve every verb.
                results["estimate"] = await client.estimate("flows")
                results["accepted"] = await client.record(
                    "flows", np.arange(256, 512, dtype=np.uint64)
                )
        finally:
            await server.stop()
            await foreign.stop()
        return results

    results = asyncio.run(scenario())
    assert results["garbage"] == protocol.E_BAD_PAYLOAD
    code, transient, message = results["incompatible"]
    assert code == protocol.E_INCOMPATIBLE
    assert not transient  # retrying an incompatible sketch cannot help
    assert "seed" in message
    assert results["estimate"] > 0
    assert results["accepted"] == 256


def test_merge_in_thread_backed_tenant_composes_with_ingest():
    """On the threaded backend a quiesced in-place merge is safe: the
    folded state must keep accepting RECORDs afterwards."""

    async def scenario():
        server = CardinalityServer(make_config())
        __, port = await server.start("127.0.0.1", 0)
        try:
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.record(
                    "flows", np.arange(0, 4_000, dtype=np.uint64)
                )
                donor = TenantRegistry(make_config())
                donor.record_many(
                    "flows", np.arange(4_000, 8_000, dtype=np.uint64)
                )
                await client.merge_in(
                    "flows", encode_sketch(donor.pools["flows"])
                )
                await client.record(
                    "flows", np.arange(8_000, 12_000, dtype=np.uint64)
                )
                # EXPORT drains the pipeline, so the frame reflects
                # every acked RECORD (an inline ESTIMATE may not yet).
                frame = await client.export("flows")
            return decode_sketch(frame).query()
        finally:
            await server.stop()

    estimate = asyncio.run(scenario())
    assert abs(estimate - 12_000) / 12_000 < 0.10


# ----------------------------------------------------------------------
# The agg CLI
# ----------------------------------------------------------------------
def _final_estimate(capsys) -> float:
    lines = capsys.readouterr().out.strip().splitlines()
    match = re.fullmatch(r"aggregate estimate (\S+)", lines[-1])
    assert match, lines
    return float(match.group(1))


class TestAggCli:
    def test_frame_files(self, tmp_path, capsys):
        a = _pool(items=3_000, stream_seed=11)
        b = _pool(items=3_000, stream_seed=12)
        path_a = tmp_path / "a.sketch"
        path_b = tmp_path / "b.sketch"
        path_a.write_bytes(encode_sketch(a))
        path_b.write_bytes(encode_sketch(b))
        out = tmp_path / "merged.sketch"
        code = agg_main(
            [str(path_a), str(path_b), "--out", str(out)]
        )
        assert code == 0
        estimate = _final_estimate(capsys)
        oracle = _pool(items=3_000, stream_seed=11)
        oracle.merge(b)
        assert estimate == pytest.approx(oracle.query())
        # --out wrote the reduced pool as a decodable frame.
        merged = decode_sketch(out.read_bytes())
        assert merged.to_bytes() == oracle.to_bytes()

    def test_checkpoint_source(self, tmp_path, capsys):
        config = make_config()
        registry = TenantRegistry(config)
        registry.record_many(
            "flows", np.arange(5_000, dtype=np.uint64)
        )
        CheckpointManager(tmp_path / "ckpts").save(registry, meta={})
        frame_path = tmp_path / "node.sketch"
        donor = TenantRegistry(config)
        donor.record_many(
            "flows", np.arange(5_000, 10_000, dtype=np.uint64)
        )
        frame_path.write_bytes(encode_sketch(donor.pools["flows"]))
        code = agg_main([
            str(frame_path), str(tmp_path / "ckpts"), "--tenant", "flows",
        ])
        assert code == 0
        estimate = _final_estimate(capsys)
        assert abs(estimate - 10_000) / 10_000 < 0.10

    def test_checkpoint_without_tenant_rejected(self, tmp_path):
        registry = TenantRegistry(make_config())
        CheckpointManager(tmp_path / "ckpts").save(registry, meta={})
        with pytest.raises(SystemExit, match="tenant"):
            agg_main([str(tmp_path / "ckpts")])

    def test_bogus_source_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="neither"):
            agg_main(["no-such-thing"])

    def test_corrupt_frame_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.sketch"
        bogus.write_bytes(b"garbage garbage garbage")
        with pytest.raises(SystemExit, match="magic"):
            agg_main([str(bogus)])

    def test_incompatible_sources_fail_with_parameter(self, tmp_path):
        path_a = tmp_path / "a.sketch"
        path_b = tmp_path / "b.sketch"
        path_a.write_bytes(encode_sketch(_pool(seed=3, items=100)))
        path_b.write_bytes(encode_sketch(_pool(seed=4, items=100)))
        with pytest.raises(SystemExit, match="seed"):
            agg_main([str(path_a), str(path_b)])

    def test_live_node_source(self, tmp_path, capsys):
        """End to end: `repro agg` against a real `repro serve` node."""
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--estimator", "HLL", "--memory-bits", "8192",
            "--shards", "2", "--seed", "7",
        ]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(os.path.dirname(__file__), os.pardir, "src"),
            environment.get("PYTHONPATH", ""),
        ]))
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=environment,
        )
        try:
            port = None
            deadline = time.monotonic() + 60
            for line in iter(process.stdout.readline, ""):
                found = re.search(r"serving \S+ on 127\.0\.0\.1:(\d+)", line)
                if found:
                    port = int(found.group(1))
                    break
                if time.monotonic() > deadline:  # pragma: no cover
                    break
            assert port is not None, "server never reported its port"

            async def feed():
                async with await ServeClient.connect(
                    "127.0.0.1", port
                ) as client:
                    await client.record(
                        "flows", np.arange(4_000, dtype=np.uint64)
                    )

            asyncio.run(feed())
            donor = TenantRegistry(make_config())
            donor.record_many(
                "flows", np.arange(4_000, 8_000, dtype=np.uint64)
            )
            frame_path = tmp_path / "other.sketch"
            frame_path.write_bytes(encode_sketch(donor.pools["flows"]))
            code = agg_main([
                f"127.0.0.1:{port}", str(frame_path), "--tenant", "flows",
            ])
            assert code == 0
            estimate = _final_estimate(capsys)
            assert abs(estimate - 8_000) / 8_000 < 0.10
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait(timeout=10)
            process.stdout.close()

    def test_frame_info_lines_printed(self, tmp_path, capsys):
        path = tmp_path / "a.sketch"
        frame = encode_sketch(_pool(items=1_000, stream_seed=13))
        path.write_bytes(frame)
        agg_main([str(path)])
        out = capsys.readouterr().out
        info = frame_info(frame)
        assert info.class_name in out
        assert info.codec in out
