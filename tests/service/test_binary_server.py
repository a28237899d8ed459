"""The binary frame codec end to end against the single-process server.

What matters here: the binary lane is *semantically invisible* - same
placements, same stats, same errors as the NDJSON lane - and the two
codecs coexist on one port (the server sniffs the first byte per
connection).

Every scenario runs once over the python golden engine and, where numpy
is importable, once over the numpy engine - whose binary frames take
the zero-copy wire path when the compiled kernel is present (and the
object decoder under ``REPRO_KERNEL_DISABLE=1``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.backends import backend_unavailable_reason
from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import EngineError, ProtocolError
from repro.service import wire
from repro.service.client import (
    AsyncBinaryPlacementClient,
    AsyncPlacementClient,
    BinaryPlacementClient,
    async_client_class,
    client_class,
)
from repro.service.engine import PlacementEngine
from repro.service.loadgen import run_loadgen_async
from repro.service.server import PlacementServer
from repro.utxo.transaction import Transaction

N_SHARDS = 4

#: Engine backends every scenario runs under.
BACKENDS = ("python",) + (
    ("numpy",) if backend_unavailable_reason("numpy") is None else ()
)

requires_numpy = pytest.mark.skipif(
    "numpy" not in BACKENDS, reason="numpy backend unavailable"
)


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(2_000, seed=31)


def make_engine(backend="python", drift=False):
    """A fresh engine; ``backend="python"`` is the golden reference."""
    placer = (
        make_placer("optchain", N_SHARDS)
        if backend == "python"
        else make_placer("optchain", N_SHARDS, backend=backend)
    )
    engine = PlacementEngine(placer, epoch_length=500)
    if drift:
        from repro.obs.drift import DriftMonitor

        engine.drift_monitor = DriftMonitor(
            N_SHARDS, method="optchain", sample_every=2
        )
    return engine


def run_with_server(test_coro, engine=None, **server_kwargs):
    """Run ``test_coro(server)`` against a fresh server per backend in
    :data:`BACKENDS` (or once, over ``engine`` when one is given)."""
    engines = [engine] if engine is not None else BACKENDS
    for candidate in engines:
        if isinstance(candidate, str):
            candidate = make_engine(candidate)

        async def main():
            server = PlacementServer(candidate, port=0, **server_kwargs)
            await server.start()
            try:
                await test_coro(server)
            finally:
                await server.stop()

        asyncio.run(main())


class TestBinaryOps:
    def test_place_stats_ping_shutdown(self, stream, tmp_path):
        snapshot = tmp_path / "bin.snap"

        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            ping = await client.ping()
            assert ping["protocol"] == wire.PROTOCOL_VERSION
            shards = await client.place(stream[:300])
            assert len(shards) == 300
            stats = await client.stats()
            assert stats["n_placed"] == 300
            checkpoint = await client.checkpoint(str(snapshot))
            assert checkpoint["bytes"] > 0
            await client.shutdown()
            await server.wait_stopped()
            await client.close()

        run_with_server(scenario)
        assert snapshot.exists()

    def test_binary_placements_match_local(self, stream):
        expected = make_placer("optchain", N_SHARDS).place_stream(
            stream[:800]
        )

        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            served = []
            for offset in range(0, 800, 160):
                served.extend(
                    await client.place(stream[offset : offset + 160])
                )
            assert served == expected
            await client.close()

        run_with_server(scenario)

    def test_engine_error_surfaces(self, stream):
        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            original = await client.place(stream[:100])
            # A full resubmission is answered idempotently with the
            # recorded shards (client retries after lost responses)...
            assert await client.place(stream[:100]) == original
            # ...but a partial overlap is an engine error.
            with pytest.raises(EngineError, match="already placed"):
                await client.place(stream[50:150])
            # The connection keeps serving after the error.
            assert len(await client.place(stream[100:200])) == 100
            await client.close()

        run_with_server(scenario)

    def test_oversized_batch_rejected(self, stream):
        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            with pytest.raises(ProtocolError, match="max_batch_txs"):
                await client.place(stream[:200])
            assert len(await client.place(stream[:100])) == 100
            await client.close()

        run_with_server(scenario, max_batch_txs=100)

    def test_blocking_binary_client(self, stream):
        async def scenario(server):
            def blocking():
                with BinaryPlacementClient(port=server.port) as client:
                    assert client.ping()["ok"]
                    assert len(client.place(stream[:50])) == 50
                    assert client.stats()["n_placed"] == 50

            await asyncio.to_thread(blocking)

        run_with_server(scenario)


class TestMixedProtocols:
    def test_json_and_binary_share_one_stream(self, stream):
        expected = make_placer("optchain", N_SHARDS).place_stream(
            stream[:400]
        )

        async def scenario(server):
            json_client = await AsyncPlacementClient.connect(
                port=server.port
            )
            bin_client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            served = []
            for index, offset in enumerate(range(0, 400, 100)):
                client = json_client if index % 2 else bin_client
                served.extend(
                    await client.place(stream[offset : offset + 100])
                )
            assert served == expected
            # Both codecs report the same protocol revision.
            assert (await json_client.ping())["protocol"] == (
                await bin_client.ping()
            )["protocol"]
            await json_client.close()
            await bin_client.close()

        run_with_server(scenario)

    def test_sequencer_reorders_across_codecs(self, stream):
        async def scenario(server):
            json_client = await AsyncPlacementClient.connect(
                port=server.port
            )
            bin_client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            # The binary request arrives first but must wait for the
            # JSON request that owns the earlier txid range.
            later = bin_client.place_nowait(stream[100:200])
            await asyncio.sleep(0.05)
            assert len(await json_client.place(stream[:100])) == 100
            result = await asyncio.wait_for(later, timeout=5)
            assert result["ok"] is True
            assert len(result["shards"]) == 100
            await json_client.close()
            await bin_client.close()

        run_with_server(scenario)


class TestBinaryFraming:
    def test_garbage_after_magic_closes_with_error(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # A valid magic byte followed by an oversized length.
            writer.write(
                bytes([wire.BIN_MAGIC])
                + wire.encode_frame(wire.KIND_PING, 1)[1:10]
                + (2**31 - 1).to_bytes(4, "little")
            )
            await writer.drain()
            header = await asyncio.wait_for(
                reader.readexactly(wire.FRAME_HEADER_BYTES), timeout=5
            )
            kind, _, length = wire.decode_frame_header(header)
            payload = await reader.readexactly(length)
            response = wire.decode_response(kind, payload)
            assert response["ok"] is False
            assert response["code"] == "protocol"
            writer.close()

        run_with_server(scenario)

    def test_mid_frame_disconnect_leaves_server_serving(self, stream):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            frame = wire.encode_place_request(1, stream[:100])
            writer.write(frame[: len(frame) // 2])
            await writer.drain()
            writer.close()
            # The half-frame never dispatched; a new client owns the
            # stream from txid 0.
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            assert len(await client.place(stream[:100])) == 100
            await client.close()

        run_with_server(scenario)


class TestLoadgenProtocols:
    def test_loadgen_binary_and_json_agree(self, stream):
        expected = make_placer("optchain", N_SHARDS).place_stream(
            stream
        )

        async def scenario(server):
            report = await run_loadgen_async(
                port=server.port,
                stream=stream[:1000],
                n_users=4,
                chunk_size=100,
                proto="binary",
            )
            assert report.errors == 0
            assert report.proto == "binary"
            json_report = await run_loadgen_async(
                port=server.port,
                stream=stream[1000:2000],
                n_users=4,
                chunk_size=100,
                proto="json",
            )
            assert json_report.errors == 0
            assert server.engine.placer.assignment() == expected

        run_with_server(scenario)


class TestFactories:
    def test_protocol_factories(self):
        assert client_class("binary") is BinaryPlacementClient
        assert async_client_class("json") is AsyncPlacementClient
        with pytest.raises(Exception, match="proto"):
            async_client_class("carrier-pigeon")


@pytest.fixture
def invalid_frames(stream):
    # Request 1 double-spends an input of request 0: only it is the
    # offender; requests 2 and 3 then fail on the txid gap it left.
    # (The stream's first 200 transactions are coinbases.)
    txs = list(stream[:600])
    victim = next(tx for tx in txs[:300] if tx.inputs)
    txs[350] = Transaction(350, victim.inputs, txs[350].outputs)
    bounds = [0, 300, 400, 500, 600]
    return [
        wire.encode_place_request(index, txs[start:stop])
        for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
    ]


def serve_coalesced(engine, frames, metrics=None):
    """Raw reply frames, in request-id order, for ``place`` ``frames``
    sent to a server over ``engine``.

    ``frames[1:]`` go first and wait in the reorder buffer behind the
    txid gap; ``frames[0]`` then fills it, so the dispatcher coalesces
    the whole run into one micro-batch. The server's
    :class:`~repro.obs.metrics.ServiceMetrics` is appended to
    ``metrics`` when a list is given.
    """
    replies = {}

    async def scenario(server):
        if metrics is not None:
            metrics.append(server.metrics)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for frame in frames[1:]:
            writer.write(frame)
        await writer.drain()
        while len(server._sequencer) < len(frames) - 1:
            await asyncio.sleep(0.005)
        writer.write(frames[0])
        await writer.drain()
        for _ in frames:
            header = await asyncio.wait_for(
                reader.readexactly(wire.FRAME_HEADER_BYTES), timeout=10
            )
            _, request_id, length = wire.decode_frame_header(header)
            replies[request_id] = header + await reader.readexactly(length)
        writer.close()

    run_with_server(scenario, engine=engine)
    return [replies[key] for key in sorted(replies)]


def work_coalesced(engine, frames):
    """:func:`serve_coalesced` against a single-partition
    :class:`~repro.service.worker.PlacementWorker` over ``engine``,
    driven through its channel handler: ``(reply frames, metrics)``."""
    from repro.service import channel as ch
    from repro.service.partition import EnginePartition
    from repro.service.worker import PlacementWorker

    payloads = [frame[wire.FRAME_HEADER_BYTES :] for frame in frames]

    async def main():
        worker = PlacementWorker(
            EnginePartition(
                engine, partition_id=0, n_partitions=1, lease_length=10_000
            )
        )
        worker.start()
        later = [
            asyncio.create_task(worker.handle(ch.W_PLACE, index, payload))
            for index, payload in enumerate(payloads)
            if index
        ]
        for _ in range(2_000):
            if len(worker._sequencer) == len(later):
                break
            await asyncio.sleep(0.005)
        replies = [await worker.handle(ch.W_PLACE, 0, payloads[0])]
        replies += await asyncio.wait_for(asyncio.gather(*later), 10)
        worker.stop()
        await worker.join()
        return replies, worker.metrics

    return asyncio.run(main())


def decode_reply(frame):
    kind, _, _ = wire.decode_frame_header(frame[: wire.FRAME_HEADER_BYTES])
    return wire.decode_response(kind, frame[wire.FRAME_HEADER_BYTES :])


def count_wire_batches(engine):
    """Record the size of every ``place_wire_batch`` call on ``engine``."""
    calls = []
    place = engine.place_wire_batch

    def counting(batch, **kwargs):
        calls.append(len(batch))
        return place(batch, **kwargs)

    engine.place_wire_batch = counting
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_coalesced_reject_counted_once_per_reply(backend, invalid_frames):
    """The server and a worker answer a rejected coalesced run
    identically and count it the same way: the replay's placed request
    is one batch, and each failed request one error reply."""
    collected = []
    server_engine = make_engine(backend)
    served = serve_coalesced(server_engine, invalid_frames, collected)
    worker_engine = make_engine(backend)
    worked, worker_metrics = work_coalesced(worker_engine, invalid_frames)
    assert worked == served
    for engine, metrics in (
        (server_engine, collected[0]),
        (worker_engine, worker_metrics),
    ):
        assert metrics.placed == engine.n_placed == 300
        assert metrics.batches == 1
        assert metrics.error_replies == 3


@requires_numpy
class TestWirePath:
    """Replies from the wire path (numpy engine with the kernel), the
    object path (a drift monitor, or no kernel), and the python golden
    engine must be byte-identical - accepted and rejected alike."""

    def test_coalesced_group_with_invalid_request(self, invalid_frames):
        golden = serve_coalesced(make_engine(), invalid_frames)
        engine = make_engine("numpy")
        calls = count_wire_batches(engine)
        assert serve_coalesced(engine, invalid_frames) == golden
        replies = [decode_reply(frame) for frame in golden]
        assert replies[0]["ok"] is True
        assert replies[1]["code"] == "engine"
        assert replies[1]["error"].startswith("transaction 350 spends")
        for reply in replies[2:]:
            assert reply["code"] == "engine"
            assert "dense stream order" in reply["error"]
        assert engine.n_placed == 300
        if engine.kernel_validation:
            # One merged 600-tx batch, rejected, then the per-request
            # replay - all through the wire path.
            assert calls == [600, 300, 100, 100, 100]

    def test_full_output_frame_between_array_frames(self, stream):
        txs = stream[:300]
        frames = [
            wire.encode_place_request(0, txs[:100]),
            wire.encode_place_request(1, txs[100:200], full_outputs=True),
            wire.encode_place_request(2, txs[200:]),
        ]
        golden = serve_coalesced(make_engine(), frames)
        engine = make_engine("numpy")
        calls = count_wire_batches(engine)
        assert serve_coalesced(engine, frames) == golden
        served = [
            shard
            for frame in golden
            for shard in decode_reply(frame)["shards"]
        ]
        assert served == make_placer("optchain", N_SHARDS).place_stream(
            txs
        )
        # The mixed run placed as one object list.
        assert calls == []
        assert engine.n_placed == 300

    def test_drift_monitor_forces_object_path(self, invalid_frames):
        golden = serve_coalesced(make_engine(), invalid_frames)
        engine = make_engine("numpy", drift=True)
        assert not engine.wire_arrays
        calls = count_wire_batches(engine)
        assert serve_coalesced(engine, invalid_frames) == golden
        assert calls == []
        assert engine.drift_monitor is not None
