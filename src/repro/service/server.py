"""Asyncio placement server: dual-codec protocol, micro-batched dispatch.

Architecture (single process, single event loop):

- **Connection handlers** sniff the first byte to pick the codec -
  binary frames (:data:`~repro.service.wire.BIN_MAGIC`) or NDJSON - and
  spawn a task per request, so one slow ``place`` does not stall a
  pipelining client's later lines (responses carry the request ``id``).
- **The sequencer** keys every ``place`` request by its first txid in a
  reorder buffer. Clients replay disjoint chunks of one global stream
  (see :mod:`repro.datasets.replay`); whichever order their requests
  arrive in, only the contiguous run starting at the engine's
  ``n_placed`` cursor is dispatchable.
- **The wire path.** When the engine validates in the compiled kernel
  and no drift monitor is attached
  (:attr:`~repro.service.engine.PlacementEngine.wire_arrays`), binary
  ``place`` frames decode to zero-copy
  :class:`~repro.service.wire.WireBatch` array views - no
  :class:`Transaction` objects - exactly as in the sharded worker.
  NDJSON requests, full-output frames, drift-monitored engines and
  hosts without the kernel take the object decoder; replies are
  byte-identical either way.
- **The dispatcher** (one task) pops that contiguous run, *coalesces*
  consecutive requests into a single micro-batch (up to
  ``max_batch_txs``; array runs concatenate, mixed runs become one
  object list - :func:`~repro.service.wire.merge_place_batches`), and
  feeds it to the engine entry of its kind (``place_wire_batch`` or
  ``place_batch``) - one entry into the placement hot path for many
  small requests. If a merged batch is rejected, it is
  replayed request-by-request so only the offending request fails
  (engine validation is atomic, so the retry is exact).
- **Shutdown** (``shutdown`` op, SIGTERM, or SIGINT via the CLI) stops
  accepting work, drains every dispatchable request, answers the rest
  with a ``shutdown`` error, writes a checkpoint when a path is
  configured, and only then closes - a restarted server resumes from
  the checkpoint bit-identically.

Placement is CPU-bound Python, so it intentionally runs *on* the event
loop: a worker thread would serialize on the GIL anyway and add
handoff latency. Micro-batches keep each blocking stretch short.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Any

from repro.errors import EngineError, ProtocolError
from repro.obs.metrics import ServiceMetrics, rss_kb, service_families
from repro.obs.prom import MetricsServer, render_families
from repro.service.engine import PlacementEngine
from repro.service.wire import (
    BIN_MAGIC,
    KIND_PLACE,
    OPS,
    PROTOCOL_VERSION,
    WireBatch,
    decode_batch,
    decode_place,
    encode_error_response,
    encode_response_for,
    first_txid_of,
    merge_place_batches,
    op_of_kind,
    read_frame,
    wire_arrays_enabled,
    wire_path_label,
)
from repro.utxo.transaction import Transaction

DEFAULT_PORT = 9171


def _place(
    engine: PlacementEngine, batch: "list[Transaction] | WireBatch"
) -> list[int]:
    """Place one decoded batch through the engine entry of its kind."""
    if isinstance(batch, WireBatch):
        return engine.place_wire_batch(batch)
    return engine.place_batch(batch)


class _Pending:
    """One enqueued ``place`` request waiting for dispatch."""

    __slots__ = ("txs", "future")

    def __init__(
        self,
        txs: "list[Transaction] | WireBatch",
        future: "asyncio.Future[dict]",
    ) -> None:
        self.txs = txs
        self.future = future

    def resolve(self, shards: list[int]) -> None:
        if not self.future.done():
            self.future.set_result({"ok": True, "shards": shards})

    def fail(self, code: str, error: str) -> None:
        if not self.future.done():
            self.future.set_result(
                {"ok": False, "code": code, "error": error}
            )


class PlacementServer:
    """A long-lived placement service over one :class:`PlacementEngine`."""

    def __init__(
        self,
        engine: PlacementEngine,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        max_batch_txs: int = 8192,
        max_reorder_requests: int = 1024,
        max_line_bytes: int = 8 * 1024 * 1024,
        checkpoint_path: "str | None" = None,
        checkpoint_compress: bool = False,
        checkpoint_delta_every: "int | None" = None,
        metrics_port: "int | None" = None,
        metrics_host: "str | None" = None,
    ) -> None:
        self._engine = engine
        if engine is not None:
            # Warn up front when a vectorized engine lost its kernel;
            # the path itself is read per frame (engine.wire_arrays).
            wire_arrays_enabled(engine, "server")
        self._host = host
        self._port = port
        self._max_batch_txs = max_batch_txs
        self._max_reorder = max_reorder_requests
        self._max_line_bytes = max_line_bytes
        self._checkpoint_path = checkpoint_path
        self._checkpoint_compress = checkpoint_compress
        # Delta cadence: with N, checkpoints 1..N-1 after each full
        # write ``<path>.delta`` (O(activity since base)); every Nth is
        # a full compaction. None = always full.
        self._checkpoint_delta_every = checkpoint_delta_every
        self._checkpoints_since_full = 0
        self._pending: dict[int, _Pending] = {}
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._dispatch_event = asyncio.Event()
        self._stopping = False
        self._stopped = asyncio.Event()
        self._line_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        #: Live serving metrics (always on: one histogram record and
        #: two integer bumps per dispatched micro-batch, bench-gated
        #: under 5% of engine throughput).
        self.metrics = ServiceMetrics()
        self._metrics_server: "MetricsServer | None" = (
            MetricsServer(
                self._render_metrics,
                host=metrics_host if metrics_host is not None else host,
                port=metrics_port,
            )
            if metrics_port is not None
            else None
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def engine(self) -> PlacementEngine:
        return self._engine

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self._port

    @property
    def metrics_port(self) -> "int | None":
        """Bound ``/metrics`` port, None when the endpoint is off."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection,
            self._host,
            self._port,
            limit=self._max_line_bytes,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self._metrics_server is not None:
            await self._metrics_server.start()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Drain, checkpoint (if configured), close. Idempotent."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._dispatch_event.set()
        if self._dispatcher is not None:
            try:
                await self._dispatcher
            except Exception:  # noqa: BLE001 - a dead dispatcher must
                # not block the drain/checkpoint sequence below.
                pass
        for key in sorted(self._pending):
            self._pending.pop(key).fail(
                "shutdown",
                "server shut down before the txid gap before this "
                "request was filled",
            )
        if self._checkpoint_path is not None:
            self._do_checkpoint(self._checkpoint_path)
        if self._metrics_server is not None:
            await self._metrics_server.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._line_tasks:
            await asyncio.gather(
                *list(self._line_tasks), return_exceptions=True
            )
        for writer in list(self._writers):
            writer.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- connection handling -----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            # Protocol sniff: binary frames open with BIN_MAGIC (0xF5),
            # NDJSON with a printable byte. One connection speaks one
            # protocol; both coexist on the port.
            try:
                first = await reader.readexactly(1)
            except (EOFError, ConnectionError):
                return
            if first[0] == BIN_MAGIC:
                await self._binary_loop(first, reader, writer, write_lock)
            else:
                await self._json_loop(first, reader, writer, write_lock)
        finally:
            self._writers.discard(writer)
            # In-flight requests from this connection stay in the
            # sequencer: their txids are part of the global order, so
            # they are placed (or failed) normally - only the response
            # write is skipped once the peer is gone.
            if not writer.is_closing():
                writer.close()

    async def _json_loop(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        prefix = first
        while True:
            try:
                line = prefix + await reader.readline()
                prefix = b""
            except (ValueError, asyncio.LimitOverrunError):
                # Line overran the stream limit; the framing is now
                # unrecoverable on this connection.
                await self._write(
                    writer,
                    write_lock,
                    {
                        "id": None,
                        "ok": False,
                        "code": "protocol",
                        "error": (
                            "request line exceeds "
                            f"{self._max_line_bytes} bytes"
                        ),
                    },
                )
                return
            except ConnectionError:
                return
            if not line:
                return
            data = line.strip()
            if not data:
                continue
            task = asyncio.create_task(
                self._serve_line(data, writer, write_lock)
            )
            self._line_tasks.add(task)
            task.add_done_callback(self._line_tasks.discard)

    async def _binary_loop(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        while True:
            try:
                frame = await read_frame(reader, first_byte=first)
            except ProtocolError as exc:
                # Framing is unrecoverable (bad magic mid-stream,
                # oversized payload, EOF inside a frame): report once
                # and close, mirroring the NDJSON overrun path.
                await self._write_frame(
                    writer,
                    write_lock,
                    encode_error_response(0, "protocol", str(exc)),
                )
                return
            except ConnectionError:
                return
            first = b""
            if frame is None:
                return
            kind, request_id, payload = frame
            task = asyncio.create_task(
                self._serve_frame(
                    kind, request_id, payload, writer, write_lock
                )
            )
            self._line_tasks.add(task)
            task.add_done_callback(self._line_tasks.discard)

    async def _serve_frame(
        self,
        kind: int,
        request_id: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            if kind == KIND_PLACE:
                response = await self._place_frame(payload)
            else:
                op = op_of_kind(kind)
                message: dict[str, Any] = {"op": op}
                if payload:
                    try:
                        body = json.loads(payload)
                    except (
                        json.JSONDecodeError,
                        UnicodeDecodeError,
                    ) as exc:
                        raise ProtocolError(
                            f"request payload is not valid JSON: {exc}"
                        )
                    if not isinstance(body, dict):
                        raise ProtocolError(
                            "request payload must be a JSON object"
                        )
                    message.update(body)
                response = await self._handle(message)
        except ProtocolError as exc:
            response = {"ok": False, "code": "protocol", "error": str(exc)}
        except EngineError as exc:
            response = {"ok": False, "code": "engine", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one bad frame must not
            # take the server down; report and keep serving.
            response = {
                "ok": False,
                "code": "protocol",
                "error": f"internal error handling request: {exc!r}",
            }
        await self._write_frame(
            writer, write_lock, encode_response_for(request_id, response)
        )

    async def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame: bytes,
    ) -> None:
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            # Peer vanished mid-response; state already advanced and
            # the stream stays consistent for everyone else.
            pass

    async def _serve_line(
        self,
        data: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        try:
            try:
                message = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"request is not valid JSON: {exc}")
            if isinstance(message, dict):
                request_id = message.get("id")
            response = await self._handle(message)
        except ProtocolError as exc:
            response = {"ok": False, "code": "protocol", "error": str(exc)}
        except EngineError as exc:
            response = {"ok": False, "code": "engine", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one bad line must not
            # take the server down; report and keep serving.
            response = {
                "ok": False,
                "code": "protocol",
                "error": f"internal error handling request: {exc!r}",
            }
        response["id"] = request_id
        await self._write(writer, write_lock, response)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: dict,
    ) -> None:
        payload = json.dumps(response, separators=(",", ":")).encode()
        try:
            async with write_lock:
                writer.write(payload + b"\n")
                await writer.drain()
        except (ConnectionError, RuntimeError):
            # Peer vanished mid-response; nothing to do - state already
            # advanced and the stream stays consistent for everyone else.
            pass

    # -- request handling --------------------------------------------------

    async def _handle(self, message: Any) -> dict:
        if not isinstance(message, dict):
            raise ProtocolError("request must be a JSON object")
        op = message.get("op")
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {', '.join(OPS)}"
            )
        if op == "place":
            return await self._handle_place(message)
        if op == "stats":
            return {
                "ok": True,
                "stats": self._engine.stats().as_dict(),
                "obs": self._obs_dict(),
            }
        if op == "checkpoint":
            path = message.get("path") or self._checkpoint_path
            if not path:
                raise ProtocolError(
                    "no checkpoint path: pass \"path\" or start the "
                    "server with one"
                )
            size = self._do_checkpoint(path)
            return {"ok": True, "path": str(path), "bytes": size}
        if op == "ping":
            return {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "n_placed": self._engine.n_placed,
            }
        # shutdown: ack first, then stop out-of-band so this handler
        # (a line task stop() would otherwise wait on) can finish.
        asyncio.get_running_loop().create_task(self.stop())
        return {"ok": True}

    def _obs_dict(self) -> dict[str, Any]:
        """Observability sidecar of the ``stats`` reply."""
        monitor = self._engine.drift_monitor
        return {
            "metrics": self.metrics.as_dict(),
            "wal": None,
            "rss_kb": rss_kb(),
            "drift": monitor.as_dict() if monitor is not None else None,
            "wire_path": wire_path_label(self._engine.wire_arrays),
        }

    async def _render_metrics(self) -> str:
        """Scrape body for the single-process server (overridden by the
        sharded coordinator, which aggregates worker stats)."""
        engine_stats = self._engine.stats().as_dict()
        monitor = self._engine.drift_monitor
        families = service_families(
            {
                "spec": engine_stats.get("spec", ""),
                "mode": "single",
                "workers": 0,
                "wire_path": wire_path_label(self._engine.wire_arrays),
            },
            [
                {
                    "partition": "0",
                    "engine": engine_stats,
                    "metrics": self.metrics.as_dict(),
                    "drift": (
                        monitor.as_dict() if monitor is not None else None
                    ),
                    "rss_kb": rss_kb(),
                }
            ],
        )
        return render_families(families)

    def _do_checkpoint(self, path: "str | pathlib.Path") -> int:
        """One checkpoint at the configured full/delta cadence.

        An explicit non-configured ``path`` always gets a full
        snapshot (deltas only make sense against a stable base file).
        """
        every = self._checkpoint_delta_every
        base = self._engine._delta_base
        tracking = self._engine._dirty_parents is not None
        delta = (
            every is not None
            and every > 1
            and str(path) == str(self._checkpoint_path)
            and base is not None
            and tracking
            and base["path"] == str(path)
            and self._checkpoints_since_full % every != 0
        )
        size = self._engine.checkpoint(
            path,
            compress=self._checkpoint_compress,
            delta=delta,
            # Full saves start (or continue) the dirty journal only
            # when the delta cadence is configured.
            track_delta=(
                None if delta else every is not None and every > 1
            ),
        )
        if delta:
            self._checkpoints_since_full += 1
        else:
            self._checkpoints_since_full = 1
        return size

    async def _handle_place(self, message: dict) -> dict:
        return await self._place_request(decode_batch(message.get("txs")))

    async def _place_frame(self, payload: bytes) -> dict:
        """Binary ``place``: decode here (to array views on the wire
        path), place locally. The sharded coordinator overrides this to
        route the *raw payload* to the owning worker without decoding
        it."""
        return await self._place_request(
            decode_place(payload, self._engine.wire_arrays)
        )

    async def _place_request(
        self, txs: "list[Transaction] | WireBatch"
    ) -> dict:
        """Sequence one decoded ``place`` batch (both codecs land here)."""
        if self._stopping:
            return {
                "ok": False,
                "code": "shutdown",
                "error": "server is shutting down",
            }
        if len(txs) > self._max_batch_txs:
            raise ProtocolError(
                f"batch of {len(txs)} exceeds max_batch_txs="
                f"{self._max_batch_txs}"
            )
        first = first_txid_of(txs)
        if first < self._engine.n_placed:
            # A range placed *in full* is answered from the recorded
            # assignments: a client resubmitting after a lost response
            # (timeout, connection reset) gets the identical shards
            # back instead of an error. Partial overlap stays an error
            # - it is a txid-accounting bug, not a retry.
            if first + len(txs) <= self._engine.n_placed:
                return {
                    "ok": True,
                    "shards": list(
                        self._engine.placer._assignment[
                            first : first + len(txs)
                        ]
                    ),
                }
            raise EngineError(
                f"transactions from {first} were already placed "
                f"(next expected: {self._engine.n_placed})"
            )
        if first in self._pending:
            # Likely the same client retrying while its original
            # request still waits for a txid gap: retryable, the
            # original will answer (or fail) soon.
            self.metrics.retry_replies += 1
            return {
                "ok": False,
                "code": "retry",
                "error": (
                    f"a request starting at txid {first} is already "
                    "queued; retry later"
                ),
            }
        if len(self._pending) >= self._max_reorder:
            self.metrics.overload_replies += 1
            return {
                "ok": False,
                "code": "overload",
                "error": (
                    f"reorder buffer full ({self._max_reorder} "
                    "requests waiting for earlier txids); retry later"
                ),
            }
        future: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[first] = _Pending(txs, future)
        self._dispatch_event.set()
        return await future

    # -- the dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._dispatch_event.wait()
            self._dispatch_event.clear()
            await self._dispatch_ready()
            if self._stopping:
                return

    async def _dispatch_ready(self) -> None:
        """Place every currently dispatchable request.

        Yields to the event loop between coalesced micro-batches so a
        large dispatchable backlog cannot starve pings, new lines, or
        the blocking client's socket timeout; the engine is quiescent
        at every yield point, which is what keeps mid-backlog
        checkpoints consistent.
        """
        engine = self._engine
        pending = self._pending
        while pending:
            next_txid = engine.n_placed
            entry = pending.pop(next_txid, None)
            if entry is None:
                # Requests the cursor has passed (their range overlaps
                # something already placed) can never dispatch: fail
                # them now instead of leaking reorder slots + hanging
                # their clients until shutdown.
                stale = [key for key in pending if key < next_txid]
                for key in stale:
                    stale_entry = pending.pop(key)
                    if key + len(stale_entry.txs) <= next_txid:
                        # A duplicate the cursor passed while it sat in
                        # the queue: answer it from the recorded
                        # assignments, same as an up-front resubmission.
                        stale_entry.resolve(
                            list(
                                engine.placer._assignment[
                                    key : key + len(stale_entry.txs)
                                ]
                            )
                        )
                        continue
                    stale_entry.fail(
                        "engine",
                        f"transactions from {key} were already placed "
                        f"(next expected: {next_txid})",
                    )
                if not stale:
                    return
                continue
            group = [entry]
            total = len(entry.txs)
            run_next = next_txid + total
            while total < self._max_batch_txs:
                follower = pending.pop(run_next, None)
                if follower is None:
                    break
                group.append(follower)
                count = len(follower.txs)
                run_next += count
                total += count
            batch = merge_place_batches([member.txs for member in group])
            try:
                started = perf_counter()
                shards = _place(engine, batch)
                self.metrics.record_batch(
                    len(batch), perf_counter() - started
                )
            except EngineError as exc:
                self.metrics.error_replies += 1
                if len(group) == 1:
                    entry.fail("engine", str(exc))
                    continue
                # Atomic validation means nothing was placed; replay
                # one request at a time so only the offender fails
                # (later requests then fail on the txid gap it left,
                # which is the honest outcome).
                for member in group:
                    try:
                        started = perf_counter()
                        shards = _place(engine, member.txs)
                        self.metrics.record_batch(
                            len(member.txs), perf_counter() - started
                        )
                        member.resolve(shards)
                    except EngineError as member_exc:
                        self.metrics.error_replies += 1
                        member.fail("engine", str(member_exc))
                continue
            except Exception as exc:  # noqa: BLE001 - a placer bug must
                # fail these requests, not kill the dispatcher: every
                # later request (and the shutdown drain) still needs it.
                for member in group:
                    member.fail(
                        "engine",
                        f"internal error placing batch: {exc!r}",
                    )
                continue
            offset = 0
            for member in group:
                count = len(member.txs)
                member.resolve(shards[offset : offset + count])
                offset += count
            await asyncio.sleep(0)


async def start_server(
    engine: PlacementEngine,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    **kwargs: Any,
) -> PlacementServer:
    """Construct and start a :class:`PlacementServer`."""
    server = PlacementServer(engine, host, port, **kwargs)
    await server.start()
    return server
