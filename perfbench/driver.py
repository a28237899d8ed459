"""The benchmark's own load generator and server-process control.

One generator process drives a ``repro serve`` process over at most
:data:`~common.CONNECTIONS` connections with pre-encoded binary frames.
It does not use ``repro.service.loadgen``: that module starts each
request's clock at the actual send, which hides stalls. Here the
open-loop driver sends on a fixed schedule and times every request from
the moment it was *due*, and reports how late the generator itself ran.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from common import CONNECTIONS, FRAME_HEADER, ROOT, vm_hwm_mb

_HEADER = struct.Struct(FRAME_HEADER)
_SERVING = re.compile(r"^serving .* on [^ ]+:(\d+)")
#: No reply for this long after the last send counts as a timeout.
REPLY_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


def _wire():
    from repro.service import wire

    if wire.FRAME_HEADER_BYTES != _HEADER.size:
        raise RuntimeError("frame header layout changed; update FRAME_HEADER")
    return wire


# -- the server process --------------------------------------------------------


def _group_members(pgid: int) -> list[int]:
    """Live pids of one process group (the server and its workers)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


class ServerProcess:
    """One ``repro serve`` process group, started and timed to its
    first ``ping`` reply."""

    def __init__(self, args: "list[str]", log_path: Path) -> None:
        self._log = open(log_path, "ab")
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        try:
            self.port = self._read_port()
            self.control("ping")
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - started

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select(
                [self.proc.stdout], [], [], remaining
            )[0]:
                raise RuntimeError(
                    f"server did not start within {START_TIMEOUT_S}s "
                    f"(log: {self._log.name})"
                )
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before serving "
                    f"(log: {self._log.name})"
                )
            match = _SERVING.match(line.decode(errors="replace"))
            if match:
                return int(match.group(1))

    def control(self, op: str, timeout: float = 30.0) -> dict:
        """One blocking control request (``ping`` or ``stats``)."""
        wire = _wire()
        with socket.create_connection(
            ("127.0.0.1", self.port), timeout=timeout
        ) as sock:
            sock.sendall(wire.encode_control_request(1, op))
            stream = sock.makefile("rb")
            header = stream.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise RuntimeError(f"server closed the connection on {op!r}")
            _magic, kind, _rid, length = _HEADER.unpack(header)
            reply = wire.decode_response(kind, stream.read(length))
        if not reply.get("ok"):
            raise RuntimeError(f"{op} failed: {reply}")
        return reply

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of every process in the server's group."""
        return sum(vm_hwm_mb(pid) for pid in _group_members(self.proc.pid))

    def kill(self) -> None:
        """Kill the whole group (server and workers) and wait until
        every member has ended. A graceful shutdown would write a
        checkpoint nobody reads."""
        pgid = self.proc.pid
        deadline = time.monotonic() + 30.0
        while _group_members(pgid) and time.monotonic() < deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.poll()
            time.sleep(0.01)
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- request traffic -----------------------------------------------------------


@dataclass
class PhaseResult:
    """What one driven phase saw, per place request."""

    sent: "list[float]" = field(default_factory=list)  # due or send time
    received: "list[float]" = field(default_factory=list)
    payloads: "list[bytes | None]" = field(default_factory=list)
    kinds: "list[int]" = field(default_factory=list)
    late_max_s: float = 0.0
    stats_s: "list[float]" = field(default_factory=list)
    stats_failed: int = 0
    started: float = 0.0
    finished: float = 0.0


class _Traffic:
    """Shared connection plumbing of the two drivers."""

    def __init__(self, frames: "list[bytes]", frame_txs, stats_interval):
        n = len(frames)
        self.frames = frames
        self.frame_txs = frame_txs
        self.result = PhaseResult(
            sent=[0.0] * n,
            received=[0.0] * n,
            payloads=[None] * n,
            kinds=[0] * n,
        )
        self.outstanding = n
        self.all_done = asyncio.Event()
        self.stats_interval = stats_interval
        self._stats_sent: "dict[int, float]" = {}
        self.writers: "list[asyncio.StreamWriter]" = []
        self._readers: "list[asyncio.Task]" = []
        self._stats_task: "asyncio.Task | None" = None

    async def connect(self, port: int) -> None:
        for conn in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.writers.append(writer)
            self._readers.append(
                asyncio.create_task(self._read(conn, reader))
            )

    async def _read(self, conn: int, reader: asyncio.StreamReader) -> None:
        n = len(self.frames)
        result = self.result
        while True:
            try:
                header = await reader.readexactly(_HEADER.size)
            except asyncio.IncompleteReadError:
                return
            _magic, kind, rid, length = _HEADER.unpack(header)
            payload = await reader.readexactly(length) if length else b""
            now = perf_counter()
            if rid >= n:
                self._on_stats(rid, kind, payload, now)
                continue
            result.received[rid] = now
            result.kinds[rid] = kind
            result.payloads[rid] = payload
            self.on_reply(conn, rid)
            self.outstanding -= 1
            if not self.outstanding:
                self.all_done.set()

    def on_reply(self, conn: int, rid: int) -> None:
        """Hook: a ``place`` reply arrived on ``conn``."""

    def _on_stats(self, rid, kind, payload, now) -> None:
        wire = _wire()
        self.result.stats_s.append(now - self._stats_sent.pop(rid))
        if kind != wire.RESPONSE_FLAG | wire.STATUS_JSON:
            self.result.stats_failed += 1

    async def stats_loop(self) -> None:
        """Periodic ``stats`` reads on connection 0 beside the writes."""
        wire = _wire()
        rid = len(self.frames)
        while not self.all_done.is_set():
            self._stats_sent[rid] = perf_counter()
            self.writers[0].write(wire.encode_control_request(rid, "stats"))
            rid += 1
            try:
                await asyncio.wait_for(
                    self.all_done.wait(), self.stats_interval
                )
            except asyncio.TimeoutError:
                pass

    def start_stats(self) -> None:
        self._stats_task = (
            asyncio.create_task(self.stats_loop())
            if self.stats_interval
            else None
        )

    async def finish(self) -> PhaseResult:
        try:
            await self._wait_replies()
        finally:
            self.result.finished = max(self.result.received, default=0.0)
            if self._stats_task is not None:
                await self._stats_task
                # Let the last stats reply land before closing.
                deadline = perf_counter() + REPLY_TIMEOUT_S
                while self._stats_sent and perf_counter() < deadline:
                    await asyncio.sleep(0.005)
            for writer in self.writers:
                writer.close()
            for writer in self.writers:
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
            for task in self._readers:
                task.cancel()
            await asyncio.gather(*self._readers, return_exceptions=True)
        return self.result

    async def _wait_replies(self) -> None:
        """Wait for every reply; missing ones stay ``None`` (timeouts)."""
        while not self.all_done.is_set():
            before = self.outstanding
            try:
                await asyncio.wait_for(self.all_done.wait(), REPLY_TIMEOUT_S)
            except asyncio.TimeoutError:
                if self.outstanding == before:
                    return


class _OpenLoop(_Traffic):
    """Frames on a fixed schedule; latency counts from the due time."""

    async def run(self, port: int, rate_tx_s: float) -> PhaseResult:
        await self.connect(port)
        result = self.result
        self.start_stats()
        due = result.started = perf_counter() + 0.02
        late_max = 0.0
        writers = self.writers
        for i, frame in enumerate(self.frames):
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late = perf_counter() - due
            if late > late_max:
                late_max = late
            result.sent[i] = due
            writers[i % CONNECTIONS].write(frame)
            due += self.frame_txs[i] / rate_tx_s
        result.late_max_s = late_max
        return await self.finish()


class _ClosedLoop(_Traffic):
    """A fixed window of outstanding requests per connection."""

    async def run(self, port: int, window: int) -> PhaseResult:
        await self.connect(port)
        self._next = 0
        self.start_stats()
        self.result.started = perf_counter()
        for conn in range(CONNECTIONS):
            for _ in range(window):
                self._send(conn)
        return await self.finish()

    def _send(self, conn: int) -> None:
        i = self._next
        if i < len(self.frames):
            self._next = i + 1
            self.result.sent[i] = perf_counter()
            self.writers[conn].write(self.frames[i])

    def on_reply(self, conn: int, rid: int) -> None:
        self._send(conn)


def open_loop(port, frames, frame_txs, rate_tx_s, stats_interval=None):
    """Drive one open-loop phase to completion."""
    traffic = _OpenLoop(frames, frame_txs, stats_interval)
    return asyncio.run(traffic.run(port, rate_tx_s))


def closed_loop(port, frames, frame_txs, window, stats_interval=None):
    """Drive one closed-loop phase to completion."""
    traffic = _ClosedLoop(frames, frame_txs, stats_interval)
    return asyncio.run(traffic.run(port, window))
