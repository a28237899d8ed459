"""Open/closed-loop load generator for the placement service.

Replays a :mod:`repro.datasets.synthetic` stream from many simulated
users, each on its own connection, each holding a round-robin deal of
the stream's chunks (:func:`repro.datasets.replay.round_robin_chunks`)
so the server's sequencer always re-merges the interleaved arrivals.

Two driving modes, the standard pair from load-testing practice:

- **closed** (default): each user submits its next chunk only after the
  previous response arrives. Offered load adapts to service capacity;
  latency measures the request/response round trip under concurrency
  ``n_users``.
- **open**: chunks are injected on a fixed wall-clock schedule derived
  from ``rate`` (transactions/second across all users), pipelined
  without waiting for responses. Offered load is independent of
  service speed, so queueing delay shows up in the latencies - the
  honest way to ask "can it sustain X tx/s?". Each chunk's latency is
  timed from its *due* time, not from its actual send: a generator
  that falls behind its schedule (its event loop stalled) must not
  hide the wait from the latencies (coordinated omission).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.datasets.replay import round_robin_chunks
from repro.datasets.synthetic import GeneratorConfig, synthetic_stream
from repro.errors import ConfigurationError
from repro.service.client import PROTOCOLS, async_client_class
from repro.utxo.transaction import Transaction

MODES = ("closed", "open")


@dataclass(frozen=True, slots=True)
class LoadgenReport:
    """What one load-generation run measured."""

    mode: str
    #: Wire codec the run drove: "binary" (frames) or "json" (NDJSON).
    proto: str
    n_users: int
    n_txs: int
    chunk_size: int
    n_chunks: int
    elapsed_s: float
    placements_per_s: float
    #: Per-chunk latency in milliseconds: request->response in closed
    #: mode, due time->response in open mode.
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    latency_ms_max: float
    errors: int
    #: Offered rate (tx/s) in open mode; None in closed mode.
    target_rate: float | None
    #: Transparent client retries performed across all users (retryable
    #: replies, timeouts, reconnects) - 0 when max_retries is 0.
    retries: int = 0
    #: Message of the last error a user saw (hard failure or the last
    #: retried failure); None when the run was clean.
    last_error: "str | None" = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "proto": self.proto,
            "n_users": self.n_users,
            "n_txs": self.n_txs,
            "chunk_size": self.chunk_size,
            "n_chunks": self.n_chunks,
            "elapsed_s": round(self.elapsed_s, 4),
            "placements_per_s": round(self.placements_per_s, 1),
            "latency_ms_p50": round(self.latency_ms_p50, 3),
            "latency_ms_p95": round(self.latency_ms_p95, 3),
            "latency_ms_p99": round(self.latency_ms_p99, 3),
            "latency_ms_max": round(self.latency_ms_max, 3),
            "errors": self.errors,
            "target_rate": self.target_rate,
            "retries": self.retries,
            "last_error": self.last_error,
        }

    def summary(self) -> str:
        """One human-readable block (the CLI's output)."""
        lines = [
            f"protocol:        {self.proto}",
            f"mode:            {self.mode}"
            + (
                f" (target {self.target_rate:,.0f} tx/s)"
                if self.target_rate
                else ""
            ),
            f"users:           {self.n_users}",
            f"transactions:    {self.n_txs:,} "
            f"({self.n_chunks} chunks of <= {self.chunk_size})",
            f"elapsed:         {self.elapsed_s:.2f}s",
            f"throughput:      {self.placements_per_s:,.0f} placements/s",
            f"chunk latency:   p50 {self.latency_ms_p50:.1f}ms   "
            f"p95 {self.latency_ms_p95:.1f}ms   "
            f"p99 {self.latency_ms_p99:.1f}ms   "
            f"max {self.latency_ms_max:.1f}ms",
            f"errors:          {self.errors}",
        ]
        if self.retries:
            lines.append(f"retries:         {self.retries}")
        if self.last_error:
            lines.append(f"last error:      {self.last_error}")
        return "\n".join(lines)


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * len(sorted_values))
    )
    return sorted_values[index]


async def run_loadgen_async(
    host: str = "127.0.0.1",
    port: int = 9171,
    *,
    n_txs: int = 20_000,
    n_users: int = 8,
    chunk_size: int = 256,
    mode: str = "closed",
    rate: float | None = None,
    seed: int = 1,
    config: GeneratorConfig | None = None,
    stream: Sequence[Transaction] | None = None,
    full_outputs: bool = False,
    proto: str = "binary",
    request_timeout: "float | None" = None,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
) -> LoadgenReport:
    """Drive a running server; returns the measured report.

    Assumes a fresh server (the replayed stream's txids start where the
    generator's do, at 0); pass ``stream`` to replay custom workloads.
    ``proto`` picks the wire codec ("binary" by default; "json" drives
    the NDJSON compat path - the codec-comparison lane of the service
    bench).

    ``max_retries`` arms the clients' transparent retry path (jittered
    exponential backoff from ``retry_backoff``, reconnect on transport
    loss) so the generator rides out worker respawns, ``retry``
    replies, and ``overload`` shedding; ``request_timeout`` bounds each
    round trip. Retries are counted in the report, not as errors.
    """
    if mode not in MODES:
        raise ConfigurationError(
            f"mode must be one of {MODES}, got {mode!r}"
        )
    if proto not in PROTOCOLS:
        raise ConfigurationError(
            f"proto must be one of {PROTOCOLS}, got {proto!r}"
        )
    if mode == "open":
        if rate is None or rate <= 0:
            raise ConfigurationError(
                "open mode needs a positive rate (transactions/second)"
            )
    if stream is None:
        stream = synthetic_stream(n_txs, seed=seed, config=config)
    else:
        n_txs = len(stream)
    deals = round_robin_chunks(stream, n_users, chunk_size)
    n_chunks = sum(len(deal) for deal in deals)
    base_txid = stream[0].txid if stream else 0

    latencies: list[float] = []
    errors = 0
    last_error: "str | None" = None

    connect = async_client_class(proto).connect
    clients = [
        await connect(
            host,
            port,
            retries=max_retries,
            request_timeout=request_timeout,
            backoff_base=retry_backoff,
            backoff_seed=seed + index,
        )
        for index in range(n_users)
    ]
    start = time.perf_counter()

    async def closed_user(client, chunks) -> None:
        nonlocal errors, last_error
        for chunk in chunks:
            sent = time.perf_counter()
            try:
                await client.place(chunk, full_outputs)
            except Exception as exc:  # noqa: BLE001 - one failed chunk
                # is a counted error, not the end of the run.
                errors += 1
                last_error = str(exc) or type(exc).__name__
            latencies.append((time.perf_counter() - sent) * 1e3)

    async def open_user(client, chunks) -> None:
        nonlocal errors, last_error
        pending = []
        for chunk in chunks:
            due = start + (chunk[0].txid - base_txid) / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            future = client.place_nowait(chunk, full_outputs)

            def record(done, due=due) -> None:
                nonlocal errors, last_error
                latencies.append((time.perf_counter() - due) * 1e3)
                exc = done.exception()
                if exc is not None:
                    errors += 1
                    last_error = str(exc) or type(exc).__name__
                elif not done.result().get("ok"):
                    errors += 1
                    last_error = done.result().get(
                        "error", "unknown server error"
                    )

            future.add_done_callback(record)
            pending.append(future)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    runner = closed_user if mode == "closed" else open_user
    try:
        await asyncio.gather(
            *(
                runner(client, deal)
                for client, deal in zip(clients, deals)
            )
        )
    finally:
        retries = sum(
            getattr(client, "retries_used", 0) for client in clients
        )
        if last_error is None:
            last_error = next(
                (
                    client.last_error
                    for client in clients
                    if getattr(client, "last_error", None)
                ),
                None,
            )
        for client in clients:
            await client.close()
    elapsed = time.perf_counter() - start

    latencies.sort()
    return LoadgenReport(
        mode=mode,
        proto=proto,
        n_users=n_users,
        n_txs=n_txs,
        chunk_size=chunk_size,
        n_chunks=n_chunks,
        elapsed_s=elapsed,
        placements_per_s=n_txs / elapsed if elapsed > 0 else 0.0,
        latency_ms_p50=_percentile(latencies, 0.50),
        latency_ms_p95=_percentile(latencies, 0.95),
        latency_ms_p99=_percentile(latencies, 0.99),
        latency_ms_max=latencies[-1] if latencies else 0.0,
        errors=errors,
        target_rate=rate if mode == "open" else None,
        retries=retries,
        last_error=last_error,
    )


def run_loadgen(**kwargs: Any) -> LoadgenReport:
    """Synchronous wrapper around :func:`run_loadgen_async`."""
    return asyncio.run(run_loadgen_async(**kwargs))
