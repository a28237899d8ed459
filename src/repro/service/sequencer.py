"""The ``place``-request sequencer shared by every serving process.

OptChain places transactions as a stream, in txid order. Clients replay
disjoint chunks of one global stream (see :mod:`repro.datasets.replay`)
over many connections, so requests arrive out of order. Both the
single-process :class:`~repro.service.server.PlacementServer` and each
sharded :class:`~repro.service.worker.PlacementWorker` restore the order
through one :class:`Sequencer`:

- **The reorder buffer** keys every admitted ``place`` request by its
  first txid. Whichever order requests arrive in, only the contiguous
  run starting at the engine's ``n_placed`` cursor is dispatchable.
  Requests the cursor has already passed are answered at admission: a
  range placed *in full* from the recorded assignments (a client
  resubmitting after a lost response gets the identical shards back),
  a partial overlap with an ``engine`` error (a txid-accounting bug,
  not a retry).
- **The coalescer** pops that contiguous run, up to ``max_batch_txs``
  transactions, and fuses it into a single micro-batch (array runs
  concatenate, mixed runs become one object list -
  :func:`~repro.service.wire.merge_place_batches`): one entry into the
  placement hot path for many small requests.
- **The replay.** Engine validation is atomic, so a rejected merged
  batch placed nothing; it is replayed one request at a time, so only
  the offending request fails (later requests then fail on the txid gap
  it left, which is the honest outcome).

The owner runs the dispatch loop: it decides *when* a run may be placed
(shutdown, lease grants, the engine lock) and supplies the ``place``
coroutine; the sequencer decides *what* is placed and what every
request is answered.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Awaitable, Callable

from repro.errors import EngineError, RetryLaterError
from repro.obs.metrics import ServiceMetrics
from repro.service.wire import WireBatch, first_txid_of, merge_place_batches
from repro.utxo.transaction import Transaction

#: ``(first, count) -> shards`` of an already-placed range.
Recorded = Callable[[int, int], "list[int]"]

#: ``(merged batch, raw payloads of its requests) -> shards``.
Place = Callable[[Any, "list[bytes | None]"], Awaitable["list[int]"]]


class PlaceRequest:
    """One admitted ``place`` request waiting for the cursor.

    ``payload`` is the raw binary frame payload (None for NDJSON): the
    sharded worker's write-ahead journal records it without
    re-encoding.
    """

    __slots__ = ("batch", "payload", "future")

    def __init__(
        self,
        batch: "list[Transaction] | WireBatch",
        payload: "bytes | None",
        future: "asyncio.Future[dict]",
    ) -> None:
        self.batch = batch
        self.payload = payload
        self.future = future

    def resolve(self, shards: "list[int]") -> None:
        if not self.future.done():
            self.future.set_result({"ok": True, "shards": shards})

    def fail(self, code: str, error: str) -> None:
        if not self.future.done():
            self.future.set_result(
                {"ok": False, "code": code, "error": error}
            )


class Sequencer:
    """Reorder buffer, coalescer and replay over one engine cursor.

    Every reply the sequencer produces is counted in ``metrics``:
    placed runs in ``record_batch``, ``retry``/``overload`` replies in
    their counters and every failed ``engine`` reply in
    ``error_replies``.
    """

    def __init__(
        self,
        metrics: ServiceMetrics,
        *,
        max_batch_txs: int = 8192,
        max_reorder_requests: int = 1024,
    ) -> None:
        self._metrics = metrics
        self._max_batch_txs = max_batch_txs
        self._max_reorder = max_reorder_requests
        self._pending: "dict[int, PlaceRequest]" = {}

    def __len__(self) -> int:
        """Requests waiting in the reorder buffer."""
        return len(self._pending)

    def admit(
        self,
        batch: "list[Transaction] | WireBatch",
        payload: "bytes | None",
        cursor: int,
        recorded: Recorded,
    ) -> "asyncio.Future[dict]":
        """Queue one decoded, non-empty batch; the future carries its
        reply. Requests that cannot wait for the cursor get an already
        resolved future."""
        future: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        request = PlaceRequest(batch, payload, future)
        first = first_txid_of(batch)
        if first < cursor:
            self._answer_stale(first, request, cursor, recorded)
        elif first in self._pending:
            # Likely the same client retrying while its original
            # request still waits for a txid gap: the original will
            # answer (or fail) soon.
            self._metrics.retry_replies += 1
            request.fail(
                "retry",
                f"a request starting at txid {first} is already "
                "queued; retry later",
            )
        elif len(self._pending) >= self._max_reorder:
            self._metrics.overload_replies += 1
            request.fail(
                "overload",
                f"reorder buffer full ({self._max_reorder} requests "
                "waiting for earlier txids); retry later",
            )
        else:
            self._pending[first] = request
        return future

    def _answer_stale(
        self,
        first: int,
        request: PlaceRequest,
        cursor: int,
        recorded: Recorded,
    ) -> None:
        count = len(request.batch)
        if first + count <= cursor:
            request.resolve(recorded(first, count))
        else:
            self._metrics.error_replies += 1
            request.fail(
                "engine",
                f"transactions from {first} were already placed "
                f"(next expected: {cursor})",
            )

    def take_run(
        self, cursor: int, recorded: Recorded
    ) -> "list[PlaceRequest]":
        """Answer the requests the cursor passed while they waited,
        then pop the contiguous run from ``cursor`` (up to
        ``max_batch_txs`` transactions; empty when none is waiting)."""
        pending = self._pending
        for first in [key for key in pending if key < cursor]:
            self._answer_stale(first, pending.pop(first), cursor, recorded)
        head = pending.pop(cursor, None)
        if head is None:
            return []
        run = [head]
        total = len(head.batch)
        while total < self._max_batch_txs:
            follower = pending.pop(cursor + total, None)
            if follower is None:
                break
            run.append(follower)
            total += len(follower.batch)
        return run

    async def place_run(
        self, run: "list[PlaceRequest]", place: Place
    ) -> None:
        """Place ``run`` as one merged batch and answer every member."""
        batch = merge_place_batches([member.batch for member in run])
        metrics = self._metrics
        try:
            started = perf_counter()
            shards = await place(batch, [member.payload for member in run])
            metrics.record_batch(len(batch), perf_counter() - started)
        except RetryLaterError as exc:
            # A foreign owner is recovering: nothing was placed; the
            # identical requests can be resubmitted once it is back.
            metrics.retry_replies += len(run)
            for member in run:
                member.fail("retry", str(exc))
            return
        except EngineError as exc:
            if len(run) == 1:
                metrics.error_replies += 1
                run[0].fail("engine", str(exc))
                return
            for member in run:
                await self.place_run([member], place)
            return
        except Exception as exc:  # noqa: BLE001 - a placer bug (or a
            # lost coordinator link, whose replies cannot be delivered
            # anyway) must fail these requests, not kill the dispatcher:
            # every later request and the shutdown drain still need it.
            metrics.error_replies += len(run)
            for member in run:
                member.fail(
                    "engine", f"internal error placing batch: {exc!r}"
                )
            return
        offset = 0
        for member in run:
            count = len(member.batch)
            member.resolve(shards[offset : offset + count])
            offset += count

    def fail_all(self, code: str, error: str) -> None:
        """Fail every waiting request, in txid order (shutdown)."""
        for first in sorted(self._pending):
            self._pending.pop(first).fail(code, error)
