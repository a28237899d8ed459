"""The place-request sequencer without sockets.

The socket suites (``test_server.py``, ``test_binary_server.py``,
``test_sharded_service.py``) drive the sequencer through whole servers;
these tests pin the policy cases they cannot reach directly: the
coalescing bound, requests the cursor passes while they wait, a full
reorder buffer, and a failing ``place`` that must not wedge dispatch.
"""

from __future__ import annotations

import asyncio

from repro.errors import RetryLaterError
from repro.obs.metrics import ServiceMetrics
from repro.service.sequencer import Sequencer
from repro.utxo.transaction import Transaction, TxOutput


def batch(first, count):
    return [
        Transaction(txid, (), (TxOutput(1),))
        for txid in range(first, first + count)
    ]


class FakeEngine:
    """A cursor and an assignment record; ``place`` appends shard 1 per
    transaction, or raises the next queued exception."""

    def __init__(self, placed=0):
        self.assignment = [0] * placed
        self.calls = []
        self.raises = []

    @property
    def cursor(self):
        return len(self.assignment)

    def recorded(self, first, count):
        return self.assignment[first : first + count]

    async def place(self, merged, payloads):
        self.calls.append((merged[0].txid, len(merged), len(payloads)))
        if self.raises:
            raise self.raises.pop(0)
        self.assignment.extend([1] * len(merged))
        return [1] * len(merged)


async def dispatch(sequencer, engine):
    """Place every dispatchable run, like a server's dispatch loop."""
    while run := sequencer.take_run(engine.cursor, engine.recorded):
        await sequencer.place_run(run, engine.place)


def test_coalescing_stops_at_max_batch_txs():
    async def main():
        metrics = ServiceMetrics()
        sequencer = Sequencer(metrics, max_batch_txs=100)
        engine = FakeEngine()
        replies = [
            sequencer.admit(batch(first, 60), None, 0, engine.recorded)
            for first in (60, 120, 0)
        ]
        assert len(sequencer) == 3
        await dispatch(sequencer, engine)
        # 0+60 reached the bound: 120 starts the next run.
        assert engine.calls == [(0, 120, 2), (120, 60, 1)]
        assert [(await reply)["shards"] for reply in replies] == [[1] * 60] * 3
        assert (metrics.batches, metrics.placed) == (2, 180)
        assert len(sequencer) == 0

    asyncio.run(main())


def test_admission_replies():
    async def main():
        metrics = ServiceMetrics()
        sequencer = Sequencer(metrics, max_reorder_requests=2)
        engine = FakeEngine(placed=100)
        engine.assignment[40:50] = [3] * 10
        admit = sequencer.admit
        duplicate = admit(batch(40, 10), None, 100, engine.recorded)
        overlap = admit(batch(90, 20), None, 100, engine.recorded)
        queued = admit(batch(200, 5), None, 100, engine.recorded)
        retry = admit(batch(200, 9), None, 100, engine.recorded)
        admit(batch(300, 5), None, 100, engine.recorded)
        overload = admit(batch(400, 5), None, 100, engine.recorded)
        assert (await duplicate) == {"ok": True, "shards": [3] * 10}
        assert (await overlap) == {
            "ok": False,
            "code": "engine",
            "error": "transactions from 90 were already placed "
            "(next expected: 100)",
        }
        assert not queued.done()
        assert (await retry)["code"] == "retry"
        assert (await overload)["code"] == "overload"
        assert "reorder buffer full (2 requests" in (await overload)["error"]
        assert (
            metrics.error_replies,
            metrics.retry_replies,
            metrics.overload_replies,
        ) == (1, 1, 1)
        sequencer.fail_all("shutdown", "bye")
        assert (await queued) == {
            "ok": False,
            "code": "shutdown",
            "error": "bye",
        }
        assert len(sequencer) == 0

    asyncio.run(main())


def test_stale_requests_answered_or_failed():
    async def main():
        metrics = ServiceMetrics()
        sequencer = Sequencer(metrics)
        engine = FakeEngine()
        full = sequencer.admit(batch(100, 50), None, 0, engine.recorded)
        partial = sequencer.admit(batch(130, 40), None, 0, engine.recorded)
        # Another client places 0..149 while both wait.
        engine.assignment = [2] * 150
        assert sequencer.take_run(150, engine.recorded) == []
        assert (await full) == {"ok": True, "shards": [2] * 50}
        assert (await partial) == {
            "ok": False,
            "code": "engine",
            "error": "transactions from 130 were already placed "
            "(next expected: 150)",
        }
        assert metrics.error_replies == 1
        assert len(sequencer) == 0

    asyncio.run(main())


def test_failing_place_answers_run_and_keeps_dispatching():
    async def main():
        metrics = ServiceMetrics()
        sequencer = Sequencer(metrics)
        engine = FakeEngine()
        engine.raises = [
            RuntimeError("placer bug"),
            RetryLaterError("owner recovering"),
        ]
        first = [
            sequencer.admit(batch(start, 10), b"raw", 0, engine.recorded)
            for start in (10, 0)
        ]
        await dispatch(sequencer, engine)
        for reply in first:
            reply = await reply
            assert reply["code"] == "engine"
            assert reply["error"] == (
                "internal error placing batch: RuntimeError('placer bug')"
            )
        # Nothing placed: the resubmitted run dispatches, meets the
        # retryable failure, then places.
        for attempt in ("retry", "ok"):
            replies = [
                sequencer.admit(batch(start, 10), b"raw", 0, engine.recorded)
                for start in (0, 10)
            ]
            await dispatch(sequencer, engine)
            for reply in replies:
                reply = await reply
                assert reply.get("code", "ok") == attempt
        assert engine.calls == [(0, 20, 2)] * 3
        assert (metrics.error_replies, metrics.retry_replies) == (2, 2)
        assert (metrics.batches, metrics.placed) == (1, 20)

    asyncio.run(main())

