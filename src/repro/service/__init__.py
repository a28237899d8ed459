"""Long-lived placement serving layer.

The paper frames OptChain as an *online* component that shards consult
per incoming transaction (§IV, Alg. 1); everything else in this repo
runs it inside one-shot experiment scripts. This package turns the
placement engine into a stateful service that can survive a stream of
millions of transactions:

- :mod:`repro.service.engine` - :class:`PlacementEngine`, the
  long-lived wrapper: batch validation against the serving contract,
  and the epoch/truncation policy that bounds the T2S store's memory
  (the seed store kept every sparse vector forever, ~1.5 GB at 10M
  transactions).
- :mod:`repro.service.state` - versioned snapshot/restore of the full
  placement state (T2S vectors, lazy-decay load-proxy clocks, shard
  sizes, RNG state) to a compact binary file, such that
  restore-then-continue is bit-identical to an uninterrupted run.
- :mod:`repro.service.wire` - the two wire codecs (NDJSON for compat,
  length-prefixed binary frames for throughput), sharing one port via
  first-byte sniffing.
- :mod:`repro.service.server` - the single-process asyncio server:
  dual-codec connections, micro-batched dispatch into the fused
  ``place_batch`` hot path, graceful drain and checkpoint-on-shutdown.
- :mod:`repro.service.sequencer` - the ``place``-request sequencer the
  server and every sharded worker share: reorder buffer keyed by first
  txid, coalescer, and per-request replay after an atomic reject.
- :mod:`repro.service.partition` / :mod:`~repro.service.coordinator` /
  :mod:`~repro.service.worker` / :mod:`~repro.service.channel` - the
  horizontally sharded service (``repro serve --workers N``):
  partitioned engines owning contiguous txid leases behind a routing
  front-end, with ownership handoff, cross-partition parent lookups,
  per-partition checkpoints, heartbeat supervision with bounded-backoff
  respawn of crashed workers (including non-idle ones), and
  per-partition in-flight windows that shed excess load with explicit
  ``overload`` replies.
- :mod:`repro.service.journal` - the per-partition write-ahead batch
  journal (CRC-framed records, fsync batching, reset at checkpoints):
  a worker SIGKILLed mid-batch respawns from checkpoint + WAL replay
  bit-identical to never having crashed; torn tails are detected and
  discarded.
- :mod:`repro.service.faults` - deterministic, seedable fault
  injection (kill a chosen partition at a chosen point of the batch
  lifecycle, optionally tearing the journal tail) plus the end-to-end
  chaos harness behind ``repro chaos`` and the crash-recovery tests.
- :mod:`repro.service.client` - sync and async clients, one pair per
  codec, with optional transparent retry: jittered exponential
  backoff, reconnect on transport loss, idempotent re-submission of
  ``retry``/``overload`` replies and timed-out requests.
- :mod:`repro.service.loadgen` - an open/closed-loop load generator
  replaying :mod:`repro.datasets.synthetic` streams from many simulated
  users over either codec.

Quickstart (in-process)::

    from repro import OptChainPlacer
    from repro.service import PlacementEngine

    engine = PlacementEngine(
        OptChainPlacer(n_shards=16), epoch_length=25_000, horizon_epochs=8
    )
    shards = engine.place_batch(batch_of_transactions)
    engine.checkpoint("placement.snap")          # restartable
    engine = PlacementEngine.restore("placement.snap")

Over the wire: ``repro serve`` / ``repro loadgen`` (see the CLI), or
``examples/placement_service.py`` and ``examples/sharded_service.py``
for scripted walkthroughs.
"""

from repro.service.engine import EngineStats, PlacementEngine
from repro.service.partition import EnginePartition
from repro.service.state import (
    load_engine_snapshot,
    save_engine_delta,
    save_engine_snapshot,
)

__all__ = [
    "EngineStats",
    "EnginePartition",
    "PlacementEngine",
    "load_engine_snapshot",
    "save_engine_delta",
    "save_engine_snapshot",
]
