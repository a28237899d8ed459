"""The traced run: per-layer metrics, tracing overhead and waterfalls.

Each per-layer metric is defined on one workload (the layer that
workload stresses), so a traced run replays every workload's stream.
Spans are recorded from the benchmark's own code around the calls into
each layer's public functions, kept in memory, and written to
``.bench_build/trace-<seed>.json`` at the end. The same in-process
replays also run once with tracing off; the difference is the tracing
overhead. Socket-level layers (``server``, ``sharded``,
``coordinator``, ``client``) come from one closed-loop and one
open-loop pass against a real ``repro serve`` process, with every reply
checked against the python golden placement.
"""

from __future__ import annotations

import contextlib
import gc
import json
from time import perf_counter, perf_counter_ns

from common import WORK, WORKLOADS, Report, median, percentile, provenance
import common

PER_LAYER = (
    "wire.encode_request_us_per_tx",
    "wire.request_bytes_per_tx",
    "wire.decode_objects_us_per_tx",
    "wire.decode_arrays_us_per_tx",
    "engine.place_batch_us_per_tx",
    "engine.place_wire_batch_us_per_tx",
    "engine.batch_max_ms",
    "engine.batch_max_txid",
    "core.place_raw_us_per_tx",
    "core.place_python_us_per_tx",
    "core.support_mean_nnz",
    "journal.append_us_per_tx",
    "journal.bytes_per_tx",
    "journal.fsyncs",
    "journal.sync_ms_max",
    "server.overhead_us_per_tx",
    "server.txs_per_batch",
    "server.batch_ms_p50",
    "server.batch_ms_p99",
    "server.latency_p99_ms",
    "sharded.overhead_us_per_tx",
    "sharded.txs_per_batch",
    "sharded.latency_p99_ms",
    "coordinator.stats_ms_p50",
    "sim.events",
    "sim.events_per_s",
    "sim.placer_share",
    "sim.confirm_p50_s",
    "sim.confirm_p99_s",
    "sim.throughput_tps",
    "client.late_ms_max",
    "trace.overhead_fraction",
)

_NULL = contextlib.nullcontext()


def _untraced(_name, _request=None):
    return _NULL


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent, request]``.

    A span's parent is the span open around it; spans of one request
    share its ``request`` id.
    """

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._open: "list[int]" = []

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        parent = self._open[-1] if self._open else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, parent, request]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def total_s(self, name: str, since: int = 0) -> float:
        """Summed duration of the ``name`` spans from index ``since``."""
        return sum(
            (s[2] - s[1]) / 1e9 for s in self.spans[since:] if s[0] == name
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
            )


# -- in-process replays --------------------------------------------------------


def _payload(frame: bytes) -> bytes:
    from repro.service.wire import FRAME_HEADER_BYTES

    return frame[FRAME_HEADER_BYTES:]


def encode_requests(stream, ranges, span) -> "list[bytes]":
    from repro.service.wire import encode_place_request

    frames = []
    for i, (first, end) in enumerate(ranges):
        with span("wire.encode_request", i):
            frames.append(encode_place_request(i, stream[first:end]))
    return frames


def new_engine(shards: int):
    """An engine configured as ``repro serve --backend numpy`` builds it."""
    from repro.core.placement import make_placer
    from repro.service.engine import PlacementEngine

    return PlacementEngine(
        make_placer("optchain:backend=numpy", shards),
        epoch_length=25_000,
        horizon_epochs=None,
        truncate_spent=True,
    )


def _groups(n_frames: int, per_batch: int):
    """Consecutive frame ranges of ``per_batch`` frames: the server
    coalesces queued requests into micro-batches, and the in-process
    chain replays the batch size the socket pass reported."""
    for start in range(0, n_frames, per_batch):
        yield range(start, min(start + per_batch, n_frames))


def _respond(group, frames_txs, placed, span, replies) -> None:
    from repro.service.wire import encode_shards_response

    offset = 0
    for i in group:
        with span("wire.encode_response"):
            replies.append(
                encode_shards_response(i, placed[offset : offset + frames_txs[i]])
            )
        offset += frames_txs[i]


def object_chain(frames, frame_txs, per_batch, shards, span) -> "list[bytes]":
    """The single-process server's chain, in-process: object decode
    per request, one engine call per micro-batch, reply per request."""
    from repro.service.wire import decode_place_payload

    engine = new_engine(shards)
    replies: "list[bytes]" = []
    for group in _groups(len(frames), per_batch):
        with span("batch", group[0]):
            txs = []
            for i in group:
                with span("wire.decode_objects"):
                    txs.extend(decode_place_payload(_payload(frames[i])))
            with span("engine.place_batch"):
                placed = engine.place_batch(txs)
            _respond(group, frame_txs, placed, span, replies)
    return replies


def wire_chain(frames, frame_txs, per_batch, shards, span, journal_dir):
    """A sharded worker's chain (WAL on), in-process: array decode per
    request, then per micro-batch one journal append and one kernel
    call, as the partition runs them. Returns ``(replies, journal)``."""
    from repro.service.journal import BatchJournal
    from repro.service.wire import concat_wire_batches, decode_place_arrays

    engine = new_engine(shards)
    journal = BatchJournal(
        str(journal_dir / "p0.wal"), 0, 1, 25_000, sync_every_bytes=1 << 20
    )
    journal.open(0, "")
    sync = journal.sync

    def traced_sync():
        with span("journal.sync"):
            sync()

    journal.sync = traced_sync
    replies: "list[bytes]" = []
    try:
        for group in _groups(len(frames), per_batch):
            with span("batch", group[0]):
                decoded = []
                for i in group:
                    with span("wire.decode_arrays"):
                        decoded.append(decode_place_arrays(_payload(frames[i])))
                with span("journal.append"):
                    journal.append_batch([_payload(frames[i]) for i in group], {})
                with span("engine.place_wire_batch"):
                    placed = engine.place_wire_batch(concat_wire_batches(decoded))
                _respond(group, frame_txs, placed, span, replies)
    finally:
        journal.close()
    return replies, journal


def raw_kernel(frames, per_batch, shards, span) -> "list[int]":
    """The numpy placer's raw kernel entry over pre-decoded batches."""
    from repro.core.placement import make_placer
    from repro.service.wire import concat_wire_batches, decode_place_arrays

    placer = make_placer("optchain:backend=numpy", shards)
    batches = [
        concat_wire_batches(
            [decode_place_arrays(_payload(frames[i])) for i in group]
        )
        for group in _groups(len(frames), per_batch)
    ]
    placed = []
    for batch in batches:
        with span("core.place_raw"):
            placed.extend(
                placer.place_batch_raw(batch.parents, batch.in_off, batch.n_txs)
            )
    return placed


def _check_replies(replies, plan, report, label) -> None:
    for i, reply in enumerate(replies):
        report.attempted += 1
        if _payload(reply) != plan.expected[i]:
            report.failed += 1
            report.fail(f"{label} request {i} differs from the golden placement")


# -- socket passes -------------------------------------------------------------


def socket_passes(plan, report, label: str) -> dict:
    """One closed-loop and one open-loop pass against ``repro serve``."""
    from repro.obs.hist import LogHistogram

    from driver import closed_loop, open_loop
    from serve import one_pass, served_by

    workload = plan.workload
    _, closed, stats = one_pass(
        plan,
        report,
        lambda port: closed_loop(
            port, plan.frames, plan.frame_txs, workload.window,
            workload.stats_interval_s,
        ),
        f"{label} closed",
    )
    _, opened, _ = one_pass(
        plan,
        report,
        lambda port: open_loop(
            port, plan.frames, plan.frame_txs, workload.rate_tx_s,
            workload.stats_interval_s,
        ),
        f"{label} open",
    )
    metrics = stats["obs"]["metrics"]
    hist = LogHistogram.from_snapshot(metrics["batch_latency"])
    p50, p99 = hist.percentiles((0.5, 0.99))
    report.provenance.setdefault("served_by", {})[label] = served_by(stats)
    return {
        "socket_us_per_tx": (closed.finished - closed.started)
        / workload.n_txs
        * 1e6,
        "txs_per_batch": metrics["placed"] / metrics["batches"],
        "batches": metrics["batches"],
        "batch_ms_p50": p50 * 1e3,
        "batch_ms_p99": p99 * 1e3,
        "stats_ms": [s * 1e3 for s in closed.stats_s + opened.stats_s],
        "late_ms_max": opened.late_max_s * 1e3,
        # The open pass's p99, from each request's due time.
        "latency_ms_p99": percentile(
            [(r - t) * 1e3 for t, r in zip(opened.sent, opened.received)], 0.99
        ),
        "requests": len(opened.sent),
    }


# -- the three workloads ---------------------------------------------------------


def _per_tx_us(seconds: float, n: int) -> float:
    return seconds / n * 1e6


def _waterfall(title: str, rows, socket_us: float) -> None:
    """Cumulative us/tx from the raw kernel out to the socket; the last
    step is what the in-process chain does not explain (server loop,
    worker pipe, coordinator routing, asyncio, socket, client)."""
    rows = [*rows, ("+ serving loop, pipe, sockets = round trip", socket_us)]
    print(f"  waterfall {title} (cumulative us/tx, step, share of round trip)")
    previous = 0.0
    for label, value in rows:
        print(
            f"    {label:<46} {value:>9.3f} {value - previous:>+9.3f} "
            f"{(value - previous) / socket_us:>7.1%}"
        )
        previous = value


def trace_serve(workload, seed, report, tracer, overhead) -> dict:
    """Socket passes, then the server's chain in-process (untraced and
    traced) and the raw kernel, over one workload's stream. Returns the
    per-layer figures both serve workloads share."""
    import shutil
    import tempfile
    from pathlib import Path

    from serve import ServePlan

    plan = ServePlan(workload, seed)
    n = workload.n_txs
    sock = socket_passes(plan, report, workload.name)
    per_batch = max(1, round(sock["txs_per_batch"] / workload.frame_txs))
    wal_dir = Path(tempfile.mkdtemp(prefix="trace-wal-", dir=WORK))

    def chain(frames, span):
        if workload.wal:
            shutil.rmtree(wal_dir, ignore_errors=True)
            wal_dir.mkdir()
            return wire_chain(
                frames, plan.frame_txs, per_batch, workload.shards, span, wal_dir
            )
        replies = object_chain(
            frames, plan.frame_txs, per_batch, workload.shards, span
        )
        return replies, None

    # As in a server process, the collector should see only what the
    # chain allocates, not the benchmark's own inputs.
    gc.collect()
    gc.freeze()
    try:
        started = perf_counter()
        replies, _ = chain(plan.frames, _untraced)
        overhead["untraced"] += perf_counter() - started
        _check_replies(replies, plan, report, f"{workload.name} untraced")
        first_span = len(tracer.spans)
        frames = encode_requests(plan.stream, plan.ranges, tracer.span)
        started = perf_counter()
        replies, journal = chain(frames, tracer.span)
        overhead["traced"] += perf_counter() - started
    finally:
        gc.unfreeze()
        shutil.rmtree(wal_dir, ignore_errors=True)
    if frames != plan.frames:
        report.fail("traced frame encode differs from the untraced one")
    _check_replies(replies, plan, report, f"{workload.name} traced")
    raw = raw_kernel(plan.frames, per_batch, workload.shards, tracer.span)
    if raw != plan.golden:
        report.fail(f"{workload.name} raw kernel placement differs from golden")

    def us(name: str) -> float:
        return _per_tx_us(tracer.total_s(name, since=first_span), n)

    spans = tracer.spans[first_span:]

    engine_span = "engine.place_wire_batch" if workload.wal else "engine.place_batch"
    decode_span = "wire.decode_arrays" if workload.wal else "wire.decode_objects"
    figures = {
        "encode_us": us("wire.encode_request"),
        "bytes_per_tx": sum(len(frame) for frame in frames) / n,
        "raw": us("core.place_raw"),
        "engine": us(engine_span),
        "decode": us(decode_span),
        "journal_us": us("journal.append"),
        "respond": us("wire.encode_response"),
        # (duration ms, first txid) of every engine call
        "engine_batches": [
            ((s[2] - s[1]) / 1e6, plan.ranges[s[4]][0])
            for s in spans
            if s[0] == engine_span
        ],
        "sync_ms": [(s[2] - s[1]) / 1e6 for s in spans if s[0] == "journal.sync"],
        "journal": journal,
        "n": n,
        "sock": sock,
    }
    figures["chain"] = (
        figures["decode"] + figures["journal_us"] + figures["engine"]
        + figures["respond"]
    )
    rows = [
        ("core raw kernel (numpy place_batch_raw)", figures["raw"]),
        (f"+ engine validation ({engine_span})", figures["engine"]),
        (f"+ decode ({decode_span})", figures["engine"] + figures["decode"]),
    ]
    if workload.wal:
        rows.append(
            (
                "+ WAL append/fsync (journal.append_batch)",
                figures["engine"] + figures["decode"] + figures["journal_us"],
            )
        )
    rows.append(("+ response encode = in-process chain", figures["chain"]))
    _waterfall(
        f"{workload.name}, {per_batch} frames per batch",
        rows,
        sock["socket_us_per_tx"],
    )
    return figures


def report_utxo(workload, figures, report) -> None:
    sock = figures["sock"]
    report.add(
        "wire.decode_objects_us_per_tx", figures["decode"], "us/tx", figures["n"]
    )
    report.add(
        "engine.place_batch_us_per_tx", figures["engine"], "us/tx",
        len(figures["engine_batches"]),
    )
    report.add(
        "server.overhead_us_per_tx",
        sock["socket_us_per_tx"] - figures["chain"],
        "us/tx",
        figures["n"],
    )
    report.add("server.txs_per_batch", sock["txs_per_batch"], "tx", sock["batches"])
    report.add("server.batch_ms_p50", sock["batch_ms_p50"], "ms", sock["batches"])
    report.add("server.batch_ms_p99", sock["batch_ms_p99"], "ms", sock["batches"])
    report.add(
        "server.latency_p99_ms", sock["latency_ms_p99"], "ms", sock["requests"]
    )


def report_account(workload, figures, report) -> None:
    sock = figures["sock"]
    n = figures["n"]
    journal = figures["journal"].stats()
    calls = len(figures["engine_batches"])
    worst_ms, worst_txid = max(figures["engine_batches"])
    report.add("wire.decode_arrays_us_per_tx", figures["decode"], "us/tx", n)
    report.add(
        "engine.place_wire_batch_us_per_tx", figures["engine"], "us/tx", calls
    )
    report.add("engine.batch_max_ms", worst_ms, "ms", calls)
    report.add("engine.batch_max_txid", worst_txid, "txid", calls)
    report.add("core.place_raw_us_per_tx", figures["raw"], "us/tx", n)
    report.add("journal.append_us_per_tx", figures["journal_us"], "us/tx", n)
    report.add("journal.bytes_per_tx", journal["bytes_appended"] / n, "B/tx", n)
    report.add("journal.fsyncs", journal["fsyncs"], "count", 1)
    report.add(
        "journal.sync_ms_max", max(figures["sync_ms"], default=0.0), "ms",
        len(figures["sync_ms"]),
    )
    report.add(
        "sharded.overhead_us_per_tx",
        sock["socket_us_per_tx"] - figures["chain"],
        "us/tx",
        n,
    )
    report.add("sharded.txs_per_batch", sock["txs_per_batch"], "tx", sock["batches"])
    report.add(
        "sharded.latency_p99_ms", sock["latency_ms_p99"], "ms", sock["requests"]
    )
    report.add(
        "coordinator.stats_ms_p50", median(sock["stats_ms"]), "ms",
        len(sock["stats_ms"]),
    )
    print(
        f"  known effect: slowest place_wire_batch {worst_ms:.1f}ms at batch "
        f"from txid {worst_txid}",
        flush=True,
    )


def trace_simulate(workload, seed, report, tracer, overhead) -> None:
    import repro.simulator.engine as sim_engine

    from simulate import (
        build,
        check_result,
        result_digest,
        simulation_inputs,
        time_place_calls,
    )

    scale, stream = simulation_inputs(workload, seed)
    python_placer, _ = build(workload, scale, seed)
    with tracer.span("core.place_python"):
        placed = python_placer.place_stream(stream)
    if len(placed) != len(stream):
        report.fail("python placer skipped transactions")
    support = python_placer.scorer.support_stats()

    placer, config = build(workload, scale, seed)
    started = perf_counter()
    plain = sim_engine.run_simulation(stream, placer, config)
    overhead["untraced"] += perf_counter() - started
    check_result(plain, len(stream), report, "untraced simulation")

    queues = []
    real_queue = sim_engine.EventQueue

    def recording_queue():
        queue = real_queue()
        queues.append(queue)
        return queue

    placer, config = build(workload, scale, seed)
    place_ns: "list[int]" = []
    time_place_calls(placer, place_ns)
    sim_engine.EventQueue = recording_queue
    try:
        started = perf_counter()
        with tracer.span("sim.run_simulation"):
            traced = sim_engine.run_simulation(stream, placer, config)
        wall = perf_counter() - started
    finally:
        sim_engine.EventQueue = real_queue
    overhead["traced"] += wall
    check_result(traced, len(stream), report, "traced simulation")
    if result_digest(plain) != result_digest(traced):
        report.fail("timing the placer changed the simulation result")
    report.provenance["sim_digest"] = result_digest(traced)

    n = len(stream)
    events = queues[0].n_processed
    report.add(
        "core.place_python_us_per_tx",
        _per_tx_us(tracer.total_s("core.place_python"), n),
        "us/tx",
        1,
    )
    report.add("core.support_mean_nnz", support["mean_nnz"], "entries", support["live_vectors"])
    report.add("sim.events", events, "count", 1)
    report.add("sim.events_per_s", events / wall, "1/s", 1)
    report.add("sim.placer_share", sum(place_ns) / 1e9 / wall, "fraction", len(place_ns))
    report.add(
        "sim.confirm_p50_s", percentile(traced.latencies, 0.5), "sim_s",
        len(traced.latencies),
    )
    report.add(
        "sim.confirm_p99_s", percentile(traced.latencies, 0.99), "sim_s",
        len(traced.latencies),
    )
    report.add("sim.throughput_tps", traced.throughput, "tx/sim_s", 1)


def run_trace(workload_name: str, seed: int, small: bool) -> Report:
    kernel = common.warm_kernel()
    report = Report(provenance(workload_name, seed, kernel))
    tracer = Tracer()
    overhead = {"untraced": 0.0, "traced": 0.0}

    def sized(name):
        workload = WORKLOADS[name]
        return common.small(workload) if small else workload

    print(f"== traced run (seed {seed}, kernel {kernel})", flush=True)
    serve_figures = []
    for name, report_layers in (
        ("serve-utxo-k16", report_utxo),
        ("sharded-account-k64", report_account),
    ):
        print(f"-- {name}", flush=True)
        workload = sized(name)
        figures = trace_serve(workload, seed, report, tracer, overhead)
        report_layers(workload, figures, report)
        serve_figures.append(figures)
    print("-- simulate-utxo-k16", flush=True)
    trace_simulate(sized("simulate-utxo-k16"), seed, report, tracer, overhead)

    print("-- generator and tracing", flush=True)
    # The generator encodes both serve streams; one figure over both.
    n_total = sum(f["n"] for f in serve_figures)
    report.add(
        "wire.encode_request_us_per_tx",
        sum(f["encode_us"] * f["n"] for f in serve_figures) / n_total,
        "us/tx",
        n_total,
    )
    report.add(
        "wire.request_bytes_per_tx",
        sum(f["bytes_per_tx"] * f["n"] for f in serve_figures) / n_total,
        "B/tx",
        n_total,
    )
    report.add(
        "client.late_ms_max",
        max(f["sock"]["late_ms_max"] for f in serve_figures),
        "ms",
        len(serve_figures),
    )
    report.add(
        "trace.overhead_fraction",
        overhead["traced"] / overhead["untraced"] - 1.0,
        "fraction",
        1,
    )
    path = WORK / f"trace-{seed}.json"
    tracer.dump(path)
    print(f"  {len(tracer.spans)} spans written to {path.name}", flush=True)
    print("  provenance: " + json.dumps(report.provenance), flush=True)
    return report
