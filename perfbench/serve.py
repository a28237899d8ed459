"""The two serve workloads: one ``repro serve`` process group per pass.

Every pass starts a fresh server and replays the same seeded stream
from txid 0, so one golden placement checks every reply of every pass
and every pass yields one set-up sample. Open- and closed-loop passes
alternate until the run has spent ``--seconds`` in passes (server
start-up included) and each kind has its minimum count.

The host's speed drifts by tens of percent over seconds, so every
timing is taken per pass and reported as the median over passes: a
pass that meets a slow stretch of the host moves a pooled figure, but
not the median of the per-pass figures.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from common import (
    WORK,
    golden_placement,
    make_stream,
    median,
    outcome_metrics,
    percentile,
    save_samples,
)
from driver import ServerProcess, closed_loop, open_loop


def encode_frames(stream, frame_txs: int):
    """Pre-encoded ``place`` frames (request id = frame index) and the
    ``(first, end)`` txid range of each."""
    from repro.service.wire import encode_place_request

    frames, ranges = [], []
    for i, first in enumerate(range(0, len(stream), frame_txs)):
        chunk = stream[first : first + frame_txs]
        frames.append(encode_place_request(i, chunk))
        ranges.append((first, first + len(chunk)))
    return frames, ranges


class ServePlan:
    """Inputs of one serve run, built outside every timed phase."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.stream = make_stream(workload.stream, workload.n_txs, seed)
        started = perf_counter()
        self.golden = golden_placement(self.stream, workload.shards)
        self.golden_s = perf_counter() - started
        started = perf_counter()
        self.frames, self.ranges = encode_frames(self.stream, workload.frame_txs)
        self.encode_s = perf_counter() - started
        self.frame_txs = [end - first for first, end in self.ranges]
        gold = np.asarray(self.golden, dtype="<i4")
        self.expected = [gold[first:end].tobytes() for first, end in self.ranges]

    def server_args(self, pass_dir) -> "list[str]":
        args = list(self.workload.serve_args)
        if self.workload.wal:
            args += ["--checkpoint", str(pass_dir / "ckpt")]
        return args

    def check(self, result, report, label: str) -> None:
        """Count every failed reply (error, ``retry``, ``overload``,
        timeout) and every reply that differs from the golden path."""
        from repro.service.wire import RESPONSE_FLAG, STATUS_SHARDS

        ok_kind = RESPONSE_FLAG | STATUS_SHARDS
        for i, payload in enumerate(result.payloads):
            report.attempted += 1
            if payload is None or result.kinds[i] != ok_kind:
                report.failed += 1
                what = "timeout" if payload is None else payload[:120]
                report.fail(f"{label} request {i}: {what!r}")
            elif payload != self.expected[i]:
                report.failed += 1
                report.fail(
                    f"{label} request {i} (txids {self.ranges[i]}) differs "
                    "from the python golden placement"
                )

    @staticmethod
    def returned_assignment(result) -> "list[int]":
        """The placement the server returned over one whole pass."""
        return np.frombuffer(b"".join(result.payloads), dtype="<i4").tolist()


def served_by(stats_reply) -> dict:
    """Spec and strategy as the server's ``stats`` op reports them
    (the sharded server reports them per partition)."""
    stats = stats_reply["stats"]
    engine = (stats.get("partitions") or [stats])[0]
    return {"spec": engine.get("spec"), "strategy": engine.get("strategy")}


def one_pass(plan, report, drive, label):
    """Start a server, drive one phase, read its memory and stats,
    stop it. Returns ``(server, result, stats_reply)``."""
    started = perf_counter()
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        server = ServerProcess(plan.server_args(pass_dir), WORK / "server.log")
        try:
            result = drive(server.port)
            stats = server.control("stats")
            server.rss_mb = server.peak_rss_mb()
        finally:
            server.kill()
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    server.wall_s = perf_counter() - started
    plan.check(result, report, label)
    if any(payload is None for payload in result.payloads):
        raise RuntimeError(f"{label}: the server stopped replying")
    if result.stats_failed:
        report.fail(f"{label}: {result.stats_failed} stats requests failed")
    return server, result, stats


def run_serve(workload, seed: int, seconds: float, report) -> None:
    started = perf_counter()
    # Streams derived from the run's seed; passes rotate over them, so
    # seed-specific pauses (an epoch sweep that happens to be large) are
    # averaged within a run instead of deciding its tail.
    plans = [
        ServePlan(workload, seed * 1_000 + index)
        for index in range(workload.streams)
    ]
    print(
        f"  inputs: {workload.streams} x {workload.n_txs} tx in "
        f"{len(plans[0].frames)} frames of {workload.frame_txs}; golden "
        f"placement {sum(p.golden_s for p in plans):.2f}s, frame encode "
        f"{sum(p.encode_s for p in plans):.2f}s, prepared in "
        f"{perf_counter() - started:.2f}s",
        flush=True,
    )
    # The inputs are a few million long-lived objects; keep the cyclic
    # collector from re-scanning them while the generator runs.
    gc.collect()
    gc.freeze()
    try:
        _measure(workload, plans, seconds, report)
    finally:
        gc.unfreeze()


def _measure(workload, plans, seconds: float, report) -> None:
    """Alternate open- and closed-loop passes, then report."""
    setups, rss, stats_ms, throughputs = [], [], [], []
    open_passes = []  # per open pass: (plan index, latencies in ms)
    n_open_requests = 0
    late_max = 0.0
    measured = 0.0
    outcomes = {}
    n_frames = len(plans[0].frames)

    def open_pass(plan):
        return lambda port: open_loop(
            port, plan.frames, plan.frame_txs, workload.rate_tx_s,
            workload.stats_interval_s,
        )

    def closed_pass(plan):
        return lambda port: closed_loop(
            port, plan.frames, plan.frame_txs, workload.window,
            workload.stats_interval_s,
        )

    # Open and closed passes alternate, so that both phases sample the
    # host over the whole run rather than one stretch of it each.
    while (
        n_open_requests < workload.min_open_requests
        or len(throughputs) < workload.min_closed_passes
        or measured < seconds
    ):
        is_open = n_open_requests <= len(throughputs) * n_frames
        kind_count = len(open_passes) if is_open else len(throughputs)
        plan_index = kind_count % len(plans)
        plan = plans[plan_index]
        label = f"{'open' if is_open else 'closed'} pass {len(setups)}"
        drive = open_pass(plan) if is_open else closed_pass(plan)
        server, result, stats = one_pass(plan, report, drive, label)
        elapsed = result.finished - result.started
        measured += server.wall_s
        setups.append(server.setup_s)
        rss.append(server.rss_mb)
        stats_ms.extend(s * 1e3 for s in result.stats_s)
        if id(plan) not in outcomes:
            report.provenance.update(served_by(stats))
            outcomes[id(plan)] = outcome_metrics(
                plan.stream, plan.returned_assignment(result), workload.shards
            )
        if is_open:
            late_max = max(late_max, result.late_max_s)
            pass_ms = [
                (received - sent) * 1e3
                for sent, received in zip(result.sent, result.received)
            ]
            open_passes.append((plan_index, pass_ms))
            n_open_requests += len(pass_ms)
            slowest = sorted(range(len(pass_ms)), key=pass_ms.__getitem__)[-3:]
            detail = (
                f"{workload.rate_tx_s:.0f} tx/s offered, p50 "
                f"{percentile(pass_ms, 0.5):.2f}ms, generator late max "
                f"{result.late_max_s * 1e3:.2f}ms, slowest "
                + ", ".join(
                    f"{pass_ms[i]:.1f}ms@txid{plan.ranges[i][0]}"
                    for i in reversed(slowest)
                )
            )
        else:
            throughputs.append(workload.n_txs / elapsed)
            detail = (
                f"{throughputs[-1]:.0f} tx/s over {elapsed:.2f}s (window "
                f"{workload.window} per connection)"
            )
        print(f"  {label}: setup {server.setup_s:.3f}s, {detail}", flush=True)
    report.provenance["passes"] = {
        "open": len(open_passes),
        "closed": len(throughputs),
    }
    report.provenance["measured_s"] = round(measured, 3)
    report.provenance["generator_late_max_ms"] = round(late_max * 1e3, 3)
    if stats_ms:
        report.provenance["stats_ms_p50"] = round(median(stats_ms), 3)
        report.provenance["stats_requests"] = len(stats_ms)
    save_samples(
        report,
        setup_s=setups,
        closed_tx_s=throughputs,
        open_plan=[index for index, _ in open_passes],
        open_ms=[pass_ms for _, pass_ms in open_passes],
    )

    report.add("setup_s", median(setups), "s", len(setups))
    report.add("throughput_tx_s", median(throughputs), "tx/s", len(throughputs))
    # Every open pass replays the stream's known pauses (see the slowest
    # requests printed per pass), so each pass's p99 samples them; over
    # all passes at least ``min_open_requests / 100`` requests lie
    # beyond their pass's p99. The p99 is printed but not gated: the
    # utxo pause is a pure-python sweep whose length, at the same seed,
    # swung between 24 and 58 ms from one minute to the next on a
    # shared two-core host.
    for name, q in (("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)):
        report.add(
            name,
            median([percentile(pass_ms, q) for _, pass_ms in open_passes]),
            "ms",
            n_open_requests,
        )
    report.add_failures()
    report.add("peak_rss_mb", median(rss), "MB", len(rss))
    # The returned placements, scored per stream and averaged.
    n_scored = workload.n_txs * len(outcomes)
    crosses, imbalances = zip(*outcomes.values())
    report.add("cross_shard_fraction", statistics.fmean(crosses), "fraction", n_scored)
    report.add("shard_imbalance", statistics.fmean(imbalances), "ratio", n_scored)
