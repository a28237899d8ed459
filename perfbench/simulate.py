"""The simulate workload: the paper's research workflow in-process.

Each run builds a fresh placer and config the way the experiment
runner does and calls ``run_simulation`` over the same seeded stream.
The only request/response boundary inside a simulation is the
placement decision the simulator asks of the placer for every issued
transaction, so that call's wall time is the workload's latency; it is
timed by wrapping the placer's bound ``place`` on the instance, which
keeps the placer object (and so the simulator's wiring) unchanged.
Every run must commit every transaction, drain, and reproduce the same
result digest.
"""

from __future__ import annotations

import gc
import os
from array import array
from time import perf_counter_ns

from common import digest, median, percentile, save_samples, vm_hwm_mb


#: Set-up-only samples taken before every measured run.
SETUPS_PER_RUN = 4


def simulation_inputs(workload, seed: int):
    from repro.experiments.configs import get_scale
    from repro.experiments.runner import stream_for

    scale = get_scale(workload.scale)
    return scale, stream_for(scale, seed)


def build(workload, scale, seed: int):
    """The run's set-up: a fresh placer and config, as the experiment
    runner builds them."""
    from repro.experiments.runner import build_placer

    placer = build_placer("optchain", workload.shards, scale, seed=seed)
    config = scale.simulation(workload.shards, workload.tx_rate)
    return placer, config


class _RunStarted(Exception):
    """Raised by the first placement call of a set-up-only run."""


def time_setup(workload, scale, seed: int, stream, run_simulation) -> float:
    """One set-up sample: build the placer and config and start the
    simulation, stopping it at its first placement call."""
    started = perf_counter_ns()
    placer, config = build(workload, scale, seed)

    def first_call(tx):
        raise _RunStarted(perf_counter_ns())

    placer.place = first_call
    try:
        run_simulation(stream, placer, config)
    except _RunStarted as exc:
        return (exc.args[0] - started) / 1e9
    raise RuntimeError("the simulation never asked for a placement")


def time_place_calls(placer, sink_ns) -> None:
    """Record the wall time of every ``placer.place`` call into
    ``sink_ns`` (the instance attribute shadows the class method)."""
    place = placer.place
    placer.first_call_ns = None

    def timed(tx):
        started = perf_counter_ns()
        if placer.first_call_ns is None:
            placer.first_call_ns = started
        shard = place(tx)
        sink_ns.append(perf_counter_ns() - started)
        return shard

    placer.place = timed


def result_digest(result) -> str:
    """Digest of every series a simulation result carries."""
    return digest(
        [
            result.n_issued,
            result.n_committed,
            result.n_aborted,
            result.n_cross,
            result.n_same_shard,
            result.n_parked,
            result.duration,
            result.throughput,
            result.bytes_same_shard,
            result.bytes_cross,
            result.blocks_per_shard,
            result.entries_per_shard,
            result.drained,
        ],
        result.latencies,
        result.commit_times,
        result.queue_sample_times,
        result.queue_samples,
    )


def check_result(result, n_txs: int, report, label: str) -> None:
    report.attempted += result.n_issued
    missing = n_txs - result.n_committed
    if missing or result.n_aborted or result.n_issued != n_txs:
        report.failed += max(missing, result.n_aborted, 1)
        report.fail(
            f"{label}: issued {result.n_issued}, committed "
            f"{result.n_committed}, aborted {result.n_aborted} of {n_txs}"
        )
    if not result.drained:
        report.fail(f"{label}: the simulation did not drain")


def run_simulate(workload, seed: int, seconds: float, report) -> None:
    from repro.simulator.engine import run_simulation

    scale, stream = simulation_inputs(workload, seed)
    setups, walls, digests, run_p50s, run_p99s = [], [], [], [], []
    result = None
    while len(walls) < workload.min_runs or sum(walls) < seconds:
        for _ in range(SETUPS_PER_RUN):
            setups.append(time_setup(workload, scale, seed, stream, run_simulation))
        # The previous run's garbage would otherwise set this run's peak.
        result = None
        gc.collect()
        started_ns = perf_counter_ns()
        placer, config = build(workload, scale, seed)
        place_ns = array("q")
        time_place_calls(placer, place_ns)
        run_ns = perf_counter_ns()
        result = run_simulation(stream, placer, config)
        walls.append((perf_counter_ns() - run_ns) / 1e9)
        # Set-up ends where the run starts: the first placement call.
        setups.append((placer.first_call_ns - started_ns) / 1e9)
        run_p50s.append(percentile(place_ns, 0.5) / 1e6)
        run_p99s.append(percentile(place_ns, 0.99) / 1e6)
        check_result(result, len(stream), report, f"run {len(walls) - 1}")
        digests.append(result_digest(result))
        print(
            f"  run {len(walls) - 1}: {len(stream)} tx in {walls[-1]:.3f}s, "
            f"placement call p50 {run_p50s[-1] * 1e3:.1f}us, "
            f"digest {digests[-1]}",
            flush=True,
        )
    if len(set(digests)) != 1:
        report.fail(f"runs disagree: digests {digests}")
    report.provenance["digest"] = digests[0]
    report.provenance["runs"] = len(walls)
    report.provenance["measured_s"] = round(sum(walls), 3)
    report.provenance["spec"] = _spec_of(placer)
    save_samples(
        report, setup_s=setups, run_s=walls, place_p50_ms=run_p50s,
        place_p99_ms=run_p99s,
    )

    # Each run has tens of thousands of calls, so each run's p99 has
    # hundreds of samples beyond it; the median over runs of the run
    # percentiles is not moved by a run that meets a slow stretch.
    calls = len(walls) * len(stream)
    report.add("setup_s", median(setups), "s", len(setups))
    report.add(
        "throughput_tx_s",
        median([len(stream) / wall for wall in walls]),
        "tx/s",
        len(walls),
    )
    report.add("latency_p50_ms", median(run_p50s), "ms", calls)
    report.add("latency_p99_ms", median(run_p99s), "ms", calls)
    report.add_failures()
    report.add("peak_rss_mb", vm_hwm_mb(os.getpid()), "MB", 1)
    entries = result.entries_per_shard
    report.add("cross_shard_fraction", result.cross_fraction, "fraction", len(stream))
    report.add(
        "shard_imbalance",
        max(entries) / (sum(entries) / len(entries)),
        "ratio",
        len(entries),
    )
    # The paper's outcome metrics, in simulated time; deterministic per
    # seed, so printed for the record rather than gated.
    report.add(
        "sim_confirm_p50_s",
        percentile(result.latencies, 0.5),
        "sim_s",
        len(result.latencies),
    )
    report.add(
        "sim_confirm_p99_s",
        percentile(result.latencies, 0.99),
        "sim_s",
        len(result.latencies),
    )
    report.add("sim_throughput_tps", result.throughput, "tx/sim_s", 1)


def _spec_of(placer) -> str:
    from repro.core.spec import StrategySpec

    return str(StrategySpec.of_placer(placer))
