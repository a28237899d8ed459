"""End-to-end benchmark of the OptChain placement service and simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-utxo-k16 --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures one workload with tracing off and prints its
end-to-end metrics. ``BENCHMARK.json`` gates the two serve workloads;
``simulate-utxo-k16`` runs the same way but is not gated, because on a
shared two-core host its pure-python run time spread by more than the
25% bound between runs of the same code (its layers are still timed by
the traced run). ``--trace 1`` runs the traced in-process replay of
every workload (each per-layer metric is defined on one workload) and
prints the per-layer metrics, the tracing overhead and a waterfall per
serve workload. ``--workload all`` runs every workload in turn.
``--small`` shrinks every workload for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import WORKLOADS, Report  # noqa: E402

END_TO_END = (
    "setup_s",
    "throughput_tx_s",
    "latency_p50_ms",
    "success_fraction",
    "peak_rss_mb",
    "cross_shard_fraction",
    "shard_imbalance",
)


def run_workload(name: str, seed: int, seconds: float, small: bool) -> Report:
    workload = WORKLOADS[name]
    if small:
        workload = common.small(workload)
    kernel = common.warm_kernel()
    report = Report(common.provenance(name, seed, kernel))
    print(f"== {name} (seed {seed}, kernel {kernel})", flush=True)
    if isinstance(workload, common.SimulateWorkload):
        from simulate import run_simulate

        run_simulate(workload, seed, seconds, report)
    else:
        from serve import run_serve

        run_serve(workload, seed, seconds, report)
    print("  provenance: " + json.dumps(report.provenance), flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that every server process group
    # the run started is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.prepare_environment()

    if args.trace:
        from tracing import PER_LAYER, run_trace

        report = run_trace(args.workload, args.seed, args.small)
        print(report.line(PER_LAYER), flush=True)
        return 0 if report.correct else 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [
        run_workload(name, args.seed, args.seconds, args.small)
        for name in names
    ]
    if len(reports) == 1:
        print(reports[0].line(END_TO_END), flush=True)
    else:
        print(
            json.dumps(
                {
                    report.provenance["workload"]: json.loads(
                        report.line(END_TO_END)
                    )
                    for report in reports
                }
            ),
            flush=True,
        )
    return 0 if all(report.correct for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
