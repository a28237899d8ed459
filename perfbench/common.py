"""Shared pieces of the benchmark: workloads, streams, the golden path,
statistics, provenance and the result line.

The benchmark treats the placement program as a black box: it builds
inputs from its own seed, drives the program through its public entry
points (the ``repro serve`` process, ``run_simulation``), and checks
every output against the python golden path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (kernel cache, WAL directories,
#: server logs, trace files) lives here, inside the checkout.
WORK = ROOT / ".bench_build"

#: The benchmark's wire framing reads frame headers itself; these match
#: ``repro.service.wire`` and are checked against it at start-up.
FRAME_HEADER = "<BBQI"


@dataclass(frozen=True)
class ServeWorkload:
    """One traffic mix against a ``repro serve`` process."""

    name: str
    why: str
    stream: str  # "utxo" (synthetic_stream) or "account"
    shards: int
    serve_args: tuple[str, ...]
    n_txs: int  # stream length replayed by every pass
    frame_txs: int
    rate_tx_s: float  # open-loop offered load
    window: int  # closed-loop outstanding requests per connection
    min_open_requests: int  # >= 1000, so >= 10 beyond the passes' p99s
    min_closed_passes: int
    stats_interval_s: "float | None" = None
    wal: bool = False
    streams: int = 1  # distinct seeded streams the passes rotate over


@dataclass(frozen=True)
class SimulateWorkload:
    """The paper's research workflow, run in-process."""

    name: str
    why: str
    shards: int
    tx_rate: float
    scale: str
    min_runs: int = 8


#: The serve workloads are sized for a two-core host: one generator
#: process with no more connections than cores.
CONNECTIONS = 2

WORKLOADS = {
    "serve-utxo-k16": ServeWorkload(
        name="serve-utxo-k16",
        why=(
            "small frames on the default single-process server: per-request "
            "decode, asyncio dispatch and the object engine dominate"
        ),
        stream="utxo",
        shards=16,
        serve_args=("--backend", "numpy", "--shards", "16"),
        n_txs=36_096,
        frame_txs=256,
        rate_tx_s=50_000.0,
        window=4,
        min_open_requests=2_800,
        min_closed_passes=12,
        streams=4,
    ),
    "sharded-account-k64": ServeWorkload(
        name="sharded-account-k64",
        why=(
            "large frames on one WAL worker at k=64: kernel, array decode, "
            "journal, worker pipe and RowMatrix growth; stats beside writes"
        ),
        stream="account",
        shards=64,
        serve_args=(
            "--workers", "1", "--backend", "numpy", "--shards", "64",
        ),
        n_txs=200_704,
        frame_txs=1_024,
        # About a quarter of capacity: the server is two processes and
        # the generator a third on two cores, and at a higher offered
        # load their contention for the cores sets the latency.
        rate_tx_s=100_000.0,
        window=8,
        min_open_requests=1_500,
        min_closed_passes=10,
        stats_interval_s=1.0,
        wal=True,
    ),
    "simulate-utxo-k16": SimulateWorkload(
        name="simulate-utxo-k16",
        why=(
            "the paper's Fig. 3 simulation with the python OptChain placer: "
            "reference placer and event loop, no server"
        ),
        shards=16,
        tx_rate=500.0,
        scale="default",
    ),
}


def small(workload):
    """The small-scale variant the benchmark's own tests run."""
    from dataclasses import replace

    if isinstance(workload, SimulateWorkload):
        return replace(workload, scale="tiny", tx_rate=300.0, min_runs=2)
    return replace(
        workload,
        n_txs=workload.frame_txs * 24,
        rate_tx_s=workload.rate_tx_s / 4,
        min_open_requests=40,
        min_closed_passes=2,
    )


# -- environment ---------------------------------------------------------------


def prepare_environment() -> None:
    """Point the program at its sources and keep its caches in the
    checkout. Exits non-zero when the program's sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: program sources not found under {SRC}; run the "
            "benchmark from the root of a checkout"
        )
    WORK.mkdir(exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm_kernel() -> str:
    """Compile (first run) or load the placement kernel, so server
    set-up is timed with the kernel cache warm. Returns its status."""
    from repro.core.backends.ckernel import kernel_unavailable_reason

    reason = kernel_unavailable_reason()
    return "compiled" if reason is None else f"fallback: {reason}"


# -- inputs --------------------------------------------------------------------


def make_stream(kind: str, n_txs: int, seed: int):
    if kind == "utxo":
        from repro.datasets.synthetic import synthetic_stream

        return synthetic_stream(n_txs, seed=seed)
    from repro.datasets.account_model import account_model_stream

    return account_model_stream(n_txs, seed=seed)


def golden_placement(stream, shards: int) -> list[int]:
    """The python golden path every serve reply must equal."""
    from repro.core.placement import make_placer

    return list(
        make_placer("optchain:backend=python", shards).place_stream(stream)
    )


def outcome_metrics(stream, assignment, shards: int) -> tuple[float, float]:
    """``(cross_shard_fraction, shard_imbalance)`` of one placement."""
    from repro.partition.quality import balance_ratio, cross_shard_fraction

    return (
        cross_shard_fraction(stream, assignment),
        balance_ratio(assignment, shards),
    )


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    return statistics.median(values)


def digest(*parts) -> str:
    """Stable digest of JSON-able result series."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(json.dumps(part, separators=(",", ":")).encode())
    return hasher.hexdigest()[:16]


# -- provenance and output -----------------------------------------------------


def git_revision() -> "str | None":
    """The checkout's git revision, read from ``.git`` directly (no
    search above the checkout); ``None`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the program's sources, which identifies the code
    measured where no git revision exists."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            hasher.update(str(path.relative_to(SRC)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def provenance(workload: str, seed: int, kernel: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "kernel": kernel,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_revision(),
        "source_digest": source_digest(),
    }


def save_samples(report, **samples) -> None:
    """Keep a run's raw timing samples beside its other outputs, as
    ``.bench_build/samples-<workload>-<seed>.json``."""
    name = report.provenance["workload"]
    path = WORK / f"samples-{name}-{report.provenance['seed']}.json"
    path.write_text(json.dumps(samples))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Report:
    """Collects metrics, prints each by name as it lands, and renders
    the final result line."""

    def __init__(self, provenance: dict) -> None:
        self.provenance = provenance
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = 0

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        print(
            f"  {name:<34} {value:>14.6g} {unit:<8} (n={samples})",
            flush=True,
        )

    def add_failures(self) -> None:
        """``failed_fraction`` for the record and its never-zero
        complement ``success_fraction``, the gated metric."""
        failed = self.failed / self.attempted
        self.add("failed_fraction", failed, "fraction", self.attempted)
        self.add("success_fraction", 1.0 - failed, "fraction", self.attempted)

    def fail(self, problem: str) -> None:
        """Record a failed output check (the first few are printed)."""
        self.correct = False
        self.problems += 1
        if self.problems <= 20:
            print(f"  CHECK FAILED: {problem}", flush=True)

    def line(self, names) -> str:
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: self.metrics[name] for name in names},
            }
        )
