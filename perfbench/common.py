"""Shared plumbing of the repository benchmark.

Paths, the seeded input draws, the reference-digest check, order
statistics and run provenance.  Importing this module puts the
repository's ``src/`` on ``sys.path`` and fails with :class:`SystemExit`
when the tree holds no ``repro`` package to benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, journals, traces (inside the checkout).
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
TRAJECTORY_PATH = os.path.join(HERE, "results", "trajectory.jsonl")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit(f"perfbench: no repro package under {SRC}; run from "
                     "the root of a repository checkout")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: The seed claims are made on, and the held-out seed every later claim
#: must also pass (never used while tuning a change).
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: Fig. 5-8 issue-queue sizes.
IQ_SIZES = (32, 64, 128, 256)
KERNELS = ("adi", "aps", "btrix", "eflux", "tomcat", "tsf", "vpenta", "wss")


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:
        return max(os.cpu_count() or 1, 1)


def pool_size() -> int:
    """Pool workers and service lanes: two, never more than ``nproc``."""
    return min(2, nproc())


#: End-to-end metrics (untraced runs), printed by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("sweep_turnaround_p50_s", "s"),
    ("traced_turnaround_p50_s", "s"),
    ("submit_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: The tails of the end-to-end timings.  They are per-layer metrics (no
#: bound): see perfbench/README.md for why.
TAILS = (
    ("sweep_turnaround_tail_s", "s"),
    ("traced_turnaround_tail_s", "s"),
    ("submit_tail_ms", "ms"),
)

#: Layers timed by spans in the traced run: each yields ``<layer>_s``
#: (summed self time) and ``<layer>_calls``.
TIMED_LAYERS = (
    "compiler.build", "runner.jobs.key", "runner.cache.load",
    "runner.cache.store", "runner.executor.self", "runner.executor.wait",
    "arch.run", "power.evaluate", "power.activity.encode",
    "power.activity.decode", "sim.report", "telemetry.timeline_build",
    "fuzz.oracle", "fuzz.mutate", "fuzz.shrink", "isa.assemble",
    "isa.interpret",
)

#: Per-layer metrics (traced run), printed by every workload; a layer the
#: workload does not cross reads 0.
PER_LAYER = tuple(
    (f"{layer}{suffix}", unit) for layer in TIMED_LAYERS
    for suffix, unit in (("_s", "s"), ("_calls", "count"))) + (
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.executor.worker_busy_frac", "ratio"),
    ("arch.host_us_per_cycle", "us/cycle"),
    ("arch.sim_cycles", "cycles"),
    ("arch.ipc", "instr/cycle"),
    ("arch.icache_accesses", "count"),
    ("arch.bpred_lookups", "count"),
    ("arch.iq_partial_updates", "count"),
    ("core.gated_cycles", "cycles"),
    ("core.buffering_started", "count"),
    ("core.promote_ratio", "ratio"),
    ("core.revokes", "count"),
    ("core.nblt_hit_ratio", "ratio"),
    ("core.reuse_supplied", "count"),
    ("gated_cycle_frac", "ratio"),
    ("energy_saving_frac", "ratio"),
    ("ipc_loss_frac", "ratio"),
    ("service.http.server_p50_ms", "ms"),
    ("service.http.client_gap_ms", "ms"),
    ("service.jobqueue.wait_p50_s", "s"),
    ("service.jobqueue.depth_max", "count"),
    ("service.workers.run_p50_s", "s"),
    ("service.workers.retries", "count"),
    ("service.rejected", "count"),
    ("service.http.trace_fetch_ms", "ms"),
    ("telemetry.traced_over_untraced", "ratio"),
    ("fuzz.admit_ratio", "ratio"),
    ("mutants_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("loadgen.lag_tail_ms", "ms"),
    ("bench.tracing_overhead_frac", "ratio"),
) + TAILS


def sim_aggregates(base: Sequence[Tuple[dict, float]],
                   reuse: Sequence[Tuple[dict, float]]) -> Dict[str, float]:
    """Simulated per-layer numbers over baseline/reuse runs.

    Each run is ``(activity counters, total energy)``.  The ``core`` and
    the three ``*_frac`` numbers describe the reuse runs against the
    baseline runs; the ``arch`` counts cover every run.
    """
    def total(runs, name):
        return sum(counters[name] for counters, _ in runs)

    runs = list(base) + list(reuse)
    cycles = total(runs, "cycles")
    reuse_cycles = total(reuse, "cycles")
    base_cycles = total(base, "cycles")
    started = total(reuse, "buffering_started")
    lookups = total(reuse, "nblt_lookups")
    base_energy = sum(energy for _, energy in base)
    base_ipc = total(base, "committed") / base_cycles if base_cycles else 0
    reuse_ipc = total(reuse, "committed") / reuse_cycles \
        if reuse_cycles else 0
    return {
        "arch.sim_cycles": cycles,
        "arch.ipc": total(runs, "committed") / cycles if cycles else 0.0,
        "arch.icache_accesses": total(runs, "icache_accesses"),
        "arch.bpred_lookups": total(runs, "bpred_lookups"),
        "arch.iq_partial_updates": total(runs, "iq_partial_updates"),
        "core.gated_cycles": total(reuse, "gated_cycles"),
        "core.buffering_started": started,
        "core.promote_ratio":
            total(reuse, "promotions") / started if started else 0.0,
        "core.revokes": total(reuse, "revokes"),
        "core.nblt_hit_ratio":
            total(reuse, "nblt_hits") / lookups if lookups else 0.0,
        "core.reuse_supplied": total(reuse, "reuse_supplied"),
        "gated_cycle_frac": total(reuse, "gated_cycles") / reuse_cycles
        if reuse_cycles else 0.0,
        "energy_saving_frac": 1.0 - sum(e for _, e in reuse) / base_energy
        if base_energy else 0.0,
        "ipc_loss_frac": 1.0 - reuse_ipc / base_ipc if base_ipc else 0.0,
    }


def comparison_runs(comparisons) -> Tuple[list, list]:
    """``(base, reuse)`` run lists of :func:`sim_aggregates` from
    :class:`~repro.sim.results.RunComparison` objects."""
    base = [(c.baseline.activity.counters, c.baseline.total_energy)
            for c in comparisons]
    reuse = [(c.reuse.activity.counters, c.reuse.total_energy)
             for c in comparisons]
    return base, reuse


# -- cells and reference digests ----------------------------------------------

Cell = Tuple[str, int, bool, bool]  # kernel, iq, reuse, optimize


def cell_id(kernel: str, iq: int, reuse: bool, optimize: bool) -> str:
    return (f"{kernel}/iq{iq}/{'reuse' if reuse else 'base'}/"
            f"{'opt' if optimize else 'orig'}")


def cell_config(iq: int, reuse: bool):
    """The machine configuration of one sweep cell (the paper's rule)."""
    from repro.arch.config import MachineConfig
    return MachineConfig().with_iq_size(iq).replace(reuse_enabled=reuse)


def record_digest(payload: dict) -> str:
    """SHA-256 of an ActivityRecord payload serialised with sorted keys."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class DigestCheck:
    """Compares records against the committed reference digests."""

    def __init__(self, digests: Optional[Dict[str, str]] = None):
        self.digests = digests if digests is not None else load_digests()
        self.mismatches: List[str] = []

    def check(self, cell: Cell, payload: dict) -> bool:
        key = cell_id(*cell)
        want = self.digests.get(key)
        if want is None:
            self.mismatches.append(f"{key}: no reference digest")
            return False
        if record_digest(payload) != want:
            self.mismatches.append(f"{key}: record differs from reference")
            return False
        return True


# -- seeded input draws (pure functions of the seed) --------------------------

#: sweep-cold's cells, a fixed Latin half of the 8 x 4 grid: every kernel
#: at two complementary IQ sizes (a large-body kernel simulates about twice
#: the cycles at 32 as at 256, so 32 + 256 and 64 + 128 cost about the
#: same), every size four times, tight-loop and large-body kernels at both
#: size pairs.  Fixed cells give every seed the same work; the seed orders
#: them.
SWEEP_COLD_CELLS = tuple(
    (kernel, iq) for kernels, sizes in (
        (("aps", "btrix", "eflux", "tsf"), (32, 256)),
        (("adi", "tomcat", "vpenta", "wss"), (64, 128)))
    for kernel in kernels for iq in sizes)


def draw_sweep_cold(seed: int) -> List[Tuple[str, int]]:
    """sweep-cold: one pass over :data:`SWEEP_COLD_CELLS` in seeded order,
    each cell one cold sweep of its baseline and reuse jobs."""
    cells = list(SWEEP_COLD_CELLS)
    random.Random(f"sweep-cold/{seed}").shuffle(cells)
    return cells


#: serve-mixed's warm cell, fixed so the set-up's cold fill of it costs
#: the same for every seed; never a cold cell, so no cold job is served
#: from the cache.
SERVE_WARM = ("tsf", 256)
#: serve-mixed's cold cells: lighter kernels (two tight-loop, two
#: large-body) whose jobs take about a second each, so the closed loop
#: yields many turnaround samples.  Each kernel runs untraced at one size
#: pair and traced at the other.
SERVE_KERNELS = ("aps", "eflux", "tomcat", "wss")
SERVE_PLAIN_IQ = (32, 128)
SERVE_TRACED_IQ = (64, 256)


def draw_serve_mixed(seed: int):
    """serve-mixed: the warm cell and the cold closed-loop sequence.

    Returns ``(warm, cold)``: ``warm`` is the (kernel, iq) cell submitted
    with both modes; ``cold`` lists 16 one-cell sweeps (kernel, iq) of
    both modes in submission order, untraced and traced in turn (odd
    positions carry ``X-Trace-Id``).  The cells are fixed, so the cost is
    the same whatever the seed; the seed orders each half.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    plain = [(k, iq) for k in SERVE_KERNELS for iq in SERVE_PLAIN_IQ]
    traced = [(k, iq) for k in SERVE_KERNELS for iq in SERVE_TRACED_IQ]
    rng.shuffle(plain)
    rng.shuffle(traced)
    return SERVE_WARM, [cell for pair in zip(plain, traced)
                        for cell in pair]


def drawn_cells(workload: str, seed: int) -> List[Cell]:
    """Every reference cell a workload's draw for ``seed`` can produce."""
    if workload == "sweep-cold":
        pairs = draw_sweep_cold(seed)
    elif workload == "serve-mixed":
        warm, cold = draw_serve_mixed(seed)
        pairs = [warm] + cold
    else:
        return []  # fuzz draws programs, not cells
    return [(k, iq, reuse, False) for k, iq in pairs
            for reuse in (False, True)]


# -- statistics ---------------------------------------------------------------

def tail(samples: Iterable[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with at least
    ten samples beyond it, never below the median.

    Below 21 samples no percentile above the median has ten samples
    beyond it, so the median itself is reported (percentile 50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 21:
        return statistics.median(ordered), 50.0, n
    rank = n - 11  # exactly ten samples above this one
    return ordered[rank], 100.0 * (rank + 1) / n, n


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def recording_overhead(plain: Sequence[float],
                       recorded: Sequence[float]) -> float:
    """Recorded over plain wall time minus one, from paired units.

    The first pair is left out when there are others: its plain unit
    also pays the process's warm-up.
    """
    pairs = list(zip(plain, recorded))
    if len(pairs) > 1:
        pairs = pairs[1:]
    return sum(r for _, r in pairs) / sum(p for p, _ in pairs) - 1.0


def time_subprocess(code: str, repeats: int = 5) -> List[float]:
    """Wall seconds of ``repeats`` fresh interpreters running ``code``."""
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        # captured output: the wait ends when the child's pipes close, not
        # on the 50 ms polling grid of a plain wait with a timeout
        subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       env=subprocess_env(), check=True, timeout=120,
                       capture_output=True)
        samples.append(time.monotonic() - start)
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- run scaffolding ----------------------------------------------------------

def scratch_dir(prefix: str) -> str:
    """A fresh directory under the checkout's ``.bench_runs``."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=RUNS_DIR)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def export_timeline(reporter, directory: str) -> None:
    """What ``reproduce --trace-out`` writes, validated the same way."""
    from repro.telemetry import runner_timeline, validate_trace

    payload = runner_timeline(reporter)
    validate_trace(payload)
    with open(os.path.join(directory, "runner-trace.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle)


def subprocess_env() -> Dict[str, str]:
    """Environment for child interpreters: this tree's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def source_digest(top: str = SRC) -> str:
    """Content hash of the ``.py`` files under ``top`` (identifies the
    code without git)."""
    sha = hashlib.sha256()
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                sha.update(os.path.relpath(path, top).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, object]:
    return {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "bench_digest": source_digest(HERE),
        "python": platform.python_version(),
        "nproc": nproc(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
