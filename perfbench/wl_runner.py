"""``sweep-cold``: the reproduce path on a cold cache.

Drives :func:`repro.runner.build_runner` -> ``ExperimentRunner`` the way
``repro reproduce`` does, at the default engine, with ``jobs`` pool
workers and a fresh cache directory passed explicitly.  Each *unit* is one
cold sweep of one cell: a fresh cache, a new runner, one executor batch of
the cell's baseline and reuse jobs (one per worker), then the Fig. 5/7/8
tables.  A pass runs every cell of :data:`common.SWEEP_COLD_CELLS` in the
seed's order; a run is whole passes, at least one, so every seed does the
same work.  The end-to-end numbers are medians over the units: a unit
takes one to three seconds, so a slow spell of the host moves a few
samples rather than the whole figure.

Every unit ends by exporting the runner's timeline, as ``reproduce
--trace-out`` does: a unit's plain turnaround stops before the export,
its traced turnaround includes it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import common
import layers
from layers import RECORDER


def _specs(cells):
    return [(kernel, common.cell_config(iq, reuse), False)
            for kernel, iq in cells for reuse in (False, True)]


def _job_latencies(reporter) -> List[float]:
    """Seconds from each job's ``queued`` event to its result."""
    queued: Dict[str, float] = {}
    latencies = []
    for event in reporter.events:
        if event.kind == "queued":
            queued[event.key] = event.timestamp
        elif event.kind == "done" and event.key in queued:
            latencies.append(event.timestamp - queued.pop(event.key))
    return latencies


def _tables(comparisons) -> str:
    """The Fig. 5/7/8 tables of the unit's cells."""
    from repro.sim.report import format_comparison_rows

    rows = {f"{kernel}@{iq}": {
        "gated": c.gated_fraction,
        "power": c.overall_power_reduction,
        "ipc": c.ipc_degradation,
    } for (kernel, iq), c in comparisons.items()}
    return "\n\n".join(
        format_comparison_rows(title, rows, [key], [header])
        for title, key, header in (
            ("Figure 5: front-end gated rate", "gated", "gated"),
            ("Figure 7: overall power reduction", "power", "power"),
            ("Figure 8: IPC degradation", "ipc", "dIPC")))


class Unit:
    """Timings and outputs of one sweep."""

    def __init__(self, wall, traced_wall, jobs, latencies, comparisons):
        self.wall = wall
        self.traced_wall = traced_wall
        self.jobs = jobs
        self.latencies = latencies
        self.comparisons = comparisons
        self.cycles = sum(c.baseline.cycles + c.reuse.cycles
                          for c in comparisons.values())


def run_unit(cache_dir: str, cells, jobs: int, export_dir: str) -> Unit:
    """One reproduce-style sweep over ``cells``, ending with the runner
    timeline written to ``export_dir``."""
    from repro.runner import ProgressReporter, build_runner

    start = time.monotonic()
    reporter = ProgressReporter()
    runner = build_runner(
        jobs=jobs, cache_dir=cache_dir, progress=reporter,
        benchmarks=tuple(k for k, _ in cells),
        iq_sizes=tuple(sorted({iq for _, iq in cells})))
    runner.prefetch(_specs(cells))
    comparisons = {(k, iq): runner.compare(k, iq) for k, iq in cells}
    with RECORDER.span("sim.report"):
        _tables(comparisons)
    wall = time.monotonic() - start
    common.export_timeline(reporter, export_dir)
    traced_wall = time.monotonic() - start
    return Unit(wall, traced_wall, reporter.count("queued"),
                _job_latencies(reporter), comparisons)


def check_unit(unit: Unit, check: common.DigestCheck) -> None:
    for (kernel, iq), comparison in unit.comparisons.items():
        for reuse, result in ((False, comparison.baseline),
                              (True, comparison.reuse)):
            check.check((kernel, iq, reuse, False),
                        result.activity.to_payload())


def _setup_code(cells, jobs: int, cache_dir: str) -> str:
    """A cold interpreter building the runner and compiling the sample."""
    kernels = tuple(sorted({k for k, _ in cells}))
    sizes = tuple(sorted({iq for _, iq in cells}))
    return ("from repro.runner import build_runner\n"
            f"r = build_runner(jobs={jobs}, cache_dir={cache_dir!r}, "
            f"benchmarks={kernels!r}, iq_sizes={sizes!r})\n"
            f"[r.suite.program(k) for k in {kernels!r}]\n")


def sweep_cold(seed: int, seconds: float, trace: bool) -> Dict:
    """Passes of cold one-cell sweeps until ``seconds`` have passed.

    A traced run sweeps each cell twice, plain and then recorded, so the
    two halves give the recording overhead on equal work.
    """
    jobs = common.pool_size()
    order = common.draw_sweep_cold(seed)
    scratch = common.scratch_dir("sweep-cold-")
    check = common.DigestCheck()
    patches = layers.Patches()
    units: List[Unit] = []
    try:
        setup = common.time_subprocess(_setup_code(order, jobs, scratch))
        if trace:
            layers.install_runner(patches)
        start = time.monotonic()
        while not units or time.monotonic() - start < seconds:
            first_pass = not units
            for cell in order:
                for recorded in ((False, True) if trace else (False,)):
                    index = len(units)
                    RECORDER.active = recorded
                    RECORDER.unit = f"sweep-{index}"
                    cache_dir = common.scratch_dir("cache-")
                    try:
                        unit = run_unit(cache_dir, [cell], jobs, scratch)
                    finally:
                        RECORDER.active = False
                        common.remove_dir(cache_dir)
                    check_unit(unit, check)
                    if not first_pass:
                        unit.comparisons = {}  # per_layer reads one pass
                    units.append(unit)
    finally:
        patches.restore()
        common.remove_dir(scratch)
    return {"units": units, "setup": setup, "check": check}


def end_to_end(result: Dict) -> Tuple[Dict[str, float], Dict[str, Tuple]]:
    """End-to-end values (medians over units) plus ``(value, percentile,
    n)`` tails."""
    units: List[Unit] = result["units"]
    plain = [u.wall for u in units]
    traced = [u.traced_wall for u in units]
    latencies = [lat * 1e3 for u in units for lat in u.latencies]
    tails = {"sweep_turnaround": common.tail(plain),
             "traced_turnaround": common.tail(traced),
             "submit": common.tail(latencies)}
    values = {
        "setup_s": common.median(result["setup"]),
        "jobs_per_s": common.median(u.jobs / u.wall for u in units),
        # the cells' cycles differ by up to 2x: a median of per-unit rates
        # would land between kernels, so take the cycles of a mean unit
        # over the median unit's time
        "sim_cycles_per_s": sum(u.cycles for u in units) / len(units)
        / common.median(plain),
        "sweep_turnaround_p50_s": common.median(plain),
        "sweep_turnaround_tail_s": tails["sweep_turnaround"][0],
        "traced_turnaround_p50_s": common.median(traced),
        "traced_turnaround_tail_s": tails["traced_turnaround"][0],
        "submit_p50_ms": common.median(latencies),
        "submit_tail_ms": tails["submit"][0],
    }
    return values, tails


def per_layer(result: Dict, spans) -> Dict[str, float]:
    units: List[Unit] = result["units"]
    recorded = units[1::2]
    plain = units[0::2]
    values: Dict[str, float] = {}
    comparisons = [c for u in recorded for c in u.comparisons.values()]
    values.update(common.sim_aggregates(*common.comparison_runs(comparisons)))
    arch_s = layers.total_time(spans, "arch.run")
    executor_s = layers.total_time(spans, "runner.executor.self")
    simulated = sum(u.cycles for u in recorded)
    values["arch.host_us_per_cycle"] = \
        arch_s / simulated * 1e6 if simulated else 0.0
    values["runner.executor.worker_busy_frac"] = \
        arch_s / (common.pool_size() * executor_s) if executor_s else 0.0
    probes, hits = layers.CACHE_PROBES
    values["runner.cache.hit_ratio"] = hits / probes if probes else 0.0
    values["bench.tracing_overhead_frac"] = common.recording_overhead(
        [u.wall for u in plain], [u.wall for u in recorded])
    return values
