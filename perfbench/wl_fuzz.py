"""``fuzz``: coverage-guided differential fuzzing campaigns.

Each unit is one ``FuzzCampaign(CampaignConfig(seed, programs=CHUNK,
time_budget=0, jobs))`` at the campaign's default engine, ending with the
campaign's runner timeline exported (a unit's plain turnaround stops
before the export, its traced turnaround includes it).  Units repeat until
the run's seconds are spent, the first with the run's seed, the rest with
seeds drawn from it.  Rates and turnarounds are medians over the units.
Any finding fails the run.

The campaign reports no simulated cycles, so the benchmark counts them:
``first_divergence`` receives every pipeline leg that ran to completion
and adds its cycles to a counter shared with the forked pool workers.
The traced run also replaces the worker body ``_evaluate`` so each result
carries the worker's spans and leg activity back to the parent.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from typing import Dict, List

import common
import layers
from layers import RECORDER

#: Mutants per campaign unit.
CHUNK = 30
BENCH_KEY = "_bench"

_ORIGINAL: Dict[str, object] = {}
#: Simulated cycles of every completed leg, in any process.
CYCLES = multiprocessing.Value("q", 0)
#: ``(counters, energy, reuse)`` of the legs a worker ran for the current
#: mutant (traced run only).
_RUNS: List[tuple] = []


def counting_first_divergence(pipeline, oracle, mode="pipeline"):
    """Count the leg's cycles (and keep its activity, when recording)."""
    with CYCLES.get_lock():
        CYCLES.value += pipeline.stats.cycles
    if RECORDER.active and mode in ("baseline", "reuse"):
        from repro.power.activity import ActivityRecord
        from repro.sim.simulator import evaluate_power

        record = ActivityRecord.capture(pipeline)
        energy = evaluate_power(record, pipeline.config).total_energy
        _RUNS.append((record.counters, energy, mode == "reuse"))
    return _ORIGINAL["first_divergence"](pipeline, oracle, mode)


def worker_evaluate(payload):
    """Traced stand-in for the campaign's ``_evaluate`` that ships the
    worker's spans and leg activity with each result."""
    in_worker = RECORDER.in_worker()
    if in_worker:
        RECORDER.begin_worker()
    _RUNS.clear()
    campaign_unit = RECORDER.unit
    RECORDER.unit = f"{campaign_unit}/{payload['name']}"
    try:
        with RECORDER.span("fuzz.mutant"):
            result = dict(_ORIGINAL["_evaluate"](payload))
    finally:
        RECORDER.unit = campaign_unit
    result[BENCH_KEY] = {"runs": list(_RUNS),
                         "spans": RECORDER.export() if in_worker else []}
    return result


class Collector:
    """Folds the shipped activity and spans of every evaluated mutant."""

    def __init__(self):
        self.runs: List[tuple] = []

    def wrap_run_tasks(self, run_tasks):
        def collecting(fn, payloads, **kwargs):
            results = run_tasks(fn, payloads, **kwargs)
            for result in results:
                if isinstance(result, dict) and BENCH_KEY in result:
                    extra = result.pop(BENCH_KEY)
                    self.runs.extend(extra["runs"])
                    RECORDER.adopt(extra["spans"])
            return results
        return collecting


def install(patches: layers.Patches, collector: Collector,
            trace: bool) -> None:
    """The cycle counter; in a traced run also the spans and shipping."""
    from repro.fuzz import campaign, mutate, oracle

    _ORIGINAL["first_divergence"] = patches.replace(
        oracle, "first_divergence", counting_first_divergence)
    if not trace:
        return
    _ORIGINAL["_evaluate"] = patches.replace(campaign, "_evaluate",
                                             worker_evaluate)
    patches.replace(campaign, "run_tasks",
                    collector.wrap_run_tasks(campaign.run_tasks))
    patches.wrap(campaign, "run_differential", "fuzz.oracle")
    patches.wrap(campaign, "assemble", "isa.assemble")
    patches.wrap(oracle, "run_program", "isa.interpret")
    patches.wrap(mutate.MutationEngine, "mutate", "fuzz.mutate")
    patches.wrap(campaign, "shrink", "fuzz.shrink")


def _mutant_latencies(reporter) -> List[float]:
    """Seconds from each mutant's dispatch (``started``) to its result."""
    started: Dict[str, float] = {}
    latencies = []
    for event in reporter.events:
        if event.kind == "started":
            started[event.job] = event.timestamp
        elif event.kind == "done" and event.job in started:
            latencies.append(event.timestamp - started.pop(event.job))
    return latencies


def run(seed: int, seconds: float, trace: bool):
    from repro.fuzz.campaign import CampaignConfig, FuzzCampaign
    from repro.runner import ProgressReporter

    jobs = common.pool_size()
    setup = common.time_subprocess(
        "from repro.fuzz.campaign import CampaignConfig, FuzzCampaign\n"
        f"FuzzCampaign(CampaignConfig(seed={seed}, programs={CHUNK}, "
        f"time_budget=0, jobs={jobs}))\n")
    seeds = random.Random(f"fuzz/{seed}")
    collector = Collector()
    patches = layers.Patches()
    walls: List[float] = []
    traced_walls: List[float] = []
    rates: List[float] = []  # mutants per second of each unit
    cycle_rates: List[float] = []  # simulated cycles per second
    latencies: List[float] = []
    mutants = admitted = 0
    errors: List[str] = []
    scratch = common.scratch_dir("fuzz-")
    CYCLES.value = 0
    try:
        install(patches, collector, trace)
        start = time.monotonic()
        campaign_seed = seed
        while (len(walls) < 2 or time.monotonic() - start < seconds
               or (trace and len(walls) % 2)):
            index = len(walls)
            # a traced run repeats each campaign, plain then recorded
            if index and not (trace and index % 2 == 1):
                campaign_seed = seeds.randrange(2 ** 31)
            RECORDER.active = trace and index % 2 == 1
            RECORDER.unit = f"campaign-{campaign_seed}"
            reporter = ProgressReporter()
            cycles_before = CYCLES.value
            unit_start = time.monotonic()
            report = FuzzCampaign(CampaignConfig(
                seed=campaign_seed, programs=CHUNK, time_budget=0,
                jobs=jobs), progress=reporter).run()
            walls.append(time.monotonic() - unit_start)
            rates.append(report["programs_run"] / walls[-1])
            cycle_rates.append((CYCLES.value - cycles_before) / walls[-1])
            common.export_timeline(reporter, scratch)
            traced_walls.append(time.monotonic() - unit_start)
            RECORDER.active = False
            latencies += _mutant_latencies(reporter)
            mutants += report["programs_run"]
            admitted += report["corpus_admitted"]
            errors += [f"campaign {campaign_seed}: {f['summary']}"
                       for f in report["findings"]]
    finally:
        patches.restore()
        common.remove_dir(scratch)
    if not CYCLES.value:
        errors.append("no simulated cycles counted: the pool workers did "
                      "not run the counting first_divergence")

    ms = [x * 1e3 for x in latencies]
    tails = {"sweep_turnaround": common.tail(walls),
             "traced_turnaround": common.tail(traced_walls),
             "submit": common.tail(ms)}
    values = {
        "setup_s": common.median(setup),
        "jobs_per_s": common.median(rates),
        "sim_cycles_per_s": common.median(cycle_rates),
        "sweep_turnaround_p50_s": common.median(walls),
        "sweep_turnaround_tail_s": tails["sweep_turnaround"][0],
        "traced_turnaround_p50_s": common.median(traced_walls),
        "traced_turnaround_tail_s": tails["traced_turnaround"][0],
        "submit_p50_ms": common.median(ms),
        "submit_tail_ms": tails["submit"][0],
    }
    layer: Dict[str, float] = {}
    if trace:
        layer.update(common.sim_aggregates(
            [(c, e) for c, e, reuse in collector.runs if not reuse],
            [(c, e) for c, e, reuse in collector.runs if reuse]))
        layer.update({
            "fuzz.admit_ratio": admitted / mutants,
            "mutants_per_s": values["jobs_per_s"],
            "bench.tracing_overhead_frac":
                common.recording_overhead(walls[0::2], walls[1::2]),
        })
    return values, tails, layer, mutants, 0, errors
