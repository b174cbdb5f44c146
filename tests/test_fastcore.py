"""Cross-engine equivalence: the array core against the object core.

The array core's only correctness contract is *bit-exactness*: for any
program and configuration, :class:`repro.arch.fastcore.FastPipeline`
must leave byte-identical :class:`~repro.power.activity.ActivityRecord`
exports and identical :class:`~repro.arch.stats.PipelineStats` counters
to the reference :class:`repro.arch.pipeline.Pipeline`.  This module
asserts exactly that over the full acceptance grid -- all 8 Table 2
kernels at IQ sizes 32/64/96/128 on the reuse machine -- plus the
probe-fallback seam and the engine selector plumbing.

Object-core runs are the expensive half, so they are cached per
(kernel, iq) at module scope and shared by the parametrized cases.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.config import MachineConfig
from repro.arch.fastcore import FastPipeline
from repro.arch.interface import CoreInterface
from repro.arch.pipeline import Pipeline
from repro.arch.probe import PipelineProbe
from repro.power.activity import ActivityRecord
from repro.sim.simulator import ENGINES, core_for, run_timing
from repro.workloads.suite import BENCHMARK_NAMES

IQ_SIZES = (32, 64, 96, 128)

#: (kernel, iq, reuse_mode) -> (record JSON, stats dict, controller
#: decisions) of the object core.
_OBJECT_RUNS = {}


def _grid_config(iq: int, reuse_mode: str = "loop") -> MachineConfig:
    return MachineConfig().with_iq_size(iq).replace(
        reuse_enabled=True, reuse_mode=reuse_mode)


def _finished(core, program, config):
    pipeline = core(program, config)
    pipeline.run()
    return pipeline


def _export(pipeline) -> str:
    return json.dumps(ActivityRecord.capture(pipeline).to_payload(),
                      sort_keys=True)


def _object_run(suite, kernel: str, iq: int, reuse_mode: str = "loop"):
    key = (kernel, iq, reuse_mode)
    if key not in _OBJECT_RUNS:
        pipeline = _finished(Pipeline, suite.program(kernel),
                             _grid_config(iq, reuse_mode))
        _OBJECT_RUNS[key] = (_export(pipeline),
                             pipeline.stats.as_dict(),
                             _decisions(pipeline))
    return _OBJECT_RUNS[key]


def _decisions(pipeline):
    """The controller's event log and transition log."""
    controller = pipeline.controller
    return list(controller.events), list(controller.transitions)


@pytest.mark.parametrize("iq", IQ_SIZES)
@pytest.mark.parametrize("kernel", BENCHMARK_NAMES)
def test_engines_bit_exact(suite, kernel, iq):
    """Byte-identical records, identical counters and identical
    controller decisions on the full grid."""
    want_record, want_stats, want_decisions = _object_run(suite, kernel, iq)
    pipeline = _finished(FastPipeline, suite.program(kernel),
                         _grid_config(iq))
    assert _export(pipeline) == want_record
    assert pipeline.stats.as_dict() == want_stats
    assert _decisions(pipeline) == want_decisions


@pytest.mark.parametrize("iq", IQ_SIZES)
@pytest.mark.parametrize("kernel", BENCHMARK_NAMES)
def test_engines_bit_exact_trace_mode(suite, kernel, iq):
    """The trace-reuse controller holds the same bit-exactness contract
    as the loop controller: byte-identical records and identical
    counters on the full kernel x IQ grid under ``--reuse trace``."""
    want_record, want_stats, want_decisions = _object_run(
        suite, kernel, iq, "trace")
    pipeline = _finished(FastPipeline, suite.program(kernel),
                         _grid_config(iq, "trace"))
    assert _export(pipeline) == want_record
    assert pipeline.stats.as_dict() == want_stats
    assert _decisions(pipeline) == want_decisions


def test_both_cores_satisfy_the_interface(suite):
    program = suite.program("tsf")
    config = _grid_config(32)
    for core in ENGINES.values():
        assert isinstance(core(program, config), CoreInterface)


def test_engine_registry_and_selector(suite):
    assert set(ENGINES) == {"object", "array"}
    assert core_for("array") is FastPipeline
    with pytest.raises(ValueError, match="unknown engine"):
        core_for("simd")


def test_run_timing_engines_agree(suite):
    """The ``engine=`` selector itself produces identical records."""
    program = suite.program("wss")
    config = _grid_config(32)
    records = {engine: run_timing(program, config, engine=engine)
               for engine in ENGINES}
    payloads = {engine: json.dumps(record.to_payload(), sort_keys=True)
                for engine, record in records.items()}
    assert payloads["object"] == payloads["array"]


class _CycleCounter(PipelineProbe):
    def __init__(self):
        self.cycles = 0

    def on_cycle(self, pipeline) -> None:
        self.cycles += 1


def test_probe_fallback_keeps_observers_working(suite):
    """A probe attached before the first cycle falls back to the object
    core transparently: the probe fires and the record stays identical."""
    program = suite.program("tsf")
    config = _grid_config(32)
    want_record, want_stats, _ = _object_run(suite, "tsf", 32)
    probe = _CycleCounter()
    pipeline = FastPipeline(program, config)
    pipeline.attach_probe(probe)
    pipeline.run()
    assert probe.cycles == pipeline.stats.cycles
    assert _export(pipeline) == want_record
    assert pipeline.stats.as_dict() == want_stats


def test_probe_attach_after_start_is_rejected(suite):
    pipeline = FastPipeline(suite.program("tsf"), _grid_config(32))
    pipeline.step()
    with pytest.raises(RuntimeError):
        pipeline.attach_probe(_CycleCounter())


def test_probe_attach_error_names_the_array_core(suite):
    """Regression: the late-attach error must blame the core that
    actually raised it -- the array core -- name the cycle it was at,
    and point at the working alternatives."""
    pipeline = FastPipeline(suite.program("tsf"), _grid_config(32))
    pipeline.step()
    pipeline.step()
    with pytest.raises(RuntimeError) as excinfo:
        pipeline.attach_probe(_CycleCounter())
    message = str(excinfo.value)
    assert "array core" in message
    assert "cycle 2" in message
    assert "engine='object'" in message


def test_four_way_oracle_on_the_array_engine(tight_loop_program,
                                             small_config):
    from repro.fuzz.oracle import run_differential

    outcome = run_differential(tight_loop_program, small_config,
                               collect_coverage=False, engine="array")
    assert outcome.ok
    with pytest.raises(ValueError, match="unknown engine"):
        run_differential(tight_loop_program, small_config,
                         engine="simd")


def test_engine_splits_runner_cache_keys(suite):
    from repro.runner.jobs import SimJob, job_key, job_to_dict

    program = suite.program("tsf")
    config = _grid_config(32)
    by_engine = {engine: SimJob(benchmark="tsf", config=config,
                                engine=engine)
                 for engine in ENGINES}
    keys = {job_key(job, program) for job in by_engine.values()}
    assert len(keys) == len(ENGINES)
    assert job_to_dict(by_engine["array"])["engine"] == "array"
    assert "array" in by_engine["array"].describe()
