"""Tests for the pluggable pipeline-probe machinery.

The refactor's contract: the tracer and the invariant validator are
ordinary probes wired through :meth:`Pipeline.attach_probe`, behaving
identically to their pre-probe bespoke wiring, and a probe-free pipeline
keeps its zero-overhead fast path (dispatch slots stay ``None``).
"""

from __future__ import annotations

import pytest

from repro.arch.config import MachineConfig
from repro.arch.pipeline import Pipeline
from repro.arch.probe import PipelineProbe, overrides_hook
from repro.arch.trace import PipelineTracer
from repro.arch.validate import InvariantProbe, run_validated
from repro.isa.assembler import assemble

LOOP = """
.text
    li $t0, 0
    li $t1, 30
top:
    addiu $t2, $t0, 5
    sll   $t3, $t2, 1
    addiu $t0, $t0, 1
    slt   $t4, $t0, $t1
    bne   $t4, $zero, top
    halt
"""


def make_pipeline(reuse=True):
    program = assemble(LOOP, name="probed")
    config = MachineConfig().with_iq_size(32).replace(reuse_enabled=reuse)
    return Pipeline(program, config)


class CountingCycleProbe(PipelineProbe):
    """Cycle probe counting steps and whether the halt cycle was seen."""

    def __init__(self):
        self.cycles = 0
        self.saw_halt = False
        self.attached_to = None
        self.detached_from = None

    def on_attach(self, pipeline):
        self.attached_to = pipeline

    def on_detach(self, pipeline):
        self.detached_from = pipeline

    def on_cycle(self, pipeline):
        self.cycles += 1
        if pipeline.halted:
            self.saw_halt = True


class TestFastPath:
    def test_no_probe_dispatch_slots_stay_none(self):
        pipeline = make_pipeline()
        assert pipeline._record is None
        assert pipeline._record_squash is None
        assert pipeline._cycle_probes == []
        assert pipeline.fetch_unit.record_stage is None
        pipeline.run()
        assert pipeline._record is None          # nothing grew mid-run

    def test_probed_run_matches_unprobed_exactly(self):
        plain = make_pipeline()
        plain.run()
        probed = make_pipeline()
        probed.attach_probe(PipelineTracer())
        probed.attach_probe(CountingCycleProbe())
        probed.run()
        assert probed.stats.as_dict() == plain.stats.as_dict()
        assert probed.architectural_registers() \
            == plain.architectural_registers()


class TestTracerAsProbe:
    def test_tracer_property_finds_attached_tracer(self):
        pipeline = make_pipeline()
        assert pipeline.tracer is None
        tracer = PipelineTracer()
        pipeline.attach_probe(tracer)
        assert pipeline.tracer is tracer

    def test_two_tracers_record_identically(self):
        pipeline = make_pipeline()
        first, second = PipelineTracer(), PipelineTracer()
        pipeline.attach_probe(first)
        pipeline.attach_probe(second)
        pipeline.run()
        assert first.traces.keys() == second.traces.keys()
        for seq in first.traces:
            assert first.traces[seq].events == second.traces[seq].events


class TestValidatorAsProbe:
    def test_invariant_probe_checks_every_cycle(self):
        pipeline = make_pipeline()
        probe = InvariantProbe()
        pipeline.attach_probe(probe)
        pipeline.run()
        assert probe.checks == pipeline.cycle

    def test_invariant_probe_validates_halt_cycle(self):
        pipeline = make_pipeline()
        probe = InvariantProbe(every=10 ** 9)    # only the halt check fires
        pipeline.attach_probe(probe)
        pipeline.run()
        assert probe.checks == 1

    def test_run_validated_matches_plain_run(self):
        plain = make_pipeline()
        plain.run()
        checked = make_pipeline()
        stats = run_validated(checked)
        assert stats.as_dict() == plain.stats.as_dict()
        # run_validated detaches its probe afterwards
        assert checked._cycle_probes == []

    def test_invariant_probe_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            InvariantProbe(every=0)


class TestAttachDetach:
    def test_detach_restores_fast_path(self):
        pipeline = make_pipeline()
        tracer = PipelineTracer()
        cycle_probe = CountingCycleProbe()
        pipeline.attach_probe(tracer)
        pipeline.attach_probe(cycle_probe)
        assert pipeline._record is not None
        pipeline.detach_probe(tracer)
        pipeline.detach_probe(cycle_probe)
        assert pipeline._record is None
        assert pipeline._record_squash is None
        assert pipeline._cycle_probes == []
        assert pipeline.fetch_unit.record_stage is None

    def test_attach_detach_callbacks_fire(self):
        pipeline = make_pipeline()
        probe = CountingCycleProbe()
        pipeline.attach_probe(probe)
        assert probe.attached_to is pipeline
        pipeline.detach_probe(probe)
        assert probe.detached_from is pipeline

    def test_double_attach_rejected(self):
        pipeline = make_pipeline()
        tracer = PipelineTracer()
        pipeline.attach_probe(tracer)
        with pytest.raises(ValueError):
            pipeline.attach_probe(tracer)

    def test_detach_unknown_rejected(self):
        pipeline = make_pipeline()
        with pytest.raises(ValueError):
            pipeline.detach_probe(PipelineTracer())

    def test_hookless_probe_rejected(self):
        pipeline = make_pipeline()
        with pytest.raises(TypeError):
            pipeline.attach_probe(PipelineProbe())   # overrides nothing


class TestCycleProbes:
    def test_cycle_probe_sees_every_cycle_including_halt(self):
        pipeline = make_pipeline()
        probe = CountingCycleProbe()
        pipeline.attach_probe(probe)
        pipeline.run()
        assert probe.cycles == pipeline.cycle
        assert probe.saw_halt

    def test_cycle_probe_not_on_stage_dispatch(self):
        pipeline = make_pipeline()
        pipeline.attach_probe(CountingCycleProbe())
        # a cycle-only probe must not slow the stage hot path
        assert pipeline._record is None
        assert pipeline._record_squash is None


class TestOverridesHook:
    def test_subclass_override_detected(self):
        assert overrides_hook(PipelineTracer(), "record")
        assert overrides_hook(PipelineTracer(), "record_squash")
        assert not overrides_hook(PipelineTracer(), "on_cycle")
        assert not overrides_hook(PipelineProbe(), "record")

    def test_duck_typed_probe_detected(self):
        class DuckTracer:
            def record(self, stage, dyn, cycle):
                pass

        assert overrides_hook(DuckTracer(), "record")
        assert not overrides_hook(DuckTracer(), "on_cycle")


class FailingProbe(PipelineProbe):
    """Cycle probe that raises once a chosen cycle is reached."""

    def __init__(self, fail_at):
        self.fail_at = fail_at

    def on_cycle(self, pipeline):
        if pipeline.cycle >= self.fail_at:
            raise RuntimeError("probe failure")


class TestProbeLifecycleMidRun:
    """The satellite contract: probes can come and go *during* a run,
    and a misbehaving probe must not corrupt architectural state."""

    def test_attach_and_detach_mid_run(self):
        plain = make_pipeline()
        plain.run()

        # the first ~180 cycles are the cold icache miss; probe the
        # window where instructions actually flow
        pipeline = make_pipeline()
        for _ in range(150):
            pipeline.step()
        tracer, counter = PipelineTracer(), CountingCycleProbe()
        pipeline.attach_probe(tracer)
        pipeline.attach_probe(counter)
        for _ in range(60):
            pipeline.step()
        pipeline.detach_probe(tracer)
        pipeline.detach_probe(counter)
        assert pipeline._record is None          # fast path restored
        pipeline.run()
        assert counter.cycles == 60              # only the probed window
        assert len(tracer.traces) > 0
        assert pipeline.stats.as_dict() == plain.stats.as_dict()
        assert pipeline.architectural_registers() \
            == plain.architectural_registers()

    def test_probe_exception_leaves_pipeline_resumable(self):
        plain = make_pipeline()
        plain.run()

        pipeline = make_pipeline()
        probe = FailingProbe(fail_at=190)
        pipeline.attach_probe(probe)
        with pytest.raises(RuntimeError):
            pipeline.run()
        # the cycle's architectural work completed before the probe ran:
        # detaching the culprit and resuming must converge on the same
        # final state as an unprobed run
        assert pipeline.cycle == 190
        pipeline.detach_probe(probe)
        pipeline.run()
        assert pipeline.stats.as_dict() == plain.stats.as_dict()
        assert pipeline.architectural_registers() \
            == plain.architectural_registers()

    def test_sampling_probe_attachable_mid_run(self):
        from repro.telemetry import SamplingProbe

        pipeline = make_pipeline()
        for _ in range(10):
            pipeline.step()
        probe = SamplingProbe(stride=1)
        pipeline.attach_probe(probe)
        pipeline.run()
        assert probe.samples["cycle"][0] == 11
        assert probe.last_cycle == pipeline.cycle
