"""Tests for the pipeline tracing infrastructure."""

from repro.arch.config import MachineConfig
from repro.arch.pipeline import Pipeline
from repro.arch.trace import PipelineTracer
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


def traced_run(source=LOOP, reuse=False, capacity=5000):
    program = assemble(source, name="traced")
    tracer = PipelineTracer(capacity=capacity)
    config = MachineConfig().with_iq_size(32).replace(reuse_enabled=reuse)
    pipeline = Pipeline(program, config)
    pipeline.attach_probe(tracer)
    pipeline.run()
    return pipeline, tracer


class TestLifecycleRecording:
    def test_committed_instructions_have_full_lifecycle(self):
        _, tracer = traced_run()
        committed = tracer.committed_traces()
        assert committed
        for trace in committed:
            if trace.from_reuse:
                continue
            for stage in ("fetch", "decode", "dispatch", "issue",
                          "complete", "commit"):
                assert stage in trace.events, (trace.disasm, stage)

    def test_stage_order_monotonic(self):
        _, tracer = traced_run()
        order = ("fetch", "decode", "dispatch", "issue", "complete",
                 "commit")
        for trace in tracer.committed_traces():
            cycles = [trace.events[s] for s in order if s in trace.events]
            assert cycles == sorted(cycles), trace.disasm

    def test_commit_in_program_order(self):
        _, tracer = traced_run()
        commits = [t.events["commit"] for t in tracer.committed_traces()]
        assert commits == sorted(commits)

    def test_squashed_marked(self):
        _, tracer = traced_run()
        # the loop exit mispredicts: some wrong-path work must be marked
        squashed = [t for t in tracer.traces.values() if t.squashed]
        assert squashed
        assert all(not t.committed for t in squashed)

    def test_latency_positive(self):
        _, tracer = traced_run()
        for trace in tracer.committed_traces():
            assert trace.latency() >= 3          # at least the stage depth


class TestReuseVisibility:
    def test_reused_instances_have_no_frontend_events(self):
        _, tracer = traced_run(reuse=True)
        reused = [t for t in tracer.committed_traces() if t.from_reuse]
        assert reused, "reuse never engaged"
        for trace in reused:
            assert "fetch" not in trace.events
            assert "decode" not in trace.events
            assert "dispatch" in trace.events

    def test_reuse_traces_query(self):
        _, tracer = traced_run(reuse=True)
        assert tracer.reuse_traces()

    def test_most_loop_work_is_reused(self):
        _, tracer = traced_run(reuse=True)
        committed = tracer.committed_traces()
        reused = [t for t in committed if t.from_reuse]
        assert len(reused) > 0.5 * len(committed)


class TestRendering:
    def test_timeline_renders(self):
        _, tracer = traced_run()
        text = tracer.render_timeline(first_seq=1, last_seq=12)
        assert "cycles" in text
        assert "F" in text and "C" in text

    def test_timeline_reuse_marker(self):
        _, tracer = traced_run(reuse=True)
        reused = tracer.reuse_traces()
        text = tracer.render_timeline(first_seq=reused[0].seq,
                                      last_seq=reused[0].seq + 8)
        assert "r " in text or "r" in text.splitlines()[1]

    def test_empty_range(self):
        _, tracer = traced_run()
        assert "no traced" in tracer.render_timeline(first_seq=10 ** 9)

    def test_summary(self):
        _, tracer = traced_run(reuse=True)
        summary = tracer.summary()
        assert "supplied by the reuse pointer" in summary
        assert "committed" in summary


class TestCapacity:
    def test_capacity_bounds_memory(self):
        _, tracer = traced_run(capacity=20)
        assert len(tracer) <= 20
        assert tracer.dropped > 0

    def test_tracing_does_not_change_timing(self):
        program = assemble(LOOP, name="t")
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        plain = Pipeline(program, config)
        plain.run()
        traced = Pipeline(program, config)
        traced.attach_probe(PipelineTracer())
        traced.run()
        assert plain.stats.cycles == traced.stats.cycles
        assert plain.stats.committed == traced.stats.committed
