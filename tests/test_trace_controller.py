"""Behavioural tests of the trace-reuse controller.

The trace controller (``--reuse trace``, see ``docs/trace_reuse.md``)
detects arbitrary hot traces through a trace-head table keyed on start
PC + branch-outcome signature instead of requiring the whole static loop
body to fit the queue.  These tests drive its full state machine --
observe -> detect -> buffer -> supply -> revoke -- through the pipeline
with exact-architectural-state checks, mirroring ``test_controller.py``
and ``test_controller_torture.py`` for the loop controller.
"""

import pytest

from repro.arch.config import MachineConfig
from repro.arch.fastcore import FastPipeline
from repro.arch.pipeline import Pipeline
from repro.arch.validate import run_validated
from repro.core import CONTROLLERS, ReuseController, controller_for
from repro.core.states import IQState
from repro.core.trace_controller import TraceHeadTable, TraceReuseController
from repro.isa.assembler import assemble
from repro.isa.interpreter import run_program

from tests.helpers import assert_matches_oracle


def trace_config(iq_size=32, **kwargs):
    return MachineConfig().with_iq_size(iq_size).replace(
        reuse_enabled=True, reuse_mode="trace", **kwargs)


def run_trace(source, iq_size=32, validate=False, engine="object",
              **config_kwargs):
    """Run ``source`` under the trace controller, checked against the
    oracle.  The object core runs (validated on request) in every case;
    ``engine="array"`` also runs the array core, requires it to agree
    with the object core counter for counter and decision for decision,
    and returns it."""
    program = assemble(source, name="trace-t")
    oracle = run_program(program)
    config = trace_config(iq_size, **config_kwargs)
    pipeline = Pipeline(program, config)
    if validate:
        run_validated(pipeline, every=4)
    else:
        pipeline.run()
    assert_matches_oracle(pipeline, oracle)
    if engine == "object":
        return pipeline
    fast = FastPipeline(program, config)
    fast.run()
    assert_matches_oracle(fast, oracle)
    assert fast.stats.as_dict() == pipeline.stats.as_dict()
    assert fast.controller.events == pipeline.controller.events
    assert fast.controller.transitions == pipeline.controller.transitions
    return fast


def counted_loop(body_lines, trips, label="top", counter="$s0",
                 bound="$s1"):
    lines = [f"li {counter}, 0", f"li {bound}, {trips}", f"{label}:"]
    lines += body_lines
    lines += [
        f"addiu {counter}, {counter}, 1",
        f"slt $at, {counter}, {bound}",
        f"bne $at, $zero, {label}",
    ]
    return lines


SIMPLE_LOOP = """
.text
    li $t0, 0
    li $t1, 60
top:
    addiu $t2, $t0, 5
    sll   $t3, $t2, 1
    subu  $t4, $t3, $t0
    addiu $t0, $t0, 1
    slt   $t5, $t0, $t1
    bne   $t5, $zero, top
    halt
"""

_COLD_BLOCK = "\n".join(f"    addu $s{i % 4}, $s{i % 4}, $t7"
                        for i in range(48))

#: Static head..tail span ~56 instructions (the loop detector refuses it
#: at IQ 32), dynamic path ~10 (the trace controller captures it).
SKIP_LOOP = f"""
.text
    li $t0, 0
    li $t1, 200
top:
    addiu $t2, $t0, 3
    sll   $t3, $t2, 1
    beq   $zero, $zero, hot
{_COLD_BLOCK}
hot:
    subu  $t4, $t3, $t0
    xor   $t5, $t5, $t4
    addiu $t0, $t0, 1
    slt   $t6, $t0, $t1
    bne   $t6, $zero, top
    halt
"""


def diverging_loop(index=0, trips=64, counter="$s0", bound="$s1"):
    """A loop whose inner branch follows a period-4 taken/not-taken
    pattern (taken twice, not-taken twice).  Run under gshare, the
    predictor learns the pattern perfectly, so two consecutive
    iterations share a branch-outcome signature (the trace-head table
    hits and buffering starts) while the next iteration's *correctly
    predicted* flip no longer matches the recorded signature -- a pure
    decode-time divergence with no mispredict anywhere."""
    body = [
        f"andi $t2, {counter}, 2",
        f"beq $t2, $zero, even{index}",
        "addiu $t3, $t3, 5",
        f"even{index}:",
        "xor $t4, $t4, $t3",
    ]
    return counted_loop(body, trips, label=f"div{index}",
                        counter=counter, bound=bound)


# -- the registry -----------------------------------------------------------


class TestControllerRegistry:
    def test_modes_and_classes(self):
        assert set(CONTROLLERS) == {"loop", "trace"}
        assert controller_for("loop") is ReuseController
        assert controller_for("trace") is TraceReuseController

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown reuse mode"):
            controller_for("supertrace")
        with pytest.raises(ValueError):
            MachineConfig(reuse_mode="supertrace")

    def test_pipeline_constructs_the_selected_controller(self):
        program = assemble(SIMPLE_LOOP, name="sel")
        assert isinstance(Pipeline(program, trace_config()).controller,
                          TraceReuseController)
        loop_cfg = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        controller = Pipeline(program, loop_cfg).controller
        assert type(controller) is ReuseController

    @pytest.mark.parametrize("mode", sorted(CONTROLLERS))
    def test_array_core_constructs_the_same_controller(self, mode):
        program = assemble(SIMPLE_LOOP, name="sel")
        config = trace_config().replace(reuse_mode=mode)
        controller = FastPipeline(program, config).controller
        assert type(controller) is controller_for(config.reuse_mode)


# -- the trace-head table ---------------------------------------------------


class TestTraceHeadTable:
    def test_put_get_roundtrip_and_counters(self):
        tht = TraceHeadTable(4)
        assert tht.get(0x100) is None
        tht.put(0x100, (("sig",),))
        assert tht.get(0x100) == (("sig",),)
        assert tht.lookups == 2 and tht.hits == 1
        assert tht.inserts == 1 and len(tht) == 1

    def test_fifo_eviction_order(self):
        tht = TraceHeadTable(2)
        tht.put(1, "a")
        tht.put(2, "b")
        tht.put(3, "c")               # evicts 1, the oldest
        assert tht.get(1) is None
        assert tht.get(2) == "b" and tht.get(3) == "c"
        assert tht.evictions == 1 and len(tht) == 2

    def test_update_in_place_keeps_age(self):
        tht = TraceHeadTable(2)
        tht.put(1, "a")
        tht.put(2, "b")
        tht.put(1, "a2")              # refresh, not re-insert
        tht.put(3, "c")               # still evicts 1 (oldest by entry)
        assert tht.get(1) is None
        assert tht.get(2) == "b"

    def test_zero_capacity_is_inert(self):
        tht = TraceHeadTable(0)
        tht.put(1, "a")
        assert len(tht) == 0 and tht.inserts == 0

    def test_disabled_table_disables_detection_but_stays_exact(self):
        pipeline = run_trace(SIMPLE_LOOP, tht_size=0)
        assert pipeline.stats.trace_detections == 0
        assert pipeline.stats.buffering_started == 0
        assert pipeline.stats.gated_cycles == 0


# -- detect -> buffer -> supply ---------------------------------------------


class TestHappyPath:
    engine = "object"

    def test_full_state_cycle(self):
        pipeline = run_trace(SIMPLE_LOOP, engine=self.engine)
        stats = pipeline.stats
        assert stats.trace_detections >= 1
        assert stats.tht_lookups >= 1
        assert stats.tht_hits >= 1
        assert stats.loop_detections >= 1
        assert stats.buffering_started >= 1
        assert stats.promotions >= 1
        assert stats.reuse_supplied > 0
        assert stats.gated_cycles > 0
        assert pipeline.controller.state is IQState.NORMAL
        assert not pipeline.controller.gated

    def test_transition_sequence(self):
        pipeline = run_trace(SIMPLE_LOOP, engine=self.engine)
        names = [(old.name, new.name)
                 for old, new, _ in pipeline.controller.transitions]
        assert ("NORMAL", "BUFFERING") in names
        assert ("BUFFERING", "REUSE") in names

    def test_detection_needs_three_tail_visits(self):
        # visit 1 anchors, visit 2 records the signature, visit 3
        # matches it.  A two-trip loop reaches visit 3 only through
        # wrong-path decode (the weakly-taken bimodal init keeps
        # fetching the loop speculatively), so the speculative
        # buffering session is revoked by the mispredict squash with
        # nothing ever supplied -- and the state stays exact.
        body = ["addiu $t2, $t2, 7"]
        source = ".text\n" + "\n".join(counted_loop(body, 2)) + "\nhalt\n"
        pipeline = run_trace(source, engine=self.engine)
        assert pipeline.stats.tht_lookups >= 2      # visits 2 and 3
        assert pipeline.stats.promotions == 0
        assert pipeline.stats.reuse_supplied == 0
        assert pipeline.stats.revokes_mispredict >= 1

    def test_supply_contribution_buckets_sum_to_supplied(self):
        from repro.arch.stats import REUSE_TYPE_BUCKETS
        stats = run_trace(SIMPLE_LOOP, engine=self.engine).stats
        total = sum(getattr(stats, f"reuse_supplied_{bucket}")
                    for bucket in REUSE_TYPE_BUCKETS)
        assert total == stats.reuse_supplied > 0

    def test_event_stream_contract(self):
        events = run_trace(SIMPLE_LOOP, engine=self.engine).controller.events
        kinds = {event.kind for event in events}
        assert {"buffer_start", "promote"} <= kinds
        cycles = [event.cycle for event in events]
        assert cycles == sorted(cycles)


class TestBeyondTheLoopController:
    def test_skip_loop_is_trace_only(self):
        """The tentpole case: a hot path the loop controller can never
        capture (static span > IQ) supplies from the trace buffer."""
        program = assemble(SKIP_LOOP, name="skip")
        oracle = run_program(program)
        loop_cfg = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        loop_pipe = Pipeline(program, loop_cfg)
        loop_pipe.run()
        assert_matches_oracle(loop_pipe, oracle)
        assert loop_pipe.stats.reuse_supplied == 0

        trace_pipe = Pipeline(program, trace_config(32))
        trace_pipe.run()
        assert_matches_oracle(trace_pipe, oracle)
        assert trace_pipe.stats.reuse_supplied > 0
        assert trace_pipe.stats.gated_cycles > 0


# -- revokes ----------------------------------------------------------------


class TestSignatureDivergence:
    engine = "object"

    def test_divergence_revokes_and_stays_exact(self):
        source = ".text\n" + "\n".join(diverging_loop()) + "\nhalt\n"
        pipeline = run_trace(source, validate=True, bpred_kind="gshare",
                             engine=self.engine)
        stats = pipeline.stats
        assert stats.buffering_started >= 1
        assert stats.revokes_divergence >= 1
        reasons = [event.reason for event in pipeline.controller.events
                   if event.kind == "revoke"]
        assert "trace divergence" in reasons

    def test_divergence_registers_the_nblt(self):
        source = ".text\n" + "\n".join(diverging_loop()) + "\nhalt\n"
        pipeline = run_trace(source, bpred_kind="gshare", engine=self.engine)
        nblt_inserts = [event for event in pipeline.controller.events
                        if event.kind == "revoke" and event.nblt_insert]
        assert nblt_inserts
        assert pipeline.controller.nblt.inserts >= 1

    def test_exit_at_tail_revoke(self):
        # a three-trip loop detects on the last taken tail and exits
        # while buffering: the classic exit-at-tail revoke
        body = ["addiu $t2, $t2, 7", "sll $t3, $t2, 1"]
        source = ".text\n" + "\n".join(counted_loop(body, 4)) + "\nhalt\n"
        pipeline = run_trace(source, engine=self.engine)
        assert pipeline.stats.revokes_exit + \
            pipeline.stats.revokes_mispredict >= 1
        assert pipeline.controller.state is IQState.NORMAL


class TestNbltFifoAgeing:
    engine = "object"

    def test_more_diverging_traces_than_nblt_entries(self):
        # twelve distinct divergence-prone loops cycle the 8-entry FIFO
        chunks = []
        for index in range(12):
            chunks.append("\n".join(diverging_loop(
                index=index, trips=48, counter="$s4", bound="$s5")))
        source = ".text\n" + "\n".join(chunks) + "\nhalt\n"
        pipeline = run_trace(source, iq_size=32, bpred_kind="gshare",
                             engine=self.engine)
        nblt = pipeline.controller.nblt
        assert nblt.inserts >= 8
        assert len(nblt) <= 8                      # FIFO stayed bounded

    def test_nblt_disabled_still_exact(self):
        source = ".text\n" + "\n".join(diverging_loop()) + "\nhalt\n"
        run_trace(source, nblt_size=0, bpred_kind="gshare", engine=self.engine)


class TestIqOverflowAbort:
    engine = "object"

    def test_dynamic_path_over_queue_size_never_buffers(self):
        # 14 body + 3 overhead = 17 > 16: the observation window hits
        # the IQ bound and is abandoned before any buffering starts
        body = [f"addiu $t{i % 8}, $t{i % 8}, 1" for i in range(14)]
        source = ".text\n" + "\n".join(counted_loop(body, 30)) + "\nhalt\n"
        pipeline = run_trace(source, iq_size=16, engine=self.engine)
        assert pipeline.stats.buffering_started == 0
        assert pipeline.stats.gated_cycles == 0

    def test_call_bloated_path_never_buffers(self):
        # the *dynamic* path through the leaf is what must fit: a short
        # static loop whose call expands past the queue is refused
        leaf = "\n".join(f"    addu $s2, $s2, $t{i % 8}"
                         for i in range(14))
        source = f"""
        .text
            li $s0, 0
            li $s1, 20
        top:
            jal leaf
            addiu $s0, $s0, 1
            slt $at, $s0, $s1
            bne $at, $zero, top
            halt
        leaf:
        {leaf}
            jr $ra
        """
        pipeline = run_trace(source, iq_size=16, engine=self.engine)
        assert pipeline.stats.buffering_started == 0

    def test_path_exactly_queue_size_still_captures(self):
        body = [f"addiu $t{i % 8}, $t{i % 8}, 1" for i in range(13)]
        source = ".text\n" + "\n".join(counted_loop(body, 30)) + "\nhalt\n"
        pipeline = run_trace(source, iq_size=16, engine=self.engine)
        assert pipeline.stats.buffering_started >= 1


# -- exactness across trip-count phases -------------------------------------


class TestTripCountPhases:
    engine = "object"

    @pytest.mark.parametrize("trips", [1, 2, 3, 4, 5, 8, 13])
    def test_every_small_trip_count(self, trips):
        body = ["addiu $t2, $t2, 7", "sll $t3, $t2, 1"]
        source = ".text\n" + "\n".join(counted_loop(body, trips)) \
            + "\nhalt\n"
        run_trace(source, iq_size=16, validate=True, engine=self.engine)

    def test_nested_loops_stay_exact(self):
        inner = counted_loop(["addiu $t2, $t2, 1"], 6, label="in0",
                             counter="$t0", bound="$t1")
        outer = counted_loop(inner, 4, label="out0", counter="$s2",
                             bound="$s3")
        source = ".text\n" + "\n".join(outer) + "\nhalt\n"
        pipeline = run_trace(source, iq_size=32, validate=True,
                             engine=self.engine)
        assert pipeline.stats.trace_detections >= 1


# -- crosscheck integration -------------------------------------------------


class TestCrosscheck:
    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_trace_event_log_is_concordant(self, suite, engine):
        from repro.analysis.crosscheck import crosscheck

        report = crosscheck(suite.program("tsf"), trace_config(32),
                            engine=engine)
        assert report.ok, [v.message for v in report.violations]


# -- the same state-machine grid on the array core --------------------------
# (separate classes rather than a parametrization, so the object-core test
# ids stay stable; each array run must also equal its object-core run)


class TestHappyPathArray(TestHappyPath):
    engine = "array"


class TestSignatureDivergenceArray(TestSignatureDivergence):
    engine = "array"


class TestNbltFifoAgeingArray(TestNbltFifoAgeing):
    engine = "array"


class TestIqOverflowAbortArray(TestIqOverflowAbort):
    engine = "array"


class TestTripCountPhasesArray(TestTripCountPhases):
    engine = "array"
