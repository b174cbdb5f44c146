"""Unit tests for the reuse mechanism's components: detector, NBLT, LRL,
state machine."""

import pytest

from repro.arch.dyninst import DynInst
from repro.core.loop_detector import LoopDetector
from repro.core.lrl import LogicalRegisterList
from repro.core.nblt import NonBufferableLoopTable
from repro.core.states import IQState, check_transition
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


def control_dyn(op, pc, target, pred_taken=True, rs=8, rt=0):
    if op.fmt.name == "J":
        inst = Instruction(op, target=target)
    else:
        inst = Instruction(op, rs=rs, rt=rt, target=target)
    inst.pc = pc
    dyn = DynInst(1, inst, pc)
    dyn.pred_taken = pred_taken
    return dyn


def detect(detector, dyn):
    return detector.detect(dyn.pc, dyn.inst, dyn.pred_taken)


class TestLoopDetector:
    def test_detects_backward_branch(self):
        detector = LoopDetector(64)
        dyn = control_dyn(Opcode.BNE, pc=0x400040, target=0x400020)
        candidate = detect(detector, dyn)
        assert candidate is not None
        assert candidate.head_pc == 0x400020
        assert candidate.tail_pc == 0x400040
        assert candidate.size == 9                # 8 insts span + branch

    def test_detects_backward_direct_jump(self):
        detector = LoopDetector(64)
        dyn = control_dyn(Opcode.J, pc=0x400040, target=0x400020)
        assert detect(detector, dyn) is not None

    def test_ignores_forward_branch(self):
        detector = LoopDetector(64)
        dyn = control_dyn(Opcode.BNE, pc=0x400020, target=0x400040)
        assert detect(detector, dyn) is None

    def test_ignores_predicted_not_taken(self):
        detector = LoopDetector(64)
        dyn = control_dyn(Opcode.BNE, pc=0x400040, target=0x400020,
                          pred_taken=False)
        assert detect(detector, dyn) is None

    def test_ignores_calls_and_indirect(self):
        detector = LoopDetector(64)
        assert detect(detector, control_dyn(
            Opcode.JAL, pc=0x400040, target=0x400020)) is None
        jr = Instruction(Opcode.JR, rs=31)
        jr.pc = 0x400040
        dyn = DynInst(1, jr, jr.pc)
        dyn.pred_taken = True
        assert detect(detector, dyn) is None

    def test_capturability_bound_is_iq_size(self):
        detector = LoopDetector(8)
        fits = control_dyn(Opcode.BNE, pc=0x40001C, target=0x400000)  # 8
        assert detect(detector, fits) is not None
        toobig = control_dyn(Opcode.BNE, pc=0x400020, target=0x400000)  # 9
        assert detect(detector, toobig) is None
        assert detector.too_large == 1

    def test_single_instruction_self_loop(self):
        detector = LoopDetector(8)
        dyn = control_dyn(Opcode.BNE, pc=0x400000, target=0x400000)
        candidate = detect(detector, dyn)
        assert candidate is not None
        assert candidate.size == 1

    def test_ignores_non_control(self):
        detector = LoopDetector(64)
        inst = Instruction(Opcode.ADDU, rd=8, rs=9, rt=10)
        inst.pc = 0x400040
        dyn = DynInst(1, inst, inst.pc)
        dyn.pred_taken = None
        assert detect(detector, dyn) is None


class TestNblt:
    def test_lookup_miss_then_hit(self):
        nblt = NonBufferableLoopTable(8)
        assert not nblt.lookup(0x400040)
        nblt.insert(0x400040)
        assert nblt.lookup(0x400040)
        assert nblt.hits == 1
        assert nblt.lookups == 2

    def test_fifo_replacement(self):
        nblt = NonBufferableLoopTable(2)
        nblt.insert(1)
        nblt.insert(2)
        nblt.insert(3)              # evicts 1 (FIFO)
        assert 1 not in nblt
        assert 2 in nblt and 3 in nblt

    def test_no_duplicates(self):
        nblt = NonBufferableLoopTable(4)
        nblt.insert(7)
        nblt.insert(7)
        assert len(nblt) == 1

    def test_disabled_when_size_zero(self):
        nblt = NonBufferableLoopTable(0)
        assert not nblt.enabled
        nblt.insert(1)
        assert not nblt.lookup(1)
        assert len(nblt) == 0

    def test_entries_oldest_first(self):
        nblt = NonBufferableLoopTable(4)
        for addr in (10, 20, 30):
            nblt.insert(addr)
        assert nblt.entries() == (10, 20, 30)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NonBufferableLoopTable(-1)


class TestLrl:
    def test_record_and_read(self):
        lrl = LogicalRegisterList(4)
        lrl.record(0, 8, (9, 10))
        assert lrl.read(0) == (8, (9, 10))
        assert lrl.writes == 1
        assert lrl.reads == 1

    def test_capacity(self):
        lrl = LogicalRegisterList(1)
        lrl.record(0, 8, (9,))
        with pytest.raises(RuntimeError):
            lrl.record(1, 8, (9,))

    def test_clear(self):
        lrl = LogicalRegisterList(2)
        lrl.record(0, 8, ())
        lrl.clear()
        assert len(lrl) == 0
        lrl.record(1, 9, ())            # room again

    def test_storage_bits_matches_paper_scale(self):
        # the paper estimates ~15 bits of register numbers per entry; our
        # unified 64-register space needs 18
        lrl = LogicalRegisterList(64)
        assert lrl.storage_bits == 64 * 3 * 6


class TestStateMachine:
    def test_encodings_match_paper(self):
        assert IQState.NORMAL.encoding == 0b00
        assert IQState.BUFFERING.encoding == 0b01
        assert IQState.REUSE.encoding == 0b11

    @pytest.mark.parametrize("old,new", [
        (IQState.NORMAL, IQState.BUFFERING),
        (IQState.BUFFERING, IQState.REUSE),
        (IQState.BUFFERING, IQState.NORMAL),
        (IQState.REUSE, IQState.NORMAL),
    ])
    def test_legal_transitions(self, old, new):
        check_transition(old, new)          # must not raise

    @pytest.mark.parametrize("old,new", [
        (IQState.NORMAL, IQState.REUSE),    # must buffer first
        (IQState.REUSE, IQState.BUFFERING),
    ])
    def test_illegal_transitions(self, old, new):
        with pytest.raises(RuntimeError):
            check_transition(old, new)

    def test_self_transition_allowed(self):
        check_transition(IQState.NORMAL, IQState.NORMAL)
