"""Decode-stage loop detection (the paper's Section 2.1).

The detector watches conditional branches and direct jumps at decode and
fires when

1. the instruction's (predicted) target is *backward* -- at or before the
   instruction itself, and
2. the static distance from the instruction to its target is no larger
   than the issue queue size (the loop is *capturable*), and
3. the instruction is predicted taken (detection uses the decode-stage
   predicted target, the design point the paper argues for over
   post-execution detection).

Direct calls (``jal``) are excluded: a backward call is procedure linkage,
not a loop-ending instruction (procedures inside loops are handled by the
controller's call-depth tracking instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass
from repro.isa.program import INSTRUCTION_BYTES


@dataclass(frozen=True)
class LoopCandidate:
    """A detected capturable loop."""

    #: Address of the first instruction of an iteration (the branch target).
    head_pc: int
    #: Address of the loop-ending branch/jump.
    tail_pc: int
    #: Static size of one iteration in instructions (head..tail inclusive).
    size: int


class LoopDetector:
    """Backward-branch detector with the capturability check.

    Takes per-instruction scalars -- the PC, the static instruction and
    its decode-stage predicted direction -- so both pipeline cores can
    drive it without building a dynamic-instruction object.
    """

    def __init__(self, iq_capacity: int):
        self.iq_capacity = iq_capacity
        self.too_large = 0

    @staticmethod
    def is_loop_ending(pc: int, inst: Instruction,
                       pred_taken: Optional[bool]) -> bool:
        """True for a predicted-taken backward conditional branch or jump."""
        # the plain fields first: most decodes fail here without the
        # (costlier) opcode-class lookup
        target = inst.target
        if target is None or target > pc or not pred_taken:
            return False
        icls = inst.op.icls
        return icls is InstrClass.BRANCH or icls is InstrClass.JUMP

    def detect(self, pc: int, inst: Instruction,
               pred_taken: Optional[bool]) -> Optional[LoopCandidate]:
        """Run detection on one decoded instruction.

        Returns a :class:`LoopCandidate` when the instruction ends a
        capturable loop, else None.
        """
        if not self.is_loop_ending(pc, inst, pred_taken):
            return None
        target = inst.target
        size = (pc - target) // INSTRUCTION_BYTES + 1
        if size > self.iq_capacity:
            self.too_large += 1
            return None
        return LoopCandidate(head_pc=target, tail_pc=pc, size=size)
