"""Trace-level reuse controller (beyond the paper: ROADMAP open item 2).

The paper's :class:`~repro.core.controller.ReuseController` only captures
*tight* loops: a predicted-taken backward branch whose static distance to
its target fits in the issue queue.  Coppieters et al. ("Decanting the
Contribution of Instruction Types and Loop Structures in the Reuse of
Traces") show most reuse value lives in general hot *traces* -- repeated
dynamic paths that may span calls, forward branches and statically-large
loop bodies.  :class:`TraceReuseController` generalizes detection to such
traces while reusing every downstream piece of the paper's machinery
unchanged: the NBLT, the LRL, the state machine, multi-iteration
buffering, the reuse pointer and the revoke rules.

Detection scheme (see ``docs/trace_reuse.md`` for the full rationale):

* In Normal state the controller *observes* the decode stream.  A
  predicted-taken backward branch to target ``T`` anchors an observation
  window at ``T``; from then on every decoded control instruction is
  appended to a **branch-outcome signature** -- a tuple of
  ``(pc, pred_taken, pred_target)`` triples.
* When a predicted-taken backward branch targeting the *current anchor*
  is decoded, the signature is complete: it fully determines the dynamic
  path from ``T`` back to ``T``.  The signature is looked up in the
  **trace-head table** (THT), a small FIFO keyed on the anchor PC.  A
  hit on an *identical* signature means the same dynamic path just ran
  twice back to back -- a hot trace -- and buffering starts (subject to
  the same NBLT veto as loop detection).  A miss stores the signature.
* Because a matching signature pins every control outcome on the path,
  the buffered trace's dynamic length equals the observed length, which
  is capped at the issue queue size during observation -- the
  IQ-overflow revoke is unreachable by construction (it is kept as a
  belt-and-braces safety net).
* During buffering each decoded control instruction is compared against
  the reference signature positionally.  Any mismatch is a **trace
  divergence**: the trace is revoked and its tail registered in the NBLT
  (same second-chance FIFO ageing as non-bufferable loops), except for
  the special case of a not-taken tail, which is the paper's "exit at
  tail".  Non-control instructions need no check: the path between two
  controls is fully determined by the preceding control's outcome.

Everything after promotion (Code Reuse supply, partial LRL updates,
reuse-exit on mispredict) is inherited byte-for-byte, so coverage,
crosscheck and telemetry consume the same cycle-stamped
:class:`~repro.core.controller.ControllerEvent` stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.arch.stats import PipelineStats
from repro.core.controller import ReuseController
from repro.core.states import IQState
from repro.isa.instruction import Instruction

#: One control-flow observation: (pc, predicted taken, predicted target).
ControlTriple = Tuple[int, bool, Optional[int]]

#: A trace signature: every control on the path from anchor to anchor,
#: tail included, in decode order.
Signature = Tuple[ControlTriple, ...]


class TraceHeadTable:
    """FIFO table of the last signature observed per trace head.

    Mirrors the NBLT's organisation (small, FIFO replacement, size 0
    disables).  ``put`` on an existing key updates the signature *in
    place* without refreshing its age -- a head that keeps changing its
    path churns its own entry, not its neighbours'.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries: Dict[int, Signature] = {}
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

    def get(self, head_pc: int) -> Optional[Signature]:
        """Signature last stored for ``head_pc`` (None on miss)."""
        self.lookups += 1
        signature = self._entries.get(head_pc)
        if signature is not None:
            self.hits += 1
        return signature

    def put(self, head_pc: int, signature: Signature) -> None:
        """Store ``signature`` for ``head_pc`` (FIFO-evicting if full)."""
        if self.size <= 0:
            return
        if head_pc in self._entries:
            self._entries[head_pc] = signature
            return
        if len(self._entries) >= self.size:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
        self._entries[head_pc] = signature
        self.inserts += 1

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Tuple[int, ...]:
        """Resident head PCs, oldest first (for tests)."""
        return tuple(self._entries)


class TraceReuseController(ReuseController):
    """Reuse controller that buffers arbitrary hot traces.

    Drop-in replacement for :class:`ReuseController` selected via
    ``MachineConfig.reuse_mode == "trace"`` (the CLI's
    ``--reuse trace``).  Only detection and the buffering-time path
    check differ; buffering bookkeeping, promotion, Code Reuse supply
    and recovery are inherited.
    """

    def __init__(self, config: MachineConfig, queue: Any,
                 stats: PipelineStats):
        super().__init__(config, queue, stats)
        self.tht = TraceHeadTable(config.tht_size)
        # observation window (Normal state)
        self._obs_head: Optional[int] = None
        self._obs: List[ControlTriple] = []
        self._obs_len = 0
        # reference signature (Buffering state)
        self._ref: Signature = ()
        self._ref_idx = 0
        #: ``inst.is_control`` per static instruction: the opcode-class
        #: lookup behind it costs more than the rest of a decode hook.
        self._controls: Dict[Instruction, bool] = {}

    def _is_control(self, inst: Instruction) -> bool:
        control = self._controls.get(inst)
        if control is None:
            control = self._controls[inst] = inst.is_control
        return control

    def _reset_observation(self) -> None:
        self._obs_head = None
        self._obs = []
        self._obs_len = 0

    # -- observation (Normal state) -----------------------------------------

    def _detect(self, pc: int, inst: Instruction, pred_taken: Optional[bool],
                pred_target: Optional[int]) -> None:
        if self.tht.size <= 0:
            return
        if self.detector.is_loop_ending(pc, inst, pred_taken):
            self._observe_tail(pc, inst.target, pred_taken, pred_target)
            return
        if self._obs_head is None:
            return
        self._obs_len += 1
        if self._obs_len >= self.config.iq_size:
            # the path from the anchor no longer fits head..tail inclusive
            # in the issue queue; abandon and wait for the next anchor
            self._reset_observation()
            return
        if self._is_control(inst):
            self._obs.append((pc, pred_taken, pred_target))

    def _observe_tail(self, tail: int, head: int, pred_taken: Optional[bool],
                      pred_target: Optional[int]) -> None:
        if self._obs_head == head:
            signature = tuple(self._obs) + ((tail, pred_taken, pred_target),)
            self.stats.trace_detections += 1
            self.stats.tht_lookups += 1
            stored = self.tht.get(head)
            if stored == signature:
                self.stats.tht_hits += 1
                self.stats.loop_detections += 1
                self.stats.nblt_lookups += 1
                if self.nblt.lookup(tail):
                    self.stats.nblt_hits += 1
                else:
                    self._start_buffering(head, tail)
                    self._ref = signature
                    self._ref_idx = 0
                    self._reset_observation()
                    return
            else:
                self.tht.put(head, signature)
        # re-anchor at this tail's target; the traversal that just ended
        # (or a partial window) doubles as the start of the next one
        self._obs_head = head
        self._obs = []
        self._obs_len = 0

    # -- buffering-time path check ------------------------------------------

    def _buffering_decode(self, pc: int, inst: Instruction,
                          pred_taken: Optional[bool],
                          pred_target: Optional[int],
                          seq: int) -> Optional[int]:
        if self._is_control(inst):
            ref = self._ref[self._ref_idx]
            last = self._ref_idx == len(self._ref) - 1
            if (pc, pred_taken, pred_target) != ref:
                if last and pc == ref[0] and not pred_taken:
                    # the trace ends here: execution exits during
                    # buffering (the paper's exit-at-tail rule)
                    session = self._take_candidate()
                    self._revoke("exit at tail", register_nblt=True)
                    self.stats.revokes_exit += 1
                    return session
                self._revoke("trace divergence", register_nblt=True)
                self.stats.revokes_divergence += 1
                return None
            if last:
                session = self._take_candidate()
                self._ref_idx = 0
                self._close_iteration(seq)
                return session
            self._ref_idx += 1
        # non-control instructions need no check: the path between two
        # controls is fully determined by the previous control's outcome
        return self._take_candidate()

    # -- recovery -----------------------------------------------------------

    def on_mispredict(self) -> None:
        """Misprediction recovery hook (called after the core's squash)."""
        if self.state is IQState.NORMAL:
            # the squash invalidated part of the observed decode stream;
            # the window no longer describes a real path
            self._reset_observation()
            return
        super().on_mispredict()

    def _revoke(self, reason: str, register_nblt: bool) -> None:
        super()._revoke(reason, register_nblt)
        self._ref = ()
        self._ref_idx = 0
        self._reset_observation()
