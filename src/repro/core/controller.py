"""The reuse controller (the paper's Sections 2.2-2.5).

:class:`ReuseController` owns everything the paper adds around the issue
queue:

* the state machine (``R_iqstate``) and the ``R_loophead`` /
  ``R_looptail`` registers,
* the buffering strategy (single-iteration vs. the multi-iteration
  strategy the paper selects, Section 2.2.1),
* procedure-call handling via a call-depth counter (Section 2.2.2),
* the non-bufferable loop table (Section 2.2.3),
* the buffered-entry list and reuse pointer the Code Reuse dispatch
  source walks in program order (Section 2.4),
* every revoke/recovery rule back to Normal (Section 2.5), and
* the front-end gate signal.

It is the single implementation both pipeline cores drive.  The core
hands it per-instruction scalars (PC, static
:class:`~repro.isa.instruction.Instruction`, predicted direction and
target, sequence number) and opaque issue-queue entry *handles* -- the
object core's :class:`~repro.arch.issue_queue.IQEntry` objects, the array
core's entry-slot ints.  The controller stores handles and gives them
back through a narrow queue-host interface the core implements in its
own entry format:

* ``occupancy`` -- occupied issue-queue entries,
* ``resident(handle)`` -- the handle's entry is still in the queue,
* ``release(handles)`` -- the revoke sweep over buffered entries
  (issued ones leave the queue, unissued ones lose their classification
  bit); returns the number of entries removed.

When reuse is enabled, the core calls in at decode
(:meth:`~ReuseController.on_decode`), at dispatch (``on_dispatch`` in
Buffering state, ``on_dispatch_iq_full``) and during misprediction
recovery (``on_mispredict``).  The Code Reuse dispatch loop
itself stays in each core's hot path: it walks :attr:`buffered` from
:attr:`reuse_pointer` and counts :attr:`session_supplied`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.arch.config import MachineConfig
from repro.arch.stats import PipelineStats
from repro.core.loop_detector import LoopDetector
from repro.core.lrl import LogicalRegisterList
from repro.core.nblt import NonBufferableLoopTable
from repro.core.states import IQState, check_transition
from repro.isa.instruction import Instruction


#: Private fault-injection switch for the fuzzer's self-test (see
#: ``tests/test_fuzz_selftest.py`` and ``docs/fuzzing.md``), read by both
#: cores' Code Reuse dispatch loops.  The only recognised value,
#: ``"skip-lrl-update"``, makes the reuse pointer wrap to slot 1 instead
#: of slot 0: the first buffered entry's LRL partial update never happens
#: after the first reused iteration, so the entry is silently dropped
#: from every subsequent iteration -- an architecturally visible
#: controller bug the fuzzer must find and shrink.  Never set outside tests.
_INJECTED_BUG: Optional[str] = None


@dataclass(frozen=True)
class ControllerEvent:
    """One externally observable controller decision.

    The event log gives probes an exact record of which loop each
    transition concerned -- the :attr:`ReuseController.transitions` list
    only carries reasons, and the head/tail registers are cleared by the
    time a cycle probe runs after a revoke.
    """

    #: ``buffer_start`` | ``promote`` | ``revoke``.
    kind: str
    #: ``R_loophead`` at the time of the event.
    head_pc: Optional[int]
    #: ``R_looptail`` at the time of the event (the NBLT key).
    tail_pc: Optional[int]
    #: Revoke reason (None for the other kinds).
    reason: Optional[str] = None
    #: True when the revoke registered the tail in the NBLT.
    nblt_insert: bool = False
    #: Iterations captured (promote events only).
    iterations: int = 0
    #: Cycle the decision was taken in (0 for events synthesized outside
    #: a pipeline, e.g. in unit tests that drive the controller directly).
    cycle: int = 0
    #: Instructions supplied from the buffer during this buffering
    #: session, stamped on ``revoke`` events (0 for the other kinds --
    #: the session is still supplying when they are logged).
    supplied: int = 0


class ReuseController:
    """State machine and bookkeeping for the reuse-capable issue queue."""

    def __init__(self, config: MachineConfig, queue: Any,
                 stats: PipelineStats):
        self.config = config
        #: The core's queue host (``occupancy`` / ``resident`` / ``release``).
        self.queue = queue
        self.stats = stats
        self.enabled = config.reuse_enabled
        self.detector = LoopDetector(config.iq_size)
        self.nblt = NonBufferableLoopTable(config.nblt_size)
        self.lrl = LogicalRegisterList(config.iq_size)
        self.state = IQState.NORMAL
        #: Front-end gate signal (fetch, branch predictor, decoder).
        self.gated = False
        # R_loophead / R_looptail
        self.loop_head_pc: Optional[int] = None
        self.loop_tail_pc: Optional[int] = None
        #: Buffered issue-queue entry handles, in program order.
        self.buffered: List[Any] = []
        self.call_depth = 0
        self.iteration_counter = 0          # instructions in current iteration
        self.last_iteration_size = 0
        self.iterations_buffered = 0
        self.pending_promote = False
        #: Sequence number of the tail whose dispatch engages Code Reuse.
        self._promote_seq = -1
        #: Index into :attr:`buffered` of the next entry to re-dispatch
        #: (advanced by the core's Code Reuse dispatch loop).
        self.reuse_pointer = 0
        self._next_entry_id = 0
        #: Monotonic buffering-session id (guards stale candidates).
        self.session_id = 0
        #: Instructions supplied from the buffer this session (stamped on
        #: the session's revoke event for per-loop reuse accounting).
        self.session_supplied = 0
        # candidates marked at decode but not yet dispatched into the queue
        # (decode runs ahead of dispatch; the buffering-continuation check
        # must count them against the free entries)
        self._undispatched_candidates = 0
        #: (old, new, cycle-agnostic reason) transition log for tests.
        self.transitions: List = []
        #: Decision log for probes (see :class:`ControllerEvent`).
        self.events: List[ControllerEvent] = []
        #: Current pipeline cycle, written by the core at the top of
        #: every cycle so events can stamp the cycle they happened in.
        self.now = 0

    # -- event log ----------------------------------------------------------

    def iter_events_since(self, cursor: int):
        """New events appended since ``cursor``, plus the new cursor.

        The event log is append-only; passive probes keep a private
        cursor instead of draining it (probed and probe-free runs must
        stay bit-identical).  Typical consumer::

            fresh, self._cursor = controller.iter_events_since(self._cursor)
            for event in fresh:
                ...

        Returns ``(events, new_cursor)``; ``events`` is empty when
        nothing was appended.
        """
        log = self.events
        if cursor >= len(log):
            return (), cursor
        return log[cursor:], len(log)

    # -- state transitions ---------------------------------------------------

    def _transition(self, new_state: IQState, reason: str) -> None:
        check_transition(self.state, new_state)
        self.transitions.append((self.state, new_state, reason))
        self.state = new_state

    # -- decode-stage hook ------------------------------------------------------

    def on_decode(self, pc: int, inst: Instruction,
                  pred_taken: Optional[bool], pred_target: Optional[int],
                  seq: int) -> Optional[int]:
        """Observe one decoded instruction (detection + buffering).

        ``pred_taken`` / ``pred_target`` are the decode-stage prediction;
        they only matter for control instructions.  Returns the
        buffering session the instruction joins as a candidate (the core
        stores it with the instruction and passes it back at dispatch),
        or None when it is not a candidate.
        """
        state = self.state
        if state is IQState.NORMAL:
            self._detect(pc, inst, pred_taken, pred_target)
        elif state is IQState.BUFFERING and not self.pending_promote:
            # (once the gate is up, an instruction still in flight through
            # decode is simply left alone; the core flushes it)
            return self._buffering_decode(pc, inst, pred_taken,
                                          pred_target, seq)
        # REUSE: decode is gated; nothing should arrive here.
        return None

    def _detect(self, pc: int, inst: Instruction, pred_taken: Optional[bool],
                pred_target: Optional[int]) -> None:
        candidate = self.detector.detect(pc, inst, pred_taken)
        if candidate is None:
            return
        self.stats.loop_detections += 1
        self.stats.nblt_lookups += 1
        if self.nblt.lookup(candidate.tail_pc):
            self.stats.nblt_hits += 1
            return
        self._start_buffering(candidate.head_pc, candidate.tail_pc)

    def _start_buffering(self, head_pc: int, tail_pc: int) -> None:
        self._transition(IQState.BUFFERING, "capturable loop detected")
        self.events.append(ControllerEvent(
            kind="buffer_start",
            head_pc=head_pc,
            tail_pc=tail_pc,
            cycle=self.now))
        self.stats.buffering_started += 1
        self.session_id += 1
        self._undispatched_candidates = 0
        self.loop_head_pc = head_pc
        self.loop_tail_pc = tail_pc
        self.buffered = []
        self.call_depth = 0
        self.iteration_counter = 0
        self.last_iteration_size = 0
        self.iterations_buffered = 0
        self.pending_promote = False
        self._promote_seq = -1
        self.session_supplied = 0

    def _buffering_decode(self, pc: int, inst: Instruction,
                          pred_taken: Optional[bool],
                          pred_target: Optional[int],
                          seq: int) -> Optional[int]:
        if pc == self.loop_tail_pc and self.call_depth == 0:
            session = self._take_candidate()
            if not pred_taken:
                # the loop ends here: execution exits during buffering
                self._revoke("exit at tail", register_nblt=True)
                self.stats.revokes_exit += 1
                return session
            self._close_iteration(seq)
            return session
        in_loop = self.loop_head_pc <= pc <= self.loop_tail_pc
        if self.call_depth == 0 and not in_loop:
            self._revoke("exit", register_nblt=True)
            self.stats.revokes_exit += 1
            return None
        if self.detector.is_loop_ending(pc, inst, pred_taken):
            # an inner loop inside the loop being buffered: the current
            # loop is non-bufferable; re-run detection on the inner loop
            self._revoke("inner loop", register_nblt=True)
            self.stats.revokes_inner_loop += 1
            self._detect(pc, inst, pred_taken, pred_target)
            return None
        if inst.is_call:
            self.call_depth += 1
        elif inst.is_return and self.call_depth > 0:
            self.call_depth -= 1
        return self._take_candidate()

    def _take_candidate(self) -> int:
        """Count one decoded candidate; returns the session it joins."""
        self._undispatched_candidates += 1
        self.iteration_counter += 1
        return self.session_id

    def _close_iteration(self, tail_seq: int) -> None:
        """An iteration's tail was decoded: keep buffering or promote."""
        self.last_iteration_size = self.iteration_counter
        self.iteration_counter = 0
        self.iterations_buffered += 1
        if self.config.buffering_strategy == "single":
            self._promote(tail_seq)
            return
        # multi-iteration strategy: keep buffering while the free entries
        # can hold another iteration of the just-observed size; entries
        # already claimed by decoded-but-undispatched candidates count as
        # occupied
        effective_free = (self.config.iq_size - self.queue.occupancy
                          - self._undispatched_candidates)
        if effective_free >= self.last_iteration_size:
            return
        self._promote(tail_seq)

    def _promote(self, tail_seq: int) -> None:
        """Raise the gate; Code Reuse begins once the tail is dispatched."""
        self.pending_promote = True
        self._promote_seq = tail_seq
        self.gated = True

    # -- dispatch-stage hooks ----------------------------------------------------

    def on_dispatch(self, handle: Any, inst: Instruction,
                    session: Optional[int], seq: int) -> bool:
        """Observe one normally dispatched instruction (Buffering state).

        ``session`` is what :meth:`on_decode` returned for the instruction.
        Returns True when its entry ``handle`` is now buffered: the core
        then sets the entry's classification bit and records its predicted
        direction and target for the Code Reuse dispatch.
        """
        buffer = session == self.session_id
        if buffer:
            self._undispatched_candidates -= 1
            entry_id = self._next_entry_id
            self._next_entry_id += 1
            self.lrl.record(entry_id, inst.dest, inst.srcs)
            self.stats.lrl_writes += 1
            self.buffered.append(handle)
            self.stats.buffered_instructions += 1
        if self.pending_promote and seq == self._promote_seq:
            self._enter_reuse()
        return buffer

    def _enter_reuse(self) -> None:
        self._transition(IQState.REUSE, "buffering finished")
        self.events.append(ControllerEvent(
            kind="promote",
            head_pc=self.loop_head_pc,
            tail_pc=self.loop_tail_pc,
            iterations=self.iterations_buffered,
            cycle=self.now))
        self.stats.promotions += 1
        self.stats.buffered_iterations += self.iterations_buffered
        self.pending_promote = False
        self._promote_seq = -1
        self.reuse_pointer = 0

    def on_dispatch_iq_full(self, session: Optional[int]) -> None:
        """Dispatch stalled on a full issue queue.

        During buffering, a full queue only proves the loop does not fit
        when every occupied entry is a *buffered* entry -- buffered entries
        never leave, so no space can ever free up (the paper's "issue queue
        is used up before the loop-ending instruction is met", typically a
        procedure call blowing the iteration size).  A queue still holding
        conventional entries merely stalls dispatch until they issue.
        """
        if self.state is not IQState.BUFFERING or session != self.session_id:
            return
        resident = self.queue.resident
        count = sum(1 for handle in self.buffered if resident(handle))
        if count >= self.queue.occupancy:
            self._revoke("issue queue full", register_nblt=True)
            self.stats.revokes_iq_full += 1

    # -- recovery -------------------------------------------------------------------

    def on_mispredict(self) -> None:
        """Misprediction recovery hook (called after the core's squash)."""
        if self.state is IQState.BUFFERING:
            self._revoke("mispredict during buffering", register_nblt=False)
            self.stats.revokes_mispredict += 1
        elif self.state is IQState.REUSE:
            self.stats.reuse_mispredicts += 1
            self._revoke("reuse exit", register_nblt=False)

    def _revoke(self, reason: str, register_nblt: bool) -> None:
        """Return to Normal state (the paper's Section 2.5 rules).

        Buffered-and-issued entries leave the queue immediately; buffered
        but not-yet-issued entries merely lose their classification bit (the
        instruction itself must still execute; it is removed at issue like
        any conventional entry).  The core's ``release`` does both.
        """
        inserted = register_nblt and self.loop_tail_pc is not None
        self.events.append(ControllerEvent(
            kind="revoke",
            head_pc=self.loop_head_pc,
            tail_pc=self.loop_tail_pc,
            reason=reason,
            nblt_insert=inserted,
            iterations=self.iterations_buffered,
            cycle=self.now,
            supplied=self.session_supplied))
        if inserted:
            self.nblt.insert(self.loop_tail_pc)
            self.stats.nblt_inserts += 1
        self.stats.iq_removes += self.queue.release(self.buffered)
        if self.state is IQState.BUFFERING:
            self.stats.buffering_revokes += 1
        self.buffered = []
        self.lrl.clear()
        self.stats.revokes += 1
        self.pending_promote = False
        self._promote_seq = -1
        self.gated = False
        self.loop_head_pc = None
        self.loop_tail_pc = None
        self._transition(IQState.NORMAL, reason)
