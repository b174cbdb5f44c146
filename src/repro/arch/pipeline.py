"""The out-of-order pipeline engine.

One :class:`Pipeline` instance executes one program on one machine
configuration, cycle by cycle, in the classic reverse-stage order::

    commit -> writeback(+branch resolve) -> LSQ -> issue -> dispatch
           -> decode -> fetch

Values are carried by the dynamic instructions themselves (the ROB doubles
as the physical register file, MIPS-R10000 style with the paper's separate
issue queue), stores write memory at commit, and wrong-path instructions are
genuinely fetched and executed -- so the architectural state at halt must
equal the in-order interpreter's, which the test suite checks exhaustively.

The paper's mechanism hooks in at four points:

* decode calls :meth:`ReuseController.on_decode` (loop detection, buffering
  bookkeeping, promote decision),
* dispatch calls ``on_dispatch`` / ``on_dispatch_iq_full`` and, in Code
  Reuse state, walks the controller's buffered entries from its reuse
  pointer instead of drawing from the decoder,
* issue leaves classification-bit entries resident (setting their issue
  state bit) instead of removing them,
* misprediction recovery calls ``on_mispredict`` (revoke / reuse exit).

When the controller's gate signal is up, fetch and decode simply do not run:
no I-cache, ITLB or branch-predictor activity occurs -- that is the power
saving the paper measures.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional

from repro.arch.branch.predictor import BranchPredictor
from repro.arch.config import MachineConfig
from repro.arch.dyninst import DynInst
from repro.arch.fetch import FetchUnit
from repro.arch.functional_units import FunctionalUnitPool
from repro.arch.issue_queue import IQEntry, IssueQueue
from repro.arch.lsq import (
    LOAD_ACCESS_CACHE,
    LOAD_BLOCKED,
    LOAD_FORWARD,
    LoadStoreQueue,
)
from repro.arch.mem.hierarchy import MemoryHierarchy
from repro.arch.regfile import RegisterFile
from repro.arch.probe import overrides_hook
from repro.arch.rename import RenameMap
from repro.arch.rob import ReorderBuffer
from repro.arch.stats import REUSE_COUNTER_OF, PipelineStats
from repro.arch.trace import PipelineTracer
from repro.core import controller as _controller_mod
from repro.core import controller_for
from repro.core.states import IQState
from repro.isa.memory import SparseMemory
from repro.isa.opcodes import FuClass, InstrClass
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.semantics import (
    access_size,
    branch_taken,
    effective_address,
    evaluate,
    forwarded_value,
    load_from_memory,
    store_to_memory,
)


class SimulationTimeout(Exception):
    """The run exceeded its cycle budget or stopped making progress."""


class Pipeline:
    """Cycle-level out-of-order core executing one program."""

    __slots__ = (
        "program", "config", "stats", "mem_image", "hierarchy",
        "predictor", "regfile", "rename", "rob", "iq", "lsq", "fus",
        "fetch_unit", "controller", "decoded", "pending_loads",
        "pending_stores", "cycle", "halted",
        "_stage_probes", "_cycle_probes", "_record", "_record_squash",
        "_seq", "_inflight", "_inflight_push", "_dcache_ports_used",
        "_decode_buffer_cap",
    )

    def __init__(self, program: Program, config: MachineConfig,
                 memory: Optional[SparseMemory] = None):
        self.program = program
        self.config = config
        # probe machinery: stage probes receive per-instruction lifecycle
        # events, cycle probes run at the end of every step.  _record /
        # _record_squash are the (None when idle) hot-path dispatchers.
        self._stage_probes: List = []
        self._cycle_probes: List = []
        self._record = None
        self._record_squash = None
        self.mem_image = memory if memory is not None \
            else program.initial_memory()
        self.stats = PipelineStats()
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = BranchPredictor(
            config.bimod_size, config.btb_sets, config.btb_assoc,
            config.ras_size, kind=config.bpred_kind,
            history_bits=config.bpred_history_bits)
        self.regfile = RegisterFile()
        self.rename = RenameMap()
        self.rob = ReorderBuffer(config.rob_size)
        self.lsq = LoadStoreQueue(config.lsq_size)
        self.iq = IssueQueue(config.iq_size)
        self.fus = FunctionalUnitPool(config)
        self.controller = controller_for(config.reuse_mode)(
            config, self.iq, self.stats)
        self._seq = 0
        self.fetch_unit = FetchUnit(program, config, self.hierarchy,
                                    self.predictor, self._next_seq,
                                    self.stats)
        self.decoded = deque()
        self._decode_buffer_cap = 2 * config.decode_width
        self._inflight: List = []           # heap of (cycle, seq, dyn)
        self._inflight_push = heapq.heappush
        self.pending_loads: List[DynInst] = []
        # stores whose address is computed but whose data operand is still
        # being produced (split store-address / store-data execution)
        self.pending_stores: List[DynInst] = []
        self.cycle = 0
        self.halted = False
        self._dcache_ports_used = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ---------------------------------------------------------------- probes

    @property
    def tracer(self) -> Optional[PipelineTracer]:
        """The first attached :class:`PipelineTracer` (None if absent)."""
        for probe in self._stage_probes:
            if isinstance(probe, PipelineTracer):
                return probe
        return None

    def attach_probe(self, probe) -> None:
        """Attach ``probe`` for every hook family its class overrides.

        A probe overriding :meth:`~repro.arch.probe.PipelineProbe.record`
        (or ``record_squash``) receives per-instruction stage events; one
        overriding ``on_cycle`` runs at the end of every cycle.  Attaching
        an observer with neither is an error (it would observe nothing).
        """
        stage = (overrides_hook(probe, "record")
                 or overrides_hook(probe, "record_squash"))
        cycle = overrides_hook(probe, "on_cycle")
        if not stage and not cycle:
            raise TypeError(
                f"{type(probe).__name__} overrides no probe hook "
                f"(record / record_squash / on_cycle)")
        if probe in self._stage_probes or probe in self._cycle_probes:
            raise ValueError(f"probe {probe!r} already attached")
        if stage:
            self._stage_probes.append(probe)
        if cycle:
            self._cycle_probes.append(probe)
        self._rebuild_dispatch()
        if overrides_hook(probe, "on_attach"):
            probe.on_attach(self)

    def detach_probe(self, probe) -> None:
        """Detach ``probe``; restores the no-probe fast path when last."""
        found = False
        for family in (self._stage_probes, self._cycle_probes):
            if probe in family:
                family.remove(probe)
                found = True
        if not found:
            raise ValueError(f"probe {probe!r} is not attached")
        self._rebuild_dispatch()
        if overrides_hook(probe, "on_detach"):
            probe.on_detach(self)

    def _rebuild_dispatch(self) -> None:
        """Recompute the stage-event dispatchers after attach/detach.

        One probe binds its methods directly (no wrapper call); several
        share a closure over an immutable snapshot of the probe list.
        No probes leaves the dispatchers ``None`` -- the zero-overhead
        fast path the hot loop tests for.
        """
        recorders = [probe for probe in self._stage_probes
                     if overrides_hook(probe, "record")]
        squashers = [probe for probe in self._stage_probes
                     if overrides_hook(probe, "record_squash")]
        if not recorders:
            self._record = None
        elif len(recorders) == 1:
            self._record = recorders[0].record
        else:
            snapshot = tuple(recorders)

            def fan_out(stage, dyn, cycle, _probes=snapshot):
                for probe in _probes:
                    probe.record(stage, dyn, cycle)
            self._record = fan_out
        if not squashers:
            self._record_squash = None
        elif len(squashers) == 1:
            self._record_squash = squashers[0].record_squash
        else:
            squash_snapshot = tuple(squashers)

            def fan_out_squash(dyn, _probes=squash_snapshot):
                for probe in _probes:
                    probe.record_squash(dyn)
            self._record_squash = fan_out_squash
        self.fetch_unit.record_stage = self._record

    # ------------------------------------------------------------------ run

    def run(self, max_cycles: Optional[int] = None) -> PipelineStats:
        """Run to the committed ``halt``; returns the statistics."""
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        stats = self.stats
        stall_guard = 0
        while not self.halted:
            if self.cycle >= limit:
                raise SimulationTimeout(
                    f"no halt after {self.cycle} cycles "
                    f"({stats.committed} committed)")
            before = stats.committed
            self.step()
            if stats.committed == before:
                stall_guard += 1
                if stall_guard > 200_000:
                    raise SimulationTimeout(
                        f"pipeline stalled for {stall_guard} cycles at "
                        f"cycle {self.cycle} (rob head: {self.rob.head()!r},"
                        f" state: {self.controller.state})")
            else:
                stall_guard = 0
        return stats

    def step(self) -> None:
        """Advance the machine by one cycle."""
        self.cycle += 1
        stats = self.stats
        stats.cycles += 1
        self._dcache_ports_used = 0
        controller = self.controller
        controller.now = self.cycle
        state = controller.state
        if state is IQState.NORMAL:
            stats.cycles_normal += 1
        elif state is IQState.BUFFERING:
            stats.cycles_buffering += 1
        else:
            stats.cycles_reuse += 1
        if controller.gated:
            stats.gated_cycles += 1
        self._commit()
        if not self.halted:
            self._writeback()
            self._process_stores()
            self._process_loads()
            self._issue()
            self._dispatch()
            if not controller.gated:
                self._decode()
                if not controller.gated:    # decode may raise the gate
                    self.fetch_unit.cycle(self.cycle)
        if self._cycle_probes:
            for probe in self._cycle_probes:
                probe.on_cycle(self)

    # ---------------------------------------------------------------- commit

    def _commit(self) -> None:
        stats = self.stats
        budget = self.config.commit_width
        while budget:
            dyn = self.rob.head()
            if dyn is None or not dyn.done:
                break
            inst = dyn.inst
            if inst.is_store:
                if self._dcache_ports_used >= self.config.dcache_ports:
                    break
                self._dcache_ports_used += 1
                self.hierarchy.daccess(dyn.mem_addr, is_write=True)
                store_to_memory(self.mem_image, inst.op, dyn.mem_addr,
                                dyn.store_value)
                stats.dcache_store_accesses += 1
            self.rob.retire_head()
            dyn.committed = True
            if self._record is not None:
                self._record("commit", dyn, self.cycle)
            stats.committed += 1
            if dyn.from_reuse:
                stats.reuse_committed += 1
            stats.rob_reads += 1
            if inst.is_mem:
                self.lsq.release(dyn)
            dest = inst.dest
            if dest is not None:
                self.regfile.write(dest, dyn.value)
                self.rename.clear_producer(dest, dyn)
                stats.regfile_writes += 1
            if inst.is_control:
                stats.branches_committed += 1
                if inst.is_conditional_branch:
                    stats.cond_branches_committed += 1
                self.predictor.update(inst, dyn.pc, dyn.actual_taken,
                                      dyn.actual_target,
                                      direction_index=dyn.bpred_index)
            if inst.is_halt:
                self.halted = True
                return
            budget -= 1

    # ------------------------------------------------------------- writeback

    def _writeback(self) -> None:
        inflight = self._inflight
        now = self.cycle
        while inflight and inflight[0][0] <= now:
            dyn = heapq.heappop(inflight)[2]
            if dyn.squashed:
                continue
            self._complete(dyn)

    def _complete(self, dyn: DynInst) -> None:
        stats = self.stats
        dyn.done = True
        if self._record is not None:
            self._record("complete", dyn, self.cycle)
        stats.resultbus_writes += 1
        waiters = dyn.waiters
        if waiters:
            stats.iq_wakeups += 1
            wakeup = self.iq.wakeup
            for entry in waiters:
                if entry.in_queue and not entry.dyn.squashed:
                    wakeup(entry)
            dyn.waiters = None
        if dyn.is_control and dyn.mispredicted():
            self._recover(dyn)

    def _recover(self, dyn: DynInst) -> None:
        """Branch misprediction recovery (also the reuse exit path)."""
        stats = self.stats
        stats.mispredicts += 1
        target = dyn.actual_target if dyn.actual_taken \
            else dyn.pc + INSTRUCTION_BYTES
        squashed = self.rob.squash_younger_than(dyn.seq)
        if self._record_squash is not None:
            for victim in squashed:
                self._record_squash(victim)
        stats.squashed += len(squashed)
        stats.iq_removes += self.iq.squash_younger_than(dyn.seq)
        self.lsq.squash_younger_than(dyn.seq)
        self.rename.restore(dyn.rename_snapshot)
        self.predictor.restore_state(
            dyn.ras_snapshot,
            actual_taken=(dyn.actual_taken
                          if dyn.inst.is_conditional_branch else None))
        self.decoded.clear()
        self.fetch_unit.redirect(target, self.cycle)
        if self.controller.enabled:
            self.controller.on_mispredict()

    # ------------------------------------------------------------------ LSQ

    def _process_stores(self) -> None:
        """Capture store data whose producer has completed (STD half)."""
        if not self.pending_stores:
            return
        still: List[DynInst] = []
        for dyn in self.pending_stores:
            if dyn.squashed:
                continue
            producer, lreg = dyn.sources[1]
            if producer.committed:
                dyn.store_value = self.regfile.read(lreg)
                self._schedule(dyn, self.cycle + 1)
            elif producer.done:
                dyn.store_value = producer.value
                self._schedule(dyn, self.cycle + 1)
            else:
                still.append(dyn)
        self.pending_stores = still

    def _process_loads(self) -> None:
        if not self.pending_loads:
            return
        stats = self.stats
        still: List[DynInst] = []
        for dyn in self.pending_loads:
            if dyn.squashed:
                continue
            verdict, store = self.lsq.disambiguate(dyn)
            stats.lsq_searches += 1
            if verdict == LOAD_BLOCKED:
                stats.load_blocked_cycles += 1
                still.append(dyn)
            elif verdict == LOAD_FORWARD:
                dyn.value = forwarded_value(dyn.inst.op,
                                            store.store_value)
                stats.lsq_forwards += 1
                self._schedule(dyn, self.cycle + 1)
            else:
                if self._dcache_ports_used >= self.config.dcache_ports:
                    still.append(dyn)
                    continue
                self._dcache_ports_used += 1
                latency = self.hierarchy.daccess(dyn.mem_addr,
                                                 is_write=False)
                stats.dcache_load_accesses += 1
                dyn.value = load_from_memory(self.mem_image, dyn.inst.op,
                                             dyn.mem_addr)
                self._schedule(dyn, self.cycle + latency)
        self.pending_loads = still

    # ----------------------------------------------------------------- issue

    def _schedule(self, dyn: DynInst, finish_cycle: int) -> None:
        self._inflight_push(self._inflight, (finish_cycle, dyn.seq, dyn))

    def _issue(self) -> None:
        budget = self.config.issue_width
        iq = self.iq
        retry: List[IQEntry] = []
        now = self.cycle
        while budget:
            entry = iq.pop_ready()
            if entry is None:
                break
            if not self.fus.try_issue(entry.inst.op, now):
                retry.append(entry)
                continue
            self._execute(entry)
            budget -= 1
        for entry in retry:
            iq.requeue(entry)

    def _execute(self, entry: IQEntry) -> None:
        stats = self.stats
        dyn = entry.dyn
        inst = entry.inst
        op = inst.op
        dyn.issued = True
        if self._record is not None:
            self._record("issue", dyn, self.cycle)
        stats.issued += 1
        regread = self.regfile.read
        values = []
        for producer, lreg in dyn.sources:
            if producer is None or producer.committed:
                values.append(regread(lreg))
            else:
                values.append(producer.value)
        stats.regfile_reads += len(values)
        a = values[0] if values else 0
        b = values[1] if len(values) > 1 else 0

        fu = op.fu
        if fu is FuClass.IALU:
            stats.fu_int_ops += 1
        elif fu is FuClass.IMULT:
            stats.fu_mult_ops += 1
        elif fu is FuClass.FPALU:
            stats.fu_fp_ops += 1
        elif fu is FuClass.FPMULT:
            stats.fu_fpmult_ops += 1

        icls = op.icls
        if icls is InstrClass.LOAD:
            dyn.mem_addr = effective_address(a, inst.imm)
            dyn.mem_state = 1
            self.pending_loads.append(dyn)
        elif icls is InstrClass.STORE:
            # split store-address / store-data: the store issues as soon as
            # its base register is ready; the data operand is captured when
            # its producer completes (SimpleScalar's STA/STD behaviour).
            # Loads can disambiguate against the address immediately;
            # forwarding waits for ``done`` (= data available).
            dyn.mem_addr = effective_address(a, inst.imm)
            producer, lreg = dyn.sources[1]
            if producer is None or producer.committed:
                dyn.store_value = self.regfile.read(lreg)
                self._schedule(dyn, self.cycle + 1)
            elif producer.done:
                dyn.store_value = producer.value
                self._schedule(dyn, self.cycle + 1)
            else:
                self.pending_stores.append(dyn)
        elif inst.is_control:
            self._resolve_control(dyn, a, b)
            self._schedule(dyn, self.cycle + op.latency)
        elif icls is InstrClass.NOP or icls is InstrClass.HALT:
            self._schedule(dyn, self.cycle + 1)
        else:
            dyn.value = evaluate(op, a, b, inst.imm)
            self._schedule(dyn, self.cycle + op.latency)

        if entry.classification:
            entry.issue_state = True      # buffered: stays resident
        else:
            self.iq.remove(entry)
            stats.iq_removes += 1

    def _resolve_control(self, dyn: DynInst, a, b) -> None:
        inst = dyn.inst
        icls = inst.op.icls
        if icls is InstrClass.BRANCH:
            taken = branch_taken(inst.op, a, b)
            dyn.actual_taken = taken
            dyn.actual_target = inst.target if taken \
                else dyn.pc + INSTRUCTION_BYTES
        elif icls is InstrClass.JUMP:
            dyn.actual_taken = True
            dyn.actual_target = inst.target
        elif icls is InstrClass.CALL:
            dyn.actual_taken = True
            dyn.actual_target = inst.target
            dyn.value = dyn.pc + INSTRUCTION_BYTES
        elif icls is InstrClass.IJUMP:
            dyn.actual_taken = True
            dyn.actual_target = a
        else:                              # ICALL
            dyn.actual_taken = True
            dyn.actual_target = a
            dyn.value = dyn.pc + INSTRUCTION_BYTES

    # -------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        if (self.controller.state is IQState.REUSE
                and not self.decoded):
            self._dispatch_reuse()
            return
        stats = self.stats
        controller = self.controller
        budget = self.config.decode_width
        decoded = self.decoded
        while budget and decoded:
            dyn = decoded[0]
            inst = dyn.inst
            if self.rob.full:
                break
            if inst.is_mem and self.lsq.full:
                break
            if self.iq.full:
                if controller.enabled:
                    controller.on_dispatch_iq_full(dyn.buffer_session)
                break
            decoded.popleft()
            entry = IQEntry(inst, dyn)
            dyn.iq_entry = entry
            self._rename_and_allocate(dyn, entry)
            self.iq.insert(entry)
            stats.iq_inserts += 1
            if controller.enabled and controller.state is IQState.BUFFERING:
                if controller.on_dispatch(entry, inst, dyn.buffer_session,
                                          dyn.seq):
                    entry.classification = True
                    if inst.is_control:
                        entry.recorded_taken = dyn.pred_taken
                        entry.recorded_target = dyn.pred_target
                if controller.state is IQState.REUSE:
                    # the loop tail just dispatched and Code Reuse engaged:
                    # everything still queued in the front-end is the next
                    # iteration, which the reuse pointer will supply instead
                    self.fetch_unit.flush_queue()
                    self.decoded.clear()
                    return
            budget -= 1

    def _dispatch_reuse(self) -> None:
        """Code Reuse state: the reuse pointer is the dispatch source."""
        stats = self.stats
        controller = self.controller
        buffered = controller.buffered
        ptr = controller.reuse_pointer
        budget = self.config.decode_width
        while budget and buffered:
            entry = buffered[ptr]
            if not entry.issue_state:
                break
            inst = entry.inst
            if self.rob.full:
                break
            if inst.is_mem and self.lsq.full:
                break
            dyn = DynInst(self._next_seq(), inst, inst.pc)
            dyn.from_reuse = True
            if inst.is_control:
                dyn.pred_taken = entry.recorded_taken
                dyn.pred_target = entry.recorded_target
            dyn.iq_entry = entry
            entry.dyn = dyn
            entry.issue_state = False
            entry.ready = False
            self._rename_and_allocate(dyn, entry)
            if entry.pending == 0:
                self.iq.mark_ready(entry)
            ptr += 1
            if ptr >= len(buffered):
                # wrap; the injected fault skips slot 0 (fuzzer self-test)
                ptr = (1 if _controller_mod._INJECTED_BUG == "skip-lrl-update"
                       and len(buffered) > 1 else 0)
            controller.session_supplied += 1
            stats.reuse_supplied += 1
            counter = REUSE_COUNTER_OF[inst.op.icls]
            setattr(stats, counter, getattr(stats, counter) + 1)
            stats.iq_partial_updates += 1
            stats.lrl_reads += 1
            budget -= 1
        controller.reuse_pointer = ptr

    def _rename_and_allocate(self, dyn: DynInst,
                             entry: Optional[IQEntry]) -> None:
        stats = self.stats
        inst = dyn.inst
        dyn.dispatched = True
        if self._record is not None:
            self._record("dispatch", dyn, self.cycle)
        stats.dispatched += 1
        stats.rob_writes += 1
        pending = 0
        sources = dyn.sources
        lookup = self.rename.lookup
        # a store's data operand (source index 1) does not gate issue: the
        # store issues on its base register alone (split STA/STD) and the
        # data is captured by _process_stores when its producer completes
        is_store = inst.is_store
        for position, lreg in enumerate(inst.srcs):
            stats.rename_lookups += 1
            producer = lookup(lreg)
            sources.append((producer, lreg))
            if is_store and position == 1:
                continue
            if producer is not None and not producer.done:
                pending += 1
                if producer.waiters is None:
                    producer.waiters = [entry]
                else:
                    producer.waiters.append(entry)
        if inst.dest is not None:
            self.rename.set_producer(inst.dest, dyn)
            stats.rename_writes += 1
        if inst.is_control:
            dyn.rename_snapshot = self.rename.snapshot()
            if dyn.ras_snapshot is None:
                # reuse-supplied instances never passed through fetch;
                # capture the (untouched-while-gated) predictor state now
                dyn.ras_snapshot = self.predictor.snapshot_state()
        if inst.is_mem:
            dyn.mem_size = access_size(inst.op)
            self.lsq.allocate(dyn)
            stats.lsq_inserts += 1
        self.rob.allocate(dyn)
        if entry is not None:
            entry.pending = pending

    # ---------------------------------------------------------------- decode

    def _decode(self) -> None:
        stats = self.stats
        budget = self.config.decode_width
        queue = self.fetch_unit.queue
        decoded = self.decoded
        controller = self.controller
        while budget and queue and len(decoded) < self._decode_buffer_cap:
            dyn = queue.popleft()
            stats.decoded += 1
            if dyn.predecoded:
                stats.predecoded_supplied += 1
            if self._record is not None:
                self._record("decode", dyn, self.cycle)
            decoded.append(dyn)
            if controller.enabled:
                dyn.buffer_session = controller.on_decode(
                    dyn.pc, dyn.inst, dyn.pred_taken, dyn.pred_target,
                    dyn.seq)
                if controller.gated:
                    # promote decision: the gate is up.  The fetch queue is
                    # retained -- if buffering is revoked before the loop
                    # tail dispatches, decode resumes from it with nothing
                    # lost; once reuse engages, dispatch flushes it.
                    return
            budget -= 1

    # ----------------------------------------------------------- final state

    def architectural_registers(self) -> List:
        """Committed register values (for oracle comparison)."""
        return self.regfile.as_list()
