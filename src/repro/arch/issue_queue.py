"""The issue queue, with the augmentation the paper adds.

Baseline behaviour (a collapsing unified issue queue):

* dispatch inserts a renamed instruction with its operand readiness,
* completed producers *wake up* waiting entries,
* the select logic issues up to ``issue_width`` ready entries per cycle,
  oldest first,
* issued entries are removed (the queue collapses).

The paper's augmentation adds to every entry a **classification bit** ("this
instruction belongs to a loop being buffered"), an **issue state bit**
("the buffered instruction's current instance has issued"), and room in the
**logical register list (LRL)** for the entry's logical register numbers.
An entry whose classification bit is set is *not* removed when it issues; it
stays resident so the reuse pointer can re-dispatch it.  The bookkeeping for
buffering and reuse lives in :mod:`repro.core`; this module provides the
structure both modes share.

Selection uses an age-ordered ready heap keyed by the sequence number of the
entry's current dynamic instance, giving oldest-first select in O(log n)
instead of a positional scan (the collapsing behaviour itself has no timing
consequence, only energy, which the power model charges per remove).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from repro.arch.dyninst import DynInst
from repro.isa.instruction import Instruction


class IQEntry:
    """One issue-queue entry.

    For ordinary instructions the entry lives from dispatch to issue.  For
    buffered (classification-bit) instructions the entry persists across
    dynamic instances: ``dyn`` is re-pointed at each pass of the reuse
    pointer and only operand readiness, the ROB pointer and the issue state
    bit change -- the paper's cheap *partial update*.
    """

    __slots__ = ("inst", "dyn", "pending", "ready", "classification",
                 "issue_state", "in_queue", "recorded_taken",
                 "recorded_target")

    def __init__(self, inst: Instruction, dyn: DynInst):
        self.inst = inst
        self.dyn = dyn
        #: Number of not-yet-ready source operands.
        self.pending = 0
        self.ready = False
        #: The paper's classification bit: entry belongs to a buffered loop.
        self.classification = False
        #: The paper's issue state bit: current instance has issued.
        self.issue_state = False
        self.in_queue = False
        #: Branch outcome recorded during Loop Buffering, replayed as the
        #: static prediction during Code Reuse.
        self.recorded_taken: Optional[bool] = None
        self.recorded_target: Optional[int] = None

    def __repr__(self) -> str:
        bits = f"c={int(self.classification)} s={int(self.issue_state)}"
        return f"<IQEntry {self.inst.disassemble()} {bits}>"


class IssueQueue:
    """Unified collapsing issue queue with reuse augmentation hooks."""

    __slots__ = ("capacity", "entries", "_ready_heap", "_heap_counter")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: Set[IQEntry] = set()
        self._ready_heap: List[Tuple[int, int, IQEntry]] = []
        self._heap_counter = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def occupancy(self) -> int:
        """Number of occupied entries."""
        return len(self.entries)

    @property
    def free_entries(self) -> int:
        """Number of free entries (the buffering-continuation check)."""
        return self.capacity - len(self.entries)

    @property
    def full(self) -> bool:
        """True when dispatch must stall."""
        return len(self.entries) >= self.capacity

    # -- dispatch side -----------------------------------------------------

    def insert(self, entry: IQEntry) -> None:
        """Insert a freshly renamed entry (must not be full)."""
        if self.full:
            raise RuntimeError("issue queue overflow")
        entry.in_queue = True
        self.entries.add(entry)
        if entry.pending == 0:
            self.mark_ready(entry)

    def mark_ready(self, entry: IQEntry) -> None:
        """Push an entry whose operands are all available into the ready set."""
        if entry.ready:
            return
        entry.ready = True
        self._heap_counter += 1
        heapq.heappush(self._ready_heap,
                       (entry.dyn.seq, self._heap_counter, entry))

    def wakeup(self, entry: IQEntry) -> None:
        """One of the entry's producers completed; decrement and maybe ready."""
        entry.pending -= 1
        if entry.pending == 0 and entry.in_queue and not entry.dyn.issued:
            self.mark_ready(entry)

    # -- select side -----------------------------------------------------------

    def pop_ready(self) -> Optional[IQEntry]:
        """Oldest ready, issuable entry; None if none remain this cycle.

        Lazily discards stale heap records (squashed instances, already
        issued instances, re-renamed buffered entries).
        """
        heap = self._ready_heap
        while heap:
            seq, _, entry = heapq.heappop(heap)
            dyn = entry.dyn
            if (entry.in_queue and entry.ready and not dyn.issued
                    and not dyn.squashed and dyn.seq == seq):
                entry.ready = False
                return entry
        return None

    def requeue(self, entry: IQEntry) -> None:
        """Put a popped entry back (no functional unit was available)."""
        self.mark_ready(entry)

    # -- removal ---------------------------------------------------------------

    def remove(self, entry: IQEntry) -> None:
        """Remove an entry (issue of a non-buffered instruction, or revoke)."""
        entry.in_queue = False
        entry.ready = False
        self.entries.discard(entry)

    # -- reuse-controller host interface (see repro.core.controller) ----------

    def resident(self, entry: IQEntry) -> bool:
        """True while ``entry`` still occupies the queue."""
        return entry.in_queue

    def release(self, entries: List[IQEntry]) -> int:
        """Revoke sweep: drop the buffered ``entries``' reuse status.

        Issued entries leave the queue; unissued ones lose their
        classification bit and leave at issue like any conventional entry.
        Entries squashed out by a recovery are skipped.  Returns the number
        of entries removed.
        """
        removed = 0
        for entry in entries:
            if not entry.in_queue:
                continue
            if entry.issue_state:
                self.remove(entry)
                removed += 1
            else:
                entry.classification = False
        return removed

    def squash_younger_than(self, seq: int) -> int:
        """Remove entries whose current instance is younger than ``seq``.

        Buffered entries are removed as well -- on any misprediction while
        buffering or reusing, the controller's revoke path clears whatever
        survives.  Returns the number of entries removed.
        """
        victims = [e for e in self.entries if e.dyn.seq > seq]
        for entry in victims:
            self.remove(entry)
        return len(victims)

    def reset(self) -> None:
        """Empty the queue entirely."""
        self.entries.clear()
        self._ready_heap.clear()
