"""Pipeline tracing.

A :class:`PipelineTracer` attached to a :class:`~repro.arch.pipeline.
Pipeline` records the cycle at which every dynamic instruction passes each
stage and renders classic pipeline diagrams::

    seq   pc        instruction            F D R I X C
    #12   0x400020  l.d $f4, 0($t7)        |F.DR..I...X..C

Stage letters: ``F`` fetch, ``D`` decode, ``R`` rename/dispatch,
``I`` issue, ``X`` writeback (execute complete), ``C`` commit,
``s`` squashed.  Instructions supplied by the reuse pointer have **no F or
D events** -- the front-end was gated; their lifecycle starts at ``R``.
That is the paper's mechanism, directly visible in the diagram (see
``examples/pipeline_trace.py``).

Tracing is opt-in -- the tracer is an ordinary stage probe, attached with
``pipeline.attach_probe(tracer)`` -- and bounded: after ``capacity``
instructions the tracer stops recording new ones, so it can be attached to
long runs to capture their beginning.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arch.probe import PipelineProbe

#: Lifecycle stages in pipeline order, with their diagram letters.
STAGES = ("fetch", "decode", "dispatch", "issue", "complete", "commit")

_STAGE_LETTER = {
    "fetch": "F",
    "decode": "D",
    "dispatch": "R",
    "issue": "I",
    "complete": "X",
    "commit": "C",
}


class InstructionTrace:
    """Recorded lifecycle of one dynamic instruction."""

    __slots__ = ("seq", "pc", "disasm", "from_reuse", "events", "squashed")

    def __init__(self, seq: int, pc: int, disasm: str, from_reuse: bool):
        self.seq = seq
        self.pc = pc
        self.disasm = disasm
        self.from_reuse = from_reuse
        #: stage name -> cycle number.
        self.events: Dict[str, int] = {}
        self.squashed = False

    @property
    def first_cycle(self) -> Optional[int]:
        """Earliest recorded cycle."""
        return min(self.events.values()) if self.events else None

    @property
    def last_cycle(self) -> Optional[int]:
        """Latest recorded cycle."""
        return max(self.events.values()) if self.events else None

    @property
    def committed(self) -> bool:
        """True if the instruction reached commit."""
        return "commit" in self.events

    def latency(self) -> Optional[int]:
        """Cycles from first event to commit (None if not committed)."""
        if not self.committed or self.first_cycle is None:
            return None
        return self.events["commit"] - self.first_cycle


class PipelineTracer(PipelineProbe):
    """Bounded per-instruction lifecycle recorder (a stage probe)."""

    def __init__(self, capacity: int = 2000):
        self.capacity = capacity
        self.traces: Dict[int, InstructionTrace] = {}
        self.dropped = 0

    # -- recording hooks (called by the pipeline) ---------------------------

    def record(self, stage: str, dyn, cycle: int) -> None:
        """Record that ``dyn`` passed ``stage`` in ``cycle``."""
        trace = self.traces.get(dyn.seq)
        if trace is None:
            if len(self.traces) >= self.capacity:
                self.dropped += 1
                return
            trace = InstructionTrace(dyn.seq, dyn.pc,
                                     dyn.inst.disassemble(),
                                     dyn.from_reuse)
            self.traces[dyn.seq] = trace
        trace.events[stage] = cycle

    def record_squash(self, dyn) -> None:
        """Mark an instruction as squashed."""
        trace = self.traces.get(dyn.seq)
        if trace is not None:
            trace.squashed = True

    # -- queries ---------------------------------------------------------------

    def committed_traces(self) -> List[InstructionTrace]:
        """Traces of committed instructions, in program order."""
        return sorted((t for t in self.traces.values() if t.committed),
                      key=lambda t: t.seq)

    def reuse_traces(self) -> List[InstructionTrace]:
        """Traces of reuse-pointer-supplied instructions."""
        return sorted((t for t in self.traces.values() if t.from_reuse),
                      key=lambda t: t.seq)

    def __len__(self) -> int:
        return len(self.traces)

    # -- rendering ----------------------------------------------------------------

    def render_timeline(self, first_seq: Optional[int] = None,
                        last_seq: Optional[int] = None,
                        max_width: int = 80) -> str:
        """Render a pipeline diagram for a sequence-number window."""
        traces = sorted(self.traces.values(), key=lambda t: t.seq)
        if first_seq is not None:
            traces = [t for t in traces if t.seq >= first_seq]
        if last_seq is not None:
            traces = [t for t in traces if t.seq <= last_seq]
        traces = [t for t in traces if t.events]
        if not traces:
            return "(no traced instructions in range)"
        base = min(t.first_cycle for t in traces)
        span = max(t.last_cycle for t in traces) - base + 1
        span = min(span, max_width)
        lines = [f"cycles {base}..{base + span - 1} "
                 f"(R without F/D = supplied by the reuse pointer)"]
        for trace in traces:
            row = ["."] * span
            for stage, cycle in trace.events.items():
                offset = cycle - base
                if 0 <= offset < span:
                    row[offset] = _STAGE_LETTER[stage]
            marker = "s" if trace.squashed else (
                "r" if trace.from_reuse else " ")
            lines.append(
                f"#{trace.seq:<6d}{marker} {trace.disasm:<28.28s} "
                f"{''.join(row)}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-paragraph summary of what was traced."""
        committed = self.committed_traces()
        reused = [t for t in committed if t.from_reuse]
        latencies = [t.latency() for t in committed
                     if t.latency() is not None]
        avg_latency = (sum(latencies) / len(latencies)) if latencies else 0
        return (f"{len(self.traces)} instructions traced "
                f"({self.dropped} beyond capacity), "
                f"{len(committed)} committed, {len(reused)} supplied by "
                f"the reuse pointer, average fetch-to-commit latency "
                f"{avg_latency:.1f} cycles")
