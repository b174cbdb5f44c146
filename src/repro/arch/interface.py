"""The seam between simulation drivers and pipeline core engines.

:class:`CoreInterface` is the structural protocol every cycle-level core
implements.  Two engines exist today:

* :class:`repro.arch.pipeline.Pipeline` -- the **object core**: one
  ``DynInst`` object per in-flight instruction, queue entries as objects.
  Reference semantics, full probe support, the engine every probe,
  tracer and crosscheck runs against.
* :class:`repro.arch.fastcore.FastPipeline` -- the **array core**: all
  in-flight state lives in preallocated parallel columns indexed by slot
  id.  Bit-exact with the object core (byte-identical activity records)
  but several times faster on the no-probe path.  Attaching a probe
  *before the first cycle* transparently falls back to a delegate object
  core so observers keep working unchanged.

``sim.simulator.run_timing(engine=...)`` selects between them; see
``docs/pipeline.md`` for when to pick which.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from repro.arch.stats import PipelineStats


@runtime_checkable
class CoreInterface(Protocol):
    """What a pipeline core must expose to drivers and activity capture.

    Attributes (all read after or between cycles, never mutated by
    callers): ``program``, ``config``, ``stats``, ``hierarchy``,
    ``predictor``, ``mem_image``, ``fetch_unit`` (needs ``.loop_cache``),
    ``controller`` (the :func:`repro.core.controller_for` instance the
    core drives), ``cycle`` and ``halted``.
    """

    cycle: int
    halted: bool
    stats: PipelineStats

    def run(self, max_cycles: Optional[int] = None) -> PipelineStats:
        """Run to the committed halt; raises SimulationTimeout otherwise."""
        ...

    def step(self) -> None:
        """Advance the machine by exactly one cycle."""
        ...

    def attach_probe(self, probe) -> None:
        """Attach an observer (see :mod:`repro.arch.probe`)."""
        ...

    def detach_probe(self, probe) -> None:
        """Detach a previously attached observer."""
        ...

    def architectural_registers(self) -> List:
        """Committed register values (for oracle comparison)."""
        ...
