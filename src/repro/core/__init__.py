"""The paper's contribution: scheduling reusable instructions.

This package implements Section 2 of the paper on top of the
:mod:`repro.arch` substrate:

* :mod:`repro.core.states` -- the issue-queue state machine
  (Normal / Loop Buffering / Code Reuse, Figure 2),
* :mod:`repro.core.loop_detector` -- decode-stage detection of capturable
  loops (Section 2.1),
* :mod:`repro.core.nblt` -- the non-bufferable loop table (Section 2.2.3),
* :mod:`repro.core.lrl` -- the logical register list,
* :mod:`repro.core.controller` -- the :class:`ReuseController` that owns
  buffering strategy, procedure-call handling, the reuse pointer, the gate
  signal and every revoke/recovery rule (Sections 2.2-2.5),
* :mod:`repro.core.trace_controller` -- the trace-level generalization
  (:class:`TraceReuseController`, beyond the paper; see
  ``docs/trace_reuse.md``).

The controllers are engine-neutral: both pipeline cores construct them
with :func:`controller_for` and drive them with per-instruction scalars
and opaque issue-queue entry handles, so each mechanism exists once.
"""

from repro.core.controller import ReuseController
from repro.core.loop_detector import LoopCandidate, LoopDetector
from repro.core.lrl import LogicalRegisterList
from repro.core.nblt import NonBufferableLoopTable
from repro.core.states import IQState
from repro.core.trace_controller import TraceHeadTable, TraceReuseController

#: Controller variants keyed by ``MachineConfig.reuse_mode`` (the CLI's
#: ``--reuse {loop,trace}`` selector; ``off`` disables reuse entirely and
#: never reaches this registry).
CONTROLLERS = {
    "loop": ReuseController,
    "trace": TraceReuseController,
}


def controller_for(mode: str):
    """Controller class for ``mode`` (raises on unknown modes)."""
    try:
        return CONTROLLERS[mode]
    except KeyError:
        raise ValueError(
            f"unknown reuse mode {mode!r} (choices: "
            f"{', '.join(sorted(CONTROLLERS))})") from None


__all__ = [
    "CONTROLLERS",
    "controller_for",
    "ReuseController",
    "TraceHeadTable",
    "TraceReuseController",
    "LoopCandidate",
    "LoopDetector",
    "LogicalRegisterList",
    "NonBufferableLoopTable",
    "IQState",
]
