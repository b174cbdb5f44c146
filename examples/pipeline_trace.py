#!/usr/bin/env python
"""Watch the reuse pointer work: a pipeline-diagram demonstration.

Runs a tiny loop with per-instruction tracing on both machines and prints
classic pipeline diagrams.  On the baseline every instruction shows the
full F-D-R-I-X-C lifecycle; on the reuse machine, once Code Reuse engages,
instructions appear with **no F or D events** -- they were never fetched or
decoded, the issue queue itself re-dispatched them (rows marked ``r``).

Run:  python examples/pipeline_trace.py
"""

from repro import MachineConfig, Pipeline, assemble
from repro.arch.trace import PipelineTracer

SOURCE = """
.text
    li $t0, 0
    li $t1, 12
top:
    addiu $t2, $t0, 5
    sll   $t3, $t2, 1
    subu  $t4, $t3, $t0
    addiu $t0, $t0, 1
    slt   $t5, $t0, $t1
    bne   $t5, $zero, top
    halt
"""


def run(reuse):
    program = assemble(SOURCE, name="trace_demo")
    tracer = PipelineTracer()
    config = MachineConfig().with_iq_size(32).replace(reuse_enabled=reuse)
    pipeline = Pipeline(program, config)
    pipeline.attach_probe(tracer)
    pipeline.run()
    return pipeline, tracer


def main():
    print("legend: F fetch, D decode, R rename/dispatch, I issue, "
          "X complete, C commit; 'r' rows were supplied by the reuse "
          "pointer\n")

    baseline, base_trace = run(reuse=False)
    print("=== conventional issue queue (iterations 3-4) ===")
    committed = base_trace.committed_traces()
    window = [t for t in committed if 15 <= t.seq <= 26]
    print(base_trace.render_timeline(window[0].seq, window[-1].seq))
    print()

    reuse, reuse_trace = run(reuse=True)
    reused = reuse_trace.reuse_traces()
    print("=== reuse-capable issue queue (first reused iterations) ===")
    first = reused[0].seq
    print(reuse_trace.render_timeline(first, first + 11))
    print()
    print(reuse_trace.summary())
    print(f"front-end gated {reuse.stats.gated_fraction:.0%} of cycles; "
          f"cycles: {baseline.stats.cycles} baseline vs "
          f"{reuse.stats.cycles} reuse")


if __name__ == "__main__":
    main()
