"""Regenerate ``perfbench/digests.json``, the benchmark's reference digests.

One SHA-256 per (kernel, IQ size, baseline/reuse) cell any seed can draw:
the whole 8 x 4 Fig. 5-8 grid, original (not optimized) code, keyed with
an ``/orig`` suffix.  Each digest hashes the cell's
``ActivityRecord`` payload serialised with sorted keys.  The records come
from the object core, the reference implementation every other engine must
match bit for bit, so the digests stay valid when the default engine
changes.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/gen_digests.py
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402  (sets up the import path of the repo's src/)

from repro.arch.config import SWEEP_IQ_SIZES  # noqa: E402
from repro.sim.simulator import run_timing  # noqa: E402
from repro.workloads.suite import BENCHMARK_NAMES, WorkloadSuite  # noqa: E402


def reference_cells():
    """Every cell key a seed can draw, in a stable order."""
    return [(kernel, iq, reuse, False) for kernel in BENCHMARK_NAMES
            for iq in SWEEP_IQ_SIZES for reuse in (False, True)]


def _digest_cell(cell):
    kernel, iq, reuse, optimize = cell
    program = WorkloadSuite().program(kernel, optimize=optimize)
    record = run_timing(program, common.cell_config(iq, reuse),
                        engine="object")
    return common.cell_id(*cell), common.record_digest(
        record.to_payload())


def main() -> int:
    cells = reference_cells()
    with concurrent.futures.ProcessPoolExecutor(common.pool_size()) as pool:
        digests = dict(pool.map(_digest_cell, cells))
    with open(common.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {common.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
