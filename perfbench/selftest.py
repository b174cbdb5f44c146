"""Self-test of the benchmark's own checks (about two seconds).

Run from the repository root::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the workloads and metrics the
   benchmark prints, with the same units.
2. The correctness check accepts a freshly simulated record and rejects
   the same record with one counter altered by one.
3. For the default seed, the held-out seed and seeds 0-999, every cell a
   workload draws has a reference digest; every seed's sweep-cold pass is
   the same fixed cells (every kernel, each IQ size four times), and its
   serve-mixed closed loop is 16 distinct cold cells besides the warm one.
4. The tail rule picks the sample with exactly ten samples beyond it.
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import run  # noqa: E402


def check_catalog() -> None:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(common.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(common.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def check_digest_rejects_altered_counter() -> None:
    from repro.sim.simulator import run_timing
    from repro.workloads.suite import WorkloadSuite

    cell = ("tsf", 32, False, False)
    record = run_timing(WorkloadSuite().program("tsf"),
                        common.cell_config(32, False))
    payload = record.to_payload()
    check = common.DigestCheck()
    assert check.check(cell, payload), check.mismatches
    altered = copy.deepcopy(payload)
    altered["counters"]["gated_cycles"] += 1
    assert not check.check(cell, altered), "altered counter passed"
    assert check.mismatches == [f"{common.cell_id(*cell)}: record differs "
                                "from reference"]


def check_seed_coverage() -> None:
    digests = common.load_digests()
    seeds = [common.DEFAULT_SEED, common.HELDOUT_SEED, *range(1000)]
    for workload in run.WORKLOADS:
        for seed in seeds:
            for cell in common.drawn_cells(workload, seed):
                assert common.cell_id(*cell) in digests, (workload, seed,
                                                          cell)
    kernels = {k for k, _ in common.SWEEP_COLD_CELLS}
    assert kernels == set(common.KERNELS)
    for iq in common.IQ_SIZES:
        assert sum(size == iq for _, size in common.SWEEP_COLD_CELLS) == 4
    for seed in seeds:
        assert sorted(common.draw_sweep_cold(seed)) == \
            sorted(common.SWEEP_COLD_CELLS)
        warm, cold = common.draw_serve_mixed(seed)
        assert len(set(cold)) == len(cold) == 16 and warm not in cold


def check_tail_rule() -> None:
    assert common.tail(range(100)) == (89, 90.0, 100)
    assert common.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def main() -> int:
    for test in (check_catalog, check_digest_rejects_altered_counter,
                 check_seed_coverage, check_tail_rule):
        test()
        print(f"[selftest] {test.__name__}: ok")
    print("[selftest] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
