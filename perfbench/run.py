"""The repository benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics, writes a Chrome
trace under ``.bench_runs/traces/`` and prints the per-layer table with
the recording overhead.  Every run checks the program's outputs against
``perfbench/digests.json`` and appends one trajectory entry to
``perfbench/results/trajectory.jsonl``.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when the outputs were correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402  (exits when there is no repro tree)
import layers  # noqa: E402

WORKLOADS = ("sweep-cold", "serve-mixed", "fuzz")


def _run(workload: str, seed: int, seconds: float, trace: bool):
    """``(e2e values, tails, per-layer values, attempted, failed,
    errors)`` of one workload run."""
    if workload == "sweep-cold":
        import wl_runner
        result = wl_runner.sweep_cold(seed, seconds, trace)
        values, tails = wl_runner.end_to_end(result)
        layer = wl_runner.per_layer(result, layers.RECORDER.spans) \
            if trace else {}
        attempted = sum(u.jobs for u in result["units"])
        return (values, tails, layer, attempted, 0,
                result["check"].mismatches)
    if workload == "serve-mixed":
        import wl_serve
        return wl_serve.run(seed, seconds, trace)
    import wl_fuzz
    return wl_fuzz.run(seed, seconds, trace)


def _layer_metrics(layer_values):
    """Every per-layer metric: span self times first, then the rest."""
    values = {name: 0.0 for name, _ in common.PER_LAYER}
    for name, (seconds, calls) in layers.self_times(
            layers.RECORDER.spans).items():
        if f"{name}_s" in values:
            values[f"{name}_s"] = seconds
            values[f"{name}_calls"] = calls
    values.update(layer_values)
    return values


def _write_trace(workload: str, seed: int) -> str:
    from repro.telemetry import validate_trace

    payload = layers.chrome_trace(layers.RECORDER.spans,
                                  f"perfbench {workload} seed {seed}")
    validate_trace(payload)
    directory = os.path.join(common.RUNS_DIR, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # a terminated run still stops its server and pools on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    values, tails, layer_values, attempted, failed, errors = _run(
        args.workload, args.seed, args.seconds, trace)
    values["peak_rss_mb"] = common.peak_rss_mb()
    layer_values.update({name: values[name] for name, _ in common.TAILS})
    layer_values.setdefault("fail_ratio",
                            failed / attempted if attempted else 0.0)

    entry = common.provenance(args.workload, args.seed, args.seconds,
                              trace)
    print("[perfbench] " + json.dumps(entry, sort_keys=True))
    for name, (value, percentile, n) in tails.items():
        print(f"[perfbench] {name}: tail p{percentile:.1f} of {n} samples")
    if trace:
        units = dict(common.PER_LAYER)
        metrics = _layer_metrics(layer_values)
        entry["trace_file"] = os.path.relpath(
            _write_trace(args.workload, args.seed), common.ROOT)
        print(f"[perfbench] per-layer (recording overhead "
              f"{metrics['bench.tracing_overhead_frac']:+.1%}, "
              f"trace {entry['trace_file']})")
        for name, _ in common.PER_LAYER:
            print(f"[perfbench]   {name:36s} {metrics[name]:>14.6g} "
                  f"{units[name]}")
    else:
        units = dict(common.END_TO_END)
        metrics = {name: values[name] for name, _ in common.END_TO_END}
    if failed:
        errors = errors + [f"{failed} of {attempted} operations failed"]
    correct = not errors
    for error in errors[:20]:
        print(f"[perfbench] ERROR {error}")
    entry.update(correct=correct, attempted=attempted, failed=failed,
                 metrics=metrics,
                 tails={name: {"value": v, "percentile": p, "samples": n}
                        for name, (v, p, n) in tails.items()})
    os.makedirs(os.path.dirname(common.TRAJECTORY_PATH), exist_ok=True)
    with open(common.TRAJECTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
