"""``serve-mixed``: cold sweeps beside open-loop warm submits.

``repro serve`` runs as a child process with ``--workers`` lanes and fresh
state and cache directories.  The benchmark process drives it through
:class:`repro.service.ServiceClient` over two connections:

* connection A is a closed loop of cold sweeps of one cell's baseline and
  reuse jobs, one job per lane (the seeded sequence of
  :func:`common.draw_serve_mixed`); every other sweep carries
  ``X-Trace-Id``, so the service runs it through ``execute_job_traced``;
* connection B submits the warm sweep (filled during set-up) on a fixed
  schedule of :data:`WARM_RATE` per second, whatever the server does; each
  submit is timed from when it was due.

The measured window is the closed loop's fixed cold work (16 sweeps,
about 25 s on two vCPUs), so ``--seconds`` does not set it.

Set-up (server start plus the cold fill of the warm sweep) is repeated
three times with fresh directories; the last server serves the run.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import common
from layers import RECORDER

#: Open-loop warm submit rate (per second), far below the warm path's
#: measured capacity of over a thousand submits per second.
WARM_RATE = 20.0
#: A run whose generator sent its warm submits later than this (tail,
#: behind schedule and not waiting on the connection) is invalid.
LAG_BOUND_MS = 100.0
SETUP_REPEATS = 3


class Server:
    """One ``repro serve`` child with its own state and cache."""

    def __init__(self, workers: int):
        self.directory = common.scratch_dir("serve-mixed-")
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._stderr = None

    def start(self, timeout: float = 60.0) -> None:
        path = os.path.join(self.directory, "server.err")
        self._stderr = open(path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(self.workers),
             "--state-dir", os.path.join(self.directory, "state"),
             "--cache-dir", os.path.join(self.directory, "cache"),
             "--log-out", os.path.join(self.directory, "server.jsonl")],
            cwd=common.ROOT, env=common.subprocess_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._stderr)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if "listening on http://" in line:
                        address = line.split("http://", 1)[1].split()[0]
                        self.port = int(address.rsplit(":", 1)[1])
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("repro serve did not start")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._stderr is not None:
            self._stderr.close()
        common.remove_dir(self.directory)


def _client(server: Server, name: str):
    from repro.service import ServiceClient
    return ServiceClient("127.0.0.1", server.port, client_id=name,
                         timeout=120.0)


async def _await_sweep(client, sweep_id: str, depths: List[int]) -> dict:
    """Long-poll until the sweep ends, sampling queue depth meanwhile."""
    since = 0
    while True:
        status = await client.status(sweep_id)
        if status["complete"] or status["failed"]:
            return status
        depths.append((await client.health())["depth"])
        page = await client.events(sweep_id, since=since, wait=2.0)
        since = page["next_since"]


def _check_results(payload: dict, check: common.DigestCheck,
                   runs: List[tuple]) -> None:
    """Digest-check a sweep's results; collect (counters, energy, reuse)."""
    from repro.power.activity import ActivityRecord
    from repro.sim.simulator import evaluate_power

    for item in payload["results"]:
        cell = (item["benchmark"], item["iq_size"], item["reuse"],
                item["optimize"])
        check.check(cell, item["record"])
        record = ActivityRecord.from_payload(item["record"])
        energy = evaluate_power(
            record, common.cell_config(item["iq_size"],
                                       item["reuse"])).total_energy
        runs.append((record.counters, energy, item["reuse"]))


async def _setup(server: Server, warm) -> float:
    start = time.monotonic()
    await asyncio.get_running_loop().run_in_executor(None, server.start)
    client = _client(server, "setup")
    try:
        receipt = await client.submit_sweep(benchmarks=[warm[0]],
                                            iq_sizes=[warm[1]])
        status = await client.wait_complete(receipt["sweep_id"],
                                            timeout=120.0)
        if status["failed"]:
            raise RuntimeError(f"serve-mixed set-up: warm fill failed "
                               f"({status})")
    finally:
        await client.close()
    return time.monotonic() - start


class Tally:
    """What the two connections observed."""

    def __init__(self):
        self.plain: List[float] = []
        self.traced: List[float] = []
        self.warm_due: List[float] = []
        self.warm_sent: List[float] = []
        self.warm_recorded: List[bool] = []
        self.lag: List[float] = []
        self.trace_fetch: List[float] = []
        self.depths: List[int] = [0]
        self.cold_runs: List[tuple] = []
        self.warm_runs: List[tuple] = []
        self.cold_jobs = 0
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.errors: List[str] = []

    def fail(self, what: str, reason) -> None:
        """A failed, refused (429/503) or timed-out operation."""
        self.failed += 1
        self.rejected += getattr(reason, "status", 0) in (429, 503)
        self.errors.append(f"{what} failed: {reason}")


async def _cold_loop(client, cold, seed: int, tally: Tally,
                     recording: bool) -> List[tuple]:
    """Closed loop; returns ``(sweep id, trace id)`` of completed sweeps."""
    from repro.service import ServiceError

    completed = []
    for index, (kernel, iq) in enumerate(cold):
        trace_id = f"perfbench-{seed}-{index}" if index % 2 else ""
        tally.attempted += 1
        start = time.monotonic()
        try:
            receipt = await client.submit_sweep(
                benchmarks=[kernel], iq_sizes=[iq], trace_id=trace_id)
            status = await _await_sweep(client, receipt["sweep_id"],
                                        tally.depths)
        except (ServiceError, ConnectionError, asyncio.TimeoutError) as exc:
            tally.fail(f"cold sweep {index}", exc)
            continue
        end = time.monotonic()
        if recording:
            RECORDER.record("service.cold_sweep", start, end,
                            unit=trace_id or f"sweep-{index}")
        if status["failed"]:
            tally.fail(f"cold sweep {index}", "a job failed")
            continue
        (tally.traced if trace_id else tally.plain).append(end - start)
        tally.cold_jobs += receipt["total"]
        completed.append((receipt["sweep_id"], trace_id))
    return completed


async def _fetch_outputs(client, completed, warm, tally: Tally,
                         check: common.DigestCheck) -> None:
    """Results of every sweep and the timeline of every traced one.

    Fetched after the measured window: decoding and validating a
    timeline of ~10^4 events on this process's event loop would delay
    connection B's responses and inflate the warm-submit latencies.
    """
    from repro.service import ServiceError
    from repro.telemetry import validate_trace

    for sweep_id, trace_id in completed:
        _check_results(await client.results(sweep_id), check,
                       tally.cold_runs)
        if not trace_id:
            continue
        start = time.monotonic()
        try:
            timeline = await client.trace_timeline(trace_id)
            tally.trace_fetch.append(time.monotonic() - start)
            validate_trace(timeline)
        except (ServiceError, ValueError) as exc:
            tally.errors.append(f"trace {trace_id}: {exc}")
    receipt = await client.submit_sweep(benchmarks=[warm[0]],
                                        iq_sizes=[warm[1]])
    _check_results(await client.results(receipt["sweep_id"]), check,
                   tally.warm_runs)


async def _warm_loop(client, warm, tally: Tally, cold_done: asyncio.Event,
                     recording: bool) -> None:
    """Open loop: submit i is due at ``start + i / WARM_RATE``, until the
    closed loop is done."""
    from repro.service import ServiceError

    start = time.monotonic()
    index = 0
    free_at = start  # when the connection finished its last request
    while True:
        due = start + index / WARM_RATE
        now = time.monotonic()
        if now < due:
            await asyncio.sleep(due - now)
        if cold_done.is_set():
            return
        sent = time.monotonic()
        tally.lag.append(sent - max(due, free_at))
        tally.attempted += 1
        try:
            await client.submit_sweep(benchmarks=[warm[0]],
                                      iq_sizes=[warm[1]])
        except (ServiceError, ConnectionError, asyncio.TimeoutError) as exc:
            # a refused submit's short latency is not a result: it fails
            # the run instead of lowering the submit times
            tally.fail(f"warm submit {index}", exc)
            free_at = time.monotonic()
            index += 1
            continue
        free_at = time.monotonic()
        # a traced run records every other submit: the two halves give
        # the recording overhead
        recorded = recording and index % 2 == 1
        if recorded:
            RECORDER.record("service.warm_submit", sent, free_at,
                            unit=f"warm-{index}")
        tally.warm_due.append(free_at - due)
        tally.warm_sent.append(free_at - sent)
        tally.warm_recorded.append(recorded)
        index += 1


async def _measure(server: Server, seed: int, trace: bool,
                   warm, cold, check: common.DigestCheck):
    """The measured window: the closed loop's cold sweeps, with the open
    loop's warm submits beside them; then the outputs are fetched."""
    a = _client(server, "closed-loop")
    b = _client(server, "open-loop")
    tally = Tally()
    try:
        before = await a.metrics()
        cold_done = asyncio.Event()
        warm_task = asyncio.ensure_future(_warm_loop(
            b, warm, tally, cold_done, trace))
        try:
            completed = await _cold_loop(a, cold, seed, tally, trace)
        finally:
            cold_done.set()
            await warm_task
        after = await a.metrics()
        await _fetch_outputs(a, completed, warm, tally, check)
    finally:
        await a.close()
        await b.close()
    return tally, before, after


def _histogram(snapshot: dict, name: str, **labels):
    """``(bounds, cumulative buckets, count)`` of one labelled sample."""
    for metric in snapshot["metrics"]:
        if metric["name"] != name:
            continue
        for sample in metric["samples"]:
            if all(sample["labels"].get(k) == str(v)
                   for k, v in labels.items()):
                return sample["bounds"], sample["buckets"], sample["count"]
    return None


def _window_p50(before: dict, after: dict, name: str, **labels) -> float:
    """Median of the observations made between two scrapes.

    Interpolates linearly inside the histogram bucket holding the median
    (the server's buckets are coarse, so this is an estimate).
    """
    late = _histogram(after, name, **labels)
    if late is None:
        return 0.0
    early = _histogram(before, name, **labels)
    bounds, buckets, count = late
    if early is not None:
        buckets = [x - y for x, y in zip(buckets, early[1])]
        count -= early[2]
    if count <= 0:
        return 0.0
    target = count / 2.0
    lower, below = 0.0, 0
    for bound, cumulative in zip(bounds, buckets):
        if cumulative >= target:
            inside = cumulative - below
            return lower + (bound - lower) * (
                (target - below) / inside if inside else 1.0)
        lower, below = bound, cumulative
    return bounds[-1]


def _counter(snapshot: dict, name: str, **labels) -> float:
    for metric in snapshot["metrics"]:
        if metric["name"] == name:
            return sum(sample["value"] for sample in metric["samples"]
                       if all(sample["labels"].get(k) == str(v)
                              for k, v in labels.items()))
    return 0.0


def _telemetry_ratio(kernel: str, iq: int, reuse: bool) -> Dict[str, float]:
    """A run with the traced lanes' telemetry session over one without."""
    from repro.sim.simulator import run_timing
    from repro.telemetry import TelemetrySession
    from repro.workloads.suite import WorkloadSuite

    program = WorkloadSuite().program(kernel)
    config = common.cell_config(iq, reuse)
    run_timing(program, config)  # warm-up: the first run in a process
    start = time.monotonic()
    run_timing(program, config)
    plain = time.monotonic() - start
    session = TelemetrySession(stride=16, stages=True)
    start = time.monotonic()
    run_timing(program, config, telemetry=session)
    traced = time.monotonic() - start
    RECORDER.active = True
    with RECORDER.span("telemetry.timeline_build"):
        session.build_timeline()
    RECORDER.active = False
    return {"telemetry.traced_over_untraced": traced / plain}


def run(seed: int, seconds: float, trace: bool):
    warm, cold = common.draw_serve_mixed(seed)
    jobs = common.pool_size()
    check = common.DigestCheck()
    servers = [Server(jobs) for _ in range(SETUP_REPEATS)]
    try:
        setup = []
        for index, server in enumerate(servers):
            setup.append(asyncio.run(_setup(server, warm)))
            if index < len(servers) - 1:
                server.stop()
        tally, before, after = asyncio.run(_measure(
            servers[-1], seed, trace, warm, cold, check))
    finally:
        for server in servers:
            server.stop()

    if not (tally.plain and tally.traced and tally.warm_due):
        raise RuntimeError("serve-mixed: no successful operation of a kind; "
                           + "; ".join(tally.errors[:5]))
    lag_ms = [lag * 1e3 for lag in tally.lag]
    lag_tail = common.tail(lag_ms)
    errors = check.mismatches + tally.errors
    if lag_tail[0] > LAG_BOUND_MS:
        errors.append(f"invalid run: load generator ran {lag_tail[0]:.1f} "
                      f"ms late (bound {LAG_BOUND_MS} ms)")
    due_ms = [x * 1e3 for x in tally.warm_due]
    tails = {"sweep_turnaround": common.tail(tally.plain),
             "traced_turnaround": common.tail(tally.traced),
             "submit": common.tail(due_ms),
             "loadgen_lag": lag_tail}
    cycles = sum(counters["cycles"] for counters, _, _ in tally.cold_runs)
    # the closed loop's busy time, each sweep from submit to completion
    busy = sum(tally.plain) + sum(tally.traced)
    values = {
        "setup_s": common.median(setup),
        # the warm submits arrive at the offered rate: counting their
        # jobs would report the input, not the service
        "jobs_per_s": tally.cold_jobs / busy,
        "sim_cycles_per_s": cycles / busy,
        "sweep_turnaround_p50_s": common.median(tally.plain),
        "sweep_turnaround_tail_s": tails["sweep_turnaround"][0],
        "traced_turnaround_p50_s": common.median(tally.traced),
        "traced_turnaround_tail_s": tails["traced_turnaround"][0],
        "submit_p50_ms": common.median(due_ms),
        "submit_tail_ms": tails["submit"][0],
    }
    layer: Dict[str, float] = {}
    if trace:
        def split(runs, reuse):
            return [(c, e) for c, e, r in runs if r == reuse]
        layer.update(common.sim_aggregates(split(tally.cold_runs, False),
                                           split(tally.cold_runs, True)))
        fracs = common.sim_aggregates(split(tally.warm_runs, False),
                                      split(tally.warm_runs, True))
        for name in ("gated_cycle_frac", "energy_saving_frac",
                     "ipc_loss_frac"):
            layer[name] = fracs[name]
        server_p50 = _window_p50(before, after, "service_request_seconds",
                                 route="/api/sweeps") * 1e3
        plain = [x for x, rec in zip(tally.warm_sent, tally.warm_recorded)
                 if not rec]
        recorded = [x for x, rec in zip(tally.warm_sent,
                                        tally.warm_recorded) if rec]
        layer.update({
            "service.http.server_p50_ms": server_p50,
            "service.http.client_gap_ms":
                common.median(plain) * 1e3 - server_p50,
            "service.jobqueue.wait_p50_s": _window_p50(
                before, after, "service_queue_wait_seconds"),
            "service.jobqueue.depth_max": max(tally.depths),
            "service.workers.run_p50_s": _window_p50(
                before, after, "service_worker_run_seconds", result="sim"),
            "service.workers.retries":
                _counter(after, "service_jobs_total", kind="retried")
                - _counter(before, "service_jobs_total", kind="retried"),
            "service.rejected": tally.rejected,
            "service.http.trace_fetch_ms":
                common.median(tally.trace_fetch) * 1e3
                if tally.trace_fetch else 0.0,
            "loadgen.lag_tail_ms": lag_tail[0],
            "bench.tracing_overhead_frac":
                common.median(recorded) / common.median(plain) - 1.0,
        })
        kernel, iq = cold[0]
        layer.update(_telemetry_ratio(kernel, iq, True))
    return values, tails, layer, tally.attempted, tally.failed, errors
