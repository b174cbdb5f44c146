"""Span recording for the traced run, from the benchmark's own files.

A traced run wraps the public functions at each layer boundary (see
``install``) so every call records a span: layer name, start, end, the
enclosing span and the id of the sweep or mutant it belongs to.
Pool workers record into their own (forked) recorder and ship their spans
back inside the task's return value; the parent adopts them.  Spans stay in
memory until the run ends, when :func:`self_times` aggregates them and
:func:`chrome_trace` renders them for Perfetto.

Nothing here attaches a probe or a telemetry session to a simulation:
wrapping ``run_timing`` times the call without changing which core runs.
The wrappers record only while :attr:`Recorder.active` is set, so a traced
run can alternate instrumented and plain units and measure its own
overhead.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Key under which a worker's spans ride back in a task's return value.
SPANS_KEY = "_bench_spans"


class Recorder:
    """In-memory spans of one process: ``[name, start, end, parent,
    pid, unit]`` lists, ``parent`` indexing the same list."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.active = False
        self.unit = ""
        self.spans: List[list] = []
        self._stack: List[int] = []

    def in_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def begin_worker(self) -> None:
        """Drop the state a forked worker inherited from its parent."""
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        entry = [name, time.monotonic(), None, parent, os.getpid(),
                 self.unit]
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry[2] = time.monotonic()
            self._stack.pop()

    def record(self, name: str, start: float, end: float,
               unit: str = "") -> None:
        """A flat span measured by the caller (async client calls)."""
        self.spans.append([name, start, end, None, os.getpid(),
                           unit or self.unit])

    def export(self) -> List[list]:
        spans, self.spans, self._stack = self.spans, [], []
        return spans

    def adopt(self, spans: Optional[List[list]]) -> None:
        """Append a worker's spans, re-basing their parent indices."""
        if not spans:
            return
        offset = len(self.spans)
        for name, start, end, parent, pid, unit in spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + offset,
                               pid, unit])


RECORDER = Recorder()


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def _save(self, owner: Any, attr: str) -> Any:
        # a class's own __dict__ keeps a classmethod a classmethod
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        return raw

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        raw = self._save(owner, attr)
        if isinstance(raw, classmethod):
            func = raw.__func__

            def timed_cm(cls, *args, **kwargs):
                with RECORDER.span(name):
                    return func(cls, *args, **kwargs)
            setattr(owner, attr, classmethod(timed_cm))
            return

        def timed(*args, **kwargs):
            with RECORDER.span(name):
                return raw(*args, **kwargs)
        setattr(owner, attr, timed)

    def replace(self, owner: Any, attr: str, value: Any) -> Any:
        """Swap in ``value``; returns the original."""
        raw = self._save(owner, attr)
        setattr(owner, attr, value)
        return raw

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- runner / power / compiler layers -----------------------------------------

_ORIGINAL: Dict[str, Callable] = {}
#: ``[probes, hits]`` of the result cache while recording.
CACHE_PROBES = [0, 0]


def worker_execute_job(job):
    """Pool-worker stand-in for ``execute_job`` that ships its spans."""
    original = _ORIGINAL["execute_job"]
    if not RECORDER.active or not RECORDER.in_worker():
        return original(job)
    RECORDER.begin_worker()
    with RECORDER.span("runner.worker"):
        payload = dict(original(job))
    payload[SPANS_KEY] = RECORDER.export()
    return payload


def install_runner(patches: Patches) -> None:
    """Wrap the layers the reproduce path crosses (sweep-cold)."""
    import concurrent.futures

    from repro.power import activity, model
    from repro.runner import cache, executor
    from repro.workloads import suite

    patches.wrap(suite.WorkloadSuite, "program", "compiler.build")
    patches.wrap(executor, "job_key", "runner.jobs.key")
    load = cache.ResultCache.load

    def counted_load(self, key):
        with RECORDER.span("runner.cache.load"):
            record = load(self, key)
        if RECORDER.active:
            CACHE_PROBES[0] += 1
            CACHE_PROBES[1] += record is not None
        return record
    patches.replace(cache.ResultCache, "load", counted_load)
    patches.wrap(cache.ResultCache, "store", "runner.cache.store")
    patches.wrap(executor.JobExecutor, "run", "runner.executor.self")
    patches.wrap(concurrent.futures, "wait", "runner.executor.wait")
    patches.wrap(executor, "run_timing", "arch.run")
    patches.wrap(executor, "evaluate_power", "power.evaluate")
    patches.wrap(model.PowerModel, "component_energies", "power.evaluate")
    patches.wrap(activity.ActivityRecord, "to_payload",
                 "power.activity.encode")
    patches.wrap(activity.ActivityRecord, "from_payload",
                 "power.activity.decode")
    _ORIGINAL["execute_job"] = patches.replace(executor, "execute_job",
                                               worker_execute_job)
    finish = executor.JobExecutor._finish

    def adopting_finish(self, job, key, payload, results, wall_time):
        RECORDER.adopt(payload.pop(SPANS_KEY, None))
        return finish(self, job, key, payload, results, wall_time)
    patches.replace(executor.JobExecutor, "_finish", adopting_finish)


# -- aggregation and export ---------------------------------------------------

def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans: List[list]) -> Dict[str, Tuple[float, int]]:
    """``{layer: (summed self seconds, calls)}``.

    Self time is a span's duration minus the union of its children.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, Tuple[float, int]] = {}
    for index, (name, start, end, _, _, _) in enumerate(spans):
        own = (end - start) - _union(children.get(index, []))
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + max(own, 0.0), calls + 1)
    return totals


def total_time(spans: List[list], name: str) -> float:
    return sum(end - start for n, start, end, _, _, _ in spans if n == name)


def chrome_trace(spans: List[list], title: str) -> Dict[str, Any]:
    """The spans as a Chrome trace-event object (one track per process)."""
    origin = min((span[1] for span in spans), default=0.0)
    pids = sorted({span[4] for span in spans})
    events: List[Dict[str, Any]] = []
    for pid in pids:
        label = title if pid == RECORDER.main_pid else f"pool worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for name, start, end, _, pid, unit in spans:
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "pid": pid, "tid": 0,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round(max(end - start, 0.0) * 1e6, 3),
            "args": {"id": unit},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"title": title}}
