"""Tests for the telemetry substrate: metrics, sampler, timeline.

Three contracts matter here:

* metric snapshots are **byte-deterministic** -- the same observations
  produce identical JSON regardless of insertion order (the property CI
  asserts across ``--jobs`` levels);
* the :class:`SamplingProbe` is **passive** (probed and probe-free runs
  are bit-identical) and its *exact* products -- state intervals, gating
  windows -- do not depend on the stride;
* every timeline the builders produce passes the same
  :func:`validate_trace` schema checker CI runs over exported files.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.config import MachineConfig
from repro.isa.assembler import assemble
from repro.sim.simulator import run_timing, simulate
from repro.telemetry import (
    MetricRegistry,
    PhaseProfiler,
    SamplingProbe,
    TelemetrySession,
    TimelineBuilder,
    registry_from_activity,
    runner_timeline,
    validate_trace,
    validate_trace_file,
)
from repro.telemetry.metrics import Counter, Histogram

LOOP = """
.text
    li $t0, 0
    li $t1, 40
top:
    addiu $t2, $t0, 5
    sll   $t3, $t2, 1
    addiu $t0, $t0, 1
    slt   $t4, $t0, $t1
    bne   $t4, $zero, top
    halt
"""


def _program():
    return assemble(LOOP, name="telemetry-loop")


def _config(reuse=True, iq=32):
    return MachineConfig().with_iq_size(iq).replace(reuse_enabled=reuse)


class TestMetricPrimitives:
    def test_counter_accumulates_per_labelset(self):
        counter = Counter("events_total")
        counter.inc(kind="done")
        counter.inc(3, kind="done")
        counter.inc(kind="failed")
        assert counter.value(kind="done") == 4
        assert counter.value(kind="failed") == 1
        assert counter.value(kind="never") == 0
        assert counter.total() == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_bad_metric_name_rejected(self):
        for name in ("", "has space", "has-dash"):
            with pytest.raises(ValueError):
                Counter(name)

    def test_gauge_set_and_adjust(self):
        registry = MetricRegistry()
        gauge = registry.gauge("occupancy")
        gauge.set(5.0, track="iq")
        gauge.adjust(-2.0, track="iq")
        assert gauge.value(track="iq") == 3.0

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram("seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        [sample] = hist._sample_payloads()
        assert sample["buckets"] == [1, 3, 4]   # <=0.1, <=1, <=10
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(56.05)

    def test_histogram_rejects_bad_bounds(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                Histogram("x", buckets=bad)

    def test_registry_is_typed(self):
        registry = MetricRegistry()
        registry.counter("thing")
        assert registry.counter("thing") is registry.get("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_snapshot_is_insertion_order_independent(self):
        def populate(registry, order):
            for kind in order:
                registry.counter("events_total").inc(kind=kind)
            registry.gauge("zz_last").set(1.0)
            registry.gauge("aa_first").set(2.0)
            return registry

        one = populate(MetricRegistry(), ("done", "failed", "done"))
        two = populate(MetricRegistry(), ("failed", "done", "done"))
        assert one.to_json() == two.to_json()
        assert one.snapshot()["schema"] == 1

    def test_registry_from_activity_exports_counters(self):
        record = run_timing(_program(), _config())
        registry = registry_from_activity(record, mode="reuse")
        assert registry.counter("sim_cycles").value(mode="reuse") \
            == record["cycles"]
        assert registry.gauge("sim_ipc").value(mode="reuse") \
            == pytest.approx(record["committed"] / record["cycles"])

    def test_stats_to_registry_matches_as_dict(self):
        _, pipeline = run_timing(_program(), _config(),
                                 keep_pipeline=True)
        registry = pipeline.stats.to_registry()
        for name, value in pipeline.stats.as_dict().items():
            assert registry.counter(f"sim_{name}").total() == value


class TestSamplingProbe:
    def test_stride_validation(self):
        with pytest.raises(ValueError):
            SamplingProbe(stride=0)

    def test_stride_one_samples_every_cycle(self):
        probe = SamplingProbe(stride=1)
        _, pipeline = run_timing(_program(), _config(),
                                 keep_pipeline=True, probes=(probe,))
        assert len(probe) == pipeline.cycle
        assert probe.samples["cycle"] == list(range(1, pipeline.cycle + 1))

    def test_probe_is_passive_at_any_stride(self):
        plain = run_timing(_program(), _config())
        for stride in (1, 7, 64):
            probed = run_timing(_program(), _config(),
                                probes=(SamplingProbe(stride=stride),))
            assert probed == plain

    def test_exact_products_identical_across_strides(self):
        fine, coarse = SamplingProbe(stride=1), SamplingProbe(stride=64)
        run_timing(_program(), _config(), probes=(fine, coarse))
        assert fine.closed_state_intervals() \
            == coarse.closed_state_intervals()
        assert fine.closed_gating_windows() \
            == coarse.closed_gating_windows()
        assert fine.gated_cycle_total() == coarse.gated_cycle_total()
        # only the strided series thins out
        assert len(coarse) == (len(fine) + 63) // 64

    def test_gated_total_matches_pipeline_stats(self):
        # the probe observes the gate at end-of-cycle, stats count it at
        # the top of the next step: window lengths still agree on any
        # run that ends ungated (every halting run does)
        probe = SamplingProbe()
        _, pipeline = run_timing(_program(), _config(),
                                 keep_pipeline=True, probes=(probe,))
        assert pipeline.stats.gated_cycles > 0
        assert probe.gated_cycle_total() == pipeline.stats.gated_cycles

    def test_state_intervals_partition_the_run(self):
        probe = SamplingProbe(stride=16)
        _, pipeline = run_timing(_program(), _config(),
                                 keep_pipeline=True, probes=(probe,))
        intervals = probe.closed_state_intervals()
        assert intervals[0][1] == 1
        assert intervals[-1][2] == pipeline.cycle
        covered = sum(last - first + 1 for _, first, last in intervals)
        assert covered == pipeline.cycle
        for (_, _, prev_last), (_, next_first, _) in zip(intervals,
                                                         intervals[1:]):
            assert next_first == prev_last + 1
        assert {name for name, _, _ in intervals} >= {"NORMAL", "REUSE"}

    def test_summary_and_payload_shapes(self):
        probe = SamplingProbe(stride=4)
        run_timing(_program(), _config(), probes=(probe,))
        summary = probe.summary()
        assert summary["stride"] == 4
        assert summary["samples"] == len(probe)
        assert summary["iq_occupancy_max"] >= summary["iq_buffered_max"]
        payload = probe.to_payload()
        assert payload["schema"] == 1
        assert set(payload["series"]) == set(probe.samples)


class TestControllerEventCycles:
    def test_events_carry_their_cycle(self):
        _, pipeline = run_timing(_program(), _config(),
                                 keep_pipeline=True)
        events, cursor = pipeline.controller.iter_events_since(0)
        assert events and cursor == len(events)
        assert all(event.cycle > 0 for event in events)
        cycles = [event.cycle for event in events]
        assert cycles == sorted(cycles)
        # a drained cursor yields nothing and does not move
        again, cursor2 = pipeline.controller.iter_events_since(cursor)
        assert again == () and cursor2 == cursor


class TestTimeline:
    def _session(self, stages=False, stride=1):
        session = TelemetrySession(stride=stride, stages=stages)
        run_timing(_program(), _config(), telemetry=session)
        return session

    def test_built_timeline_validates(self):
        payload = self._session().build_timeline()
        validate_trace(payload)
        names = {event["name"] for event in payload["traceEvents"]}
        assert "front-end gated" in names
        assert "iq occupancy" in names
        assert any(event.get("cat") == "buffering"
                   for event in payload["traceEvents"])

    def test_stage_spans_present_with_stages(self):
        payload = self._session(stages=True).build_timeline()
        validate_trace(payload)
        begins = [e for e in payload["traceEvents"] if e["ph"] == "b"]
        assert begins
        assert any(e["cat"] == "instruction-reuse" for e in begins)

    def test_write_trace_roundtrips(self, tmp_path):
        session = self._session()
        path = tmp_path / "trace.json"
        session.write_trace(path)
        payload = validate_trace_file(path)
        assert payload["otherData"]["program"] == "telemetry-loop"

    def test_session_metrics_include_sampled_aggregates(self, tmp_path):
        session = self._session()
        path = tmp_path / "metrics.json"
        session.write_metrics(path, mode="reuse")
        snapshot = json.loads(path.read_text())
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert "sim_cycles" in names
        assert "sampled_iq_occupancy_mean" in names
        assert "sampled_cycles_total" in names

    def test_host_phases_recorded(self):
        session = self._session()
        names = {name for name, _, _, _ in session.profiler.phases}
        assert names == {"build-pipeline", "run-timing", "capture-record"}
        assert session.profiler.total_seconds("run-timing") > 0

    def test_simulate_attaches_session_to_result(self):
        session = TelemetrySession()
        result = simulate(_program(), _config(), telemetry=session)
        assert result.telemetry is session

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_trace([])
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [{"ph": "Z", "name": "x",
                                            "pid": 1, "ts": 0}]})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [
                {"ph": "C", "name": "c", "pid": 1, "ts": 0,
                 "args": {"v": "not-a-number"}}]})
        with pytest.raises(ValueError):            # dangling async begin
            validate_trace({"traceEvents": [
                {"ph": "b", "name": "i", "pid": 1, "ts": 0, "id": 1}]})

    def test_profiler_nesting_depths(self):
        profiler = PhaseProfiler()
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        depths = {name: depth
                  for name, _, _, depth in profiler.phases}
        assert depths == {"outer": 0, "inner": 1}
        validate_trace({"traceEvents": profiler.trace_events()})

    def test_builder_counter_split(self):
        probe = SamplingProbe()
        run_timing(_program(), _config(), probes=(probe,))
        builder = TimelineBuilder("x")
        builder.add_counters(probe)
        iq = [e for e in builder.events if e.get("name") == "iq occupancy"]
        assert len(iq) == len(probe)
        for event, occupancy in zip(iq, probe.samples["iq_occupancy"]):
            assert event["args"]["buffered"] \
                + event["args"]["conventional"] == occupancy


class TestRunnerTimeline:
    def test_runner_timeline_from_progress_events(self):
        from repro.runner.progress import ProgressReporter

        reporter = ProgressReporter(verbose=False)
        reporter.emit("queued", job="a")
        reporter.emit("queued", job="b")
        reporter.emit("cache-hit", job="a")
        reporter.emit("started", job="b")
        reporter.emit("done", job="b", wall_time=0.25)
        payload = runner_timeline(reporter)
        validate_trace(payload)
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        [job] = slices
        assert job["name"] == "b"
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert instants and instants[0]["name"].startswith("cache-hit")

    def test_reporter_tracks_job_wall_time(self):
        from repro.runner.progress import ProgressReporter

        reporter = ProgressReporter(verbose=False)
        reporter.emit("started", job="a")
        reporter.emit("done", job="a", wall_time=1.5)
        reporter.emit("done", job="b", wall_time=0.5)
        summary = reporter.summary()
        assert summary["job_wall_time"] == pytest.approx(2.0)
        assert summary["started_at"] > 0
        assert reporter.count("done") == 2
        manifest = reporter.manifest()
        assert manifest["metrics"]["schema"] == 1
