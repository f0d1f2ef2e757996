"""Tests for the unified telemetry layer.

Covers the span tracer (nesting, ids, dual clocks, exception safety),
the metrics registry (counter/gauge/histogram semantics), every exporter
(JSONL events, Prometheus text, merged Chrome trace) against its schema
validator, manifest byte-determinism under a fixed seed, the flat-usage
bar (span-tree phase rollup == summed clock deltas within 1e-9), power
percentile stats, device-lane determinism of the Chrome trace, and the
CLI ``--telemetry`` paths.
"""

import json
import os

import pytest

from repro.artifacts import load
from repro.bench.harness import run_training_experiment
from repro.cli import main as cli_main
from repro.power.meter import PowerSample
from repro.power.monitor import EnergyReport
from repro.simtime import VirtualClock
from repro.telemetry import (
    PHASE_CATEGORY,
    PHASES,
    MetricsRegistry,
    SpanTracer,
    TelemetrySession,
    maybe_span,
    session,
)
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.exporters import (
    DEVICE_PID,
    SPAN_PID,
    device_trace_events,
    event_records,
    merged_trace_events,
    read_events_jsonl,
    write_events_jsonl,
    write_merged_trace,
    write_prometheus,
)
from repro.telemetry.manifest import (
    RUN,
    build_run_manifest,
    validate_chrome_trace,
    validate_events_records,
    validate_prometheus_text,
    validate_run_dir,
)


class FakeWall:
    """Deterministic wall clock for tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.125
        return self.t


# ---------------------------------------------------------------------------
# spans


class TestSpanTracer:
    def test_nesting_ids_and_depth(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(2.0)
        assert outer.span_id != inner.span_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert (outer.depth, inner.depth) == (0, 1)
        assert tracer.max_depth() == 2
        assert inner.virtual_seconds == pytest.approx(2.0)
        assert outer.virtual_seconds == pytest.approx(3.0)

    def test_dual_clock_timing(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock, wall_clock=FakeWall())
        with tracer.span("work"):
            clock.advance(5.0)
        span = tracer.spans()[0]
        assert span.virtual_seconds == pytest.approx(5.0)
        assert span.wall_seconds == pytest.approx(0.125)

    def test_attrs_and_error_annotation(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("risky", category="io", size=7):
                raise RuntimeError("nope")
        span = tracer.spans()[0]
        assert span.closed
        assert span.attrs["size"] == 7
        assert span.attrs["error"] == "RuntimeError"
        assert tracer.current() is None

    def test_abandoned_children_are_unwound(self):
        tracer = SpanTracer()
        with tracer.span("parent"):
            tracer.start_span("orphan")  # never explicitly ended
        orphan = next(s for s in tracer.spans() if s.name == "orphan")
        assert orphan.closed
        assert orphan.attrs.get("abandoned") is True
        assert tracer.current() is None

    def test_phase_rollup_is_exclusive(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        with tracer.span("sampling", category=PHASE_CATEGORY):
            clock.advance(4.0)
            with tracer.span("training", category=PHASE_CATEGORY):
                clock.advance(1.0)
        rollup = tracer.phase_rollup()
        assert rollup["sampling"] == pytest.approx(4.0)
        assert rollup["training"] == pytest.approx(1.0)

    def test_credit_is_zero_length_and_rejects_negative(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        span = tracer.credit("training", 7.5)
        assert span.closed
        assert span.virtual_seconds == 0.0
        assert tracer.phase_rollup()["training"] == pytest.approx(7.5)
        assert clock.now == 0.0
        with pytest.raises(ValueError):
            tracer.credit("training", -1.0)


class TestProfilerEquivalence:
    def test_flat_usage_matches_legacy_numbers_to_1e9(self):
        """The acceptance bar: without nesting, the span-tree rollup is
        the legacy flat accumulation, down to 1e-9."""
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        expected = {}
        durations = [("data_loading", 0.73), ("sampling", 2.19),
                     ("data_movement", 0.41), ("training", 1.87),
                     ("sampling", 1.03), ("training", 0.59)]
        for name, dt in durations:
            with tracer.span(name, PHASE_CATEGORY):
                clock.advance(dt)
            expected[name] = expected.get(name, 0.0) + dt
        tracer.credit("training", 3.1415)
        expected["training"] += 3.1415
        rollup = tracer.phase_rollup()
        for name, secs in expected.items():
            assert abs(rollup[name] - secs) < 1e-9
        assert abs(sum(rollup.values()) - sum(expected.values())) < 1e-9

    def test_profiler_adopts_ambient_tracer(self):
        clock = VirtualClock()
        with session(clock) as sess:
            assert telemetry_runtime.tracer_for(clock) is sess.tracer
        # Different clock: the driver's tracer stays private.
        with session(VirtualClock()) as sess:
            private = telemetry_runtime.tracer_for(clock)
            assert private is not sess.tracer and private.clock is clock
        # No session at all: private too.
        assert telemetry_runtime.tracer_for(clock).clock is clock


# ---------------------------------------------------------------------------
# runtime


class TestRuntime:
    def test_disabled_accessors_return_none(self):
        assert telemetry_runtime.active() is None
        assert telemetry_runtime.tracer() is None
        assert telemetry_runtime.metrics() is None
        with maybe_span("anything") as span:
            assert span is None

    def test_sessions_stack_lifo(self):
        with session() as outer:
            assert telemetry_runtime.active() is outer
            with session() as inner:
                assert telemetry_runtime.active() is inner
            assert telemetry_runtime.active() is outer
        assert telemetry_runtime.active() is None

    def test_maybe_span_records_on_active_tracer(self):
        with session() as sess:
            with maybe_span("train.epoch", epoch=3) as span:
                assert span is not None
        assert sess.tracer.spans()[0].attrs["epoch"] == 3


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    @pytest.mark.parametrize("buckets", [(), (10.0, 1.0), (1.0, 3.0, 2.0)])
    def test_histogram_buckets_must_be_sorted_and_non_empty(self, buckets):
        with pytest.raises(ValueError, match="sorted and non-empty"):
            MetricsRegistry().histogram("pcie.transfer_bytes", buckets=buckets)

    def test_counter_get_or_create_and_monotonicity(self):
        reg = MetricsRegistry()
        c1 = reg.counter("pcie.bytes", direction="h2d")
        c2 = reg.counter("pcie.bytes", direction="h2d")
        c3 = reg.counter("pcie.bytes", direction="d2h")
        assert c1 is c2 and c1 is not c3
        c1.inc(10)
        c1.inc(2.5)
        assert c1.value == pytest.approx(12.5)
        with pytest.raises(ValueError):
            c1.inc(-1)

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(ValueError):
            reg.gauge("x.y")

    def test_invalid_names_and_labels_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("Bad-Name")
        with pytest.raises(ValueError):
            reg.counter("ok.name", **{"bad-key": 1})

    def test_gauge_set_and_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("memory.peak_bytes", device="gpu0")
        g.set_max(100)
        g.set_max(50)
        assert g.value == 100
        g.set(25)
        assert g.value == 25

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.v", buckets=(1, 10, 100))
        for v in (0.5, 5, 5, 50, 500):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(560.5)
        assert h.min == 0.5 and h.max == 500
        assert h.bucket_counts == [1, 2, 1, 1]  # <=1, <=10, <=100, +Inf
        record = h.to_record()
        assert record["buckets"][-1]["le"] == "+Inf"

    def test_snapshot_order_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b.metric")
        reg.counter("a.metric", z="1")
        reg.counter("a.metric", a="1")
        names = [(r["name"], tuple(sorted(r["labels"].items())))
                 for r in reg.snapshot()]
        assert names == sorted(names)

    def test_prometheus_text_validates_and_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("sampler.items", kind="neighbor").inc(42)
        reg.gauge("memory.in_use_bytes", device="gpu0").set(1024)
        reg.histogram("pcie.transfer_bytes", buckets=(10, 1000)).observe(50)
        text = reg.prometheus_text()
        assert validate_prometheus_text(text) == []
        assert "# TYPE repro_sampler_items counter" in text
        assert 'repro_sampler_items{kind="neighbor"} 42.0' in text
        assert 'le="+Inf"' in text


# ---------------------------------------------------------------------------
# power stats


class TestPowerStats:
    def _report(self):
        cpu = tuple(PowerSample(0.1 * i, float(w))
                    for i, w in enumerate([100, 120, 140, 160, 180, 200,
                                           190, 170, 150, 130], 1))
        gpu = tuple(PowerSample(0.1 * i, float(w))
                    for i, w in enumerate([50, 55, 60, 65, 70, 75,
                                           80, 85, 90, 300], 1))
        return EnergyReport(duration=1.0, cpu_energy=155.0, gpu_energy=93.0,
                            samples=10, cpu_power_trace=cpu,
                            gpu_power_trace=gpu)

    def test_percentiles_and_peak(self):
        report = self._report()
        cpu = report.cpu_power_stats()
        assert cpu["peak"] == 200.0
        assert cpu["p50"] == 150.0  # nearest-rank: 5th of 10 sorted samples
        assert cpu["p95"] == 200.0
        assert cpu["avg"] == pytest.approx(154.0)
        gpu = report.gpu_power_stats()
        assert gpu["peak"] == 300.0
        assert gpu["p50"] == 70.0
        # Combined peak aligns rails on sample timestamps.
        assert report.peak_power == pytest.approx(130.0 + 300.0)

    def test_empty_trace_stats_are_zero(self):
        report = EnergyReport(duration=0.0, cpu_energy=0.0, gpu_energy=0.0,
                              samples=0)
        assert report.cpu_power_stats() == {"avg": 0.0, "p50": 0.0,
                                            "p95": 0.0, "peak": 0.0}
        assert report.peak_power == 0.0


# ---------------------------------------------------------------------------
# device-lane trace


class TestDeviceTrace:
    def _clock(self, order):
        clock = VirtualClock()
        for device in order:
            clock.occupy(device, 0.5, tag=f"work-{device}")
        return clock

    def test_lane_ids_deterministic_regardless_of_first_seen_order(self):
        a = {e["cat"]: e["tid"] for e in device_trace_events(self._clock(
            ["xeon-cpu", "pcie", "storage", "a100-gpu"])) if e["ph"] == "X"}
        b = {e["cat"]: e["tid"] for e in device_trace_events(self._clock(
            ["storage", "a100-gpu", "pcie", "xeon-cpu"])) if e["ph"] == "X"}
        assert a == b
        assert a["storage"] == 0
        assert a["pcie"] == 1

    def test_thread_name_metadata_for_every_lane(self):
        events = device_trace_events(self._clock(["storage", "gpu0"]))
        lanes = {e["tid"] for e in events if e["ph"] == "X"}
        named = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert lanes <= set(named)
        assert named[0] == "storage"

    def test_device_only_trace_validates(self, tmp_path):
        clock = self._clock(["storage", "pcie"])
        path = write_merged_trace(tmp_path / "t.json", clock, tracer=None)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []


# ---------------------------------------------------------------------------
# exporters


def _sample_session():
    clock = VirtualClock()
    sess = TelemetrySession(clock, wall_clock=FakeWall())
    with sess.tracer.span("sampling", category=PHASE_CATEGORY):
        clock.occupy("storage", 1.0, tag="read")
        with sess.tracer.span("train.batch", index=0):
            clock.advance(0.5)
    sess.metrics.counter("sampler.items", kind="neighbor").inc(12)
    sess.metrics.histogram("pcie.transfer_bytes").observe(4096)
    return clock, sess


class TestExporters:
    def test_events_jsonl_round_trip_and_schema(self, tmp_path):
        clock, sess = _sample_session()
        path = write_events_jsonl(tmp_path / "events.jsonl", sess.tracer,
                                  sess.metrics)
        records = read_events_jsonl(path)
        assert validate_events_records(records) == []
        assert records == event_records(sess.tracer, sess.metrics)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "header"
        assert kinds.count("span") == 2
        assert kinds.count("metric") == 2

    def test_merged_trace_has_device_and_span_pids(self):
        clock, sess = _sample_session()
        events = merged_trace_events(clock, sess.tracer)
        assert validate_chrome_trace({"traceEvents": events}) == []
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {DEVICE_PID, SPAN_PID}
        span_events = [e for e in events
                       if e["ph"] == "X" and e["pid"] == SPAN_PID]
        assert {e["tid"] for e in span_events} == {0, 1}  # one lane per depth
        batch = next(e for e in span_events if e["name"] == "train.batch")
        assert batch["args"]["parent_id"] is not None


def _span(records, name):
    return next(r for r in records
                if r["type"] == "span" and r["name"] == name)


def _drop_key(record, key):
    del record[key]


#: One defect per check of ``validate_events_records``, each planted into
#: a valid stream: (edit, the problem it must produce).
EVENTS_DEFECTS = {
    "empty": (lambda r: r.clear(), "events stream is empty"),
    "no-header": (lambda r: r.__setitem__(0, {"type": "preamble"}),
                  "first record must be the schema header"),
    "foreign-schema": (lambda r: r[0].update(schema="other/9"),
                       "unknown events schema 'other/9'"),
    "non-object": (lambda r: r.append(["span"]), "record is not an object"),
    "span-no-dur": (lambda r: _drop_key(_span(r, "train.batch"), "dur"),
                    "span record missing 'dur'"),
    "duplicate-id": (lambda r: _span(r, "train.batch").update(
        id=_span(r, "sampling")["id"]), "duplicate span id"),
    "orphan": (lambda r: _span(r, "train.batch").update(parent=999),
               "has unknown parent 999"),
    "unknown-type": (lambda r: r.append({"type": "log"}),
                     "unknown record type 'log'"),
}


def _x_event(events):
    return next(e for e in events if e["ph"] == "X")


#: The same for ``validate_chrome_trace``, planted into ``traceEvents``.
TRACE_DEFECTS = {
    "non-object-event": (lambda e: e.append("X"), "trace event is not an object"),
    "begin-phase": (lambda e: e.append({**_x_event(e), "ph": "B"}),
                    "unexpected event phase 'B'"),
    "no-name": (lambda e: _drop_key(_x_event(e), "name"),
                "trace event missing pid/name"),
    "no-dur": (lambda e: _drop_key(_x_event(e), "dur"), "missing ts/dur"),
    "unnamed-lane": (lambda e: e.append({**_x_event(e), "tid": 77}),
                     "tid=77 has no thread_name metadata"),
}

#: And for ``validate_prometheus_text``: a line appended to valid text.
PROM_DEFECTS = {
    "bad-type": ("# TYPE repro_x summary", "malformed TYPE comment"),
    "no-value": ("repro_sampler_items", "expected 'name value'"),
    "non-numeric": ('repro_sampler_items{kind="n"} many',
                    "non-numeric value 'many'"),
    "untyped": ("repro_undeclared 1.0",
                "sample 'repro_undeclared' has no TYPE comment"),
}


class TestValidatorsCatchEachDefect:
    """Every check a validator makes fires on exactly its planted defect."""

    @pytest.mark.parametrize("defect", sorted(EVENTS_DEFECTS))
    def test_events(self, defect):
        _, sess = _sample_session()
        records = event_records(sess.tracer, sess.metrics)
        assert validate_events_records(records) == []
        edit, problem = EVENTS_DEFECTS[defect]
        edit(records)
        problems = validate_events_records(records)
        assert len(problems) == 1 and problem in problems[0]

    @pytest.mark.parametrize("defect", sorted(TRACE_DEFECTS))
    def test_chrome_trace(self, defect):
        clock, sess = _sample_session()
        events = merged_trace_events(clock, sess.tracer)
        edit, problem = TRACE_DEFECTS[defect]
        edit(events)
        problems = validate_chrome_trace({"traceEvents": events})
        assert len(problems) == 1 and problem in problems[0]

    @pytest.mark.parametrize("payload, problem", [
        ([], "trace is not a JSON object"),
        ({"traceEvents": []}, "traceEvents missing or empty"),
        ({}, "traceEvents missing or empty"),
    ])
    def test_chrome_trace_shape(self, payload, problem):
        assert validate_chrome_trace(payload) == [problem]

    @pytest.mark.parametrize("defect", sorted(PROM_DEFECTS))
    def test_prometheus(self, defect):
        _, sess = _sample_session()
        text = sess.metrics.prometheus_text()
        line, problem = PROM_DEFECTS[defect]
        broken = text + line + "\n"
        problems = validate_prometheus_text(broken)
        line_no = len(broken.splitlines())
        assert problems == [f"line {line_no}: {problem}"]

    def test_run_dir_reports_missing_and_unparseable(self, tmp_path):
        clock, sess = _sample_session()
        for name, write in _WRITERS.items():
            write(tmp_path / name, clock, sess)
        assert validate_run_dir(tmp_path) == []
        (tmp_path / "trace.json").write_text("{not json")
        (tmp_path / "metrics.prom").unlink()
        problems = validate_run_dir(tmp_path)
        assert "metrics.prom: missing" in problems
        assert [p for p in problems if p.startswith("trace.json: unparseable")]


def _manifest(sess, **config):
    return build_run_manifest(command="train", label="x", dataset="ppi",
                              seed=0, config=config, phases={},
                              kernel_families={}, session=sess)


_WRITERS = {
    "events.jsonl": lambda path, clock, sess: write_events_jsonl(
        path, sess.tracer, sess.metrics),
    "metrics.prom": lambda path, clock, sess: write_prometheus(
        path, sess.metrics),
    "trace.json": lambda path, clock, sess: write_merged_trace(
        path, clock, sess.tracer),
    "run.json": lambda path, clock, sess: RUN.write(path, _manifest(sess)),
}


class TestAtomicWriters:
    """A killed run leaves the previous artifact or none — never a prefix
    that still parses (events.jsonl and metrics.prom are line-oriented)."""

    @pytest.mark.parametrize("name", sorted(_WRITERS))
    def test_interrupted_write_keeps_previous_file(self, name, tmp_path,
                                                   monkeypatch):
        clock, sess = _sample_session()
        path = tmp_path / "run" / name  # parents are created
        _WRITERS[name](path, clock, sess)
        before = path.read_bytes()
        assert before

        def killed(src, dst):
            raise OSError("killed before the rename")

        sess.metrics.counter("sampler.items", kind="neighbor").inc(1)
        monkeypatch.setattr("repro.artifacts.os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            _WRITERS[name](path, clock, sess)
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [name]  # no .tmp sibling

    def test_unserialisable_payload_touches_nothing(self, tmp_path):
        _, sess = _sample_session()
        path = RUN.write(tmp_path / "run.json", _manifest(sess))
        before = path.read_bytes()
        with pytest.raises(TypeError):
            RUN.write(path, _manifest(sess, seed=object()))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["run.json"]


# ---------------------------------------------------------------------------
# end-to-end: train with telemetry
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def telemetry_run(telemetry_bundle):
    out, result, _ = telemetry_bundle
    return out, result


class TestEndToEnd:
    def test_all_artifacts_written_and_valid(self, telemetry_run):
        out, result = telemetry_run
        assert set(result.artifacts) == {"events", "metrics", "trace",
                                         "manifest"}
        assert validate_run_dir(out) == []

    def test_manifest_content(self, telemetry_run):
        out, result = telemetry_run
        manifest = load(out / "run.json")
        assert RUN.validate(manifest) == []
        assert manifest["label"] == result.label
        assert manifest["dataset"] == "ppi"
        assert manifest["seed"] == 0
        assert manifest["config"]["framework"] == "dglite"
        assert set(manifest["phases"]) <= set(PHASES)
        for phase, secs in result.phases.items():
            assert manifest["phases"][phase] == pytest.approx(secs, abs=1e-12)
        names = {m["name"] for m in manifest["metrics"]}
        assert "kernel.invocations" in names
        assert "sampler.items" in names
        assert "trainer.epochs" in names
        assert manifest["energy"]["cpu_power_w"]["p95"] > 0

    def test_span_tree_rollup_matches_manifest_to_1e9(self, telemetry_run):
        """Re-derive the 4-phase breakdown from events.jsonl alone and
        match the manifest (and hence the legacy profiler) within 1e-9."""
        out, _ = telemetry_run
        records = read_events_jsonl(out / "events.jsonl")
        spans = {r["id"]: r for r in records if r.get("type") == "span"}
        rollup = {}
        for span in spans.values():
            if span["category"] != PHASE_CATEGORY:
                continue
            exclusive = span["dur"] + span.get("credited", 0.0)
            parent = span["parent"]
            while parent is not None:
                if spans[parent]["category"] == PHASE_CATEGORY:
                    break
                parent = spans[parent]["parent"]
            rollup[span["name"]] = rollup.get(span["name"], 0.0) + exclusive
            if parent is not None:
                ancestor = spans[parent]["name"]
                rollup[ancestor] = rollup.get(ancestor, 0.0) - span["dur"]
        manifest = load(out / "run.json")
        assert set(rollup) == set(manifest["phases"])
        for name, secs in manifest["phases"].items():
            assert abs(rollup[name] - secs) < 1e-9

    def test_manifest_is_byte_deterministic(self, tmp_path, telemetry_run):
        out, _ = telemetry_run
        rerun = tmp_path / "rerun"
        run_training_experiment(
            "dglite", "ppi", "graphsage", epochs=2,
            representative_batches=2, seed=0, telemetry_dir=str(rerun),
        )
        assert (rerun / "run.json").read_bytes() == \
            (out / "run.json").read_bytes()
        assert (rerun / "metrics.prom").read_bytes() == \
            (out / "metrics.prom").read_bytes()
        assert (rerun / "trace.json").read_bytes() == \
            (out / "trace.json").read_bytes()

    def test_session_does_not_leak_after_run(self, telemetry_run):
        assert telemetry_runtime.active() is None

    def test_untelemetered_run_matches_phases(self, telemetry_run):
        """Instrumentation must not change the simulated numbers."""
        _, result = telemetry_run
        plain = run_training_experiment(
            "dglite", "ppi", "graphsage", epochs=2,
            representative_batches=2, seed=0,
        )
        assert plain.artifacts == {}
        for phase in PHASES:
            assert plain.phases.get(phase, 0.0) == pytest.approx(
                result.phases.get(phase, 0.0), abs=1e-9)


class TestCli:
    def test_train_with_telemetry_flag(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert cli_main(["train", "--dataset", "ppi", "--epochs", "1",
                         "--telemetry", str(out)]) == 0
        assert (out / "run.json").exists()
        assert "telemetry:" in capsys.readouterr().out
        assert validate_run_dir(out) == []

    def test_profile_analyze_summarizes_the_run(self, tmp_path, capsys):
        out = tmp_path / "t"
        cli_main(["train", "--dataset", "ppi", "--epochs", "1",
                  "--telemetry", str(out)])
        capsys.readouterr()
        assert cli_main(["profile", "analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "(command=train, seed=0)" in text
        assert "spans: " in text
        assert "cpu power  p50 " in text and "p95" in text

    def test_profile_analyze_rejects_invalid_dir(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("{}")
        assert cli_main(["profile", "analyze", str(tmp_path)]) == 1
        text = capsys.readouterr().out
        assert "problem(s) in" in text and "run.json: unknown schema" in text
