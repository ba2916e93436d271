"""Tests: the structured event tracer and its Chrome-trace output schema.

Covers the tracer mechanics (span pairing, label interning, ring buffer,
sampling), :func:`validate_trace` semantics, and a full-platform trace of
the job lifecycle checked against the schema in docs/trace_schema.json.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.instrument import EventTracer, validate_trace

REPO = Path(__file__).resolve().parent.parent
TRACE_SCHEMA = json.loads((REPO / "docs" / "trace_schema.json").read_text())


def _check_schema(instance, schema, path="$"):
    """Minimal JSON Schema checker for the subset docs/trace_schema.json
    uses (type, required, properties, items, enum, minimum, minLength).
    Used when the optional ``jsonschema`` package is not installed."""
    problems = []
    expected = schema.get("type")
    checks = {
        "object": dict, "array": list, "string": str,
        "number": (int, float), "integer": int,
    }
    if expected:
        python_type = checks[expected]
        if not isinstance(instance, python_type) or (
                expected in ("number", "integer")
                and isinstance(instance, bool)):
            return [f"{path}: expected {expected}"]
    if "enum" in schema and instance not in schema["enum"]:
        problems.append(f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            problems.append(f"{path}: below minimum")
    if isinstance(instance, str) and len(instance) < schema.get("minLength", 0):
        problems.append(f"{path}: shorter than minLength")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                problems.append(f"{path}: missing required {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                problems.extend(
                    _check_schema(instance[key], subschema, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            problems.extend(
                _check_schema(item, schema["items"], f"{path}[{index}]"))
    return problems


def _validate_against_schema(trace):
    """Validate with jsonschema when available, else the built-in subset."""
    try:
        import jsonschema
    except ImportError:
        problems = _check_schema(trace, TRACE_SCHEMA)
        assert problems == [], problems
    else:
        jsonschema.validate(trace, TRACE_SCHEMA)


class TestEventTracer:
    def test_begin_end_pair(self):
        tracer = EventTracer()
        tracer.begin("job", "gpu", "jobmanager", args={"slot": 0})
        tracer.end("job", "gpu", "jobmanager")
        events = tracer.events()
        assert [e["ph"] for e in events] == ["B", "E"]
        assert events[0]["name"] == "job"
        assert events[0]["args"] == {"slot": 0}
        assert events[0]["pid"] == events[1]["pid"]
        assert events[0]["tid"] == events[1]["tid"]
        assert events[1]["ts"] >= events[0]["ts"]

    def test_span_context_manager_nests(self):
        tracer = EventTracer()
        with tracer.span("outer", "gpu", "core0"):
            with tracer.span("inner", "gpu", "core0"):
                pass
        names = [(e["ph"], e["name"]) for e in tracer.events()]
        assert names == [("B", "outer"), ("B", "inner"),
                         ("E", "inner"), ("E", "outer")]
        assert validate_trace(tracer.to_chrome_trace()) == []

    def test_span_closes_on_exception(self):
        tracer = EventTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("risky", "cl", "queue"):
                raise RuntimeError("boom")
        assert [e["ph"] for e in tracer.events()] == ["B", "E"]

    def test_instant_is_thread_scoped(self):
        tracer = EventTracer()
        tracer.instant("mmu_fault", "gpu", "mmu", args={"fault": "x"})
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["s"] == "t"

    def test_label_interning_and_metadata(self):
        tracer = EventTracer()
        tracer.instant("a", "gpu", "core0")
        tracer.instant("b", "gpu", "core1")
        tracer.instant("c", "cl", "queue")
        events = tracer.events()
        # same process label -> same pid; distinct tracks -> distinct tids
        assert events[0]["pid"] == events[1]["pid"]
        assert events[0]["tid"] != events[1]["tid"]
        assert events[2]["pid"] != events[0]["pid"]
        metadata = tracer.metadata_events()
        process_names = {e["args"]["name"] for e in metadata
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in metadata
                        if e["name"] == "thread_name"}
        assert process_names == {"gpu", "cl"}
        assert thread_names == {"core0", "core1", "queue"}

    def test_ring_buffer_keeps_most_recent(self):
        tracer = EventTracer(ring_size=4)
        for i in range(10):
            tracer.instant(f"e{i}", "gpu", "t")
        events = tracer.events()
        assert len(events) == 4
        assert [e["name"] for e in events] == ["e6", "e7", "e8", "e9"]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(ring_size=0)

    def test_clear(self):
        tracer = EventTracer()
        tracer.instant("x", "p", "t")
        tracer.clear()
        assert len(tracer) == 0

    def test_write_emits_loadable_json(self, tmp_path):
        tracer = EventTracer()
        with tracer.span("job", "gpu", "jobmanager"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(path)
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert validate_trace(trace) == []
        _validate_against_schema(trace)


class TestValidateTrace:
    def _trace(self, events):
        tracer = EventTracer()
        tracer.instant("seed", "p", "t")  # intern p/t for metadata
        base = tracer.to_chrome_trace()
        base["traceEvents"] = [e for e in base["traceEvents"]
                               if e["ph"] == "M"] + events
        return base

    def test_not_a_trace(self):
        assert validate_trace([]) == [
            "trace is not an object with a traceEvents array"]
        assert validate_trace({"traceEvents": 3}) == [
            "traceEvents is not an array"]

    def test_unknown_phase(self):
        trace = self._trace([{"name": "x", "ph": "Q", "ts": 1.0,
                              "pid": 1, "tid": 1}])
        assert any("unknown phase" in p for p in validate_trace(trace))

    def test_unbalanced_span_detected(self):
        trace = self._trace([{"name": "open", "ph": "B", "ts": 1.0,
                              "pid": 1, "tid": 1}])
        assert any("never closed" in p for p in validate_trace(trace))
        # a ring buffer may legitimately evict the closing E
        assert validate_trace(trace, check_balance=False) == []

    def test_stray_end_tolerated_only_without_balance(self):
        trace = self._trace([{"name": "x", "ph": "E", "ts": 1.0,
                              "pid": 1, "tid": 1}])
        assert any("no open span" in p for p in validate_trace(trace))
        assert validate_trace(trace, check_balance=False) == []

    def test_bad_nesting_detected(self):
        trace = self._trace([
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 3.0, "pid": 1, "tid": 1},
        ])
        assert any("does not nest" in p for p in validate_trace(trace))

    def test_backwards_timestamp_detected(self):
        trace = self._trace([
            {"name": "a", "ph": "i", "s": "t", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "s": "t", "ts": 1.0, "pid": 1, "tid": 1},
        ])
        assert any("goes backwards" in p for p in validate_trace(trace))

    def test_missing_metadata_detected(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "i", "s": "t", "ts": 1.0, "pid": 9, "tid": 9},
        ]}
        problems = validate_trace(trace)
        assert any("no process_name" in p for p in problems)
        assert any("no thread_name" in p for p in problems)


class TestPlatformTrace:
    """A full job lifecycle traced through every layer."""

    KERNEL = (REPO / "examples" / "saxpy.cl").read_text()

    def _traced_run(self, engine="interpreter", **tracer_kwargs):
        config = PlatformConfig(gpu=GPUConfig(engine=engine))
        context = Context(MobilePlatform(config))
        tracer = EventTracer(**tracer_kwargs)
        context.platform.attach_events(tracer)
        queue = CommandQueue(context)
        n = 64
        x = np.arange(n, dtype=np.float32)
        y = np.ones(n, dtype=np.float32)
        buf_x = context.buffer_from_array(x)
        buf_y = context.buffer_from_array(y)
        buf_out = context.alloc_buffer(4 * n)
        kernel = context.build_program(self.KERNEL).kernel("saxpy")
        kernel.set_args(buf_x, buf_y, buf_out, np.float32(2.0))
        queue.enqueue_nd_range(kernel, (n,), (16,))
        queue.enqueue_read_buffer(buf_out, np.float32)
        return tracer

    def test_lifecycle_spans_present_and_nested(self):
        tracer = self._traced_run()
        trace = tracer.to_chrome_trace()
        assert validate_trace(trace) == []
        names = {e["name"] for e in tracer.events()}
        # clEnqueue -> ioctl -> job slot -> workgroup
        assert {"clEnqueueWriteBuffer", "clEnqueueNDRangeKernel",
                "kbase_ioctl(job_submit)", "job", "workgroup",
                "clEnqueueReadBuffer"} <= names

    def test_both_engines_emit_the_same_span_names(self):
        def names(engine):
            return {e["name"] for e in self._traced_run(engine).events()
                    if e["ph"] == "B"}

        assert names("interpreter") == names("mega")

    def test_trace_conforms_to_checked_in_schema(self):
        trace = self._traced_run().to_chrome_trace()
        _validate_against_schema(trace)

    def test_ring_buffer_trace_still_validates(self):
        tracer = self._traced_run(ring_size=16)
        assert len(tracer.events()) == 16
        trace = tracer.to_chrome_trace()
        assert validate_trace(trace, check_balance=False) == []
        _validate_against_schema(trace)

    def test_detach_stops_tracing(self):
        config = PlatformConfig(gpu=GPUConfig(engine="interpreter"))
        context = Context(MobilePlatform(config))
        tracer = EventTracer()
        context.platform.attach_events(tracer)
        context.platform.attach_events(None)
        queue = CommandQueue(context)
        buf = context.buffer_from_array(np.zeros(4, dtype=np.float32))
        queue.enqueue_read_buffer(buf, np.float32)
        assert len(tracer) == 0


class TestSchemaSelfCheck:
    """The built-in subset validator must reject what jsonschema would."""

    def test_rejects_missing_required(self):
        bad = {"traceEvents": [{"ph": "B", "pid": 1, "tid": 1}]}
        assert _check_schema(bad, TRACE_SCHEMA)

    def test_rejects_bad_phase_enum(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "Z", "pid": 1, "tid": 1}]}
        assert _check_schema(bad, TRACE_SCHEMA)

    def test_rejects_negative_ts(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": -1, "pid": 1, "tid": 1}]}
        assert _check_schema(bad, TRACE_SCHEMA)

    def test_rejects_non_integer_pid(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": 1, "pid": "gpu", "tid": 1}]}
        assert _check_schema(bad, TRACE_SCHEMA)

    def test_accepts_valid_trace(self):
        good = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": 1.5, "pid": 1, "tid": 1,
             "s": "t"}], "displayTimeUnit": "ms"}
        assert _check_schema(good, TRACE_SCHEMA) == []
