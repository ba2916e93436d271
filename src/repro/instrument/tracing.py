"""Structured event tracing in Chrome-trace / Perfetto JSON.

The tracer records the full job lifecycle as duration spans —
``clEnqueueNDRangeKernel`` → ``kbase_ioctl(job_submit)`` → Job Manager
slot → workgroup — plus instant events for asynchronous
happenings (MMU faults, interrupts). The output is the Trace Event Format
consumed by ``chrome://tracing`` and https://ui.perfetto.dev: a JSON
object with a ``traceEvents`` array of ``{name, ph, ts, pid, tid}``
records, where ``ph`` is ``B``/``E`` (span begin/end), ``i`` (instant) or
``M`` (metadata naming the pid/tid rows).

Components pass human-readable process/track labels (``"gpu"``,
``"core0"``); the tracer interns them to the small integers the format
requires and emits ``process_name``/``thread_name`` metadata so the
viewer shows the labels. Timestamps are host-relative microseconds.

The **ring buffer** (``ring_size=N``) keeps tracing affordable: only the
most recent N events are retained (flight-recorder style — attach after
the interesting moment).
"""

import json
import threading
import time
from collections import deque
from contextlib import contextmanager


class EventTracer:
    """Collects Chrome-trace events from every simulator layer.

    Thread-safe: parallel execution units append concurrently.
    """

    def __init__(self, ring_size=None):
        if ring_size is not None and ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.ring_size = ring_size
        self._events = deque(maxlen=ring_size) if ring_size else []
        self._lock = threading.Lock()
        self._t0 = time.perf_counter_ns()
        self._pids = {}  # label -> pid int
        self._tids = {}  # (pid, label) -> tid int

    # -- identity interning ----------------------------------------------------

    def _pid(self, label):
        pid = self._pids.get(label)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[label] = pid
        return pid

    def _tid(self, pid, label):
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for p, _l in self._tids if p == pid) + 1
            self._tids[key] = tid
        return tid

    def _now_us(self):
        return (time.perf_counter_ns() - self._t0) / 1000.0

    def _emit(self, event):
        with self._lock:
            self._events.append(event)

    # -- event API -------------------------------------------------------------

    def begin(self, name, process, track, args=None):
        """Open a duration span (``ph: B``). Pair with :meth:`end`."""
        with self._lock:
            pid = self._pid(process)
            tid = self._tid(pid, track)
        event = {"name": name, "ph": "B", "ts": self._now_us(),
                 "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)
        return pid, tid

    def end(self, name, process, track):
        """Close the innermost span opened under the same name/track."""
        with self._lock:
            pid = self._pid(process)
            tid = self._tid(pid, track)
        self._emit({"name": name, "ph": "E", "ts": self._now_us(),
                    "pid": pid, "tid": tid})

    @contextmanager
    def span(self, name, process, track, args=None):
        """Duration span covering a ``with`` body (emits B ... E)."""
        self.begin(name, process, track, args)
        try:
            yield
        finally:
            self.end(name, process, track)

    def instant(self, name, process, track, args=None):
        """A point-in-time event (``ph: i``, thread-scoped)."""
        with self._lock:
            pid = self._pid(process)
            tid = self._tid(pid, track)
        event = {"name": name, "ph": "i", "s": "t", "ts": self._now_us(),
                 "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    # -- export ----------------------------------------------------------------

    def __len__(self):
        return len(self._events)

    def events(self):
        """The recorded non-metadata events, oldest first."""
        with self._lock:
            return list(self._events)

    def metadata_events(self):
        """``M`` events naming every pid/tid seen so far."""
        out = []
        with self._lock:
            for label, pid in self._pids.items():
                out.append({"name": "process_name", "ph": "M", "pid": pid,
                            "tid": 0, "args": {"name": label}})
            for (pid, label), tid in self._tids.items():
                out.append({"name": "thread_name", "ph": "M", "pid": pid,
                            "tid": tid, "args": {"name": label}})
        return out

    def to_chrome_trace(self):
        """The complete trace object for chrome://tracing / Perfetto."""
        return {
            "traceEvents": self.metadata_events() + self.events(),
            "displayTimeUnit": "ms",
        }

    def write(self, path):
        from repro.checkpoint.format import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_chrome_trace(),
                                           indent=1))

    def clear(self):
        with self._lock:
            self._events.clear()


_VALID_PHASES = {"B", "E", "X", "i", "M"}


def validate_trace(trace, check_balance=True):
    """Validate a Chrome-trace object; return a list of problems.

    An empty list means the trace conforms: every event carries the
    required fields, phases are known, timestamps within a track are
    monotonic, every pid/tid is named by metadata, and (for unbounded
    traces — a ring buffer may have evicted opening events, so pass
    ``check_balance=False`` there) B/E pairs balance and nest properly
    per track.
    """
    problems = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["trace is not an object with a traceEvents array"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not an array"]

    named_pids = set()
    named_tids = set()
    stacks = {}  # (pid, tid) -> [span names]
    last_ts = {}  # (pid, tid) -> last timestamp

    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        pid = event.get("pid")
        tid = event.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            problems.append(f"{where}: pid/tid must be integers")
            continue
        if phase == "M":
            if event["name"] == "process_name":
                named_pids.add(pid)
            elif event["name"] == "thread_name":
                named_tids.add((pid, tid))
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: missing or negative ts")
            continue
        track = (pid, tid)
        if ts < last_ts.get(track, 0.0):
            problems.append(
                f"{where}: ts goes backwards on pid={pid} tid={tid}")
        last_ts[track] = ts
        if phase == "X" and event.get("dur", 0) < 0:
            problems.append(f"{where}: negative dur")
        if phase == "B":
            stacks.setdefault(track, []).append(event["name"])
        elif phase == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                if check_balance:
                    problems.append(
                        f"{where}: E {event['name']!r} with no open span "
                        f"on pid={pid} tid={tid}")
            elif stack[-1] != event["name"]:
                problems.append(
                    f"{where}: E {event['name']!r} does not nest "
                    f"(innermost open span is {stack[-1]!r})")
            else:
                stack.pop()

    if check_balance:
        for (pid, tid), stack in stacks.items():
            for name in stack:
                problems.append(
                    f"span {name!r} on pid={pid} tid={tid} never closed")
    for pid in {e.get("pid") for e in events
                if isinstance(e, dict) and e.get("ph") not in (None, "M")}:
        if pid not in named_pids:
            problems.append(f"pid {pid} has no process_name metadata")
    for track in last_ts:
        if track not in named_tids:
            problems.append(
                f"pid={track[0]} tid={track[1]} has no thread_name metadata")
    return problems
