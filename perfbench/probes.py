"""Span recording for the traced benchmark run.

Everything here wraps *instances* the benchmark builds (or, for the one
module-level function the session scheduler calls internally, a module
attribute for the duration of a ``with`` block); nothing in the program
changes.  A wrapper pushes a frame on the recorder's call stack, times
the call, and on return charges the duration to its span name and to the
enclosing span's child time, so every span name gets

- ``calls``  -- how often it ran,
- ``incl_s`` -- time inside it, children included, and
- ``self_s`` -- time inside it minus the part its wrapped children cover.

Self times of all names sum to the time spent inside top-level spans, so
``wall - sum(self_s)`` is the time no named layer accounts for.

Hot per-block calls (policy hooks, fault draws, trace records, ...) are
only aggregated; the coarser calls are also kept as individual span
records (name, start, end, parent) in memory and written out at exit.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List

#: Span names whose every call is also kept as an individual span record.
#: The rest run once per block or per event and are only aggregated.
SPAN_NAMES = frozenset(
    {
        "volume.synth",
        "importance.build",
        "tables.visible_build",
        "camera.ground_truth",
        "runtime.replay",
        "storage.fetch_many",
        "storage.prefetch_many",
        "storage.preload",
        "cache.admit_many",
        "trace.aggregate",
        "obs.attribution",
        "obs.regret",
    }
)

#: Keep at most this many individual span records per recorder.
MAX_SPANS = 200_000

POLICY_HOOKS = (
    "on_hit",
    "on_insert",
    "on_evict",
    "on_hit_many",
    "on_insert_many",
    "on_evict_many",
    "choose_victim",
    "choose_victim_masked",
    "victim_order",
    "victim_still_ordered",
    "victim_still_ordered_many",
)


class Recorder:
    """Per-name call counts and inclusive/self times, plus span records."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, incl_s, self_s]
        self.spans: List[tuple] = []  # (id, name, start, end, parent id)
        self.dropped_spans = 0
        self._stack: List[list] = []  # per open span: [child_s, span id]
        self._next_id = 0

    def _open(self, name: str) -> list:
        sid = -1
        if name in SPAN_NAMES:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        dt = t1 - t0
        self._stack.pop()
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[0]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += dt
        if frame[1] >= 0:
            if len(self.spans) < MAX_SPANS:
                pid = parent[1] if parent is not None else -1
                self.spans.append((frame[1], name, t0, t1, pid))
            else:
                self.dropped_spans += 1

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is charged to span ``name``."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, clock())

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Charge the body of a ``with`` block to span ``name``."""
        frame = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, t0, time.perf_counter())

    def wrap(self, obj, attrs, name: str) -> None:
        """Replace each method ``attrs`` on the instance ``obj`` by a timed
        wrapper charged to ``name`` (missing attributes are skipped)."""
        for attr in attrs:
            fn = getattr(obj, attr, None)
            if fn is not None:
                setattr(obj, attr, self.timed(name, fn))

    @contextlib.contextmanager
    def wrapped(self, obj, attrs, name: str):
        """:meth:`wrap` for instances that outlive the block (tables shared
        by every pass): the instance attributes are removed on exit."""
        self.wrap(obj, attrs, name)
        try:
            yield
        finally:
            for attr in attrs:
                obj.__dict__.pop(attr, None)

    def proxy(self, target, attrs, name: str):
        """A stand-in for a ``__slots__`` instance (no per-instance methods
        can be set on those): forwards every attribute to ``target`` and
        times the methods ``attrs``."""
        return _TimedProxy(self, target, attrs, name)

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str):
        """Time ``module.attr`` as span ``name`` inside the block only."""
        original = getattr(module, attr)
        setattr(module, attr, self.timed(name, original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    # -- read-out --------------------------------------------------------------

    def incl_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_self_s(self) -> float:
        return sum(stat[2] for stat in self.stats.values())

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer (the span-name prefix before '.')."""
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stat[2]
        return out

    def write_spans(self, fh, phase: str) -> None:
        """Write this recorder's span records to ``fh`` as JSON lines."""
        for sid, name, t0, t1, pid in self.spans:
            fh.write(
                json.dumps(
                    {"phase": phase, "id": sid, "name": name,
                     "start": t0, "end": t1, "parent": pid}
                )
                + "\n"
            )


class _TimedProxy:
    def __init__(self, rec: Recorder, target, attrs, name: str) -> None:
        self._target = target
        for attr in attrs:
            setattr(self, attr, rec.timed(name, getattr(target, attr)))
        # Hot-path flag checks must not go through __getattr__.
        if hasattr(target, "enabled"):
            self.enabled = target.enabled

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def __len__(self) -> int:
        return len(self._target)


class NullRecorder:
    """The untraced run's recorder: every hook is a no-op."""

    def timed(self, name: str, fn: Callable) -> Callable:
        return fn

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, obj, attrs, name: str) -> None:
        pass

    def wrapped(self, obj, attrs, name: str):
        return contextlib.nullcontext()

    def proxy(self, target, attrs, name: str):
        return target

    def patched(self, module, attr: str, name: str):
        return contextlib.nullcontext()


def instrument_hierarchy(rec, hierarchy) -> None:
    """Wrap the public calls of a hierarchy, its levels and their policies."""
    rec.wrap(hierarchy, ["fetch_many"], "storage.fetch_many")
    rec.wrap(hierarchy, ["prefetch_many"], "storage.prefetch_many")
    rec.wrap(hierarchy, ["preload"], "storage.preload")
    for level in hierarchy.levels:
        rec.wrap(level, ["admit"], "cache.admit")
        rec.wrap(level, ["admit_many_absent"], "cache.admit_many")
        rec.wrap(level, ["evict"], "cache.evict")
        rec.wrap(level, ["touch", "touch_many"], "cache.touch")
        rec.wrap(level.policy, POLICY_HOOKS, "policies.hook")


def write_span_file(path: Path, recorders: Dict[str, "Recorder"]) -> None:
    """Write every recorder's spans to one JSON-lines file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for phase, rec in recorders.items():
            rec.write_spans(fh, phase)
