"""Trace exporters: JSON-lines and Chrome-trace (Perfetto) formats.

JSONL is the lossless interchange format — one event dict per line,
round-trippable through :func:`read_jsonl`.

The Chrome trace format (the ``traceEvents`` JSON consumed by
``chrome://tracing`` and https://ui.perfetto.dev) lays events out on a
simulated wall clock: events are replayed in sequence order and each
one's charged duration advances the clock, with one track (``tid``) per
serving level plus dedicated tracks for render and cache-maintenance
events.  Durations are stretched to microseconds via ``time_scale`` so
nanosecond-scale DRAM reads stay visible next to millisecond HDD seeks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.trace.events import TraceEvent

__all__ = ["write_jsonl", "read_jsonl", "to_chrome_trace", "write_chrome_trace"]

PathLike = Union[str, Path]


# -- JSON lines ---------------------------------------------------------------


def write_jsonl(events: Iterable[TraceEvent], path: PathLike) -> Path:
    """Write one JSON object per event; returns the path written."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps(e.as_dict(), separators=(",", ":")))
            fh.write("\n")
    return path


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Parse a file written by :func:`write_jsonl` (blank lines ignored).

    Raises a one-line :class:`ValueError` naming the file (and line) on an
    empty file or a truncated/corrupt line — including a non-finite
    ``time_s`` (``NaN``/``Infinity``, which JSON readers accept but no
    time ledger can hold) — so CLI consumers can report it without a
    traceback.
    """
    path = Path(path)
    out: List[TraceEvent] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = TraceEvent.from_dict(json.loads(line))
                if not math.isfinite(event.time_s):
                    raise ValueError(f"time_s must be finite, got {event.time_s}")
                out.append(event)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: truncated or corrupt trace line ({exc})"
                ) from None
    if not out:
        raise ValueError(f"{path}: empty trace file (no events)")
    return out


# -- Chrome trace -------------------------------------------------------------

# Events that occupy the I/O timeline (duration events); everything else
# becomes an instant marker on its own track.  Failed attempts ("fault")
# and backoffs ("retry") are charged io, so they advance the clock like
# movement events; "degraded" stays an instant marker — its time is the
# extra already inside the adjacent movement event's duration.
_DURATION_KINDS = frozenset({"hit", "fetch", "prefetch", "render", "fault", "retry"})


def _track_for(event: TraceEvent) -> str:
    if event.kind == "render":
        return "render"
    if event.kind == "xfer":
        # Peer transfers live on per-link network tracks (level = link name).
        return f"net:{event.level}" if event.level else "net"
    if event.kind in ("evict", "bypass", "preload", "re_miss"):
        return f"cache:{event.level}" if event.level else "cache"
    return f"io:{event.level}" if event.level else "io"


def to_chrome_trace(
    events: Sequence[TraceEvent],
    time_scale: float = 1e6,
    process_name: str = "repro",
) -> Dict[str, object]:
    """Build a Chrome-trace dict (``{"traceEvents": [...]}``).

    ``time_scale`` converts simulated seconds to trace microseconds
    (default 1e6: one simulated second = one trace second).  The clock is
    the cumulative simulated time of the events in sequence order — a
    serialisation of the run, not the overlapped schedule.
    """
    if time_scale <= 0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    trace_events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    clock = 0.0
    for e in sorted(events, key=lambda ev: ev.seq):
        ts = clock * time_scale
        args = {
            "seq": e.seq,
            "step": e.step,
            "key": e.key,
            "nbytes": e.nbytes,
            "time_s": e.time_s,
        }
        if e.span:
            args["span"] = e.span
        if e.kind == "re_miss":
            args["age_steps"] = e.age_steps
            args["origin"] = e.origin
        if e.kind in _DURATION_KINDS:
            trace_events.append(
                {
                    "name": f"{e.kind} {e.key}" if e.key >= 0 else e.kind,
                    "cat": e.kind,
                    "ph": "X",
                    "ts": ts,
                    "dur": max(e.time_s * time_scale, 0.001),
                    "pid": 0,
                    "tid": _track_for(e),
                    "args": args,
                }
            )
            clock += e.time_s
        else:
            trace_events.append(
                {
                    "name": f"{e.kind} {e.key}" if e.key >= 0 else e.kind,
                    "cat": e.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 0,
                    "tid": _track_for(e),
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Sequence[TraceEvent],
    path: PathLike,
    time_scale: float = 1e6,
) -> Path:
    """Serialise :func:`to_chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(events, time_scale=time_scale), fh)
    return path
