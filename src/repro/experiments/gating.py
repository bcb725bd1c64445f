"""Shared snapshot-comparison (gating) machinery.

Every snapshot the repo writes — ``BENCH_*.json`` (three tiers),
``SERVE_*.json`` and ``MATRIX_*.json`` — is one layout (a matrix
document, see :mod:`repro.experiments.matrix`) and gates CI the same
way: flatten the metrics of two snapshots to ``{name: value}``, then
diff each metric against a per-direction threshold.  This module is the
single implementation of that flattening and diff.

The vocabulary:

- a :class:`GateRule` says how one metric gates — its good *direction*,
  its comparison *mode* (relative change, strict-zero relative change,
  absolute increase), and a threshold *scale* (wall-clock metrics gate
  at a widened threshold);
- a *metric set* is ``{name: (value, GateRule)}``;
- :func:`compare_metric_sets` diffs two metric sets into rows with the
  statuses ``"regression"`` / ``"improved"`` / ``"ok"`` / ``"missing"``
  (metrics missing on either side never regress).

The flatteners (:func:`flatten_run_summary`,
:func:`flatten_multi_tenant`, :func:`flatten_cluster_section`) turn the
recurring cell sections into metric sets, each with one fixed rule set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "GateRule",
    "MetricSet",
    "WALL_THRESHOLD_FACTOR",
    "SUMMARY_METRIC_DIRECTIONS",
    "DERIVED_METRIC_DIRECTIONS",
    "FULLSCALE_WALL_METRICS",
    "compare_metric_sets",
    "count_regressions",
    "format_gate_rows",
    "flatten_run_summary",
    "flatten_multi_tenant",
    "flatten_cluster_section",
]

#: Wall-clock/RSS metrics are machine-noisy; they gate at
#: ``threshold * WALL_THRESHOLD_FACTOR`` so same-machine CI catches
#: multi-x slowdowns without flaking on scheduler jitter.
WALL_THRESHOLD_FACTOR = 4.0

#: Wall-clock/RSS fields of a fullscale cell's ``fullscale`` section.
FULLSCALE_WALL_METRICS = ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes")

#: run ``summary`` metric -> good direction ("lower" = increases regress).
SUMMARY_METRIC_DIRECTIONS = {
    "total_miss_rate": "lower",
    "fast_miss_rate": "lower",
    "io_time_s": "lower",
    "total_time_s": "lower",
    "bytes_moved": "lower",
}

#: run ``derived`` metric -> good direction.
DERIVED_METRIC_DIRECTIONS = {
    "prefetch_precision": "higher",
    "prefetch_recall": "higher",
}


@dataclass(frozen=True)
class GateRule:
    """How one metric gates.

    ``direction``
        ``"lower"`` (increases are bad) or ``"higher"``.
    ``mode``
        - ``"relative"`` — change relative to ``max(|old|, abs_floor)``;
          regresses past ``threshold * scale`` in the bad direction.
        - ``"relative_strict_zero"`` — like ``"relative"``, but an old
          value of exactly 0 tolerates no increase at all (a metric that
          was clean must stay clean).
        - ``"absolute_increase"`` — any increase regresses, threshold
          ignored (cross-tenant evictions).
    ``scale``
        Threshold multiplier; wall-clock metrics use
        :data:`WALL_THRESHOLD_FACTOR`.
    """

    direction: str = "lower"
    mode: str = "relative"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(f"direction must be 'lower'/'higher', got {self.direction!r}")
        if self.mode not in ("relative", "relative_strict_zero", "absolute_increase"):
            raise ValueError(f"unknown gate mode {self.mode!r}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


#: ``{metric name: (value, rule)}`` — what the flatteners produce and
#: :func:`compare_metric_sets` consumes.
MetricSet = Dict[str, Tuple[float, GateRule]]


def _compare_one(
    old_value: float, new_value: float, rule: GateRule, threshold: float, abs_floor: float
) -> Tuple[float, bool, bool]:
    """Returns ``(change, regressed, improved)`` for one metric pair."""
    limit = threshold * rule.scale
    if rule.mode == "absolute_increase":
        change = new_value - old_value
        bad = new_value > old_value
        good = new_value < old_value
    elif rule.mode == "relative_strict_zero" and old_value == 0.0:
        worse = new_value > 0.0 if rule.direction == "lower" else new_value < 0.0
        change = float("inf") if new_value > 0.0 else (
            float("-inf") if new_value < 0.0 else 0.0
        )
        bad = worse
        good = False
    else:
        denom = max(abs(old_value), abs_floor)
        change = (new_value - old_value) / denom
        bad = change > limit if rule.direction == "lower" else change < -limit
        good = change < 0 if rule.direction == "lower" else change > 0
    return change, bad, good and change != 0


def compare_metric_sets(
    old: Mapping[str, Tuple[float, GateRule]],
    new: Mapping[str, Tuple[float, GateRule]],
    threshold: float = 0.10,
    abs_floor: float = 1e-12,
) -> List[Dict[str, object]]:
    """Diff two metric sets; one row per metric present in either.

    Rows are sorted by metric name and carry ``metric`` / ``old`` /
    ``new`` / ``change`` / ``direction`` / ``status``; metrics missing
    on either side report status ``"missing"`` (with the present side's
    value) and never regress.  The rule of the *new* side wins when the
    two sides disagree (a renamed direction applies immediately).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            rows.append({
                "metric": name,
                "status": "missing",
                "old": old.get(name, (None,))[0],
                "new": new.get(name, (None,))[0],
            })
            continue
        old_value, _old_rule = old[name]
        new_value, rule = new[name]
        change, bad, good = _compare_one(
            float(old_value), float(new_value), rule, threshold, abs_floor
        )
        rows.append({
            "metric": name,
            "old": float(old_value),
            "new": float(new_value),
            "change": change,
            "direction": rule.direction,
            "status": "regression" if bad else ("improved" if good else "ok"),
        })
    return rows


def count_regressions(rows: List[Dict[str, object]]) -> int:
    return sum(1 for r in rows if r["status"] == "regression")


def format_gate_rows(rows: List[Dict[str, object]], verbose: bool = False) -> str:
    """Human-readable comparison table; non-ok rows always shown."""
    lines = [f"{'metric':<58} {'old':>12} {'new':>12} {'change':>9}  status"]
    lines.append("-" * len(lines[0]))
    shown = 0
    for row in rows:
        if row["status"] == "ok" and not verbose:
            continue
        shown += 1
        old = "-" if row.get("old") is None else f"{row['old']:.6g}"
        new = "-" if row.get("new") is None else f"{row['new']:.6g}"
        change = f"{row['change']:+.1%}" if "change" in row else "-"
        lines.append(f"{row['metric']:<58} {old:>12} {new:>12} {change:>9}  {row['status']}")
    n_reg = count_regressions(rows)
    lines.append(
        f"{len(rows)} metrics compared, {n_reg} regression(s), "
        f"{len(rows) - shown} unchanged/ok hidden"
        if not verbose
        else f"{len(rows)} metrics compared, {n_reg} regression(s)"
    )
    return "\n".join(lines)


# -- flatteners ---------------------------------------------------------------
# Each flattener checks the types of what it reads and raises a one-line
# ValueError naming the offending field, so the snapshot loader can run
# them as its structural check (a mistyped section never reaches the
# comparison as an AttributeError).


def _section(container: Mapping[str, object], key: str, where: str,
             required: bool = False) -> Mapping[str, object]:
    if key not in container:
        if required:
            raise ValueError(f"{where}.{key} is missing")
        return {}
    value = container[key]
    if not isinstance(value, Mapping):
        raise ValueError(f"{where}.{key} must be an object, got {type(value).__name__}")
    return value


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def _optional_number(container: Mapping[str, object], key: str,
                     where: str) -> Optional[float]:
    """The number at ``key``; ``None`` when absent or JSON null."""
    value = container.get(key)
    return None if value is None else _number(value, f"{where}.{key}")


def flatten_run_summary(run: Mapping[str, object], prefix: str) -> MetricSet:
    """Flatten one cell's run sections into a metric set.

    ``summary``/``derived``/histogram percentiles/trace drops gate at the
    sim threshold.  Wall-clock fields gate only where a cell records them
    for that purpose — a top-level ``per_step_wall_s`` and the
    :data:`FULLSCALE_WALL_METRICS` of a ``fullscale`` section — at the
    widened :data:`WALL_THRESHOLD_FACTOR` threshold; the informational
    ``wall_s`` every cell carries is never gated.
    """
    if not isinstance(run, Mapping):
        raise ValueError(f"{prefix} must be an object, got {type(run).__name__}")
    out: MetricSet = {}
    summary = _section(run, "summary", prefix)
    for name, direction in SUMMARY_METRIC_DIRECTIONS.items():
        value = _optional_number(summary, name, f"{prefix}.summary")
        if value is not None:
            out[f"{prefix}.{name}"] = (value, GateRule(direction))
    derived = _section(run, "derived", prefix)
    for name, direction in DERIVED_METRIC_DIRECTIONS.items():
        value = _optional_number(derived, name, f"{prefix}.derived")
        if value is not None:
            out[f"{prefix}.{name}"] = (value, GateRule(direction))
    for hist_name in ("fetch_latency_seconds", "frame_time_seconds"):
        where = f"{prefix}.derived.{hist_name}"
        for labels, row in sorted(_section(derived, hist_name, f"{prefix}.derived").items()):
            if not isinstance(row, Mapping):
                raise ValueError(f"{where}.{labels} must be an object")
            for pct in ("p50", "p95", "p99"):
                value = _optional_number(row, pct, f"{where}.{labels}")
                if value is not None:
                    out[f"{prefix}.{hist_name}{{{labels}}}.{pct}"] = (value, GateRule("lower"))
    drops = _optional_number(_section(run, "trace", prefix), "n_dropped", f"{prefix}.trace")
    if drops is not None:
        out[f"{prefix}.trace.n_dropped"] = (drops, GateRule("lower"))
    wall = GateRule("lower", scale=WALL_THRESHOLD_FACTOR)
    per_step = _optional_number(run, "per_step_wall_s", prefix)
    if per_step is not None:
        out[f"{prefix}.per_step_wall_s"] = (per_step, wall)
    fullscale = _section(run, "fullscale", prefix)
    for name in FULLSCALE_WALL_METRICS:
        value = _optional_number(fullscale, name, f"{prefix}.fullscale")
        if value is not None:
            out[f"{prefix}.fullscale.{name}"] = (value, wall)
    return out


def flatten_multi_tenant(mt: Mapping[str, object], prefix: str = "multi_tenant") -> MetricSet:
    """Flatten a ``multi_tenant`` section (a serve cell) into a metric set.

    One rule set, at least as strict as each of the serve and bench
    gates it replaced:

    - makespan and the pooled and per-tenant p50/p95/p99 frame times
      gate ``relative_strict_zero`` (a tail that was exactly 0 must stay
      0);
    - cross-tenant evictions gate ``absolute_increase`` (one more is a
      regression);
    - the Jain fairness index gates ``relative`` (higher is better; for
      Jain <= 1 a relative drop is at least the absolute drop).
    """
    if not isinstance(mt, Mapping):
        raise ValueError(f"{prefix} must be an object, got {type(mt).__name__}")
    frames = _section(mt, "frame_times", prefix, required=True)
    where = f"{prefix}.frame_times"
    strict = GateRule("lower", mode="relative_strict_zero")
    out: MetricSet = {
        f"{prefix}.fairness_jain": (
            _number(frames.get("fairness_jain"), f"{where}.fairness_jain"), GateRule("higher"),
        ),
        f"{prefix}.cross_evictions": (
            _number(mt.get("cross_evictions"), f"{prefix}.cross_evictions"),
            GateRule("lower", mode="absolute_increase"),
        ),
        f"{prefix}.makespan_s": (_number(mt.get("makespan_s"), f"{prefix}.makespan_s"), strict),
    }
    pooled = _section(frames, "pooled", where, required=True)
    for pct in ("p50", "p95", "p99"):
        out[f"{prefix}.pooled.{pct}"] = (_number(pooled.get(pct), f"{where}.pooled.{pct}"), strict)
    for tenant, row in sorted(_section(frames, "per_tenant", where, required=True).items()):
        if not isinstance(row, Mapping):
            raise ValueError(f"{where}.per_tenant.{tenant} must be an object")
        for pct in ("p50", "p95", "p99"):
            out[f"{prefix}.{tenant}.{pct}"] = (
                _number(row.get(pct), f"{where}.per_tenant.{tenant}.{pct}"), strict,
            )
    return out


def flatten_cluster_section(
    section: Mapping[str, object], prefix: str = "cluster"
) -> MetricSet:
    """Flatten a sharded cell's network ledger (all simulated quantities)."""
    if not isinstance(section, Mapping):
        raise ValueError(f"{prefix} must be an object, got {type(section).__name__}")
    out: MetricSet = {}
    for route, value in sorted(_section(section, "split_bytes", prefix).items()):
        out[f"{prefix}.split_bytes.{route}"] = (
            _number(value, f"{prefix}.split_bytes.{route}"), GateRule("lower"),
        )
    locality = _optional_number(
        _section(section, "shard_map", prefix), "locality_score", f"{prefix}.shard_map"
    )
    if locality is not None:
        out[f"{prefix}.locality_score"] = (locality, GateRule("higher"))
    for name in ("peer_bytes", "peer_time_s", "peer_transfers", "link_fallbacks",
                 "fallback_reads"):
        value = _optional_number(section, name, prefix)
        if value is not None:
            out[f"{prefix}.{name}"] = (value, GateRule("lower"))
    for link, row in sorted(_section(section, "links", prefix).items()):
        if not isinstance(row, Mapping):
            raise ValueError(f"{prefix}.links.{link} must be an object")
        for field in ("bytes", "time_s"):
            value = _optional_number(row, field, f"{prefix}.links.{link}")
            if value is not None:
                out[f"{prefix}.link.{link}.{field}"] = (value, GateRule("lower"))
    return out
