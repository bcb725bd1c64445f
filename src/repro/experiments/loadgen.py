"""Synthetic multi-viewer load generation (``repro serve-sim``).

Synthesizes N user streams — an orbit/zoom/flythrough mix with seeded
exponential inter-arrival times — and drives them through the
:mod:`repro.runtime.sessions` scheduler over one shared hierarchy.  The
result is a schema-versioned ``SERVE_<label>.json`` snapshot whose
numbers are all *simulated* (frame-time percentiles per tenant, fairness,
quota ledger, byte ledger), so two machines produce byte-identical
snapshots and CI can gate on per-tenant p99 frame time the same way the
bench gate works.

Everything is derived from ``LoadGenConfig.seed`` through a
:class:`numpy.random.SeedSequence` tree: child 0 draws the workload mix
and the arrival process, child ``i + 1`` seeds session ``i``'s camera
path — so adding a session never reshuffles the existing ones.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.gating import GateRule, MetricSet, compare_metric_sets
from repro.experiments.matrix import MatrixSpec
from repro.experiments.runner import ExperimentSetup, fresh_hierarchy
from repro.runtime.context import RunContext
from repro.runtime.sessions import SessionSpec, run_sessions

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "LoadGenConfig",
    "make_session_specs",
    "run_load",
    "serve_matrix_spec",
    "write_serve",
    "load_serve",
    "compare_serve",
    "format_serve_comparison",
]

SERVE_SCHEMA_VERSION = 1

#: workload mix entry -> runtime workload name ("orbit" is the paper's
#: spherical great-circle path).
_MIX_WORKLOADS = {"orbit": "spherical", "zoom": "zoom", "flythrough": "flythrough"}


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one synthetic serving scenario (fully seeded)."""

    n_sessions: int = 8
    #: (orbit, zoom, flythrough) mix weights; normalised internally.
    mix: Tuple[float, float, float] = (0.5, 0.25, 0.25)
    #: mean session arrival rate, sessions per simulated second
    #: (exponential inter-arrivals); <= 0 means all arrive at t = 0.
    arrival_rate_hz: float = 2.0
    steps: int = 24
    degrees: Tuple[float, float] = (5.0, 10.0)
    distance: float = 2.5
    dataset: str = "3d_ball"
    blocks: int = 256
    scale: Optional[float] = 0.08
    cache_ratio: float = 0.5
    policy: str = "lru"
    partition: str = "equal"  # "equal" | "none"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be >= 1, got {self.n_sessions}")
        if len(self.mix) != 3 or any(w < 0 for w in self.mix) or sum(self.mix) <= 0:
            raise ValueError(f"mix must be 3 non-negative weights, got {self.mix}")
        if self.partition not in ("equal", "none"):
            raise ValueError(f"partition must be 'equal' or 'none', got {self.partition!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["mix"] = list(d["mix"])
        d["degrees"] = list(d["degrees"])
        return d


def make_session_specs(config: LoadGenConfig) -> List[SessionSpec]:
    """The deterministic session list a config describes.

    Session ``i`` is named ``s<i:03d>``; its workload is drawn from the
    mix, its arrival from the exponential inter-arrival process, and its
    camera-path seed from SeedSequence child ``i + 1`` — all pure
    functions of ``config.seed``.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.n_sessions + 1)
    draw = np.random.default_rng(children[0])
    weights = np.asarray(config.mix, dtype=np.float64)
    weights = weights / weights.sum()
    kinds = list(_MIX_WORKLOADS)
    picks = draw.choice(len(kinds), size=config.n_sessions, p=weights)
    if config.arrival_rate_hz > 0:
        gaps = draw.exponential(1.0 / config.arrival_rate_hz, size=config.n_sessions)
        arrivals = np.concatenate(([0.0], np.cumsum(gaps)[:-1]))
    else:
        arrivals = np.zeros(config.n_sessions)
    specs = []
    for i in range(config.n_sessions):
        path_seed = int(
            np.random.default_rng(children[i + 1]).integers(0, 2**31 - 1)
        )
        specs.append(
            SessionSpec(
                session_id=f"s{i:03d}",
                workload=_MIX_WORKLOADS[kinds[int(picks[i])]],
                steps=config.steps,
                degrees=config.degrees,
                distance=config.distance,
                seed=path_seed,
                arrival_s=float(arrivals[i]),
            )
        )
    return specs


def run_load(
    config: Optional[LoadGenConfig] = None,
    ctx: Optional[RunContext] = None,
    attribution: bool = False,
    tracer_capacity: int = 500_000,
) -> dict:
    """Run one serving scenario end to end; returns the snapshot document.

    The document contains only simulated (machine-independent) numbers
    plus the config that produced them; repeat runs are byte-identical.

    ``attribution=True`` adds the per-tenant latency attribution section
    (see :mod:`repro.obs.attribution`) to ``multi_tenant``; when no
    ``ctx`` was passed, a :class:`~repro.trace.Tracer` of
    ``tracer_capacity`` events is created to feed it (a caller-supplied
    ``ctx`` must then carry an enabled tracer itself).
    """
    config = config if config is not None else LoadGenConfig()
    if attribution and ctx is None:
        from repro.trace import Tracer

        ctx = RunContext(tracer=Tracer(capacity=tracer_capacity))
    setup = ExperimentSetup.for_dataset(
        config.dataset,
        target_n_blocks=config.blocks,
        scale=config.scale,
        cache_ratio=config.cache_ratio,
        seed=config.seed,
    )
    hierarchy = fresh_hierarchy(setup.grid, config.cache_ratio, config.policy)
    specs = make_session_specs(config)
    result = run_sessions(
        specs,
        hierarchy,
        setup.grid,
        view_angle_deg=setup.view_angle_deg,
        render_model=setup.render_model,
        ctx=ctx,
        partition="equal" if config.partition == "equal" else None,
        attribution=attribution,
    )
    return {
        "schema_version": SERVE_SCHEMA_VERSION,
        "config": config.to_dict(),
        "workloads": {s.session_id: s.workload for s in specs},
        "multi_tenant": result.as_dict(),
    }


def serve_matrix_spec(
    config: Optional[LoadGenConfig] = None,
    label: str = "serve",
    attribution: bool = True,
) -> MatrixSpec:
    """One serving scenario as a single-cell matrix spec.

    The ``RunConfig`` fields carry everything a session stream shares with
    a replay cell (``sessions`` is the tenant count); the serve-only knobs
    (mix weights, arrival process, partition, attribution) ride in
    ``[setup]``.  The committed ``specs/serve-baseline.toml`` pins the
    ``SERVE_baseline.json`` scenario this way, and axes over ``sessions``
    / ``policy`` / ``cache_ratio`` turn it into a serving study.
    """
    config = config if config is not None else LoadGenConfig()
    return MatrixSpec(
        label=label,
        runner="serve",
        base={
            "dataset": config.dataset,
            "blocks": config.blocks,
            "scale": config.scale,
            "steps": config.steps,
            "degrees": tuple(config.degrees),
            "distance": config.distance,
            "cache_ratio": config.cache_ratio,
            "policy": config.policy,
            "seed": config.seed,
            "sessions": config.n_sessions,
        },
        setup={
            "mix": tuple(config.mix),
            "arrival_rate_hz": config.arrival_rate_hz,
            "partition": config.partition,
            "attribution": attribution,
        },
    )


def write_serve(doc: dict, label: str, out_dir: "str | Path" = ".") -> Path:
    """Write ``SERVE_<label>.json``; returns the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"SERVE_{label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_serve(path: Path) -> dict:
    """Read a serve snapshot, checking the schema version."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != SERVE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: serve schema version {version} != supported {SERVE_SCHEMA_VERSION}"
        )
    return doc


def _serve_metric_set(doc: dict) -> MetricSet:
    """The serve gate as a gating metric set (serve-historical names).

    Makespan and frame-time percentiles gate with the strict-zero relative
    rule (a metric that was clean must stay clean), cross-tenant evictions
    with the absolute-increase rule, and the Jain fairness index with the
    absolute-drop rule — the serve gate's historical semantics, now
    expressed on the shared :mod:`repro.experiments.gating` vocabulary.
    """
    mt = doc["multi_tenant"]
    frames = mt["frame_times"]
    strict = GateRule("lower", mode="relative_strict_zero")
    out: MetricSet = {
        "makespan_s": (float(mt["makespan_s"]), strict),
        "cross_evictions": (
            float(mt["cross_evictions"]), GateRule("lower", mode="absolute_increase"),
        ),
        "pooled/p99": (float(frames["pooled"]["p99"]), strict),
        "fairness_jain": (
            float(frames["fairness_jain"]), GateRule("higher", mode="absolute_drop"),
        ),
    }
    for tenant, summary in sorted(frames["per_tenant"].items()):
        for q in ("p50", "p95", "p99"):
            out[f"{tenant}/{q}"] = (float(summary[q]), strict)
    return out


def comparable_serve_metrics(doc: dict) -> Dict[str, float]:
    """Flatten the gateable (simulated) metrics of a serve snapshot.

    Per-tenant p50/p95/p99 frame times, the pooled p99, the makespan, and
    the cross-eviction count — all lower-is-better; the fairness index is
    gated separately (higher is better).
    """
    return {
        name: value
        for name, (value, _rule) in _serve_metric_set(doc).items()
        if name != "fairness_jain"
    }


def compare_serve(
    old_doc: dict, new_doc: dict, threshold: float = 0.25
) -> List[dict]:
    """Compare two serve snapshots; per-tenant p99s regress past ``threshold``.

    Returns rows like the bench comparison: metrics missing on either
    side report ``"missing"`` and never regress (so a committed baseline
    stays valid when new tenants/metrics appear).  The fairness index is
    gated downward: a drop of more than ``threshold`` (absolute) is a
    regression.  The diff itself runs on
    :func:`repro.experiments.gating.compare_metric_sets`; this wrapper
    translates the canonical rows back to the serve gate's historical
    shape (``ratio`` column, ``regressed``/``ok`` statuses, fairness
    last) so committed baselines keep gating with identical verdicts.
    """
    canonical = compare_metric_sets(
        _serve_metric_set(old_doc), _serve_metric_set(new_doc), threshold=threshold
    )
    rows: List[dict] = []
    fairness: Optional[dict] = None
    for row in canonical:
        if row["status"] == "missing":
            translated = {"metric": row["metric"], "status": "missing"}
        else:
            translated = {
                "metric": row["metric"],
                "old": row["old"],
                "new": row["new"],
                "ratio": row["change"],
                "status": "regressed" if row["status"] == "regression" else "ok",
            }
        if row["metric"] == "fairness_jain":
            fairness = translated
        else:
            rows.append(translated)
    if fairness is not None:
        rows.append(fairness)
    return rows


def format_serve_comparison(rows: List[dict], verbose: bool = False) -> str:
    """Human-readable comparison table (regressions always shown)."""
    lines = []
    shown = rows if verbose else [r for r in rows if r["status"] != "ok"]
    regressed = [r for r in rows if r["status"] == "regressed"]
    for r in shown:
        if r["status"] == "missing":
            lines.append(f"  {r['metric']:<28} missing on one side")
        else:
            lines.append(
                f"  {r['metric']:<28} {r['old']:.6g} -> {r['new']:.6g} "
                f"({r['ratio']:+.1%}) {r['status']}"
            )
    header = (
        f"{len(regressed)} regressed / {len(rows)} compared"
        if regressed
        else f"ok: {len(rows)} metrics within threshold"
    )
    return "\n".join([header] + lines)
