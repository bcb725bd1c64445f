"""The ``repro bench`` regression harness.

Runs a pinned suite — two camera paths (an orbit and a zoom) × two
policies (the LRU baseline and the paper's app-aware optimizer) on one
synthetic dataset — with the metrics registry, event tracer, and phase
profiler all attached, and emits a schema-versioned ``BENCH_<label>.json``
snapshot.  Everything the comparison looks at is *simulated*-clock
derived, so two snapshots of the same code are bit-identical regardless
of the machine; wall-clock phase timings (and the per-run ``wall_s`` /
suite ``suite_wall_s`` fields) ride along for human inspection but are
never compared.

Cells run on the batched replay engine with exact per-block trace
emission; eviction forensics
(:class:`~repro.storage.forensics.EvictionLineage`) and the per-frame
latency attribution of :mod:`repro.obs.attribution` ride along in each
run's informational ``attribution`` section.  ``workers > 1``
fans the four independent cells out over worker processes, each building
its own tables from the pinned config, so snapshots are byte-identical
regardless of parallelism.

``compare_bench`` diffs two snapshots against per-direction relative
thresholds and reports regressions (``repro bench --compare`` exits
non-zero when any metric regresses past threshold).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.camera.path import spherical_path, zoom_path
from repro.runtime.drivers import run_baseline
from repro.experiments.gating import (
    WALL_THRESHOLD_FACTOR,
    GateRule,
    MetricSet,
    compare_metric_sets,
    flatten_cluster_section,
    flatten_multi_tenant,
    flatten_run_summary,
)
from repro.experiments.matrix import (
    MatrixSpec,
    execute_cells,
    expand_cells,
    run_matrix_cell,
    setup_for,
)
from repro.experiments.runner import ExperimentSetup
from repro.faults import FAULT_PROFILES, FaultInjector, FaultPlan
from repro.obs.attribution import attribute_run
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.storage.forensics import EvictionLineage, optimal_miss_count
from repro.trace import Tracer, aggregate
from repro.utils.rng import derive_seed

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "WALL_THRESHOLD_FACTOR",
    "BENCH_CELLS",
    "PROFILE_CELL",
    "BenchConfig",
    "bench_matrix_spec",
    "derive_fault_seed",
    "run_bench",
    "write_bench",
    "load_bench",
    "comparable_metrics",
    "compare_bench",
    "format_comparison",
]

#: Bump when the BENCH_*.json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

PathLike = Union[str, Path]


@dataclass(frozen=True)
class BenchConfig:
    """Pinned parameters of the bench suite (recorded into the snapshot)."""

    dataset: str = "3d_ball"
    blocks: int = 256
    scale: float = 0.08
    steps: int = 40
    cache_ratio: float = 0.5
    seed: int = 0
    n_directions: int = 64
    n_distances: int = 2
    degrees_per_step: float = 5.0
    tracer_capacity: int = 500_000
    #: Named fault profile (see :data:`repro.faults.FAULT_PROFILES`);
    #: ``"none"`` keeps the fault-free fast path and a byte-identical
    #: snapshot layout (no ``faults`` section in the runs).
    faults: str = "none"
    fault_seed: int = 0

    @classmethod
    def quick(cls) -> "BenchConfig":
        """The CI-smoke variant: same shape, a fraction of the work."""
        return cls(blocks=64, scale=0.04, steps=8, n_directions=16, n_distances=1)


def _paths(config: BenchConfig, view_angle_deg: float):
    return {
        "orbit": spherical_path(
            config.steps,
            degrees_per_step=config.degrees_per_step,
            distance=2.5,
            view_angle_deg=view_angle_deg,
            seed=config.seed,
        ),
        "zoom": zoom_path(
            config.steps,
            degrees_per_step=config.degrees_per_step,
            view_angle_deg=view_angle_deg,
            seed=config.seed,
        ),
    }


def _ratio(numer: Optional[object], denom: Optional[object]) -> Optional[float]:
    if numer is None or denom is None or not denom.value:
        return None
    return numer.value / denom.value


def _histogram_percentiles(registry: MetricsRegistry, name: str) -> Dict[str, Dict[str, float]]:
    """``{flat-label: {count, p50, p95, p99}}`` for every histogram ``name``."""
    out: Dict[str, Dict[str, float]] = {}
    for metric in registry.metrics():
        if isinstance(metric, Histogram) and metric.name == name:
            key = ",".join(f"{k}={v}" for k, v in metric.labels) or "all"
            out[key] = {"count": metric.count, **metric.percentiles()}
    return out


#: The pinned (path, policy) cells of the suite, in run order.
BENCH_CELLS: Tuple[Tuple[str, str], ...] = (
    ("orbit", "lru"),
    ("orbit", "app-aware"),
    ("zoom", "lru"),
    ("zoom", "app-aware"),
)

#: The cell ``repro bench --profile`` re-runs with a span timeline kept.
PROFILE_CELL = "orbit/app-aware"


def derive_fault_seed(base: int, index: int) -> int:
    """Deterministic per-cell fault seed: hash of ``(base, cell index)``.

    Every suite cell must see a *distinct* fault draw (seeding each cell's
    injector with the raw base seed would fire the identical fault
    schedule into four different workloads), yet the derivation has to be
    a pure function of the pinned config so serial and ``--workers N``
    runs produce byte-identical snapshots.  Delegates to the shared
    :func:`repro.utils.rng.derive_seed` (SeedSequence spawn-stable
    hashing), which the matrix runtime uses for the same purpose.
    """
    return derive_seed(int(base), int(index))


def _run_one(
    setup: ExperimentSetup,
    path,
    policy: str,
    config: BenchConfig,
    profiler: Optional[PhaseProfiler] = None,
    cell_index: int = 0,
) -> Dict[str, object]:
    """One (path, policy) cell: run instrumented, snapshot everything."""
    t0 = time.perf_counter()
    registry = MetricsRegistry()
    tracer = Tracer(capacity=config.tracer_capacity)
    if profiler is None:
        profiler = PhaseProfiler(tracer=tracer)
    context = setup.context(path)
    hierarchy = setup.hierarchy("lru" if policy == "app-aware" else policy)
    # Per-block trace emission: the attribution section replays the
    # engine's exact per-fetch time folds from the event stream, which an
    # aggregated (count > 1) roll-up cannot support.
    hierarchy.aggregate_trace = False
    lineage = EvictionLineage()
    hierarchy.set_forensics(lineage)
    injector = None
    derived_seed = derive_fault_seed(config.fault_seed, cell_index)
    if config.faults != "none":
        injector = FaultInjector(FaultPlan.from_profile(config.faults, seed=derived_seed))
        hierarchy.set_fault_injector(injector)
    with profiler.span("replay"):
        if policy == "app-aware":
            result = setup.optimizer().run(
                context, hierarchy, tracer=tracer, registry=registry,
                profiler=profiler,
            )
        else:
            result = run_baseline(
                context, hierarchy, tracer=tracer, registry=registry,
                profiler=profiler,
            )

    summary = aggregate(tracer.events())
    precision = _ratio(
        registry.get("prefetch_useful_total"), registry.get("prefetch_evaluated_total")
    )
    recall = _ratio(
        registry.get("prefetch_useful_total"), registry.get("prefetch_demand_window_total")
    )
    run: Dict[str, object] = {
        # Every tier replays on the batched engine; the field stays so the
        # snapshot schema and committed baselines are unchanged.
        "engine": "batched",
        "wall_s": time.perf_counter() - t0,  # informational; never compared
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "derived": {
            "prefetch_precision": precision,
            "prefetch_recall": recall,
            "fetch_latency_seconds": _histogram_percentiles(
                registry, "fetch_latency_seconds"
            ),
            "frame_time_seconds": _histogram_percentiles(registry, "frame_time_seconds"),
        },
        "metrics": registry.snapshot(),
        "trace": {
            **tracer.drop_stats(),
            "total_bytes": summary.total_bytes,
            "ledger_agrees": (
                tracer.n_dropped == 0
                and float(summary.total_bytes) == float(result.extras["bytes_moved"])
            ),
        },
        "phases": profiler.report(),
    }
    # Forensics + per-frame latency attribution (informational: the
    # comparison allowlist never reads this section).  The regret is the
    # demand stream's actual fast-level misses vs the Belady offline bound
    # over the same keys and capacity; a warm importance preload can make
    # it negative (see repro.storage.forensics), so it is reported raw.
    attribution = attribute_run(
        tracer.events(), result.steps, drop_stats=tracer.drop_stats()
    )
    capacity = hierarchy.fastest.capacity
    actual_misses = hierarchy.fastest.stats.misses
    belady_misses = optimal_miss_count(
        [int(k) for k in context.demand_trace()], capacity
    )
    doc = attribution.as_dict(include_frames=True)
    doc["forensics"] = lineage.as_dict()
    doc["regret"] = {
        "policy": policy,
        "fast_capacity": capacity,
        "actual_fast_misses": int(actual_misses),
        "belady_misses": int(belady_misses),
        "regret": int(actual_misses) - int(belady_misses),
    }
    run["attribution"] = doc
    if injector is not None:
        # Gated on the injector so fault-free snapshots stay byte-identical
        # to pre-faults baselines.
        run["faults"] = {
            "profile": config.faults,
            "seed": config.fault_seed,
            "derived_seed": derived_seed,
            "stats": injector.stats.as_dict(),
            "trace": {
                "faults": summary.total_faults,
                "retries": summary.total_retries,
                "degraded": summary.total_degraded,
                "fault_time_s": summary.fault_time_s,
            },
        }
    return run


def bench_matrix_spec(config: BenchConfig) -> MatrixSpec:
    """The bench suite as a matrix spec.

    Expanding this spec reproduces :data:`BENCH_CELLS` exactly — same
    keys, same run order, same per-cell fault-seed derivation — so the
    committed ``specs/bench*.toml`` files and ``repro bench`` are two
    spellings of one suite (a test pins them equal).
    """
    return MatrixSpec(
        label="bench",
        runner="bench-cell",
        base={
            "dataset": config.dataset,
            "blocks": config.blocks,
            "scale": config.scale,
            "steps": config.steps,
            "cache_ratio": config.cache_ratio,
            "seed": config.seed,
            "degrees": (config.degrees_per_step, config.degrees_per_step),
            "faults": config.faults,
            "fault_seed": config.fault_seed,
        },
        axes={
            "workload": ("spherical", "zoom"),
            "policy": ("lru", "app-aware"),
        },
        labels={"workload": {"spherical": "orbit"}},
        setup={
            "n_directions": config.n_directions,
            "n_distances": config.n_distances,
            "tracer_capacity": config.tracer_capacity,
        },
        figures=(
            {
                "x": "policy",
                "metric": "total_miss_rate",
                "group_by": "workload",
                "title": "miss rate: LRU baseline vs app-aware",
            },
        ),
    )


def run_bench(
    config: Optional[BenchConfig] = None,
    label: str = "local",
    quick: bool = False,
    progress=None,
    workers: int = 1,
    profile_path: Optional[PathLike] = None,
    faults: Optional[str] = None,
    fault_seed: Optional[int] = None,
) -> Dict[str, object]:
    """Run the pinned suite; returns the JSON-ready snapshot document.

    ``progress`` is an optional ``str -> None`` callback (the CLI passes
    ``print``) invoked before each phase.  ``workers > 1`` runs the four
    cells in that many worker processes (capped at the cell count); every
    simulated metric is identical to a serial run.  ``profile_path``,
    when given, re-runs the :data:`PROFILE_CELL` with a span timeline kept
    and writes a Chrome-trace JSON there.

    ``faults``/``fault_seed`` (when not None) override the config's fault
    profile: each cell then runs with a seeded
    :class:`~repro.faults.FaultInjector` installed on its hierarchy, and
    every run grows a ``faults`` section (injector stats + trace fault
    totals).  The default (``"none"``) keeps fault-free snapshots
    byte-identical to pre-faults baselines.
    """
    if config is None:
        config = BenchConfig.quick() if quick else BenchConfig()
    if faults is not None or fault_seed is not None:
        config = replace(
            config,
            faults=faults if faults is not None else config.faults,
            fault_seed=fault_seed if fault_seed is not None else config.fault_seed,
        )
    if config.faults not in FAULT_PROFILES:
        raise ValueError(
            f"unknown fault profile {config.faults!r}; expected one of {FAULT_PROFILES}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    notify = progress if progress is not None else (lambda msg: None)
    t0 = time.perf_counter()

    # The suite is a committed matrix spec; expanding it reproduces the
    # pinned BENCH_CELLS keys, order, and per-cell seed derivation.
    spec = bench_matrix_spec(config)
    cells = expand_cells(spec)

    suite_profiler = PhaseProfiler()
    with suite_profiler.span("bench"):
        notify(f"setup: {config.dataset}, ~{config.blocks} blocks, {config.steps} steps")
        with suite_profiler.span("setup"):
            setup = setup_for(cells[0].config, spec.setup)

        runs: Dict[str, Dict[str, object]] = {}
        n_workers = min(workers, len(cells))
        if n_workers > 1:
            notify(f"runs: {len(cells)} cells on {n_workers} workers")
            with suite_profiler.span("runs"):
                runs = execute_cells(
                    cells, spec.runner, spec.setup, workers=n_workers, progress=notify
                )
        else:
            notify("building T_visible / T_important tables")
            with suite_profiler.span("table_build"):
                setup.importance_table  # noqa: B018 - builds and caches
                setup.visible_table  # noqa: B018 - builds and caches
            for cell in cells:
                notify(f"run: {cell.key}")
                with suite_profiler.span(f"run {cell.key.replace('/', ':')}"):
                    runs[cell.key] = run_matrix_cell(cell, spec)

        # The multi-tenant serving scenario: a pinned 8-session
        # orbit/zoom/flythrough mix over one shared hierarchy with equal
        # tenant quotas, capped so the DRAM level can hold at least one
        # block per tenant on the tiniest configs.  Every number in it is
        # simulated-clock derived, so per-tenant tail latencies and the
        # fairness gauge gate the same way the single-stream cells do.
        from repro.experiments.loadgen import LoadGenConfig, run_load

        dram_capacity = max(
            1, int(round(setup.grid.n_blocks * config.cache_ratio**2))
        )
        n_sessions = min(4 if quick else 8, dram_capacity)
        notify(f"multi-tenant: {n_sessions}-session mixed serve scenario")
        with suite_profiler.span("multi_tenant"):
            serve_doc = run_load(
                LoadGenConfig(
                    n_sessions=n_sessions,
                    steps=6 if quick else 12,
                    blocks=config.blocks,
                    scale=config.scale,
                    cache_ratio=config.cache_ratio,
                    seed=config.seed,
                ),
                attribution=True,
            )
        multi_tenant = {
            "config": serve_doc["config"],
            "workloads": serve_doc["workloads"],
            **serve_doc["multi_tenant"],
        }

    doc: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "engine": "batched",
        "workers": n_workers,
        "config": asdict(config),
        "runs": runs,
        "multi_tenant": multi_tenant,
        "suite_wall_s": time.perf_counter() - t0,  # informational; never compared
        "phases": suite_profiler.report(),
    }

    if profile_path is not None:
        notify(f"profile: re-running {PROFILE_CELL} with span timeline")
        path_name, policy = PROFILE_CELL.split("/")
        run_profiler = PhaseProfiler(keep_timeline=True)
        _run_one(
            setup,
            _paths(config, setup.view_angle_deg)[path_name],
            policy,
            config,
            profiler=run_profiler,
            cell_index=BENCH_CELLS.index((path_name, policy)),
        )
        out = run_profiler.write_chrome_trace(profile_path)
        doc["profile"] = {"cell": PROFILE_CELL, "path": str(out)}

    return doc


def write_bench(doc: Dict[str, object], out_dir: PathLike = ".") -> Path:
    """Write ``BENCH_<label>.json`` under ``out_dir``; returns the path."""
    label = str(doc["label"]).replace("/", "-")
    path = Path(out_dir) / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_bench(path: PathLike) -> Dict[str, object]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != supported {BENCH_SCHEMA_VERSION}"
        )
    return doc


# -- comparison ---------------------------------------------------------------
# The flattening/threshold logic lives in repro.experiments.gating (shared
# with the serve gate and the matrix runner); this section translates the
# canonical metric sets and rows back into the bench tier's historical
# shapes so committed baselines keep gating with bit-identical verdicts.

#: Wall-clock metrics included in the comparison — fullscale tier only.
_FULLSCALE_WALL_METRICS = ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes")


def _gating_metric_set(doc: Dict[str, object]) -> MetricSet:
    """Flatten a bench snapshot (any tier) into a gating metric set."""
    out: MetricSet = {}
    tier = doc.get("tier")
    if tier == "fullscale":
        section = doc.get("fullscale", {})
        for name in _FULLSCALE_WALL_METRICS:
            value = section.get(name)
            if isinstance(value, (int, float)):
                out[f"fullscale.{name}"] = (
                    float(value), GateRule("lower", scale=WALL_THRESHOLD_FACTOR),
                )
    if tier == "cluster":
        # Cluster-tier network ledger: all simulated-clock/byte quantities,
        # deterministic for pinned config, so they gate at the sim threshold.
        out.update(flatten_cluster_section(doc.get("cluster", {})))
    wall_metrics = ("wall_s", "per_step_wall_s") if tier == "fullscale" else ()
    for run_key, run in sorted(doc["runs"].items()):
        out.update(flatten_run_summary(run, run_key, wall_metrics=wall_metrics))
    # Multi-tenant serving metrics (absent from pre-multi-tenant snapshots:
    # they then report "missing" on one side and never regress).  The bench
    # tier gates fairness/cross-evictions relatively, unlike the serve gate.
    mt = doc.get("multi_tenant")
    if mt:
        out.update(flatten_multi_tenant(mt, relative=True))
    return out


def comparable_metrics(doc: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Flatten a snapshot to ``{metric-name: (value, direction)}``.

    For the default tier, only simulated-clock quantities are included —
    wall-clock phases and event counts are reported but never compared, so
    a comparison of two runs of identical code is machine-independent.
    Fullscale-tier snapshots (``doc["tier"] == "fullscale"``) additionally
    compare their wall-clock and peak-RSS metrics, which
    :func:`compare_bench` holds to the widened
    ``threshold * WALL_THRESHOLD_FACTOR``.
    """
    return {
        name: (value, rule.direction)
        for name, (value, rule) in _gating_metric_set(doc).items()
    }


def compare_bench(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold: float = 0.10,
    abs_floor: float = 1e-12,
) -> List[Dict[str, object]]:
    """Diff two snapshots; one row per metric present in both.

    A metric regresses when it moves in its bad direction by more than
    ``threshold`` (relative, against ``max(|old|, abs_floor)``).  Metrics
    missing from either side are reported with status ``"missing"`` and
    do not regress.  Wall-clock/RSS metrics (present in fullscale-tier
    snapshots only) regress at ``threshold * WALL_THRESHOLD_FACTOR`` —
    they ratchet raw speed while tolerating machine noise.
    """
    rows = compare_metric_sets(
        _gating_metric_set(old), _gating_metric_set(new),
        threshold=threshold, abs_floor=abs_floor,
    )
    out: List[Dict[str, object]] = []
    for row in rows:
        if row["status"] == "missing":
            out.append(dict(row))
        else:
            out.append({
                "metric": row["metric"],
                "old": row["old"],
                "new": row["new"],
                "rel_change": row["change"],
                "direction": row["direction"],
                "status": row["status"],
            })
    return out


def format_comparison(rows: List[Dict[str, object]], verbose: bool = False) -> str:
    """Human-readable comparison; non-ok rows always shown."""
    lines = [f"{'metric':<58} {'old':>12} {'new':>12} {'change':>9}  status"]
    lines.append("-" * len(lines[0]))
    shown = 0
    for row in rows:
        if row["status"] == "ok" and not verbose:
            continue
        shown += 1
        old = "-" if row.get("old") is None else f"{row['old']:.6g}"
        new = "-" if row.get("new") is None else f"{row['new']:.6g}"
        change = (
            f"{row['rel_change']:+.1%}" if "rel_change" in row else "-"
        )
        lines.append(f"{row['metric']:<58} {old:>12} {new:>12} {change:>9}  {row['status']}")
    n_reg = sum(1 for r in rows if r["status"] == "regression")
    lines.append(
        f"{len(rows)} metrics compared, {n_reg} regression(s), "
        f"{len(rows) - shown} unchanged/ok hidden"
        if not verbose
        else f"{len(rows)} metrics compared, {n_reg} regression(s)"
    )
    return "\n".join(lines)
