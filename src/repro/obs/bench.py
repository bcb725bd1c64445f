"""The instrumented cell runners behind ``repro bench``.

``repro bench [--tier default|fullscale|cluster] [--quick]`` runs a
bundled matrix spec (``bench``/``bench-quick``, ``fullscale``/
``fullscale-smoke``, ``cluster``/``cluster-smoke``) through
:func:`repro.experiments.matrix.run_matrix` and writes the one snapshot
layout as ``BENCH_<label>.json``.  The cluster tier uses the general
``replay`` runner; the other two tiers use the runners registered here
(:mod:`repro.experiments.matrix` imports this module on first use):

- ``bench-cell`` — one (path, policy) cell with the metrics registry,
  per-event tracer, phase profiler, eviction forensics
  (:class:`~repro.storage.forensics.EvictionLineage`), per-frame latency
  attribution (:mod:`repro.obs.attribution`) and regret against Belady
  all attached.  Everything the comparison reads is simulated-clock
  derived, so two snapshots of the same code are bit-identical on any
  machine; the ``wall_s`` and ``phases.wall`` fields ride along for
  humans and are never compared.  A fault profile in the cell's config
  installs a seeded :class:`~repro.faults.FaultInjector` whose seed is
  derived from ``(fault_seed, cell index)``, so the cells of a suite
  see distinct, reproducible fault draws.
- ``fullscale-cell`` — the production replay path at paper-scale
  geometry, with aggregated trace roll-ups and no forensics: the cell
  records its replay wall time per step plus a ``fullscale`` section of
  table-build wall times (built once per process and visibility
  ``kernel``) and peak RSS.  Those wall-clock fields gate at the widened
  :data:`~repro.experiments.gating.WALL_THRESHOLD_FACTOR` threshold.

``repro bench --profile`` re-runs :data:`PROFILE_CELL` of the tier's
spec with a span timeline kept (:func:`profile_cell`).
"""

from __future__ import annotations

import resource
import time
from typing import Dict, Mapping, Optional

from repro.camera.frustum import resolve_kernel
from repro.experiments.matrix import (
    CELL_RUNNERS,
    MatrixCell,
    MatrixSpec,
    context_for,
    expand_cells,
    register_cell_runner,
    setup_for,
)
from repro.faults import FaultInjector, FaultPlan
from repro.obs.attribution import attribute_run
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.runtime.drivers import run_baseline
from repro.storage.forensics import EvictionLineage, optimal_miss_count
from repro.tables.builder import build_importance_table, build_visible_table
from repro.trace import Tracer, aggregate
from repro.utils.rng import derive_seed

__all__ = ["PROFILE_CELL", "profile_target", "profile_cell"]

#: The cell ``repro bench --profile`` re-runs with a span timeline kept.
PROFILE_CELL = "orbit/app-aware"


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


def _replay(setup, context, policy: str, hierarchy, **obs):
    """One replay inside a ``replay`` span: the paper's optimizer for
    ``policy="app-aware"``, the conventional baseline otherwise."""
    with obs["profiler"].span("replay"):
        if policy == "app-aware":
            return setup.optimizer().run(context, hierarchy, **obs)
        return run_baseline(context, hierarchy, **obs)


def _bench_cell(
    cell: MatrixCell, extras: Mapping[str, object], profiler: Optional[PhaseProfiler] = None
) -> Dict[str, object]:
    """One instrumented (path, policy) cell: run it, snapshot everything."""
    t0 = time.perf_counter()
    config = cell.config
    setup = setup_for(config, extras)
    context = context_for(setup, config, extras)
    registry = MetricsRegistry()
    tracer = Tracer(capacity=int(extras.get("tracer_capacity", 500_000)))
    if profiler is None:
        profiler = PhaseProfiler(tracer=tracer)
    hierarchy = setup.hierarchy("lru" if config.policy == "app-aware" else config.policy)
    # Per-block trace emission: the attribution section replays the
    # engine's exact per-fetch time folds from the event stream, which an
    # aggregated (count > 1) roll-up cannot support.
    hierarchy.aggregate_trace = False
    lineage = EvictionLineage()
    hierarchy.set_forensics(lineage)
    injector = None
    derived_seed = derive_seed(config.fault_seed, cell.index)
    if config.faults != "none":
        injector = FaultInjector(FaultPlan.from_profile(config.faults, seed=derived_seed))
        hierarchy.set_fault_injector(injector)
    result = _replay(
        setup, context, config.policy, hierarchy,
        tracer=tracer, registry=registry, profiler=profiler,
    )

    summary = aggregate(tracer.events())
    run: Dict[str, object] = {
        "wall_s": time.perf_counter() - t0,  # informational; never compared
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "derived": {
            "prefetch_precision": _ratio(
                registry.get("prefetch_useful_total"),
                registry.get("prefetch_evaluated_total"),
            ),
            "prefetch_recall": _ratio(
                registry.get("prefetch_useful_total"),
                registry.get("prefetch_demand_window_total"),
            ),
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
    # comparison never reads this section).  The regret is the demand
    # stream's actual fast-level misses vs the Belady offline bound over
    # the same keys and capacity; a warm importance preload can make it
    # negative (see repro.storage.forensics), so it is reported raw.
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
        "policy": config.policy,
        "fast_capacity": capacity,
        "actual_fast_misses": int(actual_misses),
        "belady_misses": int(belady_misses),
        "regret": int(actual_misses) - int(belady_misses),
    }
    run["attribution"] = doc
    if injector is not None:
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


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux (bytes on macOS, where this tier is not
    # gated); monotone over the process lifetime.
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


#: (setup, kernel) -> the timed table build of that setup in this process.
_TABLE_BUILDS: Dict[tuple, Dict[str, object]] = {}


def _build_tables(setup, kernel: str) -> Dict[str, object]:
    """Build ``T_important`` and ``T_visible`` once per setup and kernel,
    timing each; returns the build record every cell on the setup reports.
    (Setups are cached for the life of the process, so ``id`` is a stable
    key.)"""
    key = (id(setup), kernel)
    if key not in _TABLE_BUILDS:
        t0 = time.perf_counter()
        setup._itable = build_importance_table(setup.volume, setup.grid)
        importance_wall_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        setup._vtable = build_visible_table(
            setup.grid, setup.sampling, setup.view_angle_deg,
            cache_ratio=setup.cache_ratio,
            importance=setup.importance_table,
            seed=setup.seed,
            kernel=kernel,
        )
        table_build_wall_s = time.perf_counter() - t0
        sizes = setup.visible_table.entry_sizes()
        _TABLE_BUILDS[key] = {
            "kernel": kernel,
            "resolved_kernel": resolve_kernel(kernel, setup.grid.n_blocks),
            "n_blocks": int(setup.grid.n_blocks),
            "volume_voxels": int(setup.volume.n_voxels),
            "n_samples": int(setup.visible_table.n_entries),
            "mean_set_size": float(sizes.mean()) if sizes.size else 0.0,
            "importance_wall_s": importance_wall_s,
            "table_build_wall_s": table_build_wall_s,
        }
    return _TABLE_BUILDS[key]


def _fullscale_cell(
    cell: MatrixCell, extras: Mapping[str, object], profiler: Optional[PhaseProfiler] = None
) -> Dict[str, object]:
    """One lightweight wall-clock cell: summary, replay wall, build record."""
    config = cell.config
    setup = setup_for(config, extras)
    build = _build_tables(setup, str(extras.get("kernel", "auto")))
    context = context_for(setup, config, extras)
    tracer = Tracer(capacity=int(extras.get("tracer_capacity", 500_000)))
    if profiler is None:
        profiler = PhaseProfiler(tracer=tracer)
    hierarchy = setup.hierarchy("lru" if config.policy == "app-aware" else config.policy)
    # Aggregated roll-ups bound the event count at fullscale step counts;
    # the forensic per-block stream is the bench-cell's job.
    hierarchy.aggregate_trace = True
    t0 = time.perf_counter()
    result = _replay(
        setup, context, config.policy, hierarchy,
        tracer=tracer, registry=MetricsRegistry(), profiler=profiler,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "per_step_wall_s": wall / max(1, config.steps),
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "phases": profiler.report(),
        "fullscale": {**build, "peak_rss_bytes": _peak_rss_bytes()},
    }


register_cell_runner("bench-cell", _bench_cell)
register_cell_runner("fullscale-cell", _fullscale_cell)

_PROFILED_RUNNERS = ("bench-cell", "fullscale-cell")


def profile_target(spec: MatrixSpec) -> MatrixCell:
    """The cell ``--profile`` re-runs; a one-line ``ValueError`` when the
    spec has no :data:`PROFILE_CELL` on a runner that takes a profiler."""
    cells = {cell.key: cell for cell in expand_cells(spec)}
    if spec.runner not in _PROFILED_RUNNERS or PROFILE_CELL not in cells:
        raise ValueError(
            f"--profile re-runs cell {PROFILE_CELL!r} on a {'/'.join(_PROFILED_RUNNERS)} "
            f"spec; spec {spec.label!r} ({spec.runner} runner) has cells {sorted(cells)}"
        )
    return cells[PROFILE_CELL]


def profile_cell(spec: MatrixSpec, cell: MatrixCell, path) -> Dict[str, str]:
    """Re-run ``cell`` with a span timeline kept and write it to ``path``
    as a Chrome trace; returns the snapshot's ``profile`` entry."""
    profiler = PhaseProfiler(keep_timeline=True)
    CELL_RUNNERS[spec.runner](cell, spec.setup, profiler=profiler)
    out = profiler.write_chrome_trace(path)
    return {"cell": cell.key, "path": str(out)}
