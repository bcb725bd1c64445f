"""The ``repro bench --tier fullscale`` wall-clock tier.

The default bench tier gates *simulated*-clock metrics, which are
byte-identical across machines but say nothing about how fast the code
itself runs.  This tier runs paper-scale geometry (Table I block counts:
``scale=0.5`` grids of ~16k blocks by default, hundreds of path steps)
and records the raw-speed numbers the culled visibility kernels exist
for — table-build wall time, per-step replay wall time, and peak RSS —
alongside the usual simulated summary, so raw performance becomes a
tracked, ratcheting number.

Wall-clock metrics are machine-dependent: :func:`repro.obs.bench.compare_bench`
compares them with a widened threshold
(:data:`repro.obs.bench.WALL_THRESHOLD_FACTOR` × the sim threshold), so
same-machine CI catches multi-x slowdowns without flaking on scheduler
noise, while the simulated metrics in the same snapshot still gate
bit-exactly.

Cells are deliberately lightweight compared to the default tier: no
eviction forensics, no per-frame attribution, and aggregated trace
roll-ups — those are diagnostic features with their own costs, and this
tier measures the production replay path.
"""

from __future__ import annotations

import resource
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.camera.frustum import resolve_kernel
from repro.camera.sampling import SamplingConfig
from repro.core.pipeline import PipelineContext
from repro.experiments.matrix import (
    MatrixCell,
    MatrixSpec,
    expand_cells,
    register_cell_runner,
    setup_for,
)
from repro.experiments.runner import ExperimentSetup
from repro.obs.bench import BENCH_SCHEMA_VERSION, PROFILE_CELL, _paths
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.parallel.preprocess import build_visible_table_parallel
from repro.runtime.drivers import run_baseline
from repro.tables.builder import build_importance_table, build_visible_table
from repro.trace import Tracer

__all__ = ["FullscaleConfig", "fullscale_matrix_spec", "run_fullscale"]


@dataclass(frozen=True)
class FullscaleConfig:
    """Pinned parameters of the fullscale tier (recorded into the snapshot).

    The default is a ``scale=0.5`` 3d_ball (512³ voxels, ~500 MB of
    float32) over ~16k blocks — the paper's Fig. 9 upper range — with a
    240-step path per cell.  ``smoke()`` is the CI variant: a quarter-scale
    grid and short paths, same shape, a few minutes end-to-end.
    """

    dataset: str = "3d_ball"
    blocks: int = 16384
    scale: float = 0.5
    steps: int = 240
    cache_ratio: float = 0.5
    seed: int = 0
    n_directions: int = 256
    n_distances: int = 2
    degrees_per_step: float = 3.0
    tracer_capacity: int = 500_000
    #: Visibility kernel for table build and replay ground truth — the
    #: point of this tier; ``"dense"`` measures the un-culled baseline.
    kernel: str = "culled"

    @classmethod
    def smoke(cls) -> "FullscaleConfig":
        """The CI `fullscale-smoke` variant (reduced scale, short paths)."""
        return cls(blocks=4096, scale=0.25, steps=48, n_directions=64, n_distances=1)


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux (bytes on macOS, where this tier is not
    # gated); monotone over the process lifetime, sampled at suite end.
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def _run_cell(
    setup: ExperimentSetup,
    context: PipelineContext,
    policy: str,
    config: FullscaleConfig,
    profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, object]:
    """One lightweight (path, policy) cell: summary + wall timings only."""
    registry = MetricsRegistry()
    tracer = Tracer(capacity=config.tracer_capacity)
    if profiler is None:
        profiler = PhaseProfiler(tracer=tracer)
    hierarchy = setup.hierarchy("lru" if policy == "app-aware" else policy)
    # Aggregated roll-ups bound the event count at fullscale step counts;
    # the forensic per-block stream is the default tier's job.
    hierarchy.aggregate_trace = True
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "engine": "batched",
        "wall_s": wall,
        "per_step_wall_s": wall / max(1, config.steps),
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "phases": profiler.report(),
    }


def fullscale_matrix_spec(config: FullscaleConfig) -> MatrixSpec:
    """The fullscale tier's cell grid as a matrix spec.

    The same 2×2 (workload × policy) grid as the default bench tier at
    paper-scale geometry, run by the ``fullscale-cell`` runner (registered
    below), which builds its tables and contexts with the tier's
    visibility ``kernel``.  ``run_fullscale`` expands this spec for its
    cell loop; the committed ``specs/fullscale-smoke.toml`` runs the same
    cells standalone through ``repro matrix run``.
    """
    return MatrixSpec(
        label="fullscale",
        runner="fullscale-cell",
        base={
            "dataset": config.dataset,
            "blocks": config.blocks,
            "scale": config.scale,
            "steps": config.steps,
            "cache_ratio": config.cache_ratio,
            "seed": config.seed,
            "degrees": (config.degrees_per_step, config.degrees_per_step),
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
            "kernel": config.kernel,
        },
    )


#: Per-process context cache of the standalone ``fullscale-cell`` runner
#: (kernel-aware, so it cannot share the replay runner's context cache).
_CELL_CONTEXTS: Dict[tuple, PipelineContext] = {}


def _fullscale_cell(cell: MatrixCell, extras) -> Dict[str, object]:
    """Standalone matrix runner for fullscale cells.

    Builds the kernel-aware tables/contexts lazily (serial, untimed —
    the timed, optionally parallel build preamble is ``run_fullscale``'s
    job) and then runs the same lightweight cell as the tier.
    """
    run_config = cell.config
    fconfig = FullscaleConfig(
        dataset=run_config.dataset,
        blocks=run_config.blocks,
        scale=run_config.scale if run_config.scale is not None else 0.5,
        steps=run_config.steps,
        cache_ratio=run_config.cache_ratio,
        seed=run_config.seed,
        n_directions=int(extras.get("n_directions", 256)),
        n_distances=int(extras.get("n_distances", 2)),
        degrees_per_step=run_config.degrees[0],
        tracer_capacity=int(extras.get("tracer_capacity", 500_000)),
        kernel=str(extras.get("kernel", "culled")),
    )
    setup = setup_for(
        run_config,
        {
            **dict(extras),
            "n_directions": fconfig.n_directions,
            "n_distances": fconfig.n_distances,
        },
    )
    if setup._vtable is None:
        setup._itable = build_importance_table(setup.volume, setup.grid)
        setup._vtable = build_visible_table(
            setup.grid, setup.sampling, setup.view_angle_deg,
            cache_ratio=fconfig.cache_ratio,
            importance=setup.importance_table,
            seed=fconfig.seed,
            kernel=fconfig.kernel,
        )
    path_name = "orbit" if run_config.workload == "spherical" else "zoom"
    ckey = (id(setup), path_name, fconfig.steps, fconfig.kernel)
    if ckey not in _CELL_CONTEXTS:
        path = _paths(fconfig, setup.view_angle_deg)[path_name]
        _CELL_CONTEXTS[ckey] = PipelineContext.create(
            path, setup.grid, setup.render_model, kernel=fconfig.kernel
        )
    return _run_cell(setup, _CELL_CONTEXTS[ckey], run_config.policy, fconfig)


register_cell_runner("fullscale-cell", _fullscale_cell)


def run_fullscale(
    config: Optional[FullscaleConfig] = None,
    label: str = "fullscale",
    quick: bool = False,
    progress=None,
    workers: int = 1,
    profile_path=None,
) -> Dict[str, object]:
    """Run the fullscale tier; returns the JSON-ready snapshot document.

    The document shares the bench schema (``write_bench``/``load_bench``/
    ``compare_bench`` all apply) and adds ``"tier": "fullscale"`` plus a
    ``fullscale`` section of wall-clock build metrics, which the
    comparison includes — at the widened wall threshold — only for
    fullscale-tier snapshots.
    """
    if config is None:
        config = FullscaleConfig.smoke() if quick else FullscaleConfig()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    notify = progress if progress is not None else (lambda msg: None)
    t0 = time.perf_counter()

    notify(
        f"setup: {config.dataset} scale={config.scale}, "
        f"~{config.blocks} blocks, {config.steps} steps, kernel={config.kernel}"
    )
    setup = ExperimentSetup.for_dataset(
        config.dataset,
        target_n_blocks=config.blocks,
        scale=config.scale,
        cache_ratio=config.cache_ratio,
        sampling=SamplingConfig(
            n_directions=config.n_directions, n_distances=config.n_distances
        ),
        seed=config.seed,
    )
    resolved_kernel = resolve_kernel(config.kernel, setup.grid.n_blocks)

    notify("building T_important")
    t_imp = time.perf_counter()
    setup._itable = build_importance_table(setup.volume, setup.grid)
    importance_wall_s = time.perf_counter() - t_imp

    n_samples = config.n_directions * config.n_distances
    notify(f"building T_visible ({n_samples} samples, workers={workers})")
    t_tab = time.perf_counter()
    build_kwargs = dict(
        cache_ratio=config.cache_ratio,
        importance=setup.importance_table,
        seed=config.seed,
        kernel=config.kernel,
    )
    if workers > 1:
        setup._vtable = build_visible_table_parallel(
            setup.grid, setup.sampling, setup.view_angle_deg,
            n_workers=workers, **build_kwargs,
        )
    else:
        setup._vtable = build_visible_table(
            setup.grid, setup.sampling, setup.view_angle_deg, **build_kwargs
        )
    table_build_wall_s = time.perf_counter() - t_tab

    paths = _paths(config, setup.view_angle_deg)
    contexts: Dict[str, PipelineContext] = {}
    runs: Dict[str, Dict[str, object]] = {}
    for cell in expand_cells(fullscale_matrix_spec(config)):
        path_name = "orbit" if cell.config.workload == "spherical" else "zoom"
        if path_name not in contexts:
            notify(f"visible sets: {path_name} path ({config.steps} steps)")
            contexts[path_name] = PipelineContext.create(
                paths[path_name], setup.grid, setup.render_model,
                kernel=config.kernel,
            )
        notify(f"run: {cell.key}")
        runs[cell.key] = _run_cell(setup, contexts[path_name], cell.config.policy, config)

    vtable = setup.visible_table
    sizes = vtable.entry_sizes()
    doc: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "fullscale",
        "label": label,
        "quick": quick,
        "engine": "batched",
        "workers": int(workers),
        "config": asdict(config),
        "fullscale": {
            "kernel": config.kernel,
            "resolved_kernel": resolved_kernel,
            "n_blocks": int(setup.grid.n_blocks),
            "volume_voxels": int(setup.volume.n_voxels),
            "n_samples": int(vtable.n_entries),
            "mean_set_size": float(sizes.mean()) if sizes.size else 0.0,
            "importance_wall_s": importance_wall_s,
            "table_build_wall_s": table_build_wall_s,
            "peak_rss_bytes": _peak_rss_bytes(),
        },
        "runs": runs,
        "suite_wall_s": time.perf_counter() - t0,
    }

    if profile_path is not None:
        notify(f"profile: re-running {PROFILE_CELL} with span timeline")
        path_name, policy = PROFILE_CELL.split("/")
        run_profiler = PhaseProfiler(keep_timeline=True)
        _run_cell(setup, contexts[path_name], policy, config, profiler=run_profiler)
        out = run_profiler.write_chrome_trace(profile_path)
        doc["profile"] = {"cell": PROFILE_CELL, "path": str(out)}
    return doc
