"""Extension experiments (beyond the paper's figures).

Same :class:`~repro.experiments.figures.FigureResult` protocol as the
paper figures, so the CLI regenerates them and the benches assert their
shapes:

- :func:`prefetch_strategies` — table vs motion vs Markov vs none;
- :func:`temporal` — next-timestep prefetch on time-varying climate;
- :func:`interactive_quality` — frame coverage/PSNR under an I/O deadline;
- :func:`multires_tradeoff` — LoD bytes vs data-dependent accuracy;
- :func:`layout_locality` — Z-order vs row-major file locality;
- :func:`scheduling` — analytic vs event-driven total-time accounting;
- :func:`iso_sweep` — a data-dependent (isovalue-slider) workload where
  the entropy preload alone eliminates the miss stream;
- :func:`multinode` — sort-last parallel rendering with importance-LPT vs
  spatial-slab block distribution (§VI future work, operational).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.camera.frustum import visible_blocks
from repro.camera.path import random_path, spherical_path
from repro.camera.sampling import SamplingConfig
from repro.core.interactive import render_quality_series
from repro.core.pipeline import PipelineContext
from repro.core.schedule import event_driven_total_time
from repro.runtime.drivers import (
    run_baseline,
    run_budgeted,
    run_temporal,
    run_with_prefetcher,
)
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentSetup, compare_policies
from repro.prefetch import (
    MarkovPrefetcher,
    MotionExtrapolationPrefetcher,
    NoPrefetcher,
    TableLookupPrefetcher,
)
from repro.render.isosurface import isosurface_blocks
from repro.render.query import BlockRangeIndex, RangeQuery, evaluate_query
from repro.render.raycast import Raycaster, RenderSettings
from repro.storage.hierarchy import make_standard_hierarchy
from repro.tables.builder import build_visible_table
from repro.volume.blocks import BlockGrid
from repro.volume.layout import morton_layout, row_major_layout
from repro.volume.multires import MipPyramid, select_levels_by_distance
from repro.volume.synthetic import combustion_field
from repro.volume.timeseries import make_time_varying_climate
from repro.volume.volume import Volume

__all__ = [
    "iso_sweep",
    "multinode",
    "prefetch_strategies",
    "temporal",
    "interactive_quality",
    "multires_tradeoff",
    "layout_locality",
    "scheduling",
]

_EXT_VIEW = 10.0


def prefetch_strategies(full: bool = False, seed: int = 0) -> List[FigureResult]:
    """Prefetch-strategy ablation under identical accounting."""
    sampling = SamplingConfig(
        n_directions=720 if full else 96, n_distances=2, distance_range=(2.2, 2.8)
    )
    setup = ExperimentSetup.for_dataset(
        "3d_ball", target_n_blocks=2048, sampling=sampling, seed=seed
    )
    path = random_path(
        n_positions=400 if full else 60, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=setup.view_angle_deg, seed=seed,
    )
    context = setup.context(path)
    itable = setup.importance_table
    sigma = itable.threshold_for_percentile(0.5)

    strategies = {
        "none": NoPrefetcher(),
        "table (paper)": TableLookupPrefetcher(setup.visible_table, itable, sigma),
        "motion": MotionExtrapolationPrefetcher(setup.grid, setup.view_angle_deg),
        "markov": MarkovPrefetcher(),
    }
    labels, miss, io_s, prefetch_s, total_s = [], [], [], [], []
    for label, strategy in strategies.items():
        r = run_with_prefetcher(
            context, setup.hierarchy("lru"), strategy,
            preload_importance=itable, preload_sigma=sigma,
        )
        labels.append(label)
        miss.append(r.total_miss_rate)
        io_s.append(r.io_time_s)
        prefetch_s.append(r.prefetch_time_s)
        total_s.append(r.total_time_s)
    return [
        FigureResult(
            "ext_prefetch",
            "prefetch strategy ablation (3d_ball, 2048 blocks, random 5-10 deg)",
            "strategy",
            labels,
            {"miss_rate": miss, "io_s": io_s, "prefetch_s": prefetch_s, "total_s": total_s},
        )
    ]


def temporal(full: bool = False, seed: int = 11) -> List[FigureResult]:
    """Next-timestep prefetch on time-varying climate data."""
    shape = (74, 64, 24) if full else (48, 40, 16)
    n_timesteps = 8 if full else 4
    n_path = 160 if full else 48
    series = make_time_varying_climate(shape=shape, n_timesteps=n_timesteps, seed=seed)
    grid = BlockGrid.with_target_blocks(series.shape, 512 if full else 64)
    path = spherical_path(
        n_positions=n_path, degrees_per_step=4.0, distance=2.5,
        view_angle_deg=_EXT_VIEW, seed=seed,
    )
    context = PipelineContext.create(path, grid)
    sampling = SamplingConfig(
        n_directions=256 if full else 64, n_distances=2, distance_range=(2.3, 2.7)
    )
    vtable = build_visible_table(grid, sampling, _EXT_VIEW, seed=0)
    itable = series.temporal_importance(grid)
    sigma = itable.threshold_for_percentile(0.25)
    steps_per_timestep = n_path // n_timesteps

    def hierarchy():
        return make_standard_hierarchy(
            n_blocks=series.n_total_blocks(grid),
            block_nbytes=grid.uniform_block_nbytes(),
        )

    on = run_temporal(
        context, series, hierarchy(), steps_per_timestep=steps_per_timestep,
        visible_table=vtable, importance=itable, sigma=sigma,
    )
    off = run_temporal(
        context, series, hierarchy(), steps_per_timestep=steps_per_timestep,
        visible_table=vtable, importance=itable, sigma=sigma,
        prefetch_next_timestep=False,
    )
    boundary = steps_per_timestep
    return [
        FigureResult(
            "ext_temporal",
            f"temporal replay ({n_timesteps} timesteps, {n_path} views)",
            "variant",
            ["temporal prefetch", "no prefetch"],
            {
                "miss_rate": [on.total_miss_rate, off.total_miss_rate],
                "boundary_misses": [
                    on.steps[boundary].n_fast_misses,
                    off.steps[boundary].n_fast_misses,
                ],
                "total_s": [on.total_time_s, off.total_time_s],
            },
            meta={"steps_per_timestep": steps_per_timestep},
        )
    ]


def interactive_quality(full: bool = False, seed: int = 0) -> List[FigureResult]:
    """Frame coverage and PSNR under a per-frame demand-I/O deadline."""
    setup = ExperimentSetup.for_dataset(
        "3d_ball", target_n_blocks=512,
        sampling=SamplingConfig(
            n_directions=256 if full else 96, n_distances=2, distance_range=(2.2, 2.8)
        ),
        seed=seed,
    )
    path = random_path(
        n_positions=200 if full else 50, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=setup.view_angle_deg, seed=3,
    )
    context = setup.context(path)
    itable = setup.importance_table
    sigma = itable.threshold_for_percentile(0.25)
    budget = 0.030

    plain = run_budgeted(context, setup.hierarchy("lru"), io_budget_s=budget, name="lru")
    aware = run_budgeted(
        context, setup.hierarchy("lru"), io_budget_s=budget,
        importance=itable, visible_table=setup.visible_table,
        sigma=sigma, preload=True, name="app-aware",
    )
    rc = Raycaster(setup.volume, settings=RenderSettings(width=48, height=48, n_samples=48))

    def finite_mean(series):
        vals = [q for _, q in series if np.isfinite(q)]
        return float(np.mean(vals)) if vals else float("inf")

    q_plain = finite_mean(render_quality_series(plain, context, rc, every=10))
    q_aware = finite_mean(render_quality_series(aware, context, rc, every=10))
    return [
        FigureResult(
            "ext_interactive",
            f"budgeted interaction ({budget * 1e3:.0f} ms/frame demand I/O)",
            "variant",
            ["lru", "app-aware"],
            {
                "mean_coverage": [plain.mean_coverage, aware.mean_coverage],
                "min_coverage": [plain.min_coverage, aware.min_coverage],
                "full_frames": [plain.full_frames, aware.full_frames],
                "mean_psnr_db": [q_plain, q_aware],
            },
        )
    ]


def multires_tradeoff(full: bool = False, seed: int = 7) -> List[FigureResult]:
    """LoD byte savings vs data-dependent accuracy per pyramid level."""
    shape = (100, 100, 50) if full else (64, 64, 32)
    volume = Volume(combustion_field(shape, seed=seed), name="lifted_rr")
    grid = BlockGrid.with_target_blocks(volume.shape, 512)
    pyramid = MipPyramid(volume, block_shape=grid.block_shape, n_levels=3)
    camera = np.array([2.5, 0.3, -0.2])

    visible = visible_blocks(camera, grid, _EXT_VIEW)
    levels = select_levels_by_distance(camera, grid, pyramid.n_levels)
    block_bytes = grid.uniform_block_nbytes()
    full_bytes = len(visible) * block_bytes
    lod_bytes = int(sum(block_bytes / (8 ** int(levels[b])) for b in visible))

    data0 = pyramid.levels[0].data().astype(np.float64)
    level_ids, hist_l1, query_voxels = [], [], []
    for k in range(pyramid.n_levels):
        recon = pyramid.reconstruct_full(k).astype(np.float64)
        h_full, _ = np.histogram(data0, bins=32, range=(data0.min(), data0.max()))
        h_rec, _ = np.histogram(recon, bins=32, range=(data0.min(), data0.max()))
        level_ids.append(k)
        hist_l1.append(float(np.abs(h_full - h_rec).sum()) / data0.size)
        _, counts = evaluate_query(
            Volume(recon.astype(np.float32)), grid, RangeQuery({"var0": (0.5, 1.0)})
        )
        query_voxels.append(int(counts.sum()))
    return [
        FigureResult(
            "ext_multires",
            "data-dependent accuracy per pyramid level (level 0 = truth)",
            "level",
            level_ids,
            {"hist_L1": hist_l1, "query_voxels": query_voxels},
            meta={"full_bytes": full_bytes, "lod_bytes": lod_bytes},
        )
    ]


def layout_locality(full: bool = False, seed: int = 0) -> List[FigureResult]:
    """Z-order vs row-major file locality by workload shape."""
    n = 16 if full else 8
    grid = BlockGrid((n * 4, n * 4, n * 4), (4, 4, 4))
    morton = morton_layout(grid)
    row = row_major_layout(grid)
    rng = np.random.default_rng(seed)

    def sorted_span(layout, ids):
        slots = np.sort(layout[np.asarray(ids, dtype=np.int64)])
        return int(slots[-1] - slots[0])

    box_spans = {"morton": [], "row": []}
    for _ in range(40):
        s = 2
        o = rng.integers(0, n // s, 3) * s
        ids = [
            grid.block_id(o[0] + i, o[1] + j, o[2] + k)
            for i in range(s) for j in range(s) for k in range(s)
        ]
        box_spans["morton"].append(sorted_span(morton, ids))
        box_spans["row"].append(sorted_span(row, ids))

    cone_gaps = {"morton": [], "row": []}
    for _ in range(10):
        pos = rng.standard_normal(3)
        pos = 2.5 * pos / np.linalg.norm(pos)
        ids = visible_blocks(pos, grid, 12.0)
        if len(ids) < 3:
            continue
        for name, layout in (("morton", morton), ("row", row)):
            slots = np.sort(layout[ids])
            cone_gaps[name].append(float(np.diff(slots).mean()))

    return [
        FigureResult(
            "ext_layout",
            f"file locality by layout ({grid.n_blocks} blocks)",
            "workload",
            ["aligned 2^3 box span", "frustum mean slot gap"],
            {
                "morton": [float(np.mean(box_spans["morton"])),
                           float(np.mean(cone_gaps["morton"]))],
                "row_major": [float(np.mean(box_spans["row"])),
                              float(np.mean(cone_gaps["row"]))],
            },
        )
    ]


def scheduling(full: bool = False, seed: int = 0) -> List[FigureResult]:
    """Analytic (§V-D) vs event-driven total-time accounting."""
    setup = ExperimentSetup.for_dataset(
        "3d_ball", target_n_blocks=2048,
        sampling=SamplingConfig(
            n_directions=720 if full else 96, n_distances=2, distance_range=(2.2, 2.8)
        ),
        seed=seed,
    )
    labels, analytic, event, gap = [], [], [], []
    for lo, hi in ((0.0, 5.0), (10.0, 15.0), (25.0, 30.0)):
        path = random_path(
            n_positions=400 if full else 60, degree_change=(lo, hi), distance=2.5,
            view_angle_deg=setup.view_angle_deg, seed=seed,
        )
        results = compare_policies(setup, path, baselines=("lru",))
        for name in ("lru", "opt"):
            r = results[name]
            a = r.total_time_s
            e = event_driven_total_time(r)
            labels.append(f"{lo:g}-{hi:g} {name}")
            analytic.append(a)
            event.append(e)
            gap.append((e - a) / a)
    return [
        FigureResult(
            "ext_scheduling",
            "analytic (paper) vs event-driven totals",
            "workload",
            labels,
            {"analytic_s": analytic, "event_driven_s": event, "rel_gap": gap},
        )
    ]


def iso_sweep(full: bool = False, seed: int = 7) -> List[FigureResult]:
    """A data-dependent workload: the user animates the isovalue slider.

    The paper evaluates view-driven exploration; its §III-A also motivates
    isosurface work, whose working set is the *straddling blocks* of the
    current isovalue — a demand stream driven by data, not by the camera.
    This experiment sweeps the isovalue across the combustion analogue and
    replays the straddle sets through the hierarchy under FIFO/LRU, the
    offline Belady bound, and LRU + the entropy preload (the part of
    Algorithm 1 that survives without camera prediction).  High-entropy
    blocks are exactly the ones isosurfaces cross, so the preload pays.
    """
    shape = (100, 100, 50) if full else (64, 64, 32)
    volume = Volume(combustion_field(shape, seed=seed), name="lifted_rr")
    grid = BlockGrid.with_target_blocks(volume.shape, 512)
    index = BlockRangeIndex.build(volume, grid)
    lo, hi = volume.value_range()
    span = hi - lo
    n_steps = 200 if full else 60
    # Triangle sweep across the interesting value range, like a user
    # scrubbing the slider up and down.
    t = np.linspace(0.0, 2.0, n_steps)
    isos = lo + span * (0.15 + 0.55 * np.abs(1.0 - t))

    working_sets = [isosurface_blocks(index, "var0", float(v)) for v in isos]

    from repro.camera.path import spherical_path
    from repro.importance.entropy import block_entropies
    from repro.render.render_model import RenderCostModel
    from repro.tables.importance_table import ImportanceTable

    dummy_path = spherical_path(
        n_positions=n_steps, degrees_per_step=1.0, distance=2.5,
        view_angle_deg=_EXT_VIEW, seed=0,
    )
    context = PipelineContext(
        path=dummy_path, grid=grid, visible_sets=working_sets,
        render_model=RenderCostModel(),
    )

    def hierarchy(policy="lru"):
        return make_standard_hierarchy(
            n_blocks=grid.n_blocks, block_nbytes=grid.uniform_block_nbytes(),
            policy=policy,
        )

    labels, miss, total = [], [], []
    for policy in ("fifo", "lru"):
        r = run_baseline(context, hierarchy(policy))
        labels.append(policy)
        miss.append(r.total_miss_rate)
        total.append(r.total_time_s)

    from repro.experiments.runner import belady_hierarchy

    rb = run_baseline(context, belady_hierarchy(grid, context.demand_trace()))
    labels.append("belady")
    miss.append(rb.total_miss_rate)
    total.append(rb.total_time_s)

    # LRU + entropy preload: the data-dependent half of Algorithm 1.
    itable = ImportanceTable(block_entropies(volume, grid))
    h = hierarchy("lru")
    h.preload([int(b) for b in itable.sorted_ids()])
    rp = run_baseline(context, h, name="lru+preload")
    labels.append("lru+preload")
    miss.append(rp.total_miss_rate)
    total.append(rp.total_time_s)

    return [
        FigureResult(
            "ext_iso_sweep",
            f"isovalue-sweep workload ({n_steps} slider positions, {grid.n_blocks} blocks)",
            "policy",
            labels,
            {"miss_rate": miss, "total_s": total},
        )
    ]


def multinode(full: bool = False, seed: int = 0) -> List[FigureResult]:
    """Sort-last parallel rendering: frame time under two distributions.

    Each of ``n_nodes`` render nodes owns a block partition; a frame waits
    for its slowest node (compositing barrier).  Importance-LPT interleaves
    the hot region across nodes; spatial slabs hand it to one node.
    """
    from repro.importance.entropy import block_entropies
    from repro.parallel.distribution import partition_by_importance, partition_spatial
    from repro.parallel.multinode import run_multinode
    from repro.volume.datasets import make_dataset

    volume = make_dataset("3d_ball", scale=0.125 if full else 0.0625, seed=seed)
    grid = BlockGrid.with_target_blocks(volume.shape, 2048 if full else 512)
    path = spherical_path(
        n_positions=200 if full else 40, degrees_per_step=6.0, distance=2.5,
        view_angle_deg=_EXT_VIEW, seed=seed,
    )
    context = PipelineContext.create(path, grid)
    scores = block_entropies(volume, grid)

    labels, total, eff, imbalance = [], [], [], []
    for n_nodes in (4, 8):
        for pname, assignment in (
            ("spatial slabs", partition_spatial(grid, n_nodes)),
            ("importance-LPT", partition_by_importance(scores, n_nodes)),
        ):
            r = run_multinode(context, assignment, n_nodes, name=pname)
            labels.append(f"{n_nodes} nodes, {pname}")
            total.append(r.total_time_s)
            eff.append(r.parallel_efficiency)
            imbalance.append(r.load_imbalance)
    return [
        FigureResult(
            "ext_multinode",
            f"sort-last parallel rendering ({grid.n_blocks} blocks, {len(path)} views)",
            "configuration",
            labels,
            {"total_s": total, "efficiency": eff, "busy_imbalance": imbalance},
        )
    ]
