"""Inputs, set-up, work cells and correctness checks of the two workloads.

Both use the ``3d_ball`` analogue at ``scale=0.25`` (256^3 voxels,
4,096 blocks), a 10-degree frustum and cache ratio 0.5.  The ``--seed``
only picks the generated inputs (camera paths, the ``T_visible`` vicinal
jitter, session specs, fault draws); the program receives those inputs
through its public calls.

- ``explain``: Algorithm 1 vs LRU on the batched engine over two orbits
  and two zooms, with a per-event ``Tracer``, an ``EvictionLineage``,
  ``attribute_run`` and the Belady regret bound.
- ``serve``: eight sessions of the loadgen mix sharing one LRU hierarchy
  under equal tenant quotas and the ``chaos`` fault profile.

A workload is set up once per repetition (:meth:`setup`) and then runs
its cells (:meth:`run_cell`) pass after pass.  Each cell times only the
program calls that make up its work phase, split into *units* -- one per
simulated frame, read off a :class:`FrameClock` installed as the run's
profiler; one per attributed frame of ``attribute_run``; one per other
analysis call -- and runs the correctness checks on what they returned.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.camera.path import spherical_path, zoom_path
from repro.camera.sampling import SamplingConfig
from repro.core import pipeline
from repro.experiments.loadgen import LoadGenConfig, make_session_specs
from repro.experiments.runner import fresh_hierarchy
from repro.obs import attribution
from repro.obs.attribution import attribute_run
from repro.render.render_model import RenderCostModel
from repro.runtime import AppAwareOptimizer, RunContext, run_baseline, run_sessions
from repro.storage.forensics import EvictionLineage, optimal_miss_count
from repro.tables.builder import build_importance_table, build_visible_table
from repro.trace import Tracer, aggregate
from repro.volume.blocks import BlockGrid
from repro.volume.datasets import make_dataset

import reference
from probes import instrument_hierarchy

DATASET = "3d_ball"
VIEW_ANGLE_DEG = 10.0
CACHE_RATIO = 0.5
DEGREES_PER_STEP = 3.0
ORBIT_DISTANCE = 2.5
KERNEL = "culled"
POLICIES = ("lru", "app-aware")
FAULT_PROFILE = "chaos"
#: Large enough that no explain cell drops an event (a checked invariant).
TRACER_CAPACITY = 2_000_000
#: The loadgen mix weights (orbit 0.5, zoom 0.25, flythrough 0.25) as an
#: exact per-four cycle.  Drawing the kinds at random, as loadgen does,
#: makes the session mix -- and with it every simulated metric -- swing
#: with the seed far more than the paths and fault draws do.
SERVE_KINDS = ("spherical", "zoom", "spherical", "flythrough")


@dataclass(frozen=True)
class Size:
    """How much work one pass does.  ``full`` is the benchmark; ``tiny``
    only exists so the benchmark's own tests run in seconds."""

    scale: float
    blocks: int
    steps: int  # per replay camera path
    paths_per_kind: int  # orbits, and zooms, per replay pass
    n_directions: int  # T_visible sample directions (one distance shell)
    sessions: int
    session_steps: int


SIZES = {
    # explain: 4 paths x 64 steps x 2 policies = 512 frames, ~5 s a pass.
    # serve: 8 sessions x 128 steps = 1,024 frames (>= 10 beyond p99),
    # ~10.5 s a pass.
    "full": Size(0.25, 4096, 64, 2, 64, 8, 128),
    "tiny": Size(0.04, 64, 6, 1, 8, 8, 6),
}


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(np.random.default_rng(seq).integers(0, 2**31 - 1))


_NO_SPAN = contextlib.nullcontext()
#: Frames between two timings of the reference kernel (~4 ms each): 32 a
#: pass on explain and 64 on serve, ~2.5% of either pass.
REF_EVERY = 16


class FrameClock:
    """A stand-in for the run's ``PhaseProfiler`` that only timestamps the
    start of every frame's demand-fetch stage (the first stage of each
    frame); it records no spans and charges nothing.

    Every ``REF_EVERY`` frames it also times the reference kernel (left
    out of the frame units), so the run knows how fast the machine ran
    at the same points of every pass."""

    enabled = False

    def __init__(self) -> None:
        self.stamps: List[float] = []  # unit starts
        self.ends: List[float] = []  # end of the unit before each start
        self.ref: List[float] = []  # reference-kernel times

    def span(self, name: str):
        if name == "fetch":
            now = perf_counter()
            self.ends.append(now)
            if len(self.stamps) % REF_EVERY == 0:
                self.ref.append(reference.timed())
                now = perf_counter()
            self.stamps.append(now)
        return _NO_SPAN

    def stamp(self) -> None:
        """End one unit and start the next, now."""
        now = perf_counter()
        self.ends.append(now)
        self.stamps.append(now)

    def units(self, t0: float, t1: float) -> List[float]:
        """``[t0, first frame)``, each frame, and the tail up to ``t1``."""
        starts = [t0, *self.stamps]
        ends = [*self.ends, t1]
        return [b - a for a, b in zip(starts, ends)]


@contextlib.contextmanager
def stamp_attributed_frames(clock: FrameClock):
    """Append a stamp to ``clock`` as ``attribute_run`` finishes each frame.

    A whole-run attribution is one call of ~0.5 s, long enough that on a
    busy machine every repeat of it overlaps some interference; split per
    frame, its units are as short as the replay's.  The hook is the
    module's per-frame helper; should it go, the call stays one unit.
    """
    inner = getattr(attribution, "_attribute_one", None)
    if inner is None:
        yield
        return

    def stamped(*args, **kwargs):
        out = inner(*args, **kwargs)
        clock.stamp()
        return out

    attribution._attribute_one = stamped
    try:
        yield
    finally:
        attribution._attribute_one = inner


@dataclass
class Cell:
    """What one cell of one pass produced."""

    key: str
    units: List[float]  # wall time of the timed program calls, unit by unit
    ref: List[float]  # reference-kernel times at fixed points of the cell
    frames: List[float]  # simulated per-frame times, seconds
    viewers: Dict[str, List[float]]  # viewer -> its simulated frame times
    hit_rates: Dict[str, float]  # viewer -> fastest-level demand hit rate
    n_visible: int
    n_fast_misses: int
    degraded_frames: int
    sim: object  # simulated summary; must repeat exactly pass after pass
    counts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def _frame_times(run) -> List[float]:
    if run.overlap_prefetch:
        return [s.step_total_overlapped_s for s in run.steps]
    return [s.step_total_serial_s for s in run.steps]


def _ledger_failures(hierarchy, blocks_served: int) -> List[str]:
    """Cache invariants and byte conservation of one finished hierarchy.

    Every served block is charged its size exactly once at the source
    that served it, so the per-source byte ledger must sum to the block
    size times the blocks served (demand reads not dropped, plus
    prefetches).
    """
    failures = []
    try:
        hierarchy.check_invariants()
    except AssertionError as exc:
        failures.append(f"check_invariants: {exc}")
    per_source = hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
    expected = hierarchy.block_nbytes(0) * blocks_served
    if per_source != expected:
        failures.append(f"bytes by source {per_source} != {expected} ({blocks_served} blocks)")
    return failures


def _storage_counts(hierarchy) -> Dict[str, float]:
    counts: Dict[str, float] = {
        "storage.bytes_moved": hierarchy.backing_bytes + hierarchy.stats().total_bytes_read,
    }
    for level in hierarchy.levels:
        counts[f"{level.name}.hits"] = level.stats.hits
        counts[f"{level.name}.accesses"] = level.stats.accesses
        counts[f"{level.name}.evictions"] = level.stats.evictions
    return counts


class ExplainWorkload:
    """Two orbits and two zooms, each under LRU and Algorithm 1, replayed
    with per-event tracing, eviction forensics, per-frame latency
    attribution and the Belady regret bound."""

    name = "explain"

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed
        children = np.random.SeedSequence(seed).spawn(1 + 2 * size.paths_per_kind)
        self.table_seed = _child_seed(children[0])
        self.paths = {}
        for k in range(size.paths_per_kind):
            self.paths[f"orbit{k}"] = spherical_path(
                size.steps, degrees_per_step=DEGREES_PER_STEP, distance=ORBIT_DISTANCE,
                view_angle_deg=VIEW_ANGLE_DEG, seed=_child_seed(children[1 + 2 * k]),
            )
            self.paths[f"zoom{k}"] = zoom_path(
                size.steps, degrees_per_step=DEGREES_PER_STEP,
                view_angle_deg=VIEW_ANGLE_DEG, seed=_child_seed(children[2 + 2 * k]),
            )
        self.state: Optional[dict] = None

    def input_digest(self) -> str:
        """A fingerprint of the generated inputs (tests compare seeds)."""
        parts = [f"table_seed={self.table_seed}"]
        parts += [f"{n}:{p.positions.round(6).tobytes().hex()[:32]}" for n, p in self.paths.items()]
        return ";".join(parts)

    def cell_keys(self) -> List[str]:
        return [f"{path}/{policy}" for path in self.paths for policy in POLICIES]

    def frames_per_pass(self) -> int:
        return len(self.cell_keys()) * self.size.steps

    def setup(self, rec) -> None:
        """Synthesis, ``T_important``, ``T_visible`` and ground truth."""
        self.state = None
        render_model = RenderCostModel()
        with rec.span("volume.synth"):
            volume = make_dataset(DATASET, scale=self.size.scale)
            grid = BlockGrid.with_target_blocks(volume.shape, self.size.blocks)
        with rec.span("importance.build"):
            itable = build_importance_table(volume, grid)
        with rec.span("tables.visible_build"):
            vtable = build_visible_table(
                grid, SamplingConfig(n_directions=self.size.n_directions, n_distances=1),
                VIEW_ANGLE_DEG, cache_ratio=CACHE_RATIO, importance=itable,
                seed=self.table_seed, kernel=KERNEL,
            )
        with rec.span("camera.ground_truth"):
            contexts = {
                name: pipeline.PipelineContext.create(path, grid, render_model, kernel=KERNEL)
                for name, path in self.paths.items()
            }
        self.state = {
            "volume_bytes": volume.nbytes,
            "grid": grid,
            "itable": itable,
            "vtable": vtable,
            "optimizer": AppAwareOptimizer(vtable, itable),
            "contexts": contexts,
        }

    def setup_counts(self) -> Dict[str, float]:
        vtable = self.state["vtable"]
        sizes = vtable.entry_sizes()
        return {
            "volume.bytes": self.state["volume_bytes"],
            "tables.entries": vtable.n_entries,
            "tables.mean_set_size": float(sizes.mean()) if sizes.size else 0.0,
            "camera.visible_ids": sum(
                len(ids) for ctx in self.state["contexts"].values() for ids in ctx.visible_sets
            ),
        }

    def _drive(self, policy: str, context, hierarchy, tracer=None, profiler=None):
        if policy == "lru":
            return run_baseline(context, hierarchy, tracer=tracer, profiler=profiler)
        return self.state["optimizer"].run(context, hierarchy, tracer=tracer, profiler=profiler)

    def _instrument(self, rec, hierarchy, issued: List[tuple], scope) -> None:
        """Wrap a cell's hierarchy and, for the cell's lifetime, the tables."""
        instrument_hierarchy(rec, hierarchy)
        _observe_prefetches(hierarchy, issued)
        scope.enter_context(rec.wrapped(
            self.state["vtable"], ["nearest_entries", "entry", "lookup"], "tables.lookup"
        ))
        scope.enter_context(rec.wrapped(
            self.state["itable"], ["filter_and_rank", "ids_above"], "tables.filter"
        ))

    def _cell(self, key: str, units: List[float], ref: List[float], result, hierarchy) -> Cell:
        n_visible = sum(s.n_visible for s in result.steps)
        n_misses = sum(s.n_fast_misses for s in result.steps)
        n_prefetched = result.n_prefetched
        failures = _ledger_failures(hierarchy, n_visible + n_prefetched)
        if result.extras["bytes_moved"] != hierarchy.backing_bytes + hierarchy.stats().total_bytes_read:
            failures.append("bytes_moved != sum of per-source bytes")
        frames = _frame_times(result)
        counts = _storage_counts(hierarchy)
        counts["prefetch.issued"] = n_prefetched
        counts["storage.blocks_requested"] = n_visible + n_prefetched
        return Cell(
            key=key,
            units=units,
            ref=ref,
            frames=frames,
            viewers={key: frames},
            hit_rates={key: 1.0 - n_misses / n_visible if n_visible else 0.0},
            n_visible=n_visible,
            n_fast_misses=n_misses,
            degraded_frames=0,
            sim=result.summary(),
            counts=counts,
            failures=failures,
        )

    def run_cell(self, key: str, rec, traced: bool) -> Cell:
        path_name, policy = key.split("/")
        context = self.state["contexts"][path_name]
        hierarchy = fresh_hierarchy(self.state["grid"], CACHE_RATIO, "lru")
        raw_tracer = Tracer(capacity=TRACER_CAPACITY)
        raw_lineage = EvictionLineage()
        tracer = rec.proxy(raw_tracer, ["record"], "trace.record")
        hierarchy.set_forensics(rec.proxy(raw_lineage, ["record_eviction", "on_miss"],
                                          "forensics.record"))
        issued: List[tuple] = []
        with contextlib.ExitStack() as scope:
            if traced:
                self._instrument(rec, hierarchy, issued, scope)
            clock = FrameClock()
            t0 = perf_counter()
            with rec.span("runtime.replay"):
                result = self._drive(policy, context, hierarchy, tracer=tracer, profiler=clock)
            t1 = perf_counter()
            with rec.span("trace.aggregate"):
                summary = aggregate(raw_tracer.events())
            attributed = FrameClock()
            t2 = perf_counter()
            with rec.span("obs.attribution"), stamp_attributed_frames(attributed):
                report = attribute_run(
                    raw_tracer.events(), result.steps, drop_stats=raw_tracer.drop_stats()
                )
            t3 = perf_counter()
            with rec.span("obs.regret"):
                optimal_miss_count(
                    [int(k) for k in context.demand_trace()], hierarchy.fastest.capacity
                )
            t4 = perf_counter()
        units = clock.units(t0, t1) + [t2 - t1, *attributed.units(t2, t3), t4 - t3]
        cell = self._cell(key, units, clock.ref, result, hierarchy)
        if raw_tracer.n_dropped:
            cell.failures.append(f"tracer dropped {raw_tracer.n_dropped} events")
        if float(summary.total_bytes) != float(result.extras["bytes_moved"]):
            cell.failures.append(
                f"trace bytes {summary.total_bytes} != bytes_moved {result.extras['bytes_moved']}"
            )
        if report.reconciled is not True:
            cell.failures.append(f"attribution reconciled={report.reconciled}")
        cell.counts.update({
            "trace.events": raw_tracer.n_recorded,
            "trace.dropped": raw_tracer.n_dropped,
            "forensics.evictions_recorded": raw_lineage.n_evictions,
            "forensics.re_misses": raw_lineage.n_re_misses,
        })
        if traced:
            cell.counts.update(_prefetch_usefulness(issued, context.visible_sets))
        return cell

    def final_checks(self, first_pass: Dict[str, Cell]) -> Dict[str, List[str]]:
        """Checks that need the whole pass, keyed by the failing cell: every
        cell's simulated summary must equal that of the same cell replayed
        without tracer and forensics."""
        out: Dict[str, List[str]] = {}
        for key, cell in first_pass.items():
            path_name, policy = key.split("/")
            hierarchy = fresh_hierarchy(self.state["grid"], CACHE_RATIO, "lru")
            plain = self._drive(policy, self.state["contexts"][path_name], hierarchy)
            if plain.summary() != cell.sim:
                out[key] = ["simulated summary differs from the untraced replay cell"]
        return out


class ServeWorkload:
    """Eight viewer sessions over one shared, partitioned, faulty hierarchy."""

    name = "serve"

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed
        load_ss, fault_ss = np.random.SeedSequence(seed).spawn(2)
        config = LoadGenConfig(
            n_sessions=size.sessions, steps=size.session_steps, dataset=DATASET,
            blocks=size.blocks, scale=size.scale, cache_ratio=CACHE_RATIO,
            policy="lru", partition="equal", seed=_child_seed(load_ss),
        )
        self.specs = [
            dataclasses.replace(spec, workload=SERVE_KINDS[i % len(SERVE_KINDS)])
            for i, spec in enumerate(make_session_specs(config))
        ]
        self.fault_seed = _child_seed(fault_ss)
        self.state: Optional[dict] = None

    def input_digest(self) -> str:
        parts = [f"fault_seed={self.fault_seed}"]
        parts += [f"{s.session_id}:{s.workload}:{s.seed}:{s.arrival_s!r}" for s in self.specs]
        return ";".join(parts)

    def cell_keys(self) -> List[str]:
        return ["sessions"]

    def frames_per_pass(self) -> int:
        return self.size.sessions * self.size.session_steps

    def setup(self, rec) -> None:
        """Synthesis and the block grid (tables and ground truth are not
        needed up front: each session computes its own visible sets)."""
        self.state = None
        with rec.span("volume.synth"):
            volume = make_dataset(DATASET, scale=self.size.scale)
            grid = BlockGrid.with_target_blocks(volume.shape, self.size.blocks)
        self.state = {"volume_bytes": volume.nbytes, "grid": grid}

    def setup_counts(self) -> Dict[str, float]:
        return {"volume.bytes": self.state["volume_bytes"]}

    def run_cell(self, key: str, rec, traced: bool) -> Cell:
        grid = self.state["grid"]
        hierarchy = fresh_hierarchy(grid, CACHE_RATIO, "lru")
        clock = FrameClock()
        ctx = RunContext.create(faults=FAULT_PROFILE, fault_seed=self.fault_seed, profiler=clock)
        injector = ctx.fault_injector
        with contextlib.ExitStack() as scope:
            if traced:
                instrument_hierarchy(rec, hierarchy)
                rec.wrap(injector, ["fails", "spike_s", "slowdown", "corrupts"], "faults.draw")
                scope.enter_context(rec.patched(pipeline, "compute_visible_sets",
                                                "camera.ground_truth"))
            t0 = perf_counter()
            with rec.span("runtime.replay"):
                result = run_sessions(
                    self.specs, hierarchy, grid, view_angle_deg=VIEW_ANGLE_DEG,
                    render_model=RenderCostModel(), ctx=ctx, partition="equal",
                )
            units = clock.units(t0, perf_counter())
        runs = result.runs
        n_visible = sum(s.n_visible for r in runs.values() for s in r.steps)
        n_misses = sum(s.n_fast_misses for r in runs.values() for s in r.steps)
        dropped = sum(int(r.extras.get("dropped_blocks", 0)) for r in runs.values())
        degraded = sum(int(r.extras.get("degraded_frames", 0)) for r in runs.values())
        failures = _ledger_failures(hierarchy, n_visible - dropped)
        if result.cross_evictions != 0:
            failures.append(f"cross_evictions={result.cross_evictions}")
        viewers = {sid: _frame_times(r) for sid, r in runs.items()}
        stats = injector.stats
        counts = _storage_counts(hierarchy)
        counts.update({
            # Every session fetches each block of its ground truth once.
            "camera.visible_ids": n_visible,
            "storage.blocks_requested": n_visible,
            "faults.injected": stats.total("errors") + stats.total("spikes")
            + stats.total("corruptions"),
            "faults.retries": stats.total("retries"),
            "faults.dropped_blocks": dropped,
        })
        return Cell(
            key=key,
            units=units,
            ref=clock.ref,
            frames=[t for frames in viewers.values() for t in frames],
            viewers=viewers,
            hit_rates=result.frame_stats.hit_rates(),
            n_visible=n_visible,
            n_fast_misses=n_misses,
            degraded_frames=degraded,
            sim=result.as_dict(),
            counts=counts,
            failures=failures,
        )

    def final_checks(self, first_pass: Dict[str, Cell]) -> Dict[str, List[str]]:
        return {}


WORKLOADS = {w.name: w for w in (ExplainWorkload, ServeWorkload)}


def _observe_prefetches(hierarchy, issued: List[tuple]) -> None:
    """Record ``(step, issued ids)`` of every ``prefetch_many`` call."""
    inner = hierarchy.prefetch_many

    def observed(candidates, step, *args, **kwargs):
        ids, time_s = inner(candidates, step, *args, **kwargs)
        issued.append((step, list(ids)))
        return ids, time_s

    hierarchy.prefetch_many = observed


def _prefetch_usefulness(issued: List[tuple], visible_sets) -> Dict[str, float]:
    """A prefetch issued at step i is useful when step i + 1 demands it."""
    evaluated = useful = 0
    for step, ids in issued:
        if step + 1 < len(visible_sets) and ids:
            demand = set(np.asarray(visible_sets[step + 1]).tolist())
            evaluated += len(ids)
            useful += sum(1 for b in ids if b in demand)
    return {
        "prefetch.evaluated": evaluated,
        "prefetch.useful": useful,
        "prefetch.demand_window": sum(len(ids) for ids in visible_sets[1:]) if issued else 0,
    }

