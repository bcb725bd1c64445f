"""Per-frame latency attribution: exact reconciliation and partition.

The two invariants pinned here (see :mod:`repro.obs.attribution`):

- **A (fold fidelity)**: the reconstructed per-channel totals equal the
  engine's time ledger bit-for-bit (`==` on floats, no tolerance) — on
  both engines, fault-free and under the chaos fault profile;
- **B (exact partition)**: each frame's component values, summed as
  ``fractions.Fraction``, equal the channel total exactly.  The module
  computes the partition in integer 2⁻¹⁰⁷⁴ units and exposes it as
  ``Fraction``; the guarantee checked here — no epsilon anywhere — is
  the same either way.  ``test_attribution_fold.py`` pins the integer
  fold against the earlier all-``Fraction`` fold, kept as an oracle.
"""

from fractions import Fraction

import pytest

from repro.camera.path import random_path
from repro.core.pipeline import PipelineContext
from repro.faults import FaultInjector, FaultPlan
from repro.obs.attribution import (
    AttributionCollector,
    attribute_frames,
    attribute_run,
)
from repro.runtime import run_baseline, run_with_prefetcher
from repro.prefetch.strategies import MarkovPrefetcher
from repro.storage.hierarchy import make_standard_hierarchy
from repro.trace import TraceEvent, Tracer
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

VIEW = 10.0
ENGINES = ("batched", "scalar")
FAULTS = ("none", "chaos")


@pytest.fixture(scope="module")
def attr_context():
    volume = Volume(ball_field((32, 32, 32)), name="attr_ball")
    grid = BlockGrid(volume.shape, (8, 8, 8))
    path = random_path(
        n_positions=10, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=VIEW, seed=11,
    )
    return grid, PipelineContext.create(path, grid)


def _hierarchy(grid, faults):
    h = make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(),
        cache_ratio=0.5,
    )
    h.aggregate_trace = False
    if faults != "none":
        h.set_fault_injector(FaultInjector(FaultPlan.from_profile(faults, seed=7)))
    return h


def _run(context, grid, engine, faults, prefetch=False):
    tracer = Tracer()
    hierarchy = _hierarchy(grid, faults)
    if prefetch:
        result = run_with_prefetcher(
            context, hierarchy, MarkovPrefetcher(), tracer=tracer, engine=engine
        )
    else:
        result = run_baseline(context, hierarchy, tracer=tracer, engine=engine)
    return tracer, result


def _assert_partition_exact(report):
    """Invariant B: per-frame and run-level component sums are exact."""
    for frame in report.frames:
        assert sum(
            (Fraction(v) for v in frame.components.values()), Fraction(0)
        ) == Fraction(frame.io_time_s)
        assert sum(
            (Fraction(v) for v in frame.prefetch_components.values()), Fraction(0)
        ) == Fraction(frame.prefetch_time_s)
    # Run-level components sum to the *exact* (Fraction) sum of the frame
    # channel totals; totals["io_time_s"] is that sum rounded to float.
    exact_io = sum((Fraction(f.io_time_s) for f in report.frames), Fraction(0))
    exact_pf = sum((Fraction(f.prefetch_time_s) for f in report.frames), Fraction(0))
    assert sum(report.demand_components.values(), Fraction(0)) == exact_io
    assert sum(report.prefetch_components.values(), Fraction(0)) == exact_pf
    assert report.totals["io_time_s"] == float(exact_io)
    assert report.totals["prefetch_time_s"] == float(exact_pf)


class TestExactReconciliation:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_baseline_reconciles_bit_for_bit(self, attr_context, engine, faults):
        grid, context = attr_context
        tracer, result = _run(context, grid, engine, faults)
        report = attribute_run(
            tracer.events(), result.steps, drop_stats=tracer.drop_stats()
        )
        assert report.exact
        assert report.reconciled is True
        assert not report.incomplete
        for frame, row in zip(report.frames, result.steps):
            assert frame.io_time_s == row.io_time_s  # float ==, no tolerance
            assert frame.render_time_s == row.render_time_s
            assert frame.frame_time_s == (
                row.io_time_s + row.lookup_time_s + row.render_time_s
            )
        _assert_partition_exact(report)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_chaos_components_sum_to_ledger(self, attr_context, engine):
        """Satellite: hit + miss + retry + fault shares sum exactly to the
        per-step ledger under the chaos profile, on both engines."""
        grid, context = attr_context
        tracer, result = _run(context, grid, engine, "chaos")
        report = attribute_run(tracer.events(), result.steps)
        assert report.reconciled is True
        _assert_partition_exact(report)
        all_comps = set()
        for f in report.frames:
            all_comps.update(f.components)
        assert any(c.startswith("miss_transfer:") for c in all_comps)
        # chaos with seed 7 injects faults on this trace
        assert {"fault_penalty", "retry_backoff"} & all_comps

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_prefetch_channel_reconciles(self, attr_context, engine, faults):
        grid, context = attr_context
        tracer, result = _run(context, grid, engine, faults, prefetch=True)
        report = attribute_run(tracer.events(), result.steps)
        assert report.reconciled is True
        assert report.totals["prefetch_time_s"] > 0.0
        _assert_partition_exact(report)

    def test_overlap_saving_is_min_of_prefetch_and_render(self, attr_context):
        grid, context = attr_context
        tracer, result = _run(context, grid, "batched", "none", prefetch=True)
        report = attribute_run(tracer.events(), result.steps)
        for f in report.frames:
            assert f.overlap_saving_s == min(f.prefetch_time_s, f.render_time_s)


class TestIncompleteAndInexact:
    def test_tiny_ring_marks_incomplete(self, attr_context):
        grid, context = attr_context
        tracer = Tracer(capacity=8)  # far below the event count
        result = run_baseline(context, _hierarchy(grid, "none"), tracer=tracer)
        assert tracer.n_dropped > 0
        report = attribute_run(
            tracer.events(), result.steps, drop_stats=tracer.drop_stats()
        )
        assert report.incomplete
        assert report.drop_stats["n_dropped"] == tracer.n_dropped
        assert report.as_dict()["incomplete"] is True

    def test_aggregated_events_clear_exact(self):
        events = [
            TraceEvent(0, "fetch", 0, "hdd", -1, 4096, 0.5, count=4),
            TraceEvent(1, "render", 0, "", -1, 0, 0.1),
        ]
        report = attribute_frames([(0, events, (0.5, 0.0, 0.0, 0.1))])
        assert not report.exact
        # an inexact frame that happens to match is luck, not proof
        assert report.frames[0].reconciled is None

    def test_mismatched_ledger_fails_reconciliation(self):
        events = [TraceEvent(0, "fetch", 0, "hdd", 1, 4096, 0.5)]
        report = attribute_frames([(0, events, (0.25, 0.0, 0.0, 0.0))])
        assert report.frames[0].reconciled is False
        assert report.reconciled is False

    def test_no_ledger_means_unchecked(self):
        events = [TraceEvent(0, "hit", 0, "dram", 1, 1024, 1e-6)]
        report = attribute_frames([(0, events, None)])
        assert report.frames[0].reconciled is None
        assert report.reconciled is None


class TestOrphanGroups:
    def test_dropped_block_charged_via_span_hint(self):
        # two failed attempts, no closing movement (block dropped), span
        # stamped by the demand fetch stage
        events = [
            TraceEvent(0, "fault", 0, "hdd", 5, 0, 0.3, span="replay/fetch"),
            TraceEvent(1, "retry", 0, "hdd", 5, 0, 0.1, span="replay/fetch"),
        ]
        io = 0.0
        for e in events:
            io += e.time_s
        report = attribute_frames([(0, events, (io, 0.0, 0.0, 0.0))])
        frame = report.frames[0]
        assert frame.exact  # span hint is authoritative
        assert frame.reconciled is True
        assert frame.components["fault_penalty"] == pytest.approx(0.3)
        assert frame.components["retry_backoff"] == pytest.approx(0.1)

    def test_orphan_without_span_falls_back_and_clears_exact(self):
        events = [TraceEvent(0, "fault", 0, "hdd", 5, 0, 0.3)]
        report = attribute_frames([(0, events, (0.3, 0.0, 0.0, 0.0))])
        assert not report.frames[0].exact

    def test_prefetch_span_routes_orphan_to_prefetch_channel(self):
        events = [TraceEvent(0, "fault", 0, "hdd", 5, 0, 0.3, span="replay/prefetch")]
        report = attribute_frames([(0, events, (0.0, 0.0, 0.3, 0.0))])
        frame = report.frames[0]
        assert frame.reconciled is True
        assert frame.prefetch_components["fault_penalty"] == pytest.approx(0.3)


class TestAttributionCollector:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_wraps_engine_collector(self, attr_context, engine):
        from repro.runtime.engine import (
            SimulationEngine,
            StepMetricsCollector,
            movement_extras,
        )
        from repro.runtime.context import RunContext
        from repro.runtime.stages import DemandFetchStage, RenderStage

        grid, context = attr_context
        inner = StepMetricsCollector(
            name="collector-test", policy="lru", overlap_prefetch=False,
            observe="serial", charge=("io", "render"), extras_fn=movement_extras,
        )
        collector = AttributionCollector(inner)
        ctx = RunContext(tracer=Tracer())
        result = SimulationEngine(
            context, _hierarchy(grid, "none"),
            [DemandFetchStage(), RenderStage()],
            collector, ctx=ctx, engine=engine,
        ).run()
        assert collector.report is not None
        assert collector.report.reconciled is True
        assert len(collector.report.frames) == len(result.steps)
        _assert_partition_exact(collector.report)

    def test_disabled_tracer_marks_incomplete(self, attr_context):
        from repro.runtime.engine import (
            SimulationEngine,
            StepMetricsCollector,
            movement_extras,
        )
        from repro.runtime.stages import DemandFetchStage, RenderStage

        grid, context = attr_context
        inner = StepMetricsCollector(
            name="collector-test", policy="lru", overlap_prefetch=False,
            observe="serial", charge=("io", "render"), extras_fn=movement_extras,
        )
        collector = AttributionCollector(inner)
        SimulationEngine(
            context, _hierarchy(grid, "none"),
            [DemandFetchStage(), RenderStage()],
            collector, engine="batched",
        ).run()
        assert collector.report.incomplete


class TestSessionsAttribution:
    def test_per_tenant_reports_reconcile(self, small_grid):
        from repro.experiments.runner import fresh_hierarchy
        from repro.runtime import SessionSpec, run_sessions
        from repro.runtime.context import RunContext

        specs = [
            SessionSpec(session_id="alice", workload="spherical", steps=6, seed=1),
            SessionSpec(session_id="bob", workload="zoom", steps=6, seed=2,
                        arrival_s=0.5),
        ]
        result = run_sessions(
            specs, fresh_hierarchy(small_grid), small_grid, partition="equal",
            ctx=RunContext(tracer=Tracer()), attribution=True,
        )
        assert set(result.attribution) == {"alice", "bob"}
        for rep in result.attribution.values():
            assert rep.reconciled is True
            assert rep.exact
            _assert_partition_exact(rep)
        doc = result.as_dict()
        assert doc["attribution"]["tenants"]["alice"]["reconciled"] is True

    def test_attribution_requires_enabled_tracer(self, small_grid):
        from repro.experiments.runner import fresh_hierarchy
        from repro.runtime import SessionSpec, run_sessions

        specs = [SessionSpec(session_id="a", workload="spherical", steps=4, seed=1)]
        with pytest.raises(ValueError, match="(?i)tracer"):
            run_sessions(
                specs, fresh_hierarchy(small_grid), small_grid, attribution=True
            )

    def test_run_load_attribution_does_not_change_ledger(self):
        import json

        from repro.experiments import LoadGenConfig, run_load

        cfg = LoadGenConfig(n_sessions=2, steps=4, blocks=64, scale=0.04)
        plain = run_load(cfg)
        attributed = run_load(cfg, attribution=True)
        attr = attributed["multi_tenant"].pop("attribution")
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            attributed, sort_keys=True
        )
        for rep in attr["tenants"].values():
            assert rep["reconciled"] is True
