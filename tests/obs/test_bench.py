"""Tests for the bench tier: the ``bench-cell`` runner through ``run_matrix``,
the one snapshot writer/loader, and the one comparer."""

import copy
import dataclasses
import json

import pytest

from repro.camera.sampling import SamplingConfig
from repro.experiments.gating import format_gate_rows
from repro.experiments.matrix import (
    MATRIX_SCHEMA_VERSION,
    comparable_matrix_metrics,
    compare_matrix,
    expand_cells,
    load_matrix,
    load_spec,
    run_matrix,
    write_matrix,
)
from repro.experiments.runner import ExperimentSetup
from repro.faults import FaultInjector, FaultPlan
from repro.obs.attribution import attribute_run
from repro.obs.bench import PROFILE_CELL, profile_cell, profile_target
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.runtime import run_baseline
from repro.runtime.registries import make_workload
from repro.storage.forensics import EvictionLineage
from repro.trace import Tracer, aggregate
from repro.utils.rng import derive_seed


def _tiny(label="test", **base):
    """The bundled bench-quick spec at a smaller geometry."""
    spec = load_spec("bench-quick")
    return dataclasses.replace(
        spec,
        label=label,
        base={**spec.base, "blocks": 27, "scale": 0.03, "steps": 4, **base},
        setup={**spec.setup, "n_directions": 8},
    )


_TINY = _tiny()


def _sim_only(doc):
    """Strip every machine-dependent (wall-clock) field from a snapshot."""
    d = copy.deepcopy(doc)
    d.pop("suite_wall_s")
    d.pop("workers")
    d.pop("profile", None)
    for cell in d["cells"].values():
        cell["phases"].pop("wall")
        cell.pop("wall_s")
    return d


@pytest.fixture(scope="module")
def doc():
    return run_matrix(_TINY)


@pytest.fixture(scope="module")
def tiny_setup():
    base = _TINY.base
    return ExperimentSetup.for_dataset(
        base["dataset"],
        target_n_blocks=base["blocks"],
        scale=base["scale"],
        cache_ratio=base["cache_ratio"],
        sampling=SamplingConfig(
            n_directions=_TINY.setup["n_directions"],
            n_distances=_TINY.setup["n_distances"],
        ),
        seed=base["seed"],
    )


def _instrumented_cell(setup, path, policy, engine, faults, cell_index):
    """One bench cell's instrumentation on the drivers with an explicit
    ``engine``: metrics registry, per-event trace, phase profiler,
    eviction lineage, latency attribution and an optional fault injector.

    This mirrors ``repro.obs.bench._bench_cell``, which always replays on
    the batched engine and so cannot drive the scalar oracle itself; keep
    the two in step when the bench cell's instrumentation changes."""
    registry = MetricsRegistry()
    tracer = Tracer(capacity=_TINY.setup["tracer_capacity"])
    context = setup.context(path)
    hierarchy = setup.hierarchy("lru" if policy == "app-aware" else policy)
    hierarchy.aggregate_trace = False
    lineage = EvictionLineage()
    hierarchy.set_forensics(lineage)
    injector = None
    if faults != "none":
        plan = FaultPlan.from_profile(faults, seed=derive_seed(7, cell_index))
        injector = FaultInjector(plan)
        hierarchy.set_fault_injector(injector)
    obs = dict(
        tracer=tracer, registry=registry, profiler=PhaseProfiler(tracer=tracer),
        engine=engine,
    )
    if policy == "app-aware":
        result = setup.optimizer().run(context, hierarchy, **obs)
    else:
        result = run_baseline(context, hierarchy, **obs)
    metrics = registry.snapshot()
    # observe_many associates value*n, a last-bit float difference in the
    # histogram sum/mean; every count and bucket must still match.
    for hist in metrics["histograms"].values():
        hist.pop("sum")
        hist.pop("mean")
    events = tracer.events()
    return {
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "metrics": metrics,
        "trace": aggregate(events),
        "n_dropped": tracer.n_dropped,
        "forensics": lineage.as_dict(),
        "attribution": attribute_run(
            events, result.steps, drop_stats=tracer.drop_stats()
        ).as_dict(include_frames=True),
        "faults": None if injector is None else injector.stats.as_dict(),
    }


def _assert_engines_identical(setup, faults):
    """Every bench cell's observability sections agree between the batched
    fast path and the per-block oracle; returns the injected error count."""
    errors = 0
    for cell in expand_cells(_TINY):
        path = make_workload(cell.config, setup.view_angle_deg)
        batched, scalar = (
            _instrumented_cell(setup, path, cell.config.policy, engine, faults, cell.index)
            for engine in ("batched", "scalar")
        )
        for section in batched:
            assert scalar[section] == batched[section], (cell.key, section)
        assert batched["n_dropped"] == 0
        if faults != "none":
            errors += batched["faults"]["errors"]
    return errors


class TestRunBench:
    def test_document_shape(self, doc):
        assert doc["schema_version"] == MATRIX_SCHEMA_VERSION
        assert doc["kind"] == "matrix" and doc["runner"] == "bench-cell"
        assert doc["label"] == "test"
        assert all(cell["config"]["blocks"] == 27 for cell in doc["cells"].values())
        assert set(doc["cells"]) == {
            "orbit/lru",
            "orbit/app-aware",
            "zoom/lru",
            "zoom/app-aware",
        }

    def test_run_cells_have_required_sections(self, doc):
        for cell in doc["cells"].values():
            assert {"summary", "hierarchy_stats", "derived", "metrics", "trace",
                    "phases", "attribution"} <= set(cell)
            assert 0.0 <= cell["summary"]["total_miss_rate"] <= 1.0
            assert cell["trace"]["ledger_agrees"] is True
            assert cell["trace"]["n_dropped"] == 0

    def test_fetch_latency_percentiles_per_level(self, doc):
        lat = doc["cells"]["orbit/lru"]["derived"]["fetch_latency_seconds"]
        assert any("level=" in key for key in lat)
        for row in lat.values():
            assert row["p50"] <= row["p95"] <= row["p99"]

    def test_frame_time_histogram_present(self, doc):
        for cell in doc["cells"].values():
            frame = cell["derived"]["frame_time_seconds"]
            assert frame and all(row["count"] > 0 for row in frame.values())

    def test_prefetch_precision_recall_only_for_app_aware(self, doc):
        lru = doc["cells"]["orbit/lru"]["derived"]
        app = doc["cells"]["orbit/app-aware"]["derived"]
        assert lru["prefetch_precision"] is None
        if app["prefetch_precision"] is not None:
            assert 0.0 <= app["prefetch_precision"] <= 1.0
        if app["prefetch_recall"] is not None:
            assert 0.0 <= app["prefetch_recall"] <= 1.0

    def test_phase_breakdown_sim_vs_wall(self, doc):
        phases = doc["cells"]["orbit/app-aware"]["phases"]
        assert "replay" in phases["wall"] and "replay/fetch" in phases["wall"]
        assert "io" in phases["sim"] and "render" in phases["sim"]

    def test_deterministic(self, doc):
        again = run_matrix(_TINY)
        assert json.dumps(_sim_only(doc), sort_keys=True) == \
            json.dumps(_sim_only(again), sort_keys=True)

    def test_batched_engine_is_default(self, doc, tiny_setup):
        """Cells replay on the batched engine (the schema no longer carries
        a constant ``engine`` field to say so)."""
        for cell in expand_cells(_TINY):
            path = make_workload(cell.config, tiny_setup.view_angle_deg)
            batched = _instrumented_cell(
                tiny_setup, path, cell.config.policy, "batched", "none", cell.index
            )
            got = doc["cells"][cell.key]
            assert "engine" not in got
            assert got["summary"] == batched["summary"], cell.key
            assert got["hierarchy_stats"] == batched["hierarchy_stats"], cell.key

    def test_scalar_engine_sim_identical(self, tiny_setup):
        assert _assert_engines_identical(tiny_setup, "none") == 0

    def test_wall_clock_fields_present(self, doc):
        assert doc["suite_wall_s"] > 0
        assert doc["workers"] == 1
        assert all(cell["wall_s"] > 0 for cell in doc["cells"].values())

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_matrix(_TINY, workers=0)


class TestParallelAndProfile:
    def test_workers_match_serial(self, doc):
        parallel = run_matrix(_TINY, workers=2)
        assert parallel["workers"] == 2
        a, b = _sim_only(doc), _sim_only(parallel)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_profile_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "profile.json"
        entry = profile_cell(_TINY, profile_target(_TINY), out)
        assert entry == {"cell": PROFILE_CELL, "path": str(out)}
        trace = json.loads(out.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "replay" in names and "fetch" in names


class TestWriteLoad:
    def test_round_trip(self, doc, tmp_path):
        path = write_matrix(doc, tmp_path, prefix="BENCH")
        assert path.name == "BENCH_test.json"
        assert load_matrix(path)["cells"].keys() == doc["cells"].keys()

    def test_label_sanitised(self, doc, tmp_path):
        doc2 = dict(doc, label="a/b")
        assert write_matrix(doc2, tmp_path, prefix="BENCH").name == "BENCH_a-b.json"

    def test_schema_version_mismatch_rejected(self, doc, tmp_path):
        bad = dict(doc, schema_version=MATRIX_SCHEMA_VERSION + 1)
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ValueError, match="schema_version"):
            load_matrix(path)


class TestCompare:
    def test_self_compare_is_clean(self, doc):
        rows = compare_matrix(doc, doc)
        assert rows
        assert all(r["status"] == "ok" for r in rows)

    def test_only_sim_metrics_compared(self, doc):
        names = comparable_matrix_metrics(doc).keys()
        assert not any("wall" in n for n in names)
        assert any(".total_time_s" in n for n in names)
        assert any("fetch_latency_seconds" in n and ".p95" in n for n in names)

    def test_regression_detected(self, doc):
        worse = copy.deepcopy(doc)
        worse["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        rows = compare_matrix(doc, worse, threshold=0.10)
        bad = [r for r in rows if r["status"] == "regression"]
        assert [r["metric"] for r in bad] == ["orbit/lru.total_time_s"]

    def test_improvement_not_a_regression(self, doc):
        better = copy.deepcopy(doc)
        better["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 0.5
        rows = compare_matrix(doc, better, threshold=0.10)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "improved"

    def test_higher_is_better_direction(self, doc):
        base = copy.deepcopy(doc)
        base["cells"]["orbit/app-aware"]["derived"]["prefetch_precision"] = 0.8
        worse = copy.deepcopy(base)
        worse["cells"]["orbit/app-aware"]["derived"]["prefetch_precision"] = 0.4
        rows = compare_matrix(base, worse, threshold=0.10)
        row = next(
            r for r in rows if r["metric"] == "orbit/app-aware.prefetch_precision"
        )
        assert row["status"] == "regression"

    def test_missing_metric_reported_not_regressed(self, doc):
        partial = copy.deepcopy(doc)
        del partial["cells"]["orbit/lru"]["summary"]["total_time_s"]
        rows = compare_matrix(doc, partial)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "missing"
        assert not any(r["status"] == "regression" for r in rows)

    def test_bad_threshold_rejected(self, doc):
        with pytest.raises(ValueError):
            compare_matrix(doc, doc, threshold=-0.1)

    def test_format_comparison(self, doc):
        worse = copy.deepcopy(doc)
        worse["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        text = format_gate_rows(compare_matrix(doc, worse))
        assert "orbit/lru.total_time_s" in text
        assert "1 regression(s)" in text
        verbose = format_gate_rows(compare_matrix(doc, doc), verbose=True)
        assert "0 regression(s)" in verbose


class TestFaultedBench:
    _SPEC = _tiny(label="chaos", faults="lossy", fault_seed=7)

    @pytest.fixture(scope="class")
    def faulty(self):
        return run_matrix(self._SPEC)

    def test_runs_gain_a_faults_section(self, faulty):
        assert faulty["spec"]["base"]["faults"] == "lossy"
        assert faulty["spec"]["base"]["fault_seed"] == 7
        for cell in faulty["cells"].values():
            assert cell["config"]["faults"] == "lossy"
            section = cell["faults"]
            assert section["profile"] == "lossy"
            assert section["seed"] == 7
            assert {"errors", "retries", "timeouts", "dropped_blocks"} <= \
                set(section["stats"])
            assert {"faults", "retries", "degraded", "fault_time_s"} <= \
                set(section["trace"])
        # A lossy hdd at seed 7 injects *something* somewhere in the suite.
        assert any(
            cell["faults"]["stats"]["errors"] > 0 for cell in faulty["cells"].values()
        )

    def test_fault_free_doc_has_no_faults_section(self, doc):
        assert doc["spec"]["base"]["faults"] == "none"
        assert all("faults" not in cell for cell in doc["cells"].values())

    def test_faulted_bench_deterministic(self, faulty):
        again = run_matrix(self._SPEC)
        assert json.dumps(_sim_only(faulty), sort_keys=True) == \
            json.dumps(_sim_only(again), sort_keys=True)

    def test_engines_identical_under_faults(self, tiny_setup):
        # flaky-hdd fires somewhere across the four cells.
        assert _assert_engines_identical(tiny_setup, "flaky-hdd") > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="faults must be one of"):
            run_matrix(_tiny(faults="gremlins"))
