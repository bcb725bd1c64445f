"""Tests for the shared comparison/gating vocabulary.

Every snapshot (bench tiers, serve, matrix) is compared through this one
module and ``compare_matrix``; the pinning tests here assert the verdicts
on the committed baselines, and the multi-tenant tests pin the one rule
set that replaced the serve and bench gates.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.experiments.gating import (
    GateRule,
    WALL_THRESHOLD_FACTOR,
    compare_metric_sets,
    count_regressions,
    flatten_cluster_section,
    flatten_multi_tenant,
    flatten_run_summary,
    format_gate_rows,
)
from repro.experiments.matrix import compare_matrix

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name):
    return json.loads((REPO_ROOT / name).read_text())


class TestGateRule:
    def test_defaults(self):
        rule = GateRule("lower")
        assert rule.mode == "relative" and rule.scale == 1.0

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            GateRule("sideways")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            GateRule("lower", mode="fuzzy")


class TestCompareMetricSets:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_metric_sets({}, {}, threshold=-0.1)

    def test_relative_regression_and_improvement(self):
        old = {"m": (1.0, GateRule("lower"))}
        assert compare_metric_sets(old, {"m": (1.2, GateRule("lower"))})[0]["status"] == "regression"
        assert compare_metric_sets(old, {"m": (0.5, GateRule("lower"))})[0]["status"] == "improved"
        assert compare_metric_sets(old, {"m": (1.05, GateRule("lower"))})[0]["status"] == "ok"

    def test_higher_direction_flips(self):
        old = {"m": (1.0, GateRule("higher"))}
        assert compare_metric_sets(old, {"m": (0.5, GateRule("higher"))})[0]["status"] == "regression"
        assert compare_metric_sets(old, {"m": (2.0, GateRule("higher"))})[0]["status"] == "improved"

    def test_absolute_increase_mode(self):
        # any increase at all regresses, regardless of the relative threshold
        old = {"m": (0.0, GateRule("lower", mode="absolute_increase"))}
        new = {"m": (1.0, GateRule("lower", mode="absolute_increase"))}
        assert compare_metric_sets(old, new)[0]["status"] == "regression"
        assert compare_metric_sets(old, old)[0]["status"] == "ok"

    def test_strict_zero_mode(self):
        rule = GateRule("lower", mode="relative_strict_zero")
        old = {"m": (0.0, rule)}
        row = compare_metric_sets(old, {"m": (0.001, rule)})[0]
        assert row["status"] == "regression" and math.isinf(row["change"])
        assert compare_metric_sets(old, {"m": (0.0, rule)})[0]["status"] == "ok"

    def test_missing_metrics_reported_both_ways(self):
        rows = compare_metric_sets(
            {"gone": (1.0, GateRule("lower"))},
            {"new": (1.0, GateRule("lower"))},
        )
        statuses = {r["metric"]: r["status"] for r in rows}
        assert statuses == {"gone": "missing", "new": "missing"}
        by_name = {r["metric"]: r for r in rows}
        assert by_name["gone"]["old"] == 1.0 and by_name["gone"]["new"] is None
        assert by_name["new"]["old"] is None and by_name["new"]["new"] == 1.0
        assert count_regressions(rows) == 0

    def test_format_hides_ok_rows_by_default(self):
        rows = compare_metric_sets(
            {"m": (1.0, GateRule("lower"))}, {"m": (1.0, GateRule("lower"))}
        )
        assert "hidden" in format_gate_rows(rows)
        assert "m" in format_gate_rows(rows, verbose=True)


class TestFlatteners:
    def test_run_summary_on_committed_bench(self):
        doc = _load("BENCH_baseline.json")
        cell = doc["cells"]["orbit/lru"]
        metrics = flatten_run_summary(cell, "orbit/lru")
        assert "orbit/lru.total_miss_rate" in metrics
        assert "orbit/lru.trace.n_dropped" in metrics
        assert not any("wall" in name for name in metrics)
        # wall metrics gate where a cell records them, at the widened threshold
        walled = flatten_run_summary(dict(cell, per_step_wall_s=0.001), "x")
        assert walled["x.per_step_wall_s"][1].scale == WALL_THRESHOLD_FACTOR

    def test_multi_tenant_on_committed_serve(self):
        mt = _load("SERVE_baseline.json")["cells"]["serve"]["multi_tenant"]
        metrics = flatten_multi_tenant(mt)
        assert metrics["multi_tenant.fairness_jain"][1] == GateRule("higher")
        assert metrics["multi_tenant.cross_evictions"][1].mode == "absolute_increase"
        strict = GateRule("lower", mode="relative_strict_zero")
        assert metrics["multi_tenant.makespan_s"][1] == strict
        assert metrics["multi_tenant.pooled.p50"][1] == strict
        tenant = sorted(mt["frame_times"]["per_tenant"])[0]
        assert metrics[f"multi_tenant.{tenant}.p99"][1] == strict

    def test_cluster_section_on_committed_snapshot(self):
        section = _load("BENCH_cluster.json")["cells"]["orbit/K4/partition"]["cluster"]
        metrics = flatten_cluster_section(section)
        assert "cluster.split_bytes.peer" in metrics
        assert metrics["cluster.locality_score"][1].direction == "higher"


def _mt(fairness=0.9, cross_evictions=0, p99=0.03):
    return {
        "makespan_s": 1.0,
        "cross_evictions": cross_evictions,
        "frame_times": {
            "fairness_jain": fairness,
            "pooled": {"p50": 0.01, "p95": 0.02, "p99": p99},
            "per_tenant": {"s000": {"p50": 0.01, "p95": 0.02, "p99": p99}},
        },
    }


class TestUnifiedMultiTenantRules:
    """One rule set, at least as strict as the serve and bench gates it
    replaced: each of these regresses at every threshold CI uses."""

    @pytest.mark.parametrize("threshold", [0.10, 0.25])
    def test_fairness_drop_of_0_3_regresses(self, threshold):
        for old in (0.98, 0.9, 0.5):
            rows = compare_metric_sets(
                flatten_multi_tenant(_mt(fairness=old)),
                flatten_multi_tenant(_mt(fairness=old - 0.3)),
                threshold=threshold,
            )
            row = next(r for r in rows if r["metric"] == "multi_tenant.fairness_jain")
            assert row["status"] == "regression", old

    @pytest.mark.parametrize("threshold", [0.10, 0.25])
    def test_one_more_cross_eviction_regresses(self, threshold):
        for old in (0, 10):
            rows = compare_metric_sets(
                flatten_multi_tenant(_mt(cross_evictions=old)),
                flatten_multi_tenant(_mt(cross_evictions=old + 1)),
                threshold=threshold,
            )
            row = next(r for r in rows if r["metric"] == "multi_tenant.cross_evictions")
            assert row["status"] == "regression", old

    @pytest.mark.parametrize("threshold", [0.10, 0.25])
    def test_percentile_leaving_zero_regresses(self, threshold):
        rows = compare_metric_sets(
            flatten_multi_tenant(_mt(p99=0.0)),
            flatten_multi_tenant(_mt(p99=1e-15)),
            threshold=threshold,
        )
        bad = {r["metric"] for r in rows if r["status"] == "regression"}
        assert bad == {"multi_tenant.pooled.p99", "multi_tenant.s000.p99"}


class TestBenchVerdictPinning:
    """compare_matrix on the committed bench baselines."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _load("BENCH_baseline.json")

    def test_self_compare_all_ok(self, baseline):
        rows = compare_matrix(baseline, baseline)
        assert rows and all(r["status"] == "ok" for r in rows)
        assert all("change" in r for r in rows)

    def test_perturbed_miss_rate_regresses(self, baseline):
        worse = copy.deepcopy(baseline)
        worse["cells"]["orbit/lru"]["summary"]["total_miss_rate"] *= 1.5
        rows = compare_matrix(baseline, worse)
        bad = [r for r in rows if r["status"] == "regression"]
        assert [r["metric"] for r in bad] == ["orbit/lru.total_miss_rate"]

    def test_improvement_reported(self, baseline):
        better = copy.deepcopy(baseline)
        better["cells"]["orbit/lru"]["summary"]["io_time_s"] *= 0.5
        rows = compare_matrix(baseline, better)
        assert any(
            r["metric"] == "orbit/lru.io_time_s" and r["status"] == "improved"
            for r in rows
        )

    def test_cluster_tier_self_compare(self):
        doc = _load("BENCH_cluster.json")
        rows = compare_matrix(doc, doc)
        assert all(r["status"] == "ok" for r in rows)
        assert any(".cluster." in r["metric"] for r in rows)


class TestServeVerdictPinning:
    """compare_matrix on the committed serve baseline."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _load("SERVE_baseline.json")

    def test_self_compare_all_ok(self, baseline):
        rows = compare_matrix(baseline, baseline)
        assert rows and all(r["status"] == "ok" for r in rows)
        assert "serve.multi_tenant.fairness_jain" in {r["metric"] for r in rows}

    def test_cross_evictions_gate_is_absolute(self, baseline):
        worse = copy.deepcopy(baseline)
        worse["cells"]["serve"]["multi_tenant"]["cross_evictions"] += 1
        rows = compare_matrix(baseline, worse)
        assert any(
            r["metric"] == "serve.multi_tenant.cross_evictions"
            and r["status"] == "regression"
            for r in rows
        )

    def test_fairness_drop_regresses(self, baseline):
        worse = copy.deepcopy(baseline)
        worse["cells"]["serve"]["multi_tenant"]["frame_times"]["fairness_jain"] -= 0.3
        rows = compare_matrix(baseline, worse, threshold=0.25)
        fairness = [r for r in rows if r["metric"] == "serve.multi_tenant.fairness_jain"]
        assert fairness and fairness[0]["status"] == "regression"

    def test_missing_tenant_rows_are_schema_only(self, baseline):
        """A tenant present on one side only reports ``missing`` rows
        (with the present side's value) and never regresses."""
        fewer = copy.deepcopy(baseline)
        per_tenant = fewer["cells"]["serve"]["multi_tenant"]["frame_times"]["per_tenant"]
        gone = sorted(per_tenant)[0]
        per_tenant.pop(gone)
        rows = compare_matrix(baseline, fewer)
        missing = [r for r in rows if r["status"] == "missing"]
        assert missing and all(f".{gone}." in r["metric"] for r in missing)
        assert all(r["new"] is None and r["old"] is not None for r in missing)
        assert count_regressions(rows) == 0
