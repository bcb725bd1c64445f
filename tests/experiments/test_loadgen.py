"""The serve-sim load generator: seeded synthesis, snapshots, gating."""

import dataclasses
import json

import pytest

from repro.experiments.gating import format_gate_rows
from repro.experiments.loadgen import LoadGenConfig, make_session_specs, run_load
from repro.experiments.matrix import (
    comparable_matrix_metrics,
    compare_matrix,
    load_matrix,
    load_spec,
    run_matrix,
    write_matrix,
)

SMALL = LoadGenConfig(n_sessions=4, steps=5, blocks=64, scale=0.04, seed=3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_sessions"):
            LoadGenConfig(n_sessions=0)
        with pytest.raises(ValueError, match="mix"):
            LoadGenConfig(mix=(1.0, -0.5, 0.5))
        with pytest.raises(ValueError, match="mix"):
            LoadGenConfig(mix=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="partition"):
            LoadGenConfig(partition="striped")

    def test_to_dict_json_plain(self):
        json.dumps(SMALL.to_dict())


class TestMakeSessionSpecs:
    def test_deterministic(self):
        a, b = make_session_specs(SMALL), make_session_specs(SMALL)
        assert a == b

    def test_seed_changes_everything(self):
        a = make_session_specs(SMALL)
        b = make_session_specs(LoadGenConfig(n_sessions=4, steps=5, blocks=64,
                                             scale=0.04, seed=4))
        assert [s.seed for s in a] != [s.seed for s in b]

    def test_prefix_stable_under_growth(self):
        """Adding sessions never reshuffles the existing ones' path seeds."""
        small = make_session_specs(SMALL)
        grown = make_session_specs(
            LoadGenConfig(n_sessions=8, steps=5, blocks=64, scale=0.04, seed=3)
        )
        assert [s.seed for s in grown[:4]] == [s.seed for s in small]

    def test_arrivals_sorted_first_at_zero(self):
        specs = make_session_specs(SMALL)
        arrivals = [s.arrival_s for s in specs]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_zero_rate_means_simultaneous(self):
        cfg = LoadGenConfig(n_sessions=3, arrival_rate_hz=0.0)
        assert all(s.arrival_s == 0.0 for s in make_session_specs(cfg))

    def test_mix_respected_when_pure(self):
        cfg = LoadGenConfig(n_sessions=6, mix=(0.0, 1.0, 0.0))
        assert all(s.workload == "zoom" for s in make_session_specs(cfg))

    def test_session_ids_unique(self):
        ids = [s.session_id for s in make_session_specs(SMALL)]
        assert len(set(ids)) == len(ids)


class TestRunLoad:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_load(SMALL)

    def test_snapshot_deterministic(self, doc):
        again = run_load(SMALL)
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_snapshot_shape(self, doc):
        assert set(doc) == {"config", "workloads", "multi_tenant"}
        assert doc["config"]["n_sessions"] == 4
        mt = doc["multi_tenant"]
        assert mt["n_sessions"] == 4
        assert mt["cross_evictions"] == 0
        assert set(mt["frame_times"]["per_tenant"]) == set(doc["workloads"])

    def test_partition_none_disables_quotas(self):
        cfg = LoadGenConfig(n_sessions=3, steps=4, blocks=64, scale=0.04,
                            partition="none", seed=3)
        doc = run_load(cfg)
        assert doc["multi_tenant"]["quotas"] == {}

    def test_roundtrip_and_compare_clean(self, doc, tmp_path):
        """The serve spec's cell is run_load's scenario, and its snapshot
        round-trips through the one writer/loader/comparer."""
        spec = load_spec("serve-baseline")
        spec = dataclasses.replace(spec, label="t", base={
            **spec.base, "sessions": 4, "steps": 5, "blocks": 64, "scale": 0.04,
            "seed": 3,
        })
        snapshot = run_matrix(spec)
        cell = snapshot["cells"]["serve"]
        assert cell["workloads"] == doc["workloads"]
        assert cell["multi_tenant"]["frame_times"] == doc["multi_tenant"]["frame_times"]
        path = write_matrix(snapshot, tmp_path, prefix="SERVE")
        assert path.name == "SERVE_t.json"
        loaded = load_matrix(path)
        rows = compare_matrix(loaded, snapshot)
        assert rows and all(r["status"] == "ok" for r in rows)
        assert "0 regression(s)" in format_gate_rows(rows)

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "SERVE_bad.json"
        bad.write_text(json.dumps({"kind": "matrix", "schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version 99"):
            load_matrix(bad)


class TestCompareServe:
    """The unified multi-tenant rules on a serve cell."""

    def _doc(self, p99_scale=1.0, fairness=0.9, tenants=("a", "b")):
        per = {
            t: {"p50": 0.01, "p95": 0.02, "p99": 0.03 * p99_scale,
                "mean": 0.01, "max": 0.05, "count": 10}
            for t in tenants
        }
        return {
            "cells": {
                "serve": {
                    "multi_tenant": {
                        "makespan_s": 1.0,
                        "cross_evictions": 0,
                        "frame_times": {
                            "per_tenant": per,
                            "pooled": {"p50": 0.01, "p95": 0.02,
                                       "p99": 0.03 * p99_scale,
                                       "mean": 0.01, "max": 0.05, "count": 20},
                            "fairness_jain": fairness,
                        },
                    },
                },
            },
        }

    def test_regression_on_p99_blowup(self):
        rows = compare_matrix(self._doc(), self._doc(p99_scale=2.0), threshold=0.25)
        regressed = {r["metric"] for r in rows if r["status"] == "regression"}
        assert "serve.multi_tenant.a.p99" in regressed
        assert "serve.multi_tenant.pooled.p99" in regressed

    def test_within_threshold_ok(self):
        rows = compare_matrix(self._doc(), self._doc(p99_scale=1.1), threshold=0.25)
        assert all(r["status"] == "ok" for r in rows)

    def test_fairness_drop_regresses(self):
        rows = compare_matrix(self._doc(fairness=0.95), self._doc(fairness=0.5),
                              threshold=0.25)
        row = next(r for r in rows if r["metric"] == "serve.multi_tenant.fairness_jain")
        assert row["status"] == "regression"

    def test_new_tenant_is_missing_not_regressed(self):
        rows = compare_matrix(
            self._doc(tenants=("a",)), self._doc(tenants=("a", "b")), threshold=0.25
        )
        b_rows = [r for r in rows if r["metric"].startswith("serve.multi_tenant.b.")]
        assert b_rows and all(r["status"] == "missing" for r in b_rows)

    def test_cross_evictions_increase_regresses(self):
        new = self._doc()
        new["cells"]["serve"]["multi_tenant"]["cross_evictions"] = 3
        rows = compare_matrix(self._doc(), new)
        row = next(r for r in rows if r["metric"] == "serve.multi_tenant.cross_evictions")
        assert row["status"] == "regression"

    def test_comparable_metrics_flat(self):
        m = comparable_matrix_metrics(self._doc())
        prefix = "serve.multi_tenant."
        assert {prefix + name for name in ("makespan_s", "cross_evictions",
                                           "pooled.p99", "a.p50")} <= set(m)
