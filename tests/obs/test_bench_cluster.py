"""The cluster bench tier: snapshot shape, reconciliation, comparison."""

import json

import pytest

from repro.obs.bench import comparable_metrics, compare_bench, load_bench, write_bench
from repro.obs.bench_cluster import ClusterConfig, run_cluster

TINY = ClusterConfig(blocks=64, scale=0.04, steps=6, n_directions=8, n_distances=1)


@pytest.fixture(scope="module")
def doc():
    return run_cluster(config=TINY, label="t")


class TestClusterTier:
    def test_doc_shape(self, doc):
        assert doc["tier"] == "cluster"
        assert set(doc["runs"]) == {"orbit/K1", "orbit/K4", "orbit/K4-partition"}
        for key, run in doc["runs"].items():
            assert run["ledger_reconciles"] is True, key
            assert "summary" in run

    def test_cluster_section_is_the_partition_ledger(self, doc):
        cl = doc["cluster"]
        assert cl["n_nodes"] == TINY.n_nodes
        assert cl["ledger_reconciles"] is True
        assert cl["shard_map"]["strategy"] == TINY.strategy
        assert cl["link_fallbacks"] > 0  # the severed link was exercised
        assert cl["split_bytes"]["cold"] > 0
        assert doc["runs"]["orbit/K4-partition"]["split_bytes"] == cl["split_bytes"]

    def test_k1_cell_stays_off_the_network(self, doc):
        split = doc["runs"]["orbit/K1"]["split_bytes"]
        assert split["peer"] == 0 and split["ghost"] == 0 and split["cold"] == 0

    def test_round_trips_and_self_compares_clean(self, doc, tmp_path):
        path = write_bench(doc, tmp_path)
        loaded = load_bench(path)
        assert loaded == json.loads(json.dumps(doc))
        rows = compare_bench(loaded, loaded)
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_cluster_metrics_enter_the_comparison(self, doc):
        metrics = comparable_metrics(doc)
        assert "cluster.split_bytes.peer" in metrics
        assert "cluster.locality_score" in metrics
        assert metrics["cluster.locality_score"][1] == "higher"
        assert any(k.startswith("cluster.link.") for k in metrics)
        # default-tier docs gain none of these
        plain = {"runs": doc["runs"]}
        assert not any(k.startswith("cluster.") for k in comparable_metrics(plain))

    def test_deterministic_replay(self, doc):
        import copy

        again = run_cluster(config=TINY, label="t")
        a, b = copy.deepcopy(doc), copy.deepcopy(again)
        a.pop("suite_wall_s"), b.pop("suite_wall_s")
        for run in list(a["runs"].values()) + list(b["runs"].values()):
            run.pop("wall_s", None)
        assert a == b
