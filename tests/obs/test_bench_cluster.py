"""The cluster bench tier: the bundled cluster spec through ``run_matrix``,
its per-cell ledgers, reconciliation and comparison."""

import copy
import dataclasses
import json

import pytest

from repro.experiments.matrix import (
    comparable_matrix_metrics,
    compare_matrix,
    load_matrix,
    load_spec,
    run_matrix,
    write_matrix,
)

_SMOKE = load_spec("cluster-smoke")
TINY = dataclasses.replace(
    _SMOKE, label="t", base={**_SMOKE.base, "steps": 6},
    setup={**_SMOKE.setup, "n_directions": 8},
)
PARTITION = "orbit/K4/partition"


@pytest.fixture(scope="module")
def doc():
    return run_matrix(TINY)


class TestClusterTier:
    def test_doc_shape(self, doc):
        assert doc["runner"] == "replay"
        assert set(doc["cells"]) == {"orbit/K1", "orbit/K4", PARTITION}
        for key, cell in doc["cells"].items():
            assert cell["ledger_reconciles"] is True, key
            assert "summary" in cell and "cluster" in cell

    def test_cluster_section_is_the_partition_ledger(self, doc):
        cell = doc["cells"][PARTITION]
        cl = cell["cluster"]
        assert cl["n_nodes"] == cell["config"]["shards"] == 4
        assert cell["ledger_reconciles"] is True
        assert cl["shard_map"]["strategy"] == TINY.base["shard_map"]
        assert cl["link_fallbacks"] > 0  # the severed link was exercised
        assert cl["split_bytes"]["cold"] > 0
        assert cell["split_bytes"] == cl["split_bytes"]
        assert cell["faults"]["profile"] == "link-partition"

    def test_k1_cell_stays_off_the_network(self, doc):
        split = doc["cells"]["orbit/K1"]["split_bytes"]
        assert split["peer"] == 0 and split["ghost"] == 0 and split["cold"] == 0

    def test_round_trips_and_self_compares_clean(self, doc, tmp_path):
        path = write_matrix(doc, tmp_path, prefix="BENCH")
        loaded = load_matrix(path)
        assert loaded == json.loads(json.dumps(doc))
        rows = compare_matrix(loaded, loaded)
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_cluster_metrics_enter_the_comparison(self, doc):
        metrics = comparable_matrix_metrics(doc)
        assert f"{PARTITION}.cluster.split_bytes.peer" in metrics
        assert f"{PARTITION}.cluster.locality_score" in metrics
        assert metrics[f"{PARTITION}.cluster.locality_score"][1].direction == "higher"
        assert any(k.startswith(f"{PARTITION}.cluster.link.") for k in metrics)
        # cells without a ledger gain none of these
        plain = copy.deepcopy(doc)
        for cell in plain["cells"].values():
            cell.pop("cluster")
        assert not any(".cluster." in k for k in comparable_matrix_metrics(plain))

    def test_deterministic_replay(self, doc):
        again = run_matrix(TINY)
        a, b = copy.deepcopy(doc), copy.deepcopy(again)
        a.pop("suite_wall_s"), b.pop("suite_wall_s")
        for cell in list(a["cells"].values()) + list(b["cells"].values()):
            cell.pop("wall_s", None)
        assert a == b
