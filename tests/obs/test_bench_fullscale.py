"""The fullscale wall-clock bench tier: schema, comparison gating, CLI.

A tiny ``FullscaleConfig`` keeps the suite fast; the real tier runs at
``scale=0.5``/~16k blocks via ``repro bench --tier fullscale``.  What
matters here is the contract: the snapshot shares the bench schema, the
wall-clock metrics join the comparable set *only* on fullscale-tier
documents, and ``compare_bench`` judges them at the widened
``WALL_THRESHOLD_FACTOR`` so same-machine CI catches multi-x slowdowns
without flaking on scheduler noise.
"""

import copy

import pytest

from repro.cli import build_parser, main
from repro.obs.bench import (
    WALL_THRESHOLD_FACTOR,
    comparable_metrics,
    compare_bench,
    load_bench,
    write_bench,
)
from repro.obs.bench_fullscale import FullscaleConfig, run_fullscale

_TINY = FullscaleConfig(
    blocks=256, scale=0.08, steps=12, n_directions=16, n_distances=1,
    tracer_capacity=50_000,
)

WALL_METRICS = ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes")


@pytest.fixture(scope="module")
def doc():
    return run_fullscale(config=_TINY, label="fullscale-test")


class TestRunFullscale:
    def test_document_shape(self, doc):
        assert doc["tier"] == "fullscale"
        assert doc["label"] == "fullscale-test"
        assert set(doc["runs"]) == {
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware",
        }
        fs = doc["fullscale"]
        for name in WALL_METRICS:
            assert fs[name] > 0, name
        assert fs["kernel"] == "culled"
        assert fs["resolved_kernel"] == "culled"
        assert fs["n_blocks"] >= 64
        assert fs["n_samples"] == 16
        assert fs["mean_set_size"] > 0

    def test_runs_record_wall_and_sim(self, doc):
        for key, run in doc["runs"].items():
            assert run["wall_s"] > 0, key
            assert run["per_step_wall_s"] == run["wall_s"] / _TINY.steps
            assert run["summary"]["total_time_s"] > 0
            assert "hierarchy_stats" in run

    def test_app_aware_beats_lru_on_sim_clock(self, doc):
        for path_name in ("orbit", "zoom"):
            lru = doc["runs"][f"{path_name}/lru"]["summary"]["total_time_s"]
            app = doc["runs"][f"{path_name}/app-aware"]["summary"]["total_time_s"]
            assert app <= lru

    def test_round_trip(self, doc, tmp_path):
        path = write_bench(doc, tmp_path)
        assert path.name == "BENCH_fullscale-test.json"
        assert load_bench(path) == doc

    def test_profile_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "fs_profile.json"
        d = run_fullscale(
            config=_TINY, label="p", profile_path=out,
        )
        assert d["profile"]["path"] == str(out)
        assert out.exists()

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            run_fullscale(config=_TINY, workers=0)


class TestFullscaleComparison:
    def test_wall_metrics_comparable_only_on_fullscale_tier(self, doc):
        names = comparable_metrics(doc).keys()
        for metric in WALL_METRICS:
            assert f"fullscale.{metric}" in names
        assert "orbit/lru.wall_s" in names
        default_tier = copy.deepcopy(doc)
        default_tier.pop("tier")
        default_names = comparable_metrics(default_tier).keys()
        assert not any("wall" in n or "rss" in n for n in default_names)

    def test_self_compare_is_clean(self, doc):
        rows = compare_bench(doc, doc)
        assert rows
        assert all(r["status"] == "ok" for r in rows)

    def test_wall_regression_needs_widened_threshold(self, doc):
        tolerated = copy.deepcopy(doc)
        tolerated["fullscale"]["table_build_wall_s"] *= 1 + 0.25 * WALL_THRESHOLD_FACTOR * 0.9
        rows = compare_bench(doc, tolerated, threshold=0.25)
        row = next(r for r in rows if r["metric"] == "fullscale.table_build_wall_s")
        assert row["status"] == "ok"

        flagged = copy.deepcopy(doc)
        flagged["fullscale"]["table_build_wall_s"] *= 1 + 0.25 * WALL_THRESHOLD_FACTOR * 1.5
        rows = compare_bench(doc, flagged, threshold=0.25)
        row = next(r for r in rows if r["metric"] == "fullscale.table_build_wall_s")
        assert row["status"] == "regression"

    def test_sim_metrics_keep_tight_threshold(self, doc):
        worse = copy.deepcopy(doc)
        worse["runs"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        rows = compare_bench(doc, worse, threshold=0.10)
        bad = [r["metric"] for r in rows if r["status"] == "regression"]
        assert bad == ["orbit/lru.total_time_s"]

    def test_per_run_wall_uses_widened_threshold(self, doc):
        noisy = copy.deepcopy(doc)
        noisy["runs"]["orbit/lru"]["wall_s"] *= 1.3
        noisy["runs"]["orbit/lru"]["per_step_wall_s"] *= 1.3
        rows = compare_bench(doc, noisy, threshold=0.10)
        for r in rows:
            if r["metric"].endswith("wall_s"):
                assert r["status"] == "ok", r["metric"]


class TestFullscaleCLI:
    def test_parser_default_tier(self):
        args = build_parser().parse_args(["bench"])
        assert args.tier == "default"
        args = build_parser().parse_args(["bench", "--tier", "fullscale"])
        assert args.tier == "fullscale"

    def test_unknown_tier_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--tier", "mega"])

    def test_fullscale_rejects_faults(self, capsys):
        rc = main(["bench", "--tier", "fullscale", "--faults", "chaos"])
        assert rc == 2
        assert "faults" in capsys.readouterr().err
