"""The fullscale wall-clock bench tier: cells, comparison gating, CLI.

A tiny geometry keeps the suite fast; the real tier runs the bundled
``fullscale`` spec (``scale=0.5``, ~16k blocks) via ``repro bench --tier
fullscale``.  What matters here is the contract: fullscale cells share
the one snapshot layout, their wall-clock fields join the comparable set
because they are *present* (no tier flag), and the comparison judges
them at the widened ``WALL_THRESHOLD_FACTOR`` so same-machine CI catches
multi-x slowdowns without flaking on scheduler noise.
"""

import copy
import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.experiments.gating import WALL_THRESHOLD_FACTOR
from repro.experiments.matrix import (
    comparable_matrix_metrics,
    compare_matrix,
    load_matrix,
    load_spec,
    run_matrix,
    write_matrix,
)
from repro.obs.bench import profile_cell, profile_target

_SMOKE = load_spec("fullscale-smoke")
_TINY = dataclasses.replace(
    _SMOKE,
    label="fullscale-test",
    base={**_SMOKE.base, "blocks": 256, "scale": 0.08, "steps": 12},
    setup={**_SMOKE.setup, "n_directions": 16, "tracer_capacity": 50_000},
)

WALL_METRICS = ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes")


@pytest.fixture(scope="module")
def doc():
    return run_matrix(_TINY)


class TestRunFullscale:
    def test_document_shape(self, doc):
        assert doc["runner"] == "fullscale-cell"
        assert doc["label"] == "fullscale-test"
        assert set(doc["cells"]) == {
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware",
        }
        for cell in doc["cells"].values():
            fs = cell["fullscale"]
            for name in WALL_METRICS:
                assert fs[name] > 0, name
            assert fs["kernel"] == "culled"
            assert fs["resolved_kernel"] == "culled"
            assert fs["n_blocks"] >= 64
            assert fs["n_samples"] == 16
            assert fs["mean_set_size"] > 0

    def test_runs_record_wall_and_sim(self, doc):
        for key, cell in doc["cells"].items():
            assert cell["wall_s"] > 0, key
            assert cell["per_step_wall_s"] == cell["wall_s"] / _TINY.base["steps"]
            assert cell["summary"]["total_time_s"] > 0
            assert "hierarchy_stats" in cell

    def test_app_aware_beats_lru_on_sim_clock(self, doc):
        for path_name in ("orbit", "zoom"):
            lru = doc["cells"][f"{path_name}/lru"]["summary"]["total_time_s"]
            app = doc["cells"][f"{path_name}/app-aware"]["summary"]["total_time_s"]
            assert app <= lru

    def test_round_trip(self, doc, tmp_path):
        path = write_matrix(doc, tmp_path, prefix="BENCH")
        assert path.name == "BENCH_fullscale-test.json"
        assert load_matrix(path) == doc

    def test_profile_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "fs_profile.json"
        entry = profile_cell(_TINY, profile_target(_TINY), out)
        assert entry["path"] == str(out)
        assert out.exists()

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(_TINY, workers=0)


class TestFullscaleComparison:
    def test_wall_metrics_comparable_only_on_fullscale_tier(self, doc):
        """Wall-clock fields gate because fullscale cells record them —
        a cell without them (every other runner) gates no wall metric."""
        metrics = comparable_matrix_metrics(doc)
        for metric in WALL_METRICS:
            assert metrics[f"orbit/lru.fullscale.{metric}"][1].scale == WALL_THRESHOLD_FACTOR
        assert "orbit/lru.per_step_wall_s" in metrics
        assert "orbit/lru.wall_s" not in metrics
        stripped = copy.deepcopy(doc)
        for cell in stripped["cells"].values():
            cell.pop("fullscale")
            cell.pop("per_step_wall_s")
        names = comparable_matrix_metrics(stripped).keys()
        assert not any("wall" in n or "rss" in n for n in names)

    def test_self_compare_is_clean(self, doc):
        rows = compare_matrix(doc, doc)
        assert rows
        assert all(r["status"] == "ok" for r in rows)

    def test_wall_regression_needs_widened_threshold(self, doc):
        metric = "orbit/lru.fullscale.table_build_wall_s"
        tolerated = copy.deepcopy(doc)
        tolerated["cells"]["orbit/lru"]["fullscale"]["table_build_wall_s"] *= (
            1 + 0.25 * WALL_THRESHOLD_FACTOR * 0.9
        )
        rows = compare_matrix(doc, tolerated, threshold=0.25)
        row = next(r for r in rows if r["metric"] == metric)
        assert row["status"] == "ok"

        flagged = copy.deepcopy(doc)
        flagged["cells"]["orbit/lru"]["fullscale"]["table_build_wall_s"] *= (
            1 + 0.25 * WALL_THRESHOLD_FACTOR * 1.5
        )
        rows = compare_matrix(doc, flagged, threshold=0.25)
        row = next(r for r in rows if r["metric"] == metric)
        assert row["status"] == "regression"

    def test_sim_metrics_keep_tight_threshold(self, doc):
        worse = copy.deepcopy(doc)
        worse["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        rows = compare_matrix(doc, worse, threshold=0.10)
        bad = [r["metric"] for r in rows if r["status"] == "regression"]
        assert bad == ["orbit/lru.total_time_s"]

    def test_per_run_wall_uses_widened_threshold(self, doc):
        noisy = copy.deepcopy(doc)
        noisy["cells"]["orbit/lru"]["wall_s"] *= 1.3
        noisy["cells"]["orbit/lru"]["per_step_wall_s"] *= 1.3
        rows = compare_matrix(doc, noisy, threshold=0.10)
        row = next(r for r in rows if r["metric"] == "orbit/lru.per_step_wall_s")
        assert row["status"] == "ok"
        assert not any(r["status"] == "regression" for r in rows)


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
        err = capsys.readouterr().err
        assert "faults" in err and err.count("\n") == 1
