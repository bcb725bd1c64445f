"""Tests for the declarative experiment-matrix runner."""

import json
from pathlib import Path

import pytest

from repro.experiments.matrix import (
    CELL_RUNNERS,
    MatrixSpec,
    bundled_spec_names,
    compare_matrix,
    comparable_matrix_metrics,
    expand_cells,
    expand_grid,
    execute_cells,
    load_matrix,
    load_spec,
    parse_toml_subset,
    register_cell_runner,
    run_matrix,
    spec_from_dict,
    write_matrix,
)
from repro.utils.rng import derive_seed

try:
    import tomllib
except ImportError:  # Python < 3.11: the subset parser is the only path
    tomllib = None

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "src" / "repro" / "experiments" / "specs"

TINY_SPEC = MatrixSpec(
    label="tiny",
    runner="replay",
    base={
        "dataset": "3d_ball",
        "blocks": 64,
        "scale": 0.04,
        "steps": 3,
        "degrees": (5.0, 5.0),
        "cache_ratio": 0.5,
    },
    axes={"policy": ("lru", "fifo")},
    setup={"n_directions": 8, "n_distances": 1},
)


class TestTomlSubsetParser:
    def test_matches_tomllib_on_bundled_specs(self):
        if tomllib is None:
            pytest.skip("no tomllib: nothing to cross-check against")
        for path in sorted(SPEC_DIR.glob("*.toml")):
            text = path.read_text()
            assert parse_toml_subset(text) == tomllib.loads(text), path.name

    def test_kitchen_sink_matches_tomllib(self):
        text = (
            '# comment\n'
            '[matrix]\n'
            'label = "demo"  # trailing comment\n'
            'repeats = 2\n'
            'negative = -3\n'
            'ratio = 0.5\n'
            'flag = true\n'
            'off = false\n'
            '\n'
            '[base]\n'
            'degrees = [5.0,\n'
            '           10.0]\n'
            'names = ["a", "b"]\n'
            'inline = { x = 1, y = "two" }\n'
            '\n'
            '[labels.workload]\n'
            '"quoted key" = "v"\n'
            'bare-key = "w"\n'
            '\n'
            '[[constraints]]\n'
            'shards = 1\n'
            '\n'
            '[[constraints]]\n'
            'shards = 4\n'
        )
        parsed = parse_toml_subset(text)
        assert parsed["matrix"]["negative"] == -3
        assert parsed["base"]["degrees"] == [5.0, 10.0]
        assert parsed["base"]["inline"] == {"x": 1, "y": "two"}
        assert parsed["labels"]["workload"]["quoted key"] == "v"
        assert [c["shards"] for c in parsed["constraints"]] == [1, 4]
        if tomllib is not None:
            assert parsed == tomllib.loads(text)

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError, match="bad TOML line"):
            parse_toml_subset("not a key value line\n")
        with pytest.raises(ValueError, match="unterminated"):
            parse_toml_subset("[t]\nxs = [1, 2\n")


class TestSpecValidation:
    def test_all_problems_reported_in_one_error(self):
        raw = {
            "matrix": {"runner": "nope", "repeats": 0, "bogus": 1},
            "base": {"blocks": 64, "no_such_field": 1},
            "axes": {"policy": [], "phantom": ["a"]},
            "labels": {"unmatched": {"a": "b"}},
            "constraints": [{"not_an_axis": 1}],
            "figures": [{"metric": "m"}],
            "wrong_section": {},
        }
        with pytest.raises(ValueError) as err:
            spec_from_dict(raw, where="unit")
        msg = str(err.value)
        assert msg.startswith("unit: invalid matrix spec: ")
        for fragment in (
            "unknown section(s) ['wrong_section']",
            "unknown runner 'nope'",
            "repeats must be an int >= 1",
            "unknown key(s) ['bogus']",
            "needs a non-empty string 'label'",
            "'no_such_field' is not a RunConfig field",
            "[axes] policy has no values",
            "'phantom' is not a RunConfig field",
            "[labels.unmatched] does not match any axis",
            "[[constraints]] #0 names non-axis field(s)",
            "[[figures]] #0 missing key(s) ['x']",
        ):
            assert fragment in msg, fragment

    @pytest.mark.parametrize(
        "section", [{"base": {"engine": "scalar"}}, {"axes": {"engine": ["batched", "scalar"]}}]
    )
    def test_engine_is_not_a_spec_field(self, section):
        """Specs cannot select the per-block engine: one line names the
        offending field."""
        with pytest.raises(ValueError) as err:
            spec_from_dict({"matrix": {"label": "x"}, **section}, where="unit")
        msg = str(err.value)
        assert "'engine' is not a RunConfig field" in msg
        assert "\n" not in msg

    def test_base_axes_overlap_rejected(self):
        with pytest.raises(ValueError, match=r"\['policy'\] appear in both"):
            spec_from_dict({
                "matrix": {"label": "x"},
                "base": {"policy": "lru"},
                "axes": {"policy": ["lru", "fifo"]},
            })

    def test_round_trips_through_to_dict(self):
        spec = load_spec("smoke")
        assert spec_from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestLoadSpec:
    def test_unknown_name_lists_bundled(self):
        with pytest.raises(FileNotFoundError, match="bundled:") as err:
            load_spec("no-such-spec")
        for name in bundled_spec_names():
            assert name in str(err.value)

    def test_bundled_names_cover_committed_tiers(self):
        assert {"smoke", "bench", "bench-quick", "serve-baseline", "cluster",
                "cluster-smoke", "fullscale", "fullscale-smoke"} <= set(bundled_spec_names())

    def test_json_spec_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SPEC.to_dict()))
        assert load_spec(path).to_dict() == TINY_SPEC.to_dict()


#: base/setup keys a tier's full and CI-smoke specs may differ in.
_GEOMETRY = ("blocks", "scale", "steps", "n_directions", "n_distances")


def _shape(name):
    """A bundled spec without its geometry and comment-only differences."""
    d = load_spec(name).to_dict()
    for section in ("base", "setup"):
        for key in _GEOMETRY:
            d[section].pop(key, None)
    return d


class TestSpecPinning:
    """Each tier's full and CI-smoke specs are one suite at two sizes, and
    the CI serve command runs the committed serve spec."""

    def test_bench_specs(self):
        assert _shape("bench") == _shape("bench-quick")
        assert load_spec("bench").runner == "bench-cell"

    def test_serve_baseline_spec(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "serve-sim", "--sessions", "8", "--session-steps", "16",
            "--serve-blocks", "128", "--serve-scale", "0.06", "--serve-seed", "0",
            "--label", "ci", "--out", str(tmp_path),
        ]) == 0
        doc = load_matrix(tmp_path / "SERVE_ci.json")
        expected = load_spec("serve-baseline").to_dict()
        expected["matrix"]["label"] = "ci"
        assert doc["spec"] == json.loads(json.dumps(expected))

    def test_cluster_smoke_spec(self):
        assert _shape("cluster") == _shape("cluster-smoke")
        assert load_spec("cluster").axes["shards"] == (1, 4)

    def test_fullscale_smoke_spec(self):
        assert _shape("fullscale") == _shape("fullscale-smoke")
        assert load_spec("fullscale").base["scale"] == 0.5


class TestExpandGrid:
    def test_declaration_order_first_axis_slowest(self):
        names, combos = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert names == ("a", "b")
        assert combos == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_errors_match_sweep_vocabulary(self):
        with pytest.raises(ValueError, match="at least one parameter axis"):
            expand_grid({})
        with pytest.raises(ValueError, match="'a' has no values"):
            expand_grid({"a": []})


class TestExpandCells:
    def test_keys_labels_and_order(self):
        spec = load_spec("smoke")
        cells = expand_cells(spec)
        assert [c.key for c in cells] == [
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware"
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert cells[0].config.workload == "spherical"  # label only renames the key

    def test_empty_label_drops_segment(self):
        spec = load_spec("cluster-smoke")
        keys = [c.key for c in expand_cells(spec)]
        # faults="none" is labelled "" so the fault-free cells have no segment
        assert keys == ["orbit/K1", "orbit/K4", "orbit/K4/partition"]

    def test_constraint_skips_keep_indices_dense(self):
        cells = expand_cells(load_spec("cluster-smoke"))
        assert [c.index for c in cells] == [0, 1, 2]  # skipped K1/partition eats no index

    def test_no_axes_single_cell_named_after_label(self):
        import dataclasses

        spec = dataclasses.replace(load_spec("serve-baseline"), key_prefix="")
        cells = expand_cells(spec)
        assert len(cells) == 1
        assert cells[0].key == "serve-baseline"
        assert cells[0].axes == {}

    def test_repeats_derive_seeds_and_key_segments(self):
        import dataclasses

        spec = dataclasses.replace(TINY_SPEC, repeats=2, seed=7)
        cells = expand_cells(spec)
        assert [c.key for c in cells] == [
            "lru/r0", "lru/r1", "fifo/r0", "fifo/r1"
        ]
        assert cells[0].config.seed == 7
        assert cells[1].config.seed == derive_seed(7, 1)
        assert cells[1].config.seed != 7

    def test_duplicate_keys_rejected(self):
        import dataclasses

        spec = dataclasses.replace(
            TINY_SPEC, labels={"policy": {"lru": "same", "fifo": "same"}}
        )
        with pytest.raises(ValueError, match="both map to key 'same'"):
            expand_cells(spec)

    def test_invalid_cell_config_names_the_cell(self):
        import dataclasses

        spec = dataclasses.replace(TINY_SPEC, base={**TINY_SPEC.base, "blocks": -1})
        with pytest.raises(ValueError, match="cell 'lru':"):
            expand_cells(spec)

    def test_all_constraints_skipping_everything_rejected(self):
        import dataclasses

        spec = dataclasses.replace(
            TINY_SPEC, constraints=({"policy": ["lru", "fifo"]},)
        )
        with pytest.raises(ValueError, match="zero cells"):
            expand_cells(spec)


class TestRunners:
    def test_duplicate_runner_registration_rejected(self):
        assert "replay" in CELL_RUNNERS
        with pytest.raises(ValueError, match="already registered"):
            register_cell_runner("replay", lambda cell, extras: {})

    def test_plugin_runner_autoloads(self):
        # fullscale-cell is registered by repro.obs.bench, which spec
        # validation imports on demand — the bundled spec just works.
        spec = load_spec("fullscale-smoke")
        assert spec.runner == "fullscale-cell"

    def test_unknown_runner_rejected(self):
        cells = expand_cells(TINY_SPEC)
        with pytest.raises(KeyError, match="unknown cell runner 'nope'"):
            execute_cells(cells, "nope", {})

    def test_bad_worker_count_rejected(self):
        cells = expand_cells(TINY_SPEC)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            execute_cells(cells, "replay", {}, workers=0)


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def tiny_doc(self):
        return run_matrix(TINY_SPEC)

    def test_document_layout(self, tiny_doc):
        assert tiny_doc["kind"] == "matrix"
        assert tiny_doc["label"] == "tiny"
        assert tiny_doc["n_cells"] == 2
        assert set(tiny_doc["cells"]) == {"lru", "fifo"}
        cell = tiny_doc["cells"]["lru"]
        assert cell["axes"] == {"policy": "lru"}
        assert cell["config"]["policy"] == "lru"
        assert "summary" in cell and "hierarchy_stats" in cell

    def test_write_load_round_trip(self, tiny_doc, tmp_path):
        path = write_matrix(tiny_doc, tmp_path)
        assert path.name == "MATRIX_tiny.json"
        loaded = load_matrix(path)
        assert loaded["cells"].keys() == tiny_doc["cells"].keys()

    def test_load_rejects_wrong_kind_and_version(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({"kind": "bench"}))
        with pytest.raises(ValueError, match="not a matrix snapshot"):
            load_matrix(bad)
        bad.write_text(json.dumps({"kind": "matrix", "schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version 99"):
            load_matrix(bad)

    def test_self_compare_all_ok(self, tiny_doc):
        rows = compare_matrix(tiny_doc, tiny_doc)
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_comparable_metrics_skip_wall_clock(self, tiny_doc):
        names = comparable_matrix_metrics(tiny_doc)
        assert names
        assert not any("wall" in n for n in names)

    def test_parallel_equals_serial(self, tiny_doc):
        parallel = run_matrix(TINY_SPEC, workers=2)
        assert all(r["status"] == "ok" for r in compare_matrix(tiny_doc, parallel))
        for key, cell in tiny_doc["cells"].items():
            assert parallel["cells"][key]["summary"] == cell["summary"]


class TestCommittedSmokeDocument:
    """MATRIX_smoke.json is the CI gate baseline — regenerate and compare."""

    def test_committed_smoke_regenerates_identically(self):
        committed = load_matrix(REPO_ROOT / "MATRIX_smoke.json")
        fresh = run_matrix(load_spec("smoke"))
        rows = compare_matrix(committed, fresh)
        bad = [r for r in rows if r["status"] not in ("ok", "improved")]
        assert not bad, bad
        # bit-level: every compared metric is exactly equal, not just in-threshold
        old_metrics = comparable_matrix_metrics(committed)
        new_metrics = comparable_matrix_metrics(fresh)
        assert {k: v for k, (v, _) in old_metrics.items()} == {
            k: v for k, (v, _) in new_metrics.items()
        }
