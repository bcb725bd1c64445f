"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.dataset == "3d_ball"
        assert args.path_type == "random"
        assert args.policies == ["fifo", "lru"]


class TestInfo:
    def test_prints_datasets_and_policies(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "3d_ball" in out
        assert "lru" in out
        assert "repro" in out


class TestPreprocess:
    def test_writes_tables(self, tmp_path, capsys):
        rc = main([
            "preprocess", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--directions", "16", "--distances", "1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "3d_ball_t_visible.npz").exists()
        assert (tmp_path / "3d_ball_t_important.npz").exists()
        out = capsys.readouterr().out
        assert "T_visible" in out

    def test_tables_loadable(self, tmp_path):
        main([
            "preprocess", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--directions", "16", "--distances", "1",
            "--out", str(tmp_path),
        ])
        from repro import ImportanceTable, VisibleTable

        vt = VisibleTable.load(tmp_path / "3d_ball_t_visible.npz")
        it = ImportanceTable.load(tmp_path / "3d_ball_t_important.npz")
        assert vt.n_entries == 16
        assert it.n_blocks == vt.meta["n_blocks"]


class TestReplay:
    def test_random_replay(self, capsys):
        rc = main([
            "replay", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "opt" in out and "lru" in out and "fifo" in out

    def test_spherical_with_belady(self, capsys):
        rc = main([
            "replay", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "8", "--path-type", "spherical",
            "--degrees", "5", "5", "--belady", "--no-app-aware",
            "--policies", "lru",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "belady" in out
        assert "opt" not in out.splitlines()[-2]

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay", "--policies", "nonsense"])

    def test_faults_flag_prints_fault_summary(self, capsys):
        rc = main([
            "replay", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "8", "--policies", "lru",
            "--no-app-aware", "--faults", "lossy", "--fault-seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults lossy (seed 7)" in out
        assert "injected errors" in out and "retries" in out

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay", "--faults", "gremlins"])


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6", "--policy", "lru",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "pid" in ev
        assert jsonl.exists()
        text = capsys.readouterr().out
        assert "ledger check" in text and "agrees" in text

    def test_app_aware_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "app-aware" in text
        assert "agrees" in text

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.policy == "app-aware"
        assert args.capacity == 1_000_000

    def test_reports_drop_counters(self, tmp_path, capsys):
        rc = main([
            "trace", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--steps", "6", "--policy", "lru",
            "--capacity", "10", "--out", str(tmp_path / "trace.json"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "events recorded" in text and "dropped (capacity 10)" in text
        assert "warning: ring buffer dropped" in text


class TestBench:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.label == "local"
        assert args.quick is False
        assert args.compare is None
        assert args.threshold == 0.10

    def test_quick_writes_snapshot(self, tmp_path, capsys):
        import json

        rc = main(["bench", "--quick", "--label", "smoke", "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "BENCH_smoke.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2 and doc["kind"] == "matrix"
        # --quick runs the bench-quick spec
        assert all(cell["config"]["blocks"] == 64 for cell in doc["cells"].values())
        assert "wrote" in capsys.readouterr().out

    def test_compare_self_exits_zero(self, tmp_path, capsys):
        main(["bench", "--quick", "--label", "a", "--out", str(tmp_path)])
        snap = str(tmp_path / "BENCH_a.json")
        assert main(["bench", "--compare", snap, snap]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--compare", missing, missing]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "error:" not in captured.out

    def test_faulted_quick_bench(self, tmp_path, capsys):
        import json

        rc = main([
            "bench", "--quick", "--label", "chaos", "--out", str(tmp_path),
            "--faults", "flaky-hdd", "--fault-seed", "42",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert doc["spec"]["base"]["faults"] == "flaky-hdd"
        for cell in doc["cells"].values():
            assert cell["faults"]["profile"] == "flaky-hdd"
            assert cell["faults"]["seed"] == 42
        assert "faults[" in capsys.readouterr().out

    def test_unreconciled_ledger_exits_one(self, tmp_path, capsys, monkeypatch):
        """A sharded cell whose byte ledger fails to reconcile fails the
        run with one line naming each such cell (no assert: it must hold
        under ``python -O`` too)."""
        import repro.obs.bench_cluster as bench_cluster

        monkeypatch.setattr(bench_cluster, "ledger_reconciles", lambda h: False)
        rc = main(["bench", "--tier", "cluster", "--quick", "--label", "c",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        for key in ("orbit/K1", "orbit/K4", "orbit/K4/partition"):
            assert key in err

    def test_profile_on_cluster_tier_is_one_line_error(self, tmp_path, capsys):
        rc = main(["bench", "--tier", "cluster", "--quick", "--out", str(tmp_path),
                   "--profile", str(tmp_path / "p.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--profile" in err and "orbit/app-aware" in err
        assert not list(tmp_path.iterdir())  # nothing ran, nothing written


class TestRender:
    def test_writes_ppm(self, tmp_path, capsys):
        out = tmp_path / "f.ppm"
        rc = main([
            "render", "--dataset", "3d_ball", "--blocks", "64",
            "--scale", "0.04", "--size", "24", "--out", str(out),
        ])
        assert rc == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P6\n24 24\n255\n")
        assert len(raw) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3


class TestServeSim:
    _FAST = [
        "serve-sim", "--sessions", "4", "--session-steps", "4",
        "--serve-blocks", "64", "--serve-scale", "0.04",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.sessions == 8
        assert args.partition == "equal"
        assert args.mix == (0.5, 0.25, 0.25) or list(args.mix) == [0.5, 0.25, 0.25]

    def test_writes_snapshot(self, tmp_path, capsys):
        import json

        rc = main(self._FAST + ["--label", "t", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "SERVE_t.json").read_text())
        assert doc["schema_version"] == 2 and doc["runner"] == "serve"
        mt = doc["cells"]["serve"]["multi_tenant"]
        assert mt["n_sessions"] == 4
        assert mt["cross_evictions"] == 0
        out = capsys.readouterr().out
        assert "fairness" in out and "p99" in out

    def test_compare_self_exits_zero(self, tmp_path, capsys):
        main(self._FAST + ["--label", "a", "--out", str(tmp_path)])
        snap = str(tmp_path / "SERVE_a.json")
        assert main(["serve-sim", "--compare", snap, snap]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["serve-sim", "--compare", missing, missing]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "error:" not in captured.out

    def test_partition_none(self, tmp_path):
        import json

        rc = main(self._FAST + ["--partition", "none", "--label", "n",
                                "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "SERVE_n.json").read_text())
        assert doc["cells"]["serve"]["multi_tenant"]["quotas"] == {}


@pytest.fixture(scope="module")
def bench_snapshot(tmp_path_factory):
    """One quick bench snapshot shared by the analyze tests."""
    out = tmp_path_factory.mktemp("analyze")
    assert main(["bench", "--quick", "--label", "an", "--out", str(out)]) == 0
    return out / "BENCH_an.json"


class TestAnalyze:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.source is None
        assert str(args.out) == "report.html"
        assert args.prom is None

    def test_bench_snapshot_writes_html_and_prom(self, bench_snapshot, tmp_path,
                                                 capsys):
        html = tmp_path / "report.html"
        prom = tmp_path / "metrics.prom"
        rc = main(["analyze", str(bench_snapshot),
                   "--out", str(html), "--prom", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reconciled=True" in out
        text = html.read_text(encoding="utf-8")
        assert "Regret vs Belady" in text
        assert "Frame-time waterfall" in text
        prom_text = prom.read_text()
        assert "# TYPE repro_attribution_component_seconds counter" in prom_text
        assert "repro_cache_regret_misses" in prom_text
        assert "repro_eviction_lineage_evictions_total" in prom_text

    def test_serve_snapshot_source(self, tmp_path, capsys):
        assert main(["serve-sim", "--sessions", "2", "--session-steps", "4",
                     "--serve-blocks", "64", "--serve-scale", "0.04",
                     "--label", "x", "--out", str(tmp_path)]) == 0
        snap = tmp_path / "SERVE_x.json"
        rc = main(["analyze", str(snap), "--out", str(tmp_path / "r.html")])
        assert rc == 0
        assert "tenant:" in capsys.readouterr().out

    def test_jsonl_source(self, tmp_path, capsys):
        from repro.trace import TraceEvent, write_jsonl

        events = [
            TraceEvent(0, "fetch", 0, "hdd", 1, 1024, 0.5),
            TraceEvent(1, "render", 0, "", -1, 0, 0.1),
        ]
        path = write_jsonl(events, tmp_path / "t.jsonl")
        rc = main(["analyze", str(path), "--out", str(tmp_path / "r.html")])
        assert rc == 0
        assert (tmp_path / "r.html").exists()

    def test_empty_jsonl_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["analyze", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_truncated_jsonl_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"seq":0,"kind":"hit",')
        rc = main(["analyze", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_time_one_line_error(self, tmp_path, capsys, value):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"seq":0,"kind":"fetch","step":0,"level":"hdd","key":1,'
            f'"nbytes":1024,"time_s":{value}}}\n'
        )
        rc = main(["analyze", str(path), "--out", str(tmp_path / "r.html")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}:1:" in err and "finite" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.html").exists()

    def test_missing_source_one_line_error(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_reconciliation_exits_one(self, tmp_path, capsys):
        import json

        doc = {
            "schema_version": 2,
            "kind": "matrix",
            "label": "bad",
            "spec": {"axes": {}},
            "cells": {
                "bad/run": {
                    "index": 0,
                    "axes": {},
                    "attribution": {
                        "schema_version": 1,
                        "n_frames": 1,
                        "demand_components": {"miss_transfer:hdd": 0.5},
                        "prefetch_components": {},
                        "totals": {"io_time_s": 0.5, "frame_time_s": 0.5},
                        "n_re_miss": 0, "n_degraded": 0,
                        "degraded_extra_s": 0.0,
                        "reconciled": False, "exact": True,
                        "incomplete": False, "frames": [],
                    },
                },
            },
        }
        snap = tmp_path / "bad.json"
        snap.write_text(json.dumps(doc))
        rc = main(["analyze", str(snap), "--out", str(tmp_path / "r.html")])
        assert rc == 1
        assert "failed ledger reconciliation" in capsys.readouterr().err


class TestTraceFromJsonl:
    def test_reports_from_existing_jsonl(self, tmp_path, capsys):
        from repro.trace import TraceEvent, write_jsonl

        events = [
            TraceEvent(0, "fetch", 0, "hdd", 1, 1024, 0.5),
            TraceEvent(1, "render", 0, "", -1, 0, 0.1),
        ]
        path = write_jsonl(events, tmp_path / "t.jsonl")
        rc = main(["trace", "--from-jsonl", str(path),
                   "--out", str(tmp_path / "chrome.json")])
        assert rc == 0
        assert (tmp_path / "chrome.json").exists()
        assert "chrome trace" in capsys.readouterr().out

    def test_empty_jsonl_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["trace", "--from-jsonl", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestReplayRecord:
    def test_record_then_replay_trace(self, tmp_path, capsys):
        trace = tmp_path / "session.jsonl"
        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "spherical", "--policies", "lru", "--no-app-aware",
            "--record", str(trace),
        ])
        assert rc == 0
        assert "camera trace" in capsys.readouterr().out
        assert trace.is_file()

        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "recorded", "--trace-file", str(trace),
            "--policies", "lru", "--no-app-aware",
        ])
        assert rc == 0
        # the recorded path keeps the original session's name
        assert "spherical_5deg" in capsys.readouterr().out

    def test_recorded_without_trace_file_is_one_line_error(self, capsys):
        rc = main([
            "replay", "--blocks", "64", "--scale", "0.04", "--steps", "6",
            "--path-type", "recorded",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trace_file" in err


class TestMatrix:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["matrix", "run", "smoke"])
        assert args.matrix_command == "run"
        assert args.spec == "smoke" and args.workers == 1

    def test_run_bundled_smoke_spec(self, tmp_path, capsys):
        report = tmp_path / "report.html"
        rc = main([
            "matrix", "run", "smoke", "--out", str(tmp_path),
            "--report", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert (tmp_path / "MATRIX_smoke.json").is_file()
        html = report.read_text()
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html

    def test_compare_fresh_against_committed(self, tmp_path, capsys):
        assert main(["matrix", "run", "smoke", "--out", str(tmp_path)]) == 0
        rc = main([
            "matrix", "compare", str(tmp_path / "MATRIX_smoke.json"),
            "MATRIX_smoke.json",
        ])
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_report_subcommand(self, tmp_path, capsys):
        out_html = tmp_path / "m.html"
        rc = main(["matrix", "report", "MATRIX_smoke.json", "--out", str(out_html)])
        assert rc == 0
        assert out_html.is_file()
        assert "4 cells" in capsys.readouterr().out

    def test_unknown_spec_lists_bundled(self, capsys):
        rc = main(["matrix", "run", "no-such-spec"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bundled" in err and "smoke" in err

    def test_compare_missing_file_exits_two(self, capsys):
        rc = main(["matrix", "compare", "nope.json", "also-nope.json"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_engine_key_in_spec_is_one_line_error(self, tmp_path, capsys):
        spec = tmp_path / "eng.toml"
        spec.write_text('[matrix]\nlabel = "eng"\n[base]\nengine = "scalar"\n')
        assert main(["matrix", "run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'engine' is not a RunConfig field" in err

    def test_label_override(self, tmp_path):
        assert main([
            "matrix", "run", "smoke", "--label", "renamed",
            "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "MATRIX_renamed.json").is_file()
