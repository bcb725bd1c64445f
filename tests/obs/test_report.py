"""HTML report rendering for ``repro analyze``."""

from repro.obs.report import render_report, write_report


def _attr_doc(**over):
    doc = {
        "schema_version": 1,
        "n_frames": 2,
        "demand_components": {"hit_service": 1e-6, "miss_transfer:hdd": 0.2},
        "prefetch_components": {"prefetch_transfer:ssd": 0.01},
        "totals": {
            "io_time_s": 0.200001,
            "lookup_time_s": 0.001,
            "prefetch_time_s": 0.01,
            "render_time_s": 0.05,
            "frame_time_s": 0.251001,
            "overlap_saving_s": 0.01,
        },
        "n_re_miss": 1,
        "n_degraded": 0,
        "degraded_extra_s": 0.0,
        "reconciled": True,
        "exact": True,
        "incomplete": False,
        "frames": [
            {
                "step": 0,
                "io_time_s": 0.2,
                "lookup_time_s": 0.0005,
                "prefetch_time_s": 0.01,
                "render_time_s": 0.025,
                "frame_time_s": 0.2255,
                "components": {"miss_transfer:hdd": 0.2},
                "prefetch_components": {"prefetch_transfer:ssd": 0.01},
                "overlap_saving_s": 0.01,
                "n_re_miss": 1,
                "n_degraded": 0,
                "degraded_extra_s": 0.0,
                "reconciled": True,
                "exact": True,
            },
            {
                "step": 1,
                "io_time_s": 1e-6,
                "lookup_time_s": 0.0005,
                "prefetch_time_s": 0.0,
                "render_time_s": 0.025,
                "frame_time_s": 0.025501,
                "components": {"hit_service": 1e-6},
                "prefetch_components": {},
                "overlap_saving_s": 0.0,
                "n_re_miss": 0,
                "n_degraded": 0,
                "degraded_extra_s": 0.0,
                "reconciled": True,
                "exact": True,
            },
        ],
    }
    doc.update(over)
    return doc


def _bench_doc():
    attr = _attr_doc()
    attr["forensics"] = {
        "capacity": 4096,
        "premature_window": 8,
        "n_evictions": 10,
        "n_re_misses": 3,
        "n_premature": 2,
        "top_premature": [
            {"block": 7, "count": 2, "min_age_steps": 1, "last_step": 9,
             "evicted_from": "dram", "policy": "lru", "tenant": "", "rank": 0},
        ],
    }
    attr["regret"] = {
        "policy": "lru", "fast_capacity": 32,
        "actual_fast_misses": 40, "belady_misses": 25, "regret": 15,
    }
    return {
        "schema_version": 2,
        "kind": "matrix",
        "label": "test",
        "cells": {
            "orbit/lru": {"index": 0, "attribution": attr},
            "serve": {
                "index": 1,
                "multi_tenant": {
                    "attribution": {
                        "schema_version": 1,
                        "tenants": {"s000": _attr_doc(frames=[])},
                    },
                },
            },
        },
    }


class TestRenderReport:
    def test_bench_doc_sections(self):
        html = render_report(_bench_doc())
        assert html.startswith("<!DOCTYPE html>")
        assert "orbit/lru" in html
        assert "tenant s000" in html
        assert "Frame-time waterfall" in html
        assert "Eviction forensics" in html
        assert "Regret vs Belady" in html
        assert "miss_transfer:hdd" in html

    def test_bare_attribution_doc(self):
        html = render_report(_attr_doc())
        assert "Frame-time waterfall" in html
        assert "Regret vs Belady" not in html  # no regret section present

    def test_serve_doc_without_attribution(self):
        html = render_report(
            {"cells": {"serve": {"index": 0, "multi_tenant": {"frame_times": {}}}}}
        )
        assert "No cell of this snapshot carries an attribution section" in html

    def test_not_reconciled_is_flagged(self):
        doc = _attr_doc(reconciled=False)
        doc["frames"][0]["reconciled"] = False
        html = render_report(doc)
        assert "NOT RECONCILED" in html
        assert 'class="badge bad"' in html

    def test_incomplete_warns_lower_bounds(self):
        html = render_report(_attr_doc(incomplete=True))
        assert "lower bounds" in html

    def test_title_and_escaping(self):
        html = render_report(_attr_doc(), title="<b>x</b>")
        assert "<b>x</b>" not in html
        assert "&lt;b&gt;x&lt;/b&gt;" in html

    def test_self_contained(self):
        html = render_report(_bench_doc())
        assert "<script" not in html
        assert "http" not in html.split("</style>")[1]  # no external asset URLs

    def test_deterministic(self):
        assert render_report(_bench_doc()) == render_report(_bench_doc())

    def test_write(self, tmp_path):
        path = write_report(_attr_doc(), tmp_path / "r.html")
        assert path.read_text(encoding="utf-8") == render_report(_attr_doc())
