"""Tests for the self-contained matrix HTML report."""

from pathlib import Path

import pytest

from repro.experiments.matrix import load_matrix, load_spec, run_matrix
from repro.experiments.matrix_report import render_matrix_report, write_matrix_report

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_doc():
    return load_matrix(REPO_ROOT / "MATRIX_smoke.json")


@pytest.fixture(scope="module")
def smoke_html(smoke_doc):
    return render_matrix_report(smoke_doc, base_dir=REPO_ROOT)


class TestSelfContainment:
    """The acceptance bar: no scripts, no network-loaded assets."""

    def test_no_script_elements(self, smoke_html):
        assert "<script" not in smoke_html.lower()

    def test_no_network_urls(self, smoke_html):
        assert "http://" not in smoke_html
        assert "https://" not in smoke_html

    def test_single_html_document(self, smoke_html):
        assert smoke_html.startswith("<!DOCTYPE html>")
        assert "<style>" in smoke_html  # inline CSS only


class TestSections:
    def test_cell_table_lists_every_cell(self, smoke_doc, smoke_html):
        for key in smoke_doc["cells"]:
            assert key in smoke_html
        assert "total_miss_rate" in smoke_html

    def test_figures_render_as_inline_svg(self, smoke_html):
        assert "<svg" in smoke_html and "polyline" in smoke_html
        # one series per workload group, named by the axis value
        assert "spherical" in smoke_html and "zoom" in smoke_html

    def test_trend_tables_from_committed_snapshots(self, smoke_html):
        # [report] bench_snapshots names both committed baselines
        assert "BENCH_baseline.json" in smoke_html
        assert "SERVE_baseline.json" in smoke_html
        assert "not found" not in smoke_html
        assert "Jain fairness" in smoke_html  # serve snapshot tenant summary

    def test_missing_snapshot_noted_not_fatal(self, smoke_doc, tmp_path):
        html = render_matrix_report(smoke_doc, base_dir=tmp_path)
        assert "not found" in html and "skipped" in html

    def test_report_title_from_spec(self, smoke_html):
        assert "matrix smoke report" in smoke_html


class TestFaultAndTenantSections:
    def test_fault_table_for_faulted_cells(self):
        doc = run_matrix(load_spec("cluster-smoke"))
        html = render_matrix_report(doc, base_dir=REPO_ROOT)
        assert "Fault resilience" in html
        assert "link-partition" in html
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html

    def test_tenant_tables_for_serve_cells(self):
        # A serve-style cell (multi_tenant section) renders fairness tables;
        # synthesize one cell to keep this test fast.
        doc = load_matrix(REPO_ROOT / "MATRIX_smoke.json")
        import copy
        import json

        serve = json.loads((REPO_ROOT / "SERVE_baseline.json").read_text())
        doc = copy.deepcopy(doc)
        key = next(iter(doc["cells"]))
        doc["cells"][key]["multi_tenant"] = serve["cells"]["serve"]["multi_tenant"]
        html = render_matrix_report(doc, base_dir=REPO_ROOT)
        assert "Fairness / per-tenant frame times" in html
        assert "p99" in html


class TestWriteReport:
    def test_write_resolves_snapshots_next_to_output(self, smoke_doc, tmp_path):
        out = write_matrix_report(smoke_doc, tmp_path / "r.html")
        text = out.read_text()
        assert "not found" in text  # snapshots are not next to tmp output
        out2 = write_matrix_report(smoke_doc, tmp_path / "r2.html", base_dir=REPO_ROOT)
        assert "not found" not in out2.read_text()
