"""Hostile snapshots fail with one line, never a traceback.

The one loader (:func:`repro.experiments.matrix.load_matrix`) is the
input gate of ``bench --compare``, ``serve-sim --compare``, ``matrix
compare`` and ``matrix report``.  Hypothesis feeds it truncated JSON,
non-finite numbers, wrong ``kind``/``schema_version`` values and sections
of the wrong type (every section the comparer or the report reads), each
derived from a committed baseline; every command must exit 2 with one
``error:`` line on stderr.  The writer is atomic: a document that fails
to serialize leaves no partial file and no changed snapshot.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.gating import SUMMARY_METRIC_DIRECTIONS
from repro.experiments.matrix import load_matrix, write_matrix

REPO_ROOT = Path(__file__).resolve().parents[2]
BASES = ("MATRIX_smoke.json", "SERVE_baseline.json", "BENCH_cluster.json",
         "BENCH_baseline.json")
#: Raw text only: parsed documents are built per example, so the module
#: keeps no large object graph alive for the garbage collector to rescan.
_TEXTS = {name: (REPO_ROOT / name).read_text() for name in BASES}

_MAPPING = "mapping"
_NUMBER = "number"
_WRONG = {
    _MAPPING: ([], "x", 3, True, None),
    _NUMBER: ("x", [], {}, True),
    "str": (3, None, [], {}),
    "int": ("0", 1.5, None, True),
}


def _typed_paths(doc):
    """``(path, type)`` of every section the comparer or report reads."""
    out = [(("cells",), _MAPPING), (("spec",), _MAPPING), (("spec", "axes"), _MAPPING),
           (("label",), "str")]
    for key, cell in doc["cells"].items():
        c = ("cells", key)
        out += [(c, _MAPPING), (c + ("index",), "int"), (c + ("axes",), _MAPPING)]
        if "summary" in cell:
            out.append((c + ("summary",), _MAPPING))
            out += [(c + ("summary", m), _NUMBER)
                    for m in SUMMARY_METRIC_DIRECTIONS if m in cell["summary"]]
        if "derived" in cell:
            out.append((c + ("derived",), _MAPPING))
            for hist in ("fetch_latency_seconds", "frame_time_seconds"):
                out.append((c + ("derived", hist), _MAPPING))
                for label in cell["derived"][hist]:
                    out.append((c + ("derived", hist, label), _MAPPING))
                    out.append((c + ("derived", hist, label, "p99"), _NUMBER))
        if "multi_tenant" in cell:
            mt = c + ("multi_tenant",)
            ft = mt + ("frame_times",)
            out += [(mt, _MAPPING), (ft, _MAPPING), (ft + ("pooled",), _MAPPING),
                    (ft + ("per_tenant",), _MAPPING), (ft + ("pooled", "p99"), _NUMBER),
                    (ft + ("fairness_jain",), _NUMBER), (mt + ("cross_evictions",), _NUMBER),
                    (mt + ("makespan_s",), _NUMBER)]
            for tenant in cell["multi_tenant"]["frame_times"]["per_tenant"]:
                out.append((ft + ("per_tenant", tenant), _MAPPING))
                out.append((ft + ("per_tenant", tenant, "p50"), _NUMBER))
        if "cluster" in cell:
            out += [(c + ("cluster",), _MAPPING), (c + ("cluster", "split_bytes"), _MAPPING),
                    (c + ("cluster", "links"), _MAPPING),
                    (c + ("cluster", "peer_bytes"), _NUMBER)]
        if "faults" in cell:
            out += [(c + ("faults",), _MAPPING), (c + ("faults", "trace"), _MAPPING)]
    return out


def _numeric_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numeric_paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numeric_paths(v, prefix + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix


def _set(doc, path, value):
    for part in path[:-1]:
        doc = doc[part]
    doc[path[-1]] = value


@st.composite
def hostile_snapshots(draw):
    """The text of a committed baseline after one hostile mutation."""
    name = draw(st.sampled_from(BASES))
    doc = json.loads(_TEXTS[name])
    kind = draw(st.sampled_from(("truncated", "nan", "kind", "schema", "mistyped")))
    if kind == "truncated":
        text = json.dumps(doc, indent=2)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "nan":
        path = draw(st.sampled_from(list(_numeric_paths(doc))))
        _set(doc, path, draw(st.sampled_from((float("nan"), float("inf"), -float("inf")))))
    elif kind == "kind":
        if draw(st.booleans()):
            del doc["kind"]
        else:
            doc["kind"] = draw(st.sampled_from(("bench", "serve", "", None, 3, ["matrix"])))
    elif kind == "schema":
        doc["schema_version"] = draw(st.sampled_from((0, 1, 3, 99, -1, "2", None, 2.5)))
    else:
        path, expected = draw(st.sampled_from(_typed_paths(doc)))
        _set(doc, path, draw(st.sampled_from(_WRONG[expected])))
    return json.dumps(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestHostileSnapshots:
    @settings(max_examples=60, deadline=None)
    @given(text=hostile_snapshots())
    def test_every_reader_exits_two_with_one_line(self, workdir, text):
        bad = workdir / "BENCH_bad.json"
        bad.write_text(text, encoding="utf-8")
        good = str(REPO_ROOT / "MATRIX_smoke.json")
        for argv in (
            ["bench", "--compare", str(bad), good],
            ["serve-sim", "--compare", good, str(bad)],
            ["matrix", "compare", str(bad), str(bad)],
            ["matrix", "report", str(bad), "--out", str(workdir / "r.html")],
        ):
            rc, out, err = _run(argv)
            assert rc == 2, (argv, err)
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert "Traceback" not in err and "error" not in out

    @pytest.mark.parametrize("doc, command", [
        ({"schema_version": 1, "runs": {}, "label": "ci", "quick": True},
         "repro bench --quick"),
        ({"schema_version": 1, "runs": {}, "tier": "cluster", "quick": True},
         "repro bench --tier cluster --quick"),
        ({"schema_version": 1, "runs": {}, "tier": "fullscale", "quick": False},
         "repro bench --tier fullscale"),
        ({"schema_version": 1, "multi_tenant": {}}, "repro serve-sim"),
        ({"schema_version": 1, "kind": "matrix", "label": "smoke"},
         "repro matrix run smoke"),
    ])
    def test_schema_v1_names_the_regenerating_command(self, tmp_path, doc, command):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_matrix(path)
        assert f"`{command}`" in str(err.value) and "schema v1" in str(err.value)
        rc, _, stderr = _run(["analyze", str(path), "--out", str(tmp_path / "r.html")])
        assert rc == 2 and command in stderr and stderr.count("\n") == 1

    def test_committed_parent_layout_is_rejected_by_compare(self, tmp_path):
        """A v1 bench file (the pre-matrix layout) gets the v1 message, not
        a traceback, on every compare path."""
        v1 = {"schema_version": 1, "label": "baseline", "quick": True,
              "runs": {"orbit/lru": {"summary": {}}}}
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(v1))
        for argv in (["bench", "--compare", str(path), str(path)],
                     ["serve-sim", "--compare", str(path), str(path)],
                     ["matrix", "compare", str(path), str(path)]):
            rc, _, err = _run(argv)
            assert rc == 2 and "`repro bench --quick`" in err, argv


class TestAtomicWrite:
    def test_unserializable_document_leaves_no_file(self, tmp_path):
        good = json.loads(_TEXTS["MATRIX_smoke.json"])
        path = write_matrix(good, tmp_path)
        before = path.read_bytes()
        bad = dict(good, cells={"x": {"value": object()}})
        with pytest.raises(TypeError):
            write_matrix(bad, tmp_path)
        nan = dict(good, suite_wall_s=float("nan"))
        with pytest.raises(ValueError):
            write_matrix(nan, tmp_path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_prefix_names_the_file(self, tmp_path):
        doc = json.loads(_TEXTS["SERVE_baseline.json"])
        assert write_matrix(doc, tmp_path, prefix="SERVE").name == "SERVE_baseline.json"
        assert load_matrix(tmp_path / "SERVE_baseline.json") == doc
