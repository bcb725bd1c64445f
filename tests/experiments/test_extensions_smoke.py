"""Smoke tests for the cheap extension experiments.

The expensive ones (prefetch sweep, interactive quality, temporal,
scheduling) run in the benchmark suite; the cheap ones are exercised here
so the extensions module has test coverage in the unit suite too.
"""

import warnings

from repro.experiments import extensions


class TestLayoutLocality:
    def test_structure_and_claims(self):
        (panel,) = extensions.layout_locality()
        assert panel.figure == "ext_layout"
        assert set(panel.series) == {"morton", "row_major"}
        box_idx = panel.x_values.index("aligned 2^3 box span")
        assert panel.series["morton"][box_idx] == 7.0


class TestMultiresTradeoff:
    def test_structure_and_claims(self):
        (panel,) = extensions.multires_tradeoff()
        assert panel.figure == "ext_multires"
        assert panel.meta["lod_bytes"] < panel.meta["full_bytes"]
        assert panel.series["hist_L1"][0] == 0.0
        assert panel.series["hist_L1"][-1] > 0.0


class TestIsoSweep:
    def test_structure_and_claims(self):
        # Runs on the canonical drivers only: no deprecated entry point.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            (panel,) = extensions.iso_sweep()
        assert panel.figure == "ext_iso_sweep"
        assert panel.x_values == ["fifo", "lru", "belady", "lru+preload"]
        miss = dict(zip(panel.x_values, panel.series["miss_rate"]))
        assert miss["belady"] <= min(miss["fifo"], miss["lru"])
