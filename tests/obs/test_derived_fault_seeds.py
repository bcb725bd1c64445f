"""Per-cell fault seeding: distinct deterministic seeds, replayable runs.

The bug this pins down: every bench cell used to seed its fault injector
with the raw ``--fault-seed``, so all four (path, policy) cells saw the
*identical* fault schedule — correlated noise masquerading as four
independent samples.  Seeds are derived per cell index with
:func:`repro.utils.rng.derive_seed`, identically in the serial and
``--workers N`` paths.
"""

import dataclasses

import pytest

from repro.experiments.matrix import expand_cells, load_spec, run_matrix
from repro.utils.rng import derive_seed

_QUICK = load_spec("bench-quick")
_TINY = dataclasses.replace(
    _QUICK,
    label="seeds",
    base={**_QUICK.base, "blocks": 27, "scale": 0.03, "steps": 4,
          "faults": "lossy", "fault_seed": 42},
    setup={**_QUICK.setup, "n_directions": 8, "tracer_capacity": 200_000},
)
_N_CELLS = len(expand_cells(_TINY))


class TestDeriveFaultSeed:
    def test_unique_across_cells(self):
        seeds = [derive_seed(42, i) for i in range(_N_CELLS)]
        assert len(set(seeds)) == len(seeds)

    def test_deterministic(self):
        assert derive_seed(42, 2) == derive_seed(42, 2)

    def test_base_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_differs_from_base(self):
        # The derived seed is a hash, not base + index: cell 0 must not
        # silently reuse the raw base seed.
        assert derive_seed(42, 0) != 42

    def test_non_negative_int63(self):
        for base in (0, 42, 2**62):
            for i in range(_N_CELLS):
                s = derive_seed(base, i)
                assert 0 <= s < 2**63


class TestBenchFaultSeeding:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_matrix(_TINY)

    def test_every_cell_records_base_and_derived(self, doc):
        for cell in doc["cells"].values():
            assert cell["faults"]["seed"] == 42
            assert cell["faults"]["derived_seed"] != 42

    def test_derived_seeds_distinct_across_cells(self, doc):
        derived = [c["faults"]["derived_seed"] for c in doc["cells"].values()]
        assert len(set(derived)) == len(derived)

    def test_derived_seeds_match_cell_order(self, doc):
        for cell in expand_cells(_TINY):
            got = doc["cells"][cell.key]
            assert got["faults"]["derived_seed"] == derive_seed(42, cell.index)

    def test_replay_determinism(self, doc):
        again = run_matrix(_TINY)
        for key, cell in doc["cells"].items():
            assert cell["faults"] == again["cells"][key]["faults"]
            assert cell["summary"] == again["cells"][key]["summary"]

    def test_parallel_matches_serial(self, doc):
        parallel = run_matrix(_TINY, workers=2)
        for key, cell in doc["cells"].items():
            assert cell["faults"] == parallel["cells"][key]["faults"]
            assert cell["summary"] == parallel["cells"][key]["summary"]
