"""CSR-native table build: SampleSets packing + kernel-independence.

The builder must produce the *byte-identical* ``VisibleTable`` (offsets,
block_ids, positions) whatever visibility kernel evaluates Eq. 1 and
however the sample chunking slices the work — the CSR accumulation is a
pure repacking of the same per-sample sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.sampling import SamplingConfig
from repro.tables.builder import (
    SampleSets,
    build_importance_table,
    build_visible_table,
    compute_sample_sets,
)
from repro.tables.visible_table import LookupCostModel, VisibleTable
from repro.utils.rng import spawn_rngs
from repro.volume.blocks import BlockGrid
from repro.volume.datasets import make_dataset


@pytest.fixture(scope="module")
def grid():
    return BlockGrid((32, 32, 32), (8, 8, 8))  # 64 blocks


class TestSampleSets:
    def test_list_compatibility(self):
        sets = SampleSets(
            sizes=np.array([2, 0, 3]), ids=np.array([4, 7, 1, 2, 9], dtype=np.int64)
        )
        assert len(sets) == 3
        assert np.array_equal(sets[0], [4, 7])
        assert sets[1].size == 0
        assert np.array_equal(sets[2], [1, 2, 9])
        assert [list(s) for s in sets] == [[4, 7], [], [1, 2, 9]]
        assert np.array_equal(sets.offsets, [0, 2, 2, 5])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes sum"):
            SampleSets(sizes=np.array([3]), ids=np.array([1, 2], dtype=np.int64))

    def test_concat_preserves_order(self):
        a = SampleSets(np.array([1]), np.array([5], dtype=np.int64))
        b = SampleSets(np.array([2]), np.array([3, 8], dtype=np.int64))
        joined = SampleSets.concat([a, b])
        assert np.array_equal(joined.sizes, [1, 2])
        assert np.array_equal(joined.ids, [5, 3, 8])
        empty = SampleSets.concat([])
        assert len(empty) == 0 and empty.ids.size == 0


class TestComputeSampleSetsCSR:
    def test_returns_sample_sets_identical_across_kernels(self, grid):
        rng_positions = np.random.default_rng(0).uniform(-2.5, 2.5, size=(9, 3))
        rngs = spawn_rngs(0, 9)
        base = compute_sample_sets(grid, rng_positions, range(9), rngs, 10.0, kernel="dense")
        assert isinstance(base, SampleSets)
        rngs_k = spawn_rngs(0, 9)  # fresh: vicinal draws consume the rng
        got = compute_sample_sets(
            grid, rng_positions, range(9), rngs_k, 10.0, kernel="culled"
        )
        assert np.array_equal(base.sizes, got.sizes)
        assert np.array_equal(base.ids, got.ids)

    def test_chunk_bytes_does_not_change_result(self, grid):
        positions = np.random.default_rng(1).uniform(-2.5, 2.5, size=(7, 3))
        a = compute_sample_sets(
            grid, positions, range(7), spawn_rngs(3, 7), 12.0, chunk_bytes=1
        )
        b = compute_sample_sets(
            grid, positions, range(7), spawn_rngs(3, 7), 12.0
        )
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.ids, b.ids)


class TestFromSetsFastPath:
    def test_sample_sets_and_list_build_identical_tables(self):
        positions = np.random.default_rng(2).uniform(-2, 2, size=(4, 3))
        sets = SampleSets(
            np.array([2, 1, 0, 3]), np.array([0, 5, 2, 1, 3, 9], dtype=np.int64)
        )
        fast = VisibleTable.from_sets(positions, sets, {"k": 1})
        slow = VisibleTable.from_sets(positions, [np.asarray(s) for s in sets], {"k": 1})
        assert np.array_equal(fast.offsets, slow.offsets)
        assert np.array_equal(fast.block_ids, slow.block_ids)
        assert fast.meta == slow.meta


class TestBuildVisibleTableKernels:
    @given(
        st.integers(8, 24),
        st.floats(5.0, 60.0),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_csr_output_byte_identical(self, n_directions, angle, include_center):
        grid = BlockGrid((24, 24, 24), (6, 6, 6))
        sampling = SamplingConfig(n_directions=n_directions, n_distances=1)
        tables = {
            kernel: build_visible_table(
                grid, sampling, angle, include_center=include_center, kernel=kernel
            )
            for kernel in ("dense", "culled")
        }
        ref = tables["dense"]
        for kernel, table in tables.items():
            assert table.offsets.tobytes() == ref.offsets.tobytes(), kernel
            assert table.block_ids.tobytes() == ref.block_ids.tobytes(), kernel
            assert table.positions.tobytes() == ref.positions.tobytes(), kernel

    def test_truncation_path_identical_across_kernels(self, grid):
        volume = make_dataset("3d_ball", scale=0.04)
        grid_v = BlockGrid.with_target_blocks(volume.shape, 64)
        itable = build_importance_table(volume, grid_v)
        sampling = SamplingConfig(n_directions=12, n_distances=1)
        built = {
            kernel: build_visible_table(
                grid_v, sampling, 30.0, importance=itable, max_set_size=5, kernel=kernel
            )
            for kernel in ("dense", "culled")
        }
        assert np.array_equal(built["dense"].offsets, built["culled"].offsets)
        assert np.array_equal(built["dense"].block_ids, built["culled"].block_ids)
        assert (built["dense"].entry_sizes() <= 5).all()


class TestBatchedLookup:
    @pytest.fixture(scope="class")
    def table(self):
        grid = BlockGrid((32, 32, 32), (8, 8, 8))
        return build_visible_table(
            grid, SamplingConfig(n_directions=16, n_distances=2), 10.0
        )

    def test_nearest_entries_matches_singles(self, table):
        queries = np.random.default_rng(5).uniform(-3, 3, size=(23, 3))
        idx, dists = table.nearest_entries(queries)
        assert idx.dtype == np.int64
        for i, q in enumerate(queries):
            one_idx, one_dist = table.nearest_entry(q)
            assert one_idx == idx[i]
            assert one_dist == dists[i]

    def test_lookup_many_matches_lookup(self, table):
        queries = np.random.default_rng(6).uniform(-3, 3, size=(11, 3))
        indices, entries = table.lookup_many(queries)
        for i, q in enumerate(queries):
            idx, entry = table.lookup(q)
            assert idx == indices[i]
            assert np.array_equal(entry, entries[i])

    def test_nearest_entries_shape_validation(self, table):
        with pytest.raises(ValueError):
            table.nearest_entries(np.zeros((4, 2)))


class TestQueryTimeMany:
    def test_exact_multiple_of_single_query(self):
        for kind in ("linear", "log"):
            model = LookupCostModel(kind=kind)
            for n_entries in (0, 1, 512, 26_000):
                single = model.query_time(n_entries)
                for n_queries in (0, 1, 7, 240):
                    assert model.query_time_many(n_entries, n_queries) == (
                        n_queries * single
                    )

    def test_negative_queries_rejected(self):
        with pytest.raises(ValueError):
            LookupCostModel().query_time_many(10, -1)
