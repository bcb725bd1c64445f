"""The hierarchical cull must be *bit-for-bit* the dense Eq. 1 kernel.

The prescreen is conservative (a bounding sphere outside the widened cone
cannot contain a visible test point) and the exact corner test runs the
dense kernel's elementwise arithmetic on the survivors, so every output —
masks, sorted id lists, and the CSR table build downstream — must be
byte-identical between ``kernel="culled"`` and ``kernel="dense"``.  Hypothesis sweeps random grids,
angles, and camera placements, including the adversarial ones: cameras
inside blocks, at the centroid (degenerate view axis), grazing the cone
boundary, and ``include_center=False``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.frustum import (
    AUTO_CULL_MIN_BLOCKS,
    broadcast_position_chunk,
    resolve_kernel,
    visible_blocks,
    visible_ids_batch,
    visible_mask,
    visible_masks_batch,
)
from repro.volume.blocks import BlockGrid

@pytest.fixture(scope="module")
def grid():
    return BlockGrid((32, 32, 32), (4, 4, 4))  # 8x8x8 = 512 blocks


def _assert_all_kernels_equal(positions, grid, angle, include_center):
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    dense = visible_masks_batch(positions, grid, angle, include_center, kernel="dense")
    dense_ids = visible_ids_batch(positions, grid, angle, include_center, kernel="dense")
    masks = visible_masks_batch(positions, grid, angle, include_center, kernel="culled")
    assert np.array_equal(dense, masks)
    ids = visible_ids_batch(positions, grid, angle, include_center, kernel="culled")
    for row_dense, row in zip(dense_ids, ids):
        assert row.dtype == np.int64
        assert np.array_equal(row_dense, row)
    return dense


grids = st.sampled_from(
    [
        BlockGrid((16, 16, 16), (4, 4, 4)),
        BlockGrid((32, 32, 32), (4, 4, 4)),
        BlockGrid((24, 40, 16), (7, 5, 3)),  # partial edge blocks
        BlockGrid((8, 8, 8), (8, 8, 8)),  # single block
        BlockGrid((48, 12, 12), (4, 6, 5)),  # anisotropic
    ]
)
angles = st.floats(1.0, 170.0)
coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


class TestDenseCulledEquivalence:
    @given(grids, angles, st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_cameras(self, g, angle, points):
        _assert_all_kernels_equal(np.array(points), g, angle, True)

    @given(grids, angles, st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_cameras_corners_only(self, g, angle, points):
        _assert_all_kernels_equal(np.array(points), g, angle, False)

    @given(grids, angles, st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_camera_inside_volume(self, g, angle, x, y, z):
        """Cameras inside the volume: the inside-AABB rule must survive the
        cull (a bounding sphere containing the camera is never prescreened
        away)."""
        pos = np.array([x, y, z])
        dense = _assert_all_kernels_equal(pos, g, angle, True)
        for bid in g.blocks_containing(pos):
            assert dense[0, bid]

    def test_camera_at_centroid_degenerate_axis(self, grid):
        """At the exact centroid the view axis is the zero vector: the cone
        test degenerates and only the containing block stays visible."""
        _assert_all_kernels_equal(np.zeros(3), grid, 10.0, True)
        _assert_all_kernels_equal(np.zeros(3), grid, 10.0, False)

    def test_camera_near_centroid_clamped_axis(self):
        """A camera ~1e-12 from the centroid: both kernels clamp the
        cosine denominator at ``_EPS``, which must not let the prescreen
        cull blocks the exact test keeps."""
        g = BlockGrid((16, 16, 16), (4, 4, 4))
        for pos in ([0.0, 0.0, 1e-12], [3e-13, -2e-13, 0.0]):
            dense = _assert_all_kernels_equal(np.array(pos), g, 1.0, True)
            _assert_all_kernels_equal(np.array(pos), g, 1.0, False)
        assert dense.any()

    def test_cone_boundary_grazing(self, grid):
        """Angles chosen so block corners sit near the exact cos threshold —
        the prescreen slack must keep every borderline block a survivor."""
        pos = np.array([2.5, 0.0, 0.0])
        for angle in (9.999999, 10.0, 10.000001, 45.0, 89.999999, 90.0):
            _assert_all_kernels_equal(pos, grid, angle, True)

    def test_far_camera_tiny_angle(self, grid):
        _assert_all_kernels_equal(np.array([80.0, 0.2, -0.1]), grid, 1.0, True)
        _assert_all_kernels_equal(np.array([80.0, 0.2, -0.1]), grid, 1.0, False)

    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_chunked_culled_consistent(self, angle):
        g = BlockGrid((32, 32, 32), (4, 4, 4))
        rng = np.random.default_rng(3)
        positions = rng.uniform(-3, 3, size=(13, 3))
        tiny = visible_ids_batch(positions, g, angle, kernel="culled", chunk_bytes=1)
        big = visible_ids_batch(positions, g, angle, kernel="culled")
        for a, b in zip(tiny, big):
            assert np.array_equal(a, b)


class TestKernelSelection:
    def test_resolve_kernel_auto_threshold(self):
        assert resolve_kernel("auto", AUTO_CULL_MIN_BLOCKS - 1) == "dense"
        assert resolve_kernel("auto", AUTO_CULL_MIN_BLOCKS) == "culled"
        assert resolve_kernel("dense", 10**6) == "dense"
        assert resolve_kernel("culled", 8) == "culled"

    def test_unknown_kernel_rejected(self, grid):
        with pytest.raises(ValueError, match="kernel"):
            visible_mask(np.array([2.5, 0, 0]), grid, 10.0, kernel="fast")
        with pytest.raises(ValueError):
            resolve_kernel("sparse", 64)

    def test_single_position_entry_points(self, grid):
        pos = np.array([2.5, 0.3, -0.2])
        dense_mask = visible_mask(pos, grid, 20.0, kernel="dense")
        dense_ids = visible_blocks(pos, grid, 20.0, kernel="dense")
        assert np.array_equal(dense_mask, visible_mask(pos, grid, 20.0, kernel="culled"))
        assert np.array_equal(dense_ids, visible_blocks(pos, grid, 20.0, kernel="culled"))

    def test_broadcast_position_chunk_never_degenerate(self):
        # The shared heuristic must stay >= 1 even when one position's
        # broadcast exceeds the budget (the old 4M//n_blocks formula's bug).
        assert broadcast_position_chunk(10**7, 9, 256 * 1024 * 1024) == 1
        assert broadcast_position_chunk(64, 9, 256 * 1024 * 1024) > 1000
        assert broadcast_position_chunk(1, 1, 1) == 1
