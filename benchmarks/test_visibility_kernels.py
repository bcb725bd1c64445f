"""Dense vs. hierarchically-culled Eq. 1 kernels across block counts.

The culled kernel exists for Table-I geometries: the dense kernel
materializes a ``(positions, blocks, 9, 3)`` broadcast, so its cost grows
linearly with the block count no matter how narrow the view cone is,
while the two-level superblock cull (``culled``) only pays the exact
Eq. 1 arithmetic for blocks whose bounding sphere grazes the widened
cone.  This sweep pins both the crossover shape (culling wins big at
>= 10^4 blocks, is harmless at 64) and correctness (the culled output is
asserted identical to dense at every size).

Quick scale sweeps {64, 1000, 10648} blocks; ``REPRO_FULL=1`` adds the
~10^5-block grid from the paper's largest configurations.
"""

import numpy as np
import pytest

from repro.camera.frustum import visible_ids_batch, visible_masks_batch
from repro.volume.blocks import BlockGrid

VIEW = 10.0
N_POSITIONS = 32

# (label, grid shape, block shape) -> 64 / 1e3 / ~1e4 / ~1e5 blocks
SIZES = {
    "64": ((32, 32, 32), (8, 8, 8)),
    "1e3": ((40, 40, 40), (4, 4, 4)),
    "1e4": ((88, 88, 88), (4, 4, 4)),
    "1e5": ((96, 96, 96), (2, 2, 2)),
}


def _positions(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((N_POSITIONS, 3))
    return 2.5 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _grid(label: str) -> BlockGrid:
    shape, block = SIZES[label]
    grid = BlockGrid(shape, block)
    grid.corners()  # warm the geometry caches outside the timer
    return grid


@pytest.fixture(scope="module")
def sizes(full_scale):
    return ("64", "1e3", "1e4", "1e5") if full_scale else ("64", "1e3", "1e4")


@pytest.mark.parametrize("kernel", ("dense", "culled"))
@pytest.mark.parametrize("label", ("64", "1e3", "1e4", "1e5"))
def test_kernel_sweep(benchmark, kernel, label, sizes):
    """One path's visibility ground truth (32 cameras) per kernel per size."""
    if label not in sizes:
        pytest.skip("1e5-block sweep requires REPRO_FULL=1")
    grid = _grid(label)
    positions = _positions()

    got = benchmark(
        visible_ids_batch, positions, grid, VIEW, kernel=kernel
    )
    assert len(got) == N_POSITIONS
    want = visible_ids_batch(positions, grid, VIEW, kernel="dense")
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_culled_speedup_at_1e4_blocks():
    """The acceptance-criterion shape: culling must win big at 10^4 blocks."""
    import time

    grid = _grid("1e4")
    positions = _positions()
    timings = {}
    for kernel in ("dense", "culled"):
        t0 = time.perf_counter()
        visible_masks_batch(positions, grid, VIEW, kernel=kernel)
        timings[kernel] = time.perf_counter() - t0
    # Conservative floor for a shared CI box; locally this is ~5-8x.
    assert timings["dense"] / timings["culled"] > 2.0, timings
