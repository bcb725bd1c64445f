"""Per-block visibility: the paper's Eq. 1, fully vectorised.

A block ``b`` is visible from a camera at ``v`` (looking at the centroid
``o``) when the angle φ between ``v→b_i`` and ``v→o`` is at most θ/2 for
some test point ``b_i`` of the block.  The paper tests the eight block
corners; we additionally include the block center by default and treat a
block that contains the camera as visible — both guard the zoomed-in case
where the frustum axis pierces a large block whose corners all fall
outside the cone (documented deviation; disable with
``include_center=False``).

Instead of ``arccos`` we compare ``cos φ ≥ cos(θ/2)`` on the normalised
dot products — same predicate, no transcendental per corner (see the HPC
guide: vectorise and compute less).

Two kernels evaluate the same predicate:

- ``kernel="dense"`` broadcasts ``positions × blocks × test-points`` and
  returns dense boolean masks — the original path, exact by definition.
- ``kernel="culled"`` prescreens each block's bounding sphere against the
  view cone (one dot product + one radius comparison per block instead of
  nine corner tests) behind a two-level coarse-grid cull (superblock
  bounding spheres first, descend only into cone-intersecting
  superblocks), then runs the *exact* Eq. 1 corner test on the survivors
  only.  The prescreen is conservative — a sphere fully outside the
  widened cone cannot contain a visible test point — so the culled kernel
  is bit-for-bit identical to the dense one (hypothesis-pinned in
  ``tests/camera/test_frustum_culled.py``) while never materialising the
  ``(N, n_blocks)`` mask.  ``kernel="auto"`` picks culled at or above
  :data:`AUTO_CULL_MIN_BLOCKS` blocks.
"""

from __future__ import annotations

import weakref
from typing import List

import numpy as np

from repro.volume.blocks import BlockGrid

__all__ = [
    "visible_mask",
    "visible_blocks",
    "visible_masks_batch",
    "visible_ids_batch",
    "union_visible_mask",
    "broadcast_position_chunk",
    "resolve_kernel",
    "KERNELS",
    "AUTO_CULL_MIN_BLOCKS",
]

_EPS = 1e-12

#: Conservative slack on the prescreen cosine comparison: float rounding in
#: the exact corner test is ~1e-15 on O(1) cosines, so a 1e-9 margin keeps
#: every borderline-visible block a survivor at negligible extra exact work.
_CULL_SLACK = 1e-9

#: Kernel names accepted by the ``kernel=`` arguments in this module.
KERNELS = ("dense", "culled", "auto")

#: ``kernel="auto"`` switches from dense to culled at this block count —
#: below it the dense broadcast fits comfortably in cache and the cull
#: bookkeeping is pure overhead (see benchmarks/test_visibility_kernels.py
#: for the measured crossover).
AUTO_CULL_MIN_BLOCKS = 4096

#: Approximate float64 temporaries alive per (position, block, point) cell
#: of the dense broadcast — shared with the table builder's chunking.
_DENSE_TEMPS = 5


def resolve_kernel(kernel: str, n_blocks: int) -> str:
    """Validate ``kernel`` and resolve ``"auto"`` against the block count."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if kernel == "auto":
        return "culled" if n_blocks >= AUTO_CULL_MIN_BLOCKS else "dense"
    return kernel


def broadcast_position_chunk(n_blocks: int, n_points: int, chunk_bytes: int) -> int:
    """Positions per batch so the dense broadcast stays under ``chunk_bytes``.

    This is the *actual* temporary footprint of the dense kernel
    (``chunk × n_blocks × n_points`` float64 arrays, ~5 alive at once) —
    the table builder derives its sample chunking from the same formula
    instead of guessing.
    """
    per_pos = n_blocks * n_points * 8 * _DENSE_TEMPS
    return max(1, int(chunk_bytes // max(per_pos, 1)))


def _test_points(grid: BlockGrid, include_center: bool) -> np.ndarray:
    """(n_blocks, P, 3) test points: corners (+ center)."""
    corners = grid.corners()
    if not include_center:
        return corners
    centers = grid.centers()[:, None, :]
    return np.concatenate([corners, centers], axis=1)


_CORNER_OFFSETS = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.float64
)  # (8, 3) unit-cube corners — same layout as BlockGrid.corners()


def _test_points_for(
    grid: BlockGrid, ids: np.ndarray, include_center: bool
) -> np.ndarray:
    """Test points of the blocks in ``ids`` only, shape ``(len(ids), P, 3)``.

    Computed from the per-block AABBs with the exact per-element arithmetic
    of :meth:`BlockGrid.corners`/:meth:`BlockGrid.centers`, so the culled
    kernel's survivors see bit-identical coordinates without ever
    materialising all ``n_blocks × P`` points.
    """
    lo, hi = grid.bounds()
    lo_c, hi_c = lo[ids], hi[ids]
    corners = lo_c[:, None, :] + _CORNER_OFFSETS[None, :, :] * (hi_c - lo_c)[:, None, :]
    if not include_center:
        return corners
    centers = (0.5 * (lo_c + hi_c))[:, None, :]
    return np.concatenate([corners, centers], axis=1)


def visible_mask(
    position: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "dense",
) -> np.ndarray:
    """Boolean mask over block ids, True where the block is visible (Eq. 1)."""
    masks = visible_masks_batch(
        np.asarray(position, dtype=np.float64)[None, :],
        grid,
        view_angle_deg,
        include_center,
        kernel=kernel,
    )
    return masks[0]


def visible_blocks(
    position: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "dense",
) -> np.ndarray:
    """Sorted array of visible block ids from ``position``."""
    ids = visible_ids_batch(
        np.asarray(position, dtype=np.float64)[None, :],
        grid,
        view_angle_deg,
        include_center,
        kernel=kernel,
    )
    return ids[0]


def visible_masks_batch(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    chunk_bytes: int = 256 * 1024 * 1024,
    kernel: str = "dense",
) -> np.ndarray:
    """Visibility masks for many camera positions at once.

    Returns a ``(n_positions, n_blocks)`` boolean array.  With the default
    dense kernel, work is chunked over positions so the broadcast
    temporaries stay under ``chunk_bytes`` (cache-friendly per the HPC
    guides; the kernel itself is pure numpy broadcasting over
    ``positions × blocks × test-points``).  The culled kernel computes the
    sparse id lists and scatters them — the result is still the dense
    ``(N, n_blocks)`` array, so at large block counts prefer
    :func:`visible_ids_batch`, which never materialises it.
    """
    positions = _check_positions(positions, view_angle_deg)
    resolved = resolve_kernel(kernel, grid.n_blocks)
    if resolved != "dense":
        ids = _culled_ids_batch(
            positions, grid, view_angle_deg, include_center, chunk_bytes
        )
        out = np.zeros((positions.shape[0], grid.n_blocks), dtype=bool)
        for i, row in enumerate(ids):
            out[i, row] = True
        return out

    points = _test_points(grid, include_center)  # (B, P, 3)
    n_blocks, n_pts, _ = points.shape
    n_pos = positions.shape[0]
    cos_half = np.cos(np.deg2rad(view_angle_deg) / 2.0)
    lo, hi = grid.bounds()

    # ~5 float64 temporaries of shape (chunk, B, P) live at once.
    chunk = broadcast_position_chunk(n_blocks, n_pts, chunk_bytes)

    out = np.empty((n_pos, n_blocks), dtype=bool)
    for start in range(0, n_pos, chunk):
        pos = positions[start : start + chunk]  # (C, 3)
        # w = v->point vectors; the view axis is v->o = -pos.
        w = points[None, :, :, :] - pos[:, None, None, :]  # (C, B, P, 3)
        axis = -pos  # (C, 3)
        dots = np.einsum("cbpk,ck->cbp", w, axis)
        wn = np.sqrt(np.einsum("cbpk,cbpk->cbp", w, w))
        an = np.linalg.norm(axis, axis=1)[:, None, None]
        denom = np.maximum(wn * an, _EPS)
        # cos φ ≥ cos(θ/2) ⇔ φ ≤ θ/2 (both sides in [0, π]).
        vis = (dots >= cos_half * denom).any(axis=2)  # (C, B)
        # A block containing the camera is visible even if every test
        # point falls outside the cone.
        inside = np.all(
            (pos[:, None, :] >= lo[None, :, :]) & (pos[:, None, :] <= hi[None, :, :]),
            axis=2,
        )
        out[start : start + len(pos)] = vis | inside
    return out


def visible_ids_batch(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "auto",
    chunk_bytes: int = 256 * 1024 * 1024,
) -> List[np.ndarray]:
    """Sparse visibility: one sorted int64 id array per camera position.

    The culled kernel returns exactly ``np.flatnonzero`` of the dense mask
    without ever building it; the dense kernel builds the mask in chunks
    and converts.  Output is identical across kernels (tested).
    """
    positions = _check_positions(positions, view_angle_deg)
    resolved = resolve_kernel(kernel, grid.n_blocks)
    if resolved == "dense":
        masks = visible_masks_batch(
            positions, grid, view_angle_deg, include_center, chunk_bytes
        )
        return [np.flatnonzero(m).astype(np.int64) for m in masks]
    return _culled_ids_batch(
        positions, grid, view_angle_deg, include_center, chunk_bytes
    )


def union_visible_mask(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "dense",
) -> np.ndarray:
    """Union of the visibility masks of several positions (vicinal aggregation)."""
    masks = visible_masks_batch(
        positions, grid, view_angle_deg, include_center, kernel=kernel
    )
    return masks.any(axis=0)


def _check_positions(positions: np.ndarray, view_angle_deg: float) -> np.ndarray:
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {positions.shape}")
    if not 0.0 < view_angle_deg < 180.0:
        raise ValueError(f"view_angle_deg must be in (0, 180), got {view_angle_deg}")
    return positions


# ---------------------------------------------------------------------------
# hierarchical cull


class _CullIndex:
    """Precomputed geometry for the culled kernel of one :class:`BlockGrid`.

    Per-block bounding spheres (AABB center + half-diagonal radius: every
    Eq. 1 test point — the eight corners on the sphere, the center inside —
    lies within) and a coarse super-grid grouping ``factor³`` neighbouring
    blocks per superblock, each with the bounding sphere of its members'
    union AABB.  Members are stored CSR-style in ascending block-id order.
    """

    __slots__ = (
        "centers", "radii", "super_centers", "super_radii",
        "member_offsets", "member_ids", "factor",
    )

    def __init__(self, grid: BlockGrid) -> None:
        lo, hi = grid.bounds()
        self.centers = 0.5 * (lo + hi)
        self.radii = 0.5 * np.sqrt(np.sum((hi - lo) ** 2, axis=1))

        gx, gy, gz = grid.blocks_per_axis
        n = grid.n_blocks
        # Superblock edge (in blocks): ~B^(1/6) per axis puts the two
        # levels near the cost-balancing point S ≈ members-per-super.
        self.factor = f = max(1, int(round(n ** (1.0 / 6.0))))
        sx, sy, sz = (-(-gx // f), -(-gy // f), -(-gz // f))

        ids = np.arange(n, dtype=np.int64)
        bi, rem = np.divmod(ids, gy * gz)
        bj, bk = np.divmod(rem, gz)
        super_of_block = ((bi // f) * sy + (bj // f)) * sz + (bk // f)

        order = np.argsort(super_of_block, kind="stable")  # ascending id per super
        self.member_ids = ids[order]
        counts = np.bincount(super_of_block, minlength=sx * sy * sz)
        self.member_offsets = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        occupied = counts > 0

        slo = np.full((sx * sy * sz, 3), np.inf)
        shi = np.full((sx * sy * sz, 3), -np.inf)
        starts = self.member_offsets[:-1][occupied]
        slo[occupied] = np.minimum.reduceat(lo[self.member_ids], starts)
        shi[occupied] = np.maximum.reduceat(hi[self.member_ids], starts)
        self.super_centers = np.where(occupied[:, None], 0.5 * (slo + shi), 0.0)
        self.super_radii = np.where(
            occupied, 0.5 * np.sqrt(np.sum((shi - slo) ** 2, axis=1)), -1.0
        )  # radius -1: empty superblock, never survives the prescreen

    def members_of(self, super_ids: np.ndarray) -> np.ndarray:
        """Ascending block ids of all members of the given superblocks."""
        if super_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        parts = [
            self.member_ids[self.member_offsets[s] : self.member_offsets[s + 1]]
            for s in super_ids
        ]
        return np.sort(np.concatenate(parts))


_CULL_INDEXES: "weakref.WeakKeyDictionary[BlockGrid, _CullIndex]" = (
    weakref.WeakKeyDictionary()
)


def _cull_index(grid: BlockGrid) -> _CullIndex:
    index = _CULL_INDEXES.get(grid)
    if index is None:
        index = _CullIndex(grid)
        _CULL_INDEXES[grid] = index  # benign race: both threads build the same
    return index


def _cone_prescreen(
    pos: np.ndarray,
    axis: np.ndarray,
    an: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    cos_half: float,
    sin_half: float,
) -> np.ndarray:
    """Conservative sphere-vs-cone test: ``(C, M)`` True where the block's
    bounding sphere may intersect the view cone.

    A sphere at angular distance β from the view axis with angular radius
    α = asin(r/d) is fully outside the cone when β > θ/2 + α; comparing
    cosines via cos(θ/2 + α) = cos(θ/2)·cosα − sin(θ/2)·sinα avoids any
    transcendental.  A sphere containing the camera (d ≤ r) can never be
    culled — that covers the camera-inside-block visibility rule.  Nor is
    a pair whose ``d·|axis|`` falls under the ``_EPS`` clamp (a camera
    within ~1e-12 of the centroid): there the clamped ``cos_beta`` is
    shrunk toward zero and no longer bounds the exact test from above.
    """
    delta = centers[None, :, :] - pos[:, None, :]  # (C, M, 3)
    d = np.sqrt(np.einsum("cmk,cmk->cm", delta, delta))
    contains = d <= radii[None, :]
    sin_a = np.minimum(1.0, radii[None, :] / np.maximum(d, _EPS))
    cos_a = np.sqrt(np.maximum(0.0, 1.0 - sin_a * sin_a))
    cone_cos = cos_half * cos_a - sin_half * sin_a
    d_an = d * an[:, None]
    cos_beta = np.einsum("cmk,ck->cm", delta, axis) / np.maximum(d_an, _EPS)
    return contains | (d_an < _EPS) | (cos_beta >= cone_cos - _CULL_SLACK)


def _culled_ids_batch(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool,
    chunk_bytes: int,
) -> List[np.ndarray]:
    """The culled Eq. 1 evaluation: sorted visible ids per position."""
    index = _cull_index(grid)
    half = np.deg2rad(view_angle_deg) / 2.0
    cos_half, sin_half = float(np.cos(half)), float(np.sin(half))
    lo, hi = grid.bounds()
    n_pts = 9 if include_center else 8
    n_pos = positions.shape[0]
    axis_all = -positions
    an_all = np.linalg.norm(axis_all, axis=1)  # same fold as the dense kernel

    results: List[np.ndarray] = [None] * n_pos  # type: ignore[list-item]
    # Chunk positions so the (C, M) prescreen temporaries stay bounded;
    # M is at most n_blocks, so reuse the dense formula with a single
    # "test point".
    chunk = max(
        broadcast_position_chunk(grid.n_blocks, 1, chunk_bytes), 64
    )
    empty = np.empty(0, dtype=np.int64)

    for start in range(0, n_pos, chunk):
        pos = positions[start : start + chunk]
        axis, an = axis_all[start : start + chunk], an_all[start : start + chunk]
        n_chunk = pos.shape[0]

        sup = _cone_prescreen(
            pos, axis, an, index.super_centers, index.super_radii,
            cos_half, sin_half,
        )
        cand = index.members_of(np.flatnonzero(sup.any(axis=0)))
        if cand.size == 0:
            for c in range(n_chunk):
                results[start + c] = empty
            continue

        blk = _cone_prescreen(
            pos, axis, an, index.centers[cand], index.radii[cand],
            cos_half, sin_half,
        )  # (C, Mc)
        rows, cols = np.nonzero(blk)
        if rows.size == 0:
            for c in range(n_chunk):
                results[start + c] = empty
            continue
        surv_ids = cand[cols]

        # Exact Eq. 1 on the surviving (position, block) pairs only, with
        # the dense kernel's per-element arithmetic (bit-identical), in
        # slabs bounding the (K, P, 3) temporaries.
        keep = np.empty(rows.size, dtype=bool)
        pair_chunk = max(1, int(chunk_bytes // (n_pts * 3 * 8 * _DENSE_TEMPS)))
        for p0 in range(0, rows.size, pair_chunk):
            sl = slice(p0, p0 + pair_chunk)
            r, ids = rows[sl], surv_ids[sl]
            pts = _test_points_for(grid, ids, include_center)  # (K, P, 3)
            w = pts - pos[r, None, :]
            dots = np.einsum("kpm,km->kp", w, axis[r])
            wn = np.sqrt(np.einsum("kpm,kpm->kp", w, w))
            denom = np.maximum(wn * an[r, None], _EPS)
            vis = (dots >= cos_half * denom).any(axis=1)
            inside = np.all((pos[r] >= lo[ids]) & (pos[r] <= hi[ids]), axis=1)
            keep[sl] = vis | inside

        rows_k, ids_k = rows[keep], surv_ids[keep]
        # cols ascend within each row and cand is sorted, so ids_k is
        # already ascending per position.
        bounds = np.searchsorted(rows_k, np.arange(n_chunk + 1))
        for c in range(n_chunk):
            results[start + c] = ids_k[bounds[c] : bounds[c + 1]]
    return results
