"""The camera model.

Cameras in the paper always look at the volume centroid ``o`` (the origin
in normalized coordinates): a camera position ``v`` determines the view
direction ``l = vo`` and distance ``d = ||vo||`` that key the lookup table
``T_visible``.  The view frustum is the cone of half-angle ``theta/2``
around the view direction (Eq. 1 / Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["Camera", "DEFAULT_VIEW_ANGLE_DEG"]

DEFAULT_VIEW_ANGLE_DEG = 45.0


@dataclass(frozen=True)
class Camera:
    """An immutable camera looking at the origin.

    Parameters
    ----------
    position:
        Location in normalized volume coordinates (the volume is the cube
        [-1, 1]³; positions typically lie outside it, inside Ω).
    view_angle_deg:
        Full opening angle θ of the view frustum cone, in degrees.
    """

    position: Tuple[float, float, float]
    view_angle_deg: float = DEFAULT_VIEW_ANGLE_DEG

    def __post_init__(self) -> None:
        if not 0.0 < self.view_angle_deg < 180.0:
            raise ValueError(
                f"view_angle_deg must be in (0, 180), got {self.view_angle_deg}"
            )
        pos = tuple(float(c) for c in self.position)
        if len(pos) != 3:
            raise ValueError(f"position must be 3D, got {self.position!r}")
        object.__setattr__(self, "position", pos)

    @property
    def position_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=np.float64)

    @property
    def distance(self) -> float:
        """d = ||vo||: distance from the camera to the volume centroid."""
        return float(np.linalg.norm(self.position_array))

    @property
    def direction(self) -> np.ndarray:
        """Unit view direction l = vo (from the camera toward the centroid)."""
        p = self.position_array
        d = np.linalg.norm(p)
        if d == 0.0:
            raise ValueError("camera at the centroid has no view direction")
        return -p / d

    @property
    def half_angle_rad(self) -> float:
        """θ/2 in radians — the visibility threshold of Eq. 1."""
        return float(np.deg2rad(self.view_angle_deg) / 2.0)

    def with_position(self, position: np.ndarray) -> "Camera":
        """A copy at a new position with the same view angle."""
        return Camera(tuple(float(c) for c in np.asarray(position)), self.view_angle_deg)

    def key(self) -> Tuple[np.ndarray, float]:
        """The ``<l, d>`` tuple keying ``T_visible`` (unit direction, distance)."""
        return self.direction, self.distance
