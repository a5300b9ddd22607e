"""World-frame geometry: bearings and camera FOV membership."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .types import KinematicState, finite_float, normalize_angle, normalize_angles, string, within

DEG = math.pi / 180.0
FULL_CIRCLE = 2.0 * math.pi - 1e-12  # a camera at least this wide sees every bearing


@dataclass(frozen=True)
class CameraConfig:
    """One camera: mounting azimuth (relative to ego heading) and horizontal FOV."""

    camera_id: str
    azimuth: float  # rad, normalized to (-pi, pi]
    fov: float      # rad, (0, 2*pi]

    def __post_init__(self) -> None:
        string("camera_id", self.camera_id)
        within("fov", self.fov, 0.0, 2.0 * math.pi + 1e-12, "rad", open_lo=True)
        object.__setattr__(self, "azimuth", normalize_angle(finite_float("azimuth", self.azimuth)))


# Five-camera rig: narrow + wide front, two sides, rear. Wedges overlap, so
# every bearing is covered.
DEFAULT_CAMERA_RIG = (
    CameraConfig("front_narrow", 0.0, 60.0 * DEG),
    CameraConfig("front_wide", 0.0, 120.0 * DEG),
    CameraConfig("left", 90.0 * DEG, 120.0 * DEG),
    CameraConfig("right", -90.0 * DEG, 120.0 * DEG),
    CameraConfig("rear", math.pi, 120.0 * DEG),
)


def _bearing(ego: KinematicState, x: float, y: float) -> float:
    """Bearing from ego to (x, y) relative to the ego heading, in (-pi, pi]."""
    return normalize_angle(math.atan2(y - ego.y, x - ego.x) - ego.heading)


def in_fov(ego: KinematicState, actor: KinematicState, cam: CameraConfig) -> bool:
    """Whether the actor's bearing falls inside the camera wedge (closed edges).

    Membership is evaluated at the current instant; an actor coincident with
    the ego belongs to every camera.
    """
    if (actor.x == ego.x and actor.y == ego.y) or cam.fov >= FULL_CIRCLE:
        return True
    bearing = _bearing(ego, actor.x, actor.y)
    return abs(normalize_angle(bearing - cam.azimuth)) <= cam.fov / 2.0


def fov_mask(
    egos: np.ndarray, positions: np.ndarray, cameras: Sequence[CameraConfig]
) -> np.ndarray:
    """``in_fov`` over a block of ticks, as a (cameras, ticks, actors) bool array.

    Row i of ``egos`` is tick i's ego: x, y, v, a and heading, in the order
    and under the rules of ``KinematicState``'s fields. Actor j is at
    ``positions[i, j]``, a (ticks, actors, 2) array. The arithmetic runs
    on arrays, where ``np.fmod`` is exact, but each bearing is
    ``math.atan2`` (``np.arctan2`` rounds some inputs differently), so
    every entry equals ``in_fov``.
    """
    offset = positions - egos[:, None, :2]
    dx, dy = offset.reshape(-1, 2).T.tolist()
    bearing = np.array(list(map(math.atan2, dy, dx))).reshape(offset.shape[:2]) - egos[:, 4:5]
    # NaN marks an actor that coincides with the ego
    bearing = normalize_angles(np.where(offset.any(axis=2), bearing, math.nan))
    # per camera: azimuth, and half the FOV (inf for a full circle, whose
    # wedge test passes for every bearing)
    wedges = np.array(
        [(c.azimuth, math.inf if c.fov >= FULL_CIRCLE else c.fov / 2.0) for c in cameras]
    ).reshape(-1, 2, 1, 1)
    # NaN compares False, so an actor on the ego is inside every wedge
    return ~(np.abs(normalize_angles(bearing - wedges[:, 0])) > wedges[:, 1])
