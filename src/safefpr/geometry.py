"""World-frame geometry: bearings and camera FOV membership."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .types import KinematicState, normalize_angle, normalize_angles

DEG = math.pi / 180.0
FULL_CIRCLE = 2.0 * math.pi - 1e-12  # a camera at least this wide sees every bearing


@dataclass(frozen=True)
class CameraConfig:
    """One camera: mounting azimuth (relative to ego heading) and horizontal FOV."""

    camera_id: str
    azimuth: float  # rad, normalized to (-pi, pi]
    fov: float      # rad, (0, 2*pi]

    def __post_init__(self) -> None:
        if not 0.0 < self.fov <= 2.0 * math.pi + 1e-12:
            raise ValueError(f"fov must be in (0, 2*pi], got {self.fov}")
        if not math.isfinite(self.azimuth):
            raise ValueError(f"azimuth must be finite, got {self.azimuth}")
        object.__setattr__(self, "azimuth", normalize_angle(self.azimuth))


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
    egos: Sequence[KinematicState],
    positions: Sequence[Sequence[tuple[float, float]]],
    cameras: Sequence[CameraConfig],
) -> np.ndarray:
    """``in_fov`` over a block of ticks, as a (cameras, ticks, actors) bool array.

    Tick i has ego ``egos[i]`` and actor j at ``positions[i][j]``. Each
    bearing is ``_bearing``, computed in Python as for ``in_fov``
    (``np.arctan2`` rounds some inputs differently from ``math.atan2``);
    the wedge test then runs on arrays, where ``np.fmod`` is exact, so every
    entry equals ``in_fov``.
    """
    nan = math.nan
    # NaN marks an actor that coincides with the ego
    bearing = np.array(
        [
            [_bearing(ego, x, y) if x != ego.x or y != ego.y else nan for x, y in row]
            for ego, row in zip(egos, positions)
        ],
        dtype=float,
    )
    # per camera: azimuth, and half the FOV (inf for a full circle, whose
    # wedge test passes for every bearing)
    wedges = np.array(
        [(c.azimuth, math.inf if c.fov >= FULL_CIRCLE else c.fov / 2.0) for c in cameras]
    ).reshape(-1, 2, 1, 1)
    # NaN compares False, so an actor on the ego is inside every wedge
    return ~(np.abs(normalize_angles(bearing - wedges[:, 0])) > wedges[:, 1])
