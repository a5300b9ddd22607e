"""World-frame geometry: separations, bearings and camera FOV membership."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .types import KinematicState, normalize_angle

DEG = math.pi / 180.0


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


def separation(ego: KinematicState, actor: KinematicState) -> float:
    """Center-to-center distance between two states."""
    return math.hypot(actor.x - ego.x, actor.y - ego.y)


def bearing_to(ego: KinematicState, actor: KinematicState) -> float:
    """Bearing from ego to actor relative to the ego heading, in (-pi, pi]."""
    absolute = math.atan2(actor.y - ego.y, actor.x - ego.x)
    return normalize_angle(absolute - ego.heading)


def in_fov(ego: KinematicState, actor: KinematicState, cam: CameraConfig) -> bool:
    """Whether the actor's bearing falls inside the camera wedge (closed edges).

    Membership is evaluated at the current instant; an actor coincident with
    the ego belongs to every camera.
    """
    if actor.x == ego.x and actor.y == ego.y:
        return True
    return _in_wedge(bearing_to(ego, actor), cam)


def _in_wedge(bearing: float, cam: CameraConfig) -> bool:
    if cam.fov >= 2.0 * math.pi - 1e-12:
        return True
    return abs(normalize_angle(bearing - cam.azimuth)) <= cam.fov / 2.0


def fov_members(
    ego: KinematicState,
    actors: dict[str, KinematicState],
    cameras: Iterable[CameraConfig],
) -> dict[str, set[str]]:
    """Per camera id, the actors ``in_fov`` of that camera.

    Each actor's bearing is computed once for all cameras.
    """
    bearings = {
        aid: bearing_to(ego, st) for aid, st in actors.items() if st.x != ego.x or st.y != ego.y
    }
    return {
        cam.camera_id: {aid for aid in actors if aid not in bearings or _in_wedge(bearings[aid], cam)}
        for cam in cameras
    }


def uncovered_bearings(cameras: tuple[CameraConfig, ...] | list[CameraConfig],
                       resolution: float = 0.5 * DEG) -> list[float]:
    """Bearings (rad) not covered by any camera, probed at ``resolution``.

    Rig validation helper: an empty result means no blind wedge.
    """
    gaps = []
    n = int(math.ceil(2.0 * math.pi / resolution))
    probe_ego = KinematicState(0.0, 0.0, 0.0)
    for i in range(n):
        theta = normalize_angle(-math.pi + (i + 0.5) * 2.0 * math.pi / n)
        probe = KinematicState(math.cos(theta), math.sin(theta), 0.0)
        if not any(in_fov(probe_ego, probe, cam) for cam in cameras):
            gaps.append(theta)
    return gaps
