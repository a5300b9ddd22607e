"""Consumers of the rate estimates: safety check, budgeted allocation, ranking.

The allocator is a plain iterative water-filling: grant requirements, then
pour the remaining budget proportionally to the requirements, redistributing
whatever spills past the per-camera rate cap. In deficit it guarantees the
floor rate first (a starved camera is a blind camera) and fills the rest in
requirement order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .types import LatencyEstimate, ModelParams, finite_float

SEVERITY_DEFICIT = "deficit"
SEVERITY_INFEASIBLE = "infeasible"

_EPS = 1e-9


@dataclass(frozen=True)
class Budget:
    """Total processable frames per second across all cameras."""

    total_fps: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_fps", finite_float("total_fps", self.total_fps))
        if not self.total_fps > 0.0:
            raise ValueError(f"total_fps must be > 0, got {self.total_fps}")


@dataclass(frozen=True)
class AlarmEvent:
    """Cameras whose operating rate does not meet their requirement."""

    cameras_below: tuple[tuple[str, float, float], ...]  # (camera, required, operating)
    severity: str  # "deficit" | "infeasible"

    def __post_init__(self) -> None:
        if not self.cameras_below:
            raise ValueError("an alarm needs at least one camera")
        if self.severity not in (SEVERITY_DEFICIT, SEVERITY_INFEASIBLE):
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "cameras_below": [
                {"camera": c, "required_fps": r, "operating_fps": o}
                for c, r, o in self.cameras_below
            ],
        }


@dataclass(frozen=True)
class Allocation:
    per_camera_fps: dict[str, float]
    alarm: AlarmEvent | None = None


def safety_check(
    required: Mapping[str, float],
    operating: Mapping[str, float],
    infeasible_cameras: frozenset[str] | set[str] = frozenset(),
) -> AlarmEvent | None:
    """Alarm listing every camera operating below its requirement.

    Meeting the requirement exactly passes. Severity escalates to
    "infeasible" when any requirement carries the no-safe-latency flag.
    """
    if set(required) != set(operating):
        raise ValueError("required and operating must cover the same cameras")
    below = tuple(
        (cam, required[cam], operating[cam])
        for cam in sorted(required)
        if operating[cam] < required[cam] - _EPS
    )
    if not below:
        return None
    severity = SEVERITY_INFEASIBLE if infeasible_cameras else SEVERITY_DEFICIT
    return AlarmEvent(cameras_below=below, severity=severity)


def _pour(alloc: dict[str, float], weights: dict[str, float], amount: float, cap: float) -> None:
    """Distribute ``amount`` proportionally to weights, respecting the cap.

    Spill from cameras that hit the cap is re-poured over the remaining
    ones; terminates because every pass caps at least one camera.
    """
    active = [c for c in alloc if alloc[c] < cap - _EPS and weights[c] > 0.0]
    while amount > _EPS and active:
        denom = sum(weights[c] for c in active)
        spend_scale = amount / denom
        cap_scale = min((cap - alloc[c]) / weights[c] for c in active)
        s = min(spend_scale, cap_scale)
        for c in active:
            alloc[c] += weights[c] * s
        amount -= denom * s
        if s < spend_scale:
            active = [c for c in active if alloc[c] < cap - _EPS]
        else:
            break


def allocate(
    required: Mapping[str, float],
    budget: Budget,
    params: ModelParams,
) -> Allocation:
    """Split the frame budget across cameras around their requirements.

    With enough budget every camera gets its requirement (never below the
    floor rate) and the slack is water-filled proportionally to the
    requirements up to the per-camera cap. In deficit, floors come first and
    the remainder fills cameras in descending-requirement order; the result
    carries a deficit alarm. The allocation never exceeds the budget.
    """
    if not required:
        raise ValueError("no cameras to allocate")
    floor, cap = params.fpr_bounds()
    raw = {c: min(cap, max(0.0, float(r))) for c, r in required.items()}
    want = {c: max(floor, r) for c, r in raw.items()}
    total_want = sum(want.values())
    b = budget.total_fps

    if total_want <= b + _EPS:
        alloc = dict(want)
        _pour(alloc, want, b - total_want, cap)
        return Allocation(per_camera_fps=alloc, alarm=None)

    n = len(raw)
    if b >= n * floor:
        alloc = {c: floor for c in raw}
        rest = b - n * floor
        for c in sorted(raw, key=lambda c: (-want[c], c)):
            take = min(rest, want[c] - alloc[c])
            if take > 0.0:
                alloc[c] += take
                rest -= take
    elif sum(raw.values()) <= b:
        # floors are unaffordable but the raw asks still fit: grant them and
        # split the remainder evenly
        alloc = dict(raw)
        extra = (b - sum(raw.values())) / n
        for c in alloc:
            alloc[c] += extra
    else:
        scale = b / sum(raw.values()) if sum(raw.values()) > 0 else 0.0
        alloc = {c: r * scale for c, r in raw.items()}

    below = tuple(
        (c, want[c], alloc[c]) for c in sorted(raw) if alloc[c] < want[c] - _EPS
    )
    alarm = AlarmEvent(cameras_below=below, severity=SEVERITY_DEFICIT) if below else None
    return Allocation(per_camera_fps=alloc, alarm=alarm)


@dataclass(frozen=True)
class ActorRank:
    actor_id: str
    importance: float  # 1 / tolerable latency, in Hz
    unbounded: bool = False  # no safe latency existed; outranks everything


def rank_actors(
    latencies: Mapping[str, LatencyEstimate],
    params: ModelParams,
) -> list[ActorRank]:
    """Actors ordered most-important first.

    Importance is the inverse tolerable latency; infeasible actors rank
    ahead of everything at the maximum rate, tagged unbounded. Ties break by
    actor id so the order is deterministic.
    """
    _, hi = params.fpr_bounds()
    ranks = []
    for aid, est in latencies.items():
        if est.infeasible:
            ranks.append(ActorRank(actor_id=aid, importance=hi, unbounded=True))
        else:
            ranks.append(ActorRank(actor_id=aid, importance=1.0 / est.latency))
    ranks.sort(key=lambda r: (not r.unbounded, -r.importance, r.actor_id))
    return ranks
