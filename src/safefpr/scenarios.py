"""Declarative scenario scripts and the built-in scenario families.

A script is data: a road, an ego cruise setup, and per-actor behavior events
at fixed times. The closed-loop engine interprets scripts, so new families
are just new parameter sets or new script files.

Lanes are indexed 0 (rightmost) to lanes-1 (leftmost); lateral positions are
measured from the road centerline, positive to the left.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable

from .types import MPH_TO_MPS, finite_float


@dataclass(frozen=True)
class RoadSpec:
    lanes: int = 3
    lane_width: float = 3.5  # m
    curvature: float = 0.0   # 1/m, constant along the road; 0 = straight

    def __post_init__(self) -> None:
        if not self.lanes >= 1:
            raise ValueError("need at least one lane")
        if not 0.0 < self.lane_width < math.inf:
            raise ValueError("lane_width must be finite and > 0")
        if not abs(self.curvature) <= 0.02:
            raise ValueError("curvature beyond +/-0.02 1/m is not supported")

    def lane_offset(self, lane: float) -> float:
        """Lateral offset of a (possibly fractional) lane index."""
        return (lane - (self.lanes - 1) / 2.0) * self.lane_width

    def to_world(self, s: float, offset: float) -> tuple[float, float, float]:
        """(x, y, heading) of a point at arc position s and lateral offset."""
        if self.curvature == 0.0:
            return (s, offset, 0.0)
        r = 1.0 / self.curvature
        phi = s * self.curvature
        cx = r * math.sin(phi)
        cy = r * (1.0 - math.cos(phi))
        return (cx - offset * math.sin(phi), cy + offset * math.cos(phi), phi)


@dataclass(frozen=True)
class ActorEvent:
    """One scripted behavior change.

    ``lane_change`` moves the actor to ``to_lane`` over ``duration`` seconds
    with a smooth lateral profile; ``speed_change`` ramps the speed toward
    ``target_speed`` at ``rate`` m/s^2 and then holds it.
    """

    at: float
    kind: str  # "lane_change" | "speed_change"
    to_lane: int | None = None
    duration: float = 0.0
    target_speed: float | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.at < math.inf:
            raise ValueError("event time must be finite and >= 0")
        if self.kind == "lane_change":
            if self.to_lane is None or not 0.0 < self.duration < math.inf:
                raise ValueError("lane_change needs to_lane and a finite duration > 0")
        elif self.kind == "speed_change":
            if self.target_speed is None or not 0.0 <= self.target_speed < math.inf:
                raise ValueError("speed_change needs a finite target_speed >= 0")
            if self.rate is None or not 0.0 < self.rate < math.inf:
                raise ValueError("speed_change needs a finite rate > 0")
        else:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class ActorScript:
    actor_id: str
    lane: int
    gap: float    # m along the road from the ego at t = 0, positive ahead
    speed: float  # m/s
    events: tuple[ActorEvent, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.gap):
            raise ValueError("actor gap must be finite")
        if not 0.0 <= self.speed < math.inf:
            raise ValueError("actor speed must be finite and >= 0")


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    road: RoadSpec
    ego_lane: int
    ego_speed: float  # m/s
    duration: float   # s
    actors: tuple[ActorScript, ...]
    trigger_time: float | None = None  # the family's key moment, if any
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.ego_lane < self.road.lanes:
            raise ValueError("ego_lane outside the road")
        if not 0.0 <= self.ego_speed < math.inf:
            raise ValueError("ego_speed must be finite and >= 0")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be finite and > 0")
        if self.trigger_time is not None and not math.isfinite(self.trigger_time):
            raise ValueError("trigger_time must be finite")
        ids = [a.actor_id for a in self.actors]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate actor ids")


def script_to_dict(script: ScenarioScript) -> dict:
    return {
        "name": script.name,
        "road": {
            "lanes": script.road.lanes,
            "lane_width": script.road.lane_width,
            "curvature": script.road.curvature,
        },
        "ego_lane": script.ego_lane,
        "ego_speed": script.ego_speed,
        "duration": script.duration,
        "trigger_time": script.trigger_time,
        "notes": script.notes,
        "actors": [
            {
                "actor_id": a.actor_id,
                "lane": a.lane,
                "gap": a.gap,
                "speed": a.speed,
                "events": [
                    {k: v for k, v in vars(e).items() if v is not None}
                    for e in a.events
                ],
            }
            for a in script.actors
        ],
    }


def _object(
    value: object, where: str, required: tuple[str, ...], optional: tuple[str, ...]
) -> dict:
    """``value`` if it is a JSON object with every required key and no unknown one."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise ValueError(f"{where}: missing key {key!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    return value


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a JSON list, got {type(value).__name__}")
    return value


def _integer(value: object, where: str) -> int:
    # the engine computes lane offsets in floats, which hold integers up to 2**53
    if isinstance(value, bool) or not isinstance(value, int) or not abs(value) <= 2**53:
        raise ValueError(f"{where} must be an integer of magnitude <= 2**53, got {value!r}")
    return value


def _optional(value: object, where: str) -> float | None:
    return None if value is None else finite_float(where, value)


def _event_from_dict(obj: object, where: str) -> ActorEvent:
    e = _object(obj, where, ("at", "kind"), ("to_lane", "duration", "target_speed", "rate"))
    if not isinstance(e["kind"], str):
        raise ValueError(f"{where}.kind must be a string, got {e['kind']!r}")
    to_lane = e.get("to_lane")
    return ActorEvent(
        at=finite_float(f"{where}.at", e["at"]),
        kind=e["kind"],
        to_lane=None if to_lane is None else _integer(to_lane, f"{where}.to_lane"),
        duration=finite_float(f"{where}.duration", e.get("duration", 0.0)),
        target_speed=_optional(e.get("target_speed"), f"{where}.target_speed"),
        rate=_optional(e.get("rate"), f"{where}.rate"),
    )


def _actor_from_dict(obj: object, where: str) -> ActorScript:
    a = _object(obj, where, ("actor_id", "lane", "gap", "speed"), ("events",))
    if not isinstance(a["actor_id"], str):
        raise ValueError(f"{where}.actor_id must be a string, got {a['actor_id']!r}")
    events = _list(a.get("events", []), f"{where}.events")
    return ActorScript(
        actor_id=a["actor_id"],
        lane=_integer(a["lane"], f"{where}.lane"),
        gap=finite_float(f"{where}.gap", a["gap"]),
        speed=finite_float(f"{where}.speed", a["speed"]),
        events=tuple(_event_from_dict(e, f"{where}.events[{i}]") for i, e in enumerate(events)),
    )


def script_from_dict(obj: object) -> ScenarioScript:
    """A script from its JSON form; ValueError naming the field for any malformed one."""
    obj = _object(
        obj, "script", ("name", "ego_lane", "ego_speed", "duration"),
        ("road", "actors", "trigger_time", "notes"),
    )
    road = _object(obj.get("road", {}), "road", (), ("lanes", "lane_width", "curvature"))
    actors = _list(obj.get("actors", []), "actors")
    notes = obj.get("notes", {})
    if not isinstance(notes, dict):
        raise ValueError(f"notes must be a JSON object, got {type(notes).__name__}")
    return ScenarioScript(
        name=str(obj["name"]),
        road=RoadSpec(
            lanes=_integer(road.get("lanes", 3), "road.lanes"),
            lane_width=finite_float("road.lane_width", road.get("lane_width", 3.5)),
            curvature=finite_float("road.curvature", road.get("curvature", 0.0)),
        ),
        ego_lane=_integer(obj["ego_lane"], "ego_lane"),
        ego_speed=finite_float("ego_speed", obj["ego_speed"]),
        duration=finite_float("duration", obj["duration"]),
        actors=tuple(_actor_from_dict(a, f"actors[{i}]") for i, a in enumerate(actors)),
        trigger_time=_optional(obj.get("trigger_time"), "trigger_time"),
        notes=notes,
    )


def save_script(script: ScenarioScript, dest: str | Path | IO[str]) -> None:
    text = json.dumps(script_to_dict(script), indent=2, sort_keys=True) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def load_script(source: str | Path | IO[str]) -> ScenarioScript:
    """A script file: a family reference or a full script (see ``docs/formats.md``).

    Malformed content raises ValueError naming the field; a file that cannot
    be opened raises OSError.
    """
    try:
        if hasattr(source, "read"):
            obj = json.load(source)
        else:
            obj = json.loads(Path(source).read_text())
    except RecursionError:
        raise ValueError("script nests too deeply") from None
    if isinstance(obj, dict) and "family" in obj:
        _object(obj, "script", ("family",), ("params",))
        family = obj["family"]
        if not isinstance(family, str):
            raise ValueError(f"family must be a string, got {family!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {type(params).__name__}")
        return generate_scenario(family, params)
    return script_from_dict(obj)


# --------------------------------------------------------------------------
# Built-in families
# --------------------------------------------------------------------------


def _param(params: dict, key: str, default: float) -> float:
    return finite_float(key, params.get(key, default))


def _speed(params: dict, key: str, default_mph: float, lo=0.0, hi=90.0) -> float:
    mph = _param(params, key, default_mph)
    if not lo <= mph <= hi:
        raise ValueError(f"{key} must be in [{lo}, {hi}] mph, got {mph}")
    return mph * MPH_TO_MPS


def _pos(params: dict, key: str, default: float, lo: float, hi: float) -> float:
    v = _param(params, key, default)
    if not lo <= v <= hi:
        raise ValueError(f"{key} must be in [{lo}, {hi}], got {v}")
    return v


def _cut_out(params: dict, name: str, default_mph: float) -> ScenarioScript:
    """A lead cuts out of the ego lane; a static obstacle sits beyond it.

    Both adjacent lanes carry pacing traffic, so braking is the ego's only
    option.
    """
    v = _speed(params, "ego_speed_mph", default_mph)
    lead_gap = _pos(params, "lead_gap", 25.0 + 0.6 * v, 10.0, 80.0)
    obstacle_gap = _pos(params, "obstacle_gap", lead_gap + 35.0 + 2.2 * v, 30.0, 300.0)
    reveal_distance = _pos(params, "reveal_distance", 35.0, 10.0, 100.0)
    t_cut = max(0.5, (obstacle_gap - lead_gap - reveal_distance) / max(v, 0.1))
    return ScenarioScript(
        name=name,
        road=RoadSpec(),
        ego_lane=1,
        ego_speed=v,
        duration=_param(params, "duration", 14.0),
        trigger_time=t_cut,
        actors=(
            ActorScript(
                "lead", lane=1, gap=lead_gap, speed=v,
                events=(ActorEvent(at=t_cut, kind="lane_change", to_lane=2, duration=1.5),),
            ),
            ActorScript("obstacle", lane=1, gap=obstacle_gap, speed=0.0),
            ActorScript("left_pace", lane=2, gap=6.0, speed=v),
            ActorScript("right_pace", lane=0, gap=-4.0, speed=v),
        ),
    )


def cut_out(params: dict) -> ScenarioScript:
    return _cut_out(params, "cut_out", 20.0)


def cut_out_fast(params: dict) -> ScenarioScript:
    return _cut_out(params, "cut_out_fast", 40.0)


def cut_in(params: dict) -> ScenarioScript:
    """An actor merges in front of the ego at speed, then eases off mildly."""
    v = _speed(params, "ego_speed_mph", 70.0)
    gap = _pos(params, "cut_gap", 45.0, 20.0, 120.0)
    slow_factor = _pos(params, "slow_factor", 0.85, 0.3, 1.0)
    t_cut = _param(params, "trigger_time", 2.0)
    return ScenarioScript(
        name="cut_in",
        road=RoadSpec(),
        ego_lane=1,
        ego_speed=v,
        duration=_param(params, "duration", 14.0),
        trigger_time=t_cut,
        actors=(
            ActorScript(
                "cutter", lane=0, gap=gap, speed=v,
                events=(
                    ActorEvent(at=t_cut, kind="lane_change", to_lane=1, duration=2.0),
                    ActorEvent(at=t_cut, kind="speed_change",
                               target_speed=slow_factor * v, rate=3.0),
                ),
            ),
        ),
    )


def _challenging_cut_in(params: dict, name: str, default_mph: float,
                        curvature: float) -> ScenarioScript:
    """A much closer, harder-braking merge; the left lane is occupied."""
    v = _speed(params, "ego_speed_mph", default_mph)
    gap = _pos(params, "cut_gap", 22.0, 8.0, 60.0)
    slow_factor = _pos(params, "slow_factor", 0.6, 0.3, 1.0)
    t_cut = _param(params, "trigger_time", 1.5)
    return ScenarioScript(
        name=name,
        road=RoadSpec(curvature=curvature),
        ego_lane=1,
        ego_speed=v,
        duration=_param(params, "duration", 14.0),
        trigger_time=t_cut,
        actors=(
            ActorScript(
                "cutter", lane=0, gap=gap, speed=v,
                events=(
                    ActorEvent(at=t_cut, kind="lane_change", to_lane=1, duration=1.5),
                    ActorEvent(at=t_cut, kind="speed_change",
                               target_speed=slow_factor * v, rate=4.0),
                ),
            ),
            ActorScript("left_pace", lane=2, gap=5.0, speed=v),
        ),
    )


def challenging_cut_in(params: dict) -> ScenarioScript:
    return _challenging_cut_in(params, "challenging_cut_in", 60.0, curvature=0.0)


def challenging_cut_in_curved(params: dict) -> ScenarioScript:
    curvature = _pos(params, "curvature", 1.0 / 400.0, 0.0005, 0.01)
    return _challenging_cut_in(params, "challenging_cut_in_curved", 40.0, curvature)


def vehicle_following(params: dict) -> ScenarioScript:
    """Highway following; the lead suddenly brakes to a standstill."""
    v = _speed(params, "ego_speed_mph", 70.0)
    gap = _pos(params, "follow_gap", 50.0, 20.0, 150.0)
    decel = _pos(params, "lead_decel", 6.0, 2.0, 9.0)
    t_brake = _param(params, "trigger_time", 2.0)
    return ScenarioScript(
        name="vehicle_following",
        road=RoadSpec(),
        ego_lane=1,
        ego_speed=v,
        duration=_param(params, "duration", 16.0),
        trigger_time=t_brake,
        actors=(
            ActorScript(
                "lead", lane=1, gap=gap, speed=v,
                events=(ActorEvent(at=t_brake, kind="speed_change",
                                   target_speed=0.0, rate=decel),),
            ),
        ),
    )


def front_right_activity_1(params: dict) -> ScenarioScript:
    """Ego on the left lane; right-most traffic merges toward the middle."""
    v = _speed(params, "ego_speed_mph", 40.0)
    return ScenarioScript(
        name="front_right_activity_1",
        road=RoadSpec(),
        ego_lane=2,
        ego_speed=v,
        duration=_param(params, "duration", 12.0),
        trigger_time=2.0,
        actors=(
            ActorScript(
                "merger", lane=0, gap=25.0, speed=1.1 * v,
                events=(ActorEvent(at=2.0, kind="lane_change", to_lane=1, duration=2.0),),
            ),
            ActorScript(
                "weaver", lane=2, gap=-25.0, speed=1.15 * v,
                events=(ActorEvent(at=1.5, kind="lane_change", to_lane=0, duration=2.0),),
            ),
        ),
    )


def front_right_activity_2(params: dict) -> ScenarioScript:
    """Front actor drifts right and paces the ego; another follows behind."""
    v = _speed(params, "ego_speed_mph", 40.0)
    return ScenarioScript(
        name="front_right_activity_2",
        road=RoadSpec(),
        ego_lane=1,
        ego_speed=v,
        duration=_param(params, "duration", 12.0),
        trigger_time=2.0,
        actors=(
            ActorScript(
                "splitter", lane=1, gap=30.0, speed=v,
                events=(
                    ActorEvent(at=2.0, kind="lane_change", to_lane=0, duration=2.0),
                    ActorEvent(at=4.0, kind="speed_change", target_speed=v, rate=2.0),
                ),
            ),
            ActorScript("follower", lane=1, gap=-30.0, speed=v),
        ),
    )


def front_right_activity_3(params: dict) -> ScenarioScript:
    """Right-lane traffic cuts in well ahead of the ego at nearly its speed."""
    v = _speed(params, "ego_speed_mph", 60.0)
    return ScenarioScript(
        name="front_right_activity_3",
        road=RoadSpec(),
        ego_lane=1,
        ego_speed=v,
        duration=_param(params, "duration", 12.0),
        trigger_time=2.0,
        actors=(
            ActorScript(
                "merger", lane=0, gap=60.0, speed=0.95 * v,
                events=(ActorEvent(at=2.0, kind="lane_change", to_lane=1, duration=2.0),),
            ),
        ),
    )


FAMILY_BUILDERS: dict[str, Callable[[dict], ScenarioScript]] = {
    "cut_out": cut_out,
    "cut_out_fast": cut_out_fast,
    "cut_in": cut_in,
    "challenging_cut_in": challenging_cut_in,
    "challenging_cut_in_curved": challenging_cut_in_curved,
    "vehicle_following": vehicle_following,
    "front_right_activity_1": front_right_activity_1,
    "front_right_activity_2": front_right_activity_2,
    "front_right_activity_3": front_right_activity_3,
}


def list_families() -> tuple[str, ...]:
    return tuple(FAMILY_BUILDERS)


def generate_scenario(family: str, params: dict | None = None) -> ScenarioScript:
    """Build one of the named scenario families from its parameter map."""
    try:
        builder = FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {family!r}; known: {', '.join(FAMILY_BUILDERS)}"
        ) from None
    return builder(dict(params or {}))
