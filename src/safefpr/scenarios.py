"""Declarative scenario scripts and the built-in scenario families.

A script is data: a road, an ego cruise setup, and per-actor behavior events
at fixed times. The closed-loop engine interprets scripts, so new families
are just new parameter sets or new script files.

Lanes are indexed 0 (rightmost) to lanes-1 (leftmost); lateral positions are
measured from the road centerline, positive to the left.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import IO, Callable

from .types import MPH_TO_MPS, finite_float, integer, nonnegative_float

# Bounds on script quantities: far beyond any road scene, and small enough
# that no position or speed the engine integrates over a run can overflow.
MAX_SPEED = 100.0        # m/s, ego, actor and event target speeds
MAX_GAP = 10_000.0       # m, magnitude of an actor's initial gap
MAX_LANE_WIDTH = 10.0    # m
MAX_DURATION = 600.0     # s


def _within(name: str, value: float, lo: float, hi: float, unit: str, open_lo=False) -> None:
    """ValueError naming ``name`` unless ``value`` lies in [lo, hi] ((lo, hi] if ``open_lo``)."""
    if not (lo < value <= hi if open_lo else lo <= value <= hi):
        bracket = "(" if open_lo else "["
        raise ValueError(f"{name} must be in {bracket}{lo:g}, {hi:g}] {unit}, got {value!r}")


@dataclass(frozen=True)
class RoadSpec:
    lanes: int = 3
    lane_width: float = 3.5  # m
    curvature: float = 0.0   # 1/m, constant along the road; 0 = straight

    def __post_init__(self) -> None:
        if not integer("lanes", self.lanes) >= 1:
            raise ValueError("need at least one lane")
        _within("lane_width", self.lane_width, 0.0, MAX_LANE_WIDTH, "m", open_lo=True)
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
        nonnegative_float("at", self.at)
        if self.to_lane is not None:
            integer("to_lane", self.to_lane)
        if self.kind == "lane_change":
            if self.to_lane is None or not 0.0 < self.duration < math.inf:
                raise ValueError("lane_change needs to_lane and a finite duration > 0")
        elif self.kind == "speed_change":
            if self.target_speed is None:
                raise ValueError("speed_change needs a target_speed")
            _within("target_speed", self.target_speed, 0.0, MAX_SPEED, "m/s")
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
        integer("lane", self.lane)
        _within("gap", self.gap, -MAX_GAP, MAX_GAP, "m")
        _within("speed", self.speed, 0.0, MAX_SPEED, "m/s")


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    ego_lane: int
    ego_speed: float  # m/s
    duration: float   # s
    road: RoadSpec = RoadSpec()
    actors: tuple[ActorScript, ...] = ()
    trigger_time: float | None = None  # the family's key moment, if any
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        last, unit = self.road.lanes - 1, f"on a {self.road.lanes}-lane road"
        _within("ego_lane", integer("ego_lane", self.ego_lane), 0, last, unit)
        _within("ego_speed", self.ego_speed, 0.0, MAX_SPEED, "m/s")
        _within("duration", self.duration, 0.0, MAX_DURATION, "s", open_lo=True)
        if self.trigger_time is not None and not math.isfinite(self.trigger_time):
            raise ValueError("trigger_time must be finite")
        for a in self.actors:
            _within(f"actor {a.actor_id!r}: lane", a.lane, 0, last, unit)
            for i, e in enumerate(a.events):
                if e.to_lane is not None:
                    _within(f"actor {a.actor_id!r}: events[{i}].to_lane", e.to_lane, 0, last, unit)
        ids = [a.actor_id for a in self.actors]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate actor ids")


# --------------------------------------------------------------------------
# JSON form: the dataclass fields above are the one declaration of it
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _FamilyReference:
    family: str
    params: dict = field(default_factory=dict)


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, object, bool], ...]:
    """(name, annotation, required) per field of ``cls``; required means it has no default."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _read(kind: object, value: object, where: str):
    """``value`` read as the field annotation ``kind``; ValueError naming ``where`` if not one."""
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, where)
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a JSON list, got {type(value).__name__}")
        return tuple(_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if kind is float:
        return finite_float(where, value)
    if kind is int:
        return integer(where, value)
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{where} must be a string, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{where or 'script'} must be a JSON object, got {type(value).__name__}")
    return value if kind is dict else _from_dict(kind, value, where)


def _from_dict(cls: type, obj: dict, where: str):
    """``cls`` built from the JSON object ``obj``, whose keys are its field names.

    Errors name the dotted field (``actors[0].gap``); a ValueError that
    ``cls`` raises is prefixed with ``where``, the object's own path.
    """
    spec, here = _json_fields(cls), where or "script"
    for name, _, required in spec:
        if required and name not in obj:
            raise ValueError(f"{here}: missing key {name!r}")
    unknown = set(obj) - {name for name, _, _ in spec}
    if unknown:
        raise ValueError(f"{here}: unknown keys {sorted(unknown)}")
    prefix = f"{where}." if where else ""
    kwargs = {name: _read(kind, obj[name], prefix + name) for name, kind, _ in spec if name in obj}
    try:
        return cls(**kwargs)
    except ValueError as e:
        if not where:
            raise
        raise ValueError(f"{where}: {e}") from None


def _to_json(value):
    """JSON data of a script dataclass: objects keyed by field name, tuples as lists, no None."""
    if is_dataclass(value):
        return {
            f.name: _to_json(v) for f in fields(value) if (v := getattr(value, f.name)) is not None
        }
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def script_to_dict(script: ScenarioScript) -> dict:
    return _to_json(script)


def script_from_dict(obj: object) -> ScenarioScript:
    """A script from its JSON form; ValueError naming the field for any malformed one."""
    return _read(ScenarioScript, obj, "")


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
        ref = _read(_FamilyReference, obj, "")
        return generate_scenario(ref.family, ref.params)
    return script_from_dict(obj)


# --------------------------------------------------------------------------
# Built-in families
# --------------------------------------------------------------------------


class _ReadParams(dict):
    """A family's parameters that remember which keys the builder read."""

    def __init__(self, params: dict) -> None:
        super().__init__(params)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _family(builder: Callable[[dict], ScenarioScript]) -> Callable[[dict], ScenarioScript]:
    """``builder`` that also rejects parameters it does not read, naming them."""

    @functools.wraps(builder)
    def build(params: dict) -> ScenarioScript:
        read = _ReadParams(params)
        script = builder(read)
        unknown = sorted(set(params) - read.read)
        if unknown:
            known = ", ".join(sorted(read.read))
            raise ValueError(f"{script.name}: unknown parameters {unknown}; known: {known}")
        return script

    return build


def _param(params: dict, key: str, default: float) -> float:
    return finite_float(key, params.get(key, default))


def _speed(params: dict, key: str, default_mph: float, lo=0.0, hi=90.0) -> float:
    mph = _param(params, key, default_mph)
    _within(key, mph, lo, hi, "mph")
    return mph * MPH_TO_MPS


def _pos(params: dict, key: str, default: float, lo: float, hi: float, unit: str) -> float:
    v = _param(params, key, default)
    _within(key, v, lo, hi, unit)
    return v


def _cut_out(params: dict, name: str, default_mph: float) -> ScenarioScript:
    """A lead cuts out of the ego lane; a static obstacle sits beyond it.

    Both adjacent lanes carry pacing traffic, so braking is the ego's only
    option.
    """
    v = _speed(params, "ego_speed_mph", default_mph)
    lead_gap = _pos(params, "lead_gap", 25.0 + 0.6 * v, 10.0, 80.0, "m")
    obstacle_gap = _pos(params, "obstacle_gap", lead_gap + 35.0 + 2.2 * v, 30.0, 300.0, "m")
    reveal_distance = _pos(params, "reveal_distance", 35.0, 10.0, 100.0, "m")
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


@_family
def cut_out(params: dict) -> ScenarioScript:
    return _cut_out(params, "cut_out", 20.0)


@_family
def cut_out_fast(params: dict) -> ScenarioScript:
    return _cut_out(params, "cut_out_fast", 40.0)


@_family
def cut_in(params: dict) -> ScenarioScript:
    """An actor merges in front of the ego at speed, then eases off mildly."""
    v = _speed(params, "ego_speed_mph", 70.0)
    gap = _pos(params, "cut_gap", 45.0, 20.0, 120.0, "m")
    slow_factor = _pos(params, "slow_factor", 0.85, 0.3, 1.0, "x ego speed")
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
    gap = _pos(params, "cut_gap", 22.0, 8.0, 60.0, "m")
    slow_factor = _pos(params, "slow_factor", 0.6, 0.3, 1.0, "x ego speed")
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


@_family
def challenging_cut_in(params: dict) -> ScenarioScript:
    return _challenging_cut_in(params, "challenging_cut_in", 60.0, curvature=0.0)


@_family
def challenging_cut_in_curved(params: dict) -> ScenarioScript:
    curvature = _pos(params, "curvature", 1.0 / 400.0, 0.0005, 0.01, "1/m")
    return _challenging_cut_in(params, "challenging_cut_in_curved", 40.0, curvature)


@_family
def vehicle_following(params: dict) -> ScenarioScript:
    """Highway following; the lead suddenly brakes to a standstill."""
    v = _speed(params, "ego_speed_mph", 70.0)
    gap = _pos(params, "follow_gap", 50.0, 20.0, 150.0, "m")
    decel = _pos(params, "lead_decel", 6.0, 2.0, 9.0, "m/s^2")
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


@_family
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


@_family
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


@_family
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
