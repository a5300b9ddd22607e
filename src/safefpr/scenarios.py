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

from .types import MPH_TO_MPS, finite_float, integer, string, within

# Bounds on script quantities: far beyond any road scene, and small enough
# that no position or speed the engine integrates over a run can overflow.
MAX_SPEED = 100.0        # m/s, ego, actor and event target speeds
MAX_GAP = 10_000.0       # m, magnitude of an actor's initial gap
MAX_LANE_WIDTH = 10.0    # m
MAX_DURATION = 600.0     # s


def _tuple_of(name: str, value: object, kind: type) -> tuple:
    """``value`` as a tuple; ValueError naming ``name`` unless it is a list or tuple of ``kind``."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, kind) for v in value):
        raise ValueError(f"{name} must be a list or tuple of {kind.__name__}, got {value!r}")
    return tuple(value)


def _json_data(where: str, value: object) -> None:
    """ValueError naming ``where``, or the path below it, unless ``value`` is
    JSON data that saves and loads back equal: a string, a finite number, a
    bool, None, or a list or string-keyed dict of these."""
    if value is None or isinstance(value, (str, bool)):
        return
    if isinstance(value, (int, float)):
        finite_float(where, value)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _json_data(f"{where}[{i}]", v)
    elif isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise ValueError(f"{where} keys must be strings, got {k!r}")
            _json_data(f"{where}[{k!r}]", v)
    else:
        raise ValueError(f"{where} must be JSON data, got {type(value).__name__} {value!r}")


def _set(script: object, **checked: object) -> None:
    # a script keeps each number as the float it saves and loads as, so an
    # int given for a float field saves the same bytes as its float
    for name, value in checked.items():
        object.__setattr__(script, name, value)


@dataclass(frozen=True)
class RoadSpec:
    lanes: int = 3
    lane_width: float = 3.5  # m
    curvature: float = 0.0   # 1/m, constant along the road; 0 = straight

    def __post_init__(self) -> None:
        within("lanes", integer("lanes", self.lanes), 1)
        _set(
            self,
            lane_width=within(
                "lane_width", self.lane_width, 0.0, MAX_LANE_WIDTH, "m", open_lo=True
            ),
            curvature=within("curvature", self.curvature, -0.02, 0.02, "1/m"),
        )

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
        # each number has its rule whatever the kind, so every event built saves and loads
        _set(
            self,
            at=within("at", self.at, 0.0),
            duration=within("duration", self.duration, 0.0, open_lo=self.kind == "lane_change"),
        )
        if self.to_lane is not None:
            integer("to_lane", self.to_lane)
        if self.target_speed is not None:
            speed = within("target_speed", self.target_speed, 0.0, MAX_SPEED, "m/s")
            _set(self, target_speed=speed)
        if self.rate is not None:
            _set(self, rate=within("rate", self.rate, 0.0, open_lo=True))
        if self.kind == "lane_change":
            if self.to_lane is None:
                raise ValueError("lane_change needs a to_lane")
        elif self.kind == "speed_change":
            if self.target_speed is None or self.rate is None:
                raise ValueError("speed_change needs a target_speed and a rate")
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
        string("actor_id", self.actor_id)
        integer("lane", self.lane)
        _set(
            self,
            gap=within("gap", self.gap, -MAX_GAP, MAX_GAP, "m"),
            speed=within("speed", self.speed, 0.0, MAX_SPEED, "m/s"),
            events=_tuple_of("events", self.events, ActorEvent),
        )


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    ego_lane: int
    ego_speed: float  # m/s
    duration: float   # s
    road: RoadSpec = RoadSpec()
    actors: tuple[ActorScript, ...] = ()
    trigger_time: float | None = None  # the family's key moment, if any
    notes: dict = field(default_factory=dict, hash=False)  # JSON data, free-form

    def __post_init__(self) -> None:
        string("name", self.name)
        if not isinstance(self.road, RoadSpec):
            raise ValueError(f"road must be a RoadSpec, got {self.road!r}")
        last, unit = self.road.lanes - 1, f"on a {self.road.lanes}-lane road"
        within("ego_lane", integer("ego_lane", self.ego_lane), 0, last, unit)
        _set(
            self,
            ego_speed=within("ego_speed", self.ego_speed, 0.0, MAX_SPEED, "m/s"),
            duration=within("duration", self.duration, 0.0, MAX_DURATION, "s", open_lo=True),
            actors=_tuple_of("actors", self.actors, ActorScript),
        )
        if self.trigger_time is not None:
            _set(self, trigger_time=finite_float("trigger_time", self.trigger_time))
        if not isinstance(self.notes, dict):
            raise ValueError(f"notes must be a dict, got {type(self.notes).__name__}")
        try:
            _json_data("notes", self.notes)
        except RecursionError:
            raise ValueError("notes nest too deeply") from None
        for a in self.actors:
            within(f"actor {a.actor_id!r}: lane", a.lane, 0, last, unit)
            for i, e in enumerate(a.events):
                if e.to_lane is not None:
                    within(f"actor {a.actor_id!r}: events[{i}].to_lane", e.to_lane, 0, last, unit)
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
        return string(where, value)
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


def _cut_out(
    name, ego_speed_mph, lead_gap, obstacle_gap, reveal_distance, duration
) -> ScenarioScript:
    """A lead cuts out of the ego lane; a static obstacle sits beyond it.

    Both adjacent lanes carry pacing traffic, so braking is the ego's only
    option. A gap left as None is derived from the ego speed, and lies in
    its range for every ego speed in range.
    """
    v = ego_speed_mph * MPH_TO_MPS
    if lead_gap is None:
        lead_gap = 25.0 + 0.6 * v
    if obstacle_gap is None:
        obstacle_gap = lead_gap + 35.0 + 2.2 * v
    t_cut = max(0.5, (obstacle_gap - lead_gap - reveal_distance) / max(v, 0.1))
    return ScenarioScript(
        name=name, ego_lane=1, ego_speed=v, duration=duration, trigger_time=t_cut,
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


def _cut_in(name, ego_speed_mph, cut_gap, slow_factor, trigger_time, duration) -> ScenarioScript:
    """An actor merges in front of the ego at speed, then eases off mildly."""
    v = ego_speed_mph * MPH_TO_MPS
    return ScenarioScript(
        name=name, ego_lane=1, ego_speed=v, duration=duration, trigger_time=trigger_time,
        actors=(
            ActorScript(
                "cutter", lane=0, gap=cut_gap, speed=v,
                events=(
                    ActorEvent(at=trigger_time, kind="lane_change", to_lane=1, duration=2.0),
                    ActorEvent(at=trigger_time, kind="speed_change",
                               target_speed=slow_factor * v, rate=3.0),
                ),
            ),
        ),
    )


def _challenging_cut_in(
    name, ego_speed_mph, cut_gap, slow_factor, trigger_time, duration, **road
) -> ScenarioScript:
    """A much closer, harder-braking merge; the left lane is occupied.

    ``road`` holds the curved family's ``curvature``; without it the road is straight.
    """
    v = ego_speed_mph * MPH_TO_MPS
    return ScenarioScript(
        name=name, road=RoadSpec(**road), ego_lane=1, ego_speed=v, duration=duration,
        trigger_time=trigger_time,
        actors=(
            ActorScript(
                "cutter", lane=0, gap=cut_gap, speed=v,
                events=(
                    ActorEvent(at=trigger_time, kind="lane_change", to_lane=1, duration=1.5),
                    ActorEvent(at=trigger_time, kind="speed_change",
                               target_speed=slow_factor * v, rate=4.0),
                ),
            ),
            ActorScript("left_pace", lane=2, gap=5.0, speed=v),
        ),
    )


def _vehicle_following(
    name, ego_speed_mph, follow_gap, lead_decel, trigger_time, duration
) -> ScenarioScript:
    """Highway following; the lead suddenly brakes to a standstill."""
    v = ego_speed_mph * MPH_TO_MPS
    return ScenarioScript(
        name=name, ego_lane=1, ego_speed=v, duration=duration, trigger_time=trigger_time,
        actors=(
            ActorScript(
                "lead", lane=1, gap=follow_gap, speed=v,
                events=(ActorEvent(at=trigger_time, kind="speed_change",
                                   target_speed=0.0, rate=lead_decel),),
            ),
        ),
    )


def _front_right_activity_1(name, ego_speed_mph, duration) -> ScenarioScript:
    """Ego on the left lane; right-most traffic merges toward the middle."""
    v = ego_speed_mph * MPH_TO_MPS
    return ScenarioScript(
        name=name, ego_lane=2, ego_speed=v, duration=duration, trigger_time=2.0,
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


def _front_right_activity_2(name, ego_speed_mph, duration) -> ScenarioScript:
    """Front actor drifts right and paces the ego; another follows behind."""
    v = ego_speed_mph * MPH_TO_MPS
    return ScenarioScript(
        name=name, ego_lane=1, ego_speed=v, duration=duration, trigger_time=2.0,
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


def _front_right_activity_3(name, ego_speed_mph, duration) -> ScenarioScript:
    """Right-lane traffic cuts in well ahead of the ego at nearly its speed."""
    v = ego_speed_mph * MPH_TO_MPS
    return ScenarioScript(
        name=name, ego_lane=1, ego_speed=v, duration=duration, trigger_time=2.0,
        actors=(
            ActorScript(
                "merger", lane=0, gap=60.0, speed=0.95 * v,
                events=(ActorEvent(at=2.0, kind="lane_change", to_lane=1, duration=2.0),),
            ),
        ),
    )


_MPH = (0.0, 90.0, "mph")
# any finite number: the script's own bounds (duration, event times) apply after
_SECONDS = (-math.inf, math.inf, "s")
_CUT_OUT = {
    "lead_gap": (None, 10.0, 80.0, "m"),
    "obstacle_gap": (None, 30.0, 300.0, "m"),
    "reveal_distance": (35.0, 10.0, 100.0, "m"),
    "duration": (14.0, *_SECONDS),
}
_CHALLENGING_CUT_IN = {
    "cut_gap": (22.0, 8.0, 60.0, "m"),
    "slow_factor": (0.6, 0.3, 1.0, "x ego speed"),
    "trigger_time": (1.5, *_SECONDS),
    "duration": (14.0, *_SECONDS),
}

# Each family: its builder and its parameters in check order, each as
# name -> (default, lo, hi, unit). A None default is derived by the builder.
FAMILIES: dict[str, tuple[Callable[..., ScenarioScript], dict[str, tuple]]] = {
    "cut_out": (_cut_out, {"ego_speed_mph": (20.0, *_MPH), **_CUT_OUT}),
    "cut_out_fast": (_cut_out, {"ego_speed_mph": (40.0, *_MPH), **_CUT_OUT}),
    "cut_in": (_cut_in, {
        "ego_speed_mph": (70.0, *_MPH),
        "cut_gap": (45.0, 20.0, 120.0, "m"),
        "slow_factor": (0.85, 0.3, 1.0, "x ego speed"),
        "trigger_time": (2.0, *_SECONDS),
        "duration": (14.0, *_SECONDS),
    }),
    "challenging_cut_in": (
        _challenging_cut_in, {"ego_speed_mph": (60.0, *_MPH), **_CHALLENGING_CUT_IN}
    ),
    "challenging_cut_in_curved": (_challenging_cut_in, {
        "curvature": (1.0 / 400.0, 0.0005, 0.01, "1/m"),
        "ego_speed_mph": (40.0, *_MPH),
        **_CHALLENGING_CUT_IN,
    }),
    "vehicle_following": (_vehicle_following, {
        "ego_speed_mph": (70.0, *_MPH),
        "follow_gap": (50.0, 20.0, 150.0, "m"),
        "lead_decel": (6.0, 2.0, 9.0, "m/s^2"),
        "trigger_time": (2.0, *_SECONDS),
        "duration": (16.0, *_SECONDS),
    }),
    "front_right_activity_1": (
        _front_right_activity_1, {"ego_speed_mph": (40.0, *_MPH), "duration": (12.0, *_SECONDS)}
    ),
    "front_right_activity_2": (
        _front_right_activity_2, {"ego_speed_mph": (40.0, *_MPH), "duration": (12.0, *_SECONDS)}
    ),
    "front_right_activity_3": (
        _front_right_activity_3, {"ego_speed_mph": (60.0, *_MPH), "duration": (12.0, *_SECONDS)}
    ),
}


def list_families() -> tuple[str, ...]:
    return tuple(FAMILIES)


def generate_scenario(family: str, params: dict | None = None) -> ScenarioScript:
    """Build a named family from its parameters: the names ``FAMILIES`` lists for it."""
    try:
        builder, spec = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {family!r}; known: {', '.join(FAMILIES)}"
        ) from None
    params = dict(params or {})
    unknown = sorted(set(params).difference(spec))
    if unknown:
        known = ", ".join(sorted(spec))
        raise ValueError(f"{family}: unknown parameters {unknown}; known: {known}")
    checked = {}
    for name, (default, lo, hi, unit) in spec.items():
        value = params.get(name, default)
        derived = value is None and default is None
        checked[name] = None if derived else within(name, value, lo, hi, unit)
    return builder(family, **checked)
