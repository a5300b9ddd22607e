"""Scenario trace schema and line-delimited file format.

A trace is everything a run recorded: one header line with the tick
interval, camera rig and metadata, then one line per tick carrying the ego
and actor states. All numbers are SI; floats round-trip exactly through the
canonical formatting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from .geometry import CameraConfig
from .types import KinematicState, Trajectory, finite_float


class TraceFormatError(ValueError):
    """A trace file violated the schema; message names the field and tick."""


@dataclass(frozen=True)
class TickRecord:
    """States of the ego and every actor at one instant."""

    t: float
    ego: KinematicState
    actors: dict[str, KinematicState] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioTrace:
    dt: float
    ticks: tuple[TickRecord, ...]
    cameras: tuple[CameraConfig, ...]
    metadata: dict = field(default_factory=dict)
    # per actor: recorded t, x, y and v, built on the first ``actor_columns`` query
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise TraceFormatError(f"dt must be finite and > 0, got {self.dt}")
        _fpr0(self.metadata)
        ids: set[str] | None = None
        for i, tick in enumerate(self.ticks):
            expected = i * self.dt
            # aligned to the grid and strictly after the previous tick
            if not (
                abs(tick.t - expected) <= 1e-9 + 1e-12 * i
                and (i == 0 or tick.t > self.ticks[i - 1].t)
            ):
                raise TraceFormatError(
                    f"non-monotone or misaligned time at tick {i}: "
                    f"t={tick.t}, expected {expected}"
                )
            tick_ids = set(tick.actors)
            if ids is None:
                ids = tick_ids
            elif tick_ids != ids:
                raise TraceFormatError(f"actor ids changed at tick {i}")
        object.__setattr__(self, "ticks", tuple(self.ticks))
        object.__setattr__(self, "cameras", tuple(self.cameras))

    @property
    def actor_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.ticks[0].actors)) if self.ticks else ()

    def duration(self) -> float:
        return self.ticks[-1].t if self.ticks else 0.0

    def actor_columns(self, actor_id: str) -> np.ndarray:
        """The actor's recorded path: t, x, y and v over every tick, as the rows of one array.

        The array is read-only and built once per actor. Its times are the
        tick times, so they are finite and strictly increasing; positions
        are finite and speeds >= 0, as ``KinematicState`` requires. Raises
        KeyError for an actor the trace does not carry.
        """
        cols = self._columns.get(actor_id)
        if cols is None:
            states = [tick.actors[actor_id] for tick in self.ticks]
            cols = np.array(
                [
                    [tick.t for tick in self.ticks],
                    [s.x for s in states],
                    [s.y for s in states],
                    [s.v for s in states],
                ]
            )
            cols.setflags(write=False)
            self._columns[actor_id] = cols
        return cols

    def operating_latency(self) -> float:
        """Processing latency the trace was recorded at: 1 / fpr0, or dt without one.

        ``fpr0`` is checked again here, as ``metadata`` may have changed
        since construction.
        """
        fpr0 = _fpr0(self.metadata)
        return self.dt if fpr0 is None else 1.0 / fpr0


def _fpr0(metadata: dict) -> float | None:
    """The rate the run was recorded at, if ``metadata`` carries one: a
    finite number > 0 whose reciprocal, the operating latency, is finite too;
    not a string or a bool."""
    if "fpr0" not in metadata:
        return None
    fpr0 = _finite(metadata, "fpr0", "header metadata")
    if not fpr0 > 0.0:
        raise TraceFormatError(f"header metadata: field 'fpr0' must be > 0, got {fpr0}")
    if not math.isfinite(1.0 / fpr0):
        raise TraceFormatError(
            f"header metadata: field 'fpr0' must have a finite 1/fpr0, got {fpr0}"
        )
    return fpr0


_STATE_FIELDS = ("x", "y", "v", "a", "heading")


def _state_to_obj(s: KinematicState) -> dict:
    return {"x": s.x, "y": s.y, "v": s.v, "a": s.a, "heading": s.heading}


def _finite(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """``obj[key]`` as a finite float (a JSON number, not a string or a
    boolean); errors name ``where`` and the field."""
    if key not in obj:
        if default is None:
            raise TraceFormatError(f"{where}: missing field {key!r}")
        return default
    value = obj[key]
    if type(value) is float and math.isfinite(value):
        return value  # most fields: skips finite_float's abstract-class check (about 1 us)
    try:
        return finite_float(f"field {key!r}", value)
    except ValueError as e:
        raise TraceFormatError(f"{where}: {e}") from None


def _state_from_obj(obj, where: str) -> KinematicState:
    if type(obj) is dict and len(obj) == 5:
        # the saved form: exactly the five fields, as floats, which
        # KinematicState checks; anything else, or a state it refuses, is
        # checked below for the error message
        x, y, v, a, heading = map(obj.get, _STATE_FIELDS)
        if type(x) is type(y) is type(v) is type(a) is type(heading) is float:
            try:
                return KinematicState(x, y, v, a, heading)
            except ValueError:
                pass
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{where}: expected an object")
    fields = [_finite(obj, key, where) for key in ("x", "y", "v")]
    fields += [_finite(obj, key, where, 0.0) for key in ("a", "heading")]
    try:
        return KinematicState(*fields)
    except ValueError as e:
        raise TraceFormatError(f"{where}: {e}") from None


def save_trace(trace: ScenarioTrace, dest: str | Path | IO[str]) -> None:
    """Write the canonical line-delimited form."""
    header = {
        "dt": trace.dt,
        "cameras": [
            {"camera_id": c.camera_id, "azimuth": c.azimuth, "fov": c.fov}
            for c in trace.cameras
        ],
        "metadata": trace.metadata,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for tick in trace.ticks:
        lines.append(
            json.dumps(
                {
                    "t": tick.t,
                    "ego": _state_to_obj(tick.ego),
                    "actors": {aid: _state_to_obj(s) for aid, s in sorted(tick.actors.items())},
                },
                sort_keys=True,
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def _json(line: str, where: str):
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as e:
        raise TraceFormatError(f"{where}: invalid JSON ({e})") from None


def load_trace(source: str | Path | IO[str]) -> ScenarioTrace:
    """Parse and validate a trace file (a path or a file object)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text()
        except FileNotFoundError:
            raise TraceFormatError(f"no such trace file: {source}") from None
        except (OSError, ValueError) as e:
            raise TraceFormatError(f"cannot read trace file {source}: {e}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceFormatError("empty trace")

    header = _json(lines[0], "header")
    if not isinstance(header, dict):
        raise TraceFormatError("header: expected an object")
    dt = _finite(header, "dt", "header")
    cams = header.get("cameras", [])
    if not isinstance(cams, list):
        raise TraceFormatError("header: field 'cameras' must be a list")
    cameras = []
    for j, cam in enumerate(cams):
        where = f"header camera {j}"
        if not isinstance(cam, dict) or "camera_id" not in cam:
            raise TraceFormatError(f"{where}: expected an object with a 'camera_id'")
        try:
            cameras.append(
                CameraConfig(
                    camera_id=cam["camera_id"],
                    azimuth=_finite(cam, "azimuth", where),
                    fov=_finite(cam, "fov", where),
                )
            )
        except ValueError as e:
            raise TraceFormatError(f"{where}: {e}") from None
    ids = [c.camera_id for c in cameras]
    if len(set(ids)) < len(ids):
        raise TraceFormatError(f"header: duplicate camera_id in {ids}")
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TraceFormatError("header: field 'metadata' must be an object")

    ticks = []
    for i, line in enumerate(lines[1:]):
        where = f"tick {i}"
        obj = _json(line, where)
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{where}: expected an object")
        t = _finite(obj, "t", where)
        if "ego" not in obj:
            raise TraceFormatError(f"{where}: missing field 'ego'")
        ego = _state_from_obj(obj["ego"], f"{where} ego")
        actors = obj.get("actors", {})
        if not isinstance(actors, dict):
            raise TraceFormatError(f"{where}: field 'actors' must be an object")
        actors = {
            aid: _state_from_obj(s, f"{where} actor {aid!r}") for aid, s in actors.items()
        }
        ticks.append(TickRecord(t=t, ego=ego, actors=actors))

    return ScenarioTrace(dt=dt, ticks=tuple(ticks), cameras=tuple(cameras), metadata=metadata)


def ground_truth_trajectory(trace: ScenarioTrace, actor_id: str, from_tick: int) -> Trajectory:
    """The actor's recorded future re-based to t = 0 at ``from_tick``.

    This is the singleton trajectory set of offline analysis: the future is
    known, probability 1. A query at the final tick pads a constant-hold
    second sample so the result is still a valid trajectory.
    """
    if not 0 <= from_tick < len(trace.ticks):
        raise IndexError(f"from_tick {from_tick} outside trace of {len(trace.ticks)} ticks")
    if actor_id not in trace.ticks[from_tick].actors:
        raise KeyError(f"unknown actor {actor_id!r}")
    t, x, y, v = trace.actor_columns(actor_id)
    k = from_tick
    if k == len(t) - 1:
        return Trajectory(t=(0.0, trace.dt), x=(x[k], x[k]), y=(y[k], y[k]), v=(v[k], v[k]))
    return Trajectory(t=t[k:] - t[k], x=x[k:], y=y[k:], v=v[k:])
