"""Scenario trace schema and line-delimited file format.

A trace is everything a run recorded: one header line with the tick
interval, camera rig and metadata, then one line per tick carrying the ego
and actor states. All numbers are SI; floats round-trip exactly through the
canonical formatting.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from .geometry import CameraConfig
from .types import KinematicState, Trajectory, finite_float, integer, normalize_angles


class TraceFormatError(ValueError):
    """A trace file violated the schema; message names the field and tick."""


@dataclass(frozen=True)
class TickRecord:
    """States of the ego and every actor at one instant."""

    t: float
    ego: KinematicState
    actors: dict[str, KinematicState] = field(default_factory=dict)


@dataclass(frozen=True, init=False, eq=False)
class ScenarioTrace:
    """A recorded run: tick interval, camera rig, metadata and every tick's states.

    The states are stored as columns in one read-only (bodies, 6, ticks)
    block: body 0 is the ego and body j + 1 the actor ``actor_ids[j]``
    (sorted ids), and each body's rows are t, x, y, v, a and heading over
    every tick. ``load_trace`` fills the block straight from the file, and
    the engine from its rows; a trace built from ``TickRecord``s builds it
    from them and keeps the records.

    ``times``, ``actor_ids``, ``duration()``, ``ego_rows``,
    ``actor_columns``, ``operating_latency()`` and ``save_trace`` read the
    columns and build no state objects. ``ticks`` gives the records; on a
    trace made from a block it builds them on its first read and keeps
    them, and their actor dicts iterate in sorted id order.
    """

    dt: float
    cameras: tuple[CameraConfig, ...]
    metadata: dict
    actor_ids: tuple[str, ...]
    # (ticks,) read-only tick times
    times: np.ndarray = field(repr=False)
    _block: np.ndarray = field(repr=False)
    # "ticks": the records, "columns": actor id -> view
    _cache: dict = field(repr=False)

    def __init__(
        self,
        dt: float,
        ticks: Sequence[TickRecord],
        cameras: Sequence[CameraConfig],
        metadata: dict | None = None,
    ) -> None:
        ticks = tuple(ticks)
        metadata = {} if metadata is None else metadata
        _check_header(dt, metadata)
        raw = [tick.t for tick in ticks]
        times = np.array(raw)  # no dtype: a string or None time is a TypeError below
        ids = set(ticks[0].actors) if ticks else set()
        if not all(isinstance(aid, str) for aid in ids):
            raise TraceFormatError(f"actor ids must be strings, got {sorted(map(repr, ids))}")
        changed = next((i for i, tick in enumerate(ticks) if set(tick.actors) != ids), len(ticks))
        i = _misaligned(times, dt)
        if i < len(ticks) and i <= changed:
            raise TraceFormatError(
                f"non-monotone or misaligned time at tick {i}: t={raw[i]}, expected {i * dt}"
            )
        if changed < len(ticks):
            raise TraceFormatError(f"actor ids changed at tick {changed}")
        ids = sorted(ids)
        bodies = [(tick.ego, *map(tick.actors.__getitem__, ids)) for tick in ticks]
        fields = [(s.x, s.y, s.v, s.a, s.heading) for states in bodies for s in states]
        self._fill(dt, cameras, metadata, ids, _state_block(times, fields, len(ids)), ticks)

    @classmethod
    def _from_block(cls, dt, cameras, metadata, actor_ids, times, fields) -> "ScenarioTrace":
        """A trace over ``_state_block`` inputs that meet the tick rules; checks the header."""
        _check_header(dt, metadata)
        trace = object.__new__(cls)
        trace._fill(dt, cameras, metadata, actor_ids, _state_block(times, fields, len(actor_ids)))
        return trace

    def _fill(self, dt, cameras, metadata, actor_ids, block, ticks=None) -> None:
        vars(self).update(
            dt=dt,
            cameras=tuple(cameras),
            metadata=metadata,
            actor_ids=tuple(actor_ids),
            times=block[0, 0],
            _block=block,
            _cache={} if ticks is None else {"ticks": ticks},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioTrace):
            return NotImplemented
        return (self.dt, self.cameras, self.metadata, self.actor_ids) == (
            other.dt, other.cameras, other.metadata, other.actor_ids
        ) and np.array_equal(self._block, other._block)

    @property
    def ticks(self) -> tuple[TickRecord, ...]:
        """One ``TickRecord`` per tick; a trace made from a block builds them on the first read."""
        ticks = self._cache.get("ticks")
        if ticks is None:
            ticks = []
            block = self._block[:, 1:].transpose(2, 0, 1).tolist()
            for t, bodies in zip(self.times.tolist(), block):
                states = [KinematicState(*fields) for fields in bodies]
                ticks.append(TickRecord(t, states[0], dict(zip(self.actor_ids, states[1:]))))
            ticks = self._cache["ticks"] = tuple(ticks)
        return ticks

    @property
    def ego_rows(self) -> np.ndarray:
        """The ego's read-only (ticks, 5) rows, one a tick, as ``fov_mask`` takes ego rows."""
        return self._block[0, 1:].T

    def duration(self) -> float:
        return self.times[-1].item() if self.times.shape[0] else 0.0

    def actor_columns(self, actor_id: str) -> np.ndarray:
        """The actor's recorded path: t, x, y and v over every tick, as the rows of one array.

        The array is a read-only view into the state block, the same object
        on every call. Its times are the tick times, so they are finite and
        strictly increasing; positions are finite and speeds >= 0, as
        ``KinematicState`` requires. Raises KeyError for an actor the trace
        does not carry.
        """
        columns = self._cache.get("columns")
        if columns is None:
            columns = self._cache["columns"] = {
                aid: self._block[j + 1, :4] for j, aid in enumerate(self.actor_ids)
            }
        return columns[actor_id]

    def operating_latency(self) -> float:
        """Processing latency the trace was recorded at: 1 / fpr0, or dt without one.

        ``fpr0`` is checked again here, as ``metadata`` may have changed
        since construction.
        """
        fpr0 = _fpr0(self.metadata)
        return self.dt if fpr0 is None else 1.0 / fpr0


def _check_header(dt: float, metadata: dict) -> None:
    if not 0.0 < dt < math.inf:
        raise TraceFormatError(f"dt must be finite and > 0, got {dt}")
    _fpr0(metadata)


def _misaligned(times: np.ndarray, dt: float) -> int:
    """Index of the first tick time off the grid or not after the one before; len(times) if none.

    Tick i must lie within 1e-9 + 1e-12 * i of i * dt and after tick i - 1.
    """
    i = np.arange(times.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN times fail the test
        ok = np.abs(times - i * dt) <= 1e-9 + 1e-12 * i
    ok[1:] &= times[1:] > times[:-1]
    return int(np.argmin(ok)) if not ok.all() else times.shape[0]


def _state_block(times, fields, actors: int) -> np.ndarray:
    """The read-only (1 + actors, 6, ticks) state block of ``ScenarioTrace``.

    ``fields`` holds x, y, v, a and heading of the ego and then each actor
    at each tick, tick-major, in any nesting; headings are normalized here.
    """
    bodies = 1 + actors
    block = np.empty((bodies, 6, len(times)))
    block[:, 0] = times
    block[:, 1:] = np.reshape(fields, (len(times), bodies, 5)).transpose(1, 2, 0)
    block[:, 5] = normalize_angles(block[:, 5])
    block.setflags(write=False)
    return block


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


def _finite(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """``obj[key]`` as a finite float (a JSON number, not a string or a
    boolean); errors name ``where`` and the field."""
    if key not in obj:
        if default is None:
            raise TraceFormatError(f"{where}: missing field {key!r}")
        return default
    try:
        return finite_float(f"field {key!r}", obj[key])
    except ValueError as e:
        raise TraceFormatError(f"{where}: {e}") from None


def _state_from_obj(obj, where: str) -> KinematicState:
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{where}: expected an object")
    fields = [_finite(obj, key, where) for key in ("x", "y", "v")]
    fields += [_finite(obj, key, where, 0.0) for key in ("a", "heading")]
    try:
        return KinematicState(*fields)
    except ValueError as e:
        raise TraceFormatError(f"{where}: {e}") from None


def _tick_from_line(line: str, where: str) -> TickRecord:
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
    actors = {aid: _state_from_obj(s, f"{where} actor {aid!r}") for aid, s in actors.items()}
    return TickRecord(t=t, ego=ego, actors=actors)


_state_fields = operator.itemgetter(*_STATE_FIELDS)


def _saved_columns(lines: list[str], dt: float) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """The sorted actor ids, tick times and state fields of tick lines in the saved form, or None.

    In the saved form, as ``save_trace`` writes it, each line is a JSON
    object with a ``t``, an ``ego`` state and an ``actors`` object of
    states; each state has the five fields; every one of these numbers is
    a float; and every tick has the same actor ids. Keys beyond these are
    ignored, as on the checked path. The numbers are checked as arrays
    against the tick rules: finite, speeds >= 0, times on the grid and
    increasing. None when a line is not in the saved form or a rule fails:
    the checked path then loads the lines or names the first fault.
    """
    flat: list = []
    ids: list[str] | None = None
    for i, line in enumerate(lines):
        try:
            obj = _json(line, f"tick {i}")
        except TraceFormatError:
            return None
        if type(obj) is not dict:
            return None
        try:
            actors = obj["actors"]
            if ids is None:
                ids = sorted(actors)
            if len(actors) != len(ids):
                return None
            flat.append(obj["t"])
            flat += _state_fields(obj["ego"])
            for aid in ids:
                flat += _state_fields(actors[aid])
        except (KeyError, TypeError):
            return None
    if not set(map(type, flat)) <= {float}:
        return None
    ids = ids or []
    rows = np.array(flat).reshape(len(lines), 1 + 5 * (1 + len(ids)))
    # finite first: the arithmetic below warns on inf and NaN
    if not np.isfinite(rows).all():
        return None
    fields = rows[:, 1:].reshape(len(lines), 1 + len(ids), 5)
    times = rows[:, 0].copy()
    if (fields[:, :, 2] < 0.0).any() or _misaligned(times, dt) < len(lines):
        return None
    return ids, times, fields


def save_trace(trace: ScenarioTrace, dest: str | Path | IO[str]) -> None:
    """Write the canonical line-delimited form; tick lines are written from the state
    block as ``json.dumps(..., sort_keys=True)`` writes them, every number a float."""
    header = {
        "dt": trace.dt,
        "cameras": [
            {"camera_id": c.camera_id, "azimuth": c.azimuth, "fov": c.fov}
            for c in trace.cameras
        ],
        "metadata": trace.metadata,
    }
    state = '{"a": %r, "heading": %r, "v": %r, "x": %r, "y": %r}'
    actors = ", ".join(json.dumps(aid).replace("%", "%%") + ": " + state for aid in trace.actor_ids)
    line = '{"actors": {' + actors + '}, "ego": ' + state + ', "t": %r}'
    # each tick's numbers in the line's order: every actor's, the ego's, then t
    bodies, _, ticks = trace._block.shape
    numbers = np.roll(trace._block, -1, 0)[:, [4, 5, 3, 1, 2]].reshape(5 * bodies, ticks)
    lines = [line % (*tick, t) for tick, t in zip(numbers.T.tolist(), trace.times.tolist())]
    text = "\n".join([json.dumps(header, sort_keys=True), *lines]) + "\n"
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

    saved = _saved_columns(lines[1:], dt)
    if saved is None:
        ticks = [_tick_from_line(line, f"tick {i}") for i, line in enumerate(lines[1:])]
        return ScenarioTrace(dt=dt, ticks=ticks, cameras=cameras, metadata=metadata)
    return ScenarioTrace._from_block(dt, cameras, metadata, *saved)


def ground_truth_trajectory(trace: ScenarioTrace, actor_id: str, from_tick: int) -> Trajectory:
    """The actor's recorded future re-based to t = 0 at ``from_tick``.

    This is the singleton trajectory set of offline analysis: the future is
    known, probability 1. A query at the final tick pads a constant-hold
    second sample so the result is still a valid trajectory.
    """
    ticks = trace.times.shape[0]
    from_tick = integer("from_tick", from_tick)
    if not 0 <= from_tick < ticks:
        raise IndexError(f"from_tick {from_tick} outside trace of {ticks} ticks")
    if actor_id not in trace.actor_ids:
        raise KeyError(f"unknown actor {actor_id!r}")
    t, x, y, v = trace.actor_columns(actor_id)
    k = from_tick
    if k == len(t) - 1:
        return Trajectory(t=(0.0, trace.dt), x=(x[k], x[k]), y=(y[k], y[k]), v=(v[k], v[k]))
    return Trajectory(t=t[k:] - t[k], x=x[k:], y=y[k:], v=v[k:])
