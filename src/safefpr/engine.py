"""Closed-loop scenario engine.

Actors follow their scripted events; the ego cruises at its scripted speed
and hard-brakes once a camera has confirmed a dangerous actor ahead in its
lane. Danger is purely kinematic: the gap to a same-lane actor ahead, less a
standstill buffer, no longer covers the margin-discounted relative stopping
distance plus the cruise headway. Confirmation takes ``confirmation_frames``
consecutive processed frames of one camera plus one frame of processing
latency, so the operating frame rate directly sets the reaction delay; that
is the only coupling between compute and safety in the loop.

Two modes:
  * fixed rate - every camera processes at the same constant rate
    (pre-deployment runs, minimum-required-rate sweeps);
  * adaptive   - each tick the predictor and the latency model produce
    per-camera required rates, the safety check compares them against the
    operating rates, and the allocator (optionally under a budget) sets the
    rates for the next tick (post-deployment runs).

Frame schedules are quantized to the tick grid: a frame due mid-tick is
processed at the next tick boundary, adding at most one tick of delay.

A run is split in two. The scripted actors and the cruising ego do not
depend on the frame rate, so ``_World`` simulates them, and which actors the
cruising ego must brake for, once per script and over its whole duration,
into a list of ticks, each holding its states as one row of floats. The
ego is a body like an actor, stepped by the same ``_Actor.advance``, that
has no events of its own. ``_run`` replays that list with one frame
schedule up to the tick its brakes engage; a recording run hands its rows
to the trace. A lone run builds its own world; the MRF scan
(``oracle.scenario_mrf``) runs every rate against one. A frame can change
only the count of an actor that is dangerous or already counting, so
``_run`` tests FOV membership (``in_fov``) for those actors alone; only
that test and adaptive estimation build ``KinematicState``s. While no
actor is dangerous and no count is held, a fixed-rate run jumps to the next
dangerous tick, moving each camera's next frame by the same ``1 / rate``
additions, in the same order, that a walk over the skipped ticks would
make.

A run's outcome is read from its engage tick. Where a run collides is one
question for the world, ``hit(b, radius)``, each answer memoised: the first
tick at which the ego is within the collision radius of an actor, with
``b`` None for the cruising ego (the same for every rate) and otherwise for
the ego braking from engage tick ``b``. A run ends at the cruising hit if
it comes at or before its engage tick, and at the braking hit otherwise.
The braking ego's speeds and arc positions are NumPy accumulations that
make ``_Actor.advance``'s roundings in its order, so they equal a braking
body's bit for bit; NumPy distances only pick candidate ticks, and the
scalar ``_first_within`` test on the exact ``_state_row`` decides each,
naming the first actor in the script's order. A run steps past its engage
tick only to record the braking ego's rows or to estimate (adaptive mode).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .geometry import DEFAULT_CAMERA_RIG, in_fov
from .model import FprReport, braking_decel, evaluate_scene
from .predictor import PredictorConfig, predict_trajectories
from .scenarios import ActorScript, ScenarioScript, script_to_dict
from .scheduler import AlarmEvent, Budget, allocate, safety_check
from .trace import ScenarioTrace
from .types import KinematicState, L0_FIXED, ModelParams, within

ENGINE_DT = 1.0 / 30.0   # s per tick; aligns the tick grid with a 30 Hz camera
STANDSTILL_GAP = 4.0     # m kept clear when stopped behind an obstacle
CRUISE_HEADWAY = 0.6     # s of extra travel margin in the brake trigger
LANE_CLAIM_FRACTION = 0.55  # how far into the ego lane an actor must reach
PREDICTOR = PredictorConfig()  # actor futures in adaptive mode


def _smoothstep(u: float) -> float:
    u = min(1.0, max(0.0, u))
    return u * u * (3.0 - 2.0 * u)


class _Actor:
    """Road-frame body driven by scripted events: an actor, or the ego, which has none."""

    def __init__(self, script: ActorScript):
        self.actor_id = script.actor_id
        self.s = script.gap  # the ego starts at s = 0
        self.v = script.speed
        self.a = 0.0
        self.lane = float(script.lane)
        self.events = sorted(script.events, key=lambda e: e.at)
        self._next_event = 0
        self._lane_from = float(script.lane)
        self._lane_change: tuple[float, float, float] | None = None  # (t0, t1, to)
        self._speed_target: tuple[float, float] | None = None        # (target, rate)

    def advance(self, t: float, dt: float) -> None:
        while self._next_event < len(self.events) and self.events[self._next_event].at <= t:
            ev = self.events[self._next_event]
            self._next_event += 1
            if ev.kind == "lane_change":
                self._lane_from = self.lane
                self._lane_change = (ev.at, ev.at + ev.duration, float(ev.to_lane))
            else:
                self._speed_target = (float(ev.target_speed), float(ev.rate))

        if self._lane_change is not None:
            t0, t1, to = self._lane_change
            u = (t - t0) / (t1 - t0)
            self.lane = self._lane_from + (to - self._lane_from) * _smoothstep(u)
            if u >= 1.0:
                self.lane = to
                self._lane_from = to
                self._lane_change = None

        v0 = self.v
        if self._speed_target is not None:
            target, rate = self._speed_target
            if self.v > target:
                self.v = max(target, self.v - rate * dt)
                self.a = -rate if self.v > target else 0.0
            elif self.v < target:
                self.v = min(target, self.v + rate * dt)
                self.a = rate if self.v < target else 0.0
            if self.v == target:
                self._speed_target = None
                self.a = 0.0
        self.s += 0.5 * (v0 + self.v) * dt


@dataclass
class RunResult:
    script: ScenarioScript
    trace: ScenarioTrace | None
    collision: tuple[float, str] | None          # (time, actor) or None
    brake_time: float | None                     # when the ego engaged the brakes
    alarms: list[tuple[float, AlarmEvent]] = field(default_factory=list)
    camera_log: list[dict[str, FprReport]] = field(default_factory=list)
    allocations: list[tuple[float, dict[str, float]]] = field(default_factory=list)


def _state_row(road, s: float, lane: float, v: float, a: float) -> list[float]:
    """x, y, v, a and heading of a road-frame body; one that breaks
    ``KinematicState``'s rules raises the ValueError the state raises."""
    x, y, heading = road.to_world(s, road.lane_offset(lane))
    row = [x, y, v, a, heading]
    if not (math.isfinite(sum(row)) and v >= 0.0):  # rare: the state decides
        KinematicState(*row)
    return row


def _first_within(ego_row: list[float], tick: _Tick, radius: float) -> str | None:
    """The first actor, in the script's order, that ``tick`` puts within
    ``radius`` of the ego at ``ego_row``."""
    row, x, y = tick.row, ego_row[0], ego_row[1]
    for aid, j in tick.starts.items():
        if math.hypot(row[j] - x, row[j + 1] - y) < radius:
            return aid
    return None


def _world_xy(road, s: np.ndarray, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """``road.to_world``'s x and y for each arc position of ``s``, in NumPy;
    on a curved road they may differ from it by rounding."""
    if road.curvature == 0.0:
        return s, np.full_like(s, offset)
    r = 1.0 / road.curvature
    phi = s * road.curvature
    sin, cos = np.sin(phi), np.cos(phi)
    return r * sin - offset * sin, r * (1.0 - cos) + offset * cos


def _dangerous(ego: _Actor, actor: _Actor, road, decel: float, params: ModelParams) -> bool:
    """Kinematic brake trigger for one same-lane-ahead actor, from road-frame states;
    ``decel`` is the braking ego's ``braking_decel(0.0, params)``."""
    ego_s, ego_lane, ego_v = ego.s, ego.lane, ego.v
    s, lane, v = actor.s, actor.lane, actor.v
    if s <= ego_s:
        return False
    lateral = abs(road.lane_offset(lane) - road.lane_offset(ego_lane))
    if lateral > road.lane_width * LANE_CLAIM_FRACTION:
        return False
    gap = s - ego_s - STANDSTILL_GAP
    if ego_v > v:
        need = (ego_v * ego_v - v * v) / (2.0 * decel) / params.distance_margin
    else:
        need = 0.0
    need += ego_v * CRUISE_HEADWAY
    return gap < need


@dataclass(slots=True, eq=False)
class _Tick:
    """The scripted world at one tick, as the cruising ego meets it: the
    ``_state_row`` of the cruising ego and then of each actor in sorted id
    order, and states built from it on first read."""

    ego_s: float                               # cruising ego's arc position
    row: list[float]
    starts: dict[str, int]                     # actor id -> where its state begins in row
    dangerous: frozenset[str]                  # ids of the actors ``_dangerous`` flags
    _states: dict[int, KinematicState] = field(default_factory=dict)

    def state(self, start: int) -> KinematicState:
        if start not in self._states:
            self._states[start] = KinematicState(*self.row[start:start + 5])
        return self._states[start]

    @property
    def ego(self) -> KinematicState:
        return self.state(0)

    @property
    def actors(self) -> dict[str, KinematicState]:
        return {aid: self.state(j) for aid, j in self.starts.items()}


class _World:
    """The part of a run that no frame rate changes, simulated once per script.

    Actors follow only their scripted events, and the ego is a body without
    events that cruises the same path until a run engages its brakes, so
    every run of a script meets the same world until then, and every run
    that engages them on one tick meets the same world after it. The
    constructor simulates every tick of the script's duration into
    ``ticks``, which runs read and never change. Where a run ends is one
    question for the world, ``hit``, memoised.
    """

    def __init__(self, script: ScenarioScript, params: ModelParams):
        self.script = script
        self.params = params
        road = script.road
        self._decel = braking_decel(0.0, params)  # the braking ego's
        self._ego = ego = _Actor(ActorScript("ego", script.ego_lane, 0.0, script.ego_speed))
        actors = [_Actor(a) for a in script.actors]
        ordered = sorted(actors, key=lambda a: a.actor_id)
        self.actor_ids = tuple(a.actor_id for a in ordered)  # their order in each row
        starts = {a.actor_id: 5 * (1 + self.actor_ids.index(a.actor_id)) for a in actors}
        self.ticks: list[_Tick] = []
        for i in range(int(round(script.duration / ENGINE_DT)) + 1):
            if i:
                for body in (ego, *actors):  # i * ENGINE_DT can round differently
                    body.advance((i - 1) * ENGINE_DT + ENGINE_DT, ENGINE_DT)
            row = [
                f for body in (ego, *ordered)
                for f in _state_row(road, body.s, body.lane, body.v, body.a)
            ]
            self.ticks.append(_Tick(
                ego.s,
                row,
                starts,
                frozenset(a.actor_id for a in actors if _dangerous(ego, a, road, self._decel, params)),
            ))
        self._dangerous_at = [i for i, tick in enumerate(self.ticks) if tick.dangerous]
        # per (tick, body): the x and y of the cruising ego and then of each actor
        self._x = np.array([tick.row[0::5] for tick in self.ticks])
        self._y = np.array([tick.row[1::5] for tick in self.ticks])
        self._hits: dict[tuple[int | None, float], tuple[int, str] | None] = {}
        self._arcs: dict[int, np.ndarray] = {}
        # built on the first braking question: the braking ego's speeds and arc steps
        self._brake_v: list[float] | None = None
        self._brake_steps: np.ndarray | None = None

    def next_dangerous(self, i: int, stop: int) -> int:
        """The first tick from ``i`` on that flags a dangerous actor, or ``stop``."""
        k = bisect_left(self._dangerous_at, i)
        return min(self._dangerous_at[k], stop) if k < len(self._dangerous_at) else stop

    def hit(self, b: int | None, radius: float) -> tuple[int, str] | None:
        """The first tick at which the ego is within ``radius`` of an actor,
        and the first such actor in the script's order; None if no tick is.
        With ``b`` None the ego cruises through every tick, the same for
        every frame rate; otherwise its brakes engaged at tick ``b`` and the
        ticks after it are searched. Memoised per (b, radius).

        NumPy distances from the ego to every actor pick the candidate
        ticks, with a tolerance far above their rounding (a NaN or inf
        distance is a candidate); each candidate, in order, is then decided
        by ``_first_within`` on the ego's exact row, the scalar test.
        """
        key = (b, radius)
        if key in self._hits:
            return self._hits[key]
        road, first = self.script.road, 0 if b is None else b + 1
        ax, ay = self._x[first:, 1:], self._y[first:, 1:]
        if b is None:
            ex, ey = self._x[:, 0], self._y[:, 0]
        else:
            ex, ey = _world_xy(road, self._arc(b)[1:], road.lane_offset(self._ego.lane))
        with np.errstate(all="ignore"):
            d = np.hypot(ax - ex[:, None], ay - ey[:, None])
            scale = max(np.abs(c).max(initial=0.0) for c in (ax, ay, ex, ey))
            if road.curvature:  # the road's centre is 1 / curvature away
                scale += abs(1.0 / road.curvature)
            candidates = ~(d >= radius + 1e-6 * (1.0 + radius + scale))
        found = None
        for i in (first + np.flatnonzero(candidates.any(axis=1))).tolist():
            tick = self.ticks[i]
            aid = _first_within(tick.row if b is None else self.braking_row(b, i), tick, radius)
            if aid is not None:
                found = i, aid
                break
        self._hits[key] = found
        return found

    def braking_row(self, b: int, i: int) -> list[float]:
        """The ``_state_row`` at tick ``i > b`` of the ego whose brakes
        engaged at tick ``b``."""
        arc = self._arc(b)
        v = self._brake_v[i - b]
        a = -self._decel if v > 0.0 else 0.0
        return _state_row(self.script.road, float(arc[i - b]), self._ego.lane, v, a)

    def _arc(self, b: int) -> np.ndarray:
        """The arc positions, from tick ``b`` to the last, of the ego whose
        brakes engaged at tick ``b``. The speeds and positions are those of
        ``_Actor.advance`` ramping to a stop at ``braking_decel``, bit for
        bit: ``np.subtract.accumulate`` and ``np.add.accumulate`` make the
        same roundings in the same order."""
        if b not in self._arcs:
            n = len(self.ticks)
            if self._brake_v is None:
                v0 = self._ego.v
                dv = np.full(n, self._decel * ENGINE_DT if v0 > 0.0 else 0.0)
                dv[0] = v0
                v = np.subtract.accumulate(dv)
                v[v < 0.0] = 0.0  # max(0.0, v - dv): a stopped ego keeps v = 0.0
                self._brake_v = v.tolist()
                self._brake_steps = 0.5 * (v[:-1] + v[1:]) * ENGINE_DT
            steps = np.empty(n - b)
            steps[0] = self.ticks[b].ego_s
            steps[1:] = self._brake_steps[: n - 1 - b]
            self._arcs[b] = np.add.accumulate(steps)
        return self._arcs[b]


def run_scenario(
    script: ScenarioScript,
    params: ModelParams,
    *,
    frame_rate: float | None = None,
    adaptive: bool = False,
    budget: Budget | None = None,
    collision_radius: float = 0.5,
    seed: int = 0,
    record: bool = True,
) -> RunResult:
    """Execute a scenario script to completion or first ego collision.

    Exactly one of ``frame_rate`` (fixed-rate mode) and ``adaptive`` must be
    given. In adaptive mode rates start at the cap and then follow the
    estimates (through the budget allocator when a budget is given); a
    budget in fixed-rate mode is an error. The run steps ``ENGINE_DT`` ticks
    over ``DEFAULT_CAMERA_RIG``. ``seed`` is any int but a bool, as
    ``random.Random`` takes it; the trace's metadata records it.
    """
    if (frame_rate is None) == (not adaptive):
        raise ValueError("pass either frame_rate or adaptive=True")
    if budget is not None and not adaptive:
        raise ValueError("budget needs adaptive=True; a fixed frame_rate is never allocated")
    within("collision_radius", collision_radius, 0.0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an int, got {seed!r}")
    if frame_rate is not None:
        frame_rate = within("frame_rate", frame_rate, *params.fpr_bounds(), "Hz")
    return _run(
        _World(script, params),
        frame_rate=frame_rate,
        adaptive=adaptive,
        budget=budget,
        collision_radius=collision_radius,
        seed=seed,
        record=record,
    )


def _run(
    world: _World,
    *,
    frame_rate: float | None,
    adaptive: bool,
    budget: Budget | None,
    collision_radius: float,
    seed: int,
    record: bool,
) -> RunResult:
    """One closed-loop run over ``world``, with arguments ``run_scenario`` checked.

    The run owns everything a frame rate changes: the frame schedule, the
    confirmations, when the brakes engage and, in adaptive mode, estimation
    and allocation. It walks the ticks of the world's cruising ego up to
    the tick its brakes engage or the cruising ego's ``world.hit``,
    whichever comes first; from an engage tick on, the braking ego's
    ``world.hit`` is where it ends, and the run walks on only to record or
    estimate. A fixed-rate
    run jumps over the ticks on which no frame can change a count.
    """
    script, params = world.script, world.params
    cameras = DEFAULT_CAMERA_RIG
    # only estimation reads the fixed-policy params; a fixed-rate run skips building them
    fixed_params = params.replace(l0_policy=L0_FIXED) if adaptive else None
    cap_fpr = params.fpr_bounds()[1]

    rng = random.Random(seed)
    rates = {c.camera_id: (frame_rate if frame_rate is not None else cap_fpr) for c in cameras}
    next_frame = {
        c.camera_id: rng.uniform(0.0, 1.0 / rates[c.camera_id]) if seed else 0.0
        for c in cameras
    }
    # per camera id: actor id -> consecutive confirming frames, for counts > 0
    confirm_count: dict[str, dict[str, int]] = {cid: {} for cid in next_frame}
    need_frames = max(1, params.confirmation_frames)

    alarms: list[tuple[float, AlarmEvent]] = []
    camera_log: list[dict[str, FprReport]] = []
    allocations: list[tuple[float, dict[str, float]]] = []
    brake_at: float | None = None   # scheduled engage time

    def estimate(t: float, tick: _Tick, ego: KinematicState) -> None:
        """Adaptive mode at one tick: the required rates, the safety check and
        the rates of the next tick."""
        nonlocal rates
        # reference latency for estimation stays at the provisioned
        # capability; tying it to the allocated rates feeds the estimate
        # back into itself and oscillates
        l0 = 1.0 / cap_fpr
        trajs = {aid: predict_trajectories(st, PREDICTOR) for aid, st in tick.actors.items()}
        _, reports = evaluate_scene(ego, trajs, cameras, l0, fixed_params)
        required = {cid: rep.fpr for cid, rep in reports.items()}
        flagged = {cid for cid, rep in reports.items() if rep.infeasible}
        alarm = safety_check(required, rates, frozenset(flagged))
        if alarm is not None:
            alarms.append((t, alarm))
        if budget is not None:
            allocation = allocate(required, budget, params)
            if allocation.alarm is not None:
                alarms.append((t, allocation.alarm))
            rates = dict(allocation.per_camera_fps)
        else:
            rates = required  # scene_reports keeps every rate within fpr_bounds()
        if record:
            camera_log.append(reports)
            allocations.append((t, dict(rates)))

    ticks = world.ticks
    crash = world.hit(None, collision_radius)
    stop = len(ticks) if crash is None else crash[0]  # the cruising hit, or past the last tick
    engage: int | None = None  # the tick at which the brakes engage
    i = 0
    while i < stop:
        tick = ticks[i]
        t = i * ENGINE_DT
        dangerous = tick.dangerous
        if not (adaptive or brake_at is not None or dangerous or any(confirm_count.values())):
            # Until the next dangerous tick no frame can start a count: the
            # frames due only move the schedule, by the additions a walk
            # over those ticks would make, in its order for each camera.
            # Past the last dangerous tick nothing reads the schedule.
            j = world.next_dangerous(i, stop)
            if j < stop:
                last = (j - 1) * ENGINE_DT
                for cid, due in next_frame.items():
                    while due <= last:
                        due += 1.0 / rates[cid]
                    next_frame[cid] = due
            i = j
            continue
        if adaptive:
            estimate(t, tick, tick.ego)

        # process camera frames that came due this tick, in rig order: the
        # first camera to confirm sets the processing latency. A frame adds
        # one to the count of a dangerous actor in view and resets that of a
        # harmless one, so only the actors that are dangerous or already
        # counting need a FOV test, and which of them confirms does not
        # matter. Once the brakes are scheduled no frame changes the run.
        for cam in cameras if brake_at is None else ():
            cid = cam.camera_id
            counts = confirm_count[cid]
            while brake_at is None and next_frame[cid] <= t:
                next_frame[cid] += 1.0 / rates[cid]
                if not (dangerous or counts):
                    continue
                for aid in dangerous | counts.keys():
                    if not in_fov(tick.ego, tick.state(tick.starts[aid]), cam):
                        continue
                    if aid not in dangerous:
                        del counts[aid]
                        continue
                    counts[aid] = counts.get(aid, 0) + 1
                    if counts[aid] >= need_frames:
                        brake_at = t + 1.0 / rates[cid]  # processing latency
                        break

        if brake_at is not None and t + ENGINE_DT >= brake_at:
            engage = i
            break
        i += 1

    # The cruising ego's ticks end at the engage tick or at its collision;
    # from the engage tick the braking ego's end at its first hit.
    hit = crash if engage is None else world.hit(engage, collision_radius)
    end = len(ticks) - 1 if hit is None else hit[0]
    rows: list[list[float]] = []   # per recorded tick: the ego's and the actors' rows
    if record:
        rows = [tick.row for tick in ticks[: (end if engage is None else engage) + 1]]
    if engage is not None and (adaptive or record):
        for i in range(engage + 1, end + 1):
            tick = ticks[i]
            ego_row = world.braking_row(engage, i)
            if record:
                rows.append(ego_row + tick.row[5:])
            if adaptive and (hit is None or i < end):
                estimate(i * ENGINE_DT, tick, KinematicState(*ego_row))
    collision = None if hit is None else (hit[0] * ENGINE_DT, hit[1])

    trace = None
    if record:
        metadata = {
            "name": script.name,
            "ego_speed": script.ego_speed,
            "seed": seed,
            "collision_radius": collision_radius,
            "script": script_to_dict(script),
        }
        if frame_rate is not None:
            metadata["fpr0"] = frame_rate
        times = [k * ENGINE_DT for k in range(len(rows))]
        trace = ScenarioTrace._from_block(
            ENGINE_DT, cameras, metadata, world.actor_ids, times, rows
        )

    return RunResult(
        script=script,
        trace=trace,
        collision=collision,
        brake_time=brake_at,
        alarms=alarms,
        camera_log=camera_log,
        allocations=allocations,
    )
