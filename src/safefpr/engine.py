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
into a list of ticks, each holding its states as one row of floats.
``_run`` replays that list with one frame schedule, stops at a collision,
and steps its own ego only once the brakes engage; a recording run hands
its rows to the trace. A lone run builds its own world; the MRF scan
(``oracle.scenario_mrf``) runs every rate against one. A frame can change
only the count of an actor that is dangerous or already counting, so
``_run`` tests FOV membership (``in_fov``) for those actors alone; only
that test and adaptive estimation build ``KinematicState``s.

Each tick of the world also holds the cruising ego's nearest distance to
an actor. Until its brakes engage, a run tests the actors one by one, in
the script's order, only on the ticks where that distance is below the
collision radius; after that, on every tick. A braking tick builds the
braking ego's row, until the ego stands still, when it keeps the last one;
only a recording run joins that row to the actors' for its trace.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

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
    """Road-frame actor state driven by scripted events."""

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


class _Ego:
    """Road-frame ego: cruises at its speed, or brakes to a stop once ``braking``."""

    def __init__(self, s: float, lane: float, speed: float, brake_decel: float, braking: bool):
        self.s = s
        self.lane = lane
        self.v = speed
        self.a = 0.0
        self.brake_decel = brake_decel
        self.braking = braking

    def advance(self, dt: float) -> None:
        v0 = self.v
        if self.braking and self.v > 0.0:
            self.v = max(0.0, self.v - self.brake_decel * dt)
            self.a = -self.brake_decel if self.v > 0.0 else 0.0
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


def _state_row(road, body: _Ego | _Actor) -> list[float]:
    """x, y, v, a and heading of a road-frame body; one that breaks
    ``KinematicState``'s rules raises the ValueError the state raises."""
    x, y, heading = road.to_world(body.s, road.lane_offset(body.lane))
    row = [x, y, body.v, body.a, heading]
    if not (math.isfinite(sum(row)) and body.v >= 0.0):  # rare: the state decides
        KinematicState(*row)
    return row


def _dangerous(ego: _Ego, actor: _Actor, road, params: ModelParams) -> bool:
    """Kinematic brake trigger for one same-lane-ahead actor, from road-frame states."""
    ego_s, ego_lane, ego_v = ego.s, ego.lane, ego.v
    s, lane, v = actor.s, actor.lane, actor.v
    if s <= ego_s:
        return False
    lateral = abs(road.lane_offset(lane) - road.lane_offset(ego_lane))
    if lateral > road.lane_width * LANE_CLAIM_FRACTION:
        return False
    gap = s - ego_s - STANDSTILL_GAP
    decel = braking_decel(0.0, params)
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
    nearest: float                             # least cruising-ego-to-actor distance, inf if none
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

    Actors follow only their scripted events, and the ego cruises the same
    path until a run engages its brakes, so every run of a script meets the
    same world until then. The constructor simulates every tick of the
    script's duration into ``ticks``, which runs read and never change.
    """

    def __init__(self, script: ScenarioScript, params: ModelParams):
        self.script = script
        self.params = params
        road = script.road
        self._ego = ego = _Ego(
            0.0, float(script.ego_lane), script.ego_speed, braking_decel(0.0, params),
            braking=False,
        )
        actors = [_Actor(a) for a in script.actors]
        ordered = sorted(actors, key=lambda a: a.actor_id)
        self.actor_ids = tuple(a.actor_id for a in ordered)  # their order in each row
        starts = {a.actor_id: 5 * (1 + self.actor_ids.index(a.actor_id)) for a in actors}
        self.ticks: list[_Tick] = []
        for i in range(int(round(script.duration / ENGINE_DT)) + 1):
            if i:
                ego.advance(ENGINE_DT)
                for actor in actors:  # i * ENGINE_DT can round differently
                    actor.advance((i - 1) * ENGINE_DT + ENGINE_DT, ENGINE_DT)
            row = [f for body in (ego, *ordered) for f in _state_row(road, body)]
            x, y = row[0], row[1]  # ``_run``'s collision test, on the cruising ego
            self.ticks.append(_Tick(
                ego.s,
                row,
                starts,
                frozenset(a.actor_id for a in actors if _dangerous(ego, a, road, params)),
                min((math.hypot(row[j] - x, row[j + 1] - y) for j in starts.values()),
                    default=math.inf),
            ))

    def braking_ego(self, tick: _Tick) -> _Ego:
        """The cruising ego at ``tick``, with its brakes engaged."""
        ego = self._ego
        return _Ego(tick.ego_s, ego.lane, ego.v, ego.brake_decel, braking=True)


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
    over ``DEFAULT_CAMERA_RIG``.
    """
    if (frame_rate is None) == (not adaptive):
        raise ValueError("pass either frame_rate or adaptive=True")
    if budget is not None and not adaptive:
        raise ValueError("budget needs adaptive=True; a fixed frame_rate is never allocated")
    within("collision_radius", collision_radius, 0.0)
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
    confirmations, when the brakes engage, the braking ego from then on,
    the collision test and, in adaptive mode, estimation and allocation.
    Until its brakes engage the ego is the world's cruising ego.
    """
    script, params = world.script, world.params
    road = script.road
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

    rows: list[list[float]] = []   # per recorded tick: the ego's and the actors' rows
    alarms: list[tuple[float, AlarmEvent]] = []
    camera_log: list[dict[str, FprReport]] = []
    allocations: list[tuple[float, dict[str, float]]] = []
    collision: tuple[float, str] | None = None
    brake_at: float | None = None   # scheduled engage time
    braking: _Ego | None = None     # the ego once its brakes have engaged
    stopped: list[float] | None = None  # its row once it stands still, which it then keeps

    for i, tick in enumerate(world.ticks):
        t = i * ENGINE_DT
        # The cruising ego is tested for a collision only on the ticks whose
        # nearest actor is within the radius, a braking one on every tick.
        # A braking ego that has stopped keeps its row.
        if braking is None:
            ego_row = tick.row
            if record:
                rows.append(ego_row)
            near = tick.nearest < collision_radius
        else:
            ego_row = stopped or _state_row(road, braking)
            if not (ego_row[2] or ego_row[3]):  # v and a are 0: no later tick moves it
                stopped = ego_row
            if record:
                rows.append(ego_row + tick.row[5:])
            near = True
        if near:
            tick_row = tick.row
            ego_x, ego_y = ego_row[0], ego_row[1]
            for aid, j in tick.starts.items():
                if math.hypot(tick_row[j] - ego_x, tick_row[j + 1] - ego_y) < collision_radius:
                    collision = (t, aid)
                    break
            if collision:
                break

        if adaptive:
            # reference latency for estimation stays at the provisioned
            # capability; tying it to the allocated rates feeds the estimate
            # back into itself and oscillates
            l0 = 1.0 / cap_fpr
            trajs = {
                aid: predict_trajectories(st, PREDICTOR) for aid, st in tick.actors.items()
            }
            ego_world = tick.ego if braking is None else KinematicState(*ego_row)
            _, reports = evaluate_scene(ego_world, trajs, cameras, l0, fixed_params)
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

        # process camera frames that came due this tick, in rig order: the
        # first camera to confirm sets the processing latency. A frame adds
        # one to the count of a dangerous actor in view and resets that of a
        # harmless one, so only the actors that are dangerous or already
        # counting need a FOV test, and which of them confirms does not
        # matter. Until the brakes are scheduled the ego is the cruising one;
        # after that no frame changes the run.
        dangerous = tick.dangerous
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

        if braking is None and brake_at is not None and t + ENGINE_DT >= brake_at:
            braking = world.braking_ego(tick)
        if braking is not None:
            braking.advance(ENGINE_DT)

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
