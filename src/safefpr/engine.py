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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .geometry import DEFAULT_CAMERA_RIG, fov_members
from .model import FprReport, braking_decel, evaluate_scene
from .predictor import PredictorConfig, predict_trajectories
from .scenarios import ActorScript, ScenarioScript, script_to_dict
from .scheduler import AlarmEvent, Budget, allocate, safety_check
from .trace import ScenarioTrace, TickRecord
from .types import KinematicState, L0_FIXED, ModelParams

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
    def __init__(self, lane: int, speed: float, brake_decel: float):
        self.s = 0.0
        self.lane = float(lane)
        self.v = speed
        self.a = 0.0
        self.brake_decel = brake_decel
        self.braking = False
        self.brake_at: float | None = None  # scheduled engage time

    def advance(self, t: float, dt: float) -> None:
        if self.brake_at is not None and t >= self.brake_at:
            self.braking = True
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


def _world_state(road, s: float, lane: float, v: float, a: float) -> KinematicState:
    x, y, heading = road.to_world(s, road.lane_offset(lane))
    return KinematicState(x=x, y=y, v=v, a=a, heading=heading)


def _dangerous(ego: _Ego, actor: _Actor, road, params: ModelParams) -> bool:
    """Kinematic brake trigger for one same-lane-ahead actor."""
    if actor.s <= ego.s:
        return False
    lateral = abs(road.lane_offset(actor.lane) - road.lane_offset(ego.lane))
    if lateral > road.lane_width * LANE_CLAIM_FRACTION:
        return False
    gap = actor.s - ego.s - STANDSTILL_GAP
    decel = braking_decel(0.0, params)
    if ego.v > actor.v:
        need = (ego.v * ego.v - actor.v * actor.v) / (2.0 * decel) / params.distance_margin
    else:
        need = 0.0
    need += ego.v * CRUISE_HEADWAY
    return gap < need


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
    estimates (through the budget allocator when a budget is given). The
    run steps ``ENGINE_DT`` ticks over ``DEFAULT_CAMERA_RIG``.
    """
    if (frame_rate is None) == (not adaptive):
        raise ValueError("pass either frame_rate or adaptive=True")
    if not 0.0 <= collision_radius < math.inf:
        raise ValueError(f"collision_radius must be finite and >= 0, got {collision_radius}")
    floor_fpr, cap_fpr = params.fpr_bounds()
    if frame_rate is not None and not floor_fpr <= frame_rate <= cap_fpr:
        raise ValueError(f"frame_rate must be within [{floor_fpr}, {cap_fpr}]")

    road = script.road
    ego = _Ego(script.ego_lane, script.ego_speed, braking_decel(0.0, params))
    actors = [_Actor(a) for a in script.actors]
    fixed_params = params.replace(l0_policy=L0_FIXED)
    cameras = DEFAULT_CAMERA_RIG

    rng = random.Random(seed)
    rates = {c.camera_id: (frame_rate if frame_rate is not None else cap_fpr) for c in cameras}
    next_frame = {
        c.camera_id: rng.uniform(0.0, 1.0 / rates[c.camera_id]) if seed else 0.0
        for c in cameras
    }
    confirm_count: dict[tuple[str, str], int] = {}
    need_frames = max(1, params.confirmation_frames)

    ticks: list[TickRecord] = []
    alarms: list[tuple[float, AlarmEvent]] = []
    camera_log: list[dict[str, FprReport]] = []
    allocations: list[tuple[float, dict[str, float]]] = []
    collision: tuple[float, str] | None = None

    n_ticks = int(round(script.duration / ENGINE_DT))
    for i in range(n_ticks + 1):
        t = i * ENGINE_DT
        ego_world = _world_state(road, ego.s, ego.lane, ego.v, ego.a)
        actor_world = {
            a.actor_id: _world_state(road, a.s, a.lane, a.v, a.a) for a in actors
        }

        if record:
            ticks.append(TickRecord(t=t, ego=ego_world, actors=dict(actor_world)))

        for aid, st in actor_world.items():
            if math.hypot(st.x - ego_world.x, st.y - ego_world.y) < collision_radius:
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
                aid: predict_trajectories(st, PREDICTOR) for aid, st in actor_world.items()
            }
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
                rates = required  # camera_fpr keeps every rate within fpr_bounds()
            if record:
                camera_log.append(reports)
                allocations.append((t, dict(rates)))

        # process camera frames that came due this tick; what each camera
        # sees, and which actors are dangerous, holds for the whole tick
        due = [c.camera_id for c in cameras if next_frame[c.camera_id] <= t]
        if due and ego.brake_at is None:
            positions = {aid: (st.x, st.y) for aid, st in actor_world.items()}
            members = fov_members(ego_world, positions, cameras)
            danger = {a.actor_id: _dangerous(ego, a, road, params) for a in actors}
        for cid in due:
            while next_frame[cid] <= t:
                next_frame[cid] += 1.0 / rates[cid]
                if ego.brake_at is not None:
                    continue
                for aid in members[cid]:
                    key = (cid, aid)
                    count = confirm_count.get(key, 0) + 1 if danger[aid] else 0
                    confirm_count[key] = count
                    if count >= need_frames:
                        ego.brake_at = t + 1.0 / rates[cid]  # processing latency
                        break

        ego.advance(t + ENGINE_DT, ENGINE_DT)
        for actor in actors:
            actor.advance(t + ENGINE_DT, ENGINE_DT)

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
        trace = ScenarioTrace(
            dt=ENGINE_DT, ticks=tuple(ticks), cameras=cameras, metadata=metadata
        )

    return RunResult(
        script=script,
        trace=trace,
        collision=collision,
        brake_time=ego.brake_at,
        alarms=alarms,
        camera_log=camera_log,
        allocations=allocations,
    )
