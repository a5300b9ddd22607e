"""Brute-force validation of the latency search.

Everything here deliberately avoids the iterative probe-time update: the
scan walks an exhaustive fine time grid and the ego motion is integrated
from its piecewise-linear velocity profile rather than taken from the
closed-form distances, so agreement with the fast search is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import braking_decel, reaction_time, resolve_l0
from .types import KinematicState, ModelParams, Trajectory

# Sub-physical slack absorbing float disagreement between the scan's
# integrated motion and the closed-form search. Strictly looser than the
# search's own accept guard so rounding can never flip a verdict the search
# already accepted; still far below any real margin.
FLOAT_SLACK = 1e-8


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of the exhaustive latency scan for one actor."""

    feasible: bool
    best_latency: float | None
    probe_time: float | None = None


def _velocity_knots(
    v0: float, a0: float, t_react: float, decel: float, t_end: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot times, speeds and cumulative distances of the ego speed profile.

    The profile holds a0 until t_react then brakes at ``decel``; speed is
    clamped at zero. Between knots the speed is linear, so trapezoid areas
    between knots integrate the distance exactly.
    """
    knots = [0.0]
    if a0 < 0.0:
        t_stop1 = v0 / -a0
        if 0.0 < t_stop1 < t_react:
            knots.append(t_stop1)
    knots.append(t_react)
    vr = max(0.0, v0 + a0 * t_react) if a0 < 0.0 else v0 + a0 * t_react
    t_stop2 = t_react + vr / decel
    if t_react < t_stop2 < t_end:
        knots.append(t_stop2)
    if t_end > knots[-1]:
        knots.append(t_end)
    t = np.array(sorted(set(knots)))

    v = np.empty_like(t)
    hold = t <= t_react
    if a0 < 0.0:
        v[hold] = np.maximum(0.0, v0 + a0 * t[hold])
    else:
        v[hold] = v0 + a0 * t[hold]
    # anchor the braking ramp at the stop time so the speed is exactly zero
    # there (and beyond), not zero plus rounding noise
    v[~hold] = np.maximum(0.0, decel * (t_stop2 - t[~hold]))

    d = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))))
    return t, v, d


def _ego_at(
    times: np.ndarray, v0: float, a0: float, t_react: float, decel: float
) -> tuple[np.ndarray, np.ndarray]:
    """(distance, speed) arrays at ``times`` from knot-based integration."""
    t_end = float(times[-1]) if len(times) else t_react
    kt, kv, kd = _velocity_knots(v0, a0, t_react, decel, t_end + 1.0)
    v = np.interp(times, kt, kv)
    idx = np.clip(np.searchsorted(kt, times, side="right") - 1, 0, len(kt) - 1)
    d = kd[idx] + 0.5 * (kv[idx] + v) * (times - kt[idx])
    return d, v


def _speed_crossings(
    traj: Trajectory,
    vr: float,
    t_react: float,
    decel: float,
    speed_margin: float,
    horizon: float,
) -> list[float]:
    """Times where the braking ego's speed meets the discounted actor speed.

    One candidate per trajectory segment (actor speed is linear inside a
    segment, held constant beyond the last sample). Adding these to the scan
    grid removes grid-width misses exactly at the speed boundary.
    """
    ts, _, _, vs = traj.columns()
    out = []
    seg_bounds = list(zip(ts[:-1], ts[1:], vs[:-1], vs[1:])) + [
        (ts[-1], horizon, vs[-1], vs[-1])
    ]
    for t0, t1, va0, va1 in seg_bounds:
        if t1 <= t_react or t1 <= t0:
            continue
        slope = (va1 - va0) / (t1 - t0)
        denom = decel + speed_margin * slope
        if abs(denom) < 1e-12:
            continue
        t = (vr + decel * t_react - speed_margin * (va0 - slope * t0)) / denom
        if max(t0, t_react) <= t <= min(t1, horizon):
            out.append(float(t))
    return out


def _scan_grid(
    traj: Trajectory,
    t_react: float,
    vr: float,
    decel: float,
    params: ModelParams,
) -> np.ndarray:
    horizon = params.horizon
    if t_react > horizon:
        return np.empty(0)
    base = np.arange(t_react, horizon, params.fine_dt)
    extras = [horizon, t_react + vr / decel]
    ts = traj.columns()[0]
    extras.extend(float(t) for t in ts if t_react <= t <= horizon)
    extras.extend(
        _speed_crossings(traj, vr, t_react, decel, params.speed_margin, horizon)
    )
    grid = np.unique(np.concatenate([base, np.asarray(extras)]))
    return grid[(grid >= t_react) & (grid <= horizon)]


def feasible_latency_scan(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    latency: float,
    params: ModelParams,
    return_witness: bool = False,
) -> bool | tuple[bool, float | None]:
    """Exhaustively test one latency over the probe-time grid.

    True iff some probe time between the reaction time and the horizon
    satisfies both safety constraints. ``latency`` may be 0 to probe the
    zero-latency limit of a scenario.
    """
    if latency < 0.0:
        raise ValueError("latency must be >= 0")
    l0_eff = resolve_l0(latency, l0, params)
    t_react = reaction_time(latency, l0_eff, params)
    decel = braking_decel(ego0.a, params)
    if ego0.a < 0.0:
        vr = max(0.0, ego0.v + ego0.a * t_react)
    else:
        vr = ego0.v + ego0.a * t_react

    grid = _scan_grid(traj, t_react, vr, decel, params)
    if len(grid) == 0:
        return (False, None) if return_witness else False

    d, ve = _ego_at(grid, ego0.v, ego0.a, t_react, decel)
    ts, xs, ys, vs = traj.columns()
    ax = np.interp(grid, ts, xs)
    ay = np.interp(grid, ts, ys)
    av = np.interp(grid, ts, vs)
    sep = np.hypot(ax - ego0.x, ay - ego0.y)
    ok = (params.distance_margin * sep - d >= -FLOAT_SLACK) & (
        ve <= params.speed_margin * av + FLOAT_SLACK
    )
    if not return_witness:
        return bool(ok.any())
    if ok.any():
        return True, float(grid[int(np.argmax(ok))])
    return False, None


def oracle_best_latency(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    params: ModelParams,
) -> OracleVerdict:
    """Largest grid latency that passes the exhaustive scan."""
    for latency in params.latency_grid:
        ok, witness = feasible_latency_scan(ego0, traj, l0, latency, params, return_witness=True)
        if ok:
            return OracleVerdict(feasible=True, best_latency=latency, probe_time=witness)
    return OracleVerdict(feasible=False, best_latency=None)


def collision_check(
    ego0: KinematicState,
    traj: Trajectory,
    latency: float,
    l0: float,
    params: ModelParams,
    collision_radius: float = 0.0,
) -> bool:
    """Simulate the full hold-then-brake maneuver and look for a collision.

    The ego travels along its heading ray; at every fine-grid instant the
    interpolated actor position is compared against the ego position. True
    means the separation dropped below ``collision_radius`` somewhere within
    the horizon.
    """
    if not 0.0 <= collision_radius < math.inf:
        raise ValueError(f"collision_radius must be finite and >= 0, got {collision_radius}")
    l0_eff = resolve_l0(latency, l0, params)
    t_react = reaction_time(latency, l0_eff, params)
    decel = braking_decel(ego0.a, params)

    grid = np.arange(0.0, params.horizon, params.fine_dt)
    grid = np.unique(np.concatenate([grid, [t_react, params.horizon]]))
    d, _ = _ego_at(grid, ego0.v, ego0.a, t_react, decel)
    ex = ego0.x + d * math.cos(ego0.heading)
    ey = ego0.y + d * math.sin(ego0.heading)

    ts, xs, ys, _ = traj.columns()
    ax = np.interp(grid, ts, xs)
    ay = np.interp(grid, ts, ys)
    sep = np.hypot(ax - ex, ay - ey)
    return bool((sep < collision_radius).any())


def mrf_rates(params: ModelParams) -> range:
    """The integer frame rates within ``params.fpr_bounds()``, fastest first.

    Raises ValueError naming the bounds when no integer rate lies in them.
    """
    floor, cap = params.fpr_bounds()
    rates = range(math.floor(cap), math.ceil(floor) - 1, -1)
    if not rates:
        raise ValueError(f"no integer frame rate within [{floor:g}, {cap:g}] Hz")
    return rates


def scenario_mrf(script, params: ModelParams, collision_radius: float = 2.0) -> int | None:
    """Smallest fixed frame rate at and above which the closed loop is safe.

    Runs the scenario (seed 0) at each of ``mrf_rates(params)``, fastest
    first, and stops at the first rate that collides. Returns the slowest
    rate that ran clean, or None when even the fastest rate collides.
    ``collision_radius`` must be finite and >= 0.
    """
    from .engine import run_scenario  # engine imports the model, not the oracle

    safe = None
    for rate in mrf_rates(params):
        result = run_scenario(
            script,
            params,
            frame_rate=float(rate),
            collision_radius=collision_radius,
            record=False,
        )
        if result.collision is not None:
            break
        safe = rate
    return safe
