"""Brute-force validation of the latency search.

Everything here deliberately avoids the iterative probe-time update and the
search's closed-form distances: for each latency the scan walks an
exhaustive fine time grid (``fine_dt`` steps from the reaction time to the
horizon, plus the stop time, the trajectory's sample times and the speed
crossings) and integrates the ego motion from its piecewise-linear velocity
profile, so agreement with the fast search is meaningful. The witness is the
earliest grid point where both constraints hold. The first ``HEAD`` points
are evaluated first and the rest only when none of them holds, in blocks of
``BLOCK`` points. A block is skipped when ``_block_rejects`` proves that no
point of it passes both tests: the actor moves no faster than its fastest
segment between samples and the ego's distance never falls, which bounds
the distance margin from the block's first point, and the braking ego's
speed never rises while the actor's is linear between samples, which
bounds the speed excess from its last point and the samples inside. The
other blocks' points are evaluated, the distance test at each and the
speed test where distance holds. So every grid point of a rejected latency
is evaluated or bounded, and the witness is the one that evaluating every
point finds.

``oracle_best_latency`` scans the latency grid from the largest latency
down and stops at the first witness, but once the largest is rejected it
proves some latencies rejected instead of scanning them. A larger latency
reacts no earlier (under either l0 policy), and braking is never gentler
than the held acceleration (``braking_decel(a0) >= -a0``), so at every time
its ego is no slower and has gone no shorter a distance. So the bound,
rejecting every block of [t_react(L), horizon] under L, rejects every
latency >= L as well, whose grids lie inside that interval. The latencies
left unscanned are those at and above a proved one, all rejected by the
scan, and every latency that is scanned runs the same scan, so each verdict
and witness is the one the plain descending scan gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import braking_decel, reaction_time, resolve_l0
from .types import KinematicState, ModelParams, Trajectory, within

# Sub-physical slack absorbing float disagreement between the scan's
# integrated motion and the closed-form search. Strictly looser than the
# search's own accept guard so rounding can never flip a verdict the search
# already accepted; still far below any real margin.
FLOAT_SLACK = 1e-8

# Grid points evaluated before the rest of a latency's grid. Most witnesses
# lie near the reaction time (on the validation corpus over half at the first
# point and about 83% within the first 256), so most feasible scans stop here.
HEAD = 256

# Tail points per block; a block is skipped whole when ``_block_rejects``
# proves that no point of it passes both tests.
BLOCK = 32


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of the exhaustive latency scan for one actor."""

    feasible: bool
    best_latency: float | None
    probe_time: float | None = None


def _velocity_knots(
    v0: float, a0: float, t_react: float, decel: float, t_end: float
) -> tuple[list[float], list[float], list[float]]:
    """Knot times, speeds and cumulative distances of the ego speed profile.

    The profile holds a0 until t_react then brakes at ``decel``; speed is
    clamped at zero. Between knots the speed is linear, so trapezoid areas
    between knots integrate the distance exactly; they are summed left to
    right.
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
    t = sorted(set(knots))

    # anchor the braking ramp at the stop time so the speed is exactly zero
    # there (and beyond), not zero plus rounding noise
    v = []
    for tk in t:
        if tk > t_react:
            v.append(max(0.0, decel * (t_stop2 - tk)))
        elif a0 < 0.0:
            v.append(max(0.0, v0 + a0 * tk))
        else:
            v.append(v0 + a0 * tk)
    areas = (0.5 * (v[i] + v[i - 1]) * (t[i] - t[i - 1]) for i in range(1, len(t)))
    return t, v, [0.0, *accumulate(areas)]


def _ego_at(
    times: np.ndarray, knots: tuple[list[float], list[float], list[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """(distance, speed) arrays at the sorted ``times`` from knot-based integration.

    Each knot interval's times are one slice, so a time's result does not
    depend on the other times passed with it.
    """
    kt, kv, kd = knots
    v = np.interp(times, kt, kv)
    d = np.empty_like(v)
    # times before the first knot (there are none: it is 0) count to the first interval
    bounds = [0, *times.searchsorted(kt[1:]).tolist(), len(times)]
    for k in range(len(kt)):
        lo, hi = bounds[k], bounds[k + 1]
        if lo < hi:
            # kd + 0.5 * (kv + v) * (t - kt), evaluated in place
            part = np.add(v[lo:hi], kv[k], out=d[lo:hi])
            part *= 0.5
            part *= times[lo:hi] - kt[k]
            part += kd[k]
    return d, v


def _speed_crossings(
    ts: list[float],
    vs: list[float],
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
            out.append(t)
    return out


def _merge(base: np.ndarray, extras: list[float]) -> np.ndarray:
    """``np.unique`` of the strictly increasing ``base`` and the sorted, distinct ``extras``.

    Extras equal to a base point are dropped and the rest spliced in place,
    so the few extras are never sorted together with the many base points.
    """
    pieces, start = [], 0
    for at, t in zip(base.searchsorted(extras).tolist(), extras):
        if at < len(base) and base[at] == t:
            continue
        pieces += (base[start:at], (t,))
        start = at
    pieces.append(base[start:])
    return np.concatenate(pieces)


def _scan_grid(
    ts: list[float],
    vs: list[float],
    t_react: float,
    vr: float,
    decel: float,
    params: ModelParams,
) -> np.ndarray:
    """The sorted distinct probe times in [t_react, horizon] of one latency's scan."""
    horizon = params.horizon
    if t_react > horizon:
        return np.empty(0)
    base = np.arange(t_react, horizon, params.fine_dt)
    # the last step may round past the horizon
    base = base[: base.searchsorted(horizon, side="right")]
    extras = [horizon, t_react + vr / decel, *ts]
    extras.extend(_speed_crossings(ts, vs, vr, t_react, decel, params.speed_margin, horizon))
    return _merge(base, sorted({t for t in extras if t_react <= t <= horizon}))


def _fastest(traj: Trajectory) -> float:
    """The actor's fastest segment speed, from its positions: a reported
    speed need not be the actor's motion. It may be inf or NaN."""
    ts, xs, ys, _ = traj.columns()
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.hypot(xs[1:] - xs[:-1], ys[1:] - ys[:-1]) / (ts[1:] - ts[:-1])).max(initial=0.0)


def _block_rejects(
    ego0: KinematicState,
    traj: Trajectory,
    firsts: np.ndarray,
    ends: np.ndarray,
    knots: tuple[list[float], list[float], list[float]],
    decel: float,
    params: ModelParams,
    w: float | None = None,
) -> np.ndarray:
    """Per block [first, end]: True where a bound proves no time in it passes both tests.

    The blocks are contiguous and lie at or after the reaction time of the
    motion ``knots`` profiles, braking at ``decel``. Distance: the actor
    moves at most w m/s (``_fastest(traj)``, computed if not given) and the
    ego's distance never falls, so no time has a distance margin above
    margin * (sep(first) + w * span) - d(first). Speed: the ego's speed
    never rises and the actor's is linear between samples, so no time has a
    speed excess below ve(end) - margin * (the actor's largest speed at
    either end or at a sample inside). A bound rejects its block when it
    fails its test by more than a tolerance far above rounding; a NaN or
    inf bound does not. The speed half is skipped when distance rejects all.
    """
    ts, xs, ys, vs = traj.columns()
    if w is None:
        w = _fastest(traj)
    d = _ego_at(firsts, knots)[0]
    reach = np.hypot(np.interp(firsts, ts, xs) - ego0.x, np.interp(firsts, ts, ys) - ego0.y)
    with np.errstate(over="ignore", invalid="ignore"):
        reach += w * (ends - firsts)
        tol = 1e-6 * (1.0 + abs(ego0.x) + abs(ego0.y) + reach + d)
        rejected = params.distance_margin * reach - d < -FLOAT_SLACK - tol
    if rejected.all():
        return rejected
    fastest = np.maximum(np.interp(firsts, ts, vs), np.interp(ends, ts, vs))
    inside = (ts > firsts[0]) & (ts < ends[-1])
    np.maximum.at(fastest, firsts.searchsorted(ts[inside], side="right") - 1, vs[inside])
    ve = np.interp(ends, knots[0], knots[1])
    tol = 1e-6 * (1.0 + ego0.v + (decel + abs(ego0.a)) * params.horizon + params.speed_margin * vs.max())
    rejected |= ve - params.speed_margin * fastest > FLOAT_SLACK + tol
    return rejected


def _earliest_probe(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    latency: float,
    params: ModelParams,
    w: float | None = None,
) -> float | None:
    """The earliest scan-grid probe time at which both constraints hold, or None.

    The arguments are not checked: ``latency`` must be finite and >= 0 and
    ``l0`` must pass ``ModelParams.check_l0``. ``w`` is ``_fastest(traj)``,
    computed here if not given and the tail needs it.
    """
    l0_eff = resolve_l0(latency, l0, params)
    t_react = reaction_time(latency, l0_eff, params)
    decel = braking_decel(ego0.a, params)
    if ego0.a < 0.0:
        vr = max(0.0, ego0.v + ego0.a * t_react)
    else:
        vr = ego0.v + ego0.a * t_react

    ts, xs, ys, vs = traj.columns()
    grid = _scan_grid(ts.tolist(), vs.tolist(), t_react, vr, decel, params)
    if len(grid) == 0:
        return None
    knots = _velocity_knots(ego0.v, ego0.a, t_react, decel, float(grid[-1]) + 1.0)
    head, tail = grid[:HEAD], grid[HEAD:]
    d, ve = _ego_at(head, knots)
    sep = np.hypot(np.interp(head, ts, xs) - ego0.x, np.interp(head, ts, ys) - ego0.y)
    ok = (params.distance_margin * sep - d >= -FLOAT_SLACK) & (
        ve <= params.speed_margin * np.interp(head, ts, vs) + FLOAT_SLACK
    )
    if ok.any():
        return float(head[ok.argmax()])
    # The tail in blocks of BLOCK points, each bounded from its first point
    # up to the next block's first point (the last point, for the last
    # block); a block the bound rejects cannot hold the witness and is
    # skipped.
    firsts = tail[::BLOCK]
    ends = np.concatenate((firsts[1:], tail[-1:]))
    keep = ~_block_rejects(ego0, traj, firsts, ends, knots, decel, params, w)
    if not keep.any():
        return None
    if not keep.all():
        tail = tail[np.repeat(keep, BLOCK)[: len(tail)]]
    # The kept points, in place: the distance test at every point, and the
    # ego's and the actor's speeds read and tested only where distance
    # holds. The floats are the head's expressions, point by point; the
    # ego's speed is the one _ego_at interpolates.
    d = _ego_at(tail, knots)[0]
    gap = np.interp(tail, ts, xs)
    gap -= ego0.x
    dy = np.interp(tail, ts, ys)
    dy -= ego0.y
    np.hypot(gap, dy, out=gap)
    del dy
    gap *= params.distance_margin
    gap -= d
    del d
    near = gap >= -FLOAT_SLACK
    del gap
    at = tail[near]
    del near
    ve = np.interp(at, knots[0], knots[1])
    va = np.interp(at, ts, vs)
    va *= params.speed_margin
    va += FLOAT_SLACK
    ok = ve <= va
    if ok.any():
        return float(at[ok.argmax()])
    return None


def feasible_latency_scan(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    latency: float,
    params: ModelParams,
) -> bool:
    """Exhaustively test one latency over the probe-time grid.

    True iff some probe time between the reaction time and the horizon
    satisfies both safety constraints. ``latency`` may be 0 to probe the
    zero-latency limit of a scenario; it must be finite and >= 0, and ``l0``
    must pass ``ModelParams.check_l0``.
    """
    within("latency", latency, 0.0)
    params.check_l0(l0)
    return _earliest_probe(ego0, traj, l0, latency, params) is not None


def _rejects_from(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    latency: float,
    params: ModelParams,
    w: float | None = None,
) -> bool:
    """True when a bound proves that the scan rejects ``latency`` and every larger one.

    ``_block_rejects`` must reject every block of [t_react, horizon], in
    blocks ``BLOCK`` scan steps long, the last ending at the horizon; by the
    lemma in the module docstring that rejects every larger latency too. A
    reaction at or past the horizon proves nothing. ``w`` is
    ``_fastest(traj)``, computed here if not given.
    """
    t_react = reaction_time(latency, resolve_l0(latency, l0, params), params)
    horizon = params.horizon
    if not t_react < horizon:
        return False
    decel = braking_decel(ego0.a, params)
    firsts = np.arange(t_react, horizon, BLOCK * params.fine_dt)
    # the last step may round past the horizon
    firsts = firsts[: firsts.searchsorted(horizon)]
    ends = np.append(firsts[1:], horizon)
    knots = _velocity_knots(ego0.v, ego0.a, t_react, decel, horizon + 1.0)
    return bool(_block_rejects(ego0, traj, firsts, ends, knots, decel, params, w).all())


def oracle_best_latency(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    params: ModelParams,
) -> OracleVerdict:
    """Largest grid latency that passes the exhaustive scan (``l0`` checked once).

    The verdict is that of scanning the grid in descending order and
    stopping at the first latency with a witness. When the largest latency
    is rejected, latencies are proved rejected instead of scanned: a proof
    by ``_rejects_from`` at one latency covers it and every larger one. It
    is tried at the smallest latency, whose proof ends the search with the
    infeasible verdict, and otherwise a bisection of the grid looks for the
    smallest latency it proves. The descending scan resumes just below
    that one, so every latency left unscanned is one the scan rejects, and
    the verdict and its witness are the plain scan's. Once the largest
    latency is rejected, the actor's ``_fastest`` speed is computed once
    and handed to every later bound and scan.
    """
    params.check_l0(l0)
    grid = params.latency_grid
    witness = _earliest_probe(ego0, traj, l0, grid[0], params)
    if witness is not None:
        return OracleVerdict(feasible=True, best_latency=grid[0], probe_time=witness)
    w = _fastest(traj)
    # grid[:lo + 1] is rejected; grid[hi] is not proved
    lo, hi = 0, len(grid) - 1
    if hi and _rejects_from(ego0, traj, l0, grid[hi], params, w):
        lo = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rejects_from(ego0, traj, l0, grid[mid], params, w):
            lo = mid
        else:
            hi = mid
    for latency in grid[lo + 1 :]:
        witness = _earliest_probe(ego0, traj, l0, latency, params, w)
        if witness is not None:
            return OracleVerdict(feasible=True, best_latency=latency, probe_time=witness)
    return OracleVerdict(feasible=False, best_latency=None)


def collision_check(
    ego0: KinematicState,
    traj: Trajectory,
    latency: float,
    l0: float,
    params: ModelParams,
    collision_radius: float,
) -> bool:
    """Simulate the full hold-then-brake maneuver and look for a collision.

    The ego travels along its heading ray; at every fine-grid instant the
    interpolated actor position is compared against the ego position. True
    means the separation dropped below ``collision_radius`` somewhere within
    the horizon. ``latency`` and ``collision_radius`` must be finite and
    >= 0. The radius has no default: no separation is below 0.0, so at that
    radius no call finds a collision.
    """
    within("latency", latency, 0.0)
    params.check_l0(l0)
    within("collision_radius", collision_radius, 0.0)
    l0_eff = resolve_l0(latency, l0, params)
    t_react = reaction_time(latency, l0_eff, params)
    decel = braking_decel(ego0.a, params)

    # a reaction past the horizon is not simulated, as in the scan's grid
    extras = sorted({t for t in (t_react, params.horizon) if t <= params.horizon})
    grid = _merge(np.arange(0.0, params.horizon, params.fine_dt), extras)
    knots = _velocity_knots(ego0.v, ego0.a, t_react, decel, float(grid[-1]) + 1.0)
    d, _ = _ego_at(grid, knots)
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
    ``collision_radius`` must be finite and >= 0. The scripted world is
    simulated once; each rate replays only its frame schedule against it,
    jumping over the ticks where no frame can change a count with the same
    frame additions, and reads its outcome from the tick its brakes engage:
    ``engine._World.hit``, memoised per world, gives the first collision of
    the cruising ego and of the ego braking from that tick.
    """
    from . import engine  # engine imports the model, not the oracle

    rates = mrf_rates(params)
    within("collision_radius", collision_radius, 0.0)
    world = engine._World(script, params)
    safe = None
    for rate in rates:
        result = engine._run(
            world,
            frame_rate=float(rate),
            adaptive=False,
            budget=None,
            collision_radius=collision_radius,
            seed=0,
            record=False,
        )
        if result.collision is not None:
            break
        safe = rate
    return safe
