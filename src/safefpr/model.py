"""Tolerable-latency search and per-camera frame-processing-rate estimation.

The per-actor question answered here: what is the largest per-frame
processing latency the ego could run at and still avoid this actor by hard
braking after it has perceived and confirmed it? The reciprocal of the
answer, minimized over the actors inside a camera's field of view, is that
camera's required frame-processing rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .geometry import fov_members
from .types import (
    INFEASIBLE,
    L0_CANDIDATE,
    BrakingProfile,
    KinematicState,
    LatencyEstimate,
    ModelParams,
    Trajectory,
)


def braking_decel(a0: float, params: ModelParams) -> float:
    """Hard-braking deceleration magnitude available to the ego.

    Only an existing deceleration is amplified; accelerating does not raise
    braking capability. Never below the configured floor.
    """
    return max(params.min_brake_decel, params.brake_boost * max(0.0, -a0))


def reaction_time(latency: float, l0: float, params: ModelParams) -> float:
    """Perceive-and-confirm delay for a candidate latency.

    Re-confirmation costs ``confirmation_frames`` extra frames only when the
    candidate latency exceeds the current latency l0; a candidate below l0
    cannot produce a negative delay.
    """
    return latency + params.confirmation_frames * max(0.0, latency - l0)


def resolve_l0(latency: float, l0: float, params: ModelParams) -> float:
    """Effective reference latency under the configured l0 policy."""
    return latency if params.l0_policy == L0_CANDIDATE else l0


def _ego_motion(
    v0: float, a0: float, t_react: float, decel: float, probe_time: float
) -> tuple[float, float, float]:
    """(hold-phase distance, brake-phase distance, end speed) at probe_time.

    Phase 1 holds a0 for t_react seconds, phase 2 brakes at ``decel``.
    Speed is floored at 0 in both phases; a stopped ego stays stopped.
    """
    if a0 < 0.0 and v0 + a0 * t_react < 0.0:
        # ego already decelerating to a stop inside the hold phase
        d1 = 0.5 * v0 * (v0 / -a0)
        vr = 0.0
    else:
        d1 = v0 * t_react + 0.5 * a0 * t_react * t_react
        vr = v0 + a0 * t_react
    tau = probe_time - t_react
    t_stop = vr / decel
    if tau >= t_stop:
        d2 = 0.5 * vr * t_stop
        ve = 0.0
    else:
        d2 = vr * tau - 0.5 * decel * tau * tau
        ve = vr - decel * tau
    return d1, d2, ve


def braking_profile(
    ego0: KinematicState,
    latency: float,
    l0: float,
    probe_time: float,
    params: ModelParams,
) -> BrakingProfile:
    """Hold-then-brake summary for a candidate latency, up to probe_time."""
    t_react = reaction_time(latency, resolve_l0(latency, l0, params), params)
    if probe_time < t_react - 1e-12:
        raise ValueError(f"probe_time {probe_time} precedes reaction time {t_react}")
    d1, d2, ve = _ego_motion(ego0.v, ego0.a, t_react, braking_decel(ego0.a, params), probe_time)
    return BrakingProfile(
        reaction_distance=d1, braking_distance=d2, end_speed=ve, reaction_time=t_react
    )


# The probe-time update deliberately lands probes exactly on a constraint
# boundary; rounding can leave a gap of a few ulps on the wrong side and
# wedge the search. Accepting within this sub-physical slack (nanometers,
# nanometers/second) keeps the boundary decision about physics, not floats.
ACCEPT_SLACK = 1e-9


class ConstraintCheck(NamedTuple):
    """Outcome of the two safety constraints at one probe time.

    ``distance_gap`` is the unspent separation budget (>= 0 when the distance
    constraint holds); ``speed_gap`` is the ego's remaining speed excess over
    the discounted actor speed (<= 0 when the speed constraint holds).
    ``met`` applies the shared float guard on both comparisons.
    """

    met: bool
    distance_gap: float
    speed_gap: float
    end_speed: float


def _check(
    ego0: KinematicState,
    actor: tuple[float, float, float],
    t_react: float,
    decel: float,
    probe_time: float,
    params: ModelParams,
) -> ConstraintCheck:
    """Both constraints at probe_time, given the actor's (x, y, speed) then."""
    d1, d2, ve = _ego_motion(ego0.v, ego0.a, t_react, decel, probe_time)
    ax, ay, av = actor
    dx = ax - ego0.x
    dy = ay - ego0.y
    distance_gap = params.distance_margin * math.sqrt(dx * dx + dy * dy) - d1 - d2
    speed_gap = ve - params.speed_margin * av
    return ConstraintCheck(
        met=distance_gap >= -ACCEPT_SLACK and speed_gap <= ACCEPT_SLACK,
        distance_gap=distance_gap,
        speed_gap=speed_gap,
        end_speed=ve,
    )


def constraints_met(
    ego0: KinematicState,
    traj: Trajectory,
    latency: float,
    l0: float,
    probe_time: float,
    params: ModelParams,
) -> ConstraintCheck:
    """Evaluate both safety constraints at probe_time.

    The distance constraint compares the ego's total travel against the
    discounted separation between the ego now and the actor at probe_time;
    the speed constraint requires the ego to end no faster than the
    discounted actor speed.
    """
    l0_eff = resolve_l0(latency, l0, params)
    t_react = reaction_time(latency, l0_eff, params)
    if probe_time < t_react - 1e-12:
        raise ValueError(f"probe_time {probe_time} precedes reaction time {t_react}")
    return _check(
        ego0, traj.state_at(probe_time), t_react, braking_decel(ego0.a, params), probe_time, params
    )


def probe_time_update(
    distance_gap: float, speed_gap: float, end_speed: float, decel: float
) -> float:
    """Time advance toward satisfying the still-unmet constraint(s).

    The distance branch applies while separation budget remains
    (distance_gap >= 0): the time the ego can keep moving before spending it.
    The speed branch applies while the ego is still too fast
    (speed_gap >= 0): the time to shed the excess at the braking rate.
    When both apply the smaller advance wins; when neither applies there is
    no useful advance and 0 is returned (the caller treats that probe as a
    dead end).
    """
    dt_d = None
    dt_v = None
    if distance_gap >= 0.0:
        dt_d = (end_speed + math.sqrt(end_speed * end_speed + 2.0 * decel * abs(distance_gap))) / decel
    if speed_gap >= 0.0:
        dt_v = speed_gap / decel
    if dt_d is not None and dt_v is not None:
        return min(dt_d, dt_v)
    if dt_d is not None:
        return dt_d
    if dt_v is not None:
        return dt_v
    return 0.0


def tolerable_latency(
    ego0: KinematicState,
    traj: Trajectory,
    l0: float,
    params: ModelParams,
    trajectory_index: int = 0,
) -> LatencyEstimate:
    """Largest latency on the descending grid whose constraints can be met.

    For each candidate latency the probe time starts at the reaction time
    and is advanced at most ``max_time_adjustments`` times; the first
    candidate with a successful probe wins. Probes never exceed the
    configured horizon. Returns an infeasible estimate when the entire grid
    fails. Each probe is ``_check`` and ``probe_time_update``, on the actor
    state read by walking the trajectory's segments forward.
    """
    decel = braking_decel(ego0.a, params)
    ts, xs, ys, vs = (col.tolist() for col in traj.columns())
    for gi, latency in enumerate(params.latency_grid):
        t_react = reaction_time(latency, resolve_l0(latency, l0, params), params)
        if t_react > params.horizon:
            continue
        probe = t_react
        seg = 0
        for _ in range(params.max_time_adjustments):
            if probe >= ts[-1]:
                actor = (xs[-1], ys[-1], vs[-1])
            else:
                while ts[seg + 1] < probe:
                    seg += 1
                w = (probe - ts[seg]) / (ts[seg + 1] - ts[seg])
                actor = (
                    xs[seg] + w * (xs[seg + 1] - xs[seg]),
                    ys[seg] + w * (ys[seg + 1] - ys[seg]),
                    vs[seg] + w * (vs[seg + 1] - vs[seg]),
                )
            chk = _check(ego0, actor, t_react, decel, probe, params)
            if chk.met:
                return _estimate(gi, probe, params, trajectory_index)
            step = probe_time_update(chk.distance_gap, chk.speed_gap, chk.end_speed, decel)
            # a probe that does not move would repeat the same failed check
            advanced = probe + step
            if not probe < advanced <= params.horizon:
                break
            probe = advanced
    return _estimate(-1, 0.0, params, trajectory_index)


def _estimate(
    gi: int, probe: float, params: ModelParams, trajectory_index: int
) -> LatencyEstimate:
    if gi < 0:
        return LatencyEstimate(latency=None, trajectory_index=trajectory_index)
    return LatencyEstimate(params.latency_grid[gi], float(probe), trajectory_index)


class PathTable(NamedTuple):
    """Several paths' (t, x, y, v) columns as one segment table (see ``path_table``)."""

    seg: np.ndarray   # (8, columns): t, x, y, v, then the increments to the next column
    keys: np.ndarray  # (columns,) complex search keys: path index + 1j * breakpoint
    count: int        # number of paths


def path_table(columns: Sequence[Sequence[np.ndarray]]) -> PathTable:
    """The segment table the batched search reads actor paths from.

    ``columns[i]`` holds path i's t, x, y and v columns: finite, strictly
    increasing times, finite positions and speeds >= 0 (a ``Trajectory``'s
    columns, or an actor's recorded ones). A path may hold a single sample.
    """
    # Column j of ``seg`` is the segment from sample j to the next one of
    # the same path: (t, x, y, v) and the increments (dt, dx, dy, dv). A
    # path's last column serves lookups at or past its end time: it holds
    # the final state (zero increments; a unit dt keeps w finite).
    counts = [c[0].shape[0] for c in columns]
    last = np.cumsum(counts) - 1
    seg = np.empty((8, last[-1] + 1))
    for k, col in enumerate(zip(*columns)):
        np.concatenate(col, out=seg[k])
    np.subtract(seg[:4, 1:], seg[:4, :-1], out=seg[4:, :-1])
    seg[4, last] = 1.0
    seg[5:, last] = 0.0
    # A lookup's segment is the number of its path's breakpoints below it:
    # the later sample times, except that the end time is replaced by the
    # float just under it (a lookup at the end time takes the final state),
    # then +inf. Lookups search complex (path, breakpoint) keys, which order
    # lexicographically, so one searchsorted over every path gives the
    # column directly.
    ts = seg[0]
    keys = np.empty(ts.shape[0], dtype=np.complex128)
    keys.real = np.repeat(np.arange(len(counts), dtype=np.float64), counts)
    keys.imag[:-1] = ts[1:]
    keys.imag[last - 1] = np.nextafter(ts[last], -np.inf)
    keys.imag[last] = np.inf
    return PathTable(seg, keys, len(counts))


def _search_batch(
    egos: Sequence[KinematicState],
    offsets: Sequence[float],
    paths: PathTable,
    l0: float,
    params: ModelParams,
) -> tuple[list[int], list[float]]:
    """``tolerable_latency`` for every (ego, path) pair, in NumPy.

    Ego i reads every path at ``offsets[i] + probe``: a predicted trajectory
    with offset 0.0 as it is, a recorded path with offset t as its future
    from time t on. Each lane is one (ego, path, grid candidate) triple and
    runs the scalar search's probe iteration (``_ego_motion``, ``_check``
    and ``probe_time_update``, vectorised) with the same float results, on
    its lookup time ``offset + probe`` in place of the probe
    (``p + 0.0 == p``, so with offset 0.0 the grid indices and probe times
    are the scalar search's to the bit). Lanes leave the batch when
    they meet the constraints, dead-end, stop moving or pass the horizon,
    and a pair's lanes leave once a larger latency of it has met. Returns
    grid indices (-1 where the whole grid fails) and probe times per pair,
    ego-major, as Python ints and floats.
    """
    grid = params.grid_array()
    if params.l0_policy == L0_CANDIDATE:
        t_react = grid
    else:
        excess = grid - float(l0)
        t_react = grid + float(params.confirmation_frames) * np.where(excess > 0.0, excess, 0.0)
    cand = np.flatnonzero(t_react <= params.horizon)
    n_cand = cand.shape[0]
    tr = t_react[cand]

    # Column e of ``ego`` is ego e's decel, half and twice that, offset +
    # horizon (the last lookup time) and position. Column e * n_cand + c of
    # ``table`` is ego e with candidate c: the lookup time at the reaction
    # time (offset + reaction time), hold-phase distance, speed when
    # braking starts, time to stop from it, distance to stop.
    state = np.array(
        [(e.v, e.a, braking_decel(e.a, params), off, e.x, e.y) for e, off in zip(egos, offsets)]
    )
    v0, a0, decel, off = state[:, 0:1], state[:, 1:2], state[:, 2:3], state[:, 3:4]
    ego = np.vstack((decel.T, 0.5 * decel.T, 2.0 * decel.T, off.T + params.horizon, state[:, 4:].T))
    n_ego = ego.shape[1]
    table = np.empty((5, n_ego, n_cand))
    np.add(off, tr, out=table[0])
    d1 = table[1]
    np.add(v0 * tr, 0.5 * a0 * tr * tr, out=d1)
    vr = table[2]
    np.add(v0, a0 * tr, out=vr)
    stopped = vr < 0.0  # stopped inside the hold phase, under a0 < 0
    if stopped.any():
        e = stopped.nonzero()[0]
        d1[stopped] = 0.5 * v0[e, 0] * (v0[e, 0] / -a0[e, 0])
        vr[stopped] = 0.0
    np.divide(vr, decel, out=table[3])
    np.multiply(0.5 * vr, table[3], out=table[4])
    table = table.reshape(5, -1)
    lone = n_ego == 1  # a lone ego's values stay scalars
    if lone:
        dec, half, twice, limit = ego[:4, 0].tolist()
        ego_xy = ego[4:]

    # A pair is ego * paths.count + path. A lane is a (path, lookup time)
    # row of ``lanes``, which doubles as its complex search key, with its
    # pair in ``lane_pair`` and its ``table`` column in ``lane_col``. Lanes
    # run in (pair, candidate) order.
    n_pairs = n_ego * paths.count
    lane_pair = np.arange(n_pairs).repeat(n_cand)
    lane_col = np.broadcast_to(
        np.arange(n_ego * n_cand).reshape(n_ego, 1, n_cand), (n_ego, paths.count, n_cand)
    ).ravel()
    lanes = np.empty((lane_col.shape[0], 2))
    np.remainder(lane_pair, paths.count, out=lanes[:, 0], casting="unsafe")
    table[0].take(lane_col, out=lanes[:, 1])
    # per pair: the table column of the first candidate that met, and its
    # lookup time; the column past the ego's last candidate (grid index -1)
    # while none has
    pair_ego = np.arange(n_pairs) // paths.count
    best = (pair_ego + 1) * n_cand
    best_at = np.zeros(n_pairs)
    seg, keys = paths.seg, paths.keys
    for it in range(params.max_time_adjustments):
        at = lanes[:, 1]
        # the actor at the lookup time: its distance from the ego now, its speed
        col = keys.searchsorted(lanes.view(np.complex128).ravel())
        s = seg.take(col, axis=1)
        w = at - s[0]
        w /= s[4]
        actor = s[5:8] * w
        actor += s[1:4]
        # temporaries go, or are reused, as soon as they are used, so a
        # block's working set stays small
        del col, s, w
        if not lone:
            e = ego.take(lane_col // n_cand, axis=1)
            dec, half, twice, limit, ego_xy = e[0], e[1], e[2], e[3], e[4:]
        dxy = actor[:2]
        dxy -= ego_xy
        dxy *= dxy
        gap_d = np.sqrt(dxy[0] + dxy[1])
        gap_d *= params.distance_margin
        v_actor = params.speed_margin * actor[2]
        del actor, dxy
        # the ego's hold-then-brake travel and speed at the probe
        c = table.take(lane_col, axis=1)
        tau = at - c[0]
        braked = tau >= c[3]
        d2 = c[2] * tau
        d2 -= half * tau * tau
        np.copyto(d2, c[4], where=braked)
        ve = c[2] - dec * tau
        np.copyto(ve, 0.0, where=braked)
        gap_d -= c[1]
        gap_d -= d2
        gap_v = ve - v_actor
        del c, tau, braked, d2, v_actor
        hit = ((gap_d >= -ACCEPT_SLACK) & (gap_v <= ACCEPT_SLACK)).nonzero()[0]
        any_met = hit.shape[0]
        if any_met:
            pairs = lane_pair.take(hit)
            lead = np.ones(pairs.shape[0], dtype=bool)  # a pair's first hit has its largest latency
            lead[1:] = pairs[1:] != pairs[:-1]
            hit, pairs = hit[lead], pairs[lead]
            best[pairs] = lane_col.take(hit)
            best_at[pairs] = at.take(hit)
        if it == params.max_time_adjustments - 1:
            break
        # The scalar step, min over the distance branch (gap_d >= 0) and the
        # speed branch (gap_v >= 0), divided by decel once (division by a
        # positive constant is monotone, so the min is the same float). A
        # lane that did not meet with gap_v < 0 has gap_d < 0 too: neither
        # branch applies, and its advance comes out negative. A lane is
        # decided by its probe alone, so one whose probe does not move (a
        # dead end, or an advance under half an ulp) would repeat the same
        # failed check up to the cap: it fails now.
        root = np.sqrt(np.maximum(ve * ve + twice * gap_d, 0.0))
        root += ve
        advance = np.where(gap_d >= 0.0, np.minimum(root, gap_v), gap_v)
        advance /= dec
        advance += at
        keep = (advance > at) & (advance <= limit)
        at[:] = advance
        if any_met:
            keep &= lane_col < best.take(lane_pair)
        keep = keep.nonzero()[0]
        # what is per lane above belongs to the lanes before they leave
        del gap_d, gap_v, ve, root, advance
        if not lone:
            del e, dec, half, twice, limit, ego_xy
        if not keep.shape[0]:
            break
        lanes = lanes.take(keep, axis=0)
        lane_col = lane_col.take(keep)
        lane_pair = lane_pair.take(keep)
    best -= pair_ego * n_cand
    best_at -= off[:, 0].take(pair_ego)
    return np.append(cand, -1).take(best).tolist(), best_at.tolist()


def search_paths(
    egos: Sequence[KinematicState],
    offsets: Sequence[float],
    paths: PathTable,
    l0: float,
    params: ModelParams,
) -> list[LatencyEstimate]:
    """``tolerable_latency`` of each ego against each path, read from the ego's offset on.

    Ego i sees path j as the future from time ``offsets[i]`` on, so a
    recorded path with offset t equals its recorded future re-based at t
    (``trace.ground_truth_trajectory``), up to rounding of the lookup time.
    Estimates run ego-major: entry i * paths.count + j. One batched search
    serves every pair.
    """
    gis, probes = _search_batch(egos, offsets, paths, l0, params)
    return [_estimate(gi, probe, params, 0) for gi, probe in zip(gis, probes)]


def _rank_key(est: LatencyEstimate) -> float:
    # an infeasible estimate sorts as the most demanding one
    return 0.0 if est.latency is None else est.latency


def aggregate_actor_latency(
    estimates: Sequence[tuple[LatencyEstimate, float]],
    params: ModelParams,
) -> LatencyEstimate:
    """Collapse per-trajectory estimates for one actor into a single estimate.

    Aggregators: ``min`` (most pessimistic over trajectories), ``max``,
    probability-weighted ``mean``, and ``percentile`` which sorts latencies
    ascending and takes rank ceil((100 - n)/100 * count) from the bottom, so
    n = 100 selects the minimum. Infeasible entries rank as latency 0; if
    the selected entry is infeasible the aggregate is infeasible.
    """
    if not estimates:
        raise ValueError("no estimates to aggregate")
    if len(estimates) == 1:
        return estimates[0][0]

    agg = params.aggregator
    if agg == "mean":
        total_w = sum(w for _, w in estimates)
        if total_w <= 0.0:
            raise ValueError("probabilities sum to 0")
        mean = sum(_rank_key(e) * w for e, w in estimates) / total_w
        if mean <= 0.0:
            return INFEASIBLE
        worst = min(estimates, key=lambda ew: _rank_key(ew[0]))
        latency = min(params.latency_max, max(params.latency_min, mean))
        return LatencyEstimate(
            latency=latency, probe_time=None, trajectory_index=worst[0].trajectory_index
        )

    ordered = sorted((e for e, _ in estimates), key=_rank_key)
    if agg == "min":
        chosen = ordered[0]
    elif agg == "max":
        chosen = ordered[-1]
    else:  # percentile
        count = len(ordered)
        rank = max(1, math.ceil((100.0 - params.percentile) / 100.0 * count))
        chosen = ordered[min(rank, count) - 1]
    return chosen


@dataclass(frozen=True)
class FprReport:
    """Required frame-processing rate for one camera at one instant."""

    fpr: float                 # Hz, clamped to the reportable range
    latency: float             # s, the (clamped) sensor latency behind the rate
    binding_actor: str | None  # actor that forced the rate, None if FOV empty
    infeasible: bool           # a member actor had no safe latency


def camera_fpr(
    actor_latencies: Sequence[tuple[str, LatencyEstimate]],
    fov_members: set[str] | frozenset[str],
    params: ModelParams,
) -> FprReport:
    """Required rate for one camera: fastest requirement among FOV members.

    An empty FOV needs only the minimum rate. Any infeasible member forces
    the maximum rate and sets the infeasibility flag so schedulers can still
    rank cameras.
    """
    lo, hi = params.fpr_bounds()
    members = [(est.latency, aid) for aid, est in actor_latencies if aid in fov_members]
    if not members:
        return FprReport(fpr=lo, latency=params.latency_max, binding_actor=None, infeasible=False)
    bad = [aid for latency, aid in members if latency is None]
    if bad:
        return FprReport(fpr=hi, latency=params.latency_min, binding_actor=min(bad), infeasible=True)
    # ties on latency bind the smallest actor id
    binding, binding_id = min(members)
    latency = min(params.latency_max, max(params.latency_min, binding))
    return FprReport(fpr=1.0 / latency, latency=latency, binding_actor=binding_id, infeasible=False)


def estimate_compute_ops(
    num_actors: int,
    num_trajectories: int,
    params: ModelParams,
    ops_per_iteration: int = 100,
) -> int:
    """Worst-case operation count for one full evaluation tick."""
    if num_actors < 0 or num_trajectories < 0 or ops_per_iteration < 0:
        raise ValueError("counts must be >= 0")
    return (
        num_actors
        * num_trajectories
        * params.max_time_adjustments
        * len(params.latency_grid)
        * ops_per_iteration
    )


def scene_reports(
    ego: KinematicState,
    estimates: dict[str, Sequence[tuple[LatencyEstimate, float]]],
    positions_now: dict[str, tuple[float, float]],
    cameras: Iterable,
    params: ModelParams,
) -> tuple[dict[str, LatencyEstimate], dict[str, FprReport]]:
    """The report half of a tick: per-actor latencies and per-camera required rates.

    ``estimates`` maps each actor to its (estimate, probability) pairs, one
    per trajectory, which ``aggregate_actor_latency`` collapses; camera
    membership is ``fov_members`` on each actor's position now.
    """
    per_actor = {aid: aggregate_actor_latency(ests, params) for aid, ests in estimates.items()}
    latencies = sorted(per_actor.items())
    reports = {
        cid: camera_fpr(latencies, members, params)
        for cid, members in fov_members(ego, positions_now, cameras).items()
    }
    return per_actor, reports


def evaluate_scene(
    ego: KinematicState,
    actor_trajectories: dict[str, Sequence[Trajectory]],
    cameras: Iterable,
    l0: float,
    params: ModelParams,
) -> tuple[dict[str, LatencyEstimate], dict[str, FprReport]]:
    """One full tick: per-actor latencies and per-camera required rates.

    Every trajectory of every actor goes through one batched search from
    this one ego (``_search_batch`` with offset 0.0), which gives the same
    estimates as ``tolerable_latency`` on each trajectory. Trajectory
    probabilities weight the aggregation; camera membership is evaluated on
    each actor's position now (the first sample of its first trajectory).
    ``scene_reports`` does both.
    """
    for aid, trajs in actor_trajectories.items():
        if not trajs:
            raise ValueError(f"actor {aid!r} has no trajectories")
    flat = [traj.columns() for trajs in actor_trajectories.values() for traj in trajs]
    gis, probes = (
        _search_batch((ego,), (0.0,), path_table(flat), l0, params) if flat else ([], [])
    )
    estimates: dict[str, list[tuple[LatencyEstimate, float]]] = {}
    positions_now: dict[str, tuple[float, float]] = {}
    k = 0
    for aid, trajs in actor_trajectories.items():
        estimates[aid] = [
            (_estimate(gis[k + i], probes[k + i], params, i), traj.probability)
            for i, traj in enumerate(trajs)
        ]
        k += len(trajs)
        positions_now[aid] = (trajs[0].x.item(0), trajs[0].y.item(0))
    return scene_reports(ego, estimates, positions_now, cameras, params)
