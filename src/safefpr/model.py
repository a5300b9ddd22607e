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

from .geometry import fov_mask
from .types import (
    INFEASIBLE,
    L0_CANDIDATE,
    BrakingProfile,
    KinematicState,
    LatencyEstimate,
    ModelParams,
    Trajectory,
    path_state,
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
) -> LatencyEstimate:
    """Largest latency on the descending grid whose constraints can be met.

    For each candidate latency the probe time starts at the reaction time
    and is advanced at most ``max_time_adjustments`` times; the first
    candidate with a successful probe wins. Probes never exceed the
    configured horizon. Returns an infeasible estimate when the entire grid
    fails. Each probe is ``_check`` and ``probe_time_update``, on the actor
    state ``path_state`` reads from the trajectory's samples. ``l0`` must be
    finite, and > 0 under the fixed l0 policy (``ModelParams.check_l0``).
    """
    params.check_l0(l0)
    decel = braking_decel(ego0.a, params)
    cols = traj.columns().tolist()
    for gi, latency in enumerate(params.latency_grid):
        t_react = reaction_time(latency, resolve_l0(latency, l0, params), params)
        if t_react > params.horizon:
            continue
        probe = t_react
        for _ in range(params.max_time_adjustments):
            chk = _check(ego0, path_state(cols, probe), t_react, decel, probe, params)
            if chk.met:
                return _estimate(gi, probe, params)
            step = probe_time_update(chk.distance_gap, chk.speed_gap, chk.end_speed, decel)
            # a probe that does not move would repeat the same failed check
            advanced = probe + step
            if not probe < advanced <= params.horizon:
                break
            probe = advanced
    return _estimate(-1, 0.0, params)


def _estimate(gi: int, probe: float, params: ModelParams) -> LatencyEstimate:
    if gi < 0:
        return INFEASIBLE
    return LatencyEstimate(params.latency_grid[gi], float(probe))


class PathTable(NamedTuple):
    """Several paths' (t, x, y, v) columns as one segment table (see ``path_table``)."""

    seg: np.ndarray    # (8, columns): t, x, y, v, then the increments to the next column
    first: np.ndarray  # (count,) each path's first column of ``seg``
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]  # per time column: its paths, its breakpoints
    count: int         # number of paths


def path_table(blocks: Sequence[np.ndarray]) -> PathTable:
    """The segment table the batched search reads actor paths from.

    ``blocks[i]`` is path i's (4, samples) array of t, x, y and v rows:
    finite, strictly increasing times, finite positions and speeds >= 0
    (``Trajectory.columns()``, or ``ScenarioTrace.actor_columns``). A path
    may hold a single sample; there may be no paths at all.

    Paths whose sample times are equal form a group, in order of first
    appearance, which holds its paths' indices (ascending) and one sorted
    array of breakpoints that serves them all. A predictor's fans share
    their sample times, and so do a trace's actors, so a tick's table and
    a trace's table are each one group.
    """
    # Column j of ``seg`` is the segment from sample j to the next one of
    # the same path: (t, x, y, v) and the increments (dt, dx, dy, dv). A
    # path's last column serves lookups at or past its end time: it holds
    # the final state (zero increments; a unit dt keeps w finite).
    counts = [b.shape[1] for b in blocks]
    last = np.cumsum(counts, dtype=np.intp) - 1
    seg = np.empty((8, sum(counts)))
    if blocks:
        np.concatenate(blocks, axis=1, out=seg[:4])
    np.subtract(seg[:4, 1:], seg[:4, :-1], out=seg[4:, :-1])
    seg[4, last] = 1.0
    seg[5:, last] = 0.0
    # Paths with equal sample times share a group. Most tables are one
    # group, which one comparison with the first path's times finds.
    if not blocks:
        members = []
    elif counts.count(counts[0]) == len(counts) and (
        seg[0].reshape(len(counts), -1) == seg[0, : counts[0]]
    ).all():
        members = [np.arange(len(counts))]
    else:
        by_times: dict[bytes, list[int]] = {}
        for j, b in enumerate(blocks):
            by_times.setdefault(b[0].tobytes(), []).append(j)
        members = [np.array(paths, dtype=np.intp) for paths in by_times.values()]
    # A lookup's segment is its path's first column plus the number of the
    # group's breakpoints below it: the later sample times, except that the
    # end time is replaced by the float just under it (a lookup at the end
    # time takes the final state). A one-sample path has none.
    groups = []
    for paths in members:
        breaks = blocks[paths[0]][0, 1:].copy()
        if breaks.shape[0]:
            breaks[-1] = np.nextafter(breaks[-1], -np.inf)
        groups.append((paths, breaks))
    return PathTable(seg, last + 1 - np.array(counts, dtype=np.intp), tuple(groups), len(counts))


def search_paths(
    egos: Sequence[KinematicState],
    offsets: Sequence[float],
    paths: PathTable,
    l0: float,
    params: ModelParams,
) -> tuple[list[float | None], list[float | None]]:
    """``tolerable_latency`` of each ego against each path, read from the ego's offset on.

    Ego i sees path j as the future from time ``offsets[i]`` on, so a
    recorded path with offset t equals its recorded future re-based at t
    (``trace.ground_truth_trajectory``), up to rounding of the lookup time.
    Returns the latencies and the probe times, ego-major (entry
    i * paths.count + j), as Python lists, None where the whole grid fails.
    ``l0`` is checked as in ``tolerable_latency``.

    Each lane is one (ego, path, grid candidate) triple and runs the scalar
    search's probe iteration (``path_state``, ``_ego_motion``, ``_check``
    and ``probe_time_update``, vectorised) with the same float results, on
    its lookup time ``offset + probe`` in place of the probe (``p + 0.0 ==
    p``, so with offset 0.0 both lists are the scalar search's to the bit).
    Lanes leave the batch when they meet the constraints, dead-end, stop
    moving or pass the horizon, and a pair's lanes leave once a larger
    latency of it has met.

    The lanes run one ``paths.groups`` group at a time, so each lane finds
    its segment with one real-valued ``searchsorted`` of its lookup time in
    the group's breakpoints, plus its path's first column. A pair's lanes
    are all in its path's group, so the order of the groups does not
    change any result.
    """
    params.check_l0(l0)
    if not egos:
        return [], []
    grid = params.grid_array()
    if params.l0_policy == L0_CANDIDATE:
        t_react = grid
    else:
        excess = grid - float(l0)
        t_react = grid + float(params.confirmation_frames) * np.where(excess > 0.0, excess, 0.0)
    cand = np.flatnonzero(t_react <= params.horizon)
    n_cand = cand.shape[0]
    tr = t_react[cand]

    # Column e * n_cand + c of ``table`` is ego e with candidate c: the
    # lookup time at the reaction time (offset + reaction time), hold-phase
    # distance, speed when braking starts, time to stop from it, distance to
    # stop; then ego e's decel, half and twice that, offset + horizon (the
    # last lookup time) and position.
    state = np.array(
        [(e.v, e.a, braking_decel(e.a, params), off, e.x, e.y) for e, off in zip(egos, offsets)]
    )
    v0, a0, decel, off = state[:, 0:1], state[:, 1:2], state[:, 2:3], state[:, 3:4]
    n_ego = state.shape[0]
    table = np.empty((11, n_ego, n_cand))
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
    per_ego = np.hstack((decel, 0.5 * decel, 2.0 * decel, off + params.horizon, state[:, 4:]))
    table[5:] = per_ego.T[:, :, None]
    table = table.reshape(11, -1)

    # A pair is ego * paths.count + path. Per pair: the table column of the
    # first candidate that met, and its lookup time; the column past the
    # ego's last candidate (grid index -1) while none has.
    n_pairs = n_ego * paths.count
    pair_ego = np.arange(n_pairs) // paths.count
    best = (pair_ego + 1) * n_cand
    best_at = np.zeros(n_pairs)
    seg = paths.seg
    ego_col = np.arange(n_ego * n_cand).reshape(n_ego, 1, n_cand)
    for members, breaks in paths.groups:
        # A lane is one (ego, path, candidate) of the group, in (pair,
        # candidate) order: its lookup time ``at``, its ``table`` column in
        # ``lane_col``, its pair in ``lane_pair`` and its path's first
        # segment column in ``lane_first``.
        shape = (n_ego, members.shape[0], n_cand)
        lane_col = np.broadcast_to(ego_col, shape).ravel()
        lane_first = np.broadcast_to(paths.first.take(members)[:, None], shape).ravel()
        lane_pair = (np.arange(0, n_pairs, paths.count)[:, None] + members).repeat(n_cand)
        at = table[0].take(lane_col)
        for it in range(params.max_time_adjustments):
            # the actor at the lookup time: its distance from the ego now, its speed
            col = breaks.searchsorted(at)
            col += lane_first
            s = seg.take(col, axis=1)
            w = at - s[0]
            w /= s[4]
            actor = s[5:8] * w
            actor += s[1:4]
            # temporaries go, or are reused, as soon as they are used, so a
            # block's working set stays small
            del col, s, w
            c = table.take(lane_col, axis=1)
            dec, half, twice, limit = c[5], c[6], c[7], c[8]
            dxy = actor[:2]
            dxy -= c[9:11]
            dxy *= dxy
            gap_d = np.sqrt(dxy[0] + dxy[1])
            gap_d *= params.distance_margin
            v_actor = params.speed_margin * actor[2]
            del actor, dxy
            # the ego's hold-then-brake travel and speed at the probe
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
            del tau, braked, d2, v_actor
            hit = ((gap_d >= -ACCEPT_SLACK) & (gap_v <= ACCEPT_SLACK)).nonzero()[0]
            any_met = hit.shape[0]
            if any_met:
                # a pair's first hit has its largest latency
                pairs = lane_pair.take(hit)
                lead = np.ones(pairs.shape[0], dtype=bool)
                lead[1:] = pairs[1:] != pairs[:-1]
                hit, pairs = hit[lead], pairs[lead]
                best[pairs] = lane_col.take(hit)
                best_at[pairs] = at.take(hit)
            if it == params.max_time_adjustments - 1:
                break
            # The scalar step, min over the distance branch (gap_d >= 0) and
            # the speed branch (gap_v >= 0), divided by decel once (division
            # by a positive constant is monotone, so the min is the same
            # float). A lane that did not meet with gap_v < 0 has gap_d < 0
            # too: neither branch applies, and its advance comes out
            # negative. A lane is decided by its probe alone, so one whose
            # probe does not move (a dead end, or an advance under half an
            # ulp) would repeat the same failed check up to the cap: it
            # fails now.
            root = np.sqrt(np.maximum(ve * ve + twice * gap_d, 0.0))
            root += ve
            advance = np.where(gap_d >= 0.0, np.minimum(root, gap_v), gap_v)
            advance /= dec
            advance += at
            keep = (advance > at) & (advance <= limit)
            if any_met:
                keep &= lane_col < best.take(lane_pair)
            keep = keep.nonzero()[0]
            at = advance.take(keep)
            # what is per lane above belongs to the lanes before they leave
            del c, dec, half, twice, limit, gap_d, gap_v, ve, root, advance
            if not keep.shape[0]:
                break
            lane_first = lane_first.take(keep)
            lane_col = lane_col.take(keep)
            lane_pair = lane_pair.take(keep)
    best -= pair_ego * n_cand
    best_at -= off[:, 0].take(pair_ego)
    # per candidate its grid latency, and None for a pair that none met
    latency = [params.latency_grid[c] for c in cand.tolist()] + [None]
    best = best.tolist()
    probes = [None if b == n_cand else p for b, p in zip(best, best_at.tolist())]
    return [latency[b] for b in best], probes


def aggregate_actor_latency(
    estimates: Sequence[tuple[LatencyEstimate, float]],
    params: ModelParams,
) -> LatencyEstimate:
    """Collapse per-trajectory estimates for one actor into a single estimate.

    Aggregators: ``min`` (most pessimistic over trajectories), ``max``,
    probability-weighted ``mean``, and ``percentile`` which sorts latencies
    ascending and takes rank ceil((100 - n)/100 * count) from the bottom, so
    n = 100 selects the minimum. Infeasible entries rank as latency 0; if
    the selected entry is infeasible the aggregate is infeasible. The
    result's ``trajectory_index`` is the position in ``estimates`` of the
    entry that binds it (for ``mean``, the lowest-ranked entry).
    """
    return _aggregate(
        [est.latency for est, _ in estimates],
        [est.probe_time for est, _ in estimates],
        [weight for _, weight in estimates],
        params,
    )


def _aggregate(
    latencies: Sequence[float | None],
    probes: Sequence[float | None],
    weights: Sequence[float],
    params: ModelParams,
) -> LatencyEstimate:
    """``aggregate_actor_latency`` on the estimates' latencies, probe times and weights."""
    count = len(latencies)
    if not count:
        raise ValueError("no estimates to aggregate")
    agg = params.aggregator
    if count == 1:
        pos = 0
    else:
        # an infeasible estimate ranks as the most demanding one
        ranks = [0.0 if latency is None else latency for latency in latencies]
        if agg == "mean":
            total_w = sum(weights)
            if total_w <= 0.0:
                raise ValueError("probabilities sum to 0")
            mean = sum(r * w for r, w in zip(ranks, weights)) / total_w
            worst = min(range(count), key=ranks.__getitem__)
            if mean <= 0.0:
                return LatencyEstimate(latency=None, trajectory_index=worst)
            latency = min(params.latency_max, max(params.latency_min, mean))
            return LatencyEstimate(latency=latency, probe_time=None, trajectory_index=worst)
        ordered = sorted(range(count), key=ranks.__getitem__)
        if agg == "min":
            pos = ordered[0]
        elif agg == "max":
            pos = ordered[-1]
        else:  # percentile
            rank = max(1, math.ceil((100.0 - params.percentile) / 100.0 * count))
            pos = ordered[min(rank, count) - 1]
    return LatencyEstimate(latencies[pos], probes[pos], pos)


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
    egos: Sequence[KinematicState],
    actor_ids: Sequence[str],
    positions: Sequence[Sequence[tuple[float, float]]],
    latencies: Sequence[Sequence[float | None]],
    cameras: Iterable,
    params: ModelParams,
) -> list[dict[str, FprReport]]:
    """The report half of a block of ticks: each camera's required rate per tick.

    ``actor_ids`` are sorted; at tick i, ego ``egos[i]`` sees actor
    ``actor_ids[j]`` at ``positions[i][j]`` with aggregated latency
    ``latencies[i][j]`` (None when infeasible). Membership is ``fov_mask``;
    the rates follow ``camera_fpr``, which they equal, tick by tick: an
    empty FOV gets the floor, an infeasible member the cap (bound to the
    smallest such id), and otherwise the smallest latency binds (ties to the
    smallest id). Reports are shared between the cameras and ticks that
    need the same one.
    """
    cameras = tuple(cameras)
    lo, hi = params.fpr_bounds()
    floor = FprReport(fpr=lo, latency=params.latency_max, binding_actor=None, infeasible=False)
    cids = [cam.camera_id for cam in cameras]
    if not (egos and actor_ids and cameras):
        return [dict.fromkeys(cids, floor) for _ in egos]
    # an infeasible member ranks as latency -inf, a non-member as +inf;
    # argmin takes the first of equal ranks: the smallest id
    rank = np.array([[-math.inf if lat is None else lat for lat in row] for row in latencies])
    member_rank = np.where(fov_mask(egos, positions, cameras), rank, math.inf)
    binding, best = member_rank.argmin(axis=2), member_rank.min(axis=2)
    made = {(0, math.inf): floor}  # an empty FOV: no member, argmin 0

    def report(j: int, latency: float) -> FprReport:
        key = (j, latency)
        rep = made.get(key)
        if rep is None:
            if latency == -math.inf:
                rep = FprReport(hi, params.latency_min, actor_ids[j], True)
            else:
                latency = min(params.latency_max, max(params.latency_min, latency))
                rep = FprReport(1.0 / latency, latency, actor_ids[j], False)
            made[key] = rep
        return rep

    return [
        {cid: report(j, latency) for cid, j, latency in zip(cids, js, lats)}
        for js, lats in zip(binding.T.tolist(), best.T.tolist())
    ]


def evaluate_scene(
    ego: KinematicState,
    actor_trajectories: dict[str, Sequence[Trajectory]],
    cameras: Iterable,
    l0: float,
    params: ModelParams,
) -> tuple[dict[str, LatencyEstimate], dict[str, FprReport]]:
    """One full tick: per-actor latencies and per-camera required rates.

    Every trajectory of every actor goes through one batched search from
    this one ego (``search_paths`` with offset 0.0), whose latency and probe
    time are each trajectory's ``tolerable_latency``. Each actor's slice of
    the kernel's lists is aggregated as ``aggregate_actor_latency`` would
    aggregate them, trajectory probabilities as the weights;
    camera membership is evaluated on each actor's position now (the first
    sample of its first trajectory), and the rates come from
    ``scene_reports`` on a one-tick block.
    """
    for aid, trajs in actor_trajectories.items():
        if not trajs:
            raise ValueError(f"actor {aid!r} has no trajectories")
    paths = path_table([traj.columns() for trajs in actor_trajectories.values() for traj in trajs])
    latencies, probes = search_paths((ego,), (0.0,), paths, l0, params)
    per_actor = {}
    stop = 0
    for aid, trajs in actor_trajectories.items():
        start, stop = stop, stop + len(trajs)
        per_actor[aid] = _aggregate(
            latencies[start:stop],
            probes[start:stop],
            [traj.probability for traj in trajs],
            params,
        )
    ids = sorted(actor_trajectories)
    now = [actor_trajectories[aid][0] for aid in ids]
    (reports,) = scene_reports(
        (ego,),
        ids,
        [[(traj.x.item(0), traj.y.item(0)) for traj in now]],
        [[per_actor[aid].latency for aid in ids]],
        cameras,
        params,
    )
    return per_actor, reports
