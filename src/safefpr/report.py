"""Offline trace analysis, sensitivity sweeps and report arithmetic."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .model import FprReport, path_table, scene_reports, search_paths, tolerable_latency
from .oracle import feasible_latency_scan
from .trace import ScenarioTrace
from .types import (
    KinematicState,
    L0_FIXED,
    ModelParams,
    Trajectory,
    constant_separation_trajectory,
    within,
)

OVER_MAX = math.inf  # sweep cell needing more than the fastest grid rate


def fraction_of_provisioned(max_total_fpr: float, num_cameras: int, params: ModelParams) -> float:
    """Share of a fully provisioned system the peak demand represents.

    The reference is every camera running at the maximum rate; rounded to
    two decimals for reporting.
    """
    if num_cameras < 1:
        raise ValueError("need at least one camera")
    _, cap = params.fpr_bounds()
    return round(max_total_fpr / (num_cameras * cap), 2)


def camera_record(tick: int, t: float, camera: str, report: FprReport) -> dict:
    """One camera's output record at one tick: its required rate and what binds it."""
    return {"tick": tick, "t": t, "camera": camera, **asdict(report)}


@dataclass
class AnalysisResult:
    """``analyze_trace``'s answer, one row per tick.

    Tick k is at ``times[k]``; ``latencies[k]`` holds each actor's latency
    in ``actor_ids`` order (sorted ids, None where infeasible) and
    ``reports[k]`` each camera's report in the rig's order, shared as
    ``scene_reports`` shares them. ``summary`` is computed in the same pass.
    """

    times: list[float]
    actor_ids: tuple[str, ...]
    latencies: list[list[float | None]]
    reports: list[dict[str, FprReport]]
    summary: dict

    @property
    def records(self) -> list[dict]:
        """The output records as dicts, built on each read: per tick its
        actors, then its cameras. ``safefpr analyze`` writes the same lines
        from the rows without building them."""
        out: list[dict] = []
        for k, (t, lats, reps) in enumerate(zip(self.times, self.latencies, self.reports)):
            out += [
                {"tick": k, "t": t, "actor": aid, "latency": latency}
                for aid, latency in zip(self.actor_ids, lats)
            ]
            out += [camera_record(k, t, cid, rep) for cid, rep in reps.items()]
        return out


# Lanes per batched search over a trace: about one online tick's worth, so
# a block's working arrays stay small however long the trace is
BLOCK_LANES = 3000


def analyze_trace(trace: ScenarioTrace, params: ModelParams) -> AnalysisResult:
    """Per-tick per-camera required rates over a recorded trace.

    Post-run analysis uses the recorded future of each actor (a single
    known trajectory) and the latency the trace was recorded at as the
    reference latency l0, under the fixed l0 policy. It builds no state
    object: the actors' recorded columns (``ScenarioTrace.actor_columns``)
    give their paths and one position block, and the ego rows
    (``ScenarioTrace.ego_rows``) read the paths, each from its tick time
    on; slices of these arrays go to ``search_paths`` as they are. The
    search runs in two passes, each in blocks of at most ``BLOCK_LANES``
    (tick, actor, grid candidate) lanes and at least one tick:

    1. every (tick, actor) pair against the grid head ``latency_max``
       alone, which settles each pair whose answer is the head;
    2. one actor at a time, the full grid for the ticks that pass 1 left
       unsettled.

    A lane's floats depend only on its own ego, path and candidate, and
    the head is grid candidate 0, so each pair gets the first candidate of
    the full grid that meets, as a single search would give it. The
    camera rates then come from one ``scene_reports`` call per block of
    ticks, and the summary from the same pass over them. The result keeps
    these rows as they are; its records equal running each tick through
    ``evaluate_scene`` with every actor's ``ground_truth_trajectory``.
    """
    times = trace.times.tolist()
    actor_ids = trace.actor_ids
    n = len(actor_ids)
    per_camera_max: dict[str, float] = {c.camera_id: 0.0 for c in trace.cameras}
    max_total = 0.0
    max_total_t = 0.0
    any_infeasible = False

    l0 = trace.operating_latency()
    fixed = params.replace(l0_policy=L0_FIXED)
    head = fixed.replace(latency_min=fixed.latency_max)
    columns = [trace.actor_columns(aid) for aid in actor_ids]
    egos = trace.ego_rows
    # entry k * n + j: actor j's latency at tick k
    found: list[float | None] = []
    paths = path_table(columns)
    # the grid head alone, for every pair
    block = max(1, BLOCK_LANES // max(1, n))
    for start in range(0, len(times), block):
        part = slice(start, start + block)
        found += search_paths(egos[part], trace.times[part], paths, l0, head)[0]
    # the full grid, one actor at a time, for the pairs the head left open;
    # rebinding ``paths`` frees the table of every actor before this pass
    block = max(1, BLOCK_LANES // len(fixed.latency_grid))
    for j, cols in enumerate(columns):
        todo = [k for k in range(len(times)) if found[k * n + j] is None]
        paths = path_table([cols])
        for start in range(0, len(todo), block):
            part = todo[start : start + block]
            lats, _ = search_paths(egos[part], trace.times[part], paths, l0, fixed)
            for k, latency in zip(part, lats):
                found[k * n + j] = latency

    latencies = [found[k * n : (k + 1) * n] for k in range(len(times))]
    reports: list[dict[str, FprReport]] = []
    # (tick, actor, x or y); the reshape gives a trace without actors this shape too
    positions = np.array([c[1:3] for c in columns]).reshape(n, 2, len(times)).transpose(2, 0, 1)
    block = max(1, BLOCK_LANES // (max(1, n) * len(params.latency_grid)))
    for start in range(0, len(times), block):
        part = slice(start, start + block)
        made = scene_reports(
            egos[part], actor_ids, positions[part], latencies[part], trace.cameras, params
        )
        reports += made
        for t, reps in zip(times[part], made):
            total = 0.0
            for cid, rep in reps.items():
                any_infeasible = any_infeasible or rep.infeasible
                total += rep.fpr
                per_camera_max[cid] = max(per_camera_max[cid], rep.fpr)
            if total > max_total:
                max_total = total
                max_total_t = t

    summary = {
        "ticks": len(times),
        "cameras": len(trace.cameras),
        "max_fpr_per_camera": per_camera_max,
        "max_total_fpr": max_total,
        "max_total_fpr_t": max_total_t,
        "fraction_of_provisioned": fraction_of_provisioned(
            max_total, max(1, len(trace.cameras)), params
        ),
        "any_infeasible": any_infeasible,
    }
    return AnalysisResult(times, actor_ids, latencies, reports, summary)


def _sweep_ego(speed: float) -> KinematicState:
    return KinematicState(x=0.0, y=0.0, v=speed, a=0.0, heading=0.0)


def _cell_rate(
    latency: float | None, ego: KinematicState, traj: Trajectory, l0: float, params: ModelParams
) -> float | None:
    """A sweep cell's value from its searched latency (None when the search
    found none): its rate, or OVER_MAX or None as the zero-latency scan decides."""
    if latency is not None:
        return 1.0 / latency
    if feasible_latency_scan(ego, traj, l0, 0.0, params):
        return OVER_MAX
    return None


def required_fpr_cell(
    ego_speed: float,
    actor_speed: float,
    separation: float,
    params: ModelParams,
    l0: float | None = None,
) -> float | None:
    """Minimum required rate for one (ego speed, actor speed) sweep cell.

    The synthetic actor holds the separation budget constant while reporting
    a constant speed. Returns the rate in Hz, OVER_MAX when only the
    zero-latency limit is safe (a faster-than-grid rate would be needed), or
    None when even instantaneous perception cannot avoid the collision.
    ``separation`` must be finite and > 0.
    """
    within("separation", separation, 0.0, open_lo=True)
    ego = _sweep_ego(ego_speed)
    traj = constant_separation_trajectory(separation, actor_speed, params.horizon)
    l0_eff = params.latency_min if l0 is None else l0
    latency = tolerable_latency(ego, traj, l0_eff, params).latency
    return _cell_rate(latency, ego, traj, l0_eff, params)


def sweep_grid(
    separation: float,
    ego_speeds: Sequence[float],
    actor_speeds: Sequence[float],
    params: ModelParams,
    l0: float | None = None,
) -> list[list[float | None]]:
    """Rows indexed by ego speed, columns by actor speed: cell (i, j) is
    ``required_fpr_cell(ego_speeds[i], actor_speeds[j], separation, params, l0)``.

    Every ego searches every actor's path, so the searches are one
    ``search_paths`` call per block of egos (at most ``BLOCK_LANES`` lanes
    and at least one ego), at offset 0.0, where it gives the scalar search's
    latencies to the bit. Only the cells it leaves infeasible run the
    zero-latency scan. The arguments are checked as the cell-by-cell loop
    checks them, so a bad one raises the error its first cell would raise.
    """
    if not (len(ego_speeds) and len(actor_speeds)):
        return [[] for _ in ego_speeds]
    # checked in the order of the first cell (separation, its ego, its
    # path, l0), then the first row's other paths, then the other egos
    within("separation", separation, 0.0, open_lo=True)
    egos = [_sweep_ego(ego_speeds[0])]
    trajs = [constant_separation_trajectory(separation, actor_speeds[0], params.horizon)]
    l0_eff = params.latency_min if l0 is None else l0
    params.check_l0(l0_eff)
    trajs += [
        constant_separation_trajectory(separation, va, params.horizon) for va in actor_speeds[1:]
    ]
    egos += [_sweep_ego(ve) for ve in ego_speeds[1:]]
    paths = path_table([traj.columns() for traj in trajs])
    rows = np.array([[ego.x, ego.y, ego.v, ego.a, ego.heading] for ego in egos])
    block = max(1, BLOCK_LANES // (len(trajs) * len(params.latency_grid)))
    grid: list[list[float | None]] = []
    for start in range(0, len(egos), block):
        part = rows[start : start + block]
        lats, _ = search_paths(part, (0.0,) * len(part), paths, l0_eff, params)
        for i, ego in enumerate(egos[start : start + block]):
            row = lats[i * len(trajs) : (i + 1) * len(trajs)]
            grid.append([
                _cell_rate(latency, ego, traj, l0_eff, params)
                for latency, traj in zip(row, trajs)
            ])
    return grid


def format_cell(value: float | None, params: ModelParams) -> str:
    if value is None:
        return "INFEASIBLE"
    _, cap = params.fpr_bounds()
    if math.isinf(value):
        return f">{cap:g}"
    return f"{round(value, 4):g}"


def write_sweep_csv(
    grid: list[list[float | None]],
    ego_speeds: Sequence[float],
    actor_speeds: Sequence[float],
    params: ModelParams,
    dest: str | Path | IO[str],
) -> None:
    """Dense CSV with axis headers in m/s; cells are rates or sentinels."""

    def _write(fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["ve0_mps\\van_mps"] + [f"{v:g}" for v in actor_speeds])
        for ve, row in zip(ego_speeds, grid):
            w.writerow([f"{ve:g}"] + [format_cell(c, params) for c in row])

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", newline="") as fh:
            _write(fh)
