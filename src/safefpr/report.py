"""Offline trace analysis, sensitivity sweeps and report arithmetic."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Sequence

from .model import FprReport, path_table, scene_reports, search_paths, tolerable_latency
from .oracle import feasible_latency_scan
from .trace import ScenarioTrace
from .types import (
    KinematicState,
    L0_FIXED,
    LatencyEstimate,
    ModelParams,
    constant_separation_trajectory,
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


@dataclass
class AnalysisResult:
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def camera_record(tick: int, t: float, camera: str, report: FprReport) -> dict:
    """One camera's output record at one tick: its required rate and what binds it."""
    return {
        "tick": tick,
        "t": t,
        "camera": camera,
        "fpr": report.fpr,
        "latency": report.latency,
        "binding_actor": report.binding_actor,
        "infeasible": report.infeasible,
    }


# Lanes per batched search over a trace: about one online tick's worth, so
# a block's working arrays stay small however long the trace is
BLOCK_LANES = 3000


def recorded_estimates(
    trace: ScenarioTrace, params: ModelParams
) -> Iterator[tuple[int, dict[str, LatencyEstimate]]]:
    """Per tick, each actor's latency estimate against its recorded future.

    The reference latency l0 is the one the trace was recorded at, under
    the fixed l0 policy. Each actor's recorded columns go into one path
    table (``ScenarioTrace.actor_columns``), and the ticks are searched in
    blocks, every ego of a block reading the table from its own tick time
    on (``search_paths``). A block holds at most ``BLOCK_LANES`` (tick,
    actor, grid candidate) lanes, and at least one tick. The latencies
    equal ``tolerable_latency`` on ``ground_truth_trajectory(trace, actor,
    tick)``; probe times agree up to the rounding of the lookup time.
    """
    actor_ids = trace.actor_ids
    ticks = trace.ticks
    n = len(actor_ids)
    if not n:
        for k in range(len(ticks)):
            yield k, {}
        return
    l0 = trace.operating_latency()
    fixed = params.replace(l0_policy=L0_FIXED)
    paths = path_table([trace.actor_columns(aid) for aid in actor_ids])
    block = max(1, BLOCK_LANES // (n * len(params.latency_grid)))
    for start in range(0, len(ticks), block):
        part = ticks[start : start + block]
        egos, offsets = [tick.ego for tick in part], [tick.t for tick in part]
        ests = search_paths(egos, offsets, paths, l0, fixed)
        for i in range(len(part)):
            yield start + i, dict(zip(actor_ids, ests[i * n : (i + 1) * n]))


def analyze_trace(
    trace: ScenarioTrace,
    params: ModelParams,
    mrf: bool = False,
    collision_radius: float = 0.5,
) -> AnalysisResult:
    """Per-tick per-camera required rates over a recorded trace.

    Post-run analysis uses the recorded future of each actor (a single
    known trajectory) and the latency the trace was recorded at as the
    reference latency l0. The searches run in blocks of ticks
    (``recorded_estimates``); each tick's camera rates then come from
    ``scene_reports``, as in ``evaluate_scene``. The result equals running
    each tick through ``evaluate_scene`` with every actor's
    ``ground_truth_trajectory``.
    """
    out = AnalysisResult()
    per_camera_max: dict[str, float] = {c.camera_id: 0.0 for c in trace.cameras}
    max_total = 0.0
    max_total_t = 0.0
    any_infeasible = False

    for k, per_actor in recorded_estimates(trace, params):
        tick = trace.ticks[k]
        _, reports = scene_reports(
            tick.ego,
            {aid: ((est, 1.0),) for aid, est in per_actor.items()},
            {aid: (s.x, s.y) for aid, s in tick.actors.items()},
            trace.cameras,
            params,
        )
        for aid, est in per_actor.items():
            out.records.append(
                {
                    "tick": k,
                    "t": tick.t,
                    "actor": aid,
                    "latency": est.latency,
                }
            )
        total = 0.0
        for cam in trace.cameras:
            cid = cam.camera_id
            rep = reports[cid]
            any_infeasible = any_infeasible or rep.infeasible
            total += rep.fpr
            per_camera_max[cid] = max(per_camera_max[cid], rep.fpr)
            out.records.append(camera_record(k, tick.t, cid, rep))
        if total > max_total:
            max_total = total
            max_total_t = tick.t

    out.summary = {
        "ticks": len(trace.ticks),
        "cameras": len(trace.cameras),
        "max_fpr_per_camera": per_camera_max,
        "max_total_fpr": max_total,
        "max_total_fpr_t": max_total_t,
        "fraction_of_provisioned": fraction_of_provisioned(
            max_total, max(1, len(trace.cameras)), params
        ),
        "any_infeasible": any_infeasible,
    }

    if mrf:
        from .oracle import scenario_mrf
        from .scenarios import script_from_dict

        script_obj = trace.metadata.get("script")
        if not script_obj:
            raise ValueError("trace metadata carries no scenario script; cannot compute MRF")
        value = scenario_mrf(
            script_from_dict(script_obj), params, collision_radius=collision_radius
        )
        out.summary["mrf"] = value
        out.summary["mrf_infeasible_at_max"] = value is None
    return out


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
    """
    if separation <= 0.0:
        raise ValueError("separation must be > 0")
    ego = KinematicState(x=0.0, y=0.0, v=ego_speed, a=0.0, heading=0.0)
    traj = constant_separation_trajectory(separation, actor_speed, duration=params.horizon)
    l0_eff = params.latency_min if l0 is None else l0
    est = tolerable_latency(ego, traj, l0_eff, params)
    if not est.infeasible:
        return 1.0 / est.latency
    if feasible_latency_scan(ego, traj, l0_eff, 0.0, params):
        return OVER_MAX
    return None


def sweep_grid(
    separation: float,
    ego_speeds: Sequence[float],
    actor_speeds: Sequence[float],
    params: ModelParams,
    l0: float | None = None,
) -> list[list[float | None]]:
    """Rows indexed by ego speed, columns by actor speed."""
    return [
        [required_fpr_cell(ve, va, separation, params, l0) for va in actor_speeds]
        for ve in ego_speeds
    ]


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
