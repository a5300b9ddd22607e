"""Offline trace analysis, sensitivity sweeps and report arithmetic."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Sequence

from .model import FprReport, path_table, scene_reports, search_paths, tolerable_latency
from .oracle import feasible_latency_scan
from .trace import ScenarioTrace, TickRecord
from .types import (
    KinematicState,
    L0_FIXED,
    LatencyEstimate,
    ModelParams,
    constant_separation_trajectory,
    finite_float,
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


def _estimate_blocks(
    trace: ScenarioTrace, params: ModelParams
) -> Iterator[tuple[int, Sequence[TickRecord], list[LatencyEstimate]]]:
    """Per block of ticks: its first tick index, its ticks and its estimates, tick-major.

    The reference latency l0 is the one the trace was recorded at, under
    the fixed l0 policy. Each actor's recorded columns go into one path
    table (``ScenarioTrace.actor_columns``), and every ego of a block reads
    the table from its own tick time on (``search_paths``). A block holds at
    most ``BLOCK_LANES`` (tick, actor, grid candidate) lanes, and at least
    one tick.
    """
    ticks = trace.ticks
    n = len(trace.actor_ids)
    l0 = trace.operating_latency()
    fixed = params.replace(l0_policy=L0_FIXED)
    paths = path_table([trace.actor_columns(aid) for aid in trace.actor_ids])
    block = max(1, BLOCK_LANES // (max(1, n) * len(params.latency_grid)))
    for start in range(0, len(ticks), block):
        part = ticks[start : start + block]
        egos, offsets = [tick.ego for tick in part], [tick.t for tick in part]
        yield start, part, search_paths(egos, offsets, paths, l0, fixed)


def analyze_trace(trace: ScenarioTrace, params: ModelParams) -> AnalysisResult:
    """Per-tick per-camera required rates over a recorded trace.

    Post-run analysis uses the recorded future of each actor (a single
    known trajectory) and the latency the trace was recorded at as the
    reference latency l0. The trace is analysed block by block: one batched
    search per block of ticks (``_estimate_blocks``), then one
    ``scene_reports`` call for the block's camera rates. No array spans the
    whole trace. The result equals running each tick through
    ``evaluate_scene`` with every actor's ``ground_truth_trajectory``.
    """
    out = AnalysisResult()
    records = out.records
    actor_ids = trace.actor_ids
    n = len(actor_ids)
    camera_ids = [c.camera_id for c in trace.cameras]
    per_camera_max: dict[str, float] = dict.fromkeys(camera_ids, 0.0)
    max_total = 0.0
    max_total_t = 0.0
    any_infeasible = False

    for start, part, ests in _estimate_blocks(trace, params):
        latencies = [[est.latency for est in ests[i * n : (i + 1) * n]] for i in range(len(part))]
        positions = [
            [(s.x, s.y) for s in map(tick.actors.__getitem__, actor_ids)] for tick in part
        ]
        egos = [tick.ego for tick in part]
        reports = scene_reports(egos, actor_ids, positions, latencies, trace.cameras, params)
        for k, tick, lats, reps in zip(range(start, start + len(part)), part, latencies, reports):
            t = tick.t
            for aid, latency in zip(actor_ids, lats):
                records.append({"tick": k, "t": t, "actor": aid, "latency": latency})
            total = 0.0
            for cid in camera_ids:
                rep = reps[cid]
                any_infeasible = any_infeasible or rep.infeasible
                total += rep.fpr
                per_camera_max[cid] = max(per_camera_max[cid], rep.fpr)
                records.append(camera_record(k, t, cid, rep))
            if total > max_total:
                max_total = total
                max_total_t = t

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
    ``separation`` must be finite and > 0.
    """
    if not finite_float("separation", separation) > 0.0:
        raise ValueError(f"separation must be > 0, got {separation!r}")
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
