"""The traced benchmark's per-call counts read trajectories through ``samples``."""

import sys
from pathlib import Path

from safefpr import (
    KinematicState,
    ModelParams,
    PredictorConfig,
    ground_truth_trajectory,
    predict_trajectories,
    tolerable_latency,
)

from test_trace import build_trace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402


def test_fan_samples_counts_every_sample():
    cfg = PredictorConfig(horizon=6.0, num_variants=5)
    fan = predict_trajectories(KinematicState(10.0, 3.5, 20.0, -1.0), cfg)
    assert tracing._fan_samples((), {}, fan) == 5 * 25
    assert tracing._fan_samples((), {}, fan) == sum(traj.t.shape[0] for traj in fan)


def test_search_counts_candidates_and_samples():
    params = ModelParams()
    trace = build_trace()
    traj = ground_truth_trajectory(trace, "lead", 2)
    ego = KinematicState(0.0, 0.0, 15.0)
    est = tolerable_latency(ego, traj, 1 / 30, params)
    index = params.latency_grid.index(est.latency)
    assert tracing._search((ego, traj, 1 / 30, params), {}, est) == (
        index + 1, index == 0, False, len(trace.ticks) - 2)
    fast = KinematicState(0.0, 0.0, 60.0)
    est = tolerable_latency(fast, traj, 1 / 30, params)
    assert est.infeasible
    assert tracing._search((), {"traj": traj, "params": params}, est) == (
        len(params.latency_grid), False, True, traj.t.shape[0])


def test_samples_counts_the_recorded_future():
    trace = build_trace()
    for k in (0, 7, len(trace.ticks) - 1):
        traj = ground_truth_trajectory(trace, "parked", k)
        assert tracing._samples((trace, "parked", k), {}, traj) == max(2, len(trace.ticks) - k)
