import math

import pytest

from safefpr import KinematicState, ModelParams, Trajectory
from safefpr.types import (
    constant_separation_trajectory,
    normalize_angle,
    straight_line_trajectory,
)


class TestKinematicState:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            KinematicState(0, 0, -0.1)

    def test_heading_normalized(self):
        s = KinematicState(0, 0, 1.0, heading=3 * math.pi)
        assert s.heading == pytest.approx(math.pi)
        s = KinematicState(0, 0, 1.0, heading=-math.pi)
        assert s.heading == pytest.approx(math.pi)


class TestTrajectory:
    ST = KinematicState(0, 0, 1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            Trajectory(samples=((0.0, self.ST),))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t = 0"):
            Trajectory(samples=((0.5, self.ST), (1.0, self.ST)))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(samples=((0.0, self.ST), (1.0, self.ST), (1.0, self.ST)))

    @pytest.mark.parametrize(
        "times", [(0.0, math.nan, 2.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)]
    )
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(samples=tuple((t, self.ST) for t in times))

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            Trajectory(samples=((0.0, self.ST), (1.0, self.ST)), probability=1.5)

    def test_holds_last_state_beyond_horizon(self):
        moving = KinematicState(10.0, 0.0, 5.0)
        traj = Trajectory(samples=((0.0, self.ST), (2.0, moving)))
        assert traj.state_at(100.0) == (10.0, 0.0, 5.0)

    def test_interpolates_between_samples(self):
        far = KinematicState(10.0, 2.0, 3.0)
        traj = Trajectory(samples=((0.0, self.ST), (2.0, far)))
        x, y, v = traj.state_at(1.0)
        assert (x, y) == (5.0, 1.0)
        assert v == pytest.approx(2.0)


class TestModelParams:
    def test_default_grid(self):
        p = ModelParams()
        assert len(p.latency_grid) == 30
        assert p.latency_grid[0] == 1.0
        assert p.latency_grid[-1] == pytest.approx(1 / 30)
        assert all(a > b for a, b in zip(p.latency_grid, p.latency_grid[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distance_margin": 0.0},
            {"distance_margin": 1.2},
            {"speed_margin": -0.1},
            {"min_brake_decel": 0.0},
            {"brake_boost": 0.9},
            {"confirmation_frames": -1},
            {"max_time_adjustments": 0},
            {"latency_min": 0.0},
            {"latency_min": 2.0},
            {"latency_step": 0.0},
            {"percentile": 0.0},
            {"percentile": 101.0},
            {"aggregator": "median"},
            {"l0_policy": "sometimes"},
            {"fine_dt": 0.0},
            {"horizon": 0.5},
            {"min_brake_decel": math.nan},
            {"brake_boost": math.nan},
            {"confirmation_frames": math.nan},
            {"max_time_adjustments": math.nan},
            {"latency_step": math.nan},
            {"fine_dt": math.nan},
            {"horizon": math.nan},
            {"horizon": math.inf},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_fpr_bounds(self):
        lo, hi = ModelParams().fpr_bounds()
        assert (lo, hi) == (1.0, pytest.approx(30.0))


class TestHelpers:
    def test_normalize_angle_range(self):
        for k in range(-8, 9):
            theta = normalize_angle(0.37 + k * 2 * math.pi)
            assert -math.pi < theta <= math.pi
            assert theta == pytest.approx(0.37)

    def test_straight_line_respects_heading(self):
        start = KinematicState(1.0, 1.0, 2.0, heading=math.pi / 2)
        traj = straight_line_trajectory(start, duration=3.0)
        x, y, _ = traj.state_at(3.0)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(7.0)

    def test_constant_separation_actor(self):
        traj = constant_separation_trajectory(30.0, 12.0, duration=10.0)
        for t in (0.0, 2.5, 10.0, 50.0):
            x, y, v = traj.state_at(t)
            assert math.hypot(x, y) == pytest.approx(30.0)
            assert v == 12.0
