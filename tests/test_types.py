import dataclasses
import math

import numpy as np
import pytest

from safefpr import KinematicState, ModelParams, PredictorConfig, Trajectory, predict_trajectories
from safefpr.predictor import SAMPLE_DT
from safefpr.types import (
    constant_separation_trajectory,
    normalize_angle,
    sample_times,
    straight_line_trajectory,
)


class TestKinematicState:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            KinematicState(0, 0, -0.1)

    @pytest.mark.parametrize("field", ["x", "y", "v", "a", "heading"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(x=0.0, y=0.0, v=1.0, a=0.0, heading=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            KinematicState(**fields)

    def test_heading_normalized(self):
        s = KinematicState(0, 0, 1.0, heading=3 * math.pi)
        assert s.heading == pytest.approx(math.pi)
        s = KinematicState(0, 0, 1.0, heading=-math.pi)
        assert s.heading == pytest.approx(math.pi)


class TestTrajectory:
    ST = KinematicState(0, 0, 1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            Trajectory.from_states(((0.0, self.ST),))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t = 0"):
            Trajectory.from_states(((0.5, self.ST), (1.0, self.ST)))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory.from_states(((0.0, self.ST), (1.0, self.ST), (1.0, self.ST)))

    @pytest.mark.parametrize(
        "times", [(0.0, math.nan, 2.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)]
    )
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            Trajectory.from_states(tuple((t, self.ST) for t in times))

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            Trajectory.from_states(((0.0, self.ST), (1.0, self.ST)), probability=1.5)

    @pytest.mark.parametrize("column", ["x", "y", "v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_and_speeds_rejected(self, column, value):
        cols = dict(t=[0.0, 1.0], x=[0.0, 1.0], y=[0.0, 1.0], v=[1.0, 1.0])
        cols[column][1] = value
        with pytest.raises(ValueError, match="finite"):
            Trajectory(**cols)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="speeds"):
            Trajectory(t=[0.0, 1.0], x=[0.0, 1.0], y=[0.0, 0.0], v=[1.0, -0.5])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            Trajectory(t=[0.0, 1.0], x=[0.0, 1.0, 2.0], y=[0.0, 0.0], v=[1.0, 1.0])

    def test_columns_read_only_and_detached_from_caller(self):
        xs = np.array([0.0, 1.0])
        traj = Trajectory(t=[0.0, 1.0], x=xs, y=[0.0, 0.0], v=[1.0, 1.0])
        xs[1] = 50.0
        assert traj.x.tolist() == [0.0, 1.0]
        for col in traj.columns():
            assert col.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1.0

    def test_from_states_keeps_position_and_speed(self):
        states = ((0.0, KinematicState(1.0, 2.0, 3.0, a=-1.0, heading=0.5)),
                  (2.0, KinematicState(4.0, 6.0, 1.0)))
        traj = Trajectory.from_states(states, probability=0.25)
        cols = [c.tolist() for c in traj.columns()]
        assert cols == [[0.0, 2.0], [1.0, 4.0], [2.0, 6.0], [3.0, 1.0]]
        assert traj.probability == 0.25
        assert len(traj.samples) == 2
        assert traj.samples[-1] == (2.0, KinematicState(4.0, 6.0, 1.0))
        assert traj.samples[0] == (0.0, KinematicState(1.0, 2.0, 3.0))

    def test_holds_last_state_beyond_horizon(self):
        moving = KinematicState(10.0, 0.0, 5.0)
        traj = Trajectory.from_states(((0.0, self.ST), (2.0, moving)))
        assert traj.state_at(100.0) == (10.0, 0.0, 5.0)

    def test_interpolates_between_samples(self):
        far = KinematicState(10.0, 2.0, 3.0)
        traj = Trajectory.from_states(((0.0, self.ST), (2.0, far)))
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
            {"max_time_adjustments": 2.5},
            {"max_time_adjustments": 2.0},
            {"max_time_adjustments": True},
            {"max_time_adjustments": 2**53 + 1},
            {"confirmation_frames": 2.5},
            {"confirmation_frames": "5"},
            {"confirmation_frames": 10**400},
            {"distance_margin": "0.5"},
            {"min_brake_decel": math.inf},
            {"brake_boost": math.inf},
            {"fine_dt": math.inf},
            {"horizon": 10**400},
            {"latency_step": 1e-9},
            {"latency_step": 5e-324},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_largest_grid_accepted(self):
        p = ModelParams(latency_min=1e-4, latency_step=1e-4)
        assert len(p.latency_grid) == 10_000
        assert p.latency_grid[-1] == pytest.approx(1e-4)

    def test_numbers_stored_as_floats(self):
        p = ModelParams(latency_max=1, horizon=30)
        assert type(p.latency_max) is float and type(p.horizon) is float
        assert p == ModelParams()

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


def scalar_straight_line(start: KinematicState, duration: float, sample_dt: float):
    """Columns of straight_line_trajectory, one sample at a time in Python floats."""
    n = max(1, int(math.ceil(duration / sample_dt)))
    cos_h, sin_h = math.cos(start.heading), math.sin(start.heading)
    cols = ([], [], [], [])
    for i in range(n + 1):
        t = min(duration, i * sample_dt)
        if start.a < 0.0 and t >= start.v / -start.a:
            dist = 0.5 * start.v * (start.v / -start.a)
            v = 0.0
        else:
            dist = start.v * t + 0.5 * start.a * t * t
            v = start.v + start.a * t
        for col, value in zip(cols, (t, start.x + dist * cos_h, start.y + dist * sin_h, v)):
            col.append(value)
    return cols


@pytest.mark.parametrize(
    "start",
    [
        KinematicState(3.0, -1.5, 12.3, a=2.45, heading=0.4),       # accelerating
        KinematicState(-7.1, 2.2, 13.7, a=-4.9, heading=-2.9),      # brakes to a stop mid-way
        KinematicState(0.3, 0.0, 9.0, a=-3.0, heading=math.pi / 2),  # stops exactly on a sample
        KinematicState(5.0, 5.0, 0.0, a=-2.45, heading=1.0),        # stationary, braking
        KinematicState(5.0, 5.0, 0.0, heading=-1.0),                # stationary, coasting
    ],
)
@pytest.mark.parametrize("duration,sample_dt", [(6.0, 0.25), (5.9, 0.25), (30.0, 30.0), (1.0, 0.3)])
def test_straight_line_columns_match_scalar_reference(start, duration, sample_dt):
    traj = straight_line_trajectory(start, duration, sample_dt=sample_dt)
    want = scalar_straight_line(start, duration, sample_dt)
    assert [c.tolist() for c in traj.columns()] == [list(c) for c in want]


# the starts of test_straight_line_columns_match_scalar_reference
FAN_STARTS = [
    KinematicState(3.0, -1.5, 12.3, a=2.45, heading=0.4),
    KinematicState(-7.1, 2.2, 13.7, a=-4.9, heading=-2.9),
    KinematicState(0.3, 0.0, 9.0, a=-3.0, heading=math.pi / 2),
    KinematicState(5.0, 5.0, 0.0, a=-2.45, heading=1.0),
    KinematicState(5.0, 5.0, 0.0, heading=-1.0),
]
FAN_CONFIGS = [
    PredictorConfig(num_variants=1, decel_spread=0.0),
    PredictorConfig(num_variants=5),
    PredictorConfig(horizon=5.9, num_variants=4, variant_probabilities=(0.1, 0.2, 0.3, 0.4)),
    PredictorConfig(horizon=30.0, num_variants=5, decel_spread=3.0),
    PredictorConfig(horizon=1.0, num_variants=2, decel_spread=6.0),
]


@pytest.mark.parametrize("start", FAN_STARTS)
@pytest.mark.parametrize("cfg", FAN_CONFIGS)
def test_fan_columns_match_scalar_reference(start, cfg):
    fan = predict_trajectories(start, cfg)
    assert [traj.probability for traj in fan] == list(cfg.probabilities())
    for traj, offset in zip(fan, cfg.acceleration_offsets(), strict=True):
        variant = dataclasses.replace(start, a=start.a + offset)
        want = scalar_straight_line(variant, cfg.horizon, SAMPLE_DT)
        assert [c.tolist() for c in traj.columns()] == [list(c) for c in want]


def test_fan_columns_read_only_and_unaliased():
    fan = predict_trajectories(KinematicState(3.0, -1.5, 12.3, a=-1.0, heading=0.4),
                               PredictorConfig())
    for traj in fan:
        for col in traj.columns():
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1.0
    for i, a in enumerate(fan):
        for b in fan[i + 1:]:
            for col_a in a.columns():
                for col_b in b.columns():
                    assert not np.shares_memory(col_a, col_b)


def test_fan_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
        predict_trajectories(KinematicState(0.0, 0.0, 1e308, a=1.0), PredictorConfig())


def test_sample_times_are_shared_read_only():
    t = sample_times(5.9, 0.25)
    assert t.tolist() == [0.25 * i for i in range(24)] + [5.9]
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 1.0


def test_from_block_needs_a_read_only_block():
    block = np.zeros((1, 4, 2))
    block[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        Trajectory.from_block(block, (1.0,))
    block.setflags(write=False)
    (traj,) = Trajectory.from_block(block, (1.0,))
    assert traj.t.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="one probability"):
        Trajectory.from_block(block, (0.5, 0.5))
