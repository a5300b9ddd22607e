import math

import numpy as np
import pytest

from safefpr import (
    KinematicState,
    ModelParams,
    PredictorConfig,
    Trajectory,
    generate_scenario,
    list_families,
    predict_trajectories,
    run_scenario,
)
from safefpr.types import L0_CANDIDATE, L0_FIXED


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def fixed_params():
    return ModelParams(l0_policy=L0_FIXED)


@pytest.fixture(scope="module")
def family_traces():
    """Every built-in family at its defaults, recorded by a fixed-rate run at 30 Hz and at 10 Hz.

    Keyed by (family, rate); recorded once per test module that uses it.
    """
    params = ModelParams()
    return {
        (family, rate): run_scenario(generate_scenario(family), params, frame_rate=rate).trace
        for family in list_families()
        for rate in (30.0, 10.0)
    }


def static_actor_trajectory(distance: float, duration: float = 40.0) -> Trajectory:
    state = KinematicState(x=distance, y=0.0, v=0.0)
    return Trajectory.from_states(((0.0, state), (duration, state)))


def random_case(rng: np.random.Generator):
    """One (ego, trajectory, l0) sample for conservatism/property corpora.

    Ego speeds up to 35 m/s with accelerations from hard braking to mild
    speed-up; the actor follows a piecewise-constant-acceleration course
    from a random start pose, sampled densely enough that interpolation is
    the contract rather than an approximation.
    """
    ego = KinematicState(
        0.0,
        0.0,
        rng.uniform(0.0, 35.0),
        rng.uniform(-6.0, 3.0),
        rng.uniform(-math.pi, math.pi),
    )
    r = rng.uniform(3.0, 150.0)
    b = rng.uniform(-math.pi, math.pi)
    x, y = r * math.cos(b), r * math.sin(b)
    heading = rng.uniform(-math.pi, math.pi)
    v = rng.uniform(0.0, 35.0)
    samples = [(0.0, KinematicState(x, y, v, 0.0, heading))]
    t = 0.0
    for _ in range(int(rng.integers(2, 6))):
        a = rng.uniform(-6.0, 3.0)
        for _ in range(max(1, int(rng.uniform(0.8, 2.5) / 0.4))):
            dt = 0.4
            if a < 0.0 and v + a * dt < 0.0:
                d = 0.5 * v * (v / -a)
                v2 = 0.0
            else:
                d = v * dt + 0.5 * a * dt * dt
                v2 = v + a * dt
            x += d * math.cos(heading)
            y += d * math.sin(heading)
            t += dt
            v = v2
            samples.append((t, KinematicState(x, y, v, a if v > 0.0 else 0.0, heading)))
    l0 = float(rng.uniform(1.0 / 30.0, 1.0))
    return ego, Trajectory.from_states(samples), l0


def corpus_params(i: int) -> ModelParams:
    return ModelParams(l0_policy=L0_CANDIDATE if i % 2 else L0_FIXED)


def perf_scene() -> dict[str, list[Trajectory]]:
    """Criterion 2's tick: 12 actors around the ego, 5 predicted trajectories each."""
    specs = [
        (30, 0, 14, 0.0), (55, 3.5, 16, 0.0), (80, -3.5, 18, 0.0),
        (20, 3.5, 15, 0.0), (15, -3.5, 13, 0.0), (120, 0, 20, 0.0),
        (-25, 0, 17, 0.0), (-40, 3.5, 19, 0.0), (45, 7, 12, -1.0),
        (65, -7, 22, 0.5), (100, 3.5, 10, -2.0), (35, -10.5, 8, 0.0),
    ]
    cfg = PredictorConfig(num_variants=5)
    return {
        f"a{i:02d}": predict_trajectories(
            KinematicState(float(x), float(y), float(v), float(a)), cfg
        )
        for i, (x, y, v, a) in enumerate(specs)
    }


def state_rows(states) -> np.ndarray:
    """States as the (states, 5) ego rows ``search_paths``, ``scene_reports`` and
    ``fov_mask`` take: x, y, v, a and heading, ``KinematicState``'s field order."""
    return np.array([(s.x, s.y, s.v, s.a, s.heading) for s in states], dtype=float).reshape(-1, 5)
