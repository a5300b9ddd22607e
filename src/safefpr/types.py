"""Core domain types: kinematic states, predicted trajectories, model parameters.

All quantities are SI (meters, seconds, radians). Frame-processing rates are
in Hz; mph exists only at the CLI presentation layer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

MPH_TO_MPS = 0.44704
TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    theta = math.fmod(theta, TWO_PI)
    if theta > math.pi:
        theta -= TWO_PI
    elif theta <= -math.pi:
        theta += TWO_PI
    return theta


@dataclass(frozen=True)
class KinematicState:
    """State of the ego or one actor at a single instant.

    ``x``/``y`` are world-frame positions in meters, ``v`` is speed (never a
    signed velocity, so always >= 0), ``a`` is signed longitudinal
    acceleration (negative while decelerating) and ``heading`` is the course
    angle in radians, normalized to (-pi, pi].
    """

    x: float
    y: float
    v: float
    a: float = 0.0
    heading: float = 0.0

    def __post_init__(self) -> None:
        if self.v < 0.0:
            raise ValueError(f"speed must be >= 0, got {self.v}")
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Trajectory:
    """One predicted future of an actor with an occurrence probability.

    ``samples`` is an ordered sequence of ``(t, state)`` pairs with strictly
    increasing times starting at t = 0. Queries between samples linearly
    interpolate position and speed; queries past the last sample hold the
    final state (a finite prediction horizon is extended conservatively).
    """

    samples: tuple[tuple[float, KinematicState], ...]
    probability: float = 1.0

    # flattened per-sample columns, built once for fast interpolation
    _ts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _ys: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _vs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        samples = tuple((float(t), s) for t, s in self.samples)
        if len(samples) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if samples[0][0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        ts = tuple(t for t, _ in samples)
        if not (all(b > a for a, b in zip(ts, ts[1:])) and math.isfinite(ts[-1])):
            raise ValueError("trajectory times must be finite and strictly increasing")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_xs", tuple(s.x for _, s in samples))
        object.__setattr__(self, "_ys", tuple(s.y for _, s in samples))
        object.__setattr__(self, "_vs", tuple(s.v for _, s in samples))
        object.__setattr__(
            self,
            "_cols",
            (
                np.asarray(self._ts, dtype=np.float64),
                np.asarray(self._xs, dtype=np.float64),
                np.asarray(self._ys, dtype=np.float64),
                np.asarray(self._vs, dtype=np.float64),
            ),
        )

    def columns(self) -> tuple:
        """(times, xs, ys, speeds) as float64 arrays."""
        return self._cols

    def state_at(self, t: float) -> tuple[float, float, float]:
        """Interpolated ``(x, y, speed)`` at time t >= 0."""
        ts = self._ts
        if t >= ts[-1]:
            return (self._xs[-1], self._ys[-1], self._vs[-1])
        if t <= 0.0:
            return (self._xs[0], self._ys[0], self._vs[0])
        i = bisect_right(ts, t)
        t0, t1 = ts[i - 1], ts[i]
        w = (t - t0) / (t1 - t0)
        return (
            self._xs[i - 1] + w * (self._xs[i] - self._xs[i - 1]),
            self._ys[i - 1] + w * (self._ys[i] - self._ys[i - 1]),
            self._vs[i - 1] + w * (self._vs[i] - self._vs[i - 1]),
        )

    def end_time(self) -> float:
        return self._ts[-1]


# How the reference latency l0 (the latency the system currently runs at) is
# chosen when searching for a tolerable latency:
#   "candidate" - l0 tracks the candidate latency, i.e. the steady state in
#                 which the system already operates at the latency under test
#                 and no re-confirmation delay applies. Used for sensitivity
#                 sweeps.
#   "fixed"     - l0 is the measured processing latency passed by the caller
#                 (post-deployment mode and trace analysis).
L0_CANDIDATE = "candidate"
L0_FIXED = "fixed"

AGGREGATORS = ("min", "max", "mean", "percentile")


@dataclass(frozen=True)
class ModelParams:
    """All model constants.

    Defaults give a 30-step latency grid from 1 s down to 1/30 s in 1/30 s
    decrements, with 0.9 distance/speed margins, a 4.9 m/s^2 braking floor
    amplified 1.1x over an existing deceleration, 5 confirmation frames and
    10 probe-time adjustments per latency candidate.
    """

    distance_margin: float = 0.9      # scales the allowed separation (<= 1)
    speed_margin: float = 0.9         # scales the actor speed the ego must undercut
    min_brake_decel: float = 4.9      # m/s^2, hard-braking floor
    brake_boost: float = 1.1          # amplification of an existing deceleration
    confirmation_frames: int = 5      # frames to re-confirm an actor after latency grows
    max_time_adjustments: int = 10    # probe-time updates per latency candidate
    latency_max: float = 1.0          # s
    latency_min: float = 1.0 / 30.0   # s
    latency_step: float = 1.0 / 30.0  # s, grid decrement
    percentile: float = 99.0          # (0, 100], used by the percentile aggregator
    aggregator: str = "min"           # min | max | mean | percentile
    l0_policy: str = L0_CANDIDATE     # "candidate" | "fixed"
    fine_dt: float = 0.01             # s, exhaustive-scan step
    horizon: float = 30.0             # s, largest probe time considered

    latency_grid: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _grid_arr: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_margin <= 1.0:
            raise ValueError("distance_margin must be in (0, 1]")
        if not 0.0 < self.speed_margin <= 1.0:
            raise ValueError("speed_margin must be in (0, 1]")
        if not self.min_brake_decel > 0.0:
            raise ValueError("min_brake_decel must be > 0")
        if not self.brake_boost >= 1.0:
            raise ValueError("brake_boost must be >= 1")
        if not self.confirmation_frames >= 0:
            raise ValueError("confirmation_frames must be >= 0")
        if not self.max_time_adjustments >= 1:
            raise ValueError("max_time_adjustments must be >= 1")
        if not 0.0 < self.latency_min <= self.latency_max:
            raise ValueError("need 0 < latency_min <= latency_max")
        if not self.latency_step > 0.0:
            raise ValueError("latency_step must be > 0")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")
        if self.l0_policy not in (L0_CANDIDATE, L0_FIXED):
            raise ValueError(f"l0_policy must be '{L0_CANDIDATE}' or '{L0_FIXED}'")
        if not self.fine_dt > 0.0:
            raise ValueError("fine_dt must be > 0")
        if not self.latency_max < self.horizon < math.inf:
            raise ValueError("horizon must be finite and exceed latency_max")
        steps = int(math.floor((self.latency_max - self.latency_min) / self.latency_step + 1e-9))
        grid = tuple(self.latency_max - i * self.latency_step for i in range(steps + 1))
        object.__setattr__(self, "latency_grid", grid)
        object.__setattr__(self, "_grid_arr", np.asarray(grid, dtype=np.float64))

    def grid_array(self):
        """The descending latency grid as a float64 array."""
        return self._grid_arr

    def fpr_bounds(self) -> tuple[float, float]:
        """(min, max) reportable frame-processing rate in Hz."""
        return (1.0 / self.latency_max, 1.0 / self.latency_min)

    def replace(self, **changes) -> "ModelParams":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


@dataclass(frozen=True)
class LatencyEstimate:
    """Largest safe per-frame processing latency found for one actor.

    ``latency`` is None when no latency on the search grid satisfies the
    safety constraints (an unavoidable collision under the model).
    ``probe_time`` is the future time at which the constraints were met and
    ``trajectory_index`` identifies the trajectory that bound the estimate.
    """

    latency: float | None
    probe_time: float | None = None
    trajectory_index: int = 0

    @property
    def infeasible(self) -> bool:
        return self.latency is None

    def required_fpr(self, params: ModelParams) -> float:
        """Required processing rate in Hz, clamped to the reportable range."""
        lo, hi = params.fpr_bounds()
        if self.latency is None:
            return hi
        return min(hi, max(lo, 1.0 / self.latency))


INFEASIBLE = LatencyEstimate(latency=None)


@dataclass(frozen=True)
class BrakingProfile:
    """Hold-then-brake maneuver summary up to a probe time.

    ``reaction_distance`` is covered while the ego holds its current
    acceleration for ``reaction_time`` seconds; ``braking_distance`` while it
    decelerates at the hard-braking rate, ending at ``end_speed``. Speed is
    floored at zero in both phases (the ego never reverses).
    """

    reaction_distance: float
    braking_distance: float
    end_speed: float
    reaction_time: float

    @property
    def total_distance(self) -> float:
        return self.reaction_distance + self.braking_distance


def straight_line_trajectory(
    start: KinematicState,
    duration: float,
    sample_dt: float = 0.25,
    probability: float = 1.0,
) -> Trajectory:
    """Constant-acceleration extrapolation of ``start`` along its heading.

    Speed is floored at zero; once stopped the actor stays put.
    """
    if duration <= 0.0 or sample_dt <= 0.0:
        raise ValueError("duration and sample_dt must be > 0")
    n = max(1, int(math.ceil(duration / sample_dt)))
    cos_h = math.cos(start.heading)
    sin_h = math.sin(start.heading)
    samples = []
    for i in range(n + 1):
        t = min(duration, i * sample_dt)
        if start.a < 0.0:
            t_stop = start.v / -start.a if start.a != 0.0 else math.inf
            if t >= t_stop:
                dist = 0.5 * start.v * t_stop
                v = 0.0
            else:
                dist = start.v * t + 0.5 * start.a * t * t
                v = start.v + start.a * t
        else:
            dist = start.v * t + 0.5 * start.a * t * t
            v = start.v + start.a * t
        samples.append(
            (
                t,
                KinematicState(
                    x=start.x + dist * cos_h,
                    y=start.y + dist * sin_h,
                    v=v,
                    a=start.a if v > 0.0 or start.a > 0.0 else 0.0,
                    heading=start.heading,
                ),
            )
        )
    return Trajectory(samples=tuple(samples), probability=probability)


def constant_separation_trajectory(
    separation: float,
    actor_speed: float,
    duration: float,
    bearing: float = 0.0,
) -> Trajectory:
    """Synthetic actor pinned at a fixed separation while reporting a speed.

    Used by sensitivity sweeps that hold the separation budget constant and
    vary the actor's end speed independently.
    """
    state = KinematicState(
        x=separation * math.cos(bearing),
        y=separation * math.sin(bearing),
        v=actor_speed,
    )
    return Trajectory(samples=((0.0, state), (duration, state)), probability=1.0)
