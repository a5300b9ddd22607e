"""Core domain types: kinematic states, predicted trajectories, model parameters.

All quantities are SI (meters, seconds, radians). Frame-processing rates are
in Hz; mph exists only at the CLI presentation layer.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
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
    angle in radians, normalized to (-pi, pi]. Every field must be finite.
    """

    x: float
    y: float
    v: float
    a: float = 0.0
    heading: float = 0.0

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.x)
            and math.isfinite(self.y)
            and math.isfinite(self.v)
            and math.isfinite(self.a)
            and math.isfinite(self.heading)
        ):
            raise ValueError(f"state fields must be finite, got {self}")
        if self.v < 0.0:
            raise ValueError(f"speed must be >= 0, got {self.v}")
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


class _Samples(Sequence):
    """``(t, KinematicState)`` pairs read from a trajectory's columns.

    Each pair is built when it is read; the states carry position and
    speed only (acceleration and heading 0). The traced benchmark
    (``bench/tracing.py``) counts samples through ``len`` of this view.
    """

    __slots__ = ("_traj",)

    def __init__(self, traj: "Trajectory") -> None:
        self._traj = traj

    def __len__(self) -> int:
        return self._traj.t.shape[0]

    def __getitem__(self, i: int) -> tuple[float, KinematicState]:
        tr = self._traj
        return (tr.t.item(i), KinematicState(tr.x.item(i), tr.y.item(i), tr.v.item(i)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One predicted future of an actor with an occurrence probability.

    The columns ``t``, ``x``, ``y`` and ``v`` hold one entry per sample:
    finite, strictly increasing times starting at t = 0, finite positions
    and finite speeds >= 0. They are read-only float64 arrays, copied from
    the sequences passed in. Queries between samples linearly interpolate
    position and speed; queries past the last sample hold the final state
    (a finite prediction horizon is extended conservatively).
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    probability: float = 1.0

    def __post_init__(self) -> None:
        # one owned block: the caller keeps no handle through which to write
        try:
            cols = np.array((self.t, self.x, self.y, self.v), dtype=np.float64)
        except ValueError as e:
            raise ValueError(f"trajectory columns must be equal-length sequences ({e})") from None
        if cols.ndim != 2:
            raise ValueError("trajectory columns must be equal-length sequences")
        cols.setflags(write=False)
        t, v = cols[0], cols[3]
        n = cols.shape[1]
        if n < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if t[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        # increasing from 0 up to a finite end time makes every time finite
        if not (np.count_nonzero(t[1:] > t[:-1]) == n - 1 and math.isfinite(t[-1])):
            raise ValueError("trajectory times must be finite and strictly increasing")
        if np.count_nonzero(np.isfinite(cols[1:])) != 3 * n:
            raise ValueError("trajectory positions and speeds must be finite")
        if np.count_nonzero(v < 0.0):
            raise ValueError("trajectory speeds must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", cols[1])
        object.__setattr__(self, "y", cols[2])
        object.__setattr__(self, "v", v)

    @classmethod
    def from_states(
        cls, samples: Iterable[tuple[float, KinematicState]], probability: float = 1.0
    ) -> "Trajectory":
        """Columns from ordered ``(t, state)`` pairs; only position and speed are kept."""
        samples = tuple(samples)
        return cls(
            t=[t for t, _ in samples],
            x=[s.x for _, s in samples],
            y=[s.y for _, s in samples],
            v=[s.v for _, s in samples],
            probability=probability,
        )

    @property
    def samples(self) -> Sequence[tuple[float, KinematicState]]:
        """The samples as ``(t, KinematicState)`` pairs, built from the columns."""
        return _Samples(self)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(times, xs, ys, speeds)."""
        return self.t, self.x, self.y, self.v

    def state_at(self, t: float) -> tuple[float, float, float]:
        """Interpolated ``(x, y, speed)`` at time t >= 0."""
        ts, xs, ys, vs = self.t, self.x, self.y, self.v
        if t >= ts[-1]:
            return (xs.item(-1), ys.item(-1), vs.item(-1))
        if t <= 0.0:
            return (xs.item(0), ys.item(0), vs.item(0))
        i = int(ts.searchsorted(t, side="right"))
        t0, t1 = ts.item(i - 1), ts.item(i)
        w = (t - t0) / (t1 - t0)
        x0, y0, v0 = xs.item(i - 1), ys.item(i - 1), vs.item(i - 1)
        return (
            x0 + w * (xs.item(i) - x0),
            y0 + w * (ys.item(i) - y0),
            v0 + w * (vs.item(i) - v0),
        )

    def end_time(self) -> float:
        return self.t.item(-1)


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


MAX_GRID_SIZE = 10_000  # latency candidates; bounds the search's work and memory
# the search computes with the counts as floats, which hold every integer
# up to 2**53 exactly
_MAX_COUNT = 2**53
_COUNT_FIELDS = ("confirmation_frames", "max_time_adjustments")
_REAL_FIELDS = (
    "distance_margin",
    "speed_margin",
    "min_brake_decel",
    "brake_boost",
    "latency_max",
    "latency_min",
    "latency_step",
    "percentile",
    "fine_dt",
    "horizon",
)


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
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not value <= _MAX_COUNT:
                raise ValueError(f"{name} must be <= 2**53, got {value}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                as_float = float(value)
            except OverflowError:
                as_float = math.nan
            if not math.isfinite(as_float):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, as_float)
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
        if not self.horizon > self.latency_max:
            raise ValueError("horizon must exceed latency_max")
        span = (self.latency_max - self.latency_min) / self.latency_step + 1e-9
        if not span < MAX_GRID_SIZE:
            raise ValueError(f"the latency grid may hold at most {MAX_GRID_SIZE} candidates")
        steps = int(math.floor(span))
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
    v0, a = start.v, start.a
    t = np.minimum(np.arange(n + 1.0) * sample_dt, duration)
    dist = v0 * t + 0.5 * a * t * t
    v = v0 + a * t
    if a < 0.0:
        t_stop = v0 / -a
        stopped = t >= t_stop
        dist[stopped] = 0.5 * v0 * t_stop
        v[stopped] = 0.0
    x = start.x + dist * cos_h
    y = start.y + dist * sin_h
    return Trajectory(t=t, x=x, y=y, v=v, probability=probability)


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
    x = separation * math.cos(bearing)
    y = separation * math.sin(bearing)
    return Trajectory(t=(0.0, duration), x=(x, x), y=(y, y), v=(actor_speed, actor_speed))
