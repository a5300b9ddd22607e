"""Core domain types: kinematic states, predicted trajectories, model parameters.

All quantities are SI (meters, seconds, radians). Frame-processing rates are
in Hz; mph exists only at the CLI presentation layer.
"""

from __future__ import annotations

import functools
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


def finite_float(name: str, value: object) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        as_float = float(value)
    except OverflowError:
        as_float = math.nan
    if not math.isfinite(as_float):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return as_float


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


def _check_columns(cols: np.ndarray, probabilities: Iterable[float]) -> None:
    """The trajectory rules, applied to the t, x, y and v columns ``cols[0:4]``.

    ``cols`` is (4, samples) for one trajectory or (4, rows, samples) for a
    block of them, with one probability per trajectory.
    """
    t, v = cols[0], cols[3]
    if t.shape[-1] < 2:
        raise ValueError("trajectory needs at least 2 samples")
    if np.count_nonzero(t[..., 0]):
        raise ValueError("trajectory must start at t = 0")
    if np.count_nonzero(np.isfinite(cols)) != cols.size:
        raise ValueError("trajectory times, positions and speeds must be finite")
    if np.count_nonzero(t[..., 1:] <= t[..., :-1]):
        raise ValueError("trajectory times must be strictly increasing")
    if np.count_nonzero(v < 0.0):
        raise ValueError("trajectory speeds must be >= 0")
    for probability in probabilities:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One predicted future of an actor with an occurrence probability.

    The columns ``t``, ``x``, ``y`` and ``v`` hold one entry per sample:
    finite, strictly increasing times starting at t = 0, finite positions
    and finite speeds >= 0. They are read-only float64 arrays: copies of the
    sequences passed in, or views into the block given to ``from_block``.
    Queries between samples linearly interpolate position and speed;
    queries past the last sample hold the final state (a finite prediction
    horizon is extended conservatively).
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
        _check_columns(cols, (self.probability,))
        object.__setattr__(self, "t", cols[0])
        object.__setattr__(self, "x", cols[1])
        object.__setattr__(self, "y", cols[2])
        object.__setattr__(self, "v", cols[3])

    @classmethod
    def from_block(cls, block: np.ndarray, probabilities: Sequence[float]) -> list["Trajectory"]:
        """One trajectory per row of a (rows, 4, samples) block, validated once.

        Row ``i`` holds the t, x, y and v columns of a trajectory with
        probability ``probabilities[i]``, under the rules of the class
        docstring. The block must be a read-only float64 array that no
        caller can write through; each trajectory's columns are views into
        it, not copies.
        """
        if not (
            block.ndim == 3
            and block.shape[1] == 4
            and block.dtype == np.float64
            and not block.flags.writeable
        ):
            raise ValueError("a trajectory block is a read-only float64 (rows, 4, samples) array")
        if len(probabilities) != block.shape[0]:
            raise ValueError("need one probability per trajectory")
        _check_columns(block.transpose(1, 0, 2), probabilities)
        out = []
        for i, probability in enumerate(probabilities):
            traj = object.__new__(cls)
            vars(traj).update(
                t=block[i, 0], x=block[i, 1], y=block[i, 2], v=block[i, 3], probability=probability
            )
            out.append(traj)
        return out

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
            object.__setattr__(self, name, finite_float(name, getattr(self, name)))
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


@functools.lru_cache(maxsize=64)
def sample_times(duration: float, sample_dt: float) -> np.ndarray:
    """Read-only sample times 0, sample_dt, 2 sample_dt, ... up to and including ``duration``.

    Trajectories of one horizon share the column, so it is computed once.
    """
    if not (0.0 < duration < math.inf and 0.0 < sample_dt < math.inf):
        raise ValueError("duration and sample_dt must be finite and > 0")
    n = max(1, int(math.ceil(duration / sample_dt)))
    t = np.minimum(np.arange(n + 1.0) * sample_dt, duration)
    t.setflags(write=False)
    return t


def straight_line_block(
    x: float, y: float, v: float, heading: float, accels: Sequence[float], t: np.ndarray
) -> np.ndarray:
    """Constant-acceleration extrapolations from one start, one per acceleration.

    The start is at (``x``, ``y``) with speed ``v`` along ``heading``;
    ``accels`` holds one acceleration per row and ``t`` the sample times
    shared by every row. Returns a read-only (rows, 4, samples) float64 block
    of t, x, y and v columns (see ``Trajectory.from_block``). Speed is
    floored at zero; once stopped the actor stays put.
    """
    rows, n = len(accels), t.shape[0]
    m = rows * n
    # column-major: each quantity of every row is one contiguous run, so the
    # arithmetic below runs on flat arrays of equal shape
    cols = np.empty((4, rows, n))
    cols[0] = t
    flat = cols.reshape(4 * m)
    ts, xs, ys, vs = flat[:m], flat[m : 2 * m], flat[2 * m : 3 * m], flat[3 * m :]
    a = np.array(accels).repeat(n)
    dist = v * ts + 0.5 * a * ts * ts
    np.add(v, a * ts, out=vs)
    if min(accels) < 0.0:
        # stop time of each braking row; NaN, which no sample time reaches, elsewhere
        t_stop = np.array([v / -ai if ai < 0.0 else math.nan for ai in accels]).repeat(n)
        stopped = ts >= t_stop
        np.copyto(dist, 0.5 * v * t_stop, where=stopped)
        vs[stopped] = 0.0
    np.add(x, dist * math.cos(heading), out=xs)
    np.add(y, dist * math.sin(heading), out=ys)
    cols.setflags(write=False)
    return cols.transpose(1, 0, 2)


def straight_line_trajectory(
    start: KinematicState,
    duration: float,
    sample_dt: float = 0.25,
    probability: float = 1.0,
) -> Trajectory:
    """Constant-acceleration extrapolation of ``start`` along its heading.

    Speed is floored at zero; once stopped the actor stays put.
    """
    block = straight_line_block(
        start.x, start.y, start.v, start.heading, (start.a,), sample_times(duration, sample_dt)
    )
    return Trajectory.from_block(block, (probability,))[0]


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
    cols = np.array((0.0, duration, x, x, y, y, actor_speed, actor_speed))
    cols.setflags(write=False)
    return Trajectory.from_block(cols.reshape(1, 4, 2), (1.0,))[0]
