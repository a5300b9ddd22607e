"""Constant-acceleration trajectory spread for post-deployment estimation.

Stands in for an external trajectory predictor: each actor gets a fan of
constant-acceleration extrapolations around its current acceleration, from
hard braking to mild speed-up, each with a configured probability.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .types import KinematicState, Trajectory, finite_float, sample_times, straight_line_block

SAMPLE_DT = 0.25  # s between emitted trajectory samples


@dataclass(frozen=True)
class PredictorConfig:
    horizon: float = 6.0       # s of predicted future
    num_variants: int = 5
    decel_spread: float = 4.9  # m/s^2 swing around the current acceleration
    variant_probabilities: tuple[float, ...] | None = None  # uniform if None

    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _probs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.num_variants
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"num_variants must be an integer, got {n!r}")
        if not n >= 1:
            raise ValueError("num_variants must be >= 1")
        if not finite_float("horizon", self.horizon) > 0.0:
            raise ValueError("horizon must be > 0")
        s = finite_float("decel_spread", self.decel_spread)
        if not s >= 0.0:
            raise ValueError("decel_spread must be >= 0")
        probs = self.variant_probabilities
        if probs is None:
            probs = tuple(1.0 / n for _ in range(n))
        else:
            if len(probs) != n:
                raise ValueError("need one probability per variant")
            if any(not 0.0 <= p <= 1.0 for p in probs):
                raise ValueError("probabilities must be in [0, 1]")
            if abs(sum(probs) - 1.0) > 1e-9:
                raise ValueError("probabilities must sum to 1")
        # symmetric offsets from -spread to +spread, a single variant -> 0
        offsets = (0.0,) if n == 1 else tuple(-s + 2.0 * s * i / (n - 1) for i in range(n))
        object.__setattr__(self, "_times", sample_times(self.horizon, SAMPLE_DT))
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_probs", tuple(probs))

    def probabilities(self) -> tuple[float, ...]:
        return self._probs

    def acceleration_offsets(self) -> tuple[float, ...]:
        """Symmetric offsets from -spread to +spread, single variant -> 0."""
        return self._offsets


def predict_trajectories(current: KinematicState, cfg: PredictorConfig) -> list[Trajectory]:
    """Fan of constant-acceleration futures for one actor.

    Speeds are floored at zero, so braking variants of a stationary actor
    stay put.
    """
    accels = [current.a + offset for offset in cfg._offsets]
    block = straight_line_block(
        current.x, current.y, current.v, current.heading, accels, cfg._times
    )
    return Trajectory.from_block(block, cfg._probs)
