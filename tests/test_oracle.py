import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import safefpr.oracle as oracle
from safefpr import (
    KinematicState,
    ModelParams,
    PredictorConfig,
    Trajectory,
    braking_profile,
    collision_check,
    feasible_latency_scan,
    oracle_best_latency,
    predict_trajectories,
    tolerable_latency,
)
from safefpr.model import braking_decel, reaction_time, resolve_l0
from safefpr.types import L0_CANDIDATE, L0_FIXED, constant_separation_trajectory, straight_line_trajectory

from conftest import corpus_params, random_case, static_actor_trajectory

# sha256 over the repr of every witness (and every collision verdict) of the
# seeded sets below, as the full-grid scan with np.unique and no early exit
# computed them; any change to the scan's grid or float operations moves them
WITNESS_DIGEST = "ac1c454a2fffe6026e1845293d415f09f098fa88eee176a741df7885883db9b7"
COLLISION_DIGEST = "4b9195202bb0e9da211e7ccfd23a379cc6d425d751d4472a21a64043aad7d829"


def _digest_cases():
    """Seeded (ego, trajectory, l0, latency, params) scans under both l0 policies."""
    policies = (ModelParams(), ModelParams(l0_policy=L0_FIXED))
    rng = np.random.default_rng(2024)
    random_cases = [random_case(rng) for _ in range(24)]
    cfg = PredictorConfig(num_variants=5)
    fans = [
        predict_trajectories(KinematicState(25.0, 1.5, 12.0, -1.0, 0.1), cfg),
        predict_trajectories(KinematicState(-12.0, 3.5, 20.0, 0.5, 0.0), cfg),
    ]
    fan_egos = (KinematicState(0.0, 0.0, 15.0, 0.5), KinematicState(0.0, 0.0, 22.0, -2.0, 0.05))
    pinned = [
        constant_separation_trajectory(sep, va, 40.0, bearing)
        for sep, bearing in ((10.0, 0.0), (30.0, 0.3), (100.0, 0.0))
        for va in (0.0, 5.0, 20.0)
    ]
    pinned_egos = tuple(KinematicState(0.0, 0.0, v) for v in (5.0, 15.0, 30.0))
    for p in policies:
        latencies = (0.0,) + p.latency_grid
        for ego, traj, l0 in random_cases:
            for latency in latencies:
                yield ego, traj, l0, latency, p
        for ego in fan_egos:
            for traj in (t for fan in fans for t in fan):
                for latency in latencies[::3]:
                    yield ego, traj, 0.1, latency, p
        for ego in pinned_egos:
            for traj in pinned:
                for latency in latencies[::3]:
                    yield ego, traj, 0.2, latency, p


def _witness_digest() -> str:
    h = hashlib.sha256()
    for ego, traj, l0, latency, p in _digest_cases():
        h.update(repr(oracle._earliest_probe(ego, traj, l0, latency, p)).encode() + b"\n")
    return h.hexdigest()


def _collision_digest() -> str:
    h = hashlib.sha256()
    for ego, traj, l0, latency, p in _digest_cases():
        if latency in (0.0, p.latency_grid[0], p.latency_grid[-1]):
            h.update(repr(collision_check(ego, traj, latency, l0, p, 2.0)).encode() + b"\n")
    return h.hexdigest()


def receding_trajectory():
    return Trajectory.from_states(
        ((0.0, KinematicState(20.0, 0.0, 10.0)), (40.0, KinematicState(420.0, 0.0, 10.0)))
    )


class TestScan:
    def test_stationary_ego_always_feasible(self, params):
        ego = KinematicState(0, 0, 0.0)
        for latency in (params.latency_min, 0.5, params.latency_max):
            assert feasible_latency_scan(ego, static_actor_trajectory(10.0), 0.5, latency, params)

    def test_highway_static_actor_never_feasible(self, params):
        # stopping distance alone (32.6 m) exceeds the allowed 27 m
        ego = KinematicState(0, 0, 17.88)
        traj = static_actor_trajectory(30.0)
        for latency in params.latency_grid:
            assert not feasible_latency_scan(ego, traj, 0.5, latency, params)

    def test_street_speed_feasible_at_half_second(self, params):
        # analytic stop distance 18.34 m within the allowed 27 m
        ego = KinematicState(0, 0, 11.18)
        assert feasible_latency_scan(ego, static_actor_trajectory(30.0), 0.5, 0.5, params)

    def test_zero_latency_probe_allowed(self, params):
        ego = KinematicState(0, 0, 17.88)
        assert feasible_latency_scan(ego, static_actor_trajectory(40.0), 0.5, 0.0, params)

    def test_verdict_is_a_bool(self, params):
        ego = KinematicState(0, 0, 11.18)
        for latency in (0.0, 0.5, params.latency_max):
            got = feasible_latency_scan(ego, static_actor_trajectory(30.0), 0.5, latency, params)
            assert type(got) is bool

    def test_negative_latency_rejected(self, params):
        with pytest.raises(ValueError):
            feasible_latency_scan(KinematicState(0, 0, 1.0), static_actor_trajectory(30.0), 0.5, -0.1, params)


class TestBadArguments:
    EGO = KinematicState(0, 0, 11.18)

    def oracle_calls(self, latency, l0, params):
        traj = static_actor_trajectory(30.0)
        yield lambda: feasible_latency_scan(self.EGO, traj, l0, latency, params)
        yield lambda: collision_check(self.EGO, traj, latency, l0, params, 0.5)

    @pytest.mark.parametrize("latency", [math.nan, math.inf, -math.inf, -0.5])
    def test_latency_must_be_finite_and_non_negative(self, params, latency):
        for call in self.oracle_calls(latency, 0.5, params):
            with pytest.raises(ValueError, match="latency"):
                call()

    @pytest.mark.parametrize("l0", [math.nan, math.inf, 0.0, -0.5])
    def test_fixed_policy_l0_must_be_finite_and_positive(self, fixed_params, l0):
        traj = static_actor_trajectory(30.0)
        calls = [*self.oracle_calls(0.5, l0, fixed_params)]
        calls.append(lambda: oracle_best_latency(self.EGO, traj, l0, fixed_params))
        for call in calls:
            with pytest.raises(ValueError, match="l0"):
                call()

    def test_candidate_policy_l0_must_be_finite(self, params):
        traj = static_actor_trajectory(30.0)
        with pytest.raises(ValueError, match="l0"):
            oracle_best_latency(self.EGO, traj, math.nan, params)
        for call in self.oracle_calls(0.5, math.inf, params):
            with pytest.raises(ValueError, match="l0"):
                call()
        # the candidate policy does not read l0, so its sign does not matter
        assert oracle_best_latency(self.EGO, traj, 0.0, params) == oracle_best_latency(
            self.EGO, traj, 0.5, params
        )


def _np_unique_grid(ts, vs, t_react, vr, decel, params):
    """The scan grid as np.unique over every point, filtered to [t_react, horizon]."""
    horizon = params.horizon
    crossings = oracle._speed_crossings(ts, vs, vr, t_react, decel, params.speed_margin, horizon)
    extras = [horizon, t_react + vr / decel, *ts, *crossings]
    grid = np.unique(np.concatenate([np.arange(t_react, horizon, params.fine_dt), extras]))
    return grid[(grid >= t_react) & (grid <= horizon)]


def _scan_inputs(ego, l0, latency, p):
    """(t_react, speed at t_react, braking decel) as the scan computes them."""
    t_react = reaction_time(latency, resolve_l0(latency, l0, p), p)
    vr = max(0.0, ego.v + ego.a * t_react) if ego.a < 0.0 else ego.v + ego.a * t_react
    return t_react, vr, braking_decel(ego.a, p)


def _stop_case(index: int):
    """A cruising ego whose stop, latency 0, falls between grid points index - 1 and index.

    The actor stands still far ahead, so the speed constraint first holds at
    the stop time itself, which the scan adds to its grid.
    """
    v = 4.9 * (index - 0.5) * 0.01
    return KinematicState(0.0, 0.0, v), static_actor_trajectory(400.0), v / 4.9


class TestParity:
    """The scan's witnesses, pinned to the full-grid scan they replaced."""

    def test_witness_digest(self):
        assert _witness_digest() == WITNESS_DIGEST

    def test_collision_digest(self):
        assert _collision_digest() == COLLISION_DIGEST

    def test_grid_matches_np_unique(self):
        rng = np.random.default_rng(8)
        policies = (ModelParams(), ModelParams(l0_policy=L0_FIXED))
        # sample times 0.5 and 1.0 equal base points of the latency-0 grid
        on_base = Trajectory.from_states(
            [(t, KinematicState(20.0 - 2.0 * t, 1.0, 2.0)) for t in (0.0, 0.5, 1.0, 6.0)]
        )
        cases = [random_case(rng) for _ in range(20)] + [(KinematicState(0, 0, 12.0), on_base, 0.1)]
        checked = 0
        for p in policies:
            for ego, traj, l0 in cases:
                ts, vs = traj.t.tolist(), traj.v.tolist()
                for latency in (0.0, 0.25, *p.latency_grid[::7]):
                    t_react, vr, decel = _scan_inputs(ego, l0, latency, p)
                    grid = oracle._scan_grid(ts, vs, t_react, vr, decel, p)
                    want = _np_unique_grid(ts, vs, t_react, vr, decel, p)
                    assert grid.dtype == want.dtype and np.array_equal(grid, want)
                    checked += 1
        assert checked > 200

    def test_extra_on_a_base_point_is_not_repeated(self, params):
        traj = Trajectory.from_states(
            [(t, KinematicState(20.0, 1.0, 0.0)) for t in (0.0, 0.5, 1.0, 40.0)]
        )
        grid = oracle._scan_grid(traj.t.tolist(), traj.v.tolist(), 0.0, 0.0, 4.9, params)
        assert np.all(np.diff(grid) > 0.0)
        assert len(grid) == len(np.arange(0.0, params.horizon, params.fine_dt)) + 1  # + horizon

    def test_step_rounding_past_the_horizon_is_dropped(self, params):
        # arange's last step from this start lands 2e-14 past the horizon
        t_react = 28.979999999999862
        assert np.arange(t_react, params.horizon, params.fine_dt)[-1] > params.horizon
        traj = static_actor_trajectory(30.0)
        ts, vs = traj.t.tolist(), traj.v.tolist()
        grid = oracle._scan_grid(ts, vs, t_react, 0.0, 4.9, params)
        assert np.array_equal(grid, _np_unique_grid(ts, vs, t_react, 0.0, 4.9, params))
        assert grid[-1] == params.horizon

    def test_ego_motion_of_a_slice_is_the_whole_grids(self):
        rng = np.random.default_rng(12)
        p = ModelParams()
        for ego, traj, l0 in [random_case(rng) for _ in range(30)]:
            t_react, vr, decel = _scan_inputs(ego, l0, 0.5, p)
            grid = oracle._scan_grid(traj.t.tolist(), traj.v.tolist(), t_react, vr, decel, p)
            knots = oracle._velocity_knots(ego.v, ego.a, t_react, decel, float(grid[-1]) + 1.0)
            whole = oracle._ego_at(grid, knots)
            for part in (slice(0, oracle.HEAD), slice(oracle.HEAD, None), slice(7, 900)):
                for got, want in zip(oracle._ego_at(grid[part], knots), whole):
                    assert np.array_equal(got, want[part])

    @pytest.mark.parametrize(
        "index", [1, oracle.HEAD - 1, oracle.HEAD, oracle.HEAD + 1, 1000]
    )
    def test_witness_at_grid_index(self, params, index):
        ego, traj, t_stop = _stop_case(index)
        got = oracle._earliest_probe(ego, traj, 0.5, 0.0, params)
        assert got == t_stop
        grid = oracle._scan_grid(traj.t.tolist(), traj.v.tolist(), 0.0, ego.v, 4.9, params)
        assert grid[index] == got

    def test_witness_at_the_reaction_time(self, params):
        ego, traj = KinematicState(0, 0, 0.0), static_actor_trajectory(10.0)
        for latency in (0.0, 0.5):
            assert oracle._earliest_probe(ego, traj, 0.5, latency, params) == latency

    def test_no_witness(self, params):
        ego, traj = KinematicState(0, 0, 17.88), static_actor_trajectory(30.0)
        assert oracle._earliest_probe(ego, traj, 0.5, 0.5, params) is None

    def test_one_point_grid(self, params):
        # candidate policy: t_react == latency == horizon leaves the horizon alone
        traj = static_actor_trajectory(10.0)
        grid = oracle._scan_grid(traj.t.tolist(), traj.v.tolist(), params.horizon, 0.0, 4.9, params)
        assert grid.tolist() == [params.horizon]
        got = oracle._earliest_probe(KinematicState(0, 0, 0.0), traj, 0.5, params.horizon, params)
        assert got == params.horizon


def _exhaustive_tests(ego0, traj, l0, latency, p):
    """(grid, the distance test, both tests) with every grid point evaluated, no point skipped."""
    t_react, vr, decel = _scan_inputs(ego0, l0, latency, p)
    ts, xs, ys, vs = traj.columns()
    grid = oracle._scan_grid(ts.tolist(), vs.tolist(), t_react, vr, decel, p)
    if len(grid) == 0:
        return grid, np.empty(0, bool), np.empty(0, bool)
    knots = oracle._velocity_knots(ego0.v, ego0.a, t_react, decel, float(grid[-1]) + 1.0)
    d, ve = oracle._ego_at(grid, knots)
    sep = np.hypot(np.interp(grid, ts, xs) - ego0.x, np.interp(grid, ts, ys) - ego0.y)
    near = p.distance_margin * sep - d >= -oracle.FLOAT_SLACK
    return grid, near, near & (ve <= p.speed_margin * np.interp(grid, ts, vs) + oracle.FLOAT_SLACK)


def _exhaustive_scan(ego0, traj, l0, latency, p):
    """(grid, the earliest probe) with every grid point evaluated, no point skipped.

    The scan's reference: its head and its blocked tail must give this
    witness to the bit, since both use these expressions point by point.
    """
    grid, _, ok = _exhaustive_tests(ego0, traj, l0, latency, p)
    return grid, float(grid[ok.argmax()]) if ok.any() else None


def _tail_marks(ego0, traj, l0, latency, p, grid):
    """Whether ``_block_rejects`` marks each block of the scan's non-empty tail of ``grid``."""
    t_react, _, decel = _scan_inputs(ego0, l0, latency, p)
    tail = grid[oracle.HEAD :]
    firsts = tail[:: oracle.BLOCK]
    ends = np.concatenate((firsts[1:], tail[-1:]))
    knots = oracle._velocity_knots(ego0.v, ego0.a, t_react, decel, float(grid[-1]) + 1.0)
    return oracle._block_rejects(ego0, traj, firsts, ends, knots, decel, p)


def _per_block(mask):
    """Whether the per-point ``mask`` holds somewhere in each tail block."""
    tail = mask[oracle.HEAD :]
    return np.logical_or.reduceat(tail, np.arange(0, len(tail), oracle.BLOCK))


def _fast_actor(rng) -> Trajectory:
    """An actor at up to 60 m/s that turns at every sample, 0.05 to 3 s apart, past the horizon.

    A block of the default grid spans 0.32 s, so the actor's separation can
    rise and fall inside one block. Its reported speeds are drawn apart
    from its motion.
    """
    t, x, y = 0.0, rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0)
    rows = [(t, x, y)]
    while t < 32.0:
        dt, speed = rng.uniform(0.05, 3.0), rng.uniform(0.0, 60.0)
        heading = rng.uniform(-math.pi, math.pi)
        t += dt
        x += speed * dt * math.cos(heading)
        y += speed * dt * math.sin(heading)
        rows.append((t, x, y))
    ts, xs, ys = zip(*rows)
    return Trajectory(t=ts, x=xs, y=ys, v=rng.uniform(0.0, 40.0, len(ts)))


def _random_ego(rng) -> KinematicState:
    v, a, heading = rng.uniform(0.0, 35.0), rng.uniform(-6.0, 3.0), rng.uniform(-math.pi, math.pi)
    return KinematicState(0.0, 0.0, v, a, heading)


def _parity_cases():
    """Seeded (ego, trajectory, l0, params) cases for the blocked-tail parity property."""
    rng = np.random.default_rng(28)
    policies = (
        ModelParams(),
        ModelParams(l0_policy=L0_FIXED),
        ModelParams(fine_dt=0.003),
        ModelParams(l0_policy=L0_FIXED, fine_dt=0.003),
    )
    for i in range(660):
        p = policies[i % 2] if i % 13 else policies[2 + i // 13 % 2]
        kind = i % 4
        if kind == 0:
            ego, traj, l0 = random_case(rng)
        elif kind == 1:
            ego, traj, l0 = _random_ego(rng), _fast_actor(rng), rng.uniform(1.0 / 30.0, 1.0)
        elif kind == 2:
            # w = 0: the actor reports a speed but holds its separation
            sep, va, bearing = rng.uniform(3.0, 150.0), rng.uniform(0.0, 35.0), rng.uniform(-math.pi, math.pi)
            traj = constant_separation_trajectory(sep, va, 40.0, bearing)
            ego, l0 = _random_ego(rng), 0.1
        else:
            # the validation corpus's constant-velocity actor
            r, bearing = rng.uniform(5.0, 150.0), rng.uniform(-math.pi, math.pi)
            x, y = r * math.cos(bearing), r * math.sin(bearing)
            start = KinematicState(x, y, rng.uniform(0.0, 35.0), 0.0, rng.uniform(-math.pi, math.pi))
            ego, traj, l0 = _random_ego(rng), straight_line_trajectory(start, 30.0, 30.0), 1.0 / 30.0
        yield ego, traj, l0, p, (0.0, *p.latency_grid)
    # An actor opening at 2 m/s from an ego that stops from 20 m/s, placed so
    # that distance first holds between grid points k + 1 and k from the
    # horizon: witnesses across the last blocks, at every tail length's
    # residue, and at the horizon alone in a one-point last block. Half the
    # actors first jump 1 m in 5e-324 s, so w is inf and each bound inf or NaN.
    ego = KinematicState(0.0, 0.0, 20.0)
    for p in policies:
        for latency in p.latency_grid:
            t_react, vr, decel = _scan_inputs(ego, 0.1, latency, p)
            stop = vr * t_react + vr * vr / (2.0 * decel)
            for k in (0, 1, 5, 31, 32, 40):
                start = stop / p.distance_margin - 2.0 * (p.horizon - (k + 0.5) * p.fine_dt)
                line = straight_line_trajectory(KinematicState(start, 0.0, 2.0), 40.0, 40.0)
                jump = Trajectory(
                    t=[0.0, 5e-324, 40.0], x=[start, start, start + 80.0], y=[1.0, 0.0, 0.0], v=[0.0] * 3
                )
                yield ego, line, 0.1, p, (latency,)
                yield ego, jump, 0.1, p, (latency,)


class TestBlockedTail:
    """The tail's skipped blocks never hold the witness: every scan equals the exhaustive one."""

    def test_witness_is_the_exhaustive_scans(self):
        hits = dict.fromkeys(("none", "first", "last", "one_point_last", "stop", "sample", "speed_only"), 0)
        scans = 0
        for ego, traj, l0, p, latencies in _parity_cases():
            ts = traj.t.tolist()
            for latency in latencies:
                grid, near, ok = _exhaustive_tests(ego, traj, l0, latency, p)
                want = float(grid[ok.argmax()]) if ok.any() else None
                assert oracle._earliest_probe(ego, traj, l0, latency, p) == want
                scans += 1
                if len(grid) > oracle.HEAD:
                    # skipped blocks where distance holds: the distance bound keeps them
                    marks = _tail_marks(ego, traj, l0, latency, p, grid)
                    hits["speed_only"] += int((marks & _per_block(near)).sum())
                # where the witness lies among the tail's blocks
                tail = grid[oracle.HEAD :]
                if want is None:
                    hits["none"] += len(tail) > 0
                    continue
                at = int(tail.searchsorted(want))
                if at == len(tail) or tail[at] != want:
                    continue  # a head witness
                block = at - at % oracle.BLOCK
                hits["first"] += block == 0
                hits["last"] += block + oracle.BLOCK >= len(tail)
                hits["one_point_last"] += block == len(tail) - 1
                # a kink of the ego's or the actor's motion inside the block, before the witness
                inside = tail[block + 1 : at + 1]
                t_react, vr, decel = _scan_inputs(ego, l0, latency, p)
                hits["stop"] += t_react + vr / decel in inside
                hits["sample"] += any(t in inside for t in ts)
        assert scans >= 20_000
        assert all(n > 0 for n in hits.values()), hits

    def test_marked_blocks_hold_no_passing_point(self):
        marked = 0
        for ego, traj, l0, p, latencies in _parity_cases():
            for latency in latencies:
                grid, _, ok = _exhaustive_tests(ego, traj, l0, latency, p)
                if len(grid) > oracle.HEAD:
                    marks = _tail_marks(ego, traj, l0, latency, p, grid)
                    assert not (marks & _per_block(ok)).any(), (ego, latency)
                    marked += int(marks.sum())
        assert marked > 100_000

    def test_inf_or_nan_bound_keeps_its_block(self, params):
        """A segment of 5e-324 s makes w inf: each block's bound is inf, and
        inf * 0 makes a one-point last block's NaN; both blocks are kept."""
        ego, checked = KinematicState(0.0, 0.0, 20.0), 0
        for latency in params.latency_grid:
            t_react, vr, decel = _scan_inputs(ego, 0.1, latency, params)
            stop = vr * t_react + vr * vr / (2.0 * decel)
            # opening at 2 m/s after the jump, far enough only at the horizon
            ts = [0.0, 5e-324, 40.0]
            before = oracle._scan_grid(ts, [0.0] * 3, t_react, vr, decel, params)[-2]
            start = stop / params.distance_margin - (before + params.horizon)
            traj = Trajectory(t=ts, x=[start, start, start + 80.0], y=[1.0, 0.0, 0.0], v=[0.0] * 3)
            grid, want = _exhaustive_scan(ego, traj, 0.1, latency, params)
            assert want == params.horizon
            assert oracle._earliest_probe(ego, traj, 0.1, latency, params) == want
            checked += (len(grid) - oracle.HEAD) % oracle.BLOCK == 1
        assert checked > 0

    @pytest.mark.parametrize("x0, x1", [(1e300, 1e300), (-1e300, 1e300), (-1.5e308, 1.5e308)])
    def test_huge_coordinates_keep_their_blocks(self, params, x0, x1):
        """An actor 1e300 m away, still or crossing 2e300 or 3e308 m in 1e-10 s (w inf):
        the ego cruising at 30 m/s meets the speed test in the tail, at its stop."""
        ego = KinematicState(0.0, 0.0, 30.0)
        traj = Trajectory(t=[0.0, 1e-10, 40.0], x=[x0, x1, x1], y=[1e300] * 3, v=[0.0] * 3)
        for latency in (0.5, 1.0):
            grid, want = _exhaustive_scan(ego, traj, 0.1, latency, params)
            assert want is not None and want >= grid[oracle.HEAD]
            assert oracle._earliest_probe(ego, traj, 0.1, latency, params) == want


def _plain_best_latency(ego0, traj, l0, p):
    """(best latency, probe time) of the descending scan that stops at the first witness.

    ``oracle_best_latency``'s reference: every latency it proves rejected
    instead of scanning must be one this loop rejects.
    """
    for latency in p.latency_grid:
        witness = oracle._earliest_probe(ego0, traj, l0, latency, p)
        if witness is not None:
            return latency, witness
    return None, None


def _checked_proofs(ego0, traj, l0, p) -> list[int]:
    """Grid indices whose latency the bound proves, each checked against the scan.

    A proof at index i claims the scan rejects latency i and every larger
    one (every smaller index), so each is scanned.
    """
    grid = p.latency_grid
    proved = [i for i, latency in enumerate(grid) if oracle._rejects_from(ego0, traj, l0, latency, p)]
    for i in range(max(proved, default=-1) + 1):
        assert oracle._earliest_probe(ego0, traj, l0, grid[i], p) is None, (i, proved)
    return proved


def _corpus_shaped_cases(seed: int, n: int):
    """Validation-corpus-shaped cases: half constant-separation, half constant-velocity actors."""
    rng = np.random.default_rng(seed)
    p = ModelParams()
    for i in range(n):
        ego = KinematicState(0.0, 0.0, rng.uniform(0.0, 35.0), rng.uniform(-4.0, 2.0))
        r, bearing, speed = rng.uniform(5.0, 150.0), rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 35.0)
        if i % 2:
            traj = constant_separation_trajectory(r, speed, p.horizon, bearing)
        else:
            start = KinematicState(
                r * math.cos(bearing), r * math.sin(bearing), speed, heading=rng.uniform(-math.pi, math.pi)
            )
            traj = straight_line_trajectory(start, p.horizon, p.horizon)
        yield ego, traj, 1.0 / 30.0, p


def _jump_trajectory(start: float) -> Trajectory:
    """An actor that jumps 1 m in 5e-324 s (so w is inf), then opens at 2 m/s."""
    return Trajectory(t=[0.0, 5e-324, 40.0], x=[start, start, start + 80.0], y=[1.0, 0.0, 0.0], v=[0.0] * 3)


class TestRejectionBound:
    """``_rejects_from`` proves only latencies the scan rejects, and with every larger one."""

    # equal hold and braking decelerations: a larger latency moves the ego
    # exactly as a smaller one, so the scans differ only by rounding
    EDGE_POLICIES = (ModelParams(brake_boost=1.0), ModelParams(brake_boost=1.0, l0_policy=L0_FIXED))

    def test_larger_latency_is_nowhere_slower_or_behind(self):
        """The lemma: under L2 > L1 the ego's distance and speed are at least L1's at every time."""
        rng = np.random.default_rng(29)
        policies = [ModelParams(l0_policy=lp, brake_boost=b) for lp in (L0_CANDIDATE, L0_FIXED) for b in (1.0, 1.1)]
        kinds = dict.fromkeys(("stops_in_hold", "braking", "cruising", "accelerating"), 0)
        rounding = 1e-9  # the bound's tol is at least 1e-6
        for i in range(400):
            p = policies[i % len(policies)]
            lo, hi = sorted(rng.choice(len(p.latency_grid), 2, replace=False))
            l2, l1 = p.latency_grid[lo], p.latency_grid[hi]
            l0 = rng.uniform(1.0 / 30.0, 1.0)
            t1, t2 = (reaction_time(L, resolve_l0(L, l0, p), p) for L in (l1, l2))
            kind = tuple(kinds)[i % 4]
            if kind == "stops_in_hold":
                a0 = rng.uniform(-6.0, -0.5)
                v0 = -a0 * rng.uniform(0.0, t1)
            elif kind == "braking":
                a0 = rng.uniform(-6.0, -1e-3)
                v0 = rng.uniform(-a0 * t1, 35.0 - a0 * t1)
            else:
                a0 = 0.0 if kind == "cruising" else rng.uniform(1e-3, 3.0)
                v0 = rng.uniform(0.0, 35.0)
            kinds[kind] += 1
            decel = braking_decel(a0, p)
            k1 = oracle._velocity_knots(v0, a0, t1, decel, p.horizon + 1.0)
            k2 = oracle._velocity_knots(v0, a0, t2, decel, p.horizon + 1.0)
            times = np.unique(np.concatenate((np.linspace(0.0, p.horizon, 3001), k1[0], k2[0])))
            times = times[times <= p.horizon]
            (d1, v1), (d2, v2) = oracle._ego_at(times, k1), oracle._ego_at(times, k2)
            assert np.all(d2 >= d1 - rounding * (1.0 + d1)), (v0, a0, l1, l2)
            assert np.all(v2 >= v1 - rounding * (1.0 + v0 + decel * p.horizon)), (v0, a0, l1, l2)
        assert all(n > 0 for n in kinds.values()), kinds

    def test_a_proof_rejects_every_larger_latency(self):
        proofs = dict.fromkeys(("total", "smallest", "mid_grid"), 0)
        for ego, traj, l0, p, _ in _parity_cases():
            proved = _checked_proofs(ego, traj, l0, p)
            last = len(p.latency_grid) - 1
            proofs["total"] += len(proved)
            proofs["smallest"] += last in proved
            # the proofs the bisection finds: some latency proved, the smallest not
            proofs["mid_grid"] += bool(proved) and last not in proved
        assert proofs["total"] > 10_000 and proofs["smallest"] > 20 and proofs["mid_grid"] > 500, proofs

    def test_best_latency_is_the_plain_descending_scan(self):
        cases = [case[:4] for case in _parity_cases()]
        for seed in (11, 29):
            cases += _corpus_shaped_cases(seed, 400)
        infeasible = 0
        for ego, traj, l0, p in cases:
            verdict = oracle_best_latency(ego, traj, l0, p)
            assert (verdict.best_latency, verdict.probe_time) == _plain_best_latency(ego, traj, l0, p)
            assert verdict.feasible == (verdict.best_latency is not None)
            infeasible += not verdict.feasible
        assert 100 < infeasible < len(cases) - 100

    def test_unbounded_cases_never_prove(self, params):
        """An inf or NaN bound (w inf, or coordinates near the float limit) and a reaction
        at or past the horizon prove nothing."""
        ego = KinematicState(0.0, 0.0, 20.0)
        cases = [(ego, _jump_trajectory(start), 0.1, params) for start in (-40.0, 0.0, 40.0, 300.0)]
        for x0, x1 in ((1e300, 1e300), (-1e300, 1e300), (-1.5e308, 1.5e308)):
            traj = Trajectory(t=[0.0, 1e-10, 40.0], x=[x0, x1, x1], y=[1e300] * 3, v=[0.0] * 3)
            cases.append((KinematicState(0.0, 0.0, 30.0), traj, 0.1, params))
        for ego, traj, l0, p in cases:
            for latency in p.latency_grid:
                assert not oracle._rejects_from(ego, traj, l0, latency, p), latency
        # fixed policy: latencies above about 0.3 s react past the 30 s horizon;
        # the scan rejects them all, but the bound proves none of them
        late = ModelParams(l0_policy=L0_FIXED, confirmation_frames=100)
        ego, traj, l0 = KinematicState(0, 0, 17.88), static_actor_trajectory(30.0), 1.0 / 30.0
        past = [L for L in late.latency_grid if reaction_time(L, l0, late) > late.horizon]
        assert len(past) > 10
        for latency in past:
            assert not oracle._rejects_from(ego, traj, l0, latency, late), latency
        cases.append((ego, traj, l0, late))
        for ego, traj, l0, p in cases:
            verdict = oracle_best_latency(ego, traj, l0, p)
            assert (verdict.best_latency, verdict.probe_time) == _plain_best_latency(ego, traj, l0, p)

    def test_speed_peak_inside_a_block_keeps_it(self):
        """The actor reports 200 m/s for 2 ms around one sample and 0 m/s elsewhere, far
        ahead; the ego, still braking at the horizon, meets the speed test only within
        1 ms before that sample, which no block end reads."""
        ego = KinematicState(0.0, 0.0, 160.0)
        for p in (ModelParams(), ModelParams(l0_policy=L0_FIXED)):
            for peak in (2.0, 7.77, 15.0, 29.5):
                traj = Trajectory(
                    t=[0.0, peak - 1e-3, peak, peak + 1e-3, 40.0], x=[5000.0] * 5, y=[0.0] * 5,
                    v=[0.0, 0.0, 200.0, 0.0, 0.0],
                )
                # l0 = 1 s: every latency reacts before the sample
                assert _checked_proofs(ego, traj, 1.0, p) == []
                best, probe = _plain_best_latency(ego, traj, 1.0, p)
                assert best == p.latency_max and peak - 1e-3 < probe <= peak

    def test_speed_rounding_at_the_horizon_keeps_its_block(self):
        """The ego still brakes at the horizon, where its speed meets the actor's to
        within a few ulps: only the bound's tol keeps the last block."""
        ego, checked = KinematicState(0.0, 0.0, 160.0, -5.0), 0
        for p in self.EDGE_POLICIES:
            knots = oracle._velocity_knots(ego.v, ego.a, 1.0, 5.0, p.horizon + 1.0)
            ve = float(oracle._ego_at(np.array([p.horizon]), knots)[1][0])
            va = (ve - oracle.FLOAT_SLACK) / p.speed_margin
            for k in range(-6, 7):
                traj = constant_separation_trajectory(5000.0, va + k * 2e-15, 40.0, 0.0)
                _checked_proofs(ego, traj, 0.1, p)
                checked += _plain_best_latency(ego, traj, 0.1, p)[1] == p.horizon
        assert checked > 0

    def test_distance_rounding_at_the_horizon_keeps_its_block(self):
        """The ego stops early and the actor recedes at 1 m/s, so distance first holds,
        to within a few ulps, at the horizon: only the bound's tol keeps the last block."""
        ego, checked = KinematicState(0.0, 0.0, 20.0, -5.0), 0
        for p in self.EDGE_POLICIES:
            for latency in p.latency_grid[::6]:
                knots = oracle._velocity_knots(ego.v, ego.a, latency, 5.0, p.horizon + 1.0)
                d = float(oracle._ego_at(np.array([p.horizon]), knots)[0][0])
                at_horizon = (d - oracle.FLOAT_SLACK) / p.distance_margin
                for k in range(-6, 7):
                    r = at_horizon + k * 7e-15 - 30.0
                    traj = Trajectory(t=[0.0, 40.0], x=[-r, -r - 40.0], y=[0.0, 0.0], v=[0.0, 0.0])
                    _checked_proofs(ego, traj, 0.1, p)
                    checked += _plain_best_latency(ego, traj, 0.1, p)[1] == p.horizon
        assert checked > 0


class TestScanMemory:
    """One full scan holds at most 80 B per grid point (docs/formats.md, MAX_SCAN_POINTS)."""

    @pytest.mark.parametrize("fine_dt", [0.01, 3e-4])
    def test_traced_peak_per_point(self, fine_dt):
        p = ModelParams(fine_dt=fine_dt)
        ego = KinematicState(0, 0, 17.88)  # infeasible: every grid point is evaluated or bounded
        traj = static_actor_trajectory(30.0)
        points = p.horizon / fine_dt
        for scan in (
            lambda: oracle._earliest_probe(ego, traj, 0.5, 0.5, p),
            lambda: collision_check(ego, traj, 0.5, 0.5, p, 0.5),
        ):
            scan()
            tracemalloc.start()
            try:
                scan()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 80 * points

    @pytest.mark.parametrize("fine_dt", [0.01, 3e-4])
    def test_traced_peak_per_point_with_no_block_skipped(self, fine_dt):
        p = ModelParams(fine_dt=fine_dt)
        # distance holds at every grid point (the ego covers under 2400 m of
        # the 4500 m allowed) and speed at none (it still moves at the horizon)
        ego, traj = KinematicState(0, 0, 150.0), static_actor_trajectory(5000.0)
        assert oracle._earliest_probe(ego, traj, 0.5, 0.5, p) is None
        tracemalloc.start()
        try:
            oracle._earliest_probe(ego, traj, 0.5, 0.5, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * p.horizon / fine_dt

    @pytest.mark.parametrize("fine_dt", [0.01, 3e-4])
    def test_best_latency_traced_peak_per_point(self, fine_dt):
        p = ModelParams(fine_dt=fine_dt)
        # infeasible at every latency: the largest is scanned, the rest proved
        ego, traj = KinematicState(0, 0, 17.88), static_actor_trajectory(30.0)
        assert not oracle_best_latency(ego, traj, 0.5, p).feasible
        tracemalloc.start()
        try:
            oracle_best_latency(ego, traj, 0.5, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * p.horizon / fine_dt


class TestBestLatency:
    def test_witness_meets_both_constraints(self):
        rng = np.random.default_rng(27)
        checked = 0
        for i in range(60):
            ego, traj, l0 = random_case(rng)
            p = corpus_params(i)
            verdict = oracle_best_latency(ego, traj, l0, p)
            if not verdict.feasible:
                continue
            prof = braking_profile(ego, verdict.best_latency, l0, verdict.probe_time, p)
            assert prof.reaction_time - 1e-12 <= verdict.probe_time <= p.horizon
            ax, ay, av = traj.state_at(verdict.probe_time)
            sep = math.hypot(ax - ego.x, ay - ego.y)
            assert p.distance_margin * sep - prof.total_distance >= -1e-6
            assert prof.end_speed <= p.speed_margin * av + 1e-6
            checked += 1
        assert checked > 20

    def test_receding_actor_best_is_max(self, params):
        verdict = oracle_best_latency(KinematicState(0, 0, 0.0), receding_trajectory(), 1.0, params)
        assert verdict.feasible
        assert verdict.best_latency == params.latency_max

    def test_infeasible_case(self, params):
        verdict = oracle_best_latency(
            KinematicState(0, 0, 17.88), static_actor_trajectory(30.0), 0.5, params
        )
        assert not verdict.feasible
        assert verdict.best_latency is None

    def test_search_never_exceeds_oracle_small_corpus(self):
        rng = np.random.default_rng(1234)
        for i in range(300):
            ego, traj, l0 = random_case(rng)
            params = corpus_params(i)
            est = tolerable_latency(ego, traj, l0, params)
            verdict = oracle_best_latency(ego, traj, l0, params)
            if est.latency is not None:
                assert verdict.best_latency is not None
                assert est.latency <= verdict.best_latency + 1e-12

    def test_latency_grid_monotone(self):
        # feasible(l) implies feasible(l' < l) on the grid
        rng = np.random.default_rng(77)
        params = ModelParams()
        checked = 0
        for i in range(120):
            ego, traj, l0 = random_case(rng)
            verdict = oracle_best_latency(ego, traj, l0, params)
            if verdict.best_latency is None:
                continue
            for latency in params.latency_grid:
                if latency < verdict.best_latency:
                    assert feasible_latency_scan(ego, traj, l0, latency, params)
                    checked += 1
        assert checked > 50


class TestGridConvergence:
    def test_halving_fine_dt_moves_at_most_one_step(self):
        rng = np.random.default_rng(42)
        coarse = ModelParams(fine_dt=0.02)
        fine = ModelParams(fine_dt=0.01)
        for _ in range(120):
            ego, traj, l0 = random_case(rng)
            a = oracle_best_latency(ego, traj, l0, coarse).best_latency
            b = oracle_best_latency(ego, traj, l0, fine).best_latency
            la = -1.0 if a is None else a
            lb = -1.0 if b is None else b
            assert abs(la - lb) <= coarse.latency_step + 1e-9


class TestCollision:
    def test_stationary_pair_never_collides(self, params):
        ego = KinematicState(0, 0, 0.0)
        assert not collision_check(ego, static_actor_trajectory(30.0), 0.5, 0.5, params, 2.0)

    def test_highway_overrun_collides(self, params):
        # 17.88 m/s toward a static actor 30 m ahead: stopping distance
        # exceeds the gap at any grid latency
        ego = KinematicState(0, 0, 17.88)
        traj = static_actor_trajectory(30.0)
        assert collision_check(ego, traj, 1.0 / 30.0, 0.5, params, 0.5)

    def test_street_speed_stops_short(self, params):
        ego = KinematicState(0, 0, 11.18)
        traj = static_actor_trajectory(30.0)
        assert not collision_check(ego, traj, 0.5, 0.5, params, 0.5)

    def test_reaction_past_the_horizon_is_not_simulated(self, params):
        # cruising at 10 m/s, the ego reaches the actor 1000 m ahead at 100 s,
        # past the 30 s horizon, whatever the latency
        ego, traj = KinematicState(0, 0, 10.0), static_actor_trajectory(1000.0)
        for latency in (29.0, 100.0):
            assert not collision_check(ego, traj, latency, 0.1, params, 2.0)

    def test_radius_zero_never_collides(self):
        rng = np.random.default_rng(5)
        params = ModelParams()
        for _ in range(100):
            ego, traj, l0 = random_case(rng)
            assert not collision_check(ego, traj, 0.5, l0, params, 0.0)

    def test_radius_has_no_default(self, params):
        with pytest.raises(TypeError, match="collision_radius"):
            collision_check(KinematicState(0, 0, 10.0), static_actor_trajectory(30.0),
                            0.5, 0.5, params)

    def test_monotone_in_latency_front_geometry(self):
        # braking later can only make a front-approach collision more likely
        rng = np.random.default_rng(99)
        params = ModelParams()
        checked = 0
        for _ in range(150):
            v = rng.uniform(5.0, 35.0)
            gap = rng.uniform(5.0, 120.0)
            ego = KinematicState(0, 0, v)
            traj = static_actor_trajectory(gap)
            lats = sorted(rng.choice(params.latency_grid, size=2, replace=False))
            lo, hi = float(lats[0]), float(lats[1])
            if not collision_check(ego, traj, hi, 1.0 / 30.0, params, 1.0):
                assert not collision_check(ego, traj, lo, 1.0 / 30.0, params, 1.0)
                checked += 1
        assert checked > 30

    def test_witness_separation_covers_margin_share(self):
        """At the probe time the distance margin is a guaranteed buffer.

        The distance constraint bounds the ego's travel by the discounted
        separation budget, so at the witness the remaining gap is at least
        the undiscounted share. (The gap at other instants is not bounded by
        the model; the radius-0 form above covers the full maneuver.)
        """
        rng = np.random.default_rng(314)
        checked = 0
        for i in range(400):
            ego, traj, l0 = random_case(rng)
            p = corpus_params(i)
            est = tolerable_latency(ego, traj, l0, p)
            if est.latency is None:
                continue
            from safefpr import braking_profile

            prof = braking_profile(ego, est.latency, l0, est.probe_time, p)
            ax, ay, av = traj.state_at(est.probe_time)
            sn = math.hypot(ax - ego.x, ay - ego.y)
            ex = ego.x + prof.total_distance * math.cos(ego.heading)
            ey = ego.y + prof.total_distance * math.sin(ego.heading)
            gap = math.hypot(ax - ex, ay - ey)
            assert gap >= (1.0 - p.distance_margin) * sn - 1e-6
            checked += 1
        assert checked > 100
