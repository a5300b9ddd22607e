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
from safefpr.types import L0_FIXED, constant_separation_trajectory

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


class TestScanMemory:
    """One full scan holds at most 80 B per grid point (docs/formats.md, MAX_SCAN_POINTS)."""

    @pytest.mark.parametrize("fine_dt", [0.01, 3e-4])
    def test_traced_peak_per_point(self, fine_dt):
        p = ModelParams(fine_dt=fine_dt)
        ego = KinematicState(0, 0, 17.88)  # infeasible: every grid point is evaluated
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

    def test_radius_zero_never_collides(self):
        rng = np.random.default_rng(5)
        params = ModelParams()
        for _ in range(100):
            ego, traj, l0 = random_case(rng)
            assert not collision_check(ego, traj, 0.5, l0, params, 0.0)

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
