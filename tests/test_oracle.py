import math

import numpy as np
import pytest

from safefpr import (
    KinematicState,
    ModelParams,
    Trajectory,
    braking_profile,
    collision_check,
    feasible_latency_scan,
    oracle_best_latency,
    tolerable_latency,
)

from conftest import corpus_params, random_case, static_actor_trajectory


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
