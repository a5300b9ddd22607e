import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefpr import (
    DEFAULT_CAMERA_RIG,
    KinematicState,
    LatencyEstimate,
    ModelParams,
    PredictorConfig,
    Trajectory,
    aggregate_actor_latency,
    braking_decel,
    braking_profile,
    camera_fpr,
    constraints_met,
    estimate_compute_ops,
    evaluate_scene,
    generate_scenario,
    predict_trajectories,
    probe_time_update,
    reaction_time,
    run_scenario,
    tolerable_latency,
)
from safefpr.geometry import CameraConfig, in_fov
from safefpr.model import path_table, scene_reports, search_paths
from safefpr.types import (
    AGGREGATORS,
    INFEASIBLE,
    L0_CANDIDATE,
    L0_FIXED,
    constant_separation_trajectory,
    straight_line_trajectory,
)

from conftest import perf_scene, random_case, state_rows, static_actor_trajectory


class TestBrakingDecel:
    def test_coasting_uses_floor(self, params):
        assert braking_decel(0.0, params) == pytest.approx(4.9)

    def test_existing_deceleration_amplified(self, params):
        assert braking_decel(-4.9, params) == pytest.approx(5.39)

    def test_accelerating_does_not_help(self, params):
        assert braking_decel(2.0, params) == pytest.approx(4.9)


class TestReactionTime:
    def test_candidate_above_reference(self, params):
        t = reaction_time(0.1, 1.0 / 30.0, params)
        assert t == pytest.approx(0.1 + 5 * (0.1 - 1.0 / 30.0))

    def test_zero_gap(self, params):
        assert reaction_time(0.2, 0.2, params) == pytest.approx(0.2)

    def test_negative_gap_clamped(self, params):
        assert reaction_time(1.0 / 30.0, 0.1, params) == pytest.approx(1.0 / 30.0)

    @given(
        latency=st.floats(1.0 / 30.0, 1.0),
        l0=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200)
    def test_never_below_latency(self, latency, l0):
        params = ModelParams()
        assert reaction_time(latency, l0, params) >= latency


class TestBrakingProfile:
    def test_stationary_ego(self, params):
        p = braking_profile(KinematicState(0, 0, 0.0), 0.5, 0.5, 10.0, params)
        assert p.reaction_distance == 0.0
        assert p.braking_distance == 0.0
        assert p.end_speed == 0.0

    def test_cruise_full_stop(self, params):
        p = braking_profile(KinematicState(0, 0, 11.18), 0.5, 0.5, 10.0, params)
        assert p.reaction_distance == pytest.approx(5.59)
        assert p.braking_distance == pytest.approx(11.18**2 / (2 * 4.9), rel=1e-12)
        assert p.end_speed == 0.0

    def test_hold_phase_stop_clamp(self, params):
        # hard-decelerating ego stops inside the hold phase; frozen values
        # from a 1e-4 s integration of the clamped speed profile
        p = braking_profile(KinematicState(0, 0, 10.0, a=-20.0), 0.5, 0.5, 5.0, params)
        assert p.reaction_distance == pytest.approx(2.5, abs=1e-6)
        assert p.braking_distance == pytest.approx(0.0, abs=1e-9)
        assert p.end_speed == 0.0

    def test_rejects_probe_before_reaction(self, params):
        with pytest.raises(ValueError):
            braking_profile(KinematicState(0, 0, 10.0), 0.5, 0.5, 0.1, params)

    @given(
        v0=st.floats(0.0, 40.0),
        a0=st.floats(-8.0, 3.0),
        latency=st.sampled_from([1.0 / 30.0, 0.2, 0.5, 1.0]),
        tau=st.floats(0.0, 20.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_distance_matches_fine_integration(self, v0, a0, latency, tau):
        """Closed-form distances equal the time-integral of the clamped speed."""
        params = ModelParams()
        probe = latency + tau
        prof = braking_profile(KinematicState(0, 0, v0, a0), latency, latency, probe, params)
        decel = braking_decel(a0, params)
        n = max(1, round(probe / 1e-4))
        ts = np.linspace(0.0, probe, n + 1)
        v_hold = np.maximum(0.0, v0 + a0 * ts) if a0 < 0 else v0 + a0 * ts
        v_r = max(0.0, v0 + a0 * latency) if a0 < 0 else v0 + a0 * latency
        v_brake = np.maximum(0.0, v_r - decel * (ts - latency))
        v = np.where(ts <= latency, v_hold, v_brake)
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy < 2.0
        integral = float(trapezoid(v, ts))
        assert prof.total_distance == pytest.approx(integral, abs=2e-3)
        assert prof.end_speed >= 0.0

    def test_conservation_analytic_case(self, params):
        # cruise at 20, brake to stop: integral known in closed form
        prof = braking_profile(KinematicState(0, 0, 20.0), 0.5, 0.5, 30.0, params)
        expected = 20.0 * 0.5 + 20.0**2 / (2 * 4.9)
        assert prof.total_distance == pytest.approx(expected, abs=1e-6)


class TestConstraints:
    def test_receding_actor_trivially_safe(self, params):
        actor = KinematicState(20.0, 0.0, 10.0)
        traj = Trajectory.from_states(((0.0, actor), (40.0, KinematicState(420.0, 0.0, 10.0))))
        ego = KinematicState(0, 0, 0.0)
        chk = constraints_met(ego, traj, 1.0, 1.0, 1.0, params)
        assert chk.met

    def test_street_speed_full_stop_cell(self, params):
        # 11.18 m/s ego, static actor 30 m ahead, probe at full stop
        ego = KinematicState(0, 0, 11.18)
        traj = static_actor_trajectory(30.0)
        t_n = 0.5 + 11.18 / 4.9
        chk = constraints_met(ego, traj, 0.5, 0.5, t_n, params)
        assert chk.met
        assert chk.distance_gap == pytest.approx(27.0 - 18.3449, abs=1e-3)

    def test_highway_speed_infeasible_for_every_probe(self, params):
        # frozen from an exhaustive 0.01 s probe scan over a 30 s horizon:
        # stopping distance alone exceeds the allowed 27 m at every probe
        ego = KinematicState(0, 0, 17.88)
        traj = static_actor_trajectory(30.0)
        t_r = 0.5
        for t_n in np.arange(t_r, 30.0, 0.01):
            assert not constraints_met(ego, traj, 0.5, 0.5, float(t_n), params).met


class TestProbeTimeUpdate:
    def test_boundary_zero(self):
        assert probe_time_update(0.0, 0.0, 0.0, 4.9) == 0.0

    def test_speed_branch(self):
        assert probe_time_update(-1.0, 4.9, 5.0, 4.9) == pytest.approx(1.0)

    def test_distance_branch(self):
        expected = math.sqrt(2 * 4.9 * 10.0) / 4.9
        assert probe_time_update(10.0, -1.0, 0.0, 4.9) == pytest.approx(expected, abs=5e-3)

    def test_both_branches_take_min(self):
        d = probe_time_update(10.0, 0.49, 0.0, 4.9)
        assert d == pytest.approx(0.1)


class TestTolerableLatency:
    def test_receding_actor_max_latency(self, params):
        ego = KinematicState(0, 0, 0.0)
        actor = KinematicState(20.0, 0.0, 10.0)
        traj = Trajectory.from_states(((0.0, actor), (40.0, KinematicState(420.0, 0.0, 10.0))))
        est = tolerable_latency(ego, traj, 1.0, params)
        assert est.latency == params.latency_max

    def test_street_speed_supports_low_rate(self, params):
        # candidate-latency policy: 11.18 m/s at a constant 30 m budget
        # tolerates at least 0.5 s (a rate of at most 2 Hz)
        assert params.l0_policy == L0_CANDIDATE
        ego = KinematicState(0, 0, 11.18)
        est = tolerable_latency(ego, static_actor_trajectory(30.0), 0.5, params)
        assert est.latency is not None and est.latency >= 0.5

    def test_highway_speed_infeasible(self, params):
        ego = KinematicState(0, 0, 17.88)
        est = tolerable_latency(ego, static_actor_trajectory(30.0), 0.5, params)
        assert est.infeasible

    def test_witness_recheckable(self, params):
        ego = KinematicState(0, 0, 11.18)
        traj = static_actor_trajectory(30.0)
        est = tolerable_latency(ego, traj, 0.5, params)
        chk = constraints_met(ego, traj, est.latency, 0.5, est.probe_time, params)
        assert chk.met


class TestL0Rule:
    """l0 must be finite, and > 0 under the fixed policy that reads it."""

    BAD_FIXED = (math.nan, math.inf, -math.inf, 0.0, -0.2)
    BAD_ANY = (math.nan, math.inf, -math.inf)

    def searches(self, l0, params):
        ego = KinematicState(0, 0, 11.18)
        traj = static_actor_trajectory(30.0)
        yield lambda: tolerable_latency(ego, traj, l0, params)
        yield lambda: search_paths(state_rows([ego]), [0.0], path_table([traj.columns()]), l0, params)
        yield lambda: evaluate_scene(ego, {"a": [traj]}, DEFAULT_CAMERA_RIG, l0, params)

    @pytest.mark.parametrize("l0", BAD_FIXED)
    def test_fixed_policy_rejects(self, fixed_params, l0):
        for call in self.searches(l0, fixed_params):
            with pytest.raises(ValueError, match="l0"):
                call()

    @pytest.mark.parametrize("l0", BAD_ANY)
    def test_candidate_policy_rejects_non_finite(self, params, l0):
        for call in self.searches(l0, params):
            with pytest.raises(ValueError, match="l0"):
                call()

    def test_candidate_policy_ignores_the_sign(self, params):
        # the candidate policy never reads l0
        ego, traj = KinematicState(0, 0, 11.18), static_actor_trajectory(30.0)
        want = tolerable_latency(ego, traj, 0.5, params)
        for l0 in (0.0, -1.0):
            for call in self.searches(l0, params):
                call()
            assert tolerable_latency(ego, traj, l0, params) == want


class TestEvaluateSceneParity:
    """evaluate_scene's batched search against the scalar search.

    Each actor's estimate must equal ``tolerable_latency`` on each of its
    trajectories followed by ``aggregate_actor_latency``: the same latency,
    binding trajectory and probe time, the last as a plain float.
    """

    @staticmethod
    def _assert_parity(ego, actors, l0, params) -> list[tuple[LatencyEstimate, Trajectory]]:
        per_actor, _ = evaluate_scene(ego, actors, DEFAULT_CAMERA_RIG, l0, params)
        searched = []
        for aid, trajs in actors.items():
            ests = [(tolerable_latency(ego, traj, l0, params), traj.probability) for traj in trajs]
            searched += [(est, traj) for (est, _), traj in zip(ests, trajs)]
            want = aggregate_actor_latency(ests, params)
            got = per_actor[aid]
            assert got.latency == want.latency, aid
            assert got.trajectory_index == want.trajectory_index, aid
            if want.probe_time is None:
                assert got.probe_time is None, aid
            else:
                assert type(got.probe_time) is float, aid
                assert got.probe_time == want.probe_time, aid
        return searched

    @pytest.mark.parametrize("policy", [L0_CANDIDATE, L0_FIXED])
    def test_criterion_2_scene(self, policy):
        params = ModelParams(l0_policy=policy)
        self._assert_parity(KinematicState(0.0, 0.0, 15.0), perf_scene(), 1 / 30, params)

    @staticmethod
    def _seeded_scene(rng: np.random.Generator, layout: int):
        """Actors around the ego. Layout 0 mixes predictor fans over
        horizons short enough for probes to pass their last sample,
        irregular fans of differing lengths, and actors parked close ahead
        that a fast ego cannot stop for. Layout 1 has only predictor fans,
        all on one time column; layout 2 only trajectories of nine samples,
        each over its own duration."""
        horizon = rng.uniform(0.3, 6.0)
        actors = {}
        for k in range(int(rng.integers(3, 7))):
            start = KinematicState(
                rng.uniform(-60.0, 60.0),
                rng.uniform(-15.0, 15.0),
                rng.uniform(0.0, 30.0),
                rng.uniform(-4.0, 2.0),
                rng.uniform(-math.pi, math.pi),
            )
            if layout == 2:
                durations = rng.uniform(0.5, 8.0, int(rng.integers(1, 6)))
                fan = [straight_line_trajectory(start, d, sample_dt=d / 8) for d in durations]
            elif layout == 1 or k % 3 == 0:
                cfg = PredictorConfig(
                    horizon=horizon if layout else rng.uniform(0.3, 6.0),
                    num_variants=int(rng.integers(1, 6)),
                )
                fan = predict_trajectories(start, cfg)
            elif k % 3 == 1:
                fan = [random_case(rng)[1] for _ in range(int(rng.integers(1, 5)))]
            else:
                fan = [
                    static_actor_trajectory(rng.uniform(2.0, 25.0), duration=rng.uniform(0.5, 40.0))
                    for _ in range(int(rng.integers(1, 3)))
                ]
            actors[f"a{k}"] = fan
        return actors

    def test_seeded_fans(self):
        rng = np.random.default_rng(20220507)
        searched = []
        for seed in range(60):
            if seed % 3 == 0:  # brakes to a stop before the longer reaction times end
                ego = KinematicState(0.0, 0.0, rng.uniform(2.0, 20.0), rng.uniform(-8.0, -3.0))
            else:
                ego = random_case(rng)[0]
            params = ModelParams(
                l0_policy=(L0_CANDIDATE, L0_FIXED)[seed % 2],
                aggregator=AGGREGATORS[(seed // 2) % len(AGGREGATORS)],
                percentile=float(rng.uniform(1.0, 100.0)),
                max_time_adjustments=int(rng.integers(1, 11)),
                horizon=float(rng.uniform(1.05, 30.0)),
            )
            l0 = float(rng.uniform(1.0 / 30.0, 1.0))
            scene = self._seeded_scene(rng, (0, 1, 0, 2)[seed % 4])
            searched += self._assert_parity(ego, scene, l0, params)
        # the corpus reaches the cases the batched search treats apart
        assert any(est.infeasible for est, _ in searched)
        assert any(
            est.probe_time is not None and est.probe_time > traj.t[-1]
            for est, traj in searched
        )
        assert len({tuple(traj.columns()[0]) for _, traj in searched}) > 1

    @pytest.mark.parametrize("policy", [L0_CANDIDATE, L0_FIXED])
    def test_random_case_corpus(self, policy):
        """conftest's ``random_case`` corpus, one actor per scene, under caps 1-10."""
        rng = np.random.default_rng(20240817)
        searched = []
        for _ in range(60):
            ego, traj, l0 = random_case(rng)
            for cap in range(1, 11):
                params = ModelParams(l0_policy=policy, max_time_adjustments=cap)
                searched += self._assert_parity(ego, {"a": [traj]}, l0, params)
        assert any(est.infeasible for est, _ in searched)
        assert any(not est.infeasible for est, _ in searched)


class TestSeveralEgos:
    """One ``search_paths`` call over several egos equals one call per ego.

    Every lane reads its ego's values from its own column of the kernel's
    table, whether the call has one ego or many, so the results are equal
    to the bit.
    """

    def test_seeded_egos_and_scenes(self):
        rng = np.random.default_rng(6)
        for seed in range(12):
            params = ModelParams(
                l0_policy=(L0_CANDIDATE, L0_FIXED)[seed % 2],
                max_time_adjustments=int(rng.integers(1, 11)),
                horizon=float(rng.uniform(1.05, 30.0)),
            )
            scene = TestEvaluateSceneParity._seeded_scene(rng, seed % 3)
            paths = path_table([traj.columns() for fan in scene.values() for traj in fan])
            egos = [random_case(rng)[0] for _ in range(int(rng.integers(2, 6)))]
            # one ego brakes to a stop inside the hold phase
            egos.append(KinematicState(0.0, 0.0, rng.uniform(2.0, 20.0), rng.uniform(-8.0, -3.0)))
            l0 = float(rng.uniform(1.0 / 30.0, 1.0))
            together = search_paths(state_rows(egos), [0.0] * len(egos), paths, l0, params)
            each = [search_paths(state_rows([ego]), [0.0], paths, l0, params) for ego in egos]
            alone = (
                [latency for latencies, _ in each for latency in latencies],
                [probe for _, probes in each for probe in probes],
            )
            assert together == alone
            assert None in alone[0]
            assert any(latency is not None for latency in alone[0])


class TestNoPaths:
    def test_search_over_an_empty_table(self):
        paths = path_table([])
        assert paths.count == 0
        egos = [KinematicState(0.0, 0.0, 10.0), KinematicState(5.0, 0.0, 20.0)]
        assert search_paths(state_rows(egos), [0.0, 1.0], paths, 1 / 30, ModelParams()) == ([], [])

    def test_search_without_egos(self):
        paths = path_table([np.array([[0.0, 1.0], [30.0, 40.0], [0.0, 0.0], [10.0, 10.0]])])
        assert search_paths(state_rows([]), [], paths, 1 / 30, ModelParams()) == ([], [])
        assert search_paths(state_rows([]), [], path_table([]), 1 / 30, ModelParams()) == ([], [])

    def test_scene_without_actors(self, params):
        per_actor, reports = evaluate_scene(
            KinematicState(0.0, 0.0, 10.0), {}, DEFAULT_CAMERA_RIG, 1 / 30, params
        )
        assert per_actor == {}
        assert {rep.fpr for rep in reports.values()} == {params.fpr_bounds()[0]}


class TestPathGroups:
    """``path_table`` groups paths by their sample times.

    The callers' tables are each one group, so the kernel's lane loop runs
    once per call; a table that mixes time columns runs it once per group
    and gives each pair what a table of its path alone gives.
    """

    @staticmethod
    def members(paths):
        return [group.tolist() for group, _ in paths.groups]

    def test_criterion_2_scene_is_one_group(self):
        paths = path_table([traj.columns() for fan in perf_scene().values() for traj in fan])
        assert self.members(paths) == [list(range(60))]

    def test_trace_actors_are_one_group(self):
        trace = run_scenario(generate_scenario("cut_out"), ModelParams(), frame_rate=30.0).trace
        assert len(trace.actor_ids) > 1
        paths = path_table([trace.actor_columns(aid) for aid in trace.actor_ids])
        assert self.members(paths) == [list(range(len(trace.actor_ids)))]

    def test_one_path_is_one_group(self):
        paths = path_table([static_actor_trajectory(30.0).columns()])
        assert self.members(paths) == [[0]]

    @pytest.mark.parametrize("policy", [L0_CANDIDATE, L0_FIXED])
    def test_mixed_time_columns(self, policy):
        start = KinematicState(25.0, 3.5, 12.0, -1.0)
        short = predict_trajectories(start, PredictorConfig(horizon=2.0, num_variants=3))
        long = predict_trajectories(
            KinematicState(-20.0, -3.5, 18.0, 0.5), PredictorConfig(horizon=6.0, num_variants=2)
        )
        pinned = constant_separation_trajectory(12.0, 4.0, duration=3.0)
        single = np.array([[0.0], [40.0], [0.0], [8.0]])
        blocks = [
            short[0].columns(), pinned.columns(), long[0].columns(), single,
            short[1].columns(), long[1].columns(), short[2].columns(),
        ]
        paths = path_table(blocks)
        assert self.members(paths) == [[0, 4, 6], [1], [2, 5], [3]]
        rng = np.random.default_rng(23)
        egos = [random_case(rng)[0] for _ in range(4)]
        egos.append(KinematicState(0.0, 0.0, 9.0, -6.0))  # stops inside the hold phase
        offsets = [0.0, 0.5, 1.25, 0.0, 3.0]
        params = ModelParams(l0_policy=policy, horizon=8.0)
        rows = state_rows(egos)
        together = search_paths(rows, offsets, paths, 0.1, params)
        each = [search_paths(rows, offsets, path_table([b]), 0.1, params) for b in blocks]
        # ego-major: entry i * count + j is ego i against path j
        alone = tuple(
            [out[k][i] for i in range(len(egos)) for out in each] for k in range(2)
        )
        assert together == alone
        assert None in alone[0]
        assert len(set(alone[0]) - {None}) > 2

    def test_lookup_at_the_end_time(self, params):
        # under the candidate policy latency_max's first probe is at 1.0 s,
        # the path's end time: it reads the final sample, not the last
        # segment's far end, and the advance from there decides the probe
        block = np.array([
            [0.0, 0.5, 1.0],
            [5.585298757238198, 22.275004598018867, 39.00594447064108],
            [-1.2872086272865293, 1.4893077544596727, -0.34326665957702973],
            [4.18562085235571, 18.10005141636259, 0.3365456936042599],
        ])
        block.setflags(write=False)
        (traj,) = Trajectory.from_block(block[None], (1.0,))
        ego = KinematicState(0.0, 0.0, 12.587723164987768, 0.9961035292957501)
        want = tolerable_latency(ego, traj, 1 / 30, params)
        assert want.latency == params.latency_max == 1.0
        got = search_paths(state_rows([ego]), [0.0], path_table([block]), 1 / 30, params)
        assert got == ([want.latency], [want.probe_time])


class TestConstantSeparationAnalytic:
    """Third route for the sweep cell: a closed-form feasibility bound.

    With a pinned separation s, constant actor speed va, a coasting ego and
    the candidate-latency policy, a latency l is feasible iff
        v*l + max(0, v^2 - (c2*va)^2) / (2*decel) <= c1*s
    so the expected cell rate follows directly from the grid.
    """

    @given(
        v=st.floats(0.5, 36.0),
        va=st.floats(0.0, 35.0),
        s=st.floats(5.0, 200.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_cell_matches_closed_form(self, v, va, s):
        from safefpr import required_fpr_cell

        params = ModelParams()
        decel = 4.9
        c1, c2 = params.distance_margin, params.speed_margin
        shed = max(0.0, v * v - (c2 * va) ** 2) / (2.0 * decel)
        expected = None
        for latency in params.latency_grid:
            margin = c1 * s - v * latency - shed
            if abs(margin) < 1e-6:
                return  # skip float-razor-edge grid boundaries
            if margin > 0.0:
                expected = 1.0 / latency
                break
        got = required_fpr_cell(v, va, s, params)
        if expected is None:
            assert got is None or got == math.inf
        else:
            assert got == pytest.approx(expected, rel=1e-12)


class TestAggregation:
    def _est(self, latency):
        return LatencyEstimate(latency=latency, probe_time=latency)

    def test_singleton_identity_every_aggregator(self):
        single = [(self._est(0.4), 1.0)]
        for agg in ("min", "max", "mean", "percentile"):
            for n in (1.0, 50.0, 99.0, 100.0):
                params = ModelParams(aggregator=agg, percentile=n)
                assert aggregate_actor_latency(single, params).latency == 0.4

    def test_min(self):
        params = ModelParams(aggregator="min")
        ests = [(self._est(l), 1 / 3) for l in (0.2, 0.5, 1.0)]
        assert aggregate_actor_latency(ests, params).latency == 0.2

    def test_max(self):
        params = ModelParams(aggregator="max")
        ests = [(self._est(l), 1 / 3) for l in (0.2, 0.5, 1.0)]
        assert aggregate_actor_latency(ests, params).latency == 1.0

    def test_percentile_99_of_100(self):
        # rank-1-from-bottom: verified against numpy.percentile's lower
        # interpolation of the same data
        params = ModelParams(aggregator="percentile", percentile=99.0)
        lats = [0.1 * i for i in range(1, 101)]
        ests = [(self._est(l), 0.01) for l in lats]
        got = aggregate_actor_latency(ests, params).latency
        assert got == pytest.approx(0.1)
        assert got == pytest.approx(float(np.percentile(lats, 1.0, method="lower")), abs=1e-2)

    def test_percentile_100_is_minimum(self):
        params = ModelParams(aggregator="percentile", percentile=100.0)
        ests = [(self._est(l), 0.25) for l in (0.9, 0.3, 0.6, 0.5)]
        assert aggregate_actor_latency(ests, params).latency == 0.3

    def test_infeasible_ranks_lowest(self):
        params = ModelParams(aggregator="min")
        ests = [(self._est(0.5), 0.5), (INFEASIBLE, 0.5)]
        assert aggregate_actor_latency(ests, params).infeasible

    def test_mean_weighted(self):
        params = ModelParams(aggregator="mean")
        ests = [(self._est(0.2), 0.75), (self._est(1.0), 0.25)]
        assert aggregate_actor_latency(ests, params).latency == pytest.approx(0.4)

    def test_empty_rejected(self, params):
        with pytest.raises(ValueError):
            aggregate_actor_latency([], params)

    @pytest.mark.parametrize("agg,want", [("min", 2), ("max", 1), ("percentile", 3), ("mean", 2)])
    def test_binding_entry_position(self, agg, want):
        # rank 2 of 4 from the bottom under percentile 50; mean names its
        # lowest-ranked entry
        params = ModelParams(aggregator=agg, percentile=50.0)
        ests = [(self._est(l), 0.25) for l in (0.6, 0.9, 0.3, 0.5)]
        got = aggregate_actor_latency(ests, params)
        assert got.trajectory_index == want
        if agg != "mean":
            bound = ests[want][0]
            assert (got.latency, got.probe_time) == (bound.latency, bound.probe_time)

    def test_infeasible_entry_position(self):
        params = ModelParams(aggregator="min")
        got = aggregate_actor_latency([(self._est(0.5), 0.5), (INFEASIBLE, 0.5)], params)
        assert got.infeasible and got.trajectory_index == 1


class TestCameraFpr:
    def _lat(self, aid, latency):
        return (aid, LatencyEstimate(latency=latency))

    def test_min_latency_binds(self, params):
        lats = [self._lat("a", 0.2), self._lat("b", 0.5), self._lat("c", 1.0)]
        rep = camera_fpr(lats, {"a", "b", "c"}, params)
        assert rep.fpr == pytest.approx(5.0)
        assert rep.binding_actor == "a"
        assert not rep.infeasible

    def test_empty_fov_minimum_rate(self, params):
        rep = camera_fpr([], set(), params)
        assert rep.fpr == pytest.approx(1.0)
        assert rep.binding_actor is None

    def test_infeasible_member_maximum_rate(self, params):
        lats = [self._lat("a", 0.5), ("b", INFEASIBLE)]
        rep = camera_fpr(lats, {"a", "b"}, params)
        assert rep.fpr == pytest.approx(30.0)
        assert rep.infeasible
        assert rep.binding_actor == "b"

    def test_non_members_ignored(self, params):
        lats = [self._lat("a", 0.2), self._lat("b", 1.0)]
        rep = camera_fpr(lats, {"b"}, params)
        assert rep.fpr == pytest.approx(1.0)
        assert rep.binding_actor == "b"

    def test_equals_max_of_member_rates(self, params):
        lats = [self._lat(a, l) for a, l in [("a", 0.25), ("b", 0.125), ("c", 0.5)]]
        rep = camera_fpr(lats, {"a", "b", "c"}, params)
        per_actor = [1.0 / l for _, l in [("a", 0.25), ("b", 0.125), ("c", 0.5)]]
        assert rep.fpr == pytest.approx(max(per_actor))


def per_tick_reports(egos, actor_ids, positions, latencies, cameras, params):
    """``scene_reports``'s reference: ``in_fov`` membership and ``camera_fpr``, one tick at a time."""
    out = []
    for ego, row, lats in zip(egos, positions, latencies):
        ests = [(aid, LatencyEstimate(latency)) for aid, latency in zip(actor_ids, lats)]
        states = {aid: KinematicState(x, y, 0.0) for aid, (x, y) in zip(actor_ids, row)}
        out.append({
            cam.camera_id: camera_fpr(
                ests, {aid for aid, st in states.items() if in_fov(ego, st, cam)}, params
            )
            for cam in cameras
        })
    return out


class TestSceneReports:
    """``scene_reports`` over a block of ticks equals ``in_fov`` + ``camera_fpr`` per tick."""

    EGO = KinematicState(1.0, -2.0, 10.0, heading=0.7)

    def _assert_matches(self, egos, actor_ids, positions, latencies, cameras, params):
        block = np.array(positions, dtype=float).reshape(len(egos), len(actor_ids), 2)
        got = scene_reports(state_rows(egos), actor_ids, block, latencies, cameras, params)
        want = per_tick_reports(egos, actor_ids, positions, latencies, cameras, params)
        assert got == want
        for reports in got:
            assert list(reports) == [cam.camera_id for cam in cameras]
            for rep in reports.values():
                assert type(rep.fpr) is float and type(rep.latency) is float
        return got

    def test_actor_on_a_wedge_edge(self, params):
        # the edges of a wedge are closed: both edge bearings are members,
        # a bearing one float past either edge is not
        ego = KinematicState(0.0, 0.0, 10.0)
        edge = math.atan2(1.0, 1.0)
        cams = (CameraConfig("edge", 0.0, 2.0 * edge), CameraConfig("side", edge, edge))
        positions = [[(1.0, 1.0), (1.0, -1.0), (1.0, math.nextafter(1.0, 2.0)), (2.0, 0.0)]]
        (reports,) = self._assert_matches(
            [ego], ["a", "b", "c", "d"], positions, [[0.5, 0.25, 0.125, 1.0]], cams, params
        )
        assert reports["edge"].binding_actor == "b"
        assert reports["side"].binding_actor == "c"
        assert in_fov(ego, KinematicState(1.0, 1.0, 0.0), cams[0])

    def test_actor_coinciding_with_the_ego(self, params):
        positions = [[(self.EGO.x, self.EGO.y), (self.EGO.x + 50.0, self.EGO.y)]]
        (reports,) = self._assert_matches(
            [self.EGO], ["twin", "z"], positions, [[0.5, 0.1]], DEFAULT_CAMERA_RIG, params
        )
        # the twin is in every camera, so none is empty
        assert all(rep.binding_actor in ("twin", "z") for rep in reports.values())
        assert reports["rear"].binding_actor == reports["left"].binding_actor == "twin"

    def test_full_circle_camera(self, params):
        cams = (CameraConfig("omni", 0.3, 2.0 * math.pi), DEFAULT_CAMERA_RIG[0])
        positions = [[(self.EGO.x - 30.0, self.EGO.y + 1.0)], [(self.EGO.x + 1.0, self.EGO.y)]]
        got = self._assert_matches(
            [self.EGO, self.EGO], ["a"], positions, [[0.25], [None]], cams, params
        )
        assert [reports["omni"].binding_actor for reports in got] == ["a", "a"]

    def test_no_cameras_and_no_actors(self, params):
        egos = [self.EGO, KinematicState(0.0, 0.0, 0.0)]
        assert self._assert_matches(egos, ["a"], [[(5.0, 0.0)]] * 2, [[0.5]] * 2, (), params) == [
            {}, {}
        ]
        got = self._assert_matches(egos, [], [[], []], [[], []], DEFAULT_CAMERA_RIG, params)
        lo, _ = params.fpr_bounds()
        assert all(rep.fpr == lo and rep.binding_actor is None for r in got for rep in r.values())
        assert scene_reports(
            state_rows([]), ["a"], np.empty((0, 1, 2)), [], DEFAULT_CAMERA_RIG, params
        ) == []

    def test_tied_latencies_bind_the_smallest_id(self, params):
        ego = KinematicState(0.0, 0.0, 10.0)
        positions = [[(20.0, 1.0), (30.0, -1.0), (25.0, 0.0)]]
        (reports,) = self._assert_matches(
            [ego], ["a", "b", "c"], positions, [[0.5, 0.25, 0.25]], DEFAULT_CAMERA_RIG, params
        )
        assert reports["front_narrow"].binding_actor == "b"
        assert reports["front_narrow"].fpr == 4.0

    def test_two_infeasible_members(self, params):
        ego = KinematicState(0.0, 0.0, 10.0)
        positions = [[(20.0, 1.0), (30.0, -1.0), (25.0, 0.0)]]
        (reports,) = self._assert_matches(
            [ego], ["a", "b", "c"], positions, [[0.1, None, None]], DEFAULT_CAMERA_RIG, params
        )
        _, hi = params.fpr_bounds()
        front = reports["front_narrow"]
        assert (front.fpr, front.binding_actor, front.infeasible) == (hi, "b", True)

    def test_clamped_latencies(self):
        # an aggregated latency may lie off the grid, beyond latency_max
        params = ModelParams(latency_max=0.5)
        ego = KinematicState(0.0, 0.0, 10.0)
        (reports,) = self._assert_matches(
            [ego], ["a"], [[(20.0, 0.0)]], [[0.75]], DEFAULT_CAMERA_RIG, params
        )
        assert reports["front_narrow"].latency == 0.5

    def test_seeded_blocks(self, params):
        # every tick of a block as if alone, over random egos, positions
        # (some coinciding with the ego) and latencies with ties and None
        rng = np.random.default_rng(15)
        grid = [0.05, 0.1, 0.25, 1.0, None]
        cams = (*DEFAULT_CAMERA_RIG, CameraConfig("omni", 1.0, 2.0 * math.pi),
                CameraConfig("slit", -2.5, 0.01))
        for _ in range(40):
            ticks, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            egos = [
                KinematicState(*rng.uniform(-5.0, 5.0, 2), 10.0, heading=rng.uniform(-4.0, 4.0))
                for _ in range(ticks)
            ]
            positions = [
                [
                    (ego.x, ego.y) if rng.random() < 0.1 else tuple(rng.uniform(-60.0, 60.0, 2))
                    for _ in range(n)
                ]
                for ego in egos
            ]
            latencies = [[grid[i] for i in rng.integers(0, len(grid), n)] for _ in range(ticks)]
            ids = [f"a{j}" for j in range(n)]
            self._assert_matches(egos, ids, positions, latencies, cams, params)

    def test_evaluate_scene_sorts_the_ids(self, params):
        # ids inserted out of order, with tied latencies: the smallest id binds
        ego = KinematicState(0.0, 0.0, 5.0)
        actors = {
            aid: [static_actor_trajectory(40.0)] for aid in ("zeta", "beta", "alpha", "mu")
        }
        per_actor, reports = evaluate_scene(ego, actors, DEFAULT_CAMERA_RIG, 1 / 30, params)
        assert list(per_actor) == ["zeta", "beta", "alpha", "mu"]
        ests = list(per_actor.items())
        twin = KinematicState(40.0, 0.0, 0.0)
        for cam in DEFAULT_CAMERA_RIG:
            members = set(actors) if in_fov(ego, twin, cam) else set()
            assert reports[cam.camera_id] == camera_fpr(ests, members, params)
        assert reports["front_narrow"].binding_actor == "alpha"


class TestComputeOps:
    def test_two_actor_single_prediction(self, params):
        assert estimate_compute_ops(2, 1, params) == 60_000

    def test_zero_actors(self, params):
        assert estimate_compute_ops(0, 5, params) == 0

    def test_twelve_by_five(self, params):
        assert estimate_compute_ops(12, 5, params) == 1_800_000

    def test_counts_the_grid_entries(self):
        # latency_min=0.1 leaves 28 entries on the default grid
        params = ModelParams(latency_min=0.1)
        assert len(params.latency_grid) == 28
        assert estimate_compute_ops(1, 1, params) == 28_000

    @given(a=st.integers(0, 50), t=st.integers(0, 20))
    @settings(max_examples=100)
    def test_multiplicative(self, a, t):
        params = ModelParams()
        assert estimate_compute_ops(2 * a, t, params) == 2 * estimate_compute_ops(a, t, params)
