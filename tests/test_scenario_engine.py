import io
import math

import pytest

from safefpr import (
    KinematicState,
    ModelParams,
    PredictorConfig,
    generate_scenario,
    in_fov,
    list_families,
    load_script,
    load_trace,
    predict_trajectories,
    run_scenario,
    save_script,
    save_trace,
    scenario_mrf,
)
from safefpr.geometry import DEFAULT_CAMERA_RIG
from safefpr.scenarios import RoadSpec, script_from_dict, script_to_dict


class TestPredictor:
    def test_single_variant_exact_extrapolation(self):
        cfg = PredictorConfig(num_variants=1, decel_spread=0.0, horizon=4.0)
        trajs = predict_trajectories(KinematicState(5.0, 1.0, 10.0), cfg)
        assert len(trajs) == 1
        x, y, v = trajs[0].state_at(2.0)
        assert x == pytest.approx(25.0)
        assert y == pytest.approx(1.0)
        assert v == pytest.approx(10.0)

    def test_stationary_actor_braking_variants_stay_put(self):
        cfg = PredictorConfig(num_variants=5, decel_spread=4.9)
        fan = predict_trajectories(KinematicState(7.0, -2.0, 0.0), cfg)
        for offset, traj in zip(cfg.acceleration_offsets(), fan):
            x, y, v = traj.state_at(traj.end_time())
            if offset <= 0:
                assert (x, y) == (7.0, -2.0)

    def test_braking_variant_stops_at_kinematic_distance(self):
        cfg = PredictorConfig(num_variants=5, decel_spread=4.9, horizon=4.0)
        trajs = predict_trajectories(KinematicState(0.0, 0.0, 10.0), cfg)
        hard = trajs[0]  # most negative offset
        x, _, v = hard.state_at(4.0)
        assert v == 0.0
        assert x == pytest.approx(10.0**2 / (2 * 4.9), abs=0.02)

    def test_probabilities(self):
        cfg = PredictorConfig(num_variants=4, variant_probabilities=(0.1, 0.2, 0.3, 0.4))
        probs = [t.probability for t in predict_trajectories(KinematicState(0, 0, 1.0), cfg)]
        assert probs == [0.1, 0.2, 0.3, 0.4]

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            PredictorConfig(num_variants=2, variant_probabilities=(0.5, 0.6))


class TestScripts:
    def test_all_families_build(self):
        assert len(list_families()) == 9
        for fam in list_families():
            script = generate_scenario(fam)
            assert script.actors or fam == "empty"

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            generate_scenario("drag_race")

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError, match="ego_speed_mph"):
            generate_scenario("cut_out", {"ego_speed_mph": 500})

    def test_script_roundtrip(self):
        script = generate_scenario("vehicle_following")
        again = script_from_dict(script_to_dict(script))
        assert again == script

    def test_script_file_roundtrip(self, tmp_path):
        script = generate_scenario("challenging_cut_in")
        p = tmp_path / "s.json"
        save_script(script, p)
        assert load_script(p) == script

    def test_family_reference_file(self, tmp_path):
        p = tmp_path / "fam.json"
        p.write_text('{"family": "cut_in", "params": {"ego_speed_mph": 50}}')
        script = load_script(p)
        assert script.name == "cut_in"
        assert script.ego_speed == pytest.approx(50 * 0.44704)

    def test_front_camera_sees_an_actor_before_trigger(self):
        # scenario well-formedness: the action happens in front of the ego
        front = DEFAULT_CAMERA_RIG[1]
        for fam in list_families():
            script = generate_scenario(fam)
            result = run_scenario(script, ModelParams(), frame_rate=30.0)
            pre_trigger = [
                tick for tick in result.trace.ticks if tick.t <= script.trigger_time
            ]
            assert any(
                in_fov(tick.ego, st, front)
                for tick in pre_trigger
                for st in tick.actors.values()
            ), fam

    def test_curved_road_world_mapping(self):
        road = RoadSpec(curvature=1.0 / 400.0)
        x, y, heading = road.to_world(100.0, 0.0)
        assert x == pytest.approx(400 * math.sin(0.25))
        assert y == pytest.approx(400 * (1 - math.cos(0.25)))
        assert heading == pytest.approx(0.25)


class TestEngine:
    def test_deterministic_traces(self):
        params = ModelParams()
        script = generate_scenario("cut_out")
        a = run_scenario(script, params, frame_rate=7.0, seed=3)
        b = run_scenario(script, params, frame_rate=7.0, seed=3)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        save_trace(a.trace, buf_a)
        save_trace(b.trace, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_seed_changes_frame_phase(self):
        params = ModelParams()
        script = generate_scenario("vehicle_following")
        a = run_scenario(script, params, frame_rate=5.0, seed=1)
        b = run_scenario(script, params, frame_rate=5.0, seed=2)
        assert a.brake_time != b.brake_time

    def test_generated_trace_valid_after_roundtrip(self):
        params = ModelParams()
        result = run_scenario(generate_scenario("cut_in"), params, frame_rate=30.0)
        buf = io.StringIO()
        save_trace(result.trace, buf)
        loaded = load_trace(io.StringIO(buf.getvalue()))
        assert len(loaded.ticks) == len(result.trace.ticks)
        assert loaded.metadata["fpr0"] == 30.0

    def test_zero_speed_ego_never_collides(self):
        params = ModelParams()
        for fam in list_families():
            script = generate_scenario(fam, {"ego_speed_mph": 0.0})
            result = run_scenario(script, params, frame_rate=1.0, record=False)
            assert result.collision is None, fam

    def test_zero_speed_ego_mrf_is_grid_floor(self):
        from safefpr import scenario_mrf

        params = ModelParams()
        script = generate_scenario("cut_out", {"ego_speed_mph": 0.0})
        assert scenario_mrf(script, params, collision_radius=0.5) == 1

    def test_no_actor_scenario_mrf_is_grid_floor(self):
        from safefpr import scenario_mrf
        from safefpr.scenarios import RoadSpec, ScenarioScript

        params = ModelParams()
        script = ScenarioScript(
            name="empty_road", road=RoadSpec(), ego_lane=1,
            ego_speed=20.0, duration=4.0, actors=(),
        )
        assert scenario_mrf(script, params, collision_radius=0.5) == 1

    def test_slow_processing_collides_where_fast_does_not(self):
        params = ModelParams()
        script = generate_scenario("cut_out")
        slow = run_scenario(script, params, frame_rate=1.0, record=False)
        fast = run_scenario(script, params, frame_rate=30.0, record=False)
        assert slow.collision is not None
        assert fast.collision is None

    def test_braking_starts_after_trigger(self):
        params = ModelParams()
        script = generate_scenario("vehicle_following")
        result = run_scenario(script, params, frame_rate=30.0)
        assert result.brake_time is not None
        assert result.brake_time > script.trigger_time

    def test_adaptive_mode_logs_rates(self):
        params = ModelParams()
        script = generate_scenario("cut_in")
        result = run_scenario(script, params, adaptive=True)
        assert result.camera_log and result.allocations
        assert result.collision is None
        cams = set(result.allocations[0][1])
        assert cams == {c.camera_id for c in DEFAULT_CAMERA_RIG}

    def test_adaptive_cut_in_spikes_then_relaxes(self):
        # the front requirement jumps when the cutter swerves and brakes,
        # then falls back once the ego is slowing and the cutter holds speed
        params = ModelParams()
        script = generate_scenario("cut_in")
        result = run_scenario(script, params, adaptive=True)
        front = [
            (t, reports["front_wide"].fpr)
            for (t, _), reports in zip(result.allocations, result.camera_log)
        ]
        before = max(f for t, f in front if t < script.trigger_time - 0.2)
        peak = max(f for _, f in front)
        tail = [f for t, f in front if t > script.trigger_time + 6.0]
        assert peak > before
        assert tail and max(tail) < peak

    def test_rejects_mode_confusion(self):
        params = ModelParams()
        script = generate_scenario("cut_in")
        with pytest.raises(ValueError):
            run_scenario(script, params)
        with pytest.raises(ValueError):
            run_scenario(script, params, frame_rate=10.0, adaptive=True)

    def test_collision_radius_sets_the_collision(self):
        # at 1 Hz the ego of cut_out_fast reaches the revealed obstacle
        result = run_scenario(
            generate_scenario("cut_out_fast"), ModelParams(), frame_rate=1.0, collision_radius=0.5
        )
        assert result.collision is not None
        assert result.collision[0] == pytest.approx(6.13, abs=0.01)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_rejects_bad_collision_radius(self, radius):
        script = generate_scenario("cut_out_fast")
        with pytest.raises(ValueError, match="collision_radius"):
            run_scenario(script, ModelParams(), frame_rate=1.0, collision_radius=radius)
        with pytest.raises(ValueError, match="collision_radius"):
            scenario_mrf(script, ModelParams(), collision_radius=radius)
