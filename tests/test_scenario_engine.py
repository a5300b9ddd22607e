import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
            x, y, v = traj.state_at(traj.t[-1])
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": math.nan},
            {"horizon": math.inf},
            {"horizon": 0.0},
            {"horizon": "6"},
            {"decel_spread": math.nan},
            {"decel_spread": math.inf},
            {"decel_spread": -1.0},
            {"num_variants": 2.5},
            {"num_variants": True},
            {"num_variants": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PredictorConfig(**kwargs)


class TestScripts:
    def test_all_families_build(self):
        assert len(list_families()) == 9
        for fam in list_families():
            script = generate_scenario(fam)
            assert script.actors or fam == "empty"

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            generate_scenario("drag_race")

    @pytest.mark.parametrize("family", list_families())
    def test_family_rejects_unknown_parameter(self, family):
        # the defaults build; a key the family does not read is named, not ignored
        assert generate_scenario(family, {}) == generate_scenario(family)
        match = r"unknown parameters \['ego_speed'\]; known: .*ego_speed_mph"
        with pytest.raises(ValueError, match=match):
            generate_scenario(family, {"ego_speed": 10})

    def test_family_duration_is_bounded(self):
        with pytest.raises(ValueError, match="duration must be in"):
            generate_scenario("cut_in", {"duration": 1e308})

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

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda d: d.pop("ego_speed"), "missing key 'ego_speed'"),
            (lambda d: d.update(ego_speed="inf"), "ego_speed must be a number"),
            (lambda d: d.update(ego_speed=math.inf), "ego_speed must be finite"),
            (lambda d: d.update(duration=math.nan), "duration must be finite"),
            (lambda d: d.update(ego_lane=1.5), "ego_lane must be an integer"),
            (lambda d: d.update(trigger_time=math.inf), "trigger_time must be finite"),
            (lambda d: d.update(notes=[]), "notes must be a JSON object"),
            (lambda d: d.update(road=[]), "road must be a JSON object"),
            (lambda d: d["road"].update(lane_width=math.nan), "road.lane_width must be finite"),
            (lambda d: d["road"].update(curvature=-math.inf), "road.curvature must be finite"),
            (lambda d: d["road"].update(lanes=10**20), "road.lanes must be an integer"),
            (lambda d: d["road"].update(banking=0.1), "unknown keys"),
            (lambda d: d.update(actors={}), "actors must be a JSON list"),
            (lambda d: d["actors"][0].update(gap=math.nan), r"actors\[0\].gap must be finite"),
            (lambda d: d["actors"][0].update(speed=-math.inf), r"actors\[0\].speed must be finite"),
            (lambda d: d["actors"][0].pop("lane"), "missing key 'lane'"),
            (lambda d: d["actors"][0].update(actor_id=7), "actor_id must be a string"),
            (lambda d: d["actors"][0]["events"][0].update(at=math.inf),
             r"events\[0\].at must be finite"),
            (lambda d: d["actors"][0]["events"][1].update(rate=math.nan),
             r"events\[1\].rate must be finite"),
            (lambda d: d["actors"][0]["events"][1].update(target_speed="fast"),
             "target_speed must be a number"),
            (lambda d: d.update(ego_speed=1e308), r"ego_speed must be in \[0, 100\] m/s"),
            (lambda d: d.update(duration=1e308), r"duration must be in \(0, 600\] s"),
            (lambda d: d["road"].update(lane_width=1e308), r"road: lane_width must be in"),
            (lambda d: d["actors"][0].update(gap=-1e308), r"actors\[0\]: gap must be in"),
            (lambda d: d["actors"][0].update(speed=1e308), r"actors\[0\]: speed must be in"),
            (lambda d: d["actors"][0]["events"][1].update(target_speed=1e308),
             r"actors\[0\]\.events\[1\]: target_speed must be in"),
        ],
    )
    def test_malformed_script_names_the_field(self, change, match):
        obj = script_to_dict(generate_scenario("cut_in"))
        change(obj)
        with pytest.raises(ValueError, match=match):
            load_script(io.StringIO(json.dumps(obj)))

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            "cut_in",
            None,
            {"family": ["cut_in"]},
            {"family": "cut_in", "params": [1]},
            {"family": "cut_in", "params": {"duration": "inf"}},
            {"family": "cut_in", "params": {"trigger_time": math.nan}},
            {"family": "cut_in", "params": {"ego_speed_mph": None}},
            {"family": "cut_in", "extra": 1},
        ],
    )
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(ValueError):
            load_script(io.StringIO(json.dumps(doc)))

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


# (collision, brake_time) per (rate, seed) for each family at its defaults;
# the brake trigger and frame schedule must reproduce them exactly
PINNED_OUTCOMES = {
    "cut_out": {
        (1, 0): ((9.466666666666667, "obstacle"), None),
        (1, 3): ((9.466666666666667, "obstacle"), None),
        (7, 0): (None, 8.309523809523808),
        (7, 3): (None, 8.209523809523809),
        (30, 0): (None, 7.633333333333333),
        (30, 3): (None, 7.633333333333333),
    },
    "cut_out_fast": {
        (1, 0): ((6.133333333333333, "obstacle"), None),
        (1, 3): ((6.133333333333333, "obstacle"), None),
        (7, 0): (None, 4.142857142857143),
        (7, 3): (None, 4.042857142857143),
        (30, 0): (None, 3.5),
        (30, 3): (None, 3.5),
    },
    "cut_in": {
        (1, 0): (None, 8.0),
        (1, 3): (None, 8.266666666666666),
        (7, 0): (None, 3.742857142857143),
        (7, 3): (None, 3.776190476190476),
        (30, 0): (None, 3.1666666666666665),
        (30, 3): (None, 3.1666666666666665),
    },
    "challenging_cut_in": {
        (1, 0): ((4.833333333333333, "cutter"), None),
        (1, 3): ((4.833333333333333, "cutter"), None),
        (7, 0): (None, 3.0095238095238095),
        (7, 3): (None, 2.9095238095238094),
        (30, 0): (None, 2.3666666666666667),
        (30, 3): (None, 2.3666666666666667),
    },
    "challenging_cut_in_curved": {
        (1, 0): ((5.4, "cutter"), None),
        (1, 3): ((5.4, "cutter"), None),
        (7, 0): (None, 3.0095238095238095),
        (7, 3): (None, 2.9095238095238094),
        (30, 0): (None, 2.3666666666666667),
        (30, 3): (None, 2.3666666666666667),
    },
    "vehicle_following": {
        (1, 0): ((6.033333333333333, "lead"), None),
        (1, 3): ((6.033333333333333, "lead"), None),
        (7, 0): ((7.3999999999999995, "lead"), 3.4428571428571426),
        (7, 3): ((7.566666666666666, "lead"), 3.342857142857143),
        (30, 0): (None, 2.7666666666666666),
        (30, 3): (None, 2.8),
    },
    **{
        f"front_right_activity_{k}": {
            (rate, seed): (None, None) for rate in (1, 7, 30) for seed in (0, 3)
        }
        for k in (1, 2, 3)
    },
}


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

    @pytest.mark.parametrize("family", sorted(PINNED_OUTCOMES))
    def test_pinned_outcomes(self, family):
        script = generate_scenario(family)
        got = {
            (rate, seed): (result.collision, result.brake_time)
            for rate in (1, 7, 30)
            for seed in (0, 3)
            for result in [
                run_scenario(script, ModelParams(), frame_rate=float(rate), seed=seed, record=False)
            ]
        }
        assert got == PINNED_OUTCOMES[family]


class TestScenarioMrf:
    def test_stops_at_the_first_collision(self, monkeypatch):
        # cut_out_fast is safe from 6 Hz up: 30 down to 6 run clean, 5 collides
        from safefpr import engine

        rates = []
        real = engine.run_scenario

        def counting(script, params, **kwargs):
            rates.append(kwargs["frame_rate"])
            return real(script, params, **kwargs)

        monkeypatch.setattr(engine, "run_scenario", counting)
        assert scenario_mrf(generate_scenario("cut_out_fast"), ModelParams()) == 6
        assert rates == [float(r) for r in range(30, 4, -1)]

    def test_rate_floor_above_one_hz(self):
        # latency_max 0.5 s puts the slowest rate at 2 Hz; 1 Hz is never run
        params = ModelParams(latency_max=0.5)
        script = generate_scenario("cut_in", {"ego_speed_mph": 0.0})
        assert scenario_mrf(script, params, collision_radius=0.5) == 2

    def test_rate_range_without_an_integer_raises(self):
        params = ModelParams(latency_min=0.4, latency_max=0.45)
        with pytest.raises(ValueError, match=r"\[2\.22222, 2\.5\] Hz"):
            scenario_mrf(generate_scenario("cut_in"), params)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)


def mostly(plausible):
    """Draws from ``plausible`` three times in four, so that many documents load."""
    return st.integers(0, 3).flatmap(lambda i: SCALARS if i == 0 else plausible)


VALUES = mostly(st.sampled_from([0, 0.5, 3.5, 20.0]))
LANES = mostly(st.integers(0, 3))
EVENTS = st.fixed_dictionaries(
    {"at": VALUES, "kind": mostly(st.sampled_from(["lane_change", "speed_change"]))},
    optional={"to_lane": LANES, "duration": VALUES, "target_speed": VALUES, "rate": VALUES},
)
ACTORS = st.fixed_dictionaries(
    {"actor_id": mostly(st.text(max_size=2)), "lane": LANES, "gap": VALUES, "speed": VALUES},
    optional={"events": mostly(st.lists(EVENTS, max_size=2))},
)
FULL_SCRIPTS = st.fixed_dictionaries(
    {"name": SCALARS, "ego_lane": LANES, "ego_speed": VALUES, "duration": VALUES},
    optional={
        "road": mostly(st.fixed_dictionaries(
            {}, optional={"lanes": LANES, "lane_width": VALUES, "curvature": VALUES}
        )),
        "actors": mostly(st.lists(ACTORS, max_size=2)),
        "trigger_time": VALUES,
        "notes": mostly(st.dictionaries(st.text(max_size=2), SCALARS, max_size=2)),
    },
)
FAMILY_PARAMS = ["ego_speed_mph", "lead_gap", "cut_gap", "slow_factor", "trigger_time",
                 "follow_gap", "lead_decel", "curvature", "duration"]
FAMILY_REFERENCES = st.fixed_dictionaries(
    {"family": mostly(st.sampled_from(list_families()))},
    optional={"params": mostly(st.dictionaries(st.sampled_from(FAMILY_PARAMS), VALUES))},
)
DOCUMENTS = st.one_of(
    st.text(),
    st.lists(SCALARS, max_size=3).map(json.dumps),
    st.dictionaries(st.text(max_size=8), SCALARS, max_size=4).map(json.dumps),
    FULL_SCRIPTS.map(json.dumps),
    FAMILY_REFERENCES.map(json.dumps),
)


def _script_numbers(script):
    yield from (script.ego_speed, script.duration, script.road.lane_width, script.road.curvature)
    if script.trigger_time is not None:
        yield script.trigger_time
    for actor in script.actors:
        yield from (actor.gap, actor.speed)
        for event in actor.events:
            yield from (event.at, event.duration)
            yield from (v for v in (event.target_speed, event.rate) if v is not None)


@given(text=DOCUMENTS)
@example(text="[1]")
@settings(max_examples=300, deadline=None)
def test_any_text_loads_or_raises_value_error(text):
    try:
        script = load_script(io.StringIO(text))
    except ValueError:
        return
    assert all(math.isfinite(value) for value in _script_numbers(script))
