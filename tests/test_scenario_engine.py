import dataclasses
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safefpr import (
    Budget,
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
from safefpr import engine
from safefpr.geometry import DEFAULT_CAMERA_RIG, CameraConfig
from safefpr.model import braking_decel, evaluate_scene
from safefpr.scheduler import allocate, safety_check
from safefpr.scenarios import (
    FAMILIES,
    ActorEvent,
    ActorScript,
    RoadSpec,
    ScenarioScript,
    script_from_dict,
    script_to_dict,
)
from safefpr.trace import ScenarioTrace, TickRecord
from safefpr.types import L0_FIXED


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


# sha256 of each family's script_to_dict JSON (sort_keys=True) at its defaults
PINNED_SCRIPT_DIGESTS = {
    "cut_out": "f48e162aa78ec0727714efd86df000f9f9a098dabb05e2ff6c5389129191a08b",
    "cut_out_fast": "34945143e8ef9150c36e2c275c54820de267aaeeb0a0c751112cbc604cdce799",
    "cut_in": "581bbeb4fb494eca3572f34c2d9ce18223cea2d0a239dcb74a4d8c5d0cb921a1",
    "challenging_cut_in": "ca14af5769cb33863c7539cfe1d7cfcf6baa7f94f2e697f01cf3fb126ba853a3",
    "challenging_cut_in_curved": "f01a9ca6451972376e5f6ede547403046472fe9438470833dd80edfb1586e42b",
    "vehicle_following": "65875149ee459748254a12fa67be323055e5d225e207fbeadf831ce20d695c46",
    "front_right_activity_1": "dee365443fedbec70fd0c6606ab4b95291437d43dd084ad9a78f2bf1c970bef5",
    "front_right_activity_2": "507a45e9251fc20a7e4e727c1721c9d691936b878907401837281392c2107914",
    "front_right_activity_3": "61ac6ce9b70ec43664801cfe6653b20d43831b50839ac45a62c926c9f3ff405c",
}


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

    @pytest.mark.parametrize("family", list_families())
    def test_script_roundtrip(self, family):
        script = generate_scenario(family)
        again = script_from_dict(script_to_dict(script))
        assert again == script

    @pytest.mark.parametrize("family", list_families())
    def test_script_file_roundtrip(self, tmp_path, family):
        script = generate_scenario(family)
        p = tmp_path / "s.json"
        save_script(script, p)
        assert load_script(p) == script

    def test_script_json_is_pinned(self):
        # the JSON form of every family, as traces and script files record it
        digests = {
            fam: hashlib.sha256(
                json.dumps(script_to_dict(generate_scenario(fam)), sort_keys=True).encode()
            ).hexdigest()
            for fam in list_families()
        }
        assert digests == PINNED_SCRIPT_DIGESTS

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
            (lambda d: d.update(name={"x": [1]}), "name must be a string"),
            (lambda d: d["actors"][0].update(lane=99),
             r"actor 'cutter': lane must be in \[0, 2\] on a 3-lane road, got 99"),
            (lambda d: d["actors"][0]["events"][0].update(to_lane=-5),
             r"actor 'cutter': events\[0\]\.to_lane must be in \[0, 2\]"),
        ],
    )
    def test_malformed_script_names_the_field(self, change, match):
        obj = script_to_dict(generate_scenario("cut_in"))
        change(obj)
        with pytest.raises(ValueError, match=match):
            load_script(io.StringIO(json.dumps(obj)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RoadSpec(lanes=2.5),
            lambda: ActorEvent(at=1.0, kind="lane_change", to_lane=1.5, duration=1.0),
            lambda: ActorScript("a", lane=True, gap=0.0, speed=0.0),
            lambda: ScenarioScript(name="s", ego_lane=1.0, ego_speed=1.0, duration=1.0),
        ],
    )
    def test_lanes_must_be_integers(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

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


LANE_CHANGE = {"at": 1.0, "kind": "lane_change", "to_lane": 1, "duration": 1.0}
SPEED_CHANGE = {"at": 1.0, "kind": "speed_change", "target_speed": 1.0, "rate": 1.0}
ACTOR = {"actor_id": "a", "lane": 0, "gap": 10.0, "speed": 1.0}
SCRIPT = {"name": "s", "ego_lane": 0, "ego_speed": 1.0, "duration": 1.0}
CAMERA = {"camera_id": "c", "azimuth": 0.0, "fov": 1.0}
# (class, valid keyword arguments, a bounded numeric field) for every such field
BOUNDED_FIELDS = [
    *(
        (ModelParams, {}, f.name)
        for f in dataclasses.fields(ModelParams)
        if f.init and f.type in ("float", "int")
    ),
    (PredictorConfig, {}, "num_variants"),
    (PredictorConfig, {}, "horizon"),
    (PredictorConfig, {}, "decel_spread"),
    (PredictorConfig, {"num_variants": 1}, "variant_probabilities"),
    (CameraConfig, CAMERA, "azimuth"),
    (CameraConfig, CAMERA, "fov"),
    (Budget, {}, "total_fps"),
    (RoadSpec, {}, "lanes"),
    (RoadSpec, {}, "lane_width"),
    (RoadSpec, {}, "curvature"),
    (ActorScript, ACTOR, "lane"),
    (ActorScript, ACTOR, "gap"),
    (ActorScript, ACTOR, "speed"),
    (ActorEvent, LANE_CHANGE, "at"),
    (ActorEvent, LANE_CHANGE, "to_lane"),
    (ActorEvent, LANE_CHANGE, "duration"),
    (ActorEvent, SPEED_CHANGE, "target_speed"),
    (ActorEvent, SPEED_CHANGE, "rate"),
    # fields the event's kind does not use
    (ActorEvent, SPEED_CHANGE, "duration"),
    (ActorEvent, LANE_CHANGE, "target_speed"),
    (ActorEvent, LANE_CHANGE, "rate"),
    (ScenarioScript, SCRIPT, "ego_lane"),
    (ScenarioScript, SCRIPT, "ego_speed"),
    (ScenarioScript, SCRIPT, "duration"),
    (ScenarioScript, SCRIPT, "trigger_time"),
]
SCRIPT_CLASSES = (RoadSpec, ActorScript, ActorEvent, ScenarioScript)


def field_params(classes=None) -> list:
    return [
        pytest.param(cls, kwargs, name, id=f"{cls.__name__}.{name}")
        for cls, kwargs, name in BOUNDED_FIELDS
        if classes is None or cls in classes
    ]


def in_script(obj) -> ScenarioScript:
    """A whole script that holds ``obj``, a road, actor, event or script."""
    if isinstance(obj, ActorEvent):
        obj = ActorScript(**ACTOR, events=(obj,))
    if isinstance(obj, ActorScript):
        return ScenarioScript(**SCRIPT, actors=(obj,))
    if isinstance(obj, RoadSpec):
        return ScenarioScript(**SCRIPT, road=obj)
    return obj


# sha256 of the save_trace text of each family's recorded fixed-rate runs at
# 1, 7 and 30 Hz with seeds 0 and 3, concatenated in that order, and of one
# recorded adaptive run under a 90 fps budget (seed 3)
PINNED_TRACE_DIGESTS = {
    "challenging_cut_in": "11a7b9efacf1fa833e7585c51e70192981a227893655dbbd1b77e4586783bdf0",
    "challenging_cut_in_curved": "8a95755e70cd71cec803fb0ed77368337736a76f4e222fd9a76872f35157942f",
    "cut_in": "3970f37212de932092b76673d6896d652fe558de416acee2bb0191de0dea0b50",
    "cut_out": "ee08354c407470451752aa1cf19a91497be7b8a6d073350f6738f601217e39ca",
    "cut_out_fast": "b4656dc7f615e9a1478bac33b51d3106aada86f70e043b0cd8ae1d4c52f56a5a",
    "cut_out_fast/budget90": "707dcb5b9921b65a447b46b325134118c68a93355d74eba57bb698faae1766f4",
    "front_right_activity_1": "f68283679721d1500725cc534df9df1ae5d3812187850823de60a6aa2da0eb31",
    "front_right_activity_2": "026ec1ca27412d546a0ca406c39c0e46edde1866326038772610a2ba6caac338",
    "front_right_activity_3": "a776fa9c2243f27ff93aea4bfc46067c374a73e18d19630f93b4b4aa323ebc04",
    "vehicle_following": "702e9d44dd762cd063cc2112ff1ef461ef312eb494cdcc66e5b0490e640dcb66",
}


class TestConstructorsMatchReader:
    @pytest.mark.parametrize("bad", [True, "1"])
    @pytest.mark.parametrize("cls,kwargs,name", field_params())
    def test_constructor_names_a_non_number(self, cls, kwargs, name, bad):
        value = (bad,) if name == "variant_probabilities" else bad
        with pytest.raises(ValueError, match=name):
            cls(**{**kwargs, name: value})

    @pytest.mark.parametrize("value", [True, 1, 2.5])
    @pytest.mark.parametrize("cls,kwargs,name", field_params(SCRIPT_CLASSES))
    def test_direct_script_is_refused_or_round_trips(self, cls, kwargs, name, value):
        # what a constructor accepts, save_script writes and load_script reads
        # back equal, and saves again to the same bytes
        try:
            script = in_script(cls(**{**kwargs, name: value}))
        except ValueError:
            return
        buf, again = io.StringIO(), io.StringIO()
        save_script(script, buf)
        loaded = load_script(io.StringIO(buf.getvalue()))
        assert loaded == script
        save_script(loaded, again)
        assert again.getvalue() == buf.getvalue()

    @pytest.mark.parametrize(
        "cls,kwargs,name,value",
        [
            pytest.param(cls, kwargs, name, value, id=f"{cls.__name__}.{name}={value!r}")
            for cls, kwargs, name, values in [
                (ScenarioScript, SCRIPT, "name", [None, 7, "t"]),
                (ScenarioScript, SCRIPT, "road", [None, {}, RoadSpec(lanes=2)]),
                (ScenarioScript, SCRIPT, "actors", [None, "ab", [1], [ActorScript(**ACTOR)]]),
                (ScenarioScript, SCRIPT, "notes", [None, [1], {"k": "v"}]),
                (ActorScript, ACTOR, "actor_id", [None, 7, "b"]),
                (ActorScript, ACTOR, "events", [None, [1], [ActorEvent(**LANE_CHANGE)]]),
            ]
            for value in values
        ],
    )
    def test_shape_field_is_refused_or_round_trips(self, cls, kwargs, name, value):
        # the shape rules of the JSON reader, at the constructor: a refusal
        # names the field, and what is accepted saves and loads back equal
        try:
            script = in_script(cls(**{**kwargs, name: value}))
        except ValueError as e:
            assert name in str(e)
            return
        hash(script.actors)
        buf = io.StringIO()
        save_script(script, buf)
        assert load_script(io.StringIO(buf.getvalue())) == script

    @pytest.mark.parametrize(
        "notes,path",
        [
            ({"k": (1, 2)}, "notes['k']"),
            ({1: 2}, "notes keys"),
            ({"k": math.nan}, "notes['k']"),
            ({"k": [0, {"j": -math.inf}]}, "notes['k'][1]['j']"),
            ({"k": 10**400}, "notes['k']"),
            ({"k": object()}, "notes['k']"),
            ({"k": {"j": {2}}}, "notes['k']['j']"),
            ({"k": {None: 1}}, "notes['k'] keys"),
        ],
    )
    def test_notes_that_are_not_json_data_are_refused(self, notes, path):
        with pytest.raises(ValueError, match=re.escape(path)):
            ScenarioScript(**SCRIPT, notes=notes)

    @pytest.mark.parametrize(
        "notes",
        [{}, {"k": [1, -0.0, 2.5, None, True, "x", {"j": []}]}, {"big": 10**300, "": {}}],
    )
    def test_json_notes_round_trip_and_do_not_hash(self, notes):
        script = ScenarioScript(**SCRIPT, notes=notes)
        buf = io.StringIO()
        save_script(script, buf)
        assert load_script(io.StringIO(buf.getvalue())) == script
        assert hash(script) == hash(ScenarioScript(**SCRIPT))

    def test_generated_scripts_hash(self):
        assert hash(generate_scenario("cut_in")) == hash(generate_scenario("cut_in"))
        assert len({generate_scenario(family) for family in list_families()}) == len(FAMILIES)

    def test_integer_script_saves_byte_stably(self):
        script = ScenarioScript(name="s", ego_lane=0, ego_speed=10, duration=14)
        first, again = io.StringIO(), io.StringIO()
        save_script(script, first)
        save_script(load_script(io.StringIO(first.getvalue())), again)
        assert again.getvalue() == first.getvalue()
        assert '"duration": 14.0' in first.getvalue()


def documented_family_parameters() -> dict[str, dict[str, tuple[float, float]]]:
    """Each family's parameters and their (lo, hi), read from the family table of docs/formats.md.

    A parameter given without a range takes any finite number. A row "as
    `f`, ..." takes family f's parameters and adds its own, keeping f's
    range where it gives none; a row for `name_1/2/3` stands for name_1,
    name_2 and name_3.
    """
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    table = text.split("| family | parameter: default (range) |", 1)[1].split("\n\n", 1)[0]
    documented: dict[str, dict[str, tuple[float, float]]] = {}
    for family, cell in re.findall(r"^\| `([\w/]+)` \| (.*) \|$", table, re.M):
        base = re.match(r"as `(\w+)`", cell)
        ranges = dict(documented[base.group(1)]) if base else {}
        for name, rest in re.findall(r"`(\w+)`: ([^;]*)", cell):
            bounds = re.search(r"\(([-\d.]+)–([-\d.]+)", rest)
            if bounds:
                ranges[name] = (float(bounds.group(1)), float(bounds.group(2)))
            elif name not in ranges:
                ranges[name] = (-math.inf, math.inf)
        head, *tails = family.split("/")
        for name in [head] + [head[: len(head) - len(t)] + t for t in tails]:
            documented[name] = ranges
    return documented


def test_docs_family_table_matches_builders():
    declared = {
        family: {name: (lo, hi) for name, (_, lo, hi, _) in spec.items()}
        for family, (_, spec) in FAMILIES.items()
    }
    assert documented_family_parameters() == declared


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

    def test_integer_frame_rate_records_as_float(self):
        params = ModelParams()
        script = generate_scenario("cut_in")
        traces = []
        for rate in (10, 10.0):
            buf = io.StringIO()
            save_trace(run_scenario(script, params, frame_rate=rate).trace, buf)
            traces.append(buf.getvalue())
        assert traces[0] == traces[1]
        assert '"fpr0": 10.0' in traces[0]

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
        with pytest.raises(ValueError, match="budget"):
            run_scenario(script, params, frame_rate=5.0, budget=Budget(1.0))

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

    @pytest.mark.parametrize("family", sorted(PINNED_TRACE_DIGESTS))
    def test_pinned_trace_bytes(self, family):
        digest = hashlib.sha256()
        if family.endswith("/budget90"):
            script = generate_scenario(family.split("/")[0])
            runs = [dict(adaptive=True, budget=Budget(90.0), seed=3)]
        else:
            script = generate_scenario(family)
            runs = [dict(frame_rate=float(r), seed=s) for r in (1, 7, 30) for s in (0, 3)]
        for kwargs in runs:
            buf = io.StringIO()
            save_trace(run_scenario(script, ModelParams(), record=True, **kwargs).trace, buf)
            digest.update(buf.getvalue().encode())
        assert digest.hexdigest() == PINNED_TRACE_DIGESTS[family]

    def test_a_harmless_frame_resets_the_confirmation(self):
        # a lead in the ego lane brakes (dangerous on the 2 Hz frames 1.5 to
        # 3.0 s), speeds away while still ahead in view, then brakes again
        # from 6 s; only the second episode confirms 5 frames in a row
        lead = ActorScript("lead", 1, 30.0, 20.0, (
            ActorEvent(1.0, "speed_change", target_speed=14.0, rate=6.0),
            ActorEvent(2.6, "speed_change", target_speed=30.0, rate=8.0),
            ActorEvent(6.0, "speed_change", target_speed=5.0, rate=6.0),
        ))
        script = ScenarioScript("reset", 1, 20.0, 14.0, actors=(lead,))

        def outcome(frames: int) -> tuple:
            params = ModelParams(confirmation_frames=frames)
            result = run_scenario(script, params, frame_rate=2.0, record=False)
            return result.collision, result.brake_time

        # four frames confirm within the first episode: its onset is by 1.5 s
        assert outcome(4) == (None, 3.5)
        collision, brake_time = outcome(5)
        assert (collision, brake_time) == ((12.233333333333333, "lead"), 11.5)
        assert brake_time > 1.5 + 5 / 2.0


# scenario_mrf per family at its defaults. At 0.5 m (criterion 6's radius)
# vehicle_following is safe from 16 Hz; at the default 2.0 m, which
# bench/golden.json records, it needs 18 Hz.
PINNED_MRF = {
    radius: {
        "cut_out": 6,
        "cut_out_fast": 6,
        "cut_in": 1,
        "challenging_cut_in": 4,
        "challenging_cut_in_curved": 3,
        "vehicle_following": following,
        "front_right_activity_1": 1,
        "front_right_activity_2": 1,
        "front_right_activity_3": 1,
    }
    for radius, following in ((0.5, 16), (2.0, 18))
}


class TestSharedWorld:
    """Runs that replay one world match fresh runs: nothing a run does leaks
    into the world that the next run reads."""

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    @pytest.mark.parametrize("family", sorted(PINNED_OUTCOMES))
    def test_replays_match_fresh_runs(self, family, radius):
        script, params = generate_scenario(family), ModelParams()
        world = engine._World(script, params)
        for seed in (0, 3):
            for rate in range(30, 0, -1):
                replay = engine._run(
                    world, frame_rate=float(rate), adaptive=False, budget=None,
                    collision_radius=radius, seed=seed, record=False,
                )
                fresh = run_scenario(
                    script, params, frame_rate=float(rate), seed=seed,
                    collision_radius=radius, record=False,
                )
                assert (replay.collision, replay.brake_time) == (
                    fresh.collision, fresh.brake_time
                ), (rate, seed)

    def test_recorded_adaptive_run_on_a_read_world(self):
        # the simulate --budget 90 path, on a world that fixed-rate runs
        # read to its end (30 Hz) and into a collision (1 Hz) first
        script, params = generate_scenario("cut_out_fast"), ModelParams()
        read = engine._World(script, params)
        for rate in (30.0, 1.0):
            engine._run(
                read, frame_rate=rate, adaptive=False, budget=None,
                collision_radius=0.5, seed=0, record=False,
            )
        kwargs = dict(
            frame_rate=None, adaptive=True, budget=Budget(90.0),
            collision_radius=0.5, seed=3, record=True,
        )
        replay = engine._run(read, **kwargs)
        fresh = engine._run(engine._World(script, params), **kwargs)
        assert replay.camera_log and replay.alarms
        for name in ("collision", "brake_time", "alarms", "camera_log", "allocations"):
            assert getattr(replay, name) == getattr(fresh, name), name
        buf_replay, buf_fresh = io.StringIO(), io.StringIO()
        save_trace(replay.trace, buf_replay)
        save_trace(fresh.trace, buf_fresh)
        assert buf_replay.getvalue() == buf_fresh.getvalue()

    @pytest.mark.parametrize("family", ["cut_out_fast", "cut_in"])
    def test_runs_leave_the_world_unchanged(self, family):
        # a 30 Hz run reads every tick, a 1 Hz run brakes late (and collides
        # on cut_out_fast), and a recorded adaptive run shares the world's
        # states with its trace; none of them may change a tick
        script, params = generate_scenario(family), ModelParams()
        world = engine._World(script, params)
        before = [(t.ego_s, t.ego, dict(t.actors), t.dangerous) for t in world.ticks]
        for rate in (30.0, 1.0):
            engine._run(
                world, frame_rate=rate, adaptive=False, budget=None,
                collision_radius=0.5, seed=0, record=False,
            )
        recorded = engine._run(
            world, frame_rate=None, adaptive=True, budget=Budget(90.0),
            collision_radius=0.5, seed=3, record=True,
        )
        recorded.trace.ticks[0].actors.clear()
        assert isinstance(world.ticks, list)
        assert len(world.ticks) == round(script.duration / engine.ENGINE_DT) + 1
        after = [(t.ego_s, t.ego, t.actors, t.dangerous) for t in world.ticks]
        assert after == before


def _tick_by_tick_run(
    world, *, frame_rate, adaptive, budget, collision_radius, seed, record
) -> engine.RunResult:
    """The reference run: every tick walked, the collision tested on each tick
    that could hold one and the braking ego stepped by ``_Ego.advance``. It
    takes ``engine._run``'s arguments and must give its result."""
    script, params = world.script, world.params
    road = script.road
    cameras = DEFAULT_CAMERA_RIG
    fixed_params = params.replace(l0_policy=L0_FIXED) if adaptive else None
    cap_fpr = params.fpr_bounds()[1]

    rng = random.Random(seed)
    rates = {c.camera_id: (frame_rate if frame_rate is not None else cap_fpr) for c in cameras}
    next_frame = {
        c.camera_id: rng.uniform(0.0, 1.0 / rates[c.camera_id]) if seed else 0.0
        for c in cameras
    }
    confirm_count = {cid: {} for cid in next_frame}
    need_frames = max(1, params.confirmation_frames)

    rows, alarms, camera_log, allocations = [], [], [], []
    collision = brake_at = braking = stopped = None

    for i, tick in enumerate(world.ticks):
        t = i * engine.ENGINE_DT
        if braking is None:
            ego_row = tick.row
            if record:
                rows.append(ego_row)
            near = tick.nearest < collision_radius
        else:
            ego_row = stopped or engine._state_row(
                road, braking.s, braking.lane, braking.v, braking.a
            )
            if not (ego_row[2] or ego_row[3]):
                stopped = ego_row
            if record:
                rows.append(ego_row + tick.row[5:])
            near = True
        if near:
            ego_x, ego_y = ego_row[0], ego_row[1]
            for aid, j in tick.starts.items():
                if math.hypot(tick.row[j] - ego_x, tick.row[j + 1] - ego_y) < collision_radius:
                    collision = (t, aid)
                    break
            if collision:
                break

        if adaptive:
            trajs = {
                aid: predict_trajectories(st, engine.PREDICTOR)
                for aid, st in tick.actors.items()
            }
            ego_world = tick.ego if braking is None else KinematicState(*ego_row)
            _, reports = evaluate_scene(ego_world, trajs, cameras, 1.0 / cap_fpr, fixed_params)
            required = {cid: rep.fpr for cid, rep in reports.items()}
            flagged = {cid for cid, rep in reports.items() if rep.infeasible}
            alarm = safety_check(required, rates, frozenset(flagged))
            if alarm is not None:
                alarms.append((t, alarm))
            if budget is not None:
                allocation = allocate(required, budget, params)
                if allocation.alarm is not None:
                    alarms.append((t, allocation.alarm))
                rates = dict(allocation.per_camera_fps)
            else:
                rates = required
            if record:
                camera_log.append(reports)
                allocations.append((t, dict(rates)))

        dangerous = tick.dangerous
        for cam in cameras if brake_at is None else ():
            cid = cam.camera_id
            counts = confirm_count[cid]
            while brake_at is None and next_frame[cid] <= t:
                next_frame[cid] += 1.0 / rates[cid]
                if not (dangerous or counts):
                    continue
                for aid in dangerous | counts.keys():
                    if not in_fov(tick.ego, tick.state(tick.starts[aid]), cam):
                        continue
                    if aid not in dangerous:
                        del counts[aid]
                        continue
                    counts[aid] = counts.get(aid, 0) + 1
                    if counts[aid] >= need_frames:
                        brake_at = t + 1.0 / rates[cid]
                        break

        if braking is None and brake_at is not None and t + engine.ENGINE_DT >= brake_at:
            braking = engine._Ego(
                tick.ego_s, float(script.ego_lane), script.ego_speed,
                braking_decel(0.0, params), braking=True,
            )
        if braking is not None:
            braking.advance(engine.ENGINE_DT)

    trace = None
    if record:
        metadata = {
            "name": script.name,
            "ego_speed": script.ego_speed,
            "seed": seed,
            "collision_radius": collision_radius,
            "script": script_to_dict(script),
        }
        if frame_rate is not None:
            metadata["fpr0"] = frame_rate
        times = [k * engine.ENGINE_DT for k in range(len(rows))]
        trace = ScenarioTrace._from_block(
            engine.ENGINE_DT, cameras, metadata, world.actor_ids, times, rows
        )
    return engine.RunResult(script, trace, collision, brake_at, alarms, camera_log, allocations)


def _curved_script() -> ScenarioScript:
    # a lead on a tight curve brakes to a stop ahead of the ego, a car in
    # the next lane keeps going: slow rates brake late, on the curve
    return ScenarioScript(
        name="curved_stop", ego_lane=1, ego_speed=20.0, duration=10.0,
        road=RoadSpec(curvature=1.0 / 150.0),
        actors=(
            ActorScript("lead", 1, 35.0, 15.0, (
                ActorEvent(1.5, "speed_change", target_speed=0.0, rate=7.0),
            )),
            ActorScript("beside", 2, 5.0, 20.0),
        ),
    )


def _two_window_script() -> ScenarioScript:
    # the lead is dangerous while it brakes (from 1 s), speeds away while
    # still ahead in view, which resets every count, is harmless for a
    # dead stretch, and brakes again from 6 s
    lead = ActorScript("lead", 1, 30.0, 20.0, (
        ActorEvent(1.0, "speed_change", target_speed=14.0, rate=6.0),
        ActorEvent(2.6, "speed_change", target_speed=30.0, rate=8.0),
        ActorEvent(6.0, "speed_change", target_speed=5.0, rate=6.0),
    ))
    return ScenarioScript("two_windows", 1, 20.0, 14.0, actors=(lead,))


REFERENCE_SCRIPTS = {
    **{family: (lambda f=family: generate_scenario(f)) for family in FAMILIES},
    "curved_stop": _curved_script,
    "two_windows": _two_window_script,
}


def _trace_text(result) -> str:
    buf = io.StringIO()
    save_trace(result.trace, buf)
    return buf.getvalue()


class TestTickByTickReference:
    """``engine._run`` settles a run from its engage tick and jumps over dead
    ticks; the reference walks every tick. They agree on the outcome and on
    the recorded trace's bytes."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCRIPTS))
    def test_fixed_rates(self, name):
        script = REFERENCE_SCRIPTS[name]()
        world = engine._World(script, ModelParams())
        for radius in (0.5, 2.0):
            for seed in (0, 3):
                for rate in range(30, 0, -1):
                    kwargs = dict(
                        frame_rate=float(rate), adaptive=False, budget=None,
                        collision_radius=radius, seed=seed,
                    )
                    want = _tick_by_tick_run(world, record=True, **kwargs)
                    for record in (True, False):
                        got = engine._run(world, record=record, **kwargs)
                        assert (got.collision, got.brake_time) == (
                            want.collision, want.brake_time
                        ), (rate, seed, radius, record)
                        if record:
                            assert _trace_text(got) == _trace_text(want), (rate, seed, radius)

    def test_the_two_windows_hold_a_dead_stretch_and_a_reset(self):
        # positive control for the script: its dangerous ticks form two
        # windows with dead ticks between them, and at 2 Hz the four frames
        # counted in the first (1.5 to 3.0 s) are reset, so the brakes wait
        # for five frames of the second (9.0 to 11.0 s) and 0.5 s of latency
        world = engine._World(_two_window_script(), ModelParams())
        d = world._dangerous_at
        assert [(a, b) for a, b in zip(d, d[1:]) if b - a > 1] == [(96, 268)]
        result = engine._run(
            world, frame_rate=2.0, adaptive=False, budget=None,
            collision_radius=0.5, seed=0, record=False,
        )
        assert result.brake_time == 11.5

    @pytest.mark.parametrize("make", [_curved_script, _two_window_script])
    def test_adaptive(self, make):
        world = engine._World(make(), ModelParams())
        kwargs = dict(
            frame_rate=None, adaptive=True, budget=Budget(40.0),
            collision_radius=0.5, seed=3, record=True,
        )
        got, want = engine._run(world, **kwargs), _tick_by_tick_run(world, **kwargs)
        for name in ("collision", "brake_time", "alarms", "camera_log", "allocations"):
            assert getattr(got, name) == getattr(want, name), name
        assert _trace_text(got) == _trace_text(want)


class TestBrakingSearch:
    """The world's braking ego: its speeds and positions are ``_Ego.advance``'s
    bit for bit, and its first hit is the scalar walk's, even at a radius
    equal to a tick's distance."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_accumulated_braking_matches_advance(self, family):
        script, params = generate_scenario(family), ModelParams()
        world = engine._World(script, params)
        n = len(world.ticks)
        for b in range(n):
            arc = world._arc(b)
            ego = engine._Ego(
                world.ticks[b].ego_s, float(script.ego_lane), script.ego_speed,
                braking_decel(0.0, params), braking=True,
            )
            for k in range(1, n - b):
                ego.advance(engine.ENGINE_DT)
                assert float(arc[k]).hex() == ego.s.hex(), (b, k)
                assert world._brake_v[k].hex() == ego.v.hex(), (b, k)
                row = world.braking_row(b, b + k)
                assert row[2:4] == [ego.v, ego.a] and row[2].hex() == ego.v.hex(), (b, k)

    @staticmethod
    def scalar_hit(world, b, radius):
        """The first hit of the ego braking from tick ``b``, tick by tick."""
        script = world.script
        ego = engine._Ego(
            world.ticks[b].ego_s, float(script.ego_lane), script.ego_speed,
            braking_decel(0.0, world.params), braking=True,
        )
        for i in range(b + 1, len(world.ticks)):
            ego.advance(engine.ENGINE_DT)
            row = engine._state_row(script.road, ego.s, ego.lane, ego.v, ego.a)
            aid = engine._first_within(row, world.ticks[i], radius)
            if aid is not None:
                return i, aid
        return None

    @pytest.mark.parametrize("curvature", [0.0, 1.0 / 150.0])
    def test_radius_at_a_distance_and_next_to_it(self, curvature):
        # the ego brakes late towards a stopped car: at its closest tick
        # the hit turns on the last bit of the radius
        script = ScenarioScript(
            name="stopped_ahead", ego_lane=1, ego_speed=20.0, duration=6.0,
            road=RoadSpec(curvature=curvature),
            actors=(ActorScript("stopped", 1, 40.0, 0.0), ActorScript("beside", 0, 0.0, 18.0)),
        )
        world = engine._World(script, ModelParams())
        for b in (25, 30, 33):
            rows = [world.braking_row(b, i) for i in range(b + 1, len(world.ticks))]
            closest = min(
                math.hypot(tick.row[j] - row[0], tick.row[j + 1] - row[1])
                for row, tick in zip(rows, world.ticks[b + 1:])
                for j in tick.starts.values()
            )
            assert 0.0 < closest < 10.0, (b, closest)
            for radius in (closest, math.nextafter(closest, 0.0), math.nextafter(closest, 1.0)):
                got = world.brake_hit(b, radius)
                assert got == self.scalar_hit(world, b, radius), (b, radius)
                assert (got is not None) == (radius > closest), (b, radius)


class TestTwoActorsInReach:
    """The ego comes within the radius of two actors on one tick, before any
    brake. A run names the first of them in the script's order (the first
    in sorted id order when the script lists them sorted), at the tick a
    per-actor test on every tick finds."""

    @staticmethod
    def script(ids, gap, speed):
        # two actors with one state: every distance to them is equal
        return ScenarioScript(
            name="two_in_reach", ego_lane=1, ego_speed=10.0, duration=6.0,
            actors=tuple(ActorScript(aid, lane=1, gap=gap, speed=speed) for aid in ids),
        )

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("ids", [("a", "b"), ("b", "a")])
    @pytest.mark.parametrize(
        "gap,speed,mode,tick,brake_time",
        [
            # two actors from behind catch up with the cruising ego
            (-10.1, 15.0, 1.0, 58, None),
            (-10.1, 15.0, 30.0, 58, None),
            (-10.1, 15.0, "adaptive", 58, None),
            # two stopped actors ahead: at 1 Hz the cruising ego reaches
            # them, at 5 Hz the braking one does
            (30.0, 0.0, 1.0, 89, None),
            (30.0, 0.0, 5.0, 109, 2.0),
            (30.0, 0.0, 30.0, None, 1.0333333333333334),
            (30.0, 0.0, "adaptive", None, 1.4666666666666666),
        ],
    )
    def test_run_names_the_first_in_script_order(
        self, ids, gap, speed, mode, tick, brake_time, record
    ):
        rate = dict(adaptive=True) if mode == "adaptive" else dict(frame_rate=mode)
        result = run_scenario(self.script(ids, gap, speed), ModelParams(), record=record, **rate)
        want = None if tick is None else (tick * engine.ENGINE_DT, ids[0])
        assert (result.collision, result.brake_time) == (want, brake_time)

    @pytest.mark.parametrize("ids", [("a", "b"), ("b", "a")])
    def test_mrf(self, ids):
        params = ModelParams()
        assert scenario_mrf(self.script(ids, -10.1, 15.0), params) is None
        ahead = self.script(ids, 30.0, 0.0)
        assert scenario_mrf(ahead, params) == 7
        assert scenario_mrf(ahead, params, collision_radius=0.5) == 6


class TestStateRows:
    """The world and a recorded trace keep their states as float rows: a run
    builds a ``KinematicState`` only for a FOV test (or adaptive estimation),
    and recording and saving build none."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``KinematicState`` and ``TickRecord`` made."""
        built = []

        def counting(init):
            def wrapper(self, *args, **kwargs):
                init(self, *args, **kwargs)
                built.append(self)
            return wrapper

        for cls in (KinematicState, TickRecord):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        # positive control: every hook fires
        state = KinematicState(0.0, 0.0, 1.0)
        record = TickRecord(0.0, state)
        assert [id(obj) for obj in built] == [id(state), id(record)]
        built.clear()
        return built

    @pytest.fixture
    def fov_reads(self, monkeypatch):
        """The (ego, actor) states of every FOV test the engine makes."""
        reads = []

        def recording_in_fov(ego, actor, cam):
            reads.append((ego, actor))
            return in_fov(ego, actor, cam)

        monkeypatch.setattr(engine, "in_fov", recording_in_fov)
        return reads

    def test_recording_and_saving_build_no_state(self, built, fov_reads, tmp_path):
        script, params = generate_scenario("cut_out"), ModelParams()
        kwargs = dict(frame_rate=7.0, adaptive=False, budget=None, collision_radius=0.5, seed=3)
        world = engine._World(script, params)
        assert built == []
        # a replay that records nothing builds exactly the states its FOV tests read
        engine._run(world, record=False, **kwargs)
        assert fov_reads and built
        assert {id(obj) for obj in built} == {id(s) for pair in fov_reads for s in pair}
        assert all(type(obj) is KinematicState for obj in built)
        # the world keeps them, so a recorded replay and its save build nothing
        built.clear()
        recorded = engine._run(world, record=True, **kwargs)
        path = tmp_path / "t.jsonl"
        save_trace(recorded.trace, path)
        assert built == []
        # nor does saving a loaded trace
        save_trace(load_trace(path), io.StringIO())
        assert built == []
        # a fresh recorded run builds only the states of its own FOV tests
        fov_reads.clear()
        fresh = run_scenario(script, params, frame_rate=7.0, seed=3)
        assert {id(obj) for obj in built} == {id(s) for pair in fov_reads for s in pair}
        assert fresh.trace.actor_ids == recorded.trace.actor_ids
        # reading the records builds them, from the rows
        built.clear()
        ticks = recorded.trace.ticks
        assert len(built) == len(ticks) * (2 + len(script.actors))

    def test_recorded_trace_is_the_world_read_as_states(self):
        script, params = generate_scenario("challenging_cut_in_curved"), ModelParams()
        world = engine._World(script, params)
        trace = run_scenario(script, params, frame_rate=30.0).trace
        assert trace.actor_ids == tuple(sorted(a.actor_id for a in script.actors))
        brake = next(i for i, tick in enumerate(trace.ticks) if tick.ego != world.ticks[i].ego)
        assert brake > 0
        for tick, cruising in zip(trace.ticks[:brake], world.ticks):
            assert repr(tick.ego) == repr(cruising.ego)
            assert {aid: repr(s) for aid, s in tick.actors.items()} == {
                aid: repr(s) for aid, s in cruising.actors.items()
            }
        # the braking ego's states still follow KinematicState's rules
        for tick in trace.ticks[brake:]:
            assert tick.ego == KinematicState(**vars(tick.ego))


class TestWorldBoundary:
    """A state that breaks ``KinematicState``'s rules stops the world build at
    its tick, with the ValueError ``KinematicState`` gives for it."""

    @staticmethod
    def expected_error(road, s, lane, v, a) -> str:
        x, y, heading = road.to_world(s, road.lane_offset(lane))
        with pytest.raises(ValueError) as want:
            KinematicState(x=x, y=y, v=v, a=a, heading=heading)
        return str(want.value)

    def test_non_finite_ego_state(self, monkeypatch):
        script = generate_scenario("challenging_cut_in_curved")
        real, seen = engine._Ego.advance, []

        def advance(ego, dt):
            real(ego, dt)
            seen.append(ego)
            if len(seen) == 40:
                ego.a = math.nan

        monkeypatch.setattr(engine._Ego, "advance", advance)
        with pytest.raises(ValueError) as got:
            engine._World(script, ModelParams())
        ego = seen[-1]
        assert len(seen) == 40  # the build stopped at the tick of the bad state
        assert str(got.value) == self.expected_error(script.road, ego.s, ego.lane, ego.v, ego.a)
        assert "must be finite" in str(got.value) and "a=nan" in str(got.value)

    def test_negative_actor_speed(self, monkeypatch):
        script = generate_scenario("cut_in")
        real, ticks = engine._Actor.advance, []

        def advance(actor, t, dt):
            real(actor, t, dt)
            if actor.actor_id == script.actors[-1].actor_id:
                ticks.append(t)
                if len(ticks) == 25:
                    actor.v = -1.5

        monkeypatch.setattr(engine._Actor, "advance", advance)
        with pytest.raises(ValueError, match=r"^speed must be >= 0, got -1\.5$"):
            engine._World(script, ModelParams())
        assert len(ticks) == 25

    def test_non_finite_position_names_the_raw_heading(self, monkeypatch):
        # the message shows the heading as given, before it is normalized
        script = generate_scenario("cut_out")
        monkeypatch.setattr(
            type(script.road), "to_world", lambda road, s, offset: (s, math.inf, 7.0)
        )
        with pytest.raises(ValueError) as got:
            engine._World(script, ModelParams())
        assert str(got.value) == (
            f"state fields must be finite, got KinematicState(x=0.0, y=inf, "
            f"v={script.ego_speed!r}, a=0.0, heading=7.0)"
        )


class TestScenarioMrf:
    def test_stops_at_the_first_collision(self, monkeypatch):
        # cut_out_fast is safe from 6 Hz up: 30 down to 6 run clean, 5 collides;
        # every rate replays the one world the call builds
        rates, worlds = [], []
        real_run, real_world = engine._run, engine._World

        def counting_run(world, **kwargs):
            rates.append(kwargs["frame_rate"])
            return real_run(world, **kwargs)

        def counting_world(*args, **kwargs):
            worlds.append(real_world(*args, **kwargs))
            return worlds[-1]

        monkeypatch.setattr(engine, "_run", counting_run)
        monkeypatch.setattr(engine, "_World", counting_world)
        assert scenario_mrf(generate_scenario("cut_out_fast"), ModelParams()) == 6
        assert rates == [float(r) for r in range(30, 4, -1)]
        assert len(worlds) == 1

    @pytest.mark.parametrize(
        "params, radius, match",
        [
            (ModelParams(), math.nan, "collision_radius"),
            (ModelParams(), -1.0, "collision_radius"),
            (ModelParams(latency_min=0.4, latency_max=0.45), 2.0, "no integer frame rate"),
        ],
    )
    def test_bad_arguments_raise_before_a_world_is_built(self, monkeypatch, params, radius, match):
        def no_world(*args, **kwargs):
            raise AssertionError("a world was built")

        monkeypatch.setattr(engine, "_World", no_world)
        with pytest.raises(ValueError, match=match):
            scenario_mrf(generate_scenario("cut_in"), params, collision_radius=radius)

    @pytest.mark.parametrize("radius", sorted(PINNED_MRF))
    def test_pinned_mrf(self, radius):
        got = {
            family: scenario_mrf(generate_scenario(family), ModelParams(), collision_radius=radius)
            for family in list_families()
        }
        assert got == PINNED_MRF[radius]

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
FAMILY_PARAMS = sorted({name for _, spec in FAMILIES.values() for name in spec})
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
