import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefpr import (
    DEFAULT_CAMERA_RIG,
    KinematicState,
    ModelParams,
    ScenarioTrace,
    TickRecord,
    TraceFormatError,
    analyze_trace,
    ground_truth_trajectory,
    load_trace,
    save_trace,
)
import safefpr.trace as trace_module
from safefpr.trace import _state_from_obj


def build_trace(n_ticks=10, actors=True, dt=0.1):
    ticks = []
    for i in range(n_ticks):
        t = i * dt
        ego = KinematicState(10.0 * t, 0.0, 10.0)
        acts = {}
        if actors:
            acts["lead"] = KinematicState(30.0 + 8.0 * t, 0.0, 8.0)
            acts["parked"] = KinematicState(50.0, 3.5, 0.0)
        ticks.append(TickRecord(t=t, ego=ego, actors=acts))
    return ScenarioTrace(
        dt=dt, ticks=tuple(ticks), cameras=DEFAULT_CAMERA_RIG, metadata={"name": "unit"}
    )


def roundtrip(trace):
    buf = io.StringIO()
    save_trace(trace, buf)
    return load_trace(io.StringIO(buf.getvalue())), buf.getvalue()


class TestRoundTrip:
    def test_empty_actor_trace(self):
        trace = build_trace(actors=False)
        loaded, _ = roundtrip(trace)
        assert len(loaded.ticks) == 10
        assert loaded.actor_ids == ()

    def test_roundtrip_is_identity_on_canonical_form(self):
        trace = build_trace()
        loaded, text1 = roundtrip(trace)
        _, text2 = roundtrip(loaded)
        assert text1 == text2

    def test_values_survive_exactly(self):
        trace = build_trace()
        loaded, _ = roundtrip(trace)
        for a, b in zip(trace.ticks, loaded.ticks):
            assert a.t == b.t
            assert a.ego == b.ego
            assert a.actors == b.actors
        assert [c.camera_id for c in loaded.cameras] == [c.camera_id for c in trace.cameras]

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "trace.jsonl"
        trace = build_trace()
        save_trace(trace, p)
        assert load_trace(p).duration() == pytest.approx(trace.duration())


class TestValidation:
    def test_non_monotone_time_rejected(self):
        header = '{"dt": 0.1, "cameras": [], "metadata": {}}'
        tick = '{"t": %s, "ego": {"x": 0, "y": 0, "v": 0, "a": 0, "heading": 0}, "actors": {}}'
        text = "\n".join([header, tick % "0.0", tick % "0.1", tick % "0.1"])
        with pytest.raises(TraceFormatError, match="tick 2"):
            load_trace(io.StringIO(text))

    def test_repeated_time_rejected_at_tiny_dt(self):
        # within 1e-9 s of the grid, but not after the previous tick
        state = KinematicState(0.0, 0.0, 1.0)
        ticks = tuple(TickRecord(t=0.0, ego=state, actors={"a": state}) for _ in range(2))
        with pytest.raises(TraceFormatError, match="tick 1"):
            ScenarioTrace(dt=1e-10, ticks=ticks, cameras=DEFAULT_CAMERA_RIG)

    def test_negative_speed_rejected(self):
        header = '{"dt": 0.1, "cameras": [], "metadata": {}}'
        tick = '{"t": 0.0, "ego": {"x": 0, "y": 0, "v": -1, "a": 0, "heading": 0}, "actors": {}}'
        with pytest.raises(TraceFormatError, match="ego"):
            load_trace(io.StringIO(header + "\n" + tick))

    def test_missing_field_named(self):
        header = '{"dt": 0.1, "cameras": [], "metadata": {}}'
        tick = '{"t": 0.0, "ego": {"x": 0, "y": 0, "a": 0}, "actors": {}}'
        with pytest.raises(TraceFormatError, match="'v'"):
            load_trace(io.StringIO(header + "\n" + tick))

    def test_changing_actor_ids_rejected(self):
        header = '{"dt": 0.1, "cameras": [], "metadata": {}}'
        state = '{"x": 0, "y": 0, "v": 0, "a": 0, "heading": 0}'
        t0 = f'{{"t": 0.0, "ego": {state}, "actors": {{"a": {state}}}}}'
        t1 = f'{{"t": 0.1, "ego": {state}, "actors": {{}}}}'
        with pytest.raises(TraceFormatError, match="actor ids"):
            load_trace(io.StringIO("\n".join([header, t0, t1])))

    @pytest.mark.parametrize("aid", [7, None, True, 1.5])
    def test_non_string_actor_ids_rejected_by_the_constructor(self, aid):
        # save_trace writes each id as a JSON string key; a file gives only strings
        state = KinematicState(0.0, 0.0, 1.0)
        ticks = [TickRecord(0.0, state, {aid: state, "lead": state}), TickRecord(0.1, state)]
        with pytest.raises(TraceFormatError, match=r"^actor ids must be strings, got \["):
            ScenarioTrace(0.1, ticks, DEFAULT_CAMERA_RIG)

    @given(
        dt=st.sampled_from([0.1, 1.0 / 30.0, 1e-10, 1e308]) | st.floats(0.0, 10.0),
        offsets=st.lists(
            st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.5e-9, -5e-9]) | st.floats(), max_size=12
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_time_rule_on_arrays_is_the_scalar_rule(self, dt, offsets):
        # tick i within 1e-9 + 1e-12 i of i dt and after tick i - 1, tick by tick
        times = [i * dt + off for i, off in enumerate(offsets)]
        first = next(
            (
                i
                for i, t in enumerate(times)
                if not (abs(t - i * dt) <= 1e-9 + 1e-12 * i and (i == 0 or t > times[i - 1]))
            ),
            len(times),
        )
        assert trace_module._misaligned(np.array(times), dt) == first

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "fpr0,match",
        [
            (0, "field 'fpr0' must be > 0"),
            (-5, "field 'fpr0' must be > 0"),
            (math.nan, "field 'fpr0' must be finite"),
            (math.inf, "field 'fpr0' must be finite"),
            (1e-310, "field 'fpr0' must have a finite 1/fpr0"),
            ("10", "field 'fpr0' must be a number"),
            (True, "field 'fpr0' must be a number"),
        ],
    )
    def test_bad_fpr0_rejected_by_the_constructor(self, fpr0, match):
        # built in memory, not loaded: the same rule as in a trace header
        trace = build_trace()
        with pytest.raises(TraceFormatError, match=match):
            ScenarioTrace(trace.dt, trace.ticks, trace.cameras, metadata={"fpr0": fpr0})

    @pytest.mark.parametrize(
        "fpr0,match",
        [
            (0, "field 'fpr0' must be > 0"),
            ("10", "field 'fpr0' must be a number"),
            (-5.0, "field 'fpr0' must be > 0"),
            (1e-310, "field 'fpr0' must have a finite 1/fpr0"),
        ],
    )
    def test_bad_fpr0_set_after_construction(self, fpr0, match):
        # metadata stays a mutable dict: the rate is checked again where it is read
        built = build_trace()
        trace = ScenarioTrace(built.dt, built.ticks, built.cameras, metadata={"fpr0": 10.0})
        trace.metadata["fpr0"] = fpr0
        with pytest.raises(TraceFormatError, match=match):
            trace.operating_latency()
        with pytest.raises(TraceFormatError, match=match):
            analyze_trace(trace, ModelParams())

    def test_fpr0_sets_the_operating_latency(self):
        trace = build_trace()
        for fpr0 in (7, 7.0):
            rebuilt = ScenarioTrace(trace.dt, trace.ticks, trace.cameras, metadata={"fpr0": fpr0})
            assert rebuilt.operating_latency() == 1.0 / 7.0
        assert trace.operating_latency() == trace.dt


class TestGroundTruth:
    def test_static_actor_constant_position(self):
        trace = build_trace()
        traj = ground_truth_trajectory(trace, "parked", 0)
        assert traj.probability == 1.0
        for t in (0.0, 0.25, 0.9):
            x, y, v = traj.state_at(t)
            assert (x, y, v) == (50.0, 3.5, 0.0)

    def test_rebased_times(self):
        trace = build_trace()
        traj = ground_truth_trajectory(trace, "lead", 3)
        assert traj.samples[0][0] == 0.0
        x0, _, _ = traj.state_at(0.0)
        assert x0 == pytest.approx(30.0 + 8.0 * 0.3)

    def test_last_tick_padded(self):
        trace = build_trace()
        traj = ground_truth_trajectory(trace, "lead", len(trace.ticks) - 1)
        assert len(traj.samples) == 2
        assert traj.samples[0][1] == traj.samples[1][1]

    def test_linear_interpolation_of_motion(self):
        trace = build_trace()
        traj = ground_truth_trajectory(trace, "lead", 0)
        x, _, v = traj.state_at(0.05)
        assert x == pytest.approx(30.0 + 8.0 * 0.05)
        assert v == pytest.approx(8.0)

    def test_consecutive_from_ticks_consistent(self):
        trace = build_trace()
        t_a = ground_truth_trajectory(trace, "lead", 2)
        t_b = ground_truth_trajectory(trace, "lead", 4)
        # state at overlapping wall-clock times matches
        for k in range(5):
            dt = 0.1 * k
            xa, ya, va = t_a.state_at(0.2 + dt)
            xb, yb, vb = t_b.state_at(dt)
            assert xa == pytest.approx(xb, abs=1e-9)
            assert ya == pytest.approx(yb, abs=1e-9)
            assert va == pytest.approx(vb, abs=1e-9)

    def test_unknown_actor(self):
        with pytest.raises(KeyError):
            ground_truth_trajectory(build_trace(), "ghost", 0)

    @pytest.mark.parametrize("from_tick", [True, 1.5, 2.0, "1", None])
    def test_from_tick_must_be_an_integer(self, from_tick):
        with pytest.raises(ValueError, match="from_tick must be an integer"):
            ground_truth_trajectory(build_trace(), "lead", from_tick)

    def test_columns_are_the_recorded_future(self):
        trace = build_trace(n_ticks=12, dt=1 / 30)
        last = len(trace.ticks) - 1
        for aid in trace.actor_ids:
            for k in range(len(trace.ticks)):
                traj = ground_truth_trajectory(trace, aid, k)
                base = trace.ticks[k].t
                future = trace.ticks[k:]
                times = [tick.t - base for tick in future]
                states = [tick.actors[aid] for tick in future]
                if k == last:  # the final tick holds its state for one more dt
                    times.append(trace.dt)
                    states.append(states[0])
                assert traj.t.tolist() == times
                assert traj.x.tolist() == [s.x for s in states]
                assert traj.y.tolist() == [s.y for s in states]
                assert traj.v.tolist() == [s.v for s in states]
                assert traj.probability == 1.0

    def test_actor_columns_are_the_recording(self):
        trace = build_trace()
        cols = trace.actor_columns("lead")
        assert cols.shape == (4, len(trace.ticks))
        assert cols[0].tolist() == [tick.t for tick in trace.ticks]
        assert cols[1].tolist() == [tick.actors["lead"].x for tick in trace.ticks]
        assert cols[3].tolist() == [tick.actors["lead"].v for tick in trace.ticks]
        assert trace.actor_columns("lead") is cols
        with pytest.raises(ValueError, match="read-only"):
            cols[1, 0] = -1.0
        with pytest.raises(KeyError):
            trace.actor_columns("ghost")

    def test_columns_cannot_be_written(self):
        trace = build_trace()
        for k in (0, 4, len(trace.ticks) - 1):
            traj = ground_truth_trajectory(trace, "lead", k)
            for col in traj.columns():
                with pytest.raises(ValueError, match="read-only"):
                    col[-1] = -1.0
        again = ground_truth_trajectory(trace, "lead", 4)
        assert again.x.tolist() == [30.0 + 8.0 * tick.t for tick in trace.ticks[4:]]

    def test_loaded_trace_reads_its_columns(self, monkeypatch):
        built = build_trace()
        loaded, _ = roundtrip(built)
        monkeypatch.setattr(ScenarioTrace, "ticks", property(lambda tr: pytest.fail("read ticks")))
        assert loaded.actor_ids == ("lead", "parked")
        assert loaded.duration() == built.duration()
        for aid in loaded.actor_ids:
            assert loaded.actor_columns(aid).tolist() == built.actor_columns(aid).tolist()
            for k in (0, 4, 9):
                got = ground_truth_trajectory(loaded, aid, k).columns()
                assert got.tolist() == ground_truth_trajectory(built, aid, k).columns().tolist()
        with pytest.raises(KeyError, match="unknown actor 'ghost'"):
            ground_truth_trajectory(loaded, "ghost", 0)
        with pytest.raises(IndexError, match="from_tick 10 outside trace of 10 ticks"):
            ground_truth_trajectory(loaded, "lead", 10)


HEADER = {"dt": 0.1, "cameras": [{"camera_id": "front", "azimuth": 0.0, "fov": 1.0}]}
STATE = {"x": 0.0, "y": 0.0, "v": 1.0, "a": 0.0, "heading": 0.0}


def trace_text(header=None, tick=None) -> str:
    """A one-tick trace with one actor; ``header``/``tick`` replace its lines."""
    if header is None:
        header = json.dumps(HEADER)
    if tick is None:
        tick = json.dumps({"t": 0.0, "ego": STATE, "actors": {"lead": STATE}})
    return header + "\n" + tick + "\n"


def with_state(where: str, key: str, raw: str) -> str:
    """Tick line whose ``where`` state (ego or the actor) has ``key`` set to raw JSON."""
    obj = {"t": 0.0, "ego": dict(STATE), "actors": {"lead": dict(STATE)}}
    target = obj["ego"] if where == "ego" else obj["actors"]["lead"]
    target[key] = "@"
    return json.dumps(obj).replace('"@"', raw)


class _Mapping(dict):
    """A dict that is not exactly a dict, so states go down the checked path."""


class TestStateFastPath:
    """Saved states load on a fast path; every state must equal the checked path's."""

    @pytest.mark.parametrize(
        "obj",
        [
            dict(STATE),
            {"x": 5, "y": 0.0, "v": 1.0, "a": 0.0, "heading": 0.0},
            {"x": 0.0, "y": 0.0, "v": 3, "a": -1, "heading": 4},
            {**STATE, "extra": 1.0},
            {"x": 0.0, "y": 0.0, "v": 1.0, "heading": 0.5},
            {"x": 0.0, "y": 0.0, "v": 1.0, "a": 0.5},
            {"x": 0.0, "y": 0.0, "v": 1.0},
            {"x": 1e308, "y": 1e308, "v": 1e308, "a": 0.0, "heading": 0.0},
            {"x": 1.0, "y": -2.0, "v": -0.0, "a": 0.0, "heading": 0.0},
            {"x": 1.0, "y": -2.0, "v": 0.0, "a": -0.0, "heading": 7.0},
            {"x": 1.0, "y": 2.0, "v": 3.0, "a": 4.0, "heading": -math.pi},
        ],
    )
    def test_state_equals_the_checked_path(self, obj):
        want = _state_from_obj(_Mapping(obj), "tick 0 ego")
        text = trace_text(tick=json.dumps({"t": 0.0, "ego": obj, "actors": {"lead": obj}}))
        tick = load_trace(io.StringIO(text)).ticks[0]
        for got in (tick.ego, tick.actors["lead"]):
            assert got == want
            assert repr(got) == repr(want)  # the same types, and the sign of a zero
            assert all(type(value) is float for value in vars(got).values())


class TestMalformedInput:
    def test_valid_text_loads(self):
        assert load_trace(io.StringIO(trace_text())).actor_ids == ("lead",)

    @pytest.mark.parametrize(
        "raw", ["NaN", "Infinity", "-Infinity", "1e999", '"fast"', "null", '"0.1"', "true"]
    )
    def test_bad_dt(self, raw):
        with pytest.raises(TraceFormatError, match="header: field 'dt'"):
            load_trace(io.StringIO(trace_text(header=f'{{"dt": {raw}}}')))

    @pytest.mark.parametrize("raw", ["0", "-0.1"])
    def test_dt_must_be_positive(self, raw):
        with pytest.raises(TraceFormatError, match="dt must be finite and > 0"):
            load_trace(io.StringIO(trace_text(header=f'{{"dt": {raw}}}')))

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", '"soon"', "[]", '"0.0"', "false"])
    def test_bad_tick_time(self, raw):
        tick = f'{{"t": {raw}, "ego": {json.dumps(STATE)}}}'
        with pytest.raises(TraceFormatError, match="tick 0: field 't'"):
            load_trace(io.StringIO(trace_text(tick=tick)))

    @pytest.mark.parametrize("where,prefix", [("ego", "tick 0 ego"), ("lead", "tick 0 actor 'lead'")])
    @pytest.mark.parametrize("key", ["x", "y", "v", "a", "heading"])
    @pytest.mark.parametrize(
        "raw", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, '"x"', '"1.0"', "true"]
    )
    def test_bad_state_field(self, where, prefix, key, raw):
        text = trace_text(tick=with_state(where, key, raw))
        with pytest.raises(TraceFormatError, match=f"{prefix}: field '{key}'"):
            load_trace(io.StringIO(text))

    @pytest.mark.parametrize("tick", ["[1, 2]", '"t"', "3", "null"])
    def test_tick_not_an_object(self, tick):
        with pytest.raises(TraceFormatError, match="tick 0: expected an object"):
            load_trace(io.StringIO(trace_text(tick=tick)))

    def test_actors_not_an_object(self):
        tick = json.dumps({"t": 0.0, "ego": STATE, "actors": [STATE]})
        with pytest.raises(TraceFormatError, match="tick 0: field 'actors'"):
            load_trace(io.StringIO(trace_text(tick=tick)))

    def test_duplicate_camera_ids(self):
        cam = {"camera_id": "front", "azimuth": 0.0, "fov": 1.0}
        header = json.dumps({"dt": 0.1, "cameras": [cam, dict(cam, azimuth=1.0)]})
        with pytest.raises(TraceFormatError, match="duplicate camera_id"):
            load_trace(io.StringIO(trace_text(header=header)))

    @pytest.mark.parametrize(
        "header,match",
        [
            ("[0.1]", "header: expected an object"),
            ('{"dt": 0.1, "cameras": 5}', "header: field 'cameras'"),
            ('{"dt": 0.1, "cameras": ["front"]}', "header camera 0"),
            ('{"dt": 0.1, "cameras": [{"camera_id": "f", "azimuth": NaN, "fov": 1}]}',
             "header camera 0: field 'azimuth'"),
            ('{"dt": 0.1, "metadata": []}', "header: field 'metadata'"),
            ('{"dt": 0.1, "metadata": {"fpr0": NaN}}', "header metadata: field 'fpr0'"),
            ('{"dt": 0.1, "metadata": {"fpr0": 0}}', "field 'fpr0' must be > 0"),
            ('{"dt": 0.1, "metadata": {"fpr0": "10"}}', "header metadata: field 'fpr0'"),
            ('{"dt": 0.1, "metadata": {"fpr0": 1e-310}}', "field 'fpr0' must have a finite 1/fpr0"),
            ('{"dt": 0.1, "cameras": [{"camera_id": null, "azimuth": 0, "fov": 1}]}',
             "header camera 0: camera_id must be a string, got None"),
            ('{"dt": 0.1, "cameras": [{"camera_id": 7, "azimuth": 0, "fov": 1}]}',
             "header camera 0: camera_id must be a string, got 7"),
        ],
    )
    def test_bad_header(self, header, match):
        with pytest.raises(TraceFormatError, match=match):
            load_trace(io.StringIO(trace_text(header=header)))


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
STATES = SCALARS | st.dictionaries(st.sampled_from(sorted(STATE)), SCALARS)
HEADERS = st.fixed_dictionaries(
    {},
    optional={
        "dt": SCALARS,
        "cameras": SCALARS
        | st.lists(
            st.dictionaries(st.sampled_from(["camera_id", "azimuth", "fov"]), SCALARS),
            max_size=3,
        ),
        "metadata": SCALARS | st.dictionaries(st.sampled_from(["fpr0", "name"]), SCALARS),
    },
)
TICKS = st.fixed_dictionaries(
    {},
    optional={
        "t": SCALARS,
        "ego": STATES,
        "actors": SCALARS | st.dictionaries(st.text(max_size=2), STATES, max_size=2),
    },
)
LINES = st.one_of(st.text(), HEADERS.map(json.dumps), TICKS.map(json.dumps))


@given(lines=st.lists(LINES, max_size=4))
@settings(max_examples=300, deadline=None)
def test_any_text_loads_or_raises_format_error(lines):
    try:
        load_trace(io.StringIO("\n".join(lines)))
    except TraceFormatError:
        pass


def _mappings(line, where, _json=trace_module._json):
    _json(line, where)  # the same errors
    return json.loads(line, object_hook=_Mapping)


def load_text(text: str):
    return load_trace(io.StringIO(text))


def load_checked(text: str):
    """``load_trace`` with every JSON object a ``_Mapping``, so no line is in the saved form."""
    with mock.patch.object(trace_module, "_json", _mappings):
        return load_text(text)


def load_outcome(load, text: str):
    try:
        return load(text)
    except TraceFormatError as e:
        return f"TraceFormatError: {e}"


def assert_loads_alike(text: str) -> None:
    """The columnar load and the checked path give equal traces or the same error."""
    fast, checked = load_outcome(load_text, text), load_outcome(load_checked, text)
    if isinstance(fast, str) or isinstance(checked, str):
        assert fast == checked
        return
    assert fast == checked
    assert fast.actor_ids == checked.actor_ids
    assert repr(fast.times.tolist()) == repr(checked.times.tolist())
    assert repr(fast.ego_rows.tolist()) == repr(checked.ego_rows.tolist())
    for a, b in zip(fast.ticks, checked.ticks):
        # the same types and the sign of a zero; the actor order may differ
        assert (repr(a.t), repr(a.ego)) == (repr(b.t), repr(b.ego))
        assert {k: repr(s) for k, s in a.actors.items()} == {
            k: repr(s) for k, s in b.actors.items()
        }
    for aid in fast.actor_ids:
        assert repr(fast.actor_columns(aid).tolist()) == repr(checked.actor_columns(aid).tolist())


@given(lines=st.lists(LINES, max_size=4))
@settings(max_examples=300, deadline=None)
def test_any_text_loads_alike_on_both_paths(lines):
    assert_loads_alike("\n".join(lines))


FINITE = st.sampled_from([math.pi, -math.pi, 7.0, -7.0, 0.0, -0.0, 1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)
SAVED_STATES = st.fixed_dictionaries(
    {
        "x": FINITE,
        "y": FINITE,
        "v": st.floats(0.0, 50.0) | st.sampled_from([-0.0, 1e308]),
        "a": FINITE,
        "heading": FINITE,
    }
)


@st.composite
def saved_traces(draw) -> str:
    """Trace text in the saved form, with headings such as +-pi, 7.0 and
    -0.0; in half of them one fault at one tick: a time off the grid, a
    changed actor id set, a field that is not finite, a negative speed or
    a number that is not a float."""
    dt = draw(st.sampled_from([0.1, 1.0 / 30.0, 1e-10, 2.0]))
    ids = draw(st.lists(st.sampled_from(["lead", "b", "a0", ""]), max_size=3, unique=True))
    ticks = [
        {
            "t": i * dt,
            "ego": draw(SAVED_STATES),
            "actors": {aid: draw(SAVED_STATES) for aid in draw(st.permutations(ids))},
        }
        for i in range(draw(st.integers(0, 4)))
    ]
    if ticks and draw(st.booleans()):
        tick = draw(st.sampled_from(ticks))
        fault = draw(st.sampled_from(["t", "ids", "finite", "speed", "type"]))
        state = draw(st.sampled_from([tick["ego"], *tick["actors"].values()]))
        if fault == "t":
            off_grid = st.sampled_from([tick["t"] + 1e-9, tick["t"] - 1.0, -0.0])
            tick["t"] = draw(off_grid | st.floats())
        elif fault == "ids":
            extra = draw(st.sampled_from([[], [("new", dict(STATE))]]))
            tick["actors"] = dict(list(tick["actors"].items())[1:] + extra)
        elif fault == "finite":
            state[draw(st.sampled_from(sorted(STATE)))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf])
            )
        elif fault == "speed":
            state["v"] = draw(st.sampled_from([-1.0, -5e-324]))
        else:
            state[draw(st.sampled_from(sorted(STATE)))] = draw(
                st.sampled_from([1, 0, True, "1.0", None])
            )
    header = {"dt": dt, "cameras": HEADER["cameras"], "metadata": {}}
    return "\n".join(json.dumps(obj) for obj in [header, *ticks])


@given(text=saved_traces())
@settings(max_examples=300, deadline=None)
def test_saved_form_loads_alike_on_both_paths(text):
    assert_loads_alike(text)


def test_saved_form_takes_the_columnar_path():
    # the saved form loads without a state object; the checked path builds records
    text = trace_text(tick=json.dumps({"t": 0.0, "ego": STATE, "actors": {"lead": STATE}}))
    assert "ticks" not in load_text(text)._cache
    assert "ticks" in load_checked(text)._cache
    assert_loads_alike(text)


def reference_text(trace: ScenarioTrace) -> str:
    """The text ``save_trace`` writes: one ``json.dumps(..., sort_keys=True)`` per record."""

    def state(s: KinematicState) -> dict:
        return {"x": s.x, "y": s.y, "v": s.v, "a": s.a, "heading": s.heading}

    cameras = [
        {"camera_id": c.camera_id, "azimuth": c.azimuth, "fov": c.fov} for c in trace.cameras
    ]
    records = [{"dt": trace.dt, "cameras": cameras, "metadata": trace.metadata}] + [
        {
            "t": tick.t,
            "ego": state(tick.ego),
            "actors": {aid: state(s) for aid, s in tick.actors.items()},
        }
        for tick in trace.ticks
    ]
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


# signed zeros, subnormals, numbers whose repr has an exponent, and integers
# (a record-built trace may hold them; the writer writes them as floats)
SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 1.5e300, 0, 7]
NUMBERS = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
SPEEDS = st.sampled_from([n for n in SPECIAL if n >= 0]) | st.floats(0.0, 1e308)
RECORD_STATES = st.builds(
    KinematicState, x=NUMBERS, y=NUMBERS, v=SPEEDS, a=NUMBERS, heading=NUMBERS
)
# quotes, backslashes, non-ASCII, control characters and format syntax
ACTOR_IDS = st.sampled_from(
    ['"', "\\", "é", "漢\U0001f600", "\x00", "\n\x1f", "%r", "{0}", ""]
) | st.text(max_size=4)


@st.composite
def record_traces(draw) -> ScenarioTrace:
    dt = draw(st.sampled_from([0.1, 1.0 / 30.0, 1e-05, 2]))
    ids = draw(st.lists(ACTOR_IDS, max_size=3, unique=True))
    ticks = [
        TickRecord(i * dt, draw(RECORD_STATES), {aid: draw(RECORD_STATES) for aid in ids})
        for i in range(draw(st.integers(0, 4)))
    ]
    return ScenarioTrace(dt, ticks, DEFAULT_CAMERA_RIG, {"name": draw(st.text(max_size=3))})


@given(trace=record_traces())
@settings(max_examples=300, deadline=None)
def test_save_trace_writes_the_json_of_each_record(trace):
    buf = io.StringIO()
    save_trace(trace, buf)
    text, want = buf.getvalue(), reference_text(trace)
    states = [s for tick in trace.ticks for s in (tick.ego, *tick.actors.values())]
    numbers = [trace.dt, *(tick.t for tick in trace.ticks)]
    numbers += [value for s in states for value in vars(s).values()]
    if all(type(value) is float for value in numbers):
        assert text == want
        loaded = load_trace(io.StringIO(text))
        assert loaded == trace
        again = io.StringIO()
        save_trace(loaded, again)  # from the loaded block, with no records built
        assert "ticks" not in loaded._cache
        assert again.getvalue() == want
    else:
        # integers are written as floats, which is how the reference text reloads them
        got, ref = load_trace(io.StringIO(text)), load_trace(io.StringIO(want))
        assert got == ref
        assert repr(got.ticks) == repr(ref.ticks)
        assert text.splitlines()[0] == want.splitlines()[0]


def test_traces_compare_by_their_states_without_building_records(tmp_path):
    path = tmp_path / "t.jsonl"
    save_trace(build_trace(), path)
    a, b = load_trace(path), load_trace(path)
    assert a == b and a == build_trace()
    assert "ticks" not in a._cache and "ticks" not in b._cache
    ticks = list(build_trace().ticks)
    ticks[3] = TickRecord(ticks[3].t, KinematicState(1.0, 0.0, 10.0), ticks[3].actors)
    assert ScenarioTrace(a.dt, ticks, a.cameras, a.metadata) != a
    # the same states under other actor ids
    ego, lead = ticks[0].ego, ticks[0].actors["lead"]
    one, other = (ScenarioTrace(0.1, [TickRecord(0.0, ego, {aid: lead})], a.cameras) for aid in "ab")
    assert one != other
