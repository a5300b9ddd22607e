import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefpr import (
    DEFAULT_CAMERA_RIG,
    KinematicState,
    ScenarioTrace,
    TickRecord,
    TraceFormatError,
    ground_truth_trajectory,
    load_trace,
    save_trace,
)


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path / "nope.jsonl")


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
