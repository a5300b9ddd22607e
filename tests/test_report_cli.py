import dataclasses
import hashlib
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import safefpr.cli as cli
import safefpr.model as model
import safefpr.report as report
from safefpr import (
    DEFAULT_CAMERA_RIG,
    AlarmEvent,
    Budget,
    FprReport,
    KinematicState,
    ModelParams,
    RunResult,
    ScenarioTrace,
    TickRecord,
    analyze_trace,
    camera_fpr,
    evaluate_scene,
    ground_truth_trajectory,
    in_fov,
    fraction_of_provisioned,
    generate_scenario,
    load_trace,
    required_fpr_cell,
    run_scenario,
    save_script,
    save_trace,
    sweep_grid,
    tolerable_latency,
    write_sweep_csv,
)
from safefpr.cli import main, parse_speed
from safefpr.model import path_table, reaction_time, search_paths
from safefpr.report import OVER_MAX, format_cell
from safefpr.scenarios import script_to_dict
from safefpr.types import L0_FIXED, MPH_TO_MPS, straight_line_trajectory

from conftest import state_rows

PARAMS = ModelParams()


class TestFraction:
    @pytest.mark.parametrize(
        "total,expected",
        [(32.0, 0.36), (11.0, 0.12), (3.0, 0.03), (9.0, 0.10)],
    )
    def test_three_camera_pairs(self, total, expected):
        assert fraction_of_provisioned(total, 3, PARAMS) == pytest.approx(expected)

    def test_no_actor_five_camera_floor(self):
        # every camera idles at the minimum rate
        assert fraction_of_provisioned(5.0, 5, PARAMS) == pytest.approx(0.03)


class TestAnalyze:
    def test_empty_scene_all_floor(self):
        ticks = tuple(
            TickRecord(t=i / 30.0, ego=KinematicState(0, 0, 10.0), actors={})
            for i in range(30)
        )
        trace = ScenarioTrace(dt=1 / 30.0, ticks=ticks, cameras=DEFAULT_CAMERA_RIG)
        result = analyze_trace(trace, PARAMS)
        cam_records = [r for r in result.records if "camera" in r]
        assert all(r["fpr"] == 1.0 for r in cam_records)
        assert result.summary["fraction_of_provisioned"] == pytest.approx(5 / 150, abs=5e-3)

    def test_scenario_trace_summary(self):
        result = run_scenario(generate_scenario("cut_out"), PARAMS, frame_rate=30.0)
        analysis = analyze_trace(result.trace, PARAMS)
        s = analysis.summary
        assert s["cameras"] == 5
        assert s["max_total_fpr"] >= max(s["max_fpr_per_camera"].values())
        assert 0.0 < s["fraction_of_provisioned"] <= 1.0

    def test_matches_scalar_search_and_in_fov_membership(self):
        # every tick of a recorded run against the per-actor scalar search and
        # per-camera in_fov membership that analyze_trace used before it ran
        # each tick through evaluate_scene
        trace = run_scenario(generate_scenario("cut_out"), PARAMS, frame_rate=10.0).trace
        l0 = trace.operating_latency()
        fixed = PARAMS.replace(l0_policy=L0_FIXED)
        expected = []
        for k, tick in enumerate(trace.ticks):
            ests = [
                (aid, tolerable_latency(tick.ego, ground_truth_trajectory(trace, aid, k), l0, fixed))
                for aid in trace.actor_ids
            ]
            expected += [(k, aid, est.latency) for aid, est in ests]
            for cam in trace.cameras:
                members = {aid for aid, st in tick.actors.items() if in_fov(tick.ego, st, cam)}
                rep = camera_fpr(ests, members, PARAMS)
                expected.append((k, cam.camera_id, rep.fpr, rep.latency, rep.binding_actor))
        got = [
            (r["tick"], r["actor"], r["latency"])
            if "actor" in r
            else (r["tick"], r["camera"], r["fpr"], r["latency"], r["binding_actor"])
            for r in analyze_trace(trace, PARAMS).records
        ]
        assert got == expected
        latencies = {e[2] for e in expected if len(e) == 3}
        assert len(latencies) > 3 and None not in latencies


def per_tick_reference(trace, params):
    """``analyze_trace``'s records and per-tick estimates, one ``evaluate_scene`` call a tick.

    Each actor's future is its ``ground_truth_trajectory`` from the tick on:
    the per-tick path that the blocked search replaces.
    """
    l0 = trace.operating_latency()
    fixed = params.replace(l0_policy=L0_FIXED)
    records, estimates = [], []
    for k, tick in enumerate(trace.ticks):
        futures = {aid: [ground_truth_trajectory(trace, aid, k)] for aid in trace.actor_ids}
        per_actor, reports = evaluate_scene(tick.ego, futures, trace.cameras, l0, fixed)
        estimates.append(per_actor)
        records += [{"tick": k, "t": tick.t, "actor": aid, "latency": per_actor[aid].latency}
                    for aid in trace.actor_ids]
        records += [
            {"tick": k, "t": tick.t, "camera": cam.camera_id, "fpr": rep.fpr,
             "latency": rep.latency, "binding_actor": rep.binding_actor,
             "infeasible": rep.infeasible}
            for cam in trace.cameras
            for rep in [reports[cam.camera_id]]
        ]
    return records, estimates


def assert_blocked_matches_reference(trace, params=PARAMS):
    """Same records as the per-tick reference; probe times within 1e-9 s."""
    records, estimates = per_tick_reference(trace, params)
    assert analyze_trace(trace, params).records == records
    # the path table that analyze_trace searches, every tick reading it from its own time on
    ids, ticks = trace.actor_ids, trace.ticks
    paths = path_table([trace.actor_columns(aid) for aid in ids])
    latencies, probes = search_paths(
        state_rows(tick.ego for tick in ticks), [tick.t for tick in ticks], paths,
        trace.operating_latency(), params.replace(l0_policy=L0_FIXED),
    )
    assert len(latencies) == len(probes) == len(ticks) * len(ids)
    for k, expected in enumerate(estimates):
        assert list(expected) == list(ids)
        for j, (aid, est) in enumerate(expected.items()):
            pair = k * len(ids) + j
            assert latencies[pair] == est.latency, (k, aid)
            if est.latency is not None:
                assert abs(probes[pair] - est.probe_time) <= 1e-9, (k, aid)


def synthetic_trace(n_ticks, dt=0.1, actors=("lead", "parked"), metadata=None):
    """The ego at 20 m/s; a slower lead ahead, a parked car in the next lane, a braking car.

    Two faster cars well ahead, ``far`` and ``passing``, may be added too.
    """
    motion = {
        "lead": lambda t: KinematicState(35.0 + 14.0 * t, 0.0, 14.0),
        "far": lambda t: KinematicState(150.0 + 25.0 * t, 0.0, 25.0),
        "passing": lambda t: KinematicState(100.0 + 26.0 * t, -3.5, 26.0),
        "parked": lambda t: KinematicState(60.0, 3.5, 0.0),
        "braking": lambda t: KinematicState(
            25.0 + 18.0 * min(t, 3.0) - 3.0 * min(t, 3.0) ** 2, -3.5, max(0.0, 18.0 - 6.0 * t),
            a=-6.0 if t < 3.0 else 0.0,
        ),
    }
    ticks = tuple(
        TickRecord(
            t=i * dt,
            ego=KinematicState(20.0 * i * dt, 0.0, 20.0),
            actors={aid: motion[aid](i * dt) for aid in actors},
        )
        for i in range(n_ticks)
    )
    return ScenarioTrace(dt=dt, ticks=ticks, cameras=DEFAULT_CAMERA_RIG, metadata=metadata or {})


class TestBlockedSearch:
    """``analyze_trace`` searches blocks of ticks at once; each tick must come out as if alone."""

    def test_every_family_at_30_and_10_hz(self, family_traces):
        assert len(family_traces) == 18
        for trace in family_traces.values():
            assert_blocked_matches_reference(trace)

    def test_one_tick_trace(self):
        assert_blocked_matches_reference(synthetic_trace(1, actors=("lead", "parked", "braking")))

    def test_no_actors(self):
        assert_blocked_matches_reference(synthetic_trace(7, actors=()))

    def test_ticks_not_a_multiple_of_the_block(self, monkeypatch):
        # the head leaves every pair open, and the full grid runs one actor
        # at a time: 30 candidates = 30 lanes a tick, so 4 ticks a block: 4 + 4 + 2
        monkeypatch.setattr(model, "BLOCK_LANES", 4 * 30 + 29)
        assert_blocked_matches_reference(synthetic_trace(10, actors=("lead", "parked", "braking")))

    def test_block_smaller_than_one_tick(self, monkeypatch):
        monkeypatch.setattr(model, "BLOCK_LANES", 1)
        assert_blocked_matches_reference(synthetic_trace(5))

    def test_parked_actor(self):
        trace = synthetic_trace(40, actors=("parked",))
        assert_blocked_matches_reference(trace)
        records = analyze_trace(trace, PARAMS).records
        assert {r["latency"] for r in records if "actor" in r} != {None}

    def test_recorded_rate_differs_from_tick_interval(self):
        # l0 = 1/7 s, while ticks are 0.05 s apart
        trace = synthetic_trace(60, dt=0.05, metadata={"fpr0": 7.0})
        assert trace.operating_latency() != trace.dt
        assert_blocked_matches_reference(trace)

    @staticmethod
    def head_settled(trace, params=PARAMS):
        """Per (tick, actor) pair, whether the grid head ``latency_max`` alone meets."""
        fixed = params.replace(l0_policy=L0_FIXED)
        found, _ = search_paths(
            state_rows(tick.ego for tick in trace.ticks), [tick.t for tick in trace.ticks],
            path_table([trace.actor_columns(aid) for aid in trace.actor_ids]),
            trace.operating_latency(), fixed.replace(latency_min=fixed.latency_max),
        )
        return [latency is not None for latency in found]

    def test_head_past_the_horizon(self):
        # latency_max's reaction time, 1 + 5 * (1 - 1/30) s, is past a 5 s
        # horizon: the head pass searches nothing and the full grid does it all
        params = ModelParams(horizon=5.0)
        fixed = params.replace(l0_policy=L0_FIXED)
        assert reaction_time(params.latency_max, 1 / 30, fixed) > params.horizon
        trace = synthetic_trace(30, dt=1 / 30, actors=("lead", "parked", "braking", "far"))
        assert not any(self.head_settled(trace, params))
        assert_blocked_matches_reference(trace, params)
        latencies = {r["latency"] for r in analyze_trace(trace, params).records if "actor" in r}
        assert len(latencies - {None}) > 3

    def test_head_settles_every_pair(self):
        trace = synthetic_trace(40, actors=("far", "passing"))
        assert all(self.head_settled(trace))
        assert_blocked_matches_reference(trace)

    def test_head_settles_no_pair(self):
        trace = synthetic_trace(40, actors=("lead",))
        assert not any(self.head_settled(trace))
        assert_blocked_matches_reference(trace)
        latencies = {r["latency"] for r in analyze_trace(trace, PARAMS).records if "actor" in r}
        assert len(latencies - {None}) > 3

    def test_head_settles_some_pairs(self):
        trace = synthetic_trace(40, actors=("far", "lead", "passing", "braking"))
        settled = self.head_settled(trace)
        assert any(settled) and not all(settled)
        assert_blocked_matches_reference(trace)

    def test_kernel_lanes_on_cut_in(self, family_traces, monkeypatch):
        # the full grid runs only for pairs the head leaves open: about a
        # fifth of what one full-grid search over every pair hands the kernel
        trace = family_traces[("cut_in", 30.0)]
        lanes = []

        def counting(egos, offsets, paths, l0, params):
            lanes.append(len(egos) * paths.count * len(params.latency_grid))
            return search_paths(egos, offsets, paths, l0, params)

        monkeypatch.setattr(report, "search_paths", counting)
        analyze_trace(trace, PARAMS)
        full = len(trace.ticks) * len(trace.actor_ids) * len(PARAMS.latency_grid)
        assert 0 < sum(lanes) < 0.3 * full

    def test_peak_memory_stays_per_block(self, monkeypatch):
        # 601 ticks x 6 actors: one search over the whole trace would hold
        # 108 180 lanes (tens of MB); blocks of about 3000 lanes stay under
        # 1 MiB. Each search and report call is measured from the memory
        # held when it starts, so what the result keeps does not count.
        actors = {f"a{j}": (20.0 * (j - 2), 3.5 * (j % 3 - 1), 15.0 + j) for j in range(6)}
        ticks = tuple(
            TickRecord(
                t=k / 30.0,
                ego=KinematicState(20.0 * k / 30.0, 0.0, 20.0),
                actors={
                    aid: KinematicState(x + v * k / 30.0, y, v) for aid, (x, y, v) in actors.items()
                },
            )
            for k in range(601)
        )
        trace = ScenarioTrace(dt=1 / 30.0, ticks=ticks, cameras=DEFAULT_CAMERA_RIG)
        analyze_trace(trace, PARAMS)  # first call caches the actors' columns
        rises = {"search_paths": [], "scene_reports": []}

        def measured(name):
            call = getattr(report, name)

            def wrapper(*args):
                held, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = call(*args)
                rises[name].append(tracemalloc.get_traced_memory()[1] - held)
                return out

            monkeypatch.setattr(report, name, wrapper)

        measured("search_paths")
        measured("scene_reports")
        tracemalloc.start()
        try:
            result = analyze_trace(trace, PARAMS)
        finally:
            tracemalloc.stop()
        assert len(result.records) == 601 * 11
        assert all(rises.values())
        assert max(max(r) for r in rises.values()) <= 2**20


class TestSweep:
    def test_zero_ego_speed_column_floor(self):
        grid = sweep_grid(30.0, [0.0], [0.0, 5.0, 10.0], PARAMS)
        assert all(cell == pytest.approx(1.0) for cell in grid[0])

    def test_infeasible_cell(self):
        # 80 mph at a 30 m budget cannot stop even with instant perception
        cell = required_fpr_cell(80 * MPH_TO_MPS, 0.0, 30.0, PARAMS)
        assert cell is None

    def test_over_max_cell(self):
        # needs more than the fastest grid rate but zero latency would work:
        # stopping distance 89.4 m fits the 0.9*100=90 budget only if the
        # reaction travel stays under 0.6 m, i.e. latency below 1/30 s
        v = 29.6
        cell = required_fpr_cell(v, 0.0, 100.0, PARAMS)
        assert cell == OVER_MAX

    def test_csv_sentinels(self):
        buf = io.StringIO()
        write_sweep_csv(
            [[5.000000000000001, OVER_MAX, None]], [10.0], [0.0, 1.0, 2.0], PARAMS, buf
        )
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "ve0_mps\\van_mps,0,1,2"
        assert lines[1] == "10,5,>30,INFEASIBLE"

    @pytest.mark.parametrize("separation", [math.nan, math.inf, 0.0, -1.0])
    def test_separation_must_be_finite_and_positive(self, separation):
        with pytest.raises(ValueError, match="separation"):
            sweep_grid(separation, [10.0], [0.0], PARAMS)

    @pytest.mark.parametrize(
        "params,l0",
        [
            (PARAMS, None),
            (ModelParams(l0_policy=L0_FIXED), None),
            (ModelParams(l0_policy=L0_FIXED), 0.1),
            (ModelParams(l0_policy=L0_FIXED, latency_max=0.5), 0.25),
        ],
    )
    @pytest.mark.parametrize("separation", [30.0, 100.0])
    def test_grid_is_the_cells(self, params, l0, separation):
        # the batched search and the zero-latency scans give each cell's value
        ego_speeds = [0.0, 14.3, 25.75, 29.6, 30.04, 31.47, 35.76]
        actor_speeds = [0.0, 2.86, 5.72, 7.15, 11.44, 22.89, 35.76]
        grid = sweep_grid(separation, ego_speeds, actor_speeds, params, l0)
        want = [
            [required_fpr_cell(ve, va, separation, params, l0) for va in actor_speeds]
            for ve in ego_speeds
        ]
        assert grid == want
        cells = [cell for row in grid for cell in row]
        assert None in cells
        assert OVER_MAX in cells or separation == 30.0

    def test_blocks_of_one_ego_are_the_cells(self, monkeypatch):
        monkeypatch.setattr(model, "BLOCK_LANES", 1)
        speeds = [0.0, 20.0, 29.6, 35.76]
        want = [[required_fpr_cell(ve, va, 100.0, PARAMS) for va in speeds] for ve in speeds]
        assert sweep_grid(100.0, speeds, speeds, PARAMS) == want

    @pytest.mark.parametrize(
        "ego_speeds,actor_speeds,separation,l0",
        [
            ([math.nan, 1.0], [1.0, 2.0], 30.0, None),
            ([1.0, -1.0], [1.0, 2.0], 30.0, None),
            ([1.0, 2.0], [1.0, math.nan], 30.0, None),
            ([1.0, 2.0], [-1.0, 2.0], 30.0, None),
            ([1.0, math.nan], [1.0, -1.0], 30.0, None),
            ([-1.0, 2.0], [math.nan, 2.0], 30.0, None),
            ([1.0, -1.0], [-2.0, 2.0], math.nan, None),
            ([1.0, -1.0], [1.0, -2.0], 30.0, -0.1),
            ([1.0, 2.0], [-2.0, 1.0], 30.0, -0.1),
            ([math.nan], [], math.nan, None),
            ([], [math.nan], math.nan, None),
        ],
    )
    def test_bad_speed_raises_as_the_cells_do(self, ego_speeds, actor_speeds, separation, l0):
        # the first error the cell-by-cell loop meets, or its grid of empty rows
        params = ModelParams(l0_policy=L0_FIXED)

        def outcome(make):
            try:
                return make()
            except ValueError as e:
                return str(e)

        want = outcome(lambda: [
            [required_fpr_cell(ve, va, separation, params, l0) for va in actor_speeds]
            for ve in ego_speeds
        ])
        assert outcome(lambda: sweep_grid(separation, ego_speeds, actor_speeds, params, l0)) == want

    def test_format_cell_rounding(self):
        assert format_cell(15.000000000000004, PARAMS) == "15"
        assert format_cell(7.5, PARAMS) == "7.5"


class TestCli:
    def test_parse_speed_units(self):
        assert parse_speed("25mph") == pytest.approx(11.176)
        assert parse_speed("11.18") == pytest.approx(11.18)
        assert parse_speed("11.18mps") == pytest.approx(11.18)
        with pytest.raises(Exception):
            parse_speed("fast")

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            [
                "sweep",
                "--sn", "30",
                "--ve0-min", "0",
                "--ve0-max", "25mph",
                "--van-min", "0",
                "--van-max", "25mph",
                "--steps", "6",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 7
        cells = [row.split(",")[1:] for row in lines[1:]]
        assert all(float(c) <= 2.0 for row in cells for c in row)

    def test_analyze_command(self, tmp_path):
        result = run_scenario(generate_scenario("cut_in"), PARAMS, frame_rate=30.0)
        trace_path = tmp_path / "t.jsonl"
        save_trace(result.trace, trace_path)
        out = tmp_path / "report.jsonl"
        rc = main(["analyze", "--trace", str(trace_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["cameras"] == 5
        cam_lines = [json.loads(l) for l in lines[:-1] if "camera" in json.loads(l)]
        assert {r["camera"] for r in cam_lines} == {
            "front_narrow", "front_wide", "left", "right", "rear",
        }

    def test_analyze_mrf_flag(self, tmp_path):
        # generated traces embed their script, so --mrf can re-run the loop
        result = run_scenario(generate_scenario("cut_out"), PARAMS, frame_rate=30.0)
        trace_path = tmp_path / "t.jsonl"
        save_trace(result.trace, trace_path)
        out = tmp_path / "report.jsonl"
        rc = main(["analyze", "--trace", str(trace_path), "--out", str(out), "--mrf"])
        assert rc == 0
        summary = json.loads(out.read_text().strip().splitlines()[-1])["summary"]
        assert isinstance(summary["mrf"], int)
        assert 1 <= summary["mrf"] <= 30
        assert summary["mrf"] <= max(summary["max_fpr_per_camera"].values())

    def test_analyze_mrf_respects_the_rate_floor(self, tmp_path):
        # cut_in is safe even at 1 Hz; with latency_max 0.5 s the slowest rate is 2 Hz
        result = run_scenario(generate_scenario("cut_in"), PARAMS, frame_rate=30.0)
        trace_path, params_path = tmp_path / "t.jsonl", tmp_path / "p.json"
        save_trace(result.trace, trace_path)
        params_path.write_text('{"latency_max": 0.5}')
        out = tmp_path / "report.jsonl"
        argv = ["analyze", "--trace", str(trace_path), "--params", str(params_path), "--mrf"]
        assert main(argv + ["--out", str(out)]) == 0
        summary = json.loads(out.read_text().strip().splitlines()[-1])["summary"]
        assert summary["mrf"] == 2

    @pytest.mark.parametrize("radius,mrf", [("0.5", 16), ("2.0", 18)])
    def test_analyze_mrf_reads_the_collision_radius(self, tmp_path, family_traces, radius, mrf):
        # the vehicle_following values TestScenarioMrf::test_pinned_mrf pins
        trace_path, out = tmp_path / "t.jsonl", tmp_path / "report.jsonl"
        save_trace(family_traces[("vehicle_following", 30.0)], trace_path)
        argv = ["analyze", "--trace", str(trace_path), "--mrf", "--collision-radius", radius]
        assert main(argv + ["--out", str(out)]) == 0
        summary = json.loads(out.read_text().strip().splitlines()[-1])["summary"]
        assert (summary["mrf"], summary["mrf_infeasible_at_max"]) == (mrf, False)

    def test_analyze_determinism(self, tmp_path):
        result = run_scenario(generate_scenario("cut_out"), PARAMS, frame_rate=10.0)
        trace_path = tmp_path / "t.jsonl"
        save_trace(result.trace, trace_path)
        out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert main(["analyze", "--trace", str(trace_path), "--out", str(out1)]) == 0
        assert main(["analyze", "--trace", str(trace_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_analyze_builds_no_state_object(self, tmp_path, family_traces, monkeypatch):
        # a loaded trace is analyzed from its arrays: no state object and no
        # TickRecord; a trace on the checked load path, which builds both,
        # shows that the hooks count
        recorded = family_traces[("cut_in", 30.0)]
        trace_path, out = tmp_path / "t.jsonl", tmp_path / "report.jsonl"
        save_trace(recorded, trace_path)
        states, reads = [], []
        post_init, ticks = KinematicState.__post_init__, ScenarioTrace.ticks
        monkeypatch.setattr(
            KinematicState, "__post_init__", lambda s: states.append(s) or post_init(s)
        )
        monkeypatch.setattr(
            ScenarioTrace, "ticks", property(lambda tr: reads.append(tr) or ticks.fget(tr))
        )
        assert main(["analyze", "--trace", str(trace_path), "--out", str(out)]) == 0
        assert states == [] and reads == []
        # integer numbers are not the saved form, so the checked path loads them
        checked = load_trace(io.StringIO('{"dt": 0.1}\n{"t": 0, "ego": {"x": 0, "y": 0, "v": 1}}\n'))
        assert len(states) == 1 and len(checked.ticks) == 1 and reads == [checked]

    def test_analyze_writes_without_record_dicts(self, tmp_path, family_traces, monkeypatch):
        # the CLI writes its lines from the per-tick rows: it never builds the
        # records view, nor one camera record dict
        trace_path, out = tmp_path / "t.jsonl", tmp_path / "report.jsonl"
        save_trace(family_traces[("cut_in", 30.0)], trace_path)
        reads, records = [], report.AnalysisResult.records
        monkeypatch.setattr(
            report.AnalysisResult, "records", property(lambda r: reads.append(r) or records.fget(r))
        )
        monkeypatch.setattr(report, "camera_record", lambda *a: reads.append(a))
        assert main(["analyze", "--trace", str(trace_path), "--out", str(out)]) == 0
        assert reads == []

    def test_simulate_command_no_collision(self, tmp_path):
        script_path = tmp_path / "s.json"
        save_script(generate_scenario("cut_in"), script_path)
        out = tmp_path / "log.jsonl"
        rc = main(
            ["simulate", "--script", str(script_path), "--budget", "90", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["collision"] is None

    def test_simulate_starved_budget_alarms(self, tmp_path):
        script_path = tmp_path / "s.json"
        save_script(generate_scenario("cut_out_fast"), script_path)
        out = tmp_path / "log.jsonl"
        rc = main(
            ["simulate", "--script", str(script_path), "--budget", "3", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["alarms"] > 0
        alarm_lines = [json.loads(l) for l in lines if "alarm" in json.loads(l)]
        assert alarm_lines

    def test_simulate_no_actor_scenario_clean(self, tmp_path):
        script_path = tmp_path / "empty.json"
        script_path.write_text(
            '{"name": "empty_road", "road": {}, "ego_lane": 1, '
            '"ego_speed": 15.0, "duration": 3.0, "actors": []}'
        )
        out = tmp_path / "log.jsonl"
        rc = main(["simulate", "--script", str(script_path), "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text().strip().splitlines()[-1])["summary"]
        assert summary["alarms"] == 0
        assert summary["collision"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--trace", "{scriptless}", "--mrf"],
            ["analyze", "--trace", "{nan_trace}"],
            ["analyze", "--trace", "{binary}"],
            ["sweep", "--sn", "30", "--ve0-max", "-5", "--van-max", "10"],
            ["sweep", "--sn", "30", "--ve0-max", "nan", "--van-max", "10"],
            ["sweep", "--sn", "nan", "--ve0-max", "10", "--van-max", "10"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--params", "{binary}"],
            ["simulate", "--script", "{script}", "--budget", "0"],
            ["simulate", "--script", "{script}", "--budget", "nan"],
            ["simulate", "--script", "{script}", "--budget", "inf"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--params", "{fractional_adjustments}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--params", "{fractional_frames}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--params", "{nan_l0}"],
            ["simulate", "--script", "{script}", "--collision-radius", "nan"],
            ["simulate", "--script", "{script}", "--collision-radius", "inf"],
            ["simulate", "--script", "{script}", "--collision-radius", "-1"],
            ["analyze", "--trace", "{scripted}", "--mrf", "--collision-radius", "nan"],
            ["analyze", "--trace", "{scripted}", "--mrf", "--collision-radius", "-1"],
            ["analyze", "--trace", "{scripted}", "--collision-radius", "nan"],
            ["analyze", "--trace", "{scripted}", "--collision-radius", "-1"],
            ["simulate", "--script", "{list_script}"],
            ["simulate", "--script", "{inf_speed_script}"],
            ["analyze", "--trace", "{string_dt_trace}"],
            ["analyze", "--trace", "{bool_speed_trace}"],
            ["analyze", "--trace", "{tiny_fpr0_trace}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--params", "{string_l0}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--params", "{bool_l0}"],
            ["analyze", "--trace", "{scripted}", "--mrf", "--params", "{no_integer_rate}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--params", "{fine_scan}"],
            ["analyze", "--trace", "{scriptless}", "--out", "{directory}"],
            ["simulate", "--script", "{script}", "--out", "{missing_parent}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2",
             "--out", "{directory}"],
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, argv):
        ticks = (TickRecord(t=0.0, ego=KinematicState(0, 0, 0.0), actors={}),)
        save_trace(
            ScenarioTrace(dt=0.1, ticks=ticks, cameras=DEFAULT_CAMERA_RIG),
            tmp_path / "scriptless.jsonl",
        )
        text = (tmp_path / "scriptless.jsonl").read_text()
        (tmp_path / "nan_trace.jsonl").write_text(text.replace('"v": 0.0', '"v": NaN', 1))
        (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
        save_script(generate_scenario("cut_in"), tmp_path / "script.json")
        save_trace(
            run_scenario(generate_scenario("cut_out_fast"), PARAMS, frame_rate=1.0).trace,
            tmp_path / "scripted.jsonl",
        )
        (tmp_path / "fractional_adjustments.json").write_text('{"max_time_adjustments": 2.5}')
        (tmp_path / "fractional_frames.json").write_text('{"confirmation_frames": 2.5}')
        (tmp_path / "nan_l0.json").write_text('{"l0": NaN}')
        (tmp_path / "string_l0.json").write_text('{"l0": "0.5"}')
        (tmp_path / "bool_l0.json").write_text('{"l0": true}')
        (tmp_path / "no_integer_rate.json").write_text('{"latency_min": 0.4, "latency_max": 0.45}')
        (tmp_path / "fine_scan.json").write_text('{"fine_dt": 1e-9}')
        (tmp_path / "string_dt_trace.jsonl").write_text(text.replace('"dt": 0.1', '"dt": "0.1"', 1))
        (tmp_path / "bool_speed_trace.jsonl").write_text(text.replace('"v": 0.0', '"v": true', 1))
        (tmp_path / "tiny_fpr0_trace.jsonl").write_text(  # 1/fpr0 overflows to inf
            text.replace('"metadata": {}', '"metadata": {"fpr0": 1e-310}', 1)
        )
        (tmp_path / "list_script.json").write_text("[1]")
        script = json.loads((tmp_path / "script.json").read_text())
        (tmp_path / "inf_speed_script.json").write_text(json.dumps({**script, "ego_speed": "inf"}))
        names = {n: str(tmp_path / f) for n, f in [
            ("scriptless", "scriptless.jsonl"), ("nan_trace", "nan_trace.jsonl"),
            ("binary", "binary"), ("script", "script.json"), ("scripted", "scripted.jsonl"),
            ("fractional_adjustments", "fractional_adjustments.json"),
            ("fractional_frames", "fractional_frames.json"), ("nan_l0", "nan_l0.json"),
            ("list_script", "list_script.json"), ("inf_speed_script", "inf_speed_script.json"),
            ("string_l0", "string_l0.json"), ("bool_l0", "bool_l0.json"),
            ("no_integer_rate", "no_integer_rate.json"), ("fine_scan", "fine_scan.json"),
            ("string_dt_trace", "string_dt_trace.jsonl"),
            ("bool_speed_trace", "bool_speed_trace.jsonl"),
            ("tiny_fpr0_trace", "tiny_fpr0_trace.jsonl"),
            ("directory", ""), ("missing_parent", "none/log.jsonl"),
        ]}
        assert main([a.format(**names) for a in argv]) == 2

    @pytest.mark.parametrize(
        "doc,named",
        [
            ({"family": "cut_in", "params": {"ego_speed": 10}}, "ego_speed"),
            ({"family": "cut_in", "params": {"duration": 1e308}}, "duration"),
            ({"ego_speed": 1e308}, "ego_speed"),
            ({"duration": 1e300}, "duration"),
            ({"road": {"lanes": 3, "lane_width": 1e300, "curvature": 0.0}}, "lane_width"),
        ],
    )
    def test_out_of_bounds_script_exits_2(self, tmp_path, capsys, doc, named):
        # finite but huge numbers and misspelt family parameters fail at the
        # boundary, before the engine runs
        if "family" not in doc:
            doc = {**script_to_dict(generate_scenario("cut_in")), **doc}
        path = tmp_path / "script.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--script", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_unopenable_out_names_the_path(self, tmp_path, capsys):
        out = str(tmp_path / "none" / "grid.csv")
        assert main(["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10",
                     "--steps", "2", "--out", out]) == 2
        assert out in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--trace", "{trace}", "--mrf"],
            ["simulate", "--script", "{script}"],
            ["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10", "--steps", "2"],
        ],
    )
    def test_unopenable_out_fails_before_the_work(self, tmp_path, monkeypatch, argv):
        save_script(generate_scenario("cut_out_fast"), tmp_path / "script.json")
        save_trace(
            run_scenario(generate_scenario("cut_out_fast"), PARAMS, frame_rate=1.0).trace,
            tmp_path / "trace.jsonl",
        )

        def work(*args, **kwargs):
            raise AssertionError("the command worked before it opened --out")

        for name in ("run_scenario", "analyze_trace", "sweep_grid"):
            monkeypatch.setattr(cli, name, work)
        names = {"trace": str(tmp_path / "trace.jsonl"), "script": str(tmp_path / "script.json")}
        out = str(tmp_path / "none" / "out")
        assert main([a.format(**names) for a in argv] + ["--out", out]) == 2

    def test_internal_value_error_is_not_input_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        result = run_scenario(generate_scenario("cut_in"), PARAMS, frame_rate=30.0)
        save_trace(result.trace, tmp_path / "t.jsonl")
        monkeypatch.setattr(cli, "analyze_trace", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["analyze", "--trace", str(tmp_path / "t.jsonl"), "--out", "-"])

    def test_missing_trace_is_input_error(self, tmp_path):
        rc = main(["analyze", "--trace", str(tmp_path / "none.jsonl")])
        assert rc == 2

    def test_bad_params_is_input_error(self, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text('{"not_a_knob": 1}')
        rc = main(["sweep", "--sn", "30", "--ve0-max", "10", "--van-max", "10",
                   "--steps", "3", "--params", str(bad)])
        assert rc == 2

    def test_sweep_l0_needs_the_fixed_policy(self, tmp_path, capsys):
        # the candidate policy never reads l0, so a file giving one is refused
        argv = ["sweep", "--sn", "30", "--ve0-max", "30", "--van-max", "10", "--steps", "4"]
        p = tmp_path / "p.json"
        p.write_text('{"l0": 0.5}')
        assert main(argv + ["--params", str(p)]) == 2
        err = capsys.readouterr().err
        assert "l0" in err and "l0_policy" in err

        p.write_text('{"l0": 0.5, "l0_policy": "fixed"}')
        fixed, default = tmp_path / "fixed.csv", tmp_path / "default.csv"
        assert main(argv + ["--params", str(p), "--out", str(fixed)]) == 0
        assert main(argv + ["--out", str(default)]) == 0
        assert fixed.read_text() != default.read_text()

    @pytest.mark.parametrize(
        "command,uses", [("analyze", "l0 = 1/fpr0 of the trace"), ("simulate", "l0 = latency_min")]
    )
    @pytest.mark.parametrize(
        "text,key",
        [('{"l0": 0.5}', "l0"), ('{"l0_policy": "candidate"}', "l0_policy"),
         ('{"l0_policy": "fixed"}', "l0_policy")],
    )
    def test_analyze_and_simulate_refuse_the_l0_keys(
        self, tmp_path, capsys, command, uses, text, key
    ):
        # both run their own fixed reference latency, so a file that sets one is refused
        p, source = tmp_path / "p.json", tmp_path / "source"
        p.write_text(text)
        if command == "analyze":
            save_trace(synthetic_trace(3), source)
            argv = ["analyze", "--trace", str(source)]
        else:
            save_script(generate_scenario("cut_in"), source)
            argv = ["simulate", "--script", str(source)]
        assert main(argv + ["--params", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f'"{key}" is not read' in err and uses in err
        assert not (tmp_path / "out").exists()

    def test_analyze_header_only_trace(self, tmp_path):
        trace_path, out = tmp_path / "t.jsonl", tmp_path / "report.jsonl"
        save_trace(ScenarioTrace(dt=0.1, ticks=(), cameras=DEFAULT_CAMERA_RIG), trace_path)
        assert main(["analyze", "--trace", str(trace_path), "--out", str(out)]) == 0
        (line,) = out.read_text().splitlines()
        summary = json.loads(line)["summary"]
        assert summary["ticks"] == 0
        assert summary["max_total_fpr"] == 0.0
        assert summary["max_fpr_per_camera"] == dict.fromkeys(
            (c.camera_id for c in DEFAULT_CAMERA_RIG), 0.0
        )

    def test_params_file_applied(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text('{"latency_max": 0.5}')
        out = tmp_path / "g.csv"
        rc = main(["sweep", "--sn", "200", "--ve0-max", "1", "--van-max", "1",
                   "--steps", "2", "--params", str(p), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        # slow safe cells now bottom out at 1/0.5 = 2 Hz
        assert rows[1].split(",")[1] == "2"


# sha256 of the JSONL that analyze writes for each family trace, and that
# simulate writes for three families (default, --budget 90, --seed 3)
PINNED_ANALYZE_DIGESTS = {
    "challenging_cut_in@10": "0c3e5e7b5c21c98c41c41a80b9d3ac94a7011e08566931444385558fd96db8de",
    "challenging_cut_in@30": "5a094b9881ae3b1d7e3b29f96cec276b7aa91ff5c46987dabe1f9304e1a72eb7",
    "challenging_cut_in_curved@10": "6396f555afbf5797325e9c5d2bf6770490731740722d33ca269035e36e7ee735",
    "challenging_cut_in_curved@30": "2b15063061255acc10307fa43ac32951a7817e2109f0f2066ba795bb3cf4d4a8",
    "cut_in@10": "06cabe2382f7782319ab58860d2181a357318a1f55907fb5056415fdf125ba15",
    "cut_in@30": "5277d10849e1448cbf78a9b5dd86fced8a73b7bbfc52e53a69b25a412869bc6c",
    "cut_out@10": "fc1bac93c77ec6c974c4471fc546311cc6274397cbd3a465ccaa54c52574685a",
    "cut_out@30": "3919cf4670cc237803827a6616a06868aa99cffe7094559eac3198e1f6c62fb3",
    "cut_out_fast@10": "b3c99a2a455ae437ad8c47b365cf99d9362b1c11218e585275c8d7c49be716b1",
    "cut_out_fast@30": "4b2eec0bee3ad1430bcbd60797bebea81a0b01fa07d1c1abf7ca1255ef332a3d",
    "front_right_activity_1@10": "7d34bb4d9f8239b003e2099ef5760e1347574691f9b504c488e6b0530c75306a",
    "front_right_activity_1@30": "3c2dcb84e404fd69db8ea04fd138846fabf865accc039fe47f74f84493ca43f6",
    "front_right_activity_2@10": "3d76a17b22592b4acb04e1a517af2841975e26f9799dcc1ba45455d7a1f08d54",
    "front_right_activity_2@30": "f8b2a6eb94a114efa2cac46a3a2b6fe1e2116a014a128dad8f2f4659361007d6",
    "front_right_activity_3@10": "d8b4f480695ed0b6ebdf15c803c1d813428f0ef834a0aef551942b961208435a",
    "front_right_activity_3@30": "9b9a70fad5b3492e8b00006c61f9ebc8505ebe2b36fd7ade2b454a57a58db763",
    "vehicle_following@10": "3a56b915e6f3982777aae99b3768e2f52a562ec19a97561a30a2b12474a0b506",
    "vehicle_following@30": "697a7176d214e3854b052492d09fefc5d39aba4be91e1356f2a9ddf602ffc959",
}
PINNED_SIMULATE_DIGESTS = {
    "cut_in/budget90": "9546b8ed234e0ed69e2d57d5cbc3273cead914b423a772aec7c6ef0c094822a8",
    "cut_in/default": "518c262b6a5b321ae5c775f472dd18cfd73ef4c5a934c875b6a6f45b3c0b3063",
    "cut_in/seed3": "518c262b6a5b321ae5c775f472dd18cfd73ef4c5a934c875b6a6f45b3c0b3063",
    "cut_out/budget90": "125c1798f25a3023cfc83db38079a2e0810a06617005d3aae82dc39289f77989",
    "cut_out/default": "e6f31972d9579e7fb61a8c2edc89ef9500edda9d37ac286634b0c29ab5d0c3f4",
    "cut_out/seed3": "e6f31972d9579e7fb61a8c2edc89ef9500edda9d37ac286634b0c29ab5d0c3f4",
    "front_right_activity_2/budget90": "857bd6d3613d5c3ef8e149937287ea6047ee0d8758fd0ca2d1e58319ddec613a",
    "front_right_activity_2/default": "2f61490fc7b362df09368f40f7d5c95700fc00ed83afc595affef0628232287e",
    "front_right_activity_2/seed3": "2f61490fc7b362df09368f40f7d5c95700fc00ed83afc595affef0628232287e",
}


# sha256 of the CSV that sweep writes over 0-80 mph in 26 steps at a 30 m
# and a 100 m budget: default params, and the fixed policy at l0 0.1 s
PINNED_SWEEP_DIGESTS = {
    "30/default": "e8f871a29d43fe7ee66ea0a1ad3bfa8a877c3181186f922722e803282bf181ee",
    "30/fixed_l0": "d97ab716bbcbcf6c910fd9519cc9f4b23eb94f046852c669190f85c7ba0cd8a3",
    "100/default": "ac489ab2ce6de9d8473cf4828faec95dde63da7c63bbbcbefc57c8eee979fda1",
    "100/fixed_l0": "209a3f0fa31a332edd4f03ab47bc288064a457068e77cde58e6ce84b3dc843c1",
}


class TestOutputBytes:
    """The bytes the CLI writes: one ``json.dumps(record, sort_keys=True)`` per line."""

    def test_analyze_jsonl_is_pinned(self, tmp_path, family_traces):
        digests = {}
        for (family, rate), trace in family_traces.items():
            trace_path, out = tmp_path / "t.jsonl", tmp_path / "report.jsonl"
            save_trace(trace, trace_path)
            assert main(["analyze", "--trace", str(trace_path), "--out", str(out)]) == 0
            digests[f"{family}@{rate:g}"] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == PINNED_ANALYZE_DIGESTS

    def test_simulate_jsonl_is_pinned(self, tmp_path):
        digests = {}
        for family in ("cut_in", "cut_out", "front_right_activity_2"):
            script = tmp_path / "s.json"
            save_script(generate_scenario(family), script)
            for name, extra in [("default", []), ("budget90", ["--budget", "90"]),
                                ("seed3", ["--seed", "3"])]:
                out = tmp_path / "log.jsonl"
                main(["simulate", "--script", str(script), "--out", str(out), *extra])
                digests[f"{family}/{name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == PINNED_SIMULATE_DIGESTS

    def test_sweep_csv_is_pinned(self, tmp_path):
        fixed = tmp_path / "fixed.json"
        fixed.write_text(json.dumps({"l0_policy": "fixed", "l0": 0.1}))
        digests = {}
        for sn in ("30", "100"):
            for name, extra in [("default", []), ("fixed_l0", ["--params", str(fixed)])]:
                out = tmp_path / "grid.csv"
                argv = ["sweep", "--sn", sn, "--ve0-max", "80mph", "--van-max", "80mph"]
                assert main([*argv, "--out", str(out), *extra]) == 0
                digests[f"{sn}/{name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == PINNED_SWEEP_DIGESTS

    def test_lines_equal_json_dumps(self):
        records = [
            {"tick": 0, "t": -0.0, "fpr": 0.0},
            {"tick": 1, "t": 0.0, "fpr": -0.0},
            {"tick": 2, "t": -0.0, "fpr": 0.0},
            {"tick": 3, "t": math.nan, "fpr": math.nan},
            {"tick": 4, "t": math.inf, "fpr": -math.inf},
            {"tick": 5, "t": math.nan, "fpr": math.inf},
            {"tick": 6, "value": 1},
            {"tick": 7, "value": 1.0},
            {"tick": 8, "value": True},
            {"tick": 9, "value": 1},
            {"tick": 10, "value": False},
            {"tick": 11, "value": 0},
            {"tick": 12, "actor": "caméra", "binding_actor": "前"},
            {"tick": 13, "actor": 'say "hi"', "binding_actor": "back\\slash"},
            {"tick": 14, "actor": None, "binding_actor": None},
            {"t": 1.5, "alarm": {"reason": "starved", "camera": "rear", "fps": [2.0, 1.0]}},
            {"tick": 15, "t": 1.5, "actor": "caméra"},
            {"value": 1.0, "tick": 16},
            {"only": "one key"},
            {},
            {"tick": 17, "values": (1.0, -0.0)},
            {"tick": 18, "values": (1.0, 0.0)},
            {"tick": 19, "100%": "%s", "%d": 5},
        ]
        buf = io.StringIO()
        cli._emit_records(buf, records, {"ticks": 19})
        want = [json.dumps(rec, sort_keys=True) for rec in records]
        assert buf.getvalue().splitlines() == want + ['{"summary": {"ticks": 19}}']


def simulate_records(result):
    """A run's output records as dicts, camera by camera and alarm by alarm."""
    records = []
    alarm_iter = iter(result.alarms)
    pending = next(alarm_iter, None)
    for i, reports in enumerate(result.camera_log):
        t = result.allocations[i][0]
        for cid in sorted(reports):
            rec = report.camera_record(i, t, cid, reports[cid])
            rec["allocated_fps"] = result.allocations[i][1][cid]
            records.append(rec)
        while pending is not None and pending[0] <= t:
            records.append({"t": pending[0], "alarm": pending[1].to_dict()})
            pending = next(alarm_iter, None)
    return records


def json_text(records, summary=None):
    lines = [json.dumps(rec, sort_keys=True) + "\n" for rec in records]
    if summary is not None:
        lines.append(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return "".join(lines)


# values that compare equal but print differently, and values json spells out
NUMBERS = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 0.1, 30, math.nan, -math.inf])
IDS = st.text(alphabet='ab"\\%é前', min_size=1, max_size=3)
REPORTS = st.builds(
    FprReport,
    fpr=NUMBERS,
    latency=st.none() | NUMBERS,
    binding_actor=st.none() | IDS,
    infeasible=st.sampled_from([False, True, 0, 1]),
)
# (time, three actor latencies, three camera reports, three allocated rates)
TICKS = st.tuples(
    st.sampled_from([-0.0, 0.0, 1, 1.0, 1 / 30, 1e-7, 1e16]),
    st.lists(st.none() | NUMBERS, min_size=3, max_size=3),
    st.lists(REPORTS, min_size=3, max_size=3),
    st.lists(NUMBERS, min_size=3, max_size=3),
)
ONE = FprReport(1, 1, "a", False)
EQUAL_BUT_NOT_ALIKE = [
    (-0.0, [1, None, 1.0], [ONE, FprReport(1.0, 1.0, "a", False), ONE], [1, 1.0, True]),
    (0.0, [1.0, True, 1], [FprReport(True, 1, "a", 0), ONE, ONE], [1.0, True, 1]),
    (0.1, [0.0, -0.0, 0], [FprReport(0.0, -0.0, None, 0), FprReport(-0.0, 0.0, None, False)] * 2,
     [-0.0, 0.0, False]),
]


class TestTickLines:
    """The per-tick lines the CLI writes from memoised heads and per-tick tails."""

    @given(
        actors=st.lists(IDS, max_size=3, unique=True).map(sorted),
        cameras=st.lists(IDS, max_size=3, unique=True),
        ticks=st.lists(TICKS, max_size=6),
        repeat=st.integers(1, 30),
    )
    @example(actors=["前", 'a"'], cameras=["\\%", "b"], ticks=EQUAL_BUT_NOT_ALIKE, repeat=1)
    @example(actors=["a"], cameras=["b"], ticks=EQUAL_BUT_NOT_ALIKE, repeat=30)
    @settings(max_examples=200, deadline=None)
    def test_encoder_equals_json_dumps(self, actors, cameras, ticks, repeat):
        ticks = ticks * repeat
        times = [t for t, *_ in ticks]
        analysis = report.AnalysisResult(
            times,
            tuple(actors),
            [lats[: len(actors)] for _, lats, _, _ in ticks],
            [dict(zip(cameras, reps)) for _, _, reps, _ in ticks],
            {},
        )
        lines = cli._tick_lines(times, cli._analysis_heads(analysis))
        assert "".join(lines) == json_text(analysis.records)
        alarms = [
            (t, AlarmEvent(((cid, 2.0, 1.0),), "deficit"))
            for k, (t, cid) in enumerate(zip(times, cameras * len(times)))
            if k % 7 == 3
        ]
        run = RunResult(
            script=None,
            trace=None,
            collision=None,
            brake_time=None,
            alarms=alarms,
            camera_log=analysis.reports,
            allocations=[(t, dict(zip(cameras, fps))) for t, _, _, fps in ticks],
        )
        lines = cli._tick_lines(times, cli._simulation_heads(run), alarms)
        assert "".join(
            json_text([rec]) if isinstance(rec, dict) else rec for rec in lines
        ) == json_text(simulate_records(run))

    def test_analyze_lines_equal_the_records_view(self, tmp_path, family_traces):
        traces = list(family_traces.values()) + [
            synthetic_trace(40, actors=()),
            ScenarioTrace(dt=0.1, ticks=(), cameras=DEFAULT_CAMERA_RIG),
        ]
        trace_path, out = tmp_path / "t.jsonl", tmp_path / "report.jsonl"
        for trace in traces:
            save_trace(trace, trace_path)
            assert main(["analyze", "--trace", str(trace_path), "--out", str(out)]) == 0
            result = analyze_trace(load_trace(trace_path), PARAMS)
            assert out.read_text() == json_text(result.records, result.summary)

    def test_simulate_lines_equal_the_records(self, tmp_path):
        script = generate_scenario("front_right_activity_2")
        script_path, out = tmp_path / "s.json", tmp_path / "log.jsonl"
        save_script(script, script_path)
        argv = ["simulate", "--script", str(script_path), "--budget", "90", "--out", str(out)]
        assert main(argv) == 0
        result = run_scenario(script, PARAMS, adaptive=True, budget=Budget(90), seed=0)
        assert result.alarms
        lines = out.read_text().splitlines(keepends=True)
        assert "".join(lines[:-1]) == json_text(simulate_records(result))


PARAM_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.sampled_from([0.05, 0.5, 1, 2.5, 10, 30.0, "min"]),
)
PARAM_KEYS = [f.name for f in dataclasses.fields(ModelParams) if f.init] + ["l0", "latency_grid"]
PARAM_OBJECTS = st.dictionaries(st.sampled_from(PARAM_KEYS), PARAM_VALUES)
PARAM_TEXTS = st.one_of(st.text(), PARAM_VALUES.map(json.dumps), PARAM_OBJECTS.map(json.dumps))


@given(text=PARAM_TEXTS)
@settings(max_examples=300, deadline=None)
def test_any_params_text_loads_or_raises_input_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("params") / "p.json"
    path.write_text(text)
    try:
        params, l0 = cli.load_params(str(path))
    except cli.InputError:
        return
    ego = KinematicState(0.0, 0.0, 12.0)
    traj = straight_line_trajectory(KinematicState(40.0, 0.0, 3.0), duration=5.0)
    tolerable_latency(ego, traj, params.latency_min if l0 is None else l0, params)
