"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Inputs are built from the benchmark seed with public ``safefpr`` types only;
the program under test receives nothing but the generated inputs. Every call
into the program goes through a module attribute (``model.evaluate_scene``,
never a name imported with ``from``), so the traced run can wrap it.

A workload is a class with four steps:

* ``setup(seed)`` builds the inputs (timed, repeated, reported as setup_s);
* ``run_job(inputs, op_done)`` runs one job in a closed loop over its
  operations, calling ``op_done(t0)`` as each ends, with its start time
  from ``perf_counter_ns``;
* ``record(raw)`` reduces a job's output to what the check needs, outside
  every timed region, at a size that does not grow with the job count;
* ``check(inputs, golden)`` returns ``(attempted, failed, info)`` over every
  recorded job.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import statistics
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import safefpr.cli as cli
import safefpr.engine as engine
import safefpr.geometry as geometry
import safefpr.model as model
import safefpr.oracle as oracle
import safefpr.predictor as predictor
import safefpr.report as report
import safefpr.scenarios as scenarios
import safefpr.scheduler as scheduler
import safefpr.trace as trace
import safefpr.types as types

PARAMS = types.ModelParams()
FIXED = PARAMS.replace(l0_policy=types.L0_FIXED)
CAMERAS = geometry.DEFAULT_CAMERA_RIG
RECORD_FPR = 30.0  # Hz, fixed rate at which set-up records scene states
# the search grid's latencies compare exactly; the oracle may land one ulp away
ORACLE_SLACK = 1e-12


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: float) -> float:
    """q-th percentile, interpolated between order statistics; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _jitter(rng: random.Random, value: float, frac: float) -> float:
    return value * (1.0 + rng.uniform(-frac, frac))


def _record_states(script: scenarios.ScenarioScript) -> trace.ScenarioTrace:
    """States of a scripted scene, recorded by the engine at a fixed rate."""
    run = engine.run_scenario(script, PARAMS, frame_rate=RECORD_FPR)
    expected = int(round(script.duration / engine.ENGINE_DT)) + 1
    if run.collision is not None or len(run.trace.ticks) != expected:
        raise RuntimeError(
            f"scene {script.name!r} ended early: collision {run.collision}, "
            f"{len(run.trace.ticks)} of {expected} ticks"
        )
    return run.trace


def _golden_state(golden, ok: bool) -> str:
    return "absent" if golden is None else ("match" if ok else "mismatch")


def _violates_oracle(latency: float | None, best: float | None) -> bool:
    """A search latency the exhaustive scan does not back."""
    return latency is not None and (best is None or latency > best + ORACLE_SLACK)


class Repeats:
    """Outputs of repeated jobs, held at a size that does not depend on how
    many jobs ran, so the harness's own memory does not grow with speed.

    The first job's output elements are kept as the reference; each later
    job only adds, per element, whether it differed from the reference.
    """

    def __init__(self) -> None:
        self.first: list | None = None
        self.jobs = 0
        self.differ = array("q")  # per element: later jobs that differed

    def add(self, elements: list) -> None:
        if self.first is None:
            self.first = elements
            self.differ = array("q", [0] * len(elements))
        else:
            for k, (got, want) in enumerate(zip(elements, self.first)):
                self.differ[k] += got != want
        self.jobs += 1

    @property
    def attempted(self) -> int:
        return self.jobs * len(self.first)

    def failed(self, first_bad: Callable[[int], bool]) -> int:
        """Failed elements over every job: an element fails where the first
        job's fails ``first_bad``, or where it differs from the first job's."""
        return sum(self.jobs if first_bad(k) else n for k, n in enumerate(self.differ))


# --------------------------------------------------------------------------
# online_dense: the per-tick online estimation step
# --------------------------------------------------------------------------

DENSE_BUDGET = scheduler.Budget(90.0)
DENSE_PREDICTOR = predictor.PredictorConfig()
DENSE_L0 = 1.0 / PARAMS.fpr_bounds()[1]  # the adaptive engine's reference latency
DENSE_ORACLE_EVERY = 24  # ticks between ticks whose searches the oracle re-checks


def dense_scene_script(seed: int) -> scenarios.ScenarioScript:
    """12 actors around an ego cruising in lane 1 of a 4-lane road.

    Five easy actors (far ahead and faster, or falling behind) need 1 Hz;
    two brake hard in the adjacent lanes, one merges into the ego lane far
    ahead, one weaves behind, and three ride alongside, whose braking
    futures admit no safe latency. Nothing enters the ego lane close
    enough to make the ego brake, so the whole scene stays in motion. The
    seed jitters gaps, speeds and event times by a few percent.
    """
    rng = random.Random(seed)

    def j(value: float, frac: float = 0.05) -> float:
        return _jitter(rng, value, frac)

    v = j(25.0, 0.03)
    actors = [
        scenarios.ActorScript(f"easy{k}", lane=lane, gap=j(gap), speed=j(share * v, 0.03))
        for k, (lane, gap, share) in enumerate(
            [(2, 130.0, 1.25), (3, 150.0, 1.15), (0, 110.0, 1.3), (1, 160.0, 1.2), (3, -90.0, 0.7)]
        )
    ]
    ev = scenarios.ActorEvent
    actors += [
        scenarios.ActorScript(
            "brake_left", lane=2, gap=j(40.0), speed=j(0.95 * v, 0.03),
            events=(ev(at=j(2.0), kind="speed_change", target_speed=j(0.4 * v), rate=j(6.0)),),
        ),
        scenarios.ActorScript(
            "brake_right", lane=0, gap=j(55.0), speed=j(0.9 * v, 0.03),
            events=(ev(at=j(3.5), kind="speed_change", target_speed=j(0.3 * v), rate=j(7.0)),),
        ),
        scenarios.ActorScript(
            "merge_in", lane=2, gap=j(70.0), speed=j(1.15 * v, 0.03),
            events=(ev(at=j(1.0), kind="lane_change", to_lane=1, duration=j(2.0)),),
        ),
        scenarios.ActorScript(
            "weave", lane=3, gap=j(-20.0), speed=j(1.1 * v, 0.03),
            events=(ev(at=j(1.5), kind="lane_change", to_lane=2, duration=j(2.0)),),
        ),
    ]
    actors += [
        scenarios.ActorScript(f"side{k}", lane=lane, gap=j(gap), speed=j(v, 0.01))
        for k, (lane, gap) in enumerate([(2, 2.0), (0, 8.0), (3, 5.0)])
    ]
    return scenarios.ScenarioScript(
        name=f"dense_{seed}",
        road=scenarios.RoadSpec(lanes=4),
        ego_lane=1,
        ego_speed=v,
        duration=6.0,
        actors=tuple(actors),
    )


@dataclass(frozen=True)
class DenseInputs:
    ticks: tuple[trace.TickRecord, ...]


def _tick_row(reports, allocation, alarm) -> list:
    """One tick of the FPR and allocation stream, in primitives."""
    cams = [
        [cid, rep.fpr, rep.latency, rep.binding_actor, rep.infeasible,
         allocation.per_camera_fps[cid]]
        for cid, rep in sorted(reports.items())
    ]
    alarms = [a.to_dict() if a is not None else None for a in (alarm, allocation.alarm)]
    return [cams, alarms]


class OnlineDense:
    name = "online_dense"
    op_name = "tick"

    def __init__(self) -> None:
        self.rows = Repeats()  # one JSON row per tick
        self.oracle_rows: dict[int, dict] = {}  # tick -> per-actor latency, first pass

    def setup(self, seed: int) -> DenseInputs:
        return DenseInputs(ticks=_record_states(dense_scene_script(seed)).ticks)

    def describe(self, inp: DenseInputs) -> dict:
        samples = int(math.ceil(DENSE_PREDICTOR.horizon / predictor.SAMPLE_DT)) + 1
        return {
            "ticks": len(inp.ticks),
            "actors": len(inp.ticks[0].actors),
            "cameras": len(CAMERAS),
            "trajectories_per_tick": len(inp.ticks[0].actors) * DENSE_PREDICTOR.num_variants,
            "samples_per_trajectory": samples,
            "budget_fps": DENSE_BUDGET.total_fps,
        }

    def ops_per_job(self, inp: DenseInputs) -> int:
        return len(inp.ticks)

    def run_job(self, inp: DenseInputs, op_done: Callable[[int], None]):
        cap = PARAMS.fpr_bounds()[1]
        rates = {c.camera_id: cap for c in CAMERAS}
        out = []
        for tick in inp.ticks:
            t0 = perf_counter_ns()
            fans = {
                aid: predictor.predict_trajectories(st, DENSE_PREDICTOR)
                for aid, st in tick.actors.items()
            }
            per_actor, reports = model.evaluate_scene(tick.ego, fans, CAMERAS, DENSE_L0, FIXED)
            required = {cid: rep.fpr for cid, rep in reports.items()}
            flagged = frozenset(cid for cid, rep in reports.items() if rep.infeasible)
            alarm = scheduler.safety_check(required, rates, flagged)
            allocation = scheduler.allocate(required, DENSE_BUDGET, PARAMS)
            rates = dict(allocation.per_camera_fps)
            op_done(t0)
            out.append((per_actor, reports, allocation, alarm))
        return out

    def record(self, raw) -> None:
        if not self.rows.jobs:
            self.oracle_rows = {
                k: {aid: est.latency for aid, est in raw[k][0].items()}
                for k in range(0, len(raw), DENSE_ORACLE_EVERY)
            }
        self.rows.add([json.dumps(_tick_row(*row[1:])) for row in raw])

    def _oracle_failures(self, inp: DenseInputs) -> set[int]:
        """Sampled ticks where an actor's latency beats the oracle on one of its futures."""
        bad = set()
        for k, latencies in self.oracle_rows.items():
            tick = inp.ticks[k]
            for aid, latency in latencies.items():
                fan = predictor.predict_trajectories(tick.actors[aid], DENSE_PREDICTOR)
                if any(
                    _violates_oracle(
                        latency,
                        oracle.oracle_best_latency(tick.ego, tr, DENSE_L0, FIXED).best_latency,
                    )
                    for tr in fan
                ):
                    bad.add(k)
        return bad

    def check(self, inp: DenseInputs, golden: str | None) -> tuple[int, int, dict]:
        lo, hi = PARAMS.fpr_bounds()
        reference = self.rows.first
        golden_ok = golden is None or sha256("\n".join(reference)) == golden
        oracle_bad = self._oracle_failures(inp)

        def first_bad(k: int) -> bool:
            cams, _ = json.loads(reference[k])
            return (
                not golden_ok
                or k in oracle_bad
                or sum(c[5] for c in cams) > DENSE_BUDGET.total_fps + 1e-6
                or any(not lo <= c[1] <= hi for c in cams)
            )

        info = {
            "golden": _golden_state(golden, golden_ok),
            "oracle_checked_ticks": len(self.oracle_rows),
            "oracle_violations": len(oracle_bad),
        }
        return self.rows.attempted, self.rows.failed(first_bad), info

    def golden_from(self, table: dict, seed: int) -> str | None:
        return table.get(self.name, {}).get(str(seed))

    def golden_into(self, table: dict, seed: int) -> None:
        table.setdefault(self.name, {})[str(seed)] = sha256("\n".join(self.rows.first))


# --------------------------------------------------------------------------
# analyze_long: `safefpr analyze` over a long recorded trace
# --------------------------------------------------------------------------

LONG_DURATION = 20.0  # s, 601 ticks at 30 Hz
LONG_ORACLE_SAMPLES = 24  # (tick, actor) pairs whose latency the oracle re-checks


def long_trace_script(seed: int) -> scenarios.ScenarioScript:
    """Six actors over 20 s of 3-lane highway, the ego cruising throughout.

    A faster lead that settles and speeds up again, an adjacent car that
    brakes hard and recovers, a far car and a merger that change into the
    ego lane well ahead and leave again, and two cars overtaking. The seed
    jitters gaps, speeds and event times by a few percent.
    """
    rng = random.Random(seed)

    def j(value: float, frac: float = 0.05) -> float:
        return _jitter(rng, value, frac)

    v = j(27.0, 0.03)
    ev = scenarios.ActorEvent
    actors = (
        scenarios.ActorScript(
            "lead", lane=1, gap=j(70.0), speed=j(1.05 * v, 0.02),
            events=(
                ev(at=j(6.0), kind="speed_change", target_speed=j(v, 0.01), rate=j(2.0)),
                ev(at=j(14.0), kind="speed_change", target_speed=j(1.2 * v), rate=j(1.5)),
            ),
        ),
        scenarios.ActorScript(
            "left", lane=2, gap=j(10.0), speed=j(v, 0.02),
            events=(
                ev(at=j(8.0), kind="speed_change", target_speed=j(0.6 * v), rate=j(5.0)),
                ev(at=j(18.0), kind="speed_change", target_speed=j(1.1 * v), rate=j(2.0)),
            ),
        ),
        scenarios.ActorScript("right", lane=0, gap=j(-15.0), speed=j(1.1 * v, 0.02)),
        scenarios.ActorScript(
            "merger", lane=0, gap=j(120.0), speed=j(v, 0.01),
            events=(
                ev(at=j(12.0), kind="lane_change", to_lane=1, duration=j(2.5)),
                ev(at=j(20.0), kind="lane_change", to_lane=0, duration=j(2.5)),
            ),
        ),
        scenarios.ActorScript(
            "far", lane=2, gap=j(200.0), speed=j(0.9 * v, 0.02),
            events=(ev(at=j(5.0), kind="lane_change", to_lane=1, duration=j(3.0)),),
        ),
        scenarios.ActorScript("behind", lane=2, gap=j(-40.0), speed=j(1.15 * v, 0.02)),
    )
    return scenarios.ScenarioScript(
        name=f"long_{seed}",
        road=scenarios.RoadSpec(lanes=3),
        ego_lane=1,
        ego_speed=v,
        duration=LONG_DURATION,
        actors=actors,
    )


@dataclass(frozen=True)
class LongInputs:
    trace_path: Path
    out_path: Path
    ticks: int
    actors: int


class AnalyzeLong:
    name = "analyze_long"
    op_name = "analyze call"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.runs = Repeats()  # one (exit code, output digest) per call
        self.first: bytes = b""

    def setup(self, seed: int) -> LongInputs:
        recorded = _record_states(long_trace_script(seed))
        path = self.workdir / "long_trace.jsonl"
        trace.save_trace(recorded, path)
        return LongInputs(
            trace_path=path,
            out_path=self.workdir / "analyze_out.jsonl",
            ticks=len(recorded.ticks),
            actors=len(recorded.actor_ids),
        )

    def describe(self, inp: LongInputs) -> dict:
        t = inp.ticks
        return {
            "ticks": t,
            "actors": inp.actors,
            "cameras": len(CAMERAS),
            "ground_truth_samples": inp.actors * (t * (t + 1) // 2 + 1),
            "trace_bytes": inp.trace_path.stat().st_size,
        }

    def ops_per_job(self, inp: LongInputs) -> int:
        return 1

    def run_job(self, inp: LongInputs, op_done: Callable[[int], None]):
        t0 = perf_counter_ns()
        code = cli.main(["analyze", "--trace", str(inp.trace_path), "--out", str(inp.out_path)])
        op_done(t0)
        return code, inp.out_path

    def record(self, raw) -> None:
        code, out_path = raw
        data = out_path.read_bytes()
        if not self.runs.jobs:
            self.first = data
        self.runs.add([(code, sha256(data))])

    def _oracle_violations(self, inp: LongInputs) -> int:
        """Re-check sampled (tick, actor) latencies of the first output."""
        recorded = trace.load_trace(inp.trace_path)
        latency = {}
        for line in self.first.decode().splitlines():
            rec = json.loads(line)
            if "actor" in rec:
                latency[(rec["tick"], rec["actor"])] = rec["latency"]
        ids = recorded.actor_ids
        l0 = recorded.operating_latency()
        violations = 0
        for i in range(LONG_ORACLE_SAMPLES):
            k = (i * (inp.ticks - 1)) // (LONG_ORACLE_SAMPLES - 1)
            aid = ids[i % len(ids)]
            truth = trace.ground_truth_trajectory(recorded, aid, k)
            best = oracle.oracle_best_latency(recorded.ticks[k].ego, truth, l0, FIXED).best_latency
            violations += _violates_oracle(latency.get((k, aid), math.inf), best)
        return violations

    def _shape_ok(self, inp: LongInputs) -> bool:
        lines = self.first.decode().splitlines()
        if len(lines) != inp.ticks * (inp.actors + len(CAMERAS)) + 1:
            return False
        return json.loads(lines[-1])["summary"]["ticks"] == inp.ticks

    def check(self, inp: LongInputs, golden: str | None) -> tuple[int, int, dict]:
        code, digest = self.runs.first[0]
        golden_ok = golden is None or digest == golden
        violations = self._oracle_violations(inp)
        first_ok = code == 0 and golden_ok and violations == 0 and self._shape_ok(inp)
        info = {
            "golden": _golden_state(golden, golden_ok),
            "oracle_checked_pairs": LONG_ORACLE_SAMPLES,
            "oracle_violations": violations,
        }
        return self.runs.attempted, self.runs.failed(lambda k: not first_ok), info

    def golden_from(self, table: dict, seed: int) -> str | None:
        return table.get(self.name, {}).get(str(seed))

    def golden_into(self, table: dict, seed: int) -> None:
        table.setdefault(self.name, {})[str(seed)] = self.runs.first[0][1]


# --------------------------------------------------------------------------
# validate: sweeps, search-vs-oracle corpus, minimum required rates
# --------------------------------------------------------------------------

SWEEP_SEPARATIONS = (30.0, 100.0)  # m
SWEEP_STEPS = 26
SWEEP_TOP = 80.0 * types.MPH_TO_MPS
CORPUS_SIZE = 1000
CORPUS_L0 = 1.0 / 30.0  # unused by the candidate policy, passed as the CLI would


def validation_corpus(seed: int):
    """Seeded (ego, 2-sample trajectory) cases under the candidate l0 policy.

    Half the actors hold a fixed separation while reporting a speed (the
    sweep's synthetic actor); the other half move at constant velocity from
    a random pose. The ego drives along +x.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(CORPUS_SIZE):
        ego = types.KinematicState(0.0, 0.0, rng.uniform(0.0, 35.0), rng.uniform(-4.0, 2.0))
        r = rng.uniform(5.0, 150.0)
        bearing = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.0, 35.0)
        if i % 2:
            traj = types.constant_separation_trajectory(r, speed, PARAMS.horizon, bearing)
        else:
            start = types.KinematicState(
                r * math.cos(bearing), r * math.sin(bearing), speed,
                heading=rng.uniform(-math.pi, math.pi),
            )
            traj = types.straight_line_trajectory(start, PARAMS.horizon, PARAMS.horizon)
        cases.append((ego, traj))
    return tuple(cases)


@dataclass(frozen=True)
class ValidateInputs:
    speeds: tuple[float, ...]
    corpus: tuple
    families: tuple[tuple[str, scenarios.ScenarioScript], ...]


class Validate:
    name = "validate"
    op_name = "corpus case"

    def __init__(self) -> None:
        self.sweeps = Repeats()  # CSV digest per separation
        self.cases = Repeats()  # per case: [search, oracle best, scan ok]
        self.mrf = Repeats()  # (family, value) per family

    def setup(self, seed: int) -> ValidateInputs:
        speeds = tuple(SWEEP_TOP * i / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS))
        families = tuple((f, scenarios.generate_scenario(f)) for f in scenarios.list_families())
        return ValidateInputs(speeds=speeds, corpus=validation_corpus(seed), families=families)

    def describe(self, inp: ValidateInputs) -> dict:
        return {
            "sweeps": len(SWEEP_SEPARATIONS),
            "sweep_cells": len(SWEEP_SEPARATIONS) * len(inp.speeds) ** 2,
            "corpus_cases": len(inp.corpus),
            "samples_per_trajectory": 2,
            "families": len(inp.families),
            "mrf_engine_runs": 30 * len(inp.families),
        }

    def ops_per_job(self, inp: ValidateInputs) -> int:
        return len(inp.corpus) + len(SWEEP_SEPARATIONS) + len(inp.families)

    def run_job(self, inp: ValidateInputs, op_done: Callable[[int], None]):
        csvs = []
        for sn in SWEEP_SEPARATIONS:
            grid = report.sweep_grid(sn, inp.speeds, inp.speeds, PARAMS)
            buf = io.StringIO()
            report.write_sweep_csv(grid, inp.speeds, inp.speeds, PARAMS, buf)
            csvs.append(buf.getvalue())
        cases = []
        for ego, traj in inp.corpus:
            t0 = perf_counter_ns()
            est = model.tolerable_latency(ego, traj, CORPUS_L0, PARAMS)
            verdict = oracle.oracle_best_latency(ego, traj, CORPUS_L0, PARAMS)
            scan_ok = est.infeasible or oracle.feasible_latency_scan(
                ego, traj, CORPUS_L0, est.latency, PARAMS
            )
            op_done(t0)
            cases.append([est.latency, verdict.best_latency, scan_ok])
        mrf = {f: oracle.scenario_mrf(script, PARAMS) for f, script in inp.families}
        return csvs, cases, mrf

    def record(self, raw) -> None:
        csvs, cases, mrf = raw
        self.sweeps.add([sha256(c) for c in csvs])
        self.cases.add(cases)
        self.mrf.add(sorted(mrf.items()))

    def check(self, inp: ValidateInputs, golden: dict | None) -> tuple[int, int, dict]:
        """``golden`` holds ``sweeps`` and ``mrf``, and ``corpus`` for recorded seeds."""
        golden = golden or {}
        sweeps, cases, mrf_items = self.sweeps.first, self.cases.first, self.mrf.first
        mrf = dict(mrf_items)
        want_sweeps = golden.get("sweeps", sweeps)
        want_mrf = golden.get("mrf", mrf)
        want_corpus = golden.get("corpus")
        corpus_ok = want_corpus is None or sha256(json.dumps(cases)) == want_corpus

        def case_bad(k: int) -> bool:
            search, best, scan_ok = cases[k]
            return not corpus_ok or _violates_oracle(search, best) or not scan_ok

        failed = (
            self.sweeps.failed(lambda k: sweeps[k] != want_sweeps[k])
            + self.cases.failed(case_bad)
            + self.mrf.failed(lambda k: want_mrf.get(mrf_items[k][0]) != mrf_items[k][1])
        )
        info = {
            "golden": {
                "sweeps": _golden_state(golden.get("sweeps"), want_sweeps == sweeps),
                "mrf": _golden_state(golden.get("mrf"), want_mrf == mrf),
                "corpus": _golden_state(want_corpus, corpus_ok),
            },
            "oracle_violations": sum(
                _violates_oracle(search, best) or not scan_ok for search, best, scan_ok in cases
            ),
        }
        attempted = self.sweeps.attempted + self.cases.attempted + self.mrf.attempted
        return attempted, failed, info

    def golden_from(self, table: dict, seed: int) -> dict:
        entry = table.get(self.name, {})
        golden = {k: entry[k] for k in ("sweeps", "mrf") if k in entry}
        corpus = entry.get("corpus", {}).get(str(seed))
        if corpus is not None:
            golden["corpus"] = corpus
        return golden

    def golden_into(self, table: dict, seed: int) -> None:
        """Sweeps and MRF values do not depend on the seed; the corpus does."""
        entry = table.setdefault(self.name, {})
        entry["sweeps"] = self.sweeps.first
        entry["mrf"] = dict(self.mrf.first)
        entry.setdefault("corpus", {})[str(seed)] = sha256(json.dumps(self.cases.first))


def make(name: str, workdir: Path):
    if name == OnlineDense.name:
        return OnlineDense()
    if name == AnalyzeLong.name:
        return AnalyzeLong(workdir)
    if name == Validate.name:
        return Validate()
    raise ValueError(f"unknown workload {name!r}")

