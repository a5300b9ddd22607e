"""Traced mode: spans around the calls into each ``safefpr`` layer.

Layers are the ``safefpr`` modules, timed only from outside: each traced
public function is wrapped once, and the wrapper replaces the function under
every name bound to it in a loaded ``safefpr`` module, the defining module
and each consumer that imported it with ``from .x import f``. Patching
``x.f`` alone would miss those bindings. ``uninstall`` restores the
originals.

Which end-to-end metric each layer should move, and on which workload:

  predictor, types, scheduler  op_ms.p50 and wall_s on online_dense
  model                        op_ms.p50 on online_dense, wall_s on analyze_long
                               and validate
  geometry                     op_ms.p50 on online_dense
  trace, report, cli           wall_s on analyze_long (report.sweep_* on validate)
  oracle                       op_ms.p50 and wall_s on validate
  engine                       wall_s on validate, setup_s on every workload

Spans stay in memory, in compact columns, and are written out when the run
ends. A span's self time is its duration minus that of its child spans.
Counts and seconds are reported per job (one ``job`` span per job);
percentiles are over every span of the layer. Layer times exclude the speed
probe's time but, unlike the end-to-end times, are not scaled to the
reference machine speed.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from safefpr.engine import ENGINE_DT
from workloads import percentile

JOB = "job"


def _fan_samples(args, kwargs, fan) -> int:
    return sum(len(traj.samples) for traj in fan)


def _search(args, kwargs, est) -> tuple[int, bool, bool, int]:
    """(grid candidates tried, first candidate won, infeasible, trajectory samples)."""
    traj = args[1] if len(args) > 1 else kwargs["traj"]
    params = args[3] if len(args) > 3 else kwargs["params"]
    grid = params.latency_grid
    if est.latency is None:
        return len(grid), False, True, len(traj.samples)
    index = grid.index(est.latency)
    return index + 1, index == 0, False, len(traj.samples)


def _raised_alarm(args, kwargs, alarm) -> int:
    return int(alarm is not None)


def _allocation_alarm(args, kwargs, allocation) -> int:
    return int(allocation.alarm is not None)


def _samples(args, kwargs, traj) -> int:
    return len(traj.samples)


def _cells(args, kwargs, grid) -> int:
    return sum(len(row) for row in grid)


def _output_bytes(args, kwargs, code) -> int:
    """Size of the file a CLI command wrote with --out."""
    argv = args[0] if args else kwargs["argv"]
    if "--out" not in argv:
        return 0
    return Path(argv[argv.index("--out") + 1]).stat().st_size


def _engine_ticks(args, kwargs, run) -> int:
    """Ticks the run stepped, including the one that ended it by collision."""
    dt = kwargs.get("dt", ENGINE_DT)
    end = run.collision[0] if run.collision is not None else run.script.duration
    return int(round(end / dt)) + 1


# (span name, defining module, function, per-call count)
TRACED = (
    ("predictor.predict_trajectories", "safefpr.predictor", "predict_trajectories", _fan_samples),
    ("types.straight_line_trajectory", "safefpr.types", "straight_line_trajectory", None),
    ("model.evaluate_scene", "safefpr.model", "evaluate_scene", None),
    ("model.tolerable_latency", "safefpr.model", "tolerable_latency", _search),
    ("geometry.in_fov", "safefpr.geometry", "in_fov", None),
    ("scheduler.safety_check", "safefpr.scheduler", "safety_check", _raised_alarm),
    ("scheduler.allocate", "safefpr.scheduler", "allocate", _allocation_alarm),
    ("trace.load_trace", "safefpr.trace", "load_trace", None),
    ("trace.ground_truth_trajectory", "safefpr.trace", "ground_truth_trajectory", _samples),
    ("report.analyze_trace", "safefpr.report", "analyze_trace", None),
    ("report.sweep_grid", "safefpr.report", "sweep_grid", _cells),
    ("cli.main", "safefpr.cli", "main", _output_bytes),
    ("oracle.oracle_best_latency", "safefpr.oracle", "oracle_best_latency", None),
    ("oracle.feasible_latency_scan", "safefpr.oracle", "feasible_latency_scan", None),
    ("oracle.scenario_mrf", "safefpr.oracle", "scenario_mrf", None),
    ("engine.run_scenario", "safefpr.engine", "run_scenario", _engine_ticks),
)


class Tracer:
    """Installs the wrappers and stores their spans in compact columns.

    Span ``i`` is ``names[name_id[i]]``, ran from ``start[i]`` to ``end[i]``
    (ns) inside span ``parent[i]`` (-1 at top level), and ``counts[i]`` is
    its per-call count where the layer has one.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: dict[int, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, count):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                self.counts[i] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "safefpr" or n.startswith("safefpr.")]
        for name, module, attr, count in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._patched.append((mod, binding, original))

    def uninstall(self) -> None:
        for mod, binding, original in reversed(self._patched):
            setattr(mod, binding, original)
        self._patched.clear()

    @contextmanager
    def job(self):
        """Root span of one job; every layer span below it is its descendant."""
        i = self._open(self._id(JOB))
        try:
            yield
        finally:
            self._close(i)

    def write(self, path: Path) -> None:
        """One JSON list per span: name, start ns, end ns, parent, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, nid in enumerate(self.name_id):
                row = [self.names[nid], self.start[i], self.end[i], self.parent[i],
                       self.counts.get(i)]
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, probe_ns, extra: dict[str, tuple[float, str]]) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``, plus the given extras.

    ``probe_ns(t0, t1)`` is the time the speed probe took inside [t0, t1);
    it is subtracted from every span.
    """
    start, end, parent = tracer.start, tracer.end, tracer.parent
    took = [end[i] - start[i] - probe_ns(start[i], end[i]) for i in range(len(start))]
    child_ns = [0] * len(start)
    groups: dict[str, list[int]] = defaultdict(list)
    for i, nid in enumerate(tracer.name_id):
        groups[tracer.names[nid]].append(i)
        if parent[i] >= 0:
            child_ns[parent[i]] += took[i]
    jobs = max(1, len(groups[JOB]))

    def durations(name: str, unit_ns: float) -> list[float]:
        return [took[i] / unit_ns for i in groups[name]]

    def total_s(name: str) -> float:
        return sum(durations(name, 1e9)) / jobs

    def self_s(name: str) -> float:
        return sum(took[i] - child_ns[i] for i in groups[name]) / 1e9 / jobs

    def per_job(name: str) -> float:
        return len(groups[name]) / jobs

    def counts(name: str) -> list:
        return [tracer.counts[i] for i in groups[name]]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    searches = counts("model.tolerable_latency")
    best = set(groups["oracle.oracle_best_latency"])
    scans_in_best = sum(parent[i] in best for i in groups["oracle.feasible_latency_scan"])
    engine_s = sum(durations("engine.run_scenario", 1e9))

    m = {
        "predictor.fan_us.p50": (percentile(durations("predictor.predict_trajectories", 1e3), 50), "us"),
        "predictor.calls": (per_job("predictor.predict_trajectories"), "count"),
        "predictor.samples_emitted": (sum(counts("predictor.predict_trajectories")) / jobs, "count"),
        "types.straight_line_s": (self_s("types.straight_line_trajectory"), "s"),
        "model.evaluate_scene_ms.p50": (percentile(durations("model.evaluate_scene", 1e6), 50), "ms"),
        "model.evaluate_scene_ms.p99": (percentile(durations("model.evaluate_scene", 1e6), 99), "ms"),
        "model.search_us.p50": (percentile(durations("model.tolerable_latency", 1e3), 50), "us"),
        "model.search_us.p99": (percentile(durations("model.tolerable_latency", 1e3), 99), "us"),
        "model.searches": (per_job("model.tolerable_latency"), "count"),
        "model.grid_candidates_per_search": (mean(s[0] for s in searches), "count"),
        "model.first_candidate_frac": (mean(s[1] for s in searches), "ratio"),
        "model.infeasible_frac": (mean(s[2] for s in searches), "ratio"),
        "model.samples_per_search": (mean(s[3] for s in searches), "count"),
        "geometry.in_fov_calls": (per_job("geometry.in_fov"), "count"),
        "geometry.in_fov_s": (total_s("geometry.in_fov"), "s"),
        "scheduler.allocate_us.p50": (percentile(durations("scheduler.allocate", 1e3), 50), "us"),
        "scheduler.safety_check_us.p50": (
            percentile(durations("scheduler.safety_check", 1e3), 50), "us"),
        "scheduler.alarms": (
            (sum(counts("scheduler.safety_check")) + sum(counts("scheduler.allocate"))) / jobs,
            "count"),
        "trace.load_s": (total_s("trace.load_trace"), "s"),
        "trace.ground_truth_calls": (per_job("trace.ground_truth_trajectory"), "count"),
        "trace.ground_truth_s": (self_s("trace.ground_truth_trajectory"), "s"),
        "trace.ground_truth_samples": (sum(counts("trace.ground_truth_trajectory")) / jobs, "count"),
        "report.analyze_self_s": (self_s("report.analyze_trace"), "s"),
        "report.sweep_s": (total_s("report.sweep_grid"), "s"),
        "report.sweep_cells": (sum(counts("report.sweep_grid")) / jobs, "count"),
        "cli.emit_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (sum(counts("cli.main")) / jobs, "B"),
        "oracle.best_latency_us.p50": (
            percentile(durations("oracle.oracle_best_latency", 1e3), 50), "us"),
        "oracle.scans": (per_job("oracle.feasible_latency_scan"), "count"),
        "oracle.scans_per_case": (scans_in_best / len(best) if best else 0.0, "count"),
        "oracle.mrf_s": (total_s("oracle.scenario_mrf"), "s"),
        "engine.runs": (per_job("engine.run_scenario"), "count"),
        "engine.run_s": (total_s("engine.run_scenario"), "s"),
        "engine.ticks_per_s": (
            sum(counts("engine.run_scenario")) / engine_s if engine_s else 0.0, "1/s"),
    }
    m.update(extra)
    return m
