"""Command-line front end: trace analysis, closed-loop simulation, sweeps.

Exit codes: 0 success (and no collision), 1 a simulated collision occurred,
2 bad input. Speeds on flags are m/s unless suffixed with ``mph``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .engine import run_scenario
from .oracle import mrf_rates
from .report import analyze_trace, camera_record, sweep_grid, write_sweep_csv
from .scenarios import load_script, script_from_dict
from .scheduler import Budget
from .trace import TraceFormatError, load_trace
from .types import MPH_TO_MPS, ModelParams, finite_float


class InputError(Exception):
    """Bad user input: the command line, a params, trace or script file."""


def parse_speed(text: str) -> float:
    """A speed flag value: plain m/s, or with an explicit mph/mps suffix."""
    t = text.strip().lower().replace(" ", "")
    scale = 1.0
    if t.endswith("mph"):
        t, scale = t[:-3], MPH_TO_MPS
    elif t.endswith(("mps", "m/s")):
        t = t[:-3]
    try:
        v = float(t) * scale
    except ValueError:
        raise InputError(f"cannot parse speed {text!r}") from None
    if not 0.0 <= v < math.inf:
        raise InputError(f"speed must be finite and >= 0, got {text!r}")
    return v


def _check_collision_radius(radius: float) -> None:
    if not 0.0 <= radius < math.inf:
        raise InputError(f"--collision-radius must be finite and >= 0, got {radius}")


def load_params(path: str | None) -> tuple[ModelParams, float | None]:
    """Params file: JSON keyed by ModelParams field names; absent keys default.

    An extra key ``l0`` supplies the fixed reference latency, a finite
    number > 0, for commands that need one.
    """
    if path is None:
        return ModelParams(), None
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"no such params file: {path}") from None
    except (OSError, ValueError, RecursionError) as e:
        raise InputError(f"params file {path}: cannot read ({e})") from None
    if not isinstance(obj, dict):
        raise InputError(f"params file {path}: expected a JSON object")
    l0 = obj.pop("l0", None)
    known = {f.name for f in fields(ModelParams) if f.init}
    unknown = set(obj) - known
    if unknown:
        raise InputError(f"params file {path}: unknown keys {sorted(unknown)}")
    try:
        params = ModelParams(**obj)
        l0 = None if l0 is None else finite_float("l0", l0)
    except (TypeError, ValueError) as e:
        raise InputError(f"params file {path}: {e}") from None
    if l0 is not None and not l0 > 0.0:
        raise InputError(f"params file {path}: l0 must be > 0, got {l0}")
    return params, l0


@contextmanager
def _output(path: str | None):
    """The file ``--out`` names, or stdout for none or '-'."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _emit_records(fh, records: list[dict], summary: dict) -> None:
    for rec in records:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
    fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


def cmd_analyze(args) -> int:
    params, _ = load_params(args.params)
    try:
        trace = load_trace(args.trace)
    except TraceFormatError as e:
        raise InputError(str(e)) from None
    if args.mrf:
        try:
            script_from_dict(trace.metadata["script"])
        except (KeyError, ValueError) as e:
            raise InputError(f"--mrf needs the trace's scenario script: {e!r}") from None
        _check_collision_radius(args.collision_radius)
        try:
            mrf_rates(params)
        except ValueError as e:
            raise InputError(f"--mrf: {e}") from None
    result = analyze_trace(trace, params, mrf=args.mrf, collision_radius=args.collision_radius)
    with _output(args.out) as fh:
        _emit_records(fh, result.records, result.summary)
    return 0


def cmd_simulate(args) -> int:
    params, _ = load_params(args.params)
    try:
        script = load_script(args.script)
    except (OSError, ValueError) as e:
        raise InputError(f"script {args.script}: {e}") from None
    try:
        budget = Budget(args.budget) if args.budget is not None else None
    except ValueError as e:
        raise InputError(f"--budget: {e}") from None
    _check_collision_radius(args.collision_radius)
    result = run_scenario(
        script,
        params,
        adaptive=True,
        budget=budget,
        seed=args.seed,
        collision_radius=args.collision_radius,
    )

    records: list[dict] = []
    alarm_iter = iter(result.alarms)
    pending = next(alarm_iter, None)
    for i, reports in enumerate(result.camera_log):
        t = result.allocations[i][0]
        for cid in sorted(reports):
            rec = camera_record(i, t, cid, reports[cid])
            rec["allocated_fps"] = result.allocations[i][1][cid]
            records.append(rec)
        while pending is not None and pending[0] <= t:
            records.append({"t": pending[0], "alarm": pending[1].to_dict()})
            pending = next(alarm_iter, None)

    summary = {
        "scenario": script.name,
        "ticks": len(result.camera_log),
        "alarms": len(result.alarms),
        "collision": (
            {"t": result.collision[0], "actor": result.collision[1]}
            if result.collision
            else None
        ),
        "brake_time": result.brake_time,
    }
    with _output(args.out) as fh:
        _emit_records(fh, records, summary)
    return 1 if result.collision else 0


def cmd_sweep(args) -> int:
    params, l0 = load_params(args.params)
    if not 0.0 < args.sn < math.inf:
        raise InputError("--sn must be finite and > 0")
    if args.steps < 2:
        raise InputError("--steps must be >= 2")
    ve0_lo, ve0_hi = parse_speed(args.ve0_min), parse_speed(args.ve0_max)
    van_lo, van_hi = parse_speed(args.van_min), parse_speed(args.van_max)
    if ve0_hi < ve0_lo or van_hi < van_lo:
        raise InputError("speed ranges must be non-decreasing")
    n = args.steps
    ve0s = [ve0_lo + (ve0_hi - ve0_lo) * i / (n - 1) for i in range(n)]
    vans = [van_lo + (van_hi - van_lo) * i / (n - 1) for i in range(n)]
    grid = sweep_grid(args.sn, ve0s, vans, params, l0=l0)
    with _output(args.out) as fh:
        write_sweep_csv(grid, ve0s, vans, params, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="safefpr",
        description="Per-camera safe frame-processing-rate estimation and validation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="per-tick required rates over a recorded trace")
    a.add_argument("--trace", required=True, help="trace file (line-delimited records)")
    a.add_argument("--params", default=None, help="JSON params file")
    a.add_argument("--out", default=None, help="output path, '-' for stdout")
    a.add_argument("--mrf", action="store_true",
                   help="also compute the scenario's minimum required rate")
    a.add_argument("--collision-radius", type=float, default=0.5)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("simulate", help="closed-loop run with online estimation")
    s.add_argument("--script", required=True,
                   help="scenario script file (family reference or full script)")
    s.add_argument("--params", default=None)
    s.add_argument("--budget", type=float, default=None,
                   help="total frames/s across cameras; omit for unconstrained")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("--collision-radius", type=float, default=0.5)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="required-rate grid over ego/actor speeds")
    w.add_argument("--sn", type=float, required=True, help="separation budget in m")
    w.add_argument("--ve0-min", default="0")
    w.add_argument("--ve0-max", required=True)
    w.add_argument("--van-min", default="0")
    w.add_argument("--van-max", required=True)
    w.add_argument("--steps", type=int, default=26)
    w.add_argument("--params", default=None)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
