"""Command-line front end: trace analysis, closed-loop simulation, sweeps.

Exit codes: 0 success (and no collision), 1 a simulated collision occurred,
2 bad input. Speeds on flags are m/s unless suffixed with ``mph``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

from .engine import RunResult, run_scenario
from .model import FprReport
from .oracle import mrf_rates, scenario_mrf
from .report import AnalysisResult, analyze_trace, sweep_grid, write_sweep_csv
from .scenarios import load_script, script_from_dict
from .scheduler import Budget
from .trace import TraceFormatError, load_trace
from .types import L0_FIXED, MPH_TO_MPS, ModelParams, within


class InputError(Exception):
    """Bad user input: the command line, a params, trace or script file."""


def _flag(name: str, value: object, lo: float, **kw) -> float:
    """``within`` for a command-line flag, raising InputError with its message."""
    try:
        return within(name, value, lo, **kw)
    except ValueError as e:
        raise InputError(str(e)) from None


def parse_speed(text: str) -> float:
    """A speed flag value: plain m/s, or with an explicit mph/mps suffix."""
    t = text.strip().lower().replace(" ", "")
    scale = 1.0
    if t.endswith("mph"):
        t, scale = t[:-3], MPH_TO_MPS
    elif t.endswith(("mps", "m/s")):
        t = t[:-3]
    try:
        return within("speed", float(t) * scale, 0.0)
    except ValueError as e:
        raise InputError(f"cannot parse speed {text!r}: {e}") from None


def load_params(path: str | None, own_l0: str | None = None) -> tuple[ModelParams, float | None]:
    """Params file: JSON keyed by ModelParams field names; absent keys default.

    An extra key ``l0`` supplies the fixed reference latency, a finite
    number > 0; only ``sweep`` reads it, under the fixed policy. A command
    that always runs its own reference latency says which in ``own_l0``,
    and a file that gives ``l0`` or ``l0_policy`` is refused with that text.
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
    if own_l0 is not None:
        for key in ("l0", "l0_policy"):
            if key in obj:
                raise InputError(f'params file {path}: "{key}" is not read; {own_l0}')
    l0 = obj.pop("l0", None)
    known = {f.name for f in fields(ModelParams) if f.init}
    unknown = set(obj) - known
    if unknown:
        raise InputError(f"params file {path}: unknown keys {sorted(unknown)}")
    try:
        params = ModelParams(**obj)
        l0 = None if l0 is None else within("l0", l0, 0.0, open_lo=True)
    except (TypeError, ValueError) as e:
        raise InputError(f"params file {path}: {e}") from None
    return params, l0


@contextmanager
def _output(path: str | None):
    """The file ``--out`` names, or stdout for none or '-'."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as e:
        raise InputError(f"--out {path}: cannot open ({e.strerror})") from None
    with fh:
        yield fh


def _emit_records(fh, records: Iterable[dict | str], summary: dict) -> None:
    """Write each record, then the summary, as JSON lines: a dict as
    ``json.dumps(record, sort_keys=True)``, a str as the lines it holds."""
    for rec in records:
        fh.write(rec if isinstance(rec, str) else json.dumps(rec, sort_keys=True) + "\n")
    fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


# Ticks whose lines go out in one write
TICKS_PER_WRITE = 64


def _head(memo: dict, key: tuple, record: dict) -> str:
    """``json.dumps(record, sort_keys=True)`` without its closing brace, kept in
    ``memo`` under ``key``; the key gives each number's type (1, 1.0 and True
    are equal). A float zero (-0.0 == 0.0) or NaN keeps it out of ``memo``."""
    text = json.dumps(record, sort_keys=True)[:-1]
    if all(not isinstance(v, float) or v == v != 0.0 for v in record.values()):
        memo[key] = text
    return text


def _camera_head(memo: dict, cid: str, rep: FprReport, fps: float | None = None) -> str:
    """A camera record's head; simulate's also gives the camera's ``allocated_fps``."""
    key = (cid, type(rep.fpr), rep.fpr, type(rep.latency), rep.latency, rep.binding_actor,
           type(rep.infeasible), rep.infeasible, type(fps), fps)
    text = memo.get(key)
    if text is None:
        record = {"camera": cid, **asdict(rep)}
        if fps is not None:
            record["allocated_fps"] = fps
        text = _head(memo, key, record)
    return text


def _analysis_heads(result: AnalysisResult) -> Iterator[list[str]]:
    """Each tick's record heads: its actors in sorted id order, then its
    cameras in the rig's order."""
    memo: dict[tuple, str] = {}  # actor keys hold 3 items, camera keys 10
    for lats, reps in zip(result.latencies, result.reports):
        heads = []
        for aid, lat in zip(result.actor_ids, lats):
            key = (aid, type(lat), lat)
            heads.append(memo.get(key) or _head(memo, key, {"actor": aid, "latency": lat}))
        yield heads + [_camera_head(memo, cid, rep) for cid, rep in reps.items()]


def _simulation_heads(result: RunResult) -> Iterator[list[str]]:
    """Each tick's camera record heads, in sorted id order."""
    memo: dict[tuple, str] = {}
    for reports, (_, fps) in zip(result.camera_log, result.allocations):
        yield [_camera_head(memo, cid, reports[cid], fps[cid]) for cid in sorted(reports)]


def _tick_lines(
    times: list[float], heads: Iterable[list[str]], alarms: Iterable = ()
) -> Iterator[str | dict]:
    """The lines of each tick's records from their heads, ``TICKS_PER_WRITE``
    ticks a text; after a tick, the ``(t, alarm)`` pairs at or before its time.

    The "t" and "tick" keys of a per-tick record sort after its other keys,
    so each of its lines is a head and the tick's tail.
    """
    # the text of a number holds no ", "
    texts = json.dumps(times)[1:-1].split(", ")
    alarms = iter(alarms)
    pending = next(alarms, None)
    block: list[str] = []
    for k, (t, t_text, line) in enumerate(zip(times, texts, heads)):
        # each head followed by the tail; a tick without records gives ""
        block.append(f', "t": {t_text}, "tick": {k}}}\n'.join(line + [""]))
        if pending is not None and pending[0] <= t or len(block) == TICKS_PER_WRITE:
            yield "".join(block)
            block = []
        while pending is not None and pending[0] <= t:
            yield {"t": pending[0], "alarm": pending[1].to_dict()}
            pending = next(alarms, None)
    yield "".join(block)


def cmd_analyze(args) -> int:
    params, _ = load_params(
        args.params,
        own_l0="analyze runs the fixed l0 policy at l0 = 1/fpr0 of the trace (dt without fpr0)",
    )
    _flag("--collision-radius", args.collision_radius, 0.0)
    try:
        trace = load_trace(args.trace)
    except TraceFormatError as e:
        raise InputError(str(e)) from None
    script = None
    if args.mrf:
        try:
            script = script_from_dict(trace.metadata["script"])
        except (KeyError, ValueError) as e:
            raise InputError(f"--mrf needs the trace's scenario script: {e!r}") from None
        try:
            mrf_rates(params)
        except ValueError as e:
            raise InputError(f"--mrf: {e}") from None
    with _output(args.out) as fh:
        result = analyze_trace(trace, params)
        if script is not None:
            mrf = scenario_mrf(script, params, collision_radius=args.collision_radius)
            result.summary.update(mrf=mrf, mrf_infeasible_at_max=mrf is None)
        _emit_records(fh, _tick_lines(result.times, _analysis_heads(result)), result.summary)
    return 0


def cmd_simulate(args) -> int:
    params, _ = load_params(
        args.params, own_l0="simulate runs the fixed l0 policy at l0 = latency_min"
    )
    try:
        script = load_script(args.script)
    except (OSError, ValueError) as e:
        raise InputError(f"script {args.script}: {e}") from None
    try:
        budget = Budget(args.budget) if args.budget is not None else None
    except ValueError as e:
        raise InputError(f"--budget: {e}") from None
    _flag("--collision-radius", args.collision_radius, 0.0)
    with _output(args.out) as fh:
        result = run_scenario(
            script,
            params,
            adaptive=True,
            budget=budget,
            seed=args.seed,
            collision_radius=args.collision_radius,
        )

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
        times = [t for t, _ in result.allocations]
        _emit_records(fh, _tick_lines(times, _simulation_heads(result), result.alarms), summary)
    return 1 if result.collision else 0


def cmd_sweep(args) -> int:
    params, l0 = load_params(args.params)
    if l0 is not None and params.l0_policy != L0_FIXED:
        raise InputError(
            f"params file {args.params}: l0 is read only with \"l0_policy\": \"{L0_FIXED}\""
        )
    _flag("--sn", args.sn, 0.0, open_lo=True)
    _flag("--steps", args.steps, 2)
    ve0_lo, ve0_hi = parse_speed(args.ve0_min), parse_speed(args.ve0_max)
    van_lo, van_hi = parse_speed(args.van_min), parse_speed(args.van_max)
    if ve0_hi < ve0_lo or van_hi < van_lo:
        raise InputError("speed ranges must be non-decreasing")
    n = args.steps
    ve0s = [ve0_lo + (ve0_hi - ve0_lo) * i / (n - 1) for i in range(n)]
    vans = [van_lo + (van_hi - van_lo) * i / (n - 1) for i in range(n)]
    with _output(args.out) as fh:
        grid = sweep_grid(args.sn, ve0s, vans, params, l0=l0)
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
