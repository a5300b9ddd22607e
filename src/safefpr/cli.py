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
from dataclasses import fields
from operator import itemgetter
from pathlib import Path

from .engine import run_scenario
from .oracle import mrf_rates, scenario_mrf
from .report import analyze_trace, camera_record, sweep_grid, write_sweep_csv
from .scenarios import load_script, script_from_dict
from .scheduler import Budget
from .trace import TraceFormatError, load_trace
from .types import L0_FIXED, MPH_TO_MPS, ModelParams, within


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


# Value types whose JSON text can be memoised by (type, value). Float zeros
# are left out (-0.0 == 0.0, yet their texts differ), and NaN never equals
# itself, so neither is stored.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_lines(records: Iterable[dict]) -> Iterator[str]:
    """Each record as ``json.dumps(record, sort_keys=True)`` and a newline.

    Records with the same string keys share one line format, and each
    repeated scalar value is encoded once, so the text is that of
    ``json.dumps`` without an encoder per record. A record that holds a
    dict or a list (simulate's alarms) is encoded whole by ``json.dumps``.
    """
    formats: dict[tuple, tuple | None] = {}
    texts: dict[tuple, str] = {}
    for rec in records:
        keys = tuple(rec)
        try:
            layout = formats[keys]
        except KeyError:
            layout = formats[keys] = _line_format(keys)
        line = None
        if layout is not None:
            getter, fmt = layout
            found = []
            try:
                for value in getter(rec):
                    key = (type(value), value)
                    text = texts.get(key)
                    if text is None:
                        text = json.dumps(value)
                        kind = type(value)
                        if kind in _SCALARS and (kind is not float or value == value != 0.0):
                            texts[key] = text
                    found.append(text)
            except TypeError:  # an unhashable value: a dict or a list
                pass
            else:
                line = fmt % tuple(found)
        yield line or json.dumps(rec, sort_keys=True) + "\n"


def _line_format(keys: tuple) -> tuple | None:
    """A getter of the values of a record with ``keys``, in sorted key order,
    and its line with a %s per value; None unless there are two or more string keys."""
    if len(keys) < 2 or not all(type(k) is str for k in keys):
        return None
    order = sorted(keys)
    heads = (json.dumps(k).replace("%", "%%") + ": %s" for k in order)
    return itemgetter(*order), "{" + ", ".join(heads) + "}\n"


def _emit_records(fh, records: Iterable[dict], summary: dict) -> None:
    """Write each record, then the summary, as one JSON line as soon as it is encoded."""
    for line in _json_lines(records):
        fh.write(line)
    fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


def cmd_analyze(args) -> int:
    params, _ = load_params(
        args.params,
        own_l0="analyze runs the fixed l0 policy at l0 = 1/fpr0 of the trace (dt without fpr0)",
    )
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
            within("--collision-radius", args.collision_radius, 0.0)
            mrf_rates(params)
        except ValueError as e:
            raise InputError(f"--mrf: {e}") from None
    with _output(args.out) as fh:
        result = analyze_trace(trace, params)
        if script is not None:
            mrf = scenario_mrf(script, params, collision_radius=args.collision_radius)
            result.summary.update(mrf=mrf, mrf_infeasible_at_max=mrf is None)
        _emit_records(fh, result.records, result.summary)
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
    try:
        within("--collision-radius", args.collision_radius, 0.0)
    except ValueError as e:
        raise InputError(str(e)) from None
    with _output(args.out) as fh:
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
        _emit_records(fh, records, summary)
    return 1 if result.collision else 0


def cmd_sweep(args) -> int:
    params, l0 = load_params(args.params)
    if l0 is not None and params.l0_policy != L0_FIXED:
        raise InputError(
            f"params file {args.params}: l0 is read only with \"l0_policy\": \"{L0_FIXED}\""
        )
    try:
        within("--sn", args.sn, 0.0, open_lo=True)
        within("--steps", args.steps, 2)
    except ValueError as e:
        raise InputError(str(e)) from None
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
