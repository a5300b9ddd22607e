"""Self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

1. BENCHMARK.json has the required shape.
2. Every workload, untraced and traced, prints on its last line each metric
   BENCHMARK.json names, with its unit, and no failed operation.
3. A deliberately perturbed output (one flipped FPR in the online stream,
   one changed byte of analyze output, a search latency above the oracle's,
   a changed sweep CSV) fails the output check and raises error_frac.
   Every job of the workload counts: a later job that differs from the
   first fails, and a first job that fails fails in every job.
4. From a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def command(workload: str, seconds: float, trace: int) -> list[str]:
    return [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
            "--seconds", str(seconds), "--trace", str(trace)]


def check_spec() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(SPEC)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def check_metrics_printed() -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(command(workload, 2, trace), cwd=run.ROOT,
                                 capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics with units")


def _error_frac(wl, inputs, golden=None) -> float:
    attempted, failed, _ = wl.check(inputs, golden)
    return failed / attempted


def check_perturbed_outputs(workloads) -> None:
    # online_dense: one flipped FPR in the second pass fails exactly that tick
    wl = workloads.OnlineDense()
    inputs = workloads.DenseInputs(ticks=wl.setup(0).ticks[:30])
    raw = wl.run_job(inputs, _ignore)
    wl.record(raw)
    wl.record(raw)
    assert _error_frac(wl, inputs) == 0.0
    per_actor, reports, allocation, alarm = raw[5]
    cid = sorted(reports)[0]
    flipped = dict(reports)
    flipped[cid] = dataclasses.replace(reports[cid], fpr=31.0 - reports[cid].fpr)
    wl.record(raw[:5] + [(per_actor, flipped, allocation, alarm)] + raw[6:])
    attempted, failed, _ = wl.check(inputs, None)
    assert failed == 1, failed
    print(f"ok   online_dense: flipped FPR -> error_frac {failed / attempted:.4f}")

    # analyze_long: one changed byte of output; the golden digest catches a
    # wrong first output as well
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.AnalyzeLong(workdir)
        inputs = wl.setup(0)
        code, out_path = wl.run_job(inputs, _ignore)
        wl.record((code, out_path))
        golden = wl.runs.first[0][1]
        assert _error_frac(wl, inputs, golden) == 0.0
        out_path.write_bytes(out_path.read_bytes().replace(b'"fpr": 1.0', b'"fpr": 1.5', 1))
        wl.record((code, out_path))
        frac = _error_frac(wl, inputs, golden)
        assert frac == 0.5, frac
        assert _error_frac(wl, inputs, workloads.sha256(out_path.read_bytes())) == 1.0
        print(f"ok   analyze_long: changed byte -> error_frac {frac}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # validate: a changed sweep CSV and a changed case in a later job; a
    # search latency above the oracle's in the first
    wl = workloads.Validate()
    full = wl.setup(0)
    inputs = dataclasses.replace(full, corpus=full.corpus[:40])
    csvs, cases, mrf = wl.run_job(inputs, _ignore)
    wl.record((csvs, cases, mrf))
    assert _error_frac(wl, inputs) == 0.0
    k = next(i for i, c in enumerate(cases) if c[1] is not None and c[1] < 1.0)
    worse = [list(c) for c in cases]
    worse[k][0] = worse[k][1] + 1.0 / 30.0
    wl.record(([csvs[0], csvs[1].replace("1,", "2,", 1)], worse, mrf))
    attempted, failed, _ = wl.check(inputs, None)
    assert failed == 2, failed
    print(f"ok   validate: changed CSV + changed case -> error_frac {failed / attempted:.4f}")
    wl = workloads.Validate()
    wl.record((csvs, worse, mrf))
    wl.record((csvs, worse, mrf))
    attempted, failed, info = wl.check(inputs, None)
    assert failed == 2 and info["oracle_violations"] == 1, (failed, info)
    print(f"ok   validate: latency above oracle -> error_frac {failed / attempted:.4f}")


def check_bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(command("online_dense", 1, 0), cwd=bare,
                             capture_output=True, text=True, timeout=180)
        assert out.returncode != 0, out.returncode
        assert '"correct"' not in out.stdout, out.stdout
        print(f"ok   bare directory: exit {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _ignore(t0: int) -> None:
    """Operation durations are not needed here."""


def main() -> int:
    check_spec()
    print("ok   BENCHMARK.json shape")
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    check_perturbed_outputs(workloads)
    check_bare_directory_fails()
    check_metrics_printed()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
