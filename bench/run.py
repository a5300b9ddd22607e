"""Benchmark of safefpr: three closed-loop workloads in one single-threaded process.

Run from the repository root:

    python3 bench/run.py --workload online_dense --seed 1 --seconds 20 --trace 0

Workloads (each closed-loop: the next call starts when the previous returns):

  online_dense  the online estimation step on each tick of a seeded 12-actor
                scene (5 cameras, 90 frames/s budget): predict every actor,
                evaluate_scene, safety_check, allocate. A job is one pass over
                the scene's 181 ticks; an operation is one tick.
  analyze_long  `safefpr analyze` run in-process over a seeded 601-tick,
                6-actor trace. A job and an operation are one call.
  validate      26x26 sweeps at 30 m and 100 m, a seeded 1000-case
                search-vs-oracle corpus, and scenario_mrf over the nine
                built-in families. A job is all three; an operation is one
                corpus case (search, oracle best latency, scan of the result).

Set-up (building the seeded inputs, which records scene states with the
engine) repeats at least SETUP_MIN_REPEATS times and SETUP_MIN_SECONDS long.
Then jobs repeat until --seconds have passed.

With --trace 0 the last line carries the end-to-end metrics, every time scaled
to the reference machine speed (see PROBE_REF_NS):
  setup_s          median set-up time
  wall_s           median job time
  op_ms.p50        median operation latency over every operation of the run
  peak_rss_mb      peak resident set size of the process
The report line also gives op_ms.p99. It is not a judged metric: on this
host, bursts of contention on the vector units double the slowest validate
cases without moving the probe, so its spread across runs reached 0.6.
With --trace 1 the first half of the window runs untraced and the second half
traced, and the last line carries the per-layer metrics of tracing.py plus
tracing.overhead_s, the traced minus the untraced median job time. The spans
of the latest traced run of a workload are written to
.bench_work/spans_<workload>.jsonl.

Every job's output is checked outside the timed regions (see workloads.py).
`attempted` counts the operations and outputs checked, `failed` those that
raised or failed the check, so error_frac = failed / attempted. The line
before the last is a full report: environment, input sizes, check details,
the unscaled times and the measured slowdowns.
Exit code 0 when a result was printed, 2 when the program is not found.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# BLAS and OpenMP read these when numpy is first imported, below
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from bisect import bisect_left  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0  # short set-ups repeat more, so their median and slowdown are steady
WORKLOADS = ("online_dense", "analyze_long", "validate")


# The host's CPU throughput swings by up to ~40% within seconds as other
# tenants load it: the probe below takes 0.5 ms to 1.2 ms on one vCPU of the
# 2-vCPU Xeon (2.1 GHz) host this benchmark was tuned on, and wall times swing
# with it. So every reported time is scaled to a reference speed, at which the
# probe takes PROBE_REF_NS: a job's time is divided by the job's slowdown, its
# trimmed-mean probe time over PROBE_REF_NS, and an operation's by the
# slowdown over the part of its job in which the operations ran. A region
# shorter than SLOWDOWN_WINDOW_S is widened to that length about its middle,
# so a job is scaled the same way however fast it runs. A timer signal runs
# the probe every PROBE_INTERVAL_S wherever the program is, so probes sample
# time evenly; probe time is subtracted from every timed region.
PROBE_REF_NS = 600_000
PROBE_INTERVAL_S = 0.05
SLOWDOWN_WINDOW_S = 1.0
_PROBE_T = np.arange(0.0, 30.0, 0.01)
_PROBE_XP = np.linspace(0.0, 30.0, 601)
_PROBE_FP = np.sin(_PROBE_XP)


def probe() -> float:
    """Fixed work in the program's mix, independent of the program: small
    tuples, float math and a dict, then interpolation over a 3000-point grid."""
    acc = 0.0
    rows = []
    for i in range(1500):
        row = (i * 0.5, i * 0.25, (i + 1.0) ** 0.5)
        rows.append(row)
        acc += row[0] * row[1] - row[2]
    index = dict(enumerate(rows))
    for k in range(0, 1500, 7):
        acc += index[k][2]
    return acc + float(np.hypot(np.interp(_PROBE_T, _PROBE_XP, _PROBE_FP), _PROBE_T).sum())


class Speed:
    """Probe times sampled by a timer signal while ``sampling`` is active."""

    def __init__(self) -> None:
        self.start_ns = array("q")
        self.took_ns = array("q")

    def _on_alarm(self, signum, frame) -> None:
        # collection paused, and all the probe allocates freed, so the run's
        # heap does not change the probe's time
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            probe()
            took = perf_counter_ns() - t0
        finally:
            if collecting:
                gc.enable()
        self.start_ns.append(t0)
        self.took_ns.append(took)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, t0: int, t1: int) -> array:
        return self.took_ns[bisect_left(self.start_ns, t0):bisect_left(self.start_ns, t1)]

    def probe_ns(self, t0: int, t1: int) -> int:
        """Probe time inside [t0, t1); a probe ends before the code it interrupted."""
        return sum(self._between(t0, t1))

    def slowdown(self, t0: int, t1: int) -> float:
        """Trimmed-mean probe time over PROBE_REF_NS in [t0, t1), widened to
        at least SLOWDOWN_WINDOW_S about its middle; above 1 when contended."""
        pad = max(0, int(SLOWDOWN_WINDOW_S * 1e9) - (t1 - t0)) // 2
        ns = sorted(self._between(t0 - pad, t1 + pad))
        trim = len(ns) // 20
        return statistics.fmean(ns[trim:len(ns) - trim]) / PROBE_REF_NS


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(wl, inputs, seconds: float, speed: Speed, tracer=None) -> dict:
    """Run jobs back to back until ``seconds`` have passed (at least one job).

    Returns each job's (start, end, time without probes) and, in arrays,
    each operation's job index, start, end and time without probes, all in
    ns. Arrays keep the harness's own memory small as operations add up.
    """
    jobs: list[tuple[int, int, int]] = []
    ops = {field: array("q") for field in ("job", "t0", "t1", "ns")}
    raised = 0

    def op_done(t0: int) -> None:
        t1 = perf_counter_ns()
        ops["job"].append(len(jobs))
        ops["t0"].append(t0)
        ops["t1"].append(t1)
        ops["ns"].append(t1 - t0 - speed.probe_ns(t0, t1))

    deadline = perf_counter() + seconds
    with speed.sampling():
        while True:
            first_op = len(ops["job"])
            t0 = perf_counter_ns()
            try:
                with (tracer.job() if tracer else nullcontext()):
                    raw = wl.run_job(inputs, op_done)
            except Exception:
                traceback.print_exc()
                raised += wl.ops_per_job(inputs)
                for column in ops.values():
                    del column[first_op:]
            else:
                t1 = perf_counter_ns()
                jobs.append((t0, t1, t1 - t0 - speed.probe_ns(t0, t1)))
                wl.record(raw)
            if perf_counter() >= deadline:
                return {"jobs": jobs, "ops": ops, "raised": raised}


def scaled(run: dict, speed: Speed) -> tuple[list[float], list[float]]:
    """(job seconds, operation ms) at the reference speed.

    A job is scaled by the slowdown over the job, an operation by the
    slowdown over the stretch of its job in which the operations ran.
    """
    job_s = [ns / 1e9 / speed.slowdown(t0, t1) for t0, t1, ns in run["jobs"]]
    stretch: dict[int, tuple[int, int]] = {}
    ops = run["ops"]
    for j, t0, t1 in zip(ops["job"], ops["t0"], ops["t1"]):
        first, last = stretch.get(j, (t0, t1))
        stretch[j] = (min(first, t0), max(last, t1))
    slow = {j: speed.slowdown(t0, t1) for j, (t0, t1) in stretch.items()}
    op_ms = [ns / 1e6 / slow[j] for j, ns in zip(ops["job"], ops["ns"])]
    return job_s, op_ms


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """(full report, result line) of one benchmark run."""
    import tracing
    import workloads

    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(workload, workdir)
        speed = Speed()
        setup_ns: list[int] = []
        setup_from = perf_counter_ns()
        with speed.sampling():
            while len(setup_ns) < SETUP_MIN_REPEATS or sum(setup_ns) < SETUP_MIN_SECONDS * 1e9:
                t0 = perf_counter_ns()
                inputs = wl.setup(seed)
                t1 = perf_counter_ns()
                setup_ns.append(t1 - t0 - speed.probe_ns(t0, t1))
        setup_slowdown = speed.slowdown(setup_from, perf_counter_ns())

        if traced:
            plain = measure(wl, inputs, seconds / 2, speed)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                under_trace = measure(wl, inputs, seconds / 2, speed, tracer)
            finally:
                tracer.uninstall()
            runs = (plain, under_trace)
        else:
            runs = (measure(wl, inputs, seconds, speed),)

        table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        raised = sum(r["raised"] for r in runs)
        if any(r["jobs"] for r in runs):
            attempted, failed, check = wl.check(inputs, wl.golden_from(table, seed))
        else:
            attempted, failed, check = 0, 0, {}
        attempted += raised
        failed += raised
        description = wl.describe(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # end-to-end figures come from the untraced run only
    job_s, op_ms = scaled(runs[0], speed)
    setup_s = statistics.median(setup_ns) / 1e9 / setup_slowdown
    if traced:
        traced_job_s, _ = scaled(runs[1], speed)
        extra = {
            "oracle.violations": (check.get("oracle_violations", 0), "count"),
            "tracing.overhead_s": (_median(traced_job_s) - _median(job_s), "s"),
        }
        metrics = tracing.layer_metrics(tracer, speed.probe_ns, extra)
        tracer.write(WORK / f"spans_{workload}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (_median(job_s), "s"),
            "op_ms.p50": (workloads.percentile(op_ms, 50), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "inputs": description,
        "jobs": [len(r["jobs"]) for r in runs],
        "operations": [len(r["ops"]["job"]) for r in runs],
        "operation": wl.op_name,
        "setup_runs": len(setup_ns),
        "error_frac": failed / attempted if attempted else 1.0,
        "check": check,
        "job_s": job_s,
        "op_ms.p99": workloads.percentile(op_ms, 99),
        "unscaled": {
            "setup_s": statistics.median(setup_ns) / 1e9,
            "job_s": [ns / 1e9 for _, _, ns in runs[0]["jobs"]],
        },
        "slowdown": {
            "setup": setup_slowdown,
            "jobs": [speed.slowdown(t0, t1) for t0, t1, _ in runs[0]["jobs"]],
        },
        "probe_ref_ms": PROBE_REF_NS / 1e6,
        "probes": len(speed.took_ns),
        "metrics": metrics,
    }
    return full, result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    if not (ROOT / "src" / "safefpr" / "__init__.py").is_file():
        print(f"error: safefpr sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    full, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
