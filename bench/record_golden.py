"""Record the golden output digests the benchmark checks every run against.

    python3 bench/record_golden.py

Runs one job of every workload for each seed in GOLDEN_SEEDS on the current
sources and writes bench/golden.json: per seed, the digest of the
online_dense FPR and allocation stream, of the analyze_long JSONL bytes and
of the validate corpus results; once, the digests of the two sweep CSVs and
the nine per-family MRF values. Record only at a commit whose outputs are
the reference. A run whose seed is not recorded still checks that its jobs
agree with each other, the invariants and the oracle.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

GOLDEN_SEEDS = range(64)


def _ignore(t0: int) -> None:
    """Operation durations are not needed here."""


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    table: dict = {}
    workdir = run.WORK / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in GOLDEN_SEEDS:
            for name in run.WORKLOADS:
                wl = workloads.make(name, workdir)
                inputs = wl.setup(seed)
                wl.record(wl.run_job(inputs, _ignore))
                attempted, failed, info = wl.check(inputs, None)
                if failed:
                    print(f"error: {name} seed {seed} fails its check: {info}", file=sys.stderr)
                    return 1
                wl.golden_into(table, seed)
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
