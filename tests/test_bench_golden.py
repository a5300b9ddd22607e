"""The benchmark's output gate as a test: one job of each workload matches ``bench/golden.json``.

Each workload builds its seed-0 inputs, runs one job and checks it the way
``bench/run.py`` does: no failed operation, and every golden digest (the
online stream, the analyze output, the sweep CSVs, the corpus and the MRF
values) a match.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def _golden_states(info: dict) -> list[str]:
    golden = info["golden"]
    return list(golden.values()) if isinstance(golden, dict) else [golden]


@pytest.mark.parametrize("name", ["online_dense", "analyze_long", "validate"])
def test_one_job_matches_golden(tmp_path, name):
    wl = workloads.make(name, tmp_path)
    inputs = wl.setup(0)
    wl.record(wl.run_job(inputs, lambda t0: None))
    table = json.loads((BENCH / "golden.json").read_text())
    attempted, failed, info = wl.check(inputs, wl.golden_from(table, 0))
    assert attempted == wl.ops_per_job(inputs)
    assert failed == 0, info
    assert _golden_states(info) and set(_golden_states(info)) == {"match"}, info
