"""The committed bench trajectory: every ``BENCH_*.json`` at the repository root
parses, and each of its runs is a well-formed ``perfbench/run.py`` result
for a workload of ``BENCHMARK.json``."""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_trajectory_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_each_bench_run_is_well_formed(path):
    # each run names a benchmark workload, carries every end-to-end metric
    # with a finite value, counts no more failed operations than it
    # attempted, and names the source it ran by its src/ digest
    runs = json.loads(path.read_text())["runs"]
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert runs
    for i, run in enumerate(runs):
        assert run["workload"] in workloads, i
        for metric in SPEC["end_to_end"]:
            value = run["metrics"][metric["name"]]["value"]
            assert type(value) in (int, float) and math.isfinite(value), (i, metric["name"])
        assert type(run["failed"]) is int and 0 <= run["failed"] <= run["attempted"], i
        assert re.fullmatch("[0-9a-f]{64}", run["run_record"]["src_sha256"]), i
