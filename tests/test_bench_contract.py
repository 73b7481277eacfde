"""The benchmark's workloads still build against the library and run
clean.

perfbench/workloads.py imports library names directly and BENCHMARK.json
names its workloads; a library refactor that renames or drops one of those
names must fail here, not only when the benchmark is next run.  One pass
of each workload at seed 1 must also give no wrong output and no failed
op, which perfbench/run.py reports as "correct" and "failed".
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_benchmark():
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up(name):
    workload = workloads.WORKLOADS[name](1, spans.NullTracer())
    assert workload.name == name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_has_no_wrong_outputs_or_failed_ops(name):
    tracer = spans.NullTracer()
    workload = workloads.WORKLOADS[name](1, tracer)
    rec = workloads.Recorder()
    workload.run_pass(rec, tracer)
    assert rec.attempted > 0
    assert (rec.wrong, rec.failed) == (0, 0), rec.failures
