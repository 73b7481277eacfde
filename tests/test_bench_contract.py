"""The benchmark's workloads still build against the library and run
clean.

perfbench/workloads.py imports library names directly and BENCHMARK.json
names its workloads; a library refactor that renames or drops one of those
names must fail here, not only when the benchmark is next run.  One pass
of each workload at seed 1 must also give no wrong output and no failed
op, which perfbench/run.py reports as "correct" and "failed", and the
exact work counts pinned below.
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

# The first pass's work counts at seed 1 (Recorder.counts): the same on
# every run, so a change in the work a workload does shows without a timer.
FIRST_PASS_COUNTS = {
    "enum-sweep": {
        "chambers": 2584,
        "crossings": 15006,
        "dedup_hits": 12449,
        "facets_0": 6876,
        "facets_I": 816,
        "facets_III": 7314,
        "lp_solves": 3560,
    },
    "serve-mixed": {
        "chambers": 243,
        "crossings": 61,
        "facets_0": 2818,
        "facets_I": 1044,
        "facets_III": 462,
        "ineqs": 199426,
        "lp_solves": 1553,
        "requests_chamber": 101,
        "requests_cross": 61,
        "requests_quiver": 20,
        "requests_verify": 20,
    },
    "walk-1_11": {
        "chambers": 654,
        "crossings": 8736,
        "dedup_hits": 6422,
        "facets_0": 6729,
        "facets_I": 1128,
        "facets_III": 879,
        "ineqs": 375120,
        "lp_solves": 4504,
    },
}


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
    assert rec.counts == FIRST_PASS_COUNTS[name]
