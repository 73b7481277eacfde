"""Benchmark of the crepant library: one command per workload and seed.

    python3 perfbench/run.py --workload walk-1_11 --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  The run sets up the workload, repeats its fixed pass of work for
--seconds (at least one pass, never a partial one), checks every output and
prints a readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 spans
are recorded around every library call, the per-layer metrics are printed
instead and the spans are written to .bench_out/.  See README.md in this
directory for the workloads and what each metric should move.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAYERS = ("groups", "ggraphs", "fans", "bundles", "recipe", "chambers", "quiver", "report")
# Set-up is measured this many times per run (this process plus fresh
# child processes, so every sample starts with empty library caches).
SETUP_SAMPLES = 5


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_vals) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _child_setup_s(args) -> float:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _end_to_end(rec, lat, tail_pct, pass_s, measured_s, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (statistics.median(pass_s), "s"),
        "ops_per_s": (rec.ops / measured_s, "1/s"),
        "chambers_per_s": (rec.chambers / measured_s, "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_tail": (_percentile(lat, tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def _per_layer(tr, rec, measured_s, span_cost):
    """Per-layer metrics from the spans (per call means include set-up
    calls; layer self times cover operations only) and the first pass's
    exact work counts."""
    calls = tr.self_times()

    def per_call_ms(*names):
        n = calls.get(names[0], (0,))[0]
        total = sum(calls.get(x, (0, 0.0))[1] for x in names)
        return _ratio(total * 1000.0, n)

    c = rec.counts
    facets = c["facets_0"] + c["facets_I"] + c["facets_III"]
    m = {
        "chambers.ineq_ms": (per_call_ms("chambers.ClassTable", "chambers.generate_inequalities"), "ms"),
        "chambers.cone_ms": (per_call_ms("chambers.chamber_cone"), "ms"),
        "chambers.compute_ms": (per_call_ms("chambers.compute_chamber"), "ms"),
        "chambers.ghilb_chamber_ms": (per_call_ms("chambers.ghilb_chamber"), "ms"),
        "chambers.cross_ms.0": (per_call_ms("chambers.cross_wall.0"), "ms"),
        "chambers.cross_ms.I": (per_call_ms("chambers.cross_wall.I"), "ms"),
        "chambers.cross_ms.III": (per_call_ms("chambers.cross_wall.III"), "ms"),
        "chambers.enumerate_ms": (per_call_ms("chambers.enumerate_chambers"), "ms"),
        "fans.flip_closure_ms": (per_call_ms("fans.flip_reachable_fans"), "ms"),
        "ggraphs.ghilb_fan_ms": (per_call_ms("ggraphs.ghilb_fan"), "ms"),
        "recipe.marking_ms": (per_call_ms("recipe.marking"), "ms"),
        "report.decode_ms": (per_call_ms("report.state_from_token"), "ms"),
        "report.encode_ms": (per_call_ms("report.state_token"), "ms"),
        "report.chamber_report_ms": (per_call_ms("report.chamber_report"), "ms"),
        "quiver.orbit_rep_ms": (per_call_ms("quiver.orbit_rep"), "ms"),
        "quiver.band_ms": (per_call_ms("quiver.band"), "ms"),
        "chambers.count": (c["chambers"], "count"),
        "chambers.ineq_count": (c["ineqs"], "count"),
        "lp.solves": (c["lp_solves"], "count"),
        "chambers.facets.0": (c["facets_0"], "count"),
        "chambers.facets.I": (c["facets_I"], "count"),
        "chambers.facets.III": (c["facets_III"], "count"),
        "chambers.crossings": (c["crossings"], "count"),
        "chambers.dedup_hits": (c["dedup_hits"], "count"),
        "chambers.reverse_fail": (c["reverse_fail"], "count"),
        "chambers.facet_yield": (_ratio(facets, c["ineqs"]), "ratio"),
        "lp.solves_per_chamber": (_ratio(c["lp_solves"], c["chambers"]), "ratio"),
        "chambers.crossings_per_chamber": (_ratio(c["crossings"], c["chambers"]), "ratio"),
        "chambers.dedup_hit_ratio": (_ratio(c["dedup_hits"], c["crossings"]), "ratio"),
    }
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    spans = 0
    for name, (n, _total, self_s) in tr.self_times(ops_only=True).items():
        spans += n
        layer = name.split(".", 1)[0]
        layer_self["bench" if layer == "op" else layer] += self_s
    for layer, self_s in layer_self.items():
        m[layer + ".self_ms"] = (_ratio(self_s * 1000.0, rec.ops), "ms/op")
    m["trace.spans"] = (spans, "count")
    m["trace.overhead_pct"] = (_ratio(spans * span_cost * 100.0, measured_s), "%")
    return m


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "crepant", "__init__.py")):
        print(f"error: no library source at {SRC}; run from a crepant checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tr = spans.Tracer() if args.trace else spans.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tr)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]
    if not args.trace:  # setup_s is an end-to-end metric: untraced runs only
        setup_samples += [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]

    rec = workloads.Recorder()
    pass_s = []
    t_start = time.perf_counter()
    while True:
        rec.position = 0
        t = time.perf_counter()
        wl.run_pass(rec, tr)
        pass_s.append(time.perf_counter() - t)
        rec.first_pass = False
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(pass_s) > args.seconds:
            break
    measured_s = time.perf_counter() - t_start

    lat = sorted(rec.latency_ms)
    tail = _percentile(lat, wl.tail_pct)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"passes {len(pass_s)}  measured {measured_s:.3f} s  pass times {[round(x, 3) for x in pass_s]}")
    print(f"set-up samples {[round(x, 4) for x in setup_samples]} s")
    print(
        f"failed_ratio {_ratio(rec.failed, rec.attempted):.6f} ratio"
        f"  ({rec.failed} failed / {rec.attempted} attempted ops of a pass, {rec.wrong} wrong outputs;"
        f" {rec.ops} ops run)"
    )
    beyond = sum(1 for x in lat if x > tail)
    print(f"op_ms_tail is p{wl.tail_pct} of {len(lat)} samples, {beyond} beyond it")
    print("work counts (first pass): " + json.dumps(dict(sorted(rec.counts.items()))))
    for position, kind, msg in rec.failures:
        print(f"failed op {position} of the pass ({kind}): {msg}")
    if args.trace:
        metrics = _per_layer(tr, rec, measured_s, spans.span_cost_s())
        out = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
        tr.write(
            out,
            {
                "workload": args.workload,
                "seed": args.seed,
                "traced_total_s": statistics.median(pass_s),
                "metrics": {k: v for k, (v, _u) in metrics.items()},
            },
        )
        print(f"spans written to {out}")
    else:
        setup_median = statistics.median(setup_samples)
        metrics = _end_to_end(rec, lat, wl.tail_pct, pass_s, measured_s, setup_median)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": rec.wrong == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
