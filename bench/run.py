"""curveform benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload suite-int --seed 1 --seconds 30 --trace 0

Run from the repository root; curveform is imported from ./src.  Passes of
the workload repeat until --seconds have elapsed (and at least the
workload's minimum number of passes ran).  With --trace 0 the last line of
stdout is a JSON object holding every end-to-end metric, its times taken at
a fixed reference host speed (refclock.py); with --trace 1 it
holds the per-layer metrics of three passes of identical work: one
untraced, one with spans around the package's layer boundaries, and one
counting Scalar operations only.  Lines above it are a readable report.
Results and spans are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import refclock
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 6
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
# the per-layer metrics printed in the result line, as listed in BENCHMARK.json
PER_LAYER = (
    "scalar.init.calls", "scalar.mul.calls", "scalar.add.calls", "scalar.inverse.calls",
    "scalar.busy_s",
    "freealg.ncpoly_mul.calls", "freealg.tensorpoly_mul.calls", "freealg.busy_s",
    "rewrite.nf_word.calls", "rewrite.match.calls", "rewrite.nf_hit_ratio",
    "rewrite.nf_cache_words", "rewrite.nf_word.busy_s", "rewrite.nf_word.self_s",
    "rewrite.normal_form.busy_s", "rewrite.fuel_exhausted",
    "rewrite.complete.busy_s", "rewrite.complete.rounds", "rewrite.find_ambiguities.calls",
    "rewrite.check_diamond.busy_s", "nodal.build_algebra.busy_s",
    "nodal.basis_census.busy_s", "nodal.freeness_check.busy_s",
    "hopf.check_welldefined.busy_s", "hopf.check_hopf_axioms.busy_s",
    "hopf.check_hopf_axioms.self_s", "hopf.tensor_nf.calls", "hopf.tensor_nf.busy_s",
    "hopf.tensor_nf.self_s", "hopf.units_suite.busy_s", "hopf.solve_sparse.busy_s",
    "galois.recovery_check.busy_s", "galois.project_pi.calls", "cli.run_suites.busy_s",
    "parser.parse_expr.busy_s", "printing.format_poly.busy_s",
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_ratio",
    "trace.count_overhead_ratio", "trace.spans",
)


def fresh_import():
    """Import curveform from ./src, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "curveform" or m.startswith("curveform.")]:
        del sys.modules[name]
    pkg = importlib.import_module("curveform")
    importlib.import_module("curveform.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "curveform").resolve():
        raise SystemExit(f"curveform was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def git_commit():
    """The checked-out commit, read from .git without running git; None when
    the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(pkg):
    """Python version, the rational type Scalar actually uses, CPUs and the
    code under test (commit when known, and a digest of src/ either way)."""
    rational = pkg.scalar.Fraction
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "rational_backend": f"{rational.__module__}.{rational.__name__}",
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "src_sha256": digest.hexdigest()}


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def setup(workload, seconds, min_repeats):
    """refclock.now() readings (start, end) of repeated set-ups, each from a
    fresh import until the first operation can start, for `seconds` (and at
    least `min_repeats` of them)."""
    spans = []
    begin = perf_counter()
    while len(spans) < min_repeats or perf_counter() - begin < seconds:
        gc.collect()  # free the previous copy, so that memory does not grow with repeats
        start = refclock.now()
        pkg = fresh_import()
        workload.setup(pkg)
        spans.append((start, refclock.now()))
    return spans


def end_to_end(workload, seconds):
    """Timed passes, each on a freshly imported and set-up copy of the
    package, all under a RefClock: every time below is CPU time at the
    reference host speed (refclock.py); the raw CPU time of the passes is
    in the notes, and `seconds` counts wall-clock time.  setup_s is the
    median of every set-up of the run: a burst before the passes, one
    before each later pass and a burst after them."""
    with refclock.RefClock() as clock:
        setup_spans = setup(workload, SETUP_SECONDS, SETUP_MIN_REPEATS)
        passes = []
        start = perf_counter()
        while len(passes) < workload.min_passes or perf_counter() - start < seconds:
            if passes:
                setup_spans += setup(workload, 0, 1)
            passes.append(workload.run_pass())
        setup_spans += setup(workload, SETUP_SECONDS, SETUP_MIN_REPEATS)
    ops = [op for results in passes for op in results]
    failed = sum(1 for *_, problems in ops if problems)
    lats = [[clock.seconds(t0, t1) for t0, t1, _ in results] for results in passes]
    if all(len(pass_lats) > TAIL_BEYOND for pass_lats in lats):
        tails = [tail(pass_lats) for pass_lats in lats]
        tail_ms = 1e3 * statistics.median(value for value, _, _ in tails)
        _, percentile, samples = tails[0]
    else:  # passes too short for a tail of their own: the run's slowest operation
        tail_s, percentile, samples = tail([lat for pass_lats in lats for lat in pass_lats])
        tail_ms = 1e3 * tail_s
    metrics = {
        "setup_s": statistics.median(clock.seconds(*span) for span in setup_spans),
        "wall_s": statistics.median(sum(pass_lats) for pass_lats in lats),
        "ops_per_s": (len(ops) - failed) / sum(map(sum, lats)),
        "latency_p50_ms": 1e3 * statistics.median(map(statistics.median, lats)),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_cpu = [sum(t1 - t0 for t0, t1, _ in results) for results in passes]
    notes = {"passes": len(passes), "setups": len(setup_spans), "tail_percentile": round(percentile, 2),
             "tail_samples": samples, "error_rate": failed / len(ops),
             "raw_cpu_s": round(statistics.median(raw_cpu), 6),
             "reference_task_ms": round(1e3 * clock.median_cost(), 6),
             "reference_tasks": len(clock.starts)}
    return ops, metrics, notes


def per_layer(workload):
    """Three passes of the same work: untraced, spans, Scalar counts."""
    def timed_pass():
        results = workload.run_pass()
        return results, sum(end - start for start, end, _ in results)

    ops, untraced_wall = timed_pass()
    workload.reset()
    tracer = tracing.Tracer()
    tracer.install(workload.pkg)
    try:
        results, traced_wall = timed_pass()
    finally:
        tracer.uninstall()
    ops += results
    tracer.note_algebra(workload.algebra)
    workload.reset()
    counter = tracing.ScalarCounter()
    counter.install(workload.pkg)
    try:
        results, counted_wall = timed_pass()
    finally:
        counter.uninstall()
    ops += results

    nf_calls = tracer.calls["rewrite.nf_word"]
    spans = {}
    for name in tracer.names:
        spans[f"{name}.calls"] = tracer.calls[name]
        spans[f"{name}.busy_s"] = tracer.busy[name]
        spans[f"{name}.self_s"] = tracer.self_time[name]
    metrics = {name: spans[name] for name in PER_LAYER if name in spans}
    metrics.update({f"scalar.{key}.calls": cell[0] for key, cell in counter.counts.items()})
    metrics.update({
        "scalar.busy_s": counter.busy,
        "freealg.busy_s": tracer.layer_busy.get("freealg", 0.0),
        "rewrite.nf_hit_ratio": tracer.nf_hits / nf_calls if nf_calls else 0.0,
        "rewrite.nf_cache_words": tracer.max_cache_words,
        "rewrite.fuel_exhausted": tracer.raised.get("FuelExhausted", 0),
        "rewrite.complete.rounds": tracer.complete_rounds,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.count_overhead_ratio": counted_wall / untraced_wall,
        "trace.spans": len(tracer.span_start),
    })
    return ops, metrics, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "curveform" / "__init__.py").is_file():
        print(f"error: no curveform package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        setup(workload, 0, 1)
        ops, metrics, tracer = per_layer(workload)
        names, notes = PER_LAYER, {}
    else:
        ops, metrics, notes = end_to_end(workload, args.seconds)
        names = list(END_TO_END)
    env = environment(workload.pkg)
    failed = [problems for *_, problems in ops if problems]
    correct = not failed

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "notes": notes, "metrics": metrics,
              "problems": [p for problems in failed for p in problems][:20]}
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}.json")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(failed)} failed")
    print("environment " + json.dumps(env))
    for key, value in notes.items():
        print(f"  {key:36} {value}")
    for key, value in sorted(metrics.items()):
        print(f"  {key:36} {value:.6g} {unit(key)}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": unit(k)} for k in names}}))
    return 0


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
