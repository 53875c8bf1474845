"""Run one workload over several seeds and summarise each metric.

    python3 bench/sweep.py --workload reduce-stream --seeds 1-10 [--json out.json]

Each seed is a separate untraced `bench/run.py` process of BENCHMARK.json's
run_seconds, run one after another from the repository root.  For every
end-to-end metric the summary gives the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, that is the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds,
               "correct": all(r["correct"] for r in runs),
               "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        summary["metrics"][name] = dict(unit=first["unit"], **summarise(
            [r["metrics"][name]["value"] for r in runs]))
    for name, s in summary["metrics"].items():
        print(f"{name:34} median {s['median']:.6g} {s['unit']}  "
              f"quartiles {s['q1']:.6g}..{s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
