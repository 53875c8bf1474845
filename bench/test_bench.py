"""Self-tests of the benchmark.  From the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"

They run each workload on a few inputs, show that every known-answer check
goes red on a corrupted answer, and that another seed changes the inputs
but not the verdicts.  The suite-int cases run the full suite (tens of
seconds).
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import curveform  # noqa: E402
import curveform.cli  # noqa: E402,F401


def restore_modules(loaded):
    for name in [k for k in sys.modules if k.split(".")[0] == "curveform"]:
        del sys.modules[name]
    sys.modules.update(loaded)


def tiny(workload, n):
    """The workload cut to its first n operations, set up."""
    workload.inputs = workload.inputs[:n]
    workload.setup(curveform)
    return workload


class SuiteIntTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.SuiteInt(1)
        cls.seed = workloads.SuiteInt.SUITE_SEED
        cls.workload.setup(curveform)
        cls.results = cls.workload.run_pass()
        cls.stdout, cls.code = cls.workload.last

    def test_pass_is_correct(self):
        self.assertIs(self.workload.pkg, curveform)
        self.assertEqual([problems for *_, problems in self.results], [[]])
        self.assertEqual(oracle.check_suite(self.stdout, self.code, self.seed), [])

    def corrupted(self, change):
        obj = json.loads(self.stdout)
        change({r["check"]: r for r in obj["reports"]}, obj)
        return json.dumps(obj)

    def test_corruptions_go_red(self):
        def residual(r, _):
            entry = next(e for e in r["alt_presentation"]["entries"] if e["name"] == "bd = -db")
            entry["residual"][0]["coeff"]["c0"] = "-35"

        def hopf_entry(r, _):
            r["hopf_axioms"]["entries"][7]["status"] = "fail"

        def rules(r, _):
            r["diamond"]["rules"] = 16

        def units(r, _):
            r["units"]["entries"][4]["invertible"] = True

        def alt_passes(r, _):
            entry = next(e for e in r["alt_presentation"]["entries"] if e["name"] == "bd = -db")
            entry["status"] = "pass"

        def witness(r, _):
            r["galois_witness"]["normal_form"][0]["coeff"]["c0"] = "11"

        def census(r, _):
            r["census"]["irreducible_counts"][3] += 1

        for change in (residual, hopf_entry, rules, units, alt_passes, witness, census):
            with self.subTest(change.__name__):
                self.assertTrue(oracle.check_suite(self.corrupted(change), self.code, self.seed))
        self.assertTrue(oracle.check_suite(self.stdout, 0, self.seed))
        self.assertTrue(oracle.check_suite(self.stdout, self.code, self.seed + 1))
        self.assertTrue(oracle.check_suite(self.stdout[:-5], self.code, self.seed))
        self.assertTrue(oracle.check_suite(self.corrupted(lambda r, _: r["units"].pop("entries")),
                                           self.code, self.seed))

    def test_other_suite_seed_same_verdicts(self):
        other = workloads.SuiteInt(1, suite_seed=3)
        other.setup(curveform)
        self.assertNotEqual(other.argv, self.workload.argv)
        self.assertEqual([problems for *_, problems in other.run_pass()], [[]])


class ReduceStreamTest(unittest.TestCase):
    def test_tiny_run(self):
        workload = tiny(workloads.ReduceStream(1), 40)
        self.assertEqual([p for *_, p in workload.run_pass() if p], [])

    def test_seed_changes_inputs_not_verdicts(self):
        a, b = workloads.ReduceStream(1), workloads.ReduceStream(2)
        self.assertEqual(a.inputs, workloads.ReduceStream(1).inputs)
        self.assertNotEqual(a.inputs[:40], b.inputs[:40])
        self.assertEqual([p for *_, p in tiny(b, 40).run_pass() if p], [])

    def test_corruptions_go_red(self):
        q, p = oracle.point(workloads.ReduceStream.T)
        alg = curveform.build_algebra(curveform.curve_point_from_t(workloads.ReduceStream.T))
        f = {"gx": (Fraction(1, 2), Fraction(0)), "b": (Fraction(0), Fraction(1))}
        g = {"xa": (Fraction(-3, 4), Fraction(0))}
        to_poly = lambda d: curveform.NcPoly({w: curveform.Scalar(*c) for w, c in d.items()})
        nf = {w: (c.c0, c.c1) for w, c in alg.nf(to_poly(f) * to_poly(g)).terms.items()}
        self.assertEqual(oracle.check_reduction(f, g, nf, q, p), [])
        word = next(iter(nf))
        changed = dict(nf, **{word: (nf[word][0] + 1, nf[word][1])})
        self.assertTrue(oracle.check_reduction(f, g, changed, q, p))
        self.assertTrue(oracle.check_reduction(f, g, dict(nf, ga=(Fraction(0), Fraction(0))), q, p))
        moved = {("g" + w if w == word else w): c for w, c in nf.items()}
        self.assertTrue(oracle.check_reduction(f, g, moved, q, p))


class OneshotQueryTest(unittest.TestCase):
    def test_tiny_run(self):
        workload = tiny(workloads.OneshotQuery(1), 6)
        self.assertEqual([p for *_, p in workload.run_pass() if p], [])

    def test_every_query_at_special_points(self):
        workload = workloads.OneshotQuery(1)
        workload.inputs = [(Fraction(t), expr) for t in (2, 1, 0, -1, Fraction(7, 5))
                           for expr in oracle.QUERIES]
        workload.setup(curveform)
        self.assertEqual([p for *_, p in workload.run_pass() if p], [])

    def test_seed_changes_inputs_not_verdicts(self):
        a, b = workloads.OneshotQuery(1), workloads.OneshotQuery(2)
        self.assertEqual(a.inputs, workloads.OneshotQuery(1).inputs)
        self.assertNotEqual(a.inputs, b.inputs)
        self.assertEqual(sum(t.denominator == 1 for t, _ in a.inputs), len(a.inputs) // 2)
        self.assertEqual([p for *_, p in tiny(b, 6).run_pass() if p], [])

    def test_corruptions_go_red(self):
        t = Fraction(2)
        one, zero = Fraction(1), Fraction(0)
        terms = {"axgg": (-one, zero), "xg": (-one, zero), "g": (-one, zero),
                 "": (Fraction(10), zero)}
        text = "-a*x*a^-2 - x*a^-1 - a^-1 + 10"
        self.assertEqual(oracle.check_query("a^-1*x", t, terms, text), [])
        self.assertTrue(oracle.check_query("a^-1*x", t, terms, text.replace("10", "11")))
        self.assertTrue(oracle.check_query("a^-1*x", t, dict(terms, g=(one, zero)), text))
        self.assertTrue(oracle.check_query("a^-1*x", t, dict(terms, g=(-one, one)), text))
        self.assertTrue(oracle.check_query("b*b", t, {"aaa": (one, zero)}, "b^2"))
        self.assertTrue(oracle.check_query("b*b", t, {}, "0"))


class HarnessTest(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))

    def test_end_to_end_metrics_of_a_tiny_run(self):
        # the run imports fresh copies of the package; the other tests use this one
        loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "curveform"}
        self.addCleanup(restore_modules, loaded)
        workload = tiny(workloads.ReduceStream(3), 30)
        ops, metrics, notes = run.end_to_end(workload, 0)
        self.assertEqual(len(ops), 30)
        self.assertEqual(set(metrics), set(run.END_TO_END))
        self.assertTrue(all(value > 0 for value in metrics.values()))
        self.assertEqual(notes["error_rate"], 0)

    def test_traced_passes_report_layers_and_restore_the_package(self):
        workload = tiny(workloads.OneshotQuery(4), 3)
        original = curveform.rewrite.RuleSystem.nf_word, curveform.nodal.build_algebra
        ops, metrics, tracer = run.per_layer(workload)
        self.assertEqual(len(ops), 9)
        self.assertEqual((curveform.rewrite.RuleSystem.nf_word, curveform.nodal.build_algebra),
                         original)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertEqual(tracer.calls["nodal.build_algebra"], 3)
        self.assertEqual(tracer.calls["printing.format_poly"], 3)
        self.assertGreater(metrics["rewrite.complete.rounds"], 0)
        self.assertGreater(metrics["scalar.init.calls"], 0)
        self.assertEqual(len(tracer.span_start), metrics["trace.spans"])
        for name in tracer.names:
            self.assertLessEqual(tracer.self_time[name], tracer.busy[name] + 1e-9)
        parents = [p for p in tracer.span_parent if p >= 0]
        self.assertTrue(all(tracer.span_start[p] <= tracer.span_start[i]
                            for i, p in enumerate(tracer.span_parent) if p >= 0))
        self.assertTrue(parents)

    def test_refclock_drops_reference_tasks_and_scales_by_their_cost(self):
        def clock(cost):
            c = refclock.RefClock()
            c.starts = [0.0, 1.0, 2.0]
            c.ends = [start + cost for start in c.starts]
            return c

        scale = refclock.REFERENCE_S / 0.1
        self.assertAlmostEqual(clock(0.1).seconds(0.1, 2.0), 1.8 * scale)
        self.assertAlmostEqual(clock(0.1).seconds(1.2, 1.7), 0.5 * scale)
        self.assertAlmostEqual(clock(0.2).seconds(0.2, 2.0), 1.6 * scale / 2)
        previous = signal.getsignal(signal.SIGALRM)
        with refclock.RefClock() as live:
            while len(live.starts) < 3:  # the timer fires while the workload runs
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_tail_has_ten_samples_beyond(self):
        value, percentile, n = run.tail(list(range(100)))
        self.assertEqual((value, percentile, n), (89, 90.0, 100))
        self.assertEqual(run.tail([3, 1, 2])[:2], (3, 100.0))

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite-int",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
