"""The three benchmark workloads.

Each workload is a closed loop: one client in one process, issuing its next
operation only after the previous one returned.  Its inputs come from the
seed alone and are built as plain data before curveform is imported;
`setup` turns them into package objects.  One pass runs a fixed list of
operations and returns, per operation, its refclock.now() readings (CPU
time) at start and end and the list of problems its known-answer check found (empty when
correct).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
import oracle
from refclock import now

F = Fraction


def _failure(exc):
    return [f"{type(exc).__name__}: {exc}"]


class SuiteInt:
    """`curveform suite all --json --seed 42` in-process at t = 2, (q, p) = (3, 6).

    The user's headline command; every coefficient is an integer, and the
    Hopf checks do most of the work.  The suite's own --seed draws the 200
    random elements of the Hopf-axiom check, whose cost is heavy-tailed (one
    suite took 11.7 s at --seed 3 and 20.9 s at --seed 4 on the same
    machine), so the workload always runs the reference seed 42 and ignores
    the benchmark seed; the self-tests check the verdicts at other suite
    seeds.  Two passes at least, so that the stdout digests of the command
    can be compared."""

    name = "suite-int"
    min_passes = 2
    SUITE_SEED = 42

    def __init__(self, seed, suite_seed=SUITE_SEED):
        self.suite_seed = suite_seed
        self.argv = ["suite", "all", "--json", "--seed", str(suite_seed)]
        self.digests = []
        self.algebra = None

    def setup(self, pkg):
        self.pkg = pkg

    def reset(self):
        pass

    def run_pass(self):
        out = io.StringIO()
        start = now()
        try:
            with contextlib.redirect_stdout(out):
                code = self.pkg.cli.main(self.argv)
        except Exception as exc:  # any crash is one failed operation
            return [(start, now(), _failure(exc))]
        end = now()
        text = out.getvalue()
        self.last = (text, code)
        self.digests.append(hashlib.sha256(text.encode()).hexdigest())
        problems = oracle.check_suite(text, code, self.suite_seed)
        if len(set(self.digests)) != 1:
            problems.append(f"stdout digest differs between passes: {self.digests}")
        return [(start, end, problems)]


class ReduceStream:
    """A stream of alg.nf(f * g) at the non-integral point t = 7/5.

    f and g have 1 to 3 terms whose words have length 0 to 6.  Reduction
    cost is heavy-tailed in word structure (one product in a few thousand
    can take seconds), so a stream drawn afresh for each seed makes ops/s
    swing by a third between seeds.  The words therefore come from a corpus
    fixed by CORPUS_SEED; the seed draws the order of the products and every
    coefficient, from a pool of non-integral elements of Q(r).  Each pass
    starts from a freshly built algebra, so the nf cache starts cold and
    mostly takes inserts.  A pass is 300 products: the tail is then the
    11th slowest of 300 (p96.7), among reductions.  With 900 products it was
    the 11th slowest of 900, among the full garbage collections that the
    growing cache triggers (about ten per pass, 60 to 130 ms each), where it
    moved by a quarter between runs of one seed; and a run held a third as
    many passes to take medians over."""

    name = "reduce-stream"
    min_passes = 1
    T = F(7, 5)
    CORPUS_SEED = 20160401
    PRODUCTS = 300
    COEFFS = [(F(1, 2), F(0)), (F(-3, 4), F(0)), (F(2, 3), F(1)), (F(0), F(1)),
              (F(5), F(-2, 7)), (F(-7, 5), F(0)), (F(1), F(-1)), (F(-5, 3), F(1, 2))]

    def __init__(self, seed):
        corpus = random.Random(self.CORPUS_SEED)

        def words():
            return ["".join(corpus.choice("xyagb") for _ in range(corpus.randint(0, 6)))
                    for _ in range(corpus.randint(1, 3))]

        skeletons = [(words(), words()) for _ in range(self.PRODUCTS)]
        rng = random.Random(seed)
        rng.shuffle(skeletons)
        self.inputs = []
        for fw, gw in skeletons:
            f = {w: rng.choice(self.COEFFS) for w in fw}
            g = {w: rng.choice(self.COEFFS) for w in gw}
            self.inputs.append((f, g))
        self.q, self.p = oracle.point(self.T)

    def setup(self, pkg):
        self.pkg = pkg
        scalar, poly = pkg.scalar.Scalar, pkg.freealg.NcPoly
        self.polys = [(poly({w: scalar(*c) for w, c in f.items()}),
                       poly({w: scalar(*c) for w, c in g.items()}))
                      for f, g in self.inputs]
        self.reset()

    def reset(self):
        self.algebra = None
        self.algebra = self.pkg.nodal.build_algebra(self.pkg.scalar.curve_point_from_t(self.T))

    def run_pass(self):
        alg = self.algebra
        results = []
        for (f, g), (fp, gp) in zip(self.inputs, self.polys):
            start = now()
            try:
                nf = alg.nf(fp * gp)
            except Exception as exc:  # FuelExhausted and any crash fail the operation
                results.append((start, now(), _failure(exc)))
                continue
            end = now()
            terms = {w: (c.c0, c.c1) for w, c in nf.terms.items()}
            results.append((start, end, oracle.check_reduction(f, g, terms, self.q, self.p)))
        return results


class OneshotQuery:
    """One user query per operation: build_algebra at a seeded rational
    point, parse_nf of one expression, format_poly.

    Every operation starts from a cold nf cache and pays for completion and
    the diamond check, so work moved into build_algebra shows up here as a
    loss.  Exactly half of the points are integers in [-9, 9], the other half
    have denominators 2 to 7, and every expression appears equally often:
    the seed draws the values and the order, not the mix, so that the median
    does not move with a binomial draw of cheap and dear queries."""

    name = "oneshot-query"
    min_passes = 1
    QUERIES = 100

    def __init__(self, seed):
        rng = random.Random(seed)
        half = self.QUERIES // 2
        points = [F(rng.randint(-9, 9)) for _ in range(half)]
        while len(points) < self.QUERIES:
            t = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3, 4, 5, 7)))
            if t.denominator != 1:
                points.append(t)
        exprs = [oracle.QUERIES[i % len(oracle.QUERIES)] for i in range(self.QUERIES)]
        rng.shuffle(points)
        rng.shuffle(exprs)
        self.inputs = list(zip(points, exprs))
        self.algebra = None

    def setup(self, pkg):
        self.pkg = pkg

    def reset(self):
        pass

    def run_pass(self):
        nodal, scalar, printing = self.pkg.nodal, self.pkg.scalar, self.pkg.printing
        results = []
        for t, expr in self.inputs:
            start = now()
            try:
                alg = nodal.build_algebra(scalar.curve_point_from_t(t))
                nf = alg.parse_nf(expr)
                text = printing.format_poly(nf)
            except Exception as exc:  # any crash is one failed operation
                results.append((start, now(), _failure(exc)))
                continue
            end = now()
            terms = {w: (c.c0, c.c1) for w, c in nf.terms.items()}
            results.append((start, end, oracle.check_query(expr, t, terms, text)))
        return results


WORKLOADS = {w.name: w for w in (SuiteInt, ReduceStream, OneshotQuery)}
