"""The rewriting presentation of the Hopf algebra at a curve point.

Owns the normal-form pattern x^i y^j (ax)^l a^m b^n (with a^m meaning g^-m
for m < 0, j and n in {0, 1}), the seed relations, basis/growth counting,
and the decomposition of elements into B-coefficients times tail words,
where B is the (commutative) subalgebra generated by x and y.
The pattern is the regular expression PATTERN, one group per factor.
The census, growth and freeness checks each return a report.Report.
"""

from __future__ import annotations

import math
import random
import re
from itertools import product

from .errors import DiamondFailure
from .freealg import ALPHABET, NcPoly, word_key
from .parser import parse_expr
from .report import Report
from .scalar import CurvePoint, ONE, Scalar
from .rewrite import DEFAULT_FUEL, OrientationPolicy, Rule, RuleSystem, complete


# groups: x^i, y^j, (ax)^l, a^m or g^-m, b^n
PATTERN = re.compile(r"(x*)(y?)((?:ax)*)(a*|g*)(b?)")


def basis_index(w: str):
    """Index (i, j, l, m, n) of a pattern word, or None if w does not match."""
    match = PATTERN.fullmatch(w)
    if match is None:
        return None
    xs, y, ax, mid, b = match.groups()
    return (len(xs), len(y), len(ax) // 2, -len(mid) if mid[:1] == "g" else len(mid), len(b))


def is_basis_word(w: str) -> bool:
    return PATTERN.fullmatch(w) is not None


def index_word(i, j, l, m, n) -> str:
    """Inverse of basis_index."""
    mid = "a" * m if m >= 0 else "g" * (-m)
    return "x" * i + "y" * j + "ax" * l + mid + "b" * n


def pattern_words(max_len: int, keep=None):
    """Pattern words of length <= max_len, in graded-lex order, whose index
    (i, j, l, m, n) satisfies keep (all of them when keep is None)."""
    out = []
    for i in range(max_len + 1):
        for j in (0, 1):
            for l in range((max_len - i - j) // 2 + 1):
                for n in (0, 1):
                    rem = max_len - i - j - 2 * l - n
                    for m in range(-rem, rem + 1):
                        if keep is None or keep(i, j, l, m, n):
                            out.append(index_word(i, j, l, m, n))
    return sorted(out, key=word_key)


def b_part(i, j, l, m, n) -> bool:
    """pattern_words filter for the B-basis words x^i y^j."""
    return not (l or m or n)


def tail_part(i, j, l, m, n) -> bool:
    """pattern_words filter for the tail words (ax)^l a^m b^n."""
    return not (i or j)


def seed_rules(point: CurvePoint):
    """The thirteen defining relations, oriented toward the pattern.

    The relation by = -yb + 2p*b^2 is stored pre-folded through b^2 = a^3 so
    its rhs is pattern-pure.
    """
    q, p = point.q, point.p
    one = NcPoly.one()

    def r(lhs, rhs, origin="given"):
        return Rule(lhs, rhs, origin)

    return [
        r("ag", one),
        r("ga", one),
        r("ba", NcPoly.word("ab")),
        r("bg", NcPoly.word("gb")),
        r("bx", NcPoly.word("xb")),
        r("yx", NcPoly.word("xy")),
        r("ay", NcPoly.word("ya")),
        r("gy", NcPoly.word("yg")),
        r("yy", NcPoly({"xx": ONE, "xxx": ONE})),
        r("bb", NcPoly.word("aaa")),
        r("by", NcPoly({"yb": -ONE, "aaa": 2 * p}), origin="folded"),
        r("aax", NcPoly({"xaa": -ONE, "axa": -ONE, "aa": -ONE,
                         "aaa": ONE + 3 * q})),
        r("axx", NcPoly({"ax": -ONE, "xa": -ONE, "xxa": -ONE, "xax": -ONE,
                         "aaa": (2 + 3 * q) * q})),
    ]


class NodalAlgebra:
    """A completed, diamond-checked rule system at a fixed curve point."""

    def __init__(self, point, system, completion_log, diamond_report):
        self.point = point
        self.system = system
        self.completion_log = completion_log
        self.diamond_report = diamond_report

    def nf(self, f: NcPoly) -> NcPoly:
        return self.system.normal_form(f)

    def parse_nf(self, text: str) -> NcPoly:
        return self.nf(parse_expr(text, self.point))


def build_algebra(point: CurvePoint, fuel=DEFAULT_FUEL) -> NodalAlgebra:
    """Seed, complete, and verify the rule system at a point.

    fuel is the reduction budget of the rule system, spent by its completion
    and every later reduction in the algebra.  The diamond report is the
    last completion round, log.diamond: every ambiguity of the completed
    system reduced along both branches over the rules' field of definition,
    with no second pass over the witnesses.
    Raises DiamondFailure if any ambiguity of the completed system fails to
    resolve, and ValueError if some completed rhs leaves the pattern span.
    """
    seed = RuleSystem(seed_rules(point), fuel)
    completed, log = complete(seed, OrientationPolicy(is_basis_word))
    report = log.diamond
    if not report.ok:
        raise DiamondFailure(report)
    for rule in completed.rules:
        bad = [w for w in rule.rhs.terms if not is_basis_word(w)]
        if bad:
            raise ValueError(f"rule {rule.lhs!r} has non-pattern rhs words {bad}")
    return NodalAlgebra(point, completed, log, report)


# -- census and growth ---------------------------------------------------

def count_basis_words(length: int) -> int:
    """Number of pattern words of exactly the given length L >= 0, in closed
    form: 2L^2 + 2L + 1, so that growth at length 200 never lists the words."""
    return 2 * length * length + 2 * length + 1


def basis_census(alg: NodalAlgebra, max_len: int) -> Report:
    """Exhaustively scan all words of each length <= max_len and confirm
    irreducible == pattern, cross-checked against tuple-enumeration counts."""
    match = alg.system.match
    irr_counts, scan_counts, enum_counts, mismatches = [], [], [], []
    for length in range(max_len + 1):
        irr = 0
        pat = 0
        for tup in product(ALPHABET, repeat=length):
            w = "".join(tup)
            reducible = match(w) is not None
            pattern = is_basis_word(w)
            if not reducible:
                irr += 1
            if pattern:
                pat += 1
            if reducible == pattern:
                mismatches.append(w)
        irr_counts.append(irr)
        scan_counts.append(pat)
        enum_counts.append(count_basis_words(length))
    ok = not mismatches and irr_counts == scan_counts == enum_counts
    return Report("census", {"max_len": max_len, "irreducible_counts": irr_counts,
                             "pattern_scan_counts": scan_counts,
                             "pattern_enum_counts": enum_counts,
                             "mismatches": mismatches[:20]}, ok)


# GK-dimension 3: the doubling exponent must land within 3.0 +- 0.2
GROWTH_EXPONENT = 3.0
GROWTH_TOLERANCE = 0.2


def growth(alg: NodalAlgebra, max_len: int) -> Report:
    """Pattern-word counts up to max_len and the doubling-based growth
    exponent log2(c(2L)/c(L)) at the largest available L, which must lie
    within GROWTH_TOLERANCE of GROWTH_EXPONENT (None, below L = 2, fails)."""
    counts = [count_basis_words(length) for length in range(max_len + 1)]
    cumulative = []
    running = 0
    for c in counts:
        running += c
        cumulative.append(running)
    half = max_len // 2
    exponent = math.log2(cumulative[2 * half] / cumulative[half]) if half >= 1 else None
    ok = exponent is not None and abs(exponent - GROWTH_EXPONENT) <= GROWTH_TOLERANCE
    return Report("growth", {"max_len": max_len, "counts": counts,
                             "cumulative": cumulative, "exponent": exponent}, ok)


# -- B-module decomposition ----------------------------------------------

def split_pattern_word(w: str):
    """Split a pattern word into (B-prefix x^i y^j, tail (ax)^l a^m b^n)."""
    match = PATTERN.fullmatch(w)
    if match is None:
        raise ValueError(f"{w!r} is not a pattern word")
    cut = match.end(2)
    return w[:cut], w[cut:]


def b_decompose(f: NcPoly, alg: NodalAlgebra) -> dict:
    """Reduce f and group its words by tail: {tail: B-coefficient}, each
    coefficient an NcPoly in the words x^i y^j.  Left freeness of A over B
    says f is the sum in A of coefficient * tail, with these coefficients
    unique."""
    coeffs = {}
    for w, c in alg.nf(f).terms.items():
        prefix, tail = split_pattern_word(w)
        coeffs.setdefault(tail, {})[prefix] = c
    return {t: NcPoly(d) for t, d in coeffs.items()}


def random_poly(rng, coeff_pool, max_len=6, max_terms=3) -> NcPoly:
    """Seeded random free polynomial: up to max_terms uniform words of length
    <= max_len with coefficients drawn from coeff_pool."""
    def term():
        length = rng.randint(0, max_len)
        return "".join(rng.choice(ALPHABET) for _ in range(length)), rng.choice(coeff_pool)

    return NcPoly([term() for _ in range(rng.randint(1, max_terms))])


def freeness_check(alg: NodalAlgebra, max_len: int, samples=500, seed=0) -> Report:
    """Left-freeness evidence: NF(b-word * tail) is the concatenated word for
    all combined lengths <= max_len, and on random elements f the
    decomposition multiplies back in A: sum over tails t of NF(coeff_t * t)
    is NF(f).  Also records (without asserting) whether the
    right-handed products NF(tail * b-word) stay tail-pure."""
    failures = []
    checked = 0
    tails = pattern_words(max_len, tail_part)
    for bw in pattern_words(max_len, b_part):
        for t in tails:
            if len(bw) + len(t) > max_len:
                continue
            checked += 1
            nf = alg.nf(NcPoly.word(bw + t))
            if nf != NcPoly.word(bw + t):
                failures.append({"kind": "concat", "b": bw, "tail": t})
    rng = random.Random(seed)
    pool = [Scalar(1), Scalar(-1), Scalar(2), Scalar(-2), alg.point.q, alg.point.p]
    for _ in range(samples):
        f = random_poly(rng, pool, max_len=min(max_len, 8))
        back = sum((alg.nf(coeff * NcPoly.word(t)) for t, coeff in
                    b_decompose(f, alg).items()), NcPoly.zero())
        if back != alg.nf(f):
            failures.append({"kind": "roundtrip", "poly": f.to_json()})
    right_pure = True
    for bw in pattern_words(min(max_len, 4), b_part):
        for t in pattern_words(min(max_len, 4), tail_part):
            if not bw or not t:
                continue
            nf = alg.nf(NcPoly.word(t + bw))
            tails_seen = {split_pattern_word(w)[1] for w in nf.terms}
            if tails_seen != {t}:
                right_pure = False
    return Report("freeness", {"checked_products": checked, "roundtrip_samples": samples,
                               "right_tail_pure": right_pure,
                               "failures": failures[:20]}, not failures)
