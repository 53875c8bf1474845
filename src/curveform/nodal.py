"""The rewriting presentation of the Hopf algebra at a curve point.

Owns the normal-form pattern x^i y^j (ax)^l a^m b^n (with a^m meaning g^-m
for m < 0, j and n in {0, 1}), the seed relations, basis/growth counting,
and the decomposition of elements into B-coefficients times tail words,
where B is the (commutative) subalgebra generated by x and y.
The pattern is the regular expression PATTERN, one group per factor, and
the basis words are listed by walking its language (pattern_words).
The census, growth and freeness checks each return a report.Report, and
freeness takes its verdict from the census.

The seeds are completed once per process, at the generic point, over
Q[q, p]: every coefficient of the completed rules is a polynomial in the
point, and the rules are monic, so by Bergman's diamond lemma, which holds
over any commutative base ring, the template is confluent at every point.
build_algebra substitutes its point into the template and checks the
diamond there.
"""

from __future__ import annotations

import math
import re
from functools import cache
from itertools import accumulate

from .errors import NotPatternWord
from .freealg import ALPHABET, NcPoly
from .parser import parse_expr
from .report import Report, attempt
from .scalar import GENERIC, CurvePoint, ONE, QPoly, Scalar
from .rewrite import DEFAULT_FUEL, CompletionLog, Rule, RuleSystem, complete


# groups: x^i, y^j, (ax)^l, a^m or g^-m, b^n
PATTERN = re.compile(r"(x*)(y?)((?:ax)*)(a*|g*)(b?)")


def is_basis_word(w: str) -> bool:
    return PATTERN.fullmatch(w) is not None


def is_b_word(w: str) -> bool:
    """Whether w is a word in B's letters x, y only, so an element of B."""
    return not w.strip("xy")


@cache
def pattern_words(max_len: int) -> tuple:
    """Pattern words of length <= max_len, in graded-lex order.  PATTERN's
    language is prefix-closed, so each length is the one-letter extensions,
    in ALPHABET order, of the pattern words one shorter that still match."""
    words, level = [""], [""]
    for _ in range(max_len):
        level = [w + ch for w in level for ch in ALPHABET if is_basis_word(w + ch)]
        words += level
    return tuple(words)


def seed_rules(point: CurvePoint):
    """The thirteen defining relations as rules, each lhs the maximum word of
    its relation under the termination order of rewrite.py.

    The relation by = -yb + 2p*b^2 is stored pre-folded through b^2 = a^3 so
    its rhs is pattern-pure.  build_algebra keeps these rules first, and
    hopf.relation_polys reads the relations off them, as lhs - rhs.
    """
    q, p = point.q, point.p
    one = NcPoly.one()
    return [
        Rule("ag", one),
        Rule("ga", one),
        Rule("ba", NcPoly.word("ab")),
        Rule("bg", NcPoly.word("gb")),
        Rule("bx", NcPoly.word("xb")),
        Rule("yx", NcPoly.word("xy")),
        Rule("ay", NcPoly.word("ya")),
        Rule("gy", NcPoly.word("yg")),
        Rule("yy", NcPoly({"xx": ONE, "xxx": ONE})),
        Rule("bb", NcPoly.word("aaa")),
        Rule("by", NcPoly({"yb": -ONE, "aaa": 2 * p}), origin="folded"),
        Rule("aax", NcPoly({"xaa": -ONE, "axa": -ONE, "aa": -ONE,
                            "aaa": ONE + 3 * q})),
        Rule("axx", NcPoly({"ax": -ONE, "xa": -ONE, "xxa": -ONE, "xax": -ONE,
                            "aaa": (2 + 3 * q) * q})),
    ]


class NodalAlgebra:
    """A completed, diamond-checked rule system at a fixed curve point."""

    def __init__(self, point, system, completion_log):
        self.point = point
        self.system = system
        self.completion_log = completion_log

    @property
    def diamond_report(self):
        """The diamond check of the system: the completion's last round."""
        return self.completion_log.diamond

    def nf(self, f: NcPoly) -> NcPoly:
        """The normal form of the NcPoly f."""
        return self.system.normal_form(f)

    def parse_nf(self, text: str) -> NcPoly:
        return self.nf(parse_expr(text, self.point))


def build_algebra(point: CurvePoint, fuel=DEFAULT_FUEL) -> NodalAlgebra:
    """Substitute the point into the completed template and check its diamond.

    The template is the completion of seed_rules(GENERIC) over Q[q, p],
    made once per process (_template).  Each rule is monic, so Bergman's
    diamond lemma, which holds over any commutative base ring, carries its
    confluence to every point.  The build still checks it: complete on the
    substituted rules returns after its first round, which reduces every
    ambiguity along both branches from a cold nf cache, and that round is
    the diamond report.  fuel is the reduction budget of the rule system,
    spent by that check and every later reduction in the algebra; the
    template is made at DEFAULT_FUEL.  The log is the template's, its
    added rules the system's own specialised ones.
    """
    rules, log = _template(tuple((r.lhs, tuple(r.rhs.terms.items()), r.origin)
                                 for r in seed_rules(GENERIC)))
    system, check = complete(RuleSystem([_at(rule, point) for rule in rules], fuel),
                             is_basis_word)
    added = list(zip([w for w, _ in log.added], system.rules[len(rules) - len(log.added):]))
    return NodalAlgebra(point, system, CompletionLog(added, check.diamond, log.counts))


@cache
def _template(seeds: tuple):
    """The rules and log of the completion of the seeds, each given as
    (lhs, rhs terms, origin), at DEFAULT_FUEL; memoised, so the completion
    of seed_rules(GENERIC) runs once per process, and seeds of other
    coefficients, a mutant's, are completed as given.  Raises ValueError if
    some completed rhs leaves the pattern span, which no substitution into
    it can enter."""
    system, log = complete(RuleSystem([Rule(lhs, NcPoly(terms), origin)
                                       for lhs, terms, origin in seeds]), is_basis_word)
    for rule in system.rules:
        bad = [w for w in rule.rhs.terms if not is_basis_word(w)]
        if bad:
            raise ValueError(f"rule {rule.lhs!r} has non-pattern rhs words {bad}")
    return system.rules, log


def _at(rule: Rule, point: CurvePoint) -> Rule:
    """rule with each Q[q, p] coefficient of its rhs valued at point."""
    return Rule(rule.lhs, NcPoly([(w, c.at(point) if type(c) is QPoly else c)
                                  for w, c in rule.rhs.terms.items()]), rule.origin)


# -- census and growth ---------------------------------------------------

def count_basis_words(length: int) -> int:
    """Number of pattern words of exactly the given length L >= 0, in closed
    form: 2L^2 + 2L + 1, so that growth at length 200 never lists the words."""
    return 2 * length * length + 2 * length + 1


def basis_census(alg: NodalAlgebra, max_len: int) -> Report:
    """Confirm irreducible == pattern for every word of length <= max_len,
    cross-checked against the closed-form pattern counts.

    The words are walked level by level, each level in product order, and
    a word that is reducible and not a pattern word is not extended: each
    of its extensions still holds the lhs it holds, and is no pattern word
    either, since PATTERN is prefix-closed.  So every word left out is
    reducible and not a pattern word, and the counts and the mismatches,
    in product order, are those of a scan of all 5^L words; at the
    completed systems a level holds 5 times the pattern words one shorter.
    The report lists the first 20 mismatches and counts them all.
    """
    match = alg.system.match
    irr_counts, scan_counts, enum_counts, mismatches = [], [], [], []
    level = [""]
    for length in range(max_len + 1):
        irr = 0
        pat = 0
        kept = []
        for w in level:
            reducible = match(w) is not None
            pattern = is_basis_word(w)
            if not reducible:
                irr += 1
            if pattern:
                pat += 1
            if reducible == pattern:
                mismatches.append(w)
            if pattern or not reducible:
                kept.append(w)
        irr_counts.append(irr)
        scan_counts.append(pat)
        enum_counts.append(count_basis_words(length))
        level = [w + ch for w in kept for ch in ALPHABET]
    ok = not mismatches and irr_counts == scan_counts == enum_counts
    return Report("census", {"max_len": max_len, "irreducible_counts": irr_counts,
                             "pattern_scan_counts": scan_counts,
                             "pattern_enum_counts": enum_counts,
                             "mismatches": mismatches[:20],
                             "mismatch_count": len(mismatches)}, ok)


# GK-dimension 3: the doubling exponent must land within 3.0 +- 0.2
GROWTH_EXPONENT = 3.0
GROWTH_TOLERANCE = 0.2


def growth(alg: NodalAlgebra, max_len: int) -> Report:
    """Pattern-word counts up to max_len and the doubling-based growth
    exponent log2(c(2L)/c(L)) at the largest available L, which must lie
    within GROWTH_TOLERANCE of GROWTH_EXPONENT (None, below L = 2, fails)."""
    counts = [count_basis_words(length) for length in range(max_len + 1)]
    cumulative = list(accumulate(counts))
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
        raise NotPatternWord(w)
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


def sample_coefficients(point: CurvePoint):  # the pool of the seeded random samples
    return [Scalar(1), Scalar(-1), Scalar(2), Scalar(-2), point.q, point.p]


def random_poly(rng, coeff_pool, max_len=6) -> NcPoly:
    """Seeded random free polynomial: one to three uniform words of length
    <= max_len with coefficients drawn from coeff_pool."""
    def term():
        length = rng.randint(0, max_len)
        return "".join(rng.choice(ALPHABET) for _ in range(length)), rng.choice(coeff_pool)

    return NcPoly([term() for _ in range(rng.randint(1, 3))])


def freeness_check(alg: NodalAlgebra, max_len: int) -> Report:
    """Left-freeness evidence read off basis_census(alg, max_len): up to
    max_len the pattern words are the irreducible words, so a basis of A
    (diamond lemma), each uniquely a b-word times a tail.  Each census
    mismatch is one failure: a reducible pattern word as its split
    ("concat"), an irreducible word outside the pattern as "irreducible".
    Also records (without asserting) whether the right-handed products
    NF(tail * b-word) stay tail-pure; one that cannot finish
    (report.attempt) is a failure that holds the error under "error"."""
    census = basis_census(alg, max_len)
    failures = []
    for w in census.fields["mismatches"]:
        if is_basis_word(w):
            bw, t = split_pattern_word(w)
            failures.append({"kind": "concat", "b": bw, "tail": t})
        else:
            failures.append({"kind": "irreducible", "word": w})
    count = census.fields["mismatch_count"]
    right_pure = True
    short = pattern_words(min(max_len, 4))
    b_words = [w for w in short if w and is_b_word(w)]
    tails = [w for w in short if w and not split_pattern_word(w)[0]]
    for bw in b_words:
        for t in tails:
            nf_tails, error = attempt(lambda: {
                split_pattern_word(w)[1] for w in alg.system.nf_word(t + bw)})
            if error:
                failures.append({"kind": "right_product", "b": bw, "tail": t, "error": error})
                count += 1
            elif nf_tails != {t}:
                right_pure = False
    return Report("freeness", {"checked_products": sum(census.fields["pattern_scan_counts"]),
                               "right_tail_pure": right_pure, "failures": failures[:20],
                               "failure_count": count}, census.ok and not failures)
