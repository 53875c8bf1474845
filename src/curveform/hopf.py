"""Coproduct, counit and antipode, plus every desk-checkable claim about them.

The generator values are:

    delta(x) = 1 (x) (x - q a) + x (x) a     eps(x) = q    S(x) = q - (x - q) a^-1
    delta(y) = 1 (x) (y - p b) + y (x) b     eps(y) = p    S(y) = p - (y - p) b^-1
    delta(a) = a (x) a,  delta(b) = b (x) b, eps(a) = eps(b) = 1

with b^-1 realized in the generators as a^-3 b (from b^2 = a^3).  The maps
are bound to their algebra, StructureMaps(alg).  delta extends
multiplicatively, eps multiplicatively, S anti-multiplicatively; delta and
S are each one memoised recursion over words, reduced in that algebra and
run as a loop from the longest cached prefix (for S, suffix), so a long
word costs no recursion depth.  The Hopf axioms are checked as
compositions of these word maps on one coproduct delta(f): coassociativity
applies delta to its normal-form legs, so it can fail for a delta that is
coassociative on the generators but does not respect the relations.
The generator values are stored once, in the field form of scalar.field
(an int when integral, else a Scalar), the form RuleSystem.nf_word runs
on.  The word maps and axiom residuals run on dicts in that form.  The
word maps and the antipode residuals reduce their products one letter at
a time: S and the residuals by RuleSystem.nf_times, delta as
NF(u u2) (x) NF(v v2) for each term u (x) v of delta(w[:i]) and u2 (x) v2
of delta(w[i]), whose legs have at most one letter.  A cached value (the
normal form of such a leg, delta or S of a word) is read by a dict lookup,
and the map is called only on a miss: cached dicts are never written into,
and fuel counts only words not cached yet, so no fuel outcome moves.
units_suite settles each unit candidate by a proof and searches for no
inverse; the solver _solve_sparse serves the tests' bounded search
(tests/reference_checks.py) and the benchmark's tracer.  What the module
returns holds Scalars only: apply_delta, apply_antipode, apply_counit,
tensor_nf, every report residual and the units witness.
Every check returns a report.Report whose entries are named residuals.  A
sub-check that cannot finish (report.attempt) fails the entries it was
computing, with the error as their residual, and the check goes on; in
units_suite it fails the candidate it was settling.
"""

from __future__ import annotations

import random
from collections import defaultdict
from math import gcd, lcm

from .freealg import (ALPHABET, NcPoly, TensorPoly, accumulate, accumulate_joined,
                      accumulate_outer, accumulate_scaled, concat_product)
from .nodal import (NodalAlgebra, is_b_word, is_basis_word, pattern_words, random_poly,
                    sample_coefficients)
from .parser import parse_expr
from .report import Report, attempt
from .scalar import ONE, R, Scalar, ZERO, denominator, field, reciprocal


class StructureMaps:
    """delta, eps and S of one algebra: generator values at its curve point,
    each held once, over the rules' field (scalar.field), and caches of the
    word-level extensions of delta and S, each reduced to normal form in
    that algebra and held as a dict over the same field, shared: read,
    never mutated.  Every Hopf-axiom check and the Galois layer are built
    from these word maps."""

    def __init__(self, alg: NodalAlgebra):
        q, p = field(alg.point.q), field(alg.point.p)
        self.alg = alg
        # (key, coefficient) pairs by letter; a zero q or p term adds nothing
        self.delta_terms = {
            "x": [(("", "x"), 1), (("", "a"), -q), (("x", "a"), 1)],
            "y": [(("", "y"), 1), (("", "b"), -p), (("y", "b"), 1)],
            "a": [(("a", "a"), 1)],
            "g": [(("g", "g"), 1)],
            "b": [(("b", "b"), 1)],
        }
        self.counit_values = {"x": q, "y": p, "a": 1, "g": 1, "b": 1}
        # S(b) = b^-1 = g^3 b;  S(y) = p - (y - p) g^3 b
        self.antipode_terms = {
            "x": [("", q), ("xg", -1), ("g", q)],
            "y": [("", p), ("ygggb", -1), ("gggb", p)],
            "a": [("g", 1)],
            "g": [("a", 1)],
            "b": [("gggb", 1)],
        }
        self._delta_cache = {"": {("", ""): 1}}
        self._antipode_cache = {"": {"": 1}}


def tensor_nf(tp: TensorPoly, alg: NodalAlgebra) -> TensorPoly:
    """The normal form of a tensor polynomial, each leg reduced by nf_word."""
    nf_word, acc = alg.system.nf_word, {}
    for key, c in tp.terms.items():
        terms = [((), c)]
        for leg in map(nf_word, key):
            terms = [(done + (w,), cd * cw) for done, cd in terms for w, cw in leg.items()]
        accumulate(acc, terms)
    return tp._new(acc)


def _delta_word(w: str, maps: StructureMaps) -> dict:
    """delta on a word as a dict {(u, v): coefficient} over the rules' field,
    multiplicatively: delta(w) = delta(w[:-1]) delta(w[-1]), built up from
    the longest cached prefix of w, caching every longer one.  Each leg of
    a product of terms, a normal word times at most one letter, is read
    from the nf cache without a call, by nf_word only on a miss: cached
    dicts are never written into, and fuel counts only uncached words."""
    cache = maps._delta_cache
    n = len(w)
    while w[:n] not in cache:
        n -= 1
    hit, gens, system = cache[w[:n]], maps.delta_terms, maps.alg.system
    lookup, nf_word = system._nf_cache.get, system.nf_word
    for i in range(n, len(w)):
        acc = {}
        for (u, v), c in hit.items():
            for (u2, v2), c2 in gens[w[i]]:
                left, right = u + u2, v + v2
                accumulate_outer(acc, c * c2, lookup(left) or nf_word(left),
                                 lookup(right) or nf_word(right))
        cache[w[:i + 1]] = hit = acc
    return hit


def _delta_sum(pairs, maps: StructureMaps) -> dict:
    """delta of the sum of c * w over the (word, c) pairs, from the cached delta(w)."""
    acc, cached = {}, maps._delta_cache.get
    for w, c in pairs:
        accumulate_scaled(acc, c, cached(w) or _delta_word(w, maps))
    return acc


def apply_delta(f: NcPoly, maps: StructureMaps) -> TensorPoly:
    """Coproduct of f, with both tensor legs reduced to normal form."""
    return TensorPoly(2, _delta_sum(f.terms.items(), maps))


def _counit_word(w: str, maps: StructureMaps):
    """eps on a word, over the rules' field."""
    v, values = 1, maps.counit_values
    for ch in w:
        v = v * values[ch]
    return v


def apply_counit(f: NcPoly, maps: StructureMaps) -> Scalar:
    return sum((c * _counit_word(w, maps) for w, c in f.terms.items()), ZERO)


def _antipode_word(w: str, maps: StructureMaps) -> dict:
    """S on a word as a dict {word: coefficient} over the rules' field,
    anti-multiplicatively: S(w) = S(w[1:]) S(w[0]), built up from the
    longest cached suffix of w, caching every longer one."""
    cache = maps._antipode_cache
    n = 0
    while w[n:] not in cache:
        n += 1
    hit, gens = cache[w[n:]], maps.antipode_terms
    for i in range(n - 1, -1, -1):
        cache[w[i:]] = hit = maps.alg.system.nf_times(
            {t: {s: c * cs for s, cs in hit.items()} for t, c in gens[w[i]] if c})
    return hit


def apply_antipode(f: NcPoly, maps: StructureMaps) -> NcPoly:
    return NcPoly((s, c * cs) for w, c in f.terms.items()
                  for s, cs in _antipode_word(w, maps).items())


# the display name of each defining relation, by the lhs of its seed rule
RELATION_NAMES = {
    "ag": "a a^-1 = 1",
    "ga": "a^-1 a = 1",
    "yy": "y^2 = x^2 + x^3",
    "bb": "b^2 = a^3",
    "ba": "ba = ab",
    "ay": "ya = ay",
    "bx": "bx = xb",
    "yx": "yx = xy",
    "by": "by = -yb + 2pb^2",
    "bg": "ba^-1 = a^-1 b",
    "gy": "a^-1 y = y a^-1",
    "aax": "a^2 x",
    "axx": "a x^2",
}


def relation_polys(alg: NodalAlgebra):
    """The 13 defining relations as (name, lhs - rhs) of the algebra's given
    and folded rules, in the order of RELATION_NAMES; the by-relation is the
    folded one, by + yb - 2p a^3, which with b^2 = a^3 generates the same ideal."""
    rhs = {rule.lhs: rule.rhs for rule in alg.system.rules if rule.origin != "completed"}
    return [(name, NcPoly.word(lhs) - rhs[lhs]) for lhs, name in RELATION_NAMES.items()]


def check_welldefined(maps: StructureMaps) -> Report:
    """delta, eps and S kill every defining relation: the maps are well
    defined on the quotient algebra."""
    report = Report("welldefined", {"point": maps.alg.point, "entries": []})
    for name, rel in relation_polys(maps.alg):
        for kind, apply in (("delta", apply_delta), ("eps", apply_counit),
                            ("S", apply_antipode)):
            report.add_all([f"{kind}({name})"], lambda: [apply(rel, maps)])
    return report


HOPF_AXIOMS = ("coassoc", "counit-left", "counit-right", "antipode-left", "antipode-right")


def check_hopf_axioms(maps: StructureMaps, samples=200, seed=0) -> Report:
    """Coassociativity, counit and both antipode identities, on every
    generator and on seeded random elements (nodal.random_poly), each composed
    from the word maps on the one coproduct d = delta(f): (delta (x) id) d
    and (id (x) delta) d apply delta to the normal-form legs of d."""
    alg = maps.alg
    report = Report("hopf_axioms", {"point": alg.point, "entries": []})
    rng = random.Random(seed)
    pool = sample_coefficients(alg.point)
    elements = [("gen " + ch, NcPoly.word(ch)) for ch in ALPHABET]
    elements += [(f"random {i}", random_poly(rng, pool)) for i in range(samples)]
    for name, f in elements:
        report.add_all([f"{kind} {name}" for kind in HOPF_AXIOMS],
                       lambda: _hopf_residuals(f, maps))
    return report


def _hopf_residuals(f: NcPoly, maps: StructureMaps):
    """The residuals of the HOPF_AXIOMS on f, in that order.  They are
    computed over the rules' field and become a TensorPoly and NcPolys at
    the end.  The antipode sums are grouped by their right words, S(u) v by
    v and u S(v) by the words s of S(v), and RuleSystem.nf_times reduces
    each only once both are built."""
    nf_terms, nf_times = maps.alg.system.nf_terms, maps.alg.system.nf_times
    delta, antipode = maps._delta_cache.get, maps._antipode_cache.get
    terms = f.field_terms()
    d = _delta_sum(terms, maps).items()
    minus_f = [(w, -c) for w, c in nf_terms(terms).items()]
    minus_eps = [("", -sum(c * _counit_word(w, maps) for w, c in terms))]
    coassoc = {}
    for (u, v), c in d:
        accumulate_joined(coassoc, c, delta(u) or _delta_word(u, maps), tail=(v,))
    for (u, v), c in d:
        accumulate_joined(coassoc, -c, delta(v) or _delta_word(v, maps), head=(u,))
    counit_l = accumulate({}, ((v, c * _counit_word(u, maps)) for (u, v), c in d))
    counit_r = accumulate({}, ((u, c * _counit_word(v, maps)) for (u, v), c in d))
    antipode_l, right = defaultdict(dict), defaultdict(list)
    for (u, v), c in d:
        accumulate_scaled(antipode_l[v], c, antipode(u) or _antipode_word(u, maps))
        for s, cs in (antipode(v) or _antipode_word(v, maps)).items():
            right[s].append((u, c * cs))
    antipode_r = {s: accumulate({}, pairs) for s, pairs in right.items()}
    return [TensorPoly(3, coassoc),
            NcPoly(accumulate(counit_l, minus_f)), NcPoly(accumulate(counit_r, minus_f)),
            NcPoly(accumulate(nf_times(antipode_l), minus_eps)),
            NcPoly(accumulate(nf_times(antipode_r), minus_eps))]


def check_identities(alg: NodalAlgebra) -> Report:
    """The three displayed consequences of the commutation relations."""
    report = Report("identities", {"point": alg.point, "entries": []})
    checks = [
        ("(y-pb)^2 = y^2 - p^2 b^2",
         "(y - p*b)^2 - y^2 + p^2*b^2"),
        ("(x-qa)^2 + (x-qa)^3 = x^2 + x^3 - (q^2+q^3) a^3",
         "(x - q*a)^2 + (x - q*a)^3 - x^2 - x^3 + (q^2 + q^3)*a^3"),
        ("(y-pb)^2 = (x-qa)^2 + (x-qa)^3",
         "(y - p*b)^2 - (x - q*a)^2 - (x - q*a)^3"),
    ]
    for name, text in checks:
        report.add_all([name], lambda: [alg.nf(parse_expr(text, alg.point))])
    return report


def check_coideal(maps: StructureMaps, max_deg=6) -> Report:
    """delta(B) is contained in B (x) A: every left tensor leg of delta on a
    B-basis word is a word in B's letters (nodal.is_b_word)."""
    report = Report("coideal", {"point": maps.alg.point, "entries": []})
    for bw in filter(is_b_word, pattern_words(max_deg)):
        report.add_all([f"delta({bw or '1'}) left legs in B"], lambda: [TensorPoly(
            2, {k: c for k, c in _delta_word(bw, maps).items() if not is_b_word(k[0])})])
    return report


def alt_generators(alg: NodalAlgebra):
    """c = 3x - (1+3q)a + 1, d = 3y - 6pb, e = ac + rca, made without
    reduction: they are written in the pattern words 1, x, y, a, b, ax, xa
    and aa, so each is its own normal form where the census passes."""
    c = parse_expr("3*x - (1 + 3*q)*a + 1", alg.point)
    a = NcPoly.word("a")
    return c, parse_expr("3*y - 6*p*b", alg.point), a * c + (c * a).scale(R)


def check_alt_presentation(alg: NodalAlgebra) -> Report:
    """All 14 relations of the presentation in a, a^-1, b, c, d, e, each
    reduced on its own."""
    report = Report("alt_presentation", {"point": alg.point, "entries": []})
    c, d, e = alt_generators(alg)
    a, g, b = NcPoly.word("a"), NcPoly.word("g"), NcPoly.word("b")
    one = NcPoly.one()
    q = alg.point.q
    rinv = ONE - R  # r^-1 = 1 - r
    a3 = NcPoly.word("aaa")
    rels = [
        ("a a^-1 = 1", a * g - one),
        ("a^-1 a = 1", g * a - one),
        ("ab = ba", a * b - b * a),
        ("ac + rca = e", a * c + (c * a).scale(R) - e),
        ("ad = da", a * d - d * a),
        ("ae + r^-1 ea = 0", a * e + (e * a).scale(rinv)),
        ("bc = cb", b * c - c * b),
        ("bd = -db", b * d + d * b),
        ("be = eb", b * e - e * b),
        ("b^2 = a^3", b * b - a3),
        ("cd = dc", c * d - d * c),
        ("r^-1 ce + ec = 3(a - a^3)", (c * e).scale(rinv) + e * c - (a - a3).scale(3)),
        ("de = ed", d * e - e * d),
        ("3d^2 = c^3 - 3c + 2 + (1+3q)(-2+6q+9q^2) a^3",
         (d * d).scale(3) - c * c * c + c.scale(3) - NcPoly.scalar(Scalar(2))
         - a3.scale((ONE + 3 * q) * (-2 * ONE + 6 * q + 9 * q * q))),
    ]
    for name, residual in rels:
        report.add_all([name], lambda: [alg.nf(residual)])
    return report


# -- units ---------------------------------------------------------------

def _divide_content(row, b):
    """Divide the row (a dict) and its right-hand side b in place by the gcd
    of their entries when all are ints; return b."""
    try:
        g = gcd(b, *row.values())
    except TypeError:  # a Scalar entry, which has no gcd
        return b
    if g > 1:
        for k, v in row.items():
            row[k] = v // g
        b //= g
    return b


def _solve_sparse(columns, target):
    """Solve sum_j u_j * columns[j] = target over the field of the
    coefficients: ints and Scalars, the field form of scalar.field, or Fractions.

    columns: list of dicts {row_key: coefficient}; target likewise.  Returns
    the coefficient list or None if the system is infeasible.  Sparse
    fraction-free elimination (Bareiss 1968) with the rows indexed by the
    columns they hold.  Each row is cleared of denominators once.  Column j
    pivots on the row holding j with the fewest entries, the earliest row
    on a tie, and only the rows holding j are eliminated: a row whose entry
    is f, against the pivot entry pv, becomes (pv/g) row - (f/g) pivot row
    with g = gcd(pv, f), and is then divided by the gcd of its entries;
    where an r-part enters, that gcd is not taken (g = 1).  So every row
    stays integral, and the one division per pivot is made in back
    substitution.
    The index only grows; a row that no longer holds j is skipped.
    """
    keyed = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            keyed.setdefault(key, {})[j] = val
    rows, rhs = [], []
    for key in [*keyed, *(key for key in target if key not in keyed)]:
        row, b = keyed.get(key, {}), target.get(key, 0)
        m = lcm(denominator(b), *map(denominator, row.values()))
        if m != 1:
            row, b = {j: field(v * m) for j, v in row.items()}, field(b * m)
        rows.append(row)
        rhs.append(_divide_content(row, b))
    holding = [set() for _ in columns]  # column -> rows that have held it
    for i, row in enumerate(rows):
        for j in row:
            holding[j].add(i)
    eliminated = []
    for j in range(len(columns)):
        live = [i for i in holding[j] if rows[i] is not None and j in rows[i]]
        if not live:
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        prow, prhs = rows[p], rhs[p]
        pv = prow[j]
        rows[p] = None
        for i in live:
            if i != p:
                row = rows[i]
                s, f = pv, row[j]
                if type(s) is int and type(f) is int:
                    g = gcd(s, f)
                    s, f = s // g, f // g
                if s != 1:
                    for k, v in row.items():
                        row[k] = s * v
                accumulate(row, ((k, -f * v) for k, v in prow.items()))
                rhs[i] = _divide_content(row, s * rhs[i] - f * prhs)
                for k in prow:
                    holding[k].add(i)
        eliminated.append((j, prow, prhs))
    if any(row == {} and rhs[i] for i, row in enumerate(rows)):
        return None  # inconsistent
    assignments = [0] * len(columns)
    for j, prow, prhs in reversed(eliminated):
        assignments[j] = reciprocal(prow[j]) * (
            prhs - sum(v * assignments[k] for k, v in prow.items() if k != j))
    return assignments


# the group-likes times scalars invert; the rest are no units
EXPECTED_UNITS = {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
                  "1+x": False, "x": False, "c": False, "1+y": False}


def units_suite(maps: StructureMaps) -> Report:
    """The reference sample: a, b, a^2 b, a^-1 b are units; 1+x, x, c, 1+y
    are not.  Each candidate f, its EXPECTED_UNITS key as an expression (c
    that of alt_generators), is settled by the first proof that applies,
    named under "proof":
    - "counit": eps(f) = 0, and eps is an algebra map, so f is no unit (c;
      also x where q = 0 and 1+x where q = -1).
    - "constant": NF(f) is a nonzero constant k, so f is a unit with
      inverse 1/k (no constant is in the sample).
    - "B": NF(f) is a nonconstant element of B, so f is no unit (x, 1+x,
      1+y).  A is free as a left B-module on the tails, so f u = 1 gives
      f u_1 = 1 in B; the norm u^2 - (x^2+x^3) v^2 of u + v y is
      multiplicative, and the degrees of its terms differ in parity, so the
      units of B are K*.  This rests on left freeness, which the basis
      census checks up to its length bound only.
    - "antipode": S(f) is written in pattern words and f S(f) and S(f) f
      reduce to 1, so S(f) is the inverse of f, whatever its length (the
      group-likes).
    A candidate that no proof settles, or whose proof cannot finish
    (report.attempt; its error under "error"), has null "invertible" and
    "proof" and fails the report, and the check goes on."""
    alg = maps.alg
    nf_terms = alg.system.nf_terms
    c = alt_generators(alg)[0]

    def settle(f):
        """(invertible, proof, witness) of f, or None when no proof applies."""
        if not apply_counit(f, maps):
            return False, "counit", None
        terms = f.field_terms()
        words = nf_terms(terms)
        if words.keys() == {""}:
            return True, "constant", NcPoly.scalar(reciprocal(words[""]))
        if any(words) and all(map(is_b_word, words)):
            return False, "B", None
        s = apply_antipode(f, maps)
        s_terms = s.field_terms()
        if all(map(is_basis_word, s.terms)) and all(
                nf_terms(concat_product(left, right).items()) == {"": 1}
                for left, right in ((terms, s_terms), (s_terms, terms))):
            return True, "antipode", s
        return None

    entries = []
    for name in EXPECTED_UNITS:
        f = c if name == "c" else parse_expr(name, alg.point)
        settled, error = attempt(lambda: settle(f))
        invertible, proof, witness = settled or (None, None, None)
        entry = {"element": name, "invertible": invertible, "proof": proof, "witness": witness}
        entries.append({**entry, "error": error} if error else entry)
    ok = all(e["invertible"] == EXPECTED_UNITS[e["element"]] for e in entries)
    return Report("units", {"point": alg.point, "evidence": "proof", "entries": entries}, ok)
