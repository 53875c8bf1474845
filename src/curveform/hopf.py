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
Every check returns a report.Report whose entries are named residuals.  In
check_welldefined, check_hopf_axioms and check_coideal a reduction that runs
out of fuel fails the entries it was computing, with the FuelExhausted as
their residual, and the check goes on.
"""

from __future__ import annotations

import random
from itertools import chain

from .errors import FuelExhausted
from .freealg import NcPoly, TensorPoly, accumulate
from .nodal import NodalAlgebra, b_part, pattern_words, random_poly
from .parser import parse_expr
from .report import Report
from .scalar import CurvePoint, ONE, R, Scalar, ZERO


class StructureMaps:
    """delta, eps and S of one algebra: generator assignments at its curve
    point, and caches of the word-level extensions of delta and S, each
    reduced to normal form in that algebra.  Every Hopf-axiom check and the
    Galois layer are built from these word maps."""

    def __init__(self, alg: NodalAlgebra):
        q, p = alg.point.q, alg.point.p
        self.alg = alg
        self.delta_gen = {
            "x": TensorPoly(2, {("", "x"): ONE, ("", "a"): -q, ("x", "a"): ONE}),
            "y": TensorPoly(2, {("", "y"): ONE, ("", "b"): -p, ("y", "b"): ONE}),
            "a": TensorPoly(2, {("a", "a"): ONE}),
            "g": TensorPoly(2, {("g", "g"): ONE}),
            "b": TensorPoly(2, {("b", "b"): ONE}),
        }
        self.counit_gen = {"x": q, "y": p, "a": ONE, "g": ONE, "b": ONE}
        # S(b) = b^-1 = g^3 b;  S(y) = p - (y - p) g^3 b
        self.antipode_gen = {
            "x": NcPoly({"": q, "xg": -ONE, "g": q}),
            "y": NcPoly({"": p, "ygggb": -ONE, "gggb": p}),
            "a": NcPoly.word("g"),
            "g": NcPoly.word("a"),
            "b": NcPoly.word("gggb"),
        }
        self._delta_cache = {"": TensorPoly.one(2)}
        self._antipode_cache = {"": NcPoly.one()}


def tensor_nf(tp: TensorPoly, alg: NodalAlgebra) -> TensorPoly:
    """Reduce every leg of a tensor polynomial to normal form."""
    nf_word = alg.system.nf_word
    acc = {}
    for key, c in tp.terms.items():
        legs = [nf_word(w) for w in key]
        stack = [((), c)]
        for leg in legs:
            stack = [(done + (w,), cc * cw) for done, cc in stack
                     for w, cw in leg.items()]
        accumulate(acc, stack)
    return tp._new(acc)


def _delta_word(w: str, maps: StructureMaps) -> TensorPoly:
    """delta on a word, multiplicatively: delta(w) = delta(w[:-1]) delta(w[-1]),
    built up from the longest cached prefix of w, caching every longer one."""
    cache = maps._delta_cache
    n = len(w)
    while w[:n] not in cache:
        n -= 1
    hit = cache[w[:n]]
    for i in range(n, len(w)):
        cache[w[:i + 1]] = hit = tensor_nf(hit * maps.delta_gen[w[i]], maps.alg)
    return hit


def apply_delta(f: NcPoly, maps: StructureMaps) -> TensorPoly:
    """Coproduct of f, with both tensor legs reduced to normal form."""
    return TensorPoly(2, ((k, c * cd) for w, c in f.terms.items()
                          for k, cd in _delta_word(w, maps).terms.items()))


def _counit_word(w: str, maps: StructureMaps) -> Scalar:
    v = ONE
    for ch in w:
        v = v * maps.counit_gen[ch]
    return v


def apply_counit(f: NcPoly, maps: StructureMaps) -> Scalar:
    return sum((c * _counit_word(w, maps) for w, c in f.terms.items()), ZERO)


def _antipode_word(w: str, maps: StructureMaps) -> NcPoly:
    """S on a word, anti-multiplicatively: S(w) = S(w[1:]) S(w[0]), built up
    from the longest cached suffix of w, caching every longer one."""
    cache = maps._antipode_cache
    n = 0
    while w[n:] not in cache:
        n += 1
    hit = cache[w[n:]]
    for i in range(n - 1, -1, -1):
        cache[w[i:]] = hit = maps.alg.nf(hit * maps.antipode_gen[w[i]])
    return hit


def apply_antipode(f: NcPoly, maps: StructureMaps) -> NcPoly:
    return NcPoly((s, c * cs) for w, c in f.terms.items()
                  for s, cs in _antipode_word(w, maps).terms.items())


def relation_polys(point: CurvePoint):
    """The 13 defining relations as free polynomials lhs - rhs (both inverse
    relations included; by-relation in its unfolded form)."""
    exprs = [
        ("a a^-1 = 1", "a*a^-1 - 1"),
        ("a^-1 a = 1", "a^-1*a - 1"),
        ("y^2 = x^2 + x^3", "y^2 - x^2 - x^3"),
        ("b^2 = a^3", "b^2 - a^3"),
        ("ba = ab", "b*a - a*b"),
        ("ya = ay", "y*a - a*y"),
        ("bx = xb", "b*x - x*b"),
        ("yx = xy", "y*x - x*y"),
        ("by = -yb + 2pb^2", "b*y + y*b - 2*p*b^2"),
        ("ba^-1 = a^-1 b", "b*a^-1 - a^-1*b"),
        ("a^-1 y = y a^-1", "a^-1*y - y*a^-1"),
        ("a^2 x", "a^2*x + x*a^2 + a*x*a + a^2 - (1+3*q)*a^3"),
        ("a x^2", "a*x^2 + a*x + x*a + x^2*a + x*a*x - (2+3*q)*q*a^3"),
    ]
    return [(name, parse_expr(text, point)) for name, text in exprs]


def _add_element(report, names, residuals):
    """Add one entry per name, with the residuals computed by residuals().
    If that computation runs out of fuel, each of these entries fails with
    the FuelExhausted as its residual, and the check goes on."""
    try:
        values = residuals()
    except FuelExhausted as exc:
        values = [exc] * len(names)
    for name, value in zip(names, values):
        report.add(name, value)


def check_welldefined(maps: StructureMaps) -> Report:
    """delta, eps and S kill every defining relation: the maps are well
    defined on the quotient algebra."""
    point = maps.alg.point
    report = Report("welldefined", {"point": point, "entries": []})
    for name, rel in relation_polys(point):
        for kind, apply in (("delta", apply_delta), ("eps", apply_counit),
                            ("S", apply_antipode)):
            _add_element(report, [f"{kind}({name})"], lambda: [apply(rel, maps)])
    return report


HOPF_AXIOMS = ("coassoc", "counit-left", "counit-right", "antipode-left", "antipode-right")


def check_hopf_axioms(maps: StructureMaps, samples=200, max_len=6, seed=0) -> Report:
    """Coassociativity, counit and both antipode identities, on every
    generator and on seeded random elements, each composed from the word
    maps on the one coproduct d = delta(f): (delta (x) id) d and
    (id (x) delta) d apply delta to the normal-form legs of d."""
    alg = maps.alg
    report = Report("hopf_axioms", {"point": alg.point, "entries": []})
    rng = random.Random(seed)
    pool = [Scalar(1), Scalar(-1), Scalar(2), Scalar(-2), alg.point.q, alg.point.p]
    elements = [("gen " + ch, NcPoly.word(ch)) for ch in "xyagb"]
    elements += [(f"random {i}", random_poly(rng, pool, max_len=max_len))
                 for i in range(samples)]
    for name, f in elements:
        _add_element(report, [f"{kind} {name}" for kind in HOPF_AXIOMS],
                     lambda: _hopf_residuals(f, maps))
    return report


def _hopf_residuals(f: NcPoly, maps: StructureMaps):
    """The residuals of the HOPF_AXIOMS on f, in that order."""
    alg = maps.alg
    d = apply_delta(f, maps).terms.items()
    nf_f = alg.nf(f)
    eps_f = NcPoly.scalar(apply_counit(f, maps))
    coassoc = TensorPoly(3, chain(
        (((u1, u2, v), c * cu) for (u, v), c in d
         for (u1, u2), cu in _delta_word(u, maps).terms.items()),
        (((u, v1, v2), -c * cv) for (u, v), c in d
         for (v1, v2), cv in _delta_word(v, maps).terms.items())))
    counit_l = NcPoly((v, c * _counit_word(u, maps)) for (u, v), c in d)
    counit_r = NcPoly((u, c * _counit_word(v, maps)) for (u, v), c in d)
    antipode_l = NcPoly((s + v, c * cs) for (u, v), c in d
                        for s, cs in _antipode_word(u, maps).terms.items())
    antipode_r = NcPoly((u + s, c * cs) for (u, v), c in d
                        for s, cs in _antipode_word(v, maps).terms.items())
    return [coassoc, counit_l - nf_f, counit_r - nf_f,
            alg.nf(antipode_l) - eps_f, alg.nf(antipode_r) - eps_f]


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
        report.add(name, alg.nf(parse_expr(text, alg.point)))
    return report


def check_coideal(maps: StructureMaps, max_deg=6) -> Report:
    """delta(B) is contained in B (x) A: every left tensor leg of delta on a
    B-basis word is a word in x, y only."""
    report = Report("coideal", {"point": maps.alg.point, "entries": []})
    for bw in pattern_words(max_deg, b_part):
        _add_element(report, [f"delta({bw or '1'}) left legs in B"], lambda: [TensorPoly(
            2, {k: c for k, c in _delta_word(bw, maps).terms.items()
                if any(ch not in "xy" for ch in k[0])})])
    return report


def alt_generators(alg: NodalAlgebra):
    """c = 3x - (1+3q)a + 1, d = 3y - 6pb, e = ac + rca, as normal forms."""
    c = alg.parse_nf("3*x - (1 + 3*q)*a + 1")
    d = alg.parse_nf("3*y - 6*p*b")
    a = NcPoly.word("a")
    e = alg.nf(a * c + (c * a).scale(R))
    return c, d, e


def check_alt_presentation(alg: NodalAlgebra) -> Report:
    """All 14 relations of the presentation in a, a^-1, b, c, d, e."""
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
        report.add(name, alg.nf(residual))
    return report


# -- units ---------------------------------------------------------------

def _solve_sparse(columns, target):
    """Solve sum_j u_j * columns[j] = target over the Scalar field.

    columns: list of dicts {row_key: Scalar}; target likewise.  Returns the
    coefficient list or None if the system is infeasible.  Plain sparse
    Gaussian elimination; exactness matters, speed only mildly.
    """
    rows = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            rows.setdefault(key, {})[j] = val
    row_items = [(dict(cols), target.get(key, ZERO)) for key, cols in rows.items()]
    row_items += [({}, val) for key, val in target.items() if key not in rows]
    n = len(columns)
    assignments = [None] * n
    eliminated = []
    for j in range(n):
        pivot = None
        for idx, (cols, rhs) in enumerate(row_items):
            if j in cols:
                if pivot is None or len(cols) < len(row_items[pivot][0]):
                    pivot = idx
        if pivot is None:
            continue
        pcols, prhs = row_items.pop(pivot)
        inv = pcols[j].inverse()
        pcols = {k: v * inv for k, v in pcols.items()}
        prhs = prhs * inv
        new_rows = []
        for cols, rhs in row_items:
            factor = cols.get(j)
            if factor:
                minus = -factor
                cols = accumulate(dict(cols), ((k, minus * v) for k, v in pcols.items()))
                rhs = rhs - factor * prhs
            new_rows.append((cols, rhs))
        row_items = new_rows
        eliminated.append((j, pcols, prhs))
    for cols, rhs in row_items:
        if not cols and rhs:
            return None  # inconsistent
    for j, pcols, prhs in reversed(eliminated):
        val = prhs
        for k, v in pcols.items():
            if k != j:
                val = val - v * (assignments[k] if assignments[k] is not None else ZERO)
        assignments[j] = val
    return [a if a is not None else ZERO for a in assignments]


# the group-likes times scalars invert; the rest admit no bounded inverse
EXPECTED_UNITS = {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
                  "1+x": False, "x": False, "c": False, "1+y": False}


def units_bounded_check(alg: NodalAlgebra, f: NcPoly, max_len=6):
    """Search for u with f*u = 1 supported on basis words of length <=
    max_len, as an exact linear system; return u, or None if there is none.
    Absence of a solution is evidence of non-invertibility at the chosen
    bound, not a proof."""
    if not f:
        raise ValueError("cannot invert the zero element")
    support = pattern_words(max_len)
    columns = [alg.nf(f * NcPoly.word(w)).terms for w in support]
    solution = _solve_sparse(columns, {"": ONE})
    if solution is None:
        return None
    witness = NcPoly({w: c for w, c in zip(support, solution)})
    # elimination can return a least-squares-like artifact only if the system
    # was inconsistent, which _solve_sparse already rejects; verify anyway
    return witness if alg.nf(f * witness) == NcPoly.one() else None


def units_suite(alg: NodalAlgebra, max_len=6) -> Report:
    """The reference sample: a, b, a^2 b, a^-1 b are units; 1+x, x, c,
    1+y admit no inverse with bounded support.  The verdict is that every
    candidate matches EXPECTED_UNITS."""
    c, _, _ = alt_generators(alg)
    candidates = [
        ("a", NcPoly.word("a")), ("b", NcPoly.word("b")),
        ("a^2*b", NcPoly.word("aab")), ("a^-1*b", NcPoly.word("gb")),
        ("1+x", NcPoly.one() + NcPoly.word("x")), ("x", NcPoly.word("x")),
        ("c", c), ("1+y", NcPoly.one() + NcPoly.word("y")),
    ]
    inverses = [(name, units_bounded_check(alg, f, max_len)) for name, f in candidates]
    entries = [{"element": name, "invertible": inv is not None, "witness": inv}
               for name, inv in inverses]
    ok = all((inv is not None) == EXPECTED_UNITS[name] for name, inv in inverses)
    return Report("units", {"point": alg.point, "max_len": max_len,
                            "note": "non-invertibility is bounded evidence only "
                                    f"(inverse support searched up to length {max_len})",
                            "entries": entries}, ok)
