"""Coproduct, counit and antipode, plus every desk-checkable claim about them.

The generator values are:

    delta(x) = 1 (x) (x - q a) + x (x) a     eps(x) = q    S(x) = q - (x - q) a^-1
    delta(y) = 1 (x) (y - p b) + y (x) b     eps(y) = p    S(y) = p - (y - p) b^-1
    delta(a) = a (x) a,  delta(b) = b (x) b, eps(a) = eps(b) = 1

with b^-1 realized in the generators as a^-3 b (from b^2 = a^3).  delta
extends multiplicatively, eps multiplicatively, S anti-multiplicatively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .freealg import NcPoly, TensorPoly, accumulate
from .nodal import NodalAlgebra, b_part, pattern_words, random_poly
from .scalar import CurvePoint, ONE, R, Scalar, ZERO


class StructureMaps:
    """Generator assignments for delta, eps, S at a curve point, with caches
    for the word-level extensions."""

    def __init__(self, point: CurvePoint):
        q, p = point.q, point.p
        self.point = point
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
        self._delta_cache = {}
        self._delta3l_cache = {}
        self._delta3r_cache = {}
        self._antipode_cache = {"": NcPoly.one()}


def tensor_nf(tp: TensorPoly, alg: NodalAlgebra, fuel=None) -> TensorPoly:
    """Reduce every leg of a tensor polynomial to normal form."""
    nf_word = alg.system.nf_word
    acc = {}
    for key, c in tp.terms.items():
        legs = [nf_word(w, fuel) for w in key]
        stack = [((), c)]
        for leg in legs:
            stack = [(done + (w,), cc * cw) for done, cc in stack
                     for w, cw in leg.items()]
        accumulate(acc, stack)
    return tp._new(acc)


def _delta_word(w: str, alg, maps, fuel=None) -> TensorPoly:
    cache = maps._delta_cache
    hit = cache.get(w)
    if hit is None:
        out = TensorPoly.one(2)
        for ch in w:
            out = tensor_nf(out * maps.delta_gen[ch], alg, fuel)
        cache[w] = hit = out
    return hit


def apply_delta(f: NcPoly, alg: NodalAlgebra, maps: StructureMaps,
                fuel=None) -> TensorPoly:
    """Coproduct of f, with both tensor legs reduced to normal form."""
    out = TensorPoly(2)
    for w, c in f.terms.items():
        out = out + _delta_word(w, alg, maps, fuel).scale(c)
    return out


def apply_counit(f: NcPoly, maps: StructureMaps) -> Scalar:
    total = ZERO
    for w, c in f.terms.items():
        v = c
        for ch in w:
            v = v * maps.counit_gen[ch]
        total = total + v
    return total


def _antipode_word(w: str, alg, maps, fuel=None) -> NcPoly:
    """S on a word, anti-multiplicatively: S(w) = S(w[-1]) ... S(w[0])."""
    cache = maps._antipode_cache
    hit = cache.get(w)
    if hit is None:
        tail = _antipode_word(w[1:], alg, maps, fuel)
        cache[w] = hit = alg.nf(tail * maps.antipode_gen[w[0]], fuel)
    return hit


def apply_antipode(f: NcPoly, alg: NodalAlgebra, maps: StructureMaps,
                   fuel=None) -> NcPoly:
    out = NcPoly.zero()
    for w, c in f.terms.items():
        out = out + _antipode_word(w, alg, maps, fuel).scale(c)
    return out


def _delta3_word(w: str, alg, maps, left: bool, fuel=None) -> TensorPoly:
    """(delta (x) id) delta or (id (x) delta) delta on a word; both are
    algebra maps, so they extend letterwise."""
    cache = maps._delta3l_cache if left else maps._delta3r_cache
    hit = cache.get(w)
    if hit is not None:
        return hit
    out = TensorPoly.one(3)
    for ch in w:
        step = []
        for (u, v), c in maps.delta_gen[ch].terms.items():
            if left:
                step += [((u1, u2, v), c * cu)
                         for (u1, u2), cu in _delta_word(u, alg, maps, fuel).terms.items()]
            else:
                step += [((u, v1, v2), c * cv)
                         for (v1, v2), cv in _delta_word(v, alg, maps, fuel).terms.items()]
        out = tensor_nf(out * TensorPoly(3, step), alg, fuel)
    cache[w] = out
    return out


# -- reports -------------------------------------------------------------

@dataclass
class CheckEntry:
    name: str
    ok: bool
    residual: object = None  # NcPoly | TensorPoly | Scalar | None

    def to_json(self):
        res = None
        if self.residual is not None and self.residual:
            if isinstance(self.residual, NcPoly):
                res = self.residual.to_json()
            elif isinstance(self.residual, TensorPoly):
                res = [{"coeff": c.to_json(), "words": list(k)}
                       for k, c in self.residual.sorted_terms()]
            elif isinstance(self.residual, Scalar):
                res = self.residual.to_json()
            else:
                res = str(self.residual)
        return {"name": self.name, "status": "pass" if self.ok else "fail",
                "residual": res}


@dataclass
class CheckReport:
    check: str
    point: CurvePoint
    entries: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def add(self, name, residual):
        self.entries.append(CheckEntry(name, not residual, residual))

    def to_json(self):
        obj = {"check": self.check, "point": self.point.to_json(),
               "status": "pass" if self.ok else "fail",
               "entries": [e.to_json() for e in self.entries]}
        obj.update(self.extra)
        return obj


def relation_polys(point: CurvePoint):
    """The 13 defining relations as free polynomials lhs - rhs (both inverse
    relations included; by-relation in its unfolded form)."""
    from .parser import parse_expr

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


def check_welldefined(alg: NodalAlgebra, maps: StructureMaps, fuel=None) -> CheckReport:
    """delta, eps and S kill every defining relation: the maps are well
    defined on the quotient algebra."""
    report = CheckReport("welldefined", alg.point)
    for name, rel in relation_polys(alg.point):
        report.add(f"delta({name})", apply_delta(rel, alg, maps, fuel))
        report.add(f"eps({name})", apply_counit(rel, maps))
        report.add(f"S({name})", apply_antipode(rel, alg, maps, fuel))
    return report


def _sample_words(rng, count, max_len):
    from .freealg import ALPHABET

    words = []
    for _ in range(count):
        length = rng.randint(0, max_len)
        words.append("".join(rng.choice(ALPHABET) for _ in range(length)))
    return words


def check_hopf_axioms(alg: NodalAlgebra, maps: StructureMaps, samples=200,
                      max_len=6, seed=0, fuel=None) -> CheckReport:
    """Coassociativity, counit and both antipode identities, on every
    generator and on seeded random elements."""
    report = CheckReport("hopf_axioms", alg.point)
    rng = random.Random(seed)
    pool = [Scalar(1), Scalar(-1), Scalar(2), Scalar(-2), alg.point.q, alg.point.p]
    elements = [("gen " + ch, NcPoly.word(ch)) for ch in "xyagb"]
    elements += [(f"random {i}", random_poly(rng, pool, max_len=max_len))
                 for i in range(samples)]
    for name, f in elements:
        coassoc = TensorPoly(3)
        counit_l = NcPoly.zero()
        counit_r = NcPoly.zero()
        antipode_l = NcPoly.zero()
        antipode_r = NcPoly.zero()
        for w, c in f.terms.items():
            coassoc = coassoc + (_delta3_word(w, alg, maps, True, fuel)
                                 - _delta3_word(w, alg, maps, False, fuel)).scale(c)
            dw = _delta_word(w, alg, maps, fuel)
            for (u, v), cd in dw.terms.items():
                eu = apply_counit(NcPoly.word(u), maps)
                ev = apply_counit(NcPoly.word(v), maps)
                counit_l = counit_l + NcPoly({v: c * cd * eu})
                counit_r = counit_r + NcPoly({u: c * cd * ev})
                su = _antipode_word(u, alg, maps, fuel)
                sv = _antipode_word(v, alg, maps, fuel)
                antipode_l = antipode_l + alg.nf(su * NcPoly.word(v), fuel).scale(c * cd)
                antipode_r = antipode_r + alg.nf(NcPoly.word(u) * sv, fuel).scale(c * cd)
        nf_f = alg.nf(f, fuel)
        eps_f = apply_counit(f, maps)
        report.add(f"coassoc {name}", coassoc)
        report.add(f"counit-left {name}", alg.nf(counit_l, fuel) - nf_f)
        report.add(f"counit-right {name}", alg.nf(counit_r, fuel) - nf_f)
        report.add(f"antipode-left {name}", antipode_l - NcPoly.scalar(eps_f))
        report.add(f"antipode-right {name}", antipode_r - NcPoly.scalar(eps_f))
    return report


def check_identities(alg: NodalAlgebra, fuel=None) -> CheckReport:
    """The three displayed consequences of the commutation relations."""
    from .parser import parse_expr

    report = CheckReport("identities", alg.point)
    checks = [
        ("(y-pb)^2 = y^2 - p^2 b^2",
         "(y - p*b)^2 - y^2 + p^2*b^2"),
        ("(x-qa)^2 + (x-qa)^3 = x^2 + x^3 - (q^2+q^3) a^3",
         "(x - q*a)^2 + (x - q*a)^3 - x^2 - x^3 + (q^2 + q^3)*a^3"),
        ("(y-pb)^2 = (x-qa)^2 + (x-qa)^3",
         "(y - p*b)^2 - (x - q*a)^2 - (x - q*a)^3"),
    ]
    for name, text in checks:
        report.add(name, alg.nf(parse_expr(text, alg.point), fuel))
    return report


def check_coideal(alg: NodalAlgebra, maps: StructureMaps, max_deg=6,
                  fuel=None) -> CheckReport:
    """delta(B) is contained in B (x) A: every left tensor leg of delta on a
    B-basis word is a word in x, y only."""
    report = CheckReport("coideal", alg.point)
    for bw in pattern_words(max_deg, b_part):
        dw = _delta_word(bw, alg, maps, fuel)
        bad = TensorPoly(2, {k: c for k, c in dw.terms.items()
                             if any(ch not in "xy" for ch in k[0])})
        report.add(f"delta({bw or '1'}) left legs in B", bad)
    return report


def alt_generators(alg: NodalAlgebra, fuel=None):
    """c = 3x - (1+3q)a + 1, d = 3y - 6pb, e = ac + rca, as normal forms."""
    from .parser import parse_expr

    c = alg.parse_nf("3*x - (1 + 3*q)*a + 1", fuel)
    d = alg.parse_nf("3*y - 6*p*b", fuel)
    a = NcPoly.word("a")
    e = alg.nf(a * c + (c * a).scale(R), fuel)
    return c, d, e


def check_alt_presentation(alg: NodalAlgebra, fuel=None) -> CheckReport:
    """All 14 relations of the presentation in a, a^-1, b, c, d, e."""
    report = CheckReport("alt_presentation", alg.point)
    c, d, e = alt_generators(alg, fuel)
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
        report.add(name, alg.nf(residual, fuel))
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
        pval = pcols[j]
        pcols = {k: v / pval for k, v in pcols.items()}
        prhs = prhs / pval
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


@dataclass
class UnitsEntry:
    element: str
    invertible: bool
    witness: NcPoly | None

    def to_json(self):
        return {"element": self.element, "invertible": self.invertible,
                "witness": self.witness.to_json() if self.witness else None}


# the group-likes times scalars invert; the rest admit no bounded inverse
EXPECTED_UNITS = {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
                  "1+x": False, "x": False, "c": False, "1+y": False}


@dataclass
class UnitsReport:
    point: CurvePoint
    max_len: int
    entries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(e.invertible == EXPECTED_UNITS.get(e.element) for e in self.entries)

    def to_json(self):
        return {"check": "units", "point": self.point.to_json(),
                "status": "pass" if self.ok else "fail", "max_len": self.max_len,
                "note": "non-invertibility is bounded evidence only "
                        f"(inverse support searched up to length {self.max_len})",
                "entries": [e.to_json() for e in self.entries]}


def units_bounded_check(alg: NodalAlgebra, f: NcPoly, max_len=6,
                        fuel=None) -> UnitsEntry:
    """Search for u with f*u = 1 supported on basis words of length <=
    max_len, as an exact linear system.  Absence of a solution is evidence of
    non-invertibility at the chosen bound, not a proof."""
    if not f:
        raise ValueError("cannot invert the zero element")
    support = pattern_words(max_len)
    columns = [alg.nf(f * NcPoly.word(w), fuel).terms for w in support]
    solution = _solve_sparse(columns, {"": ONE})
    if solution is None:
        return UnitsEntry(str(f), False, None)
    witness = NcPoly({w: c for w, c in zip(support, solution)})
    # elimination can return a least-squares-like artifact only if the system
    # was inconsistent, which _solve_sparse already rejects; verify anyway
    if alg.nf(f * witness, fuel) != NcPoly.one():
        return UnitsEntry(str(f), False, None)
    return UnitsEntry(str(f), True, witness)


def units_suite(alg: NodalAlgebra, max_len=6, fuel=None) -> UnitsReport:
    """The reference sample: a, b, a^2 b, a^-1 b are units; 1+x, x, c,
    1+y admit no inverse with bounded support."""
    report = UnitsReport(alg.point, max_len)
    c, _, _ = alt_generators(alg, fuel)
    candidates = [
        ("a", NcPoly.word("a")), ("b", NcPoly.word("b")),
        ("a^2*b", NcPoly.word("aab")), ("a^-1*b", NcPoly.word("gb")),
        ("1+x", NcPoly.one() + NcPoly.word("x")), ("x", NcPoly.word("x")),
        ("c", c), ("1+y", NcPoly.one() + NcPoly.word("y")),
    ]
    for name, f in candidates:
        entry = units_bounded_check(alg, f, max_len, fuel)
        entry.element = name
        report.entries.append(entry)
    return report
