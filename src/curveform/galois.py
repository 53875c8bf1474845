"""The quotient coalgebra C = A/B+A, projection, coaction and the
B+A != AB+ witness.

B+ is the augmentation ideal of the commutative subalgebra B = k[x, y].
Left-freeness of A over B gives B+A as the direct sum over tails t of
B+ * t, so the class of an element in C is computed exactly: decompose into
B-coefficients times tails and evaluate each coefficient at (q, p).  The
classes of the tail words (ax)^l a^m b^n form a basis of C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .freealg import NcPoly, Sparse, accumulate, word_key
from .hopf import StructureMaps, _delta_word
from .nodal import NodalAlgebra, b_decompose, b_part, pattern_words
from .scalar import ONE, Scalar, ZERO


class CPoly(Sparse):
    """Element of C: a finite Scalar combination of tail-word classes."""

    __slots__ = ()

    def to_json(self):
        return [{"coeff": self.terms[w].to_json(), "tail": w}
                for w in sorted(self.terms, key=word_key)]

    def __repr__(self):
        parts = [f"{c}*[{w or '1'}]" for w, c in
                 sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))]
        return "CPoly<" + (" + ".join(parts) or "0") + ">"


def eps_b(bword: str, alg: NodalAlgebra) -> Scalar:
    """Counit of B on a word x^i y^j: q^i p^j."""
    v = ONE
    for ch in bword:
        v = v * (alg.point.q if ch == "x" else alg.point.p)
    return v


def project_pi(f: NcPoly, alg: NodalAlgebra, fuel=None) -> CPoly:
    """pi(f): evaluate each B-coefficient of the decomposition at (q, p)."""
    dec = b_decompose(f, alg, fuel)
    out = {}
    for tail, coeff in dec.coeffs.items():
        v = ZERO
        for bw, c in coeff.terms.items():
            v = v + c * eps_b(bw, alg)
        if v:
            out[tail] = v
    return CPoly(out)


def membership_bplus_a(f: NcPoly, alg: NodalAlgebra, fuel=None) -> bool:
    """f lies in B+A iff its projection to C vanishes."""
    return not project_pi(f, alg, fuel)


class CoactionValue(Sparse):
    """Element of C (x) A: Scalar combination of (tail class, word) pairs."""

    __slots__ = ()

    def to_json(self):
        keys = sorted(self.terms, key=lambda k: (word_key(k[0]), word_key(k[1])))
        return [{"coeff": self.terms[k].to_json(), "tail": k[0], "word": k[1]}
                for k in keys]


def coaction(f: NcPoly, alg: NodalAlgebra, maps: StructureMaps,
             fuel=None) -> CoactionValue:
    """lambda(f) = (pi (x) id) delta(f), right legs in normal form."""
    acc = {}
    for w, c in f.terms.items():
        for (u, v), cd in _delta_word(w, alg, maps, fuel).terms.items():
            pu = project_pi(NcPoly.word(u), alg, fuel)
            accumulate(acc, (((tail, v), c * cd * cp) for tail, cp in pu.terms.items()))
    return CoactionValue(acc)


def trivial_coaction(f: NcPoly, alg: NodalAlgebra, fuel=None) -> CoactionValue:
    """The value 1-bar (x) f that characterizes membership in B."""
    return CoactionValue({("", w): c for w, c in alg.nf(f, fuel).terms.items()})


@dataclass
class RecoveryReport:
    point: object
    b_checked: int
    non_b_checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {"check": "galois_recovery", "point": self.point.to_json(),
                "status": "pass" if self.ok else "fail",
                "b_words_checked": self.b_checked,
                "non_b_words_checked": self.non_b_checked,
                "failures": self.failures[:20]}


def recovery_check(alg: NodalAlgebra, maps: StructureMaps, max_deg=6,
                   fuel=None) -> RecoveryReport:
    """On basis words: lambda(f) = 1-bar (x) f exactly for the B-side, and
    never for basis words with a nontrivial tail."""
    report = RecoveryReport(alg.point, 0, 0)
    for bw in pattern_words(max_deg, b_part):
        report.b_checked += 1
        f = NcPoly.word(bw)
        if coaction(f, alg, maps, fuel) != trivial_coaction(f, alg, fuel):
            report.failures.append({"kind": "b_word", "word": bw})
    for w in pattern_words(max_deg, lambda i, j, l, m, n: l or m or n):  # nontrivial tail
        report.non_b_checked += 1
        f = NcPoly.word(w)
        if coaction(f, alg, maps, fuel) == trivial_coaction(f, alg, fuel):
            report.failures.append({"kind": "non_b_word", "word": w})
    return report


@dataclass
class WitnessReport:
    point: object
    normal_form: NcPoly
    expected: NcPoly
    in_ab_plus: bool
    in_b_plus_a: bool
    projection: CPoly

    @property
    def ok(self):
        return (self.normal_form == self.expected and self.in_ab_plus
                and not self.in_b_plus_a)

    def to_json(self):
        return {"check": "galois_witness", "point": self.point.to_json(),
                "status": "pass" if self.ok else "fail",
                "element": "a^2*(x - q)",
                "normal_form": self.normal_form.to_json(),
                "in_AB+": self.in_ab_plus, "in_B+A": self.in_b_plus_a,
                "projection": self.projection.to_json()}


def witness_check(alg: NodalAlgebra, fuel=None) -> WitnessReport:
    """a^2 (x - q) lies in AB+ (right factor in B+) but not in B+A, so the
    two one-sided ideals differ and C is not a Hopf quotient."""
    q = alg.point.q
    a2 = NcPoly.word("aa")
    x_minus_q = NcPoly.word("x") - NcPoly.scalar(q)
    f = a2 * x_minus_q
    nf = alg.nf(f, fuel)
    expected = NcPoly({"xaa": -ONE, "axa": -ONE, "aa": -(ONE + q),
                       "aaa": ONE + 3 * q})
    pi_f = project_pi(f, alg, fuel)
    # membership in AB+ holds by the factorization a^2 * (x - q) once the
    # right factor is checked to lie in B+ = B /\ ker eps
    right_factor_in_bplus = (eps_b("x", alg) - q) == ZERO
    return WitnessReport(alg.point, nf, expected,
                         in_ab_plus=right_factor_in_bplus,
                         in_b_plus_a=membership_bplus_a(f, alg, fuel),
                         projection=pi_f)
