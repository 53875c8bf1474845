"""The quotient coalgebra C = A/B+A, projection, coaction and the
B+A != AB+ witness.

B+ is the augmentation ideal of the commutative subalgebra B = k[x, y].
Left-freeness of A over B gives B+A as the direct sum over tails t of
B+ * t, so the class of an element in C is computed exactly: decompose into
B-coefficients times tails and evaluate each coefficient at (q, p).  The
classes of the tail words (ax)^l a^m b^n form a basis of C.
The recovery and witness checks each return a report.Report.
"""

from __future__ import annotations

from .freealg import NcPoly, Sparse, TensorPoly, accumulate, word_key
from .hopf import StructureMaps, _delta_word, apply_counit
from .nodal import NodalAlgebra, b_decompose, b_part, pattern_words
from .report import Report
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


def project_pi(f: NcPoly, alg: NodalAlgebra) -> CPoly:
    """pi(f): evaluate each B-coefficient of the decomposition at (q, p)."""
    dec = b_decompose(f, alg)
    out = {}
    for tail, coeff in dec.coeffs.items():
        v = ZERO
        for bw, c in coeff.terms.items():
            v = v + c * eps_b(bw, alg)
        if v:
            out[tail] = v
    return CPoly(out)


def membership_bplus_a(f: NcPoly, alg: NodalAlgebra) -> bool:
    """f lies in B+A iff its projection to C vanishes."""
    return not project_pi(f, alg)


def coaction(f: NcPoly, alg: NodalAlgebra, maps: StructureMaps) -> TensorPoly:
    """lambda(f) = (pi (x) id) delta(f) in C (x) A, keyed by (tail class,
    word), right legs in normal form."""
    acc = {}
    for w, c in f.terms.items():
        for (u, v), cd in _delta_word(w, alg, maps).terms.items():
            pu = project_pi(NcPoly.word(u), alg)
            accumulate(acc, (((tail, v), c * cd * cp) for tail, cp in pu.terms.items()))
    return TensorPoly(2, acc)


def trivial_coaction(f: NcPoly, alg: NodalAlgebra) -> TensorPoly:
    """The value 1-bar (x) f that characterizes membership in B."""
    return TensorPoly(2, {("", w): c for w, c in alg.nf(f).terms.items()})


def recovery_check(alg: NodalAlgebra, maps: StructureMaps, max_deg=6) -> Report:
    """On basis words: lambda(f) = 1-bar (x) f exactly for the B-side, and
    never for basis words with a nontrivial tail."""
    b_words = pattern_words(max_deg, b_part)
    non_b_words = pattern_words(max_deg, lambda i, j, l, m, n: l or m or n)
    failures = []
    for kind, words, trivial in (("b_word", b_words, True),
                                 ("non_b_word", non_b_words, False)):
        for w in words:
            f = NcPoly.word(w)
            if (coaction(f, alg, maps) == trivial_coaction(f, alg)) != trivial:
                failures.append({"kind": kind, "word": w})
    return Report("galois_recovery", {"point": alg.point,
                                      "b_words_checked": len(b_words),
                                      "non_b_words_checked": len(non_b_words),
                                      "failures": failures[:20]}, not failures)


def witness_check(alg: NodalAlgebra, maps: StructureMaps) -> Report:
    """a^2 (x - q) lies in AB+ (right factor in B+) but not in B+A, so the
    two one-sided ideals differ and C is not a Hopf quotient."""
    q = alg.point.q
    a2 = NcPoly.word("aa")
    x_minus_q = NcPoly.word("x") - NcPoly.scalar(q)
    f = a2 * x_minus_q
    nf = alg.nf(f)
    expected = NcPoly({"xaa": -ONE, "axa": -ONE, "aa": -(ONE + q),
                       "aaa": ONE + 3 * q})
    # membership in AB+ holds by the factorization a^2 * (x - q) once the
    # right factor is checked to lie in B+ = B /\ ker eps
    in_ab_plus = (all(ch in "xy" for w in x_minus_q.terms for ch in w)
                  and not apply_counit(x_minus_q, maps))
    projection = project_pi(f, alg)
    in_b_plus_a = not projection
    return Report("galois_witness", {"point": alg.point, "element": "a^2*(x - q)",
                                     "normal_form": nf, "in_AB+": in_ab_plus,
                                     "in_B+A": in_b_plus_a,
                                     "projection": projection},
                  nf == expected and in_ab_plus and not in_b_plus_a)
