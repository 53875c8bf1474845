"""The quotient coalgebra C = A/B+A, projection, coaction and the
B+A != AB+ witness.

B = k[x, y] is a commutative right coideal subalgebra and B+ = B cap ker eps
its augmentation ideal.  Left-freeness of A over B gives B+A as the direct
sum over tails t of B+ * t, so the class of an element in C is computed
exactly through the counit: pi sends each normal-form word x^i y^j * t to
eps(x^i y^j) [t] = q^i p^j [t].  The classes of the tail words
(ax)^l a^m b^n form a basis of C.  Every map reads through one
hopf.StructureMaps, which is bound to its algebra.
The recovery and witness checks each return a report.Report.
"""

from __future__ import annotations

from .freealg import NcPoly, Sparse, TensorPoly, accumulate, word_key
from .hopf import StructureMaps, _counit_word, _delta_sum, apply_counit
from .nodal import b_decompose, is_b_word, pattern_words, split_pattern_word
from .report import Report, attempt


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


def project_pi(f: NcPoly, maps: StructureMaps) -> CPoly:
    """pi(f): the counit of each B-coefficient of f (nodal.b_decompose) on
    the class of its tail."""
    return CPoly((t, apply_counit(coeff, maps)) for t, coeff in b_decompose(f, maps.alg).items())


def _coaction_terms(pairs, maps: StructureMaps) -> dict:
    """lambda of the sum of c * w over the (w, c) pairs, as a dict
    {(tail class, word): coefficient} in the field of the c and of the
    rules, from delta of the sum.  The left legs of delta are normal-form
    words already, so pi splits each one without reducing it."""
    return accumulate({}, (((tail, v), c * _counit_word(prefix, maps))
                           for (u, v), c in _delta_sum(pairs, maps).items()
                           for prefix, tail in [split_pattern_word(u)]))


def coaction(f: NcPoly, maps: StructureMaps) -> TensorPoly:
    """lambda(f) = (pi (x) id) delta(f) in C (x) A, keyed by (tail class,
    word), right legs in normal form."""
    return TensorPoly(2, _coaction_terms(f.terms.items(), maps))


def _is_trivial(w: str, maps: StructureMaps) -> bool:
    """Whether lambda(w) = 1-bar (x) NF(w), compared as dicts over the
    rules' field."""
    return _coaction_terms([(w, 1)], maps) == {
        ("", v): c for v, c in maps.alg.system.nf_word(w).items()}


def recovery_check(maps: StructureMaps, max_deg=6) -> Report:
    """On basis words: lambda(f) = 1-bar (x) f exactly for the B-side, and
    never for basis words with a nontrivial tail.  A word whose coaction
    cannot finish (report.attempt) is a failure that holds the error under
    "error"."""
    alg = maps.alg
    words = pattern_words(max_deg)
    b_words = [w for w in words if is_b_word(w)]
    non_b_words = [w for w in words if not is_b_word(w)]
    failures = []
    for kind, words, trivial in (("b_word", b_words, True),
                                 ("non_b_word", non_b_words, False)):
        for w in words:
            is_trivial, error = attempt(lambda: _is_trivial(w, maps))
            if error:
                failures.append({"kind": kind, "word": w, "error": error})
            elif is_trivial != trivial:
                failures.append({"kind": kind, "word": w})
    return Report("galois_recovery", {"point": alg.point,
                                      "b_words_checked": len(b_words),
                                      "non_b_words_checked": len(non_b_words),
                                      "failures": failures[:20],
                                      "failure_count": len(failures)}, not failures)


def witness_check(maps: StructureMaps) -> Report:
    """a^2 (x - q) lies in AB+ (right factor in B+) but not in B+A, so the
    two one-sided ideals differ and C is not a Hopf quotient.  Its normal
    form is read off the algebra's rule a^2 x -> rhs, as rhs - q a^2.  The
    check fails with no such rule, or when the normal form or the projection
    cannot finish (report.attempt): then its field holds the error."""
    alg = maps.alg
    q = alg.point.q
    a2 = NcPoly.word("aa")
    x_minus_q = NcPoly.word("x") - NcPoly.scalar(q)
    f = a2 * x_minus_q
    nf, nf_error = attempt(lambda: alg.nf(f))
    rhs = next((rule.rhs for rule in alg.system.rules if rule.lhs == "aax"), None)
    # membership in AB+ holds by the factorization a^2 * (x - q) once the
    # right factor is checked to lie in B+ = B /\ ker eps
    in_ab_plus = all(map(is_b_word, x_minus_q.terms)) and not apply_counit(x_minus_q, maps)
    projection, pi_error = attempt(lambda: project_pi(f, maps))
    in_b_plus_a = None if pi_error else not projection
    return Report("galois_witness", {"point": alg.point, "element": "a^2*(x - q)",
                                     "normal_form": nf_error or nf, "in_AB+": in_ab_plus,
                                     "in_B+A": in_b_plus_a,
                                     "projection": pi_error or projection},
                  rhs is not None and not nf_error and nf == rhs - a2.scale(q)
                  and in_ab_plus and in_b_plus_a is False)
