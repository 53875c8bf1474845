import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from curveform import nodal
from curveform.errors import CurveformError, NonOrientable, NotPatternWord
from curveform.freealg import ALPHABET, NcPoly, accumulate, word_key
from curveform.galois import recovery_check, witness_check
from curveform.hopf import StructureMaps, check_coideal
from curveform.nodal import (NodalAlgebra, b_decompose, basis_census, build_algebra,
                             count_basis_words, freeness_check, growth, is_b_word,
                             is_basis_word, pattern_words, random_poly, seed_rules,
                             split_pattern_word)
from curveform.report import Report
from curveform.rewrite import DEFAULT_FUEL, Rule, RuleSystem, complete
from curveform.scalar import ONE, Scalar, curve_point_from_t

from reference_checks import census_by_scan, index_word, pattern_words_by_index


class TestPattern:
    def test_pattern_word_examples(self):
        assert split_pattern_word("") == ("", "")
        assert split_pattern_word("xxy") == ("xxy", "")
        assert split_pattern_word("axax") == ("", "axax")
        assert split_pattern_word("yaxggb") == ("y", "axggb")
        assert split_pattern_word("xaaab") == ("x", "aaab")

    def test_non_pattern_words(self):
        for w in ["yx", "ba", "ag", "bax", "axgx", "xbya", "yax" + "y"]:
            assert not is_basis_word(w)
            with pytest.raises(NotPatternWord) as exc:
                split_pattern_word(w)
            assert exc.value.word == w

    def test_index_word_round_trip(self):
        rng = random.Random(3)
        for _ in range(300):
            i = rng.randint(0, 3)
            j = rng.randint(0, 1)
            l = rng.randint(0, 2)
            m = rng.randint(-3, 3)
            n = rng.randint(0, 1)
            w = index_word(i, j, l, m, n)
            assert split_pattern_word(w) == (index_word(i, j, 0, 0, 0), index_word(0, 0, l, m, n))
            assert is_basis_word(w)

    @pytest.mark.parametrize("max_len", range(11))
    def test_walk_equals_the_index_enumeration(self, max_len):
        words = pattern_words(max_len)
        assert type(words) is tuple
        assert list(words) == pattern_words_by_index(max_len)
        assert [w for w in words if is_b_word(w)] == pattern_words_by_index(
            max_len, lambda i, j, l, m, n: not (l or m or n))
        assert [w for w in words if not split_pattern_word(w)[0]] == pattern_words_by_index(
            max_len, lambda i, j, l, m, n: not (i or j))

    def test_recogniser_agrees_with_enumerator(self):
        recognised = {"".join(letters) for length in range(8)
                      for letters in product(ALPHABET, repeat=length)
                      if is_basis_word("".join(letters))}
        assert recognised == set(pattern_words(7))

    def test_split_pattern_word(self):
        assert split_pattern_word("xxyaxab") == ("xxy", "axab")
        assert split_pattern_word("ggg") == ("", "ggg")
        assert split_pattern_word("xy") == ("xy", "")
        with pytest.raises(ValueError, match="'yx' is not a pattern word"):
            split_pattern_word("yx")


class TestNormalForms:
    def test_defining_relations_reduce_to_zero(self, alg):
        for text in ["y*y - x^2 - x^3", "b*b - a^3", "a*a^-1 - 1",
                     "y*x - x*y", "b*x - x*b", "a*y - y*a"]:
            assert not alg.parse_nf(text)

    def test_b_squared(self, alg):
        assert alg.parse_nf("b*b") == NcPoly.word("aaa")

    def test_quadratic_x_relation(self, alg):
        # a^2 x + x a^2 + a x a + a^2 = (1 + 3q) a^3 at q = 3
        f = alg.parse_nf("a^2*x + x*a^2 + a*x*a + a^2")
        assert f == NcPoly.word("aaa", Scalar(10))

    def test_inverse_conjugation(self, alg):
        # a^-1 x reduces into the pattern span
        f = alg.parse_nf("a^-1*x")
        assert f == NcPoly({"axgg": -ONE, "xg": -ONE, "g": -ONE, "": Scalar(10)})

    def test_by_relation(self, alg):
        # by + yb = 2p b^2 = 2p a^3 with p = 6
        assert alg.parse_nf("b*y + y*b") == NcPoly.word("aaa", Scalar(12))

    def test_nf_idempotent_on_random_elements(self, alg):
        rng = random.Random(11)
        pool = [Scalar(1), Scalar(-1), Scalar(2), alg.point.q]
        for _ in range(50):
            f = alg.nf(random_poly(rng, pool, max_len=7))
            assert alg.nf(f) == f
            assert all(is_basis_word(w) for w in f.terms)

    def test_nf_is_algebra_map_compatible(self, alg):
        # NF(fg) == NF(NF(f) NF(g)) on random pairs
        rng = random.Random(12)
        pool = [Scalar(1), Scalar(-1), Scalar(3)]
        for _ in range(30):
            f = random_poly(rng, pool, max_len=5)
            g = random_poly(rng, pool, max_len=5)
            assert alg.nf(f * g) == alg.nf(alg.nf(f) * alg.nf(g))

    def test_rhs_words_all_pattern(self, algebras):
        for a in algebras.values():
            for rule in a.system.rules:
                assert all(is_basis_word(w) for w in rule.rhs.terms)


class TestCensus:
    def test_count_basis_words_small(self):
        assert [count_basis_words(n) for n in range(7)] == [1, 5, 13, 25, 41, 61, 85]

    def test_census_scan_agrees(self, alg):
        report = basis_census(alg, max_len=4)
        assert report.ok
        assert report.fields["irreducible_counts"] == [1, 5, 13, 25, 41]
        assert report.fields["pattern_scan_counts"] == report.fields["pattern_enum_counts"]
        assert not report.fields["mismatches"]

    def test_census_all_points(self, algebras):
        for a in algebras.values():
            assert basis_census(a, max_len=3).ok

    def test_count_matches_enumeration(self):
        words = pattern_words(8)
        assert list(words) == sorted(set(words), key=word_key)
        assert all(is_basis_word(w) for w in words)
        for n in range(9):
            assert count_basis_words(n) == sum(1 for w in words if len(w) == n)


def with_rules(alg, rules):
    """alg's point and log over another rule system."""
    return NodalAlgebra(alg.point, RuleSystem(rules), alg.completion_log)


class TestPrunedCensus:
    """basis_census extends only the words that are irreducible or pattern
    words; census_by_scan scans all 5^L words."""

    @pytest.mark.parametrize("t", [2, Fraction(7, 5)], ids=["t=2", "t=7/5"])
    def test_equals_the_scan_at_the_completed_systems(self, t):
        a = build_algebra(curve_point_from_t(t))
        for max_len in range(7):
            report = basis_census(a, max_len)
            assert report.ok
            assert report.to_json() == census_by_scan(a, max_len).to_json()

    def test_equals_the_scan_with_rules_removed(self, alg):
        # without yx -> xy, bx -> xb, ... irreducible words leave the pattern
        a = with_rules(alg, alg.system.rules[::2])
        report = basis_census(a, 6)
        assert any(a.system.match(w) is None and not is_basis_word(w)
                   for w in report.fields["mismatches"])
        assert len(report.fields["mismatches"]) == 20
        assert report.to_json() == census_by_scan(a, 6).to_json()

    def test_equals_the_scan_with_an_extra_lhs(self, alg):
        # xy and every pattern word holding it become reducible
        a = with_rules(alg, [*alg.system.rules, Rule("xy", NcPoly.word("yx"))])
        report = basis_census(a, 6)
        assert "xy" in report.fields["mismatches"] and "xxy" in report.fields["mismatches"]
        assert report.fields["irreducible_counts"] != report.fields["pattern_scan_counts"]
        assert report.to_json() == census_by_scan(a, 6).to_json()

    def test_pattern_words_are_prefix_closed(self):
        for w in pattern_words(10):
            assert all(is_basis_word(w[:k]) for k in range(len(w)))

    def test_finishes_at_length_22(self, alg):
        report = basis_census(alg, 22)
        assert report.ok and report.fields["irreducible_counts"][22] == count_basis_words(22)


class TestGrowth:
    def test_cumulative_counts(self, alg):
        report = growth(alg, max_len=4)
        assert report.fields["cumulative"] == [1, 6, 19, 44, 85]

    def test_exponent_near_three(self, alg):
        report = growth(alg, max_len=200)
        assert abs(report.fields["exponent"] - 3.0) <= 0.2
        assert report.ok and report.to_json()["status"] == "pass"

    def test_short_growth_fails(self, alg):
        # at L = 2 the doubling exponent is log2(19/6) = 1.66, far from 3
        report = growth(alg, max_len=2)
        assert abs(report.fields["exponent"] - 1.66) < 0.01
        assert not report.ok and report.to_json()["status"] == "fail"

    def test_counts_quadratic_leading_term(self):
        # c(n) = 2n^2 + 2n + 1 for n >= 1 forces cubic cumulative growth
        for n in range(1, 40):
            assert count_basis_words(n) == 2 * n * n + 2 * n + 1


class TestBDecomposition:
    def test_word_lists(self):
        assert [w for w in pattern_words(2) if is_b_word(w)] == ["", "x", "y", "xx", "xy"]
        tails = [w for w in pattern_words(3) if not split_pattern_word(w)[0]]
        assert "axb" in tails and "ggg" in tails and "xa" not in tails

    def test_decompose_recompose(self, alg):
        f = alg.parse_nf("x*a^2*b + y*a^2*b - 3*a^-1")
        dec = b_decompose(f, alg)
        assert NcPoly((bw + t, c) for t, coeff in dec.items()
                      for bw, c in coeff.terms.items()) == f
        assert set(dec) == {"aab", "g"}

    def test_decompose_is_additive(self, alg):
        rng = random.Random(5)
        pool = [Scalar(1), Scalar(-1), Scalar(2)]
        for _ in range(20):
            f = random_poly(rng, pool, max_len=5)
            g = random_poly(rng, pool, max_len=5)
            lhs = b_decompose(f + g, alg)
            rhs = accumulate(b_decompose(f, alg), b_decompose(g, alg).items())
            assert lhs == rhs

    def test_freeness(self, alg):
        report = freeness_check(alg, max_len=5)
        assert report.ok
        assert not report.fields["failures"]
        # right multiplication by B mixes tails; recorded, not asserted
        assert report.fields["right_tail_pure"] is False

    @pytest.mark.parametrize("t", [2, Fraction(7, 5)], ids=["t=2", "t=7/5"])
    def test_a_word_is_irreducible_iff_it_is_its_own_normal_form(self, t):
        # freeness_check decides NF(b-word * tail) = b-word * tail by match
        # alone; the products in either order, up to length 6, hold words of
        # both kinds
        alg = build_algebra(curve_point_from_t(t))
        tails = [w for w in pattern_words(6) if not split_pattern_word(w)[0]]
        words = {w for bw in filter(is_b_word, pattern_words(6)) for tl in tails
                 for w in (bw + tl, tl + bw) if len(w) <= 6}
        irreducible = {w for w in words if alg.system.match(w) is None}
        assert irreducible == {w for w in words if alg.nf(NcPoly.word(w)) == NcPoly.word(w)}
        assert 0 < len(irreducible) < len(words)

    def test_a_reducible_product_fails(self, alg):
        # a rule xa -> 0 makes the product x * a reducible
        system = RuleSystem((*alg.system.rules, Rule("xa", NcPoly.zero())))
        report = freeness_check(NodalAlgebra(alg.point, system, alg.completion_log),
                                max_len=2)
        assert not report.ok
        assert [f for f in report.fields["failures"] if f["kind"] == "concat"] == [
            {"kind": "concat", "b": "x", "tail": "a"}]
        # the products are listed in graded-lex order of the word b * tail
        report = freeness_check(NodalAlgebra(alg.point, system, alg.completion_log),
                                max_len=3)
        assert [(f["b"], f["tail"]) for f in report.fields["failures"]] == [
            ("x", "a"), ("xx", "a"), ("x", "ax"), ("x", "aa"), ("x", "ab"), ("", "axa")]
        assert report.fields["checked_products"] == len(pattern_words(3)) == 44


# the lhs of the 17 rules at t = 2, in rule order; without gxa or gxaa the
# system still reduces every word outside the pattern
RULE_LHS_AT_2 = ["ag", "ga", "ba", "bg", "bx", "yx", "ay", "gy", "yy", "bb", "by",
                 "aax", "axx", "axy", "gxaa", "gxa", "gx"]
REDUNDANT_LHS = {"gxaa", "gxa"}


class TestOneRuleRemoved:
    """Every check of the basis on a system with one rule removed returns a
    report: a word outside the pattern fails a check, it does not raise."""

    def test_the_rules_at_2(self, alg):
        assert [rule.lhs for rule in alg.system.rules] == RULE_LHS_AT_2

    @pytest.mark.parametrize("lhs", RULE_LHS_AT_2)
    def test_every_check_returns_a_report(self, alg, lhs):
        a = with_rules(alg, [rule for rule in alg.system.rules if rule.lhs != lhs])
        maps = StructureMaps(a)
        census, freeness, coideal, recovery, witness = reports = [
            basis_census(a, 6), freeness_check(a, 5), check_coideal(maps),
            recovery_check(maps), witness_check(maps)]
        assert all(type(r) is Report for r in reports)
        assert census.ok == freeness.ok == (lhs in REDUNDANT_LHS)
        if not freeness.ok:
            # the removed lhs is the shortest word it leaves irreducible
            assert freeness.fields["failures"][0] == {"kind": "irreducible", "word": lhs}
        # each capped list holds the first 20 of the failures its count counts
        for rep, count, listed in ((census, "mismatch_count", "mismatches"),
                                   (freeness, "failure_count", "failures"),
                                   (recovery, "failure_count", "failures")):
            assert min(rep.fields[count], 20) == len(rep.fields[listed])
        recovery_errors = [f for f in recovery.fields["failures"] if "error" in f]
        assert bool(recovery_errors) == (lhs in {"ag", "yx", "aax", "axx"})
        assert all(type(f["error"]) is NotPatternWord for f in recovery_errors)
        if lhs == "aax":
            # no rule to read the normal form off, and pi meets aax itself
            assert not witness.ok
            assert witness.to_json()["projection"] == "'aax' is not a pattern word"
            assert witness.fields["in_B+A"] is None
        else:
            assert witness.ok

    @pytest.mark.parametrize("lhs", RULE_LHS_AT_2)
    def test_freeness_takes_the_census_verdict(self, alg, lhs):
        # below |lhs| the census cannot see the removed lhs, while the right
        # products, up to twice the bound long, may still meet it
        a = with_rules(alg, [rule for rule in alg.system.rules if rule.lhs != lhs])
        for max_len in range(2, 7):
            census, freeness = basis_census(a, max_len), freeness_check(a, max_len)
            unfinished = [f for f in freeness.fields["failures"] if f["kind"] == "right_product"]
            assert freeness.ok == (census.ok and not unfinished), max_len
            if max_len >= len(lhs):
                assert freeness.ok == census.ok, max_len


# -- completion at rational points -----------------------------------------

def completion_state(system, log, report):
    """Everything a build returns, in order and with coefficient types: the
    rules, the log (JSON, per-round counts, added rules as the system's own),
    the diamond report and the nf cache, with the words that share a dict."""
    cache = system._nf_cache
    shared = {}
    for w, nf in cache.items():
        shared.setdefault(id(nf), []).append(w)
    seeds = len(system.rules) - len(log.added)
    return {"fuel": system.fuel,
            "rules": [(r.lhs, list(r.rhs.terms.items()), r.origin) for r in system.rules],
            "log": log.to_json(), "counts": log.counts,
            "added_are_rules": [rule is system.rules[seeds + k] for k, (_, rule) in enumerate(log.added)],
            "diamond": report.to_json(),
            "cache": [(w, [(v, c, type(c)) for v, c in nf.items()]) for w, nf in cache.items()],
            "shared": sorted(shared.values())}


def outcome(build):
    """The completion state of build(), or the type and message of its error."""
    try:
        return completion_state(*build())
    except CurveformError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def terms_with_types(f):
    return [(w, c, type(c)) for w, c in f.terms.items()]


def plain(rules, fuel=DEFAULT_FUEL):
    """Completion of the rules in the given coordinates."""
    system, log = complete(RuleSystem(rules, fuel), is_basis_word)
    return system, log, log.diamond


def built(point, fuel=DEFAULT_FUEL):
    alg = build_algebra(point, fuel)
    return alg.system, alg.completion_log, alg.diamond_report


SEVEN_FIFTHS = curve_point_from_t(Fraction(7, 5))
# each seed coefficient at t = 7/5 plus 1, as (rule index, rhs word)
MUTANTS = [(i, w) for i, rule in enumerate(seed_rules(SEVEN_FIFTHS)) for w in rule.rhs.terms]


def mutated_seed(i, word):
    rules = seed_rules(SEVEN_FIFTHS)
    rule = rules[i]
    rules[i] = Rule(rule.lhs, rule.rhs + NcPoly.word(word), rule.origin)
    return rules


class TestRescaledCompletion:
    """A rational point completes in its own coordinates, as an integral
    point does: the build is the plain completion of the seed, its errors
    included.  (The name is that of the rescaled completion these tests
    were written for.)"""

    @pytest.mark.parametrize("t", ["7/5", "-1/2", "5/3", "11/7", "-9/7", "1/2"])
    def test_equals_the_plain_completion(self, t):
        point = curve_point_from_t(Fraction(t))
        want = outcome(lambda: plain(seed_rules(point)))
        assert outcome(lambda: built(point)) == want
        # non-integral rational coefficients are kept in the cache, as Scalars
        assert any(kind is Scalar and not c.c1 and type(c.c0) is Fraction
                   for _, terms in want["cache"] for _, c, kind in terms)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(-9, 9), n=st.integers(2, 7))
    def test_equals_the_plain_completion_at_any_rational_point(self, m, n):
        point = curve_point_from_t(Fraction(m, n))
        assert outcome(lambda: built(point)) == outcome(lambda: plain(seed_rules(point)))

    @pytest.mark.parametrize("fuel", [1, 40, 80, 81, 82, 83])
    def test_fails_at_the_same_budgets(self, fuel):
        # the build at t = 7/5 needs 82 steps, as at t = 2
        want = outcome(lambda: plain(seed_rules(SEVEN_FIFTHS), fuel))
        assert outcome(lambda: built(SEVEN_FIFTHS, fuel)) == want
        assert (want.get("error") == "FuelExhausted") == (fuel < 82)

    @pytest.mark.parametrize("i, word", MUTANTS)
    def test_a_mutant_seed_fails_in_the_given_coordinates(self, monkeypatch, i, word):
        rules = mutated_seed(i, word)
        want = outcome(lambda: plain(rules))
        monkeypatch.setattr(nodal, "seed_rules", lambda point: rules)
        assert outcome(lambda: built(SEVEN_FIFTHS)) == want

    def test_a_non_orientable_mutant_names_the_plain_witness(self, monkeypatch):
        # the build's difference is the plain one term for term,
        # coefficient types included
        raised = 0
        for i, word in MUTANTS:
            rules = mutated_seed(i, word)
            try:
                plain(rules)
            except NonOrientable as exc:
                want = exc
            else:
                continue
            monkeypatch.setattr(nodal, "seed_rules", lambda point: rules)
            with pytest.raises(NonOrientable) as exc:
                build_algebra(SEVEN_FIFTHS)
            got = exc.value
            assert want.witness is not None and got.witness == want.witness
            assert str(got) == str(want)
            assert terms_with_types(got.difference) == terms_with_types(want.difference)
            raised += 1
        assert raised == 18

    @pytest.mark.parametrize("fuel, mutant", [(DEFAULT_FUEL, m) for m in MUTANTS]
                             + [(fuel, None) for fuel in (1, 40, 80, 81, 82, 83)])
    def test_a_build_completes_once(self, monkeypatch, fuel, mutant):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return complete(*args, **kwargs)

        monkeypatch.setattr(nodal, "complete", counted)
        if mutant is not None:
            rules = mutated_seed(*mutant)
            monkeypatch.setattr(nodal, "seed_rules", lambda point: rules)
        outcome(lambda: built(SEVEN_FIFTHS, fuel))
        assert len(calls) == 1

    def test_the_diamond_report_is_the_last_round(self, algebras, monkeypatch):
        built_mutants = []
        for i, word in MUTANTS:
            rules = mutated_seed(i, word)
            monkeypatch.setattr(nodal, "seed_rules", lambda point: rules)
            try:
                built_mutants.append(build_algebra(SEVEN_FIFTHS))
            except CurveformError:
                pass
        assert len(built_mutants) == 4
        for alg in [*algebras.values(), *built_mutants]:
            assert alg.diamond_report is alg.completion_log.diamond and alg.diamond_report.ok

    def test_integral_coefficients_stay_ints(self):
        # the field form (scalar.field) holds an integral coefficient as an
        # int, never as a Scalar; the reducer's own arithmetic keeps it so
        scalars = 0
        for t in sorted({Fraction(m, n) for m in range(-9, 10) for n in range(2, 8)}):
            system = build_algebra(curve_point_from_t(t)).system
            coeffs = [c for terms in system._rhs.values() for _, c in terms]
            coeffs += [c for nf in system._nf_cache.values() for c in nf.values()]
            assert [c for c in coeffs if type(c) is Scalar
                    and not c.c1 and type(c.c0) is int] == [], t
            scalars += sum(type(c) is Scalar for c in coeffs)
        assert scalars
