from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from curveform import rewrite
from curveform.errors import DiamondFailure, FuelExhausted, LimitExceeded, NonOrientable
from curveform.freealg import ALPHABET, NcPoly
from curveform.rewrite import (OrientationPolicy, Rule, RuleSystem,
                               branch_difference, check_diamond, complete)
from curveform.scalar import ONE, R, Scalar, curve_point_from_t
from curveform.hopf import tensor_nf
from curveform.freealg import TensorPoly
from curveform.nodal import build_algebra, is_basis_word, seed_rules
from curveform.parser import parse_expr


def commutator_system():
    # yx -> xy and ba -> ab: confluent, terminating toy system
    return RuleSystem([Rule("yx", NcPoly.word("xy")),
                       Rule("ba", NcPoly.word("ab"))])


class TestRule:
    def test_rejects_empty_lhs(self):
        with pytest.raises(ValueError):
            Rule("", NcPoly.one())

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            Rule("x", NcPoly.word("x") + NcPoly.one())

    def test_rejects_unknown_origin(self):
        with pytest.raises(ValueError):
            Rule("x", NcPoly.one(), origin="guessed")

    def test_rejects_lhs_letter_outside_alphabet(self):
        # inside the lhs alternation "." would match any letter
        with pytest.raises(ValueError, match=r"'a\.'"):
            Rule.from_json({"lhs": "a.", "rhs": [], "origin": "given"})

    def test_immutable(self):
        r = Rule("x", NcPoly.one())
        with pytest.raises(AttributeError):
            r.lhs = "y"

    def test_json_round_trip(self):
        r = Rule("ag", NcPoly.one(), origin="completed")
        r2 = Rule.from_json(r.to_json())
        assert (r2.lhs, r2.rhs, r2.origin) == (r.lhs, r.rhs, r.origin)


class TestMatching:
    def test_leftmost_position_wins(self):
        rs = commutator_system()
        assert rs.match("ayxyx") == (1, 0)

    def test_longest_lhs_wins_at_a_position(self):
        rs = RuleSystem([Rule("ba", NcPoly.word("ab")),
                         Rule("bax", NcPoly.word("xab"))])
        assert rs.match("bax") == (0, 1)

    def test_no_match(self):
        assert commutator_system().match("xxab") is None

    def test_empty_system_never_matches(self):
        rs = RuleSystem([])
        f = NcPoly({"xy": Scalar(2), "": ONE})
        assert rs.match("xy") is None
        assert rs.match("") is None
        assert rs.normal_form(f) == f
        assert rs.normal_form_strategy(f, leftmost=False) == f

    @pytest.mark.parametrize("system", ["completed", "shared_prefix"])
    def test_match_is_leftmost_then_longest(self, algebras, system):
        rs = algebras[2].system if system == "completed" else RuleSystem(
            [Rule("ba", NcPoly.word("ab")), Rule("bax", NcPoly.word("xab"))])

        def by_definition(w, positions):
            for i in positions:
                hits = [(len(r.lhs), idx) for idx, r in enumerate(rs.rules)
                        if w.startswith(r.lhs, i)]
                if hits:
                    return (i, max(hits)[1])
            return None

        for length in range(7):
            for letters in product(ALPHABET, repeat=length):
                w = "".join(letters)
                assert rs.match(w) == by_definition(w, range(length))
                assert rs._match_directional(w, False) == by_definition(
                    w, range(length - 1, -1, -1))

    def test_apply_at(self):
        rs = commutator_system()
        assert rs.apply_at("ayxb", 1, 0) == NcPoly.word("axyb")

    def test_rejects_duplicate_lhs(self):
        with pytest.raises(ValueError):
            RuleSystem([Rule("yx", NcPoly.word("xy")),
                        Rule("yx", NcPoly.zero())])


class TestReduction:
    def test_reduce_once_single_step(self):
        rs = commutator_system()
        f = NcPoly.word("yxba")
        g = rs.reduce_once(f)
        assert g == NcPoly.word("xyba")
        assert rs.reduce_once(g) == NcPoly.word("xyab")

    def test_reduce_once_irreducible_returns_none(self):
        assert commutator_system().reduce_once(NcPoly.word("xxy")) is None

    def test_normal_form_sorts_letters(self):
        rs = commutator_system()
        assert rs.normal_form(NcPoly.word("yxba")) == NcPoly.word("xyab")

    def test_normal_form_linear(self):
        rs = commutator_system()
        f = NcPoly({"yx": Scalar(2), "xy": Scalar(-2)})
        assert rs.normal_form(f) == NcPoly.zero()

    def test_normal_form_matches_step_iteration(self):
        rs = commutator_system()
        f = NcPoly({"yyxx": ONE, "baba": Scalar(3)})
        g = f
        while True:
            step = rs.reduce_once(g)
            if step is None:
                break
            g = step
        assert rs.normal_form(f) == g

    def test_strategy_independence(self):
        rs = commutator_system()
        f = NcPoly.word("yyxxba")
        left = rs.normal_form_strategy(f, leftmost=True)
        right = rs.normal_form_strategy(f, leftmost=False)
        assert left == right == rs.normal_form(f)

    def test_fuel_exhaustion(self):
        rs = RuleSystem([Rule("x", NcPoly.word("xx"))], fuel=50)
        with pytest.raises(FuelExhausted) as exc:
            rs.normal_form(NcPoly.word("x"))
        assert exc.value.steps == 50

    def test_fuel_exhaustion_names_element_and_budget(self):
        rs = RuleSystem([Rule("x", NcPoly.word("xx"))], fuel=50)
        with pytest.raises(FuelExhausted) as exc:
            rs.normal_form(NcPoly.word("x"))
        assert exc.value.budget == 50
        assert exc.value.partial == NcPoly.word("x")
        assert str(exc.value) == "reduction of x exhausted its fuel: 50 steps taken, budget 50"

    def test_strategy_fuel_exhaustion_carries_partial(self):
        rs = RuleSystem([Rule("yx", NcPoly.word("xy")), Rule("xy", NcPoly.word("yx"))],
                        fuel=7)
        with pytest.raises(FuelExhausted) as exc:
            rs.normal_form_strategy(NcPoly.word("yx"))
        assert (exc.value.steps, exc.value.budget) == (7, 7)
        assert exc.value.partial == NcPoly.word("xy")

    def test_cache_consistency(self):
        rs = commutator_system()
        first = rs.normal_form(NcPoly.word("yxyx"))
        second = rs.normal_form(NcPoly.word("yxyx"))
        assert first == second == NcPoly.word("xxyy")


class TestAmbiguities:
    def test_overlap_found(self):
        # yx/yx self-overlap is impossible (no proper suffix = prefix);
        # yx and xy overlap in yxy and xyx
        rs = RuleSystem([Rule("yx", NcPoly.word("xy")),
                        Rule("xy", NcPoly.word("yx"))])
        ambs = rs.find_ambiguities()
        witnesses = {a.witness for a in ambs}
        assert witnesses == {"yxy", "xyx"}
        assert all(a.kind == "overlap" for a in ambs)

    def test_inclusion_found(self):
        rs = RuleSystem([Rule("bax", NcPoly.word("xab")),
                         Rule("ba", NcPoly.word("ab"))])
        incs = [a for a in rs.find_ambiguities() if a.kind == "inclusion"]
        assert len(incs) == 1
        assert incs[0].witness == "bax" and incs[0].pos_right == 0

    def test_self_overlap(self):
        rs = RuleSystem([Rule("aa", NcPoly.word("a"))])
        ambs = rs.find_ambiguities()
        assert len(ambs) == 1 and ambs[0].witness == "aaa"

    def test_deterministic_order(self):
        rs = RuleSystem(seed_rules(curve_point_from_t(2)))
        assert rs.find_ambiguities() == rs.find_ambiguities()


class TestDiamond:
    def test_confluent_toy(self):
        report = check_diamond(commutator_system())
        assert report.ok

    def test_branch_difference_zero(self):
        rs = RuleSystem([Rule("aa", NcPoly.word("a"))])
        amb = rs.find_ambiguities()[0]
        assert not branch_difference(rs, amb)

    def test_non_confluent_toy(self):
        # aa -> x and aa -> y disguised as an overlap: ab -> x, ba -> y
        # witness aba reduces to xa and ay, both irreducible and distinct
        rs = RuleSystem([Rule("ab", NcPoly.word("x")),
                         Rule("ba", NcPoly.word("y"))])
        report = check_diamond(rs)
        assert not report.ok
        bad = [e for e in report.entries if not e.ok]
        assert bad and all(e.residual for e in bad)

    def test_failure_names_the_unresolved_ambiguity(self):
        rs = RuleSystem([Rule("ab", NcPoly.word("x")),
                         Rule("ba", NcPoly.word("y"))])
        # both overlaps, aba and bab, stay unresolved
        assert str(DiamondFailure(check_diamond(rs))) == (
            "diamond lemma check failed: 2 of 2 ambiguities unresolved, "
            "first overlap aba (ab@0, ba@1)")

    def test_report_json_counts(self):
        report = check_diamond(commutator_system())
        obj = report.to_json()
        assert obj["status"] == "pass" and obj["unresolved"] == 0
        assert obj["ambiguities"] == len(report.entries)


class TestOrientation:
    def setup_method(self):
        self.policy = OrientationPolicy(is_basis_word)

    def test_orients_toward_pattern(self):
        # yx - xy: yx is not a pattern word, xy is
        diff = NcPoly.word("yx") - NcPoly.word("xy")
        rule = self.policy.orient(diff)
        assert rule.lhs == "yx" and rule.rhs == NcPoly.word("xy")
        assert rule.origin == "completed"

    def test_normalizes_leading_coefficient(self):
        diff = (NcPoly.word("yx") - NcPoly.word("xy")).scale(Scalar(-3))
        rule = self.policy.orient(diff)
        assert rule.lhs == "yx" and rule.rhs == NcPoly.word("xy")

    def test_weight_beats_length(self):
        # gx (weight 0) loses to xb (weight 5) even at equal length
        diff = NcPoly.word("gx") + NcPoly.word("bx")
        rule = self.policy.orient(diff)
        assert rule.lhs == "bx"

    def test_non_orientable(self):
        with pytest.raises(NonOrientable):
            self.policy.orient(NcPoly.word("xy") + NcPoly.word("aaa"))


class TestCompletion:
    def test_completes_seed_system(self, alg):
        # four discovered rules on top of the thirteen seeds
        assert len(alg.system.rules) == 17
        assert len(alg.completion_log.added) == 4
        assert {r.origin for _, r in alg.completion_log.added} == {"completed"}

    def test_discovered_lhs_stable_across_points(self, algebras):
        lhs_sets = {t: tuple(sorted(r.lhs for _, r in a.completion_log.added))
                    for t, a in algebras.items()}
        assert len(set(lhs_sets.values())) == 1
        assert "gx" in lhs_sets[2] and "axy" in lhs_sets[2]

    def test_completed_system_confluent(self, algebras):
        for a in algebras.values():
            assert a.diamond_report.ok
            assert all(e.ok for e in a.diamond_report.entries)

    def test_already_confluent_adds_nothing(self):
        policy = OrientationPolicy(is_basis_word)
        rs, log = complete(commutator_system(), policy)
        assert len(rs.rules) == 2 and not log.added

    def test_stuck_witness_reports_its_fuel(self):
        # xy -> yx and yx -> xy loop on both overlap witnesses, xyx and yxy
        policy = OrientationPolicy(is_basis_word)
        looping = RuleSystem([Rule("xy", NcPoly.word("yx")), Rule("yx", NcPoly.word("xy"))],
                             fuel=40)
        with pytest.raises(FuelExhausted) as exc:
            complete(looping, policy)
        assert (exc.value.steps, exc.value.budget) == (40, 40)
        assert exc.value.partial == NcPoly.word("xyx")
        assert "budget 40" in str(exc.value)

    def test_rule_cap_raises(self):
        # the thirteen seed rules are not confluent, so a cap of 13 is hit
        # before the first completed rule lands
        seed = RuleSystem(seed_rules(curve_point_from_t(2)))
        with pytest.raises(LimitExceeded) as exc:
            complete(seed, OrientationPolicy(is_basis_word), max_rules=13)
        assert str(exc.value) == "completion exceeded max_rules=13"

    def test_rule_cap_names_the_stuck_witnesses(self):
        # the xy/yx loop leaves two witnesses stuck while ab -> x and bg -> y
        # keep adding rules, until the cap of four is reached
        policy = OrientationPolicy(is_basis_word)
        rs = RuleSystem([Rule("xy", NcPoly.word("yx")), Rule("yx", NcPoly.word("xy")),
                         Rule("ab", NcPoly.word("x")), Rule("bg", NcPoly.word("y"))],
                        fuel=40)
        with pytest.raises(LimitExceeded) as exc:
            complete(rs, policy, max_rules=4)
        assert str(exc.value) == (
            "completion exceeded max_rules=4 with 2 witnesses out of fuel, first: "
            "reduction of y*x^2 exhausted its fuel: 40 steps taken, budget 40")
        assert isinstance(exc.value.__cause__, FuelExhausted)

    def test_completed_system_keeps_the_seed_fuel(self):
        assert build_algebra(curve_point_from_t(2), fuel=200).system.fuel == 200


# -- reduction over the rules' field of definition -------------------------

def r_coeff_system():
    # ba -> r ab + 1/2 a and yx -> (2 - r) xy: no overlaps, so confluent
    return RuleSystem([Rule("ba", NcPoly({"ab": R, "a": Scalar(Fraction(1, 2))})),
                       Rule("yx", NcPoly.word("xy", Scalar(2, -1)))])


# coefficients with a nonzero r-part, so that K-arithmetic enters at the boundary
r_scalars = st.builds(Scalar, st.builds(Fraction, st.integers(-8, 8), st.integers(1, 7)),
                      st.integers(-5, 5).filter(bool))


def polys(letters, max_len):
    return st.dictionaries(st.text(letters, max_size=max_len), r_scalars,
                           min_size=1, max_size=4).map(NcPoly)


def cached_coeffs(rs):
    return [c for nf in rs._nf_cache.values() for c in nf.values()]


@pytest.fixture(scope="module")
def alg75():
    return build_algebra(curve_point_from_t(Fraction(7, 5)))


class TestFieldOfDefinition:
    @settings(max_examples=40, deadline=None)
    @given(f=polys("xyagb", 4))
    def test_matches_uncached_reduction_at_seven_fifths(self, alg75, f):
        rs = alg75.system
        assert rs.normal_form(f) == rs.normal_form_strategy(f)

    @settings(max_examples=60, deadline=None)
    @given(f=polys("xyab", 6))
    def test_r_coefficient_rules(self, f):
        rs = r_coeff_system()
        assert rs.normal_form(f) == rs.normal_form_strategy(f)
        assert rs.normal_form(f) == rs.normal_form_strategy(f, leftmost=False)

    def test_r_coefficient_word(self):
        rs = r_coeff_system()
        # b a a -> r ab a + 1/2 aa -> r a (r ab + 1/2 a) + 1/2 aa
        assert rs.normal_form(NcPoly.word("baa")) == NcPoly(
            {"aab": R * R, "aa": R * Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2))})
        assert rs.nf_word("yx") == {"xy": Scalar(2, -1)}

    def test_cached_coefficients_are_rational(self, algebras, alg75):
        exprs = ["b*y*x*a^-1*y", "y^3*b^2*x", "a^-2*x*b*y*a"]
        for alg, kinds in ((algebras[2], {int}), (alg75, {int, Fraction})):
            for e in exprs:
                nf = alg.nf(parse_expr(e, alg.point) * parse_expr("1 + r*x", alg.point))
                assert all(type(c) is Scalar for c in nf.terms.values())
            seen = {type(c) for c in cached_coeffs(alg.system)}
            assert seen == kinds

    def test_tensor_nf_returns_scalars(self, alg):
        tp = TensorPoly(2, {("yx", "ba"): R, ("bx", "ag"): Scalar(3)})
        out = tensor_nf(tp, alg)
        assert out and all(type(c) is Scalar for c in out.terms.values())

    def test_monomial_step_shares_child_dict(self, alg):
        rs = alg.system
        assert rs.nf_word("bx") is rs.nf_word("xb")
        terms = alg.nf(NcPoly.word("bx")).terms
        assert terms == {"xb": ONE}
        assert not any(terms is nf for nf in rs._nf_cache.values())


# -- prefix-first reduction ------------------------------------------------

@pytest.fixture(scope="module")
def systems_by_t(alg, alg75):
    return {"2": alg.system, "7/5": alg75.system}


class TestPrefixFirst:
    @settings(max_examples=40, deadline=None)
    @given(t=st.sampled_from(["2", "7/5"]), w=st.text("xyagb", max_size=8))
    def test_matches_leftmost_and_rightmost_reduction(self, systems_by_t, t, w):
        rs = systems_by_t[t]
        # the uncached strategies take over 100,000 steps on some words of
        # this length (rightmost on xgyyax at t = 2); such words are skipped
        reference = RuleSystem(rs.rules, fuel=2_000)
        try:
            left = reference.normal_form_strategy(NcPoly.word(w))
            right = reference.normal_form_strategy(NcPoly.word(w), leftmost=False)
        except FuelExhausted:
            assume(False)
        assert NcPoly(rs.nf_word(w)) == left == right

    @settings(max_examples=40, deadline=None)
    @given(w=st.text("xyagb", max_size=12))
    def test_every_prefix_is_cached(self, alg, w):
        rs = RuleSystem(alg.system.rules)
        rs.nf_word(w)
        assert all(w[:i] in rs._nf_cache for i in range(len(w) + 1))

    def test_caches_prefixes_and_normal_word_times_a_letter(self, alg):
        # the head bb of bbx reduces to aaa, so bbx reduces through aaax,
        # the normal word aaa times the letter x
        rs = RuleSystem(alg.system.rules)
        assert rs.nf_word("bbx") == alg.system.nf_word("aaax")
        assert {"", "b", "bb", "bbx", "aaax"} <= set(rs._nf_cache)


# -- completion in the field of definition, its last round the diamond check

def reference_difference(rs, amb):
    """The branch difference as NcPolys of Scalars: NF(left) - NF(right)."""
    w = amb.witness
    return (rs.normal_form(rs.apply_at(w, 0, amb.rule_left))
            - rs.normal_form(rs.apply_at(w, amb.pos_right, amb.rule_right)))


def completion_rounds(monkeypatch, t):
    """(system, ambiguities) of every round of the completion at t."""
    rounds = []
    diamond = rewrite._diamond

    def record(rs, ambiguities):
        rounds.append((rs, list(ambiguities)))
        return diamond(rs, ambiguities)

    monkeypatch.setattr(rewrite, "_diamond", record)
    build_algebra(curve_point_from_t(t))
    return rounds


POINTS = ["2", "3", "7/5", "-1/2"]


class TestCompletionRounds:
    @pytest.mark.parametrize("t", POINTS)
    def test_branch_difference_equals_the_ncpoly_formula(self, monkeypatch, t):
        # on every round's system, each on a cold cache: the same difference,
        # term for term in the same order, and the nf cache fills the same way
        for rs, ambiguities in completion_rounds(monkeypatch, Fraction(t)):
            fast, slow = RuleSystem(rs.rules, rs.fuel), RuleSystem(rs.rules, rs.fuel)
            for amb in ambiguities:
                diff, reference = branch_difference(fast, amb), reference_difference(slow, amb)
                assert diff == reference and list(diff.terms) == list(reference.terms)
                assert all(type(c) is Scalar for c in diff.terms.values())
            assert list(fast._nf_cache) == list(slow._nf_cache)

    def test_branch_difference_with_r_coefficients(self):
        # aba reduces to r xa one way and 1/2 ay the other
        rules = [Rule("ab", NcPoly.word("x", R)), Rule("ba", NcPoly.word("y", Fraction(1, 2)))]
        fast, slow = RuleSystem(rules), RuleSystem(rules)
        ambiguities = fast.find_ambiguities()
        assert [amb.witness for amb in ambiguities] == ["aba", "bab"]
        for amb in ambiguities:
            diff = branch_difference(fast, amb)
            assert diff and diff == reference_difference(slow, amb)
        assert branch_difference(fast, ambiguities[0]) == NcPoly(
            {"xa": R, "ay": Scalar(Fraction(-1, 2))})

    @pytest.mark.parametrize("t", POINTS)
    def test_ambiguities_equal_a_full_enumeration_every_round(self, monkeypatch, t):
        rounds = completion_rounds(monkeypatch, Fraction(t))
        assert len(rounds) == 5
        assert [len(ambiguities) for _, ambiguities in rounds] == [26, 31, 39, 47, 51]
        for rs, ambiguities in rounds:
            assert ambiguities == rs.find_ambiguities()

    @pytest.mark.parametrize("t", POINTS)
    def test_last_round_is_the_diamond_check(self, t):
        alg = build_algebra(curve_point_from_t(Fraction(t)))
        report = alg.diamond_report
        assert report is alg.completion_log.diamond
        assert report.to_json() == check_diamond(alg.system).to_json()
        fields = report.fields
        assert (report.ok, fields["rules"], fields["ambiguities"], fields["unresolved"]) == (
            True, 17, 51, 0)

    def test_fuel_overrun_is_a_failing_entry(self):
        looping = RuleSystem([Rule("xy", NcPoly.word("yx")), Rule("yx", NcPoly.word("xy"))],
                             fuel=40)
        report = check_diamond(looping)
        assert not report.ok and report.fields["unresolved"] == 2
        assert all(isinstance(e.residual, FuelExhausted) for e in report.entries)
        assert [e["residual"] for e in report.to_json()["entries"]] == [
            str(e.residual) for e in report.entries]
