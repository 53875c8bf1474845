import importlib.util
import random
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curveform import nodal, rewrite
from curveform.errors import FuelExhausted, LimitExceeded, NonOrientable
from curveform.freealg import ALPHABET, NcPoly
from curveform.rewrite import (Rule, RuleSystem, branch_difference, check_diamond, complete,
                               greater, maximum, orient, rank, word_matrix)
from curveform.scalar import GENERIC, ONE, R, Scalar, curve_point_from_t
from curveform.hopf import StructureMaps, check_welldefined, tensor_nf
from curveform.freealg import TensorPoly
from curveform.nodal import build_algebra, is_basis_word, seed_rules
from curveform.parser import parse_expr
from reference_checks import (GeneratorFedSystem, carry_by_step, complete_at,
                              complete_redropping_resolved, pair_ambiguities_by_scan)
from reference_reduction import apply_at, match_directional, normal_form_strategy, reduce_once


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
            Rule("a.", NcPoly.one())

    def test_immutable(self):
        r = Rule("x", NcPoly.one())
        with pytest.raises(AttributeError):
            r.lhs = "y"


class TestMatching:
    def test_leftmost_position_wins(self):
        rs = commutator_system()
        assert rs.match("ayxyx") == (1, "yx")

    def test_longest_lhs_wins_at_a_position(self):
        rs = RuleSystem([Rule("ba", NcPoly.word("ab")),
                         Rule("bax", NcPoly.word("xab"))])
        assert rs.match("bax") == (0, "bax")

    def test_no_match(self):
        assert commutator_system().match("xxab") is None

    def test_empty_system_never_matches(self):
        rs = RuleSystem([])
        f = NcPoly({"xy": Scalar(2), "": ONE})
        assert rs.match("xy") is None
        assert rs.match("") is None
        assert rs.normal_form(f) == f
        assert normal_form_strategy(rs, f, leftmost=False) == f

    @pytest.mark.parametrize("system", ["completed", "shared_prefix"])
    def test_match_is_leftmost_then_longest(self, algebras, system):
        rs = algebras[2].system if system == "completed" else RuleSystem(
            [Rule("ba", NcPoly.word("ab")), Rule("bax", NcPoly.word("xab"))])

        def by_definition(w, positions):
            for i in positions:
                hits = [(len(r.lhs), r.lhs) for r in rs.rules if w.startswith(r.lhs, i)]
                if hits:
                    return (i, max(hits)[1])
            return None

        for length in range(7):
            for letters in product(ALPHABET, repeat=length):
                w = "".join(letters)
                assert rs.match(w) == by_definition(w, range(length))
                assert match_directional(rs, w, False) == by_definition(
                    w, range(length - 1, -1, -1))

    def test_apply_at(self):
        rs = commutator_system()
        assert apply_at(rs, "ayxb", 1, "yx") == NcPoly.word("axyb")

    def test_rejects_duplicate_lhs(self):
        with pytest.raises(ValueError, match="'yx'"):
            RuleSystem([Rule("yx", NcPoly.word("xy")),
                        Rule("yx", NcPoly.zero())])


class TestReduction:
    def test_reduce_once_single_step(self):
        rs = commutator_system()
        f = NcPoly.word("yxba")
        g = reduce_once(rs, f)
        assert g == NcPoly.word("xyba")
        assert reduce_once(rs, g) == NcPoly.word("xyab")

    def test_reduce_once_irreducible_returns_none(self):
        assert reduce_once(commutator_system(), NcPoly.word("xxy")) is None

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
            step = reduce_once(rs, g)
            if step is None:
                break
            g = step
        assert rs.normal_form(f) == g

    def test_strategy_independence(self):
        rs = commutator_system()
        f = NcPoly.word("yyxxba")
        left = normal_form_strategy(rs, f, leftmost=True)
        right = normal_form_strategy(rs, f, leftmost=False)
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
            normal_form_strategy(rs, NcPoly.word("yx"))
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

    @settings(max_examples=200, deadline=None)
    @given(li=st.text("xyagb", min_size=1, max_size=5),
           lj=st.none() | st.text("xyagb", min_size=1, max_size=5))
    def test_pair_memo_equals_a_fresh_enumeration(self, li, lj):
        # lj None is the self-pair (li, li)
        lj = li if lj is None else lj
        memo = rewrite._pair_ambiguities(li, lj)
        assert type(memo) is tuple and list(memo) == pair_ambiguities_by_scan(li, lj)
        assert rewrite._pair_ambiguities(li, lj) is memo


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

    def test_report_json_counts(self):
        report = check_diamond(commutator_system())
        obj = report.to_json()
        assert obj["status"] == "pass" and obj["unresolved"] == 0
        assert obj["ambiguities"] == len(report.entries)

    def test_entries_are_named_by_kind_witness_and_positions(self, alg):
        rs = RuleSystem([Rule("ab", NcPoly.word("x")), Rule("ba", NcPoly.word("y")),
                         Rule("xyx", NcPoly.word("a")), Rule("y", NcPoly.word("b"))])
        assert [e["name"] for e in check_diamond(rs).to_json()["entries"]] == [
            "inclusion xyx (xyx@0, y@1)", "overlap aba (ab@0, ba@1)",
            "overlap bab (ba@0, ab@1)", "overlap xyxyx (xyx@0, xyx@2)"]
        # the name is made once per ambiguity, which every system shares
        ambiguities = alg.system.find_ambiguities()
        assert [e.name for e in alg.diamond_report.entries] == [
            f"{amb.kind} {amb.witness} ({amb.left}@0, {amb.right}@{amb.pos_right})"
            for amb in ambiguities]
        assert all(amb.name is amb.name for amb in ambiguities)


class TestOrientation:
    def test_orients_toward_pattern(self):
        # yx - xy: yx is above xy in the order, and not a pattern word
        diff = NcPoly.word("yx") - NcPoly.word("xy")
        rule = orient(diff, is_basis_word)
        assert rule.lhs == "yx" and rule.rhs == NcPoly.word("xy")
        assert rule.origin == "completed"

    def test_normalizes_leading_coefficient(self):
        diff = (NcPoly.word("yx") - NcPoly.word("xy")).scale(Scalar(-3))
        rule = orient(diff, is_basis_word)
        assert rule.lhs == "yx" and rule.rhs == NcPoly.word("xy")

    def test_the_order_beats_length(self):
        # gx -> axgg makes a word longer, yet decreases under the order: no
        # weighted length order orients it this way and ag -> 1 as well
        diff = NcPoly.word("gx") - NcPoly.word("axgg")
        assert orient(diff, is_basis_word).lhs == "gx"
        assert maximum(["ag", ""]) == "ag"

    def test_non_orientable(self):
        # gx and bx are incomparable, as are x and a; aaa is above a, but a
        # pattern word
        assert maximum(["gx", "bx"]) is maximum(["x", "a"]) is None
        for diff in (NcPoly.word("gx") + NcPoly.word("bx"), NcPoly.word("x") - NcPoly.word("a"),
                     NcPoly.word("aaa") - NcPoly.word("a")):
            with pytest.raises(NonOrientable):
                orient(diff, is_basis_word)
            with pytest.raises(NonOrientable) as exc:
                rank(diff, is_basis_word)
            assert exc.value.difference is diff

    def test_completion_stops_at_the_first_non_orientable_difference(self):
        # gyx gives xgx - g, which orients to xgx -> g; then gx - yg, where
        # neither word is above the other, is raised
        rs = RuleSystem([Rule("gy", NcPoly.word("xg")), Rule("yx", NcPoly.one())])
        with pytest.raises(NonOrientable) as exc:
            complete(rs, is_basis_word)
        assert exc.value.difference == NcPoly({"gx": ONE, "yg": -ONE})

    def test_a_constant_difference_outside_the_targets_is_non_orientable(self):
        # xyx orients to x -> 0, and then xy reduces to both 1 and 0: the
        # difference is a nonzero constant, and the empty word is no lhs
        rs = RuleSystem([Rule("xy", NcPoly.scalar(1)), Rule("yx", NcPoly.scalar(2))])
        with pytest.raises(NonOrientable) as exc:
            complete(rs, lambda w: False)
        assert exc.value.difference == NcPoly.one() and exc.value.witness == "xy"
        with pytest.raises(NonOrientable):
            rank(NcPoly.scalar(3), lambda w: False)

    def test_the_zero_difference_is_non_orientable(self):
        # no word is the maximum of none, and the error carries its context
        assert maximum(()) is None
        zero = NcPoly.zero()
        with pytest.raises(NonOrientable) as exc:
            rank(zero, is_basis_word, "xy")
        assert exc.value.difference is zero and exc.value.witness == "xy"
        with pytest.raises(NonOrientable) as exc:
            orient(zero, is_basis_word)
        assert exc.value.difference is zero and exc.value.witness is None


words = st.text(ALPHABET, max_size=6)


def letter_product(w):
    """The matrix of w multiplied out letter by letter as full 3x3 matrices,
    in the layout of LETTER_MATRICES."""
    full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for ch in w:
        m00, m01, m02, m11, m12, m22 = rewrite.LETTER_MATRICES[ch]
        letter = [[m00, m01, m02], [0, m11, m12], [0, 0, m22]]
        full = [[sum(full[i][k] * letter[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
    return full[0][0], full[0][1], full[0][2], full[1][1], full[1][2], full[2][2]


class TestOrder:
    """The termination certificate: a matrix interpretation of the letters."""

    @pytest.mark.parametrize("t, pairs", [("2", 35), ("3", 35), ("7/5", 35), ("-1/2", 35),
                                          ("1", 33), ("0", 34)])
    def test_every_completed_rule_decreases(self, t, pairs):
        rules = build_algebra(curve_point_from_t(Fraction(t))).system.rules
        decreasing = [(r.lhs, w) for r in rules for w in r.rhs.terms]
        assert len(rules) == 17 and len(decreasing) == pairs
        assert all(greater(lhs, w) for lhs, w in decreasing)

    @pytest.mark.parametrize("t", ["2", "3", "1", "0", "7/5", "-1/2"])
    def test_each_seed_lhs_is_the_maximum_of_its_relation(self, t):
        for rule in seed_rules(curve_point_from_t(Fraction(t))):
            assert maximum([rule.lhs, *rule.rhs.terms]) == rule.lhs

    @settings(max_examples=100, deadline=None)
    @given(w=words)
    def test_word_matrix_is_the_product_of_the_letter_matrices(self, w):
        assert word_matrix(w) == letter_product(w)

    def test_a_long_word_on_a_cold_memo_needs_no_recursion(self):
        w = "".join(random.Random(0).choice(ALPHABET) for _ in range(1200))
        word_matrix.cache_clear()
        assert word_matrix(w)[2] == letter_product(w)[2]

    @settings(max_examples=200, deadline=None)
    @given(u=words, v=words, s=words, t=words)
    def test_compatible_with_concatenation(self, u, v, s, t):
        assume(greater(u, v) or greater(v, u))
        if greater(v, u):
            u, v = v, u
        assert greater(s + u + t, s + v + t)
        assert not greater(v, u)

    @settings(max_examples=60, deadline=None)
    @given(t=st.sampled_from(["2", "7/5"]), w=st.text(ALPHABET, max_size=10))
    def test_normal_forms_do_not_go_up(self, systems_by_t, t, w):
        assert all(v == w or greater(w, v) for v in systems_by_t[t].nf_word(w))


@st.composite
def seed_systems(draw):
    """2 to 4 rules, each lhs a non-pattern word of length 2 or 3 in x, y
    and a, so that they overlap often, and each rhs up to two of its
    permutations, its head and its tail that lie below it in the order, with
    small nonzero integer coefficients; at a small fuel."""
    rules = []
    for lhs in draw(st.lists(st.text("xya", min_size=2, max_size=3).filter(
            lambda w: not is_basis_word(w)), min_size=2, max_size=4, unique=True)):
        below = sorted(w for w in {"".join(p) for p in permutations(lhs)} | {lhs[:-1], lhs[1:]}
                       if greater(lhs, w))
        rhs = draw(st.lists(st.sampled_from(below), max_size=2, unique=True)) if below else []
        rules.append(Rule(lhs, NcPoly({w: Scalar(draw(st.sampled_from([-2, -1, 1, 2])))
                                       for w in rhs})))
    return RuleSystem(rules, fuel=200)


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
        rs, log = complete(commutator_system(), is_basis_word)
        assert len(rs.rules) == 2 and not log.added

    def test_stuck_witness_reports_its_fuel(self):
        # xy -> yx and yx -> xy loop on both overlap witnesses, xyx and yxy;
        # the first in key order is raised
        looping = RuleSystem([Rule("xy", NcPoly.word("yx")), Rule("yx", NcPoly.word("xy"))],
                             fuel=40)
        with pytest.raises(FuelExhausted) as exc:
            complete(looping, is_basis_word)
        assert (exc.value.steps, exc.value.budget) == (40, 40)
        assert exc.value.partial == NcPoly.word("xyx")
        assert "budget 40" in str(exc.value)

    def test_rule_cap_raises(self):
        # the thirteen seed rules are not confluent, so a cap of 13 is hit
        # before the first completed rule lands
        seed = RuleSystem(seed_rules(curve_point_from_t(2)))
        with pytest.raises(LimitExceeded) as exc:
            complete(seed, is_basis_word, max_rules=13)
        assert str(exc.value) == "completion exceeded max_rules=13"

    @settings(max_examples=100, deadline=None)
    @given(rs=seed_systems(), max_rules=st.integers(2, 8))
    def test_returns_only_a_passing_diamond(self, rs, max_rules):
        try:
            _, log = complete(rs, is_basis_word, max_rules=max_rules)
        except (FuelExhausted, NonOrientable, LimitExceeded):
            return
        assert log.diamond.ok and log.rounds == len(log.counts)

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


# rationals, integral or not, and coefficients with an r-part
field_scalars = st.one_of(
    r_scalars, st.builds(Scalar, st.builds(Fraction, st.integers(-8, 8), st.integers(1, 7))))


def polys(letters, max_len, coefficients=r_scalars):
    return st.dictionaries(st.text(letters, max_size=max_len), coefficients,
                           min_size=1, max_size=4).map(NcPoly)


@cache
def welldefined_maps(m, n):
    """The structure maps at t = m/n after check_welldefined filled their caches."""
    maps = StructureMaps(build_algebra(curve_point_from_t(Fraction(m, n))))
    check_welldefined(maps)
    return maps


def cached_coeffs(rs):
    return [c for nf in rs._nf_cache.values() for c in nf.values()]


@cache
def _oracle():
    """bench/oracle.py, the benchmark's known answers, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def alg75():
    return build_algebra(curve_point_from_t(Fraction(7, 5)))


class TestFieldOfDefinition:
    @settings(max_examples=40, deadline=None)
    @given(f=polys("xyagb", 4))
    def test_matches_uncached_reduction_at_seven_fifths(self, alg75, f):
        rs = alg75.system
        assert rs.normal_form(f) == normal_form_strategy(rs, f)

    @settings(max_examples=60, deadline=None)
    @given(f=polys("xyab", 6))
    def test_r_coefficient_rules(self, f):
        rs = r_coeff_system()
        assert rs.normal_form(f) == normal_form_strategy(rs, f)
        assert rs.normal_form(f) == normal_form_strategy(rs, f, leftmost=False)

    def test_r_coefficient_word(self):
        rs = r_coeff_system()
        # b a a -> r ab a + 1/2 aa -> r a (r ab + 1/2 a) + 1/2 aa
        assert rs.normal_form(NcPoly.word("baa")) == NcPoly(
            {"aab": R * R, "aa": R * Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2))})
        assert rs.nf_word("yx") == {"xy": Scalar(2, -1)}

    def test_cached_coefficients_are_rational(self, algebras, alg75):
        exprs = ["b*y*x*a^-1*y", "y^3*b^2*x", "a^-2*x*b*y*a"]
        for alg, kinds in ((algebras[2], {int}), (alg75, {int, Scalar})):
            for e in exprs:
                nf = alg.nf(parse_expr(e, alg.point) * parse_expr("1 + r*x", alg.point))
                assert all(type(c) is Scalar for c in nf.terms.values())
            seen = {type(c) for c in cached_coeffs(alg.system)}
            assert seen == kinds

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(-9, 9), n=st.integers(2, 7), f=polys("xyagb", 2, field_scalars),
           g=polys("xyagb", 2, field_scalars))
    def test_matches_uncached_reduction_at_rational_points(self, m, n, f, g):
        # products of words of length <= 4: the uncached reference needs
        # over 100,000 steps on some words of length 6 to 8
        maps = welldefined_maps(m, n)
        rs = maps.alg.system
        assert maps.alg.nf(f * g) == normal_form_strategy(rs, f * g)
        # the field form: ints and Scalars, no third coefficient type
        for terms in (*rs._nf_cache.values(), *map(dict, rs._rhs.values()),
                      *maps._delta_cache.values(), *maps._antipode_cache.values()):
            assert all(type(c) in (int, Scalar) for c in terms.values())

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

    @pytest.mark.parametrize("t", ["2", "7/5"])
    def test_only_a_lone_int_one_pair_shares_the_cached_dict(self, algebras, alg75, t):
        # the int 1 is tested by identity: a Scalar 1, as a public NcPoly
        # holds, gets a new dict of Scalars, whose c0 and c1 the benchmark
        # reads off alg.nf and alg.parse_nf
        alg = algebras[2] if t == "2" else alg75
        rs = alg.system
        for w in ("".join(p) for n in range(5) for p in product(ALPHABET, repeat=n)):
            nf = rs.nf_word(w)
            assert rs.nf_terms([(w, 1)]) is nf
            scaled = rs.nf_terms([(w, ONE)])
            assert scaled == nf and scaled is not nf
            assert all(type(c) is Scalar for c in alg.nf(NcPoly.word(w)).terms.values())
        for expr in _oracle().QUERIES:
            assert all(type(c) is Scalar for c in alg.parse_nf(expr).terms.values())


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
            left = normal_form_strategy(reference, NcPoly.word(w))
            right = normal_form_strategy(reference, NcPoly.word(w), leftmost=False)
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


# -- products of normal forms with words, one letter at a time ------------

# a group's P_v: a word, whose cached normal form is passed as it is, or
# (word, coefficient) pairs, whose normal form nf_terms makes
group_values = st.one_of(
    st.text(ALPHABET, max_size=4),
    st.lists(st.tuples(st.text(ALPHABET, max_size=4), st.integers(-3, 3).filter(bool)),
             max_size=3))
# suffixes over three letters share suffixes often
group_specs = st.dictionaries(st.text("xag", max_size=3) | st.text(ALPHABET, max_size=3),
                              group_values, max_size=4)
SHARED_SUFFIXES = {"gax": "xy", "ax": [("b", 2), ("xa", -1)], "x": "ba", "": "y", "yx": "g"}


def times_groups(rs, spec):
    return {v: rs.nf_word(p) if type(p) is str else rs.nf_terms(p) for v, p in spec.items()}


class TestNfTimes:
    @settings(max_examples=60, deadline=None)
    @given(t=st.sampled_from(["2", "7/5"]), spec=group_specs)
    @example(t="2", spec={}).via("the empty sum")
    @example(t="2", spec={"": "xy"}).via("v empty only")
    @example(t="7/5", spec=SHARED_SUFFIXES).via("shared suffixes")
    def test_equals_nf_terms_of_the_concatenations(self, systems_by_t, t, spec):
        rs = RuleSystem(systems_by_t[t].rules)
        groups = times_groups(rs, spec)
        before = {v: list(p.items()) for v, p in groups.items()}
        got = rs.nf_times(groups)
        want = rs.nf_terms((n + v, c) for v, p in groups.items() for n, c in p.items())
        assert NcPoly(got) == NcPoly(want)
        # a new dict; neither the groups nor any P_v written into
        assert all(got is not p for p in groups.values())
        assert {v: list(p.items()) for v, p in groups.items()} == before

    def test_leaves_cached_dicts_unchanged(self, alg):
        # x and "" are cached normal forms that the groups of gax and ax
        # merge into on their way down
        rs = RuleSystem(alg.system.rules)
        groups = {v: rs.nf_word(w) for v, w in (("gax", "b"), ("ax", "y"), ("x", "bx"), ("", "a"))}
        cache = {w: list(nf.items()) for w, nf in rs._nf_cache.items()}
        got = rs.nf_times(groups)
        assert got == rs.nf_terms([("bgax", 1), ("yax", 1), ("bxx", 1), ("a", 1)])
        assert all(list(rs._nf_cache[w].items()) == terms for w, terms in cache.items())

    @settings(max_examples=40, deadline=None)
    @given(t=st.sampled_from(["2", "7/5"]), spec=group_specs)
    @example(t="2", spec=SHARED_SUFFIXES).via("shared suffixes")
    @example(t="2", spec={"a": "ag"}).via("NF(a) cached by the group's own word")
    @example(t="2", spec={"": "a", "a": ""}).via("NF(a) cached by another group")
    def test_reduces_only_a_normal_word_times_one_letter(self, systems_by_t, t, spec):
        rs = RuleSystem(systems_by_t[t].rules)
        groups = times_groups(rs, spec)
        reduced, nf_word = [], rs.nf_word

        def recording(w):
            reduced.append((w, rs._nf_cache.get(w)))
            return nf_word(w)

        rs.nf_word = recording
        rs.nf_times(groups)
        del rs.nf_word
        assert all(w and rs.nf_word(w[:-1]) == {w[:-1]: 1} for w, _ in reduced)
        # a cached NF(n + letter) is read without a call, unless it is the
        # empty dict, which the lookup cannot tell from a miss
        assert all(cached is None or cached == {} for _, cached in reduced)


# the reduce-stream benchmark's coefficients, and integral ones
STREAM_COEFFS = [Scalar(Fraction(1, 2)), Scalar(Fraction(-3, 4)), Scalar(Fraction(2, 3), 1), R,
                 Scalar(5, Fraction(-2, 7)), Scalar(Fraction(-7, 5)), ONE - R,
                 Scalar(Fraction(-5, 3), Fraction(1, 2)), ONE, Scalar(-1), Scalar(2)]


def stream_products(seed, n):
    """n products f * g as the reduce-stream benchmark draws them: f and g
    each 1 to 3 words of length at most 6, each with a coefficient of
    STREAM_COEFFS."""
    rng = random.Random(seed)

    def element():
        return NcPoly({"".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6))):
                       rng.choice(STREAM_COEFFS) for _ in range(rng.randint(1, 3))})

    return [element() * element() for _ in range(n)]


def typed(terms: dict):
    return [(k, type(c), c) for k, c in terms.items()]


def scaled_sum_rules(name):
    t, _, removed = name.partition(" without ")
    rules = build_algebra(curve_point_from_t(Fraction(t))).system.rules
    kept = [rule for rule in rules if rule.lhs != removed]
    assert len(kept) == len(rules) - bool(removed)
    return kept


def reduce_all(rs, products):
    """Each product's normal form, its terms reduced in the field form by
    nf_terms, and nf_times over groups of them, each a cached dict or a sum;
    each result as typed terms, a FuelExhausted as its word, steps and
    budget."""
    out = []
    for i, p in enumerate(products):
        try:
            groups = {"xa"[:i % 3]: rs.nf_word(min(p.terms)), "gax"[i % 3:]: rs.nf_terms(
                p.field_terms()), "ba": rs.normal_form(p).terms}
            before = {v: typed(nf) for v, nf in groups.items()}
            out.append([typed(nf) for nf in groups.values()] + [typed(rs.nf_times(groups))])
            assert {v: typed(nf) for v, nf in groups.items()} == before
        except FuelExhausted as e:
            out.append((str(e.partial), e.steps, e.budget))
    return out


class TestScaledSums:
    """The sums of scaled normal forms equal the generator-fed sums that
    multiply every term out, the irreducible words' too: every result and
    cached dict, with its value types and its order, and every fuel
    outcome."""

    @pytest.mark.parametrize("name", ["2", "7/5", "-1/2", "7/5 without gx"])
    def test_caches_equal_the_generator_fed_reference(self, name):
        rules, products = scaled_sum_rules(name), stream_products(35, 80)
        fast, slow = RuleSystem(rules), GeneratorFedSystem(rules)
        assert reduce_all(fast, products) == reduce_all(slow, products)
        cached = [(w, typed(nf)) for w, nf in fast._nf_cache.items()]
        assert len(cached) > 1000
        assert cached == [(w, typed(nf)) for w, nf in slow._nf_cache.items()]
        # both types occur off the integral point, and words longer than a
        # letter are irreducible
        kinds = {kind for _, terms in cached for _, kind, _ in terms}
        assert kinds == ({int} if name == "2" else {int, Scalar})
        assert any(w in nf and len(w) > 1 for w, nf in fast._nf_cache.items())

    @pytest.mark.parametrize("name", ["7/5", "7/5 without gx"])
    def test_starved_systems_run_out_at_the_same_word(self, name):
        rules, products = scaled_sum_rules(name), stream_products(36, 15)
        outcomes = set()
        for fuel in range(1, 21):
            fast, slow = RuleSystem(rules, fuel), GeneratorFedSystem(rules, fuel)
            got = reduce_all(fast, products)
            assert got == reduce_all(slow, products)
            assert list(fast._nf_cache) == list(slow._nf_cache)
            outcomes.update(type(r) for r in got)
        assert outcomes == {tuple, list}


# -- completion in the field of definition, its last round the diamond check

def reference_difference(rs, amb):
    """The branch difference as NcPolys of Scalars: NF(left) - NF(right)."""
    w = amb.witness
    return (rs.normal_form(apply_at(rs, w, 0, amb.left))
            - rs.normal_form(apply_at(rs, w, amb.pos_right, amb.right)))


def recorded_rounds(monkeypatch, run):
    """Every completion round that run() makes, as (system, ambiguities,
    settled, carried, report): settled maps the ambiguities that keep an
    earlier round's entry to it, and carried is the system's nf cache as the
    round starts, before it reduces anything."""
    rounds = []
    diamond = rewrite._diamond

    def record(rs, records):
        carried = dict(rs._nf_cache)
        ambiguities = [rec.amb for rec in records]
        settled = {rec.amb: rec.entry for rec in records if rec.entry is not None}
        report = diamond(rs, records)
        rounds.append((rs, ambiguities, settled, carried, report))
        return report

    with monkeypatch.context() as patched:
        patched.setattr(rewrite, "_diamond", record)
        run()
    return rounds


def completion_rounds(monkeypatch, t):
    """The rounds of the completion of the seeds at t in its own coordinates,
    as recorded_rounds gives them."""
    return recorded_rounds(monkeypatch, lambda: complete_at(curve_point_from_t(t)))


def check_diamond_over(rs, ambiguities):
    """The diamond report of rs over the given ambiguities, every entry new."""
    return rewrite._diamond(rs, [rewrite._Record(rs, amb) for amb in ambiguities])


def entry_terms(report):
    """Each entry's name, verdict and residual terms in order."""
    return [(e.name, e.ok, list(e.residual.terms.items())) for e in report.entries]


# the memos that live as long as the process, their keys and values words
WORD_ONLY_MEMOS = (rewrite.word_matrix, rewrite._pair_ambiguities, rewrite._ambiguities,
                   rewrite._added_ambiguities, rewrite._word_rank)


def memo_sizes():
    return {memo.__name__: memo.cache_info().currsize for memo in WORD_ONLY_MEMOS}


POINTS = ["2", "3", "7/5", "-1/2"]
# the points whose rules --json digests tests/test_cli.py pins
PINNED_RULES_POINTS = ["2", "3", "1", "0", "7/5", "-1/2"]


class TestCompletionRounds:
    @pytest.mark.parametrize("t", POINTS)
    def test_branch_difference_equals_the_ncpoly_formula(self, monkeypatch, t):
        # on every round's system, each on a cold cache: the same difference,
        # term for term in the same order, and the nf cache fills the same way
        for rs, ambiguities, *_ in completion_rounds(monkeypatch, Fraction(t)):
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
        assert [len(ambiguities) for _, ambiguities, *_ in rounds] == [26, 31, 39, 47, 51]
        for rs, ambiguities, *_ in rounds:
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


def seeded_points(n, seed=0):
    """n distinct rationals: t = 0, 1 and -1, then seeded ones."""
    rng, points = random.Random(seed), [Fraction(0), Fraction(1), Fraction(-1)]
    while len(points) < n:
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        if t not in points:
            points.append(t)
    return points


class TestIncrementalCompletion:
    """Each round starts from the last round's nf cache less the words the
    new rule changes.  It keeps every resolved entry, since rules are only
    added and the reductions that resolved it stay valid (Bergman), and
    each unresolved entry whose branch words all stayed; part of the final
    diamond report therefore comes from earlier rounds."""

    @pytest.mark.parametrize("t", POINTS)
    def test_every_round_equals_a_cold_diamond(self, monkeypatch, t):
        # entry for entry: names, verdicts, residual terms and their order
        for rs, ambiguities, _, _, report in completion_rounds(monkeypatch, Fraction(t)):
            cold = check_diamond_over(RuleSystem(rs.rules, rs.fuel), ambiguities)
            assert entry_terms(report) == entry_terms(cold)

    @pytest.mark.parametrize("t", POINTS)
    def test_carried_words_keep_their_normal_forms(self, monkeypatch, t):
        rounds = completion_rounds(monkeypatch, Fraction(t))
        assert len(rounds[0][3]) == 1 and all(len(carried) > 1 for *_, carried, _ in rounds[1:])
        for rs, _, _, carried, _ in rounds:
            cold = RuleSystem(rs.rules, rs.fuel)
            for w, nf in carried.items():
                assert list(nf.items()) == list(cold.nf_word(w).items()), w

    @pytest.mark.parametrize("t", POINTS)
    def test_settled_entries_are_the_earlier_objects(self, monkeypatch, t):
        rounds = completion_rounds(monkeypatch, Fraction(t))
        for (_, earlier, _, _, before), (_, ambiguities, settled, _, after) in zip(rounds,
                                                                                 rounds[1:]):
            previous, now = dict(zip(earlier, before.entries)), dict(zip(ambiguities, after.entries))
            assert settled and all(now[amb] is entry is previous[amb]
                                   for amb, entry in settled.items())
            assert all(now[amb] is not previous.get(amb) for amb in ambiguities
                       if amb not in settled)

    @pytest.mark.parametrize("t", POINTS)
    def test_rank_equals_that_of_the_oriented_rule(self, monkeypatch, t):
        diffs = [e.residual for *_, report in completion_rounds(monkeypatch, Fraction(t))
                 for e in report.entries if not e.ok]
        assert len(diffs) > 4
        for diff in diffs:
            rule = orient(diff, is_basis_word)
            impure = any(not is_basis_word(w) for w in rule.rhs.terms)
            assert rank(diff, is_basis_word) == (impure, len(rule.lhs), rule.lhs)

    @pytest.mark.parametrize("t", [
        *(pytest.param(t, id=f"pinned {t}") for t in PINNED_RULES_POINTS),
        *(pytest.param(t, id=f"seeded {t}") for t in seeded_points(20))])
    def test_equals_the_completion_that_reduces_resolved_entries_again(self, t):
        # the rules, the log and the final diamond report, as JSON
        seed = RuleSystem(seed_rules(curve_point_from_t(Fraction(t))))
        (fast, log), (slow, reference) = (completion(seed, is_basis_word) for completion in
                                          (complete, complete_redropping_resolved))
        assert fast.to_json() == slow.to_json()
        assert log.to_json() == reference.to_json()
        assert log.diamond.to_json() == reference.diamond.to_json()

    @pytest.mark.parametrize("t", [*POINTS, "0", "1"])
    def test_a_resolved_entry_is_kept_to_the_final_report(self, monkeypatch, t):
        built = []
        rounds = recorded_rounds(monkeypatch, lambda: built.append(
            complete_at(curve_point_from_t(Fraction(t)))))
        assert rounds[-1][-1] is built[0][1].diamond
        kept = 0
        for i, (_, ambiguities, _, _, report) in enumerate(rounds):
            for amb, entry in zip(ambiguities, report.entries):
                if entry.ok:
                    for _, later, _, _, after in rounds[i + 1:]:
                        assert after.entries[later.index(amb)] is entry
                        kept += 1
        assert kept

    def test_round_counts(self):
        log = complete_at(curve_point_from_t(2))[1]
        ambiguities, reduced, cache_words = map(list, zip(*log.counts))
        assert ambiguities == [26, 31, 39, 47, 51]
        assert reduced == [26, 6, 9, 15, 14]
        # only the empty word before the first round
        assert cache_words[0] == 1 and all(n > 1 for n in cache_words[1:])
        # not in the pinned rules --json output
        assert set(log.to_json()) == {"rounds", "added"}

    def test_branches_keys_and_ranks_are_made_once_per_build(self, monkeypatch):
        # one branch pair per ambiguity, 51 in all, and one rank per entry
        # with a nonzero difference, however many rounds see it: each added
        # rule is made from its record's rank.  The ambiguities of an lhs
        # pair, with their sort keys, are made once per process, so cold
        # memos make 51 keys in the first build and none in a build at
        # another point, whose lhs are the same words; nor does that build
        # add an entry to any word-only memo
        for memo in WORD_ONLY_MEMOS:
            memo.cache_clear()
        made = {"branches": 0, "keys": 0, "ranks": []}
        branches, word_key = rewrite._branches, rewrite.word_key
        rank = rewrite.rank

        def count(name, fn):
            def counted(*args):
                made[name] += 1
                return fn(*args)
            return counted

        def count_rank(diff, *args):
            made["ranks"].append(diff)
            return rank(diff, *args)

        monkeypatch.setattr(rewrite, "_branches", count("branches", branches))
        monkeypatch.setattr(rewrite, "word_key", count("keys", word_key))
        monkeypatch.setattr(rewrite, "rank", count_rank)
        rounds = completion_rounds(monkeypatch, Fraction(2))
        nonzero = {id(e.residual) for *_, report in rounds for e in report.entries if not e.ok}
        assert made["branches"] == made["keys"] == len(rounds[-1][1]) == 51
        assert len(made["ranks"]) == len(nonzero) == 19
        assert {id(d) for d in made["ranks"]} == nonzero
        made.update(branches=0, keys=0)
        sizes = memo_sizes()
        rounds = completion_rounds(monkeypatch, Fraction(7, 5))
        assert made["branches"] == len(rounds[-1][1]) == 51 and made["keys"] == 0
        assert memo_sizes() == sizes

    @pytest.mark.parametrize("t", ["2", "7/5"])
    def test_only_a_nonzero_difference_becomes_an_ncpoly(self, monkeypatch, t):
        # of the 70 entries a build reduces, the 51 that resolve cost one
        # comparison of their branch normal forms and build no NcPoly: the
        # only ones built are the 19 nonzero differences, each the residual
        # of an unresolved entry
        built, algebras = [], []

        class Counting:
            def __call__(self, terms):
                built.append(NcPoly(terms))
                return built[-1]

            def __getattr__(self, name):
                return getattr(NcPoly, name)

        monkeypatch.setattr(rewrite, "NcPoly", Counting())
        rounds = recorded_rounds(monkeypatch, lambda: algebras.append(
            complete_at(curve_point_from_t(Fraction(t)))))
        entries = [e for *_, report in rounds for e in report.entries]
        assert sum(reduced for _, reduced, _ in algebras[0][1].counts) == 70
        assert len(built) == 19
        assert {id(p) for p in built} == {id(e.residual) for e in entries if not e.ok}
        assert all(type(e.residual) is NcPoly and not e.residual.terms
                   for e in entries if e.ok)

    @pytest.mark.parametrize("t", [*POINTS, "0", "1", "generic"])
    def test_carry_equals_the_reference_carry(self, monkeypatch, t):
        # every round's carry keeps the words, in their order, that the
        # reference carry keeps, over the rationals and over Q[q, p]
        carry, seen = rewrite._carry, []

        def checked(rs, cache):
            expected = list(carry_by_step(rs, dict(cache)))
            carried = carry(rs, cache)
            seen.append((list(carried), expected))
            return carried

        monkeypatch.setattr(rewrite, "_carry", checked)
        complete_at(GENERIC if t == "generic" else curve_point_from_t(Fraction(t)))
        assert len(seen) == 4 and all(len(carried) > 1 for carried, _ in seen)
        for carried, expected in seen:
            assert carried == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_final_report_equals_a_fresh_check(self, seed):
        rng = random.Random(seed)
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        alg = build_algebra(curve_point_from_t(t))
        fresh = RuleSystem(alg.system.rules, alg.system.fuel)
        assert alg.completion_log.diamond.to_json() == check_diamond(fresh).to_json()


def direct_rank(diff, is_target):
    """rank's formula on diff, unmemoised: None where rank raises."""
    lhs = maximum(diff.terms)
    if not lhs or is_target(lhs):
        return None
    return (any(not is_target(w) for w in diff.terms if w != lhs), len(lhs), lhs)


def oneshot_points(seed):
    """The 100 curve points of bench/workloads.py's oneshot-query workload at
    seed: 50 integers in [-9, 9] and 50 rationals with denominators 2 to 7."""
    rng = random.Random(seed)
    points = [Fraction(rng.randint(-9, 9)) for _ in range(50)]
    while len(points) < 100:
        t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3, 4, 5, 7)))
        if t.denominator != 1:
            points.append(t)
    return points


class TestWordOnlyMemos:
    """The ranks, ambiguity lists and pair ambiguities that completion reads
    are memoised for the process, keyed by words alone: no coefficient
    enters a key, so every curve point shares them."""

    @pytest.mark.parametrize("t", ["2", "7/5", "0", "1", "-1"])
    def test_rank_equals_the_direct_formula(self, monkeypatch, t):
        diffs = [e.residual for *_, report in completion_rounds(monkeypatch, Fraction(t))
                 for e in report.entries if not e.ok]
        assert len(diffs) > 4
        for diff in diffs:
            assert rank(diff, is_basis_word) == direct_rank(diff, is_basis_word)

    def test_a_memo_hit_raises_with_its_own_difference_and_witness(self):
        # x and a are incomparable in the order, so a difference of the two is
        # non-orientable whatever its coefficients; the second call is a hit
        first, second = (NcPoly({"x": ONE, "a": c}) for c in (ONE, Scalar(-2)))
        with pytest.raises(NonOrientable) as exc:
            rank(first, is_basis_word, "xa")
        assert exc.value.difference is first and exc.value.witness == "xa"
        hits = rewrite._word_rank.cache_info().hits
        with pytest.raises(NonOrientable) as exc:
            rank(second, is_basis_word, "ax")
        assert rewrite._word_rank.cache_info().hits == hits + 1
        assert exc.value.difference is second and exc.value.witness == "ax"

    def test_memo_sizes_after_the_oneshot_query_points(self, monkeypatch):
        # the builds complete once, over Q[q, p]: 18 rank supports, the
        # seed's lhs set and the four rules completion adds to it; each
        # build enumerates the ambiguities of the completed lhs set, a
        # second lhs set
        for memo in WORD_ONLY_MEMOS:
            memo.cache_clear()
        monkeypatch.setattr(nodal, "_template", cache(nodal._template.__wrapped__))
        for t in oneshot_points(1):
            build_algebra(curve_point_from_t(t))
        assert memo_sizes() == {"word_matrix": 68, "_pair_ambiguities": 17 * 17,
                                "_ambiguities": 2, "_added_ambiguities": 4, "_word_rank": 18}
