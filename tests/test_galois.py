from fractions import Fraction

import pytest

from curveform.freealg import NcPoly, TensorPoly
from curveform.galois import (CPoly, _is_trivial, coaction, project_pi, recovery_check,
                              witness_check)
from curveform.hopf import StructureMaps, _counit_word
from curveform.nodal import build_algebra, pattern_words, split_pattern_word
from curveform.parser import parse_expr
from curveform.scalar import ONE, Scalar, ZERO, curve_point_from_t

from reference_checks import trivial_coaction


class TestCPoly:
    def test_collects_and_drops_zero(self):
        f = CPoly({"a": Scalar(2)}) + CPoly({"a": Scalar(-2), "b": ONE})
        assert f == CPoly({"b": ONE})
        assert not CPoly()

    def test_scale(self):
        assert CPoly({"a": ONE}).scale(Scalar(3)) == CPoly({"a": Scalar(3)})

    def test_json_is_sorted(self):
        f = CPoly({"aa": ONE, "b": Scalar(2), "": Scalar(-1)})
        assert [e["tail"] for e in f.to_json()] == ["", "b", "aa"]


class TestProjection:
    def test_counit_on_b_words(self, maps):
        # eps(x^i y^j) = q^i p^j, with (q, p) = (3, 6)
        assert _counit_word("", maps) == ONE
        assert _counit_word("xxy", maps) == Scalar(9) * Scalar(6)

    def test_tail_words_project_to_themselves(self, maps):
        for t in ("a", "g", "b", "axa", "aab"):
            assert project_pi(NcPoly.word(t), maps) == CPoly({t: ONE})

    def test_b_words_project_to_scalars(self, maps):
        # pi(x^i y^j) = q^i p^j * [1]
        assert project_pi(NcPoly.word("xx"), maps) == CPoly({"": Scalar(9)})
        assert project_pi(NcPoly.word("y"), maps) == CPoly({"": Scalar(6)})

    def test_bplus_times_a_vanishes(self, alg, maps):
        # (x - q) * tail lies in B+A for any tail
        q = alg.point.q
        for t in ("", "a", "b", "axg"):
            f = (NcPoly.word("x") - NcPoly.scalar(q)) * NcPoly.word(t)
            assert project_pi(f, maps) == CPoly()

    def test_projection_is_linear(self, alg, maps):
        f = parse_expr("x*a - 2*y*b + a^-1", alg.point)
        expect = (CPoly({"a": alg.point.q}) + CPoly({"b": -2 * alg.point.p})
                  + CPoly({"g": ONE}))
        assert project_pi(f, maps) == expect


class TestCoaction:
    def test_grouplike_tail(self, maps):
        # lambda(a) = [a] (x) a
        val = coaction(NcPoly.word("a"), maps)
        assert val == TensorPoly(2, {("a", "a"): ONE})

    def test_b_element_is_trivial(self, alg, maps):
        f = parse_expr("x^2*y - 3*x + 1", alg.point)
        assert coaction(f, maps) == trivial_coaction(f, alg)

    def test_non_b_element_is_not_trivial(self, alg, maps):
        f = NcPoly.word("xa")
        assert coaction(f, maps) != trivial_coaction(f, alg)

    def test_recovery(self, maps):
        report = recovery_check(maps, max_deg=4)
        assert report.ok
        assert report.fields["b_words_checked"] == 9
        assert report.fields["non_b_words_checked"] > 0

    def test_recovery_other_points(self, maps_by_t):
        for t in (1, 0):
            assert recovery_check(maps_by_t[t], max_deg=3).ok


class TestFieldRecovery:
    @pytest.mark.parametrize("t", [2, Fraction(7, 5)], ids=["t=2", "t=7/5"])
    def test_equals_the_scalar_comparison_on_every_pattern_word(self, t):
        alg = build_algebra(curve_point_from_t(t))
        maps = StructureMaps(alg)
        words = pattern_words(6)
        assert len(words) == 231
        for w in words:
            f = NcPoly.word(w)
            trivial = coaction(f, maps) == trivial_coaction(f, alg)
            assert _is_trivial(w, maps) == trivial == (split_pattern_word(w)[1] == "")

    # the second mutant keeps the terms of lambda(y) = 1-bar (x) y and
    # doubles its coefficient
    @pytest.mark.parametrize("gen, key", [("x", ("a", "x")), ("y", ("", "y"))])
    def test_a_delta_mutant_fails_the_recovery(self, alg, gen, key):
        maps = StructureMaps(alg)
        maps.delta_terms[gen] = maps.delta_terms[gen] + [(key, 1)]
        report = recovery_check(maps)
        assert not report.ok
        assert {"kind": "b_word", "word": gen} in report.fields["failures"]


class TestWitness:
    def test_witness_at_reference_point(self, maps):
        report = witness_check(maps)
        assert report.ok
        assert report.fields["normal_form"] == NcPoly(
            {"aaa": Scalar(10), "axa": -ONE, "xaa": -ONE, "aa": Scalar(-4)})
        # nonzero class in C: the two one-sided ideals differ
        assert report.fields["projection"]

    @pytest.mark.parametrize("t", [2, 3, Fraction(7, 5), Fraction(-1, 2)])
    def test_witness_form_read_off_the_rules(self, t):
        # the check passes only where NF(a^2 (x - q)) is rhs(aax) - q a^2,
        # read off the algebra's rule; that is the relation's own form
        alg = build_algebra(curve_point_from_t(t))
        q = alg.point.q
        report = witness_check(StructureMaps(alg))
        assert report.ok
        assert report.fields["normal_form"] == NcPoly(
            {"xaa": -ONE, "axa": -ONE, "aa": -(ONE + q), "aaa": ONE + 3 * q})

    def test_witness_all_points(self, maps_by_t):
        for m in maps_by_t.values():
            assert witness_check(m).ok

    def test_witness_projection_value(self, algebras, maps_by_t):
        # pi(a^2 x) - q pi(a^2) has coefficient -(1+2q) on the class [a^2]
        for t, a in algebras.items():
            q = a.point.q
            report = witness_check(maps_by_t[t])
            got = report.fields["projection"].terms.get("aa", ZERO)
            assert got == -(ONE + 2 * q)

    def test_witness_fails_when_right_factor_leaves_bplus(self, alg):
        # with eps(x) = 4 at q = 3, x - q is no longer in B+ = B /\ ker eps
        maps = StructureMaps(alg)
        maps.counit_values["x"] = 4
        report = witness_check(maps)
        assert not report.fields["in_AB+"]
        assert not report.ok
