from curveform.freealg import NcPoly
from curveform.galois import (CPoly, CoactionValue, coaction, eps_b,
                              membership_bplus_a, project_pi, recovery_check,
                              trivial_coaction, witness_check)
from curveform.hopf import StructureMaps
from curveform.parser import parse_expr
from curveform.scalar import ONE, Scalar, ZERO


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
    def test_eps_b(self, alg):
        assert eps_b("", alg) == ONE
        assert eps_b("xxy", alg) == Scalar(9) * Scalar(6)

    def test_tail_words_project_to_themselves(self, alg):
        for t in ("a", "g", "b", "axa", "aab"):
            assert project_pi(NcPoly.word(t), alg) == CPoly({t: ONE})

    def test_b_words_project_to_scalars(self, alg):
        # pi(x^i y^j) = q^i p^j * [1]
        assert project_pi(NcPoly.word("xx"), alg) == CPoly({"": Scalar(9)})
        assert project_pi(NcPoly.word("y"), alg) == CPoly({"": Scalar(6)})

    def test_bplus_times_a_vanishes(self, alg):
        # (x - q) * tail lies in B+A for any tail
        q = alg.point.q
        for t in ("", "a", "b", "axg"):
            f = (NcPoly.word("x") - NcPoly.scalar(q)) * NcPoly.word(t)
            assert membership_bplus_a(f, alg)
            assert project_pi(f, alg) == CPoly()

    def test_projection_is_linear(self, alg):
        f = parse_expr("x*a - 2*y*b + a^-1", alg.point)
        expect = (CPoly({"a": alg.point.q}) + CPoly({"b": -2 * alg.point.p})
                  + CPoly({"g": ONE}))
        assert project_pi(f, alg) == expect


class TestCoaction:
    def test_grouplike_tail(self, alg, maps):
        # lambda(a) = [a] (x) a
        val = coaction(NcPoly.word("a"), alg, maps)
        assert val == CoactionValue({("a", "a"): ONE})

    def test_b_element_is_trivial(self, alg, maps):
        f = parse_expr("x^2*y - 3*x + 1", alg.point)
        assert coaction(f, alg, maps) == trivial_coaction(f, alg)

    def test_non_b_element_is_not_trivial(self, alg, maps):
        f = NcPoly.word("xa")
        assert coaction(f, alg, maps) != trivial_coaction(f, alg)

    def test_recovery(self, alg, maps):
        report = recovery_check(alg, maps, max_deg=4)
        assert report.ok
        assert report.fields["b_words_checked"] == 9
        assert report.fields["non_b_words_checked"] > 0

    def test_recovery_other_points(self, algebras, maps_by_t):
        for t in (1, 0):
            assert recovery_check(algebras[t], maps_by_t[t], max_deg=3).ok


class TestWitness:
    def test_witness_at_reference_point(self, alg, maps):
        report = witness_check(alg, maps)
        assert report.ok
        assert report.fields["normal_form"] == NcPoly(
            {"aaa": Scalar(10), "axa": -ONE, "xaa": -ONE, "aa": Scalar(-4)})
        # nonzero class in C: the two one-sided ideals differ
        assert report.fields["projection"]

    def test_witness_all_points(self, algebras, maps_by_t):
        for t, a in algebras.items():
            assert witness_check(a, maps_by_t[t]).ok

    def test_witness_projection_value(self, algebras, maps_by_t):
        # pi(a^2 x) - q pi(a^2) has coefficient -(1+2q) on the class [a^2]
        for t, a in algebras.items():
            q = a.point.q
            report = witness_check(a, maps_by_t[t])
            got = report.fields["projection"].terms.get("aa", ZERO)
            assert got == -(ONE + 2 * q)

    def test_witness_fails_when_right_factor_leaves_bplus(self, alg):
        # with eps(x) = 4 at q = 3, x - q is no longer in B+ = B /\ ker eps
        maps = StructureMaps(alg.point)
        maps.counit_gen["x"] = Scalar(4)
        report = witness_check(alg, maps)
        assert not report.fields["in_AB+"]
        assert not report.ok
