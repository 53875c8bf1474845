import pytest

from curveform.errors import FuelExhausted
from curveform.freealg import NcPoly, TensorPoly
from curveform.hopf import (StructureMaps, alt_generators, apply_antipode,
                            apply_counit, apply_delta, check_alt_presentation,
                            check_coideal, check_hopf_axioms, check_identities,
                            check_welldefined, relation_polys, tensor_nf,
                            units_bounded_check, units_suite, _solve_sparse)
from curveform.nodal import NodalAlgebra
from curveform.parser import parse_expr
from curveform.report import Entry, Report
from curveform.rewrite import RuleSystem
from curveform.scalar import ONE, Scalar, ZERO


class TestStructureMaps:
    def test_delta_grouplikes(self, alg, maps):
        for ch in "agb":
            d = apply_delta(NcPoly.word(ch), maps)
            assert d == TensorPoly(2, {(ch, ch): ONE})

    def test_delta_x(self, alg, maps):
        q = alg.point.q
        d = apply_delta(NcPoly.word("x"), maps)
        assert d == TensorPoly(2, {("", "x"): ONE, ("", "a"): -q, ("x", "a"): ONE})

    def test_delta_multiplicative(self, alg, maps):
        f = parse_expr("x*y + 2*a*b", alg.point)
        g = parse_expr("y - 3*b", alg.point)
        lhs = apply_delta(alg.nf(f * g), maps)
        rhs = tensor_nf(apply_delta(f, maps) * apply_delta(g, maps), alg)
        assert lhs == rhs

    def test_counit_values(self, alg, maps):
        assert apply_counit(NcPoly.word("x"), maps) == alg.point.q
        assert apply_counit(NcPoly.word("y"), maps) == alg.point.p
        assert apply_counit(NcPoly.word("agb"), maps) == ONE
        assert apply_counit(parse_expr("y^2 - x^2 - x^3", alg.point), maps) == ZERO

    def test_counit_lands_on_curve(self, maps_by_t):
        # eps(x), eps(y) is the chosen curve point; the curve equation is the
        # scalar shadow of y^2 = x^2 + x^3
        for m in maps_by_t.values():
            q, p = m.counit_gen["x"], m.counit_gen["y"]
            assert p * p == q * q + q * q * q

    def test_antipode_grouplikes(self, alg, maps):
        assert apply_antipode(NcPoly.word("a"), maps) == NcPoly.word("g")
        assert apply_antipode(NcPoly.word("g"), maps) == NcPoly.word("a")
        sb = apply_antipode(NcPoly.word("b"), maps)
        assert alg.nf(sb * NcPoly.word("b")) == NcPoly.one()

    def test_antipode_anti_multiplicative(self, alg, maps):
        f = parse_expr("x*a", alg.point)
        sx = apply_antipode(NcPoly.word("x"), maps)
        sa = apply_antipode(NcPoly.word("a"), maps)
        assert apply_antipode(f, maps) == alg.nf(sa * sx)

    def test_long_word_builds_every_prefix_without_recursion(self, alg):
        # 1,200 letters exceed Python's default recursion limit of 1,000
        maps = StructureMaps(alg)
        a, g = "a" * 1200, "g" * 1200
        assert apply_delta(NcPoly.word(a), maps) == TensorPoly(2, {(a, a): ONE})
        assert apply_antipode(NcPoly.word(a), maps) == NcPoly.word(g)
        assert all(a[:i] in maps._delta_cache for i in range(1201))
        assert all(a[i:] in maps._antipode_cache for i in range(1201))

    def test_antipode_squared_is_not_identity_on_y(self, alg, maps):
        # S has infinite order here; S^2(y) = y only at p = 0
        y = NcPoly.word("y")
        s2 = apply_antipode(apply_antipode(y, maps), maps)
        assert s2 != alg.nf(y)


class TestReport:
    def test_explicit_verdict_overrides_entries(self):
        report = Report("demo", {"entries": [Entry("zero", NcPoly.zero())]}, ok=False)
        assert not report.ok and report.to_json()["status"] == "fail"
        assert Report("demo", {"entries": []}).to_json()["status"] == "pass"

    def test_vanishing_residual_prints_null(self):
        report = Report("demo", {"entries": []})
        report.add("zero", NcPoly.zero())
        report.add("scalar zero", ZERO)
        assert report.ok
        assert [e["residual"] for e in report.to_json()["entries"]] == [None, None]

    def test_tensor_residual_prints_coeff_and_words(self):
        residual = TensorPoly(2, {("x", "a"): Scalar(2)})
        obj = Entry("tensor", residual).to_json()
        assert obj["status"] == "fail"
        assert obj["residual"] == [{"coeff": {"c0": "2", "c1": "0"}, "words": ["x", "a"]}]


class TestWelldefined:
    def test_thirteen_relations(self, alg):
        assert len(relation_polys(alg.point)) == 13

    def test_relations_hold_in_the_algebra(self, algebras):
        # the relations the check feeds to delta, eps and S are the ones the
        # rule system was built from: each reduces to 0
        for a in algebras.values():
            for name, rel in relation_polys(a.point):
                assert not a.nf(rel), (name, a.point)

    def test_all_points(self, maps_by_t):
        for maps in maps_by_t.values():
            report = check_welldefined(maps)
            assert report.ok, [e.name for e in report.entries if not e.ok]
            assert len(report.entries) == 39


class TestAxioms:
    def test_generators_and_samples(self, alg, maps):
        report = check_hopf_axioms(maps, samples=25, max_len=5, seed=3)
        assert report.ok, [e.name for e in report.entries if not e.ok]

    def test_other_points_smoke(self, algebras, maps_by_t):
        for t in (1, 0, 3):
            report = check_hopf_axioms(maps_by_t[t], samples=5, max_len=4, seed=1)
            assert report.ok

    def test_coassociativity_catches_a_delta_off_the_relations(self, alg):
        # delta(y) = 1 (x) y + y (x) b is coassociative on every generator
        # but does not respect by + yb = 2p b^2, so random elements expose it
        maps = StructureMaps(alg)
        maps.delta_gen["y"] = TensorPoly(2, {("", "y"): ONE, ("y", "b"): ONE})
        report = check_hopf_axioms(maps, samples=60, seed=42)
        coassoc = [e for e in report.entries if e.name.startswith("coassoc ")]
        assert all(e.ok for e in coassoc if e.name.startswith("coassoc gen "))
        assert any(not e.ok for e in coassoc if e.name.startswith("coassoc random "))


class TestFuelOverrun:
    """A reduction that runs out of fuel inside a check fails its entries and
    the check goes on: the completed rules at t = 2, with a budget of 5 and
    a cold cache in every test (words cached by one overrun cost the next
    call nothing)."""

    @pytest.fixture
    def starved(self, alg):
        return StructureMaps(NodalAlgebra(alg.point, RuleSystem(alg.system.rules, fuel=5),
                                          alg.completion_log, alg.diamond_report))

    @pytest.mark.parametrize("check, entries", [
        (check_welldefined, 39),
        (lambda maps: check_coideal(maps, max_deg=6), 13),
        (lambda maps: check_hopf_axioms(maps, samples=3, seed=0), 5 * (5 + 3)),
    ], ids=["welldefined", "coideal", "hopf_axioms"])
    def test_entries_fail_with_the_error(self, starved, check, entries):
        report = check(starved)
        assert len(report.entries) == entries and not report.ok
        failed = [e for e in report.entries if not e.ok]
        assert all(isinstance(e.residual, FuelExhausted) for e in failed)
        assert all(e.to_json()["residual"] == str(e.residual) for e in failed)
        assert all("budget 5" in str(e.residual) for e in failed)

    def test_only_the_starved_entries_fail(self, starved):
        # the counit reduces nothing, so every eps entry still passes
        report = check_welldefined(starved)
        assert all(e.ok for e in report.entries if e.name.startswith("eps("))
        assert any(not e.ok for e in report.entries if e.name.startswith("delta("))
        axioms = check_hopf_axioms(starved, samples=3, seed=0)
        assert all(e.ok for e in axioms.entries if e.name.endswith(" gen x"))
        assert not all(e.ok for e in axioms.entries if e.name.endswith(" gen y"))


class TestIdentities:
    def test_all_points(self, algebras):
        for a in algebras.values():
            report = check_identities(a)
            assert report.ok
            assert len(report.entries) == 3


class TestCoideal:
    def test_left_legs_stay_in_b(self, alg, maps):
        report = check_coideal(maps, max_deg=5)
        assert report.ok

    def test_delta_of_y_squared(self, alg, maps):
        # every left leg of delta(y^2) is a word in x, y only
        d = apply_delta(alg.parse_nf("y^2"), maps)
        assert all(set(k[0]) <= set("xy") for k in d.terms)


class TestAltPresentation:
    def test_generator_normal_forms(self, alg):
        c, d, e = alt_generators(alg)
        q, p = alg.point.q, alg.point.p
        assert c == NcPoly({"x": Scalar(3), "a": -(ONE + 3 * q), "": ONE})
        assert d == NcPoly({"y": Scalar(3), "b": -6 * p})
        assert alg.nf(e) == e

    def test_relations_at_node(self, algebras):
        # at (q, p) = (0, 0) every listed relation holds
        report = check_alt_presentation(algebras[1])
        assert report.ok
        assert len(report.entries) == 14

    def test_bd_relation_fails_off_node(self, algebras):
        # the listed relation bd = -db fails whenever p != 0:
        # bd + db = -6p b^2 = -6p a^3
        for t, expect_ok in ((2, False), (1, True), (0, True), (3, False)):
            report = check_alt_presentation(algebras[t])
            entry = {e.name: e for e in report.entries}["bd = -db"]
            assert entry.ok == expect_ok
            if not expect_ok:
                p = algebras[t].point.p
                assert entry.residual == NcPoly.word("aaa", -6 * p)

    def test_all_other_relations_hold_everywhere(self, algebras):
        for a in algebras.values():
            report = check_alt_presentation(a)
            for e in report.entries:
                if e.name != "bd = -db":
                    assert e.ok, (e.name, a.point)

    def test_corrected_bd_relation(self, algebras):
        # bd = -db - 6p a^3 holds at every point
        for a in algebras.values():
            c, d, e = alt_generators(a)
            b = NcPoly.word("b")
            p = a.point.p
            residual = a.nf(b * d + d * b + NcPoly.word("aaa", 6 * p))
            assert not residual


class TestSolver:
    def test_solves_small_system(self):
        cols = [{"u": ONE, "v": ONE}, {"v": ONE}]
        sol = _solve_sparse(cols, {"u": Scalar(2), "v": Scalar(5)})
        assert sol == [Scalar(2), Scalar(3)]

    def test_detects_inconsistency(self):
        cols = [{"u": ONE}]
        assert _solve_sparse(cols, {"u": ONE, "v": ONE}) is None

    def test_underdetermined_is_fine(self):
        cols = [{"u": ONE}, {"u": Scalar(2)}]
        sol = _solve_sparse(cols, {"u": Scalar(4)})
        total = sol[0] + Scalar(2) * sol[1]
        assert total == Scalar(4)


class TestUnits:
    def test_group_like_units(self, alg):
        for name, inverse in (("a", "a^-1"), ("b", "a^-3*b"), ("a^2*b", "a^-5*b")):
            f = parse_expr(name, alg.point)
            witness = units_bounded_check(alg, alg.nf(f), max_len=6)
            assert alg.nf(f * witness) == NcPoly.one()
            assert witness == alg.parse_nf(inverse)

    def test_non_units_at_bound(self, alg):
        for text in ("x", "1 + x"):
            assert units_bounded_check(alg, alg.parse_nf(text), max_len=4) is None

    def test_suite_expected_pattern(self, alg):
        # a^2 b needs the length-6 inverse a^-5 b, so bound at 6
        report = units_suite(alg, max_len=6)
        verdicts = {e["element"]: e["invertible"] for e in report.entries}
        assert verdicts == {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
                            "1+x": False, "x": False, "c": False, "1+y": False}

    def test_suite_verdict(self, alg):
        assert units_suite(alg, max_len=6).to_json()["status"] == "pass"
        # with support {1} not even a and b invert, so the pattern is missed
        report = units_suite(alg, max_len=0)
        assert not any(e["invertible"] for e in report.entries)
        assert not report.ok and report.to_json()["status"] == "fail"

    def test_rejects_zero(self, alg):
        with pytest.raises(ValueError):
            units_bounded_check(alg, NcPoly.zero())
