import random
from fractions import Fraction
from functools import cache
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from curveform import hopf
from curveform.errors import FuelExhausted
from curveform.freealg import NcPoly, TensorPoly, accumulate
from curveform.hopf import (EXPECTED_UNITS, StructureMaps, alt_generators, apply_antipode,
                            apply_counit, apply_delta, check_alt_presentation,
                            check_coideal, check_hopf_axioms, check_identities,
                            check_welldefined, relation_polys, tensor_nf, units_suite,
                            _hopf_residuals, _solve_sparse)
from curveform.nodal import (NodalAlgebra, build_algebra, is_b_word, pattern_words,
                             random_poly, sample_coefficients, seed_rules)
from curveform.parser import parse_expr
from curveform.report import Entry, Report
from curveform.rewrite import RuleSystem
from curveform.scalar import ONE, R, Scalar, ZERO, curve_point_from_t, field

from reference_checks import solve_gauss_jordan, units_bounded_check, units_by_search


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

    @pytest.mark.parametrize("t", [2, Fraction(7, 5), Fraction(-1, 2)])
    def test_generator_values_over_the_field_are_stored_once(self, t):
        point = curve_point_from_t(t)
        q, p = point.q, point.p
        maps = StructureMaps(build_algebra(point))
        # the values of the module docstring, each held once, in the field form
        assert set(vars(maps)) == {"alg", "delta_terms", "counit_values", "antipode_terms",
                                   "_delta_cache", "_antipode_cache"}
        assert {ch: TensorPoly(2, v) for ch, v in maps.delta_terms.items()} == {
            "x": TensorPoly(2, {("", "x"): ONE, ("", "a"): -q, ("x", "a"): ONE}),
            "y": TensorPoly(2, {("", "y"): ONE, ("", "b"): -p, ("y", "b"): ONE}),
            **{ch: TensorPoly(2, {(ch, ch): ONE}) for ch in "agb"}}
        assert maps.counit_values == {"x": q, "y": p, "a": 1, "g": 1, "b": 1}
        assert {ch: NcPoly(v) for ch, v in maps.antipode_terms.items()} == {
            "x": NcPoly({"": q, "xg": -ONE, "g": q}),
            "y": NcPoly({"": p, "ygggb": -ONE, "gggb": p}),
            "a": NcPoly.word("g"), "g": NcPoly.word("a"), "b": NcPoly.word("gggb")}
        values = chain(maps.counit_values.values(),
                       *([c for _, c in v] for v in maps.delta_terms.values()),
                       *([c for _, c in v] for v in maps.antipode_terms.values()))
        assert all(field(c) is c for c in values)

    @pytest.mark.parametrize("t", [2, Fraction(7, 5)])
    def test_word_maps_are_the_extensions_of_the_generator_values(self, t):
        # on every pattern word of length <= 6, built up from cached prefixes
        # (suffixes for S): delta(w) is the letter-by-letter product of the
        # generator values reduced, and S(w) the reversed product reduced
        alg = build_algebra(curve_point_from_t(t))
        maps = StructureMaps(alg)
        words = pattern_words(6)
        assert len(words) == 231
        for w in words:
            delta, antipode = TensorPoly.one(2), NcPoly.one()
            for ch in w:
                delta = delta * TensorPoly(2, maps.delta_terms[ch])
                antipode = NcPoly(maps.antipode_terms[ch]) * antipode
            assert apply_delta(NcPoly.word(w), maps) == tensor_nf(delta, alg), w
            assert apply_antipode(NcPoly.word(w), maps) == alg.nf(antipode), w

    def test_counit_lands_on_curve(self, maps_by_t):
        # eps(x), eps(y) is the chosen curve point; the curve equation is the
        # scalar shadow of y^2 = x^2 + x^3
        for m in maps_by_t.values():
            q, p = m.counit_values["x"], m.counit_values["y"]
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
        assert len(relation_polys(alg)) == 13

    @pytest.mark.parametrize("t", [2, Fraction(7, 5), Fraction(-1, 2)])
    def test_relations_are_the_seed_relations(self, t):
        # read off the built algebra's given and folded rules, which every
        # point completes in its own coordinates: the seed relations, term
        # for term
        point = curve_point_from_t(t)
        seed = {rule.lhs: NcPoly.word(rule.lhs) - rule.rhs for rule in seed_rules(point)}
        assert [(name, list(rel.terms.items())) for name, rel in
                relation_polys(build_algebra(point))] == [
            (name, list(seed[lhs].terms.items())) for lhs, name in hopf.RELATION_NAMES.items()]

    def test_relations_hold_in_the_algebra(self, algebras):
        # the relations the check feeds to delta, eps and S are the ones the
        # rule system was built from: each reduces to 0
        for a in algebras.values():
            for name, rel in relation_polys(a):
                assert not a.nf(rel), (name, a.point)

    def test_all_points(self, maps_by_t):
        for maps in maps_by_t.values():
            report = check_welldefined(maps)
            assert report.ok, [e.name for e in report.entries if not e.ok]
            assert len(report.entries) == 39


class TestAxioms:
    def test_generators_and_samples(self, alg, maps):
        report = check_hopf_axioms(maps, samples=25, seed=3)
        assert report.ok, [e.name for e in report.entries if not e.ok]

    def test_other_points_smoke(self, algebras, maps_by_t):
        for t in (1, 0, 3):
            report = check_hopf_axioms(maps_by_t[t], samples=5, seed=1)
            assert report.ok

    def test_coassociativity_catches_a_delta_off_the_relations(self, alg):
        # delta(y) = 1 (x) y + y (x) b is coassociative on every generator
        # but does not respect by + yb = 2p b^2, so random elements expose it
        maps = StructureMaps(alg)
        maps.delta_terms["y"] = [(("", "y"), 1), (("y", "b"), 1)]
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
                                          alg.completion_log))

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

    @pytest.mark.parametrize("mutate, failing", [(False, 0), (True, 11)],
                             ids=["true-delta", "delta-x-plus-a-x"])
    def test_a_left_leg_outside_b_fails(self, alg, mutate, failing):
        # delta(x) + a (x) x puts a into a left leg of delta on every B-word
        # that holds x; only the entries of 1 and y still pass
        maps = StructureMaps(alg)
        if mutate:
            maps.delta_terms["x"] = maps.delta_terms["x"] + [(("a", "x"), 1)]
        report = check_coideal(maps, max_deg=6)
        assert len(report.entries) == 13 and report.ok == (not mutate)
        assert sum(1 for e in report.entries if not e.ok) == failing
        if mutate:
            assert [e.name for e in report.entries if e.ok] == [
                "delta(1) left legs in B", "delta(y) left legs in B"]

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


def _coefficients(kind):
    """Nonzero coefficients of one field: ints, Fractions, or a mix of both
    with Scalars that hold an r-part."""
    ints = st.integers(-6, 6).filter(bool)
    fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))
    if kind == "int":
        return ints
    if kind == "fraction":
        return st.one_of(ints, fractions)
    return st.one_of(ints, fractions,
                     st.builds(Scalar, st.one_of(st.just(0), ints, fractions),
                               st.one_of(ints, fractions)))


@st.composite
def sparse_systems(draw):
    """(columns, target, feasible): up to 7 sparse columns over up to 5 row
    keys; a target made from a combination of the columns is feasible, a
    drawn one may not be, and a column that combines two others makes the
    system underdetermined."""
    coeff = _coefficients(draw(st.sampled_from(["int", "fraction", "scalar"])))
    keys = "uvwxy"[:draw(st.integers(1, 5))]
    columns = [{k: draw(coeff) for k in keys if draw(st.booleans())}
               for _ in range(draw(st.integers(1, 6)))]
    if len(columns) > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, len(columns) - 1)), draw(st.integers(0, len(columns) - 1))
        ci, cj = draw(coeff), draw(coeff)
        columns.append(accumulate({}, chain(((k, ci * v) for k, v in columns[i].items()),
                                            ((k, cj * v) for k, v in columns[j].items()))))
    if draw(st.booleans()):
        u = [draw(st.one_of(st.just(0), coeff)) for _ in columns]
        return columns, _combination(columns, u), True
    return columns, {k: draw(coeff) for k in keys if draw(st.booleans())}, None


def _combination(columns, u):
    """sum_j u_j * columns[j] as a dict without zeros."""
    return accumulate({}, ((k, uj * v) for uj, col in zip(u, columns) for k, v in col.items()))


class TestFractionFreeSolver:
    @settings(max_examples=200, deadline=None)
    @given(sparse_systems())
    def test_agrees_with_gauss_jordan(self, system):
        columns, target, feasible = system
        before = [dict(col) for col in columns]
        sol = _solve_sparse(columns, target)
        assert columns == before
        assert (sol is None) == (solve_gauss_jordan(columns, target) is None)
        if feasible:
            assert sol is not None
        if sol is not None:
            assert len(sol) == len(columns)
            assert _combination(columns, sol) == target

    def test_rows_stay_integral_until_back_substitution(self, monkeypatch):
        divisions = []
        real = hopf.reciprocal
        monkeypatch.setattr(hopf, "reciprocal", lambda c: divisions.append(c) or real(c))
        cols = [{"u": Fraction(1, 2), "v": 3}, {"u": 2, "v": Fraction(4, 3)}, {"w": 5}]
        sol = _solve_sparse(cols, {"u": 1, "v": 1, "w": 10})
        assert _combination(cols, sol) == {"u": 1, "v": 1, "w": 10}
        assert len(divisions) == 3 and all(type(c) is int for c in divisions)


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

    def test_suite_expected_pattern(self, maps):
        report = units_suite(maps)
        verdicts = {e["element"]: e["invertible"] for e in report.entries}
        assert verdicts == {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
                            "1+x": False, "x": False, "c": False, "1+y": False}

    def test_suite_verdict(self, maps, monkeypatch):
        assert units_suite(maps).to_json()["status"] == "pass"
        # every candidate is settled, but x is not settled as expected
        monkeypatch.setitem(hopf.EXPECTED_UNITS, "x", True)
        report = units_suite(maps)
        assert all(e["proof"] for e in report.entries)
        assert not report.ok and report.to_json()["status"] == "fail"

    def test_rejects_zero(self, alg):
        with pytest.raises(ValueError):
            units_bounded_check(alg, NcPoly.zero())


# wrong antipodes: the first three are no inverse of a unit, the last is
# the inverse written off the pattern words, since ag - 1 is zero in A
WRONG_ANTIPODES = {
    "zero": lambda f, maps: NcPoly.zero(),
    "f": lambda f, maps: f,
    "doubled": lambda f, maps: apply_antipode(f, maps).scale(2),
    "plus ag - 1": lambda f, maps: apply_antipode(f, maps) + NcPoly.word("ag") - NcPoly.one(),
}

UNITS = [name for name, unit in EXPECTED_UNITS.items() if unit]
POINTS_OF_UNITS = pytest.mark.parametrize(
    "t", [2, 3, Fraction(7, 5), Fraction(-1, 2), 0], ids=["t=2", "t=3", "t=7/5", "t=-1/2", "t=0"])


def unsettled(report):
    """The candidates of a units report that no proof settled."""
    return [e["element"] for e in report.entries if e["proof"] is None]


class TestUnitsByAntipode:
    @POINTS_OF_UNITS
    def test_each_unit_is_inverted_by_its_antipode(self, t):
        alg = build_algebra(curve_point_from_t(t))
        maps = StructureMaps(alg)
        witnesses = {e["element"]: e["witness"] for e in units_suite(maps).entries}
        for name in UNITS:
            f = parse_expr(name, alg.point)
            inverse = apply_antipode(f, maps)
            assert inverse == units_bounded_check(alg, f, max_len=6) == witnesses[name]

    @pytest.mark.parametrize("max_len", range(9))
    def test_equals_the_search_at_every_bound(self, maps, max_len):
        # the search finds each proved witness whose words fit the bound,
        # no inverse of the other units, and none of the non-units
        fits = set(pattern_words(max_len)).issuperset
        expected = [{"element": e["element"], "invertible": found,
                     "witness": e["witness"] if found else None}
                    for e in units_suite(maps).entries
                    for found in [e["witness"] is not None and fits(e["witness"].terms)]]
        assert units_by_search(maps, max_len).entries == expected

    @pytest.mark.parametrize("wrong", WRONG_ANTIPODES)
    def test_a_wrong_antipode_leaves_the_units_unsettled(self, maps, monkeypatch, wrong):
        monkeypatch.setattr(hopf, "apply_antipode", WRONG_ANTIPODES[wrong])
        report = units_suite(maps)
        assert unsettled(report) == UNITS and not report.ok
        assert all(e["invertible"] is None and e["witness"] is None and "error" not in e
                   for e in report.entries if e["element"] in UNITS)

    def test_a_wrong_antipode_of_a_leaves_its_units_unsettled(self):
        # S(a) = a: a and a^2 b are settled by S(a) only; b and a^-1 b = g b
        # do not meet it
        maps = StructureMaps(build_algebra(curve_point_from_t(2)))
        maps.antipode_terms["a"] = [("a", 1)]
        report = units_suite(maps)
        assert unsettled(report) == ["a", "a^2*b"] and not report.ok


class TestUnitsByProof:
    @POINTS_OF_UNITS
    def test_verdicts_and_witnesses_equal_the_search(self, t):
        maps = StructureMaps(build_algebra(curve_point_from_t(t)))
        proved, searched = units_suite(maps), units_by_search(maps, max_len=6)
        assert proved.ok and searched.ok
        assert [(e["element"], e["invertible"], e["witness"]) for e in proved.entries] == [
            (e["element"], e["invertible"], e["witness"]) for e in searched.entries]

    def test_each_candidate_is_settled_by_its_proof(self, maps):
        report = units_suite(maps).to_json()
        assert report["evidence"] == "proof" and "max_len" not in report
        assert {e["element"]: e["proof"] for e in report["entries"]} == {
            "a": "antipode", "b": "antipode", "a^2*b": "antipode", "a^-1*b": "antipode",
            "1+x": "B", "x": "B", "c": "counit", "1+y": "B"}

    @pytest.mark.parametrize("t", [2, 3, Fraction(7, 5), Fraction(-1, 2)],
                             ids=["t=2", "t=3", "t=7/5", "t=-1/2"])
    def test_units_never_call_the_solver(self, t, monkeypatch):
        def refuse(columns, target):
            raise AssertionError("units_suite called the solver")

        monkeypatch.setattr(hopf, "_solve_sparse", refuse)
        assert not hasattr(hopf, "units_bounded_check")
        assert units_suite(StructureMaps(build_algebra(curve_point_from_t(t)))).ok

    def test_the_constants_are_settled_by_their_reciprocal(self, maps, monkeypatch):
        # NF(k) = k != 0 is a unit with inverse 1/k, before the antipode is
        # tried; 0 is no unit, by the counit
        constants = {"1": 1, "-1": -1, "2": Fraction(1, 2), "-3/4": Fraction(-4, 3)}
        for name in constants:
            monkeypatch.setitem(hopf.EXPECTED_UNITS, name, True)
        monkeypatch.setitem(hopf.EXPECTED_UNITS, "0", False)
        report = units_suite(maps)
        entries = {e["element"]: e for e in report.entries}
        assert report.ok
        for name, inverse in constants.items():
            assert (entries[name]["proof"], entries[name]["witness"]) == (
                "constant", NcPoly.scalar(inverse))
        assert (entries["0"]["invertible"], entries["0"]["proof"]) == (False, "counit")

    def test_a_wrong_counit_leaves_c_unsettled(self):
        # eps(a) = 2 gives eps(c) = -3q - 1, which is not 0
        maps = StructureMaps(build_algebra(curve_point_from_t(2)))
        maps.counit_values["a"] = 2
        report = units_suite(maps)
        assert unsettled(report) == ["c"] and not report.ok
        entry = report.entries[list(EXPECTED_UNITS).index("c")]
        assert entry["invertible"] is None and entry["witness"] is None and "error" not in entry


algebra_at = cache(lambda t: build_algebra(curve_point_from_t(t)))


def b_norm(f, alg):
    """N(f) = u^2 - (x^2+x^3) v^2 of an element f = u + v y of B in normal
    form, with u and v polynomials in x."""
    u = NcPoly((w, c) for w, c in f.terms.items() if not w.endswith("y"))
    v = NcPoly((w[:-1], c) for w, c in f.terms.items() if w.endswith("y"))
    return alg.nf(u * u - parse_expr("x^2 + x^3", alg.point) * v * v)


# elements of B: one to three words in x and y with small integer coefficients
b_elements = st.lists(st.tuples(st.text("xy", max_size=4), st.integers(-3, 3).filter(bool)),
                      min_size=1, max_size=3).map(NcPoly)


class TestBNorm:
    @pytest.mark.parametrize("t", [2, Fraction(7, 5)], ids=["t=2", "t=7/5"])
    @settings(max_examples=60, deadline=None)
    @given(f=b_elements, g=b_elements)
    def test_multiplicative(self, t, f, g):
        alg = algebra_at(t)
        f, g = alg.nf(f), alg.nf(g)
        assert all(map(is_b_word, f.terms))
        assert b_norm(alg.nf(f * g), alg) == alg.nf(b_norm(f, alg) * b_norm(g, alg))


# -- the structure maps over the rules' field -------------------------------

class ReferenceMaps:
    """The structure maps as they were computed over K = Q(r): word caches
    of TensorPoly and NcPoly, each extension reduced leg by leg or by
    alg.nf, and the axiom residuals as NcPoly and TensorPoly arithmetic.
    The generator values are built from the field form the StructureMaps
    given hold."""

    def __init__(self, maps):
        self.maps, self.alg = maps, maps.alg
        self.delta = {"": TensorPoly.one(2)}
        self.antipode = {"": NcPoly.one()}

    def tensor_nf(self, tp):
        nf_word = self.alg.system.nf_word
        acc = {}
        for key, c in tp.terms.items():
            legs = [nf_word(w) for w in key]
            stack = [((), c)]
            for leg in legs:
                stack = [(done + (w,), cc * cw) for done, cc in stack for w, cw in leg.items()]
            accumulate(acc, stack)
        return tp._new(acc)

    def delta_word(self, w):
        n = len(w)
        while w[:n] not in self.delta:
            n -= 1
        hit = self.delta[w[:n]]
        for i in range(n, len(w)):
            gen = TensorPoly(2, self.maps.delta_terms[w[i]])
            self.delta[w[:i + 1]] = hit = self.tensor_nf(hit * gen)
        return hit

    def antipode_word(self, w):
        n = 0
        while w[n:] not in self.antipode:
            n += 1
        hit = self.antipode[w[n:]]
        for i in range(n - 1, -1, -1):
            self.antipode[w[i:]] = hit = self.times(
                {t: hit.scale(c) for t, c in self.maps.antipode_terms[w[i]] if c})
        return hit

    def times(self, groups):
        """The normal form of the sum of P * v over groups = {v: P}, each P a
        normal NcPoly, letter at a time: longest v first, in insertion order,
        P times the first letter of v is reduced by alg.nf and added to the
        group of the rest of v."""
        for size in range(max(map(len, groups), default=0), 0, -1):
            for v in [v for v in groups if len(v) == size]:
                prod = self.alg.nf(groups.pop(v) * NcPoly.word(v[0]))
                groups[v[1:]] = groups[v[1:]] + prod if v[1:] in groups else prod
        return groups.get("", NcPoly.zero())

    def counit_word(self, w):
        v = ONE
        for ch in w:
            v = v * self.maps.counit_values[ch]
        return v

    def apply_delta(self, f):
        return TensorPoly(2, ((k, c * cd) for w, c in f.terms.items()
                              for k, cd in self.delta_word(w).terms.items()))

    def apply_counit(self, f):
        return sum((c * self.counit_word(w) for w, c in f.terms.items()), ZERO)

    def apply_antipode(self, f):
        return NcPoly((s, c * cs) for w, c in f.terms.items()
                      for s, cs in self.antipode_word(w).terms.items())

    def hopf_residuals(self, f):
        alg = self.alg
        d = self.apply_delta(f).terms.items()
        nf_f = alg.nf(f)
        eps_f = NcPoly.scalar(self.apply_counit(f))
        coassoc = TensorPoly(3, chain(
            (((u1, u2, v), c * cu) for (u, v), c in d
             for (u1, u2), cu in self.delta_word(u).terms.items()),
            (((u, v1, v2), -c * cv) for (u, v), c in d
             for (v1, v2), cv in self.delta_word(v).terms.items())))
        counit_l = NcPoly((v, c * self.counit_word(u)) for (u, v), c in d)
        counit_r = NcPoly((u, c * self.counit_word(v)) for (u, v), c in d)
        antipode_l, antipode_r = {}, {}
        for (u, v), c in d:
            antipode_l[v] = antipode_l.get(v, NcPoly.zero()) + self.antipode_word(u).scale(c)
            for s, cs in self.antipode_word(v).terms.items():
                antipode_r[s] = antipode_r.get(s, NcPoly.zero()) + NcPoly.word(u, c * cs)
        return [coassoc, counit_l - nf_f, counit_r - nf_f,
                self.times(antipode_l) - eps_f, self.times(antipode_r) - eps_f]


def hopf_elements(alg, samples, seed):
    """The elements check_hopf_axioms draws, in its order."""
    rng = random.Random(seed)
    pool = sample_coefficients(alg.point)
    return [NcPoly.word(ch) for ch in "xyagb"] + [random_poly(rng, pool) for _ in range(samples)]


def perturbed(maps, kind):
    """The maps with one generator value moved off the Hopf structure, so
    that the residuals it enters are nonzero."""
    if kind == "delta":
        maps.delta_terms["y"] = [(("", "y"), 1), (("y", "b"), 1)]
    elif kind == "antipode":
        maps.antipode_terms["x"] = [("", 1), ("xg", -1)]
    elif kind == "counit":
        maps.counit_values["y"] = maps.counit_values["y"] + 1
    return maps


def fresh(t):
    return build_algebra(curve_point_from_t(t))


POINTS = (2, Fraction(7, 5), Fraction(-1, 2))


class TestFieldCoefficients:
    """The word caches hold coefficients in the rules' field of definition;
    everything the module returns holds Scalars."""

    @pytest.mark.parametrize("t, kinds", [(2, {int}), (Fraction(7, 5), {int, Scalar})],
                             ids=["t=2", "t=7/5"])
    def test_caches_hold_field_coefficients(self, t, kinds):
        maps = StructureMaps(fresh(t))
        check_welldefined(maps)
        check_hopf_axioms(maps, samples=10, seed=0)
        for cache in (maps._delta_cache, maps._antipode_cache):
            assert {type(c) for terms in cache.values() for c in terms.values()} == kinds

    @pytest.mark.parametrize("t", POINTS[:2], ids=["t=2", "t=7/5"])
    def test_boundary_returns_scalars(self, t):
        maps = perturbed(StructureMaps(fresh(t)), "delta")
        alg = maps.alg
        f = parse_expr("x*y*a^-1 + 2*b*y - x^2", alg.point)
        values = [apply_delta(f, maps), apply_antipode(f, maps),
                  tensor_nf(TensorPoly(2, {("yx", "ba"): Scalar(3)}), alg)]
        values += _hopf_residuals(f, maps)
        assert values[0] and values[1] and values[2] and values[3]
        assert all(type(c) is Scalar for v in values for c in v.terms.values())
        assert type(apply_counit(f, maps)) is Scalar

    @pytest.mark.parametrize("t", POINTS[:2], ids=["t=2", "t=7/5"])
    def test_tensor_nf_equals_the_reference(self, t):
        maps = StructureMaps(fresh(t))
        alg = maps.alg
        f = parse_expr("x*y*a^-1 + 2*b*y - x^2", alg.point)
        g = parse_expr("b*x + r*a*y", alg.point)
        for tp in (apply_delta(f, maps) * apply_delta(g, maps),
                   TensorPoly(3, {("yx", "ba", "bb"): R, ("bx", "ag", ""): Scalar(3)})):
            got, want = tensor_nf(tp, alg), ReferenceMaps(maps).tensor_nf(tp)
            # term for term, in the same order
            assert got and list(got.terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("kind", [None, "delta", "antipode", "counit"])
    @pytest.mark.parametrize("t", POINTS, ids=["t=2", "t=7/5", "t=-1/2"])
    def test_residuals_equal_the_scalar_reference(self, t, kind):
        alg = fresh(t)
        maps = perturbed(StructureMaps(alg), kind)
        reference = ReferenceMaps(maps)
        rng = random.Random(7)
        pool = [Scalar(1), Scalar(-2), R, ONE - R, alg.point.q, alg.point.p]
        elements = hopf_elements(alg, 12, seed=5) + [
            random_poly(rng, pool, max_len=5) for _ in range(8)]
        nonzero = 0
        for f in elements:
            got, want = _hopf_residuals(f, maps), reference.hopf_residuals(f)
            assert [type(r) for r in got] == [type(r) for r in want]
            # term for term, in the same order
            assert [list(r.terms.items()) for r in got] == [list(r.terms.items()) for r in want]
            nonzero += sum(1 for r in got if r)
        assert (nonzero > 0) == (kind is not None)

    @pytest.mark.parametrize("t", POINTS[:2], ids=["t=2", "t=7/5"])
    def test_nf_cache_fills_in_the_reference_order(self, t):
        # reduction order is part of the contract: a fuel outcome can depend
        # on which words are already cached
        alg = fresh(t)
        maps = StructureMaps(alg)
        check_welldefined(maps)
        check_hopf_axioms(maps, samples=30, seed=42)
        ref_alg = fresh(t)
        reference = ReferenceMaps(StructureMaps(ref_alg))
        for _, rel in relation_polys(ref_alg):
            reference.apply_delta(rel)
            reference.apply_counit(rel)
            reference.apply_antipode(rel)
        for f in hopf_elements(ref_alg, 30, seed=42):
            reference.hopf_residuals(f)
        assert list(alg.system._nf_cache) == list(ref_alg.system._nf_cache)
        assert list(maps._delta_cache) == list(reference.delta)
        assert list(maps._antipode_cache) == list(reference.antipode)

    def test_units_witness_is_scalar(self, alg, maps):
        witness = {e["element"]: e["witness"] for e in units_suite(maps).entries}["a^2*b"]
        assert witness == alg.parse_nf("a^-5*b")
        assert all(type(c) is Scalar for c in witness.terms.values())


class TestUnitsFuel:
    def test_overrun_fails_the_candidate(self, alg):
        # b S(b) = b a^-3 b takes 25 steps, and at 24 only b's proof runs out
        starved = NodalAlgebra(alg.point, RuleSystem(alg.system.rules, fuel=24),
                               alg.completion_log)
        report = units_suite(StructureMaps(starved))
        assert not report.ok and len(report.entries) == 8
        failed = [e for e in report.entries if "error" in e]
        assert [e["element"] for e in failed] == ["b"]
        assert isinstance(failed[0]["error"], FuelExhausted)
        assert failed[0]["invertible"] is None and failed[0]["witness"] is None
        assert "budget 24" in report.to_json()["entries"][1]["error"]


# The structure-map mutants, each with the entry kinds it turns red: the
# delta, eps and S entries of welldefined and the axioms of hopf_axioms.  A
# mutant is (map, letter, change): for delta and S, the change is the index
# of a generator coefficient, which moves up by 1, or a term added with
# coefficient 1; for the counit, the value of the letter moves up by 1.  A
# mutant that no report catches stays in the list with an empty set: the
# record of a check that cannot fail.
_DELTA_RED = {"delta", "counit-left", "counit-right", "antipode-left", "antipode-right"}
_COASSOC_RED = _DELTA_RED | {"coassoc"}
_ANTIPODE_RED = {"S", "antipode-left", "antipode-right"}
_COUNIT_RED = {"eps", "counit-left", "counit-right", "antipode-left", "antipode-right"}
STRUCTURE_MAP_MUTANTS = {
    # delta(x) = 1 (x) x + (c - q) 1 (x) a + x (x) a is coassociative for any c
    ("delta", "x", 0): _COASSOC_RED, ("delta", "x", 1): _DELTA_RED,
    ("delta", "x", 2): _COASSOC_RED, ("delta", "x", ("x", "x")): _COASSOC_RED,
    ("delta", "y", 0): _COASSOC_RED, ("delta", "y", 1): _DELTA_RED,
    ("delta", "y", 2): _COASSOC_RED,
    ("delta", "a", 0): _COASSOC_RED, ("delta", "g", 0): _DELTA_RED,
    ("delta", "b", 0): _COASSOC_RED,
    ("antipode", "x", 0): _ANTIPODE_RED, ("antipode", "x", 1): _ANTIPODE_RED,
    ("antipode", "x", 2): _ANTIPODE_RED, ("antipode", "x", "xx"): _ANTIPODE_RED,
    ("antipode", "y", 0): _ANTIPODE_RED, ("antipode", "y", 1): _ANTIPODE_RED,
    ("antipode", "y", 2): _ANTIPODE_RED,
    ("antipode", "a", 0): _ANTIPODE_RED, ("antipode", "g", 0): _ANTIPODE_RED,
    ("antipode", "b", 0): _ANTIPODE_RED,
    **{("counit", letter, None): _COUNIT_RED for letter in "xyagb"},
}
# the report each entry kind belongs to
_REPORT_OF_KIND = {**dict.fromkeys(("delta", "eps", "S"), "welldefined"),
                   **dict.fromkeys(hopf.HOPF_AXIOMS, "hopf_axioms")}


def mutated(maps, kind, letter, change):
    """maps with the mutant (kind, letter, change) of STRUCTURE_MAP_MUTANTS."""
    if kind == "counit":
        maps.counit_values[letter] = field(maps.counit_values[letter] + 1)
        return maps
    table = maps.delta_terms if kind == "delta" else maps.antipode_terms
    terms = list(table[letter])
    if type(change) is int:
        key, c = terms[change]
        terms[change] = (key, field(c + 1))
    else:
        terms.append((change, 1))
    table[letter] = terms
    return maps


class TestMutationGate:
    @pytest.mark.parametrize("t", POINTS[:2], ids=["t=2", "t=7/5"])
    def test_each_structure_map_mutant_turns_its_reports_red(self, t):
        # without samples; each mutant on fresh maps over one algebra
        alg = fresh(t)
        maps = StructureMaps(alg)
        coefficients = {(kind, letter, i) for kind, table in
                        (("delta", maps.delta_terms), ("antipode", maps.antipode_terms))
                        for letter, terms in table.items() for i in range(len(terms))}
        assert coefficients | {("counit", letter, None) for letter in maps.counit_values} \
            <= STRUCTURE_MAP_MUTANTS.keys()
        assert check_welldefined(maps).ok and check_hopf_axioms(maps, samples=0).ok
        for mutant, red_kinds in STRUCTURE_MAP_MUTANTS.items():
            maps = mutated(StructureMaps(alg), *mutant)
            reports = [check_welldefined(maps), check_hopf_axioms(maps, samples=0)]
            red = {e.name.split("(")[0].split(" ")[0] for r in reports for e in r.entries
                   if not e.ok}
            assert red == red_kinds, mutant
            assert {r.check for r in reports if not r.ok} == {
                _REPORT_OF_KIND[kind] for kind in red_kinds}, mutant
