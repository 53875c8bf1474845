import random

import pytest

from curveform.freealg import NcPoly, word_key
from curveform.nodal import (b_decompose, b_part, basis_census, basis_index,
                             count_basis_words, freeness_check, growth,
                             index_word, is_basis_word, pattern_words,
                             random_poly, split_pattern_word, tail_part)
from curveform.scalar import ONE, Scalar


class TestPattern:
    def test_basis_index_examples(self):
        assert basis_index("") == (0, 0, 0, 0, 0)
        assert basis_index("xxy") == (2, 1, 0, 0, 0)
        assert basis_index("axax") == (0, 0, 2, 0, 0)
        assert basis_index("yaxggb") == (0, 1, 1, -2, 1)
        assert basis_index("xaaab") == (1, 0, 0, 3, 1)

    def test_non_pattern_words(self):
        for w in ["yx", "ba", "ag", "bax", "axgx", "xbya", "yax" + "y"]:
            assert basis_index(w) is None

    def test_index_word_round_trip(self):
        rng = random.Random(3)
        for _ in range(300):
            i = rng.randint(0, 3)
            j = rng.randint(0, 1)
            l = rng.randint(0, 2)
            m = rng.randint(-3, 3)
            n = rng.randint(0, 1)
            w = index_word(i, j, l, m, n)
            assert basis_index(w) == (i, j, l, m, n)
            assert is_basis_word(w)

    def test_split_pattern_word(self):
        assert split_pattern_word("xxyaxab") == ("xxy", "axab")
        assert split_pattern_word("ggg") == ("", "ggg")
        assert split_pattern_word("xy") == ("xy", "")
        with pytest.raises(ValueError):
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
        assert report.irreducible_counts == [1, 5, 13, 25, 41]
        assert report.pattern_scan_counts == report.pattern_enum_counts
        assert not report.mismatches

    def test_census_all_points(self, algebras):
        for a in algebras.values():
            assert basis_census(a, max_len=3).ok

    def test_count_matches_enumeration(self):
        words = pattern_words(8)
        assert words == sorted(set(words), key=word_key)
        assert all(is_basis_word(w) for w in words)
        for n in range(9):
            assert count_basis_words(n) == sum(1 for w in words if len(w) == n)


class TestGrowth:
    def test_cumulative_counts(self, alg):
        report = growth(alg, max_len=4)
        assert report.cumulative == [1, 6, 19, 44, 85]

    def test_exponent_near_three(self, alg):
        report = growth(alg, max_len=200)
        assert abs(report.exponent - 3.0) <= 0.2
        assert report.ok and report.to_json()["status"] == "pass"

    def test_short_growth_fails(self, alg):
        # at L = 2 the doubling exponent is log2(19/6) = 1.66, far from 3
        report = growth(alg, max_len=2)
        assert abs(report.exponent - 1.66) < 0.01
        assert not report.ok and report.to_json()["status"] == "fail"

    def test_counts_quadratic_leading_term(self):
        # c(n) = 2n^2 + 2n + 1 for n >= 1 forces cubic cumulative growth
        for n in range(1, 40):
            assert count_basis_words(n) == 2 * n * n + 2 * n + 1


class TestBDecomposition:
    def test_word_lists(self):
        assert pattern_words(2, b_part) == ["", "x", "y", "xx", "xy"]
        assert "axb" in pattern_words(3, tail_part) and "ggg" in pattern_words(3, tail_part)
        assert all(is_basis_word(t) for t in pattern_words(4, tail_part))

    def test_decompose_recompose(self, alg):
        f = alg.parse_nf("x*a^2*b + y*a^2*b - 3*a^-1")
        dec = b_decompose(f, alg)
        assert dec.recompose() == f
        assert set(dec.coeffs) == {"aab", "g"}

    def test_decompose_is_additive(self, alg):
        rng = random.Random(5)
        pool = [Scalar(1), Scalar(-1), Scalar(2)]
        for _ in range(20):
            f = random_poly(rng, pool, max_len=5)
            g = random_poly(rng, pool, max_len=5)
            lhs = b_decompose(f + g, alg)
            rhs = b_decompose(f, alg) + b_decompose(g, alg)
            assert lhs == rhs

    def test_freeness(self, alg):
        report = freeness_check(alg, max_len=5, samples=60, seed=1)
        assert report.ok
        assert not report.failures
        # right multiplication by B mixes tails; recorded, not asserted
        assert report.right_tail_pure is False
