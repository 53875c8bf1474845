import pytest
from hypothesis import example, given, strategies as st

from curveform.errors import ArityMismatch
from curveform.freealg import (ALPHABET, NcPoly, Sparse, TensorPoly, accumulate,
                               accumulate_joined, accumulate_outer, accumulate_scaled, word_key)
from curveform.scalar import ONE, R, Scalar

words = st.text(alphabet=ALPHABET, max_size=5)
coeffs = st.sampled_from([Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 1), Scalar(-3, 2)])
polys = st.dictionaries(words, coeffs, max_size=4).map(NcPoly)


def test_add_cancellation():
    f = NcPoly.word("x") + NcPoly.word("a")
    assert f + NcPoly.word("a", Scalar(-1)) == NcPoly.word("x")


def test_scale_by_zero():
    assert (NcPoly.word("x") + NcPoly.word("y")).scale(0) == NcPoly.zero()


def test_scale_collects():
    assert NcPoly.word("x").scale(2) + NcPoly.word("x").scale(3) == NcPoly.word("x", Scalar(5))


def test_mul_concatenates():
    assert NcPoly.word("x") * NcPoly.word("y") == NcPoly.word("xy")


def test_mul_distributes():
    f = (NcPoly.word("x") + NcPoly.word("a")) * NcPoly.word("b")
    assert f == NcPoly.word("xb") + NcPoly.word("ab")


def test_noncommutative():
    assert NcPoly.word("y") * NcPoly.word("x") == NcPoly.word("yx")
    assert NcPoly.word("yx") != NcPoly.word("xy")


@given(polys, polys, polys)
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(polys)
def test_mul_unital(f):
    assert NcPoly.one() * f == f == f * NcPoly.one()


def test_word_ordering_graded_lex():
    ws = ["b", "", "xy", "a", "xx", "x"]
    assert sorted(ws, key=word_key) == ["", "x", "a", "b", "xx", "xy"]


def test_accumulate_order_and_cancellation():
    acc = accumulate({}, [("x", ONE), ("y", Scalar(2)), ("x", Scalar(-1)),
                          ("z", Scalar(0)), ("y", ONE), ("x", Scalar(5))])
    # a cancelled key is removed and comes back last; a zero never lands
    assert list(acc.items()) == [("y", Scalar(3)), ("x", Scalar(5))]


# the two coefficient forms of the field form (scalar.field): ints, and
# Scalars, some integral; few keys, so that sums cancel and keys come back
scaled_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([Scalar(1), Scalar(-2), R, ONE - R, Scalar(1, -1), Scalar(-1, 1)]))
scaled_dicts = st.dictionaries(st.sampled_from(["", "x", "xy", "a"]), scaled_coeffs, max_size=4)


def typed_items(acc):
    return [(k, type(c), c) for k, c in acc.items()]


@given(scaled_dicts, st.lists(st.tuples(st.one_of(scaled_coeffs, st.just(0)), scaled_dicts),
                              max_size=5))
# x cancels at the second scaled dict and comes back last at the third
@example({"x": 1, "a": 2}, [(1, {"x": -1}), (2, {"a": 1}), (Scalar(3), {"x": R})])
def test_accumulate_scaled_equals_accumulate_of_the_products(start, scaled):
    # the same dict in the same key order, value types included, as
    # accumulate fed the generator of products; the scaled dicts are only read
    got, want = dict(start), dict(start)
    for c, terms in scaled:
        before = list(terms.items())
        assert accumulate_scaled(got, c, terms) is got
        accumulate(want, ((k, c * v) for k, v in terms.items()))
        assert list(terms.items()) == before
        assert typed_items(got) == typed_items(want)


@given(scaled_dicts, scaled_dicts)
def test_accumulate_scaled_by_zero_stores_nothing(start, terms):
    # no key lands, none is dropped and every value stays equal (a value
    # that meets a key of terms is stored again as old + 0, a Scalar when
    # that zero is)
    for zero in (0, Scalar(0)):
        acc = dict(start)
        assert accumulate_scaled({}, zero, terms) == {}
        accumulate_scaled(acc, zero, terms)
        assert list(acc.items()) == list(start.items())


# tuple keys, the legs of a tensor: pairs and the triples a pair extends to
pairs = st.tuples(st.sampled_from(["", "x"]), st.sampled_from(["", "a"]))
pair_dicts = st.dictionaries(pairs, scaled_coeffs, max_size=4)
triple_dicts = st.dictionaries(st.tuples(st.sampled_from(["", "x"]), st.sampled_from(["", "a"]),
                                         st.sampled_from(["", "a"])), scaled_coeffs, max_size=4)
legs = st.sampled_from(["", "x", "a"]).map(lambda w: (w,))
# (head, tail): a pair extended on the left or on the right, or left as it is
joins = st.one_of(st.tuples(legs, st.just(())), st.tuples(st.just(()), legs),
                  st.just(((), ())))


@given(triple_dicts, st.lists(st.tuples(st.one_of(scaled_coeffs, st.just(0)), pair_dicts, joins),
                              max_size=5))
# ("x", "", "a") cancels at the first scaled dict and comes back last at the third
@example({("x", "", "a"): 1, ("a", "x", ""): 2},
         [(1, {("", "a"): -1}, (("x",), ())), (2, {("x", ""): 1}, ((), ("",))),
          (Scalar(3), {("x", ""): R}, ((), ("a",)))])
def test_accumulate_joined_equals_accumulate_of_the_products(start, scaled):
    got, want = dict(start), dict(start)
    for c, terms, (head, tail) in scaled:
        before = list(terms.items())
        assert accumulate_joined(got, c, terms, head, tail) is got
        accumulate(want, ((head + k + tail, c * v) for k, v in terms.items()))
        assert list(terms.items()) == before
        assert typed_items(got) == typed_items(want)


@given(triple_dicts, pair_dicts, joins)
def test_accumulate_joined_by_zero_stores_nothing(start, terms, join):
    for zero in (0, Scalar(0)):
        acc = dict(start)
        assert accumulate_joined({}, zero, terms, *join) == {}
        accumulate_joined(acc, zero, terms, *join)
        assert list(acc.items()) == list(start.items())


@given(pair_dicts, st.lists(st.tuples(st.one_of(scaled_coeffs, st.just(0)), scaled_dicts,
                                      scaled_dicts), max_size=4))
# ("x", "a") cancels at the first product and comes back last at the third
@example({("x", "a"): 1, ("", "a"): 2},
         [(1, {"x": 1}, {"a": -1}), (2, {"": 1}, {"": 1}), (Scalar(3), {"x": R}, {"a": 1})])
def test_accumulate_outer_equals_accumulate_of_the_products(start, scaled):
    got, want = dict(start), dict(start)
    for c, left, right in scaled:
        before = list(left.items()), list(right.items())
        assert accumulate_outer(got, c, left, right) is got
        accumulate(want, (((s, t), c * cs * ct) for s, cs in left.items()
                          for t, ct in right.items()))
        assert (list(left.items()), list(right.items())) == before
        assert typed_items(got) == typed_items(want)


@given(pair_dicts, scaled_dicts, scaled_dicts)
def test_accumulate_outer_by_zero_stores_nothing(start, left, right):
    for zero in (0, Scalar(0)):
        acc = dict(start)
        assert accumulate_outer({}, zero, left, right) == {}
        accumulate_outer(acc, zero, left, right)
        assert list(acc.items()) == list(start.items())


def test_accumulate_polynomial_coefficients():
    f = NcPoly.word("x")
    acc = accumulate({"t": f}, [("t", -f), ("u", f)])
    assert acc == {"u": f}


def test_shared_base_keeps_types_apart():
    from curveform.galois import CPoly

    assert issubclass(NcPoly, Sparse) and issubclass(TensorPoly, Sparse)
    terms = {"a": ONE}
    assert CPoly(terms) != NcPoly(terms) and NcPoly(terms) == NcPoly(terms)
    with pytest.raises(TypeError):
        NcPoly(terms) + CPoly(terms)
    with pytest.raises(AttributeError):
        NcPoly(terms).terms = {}


@pytest.mark.parametrize("make", [
    lambda: NcPoly({"z": ONE}), lambda: NcPoly({"a b": 1}), lambda: NcPoly.word("xq"),
    lambda: NcPoly([(("x",), ONE)]), lambda: TensorPoly(2, {("x", "z"): ONE}),
    lambda: TensorPoly(1, [("a*", 2)])])
def test_constructors_refuse_letters_outside_the_alphabet(make):
    with pytest.raises(ValueError, match="outside 'xyagb'"):
        make()


def test_cpoly_refuses_letters_outside_the_alphabet():
    from curveform.galois import CPoly

    with pytest.raises(ValueError, match="'z'"):
        CPoly({"z": ONE})


def test_constructor_coerces():
    f = NcPoly({"x": 2, "": 0})
    assert f.terms == {"x": Scalar(2)} and isinstance(f.terms["x"], Scalar)


class TestTensorPoly:
    def test_componentwise_product(self):
        f = TensorPoly(2, {("", "x"): ONE})
        h = TensorPoly(2, {("a", "a"): ONE})
        assert f * h == TensorPoly(2, {("a", "xa"): ONE})

    def test_identity(self):
        f = TensorPoly(2, {("x", "a"): ONE})
        assert f * TensorPoly.one(2) == f

    def test_square_expands_bilinearly(self):
        f = TensorPoly(2, {("", "x"): ONE, ("x", "a"): ONE})
        assert f * f == TensorPoly(2, {("", "xx"): ONE, ("x", "xa"): ONE,
                                       ("x", "ax"): ONE, ("xx", "aa"): ONE})

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            TensorPoly.one(2) * TensorPoly.one(3)
        with pytest.raises(ArityMismatch):
            TensorPoly.one(2) + TensorPoly.one(3)
        with pytest.raises(ArityMismatch):
            TensorPoly(2, {("x",): ONE})
        assert TensorPoly(2) != TensorPoly(3)

    def test_a_str_key_is_one_word(self):
        # never a sequence of one-letter legs, even where their count matches
        assert TensorPoly(1, {"xa": ONE}).terms == {("xa",): ONE}
        for arity, key in ((2, "xa"), (3, "xay"), (2, "")):
            with pytest.raises(ArityMismatch, match=repr(key)):
                TensorPoly(arity, {key: ONE})

    @given(polys, polys)
    def test_legs_commute(self, f, h):
        left = TensorPoly(2, {(u, ""): c for u, c in f.terms.items()})
        right = TensorPoly(2, {("", v): c for v, c in h.terms.items()})
        both = TensorPoly(2, {(u, v): cu * cv for u, cu in f.terms.items()
                              for v, cv in h.terms.items()})
        assert left * right == right * left == both
