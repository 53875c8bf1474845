import pytest
from hypothesis import given, strategies as st

from curveform.errors import ArityMismatch
from curveform.freealg import ALPHABET, NcPoly, Sparse, TensorPoly, accumulate, word_key
from curveform.scalar import ONE, Scalar

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

    @given(polys, polys)
    def test_legs_commute(self, f, h):
        left = TensorPoly(2, {(u, ""): c for u, c in f.terms.items()})
        right = TensorPoly(2, {("", v): c for v, c in h.terms.items()})
        both = TensorPoly(2, {(u, v): cu * cv for u, cu in f.terms.items()
                              for v, cv in h.terms.items()})
        assert left * right == right * left == both
