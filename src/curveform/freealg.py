"""Words over the alphabet {x, y, a, g, b}, noncommutative polynomials, and
the keyed sparse core they share.

g stands for a^-1.  A Word is a plain Python string over the five letters;
the empty string is the unit monomial.  Polynomials are sparse maps from
words to nonzero Scalars, printed in graded-lexicographic order (length
first, then letter order x < y < a < g < b) so printing and JSON output are
deterministic.

Every sparse map in the package (polynomials, tensors, quotient classes,
coaction values, reduction caches, elimination rows) is summed by
accumulate(), or by its forms for c times dicts, accumulate_scaled(),
accumulate_joined() and accumulate_outer(), which add c itself for a value
1 (as an irreducible word's normal form {w: 1} in rewrite), so the rule
"add into an entry, drop it at zero" lives here alone.  Dict insertion
order is part of the contract: a new key goes last, a surviving key keeps
its place and a cancelled key is removed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch
from .scalar import ONE, QPoly, Scalar, field

ALPHABET = "xyagb"
_ORD = str.maketrans(ALPHABET, "01234")
_INT_ONE = 1


def word_key(w: str):
    """Sort key: graded (length-first) lexicographic in alphabet order."""
    return (len(w), w.translate(_ORD))


def check_word(w: str) -> str:
    """w itself; a ValueError when w is not a str over ALPHABET."""
    if type(w) is not str or w.strip(ALPHABET):
        raise ValueError(f"word {w!r} uses letters outside {ALPHABET!r}")
    return w


def accumulate(acc: dict, pairs) -> dict:
    """Add each (key, coeff) of pairs into acc, drop keys whose sum is zero,
    and return acc.  Uses only + and truth value of the coefficients."""
    for key, c in pairs:
        old = acc.get(key)
        if old is None:
            if c:
                acc[key] = c
        else:
            c = old + c
            if c:
                acc[key] = c
            else:
                del acc[key]
    return acc


def accumulate_scaled(acc: dict, c, terms: dict) -> dict:
    """accumulate(acc, ((key, c * v) for key, v in terms.items())), terms only
    read, without the pairs, and adding c itself, unmultiplied, for a value
    that is the int 1 (an identity test, so no value is compared)."""
    for key, v in terms.items():
        v = c if v is _INT_ONE else c * v
        old = acc.get(key)
        if old is not None:
            v = old + v
        if v:
            acc[key] = v
        elif old is not None:
            del acc[key]
    return acc


def accumulate_joined(acc: dict, c, terms: dict, head=(), tail=()) -> dict:
    """accumulate_scaled(acc, c, terms), each tuple key k stored as head + k + tail."""
    for key, v in terms.items():
        v = c if v is _INT_ONE else c * v
        key = head + key + tail
        old = acc.get(key)
        if old is not None:
            v = old + v
        if v:
            acc[key] = v
        elif old is not None:
            del acc[key]
    return acc


def accumulate_outer(acc: dict, c, left: dict, right: dict) -> dict:
    """accumulate(acc, (((s, t), c * cs * ct) for s, cs in left.items() for t,
    ct in right.items())), read and skipped as in accumulate_scaled."""
    for s, cs in left.items():
        cs = c if cs is _INT_ONE else c * cs
        for t, v in right.items():
            v = cs if v is _INT_ONE else cs * v
            key = (s, t)
            old = acc.get(key)
            if old is not None:
                v = old + v
            if v:
                acc[key] = v
            elif old is not None:
                del acc[key]
    return acc


def concat_product(left, right) -> dict:
    """The product of two sums of words given as (word, coefficient) pairs,
    accumulated in the order of the concatenations."""
    return accumulate({}, ((u + v, cu * cv) for u, cu in left for v, cv in right))


_COEFFICIENTS = (Scalar, QPoly)


class Sparse:
    """Immutable finite Scalar combination of keys; no zero stored.

    Subclasses add their products, constructors and formatting.  Equality is
    type-specific.  The constructor checks each key by _key (a word, unless
    overridden) and coerces each coefficient to a Scalar, keeping a QPoly as
    it is (a coefficient over Q[q, p]); results of operations are built by
    _new straight from a canonical dict.
    """

    __slots__ = ("terms",)

    _key = staticmethod(check_word)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", accumulate({}, self._pairs(terms or ())))

    def _pairs(self, terms):
        """Constructor input as (checked key, Scalar or QPoly) pairs."""
        pairs = terms.items() if isinstance(terms, dict) else terms
        key = self._key
        return ((key(k), c if isinstance(c, _COEFFICIENTS) else Scalar(c)) for k, c in pairs)

    def _new(self, terms):
        """An element of the same type as self holding the canonical dict terms."""
        new = object.__new__(type(self))
        object.__setattr__(new, "terms", terms)
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._new(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = c if isinstance(c, _COEFFICIENTS) else Scalar(c)
        if not c:
            return self._new({})
        return self._new({k: c * ck for k, ck in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def field_terms(self):
        """The terms as (key, coefficient) pairs in the field form (scalar.field)."""
        return [(k, field(c)) for k, c in self.terms.items()]


class NcPoly(Sparse):
    """Finite Scalar-linear combination of free words."""

    __slots__ = ()

    # bound in the class body so that each class's own __dict__ holds them
    # (bench/tracing.py wraps them per class)
    __add__ = Sparse.__add__
    scale = Sparse.scale

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO_POLY

    @classmethod
    def one(cls):
        return _ONE_POLY

    @classmethod
    def word(cls, w, coeff=ONE):
        return cls({w: coeff})

    @classmethod
    def scalar(cls, c):
        return cls({"": c})

    # -- ring operations -------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if type(other) is not NcPoly:
            return NotImplemented
        return self._new(concat_product(self.terms.items(), other.terms.items()))

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    # -- queries ---------------------------------------------------------

    def sorted_terms(self):
        """Terms in ascending graded-lex word order."""
        return [(w, self.terms[w]) for w in sorted(self.terms, key=word_key)]

    # -- formatting / JSON ----------------------------------------------

    def __str__(self):
        from .printing import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"NcPoly<{self}>"

    def to_json(self):
        return [{"coeff": c.to_json(), "word": w} for w, c in reversed(self.sorted_terms())]


_SCALARS = (Scalar, QPoly, int, Fraction)
_ZERO_POLY = NcPoly()
_ONE_POLY = NcPoly({"": ONE})


class TensorPoly(Sparse):
    """Linear combination of k-tuples of words, k in {1, 2, 3}.

    Represents elements of A, A(x)A, A(x)A(x)A; the product is componentwise
    concatenation (no sign rule).
    """

    __slots__ = ("arity",)

    def __init__(self, arity, terms=None):
        if arity not in (1, 2, 3):
            raise ValueError("TensorPoly arity must be 1, 2 or 3")
        object.__setattr__(self, "arity", arity)
        super().__init__(terms)

    def _key(self, key):
        if type(key) is str:  # one word, never a sequence of one-letter legs
            if self.arity != 1:
                raise ArityMismatch(f"word key {key!r} given for arity {self.arity}")
            key = (key,)
        key = tuple(map(check_word, key))
        if len(key) != self.arity:
            raise ArityMismatch(f"tuple {key} does not have arity {self.arity}")
        return key

    def _new(self, terms):
        new = super()._new(terms)
        object.__setattr__(new, "arity", self.arity)
        return new

    def _check_arity(self, other):
        if isinstance(other, TensorPoly) and self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    @classmethod
    def one(cls, arity):
        return cls(arity, {("",) * arity: ONE})

    def __add__(self, other):
        self._check_arity(other)
        return Sparse.__add__(self, other)

    scale = Sparse.scale

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if type(other) is not TensorPoly:
            return NotImplemented
        self._check_arity(other)
        return self._new(accumulate({}, ((tuple(u + v for u, v in zip(ku, kv)), cu * cv)
                                         for ku, cu in self.terms.items()
                                         for kv, cv in other.terms.items())))

    __rmul__ = __mul__

    def __eq__(self, other):
        return Sparse.__eq__(self, other) and self.arity == other.arity

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def sorted_terms(self):
        return [(k, self.terms[k]) for k in
                sorted(self.terms, key=lambda key: tuple(word_key(w) for w in key))]

    def to_json(self):
        return [{"coeff": c.to_json(), "words": list(k)} for k, c in self.sorted_terms()]

    def __repr__(self):
        parts = [f"{c} * {' (x) '.join(w or '1' for w in k)}" for k, c in self.sorted_terms()]
        return "TensorPoly<" + (" + ".join(parts) if parts else "0") + ">"
