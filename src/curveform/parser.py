"""Expression front-end for free-algebra elements.

Grammar:

    expr   := [ "+" | "-" ] term { ("+"|"-") term } ;
    term   := factor { "*" factor } ;
    factor := atom [ "^" signed_int ] ;
    atom   := "x"|"y"|"a"|"b"|"q"|"p"|"r"| rational | "(" expr ")" ;
    rational := integer [ "/" integer ] ;

q, p substitute the coordinates of the supplied curve point, r the root of
r^2 = r - 1.  Only the letter a admits a negative exponent; a^-n parses to
the letter g repeated n times.

A product or power is expanded as it is parsed, up to MAX_TERMS terms of
at most MAX_LETTERS letters each and MAX_SIZE letters in all, and an
exponent is at most MAX_LETTERS.
Tokens are read by one regular expression: an integer, a grammar character
or a stray character, which is an error; whitespace only separates tokens.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, UsageError
from .freealg import NcPoly
from .scalar import CurvePoint, R, Scalar

# the most terms a product or a power may have while it is expanded: the
# product of polynomials of m and n terms has at most m * n, and one whose
# bound exceeds the cap is refused before it is built ("(x+y)^40" would
# hold 2^40 words)
MAX_TERMS = 10_000
# the most letters a word of an expansion may have, and the largest
# exponent: reducing a word caches each of its prefixes, so its cost grows
# with the square of its length ("x^8000" held 49 MB), and a power is
# expanded one factor at a time, however few letters its base holds
# ("1^300000" ran for 1.2 s)
MAX_LETTERS = 100
# the most letters an expansion may hold in all, bounded as its terms times
# its longest word: each cap alone let "(x+y)^13*x^87" through, 8,192 words
# of 100 letters whose reduction held 267 MB; "(x+y)^13" holds 106,496
MAX_SIZE = 120_000

_LETTERS = "xyab"
_SCALARS = "qpr"
_TOKEN = re.compile(rf"(?P<int>\d+)|[-+*/^(){_LETTERS}{_SCALARS}]|(?P<stray>\S)")


def _tokens(text):
    """The (kind, text, position) tokens of text, kind "int" or the grammar
    character itself, and ("end", "", len(text)) last; in reverse order, so
    that pop() takes the next token.  The end token is never taken."""
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN.finditer(text)]
    for kind, char, position in tokens:
        if kind == "stray":
            raise ParseError(f"unexpected character {char!r}", position)
    return [("end", "", len(text)), *reversed(tokens)]


def _take(toks, kind, expected):
    """Take the next token, which must be of the given kind."""
    tok = toks[-1]
    if tok[0] != kind:
        raise ParseError(f"unexpected token {tok[1] or 'end of input'!r}", tok[2], expected)
    return toks.pop()


def _expr(toks, point) -> NcPoly:
    sign = toks.pop()[0] if toks[-1][0] in "+-" else "+"
    result = _term(toks, point)
    if sign == "-":
        result = -result
    while toks[-1][0] in "+-":
        op = toks.pop()[0]
        term = _term(toks, point)
        result = result + term if op == "+" else result - term
    return result


def _int(tok) -> int:
    """The value of an integer token; a ParseError at it where it has more
    digits than int() converts."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None


def _excess(left, right):
    """The bound that left * right could exceed, as text, or None: MAX_TERMS
    terms (the product of m and n terms has at most m * n), MAX_LETTERS
    letters in a word, or MAX_SIZE letters in all (terms times letters)."""
    terms = len(left) * len(right)
    if terms > MAX_TERMS:
        return f"{MAX_TERMS} terms"
    letters = max(map(len, left.terms), default=0) + max(map(len, right.terms), default=0)
    if letters > MAX_LETTERS:
        return f"{MAX_LETTERS} letters"
    if terms * letters > MAX_SIZE:
        return f"{MAX_SIZE} letters in all"
    return None


def _product(left, right, tok) -> NcPoly:
    """left * right; a ParseError at tok when it could exceed a bound."""
    excess = _excess(left, right)
    if excess:
        raise ParseError(f"expansion would exceed {excess}", tok[2])
    return left * right


def _term(toks, point) -> NcPoly:
    result = _factor(toks, point)
    while toks[-1][0] == "*":
        star = toks.pop()
        result = _product(result, _factor(toks, point), star)
    return result


def _factor(toks, point) -> NcPoly:
    first = toks[-1][0]  # "a" iff the atom is the letter a
    base = _atom(toks, point)
    if toks[-1][0] != "^":
        return base
    toks.pop()
    negative = toks[-1][0] == "-"
    if negative:
        toks.pop()
    tok = _take(toks, "int", ("integer",))
    n = _int(tok)
    if n > MAX_LETTERS:
        raise ParseError(f"exponent exceeds {MAX_LETTERS}", tok[2])
    if not negative:
        result = NcPoly.one()
        for _ in range(n):
            result = _product(result, base, tok)
        return result
    if first != "a":
        raise ParseError("negative exponent is only allowed on a", tok[2],
                         ("nonnegative integer",))
    return NcPoly.word("g" * n)


def _atom(toks, point) -> NcPoly:
    kind = toks[-1][0]
    if kind in _LETTERS:
        toks.pop()
        return NcPoly.word(kind)
    if kind in _SCALARS:
        toks.pop()
        return NcPoly.scalar({"q": point.q, "p": point.p, "r": R}[kind])
    if kind == "int":
        num = _int(toks.pop())
        if toks[-1][0] != "/":
            return NcPoly.scalar(Scalar(num))
        toks.pop()
        tok = _take(toks, "int", ("integer",))
        den = _int(tok)
        if den == 0:
            raise ParseError("zero denominator", tok[2])
        return NcPoly.scalar(Scalar(Fraction(num, den)))
    _take(toks, "(", ("x", "y", "a", "b", "q", "p", "r", "integer", "("))
    inner = _expr(toks, point)
    _take(toks, ")", (")",))
    return inner


def parse_expr(text: str, point: CurvePoint) -> NcPoly:
    """Parse an expression into a free (unreduced) NcPoly at the given point."""
    toks = _tokens(text)
    result = _expr(toks, point)
    tok = toks[-1]
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("+", "-", "*", "end of input"))
    return result


def parse_product(texts, point: CurvePoint) -> NcPoly:
    """The product of the parsed texts, left to right, under the bounds of a
    product inside one expression; a UsageError names the first text whose
    product with those before it could exceed them."""
    result = parse_expr(texts[0], point)
    for i, text in enumerate(texts[1:], 2):
        factor = parse_expr(text, point)
        excess = _excess(result, factor)
        if excess:
            raise UsageError(f"the product up to input {i} would exceed {excess}")
        result = result * factor
    return result
