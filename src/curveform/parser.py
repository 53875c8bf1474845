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

A product or power is expanded as it is parsed, up to MAX_TERMS terms.
Tokens are read by one regular expression: an integer, a grammar character
or a stray character, which is an error; whitespace only separates tokens.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .freealg import NcPoly
from .scalar import CurvePoint, R, Scalar

# the most terms a product or a power may have while it is expanded: the
# product of polynomials of m and n terms has at most m * n, and one whose
# bound exceeds the cap is refused before it is built ("(x+y)^40" would
# hold 2^40 words)
MAX_TERMS = 10_000

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


def _product(left, right, tok) -> NcPoly:
    """left * right; a ParseError at tok when its term bound exceeds MAX_TERMS."""
    if len(left) * len(right) > MAX_TERMS:
        raise ParseError(f"expansion would exceed {MAX_TERMS} terms", tok[2])
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
    if not negative:
        result = NcPoly.one()
        for _ in range(int(tok[1])):
            result = _product(result, base, tok)
        return result
    if first != "a":
        raise ParseError("negative exponent is only allowed on a", tok[2],
                         ("nonnegative integer",))
    return NcPoly.word("g" * int(tok[1]))


def _atom(toks, point) -> NcPoly:
    kind = toks[-1][0]
    if kind in _LETTERS:
        toks.pop()
        return NcPoly.word(kind)
    if kind in _SCALARS:
        toks.pop()
        return NcPoly.scalar({"q": point.q, "p": point.p, "r": R}[kind])
    if kind == "int":
        num = int(toks.pop()[1])
        if toks[-1][0] != "/":
            return NcPoly.scalar(Scalar(num))
        toks.pop()
        den = _take(toks, "int", ("integer",))
        if int(den[1]) == 0:
            raise ParseError("zero denominator", den[2])
        return NcPoly.scalar(Scalar(Fraction(num, int(den[1]))))
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
