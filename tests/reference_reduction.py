"""Uncached reference reductions that the tests compare RuleSystem against.

A single step rewrites the first reducible word of a polynomial, in
graded-lex order, at its leftmost or rightmost match; iterating it gives a
normal form that does not depend on the step order on a confluent,
terminating system.  Nothing is memoised, so the chosen order is genuinely
exercised.
"""

from curveform.errors import FuelExhausted
from curveform.freealg import NcPoly, word_key


def apply_at(rs, w: str, pos: int, lhs: str) -> NcPoly:
    """Substitute the rule lhs -> rhs of rs at the given position of w."""
    rhs = next(rule.rhs for rule in rs.rules if rule.lhs == lhs)
    pre, suf = w[:pos], w[pos + len(lhs):]
    return NcPoly({pre + t + suf: c for t, c in rhs.terms.items()})


def match_directional(rs, w: str, leftmost: bool):
    """rs.match(w) when leftmost, else the rightmost match, the longest lhs
    winning at that position: (position, lhs) or None."""
    if leftmost:
        return rs.match(w)
    at = rs._lhs_re.match
    for i in range(len(w) - 1, -1, -1):
        m = at(w, i)
        if m is not None:
            return (i, m.group())
    return None


def reduce_once(rs, f: NcPoly, leftmost=True):
    """One deterministic step: scan the words of f in graded-lex order and
    rewrite the first reducible one at its leftmost (or rightmost) match.
    Returns the new polynomial, or None if f is irreducible."""
    for w in sorted(f.terms, key=word_key):
        m = match_directional(rs, w, leftmost)
        if m is None:
            continue
        pos, lhs = m
        c = f.terms[w]
        rest = NcPoly({u: cu for u, cu in f.terms.items() if u != w})
        return rest + apply_at(rs, w, pos, lhs).scale(c)
    return None


def normal_form_strategy(rs, f: NcPoly, leftmost=True) -> NcPoly:
    """Iterate reduce_once to an irreducible polynomial, at most rs.fuel
    steps; FuelExhausted carries the polynomial reached."""
    steps = 0
    while True:
        g = reduce_once(rs, f, leftmost)
        if g is None:
            return f
        steps += 1
        if steps > rs.fuel:
            raise FuelExhausted(f, steps - 1, rs.fuel)
        f = g
