"""Human-readable rendering of words and polynomials.

Words print with powers collapsed and g rendered as a^-1 (a^-2, ...), so
the output parses back through the expression grammar.
"""

import re

from .freealg import NcPoly, word_key


def format_word(w: str) -> str:
    parts = []
    for run in re.finditer(r"(.)\1*", w):
        letter, n = run[1], len(run[0])
        if letter == "g":
            letter, n = "a", -n
        parts.append(letter if n == 1 else f"{letter}^{n}")
    return "*".join(parts) or "1"


def _coeff_parts(c):
    """(sign, body) of str(c): body without a leading minus, or in parentheses
    when c is a sum (a Scalar c0 + c1*r or a QPoly of several terms)."""
    text = str(c)
    if "+" in text[1:] or "-" in text[1:]:
        return "+", f"({text})"
    if text.startswith("-"):
        return "-", text[1:]
    return "+", text


def format_poly(f: NcPoly) -> str:
    if not f:
        return "0"
    out = ""
    for w, c in sorted(f.terms.items(), key=lambda kv: word_key(kv[0]), reverse=True):
        sign, body = _coeff_parts(c)
        if not w:
            text = body
        elif body == "1":
            text = format_word(w)
        else:
            text = f"{body}*{format_word(w)}"
        out += f" {sign} {text}"
    return out[3:] if out[1] == "+" else "-" + out[3:]  # out starts " + " or " - "
