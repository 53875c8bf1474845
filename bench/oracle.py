"""Known answers for the benchmark's workloads, computed without curveform.

Everything here works on plain data (words as strings over "xyagb",
coefficients as pairs of fractions.Fraction meaning c0 + c1*r with
r^2 = r - 1), so a defect in the package under test cannot also hide in
its own check.  Each check returns a list of problems; an empty list means
the answer is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# x^i y^j (ax)^l a^m b^n, with a^m read as (a^-1)^-m = g^-m for m < 0
PATTERN = re.compile(r"x*y?(?:ax)*(?:a*|g*)b?")


def point(t):
    """(q, p) = (t^2 - 1, t(t^2 - 1)) on the nodal cubic p^2 = q^2 + q^3."""
    t = Fraction(t)
    q = t * t - 1
    return q, t * q


# -- K = Q(r) as pairs ----------------------------------------------------

def k_mul(u, v):
    a0, a1 = u
    b0, b1 = v
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)


def k_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def character(terms, q, p, sign):
    """Value of the algebra map x -> q, y -> sign*p, a, a^-1 -> 1, b -> sign
    on a polynomial {word: (c0, c1)}.  It respects every defining relation
    (by = -yb + 2p b^2 forces the two signs to agree), so it takes the same
    value on an element and on its normal form."""
    total = (Fraction(0), Fraction(0))
    for w, c in terms.items():
        v = q ** w.count("x") * (sign * p) ** w.count("y") * sign ** w.count("b")
        total = k_add(total, k_mul(c, (Fraction(v), Fraction(0))))
    return total


def check_reduction(f, g, nf, q, p):
    """Problems with nf as the normal form of f*g: every word must be a
    pattern word with a nonzero coefficient, and both characters must agree
    on the product and on nf."""
    problems = []
    for w, c in nf.items():
        if not PATTERN.fullmatch(w):
            problems.append(f"word {w!r} is not a pattern word")
        if not (c[0] or c[1]):
            problems.append(f"zero coefficient stored for {w!r}")
    for sign in (1, -1):
        want = k_mul(character(f, q, p, sign), character(g, q, p, sign))
        got = character(nf, q, p, sign)
        if want != got:
            problems.append(f"character {sign:+d}: product {want} but normal form {got}")
    return problems


# -- one-shot queries -----------------------------------------------------

def _expected_forms(q, p):
    """Closed forms of each query expression at (q, p), derived by hand from
    the defining relations, as (word, rational coefficient) in the order the
    package prints them (longest word first, then x < y < a < a^-1 < b,
    descending)."""
    one = Fraction(1)
    return {
        "b*b": [("aaa", one)],
        "y^2 - x^2 - x^3": [],
        "a^-1*x": [("axgg", -one), ("xg", -one), ("g", -one), ("", 1 + 3 * q)],
        "a*a^-1": [("", one)],
        "b*y": [("aaa", 2 * p), ("yb", -one)],
        "a^2*x": [("aaa", 1 + 3 * q), ("axa", -one), ("xaa", -one), ("aa", -one)],
        "a*x^2": [("aaa", (2 + 3 * q) * q), ("xax", -one), ("xxa", -one),
                  ("ax", -one), ("xa", -one)],
        "y*x - x*y": [],
        "b*a^-1": [("gb", one)],
        "a^2*(x - q)": [("aaa", 1 + 3 * q), ("axa", -one), ("xaa", -one),
                        ("aa", -(1 + q))],
        "(y - p*b)^2 - y^2 + p^2*b^2": [],
    }


QUERIES = tuple(_expected_forms(Fraction(0), Fraction(0)))


def _render_word(w):
    parts = []
    for run in re.finditer(r"(.)\1*", w):
        ch, n = run.group(1), len(run.group(0))
        if ch == "g":
            parts.append("a^-1" if n == 1 else f"a^-{n}")
        else:
            parts.append(ch if n == 1 else f"{ch}^{n}")
    return "*".join(parts)


def render(terms):
    """Text of an ordered list of (word, rational) terms, zeros dropped."""
    out = ""
    for w, c in terms:
        if not c:
            continue
        body = str(abs(c))
        text = body if not w else (_render_word(w) if body == "1" else f"{body}*{_render_word(w)}")
        if not out:
            out = ("-" if c < 0 else "") + text
        else:
            out += (" - " if c < 0 else " + ") + text
    return out or "0"


def check_query(expr, t, terms, text):
    """Problems with (terms, text) as the normal form of expr at parameter t;
    terms is {word: (c0, c1)} and text the printed form."""
    q, p = point(t)
    expected = [(w, c) for w, c in _expected_forms(q, p)[expr] if c]
    want = {w: (c, Fraction(0)) for w, c in expected}
    problems = []
    if terms != want:
        problems.append(f"{expr} at t={t}: terms {terms} != {want}")
    if text != render(expected):
        problems.append(f"{expr} at t={t}: printed {text!r} != {render(expected)!r}")
    return problems


# -- the full suite at t = 2 ----------------------------------------------

def pattern_counts(max_len):
    """Number of pattern words of each exact length 0..max_len: for each
    j, n in {0, 1} and l >= 0, the exponent m ranges over |m| <= rem, where
    rem = length - j - n - 2l, and i makes up the rest."""
    counts = []
    for length in range(max_len + 1):
        total = 0
        for jn in (0, 1, 1, 2):
            for l in range((length - jn) // 2 + 1):
                total += 2 * (length - jn - 2 * l) + 1
        counts.append(total)
    return counts


def _k_json(c):
    return {"c0": str(Fraction(c)), "c1": "0"}


def _entries_status(report, n, failing=()):
    """Problems unless report has n entries that all pass except exactly the
    named ones."""
    entries = report.get("entries", [])
    problems = []
    if len(entries) != n:
        problems.append(f"{report.get('check')}: {len(entries)} entries, expected {n}")
    bad = sorted(e["name"] for e in entries if e["status"] != "pass")
    if bad != sorted(failing):
        problems.append(f"{report.get('check')}: failing entries {bad}, expected {list(failing)}")
    return problems


UNITS = {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
         "1+x": False, "x": False, "c": False, "1+y": False}


def check_suite(stdout, exit_code, seed, t=2, samples=200):
    """Problems with the stdout of `curveform suite all --json --seed S` at
    parameter t (default samples and bounds)."""
    try:
        return _check_suite(json.loads(stdout), exit_code, seed, t, samples)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unexpected report layout: {exc!r}"]


def _check_suite(obj, exit_code, seed, t, samples):
    q, p = point(t)
    problems = []
    # criterion 10 (bd = -db, residual -6p a^3) fails wherever p != 0
    if exit_code != (1 if p else 0):
        problems.append(f"exit code {exit_code}, expected {1 if p else 0}")
    top = {"suite": obj.get("suite"), "seed": obj.get("seed"), "status": obj.get("status"),
           "point": obj.get("point")}
    want_top = {"suite": "all", "seed": seed, "status": "fail" if p else "pass",
                "point": {"q": _k_json(q), "p": _k_json(p)}}
    if top != want_top:
        problems.append(f"header {top} != {want_top}")
    reports = obj.get("reports", [])
    names = [r.get("check") for r in reports]
    want_names = ["diamond", "census", "growth", "freeness", "welldefined", "hopf_axioms",
                  "coideal", "identities", "alt_presentation", "galois_recovery",
                  "galois_witness", "units"]
    if names != want_names:
        return problems + [f"report order {names} != {want_names}"]
    r = dict(zip(names, reports))
    d = r["diamond"]
    got = (d.get("ok"), d.get("rules"), d.get("ambiguities"), d.get("unresolved"))
    if got != (True, 17, 51, 0):
        problems.append(f"diamond: {d}")
    counts = pattern_counts(6)
    c = r["census"]
    if (c["status"], c["irreducible_counts"], c["pattern_scan_counts"],
            c["pattern_enum_counts"]) != ("pass", counts, counts, counts):
        problems.append(f"census: {c['status']} {c['irreducible_counts']}")
    g = r["growth"]
    cum, running = [], 0
    for n in pattern_counts(200):
        running += n
        cum.append(running)
    if (g["status"], g["counts"], g["cumulative"]) != ("pass", pattern_counts(200), cum) \
            or not math.isclose(g["exponent"], math.log2(cum[200] / cum[100])):
        problems.append(f"growth: {g['status']} exponent {g['exponent']}")
    if r["freeness"]["status"] != "pass" or r["freeness"]["failures"]:
        problems.append("freeness failed")
    problems += _entries_status(r["welldefined"], 39)
    problems += _entries_status(r["hopf_axioms"], 5 * (5 + samples))
    problems += _entries_status(r["coideal"], 13)
    problems += _entries_status(r["identities"], 3)
    alt = r["alt_presentation"]
    problems += _entries_status(alt, 14, failing=("bd = -db",) if p else ())
    residual = [e["residual"] for e in alt["entries"] if e["name"] == "bd = -db"]
    want_residual = [[{"coeff": _k_json(-6 * p), "word": "aaa"}]] if p else [None]
    if residual != want_residual:
        problems.append(f"alt_presentation: bd = -db residual {residual} != {want_residual}")
    rec = r["galois_recovery"]
    n_basis = sum(counts)
    got = (rec["status"], rec["b_words_checked"], rec["non_b_words_checked"])
    if got != ("pass", 13, n_basis - 13):
        problems.append(f"galois_recovery: {rec['status']}")
    wit = r["galois_witness"]
    want_nf = [{"coeff": _k_json(c), "word": w} for w, c in
               (("aaa", 1 + 3 * q), ("axa", -1), ("xaa", -1), ("aa", -(1 + q))) if c]
    got = (wit["status"], wit["in_AB+"], wit["in_B+A"], wit["normal_form"])
    if got != ("pass", True, False, want_nf):
        problems.append(f"galois_witness: {wit['status']} {wit['normal_form']}")
    units = r["units"]
    got_units = {e["element"]: e["invertible"] for e in units["entries"]}
    if units["status"] != "pass" or got_units != UNITS:
        problems.append(f"units: {units['status']} {got_units}")
    return problems
