"""Acceptance gate: one criterion per test, one printed verdict line each.

Criterion 10 (alternate presentation) asserts the library's true verdict on
the 14 listed relations. With d = 3y - 6pb, the listed relation bd = -db
does not hold when p != 0. The seed relation by + yb = 2p b^2 is forced:
delta(y) = 1(x)(y - pb) + y(x)b and delta(b) = b(x)b must extend to an
algebra map, and applying delta to by + yb = lambda b^2 leaves
b(x)(lambda - 2p)b^2, so lambda = 2p. Hence
bd + db = 6p a^3 - 12p a^3 = -6p a^3. The criterion checks that the other
13 relations reduce to 0, that bd = -db has residual exactly -6p a^3 (zero
at t = 0, 1; nonzero at t = 2, 3), that the report fails exactly where
p != 0, and that the corrected relation bd = -db - 6p a^3 reduces to 0.
"""

import hashlib
import json
import subprocess
import sys
import time

from curveform import galois, hopf
from curveform.freealg import NcPoly
from curveform.nodal import basis_census, freeness_check, growth


def verdict(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_diamond(algebras):
    t0 = time.time()
    ok = True
    for t, a in algebras.items():
        ok = ok and a.diamond_report.ok
        ok = ok and all(e.ok for e in a.diamond_report.entries)
        ok = ok and len(a.system.rules) == 17
    verdict(1, "diamond lemma resolved at all reference points", ok,
            f"{len(algebras)} points, {time.time() - t0:.1f}s")


def test_criterion_02_welldefined(maps_by_t):
    ok = True
    for maps in maps_by_t.values():
        report = hopf.check_welldefined(maps)
        ok = ok and report.ok and len(report.entries) == 39
    verdict(2, "delta/eps/S kill all 13 relations at all points", ok)


def test_criterion_03_hopf_axioms(maps_by_t):
    t0 = time.time()
    ok = True
    for maps in maps_by_t.values():
        report = hopf.check_hopf_axioms(maps, samples=200, seed=42)
        ok = ok and report.ok
    verdict(3, "Hopf axioms on generators and 200 random elements per point",
            ok, f"{time.time() - t0:.1f}s")


def test_criterion_04_identities(algebras):
    ok = all(hopf.check_identities(a).ok for a in algebras.values())
    verdict(4, "the three displayed identities reduce to 0", ok)


def test_criterion_05_census(alg):
    t0 = time.time()
    report = basis_census(alg, max_len=8)
    cumulative = []
    running = 0
    for c in report.fields["irreducible_counts"]:
        running += c
        cumulative.append(running)
    ok = report.ok and cumulative[1] == 6 and cumulative[2] == 19
    verdict(5, "irreducible words = pattern words for all lengths <= 8", ok,
            f"c(1)={cumulative[1]}, c(2)={cumulative[2]}, "
            f"{time.time() - t0:.1f}s")


def test_criterion_06_growth(alg):
    report = growth(alg, max_len=200)
    exponent = report.fields["exponent"]
    ok = abs(exponent - 3.0) <= 0.2
    verdict(6, "growth exponent within 3.0 +/- 0.2 at L = 200", ok,
            f"exponent {exponent:.3f}")


def test_criterion_07_freeness(alg):
    report = freeness_check(alg, max_len=10)
    verdict(7, "left B-freeness: pattern words = irreducible words for all lengths <= 10",
            report.ok,
            f"{report.fields['checked_products']} products")


def test_criterion_08_coideal(maps_by_t):
    ok = True
    for maps in maps_by_t.values():
        ok = ok and hopf.check_coideal(maps, max_deg=6).ok
    verdict(8, "delta(B) has left legs in B up to degree 6", ok)


def test_criterion_09_galois(maps_by_t):
    ok = True
    for maps in maps_by_t.values():
        rec = galois.recovery_check(maps, max_deg=6)
        wit = galois.witness_check(maps)
        ok = ok and rec.ok and wit.ok and bool(wit.fields["projection"])
    verdict(9, "coaction recovers B; a^2(x-q) in AB+ but not B+A", ok)


def test_criterion_10_alt_presentation(algebras):
    wrong = []
    red = []
    b, a3 = NcPoly.word("b"), NcPoly.word("aaa")
    for t, a in algebras.items():
        report = hopf.check_alt_presentation(a)
        p = a.point.p
        names = {e.name for e in report.entries}
        if (len(report.entries) != 14 or len(names) != 14
                or "bd = -db" not in names):
            wrong.append(f"t={t}: entries {sorted(names)}")
        # every listed relation reduces to 0 except bd = -db, whose
        # residual is -6p a^3 (zero exactly where p = 0)
        for e in report.entries:
            expected = NcPoly.zero()
            if e.name == "bd = -db":
                expected = a3.scale(-6 * p)
            if e.residual != expected or e.ok != (not expected):
                wrong.append(f"t={t}: {e.name} residual {e.residual}")
            if not e.ok:
                red.append(f"t={t}")
        if report.ok != (not p):
            wrong.append(f"t={t}: report.ok is {report.ok}")
        _, d, _ = hopf.alt_generators(a)
        corrected = a.nf(b * d + d * b + a3.scale(6 * p))
        if corrected:
            wrong.append(f"t={t}: bd = -db - 6p a^3 residual {corrected}")
    ok = not wrong
    detail = "; ".join(wrong) or f"bd = -db red at {', '.join(red)}"
    verdict(10, "13 alt relations hold; bd = -db off by exactly -6p a^3; "
            "bd = -db - 6p a^3 holds", ok, detail)


def test_criterion_11_units(alg, maps):
    report = hopf.units_suite(maps)
    expected = {"a": True, "b": True, "a^2*b": True, "a^-1*b": True,
                "1+x": False, "x": False, "c": False, "1+y": False}
    got = {e["element"]: e["invertible"] for e in report.entries}
    witnesses_ok = all(alg.nf(alg.parse_nf(e["element"]) * e["witness"]) == NcPoly.one()
                       for e in report.entries if e["invertible"])
    ok = got == expected and witnesses_ok
    verdict(11, "units, each settled by a proof, match the expected pattern", ok)


# sha256 of `suite all --json --seed 42` at the default t = 2; a change to
# these bytes across commits must be deliberate and update this digest
SUITE_ALL_SHA256 = "8e56ba35013b4d5cfa3ba434f34cdaf53740712daa43631edad9d63d1ed2f5d4"


def test_criterion_12_determinism():
    cmd = [sys.executable, "-m", "curveform.cli", "suite", "all",
           "--json", "--seed", "42"]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    digest = hashlib.sha256(runs[0].stdout).hexdigest()
    ok = (runs[0].stdout == runs[1].stdout and runs[0].stdout
          and json.loads(runs[0].stdout)["seed"] == 42
          and digest == SUITE_ALL_SHA256)
    verdict(12, "two seeded suite-all runs are byte-identical and match the "
                "recorded digest", bool(ok), f"{len(runs[0].stdout)} bytes, sha256 {digest}")
