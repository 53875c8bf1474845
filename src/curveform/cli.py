"""Command-line front-end.

Subcommands: nf, mul, suite NAME, rules, census, each accepting only the
options it reads.  The curve point comes from --t (rational parameter,
default 2) or from an explicit --q/--p pair, which must satisfy
p^2 = q^2 + q^3 exactly; each value has at most MAX_DIGITS digits above
and below the line.  --fuel (default DEFAULT_FUEL) sets the reduction
budget of the algebra when it is built; every command on that algebra
spends it.  Malformed input is a usage error, one line on stderr starting
"error: " and exit 2; a failing check exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import galois, hopf
from .errors import CurveformError
from .nodal import basis_census, build_algebra, growth, freeness_check
from .parser import parse_product
from .printing import format_poly
from .report import Report
from .rewrite import DEFAULT_FUEL
from .scalar import Fraction, curve_point_from_t, curve_point_validate


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # --t -1/2 is a value

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


# rules --json and suite all --json print at every point within this bound
MAX_DIGITS = 1000
# Fraction's grammar, less underscores and 10-digit exponents: n/d or n.f e k
_RATIONAL = re.compile(r"\s*[-+]?(\d*)(?:\s*/\s*(\d*)|(?:\.(\d*))?(?:e([-+]?\d{1,9}))?)\s*",
                       re.I)


def _rational(text):
    """argparse type of --t/--q/--p: an exact rational such as 2, -1/2, 1.5 or
    1e3.  Before it is built, the digits of n and d in n/d, or of nf * 10^(k -
    len f) and 10^(len f - k) for n.f e k, are held to MAX_DIGITS."""
    parts = _RATIONAL.fullmatch(text.replace("_", ""))
    if parts:
        n, d, f, k = parts.groups("")
        shift = int(k or 0) - len(f)
        digits = (len(n.lstrip("0")), len(d.lstrip("0"))) if d else (
            len((n + f).lstrip("0")) + max(shift, 0), 1 - min(shift, 0))
        if max(digits) > MAX_DIGITS:
            raise argparse.ArgumentTypeError(f"numerator or denominator over {MAX_DIGITS} digits")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _int_at_least(low):
    """argparse type of an integer option whose values start at low; argparse
    reports the ValueError of text that is not an integer as an invalid int."""
    def convert(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    convert.__name__ = "int"
    return convert


_count = _int_at_least(0)
_budget = _int_at_least(1)


# the options of the checks, each accepted only by the subcommands that read it
_CHECK_OPTIONS = {
    "--seed": dict(type=int, default=0, help="seed of the Hopf-axiom samples"),
    "--max-len": dict(type=_count, help="word-length bound; defaults: census and suite basis 6, "
                                        "growth 200, freeness 5"),
    "--max-deg": dict(type=_count, help="degree bound for coideal/galois checks"),
    "--samples": dict(type=_count, default=200, help="random elements for the Hopf axiom check")}


def _add_options(p, *names):
    """The point options, --fuel and --json, then the named _CHECK_OPTIONS."""
    p.add_argument("--t", type=_rational, default=None, metavar="RATIONAL",
                   help="curve parameter t, giving (q,p) = (t^2-1, t(t^2-1)); default 2")
    p.add_argument("--q", type=_rational, default=None, metavar="RATIONAL",
                   help="explicit q coordinate")
    p.add_argument("--p", type=_rational, default=None, metavar="RATIONAL",
                   help="explicit p coordinate")
    p.add_argument("--fuel", type=_budget, default=DEFAULT_FUEL,
                   help=f"reduction step budget (default {DEFAULT_FUEL})")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    for name in names:
        p.add_argument(name, **_CHECK_OPTIONS[name])


def build_parser():
    ap = _Parser(
        prog="curveform",
        description="Exact rewriting kernel and verification suite for the "
                    "Hopf algebra of the nodal cubic y^2 = x^2 + x^3.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="normal form of an expression")
    p_nf.add_argument("exprs", nargs=1, metavar="expr")
    _add_options(p_nf)

    p_mul = sub.add_parser("mul", help="normal form of a product of expressions")
    p_mul.add_argument("exprs", nargs="+")
    _add_options(p_mul)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    names = p_suite.add_subparsers(dest="name", required=True)
    for name in SUITES:
        _add_options(names.add_parser(name), *SUITE_OPTIONS.get(name, ()))

    p_rules = sub.add_parser("rules", help="dump the completed rule system")
    _add_options(p_rules)

    p_census = sub.add_parser("census", help="basis census (irreducible vs pattern words)")
    _add_options(p_census, "--max-len")
    return ap


def resolve_point(args):
    """The curve point of the parsed options; main has refused mixed forms."""
    if args.q is not None:
        return curve_point_validate(args.q, args.p)
    return curve_point_from_t(Fraction(2) if args.t is None else args.t)


def _emit(args, obj, text_lines):
    if args.json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def _bound(value, default):
    """A --max-len/--max-deg value, where only an absent option means default."""
    return default if value is None else value


def _diamond_summary(alg):
    """The diamond report as a suite prints it: its fields without the
    entries, plus the verdict under "ok"."""
    rep = alg.diamond_report
    fields = {k: v for k, v in rep.fields.items() if k != "entries"}
    return Report("diamond", {**fields, "ok": rep.ok}, rep.ok)


# suite name -> reports(alg, maps, args); "all" runs them in this order
SUITE_RUNNERS = {
    "diamond": lambda alg, maps, args: [_diamond_summary(alg)],
    "basis": lambda alg, maps, args: [basis_census(alg, _bound(args.max_len, 6))],
    "growth": lambda alg, maps, args: [growth(alg, _bound(args.max_len, 200))],
    "freeness": lambda alg, maps, args: [
        freeness_check(alg, _bound(args.max_len, 5))],
    "hopf": lambda alg, maps, args: [
        hopf.check_welldefined(maps),
        hopf.check_hopf_axioms(maps, samples=args.samples, seed=args.seed)],
    "coideal": lambda alg, maps, args: [hopf.check_coideal(maps, _bound(args.max_deg, 6))],
    "identities": lambda alg, maps, args: [hopf.check_identities(alg)],
    "alt": lambda alg, maps, args: [hopf.check_alt_presentation(alg)],
    "galois": lambda alg, maps, args: [
        galois.recovery_check(maps, _bound(args.max_deg, 6)),
        galois.witness_check(maps)],
    "units": lambda alg, maps, args: [hopf.units_suite(maps)],
}
SUITES = (*SUITE_RUNNERS, "all")
# the _CHECK_OPTIONS each suite reads, where it reads any; all takes every one
SUITE_OPTIONS = {"basis": ["--max-len"], "growth": ["--max-len"], "freeness": ["--max-len"],
                 "hopf": ["--samples", "--seed"], "coideal": ["--max-deg"],
                 "galois": ["--max-deg"], "all": list(_CHECK_OPTIONS)}


def run_suites(name, alg, args):
    """The reports of one suite, or of all."""
    maps = hopf.StructureMaps(alg)
    names = SUITE_RUNNERS if name == "all" else [name]
    return [rep for n in names for rep in SUITE_RUNNERS[n](alg, maps, args)]


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if (args.q is None) != (args.p is None) or (args.t is not None and args.q is not None):
        ap.error("point selection: give either --t, or both --q and --p")
    try:
        point = resolve_point(args)
        alg = build_algebra(point, args.fuel)
        if args.command in ("nf", "mul"):  # nf is mul of one expression
            nf = alg.nf(parse_product(args.exprs, point))
            given = {"input": args.exprs[0]} if args.command == "nf" else {"inputs": args.exprs}
            _emit(args, {**given, "normal_form": nf.to_json(),
                         "point": point.to_json(), "rendered": format_poly(nf)},
                  [format_poly(nf)])
            return 0
        if args.command == "rules":
            obj = {"point": point.to_json(), "rules": alg.system.to_json(),
                   "completion": alg.completion_log.to_json()}
            lines = [f"{r.lhs} -> {format_poly(r.rhs)}   [{r.origin}]"
                     for r in alg.system.rules]
            _emit(args, obj, lines)
            return 0
        if args.command == "census":
            rep = basis_census(alg, _bound(args.max_len, 6))
            _emit(args, rep.to_json(),
                  [f"L={i}: irreducible={a} pattern={b} enumerated={c}"
                   for i, (a, b, c) in enumerate(zip(
                       rep.fields["irreducible_counts"], rep.fields["pattern_scan_counts"],
                       rep.fields["pattern_enum_counts"]))]
                  + [f"verdict: {'pass' if rep.ok else 'fail'}"])
            return 0 if rep.ok else 1
        # suite
        reports = run_suites(args.name, alg, args)
        all_pass = all(rep.ok for rep in reports)
        obj = {"point": point.to_json(), "suite": args.name, "seed": getattr(args, "seed", None),
               "status": "pass" if all_pass else "fail",
               "reports": [rep.to_json() for rep in reports]}
        lines = [f"[{'PASS' if rep.ok else 'FAIL'}] {rep.check}" for rep in reports]
        lines.append(f"suite {args.name}: {'pass' if all_pass else 'FAIL'}")
        _emit(args, obj, lines)
        return 0 if all_pass else 1
    except CurveformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
