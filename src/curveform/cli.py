"""Command-line front-end.

Subcommands: nf, mul, suite, rules, census.  The curve point comes from
--t (rational parameter, default 2) or from an explicit --q/--p pair, which
must satisfy p^2 = q^2 + q^3 exactly.  CURVEFORM_FUEL overrides the default
reduction fuel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import galois, hopf
from .errors import CurveformError
from .nodal import basis_census, build_algebra, growth, freeness_check
from .parser import parse_expr
from .printing import format_poly
from .rewrite import DEFAULT_FUEL
from .scalar import Fraction, Scalar, curve_point_from_t, curve_point_validate

def _add_common(p):
    p.add_argument("--t", default=None, metavar="RATIONAL",
                   help="curve parameter t, giving (q,p) = (t^2-1, t(t^2-1)); default 2")
    p.add_argument("--q", default=None, metavar="RATIONAL", help="explicit q coordinate")
    p.add_argument("--p", default=None, metavar="RATIONAL", help="explicit p coordinate")
    p.add_argument("--fuel", type=int, default=None,
                   help=f"reduction step budget (default {DEFAULT_FUEL}, "
                        "or CURVEFORM_FUEL)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--max-len", type=int, default=None,
                   help="word-length bound for census/freeness/units")
    p.add_argument("--max-deg", type=int, default=None,
                   help="degree bound for coideal/galois checks")
    p.add_argument("--samples", type=int, default=200,
                   help="random elements for the Hopf axiom check")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="curveform",
        description="Exact rewriting kernel and verification suite for the "
                    "Hopf algebra of the nodal cubic y^2 = x^2 + x^3.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="normal form of an expression")
    p_nf.add_argument("expr")
    _add_common(p_nf)

    p_mul = sub.add_parser("mul", help="normal form of a product of expressions")
    p_mul.add_argument("exprs", nargs="+")
    _add_common(p_mul)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("name", choices=SUITES)
    _add_common(p_suite)

    p_rules = sub.add_parser("rules", help="dump the completed rule system")
    _add_common(p_rules)

    p_census = sub.add_parser("census", help="basis census (irreducible vs pattern words)")
    _add_common(p_census)
    return ap


def resolve_point(args):
    if args.q is not None or args.p is not None:
        if args.t is not None or args.q is None or args.p is None:
            raise SystemExit("point selection: give either --t, or both --q and --p")
        return curve_point_validate(Scalar(Fraction(args.q)), Scalar(Fraction(args.p)))
    t = Fraction(args.t) if args.t is not None else Fraction(2)
    return curve_point_from_t(t)


def resolve_fuel(args):
    if args.fuel is not None:
        return args.fuel
    env = os.environ.get("CURVEFORM_FUEL")
    return int(env) if env else DEFAULT_FUEL


def _emit(args, obj, text_lines):
    if args.json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _bound(value, default):
    """A --max-len/--max-deg value, where only an absent option means default."""
    return default if value is None else value


class DiamondSummary:
    """The diamond report as a suite prints it: counts and rule total, no entries."""

    def __init__(self, alg):
        self.report = alg.diamond_report
        self.rules = len(alg.system.rules)

    @property
    def ok(self):
        return self.report.ok

    def to_json(self):
        obj = self.report.to_json()
        del obj["entries"]
        obj.update(check="diamond", rules=self.rules)
        return obj


# suite name -> reports(alg, maps, args, fuel); "all" runs them in this order
SUITE_RUNNERS = {
    "diamond": lambda alg, maps, args, fuel: [DiamondSummary(alg)],
    "basis": lambda alg, maps, args, fuel: [basis_census(alg, _bound(args.max_len, 6))],
    "growth": lambda alg, maps, args, fuel: [growth(alg, _bound(args.max_len, 200))],
    "freeness": lambda alg, maps, args, fuel: [freeness_check(
        alg, _bound(args.max_len, 5), samples=100, seed=args.seed, fuel=fuel)],
    "hopf": lambda alg, maps, args, fuel: [
        hopf.check_welldefined(alg, maps, fuel),
        hopf.check_hopf_axioms(alg, maps, samples=args.samples, seed=args.seed, fuel=fuel)],
    "coideal": lambda alg, maps, args, fuel: [
        hopf.check_coideal(alg, maps, _bound(args.max_deg, 6), fuel)],
    "identities": lambda alg, maps, args, fuel: [hopf.check_identities(alg, fuel)],
    "alt": lambda alg, maps, args, fuel: [hopf.check_alt_presentation(alg, fuel)],
    "galois": lambda alg, maps, args, fuel: [
        galois.recovery_check(alg, maps, _bound(args.max_deg, 6), fuel),
        galois.witness_check(alg, fuel)],
    "units": lambda alg, maps, args, fuel: [
        hopf.units_suite(alg, max_len=_bound(args.max_len, 6), fuel=fuel)],
}
SUITES = (*SUITE_RUNNERS, "all")


def run_suites(name, alg, args, fuel):
    """Report objects (each with .ok and .to_json()) of one suite, or of all."""
    maps = hopf.StructureMaps(alg.point)
    names = SUITE_RUNNERS if name == "all" else [name]
    return [rep for n in names for rep in SUITE_RUNNERS[n](alg, maps, args, fuel)]


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        point = resolve_point(args)
        fuel = resolve_fuel(args)
        if args.command == "nf":
            alg = build_algebra(point, fuel=fuel)
            nf = alg.nf(parse_expr(args.expr, point), fuel)
            _emit(args, {"input": args.expr, "normal_form": nf.to_json(),
                         "point": point.to_json(), "rendered": format_poly(nf)},
                  [format_poly(nf)])
            return 0
        if args.command == "mul":
            alg = build_algebra(point, fuel=fuel)
            prod = parse_expr(args.exprs[0], point)
            for e in args.exprs[1:]:
                prod = prod * parse_expr(e, point)
            nf = alg.nf(prod, fuel)
            _emit(args, {"inputs": args.exprs, "normal_form": nf.to_json(),
                         "point": point.to_json(), "rendered": format_poly(nf)},
                  [format_poly(nf)])
            return 0
        if args.command == "rules":
            alg = build_algebra(point, fuel=fuel)
            obj = {"point": point.to_json(), "rules": alg.system.to_json(),
                   "completion": alg.completion_log.to_json()}
            lines = [f"{r.lhs} -> {format_poly(r.rhs)}   [{r.origin}]"
                     for r in alg.system.rules]
            _emit(args, obj, lines)
            return 0
        if args.command == "census":
            alg = build_algebra(point, fuel=fuel)
            rep = basis_census(alg, _bound(args.max_len, 6))
            _emit(args, rep.to_json(),
                  [f"L={i}: irreducible={a} pattern={b} enumerated={c}"
                   for i, (a, b, c) in enumerate(zip(
                       rep.irreducible_counts, rep.pattern_scan_counts,
                       rep.pattern_enum_counts))]
                  + [f"verdict: {'pass' if rep.ok else 'fail'}"])
            return 0 if rep.ok else 1
        # suite
        alg = build_algebra(point, fuel=fuel)
        reports = run_suites(args.name, alg, args, fuel)
        all_pass = all(rep.ok for rep in reports)
        report_json = [rep.to_json() for rep in reports]
        obj = {"point": point.to_json(), "suite": args.name, "seed": args.seed,
               "status": "pass" if all_pass else "fail", "reports": report_json}
        lines = [f"[{'PASS' if rep.ok else 'FAIL'}] {r['check']}"
                 for rep, r in zip(reports, report_json)]
        lines.append(f"suite {args.name}: {'pass' if all_pass else 'FAIL'}")
        _emit(args, obj, lines)
        return 0 if all_pass else 1
    except CurveformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
