"""A sub-check that cannot finish becomes a failure holding its error, and
the check goes on: every library check returns a report on a starved rule
system, and only report.py catches the two errors that stop a sub-check."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import curveform
from curveform.errors import FuelExhausted
from curveform.galois import recovery_check, witness_check
from curveform.hopf import (StructureMaps, check_alt_presentation, check_coideal,
                            check_hopf_axioms, check_identities, check_welldefined, units_suite)
from curveform.nodal import NodalAlgebra, basis_census, build_algebra, freeness_check, growth
from curveform.report import Entry, Report
from curveform.rewrite import RuleSystem, check_diamond
from curveform.scalar import curve_point_from_t

# check -> (report of an algebra and its maps, where its docstring keeps an error)
ENTRY = {("entries", "residual")}
CHECKS = {
    "diamond": (lambda alg, maps: check_diamond(alg.system), ENTRY),
    "census": (lambda alg, maps: basis_census(alg, 6), set()),
    "growth": (lambda alg, maps: growth(alg, 200), set()),
    "freeness": (lambda alg, maps: freeness_check(alg, 5), {("failures", "error")}),
    "welldefined": (lambda alg, maps: check_welldefined(maps), ENTRY),
    "hopf_axioms": (lambda alg, maps: check_hopf_axioms(maps, samples=5), ENTRY),
    "coideal": (lambda alg, maps: check_coideal(maps), ENTRY),
    "identities": (lambda alg, maps: check_identities(alg), ENTRY),
    "alt": (lambda alg, maps: check_alt_presentation(alg), ENTRY),
    "galois_recovery": (lambda alg, maps: recovery_check(maps), {("failures", "error")}),
    "galois_witness": (lambda alg, maps: witness_check(maps),
                       {("normal_form",), ("projection",)}),
    "units": (lambda alg, maps: units_suite(maps), {("entries", "error")}),
}
POINTS = {"2": 2, "7/5": Fraction(7, 5), "-1/2": Fraction(-1, 2)}
FUELS = (1, 2, 3, 5, 10, 20)


@pytest.fixture(scope="module")
def completed():
    return {t: build_algebra(curve_point_from_t(value)) for t, value in POINTS.items()}


def recorded_errors(value, path=()):
    """(path, error) of every exception value holds, path indexing the JSON
    form of value; an Entry's residual is its "residual"."""
    if isinstance(value, Exception):
        yield path, value
    elif isinstance(value, Entry):
        yield from recorded_errors(value.residual, (*path, "residual"))
    elif isinstance(value, (list, dict)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from recorded_errors(item, (*path, key))


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("fuel", FUELS)
@pytest.mark.parametrize("t", POINTS)
def test_a_starved_check_returns_a_report(completed, t, fuel, check):
    # a fresh system for each check: words one check caches cost the next nothing
    alg = completed[t]
    starved = NodalAlgebra(alg.point, RuleSystem(alg.system.rules, fuel), alg.completion_log)
    run, places = CHECKS[check]
    report = run(starved, StructureMaps(starved))
    assert type(report) is Report
    out = report.to_json()
    json.dumps(out, allow_nan=False)
    errors = list(recorded_errors(report.fields))
    for path, error in errors:
        assert tuple(k for k in path if not isinstance(k, int)) in places, path
        assert type(error) is FuelExhausted and f"budget {fuel}" in str(error)
        shown = out
        for key in path:
            shown = shown[key]
        assert shown == str(error)
    assert not (errors and report.ok)
    if fuel == 1:  # every check that reduces meets the budget
        assert bool(errors) == bool(places)


UNFINISHED = {"FuelExhausted", "NotPatternWord"}


def caught_unfinished(source: str) -> list:
    """The except clauses of source that name FuelExhausted or
    NotPatternWord, bare or as an attribute, as "name:line"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for part in ast.walk(node.type):
                name = getattr(part, "id", None) or getattr(part, "attr", None)
                if name in UNFINISHED:
                    found.append(f"{name}:{node.lineno}")
    return found


def test_the_checker_finds_a_caught_unfinished_error():
    source = ("try:\n"
              "    pass\n"
              "except FuelExhausted:\n"
              "    pass\n"
              "try:\n"
              "    pass\n"
              "except (ValueError, errors.NotPatternWord) as exc:\n"
              "    ok = isinstance(exc, FuelExhausted)\n"
              "except ValueError:\n"
              "    raise FuelExhausted(1, 2, 3)\n")
    assert caught_unfinished(source) == ["FuelExhausted:3", "NotPatternWord:7"]


def test_only_report_catches_an_unfinished_error():
    package = Path(curveform.__file__).parent
    caught = {path.name: caught_unfinished(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    assert caught.pop("report.py")
    assert [f"{name}:{entry}" for name, entries in caught.items() for entry in entries] == []
