import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from curveform.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNf:
    def test_b_squared(self, capsys):
        code, out, _ = run(capsys, "nf", "b*b")
        assert code == 0 and out.strip() == "a^3"

    def test_curve_relation_vanishes(self, capsys):
        code, out, _ = run(capsys, "nf", "y^2 - x^2 - x^3")
        assert code == 0 and out.strip() == "0"

    def test_inverse_conjugation(self, capsys):
        code, out, _ = run(capsys, "nf", "a^-1*x")
        assert code == 0
        assert out.strip() == "-a*x*a^-2 - x*a^-1 - a^-1 + 10"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "nf", "b*b", "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["rendered"] == "a^3"
        assert obj["point"] == {"q": {"c0": "3", "c1": "0"},
                                "p": {"c0": "6", "c1": "0"}}

    def test_explicit_point(self, capsys):
        code, out, _ = run(capsys, "nf", "b*y + y*b", "--q", "0", "--p", "0")
        assert code == 0 and out.strip() == "0"

    def test_off_curve_point_rejected(self, capsys):
        code, _, err = run(capsys, "nf", "x", "--q", "1", "--p", "1")
        assert code == 2 and "error" in err

    def test_off_curve_residual_that_fits_is_printed_in_full(self, capsys):
        # 1/3^1200 - 1/2^2000 - 1/2^3000 has a 1,476-digit denominator
        q, p = Fraction(1, 2 ** 1000), Fraction(1, 3 ** 600)
        code, out, err = run(capsys, "nf", "x", "--q", str(q), "--p", str(p))
        assert code == 2 and out == ""
        assert err == ("error: point is off the curve, residual p^2 - q^2 - q^3 = "
                       f"{p * p - q * q - q ** 3}\n")

    def test_off_curve_residual_too_long_to_print_is_named_by_its_size(self, capsys):
        # q and p have 999 and 1,000 digits below the line, within the bound;
        # the residual 1/3^4188 - 1/2^6636 - 1/2^9954 has more than 4,300
        q, p = Fraction(1, 2 ** 3318), Fraction(1, 3 ** 2094)
        residual = p * p - q * q - q ** 3
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # to count the digits as text
        try:
            sizes = len(str(-residual.numerator)), len(str(residual.denominator))
        finally:
            sys.set_int_max_str_digits(old)
        assert sizes == (2997, 4995)
        code, out, err = run(capsys, "nf", "x", "--q", str(q), "--p", str(p))
        assert code == 2 and out == ""
        assert err == ("error: point is off the curve, residual p^2 - q^2 - q^3 has a "
                       "2997-digit numerator and a 4995-digit denominator\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "nf", "x +")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", ["x +", "²", "(x+y)^40"])
    def test_parse_error_is_one_line_on_stderr(self, capsys, text):
        code, out, err = run(capsys, "nf", text)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("mul", "(x+y)^7", "(x+y)^7"), ("nf", "1^300000"),
                                      ("nf", "x^8000"), ("mul", "x^60", "x^60"),
                                      ("nf", "(x+y)^13*x^87"), ("mul", "(x+y)^13", "x^87")])
    def test_an_expansion_beyond_a_bound_is_one_line_on_stderr(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nf_is_mul_of_one_expression(self, capsys):
        _, nf_out, _ = run(capsys, "nf", "a^-1*x", "--json")
        _, mul_out, _ = run(capsys, "mul", "a^-1*x", "--json")
        nf_obj, mul_obj = json.loads(nf_out), json.loads(mul_out)
        assert nf_obj.pop("input") == "a^-1*x" and mul_obj.pop("inputs") == ["a^-1*x"]
        assert nf_obj == mul_obj


class TestMul:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "mul", "a", "a^-1")
        assert code == 0 and out.strip() == "1"

    def test_three_factors(self, capsys):
        code, out, _ = run(capsys, "mul", "b", "b", "a^-3")
        assert code == 0 and out.strip() == "1"


class TestRules:
    def test_rule_listing(self, capsys):
        code, out, _ = run(capsys, "rules")
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert code == 0 and len(lines) == 17
        assert any(ln.startswith("ag -> 1") for ln in lines)
        assert sum("[completed]" in ln for ln in lines) == 4

    def test_rules_json(self, capsys):
        code, out, _ = run(capsys, "rules", "--json")
        obj = json.loads(out)
        assert code == 0
        assert len(obj["rules"]) == 17
        assert len(obj["completion"]["added"]) == 4

    # sha256 of `rules --json` stdout: the completed rules and the completion
    # log, which depend on the reduction order of the intermediate systems
    @pytest.mark.parametrize("t, digest", [
        ("2", "85086a165f3f5b5201a2ad880c2f1e7792fbec10c435488d79295b7abc84d093"),
        ("3", "c7b0f8ec6b9165b9ea372bc15651b367488f97b25eb6c062122d72b01c74f81d"),
        ("1", "5b38ff166d8d7cb5fe4cfe808c28df8443cddde5a8dab45f2a7102c590240061"),
        ("0", "f1e333ccd1451fca8077dd57aa99af74eb5b9d9d5b2e02aed068ed3fde3b717f"),
        ("7/5", "2d5ad349468bbd92a1f30918b5dc155050647d63cf6d9d3495f30a84c7c39e69"),
        ("-1/2", "65e7d421a84c9fe2007272a6d0c8d2743dded549c2130bd782403aa7db131be2"),
    ], ids=["2", "3", "1", "0", "7/5", "-1/2"])
    def test_rules_json_digest(self, capsys, t, digest):
        code, out, _ = run(capsys, "rules", "--json", f"--t={t}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_negative_rational_after_the_option(self, capsys):
        # argparse would take -1/2 for an option; it is the value of --t
        code, out, _ = run(capsys, "rules", "--json", "--t", "-1/2")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "65e7d421a84c9fe2007272a6d0c8d2743dded549c2130bd782403aa7db131be2")


class TestCoefficientTooLongToPrint:
    """A coefficient with more digits than the interpreter converts to text
    (sys.get_int_max_str_digits) is a usage error: exit 2, one error line and
    nothing on stdout, in text and JSON mode alike."""

    @staticmethod
    def refused(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: a coefficient has more than {sys.get_int_max_str_digits()} "
                       "digits to print\n")

    @pytest.fixture
    def limit_640(self):
        """The interpreter's least digit limit, in place for one test."""
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv", [
        ["nf", "(a^-1*x)^8", "--t", "1e300"], ["nf", "(a^-1*x)^8", "--t", "1e300", "--json"],
        ["nf", "(a^-1*x)^3", "--t", "1e999"], ["nf", "(a^-1*x)^3", "--t", "1e999", "--json"],
        ["mul", "(a^-1*x)^4", "(a^-1*x)^4", "--t", "1e300"],
        ["mul", "(a^-1*x)^4", "(a^-1*x)^4", "--t", "1e300", "--json"]])
    def test_a_result_coefficient(self, capsys, argv):
        self.refused(capsys, *argv)

    def test_a_coefficient_within_the_limit_prints(self, capsys):
        code, out, _ = run(capsys, "nf", "y^40", "--t", "1e120")
        assert code == 0 and out.startswith("x^60 + 20*x^59 + 190*x^58")
        # a coefficient of 4,003 digits
        code, out, _ = run(capsys, "nf", "(a^-1*x)^8", "--t", "1e250")
        assert code == 0 and max(map(len, re.findall(r"\d+", out))) == 4003

    # at t = 1e200 the point has 401 and 601 digits and some rule coefficients
    # more than 640; at t = 1e300, p has 901
    @pytest.mark.parametrize("command, t", [(["rules"], "1e200"), (["rules", "--json"], "1e200"),
                                            (["suite", "diamond"], "1e300"),
                                            (["suite", "diamond", "--json"], "1e300")])
    def test_a_rule_or_point_coefficient(self, capsys, limit_640, command, t):
        self.refused(capsys, *command, "--t", t)
        code, _, _ = run(capsys, *command, "--t", "1e100")
        assert code == 0


class TestCensus:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "census", "--max-len", "3")
        assert code == 0
        assert "L=3: irreducible=25 pattern=25 enumerated=25" in out
        assert "verdict: pass" in out

    def test_max_len_zero_is_honoured(self, capsys):
        code, out, _ = run(capsys, "census", "--max-len", "0")
        assert code == 0
        assert out.splitlines() == ["L=0: irreducible=1 pattern=1 enumerated=1",
                                    "verdict: pass"]


class TestSuites:
    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, "suite", "identities")
        assert code == 0 and "pass" in out

    def test_alt_fails_off_node(self, capsys):
        # the listed relation bd = -db fails at p != 0
        code, out, _ = run(capsys, "suite", "alt", "--json")
        obj = json.loads(out)
        assert code == 1 and obj["status"] == "fail"
        bad = [e for r in obj["reports"] for e in r["entries"]
               if e["status"] == "fail"]
        assert [e["name"] for e in bad] == ["bd = -db"]

    def test_alt_passes_at_node(self, capsys):
        code, out, _ = run(capsys, "suite", "alt", "--t", "1")
        assert code == 0

    def test_diamond_json(self, capsys):
        code, out, _ = run(capsys, "suite", "diamond", "--json")
        obj = json.loads(out)
        assert code == 0
        rep = obj["reports"][0]
        assert rep["ok"] and rep["unresolved"] == 0 and rep["rules"] == 17
        assert rep["ambiguities"] == 51

    def test_growth_json(self, capsys):
        code, out, _ = run(capsys, "suite", "growth", "--json", "--max-len", "100")
        obj = json.loads(out)
        rep = obj["reports"][0]
        assert code == 0 and abs(rep["exponent"] - 3.0) <= 0.2

    def test_freeness(self, capsys):
        code, out, _ = run(capsys, "suite", "freeness", "--max-len", "4")
        assert code == 0

    def test_galois(self, capsys):
        code, out, _ = run(capsys, "suite", "galois", "--max-deg", "3")
        assert code == 0

    def test_units(self, capsys):
        code, out, _ = run(capsys, "suite", "units")
        assert code == 0

    def test_hopf_seeded(self, capsys):
        code, out, _ = run(capsys, "suite", "hopf", "--samples", "5", "--seed", "9")
        assert code == 0

    def test_suite_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "suite", "identities", "--json")
        _, second, _ = run(capsys, "suite", "identities", "--json")
        assert first == second

    def test_every_report_prints_status(self, capsys):
        code, out, _ = run(capsys, "suite", "all", "--json", "--seed", "42")
        obj = json.loads(out)
        reports = obj["reports"]
        assert len(reports) == 12
        assert all(r["check"] and r["status"] in ("pass", "fail") for r in reports)
        failed = any(r["status"] == "fail" for r in reports)
        assert obj["status"] == ("fail" if failed else "pass") and code == int(failed)

    # sha256 of `suite all --json --seed 42` stdout and its exit code at the
    # reference points other than t = 2 (criterion 12 pins t = 2); t = 7/5
    # mixes integral and non-integral coefficients
    @pytest.mark.parametrize("t, digest, exit_code", [
        ("3", "4303ab198e7a4f5ef56e0e867226a3324304b9e84a05f9ced3512ac5b503894c", 1),
        ("1", "e7b2788c825dc1fbbced5522d639f81b7d450b337ff632b712c6c99bbc74fdfc", 0),
        ("7/5", "4ec8dec049596b068e8e09e28974e66aae48a764efc5768e2c89b5e802caf24b", 1),
    ], ids=["3", "1", "7/5"])
    def test_suite_all_digest(self, capsys, t, digest, exit_code):
        code, out, _ = run(capsys, "suite", "all", "--json", "--seed", "42", "--t", t)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestGrowthUndefined:
    @pytest.mark.parametrize("max_len", ["0", "1"])
    def test_exponent_is_null(self, capsys, max_len):
        code, out, _ = run(capsys, "suite", "growth", "--json", "--max-len", max_len)
        rep = strict_json(out)["reports"][0]
        assert code == 1 and rep["exponent"] is None and rep["status"] == "fail"


class TestArgHandling:
    def test_t_and_q_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["nf", "x", "--t", "2", "--q", "3", "--p", "6"])

    def test_rational_t(self, capsys):
        code, out, _ = run(capsys, "nf", "y^2 - x^2 - x^3", "--t", "1/2")
        assert code == 0 and out.strip() == "0"

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "curveform", "nf", "b*b"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "a^3"

    def test_negative_rational_q_and_p(self, capsys):
        # t = -1/2 gives (q, p) = (-3/4, 3/8)
        code, out, _ = run(capsys, "suite", "diamond", "--q", "-3/4", "--p", "3/8", "--json")
        assert code == 0 and json.loads(out)["status"] == "pass"

    # a numerator or denominator beyond 1,000 digits is refused on the text,
    # before the value is built: building 1e30000000 runs for over a minute
    @pytest.mark.parametrize("argv", [["--t", "abc"], ["--t", "1/0"],
                                      ["--q", "1.5.2", "--p", "1"], ["--q", "3"],
                                      ["--t", "-1/0"], ["--t", "-1/x"], ["--t", "-x"],
                                      ["--q", "-3/4", "--p"], ["--t", "1e5000"],
                                      ["--t", "7" * 2000], ["--t", "1e1500"],
                                      ["--t", "1e30000000"], ["--t", "1e-1000"],
                                      ["--t", "1/" + "3" * 1001], ["--t", "1.5e1000"],
                                      ["--q", "1e1000", "--p", "1"], ["--t", "1e9999999999"]],
                             ids=["t-abc", "t-1/0", "q-1.5.2", "q-without-p", "t--1/0",
                                  "t--1/x", "t--x", "p-missing", "t-1e5000", "t-2000-digits",
                                  "t-1e1500", "t-1e30000000", "t-1e-1000", "t-1001-digit-den",
                                  "t-1.5e1000", "q-1e1000", "t-10-digit-exponent"])
    def test_malformed_point_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["nf", "x", *argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("t", ["1e999", "-1e-999", "9" * 1000 + "/" + "9" * 999 + "7",
                                   "0.5e1000", "000" + "9" * 1000],
                             ids=["1e999", "-1e-999", "1000-digit-both", "0.5e1000",
                                  "leading-zeros"])
    def test_a_point_within_the_digit_bound_prints(self, capsys, t):
        code, out, err = run(capsys, "rules", "--json", f"--t={t}")
        assert code == 0 and err == "" and len(json.loads(out)["rules"]) == 17

    @pytest.mark.parametrize("argv", [
        ["nf", "x", "--seed", "3"], ["nf", "x", "--samples", "7"], ["nf", "x", "--max-len", "2"],
        ["nf", "x", "--max-deg", "2"], ["mul", "x", "y", "--seed", "1"],
        ["mul", "x", "y", "--max-len", "2"], ["rules", "--samples", "1"],
        ["rules", "--max-deg", "1"], ["census", "--seed", "1"], ["census", "--samples", "1"],
        ["census", "--max-deg", "1"], ["suite", "units", "--max-len", "5"],
        ["suite", "freeness", "--seed", "3"]])
    def test_an_option_the_command_ignores_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err

    # the check options each suite reads; identities, alt, diamond and units read none
    SUITE_READS = {"basis": {"--max-len"}, "growth": {"--max-len"}, "freeness": {"--max-len"},
                   "hopf": {"--samples", "--seed"}, "coideal": {"--max-deg"},
                   "galois": {"--max-deg"},
                   "all": {"--max-len", "--max-deg", "--samples", "--seed"}}

    @pytest.mark.parametrize("name", ["diamond", "basis", "growth", "freeness", "hopf",
                                      "coideal", "identities", "alt", "galois", "units", "all"])
    def test_a_suite_takes_only_the_check_options_it_reads(self, capsys, name):
        reads = self.SUITE_READS.get(name, set())
        for option in ("--max-len", "--max-deg", "--samples", "--seed"):
            argv = ["suite", name, option, "3"]
            if option in reads:
                assert vars(build_parser().parse_args(argv))[option[2:].replace("-", "_")] == 3
            else:
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(argv)
                err = capsys.readouterr().err
                assert exc.value.code == 2 and err == (
                    f"error: curveform: unrecognized arguments: {option} 3\n")

    def test_the_seed_of_a_suite_that_reads_none_is_null(self, capsys):
        _, out, _ = run(capsys, "suite", "units", "--json")
        _, hopf_out, _ = run(capsys, "suite", "hopf", "--samples", "0", "--json")
        assert json.loads(out)["seed"] is None and json.loads(hopf_out)["seed"] == 0

    @pytest.mark.parametrize("argv", [
        ["suite", "basis", "--max-len", "-1"], ["census", "--max-len", "-2"],
        ["suite", "freeness", "--max-len", "-1"], ["suite", "coideal", "--max-deg", "-1"],
        ["suite", "galois", "--max-deg", "-1"], ["suite", "hopf", "--samples", "-1"],
        ["nf", "x", "--fuel", "-5"], ["nf", "x", "--fuel", "0"]],
        ids=["basis-max-len", "census-max-len", "freeness-max-len", "coideal-max-deg",
             "galois-max-deg", "hopf-samples", "fuel-negative", "fuel-zero"])
    def test_out_of_range_bound_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert len(out.err.splitlines()) == 1 and "error:" in out.err
        assert "Traceback" not in out.err

    def test_zero_samples_is_honoured(self, capsys):
        code, out, _ = run(capsys, "suite", "hopf", "--samples", "0", "--json")
        entries = json.loads(out)["reports"][1]["entries"]
        assert code == 0 and len(entries) == 5 * 5

    # building the algebra takes 82 steps (words carried from one completion
    # round to the next cost none), reducing b^6*x^6 on it takes 412
    def test_fuel_bounds_every_reduction(self, capsys):
        code, out, err = run(capsys, "nf", "b^6*x^6", "--fuel", "200")
        assert code == 2 and out == ""
        assert err == ("error: reduction of b^6*x^6 exhausted its fuel: "
                       "200 steps taken, budget 200\n")

    def test_tiny_fuel_is_reported_as_fuel(self, capsys):
        # below the build's need, completion stops at the first witness that
        # runs out of fuel, not at its rule cap
        code, out, err = run(capsys, "nf", "x", "--fuel", "1")
        assert code == 2 and out == ""
        assert err == "error: reduction of y^2*x exhausted its fuel: 1 steps taken, budget 1\n"

    def test_fuel_overrun_in_a_check_is_a_failing_entry(self, capsys):
        # the random element 11 needs more than 150 steps (166 do): its five
        # entries fail with the error, and the suite reports instead of stopping
        code, out, err = run(capsys, "suite", "hopf", "--t", "2", "--fuel", "150",
                             "--samples", "20", "--json")
        assert code == 1 and err == ""
        welldefined, axioms = json.loads(out)["reports"]
        assert welldefined["status"] == "pass" and axioms["status"] == "fail"
        assert len(axioms["entries"]) == 5 * (5 + 20)
        failed = [e for e in axioms["entries"] if e["status"] == "fail"]
        assert [e["name"] for e in failed] == [
            f"{kind} random 11" for kind in
            ("coassoc", "counit-left", "counit-right", "antipode-left", "antipode-right")]
        assert {e["residual"] for e in failed} == {
            "reduction of a*x*a*x*a*x*a^-6*x exhausted its fuel: 150 steps taken, budget 150"}

    def test_hopf_checks_pass_on_fuel_200(self, capsys):
        # products are reduced a normal word times one letter at a time
        code, out, err = run(capsys, "suite", "hopf", "--t", "2", "--fuel", "200",
                             "--samples", "20", "--json")
        assert code == 0 and err == ""
        assert [r["status"] for r in json.loads(out)["reports"]] == ["pass", "pass"]

    def test_fuel_overrun_in_freeness_fails_a_sample(self, capsys):
        # the right product a*x*a^-1 * x^3 needs more than 110 steps
        _, full, _ = run(capsys, "suite", "freeness", "--t", "2", "--json")
        code, out, err = run(capsys, "suite", "freeness", "--t", "2", "--fuel", "110", "--json")
        assert code == 1 and err == ""
        (starved,), (ref,) = json.loads(out)["reports"], json.loads(full)["reports"]
        assert ref["status"] == "pass" and starved["status"] == "fail"
        assert starved["checked_products"] == ref["checked_products"]
        assert (ref["failures"], ref["failure_count"], starved["failure_count"]) == ([], 0, 1)
        assert starved["failures"] == [{
            "kind": "right_product", "b": "xxx", "tail": "axg",
            "error": "reduction of a*x*a^-1*x^3 exhausted its fuel: "
                     "110 steps taken, budget 110"}]

    def test_units_pass_at_the_smallest_build_fuel(self, capsys):
        # the build needs 82 steps, and no candidate's inverse needs more
        for t in ("2", "7/5"):
            _, full, _ = run(capsys, "suite", "units", "--t", t, "--json")
            code, out, err = run(capsys, "suite", "units", "--t", t, "--fuel", "82", "--json")
            assert code == 0 and err == ""
            (starved,), (ref,) = json.loads(out)["reports"], json.loads(full)["reports"]
            assert ref["status"] == starved["status"] == "pass"
            assert len(starved["entries"]) == 8 and starved["entries"] == ref["entries"]

    def test_fuel_option_large_enough(self, capsys):
        code, out, _ = run(capsys, "nf", "b^6*x^6", "--fuel", "10000")
        assert code == 0 and out.strip() == "x^6*a^9"
