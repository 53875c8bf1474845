import hashlib
import json
import subprocess
import sys

import pytest

from curveform.cli import main


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

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "nf", "x +")
        assert code == 2 and "error" in err


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
        code, out, _ = run(capsys, "suite", "units", "--max-len", "6")
        assert code == 0

    def test_hopf_seeded(self, capsys):
        code, out, _ = run(capsys, "suite", "hopf", "--samples", "5", "--seed", "9")
        assert code == 0

    def test_suite_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "suite", "identities", "--json", "--seed", "42")
        _, second, _ = run(capsys, "suite", "identities", "--json", "--seed", "42")
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
        ("3", "09981d985e47cf029e2cfd8da8b9986241976bf4f4268a73d33cf5c31e5c64b3", 1),
        ("1", "e81506e0de1ff216bf8ad234153abeb69b3409b0e0aae333c2a3d1f16cb2dc9b", 0),
        ("7/5", "cd53fcad4569e6ecd867b4fafd9ba624a51d0fd462f6e5098a92ab8d7903409b", 1),
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

    def test_fuel_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVEFORM_FUEL", "200000")
        code, out, _ = run(capsys, "nf", "b*b")
        assert code == 0 and out.strip() == "a^3"

    @pytest.mark.parametrize("argv", [["--t", "abc"], ["--t", "1/0"],
                                      ["--q", "1.5.2", "--p", "1"], ["--q", "3"]],
                             ids=["t-abc", "t-1/0", "q-1.5.2", "q-without-p"])
    def test_malformed_point_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["nf", "x", *argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "error:" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("env", ["-5", "0"])
    def test_non_positive_fuel_env_is_usage_error(self, capsys, monkeypatch, env):
        monkeypatch.setenv("CURVEFORM_FUEL", env)
        code, out, err = run(capsys, "nf", "b*b")
        assert code == 2 and out == ""
        assert err == f"error: CURVEFORM_FUEL must be a positive step budget, got {env!r}\n"

    def test_zero_samples_is_honoured(self, capsys):
        code, out, _ = run(capsys, "suite", "hopf", "--samples", "0", "--json")
        entries = json.loads(out)["reports"][1]["entries"]
        assert code == 0 and len(entries) == 5 * 5

    def test_malformed_fuel_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVEFORM_FUEL", "lots")
        code, out, err = run(capsys, "nf", "b*b")
        assert code == 2 and out == ""
        assert err == "error: CURVEFORM_FUEL must be an integer step budget, got 'lots'\n"

    # building the algebra takes 100 steps, reducing b^6*x^6 on it takes 412
    @pytest.mark.parametrize("source", ["option", "env"])
    def test_fuel_bounds_every_reduction(self, capsys, monkeypatch, source):
        argv = ["nf", "b^6*x^6"]
        if source == "option":
            argv += ["--fuel", "200"]
        else:
            monkeypatch.setenv("CURVEFORM_FUEL", "200")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: reduction of b^6*x^6 exhausted its fuel: "
                       "200 steps taken, budget 200\n")

    def test_tiny_fuel_is_reported_as_fuel(self, capsys):
        # below the build's need no witness resolves, so completion stops on
        # the first stuck one, not at its rule cap
        code, out, err = run(capsys, "nf", "x", "--fuel", "1")
        assert code == 2 and out == ""
        assert err == "error: reduction of y^2*x exhausted its fuel: 1 steps taken, budget 1\n"

    def test_fuel_overrun_in_a_check_is_a_failing_entry(self, capsys):
        # the random element 11 needs more than 200 steps: its five entries
        # fail with the error, and the suite reports instead of stopping
        code, out, err = run(capsys, "suite", "hopf", "--t", "2", "--fuel", "200",
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
            "reduction of a*x*a^-4*x^3*a^3 exhausted its fuel: 200 steps taken, budget 200"}

    def test_fuel_option_large_enough(self, capsys):
        code, out, _ = run(capsys, "nf", "b^6*x^6", "--fuel", "10000")
        assert code == 0 and out.strip() == "x^6*a^9"
