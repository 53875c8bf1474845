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

    # sha256 of `suite all --json --seed 42` stdout and its exit code at the
    # reference points other than t = 2 (criterion 12 pins t = 2); t = 7/5
    # mixes integral and non-integral coefficients
    @pytest.mark.parametrize("t, digest, exit_code", [
        ("3", "c50b292b13a03544009bc0a9e2fd77e46b87b45191f7f7678f45e326b5930aeb", 1),
        ("1", "038a8a13f89d5d0bb857c7404febf2206659832bec028f8ba3de99272f351d97", 0),
        ("7/5", "92a303a27b55035277dd0c795dd9710a0377d0e4359a9229d7c816a90b1b35fb", 1),
    ])
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

    def test_malformed_fuel_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVEFORM_FUEL", "lots")
        code, out, err = run(capsys, "nf", "b*b")
        assert code == 2 and out == ""
        assert err == "error: CURVEFORM_FUEL must be an integer step budget, got 'lots'\n"
