"""End-to-end command-line checks through a real subprocess."""

import json
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cycvar.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestBasics:
    def test_normalize_merges_rotations(self):
        rc, out, _ = run_cli("normalize", "cyc(a_x*a) + cyc(a*a_x)")
        assert rc == 0
        assert out.strip() == "2*cyc(a*a_x)"

    def test_normalize_is_idempotent_on_own_output(self):
        rc, out, _ = run_cli("normalize", "cyc(b_x*b) - 2*cyc(a*b*a_x*b)")
        assert rc == 0
        # a leading minus needs the usual end-of-options marker
        rc2, out2, _ = run_cli("normalize", "--", out.strip())
        assert rc2 == 0 and out2 == out

    def test_operator_canonical_form(self):
        rc, out, _ = run_cli("normalize", "op(D^3 + x*D*1 + 1*D*x)")
        assert rc == 0
        assert out.strip() == "op(1 + 2*x*D + D^3)"

    def test_times(self):
        rc, out, _ = run_cli("times", "cyc(a)", "cyc(a)")
        assert rc == 0 and out.strip() == "cyc(a*a)"

    def test_euler(self):
        rc, out, _ = run_cli("euler", "cyc(a*a*a)")
        assert rc == 0 and out.strip() == "3*a*a"
        rc, out, _ = run_cli("euler", "--wrt", "b", "x*cyc(b*b_x)")
        assert rc == 0 and out.strip() == "b + 2*x*b_x"

    def test_adjoint(self):
        rc, out, _ = run_cli("adjoint", "op(x*D + D*x)")
        assert rc == 0 and out.strip() == "op(-1 - 2*x*D)"

    def test_tderiv_order(self):
        rc, out, _ = run_cli("tderiv", "--order", "2", "cyc(a*a)")
        assert rc == 0
        assert out.strip() == "2*cyc(a*a_xx) + 2*cyc(a_x*a_x)"

    def test_machine_record(self):
        rc, out, _ = run_cli("--output", "machine", "normalize", "2*cyc(b*b_x) - cyc(a)")
        assert rc == 0
        assert out.splitlines() == [
            "status: ok",
            "kind: cyclic-sum",
            "count: 2",
            "term: -1 | a",
            "term: 2 | b*b_x",
        ]


class TestBrackets:
    def test_poisson_value(self):
        rc, out, _ = run_cli(
            "poisson", "op(D)", "cyc(a*a)/2", "cyc(a*a*a)/3"
        )
        assert rc == 0 and out.strip() == "2*cyc(a*a*a_x)"

    def test_jacobi_trivial_flag(self):
        rc, out, _ = run_cli(
            "--output", "machine", "jacobi",
            "op(D)", "cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_xx)",
        )
        assert rc == 0
        assert "trivial: true" in out.splitlines()

    def test_schouten_degree(self):
        rc, out, _ = run_cli(
            "--output", "machine", "schouten", "cyc(b*b_x)/2", "cyc(a*a*a)"
        )
        assert rc == 0
        lines = out.splitlines()
        assert "degree: 1" in lines

    def test_evaluate(self):
        rc, out, _ = run_cli("evaluate", "cyc(b*b_x)/2", "cov(1)", "cov(x)")
        assert rc == 0 and out.strip() == "1/2*cyc(1)"

    def test_qfield(self):
        rc, out, _ = run_cli("--output", "machine", "qfield", "cyc(b*b_x)/2")
        assert rc == 0
        lines = out.splitlines()
        assert "parity: 1" in lines
        assert "even: 1 | b_x" in lines
        assert "odd: 1 | 0" in lines

    def test_couple(self):
        rc, out, _ = run_cli("couple", "cov(a_xx)", "sec(a*a)")
        assert rc == 0 and out.strip() == "cyc(a*a*a_xx)"

    def test_witness_zero_for_derivative(self):
        rc, out, _ = run_cli(
            "--output", "machine", "witness", "op(D)", "cov(a)", "cov(a*a)"
        )
        assert rc == 0
        assert "all-zero: true" in out.splitlines()


class TestHamiltonian:
    def test_positive_certificate(self):
        rc, out, _ = run_cli("--output", "machine", "is-hamiltonian", "op(D + D^3)")
        assert rc == 0
        lines = out.splitlines()
        assert "result: true" in lines
        assert "defect: 0" in lines

    def test_negative_certificate_names_witness(self):
        rc, out, _ = run_cli(
            "--output", "machine", "is-hamiltonian", "op(a*D + D*R(a))"
        )
        assert rc == 0
        lines = out.splitlines()
        assert "result: false" in lines
        assert "witness: 1 | cyc(a*a)" in lines
        assert "witness: 2 | cyc(a*a*a)" in lines
        assert "witness: 3 | cyc(a*a_xx)" in lines
        assert any(line.startswith("witness-defect: ") for line in lines)


class TestHarnessAndSelftest:
    def test_subst_check_passes(self):
        rc, out, _ = run_cli("subst-check", "zero", "--trials", "3")
        assert rc == 0
        assert out.strip().endswith("result: pass")

    def test_subst_check_detects_failure(self):
        rc, out, err = run_cli(
            "subst-check", "jacobi-flow", "--trials", "2",
            "--op", "op(a*D + D*R(a))",
        )
        assert rc == 3
        assert "result: fail" in out
        assert "error:" in err

    def test_selftest_subset(self):
        rc, out, _ = run_cli("selftest", "--suites", "1,2")
        assert rc == 0
        assert "[1] cyclic-normalize: pass" in out
        assert "[2] averaged-product-example: pass" in out

    def test_selftest_rejects_bad_suite_number(self):
        rc, _, err = run_cli("selftest", "--suites", "12")
        assert rc == 1
        assert "no such suite" in err


class TestRejectedInputs:
    """Inputs that used to be accepted silently exit with a one-line error."""

    def test_tderiv_negative_order(self):
        rc, out, err = run_cli("tderiv", "--order", "-3", "cyc(a*a)")
        assert rc == 2 and out == ""
        assert err.strip() == "error: --order must be nonnegative, got -3"

    def test_tderiv_zero_order_is_identity(self):
        rc, out, _ = run_cli("tderiv", "--order", "0", "cyc(a*a)")
        assert rc == 0 and out.strip() == "cyc(a*a)"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_subst_check_needs_a_trial(self, trials):
        rc, out, err = run_cli("subst-check", "zero", "--trials", trials)
        assert rc == 2 and "result: pass" not in out
        assert err.strip() == f"error: need at least one trial, got {trials}"

    def test_selftest_empty_suite_list(self):
        rc, out, err = run_cli("selftest", "--suites", ",")
        assert rc == 1 and "suites passed" not in out
        assert err.strip() == "error: --suites names no suite: ','"

    def test_negative_witness_budget(self):
        rc, out, err = run_cli(
            "is-hamiltonian", "--witness-budget", "-1", "op(a*D + D*R(a))"
        )
        assert rc == 2 and out == ""
        assert err.strip() == "error: witness budget must be nonnegative, got -1"

    @pytest.mark.parametrize(
        "key, value, wanted",
        [
            ("m", "two", "an integer"),
            ("n", None, "an integer"),
            ("max_order", True, "an integer"),
            ("seed", 1.5, "an integer"),
            ("output", 1, "a string"),
        ],
    )
    def test_config_value_types(self, tmp_path, key, value, wanted):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc, out, err = run_cli("--config", str(cfg), "normalize", "cyc(a)")
        assert rc == 2 and out == ""
        assert err == f"error: config {cfg}: {key} must be {wanted}, got {json.dumps(value)}\n"

    def test_config_null_max_order_means_no_cap(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_order": None}))
        rc, out, _ = run_cli("--config", str(cfg), "normalize", "cyc(a_{x,5})")
        assert rc == 0 and out.strip() == "cyc(a_{x,5})"

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 5000 + "a" + ")" * 5000,
            "op(" + "(" * 5000 + "D" + ")" * 5001,
            "cyc(" * 5000 + "a" + ")" * 5000,
        ],
        ids=["parentheses", "operator", "cyc"],
    )
    def test_deep_nesting_is_a_parse_error(self, expr):
        rc, out, err = run_cli("normalize", expr)
        assert rc == 1 and out == ""
        assert err == "error: expression nests too deeply\n"


class TestPlumbing:
    def test_parse_error_exit_code(self):
        rc, _, err = run_cli("normalize", "cyc(a*")
        assert rc == 1 and "error:" in err and "column" in err

    def test_precondition_exit_code(self):
        rc, _, err = run_cli("poisson", "op(a*D)", "cyc(a*a)", "cyc(a*a)")
        assert rc == 2 and "skew" in err

    def test_bound_exit_code(self):
        rc, _, err = run_cli("--max-order", "2", "normalize", "cyc(a_{x,5})")
        assert rc == 4 and "cap" in err

    def test_usage_error_exit_code(self):
        rc, _, _ = run_cli("no-such-command")
        assert rc == 2

    def test_batch_file(self, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("# comment\ncyc(a*a_x)\n\n2*cyc(b*b_x) - cyc(b_x*b)\n")
        rc, out, _ = run_cli("--output", "machine", "normalize", f"@{batch}")
        assert rc == 0
        blocks = out.split("---\n")
        assert len(blocks) == 2
        assert "term: 1 | a*a_x" in blocks[0]
        assert "term: 3 | b*b_x" in blocks[1]

    def test_config_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "output": "machine"}))
        rc, out, _ = run_cli("--config", str(cfg), "normalize", "cyc(a2*a1)")
        assert rc == 0
        assert "term: 1 | a1*a2" in out.splitlines()
        rc, out, _ = run_cli(
            "--config", str(cfg), "--output", "pretty", "normalize", "cyc(a2*a1)"
        )
        assert rc == 0 and out.strip() == "cyc(a1*a2)"

    def test_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fields": 2}))
        rc, _, err = run_cli("--config", str(cfg), "normalize", "cyc(a)")
        assert rc == 2 and "unknown keys" in err

    def test_machine_output_is_reproducible(self):
        args = (
            "--output", "machine", "--seed", "6",
            "subst-check", "bivector-alternation", "--trials", "4",
            "--op", "op(D + D^3)",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second and first[0] == 0
