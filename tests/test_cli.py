"""End-to-end command-line checks through a real subprocess, and in-process
checks of how records reach stdout."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cycvar.cli as C
from cycvar import jets
from cycvar.selftest import SuiteResult


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cycvar.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
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

    def test_jacobi_trivial_flag_pretty(self):
        """Pretty mode prints the flag as every other flag, yes/no, as
        `is-trivial` does."""
        rc, out, _ = run_cli(
            "--output", "pretty", "jacobi",
            "op(a*D + D*R(a))", "cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_xx)",
        )
        assert rc == 0
        assert out.splitlines()[0] == "trivial: no"

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

    def test_tderiv_stops_at_the_zero_sum(self, monkeypatch):
        # D(x) = 1 and D(1) = 0: a huge order needs only two steps
        derivative, calls = jets.total_derivative, []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 10, "tderiv kept differentiating the zero sum"
            return derivative(*args)

        monkeypatch.setattr(jets, "total_derivative", counted)
        rc, out, err = run_in_process("--output", "machine", "tderiv", "--order", "1000000000000", "x")
        assert (rc, err) == (0, "")
        assert out == "status: ok\nkind: open-sum\ncount: 0\n"
        assert len(calls) == 2

    @pytest.mark.parametrize("style", ["pretty", "machine"])
    @pytest.mark.parametrize("direction", ["0", "2"])
    def test_tderiv_checks_the_direction_at_order_zero(self, style, direction):
        for order in ("0", "1"):
            rc, out, err = run_in_process(
                "--output", style, "tderiv", "--direction", direction, "--order", order, "cyc(a*a)"
            )
            assert (rc, out) == (2, "")
            assert err == f"error: direction {direction} outside 1..1\n"

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

    @pytest.mark.parametrize("command", [("selftest", "--suites", "1"), ("normalize", "cyc(a)")])
    def test_negative_max_order(self, tmp_path, command):
        """A negative cap is refused before any command runs, from the flag
        or from a config, selftest included (which builds no context of
        the session's)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_order": -1}))
        for settings in (("--max-order", "-1"), ("--config", str(cfg))):
            rc, out, err = run_cli(*settings, *command)
            assert (rc, out, err) == (2, "", "error: max_order must be nonnegative\n")

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


class TestOddCoefficientOperators:
    """The Poisson layer names an operator whose coefficient words hold an
    odd letter with one error line, before any deeper layer meets it."""

    @pytest.mark.parametrize(
        "args",
        [
            ("is-hamiltonian", "op(b*D + D*R(b))"),
            ("is-hamiltonian", "op(b*b*D + D*R(b*b))"),
            ("jacobi", "op(b*D + D*R(b))", "cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_x*a_x)"),
            ("poisson", "op(b*D + D*R(b))", "cyc(a*a)", "cyc(a*a*a)"),
            ("subst-check", "jacobi-flow", "--trials", "2", "--op", "op(b*b*D + D*R(b*b))"),
            ("subst-check", "jacobi-flow", "--trials", "1", "--covectors", "x",
             "--op", "op(b*D + D*R(b))"),
        ],
        ids=["is-hamiltonian", "is-hamiltonian-bb", "jacobi", "poisson", "jacobi-flow-bb",
             "jacobi-flow-x"],
    )
    def test_exits_2(self, args):
        rc, out, err = run_in_process(*args)
        assert (rc, out) == (2, "")
        assert err == "error: operator coefficient words must hold position letters only\n"


class TestOperatorOrderCap:
    """`--max-order` bounds an operator's own derivative order wherever the
    operator is built, and a large power is one term, not a loop."""

    @pytest.mark.parametrize(
        "command, expr, order",
        [
            ("normalize", "op(D^3)", 3),
            ("normalize", "op(D*D*D)", 3),
            ("adjoint", "op(D^3)", 3),
            ("is-hamiltonian", "op(D^3)", 3),
            ("normalize", "op(D^99999999999)", 99999999999),
        ],
    )
    def test_over_cap_exits_4(self, command, expr, order):
        rc, out, err = run_cli("--max-order", "2", command, expr)
        assert rc == 4 and out == ""
        assert err == f"error: derivative order {order} exceeds cap 2\n"

    @pytest.mark.parametrize("command, wanted", [("normalize", "op(D^2)"), ("adjoint", "op(D^2)")])
    def test_at_cap_is_accepted(self, command, wanted):
        rc, out, _ = run_cli("--max-order", "2", command, "op(D^2)")
        assert rc == 0 and out.strip() == wanted

    def test_huge_power_without_cap(self):
        rc, out, _ = run_cli("normalize", "op(D^99999999999)")
        assert rc == 0 and out.strip() == "op(D^99999999999)"

    def test_cap_under_the_witness_pool_ends_the_search(self):
        """The witness pool holds a_xx: a cap below it ends the search, not
        the run, and the verdict stands on the master defect."""
        rc, out, err = run_cli("--max-order", "1", "--output", "machine", "is-hamiltonian", "op(a*a - R(a*a))")
        assert rc == 0 and err == ""
        assert "result: false" in out.splitlines()


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
        subst_metavar = "{zero|adjoint-pairing|jacobi-flow|bivector-alternation}"
        for args, message in [
            (("no-such-command",), "No such command 'no-such-command'."),
            (("normalize", "a", "b"), "Got unexpected extra argument (b)"),
            (("--output", "machine"), "Missing command."),
            (("normalize",), "Missing argument 'EXPR'."),
            (("times", "a"), "Missing argument 'RIGHT'."),
            (("normalize", "--ordr", "1", "x"), "No such option '--ordr'."),
            (("tderiv", "--order", "abc", "x"),
             "Invalid value for '--order': 'abc' is not a valid integer."),
            # a sign and then digits is no over-long number
            (("tderiv", "--order", "+-5", "x"),
             "Invalid value for '--order': '+-5' is not a valid integer."),
            (("euler", "--side", "up", "x"),
             "Invalid value for '--side': 'up' is not one of 'left', 'right'."),
            (("--output", "fancy", "normalize", "x"),
             "Invalid value for '--output': 'fancy' is not one of 'pretty', 'machine'."),
            (("subst-check", "nope"),
             f"Invalid value for '{subst_metavar}': 'nope' is not one of 'zero',"
             " 'adjoint-pairing', 'jacobi-flow', 'bivector-alternation'."),
            (("--m",), "Option '--m' requires an argument."),
            (("is-hamiltonian", "--witness=1", "op(D)"), "Option '--witness' does not take a value."),
            (("jacobi", "op(D)", "a", "b"), "Argument 'functionals' takes 3 values."),
            (("jacobi", "op(D)", "a", "--help"), "Argument 'functionals' takes 3 values."),
            # the metavar names the identities, so the message is one line
            (("subst-check",), f"Missing argument '{subst_metavar}'."),
            (("normalize", "a", "b", "c"), "Got unexpected extra arguments (b c)"),
            (("normalize", "-xy"), "No such option '-x'."),
            (("normalise", "x"), "No such command 'normalise'. Did you mean 'normalize'?"),
            (("selftest", "--suite", "1"), "No such option '--suite'. Did you mean '--suites'?"),
            (("is-hamiltonian", "--witnes", "3", "x"), "No such option '--witnes'. (Did you mean"
             " one of: '--no-witness', '--witness', '--witness-budget'?)"),
            # options are read in the order given, before the arguments
            (("tderiv", "--direction", "y", "--order", "x"),
             "Invalid value for '--direction': 'y' is not a valid integer."),
            # the settings are checked before the command reads its own
            (("--m", "0", "normalize", "--help"), "--m must be at least 1"),
        ]:
            rc, out, err = run_in_process(*args)
            assert (rc, out) == (2, ""), args
            assert err == f"error: {message}\n"
            assert err.count("\n") == 1, args

    @pytest.mark.parametrize(
        "args, wanted",
        [
            (("--output=machine", "normalize", "cyc(a)"),
             "status: ok\nkind: cyclic-sum\ncount: 1\nterm: 1 | a\n"),
            # options may follow the positional arguments
            (("tderiv", "cyc(a*a_x)", "--order", "2"), "cyc(a*a_xxx) + 3*cyc(a_x*a_xx)\n"),
        ],
    )
    def test_option_spellings(self, args, wanted):
        assert run_in_process(*args) == (0, wanted, "")

    def test_help_is_eager(self):
        page = run_in_process("normalize", "--help")
        assert page[1].startswith("Usage: cycvar normalize [OPTIONS] EXPR\n")
        assert run_in_process("normalize", "--help", "extra") == page == (0, page[1], "")

    def test_ctrl_c_exits_130(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(C, "parse_value", interrupted)
        assert run_in_process("normalize", "cyc(a)") == (130, "", "\n")

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # more output than a pipe buffers, so writes fail once the reader is gone
        batch = tmp_path / "batch.txt"
        batch.write_text("cyc(a*a_x)\n" * 20000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cycvar.cli", "normalize", f"@{batch}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.read(1)
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")
        proc.stderr.close()

    def test_runs_on_the_standard_library(self):
        """Importing the command line loads no click, and it runs where
        click cannot be imported at all."""
        probe = "import sys, cycvar.cli; print('click' in sys.modules)"
        assert subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        ).stdout == "False\n"
        blocked = (
            "import sys; sys.modules['click'] = None; import cycvar.cli;"
            " cycvar.cli.main(['--output', 'machine', 'normalize', 'cyc(a*a_x)'])"
        )
        proc = subprocess.run([sys.executable, "-c", blocked], capture_output=True, text=True, timeout=60)
        # the first record of the transcript's batch is cyc(a*a_x)
        transcript = Path(__file__).with_name("cli_transcript.txt").read_text(encoding="utf-8")
        batch = transcript.split("$ cycvar --output machine normalize @batch.txt\n[exit 0]\n[stdout]\n")[1]
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, batch.split("---\n")[0], "")

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


def run_in_process(*args):
    """`cycvar ARGS` through `cli.main` in this process: (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            C.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestStreaming:
    @pytest.mark.parametrize("mode, first_line", [
        ("pretty", "[1] first: pass ("),
        ("machine", "suite: 1 | first | pass | done"),
    ])
    def test_selftest_prints_each_suite_as_it_finishes(self, monkeypatch, mode, first_line):
        seen = []

        def first(seed):
            return SuiteResult(1, "first", True, "done")

        def second(seed):
            seen.append(sys.stdout.getvalue())
            return SuiteResult(2, "second", True, "done")

        monkeypatch.setattr(C, "SUITES", [first, second])
        code, out, _ = run_in_process("--output", mode, "selftest")
        assert code == 0
        assert seen[0].splitlines()[-1].startswith(first_line)
        assert out.startswith(seen[0]) and "second" not in seen[0]


class TestRecords:
    def test_machine_mode_renders_no_pretty_text(self, monkeypatch):
        """A text that only pretty output prints is not even written in
        machine mode: its printer is never called."""

        def refuse(*args):
            raise AssertionError("machine mode wrote a pretty text")

        for name in ("operator_text", "covector_text", "section_text"):
            monkeypatch.setattr(C, name, refuse)
        for expr, kind in [("op(D)", "operator"), ("cov(a)", "covector"), ("sec(a)", "section")]:
            code, out, err = run_in_process("--output", "machine", "normalize", expr)
            assert (code, err) == (0, ""), expr
            assert out.startswith(f"status: ok\nkind: {kind}\n")
        # the components above are printed by sum_text, a cyclic sum's pretty text
        monkeypatch.setattr(C, "sum_text", refuse)
        wanted = "status: ok\nkind: cyclic-sum\ncount: 1\nterm: 1 | a\n"
        assert run_in_process("--output", "machine", "normalize", "cyc(a)") == (0, wanted, "")


# the interpreter's cap on int <-> decimal string conversion; 0 (or a
# Python without the cap) converts numbers of any length
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * 5000
ONE = "0" * 4999 + "1"  # as long as LONG, and a valid field index
ORDER = "9" * (INT_DIGITS or 4300)  # the longest order the parser reads


class TestOverLongNumbers:
    """Numbers longer than the interpreter converts end with one error line,
    as a parse error when read and as an exceeded bound when printed."""

    @pytest.mark.parametrize(
        "args, column",
        [
            (("normalize", LONG), 1),
            (("normalize", f"x^{LONG}"), 1),
            (("normalize", f"cyc(a_{{x,{LONG}}})"), 5),
            (("normalize", f"op(D^{LONG})"), 4),
            (("normalize", f"a{ONE}"), 1),
            (("euler", "--wrt", f"a{ONE}", "cyc(a)"), None),
        ],
        ids=["integer", "x-power", "letter-order", "derivative-power", "field-index", "wrt"],
    )
    def test_in_input(self, args, column):
        rc, out, err = run_in_process(*args)
        if not 0 < INT_DIGITS < len(LONG):
            assert rc == 0
            return
        where = "" if column is None else f" (at column {column})"
        assert (rc, out) == (1, "")
        assert err == f"error: number with {len(LONG)} digits is too long{where}\n"

    def test_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"seed": {LONG}}}')
        rc, out, err = run_in_process("--config", str(cfg), "normalize", "cyc(a)")
        if not 0 < INT_DIGITS < len(LONG):
            assert rc == 0
            return
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: config {cfg} is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "before, option, after",
        [
            ((), "--m", ("normalize", "cyc(a)")),
            ((), "--n", ("normalize", "cyc(a)")),
            ((), "--max-order", ("normalize", "cyc(a)")),
            ((), "--seed", ("normalize", "cyc(a)")),
            (("tderiv",), "--direction", ("cyc(a)",)),
            (("tderiv",), "--order", ("cyc(a)",)),
            (("is-hamiltonian",), "--witness-budget", ("op(D)",)),
            (("subst-check", "zero"), "--trials", ()),
        ],
        ids=["m", "n", "max-order", "seed", "direction", "order", "witness-budget", "trials"],
    )
    def test_in_option(self, sign, before, option, after):
        if not 0 < INT_DIGITS < len(LONG):
            pytest.skip("this interpreter reads integers of any length")
        rc, out, err = run_in_process(*before, option, sign + LONG, *after)
        assert (rc, out) == (2, "")
        assert err == (
            f"error: Invalid value for '{option}': number with {len(LONG)} digits is too long\n"
        )

    @pytest.mark.parametrize("mode", ["machine", "pretty"])
    @pytest.mark.parametrize(
        "expr",
        [
            "{half}*{half}",
            "{half}*{half}*a",
            "op({half}*{half}*D)",
            "cov({half}*{half}*a)",
        ],
    )
    def test_in_output(self, tmp_path, mode, expr):
        half = "9" * 3000
        batch = tmp_path / "batch.txt"
        batch.write_text("cyc(a)\n" + expr.format(half=half) + "\n")
        rc, out, err = run_in_process("--output", mode, "normalize", f"@{batch}")
        first = run_in_process("--output", mode, "normalize", "cyc(a)")[1]
        if not 0 < INT_DIGITS < 2 * len(half):
            assert rc == 0 and out.startswith(first)
            return
        # the first record is written whole and the second not at all
        assert (rc, out) == (4, first)
        assert err == f"error: a number in the result has more than {INT_DIGITS} digits\n"

    @pytest.mark.parametrize(
        "cap, args",
        [
            ("2", ("normalize", f"a_{{x,{ORDER}}}_{{x,{ORDER}}}")),
            (ORDER, ("tderiv", f"cyc(a_{{x,{ORDER}}})")),
            (ORDER, ("normalize", f"op(D^{ORDER}*D^{ORDER})")),
        ],
        ids=["letter-orders", "tderiv", "derivative-powers"],
    )
    def test_derivative_order_over_cap(self, cap, args):
        # each order is as long as the interpreter reads; one over the cap is longer
        rc, out, err = run_in_process("--max-order", cap, *args)
        assert (rc, out) == (4, "") and err.count("\n") == 1
        if INT_DIGITS:
            order = f"of more than {INT_DIGITS} digits"
            assert err == f"error: derivative order {order} exceeds cap {cap}\n"
        else:
            assert err.startswith("error: derivative order ")

    @pytest.mark.parametrize("mode", ["machine", "pretty"])
    def test_derivative_order_in_output(self, mode):
        # one derivative more than the longest order the parser reads
        order = "9" * (INT_DIGITS or 4300)
        rc, out, err = run_in_process("--output", mode, "tderiv", f"cyc(a_{{x,{order}}}*a)")
        if not INT_DIGITS:
            assert rc == 0
            return
        assert (rc, out) == (4, "")
        assert err == f"error: a number in the result has more than {INT_DIGITS} digits\n"
