"""Golden transcript of the command line, in both output modes.

Every command runs in-process through `cycvar.cli.main` and its exit code,
stdout and stderr are compared byte for byte with `cli_transcript.txt`.
The transcript pins machine records, pretty text, batch separators, error
lines and every `--help` page, so a refactor of the CLI cannot move an
output byte unseen.  A change that means to alter output regenerates the
file with `PYTHONPATH=src python tests/test_cli_golden.py` and says why.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import cycvar.cli as C

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")

# Input files, written to a scratch working directory before the run.
FILES = {
    "batch.txt": (
        "# one record per expression line\n"
        "cyc(a*a_x)\n"
        "\n"
        "2*cyc(b*b_x) - cyc(b_x*b)  # comment after an expression\n"
        "op(x*D + D*x)\n"
        "3/2 - x\n"
        "a*b_x\n"
        "cov(a_xx)\n"
        "sec(a*a)\n"
    ),
    "sums.txt": "cyc(a*a)\na*b_x\n",
    "cyclic.txt": "cyc(a*a*a)\ncyc(b*b_x*a)\n",
    "ops.txt": "op(D)\nop(x*D + D*x)\n",
    "bad.txt": "cyc(a*a_x)\ncyc(a*\ncyc(b)\n",
    "empty.txt": "# nothing here\n\n",
    "cfg.json": json.dumps({"m": 2, "seed": 3}) + "\n",
    "unknown.json": json.dumps({"fields": 2}) + "\n",
}

H = "op(a*D + D*R(a))"  # skew and not Hamiltonian

# Each case runs once with `--output machine` and once with `--output pretty`.
CASES = [
    # normalize: every value kind, batches and errors
    ["normalize", "cyc(a_x*a) + cyc(a*a_x)"],
    ["normalize", "a*b_x - 2*x*b_x*a"],
    ["normalize", "3/2 - x^2"],
    ["normalize", "0"],
    ["normalize", "cyc(a) - cyc(a)"],
    ["normalize", "op(D^3 + x*D*1 + 1*D*x)"],
    ["normalize", "cov(a_xx)"],
    ["normalize", "sec(a*a)"],
    ["--m", "2", "--n", "2", "normalize", "cov(a1_{x^2,1}; x2*b1*b2)"],
    ["--m", "2", "--n", "2", "normalize", "sec(a2*a1; b1_{x^2,2})"],
    # orders (1,0) and (0,2): total order and multi-index order disagree
    ["--n", "2", "normalize", "cyc(b*a_{x^2,2}*a_{x^1,1}) + 2*cyc(a_{x^1,1}*a_{x^2,2})"],
    # products of letter runs with scalars, divisors, groups and operators
    ["normalize", "2*a*b_x/3 - a*(b + a_x)*b"],
    ["normalize", "op(a*b*D + D*R(a*b))"],
    ["--n", "2", "normalize", "op(x2*a*b_{x^2,1}*D_2 - L(b*a)*R(a*a_x)*D_1)"],
    ["normalize", "a*b_{y}*a"],
    ["normalize", "@batch.txt"],
    ["normalize", "@bad.txt"],
    ["normalize", "@empty.txt"],
    ["normalize", "@missing.txt"],
    ["normalize", "cyc(a*"],
    ["--max-order", "2", "normalize", "cyc(a_{x,5})"],
    ["--m", "0", "normalize", "cyc(a)"],
    ["--config", "cfg.json", "normalize", "cyc(a2*a1)"],
    ["--config", "unknown.json", "normalize", "cyc(a)"],
    ["no-such-command"],
    # products and derivatives
    ["times", "cyc(a)", "cyc(a)"],
    ["times", "cyc(b*b_x)", "cyc(b)"],
    ["times", "@sums.txt", "cyc(a)"],
    ["--n", "2", "times", "cyc(a_{x^2,2}*b)", "cyc(a_{x^1,1}*b*a)"],
    ["tderiv", "--order", "2", "cyc(a*a)"],
    ["tderiv", "--order", "0", "cyc(a*a)"],
    ["tderiv", "3*x"],
    ["tderiv", "@sums.txt"],
    ["--n", "2", "tderiv", "--direction", "2", "a*b_{x^2,1}"],
    ["tderiv", "op(D)"],
    ["tderiv", "--order", "-3", "cyc(a*a)"],
    ["euler", "cyc(a*a*a)"],
    ["euler", "--wrt", "b", "--side", "right", "x*cyc(b*b_x)"],
    ["euler", "@cyclic.txt"],
    ["--m", "2", "euler", "--wrt", "a2", "cyc(a1*a2*a2_x)"],
    ["euler", "--wrt", "c", "cyc(a)"],
    ["is-trivial", "cyc(a*a_x)"],
    ["is-trivial", "@cyclic.txt"],
    ["adjoint", "op(x*D + D*x)"],
    ["adjoint", "@ops.txt"],
    # pairings and brackets
    ["couple", "cov(a_xx)", "sec(a*a)"],
    ["--m", "2", "couple", "cov(a1; b1*b2)", "sec(a2; b1_x)"],
    ["qfield", "cyc(b*b_x)/2"],
    ["qfield", "@cyclic.txt"],
    ["--m", "2", "--n", "2", "qfield", "cyc(b1*b2_{x^2,1}) + x2*cyc(a1*b2*b1_x)"],
    ["schouten", "cyc(b*b_x)/2", "cyc(a*a*a)"],
    ["evaluate", "cyc(b*b_x)/2", "cov(1)", "cov(x)"],
    ["poisson", "op(D)", "cyc(a*a)/2", "cyc(a*a*a)/3"],
    ["poisson", "op(a*D)", "cyc(a*a)", "cyc(a*a)"],
    ["jacobi", "op(D)", "cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_xx)"],
    ["jacobi", H, "cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_xx)"],
    # decisions, certificates and harnesses
    ["is-hamiltonian", "op(D + D^3)"],
    ["is-hamiltonian", H],
    ["is-hamiltonian", "--no-witness", H],
    ["is-hamiltonian", "--witness-budget", "-1", H],
    # the order cap ends the witness search, not the run
    ["--max-order", "2", "is-hamiltonian", H],
    ["witness", "op(D)", "cov(a)", "cov(a*a)"],
    ["witness", H, "cov(a)", "cov(a*a)"],
    ["subst-check", "zero", "--trials", "3"],
    ["--seed", "6", "subst-check", "bivector-alternation", "--trials", "4", "--op", "op(D + D^3)"],
    ["subst-check", "adjoint-pairing", "--trials", "2", "--covectors", "x"],
    ["subst-check", "jacobi-flow", "--trials", "2", "--op", H],
    ["subst-check", "zero", "--trials", "0"],
    ["selftest", "--suites", "1,2"],
    ["--max-order", "-1", "selftest", "--suites", "1"],
    ["selftest", "--suites", "12"],
]

# Help pages do not depend on the output mode and run once each.
HELP_CASES = [[], ["--help"]] + [[name, "--help"] for name in sorted(C.COMMANDS)]


def _mask(text: str) -> str:
    """Hide the wall-clock seconds that pretty `selftest` prints per suite."""
    return re.sub(r"\(\d+\.\d\ds\)", "(<elapsed>s)", text)


def run_case(argv: list[str], out: io.StringIO, err: io.StringIO) -> str:
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            C.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return (
        f"$ {shlex.join(['cycvar', *argv])}\n"
        f"[exit {code}]\n"
        f"[stdout]\n{_mask(out.getvalue())}"
        f"[stderr]\n{err.getvalue()}\n"
    )


def transcript(workdir: Path) -> str:
    """Run every case with `workdir` as the working directory."""
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    parts = [f"# file {name}\n{text}\n" for name, text in FILES.items()]
    # one pair of buffers for every call, as a process has one stdout
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for args in CASES:
            for mode in ("machine", "pretty"):
                parts.append(run_case(["--output", mode, *args], out, err))
        for args in HELP_CASES:
            parts.append(run_case(args, out, err))
    finally:
        os.chdir(cwd)
    return "".join(parts)


def test_transcript_matches(tmp_path):
    actual = transcript(tmp_path)
    expected = TRANSCRIPT.read_text(encoding="utf-8")
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            "cli_transcript.txt",
            "this run",
        )
        raise AssertionError("CLI output moved:\n" + "".join(diff))


def test_every_command_is_covered():
    ran = {arg for args in CASES for arg in args if arg in C.COMMANDS}
    assert ran == set(C.COMMANDS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        TRANSCRIPT.write_text(transcript(Path(tmp)), encoding="utf-8")
    sys.exit(0)
