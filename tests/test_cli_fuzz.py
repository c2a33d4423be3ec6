"""Fuzzed command-line input: every expression and every integer option
value either works or exits with a documented code and a one-line message.

The texts join tokens of the expression grammar at random, so most are
malformed.  Numbers have at most two digits and derivative powers are
fixed tokens, so no draw does unbounded work.  Option values come from a
small fixed set whose only large number is too long to read, so orders,
trials and sizes stay small too.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cycvar.cli as C

TOKENS = [
    "a", "b", "a1", "a2", "b2", "a_x", "b_xx", "a_{x,3}", "a_{x^2,1}",
    "x", "x2", "x^2", "D", "D^2", "D_2",
    "cyc", "cov", "sec", "op", "R", "L",
    "(", ")", "(", ")", "+", "-", "*", "/", ";", "^", "$",
]

TEXTS = st.lists(
    st.sampled_from(TOKENS) | st.integers(0, 99).map(str), max_size=20
).map(" ".join)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            C.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("options", [[], ["--m", "2", "--n", "2"]], ids=["m1n1", "m2n2"])
@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
def test_exit_code_and_one_error_line(options, text):
    code, err = run(["--output", "machine", *options, "normalize", "--", text])
    assert code in range(5), (text, code)
    if code == 0:
        assert err == "", text
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# a number is read only if it is short; an interpreter with no digit limit
# would read the long one and differentiate or draw that many times
OPTION_VALUES = ["-1", "0", "1", "2", "x", "1.5", ""] + (["9" * (INT_DIGITS + 1)] if INT_DIGITS else [])
GLOBAL_OPTIONS = ["--m", "--n", "--max-order", "--seed"]
# each command with its integer options and its arguments
COMMANDS = [
    ("normalize", [], ["cyc(a*a_x)"]),
    ("tderiv", ["--direction", "--order"], ["cyc(a*a_x)"]),
    ("is-hamiltonian", ["--witness-budget"], ["op(D)"]),
    ("subst-check", ["--trials"], ["zero"]),
]


@st.composite
def option_argv(draw):
    """An argument list setting a random subset of the integer options."""
    def options(names):
        chosen = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
        return [part for name in chosen for part in (name, draw(st.sampled_from(OPTION_VALUES)))]

    command, names, args = draw(st.sampled_from(COMMANDS))
    return ["--output", "machine", *options(GLOBAL_OPTIONS), command, *options(names), *args]


@settings(max_examples=300, deadline=None)
@given(argv=option_argv())
def test_option_values_exit_code_and_one_error_line(argv):
    code, err = run(argv)
    assert code in range(5), (argv, code)
    if code == 0:
        assert err == "", argv
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err[:300])
        # an option value is never echoed whole when it is too long to read
        assert len(err) < 200, (argv, err[:300])
