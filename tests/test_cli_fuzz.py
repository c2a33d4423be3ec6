"""Fuzzed command-line input: every expression either works or exits with a
documented code and a one-line message.

The texts join tokens of the expression grammar at random, so most are
malformed.  Numbers have at most two digits and derivative powers are
fixed tokens, so no draw does unbounded work.
"""

import contextlib
import io

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
