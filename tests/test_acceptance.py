"""Acceptance gate: every shipped guarantee, one printed line per criterion.

Each criterion asserts the corresponding built-in suite (the same code the
`cycvar selftest` command runs) and, where an independent oracle exists,
cross-checks against it.  Run with `pytest -v` to see the lines.
"""

import itertools
import subprocess
import sys

from cycvar.words import FormalSum, normalize
from cycvar.jets import JetContext
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.variational import Covector, is_trivial
from cycvar.schouten import evaluate, multivector_from_operator
from cycvar import selftest as suites

from oracles import brute_normalize, exhaustive_words, pairing_bivector_value

CTX = JetContext(fields=1, directions=1)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"\n[C{number:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def _suite(fn):
    result = fn(0)
    assert result.passed, f"suite {result.number} ({result.name}): {result.detail}"
    return result


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cycvar.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_c01_cyclic_normal_form():
    ok = False
    try:
        _suite(suites.suite_cyclic_normalize)
        # independent oracle: exhaustive rotation minimizer with the
        # block-move sign rule, over every word up to length 4
        alphabet = (
            CTX.letter(False, 1),
            CTX.letter(False, 1, (1,)),
            CTX.letter(True, 1),
            CTX.letter(True, 1, (1,)),
        )
        for w in exhaustive_words(alphabet, 4):
            assert normalize(w) == brute_normalize(w), w
        ok = True
    finally:
        _report(1, "cyclic normal form with parity signs", ok)


def test_c02_product_worked_example():
    ok = False
    try:
        _suite(suites.suite_product_example)
        ok = True
    finally:
        _report(2, "closed product reproduces the worked example", ok)


def test_c03_product_laws():
    ok = False
    try:
        _suite(suites.suite_product_laws)
        ok = True
    finally:
        _report(3, "product is commutative but not associative", ok)


def test_c04_bracket_antisymmetry():
    ok = False
    try:
        _suite(suites.suite_bracket_antisymmetry)
        # independent oracle: degree-2 evaluation equals the pairing form
        d_op = from_derivative(CTX)
        shift = (
            d_op.compose(
                DifferentialOperator.identity(CTX).compose_left(
                    FormalSum.single(False, (CTX.letter(False, 1),), CTX.one())
                )
            )
            + from_derivative(CTX).compose_right(
                FormalSum.single(False, (CTX.letter(False, 1),), CTX.one())
            )
        )
        covs = [
            Covector((FormalSum.single(False, (), CTX.one()),)),
            Covector((FormalSum.single(False, (CTX.letter(False, 1),), CTX.one()),)),
            Covector((FormalSum.single(False, (CTX.letter(False, 1, (2,)),), CTX.one()),)),
        ]
        for op in (d_op, shift):
            mv = multivector_from_operator(CTX, op)
            for p, q in itertools.combinations(covs, 2):
                direct = evaluate(CTX, mv, (p, q)).density
                assert is_trivial(CTX, direct - pairing_bivector_value(CTX, op, p, q))
        ok = True
    finally:
        _report(4, "graded bracket antisymmetry", ok)


def test_c05_bracket_identities():
    ok = False
    try:
        _suite(suites.suite_bracket_identities)
        ok = True
    finally:
        _report(5, "bracket Jacobi identity and flow morphism", ok)


def test_c06_hamiltonian_family():
    ok = False
    try:
        _suite(suites.suite_hamiltonian_family)
        ok = True
    finally:
        _report(6, "classical operator family certified Hamiltonian", ok)


def test_c07_defect_equivalence():
    ok = False
    try:
        _suite(suites.suite_defect_equivalence)
        ok = True
    finally:
        _report(7, "master defect equivalent to sampled Jacobi defects", ok)


def test_c08_substitution_trials():
    ok = False
    try:
        _suite(suites.suite_substitution)
        ok = True
    finally:
        _report(8, "randomized substitution trials", ok)


def test_c09_adjoint_laws():
    ok = False
    try:
        _suite(suites.suite_adjoint_laws)
        ok = True
    finally:
        _report(9, "adjoint involution and pairing transport", ok)


def test_c10_command_line():
    ok = False
    try:
        # the selftest command must run every suite and exit cleanly
        rc, out, _ = run_cli("selftest")
        assert rc == 0, out
        for number in range(1, 10):
            assert f"[{number}] " in out, out
        assert "9/9 suites passed" in out

        # canonical print is parseable and stable through the round trip
        rc, first, _ = run_cli("normalize", "cyc(b_x*b) - cyc(a*b*b*a_x)")
        assert rc == 0
        rc, second, _ = run_cli("normalize", "--", first.strip())
        assert rc == 0 and second == first

        # machine output is byte-identical across reruns
        args = ("--output", "machine", "--seed", "2", "subst-check", "adjoint-pairing", "--trials", "5")
        assert run_cli(*args) == run_cli(*args)

        # error discipline: parse, precondition, identity, bound
        assert run_cli("normalize", "cyc(")[0] == 1
        assert run_cli("poisson", "op(a*D)", "cyc(a*a)", "cyc(a*a)")[0] == 2
        assert run_cli("subst-check", "jacobi-flow", "--trials", "2", "--op", "op(a*D + D*R(a))")[0] == 3
        assert run_cli("--max-order", "1", "normalize", "cyc(a_xx)")[0] == 4
        ok = True
    finally:
        _report(10, "command line: selftest, round trip, determinism, exit codes", ok)
