"""Tests of the benchmark itself: seeded generators, the checkers, the
reference calculus and the tracing wrappers.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def _text(name: str, seed: int, records: int = 40) -> str:
    workload = workloads.WORKLOADS[name](seed)
    return workload.text + "\n".join(r.text for r in itertools.islice(workload.records(), records))


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_seeded(name):
    assert _text(name, 7) == _text(name, 7)
    assert _text(name, 7) != _text(name, 8)


def _first(workload, kind):
    return next(r for r in workload.records() if r.kind == kind)


def test_brackets_checker_fails_a_false_identity():
    workload = workloads.Brackets(0)
    record = next(workload.records())
    assert workload.check(record, record.run(), {}) is None
    assert workload.check(record, False, {}) is not None


@pytest.mark.parametrize("kind", ["accept", "reject"])
def test_hamiltonian_checker_fails_a_flipped_verdict(kind):
    workload = workloads.Hamiltonian(0)
    record = _first(workload, kind)
    cert = record.run()
    assert workload.check(record, cert, {}) is None
    flipped = dataclasses.replace(cert, hamiltonian=not cert.hamiltonian)
    assert workload.check(record, flipped, {}) is not None


def test_hamiltonian_checker_fails_a_rejection_without_witness():
    workload = workloads.Hamiltonian(0)
    record = _first(workload, "reject")
    cert = dataclasses.replace(record.run(), witness=None)
    assert workload.check(record, cert, {}) is not None


@pytest.mark.parametrize("kind", ["normalize", "times", "tderiv", "euler", "adjoint", "couple", "poisson"])
def test_cli_checker_fails_a_changed_output(kind):
    workload = workloads.Cli(0)
    record = _first(workload, kind)
    code, out, err = record.run()
    assert workload.check(record, (code, out, err), {}) is None
    head, _, tail = out.rpartition("term: ")
    changed = head + "term: 7/13*" + tail if tail else out + "term: 1 | a\n"
    assert workload.check(record, (code, changed, err), {}) is not None
    assert workload.check(record, (1, out, "error: boom"), {}) is not None


def test_judge_fails_raised_and_wrong_operations():
    workload = workloads.Brackets(0)
    record = next(workload.records())
    assert run.judge(workload, record, True, {}) is None
    assert run.judge(workload, record, False, {}) is not None
    assert run.judge(workload, record, ValueError("boom"), {}) is not None


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_leave_results_unchanged(name):
    import cycvar.words

    workload = workloads.WORKLOADS[name](3)
    records = list(itertools.islice(workload.records(), workload.cycle_length))
    plain = [r.run() for r in records]
    original = cycvar.words.normalize
    tracer = Tracer()
    tracer.install()
    try:
        assert cycvar.words.normalize is not original
        traced = []
        for record in records:
            tracer.begin_op(record.index)
            traced.append(record.run())
            tracer.end_op()
    finally:
        tracer.restore()
    assert cycvar.words.normalize is original
    assert traced == plain
    assert tracer.calls["words.normalize"] > 0
    assert all(span is not None for span in tracer.spans)
    metrics = tracer.metrics(len(records), sum(s[2] - s[1] for s in tracer.spans if s[0] == "op"), 0.1, 1.0)
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share") and k.count(".") == 1)
    assert 0 < shares <= 1


def test_scaling_to_nominal_host_speed():
    nominal = run.REFERENCE_NOMINAL_S
    reference = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 2 * nominal)]
    assert run.scaled([(0.5, 3.0), (1.5, 3.0), (2.5, 3.0)], reference) == pytest.approx([2.0, 1.5, 1.5])


def test_tail_percentile_ladder():
    assert run.tail_percentile(5000, 99.0) == 99.0
    assert run.tail_percentile(5000, 95.0) == 95.0
    assert run.tail_percentile(500, 99.0) == 95.0
    assert run.tail_percentile(150, 95.0) == 90.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0], 50) == 1.5


def test_reference_calculus_agrees_with_the_library():
    from cycvar import FormalSum, JetContext, euler_derivative, times, total_derivative, word_text

    ctx = JetContext()
    rng = random.Random(11)

    def lib(word, value):
        out = FormalSum(True)
        out.add_word(tuple(ctx.letter(odd, 1, (order,)) for odd, order in word), ctx.const(value))
        return out

    def terms(f):
        return {word_text(w, ctx): c.constant_value() for w, c in f.terms.items()}

    for _ in range(200):
        word = tuple((rng.random() < 0.4, rng.randint(0, 3)) for _ in range(rng.randint(1, 6)))
        other = tuple((rng.random() < 0.4, rng.randint(0, 2)) for _ in range(rng.randint(1, 4)))
        ref = O.close({word: Fraction(3, 2)})
        assert O.sum_terms(ref) == terms(lib(word, Fraction(3, 2)))
        assert O.sum_terms(O.derivative(ref, cyclic=True)) == terms(total_derivative(ctx, lib(word, Fraction(3, 2))))
        for kind in (O.A, O.B):
            lib_euler = euler_derivative(ctx, lib(word, Fraction(3, 2)), kind, 1)
            assert O.sum_terms(O.euler(ref, kind)) == terms(lib_euler)
        product = times(lib(word, Fraction(3, 2)), lib(other, 2))
        assert O.sum_terms(O.times(ref, O.close({other: Fraction(2)}))) == terms(product)
