"""Words, coefficients, signed cyclic normalization, and the closed product."""

import itertools
from fractions import Fraction

import pytest

from cycvar.words import (
    Coefficient,
    FormalSum,
    Letter,
    close,
    concat,
    normalize,
    pass_sign,
    times,
    word_key,
)
from cycvar.jets import JetContext

from oracles import brute_close, brute_normalize, exhaustive_words

CTX = JetContext(fields=1, directions=1)
A = CTX.letter(False, 1)
AX = CTX.shift(A, 1)
B = CTX.letter(True, 1)
BX = CTX.shift(B, 1)


def single(letters, value=1, cyclic=True):
    return FormalSum.single(cyclic, tuple(letters), CTX.const(value))


class TestCoefficient:
    def test_arithmetic(self):
        c = Coefficient.monomial((2,), Fraction(3, 2)) + Coefficient.constant(1, 1)
        d = c * Coefficient.monomial((1,), 2)
        assert d.terms == {(1,): Fraction(2), (3,): Fraction(3)}

    def test_cancellation_drops_entries(self):
        c = Coefficient.constant(5, 1) - Coefficient.constant(5, 1)
        assert not c

    def test_diff(self):
        c = Coefficient.monomial((3,), 2)
        assert c.diff(1).terms == {(2,): Fraction(6)}
        assert not Coefficient.constant(7, 1).diff(1)

    def test_constant_value(self):
        assert Coefficient.constant(Fraction(-2, 3), 1).constant_value() == Fraction(-2, 3)
        assert Coefficient.monomial((1,), 1).constant_value() is None
        assert Coefficient().constant_value() == 0


class TestNormalize:
    def test_even_pair_has_no_sign(self):
        w, s = normalize((AX, A))
        assert (w, s) == ((A, AX), 1)

    def test_odd_pair_picks_up_sign(self):
        w, s = normalize((BX, B))
        assert (w, s) == ((B, BX), -1)

    def test_odd_diagonal_vanishes(self):
        assert normalize((B, B)) == (None, 0)
        assert normalize((BX, BX)) == (None, 0)

    def test_odd_triple_survives(self):
        w, s = normalize((B, B, B))
        assert w == (B, B, B) and s == 1

    def test_empty_and_singleton(self):
        assert normalize(()) == ((), 1)
        assert normalize((B,)) == ((B,), 1)

    def test_matches_brute_normalizer_exhaustively(self):
        alphabet = (A, AX, B, BX)
        for w in exhaustive_words(alphabet, 4):
            got = normalize(w)
            want = brute_normalize(w)
            assert got == want, w

    def test_matches_brute_on_longer_mixed_words(self):
        alphabet = (A, B, BX)
        for w in itertools.product(alphabet, repeat=5):
            assert normalize(w) == brute_normalize(w), w


class TestFormalSum:
    def test_cyclic_merge(self):
        f = single([A, AX]) + single([AX, A])
        assert f == single([A, AX], 2)

    def test_odd_rotation_sign_merge(self):
        f = single([B, BX]) + single([BX, B])
        assert f.is_zero()

    def test_zero_diagonal_dropped_on_entry(self):
        assert single([B, B]).is_zero()

    def test_concat_then_close_agrees_with_brute(self):
        f = FormalSum.single(False, (A, B), CTX.one())
        g = FormalSum.single(False, (BX, A), CTX.x_power(1, 1))
        h = concat(f, g)
        assert close(h) == brute_close(CTX, h)


class TestCut:
    def test_pass_sign_table(self):
        assert pass_sign(A, 3) == 1
        assert pass_sign(B, 3) == 1
        assert pass_sign(B, 2) == -1
        assert pass_sign(B, 1) == 1


class TestTimes:
    def test_single_letters(self):
        f = single([A])
        assert times(f, f) == single([A, A])

    def test_scalar_factor_scales(self):
        one = FormalSum.single(True, (), CTX.const(3))
        f = single([A, B])
        assert times(one, f) == single([A, B], 3)

    def test_commutative_on_sample(self):
        f = single([A, AX]) + single([B, A], 2)
        g = single([A]) - single([B, BX, A])
        assert times(f, g) == times(g, f)

    def test_length_two_pair_averages_over_four_concatenations(self):
        c = CTX.letter(False, 1, (3,))
        d = CTX.letter(False, 1, (4,))
        f = single([A, c])
        g = single([AX, d])
        out = times(f, g)
        quarter = Fraction(1, 4)
        expect = (
            single([A, c, AX, d]).scale(quarter)
            + single([A, c, d, AX]).scale(quarter)
            + single([c, A, AX, d]).scale(quarter)
            + single([c, A, d, AX]).scale(quarter)
        )
        assert out == expect


X = Coefficient.monomial((1,), 1)


def _sum_operands():
    """Two cyclic sums sharing words, so that adding them both merges and
    cancels coefficients."""
    f = single([A, AX], 2) + FormalSum.single(True, (A, A, A), X + CTX.const(3))
    g = single([A, AX], -2) + FormalSum.single(True, (A, A, A), X) + single([B, BX, A])
    return f, g


class TestNoAliasing:
    """Results may share Coefficient objects with their operands, so neither
    computing a result nor writing to it through `add_word` may change an
    operand."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda f, g: f + g,
            lambda f, g: f - g,
            lambda f, g: g + f,
            lambda f, g: -f,
            lambda f, g: f.scale(3),
            lambda f, g: f.scale(X),
        ],
        ids=["add", "sub", "add-swapped", "neg", "scale-int", "scale-coefficient"],
    )
    def test_sum_arithmetic(self, op):
        f, g = _sum_operands()
        before = (repr(f), repr(g))
        out = op(f, g)
        assert (repr(f), repr(g)) == before
        for w, c in list(f.terms.items()) + list(g.terms.items()):
            out.add_word(w, c)
            out.add_word(w, c.diff(1) + c)
        assert (repr(f), repr(g)) == before

    def test_add_word(self):
        f, g = _sum_operands()
        h = f + g
        c = X + CTX.const(1)
        before = (repr(f), repr(g), repr(h), repr(c))
        target = FormalSum(cyclic=True)
        for w in h.terms:
            target.add_word(w, c)
        shared = target + FormalSum(cyclic=True)
        shared_before = repr(shared)
        for w, hc in h.terms.items():
            target.add_word(w, hc)
            target.add_word(w, -c)
        assert (repr(f), repr(g), repr(h), repr(c)) == before
        assert repr(shared) == shared_before

    @pytest.mark.parametrize(
        "op",
        [
            lambda c, d: c + d,
            lambda c, d: c - d,
            lambda c, d: -c,
            lambda c, d: c * d,
            lambda c, d: c * Fraction(-2, 3),
            lambda c, d: 3 * c,
            lambda c, d: c.diff(1),
        ],
        ids=["add", "sub", "neg", "mul", "mul-scalar", "rmul-scalar", "diff"],
    )
    def test_coefficient_arithmetic(self, op):
        c = Coefficient({(0,): 2, (2,): Fraction(1, 2)})
        d = Coefficient({(0,): -2, (1,): 5})
        before = (repr(c), repr(d))
        out = op(c, d)
        assert (repr(c), repr(d)) == before
        out_before = repr(out)
        target = FormalSum.single(False, (A,), out)
        target.add_word((A,), c)
        target.add_word((A,), d)
        target.add_word((A,), -out)
        assert (repr(c), repr(d), repr(out)) == before + (out_before,)
