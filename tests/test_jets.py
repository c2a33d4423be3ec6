"""Jet contexts, total derivatives, and evolutionary fields."""

import random
import sys

import pytest

from cycvar import corpus
from cycvar.errors import BoundExceeded, PreconditionError
from cycvar.words import FormalSum
from cycvar.jets import (
    JetContext,
    d_power,
    evolutionary_apply,
    graded_commutator,
    make_section,
    minus_d_series,
    partial_jet,
    total_derivative,
)

from oracles import reference_partial_jet

CTX = JetContext(fields=1, directions=1)
A = CTX.letter(False, 1)
AX = CTX.shift(A, 1)
AXX = CTX.shift(AX, 1)
B = CTX.letter(True, 1)
BX = CTX.shift(B, 1)


def cyc(letters, value=1):
    return FormalSum.single(True, tuple(letters), CTX.const(value))


def opn(letters, value=1):
    return FormalSum.single(False, tuple(letters), CTX.const(value))


class TestContext:
    def test_letter_validation(self):
        with pytest.raises(PreconditionError):
            CTX.letter(False, 0)
        with pytest.raises(PreconditionError):
            CTX.letter(False, 2)
        with pytest.raises(PreconditionError):
            CTX.letter(False, 1, (1, 1))

    def test_order_cap(self):
        capped = JetContext(fields=1, directions=1, max_order=2)
        capped.letter(False, 1, (2,))
        with pytest.raises(BoundExceeded):
            capped.letter(False, 1, (3,))
        with pytest.raises(BoundExceeded):
            capped.shift(capped.letter(False, 1, (2,)), 1)

    def test_over_long_cap_is_named_by_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        cap = 10**limit
        with pytest.raises(BoundExceeded) as exc:
            JetContext(max_order=cap).check_order(cap + 1)
        assert str(exc.value) == (
            f"derivative order of more than {limit} digits exceeds cap of more than {limit} digits"
        )
        with pytest.raises(BoundExceeded, match="^derivative order 3 exceeds cap 2$"):
            JetContext(max_order=2).check_order(3)

    def test_direction_check(self):
        with pytest.raises(PreconditionError):
            CTX.check_direction(2)


class TestTotalDerivative:
    def test_leibniz_on_cyclic_square(self):
        assert total_derivative(CTX, cyc([A, A])) == cyc([A, AX], 2)

    def test_leibniz_on_open_square_keeps_positions(self):
        out = total_derivative(CTX, opn([A, A]))
        assert out == opn([AX, A]) + opn([A, AX])

    def test_coefficient_product_rule(self):
        f = FormalSum.single(False, (A,), CTX.x_power(1, 1))
        out = total_derivative(CTX, f)
        assert out == opn([A]) + FormalSum.single(False, (AX,), CTX.x_power(1, 1))

    def test_cap_applies(self):
        capped = JetContext(fields=1, directions=1, max_order=1)
        f = FormalSum.single(False, (capped.letter(False, 1, (1,)),), capped.one())
        with pytest.raises(BoundExceeded):
            total_derivative(capped, f)

    def test_d_power_and_negation(self):
        assert d_power(CTX, opn([A]), (2,)) == opn([AXX])
        assert minus_d_series(CTX, {(1,): opn([A])}) == opn([AX], -1)
        assert minus_d_series(CTX, {(2,): opn([A])}) == opn([AXX])

    def test_minus_d_series_matches_separate_powers(self):
        ctx = JetContext(fields=1, directions=2)
        a = ctx.letter(False, 1)
        b = ctx.letter(True, 1, (0, 1))
        x2 = ctx.x_power(2, 1)
        parts = {
            (0, 0): FormalSum.single(False, (a, b), ctx.one()),
            (1, 0): FormalSum.single(False, (b,), x2),
            (2, 1): FormalSum.single(False, (a, a), ctx.const(3)),
            (0, 3): FormalSum.single(False, (b, a), x2),
        }
        want = FormalSum(cyclic=False)
        for orders, part in parts.items():
            term = d_power(ctx, part, orders)
            want = want + (-term if sum(orders) % 2 else term)
        assert minus_d_series(ctx, parts) == want
        assert minus_d_series(ctx, {}) == FormalSum(cyclic=False)


class TestPartialJet:
    def test_even_cuts(self):
        f = cyc([A, AX])
        assert partial_jet(CTX, f, A) == opn([AX])
        assert partial_jet(CTX, f, AX) == opn([A])

    def test_odd_cut_sign(self):
        f = cyc([B, BX])
        assert partial_jet(CTX, f, B) == opn([BX])
        assert partial_jet(CTX, f, BX) == opn([B], -1)

    def test_requires_cyclic(self):
        with pytest.raises(PreconditionError):
            partial_jet(CTX, opn([A]), A)

    @pytest.mark.parametrize("fields", [1, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_per_occurrence_reference(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(300 + 10 * fields + directions)
        # no drawn word holds a letter of order 3 (corpus orders are at most 2)
        absent = ctx.letter(True, fields, (3,) + (0,) * (directions - 1))
        checked = 0
        for _ in range(8):
            for odd_degree in range(4):
                f = corpus.cyclic_density(rng, ctx, odd_degree, words=3)
                assert partial_jet(ctx, f, absent).is_zero()
                for target in sorted({letter for w in f.terms for letter in w}):
                    got = partial_jet(ctx, f, target)
                    assert got == reference_partial_jet(f, target)
                    checked += bool(got)
        assert checked


class TestSections:
    def test_parity_inferred(self):
        s = make_section(CTX, even=[opn([A, A])])
        assert s.parity == 0
        t = make_section(CTX, even=[opn([B])], odd=[opn([A])])
        assert t.parity == 1

    def test_mixed_parity_rejected(self):
        with pytest.raises(PreconditionError):
            make_section(CTX, even=[opn([A]) + opn([B])])
        with pytest.raises(PreconditionError):
            make_section(CTX, even=[opn([A, A])], odd=[opn([A])])

    def test_zero_section_needs_parity(self):
        with pytest.raises(PreconditionError):
            make_section(CTX)
        assert make_section(CTX, parity=1).parity == 1

    def test_odd_only_section_is_odd(self):
        assert make_section(CTX, odd=[opn([A])]).parity == 1

    def test_declared_parity_checked(self):
        with pytest.raises(PreconditionError):
            make_section(CTX, even=[opn([A, A])], parity=1)


class TestEvolutionaryApply:
    def test_even_field_on_cyclic_square(self):
        x = make_section(CTX, even=[opn([A, A])])
        assert evolutionary_apply(CTX, x, cyc([A, A])) == cyc([A, A, A], 2)

    def test_derivative_of_component_inserted(self):
        x = make_section(CTX, even=[opn([A, A])])
        out = evolutionary_apply(CTX, x, opn([AX]))
        assert out == opn([AX, A]) + opn([A, AX])

    def test_odd_field_anticommutes_past_odd_prefix(self):
        q = make_section(CTX, odd=[opn([A])])
        assert q.parity == 1
        out = evolutionary_apply(CTX, q, opn([B, B]))
        assert out == opn([A, B]) - opn([B, A])

    def test_commutator_of_even_fields(self):
        x = make_section(CTX, even=[opn([A, A])])
        y = make_section(CTX, even=[FormalSum.single(False, (A,), CTX.x_power(1, 1))])
        z = graded_commutator(CTX, x, y)
        assert z.parity == 0
        assert z.even[0] == FormalSum.single(False, (A, A), CTX.x_power(1, 1)).scale(-1)
        assert z.odd[0].is_zero()
