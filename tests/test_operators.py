"""One-slot operators: action, composition, adjoints."""

import gc
import random

import pytest

from cycvar import corpus
from cycvar.errors import BoundExceeded, PreconditionError
from cycvar.words import Coefficient, FormalSum, close, concat
from cycvar.jets import JetContext, d_power, total_derivative
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.variational import is_trivial

from oracles import reference_adjoint

CTX = JetContext(fields=1, directions=1)
A = CTX.letter(False, 1)
AX = CTX.shift(A, 1)
B = CTX.letter(True, 1)
BX = CTX.shift(B, 1)


def opn(letters, value=1):
    return FormalSum.single(False, tuple(letters), CTX.const(value))


def word_op(letters, side="left"):
    base = DifferentialOperator.identity(CTX)
    if side == "left":
        return base.compose_left(opn(letters))
    return base.compose_right(opn(letters))


D = from_derivative(CTX)
D3 = from_derivative(CTX, 1, 3)
X_COEFF = Coefficient.monomial((1,), 1)

# (fields, directions) shapes of the seeded checks
SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def graded_operator(rng, ctx, terms):
    """Operator whose side words carry odd letters, so that both parities
    of each side word occur."""
    out = DifferentialOperator(ctx)
    for _ in range(terms):
        sigma = [0] * ctx.directions
        for _ in range(rng.randint(0, 3)):
            sigma[rng.randrange(ctx.directions)] += 1
        sides = []
        for _ in range(2):
            length = rng.randint(0, 2)
            sides.append(corpus.open_word(rng, ctx, length, rng.randint(0, length), 1))
        out.add_term(sides[0], tuple(sigma), sides[1], corpus.coefficient(rng, ctx))
    return out


class TestAction:
    def test_left_then_derivative_orders(self):
        # (a.) after D: multiply the derivative; D after (a.): differentiate
        # the product
        a_then_d = D.compose(word_op([A]))
        d_then_a = D.compose_left(opn([A]))
        p = opn([B])
        assert d_then_a.apply(p) == opn([A, BX])
        assert a_then_d.apply(p) == opn([AX, B]) + opn([A, BX])

    def test_apply_keeps_side_words_in_place(self):
        op = word_op([A]).compose_right(opn([AX]))
        assert op.apply(opn([B])) == opn([A, B, AX])

    def test_zero_argument_keeps_no_cycle(self):
        """D applied to the zero sum keeps its D^1 on the argument; that
        image must not be the argument itself, or the argument holds itself
        and only the cyclic garbage collector frees it."""
        gc.collect()
        gc.disable()
        try:
            p = FormalSum(False)
            assert D.apply(p) == FormalSum(False)
            assert all(value is not p for _, value in p._derived.values())
            del p
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rejects_cyclic_argument(self):
        with pytest.raises(PreconditionError):
            D.apply(FormalSum.single(True, (A,), CTX.one()))

    def test_derivative_powers(self):
        assert from_derivative(CTX, 1, 0) == DifferentialOperator.identity(CTX)
        assert from_derivative(CTX, 1, 2) == D.compose(D)
        with pytest.raises(PreconditionError):
            from_derivative(CTX, 1, -1)

    @pytest.mark.parametrize("orders", [(-1,), (1, 2), ()])
    def test_add_term_rejects_a_bad_multi_index(self, orders):
        """A term's multi-index has one nonnegative order per direction,
        as a letter's has."""
        op = DifferentialOperator(CTX)
        with pytest.raises(PreconditionError, match="bad derivative multi-index"):
            op.add_term((), orders, (), CTX.one())
        with pytest.raises(PreconditionError, match="bad derivative multi-index"):
            CTX.letter(False, 1, orders)
        assert op.is_zero()


class TestCompose:
    def test_derivative_after_coordinate(self):
        x_mult = DifferentialOperator.identity(CTX).scale(X_COEFF)
        composed = D.compose(x_mult)
        expect = DifferentialOperator.identity(CTX) + D.scale(X_COEFF)
        assert composed == expect

    def test_coordinate_after_derivative(self):
        x_mult = DifferentialOperator.identity(CTX).scale(X_COEFF)
        assert x_mult.compose(D) == D.scale(X_COEFF)

    def test_matches_sequential_application(self):
        rng = random.Random(11)
        ops = [
            D,
            word_op([A]),
            word_op([B], side="right"),
            D3.scale(X_COEFF),
            D.compose(word_op([A, B])),
        ]
        probes = [opn([B]), opn([A, AX]), opn([B, BX]), opn([], 2)]
        for _ in range(12):
            f = rng.choice(ops)
            g = rng.choice(ops)
            p = rng.choice(probes)
            assert f.compose(g).apply(p) == f.apply(g.apply(p))

    def test_associative(self):
        f, g, h = word_op([A]), D, word_op([B], side="right")
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


class TestAdjoint:
    def test_derivative_is_minus(self):
        assert D.adjoint() == -D
        assert D3.adjoint() == -D3

    def test_left_word_transposes_to_right(self):
        assert word_op([A]).adjoint() == word_op([A], side="right")

    def test_coordinate_symbol(self):
        xd_dx = D.scale(X_COEFF) + D.compose(DifferentialOperator.identity(CTX).scale(X_COEFF))
        assert xd_dx.adjoint() == -xd_dx

    def test_odd_sandwich_is_skew(self):
        sandwich = word_op([B]).compose_right(opn([B]))
        assert sandwich.adjoint() == -sandwich
        assert sandwich.is_skew()

    def test_involution_on_samples(self):
        samples = [
            D,
            D3,
            word_op([A, AX]),
            word_op([B]),
            D.compose(word_op([B]).compose_right(opn([B, A]))),
            D.scale(X_COEFF) + word_op([A]),
        ]
        for op in samples:
            assert op.adjoint().adjoint() == op

    def test_pairing_identity_for_derivative(self):
        p = opn([A, AX])
        q = opn([A])
        lhs = close(concat(p, D.apply(q)))
        rhs = close(concat(q, D.adjoint().apply(p)))
        assert is_trivial(CTX, lhs - rhs)


class TestSlotSumAlgebra:
    """Composition building blocks of seeded operators, some with odd side
    words, agree with acting on seeded open-sum probes, and the terms read
    back from an operator rebuild it."""

    @staticmethod
    def draws(fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(100 * fields + directions)
        ops = [corpus.operator(rng, ctx, terms=3) for _ in range(3)]
        ops += [graded_operator(rng, ctx, terms=2) for _ in range(3)]
        probes = []
        for _ in range(3):
            p = corpus.open_sum(rng, ctx, words=2, max_order=1)
            p.add_word(corpus.open_word(rng, ctx, 2, 1, 1), corpus.coefficient(rng, ctx))
            probes.append(p)
        return ctx, rng, ops, probes

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_derivative_after_is_total_derivative(self, fields, directions):
        ctx, _, ops, probes = self.draws(fields, directions)
        for op in ops:
            for d in range(1, directions + 1):
                after = from_derivative(ctx, d).compose(op)
                for p in probes:
                    assert after.apply(p) == total_derivative(ctx, op.apply(p), d)

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_side_multiplication_is_concatenation(self, fields, directions):
        ctx, rng, ops, probes = self.draws(fields, directions)
        for op in ops:
            w = corpus.open_sum(rng, ctx, words=2, max_order=1)
            w.add_word(corpus.open_word(rng, ctx, 1, 1, 1), corpus.coefficient(rng, ctx))
            for p in probes:
                image = op.apply(p)
                assert op.compose_left(w).apply(p) == concat(w, image)
                assert op.compose_right(w).apply(p) == concat(image, w)

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_compose_is_sequential_application(self, fields, directions):
        _, _, ops, probes = self.draws(fields, directions)
        for f in ops:
            for g in ops[::3]:
                composed = f.compose(g)
                for p in probes:
                    assert composed.apply(p) == f.apply(g.apply(p))

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_terms_rebuild_the_operator(self, fields, directions):
        ctx, _, ops, _ = self.draws(fields, directions)
        for op in ops:
            rebuilt = DifferentialOperator(ctx)
            for (left, orders, right), c in op.terms():
                assert len(orders) == directions and c
                rebuilt.add_term(left, orders, right, c)
            assert rebuilt == op


class TestAdjointReference:
    """The grouped Horner expansion agrees exactly with expanding each term's
    (-D)^s on its own."""

    @pytest.mark.parametrize("fields", [1, 2, 3])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_per_term_expansion(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(1000 * fields + directions)
        for _ in range(20):
            for op in (
                corpus.operator(rng, ctx, terms=3),
                graded_operator(rng, ctx, terms=3),
            ):
                assert op.adjoint() == reference_adjoint(op)


def reference_apply(op, p):
    """`op` applied to `p` one term at a time, each D^sigma by `d_power`."""
    out = FormalSum(cyclic=False)
    for (left, orders, right), c in op.terms():
        for w, pc in d_power(op.ctx, p, orders).terms.items():
            out.add_word(left + w + right, c * pc)
    return out


def apply_or_none(apply, *args):
    """The result of `apply`, or None if the order cap stops it."""
    try:
        return apply(*args)
    except BoundExceeded:
        return None


class TestApplyReference:
    """`apply` prolongs its argument once per call; it agrees, term order
    included, with differentiating the argument anew for every term, and
    under an order cap it stops exactly when that reference does."""

    @staticmethod
    def draws(fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(2000 + 10 * fields + directions)
        ops = [corpus.operator(rng, ctx, terms=4) for _ in range(8)]
        ops += [graded_operator(rng, ctx, terms=4) for _ in range(4)]
        probes = [corpus.open_sum(rng, ctx, words=2, max_order=1) for _ in range(3)]
        # a pure-x argument: its derivatives run out to zero
        probes.append(FormalSum.single(False, (), ctx.x_power(directions, 1)))
        return ctx, ops, probes

    @pytest.mark.parametrize("fields", [1, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_per_term_d_power(self, fields, directions):
        _, ops, probes = self.draws(fields, directions)
        for op in ops:
            for p in probes:
                got, want = op.apply(p), reference_apply(op, p)
                assert list(got.terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("fields", [1, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_cap_stops_where_the_reference_stops(self, fields, directions):
        _, ops, probes = self.draws(fields, directions)
        stopped = set()
        for cap in range(5):
            capped = JetContext(fields, directions, max_order=cap)
            for op in ops:
                op = DifferentialOperator(capped, op.words)
                for p in probes:
                    got = apply_or_none(op.apply, p)
                    assert got == apply_or_none(reference_apply, op, p)
                    stopped.add(got is None)
        assert stopped == {True, False}
