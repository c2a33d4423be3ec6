"""One-slot operators: action, composition, adjoints."""

import random

import pytest

from cycvar import corpus
from cycvar.errors import PreconditionError
from cycvar.words import Coefficient, FormalSum, close, concat
from cycvar.jets import JetContext
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


class TestAction:
    def test_left_then_derivative_orders(self):
        # (a.) after D: multiply the derivative; D after (a.): differentiate
        # the product
        a_then_d = word_op([A]).compose_derivative(1)
        d_then_a = D.compose_left(opn([A]))
        p = opn([B])
        assert d_then_a.apply(p) == opn([A, BX])
        assert a_then_d.apply(p) == opn([AX, B]) + opn([A, BX])

    def test_apply_keeps_side_words_in_place(self):
        op = word_op([A]).compose_right(opn([AX]))
        assert op.apply(opn([B])) == opn([A, B, AX])

    def test_rejects_cyclic_argument(self):
        with pytest.raises(PreconditionError):
            D.apply(FormalSum.single(True, (A,), CTX.one()))


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
            word_op([A, B]).compose_derivative(1),
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
        xd_dx = D.scale(X_COEFF) + DifferentialOperator.identity(CTX).scale(
            X_COEFF
        ).compose_derivative(1)
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
            word_op([B]).compose_right(opn([B, A])).compose_derivative(1),
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


class TestAdjointReference:
    """The grouped Horner expansion agrees exactly with expanding each term's
    (-D)^s on its own."""

    @staticmethod
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

    @pytest.mark.parametrize("fields", [1, 2, 3])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_per_term_expansion(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(1000 * fields + directions)
        for _ in range(20):
            for op in (
                corpus.operator(rng, ctx, terms=3),
                self.graded_operator(rng, ctx, terms=3),
            ):
                assert op.adjoint() == reference_adjoint(op)
