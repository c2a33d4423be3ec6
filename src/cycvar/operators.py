"""Total-differential operators with word coefficients on both sides of the
argument slot, their composition building blocks, and the graded adjoint.

A term  coeff * left * D^orders(argument) * right  is the open word
left + (slot,) + right, where the slot letter is the even letter of the
reserved field index 0 with derivative multi-index `orders`.  An operator is
stored as the open word sum of its terms, so the word-sum calculus serves it
too: sums and scalings are those of the words, and multiplying by words on
either side is concatenation.
`terms()` reads the sum back as ((left, orders, right), coeff) pairs.
"""

from __future__ import annotations

from .errors import PreconditionError
from .words import (
    Coefficient,
    FormalSum,
    Letter,
    Word,
    _Accumulator,
    concat,
    odd_count,
    word_key,
)
from .jets import JetContext, _horner, _kept, _series_sum, d_power

# Field index 0 is reserved for the argument-slot letter; real letters are
# 1-based.
SLOT_INDEX = 0


def _slot(ctx: JetContext, orders) -> Letter:
    """The interned slot letter of D^orders, checked like the multi-index of
    any letter; its order counts against the cap."""
    return ctx._letters[False, SLOT_INDEX, ctx.check_orders(orders)]


def _split(letters: Word) -> tuple[Word, Letter, Word]:
    """The (left, slot letter, right) of an operator word, which holds
    exactly one slot letter."""
    for i, letter in enumerate(letters):
        if letter.index == SLOT_INDEX:
            return letters[:i], letter, letters[i + 1:]


class DifferentialOperator:
    """Sum of terms  coeff * left * D^orders(argument) * right  acting on
    open-word sums, held as the open sum `words` of the words
    left + slot + right.  `left` and `right` are words; the x-dependence
    lives in the coefficient.

    `is_skew` keeps its verdict on `words` (see `jets._kept`), which seals
    them: `add_term` refuses an operator whose skewness was read."""

    __slots__ = ("ctx", "words")

    def __init__(self, ctx: JetContext, words: FormalSum | None = None):
        self.ctx = ctx
        self.words = FormalSum(cyclic=False) if words is None else words

    @classmethod
    def identity(cls, ctx: JetContext) -> "DifferentialOperator":
        return from_derivative(ctx, 1, 0)

    def add_term(self, left: Word, orders, right: Word, coeff: Coefficient) -> None:
        self.words.add_word(tuple(left) + (_slot(self.ctx, orders),) + tuple(right), coeff)

    def terms(self):
        """The terms as ((left, orders, right), coeff) pairs."""
        for letters, coeff in self.words.terms.items():
            left, slot, right = _split(letters)
            yield (left, slot.orders, right), coeff

    def is_zero(self) -> bool:
        return self.words.is_zero()

    def __bool__(self) -> bool:
        return bool(self.words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialOperator)
            and self.ctx == other.ctx
            and self.words == other.words
        )

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return DifferentialOperator(self.ctx, self.words + other.words)

    def __neg__(self) -> "DifferentialOperator":
        return DifferentialOperator(self.ctx, -self.words)

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return DifferentialOperator(self.ctx, self.words - other.words)

    def scale(self, factor) -> "DifferentialOperator":
        return DifferentialOperator(self.ctx, self.words.scale(factor))

    def sorted_terms(self):
        return sorted(
            self.terms(),
            key=lambda kv: (sum(kv[0][1]), kv[0][1], word_key(kv[0][0]), word_key(kv[0][2])),
        )

    # -- action ----------------------------------------------------------

    def apply(self, p: FormalSum) -> FormalSum:
        """Apply to an open-word sum.  Each D^sigma of the argument is its
        `d_power`, kept on it under sigma (see `jets._kept`), so a sum met
        again, such as a covector component, is not prolonged again."""
        if p.cyclic:
            raise PreconditionError("operators act on open sums")
        ctx = self.ctx
        out = _Accumulator(False)
        for letters, c in self.words.terms.items():
            left, slot, right = _split(letters)
            orders = slot.orders
            image = _kept(p, orders, ctx, d_power, ctx, p, orders) if any(orders) else p
            if image.terms:
                out.add_products(left, image.terms, right, 1, c)
        return out.finish()

    # -- composition building blocks ------------------------------------

    def compose_left(self, words: FormalSum) -> "DifferentialOperator":
        """Left multiplication by an open-word sum, composed after this."""
        if words.cyclic:
            raise PreconditionError("left factor must be an open sum")
        return DifferentialOperator(self.ctx, concat(words, self.words))

    def compose_right(self, words: FormalSum) -> "DifferentialOperator":
        """Right multiplication by an open-word sum, composed after this."""
        if words.cyclic:
            raise PreconditionError("right factor must be an open sum")
        return DifferentialOperator(self.ctx, concat(self.words, words))

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """General composition self after other:  p -> self(other(p)), which
        is this operator applied to the words of `other`."""
        if self.ctx != other.ctx:
            raise PreconditionError("operator composition needs a shared context")
        return DifferentialOperator(self.ctx, self.apply(other.words))

    # -- adjoint ---------------------------------------------------------

    def adjoint(self) -> "DifferentialOperator":
        """The operator adjoint with respect to the closed pairing: each term
        coeff * L * D^s(p) * R  transposes to the expansion of
        p -> (-D)^s (coeff * R * p * L), with a sign transporting the graded
        side words past the pairing.  The carriers  coeff * R * slot * L  are
        grouped by s across terms, as integer stores, and expanded in Horner
        form; the expansion is already the adjoint's word sum."""
        ctx = self.ctx
        slot = _slot(ctx, ctx.zero_orders())
        carriers = []
        for (left, orders, right), c in self.terms():
            k_left = odd_count(left)
            k_total = k_left + odd_count(right)
            flip = k_left % 2 and (k_total - 1) % 2
            carriers.append((c, ((orders, right + (slot,) + left, -1 if flip else 1),)))
        return DifferentialOperator(ctx, _series_sum(*_horner(ctx, carriers)))

    def is_skew(self) -> bool:
        """Whether the adjoint is minus this operator; kept on `words`."""
        return _kept(self.words, "skew", self.ctx, _skewness, self)

    def __repr__(self):
        return f"DifferentialOperator({self.sorted_terms()!r})"


def _skewness(op: DifferentialOperator) -> bool:
    """`is_skew`, computed afresh."""
    return op.adjoint() == -op


def from_derivative(ctx: JetContext, direction: int = 1, power: int = 1) -> DifferentialOperator:
    """The operator D^power along one direction."""
    ctx.check_direction(direction)
    if power < 0:
        raise PreconditionError(f"derivative power must be nonnegative, got {power}")
    orders = [0] * ctx.directions
    orders[direction - 1] = power
    return DifferentialOperator(
        ctx, FormalSum.single(False, (_slot(ctx, orders),), ctx.one())
    )
