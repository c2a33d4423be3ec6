"""Total-differential operators with word coefficients on both sides of the
argument slot, their composition building blocks, and the graded adjoint."""

from __future__ import annotations

from .errors import PreconditionError
from .words import (
    Coefficient,
    FormalSum,
    Letter,
    Word,
    odd_count,
    word_key,
)
from .jets import JetContext, d_power, minus_d_series

# Field index 0 is reserved for the argument-slot marker used internally by
# the adjoint; real letters are 1-based.
SLOT_INDEX = 0


def _slot(orders) -> Letter:
    orders = tuple(orders)
    return Letter(False, SLOT_INDEX, sum(orders), orders)


class DifferentialOperator:
    """Sum of terms  coeff * left * D^orders(argument) * right  acting on
    open-word sums.  `left` and `right` are words; the x-dependence lives in
    the coefficient."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: JetContext):
        self.ctx = ctx
        self.terms: dict[tuple[Word, tuple[int, ...], Word], Coefficient] = {}

    @classmethod
    def zero(cls, ctx: JetContext) -> "DifferentialOperator":
        return cls(ctx)

    @classmethod
    def identity(cls, ctx: JetContext) -> "DifferentialOperator":
        out = cls(ctx)
        out.add_term((), ctx.zero_orders(), (), ctx.one())
        return out

    def add_term(self, left: Word, orders, right: Word, coeff: Coefficient) -> None:
        if not coeff:
            return
        key = (tuple(left), tuple(orders), tuple(right))
        acc = self.terms.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc:
            self.terms[key] = acc
        else:
            self.terms.pop(key, None)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialOperator)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("DifferentialOperator is not hashable")

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        out = DifferentialOperator(self.ctx)
        for (l, s, r), c in self.terms.items():
            out.add_term(l, s, r, c)
        for (l, s, r), c in other.terms.items():
            out.add_term(l, s, r, c)
        return out

    def __neg__(self) -> "DifferentialOperator":
        out = DifferentialOperator(self.ctx)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        return self + (-other)

    def scale(self, factor) -> "DifferentialOperator":
        out = DifferentialOperator(self.ctx)
        for k, c in self.terms.items():
            scaled = c * factor
            if scaled:
                out.terms[k] = scaled
        return out

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0][1]), kv[0][1], word_key(kv[0][0]), word_key(kv[0][2])),
        )

    # -- action ----------------------------------------------------------

    def apply(self, p: FormalSum) -> FormalSum:
        """Apply to an open-word sum."""
        if p.cyclic:
            raise PreconditionError("operators act on open sums")
        out = FormalSum(cyclic=False)
        for (left, orders, right), c in self.terms.items():
            dp = d_power(self.ctx, p, orders)
            for w, pc in dp.terms.items():
                out.add_word(left + w + right, c * pc)
        return out

    # -- composition building blocks ------------------------------------

    def compose_derivative(self, direction: int = 1) -> "DifferentialOperator":
        """D composed after this operator (differentiate the whole output)."""
        ctx = self.ctx
        ctx.check_direction(direction)
        out = DifferentialOperator(ctx)
        for (left, orders, right), c in self.terms.items():
            dc = c.diff(direction)
            if dc:
                out.add_term(left, orders, right, dc)
            for i in range(len(left)):
                shifted = left[:i] + (ctx.shift(left[i], direction),) + left[i + 1:]
                out.add_term(shifted, orders, right, c)
            d = direction - 1
            raised = orders[:d] + (orders[d] + 1,) + orders[d + 1:]
            out.add_term(left, raised, right, c)
            for i in range(len(right)):
                shifted = right[:i] + (ctx.shift(right[i], direction),) + right[i + 1:]
                out.add_term(left, orders, shifted, c)
        return out

    def compose_left(self, words: FormalSum) -> "DifferentialOperator":
        """Left multiplication by an open-word sum, composed after this."""
        if words.cyclic:
            raise PreconditionError("left factor must be an open sum")
        out = DifferentialOperator(self.ctx)
        for (left, orders, right), c in self.terms.items():
            for w, wc in words.terms.items():
                out.add_term(w + left, orders, right, wc * c)
        return out

    def compose_right(self, words: FormalSum) -> "DifferentialOperator":
        """Right multiplication by an open-word sum, composed after this."""
        if words.cyclic:
            raise PreconditionError("right factor must be an open sum")
        out = DifferentialOperator(self.ctx)
        for (left, orders, right), c in self.terms.items():
            for w, wc in words.terms.items():
                out.add_term(left, orders, right + w, c * wc)
        return out

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """General composition self after other:  p -> self(other(p))."""
        if self.ctx != other.ctx:
            raise PreconditionError("operator composition needs a shared context")
        ctx = self.ctx
        out = DifferentialOperator(ctx)
        for (left, orders, right), c in self.terms.items():
            piece = other
            for direction, e in enumerate(orders, start=1):
                for _ in range(e):
                    piece = piece.compose_derivative(direction)
            if left:
                piece = piece.compose_left(FormalSum.single(False, left, ctx.one()))
            if right:
                piece = piece.compose_right(FormalSum.single(False, right, ctx.one()))
            piece = piece.scale(c)
            for key, pc in piece.terms.items():
                out.add_term(key[0], key[1], key[2], pc)
        return out

    # -- adjoint ---------------------------------------------------------

    def adjoint(self) -> "DifferentialOperator":
        """The operator adjoint with respect to the closed pairing: each term
        coeff * L * D^s(p) * R  transposes to the expansion of
        p -> (-D)^s (coeff * R * p * L), with a sign transporting the graded
        side words past the pairing.  The carriers  coeff * R * slot * L  are
        grouped by s across terms and expanded in Horner form."""
        ctx = self.ctx
        slot = _slot(ctx.zero_orders())
        carriers: dict[tuple[int, ...], FormalSum] = {}
        for (left, orders, right), c in self.terms.items():
            k_left = odd_count(left)
            k_total = k_left + odd_count(right)
            flip = k_left % 2 and (k_total - 1) % 2
            part = carriers.setdefault(orders, FormalSum(cyclic=False))
            part.add_word(right + (slot,) + left, -c if flip else c)
        out = DifferentialOperator(ctx)
        for w, wc in minus_d_series(ctx, carriers).terms.items():
            pos = next(
                i for i, l in enumerate(w) if l.index == SLOT_INDEX and not l.odd
            )
            out.add_term(w[:pos], w[pos].orders, w[pos + 1:], wc)
        return out

    def is_skew(self) -> bool:
        return self.adjoint() == -self

    def __repr__(self):
        return f"DifferentialOperator({self.sorted_terms()!r})"


def from_derivative(ctx: JetContext, direction: int = 1, power: int = 1) -> DifferentialOperator:
    """The operator D^power along one direction."""
    out = DifferentialOperator.identity(ctx)
    for _ in range(power):
        out = out.compose_derivative(direction)
    return out
