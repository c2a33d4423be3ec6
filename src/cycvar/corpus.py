"""Seeded random generators for words, densities, multivectors, covectors,
and operators.  Everything is driven by an explicit random.Random so runs
are reproducible bit for bit."""

from __future__ import annotations

import random
from fractions import Fraction

from .words import Coefficient, FormalSum, normalize
from .jets import JetContext
from .operators import DifferentialOperator
from .schouten import Multivector, normalize_multivector
from .variational import Covector, Functional

_VALUES = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


def coefficient(rng: random.Random, ctx: JetContext, max_x_degree: int = 1) -> Coefficient:
    out = Coefficient()
    for _ in range(rng.randint(1, 2)):
        exps = [0] * ctx.directions
        if max_x_degree:
            exps[rng.randrange(ctx.directions)] = rng.randint(0, max_x_degree)
        out = out + Coefficient.monomial(exps, rng.choice(_VALUES))
    if not out:
        out = ctx.one()
    return out


def letter(rng, ctx: JetContext, odd: bool, max_order: int = 2):
    orders = [0] * ctx.directions
    budget = rng.randint(0, max_order)
    for _ in range(budget):
        orders[rng.randrange(ctx.directions)] += 1
    return ctx.letter(odd, rng.randint(1, ctx.fields), tuple(orders))


def open_word(
    rng, ctx: JetContext, length: int, odd_letters: int = 0, max_order: int = 2
):
    kinds = [True] * odd_letters + [False] * (length - odd_letters)
    rng.shuffle(kinds)
    return tuple(letter(rng, ctx, odd, max_order) for odd in kinds)


def open_sum(
    rng,
    ctx: JetContext,
    words: int = 2,
    max_len: int = 2,
    max_order: int = 2,
    max_x_degree: int = 1,
) -> FormalSum:
    out = FormalSum(cyclic=False)
    for _ in range(words):
        out.add_word(
            open_word(rng, ctx, rng.randint(1, max_len), 0, max_order),
            coefficient(rng, ctx, max_x_degree),
        )
    return out


def cyclic_density(
    rng,
    ctx: JetContext,
    odd_degree: int,
    words: int = 2,
    max_len: int = 4,
    max_order: int = 2,
    max_x_degree: int = 1,
) -> FormalSum:
    """Homogeneous cyclic density with the requested count of odd letters per
    word.  Redraws words that normalize to zero."""
    out = FormalSum(cyclic=True)
    for _ in range(words):
        for _attempt in range(20):
            length = rng.randint(max(odd_degree, 1), max_len)
            w = open_word(rng, ctx, length, odd_degree, max_order)
            if normalize(w)[1]:
                out.add_word(w, coefficient(rng, ctx, max_x_degree))
                break
    return out


def multivector(
    rng,
    ctx: JetContext,
    degree: int,
    words: int = 2,
    max_len: int = 4,
    max_order: int = 2,
) -> Multivector:
    for _attempt in range(20):
        density = cyclic_density(rng, ctx, degree, words, max_len, max_order)
        if density or degree == 0:
            return normalize_multivector(ctx, density, degree=degree)
    return normalize_multivector(ctx, FormalSum(cyclic=True), degree=degree)


def functional(
    rng, ctx: JetContext, words: int = 2, max_len: int = 3, max_order: int = 2
) -> Functional:
    return Functional(
        ctx, cyclic_density(rng, ctx, 0, words, max_len, max_order)
    )


def covector(
    rng, ctx: JetContext, jet_dependent: bool = True, max_order: int = 2
) -> Covector:
    comps = []
    for _ in range(ctx.fields):
        comp = FormalSum(cyclic=False)
        if jet_dependent:
            for _ in range(rng.randint(1, 2)):
                comp.add_word(
                    open_word(rng, ctx, rng.randint(1, 2), 0, max_order),
                    coefficient(rng, ctx),
                )
        else:
            comp.add_word((), coefficient(rng, ctx, max_x_degree=2))
        comps.append(comp)
    return Covector(tuple(comps))


def operator(
    rng,
    ctx: JetContext,
    terms: int = 2,
    max_sigma: int = 3,
    max_word: int = 2,
    max_order: int = 1,
) -> DifferentialOperator:
    """Random one-slot operator with short even side words."""
    out = DifferentialOperator(ctx)
    for _ in range(terms):
        sigma = [0] * ctx.directions
        for _ in range(rng.randint(0, max_sigma)):
            sigma[rng.randrange(ctx.directions)] += 1
        left = open_word(rng, ctx, rng.randint(0, max_word), 0, max_order)
        right = open_word(rng, ctx, rng.randint(0, max_word), 0, max_order)
        out.add_term(left, tuple(sigma), right, coefficient(rng, ctx))
    return out
