"""Independent reference computations used to cross-check the library.

Everything here is deliberately written by a different route than the
package code: the rotation sign comes from a block-transposition count
rather than letter-by-letter transport, substitution is assembled directly
on words rather than through operator terms, and bivector evaluation goes
through the pairing formula rather than through contraction of the density.
The Euler derivative and the adjoint are expanded one letter occurrence (one
operator term) at a time, each with its own power of (-D), rather than
grouped in Horner form, and the cyclic partial derivative rotates each word
to every occurrence of its letter with a `block_rotations` sign.  The Jacobi defect is computed one triple at a
time, every inner bracket's covector on its own, {h_k, h_i} as well as
{h_i, h_k}, and the witness search is the plain loop over it, with nothing
reused between triples.  The eager Schouten bracket puts every result,
intermediate ones included, in standard form, and the reference commutator
of fields joins whole field actions with the sums' `+` and `-`.
Coefficient arithmetic is redone on plain dicts whose values are all
Fractions, whole numbers included.  The reference printer names every
letter occurrence through `letter_text` afresh and prints every
coefficient, constants included, monomial by monomial.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from cycvar.words import (
    Coefficient,
    FormalSum,
    Letter,
    odd_count,
    pass_sign,
)
from cycvar.jets import GeneratingSection, JetContext, d_power, evolutionary_apply, total_derivative
from cycvar.lang import letter_text
from cycvar.variational import Covector, coupling, covector_of, is_trivial
from cycvar.operators import SLOT_INDEX, DifferentialOperator
from cycvar.schouten import Multivector, normalize_multivector, q_field


def copy_sum(f: FormalSum) -> FormalSum:
    """A new sum with the terms of `f` and nothing derived from it kept, so
    what the library derives from it is computed afresh."""
    out = FormalSum(f.cyclic)
    out.terms = dict(f.terms)
    return out


def block_rotations(letters):
    """Every rotation of a word with its sign, each sign computed as one
    block move: the r leading letters hop over the n-r trailing ones, and
    only odd letters interact, so the sign is (-1)^(moved_odd * remaining_odd).
    """
    total_odd = sum(1 for l in letters if l.odd)
    out = []
    for r in range(len(letters)):
        moved_odd = sum(1 for l in letters[:r] if l.odd)
        sign = -1 if (moved_odd * (total_odd - moved_odd)) % 2 else 1
        out.append((letters[r:] + letters[:r], sign))
    return out


def brute_normalize(letters):
    """Canonical representative of a signed necklace by exhaustive rotation:
    the least rotation by length, then letterwise by parity, field index,
    total derivative order and multi-index, with its `block_rotations` sign.
    """
    letters = tuple(letters)
    if not letters:
        return (), 1
    candidates = {}
    for rotated, sign in block_rotations(letters):
        key = (len(rotated), tuple((l.odd, l.index, sum(l.orders), l.orders) for l in rotated))
        entry = candidates.setdefault(key, (rotated, set()))
        entry[1].add(sign)
    best_key = min(candidates)
    word, signs = candidates[best_key]
    if len(signs) == 2:
        return None, 0
    return word, signs.pop()


def brute_close(ctx: JetContext, f: FormalSum) -> FormalSum:
    """Close an open sum using the brute normalizer only."""
    out = FormalSum(cyclic=True)
    for w, c in f.terms.items():
        word, sign = brute_normalize(w)
        if word is None:
            continue
        acc = out.terms.get(word)
        scaled = c * sign
        acc = scaled if acc is None else acc + scaled
        if acc:
            out.terms[word] = acc
        else:
            out.terms.pop(word, None)
    return out


def reference_times(ctx: JetContext, f: FormalSum, g: FormalSum) -> FormalSum:
    """The averaged product of cyclic sums by brute force: every rotation
    pair of every word pair, weighted by 1/(n1*n2) and both `block_rotations`
    signs, closed through `brute_normalize`.  An empty word counts as one
    rotation of itself, so it acts as a scalar factor."""
    products = FormalSum(cyclic=False)
    for w1, c1 in f.terms.items():
        for w2, c2 in g.terms.items():
            rots1 = block_rotations(w1) or [((), 1)]
            rots2 = block_rotations(w2) or [((), 1)]
            weight = Fraction(1, len(rots1) * len(rots2))
            for r1, s1 in rots1:
                for r2, s2 in rots2:
                    products.add_word(r1 + r2, c1 * c2 * (weight * s1 * s2))
    return brute_close(ctx, products)


def pairing_bivector_value(
    ctx: JetContext, op: DifferentialOperator, p: Covector, q: Covector
) -> FormalSum:
    """Value of the antisymmetric 2-form attached to an operator, computed
    straight from the pairing:  (<p, A q> - <q, A p>) / 2."""
    lhs = coupling(ctx, p, tuple(op.apply(c) for c in q.components))
    rhs = coupling(ctx, q, tuple(op.apply(c) for c in p.components))
    return (lhs - rhs).scale(Fraction(1, 2))


def exhaustive_words(alphabet, max_len: int):
    """Every tuple over the alphabet up to the given length, including the
    empty word."""
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (l,) for w in layer for l in alphabet]
        out.extend(layer)
    return out


def _fraction_collect(pairs) -> dict[tuple[int, ...], Fraction]:
    """Sum (monomial, value) pairs in Fractions only, dropping zeros."""
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, value in pairs:
        out[mono] = out.get(mono, Fraction(0)) + Fraction(value)
    return {m: v for m, v in out.items() if v}


def fraction_terms(c: Coefficient) -> dict[tuple[int, ...], Fraction]:
    """A coefficient's terms with every value as a Fraction."""
    return _fraction_collect(c.terms.items())


def fraction_add(c: Coefficient, d: Coefficient, sign: int = 1) -> dict:
    """Terms of c + sign * d, in Fractions only."""
    return _fraction_collect(
        [(m, Fraction(v)) for m, v in c.terms.items()]
        + [(m, sign * Fraction(v)) for m, v in d.terms.items()]
    )


def fraction_product(c: Coefficient, d: Coefficient) -> dict:
    """Terms of c * d, in Fractions only."""
    return _fraction_collect(
        (tuple(a + b for a, b in zip(m1, m2)), Fraction(v1) * Fraction(v2))
        for m1, v1 in c.terms.items()
        for m2, v2 in d.terms.items()
    )


def fraction_scale(c: Coefficient, k) -> dict:
    """Terms of k * c for a rational k, in Fractions only."""
    return _fraction_collect((m, Fraction(v) * Fraction(k)) for m, v in c.terms.items())


def fraction_diff(c: Coefficient, direction: int) -> dict:
    """Terms of the derivative along a 1-based direction, in Fractions only."""
    d = direction - 1
    return _fraction_collect(
        (m[:d] + (m[d] - 1,) + m[d + 1:], Fraction(v) * m[d])
        for m, v in c.terms.items()
        if m[d]
    )


def minus_d_power(ctx: JetContext, f: FormalSum, orders) -> FormalSum:
    """(-D)^orders applied to one sum."""
    f = d_power(ctx, f, orders)
    return -f if sum(orders) % 2 else f


def reference_euler_derivative(
    ctx: JetContext, f: FormalSum, odd_kind: bool, index: int = 1, side: str = "left"
) -> FormalSum:
    """Variational derivative by cutting at each occurrence of the family and
    applying (-D) to that occurrence's multi-index on its own."""
    out = FormalSum(cyclic=False)
    for w, c in f.terms.items():
        total_odd = odd_count(w)
        word_sign = -1 if side == "right" and odd_kind and (total_odd - 1) % 2 else 1
        sign = 1
        for i, letter in enumerate(w):
            if letter.odd == odd_kind and letter.index == index:
                opened = FormalSum.single(False, w[i + 1:] + w[:i], c * (sign * word_sign))
                for w2, c2 in minus_d_power(ctx, opened, letter.orders).terms.items():
                    out.add_word(w2, c2)
            sign *= pass_sign(letter, total_odd)
    return out


def reference_cut_parts(f: FormalSum, odd_kind: bool, index: int = 1, side: str = "left") -> dict:
    """The words cut open at each occurrence of one letter family, signed as
    in `reference_euler_derivative`, added up by the multi-index of the
    removed letter: {orders: open sum}."""
    parts: dict[tuple[int, ...], FormalSum] = {}
    for w, c in f.terms.items():
        total_odd = odd_count(w)
        sign = -1 if side == "right" and odd_kind and (total_odd - 1) % 2 else 1
        for i, letter in enumerate(w):
            if letter.odd == odd_kind and letter.index == index:
                parts.setdefault(letter.orders, FormalSum(cyclic=False)).add_word(w[i + 1:] + w[:i], c * sign)
            sign *= pass_sign(letter, total_odd)
    return parts


def reference_carriers(op: DifferentialOperator) -> dict:
    """The adjoint's carriers coeff * R * slot * L, signed as in
    `reference_adjoint`, added up by the multi-index s of their terms:
    {orders: open sum}."""
    slot = Letter(False, SLOT_INDEX, 0, op.ctx.zero_orders())
    parts: dict[tuple[int, ...], FormalSum] = {}
    for (left, orders, right), c in op.terms():
        k_left = odd_count(left)
        sign = -1 if k_left % 2 and (k_left + odd_count(right) - 1) % 2 else 1
        parts.setdefault(orders, FormalSum(cyclic=False)).add_word(right + (slot,) + left, c * sign)
    return parts


def reference_horner(ctx: JetContext, parts: dict) -> FormalSum:
    """The (-D)-series of open sums by multi-index, P_0 - D(P_1 - D(...))
    along each direction, the last direction folded first, with the sums'
    own arithmetic and `total_derivative`.  Every partial sum is a finished
    sum, so a word that cancelled is never differentiated, and under an
    order cap it raises on exactly the words that are left."""
    for d in range(ctx.directions, 0, -1):
        grouped: dict[tuple[int, ...], dict[int, FormalSum]] = {}
        for orders, part in parts.items():
            grouped.setdefault(orders[: d - 1], {})[orders[d - 1]] = part
        parts = {}
        for prefix, by_count in grouped.items():
            top = max(by_count)
            acc = by_count[top]
            for k in range(top - 1, -1, -1):
                acc = by_count.get(k, FormalSum(cyclic=False)) - total_derivative(ctx, acc, d)
            parts[prefix] = acc
    return parts.get((), FormalSum(cyclic=False))


def reference_partial_jet(f: FormalSum, target: Letter) -> FormalSum:
    """Cyclic partial derivative by one rotation per occurrence of the exact
    letter: the word is rotated to start there, with its `block_rotations`
    sign, and the letter dropped."""
    out = FormalSum(cyclic=False)
    for w, c in f.terms.items():
        for r, (rotated, sign) in enumerate(block_rotations(w)):
            if w[r] == target:
                out.add_word(rotated[1:], c * sign)
    return out


def reference_adjoint(op: DifferentialOperator) -> DifferentialOperator:
    """Adjoint by expanding (-D)^s (coeff * R * slot * L) for each term on its
    own."""
    ctx = op.ctx
    out = DifferentialOperator(ctx)
    for (left, orders, right), c in op.terms():
        k_left = odd_count(left)
        sign = -1 if k_left % 2 and (k_left + odd_count(right) - 1) % 2 else 1
        slot = Letter(False, SLOT_INDEX, 0, ctx.zero_orders())
        carrier = FormalSum.single(False, right + (slot,) + left, c * sign)
        for w, wc in minus_d_power(ctx, carrier, orders).terms.items():
            pos = next(i for i, l in enumerate(w) if l.index == SLOT_INDEX and not l.odd)
            out.add_term(w[:pos], w[pos].orders, w[pos + 1:], wc)
    return out


def reference_jacobi_terms(ctx: JetContext, op: DifferentialOperator, hs) -> list[FormalSum]:
    """The three nested brackets {{h_a, h_b}, h_c} of the Jacobi cyclic sum
    over (a, b, c) = (0, 1, 2), (1, 2, 0), (2, 0, 1), for one triple of
    functionals: each inner bracket's covector is computed from the
    covectors and operator images of its own arguments, never read from
    what a functional keeps."""
    ps = [covector_of(ctx, h.density) for h in hs]
    images = [tuple(op.apply(c) for c in p.components) for p in ps]
    return [
        coupling(ctx, covector_of(ctx, coupling(ctx, ps[a], images[b])), images[c])
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]


def reference_jacobi_defect(ctx: JetContext, op: DifferentialOperator, hs) -> FormalSum:
    """The Jacobi defect density of one triple of functionals: the sum of its
    `reference_jacobi_terms`."""
    return sum(reference_jacobi_terms(ctx, op, hs), FormalSum(cyclic=True))


def reference_witness_search(ctx: JetContext, op: DifferentialOperator, pool, budget: int):
    """The witness search as a plain loop: the first of at most `budget`
    triples from `pool`, in `combinations_with_replacement` order, whose
    `reference_jacobi_defect` is nontrivial, with that defect; else
    (None, None)."""
    for tried, triple in enumerate(itertools.combinations_with_replacement(pool, 3)):
        if tried >= budget:
            break
        density = reference_jacobi_defect(ctx, op, triple)
        if not is_trivial(ctx, density):
            return triple, density
    return None, None


def eager_schouten_bracket(ctx: JetContext, xi: Multivector, eta: Multivector) -> Multivector:
    """The bracket renormalized on return: the field of the first argument
    acts on the density of the second, then the standard form is taken."""
    density = evolutionary_apply(ctx, q_field(ctx, xi), eta.density)
    return normalize_multivector(ctx, density, degree=max(xi.degree + eta.degree - 1, 0))


def eager_check_skew(ctx: JetContext, xi: Multivector, eta: Multivector) -> bool:
    lhs = eager_schouten_bracket(ctx, xi, eta).density
    rhs = eager_schouten_bracket(ctx, eta, xi).density
    sign = -1 if ((xi.degree - 1) * (eta.degree - 1)) % 2 else 1
    return is_trivial(ctx, lhs + rhs.scale(sign))


def eager_check_jacobi(
    ctx: JetContext, xi: Multivector, eta: Multivector, omega: Multivector
) -> bool:
    bracket = eager_schouten_bracket
    sign = -1 if ((xi.degree - 1) * (eta.degree - 1)) % 2 else 1
    lhs = bracket(ctx, xi, bracket(ctx, eta, omega)).density
    mid = bracket(ctx, bracket(ctx, xi, eta), omega).density
    rhs = bracket(ctx, eta, bracket(ctx, xi, omega)).density
    return is_trivial(ctx, lhs - mid - rhs.scale(sign))


def reference_graded_commutator(
    ctx: JetContext, x: GeneratingSection, y: GeneratingSection
) -> GeneratingSection:
    """The commutator X(Y) - (-1)^{|X||Y|} Y(X) of two fields, each component
    joined from two whole `evolutionary_apply` results by the sums' own `+`
    and `-`."""

    def component(cx: FormalSum, cy: FormalSum) -> FormalSum:
        forward = evolutionary_apply(ctx, x, cy)
        backward = evolutionary_apply(ctx, y, cx)
        return forward + backward if x.parity and y.parity else forward - backward

    even = tuple(component(cx, cy) for cx, cy in zip(x.even, y.even))
    odd = tuple(component(cx, cy) for cx, cy in zip(x.odd, y.odd))
    return GeneratingSection(even, odd, (x.parity + y.parity) % 2)


def eager_check_field_morphism(ctx: JetContext, xi: Multivector, eta: Multivector) -> bool:
    commutator = reference_graded_commutator(ctx, q_field(ctx, xi), q_field(ctx, eta))
    return q_field(ctx, eager_schouten_bracket(ctx, xi, eta)) == commutator


# -- reference printer -------------------------------------------------------


def _reference_mono(exps, value, ctx: JetContext) -> tuple[str, str]:
    """Sign ("" or "-") and unsigned text of one scalar monomial."""
    xs = []
    for direction, e in enumerate(exps, start=1):
        if e:
            name = "x" if ctx.directions == 1 else f"x{direction}"
            xs.append(name if e == 1 else f"{name}^{e}")
    value = Fraction(value)
    digits = [] if abs(value) == 1 and xs else [str(abs(value))]
    return ("-" if value < 0 else ""), "*".join(digits + xs)


def _reference_join(pieces) -> str:
    """(sign, text) pairs joined as `t1 + t2 - t3`."""
    out = ""
    for i, (sign, text) in enumerate(pieces):
        if i == 0:
            out = sign + text
        else:
            out += (" - " if sign else " + ") + text
    return out


def reference_coefficient_text(c: Coefficient, ctx: JetContext) -> str:
    if not c.terms:
        return "0"
    monos = sorted(c.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return _reference_join(_reference_mono(exps, value, ctx) for exps, value in monos)


def reference_word_text(letters, ctx: JetContext) -> str:
    return "*".join(letter_text(l, ctx) for l in letters) if letters else "1"


def _reference_term(coeff: Coefficient, body, ctx: JetContext) -> tuple[str, str]:
    if len(coeff.terms) == 1:
        ((exps, value),) = coeff.terms.items()
        sign, mono = _reference_mono(exps, value, ctx)
        if body is None:
            return sign, mono
        return sign, body if mono == "1" else f"{mono}*{body}"
    text = reference_coefficient_text(coeff, ctx)
    return "", f"({text})" if body is None else f"({text})*{body}"


def _by_word(f: FormalSum):
    return sorted(f.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


def reference_sum_text(f: FormalSum, ctx: JetContext) -> str:
    """Canonical text of a word sum, as `lang.sum_text` prints it."""
    if not f.terms:
        return "0"
    pieces = []
    for letters, coeff in _by_word(f):
        word = reference_word_text(letters, ctx)
        body = f"cyc({word})" if f.cyclic else (word if letters else None)
        pieces.append(_reference_term(coeff, body, ctx))
    return _reference_join(pieces)


def _reference_sigma(orders, ctx: JetContext) -> str | None:
    if ctx.directions == 1:
        k = orders[0]
        return None if k == 0 else "D" if k == 1 else f"D^{k}"
    parts = [
        f"D_{d}" if e == 1 else f"D_{d}^{e}"
        for d, e in enumerate(orders, start=1)
        if e
    ]
    return "*".join(parts) or None


def _operator_terms(op: DifferentialOperator):
    return sorted(
        op.terms(),
        key=lambda kv: (sum(kv[0][1]), kv[0][1], (len(kv[0][0]), kv[0][0]), (len(kv[0][2]), kv[0][2])),
    )


def reference_operator_text(op: DifferentialOperator, ctx: JetContext) -> str:
    """Canonical text of an operator, as `lang.operator_text` prints it."""
    if op.is_zero():
        return "op(0)"
    pieces = []
    for (left, orders, right), coeff in _operator_terms(op):
        factors = []
        if left:
            factors.append(reference_word_text(left, ctx))
        if right:
            factors.append(f"R({reference_word_text(right, ctx)})")
        sigma = _reference_sigma(orders, ctx)
        if sigma:
            factors.append(sigma)
        pieces.append(_reference_term(coeff, "*".join(factors) or None, ctx))
    return "op(" + _reference_join(pieces) + ")"


def reference_covector_text(p: Covector, ctx: JetContext) -> str:
    return "cov(" + "; ".join(reference_sum_text(c, ctx) for c in p.components) + ")"


def reference_sum_term_lines(f: FormalSum, ctx: JetContext) -> list[str]:
    """The `term:` lines of a machine-mode sum record."""
    return [
        f"term: {reference_coefficient_text(coeff, ctx)} | {reference_word_text(letters, ctx)}"
        for letters, coeff in _by_word(f)
    ]


def reference_operator_term_lines(op: DifferentialOperator, ctx: JetContext) -> list[str]:
    """The `term:` lines of a machine-mode operator record."""
    return [
        f"term: {reference_coefficient_text(coeff, ctx)} | {reference_word_text(left, ctx)}"
        f" | {','.join(map(str, orders))} | {reference_word_text(right, ctx)}"
        for (left, orders, right), coeff in _operator_terms(op)
    ]
