"""Multivectors as cyclic densities in the paired odd letters, the graded
bracket between them, their evaluation on covectors, and the structural
identity checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .words import FormalSum, _Accumulator
from .jets import (
    GeneratingSection,
    JetContext,
    _act,
    _kept,
    evolutionary_apply,
    graded_commutator,
    make_section,
)
from .operators import DifferentialOperator
from .variational import Functional, _pair, coupling, is_trivial, variations


@dataclass(frozen=True)
class Multivector:
    """A homogeneous cyclic density of fixed degree in the odd letters,
    considered up to total divergences.

    It stores the density alone: `bivector_operator` extracts the one-slot
    operator of a degree-2 multivector on request, and `q_field` keeps the
    field on the density.
    """

    ctx: JetContext
    degree: int
    density: FormalSum

    def is_zero(self) -> bool:
        return self.density.is_zero()


def odd_letter_sums(ctx: JetContext, value=1) -> tuple[FormalSum, ...]:
    """The one-letter open sums value * b_1, ..., value * b_m of the odd
    letters; a closing scalar rides on them instead of a pass over the
    result."""
    return tuple(
        FormalSum.single(False, (ctx.letter(True, j),), ctx.const(value))
        for j in range(1, ctx.fields + 1)
    )


def odd_degree(density: FormalSum, expected: int | None = None) -> int:
    """The odd degree of a homogeneous density: that of its words, else
    `expected`, else 0.  Raises PreconditionError if the words mix degrees
    or their degree is not `expected`."""
    degrees = density.odd_degrees()
    if len(degrees) > 1:
        raise PreconditionError(f"density mixes odd degrees {sorted(degrees)}")
    if not degrees:
        return 0 if expected is None else expected
    found = degrees.pop()
    if expected is not None and expected != found:
        raise PreconditionError(f"density has degree {found}, expected {expected}")
    return found


def normalize_multivector(
    ctx: JetContext, density: FormalSum, degree: int | None = None, factor: int | Fraction = 1
) -> Multivector:
    """Re-present a homogeneous density in the standard form with one bare
    odd letter out front, scaling by the degree.  A zero density and a
    nonzero total divergence get the same standard form: an empty density.
    The result is that of `factor` times the density; for degree >= 1 the
    factor rides on the closing letters, with no pass over the density.

    For degree >= 1 the standard form is empty exactly when the density is
    a total divergence: it is built from the odd variations alone, and it
    differs from the density (times the degree) by a total divergence, so it
    has the same variations along every family."""
    if not density.cyclic:
        raise PreconditionError("a multivector density must be cyclic")
    degree = odd_degree(density, degree)
    if degree == 0:
        return Multivector(ctx, degree, density if factor == 1 else density.scale(factor))
    odd_variations = variations(ctx, density, odd_kind=True)
    return Multivector(ctx, degree, _standard_form(ctx, odd_variations, degree, factor))


def _standard_form(ctx: JetContext, odd_variations, degree: int, factor) -> FormalSum:
    """The standard form of `factor` times a density of degree >= 1, from its
    odd variations alone, each closed with factor/degree times its letter."""
    return coupling(ctx, odd_letter_sums(ctx, Fraction(factor) / degree), odd_variations)


def bivector_operator(ctx: JetContext, mv: Multivector) -> DifferentialOperator:
    """The one-slot operator of a degree-2 multivector in one field pair:
    each word L * b_sigma * R of the density's odd variation is the term
    L * D^sigma(arg) * R, so a total divergence gives the empty operator."""
    if mv.degree != 2 or ctx.fields != 1:
        raise PreconditionError("need a degree-2 multivector in one field pair")
    operator = DifferentialOperator(ctx)
    (variation,) = variations(ctx, mv.density, odd_kind=True)
    for w, c in variation.terms.items():
        pos = next(i for i, l in enumerate(w) if l.odd)
        operator.add_term(w[:pos], w[pos].orders, w[pos + 1:], c)
    return operator


def bivector_density(ctx: JetContext, op: DifferentialOperator) -> FormalSum:
    """The raw degree-2 density of a one-slot operator acting diagonally,
    (1/2) * sum_j close(b_j * op(b_j)), never put in standard form."""
    halves = odd_letter_sums(ctx, Fraction(1, 2))
    return coupling(ctx, halves, (op.apply(b) for b in odd_letter_sums(ctx)))


def multivector_from_operator(ctx: JetContext, op: DifferentialOperator) -> Multivector:
    """The bivector of a skew one-slot operator: its `bivector_density` in
    standard form."""
    return normalize_multivector(ctx, bivector_density(ctx, op), degree=2)


def q_field(ctx: JetContext, mv: Multivector) -> GeneratingSection:
    """The evolutionary field attached to a multivector: even components from
    the right variation along the odd letters (negated), odd components from
    the variation along the position letters.

    Computed once per density, degree and context value and kept on the
    density (see `jets._kept`); the field depends only on the class of the
    density up to total divergences."""
    return _kept(mv.density, ("field", mv.degree), ctx, _field_of, ctx, mv.density, mv.degree)


def _field_of(ctx: JetContext, density: FormalSum, degree: int) -> GeneratingSection:
    """`q_field`, computed afresh."""
    even = tuple(-v for v in variations(ctx, density, odd_kind=True, side="right"))
    odd = variations(ctx, density, odd_kind=False)
    return make_section(ctx, even=even, odd=odd, parity=(degree - 1) % 2)


def schouten_bracket(ctx: JetContext, xi: Multivector, eta: Multivector) -> Multivector:
    """Graded bracket of two multivectors: act with the field of the first on
    the density of the second.

    The result is one representative of the bracket class, not the standard
    form: `normalize_multivector` of its density gives that.  Triviality and
    fields do not see the difference, since they ignore total divergences."""
    density = evolutionary_apply(ctx, q_field(ctx, xi), eta.density)
    return Multivector(ctx, max(xi.degree + eta.degree - 1, 0), density)


def schouten_by_variations(
    ctx: JetContext, xi: Multivector, eta: Multivector
) -> FormalSum:
    """Independent coordinate route to the bracket density: pair the
    variations of the two arguments family by family.  Differs from the
    primary route by a total divergence only."""
    out = _Accumulator(True)
    _pair(ctx, variations(ctx, xi.density, False), variations(ctx, eta.density, True), out)
    right = variations(ctx, xi.density, True, side="right")
    _pair(ctx, right, variations(ctx, eta.density, False), out, -1)
    return out.finish()


def evaluate(ctx: JetContext, mv: Multivector, covectors) -> Functional:
    """Value of a degree-k multivector on k covectors, by iterated insertion
    of each covector's odd field, which replaces odd letters by the
    covector components and leaves position letters untouched; the
    insertions anticommute, so the result is totally antisymmetric."""
    covectors = tuple(covectors)
    if len(covectors) != mv.degree:
        raise PreconditionError(
            f"degree {mv.degree} multivector takes {mv.degree} covectors, got {len(covectors)}"
        )
    density = mv.density
    for p in covectors:
        density = evolutionary_apply(ctx, make_section(ctx, odd=p.components, parity=1), density)
    if density.odd_degrees() - {0}:
        raise PreconditionError("evaluation left odd letters behind")
    return Functional(ctx, density)


def check_skew(ctx: JetContext, xi: Multivector, eta: Multivector) -> bool:
    """Graded antisymmetry of the bracket, up to total divergences; both
    brackets' field actions are added into one residual."""
    odd = ((xi.degree - 1) * (eta.degree - 1)) % 2
    out = _Accumulator(True)
    _act(ctx, q_field(ctx, xi), eta.density, out)
    _act(ctx, q_field(ctx, eta), xi.density, out, -1 if odd else 1)
    return is_trivial(ctx, out.finish())


def check_jacobi(
    ctx: JetContext, xi: Multivector, eta: Multivector, omega: Multivector
) -> bool:
    """Graded Jacobi identity of the bracket, up to total divergences; each
    outer field action, taken after its inner bracket, is added into one residual."""
    odd = ((xi.degree - 1) * (eta.degree - 1)) % 2
    out = _Accumulator(True)
    inner = schouten_bracket(ctx, eta, omega)
    _act(ctx, q_field(ctx, xi), inner.density, out)
    inner = schouten_bracket(ctx, xi, eta)
    _act(ctx, q_field(ctx, inner), omega.density, out, -1)
    inner = schouten_bracket(ctx, xi, omega)
    _act(ctx, q_field(ctx, eta), inner.density, out, 1 if odd else -1)
    return is_trivial(ctx, out.finish())


def check_field_morphism(
    ctx: JetContext, xi: Multivector, eta: Multivector
) -> bool:
    """The field of a bracket equals the graded commutator of the fields,
    exactly: fields do not see total divergences."""
    commutator = graded_commutator(ctx, q_field(ctx, xi), q_field(ctx, eta))
    return q_field(ctx, schouten_bracket(ctx, xi, eta)) == commutator
