"""Variational derivatives, the triviality test, couplings of covectors with
sections, functionals, and the induced motion of covectors along a flow."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .words import FormalSum, _Accumulator
from .jets import JetContext, _horner, _kept, _series_sum


def euler_derivative(
    ctx: JetContext,
    f: FormalSum,
    odd_kind: bool,
    index: int = 1,
    side: str = "left",
) -> FormalSum:
    """Variational derivative of a cyclic sum along one letter family.

    For each occurrence of the family, cut the circle there and apply (-D) to
    the multi-index of the removed letter.  Each word's cut pieces come from
    the context's table (`jets._pieces`), and `jets._horner` applies the
    powers of (-D) in Horner form, straight on their integer numerators; the
    sum is built from its store (`jets._series_sum`).  A sum with no letter
    of the family gives the empty sum before any fold.
    `side` chooses on which side of the density the variation is collected;
    the two differ, per word, by a sign on odd families only.
    """
    if not f.cyclic:
        raise PreconditionError("euler_derivative expects a cyclic sum")
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    return _series_sum(*_variation_store(ctx, f, odd_kind, index, side == "right"))


def _variation_store(ctx: JetContext, f: FormalSum, odd_kind: bool, index: int, right: bool):
    """`jets._horner` of one family's cut pieces of a cyclic sum; unchecked."""
    pieces = ctx._cut_pieces[odd_kind, index, right]
    return _horner(ctx, zip(f.terms.values(), map(pieces.__getitem__, f.terms)))


def _vanishes(ctx: JetContext, f: FormalSum, odd_kind: bool, index: int) -> bool:
    """Whether one family's variation of a cyclic sum is zero, read off its
    `jets._horner` store: no sum is built and no gcd taken; unchecked."""
    store, _ = _variation_store(ctx, f, odd_kind, index, False)
    return not any(any(words.values()) for words in store.values())


def variations(
    ctx: JetContext, f: FormalSum, odd_kind: bool, side: str = "left"
) -> tuple[FormalSum, ...]:
    """The variational derivatives of a cyclic sum along families 1..m of one kind."""
    return tuple(
        euler_derivative(ctx, f, odd_kind, j, side) for j in range(1, ctx.fields + 1)
    )


def is_trivial(ctx: JetContext, f: FormalSum) -> bool:
    """Whether a cyclic sum is a total divergence (up to a pure-x remainder):
    all its variational derivatives vanish.

    The letter families are peeled one at a time, odd ones first.  If the
    variation along family F is nonzero the sum is not trivial.  If it is
    zero, every word holding F is dropped and the rest is tested.  This is
    exact: D keeps each family's letter count, and closing u_F against E_F f
    gives sum_n n * f_n up to Im D, where f_n holds the words with n letters
    of F; so E_F f = 0 makes each f_n with n >= 1 a total divergence.  On a
    multivector of degree >= 1 the first odd variation decides.  Each
    variation is only asked whether it vanishes (`_vanishes`).
    """
    if not f.cyclic:
        raise PreconditionError("is_trivial expects a cyclic sum")
    families = f.letters_present()
    while families:
        odd_kind, index = min(families, key=lambda family: (not family[0], family[1]))
        if not _vanishes(ctx, f, odd_kind, index):
            return False
        f = _Accumulator(True, {
            w: c for w, c in f.terms.items()
            if not any(l.index == index and l.odd == odd_kind for l in w)
        }).finish()
        families = f.letters_present()
    return True


@dataclass(frozen=True)
class Covector:
    """An m-tuple of open-word sums, to be coupled against section components.
    Components must have evenly many odd letters per word; they are
    checked and sealed when the covector is built (see `FormalSum`).

    An operator applied to a component keeps each D^sigma it asked for on
    the component (see `DifferentialOperator.apply`), so the images of a
    covector met again reuse them.  A covector holds word sums, so it is
    unhashable."""

    __hash__ = None
    components: tuple[FormalSum, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for comp in self.components:
            if comp.cyclic:
                raise PreconditionError("covector components must be open sums")
            if any(k % 2 for k in comp.odd_degrees()):
                raise PreconditionError("covector components must be even words")
            comp._seal()

    def __neg__(self) -> "Covector":
        return Covector(tuple(-c for c in self.components))


def coupling(ctx: JetContext, p, values) -> FormalSum:
    """Closed pairing of an m-tuple of covector components with an m-tuple of
    open-word sums: the cyclic closure of the componentwise concatenations,
    each product word's canonical form read from the context's table."""
    out = _Accumulator(True)
    _pair(ctx, p, values, out)
    return out.finish()


def _pair(ctx: JetContext, p, values, out: _Accumulator, sign: int = 1) -> None:
    """Add sign times `coupling(ctx, p, values)` into `out`."""
    p_components = p.components if isinstance(p, Covector) else tuple(p)
    values = tuple(values)
    if len(p_components) != ctx.fields or len(values) != ctx.fields:
        raise PreconditionError(f"coupling needs {ctx.fields} components per side")
    canonical = ctx._canonical_forms.__getitem__
    for pc, vc in zip(p_components, values):
        if pc.cyclic or vc.cyclic:
            raise ValueError("coupling expects open sums")
        for w, c in pc.terms.items():
            out.add_products(w, vc.terms, (), sign, c, canonical)


@dataclass(frozen=True)
class Functional:
    """A cyclic density considered up to total divergences, checked and
    sealed when the functional is built (see `FormalSum`).  Its covector is
    kept on the density (see `covector_of`).  A functional holds a word sum,
    so it is unhashable."""

    __hash__ = None
    ctx: JetContext
    density: FormalSum

    def __post_init__(self):
        if not self.density.cyclic:
            raise PreconditionError("a functional stores a cyclic density")
        if self.density.odd_degrees() - {0}:
            raise PreconditionError("a functional density must be even-kind only")
        self.density._seal()

    def is_trivial(self) -> bool:
        return is_trivial(self.ctx, self.density)


def covector_of(ctx: JetContext, f) -> Covector:
    """The covector of variational derivatives of a functional (or density)
    along the position families, kept on the density (see `jets._kept`)."""
    density = f.density if isinstance(f, Functional) else f
    return _kept(density, "covector", ctx, lambda: Covector(variations(ctx, density, odd_kind=False)))
