"""Jet-space bookkeeping: contexts, total derivatives and the (-D)-series
`_horner`, the cuts `_cut_parts` that the Euler operator reads, and the
action of evolutionary fields on word sums."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from math import gcd, lcm

from .errors import BoundExceeded, PreconditionError
from .words import (
    Coefficient,
    FormalSum,
    Letter,
    Word,
    _Accumulator,
    _Open,
    normalize,
    odd_count,
    pass_sign,
)

# Each memo table of a context admits at most this many entries.  Past it
# a table still serves the keys it holds and computes the rest afresh, so
# one large computation cannot grow it without end.
TABLE_LIMIT = 2048


class _Table(dict):
    """A memo table: a missing key is computed by `compute` and kept while
    the table holds fewer than `TABLE_LIMIT` entries, read at each miss.  A
    key whose compute raises is not kept.  No compute function of a
    context's table holds the context, so the tables never keep it alive."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) < TABLE_LIMIT:
            self[key] = value
        return value


@dataclass(frozen=True)
class JetContext:
    """Shape of the jet alphabet: number of field pairs, number of base
    directions, and an optional cap on derivative orders.

    A context keeps four memo tables (`_Table`), since the engine meets the
    same few hundred letters and words over and over.  `_letters` interns
    letters: `letter`, `shift` and the operator slot letters all read the
    `Letter` it keeps for each (odd, index, orders).  A letter is an int
    that packs its fields, 9 bits each (`words.Letter`), so letters compare
    and hash by value, in C, and a word of one-direction letters with fields
    below 512 hashes one small int per letter; identity is only a fast
    path: letters of another context, equal or not, and letters built by
    hand mix freely with these.  `_canonical_forms` holds a word's
    `normalize` result (canonical rotation and sign), `_images` holds per
    direction the words with one letter shifted (what `total_derivative`
    and the D steps of `_horner` add up), and `_cut_pieces` holds per
    letter family and side the (orders, open word, sign) pieces of
    `_cut_parts`.  Words are keys by value, so words of hand-built letters
    find the same entries.  Each table admits at most `TABLE_LIMIT` entries
    and then only serves the ones it holds, so the memory a large one-off
    computation spends on them stays bounded.  The CLI builds one context
    per invocation.  The context also keeps the witness pool of the
    Hamiltonian decision, its densities (`poisson._witness_pool`), and its
    value as `_key`, under which `_kept` files what a sum keeps.  Equality,
    hash and `repr` ignore all of these."""

    fields: int = 1
    directions: int = 1
    max_order: int | None = None

    def __post_init__(self):
        if self.fields < 1:
            raise PreconditionError("need at least one field pair")
        if self.directions < 1:
            raise PreconditionError("need at least one base direction")
        if self.max_order is not None and self.max_order < 0:
            raise PreconditionError("max_order must be nonnegative")
        letters = _Table(JetContext._intern)
        # the frozen dataclass takes its tables past `__setattr__`
        self.__dict__.update(
            _key=(self.fields, self.directions, self.max_order),
            _witness_pool=(),
            _letters=letters,
            # `normalize` is looked up at each miss, so a wrapped one is seen
            _canonical_forms=_Table(lambda letters: normalize(letters)),
            _images=tuple([
                _Table(partial(_images_of, d, letters, self.max_order)) for d in range(self.directions)
            ]),
            _cut_pieces=_Table(lambda family: _Table(partial(_pieces, *family))),
        )

    # -- letters ---------------------------------------------------------

    def zero_orders(self) -> tuple[int, ...]:
        return (0,) * self.directions

    @staticmethod
    def _intern(key: tuple[bool, int, tuple[int, ...]]) -> Letter:
        """The letter of an (odd, index, orders) key of `_letters`; unchecked."""
        odd, index, orders = key
        return Letter(odd, index, sum(orders), orders)

    def letter(self, odd: bool, index: int, orders=None) -> Letter:
        if not 1 <= index <= self.fields:
            raise PreconditionError(
                f"field index {index} outside 1..{self.fields}"
            )
        orders = self.check_orders(self.zero_orders() if orders is None else orders)
        return self._letters[bool(odd), index, orders]

    def check_orders(self, orders) -> tuple[int, ...]:
        """A derivative multi-index as a tuple: one nonnegative order per
        direction, with a total order within the cap."""
        orders = tuple(orders)
        if len(orders) != self.directions or min(orders) < 0:
            raise PreconditionError(f"bad derivative multi-index {orders}")
        if self.max_order is not None:
            _check_order(sum(orders), self.max_order)
        return orders

    def check_direction(self, direction: int) -> None:
        if not 1 <= direction <= self.directions:
            raise PreconditionError(
                f"direction {direction} outside 1..{self.directions}"
            )

    def shift(self, letter: Letter, direction: int) -> Letter:
        """The interned letter with one more derivative along a 1-based
        direction; an over-cap shift raises.  The direction is checked
        first, so no bad one reads or fills a table."""
        self.check_direction(direction)
        return _shifted(direction - 1, self._letters, self.max_order, letter)

    # -- coefficients ----------------------------------------------------

    def one(self) -> Coefficient:
        return Coefficient.constant(1, self.directions)

    def const(self, value) -> Coefficient:
        return Coefficient.constant(value, self.directions)

    def x_power(self, direction: int = 1, power: int = 1, value=1) -> Coefficient:
        self.check_direction(direction)
        exps = [0] * self.directions
        exps[direction - 1] = power
        return Coefficient.monomial(exps, value)


def _kept(value: FormalSum, kind, ctx: JetContext, compute, *args):
    """What the sum `value` keeps of one kind for the context value of
    `ctx`: `compute(*args)`, computed on the first call under that context
    value and kept in `value._derived[kind]` as (context value, result).
    A call under another context value computes afresh and replaces the
    entry, so a different order cap is never bypassed.  The key is the
    context's (fields, directions, max_order), never the context itself, so
    nothing kept on a sum holds a context alive; a compute that raises
    keeps nothing.  Keeping seals `value` (see `FormalSum`), so no entry
    goes stale.  The kinds: a multi-index (the `d_power` of an operator's
    argument, `DifferentialOperator.apply`), "covector" (`covector_of`),
    ("field", degree) (`q_field`) and "skew" (`DifferentialOperator.is_skew`)."""
    key = ctx._key
    derived = value._seal()
    entry = derived.get(kind)
    if entry is not None and entry[0] == key:
        return entry[1]
    result = compute(*args)
    derived[kind] = (key, result)
    return result


def _check_order(order: int, cap: int) -> None:
    """Raise BoundExceeded for an order over a cap; callers pass a cap only
    when there is one.  An order or a cap longer than the interpreter
    converts to text is named by that limit instead, so the message never
    calls `str` on either."""
    if order > cap:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        text = lambda n: f"of more than {limit} digits" if limit and abs(n) >= 10**limit else n
        raise BoundExceeded(f"derivative order {text(order)} exceeds cap {text(cap)}")


def _shifted(d: int, letters: _Table, cap: int | None, letter: Letter) -> Letter:
    """The letter of `letters` with one more derivative along 0-based
    direction d; an order over `cap` raises."""
    if cap is not None:
        _check_order(letter.order + 1, cap)
    orders = letter.orders
    return letters[letter.odd, letter.index, orders[:d] + (orders[d] + 1,) + orders[d + 1:]]


def _images_of(d: int, interned: _Table, cap: int | None, letters: Word) -> tuple[Word, ...]:
    """The words of `letters` with one letter shifted along 0-based
    direction d, in position order; an over-cap order raises before
    anything is kept."""
    return tuple([
        letters[:i] + (_shifted(d, interned, cap, letter),) + letters[i + 1:]
        for i, letter in enumerate(letters)
    ])


def _pieces(odd_kind: bool, index: int, right: bool, letters: Word) -> tuple:
    """The (orders, open word, sign) pieces that `_cut_parts` reads from one
    cyclic word, for one letter family and side."""
    total_odd = odd_count(letters)
    sign = -1 if right and odd_kind and (total_odd - 1) % 2 else 1
    pieces = []
    for i, letter in enumerate(letters):
        if letter.odd == odd_kind and letter.index == index:
            pieces.append((letter.orders, letters[i + 1:] + letters[:i], sign))
        sign *= pass_sign(letter, total_odd)
    return tuple(pieces)


def total_derivative(ctx: JetContext, f: FormalSum, direction: int = 1) -> FormalSum:
    """Total derivative along a base direction: acts on the coefficient and on
    each letter by the product rule (no signs; the derivation is even).  The
    shifted words of each word and, in a cyclic sum, their canonical forms
    come from the context's tables; the images share the word's Coefficient."""
    ctx.check_direction(direction)
    d = direction - 1
    out = _Accumulator(f.cyclic)
    add, images, canonical = out.add, ctx._images[d], ctx._canonical_forms
    for w, c in f.terms.items():
        nums = c.nums
        for mono in nums:
            if mono[d]:
                # the coefficient's derivative, over c's denominator; a key
                # of the input is already in the output's form
                diff = object.__new__(Coefficient if c.den == 1 else _Open)
                diff.nums = {
                    m[:d] + (m[d] - 1,) + m[d + 1:]: v * m[d] for m, v in nums.items() if m[d]
                }
                diff.den = c.den
                add(w, 1, diff)
                break
        if f.cyclic:
            for new in images[w]:
                key, sign = canonical[new]
                add(key, sign, c)
        else:
            for new in images[w]:
                add(new, 1, c)
    return out.finish()


def d_power(ctx: JetContext, f: FormalSum, orders) -> FormalSum:
    """The iterated total derivative D^orders of `f`, direction 1 first; D^0
    is `f`.  `orders` needs one nonnegative order per direction; the cap
    bounds only the steps taken, and once a step gives zero no further step
    is taken, since each would give zero; that zero is a fresh sum, so a sum
    keeping its D^sigma (`DifferentialOperator.apply`) never keeps itself."""
    orders = tuple(orders)
    if len(orders) != ctx.directions or min(orders) < 0:
        raise PreconditionError(f"bad derivative multi-index {orders}")
    for direction, count in enumerate(orders, start=1):
        for _ in range(count):
            if not f.terms:
                return FormalSum(f.cyclic)
            f = total_derivative(ctx, f, direction)
    return f


def _horner(ctx: JetContext, parts: dict[tuple[int, ...], dict], den: int) -> FormalSum:
    """The (-D)-series: the sum over multi-indices s of (-D)^s parts[s], for
    open parts, in Horner form.  A part is an integer store over the one
    denominator `den`: {monomial: {open word: int}}, whose entries may be
    zero.  It takes the parts over and writes to them.

    Along one direction, P_0 - D(P_1 - D(P_2 - ...)) differentiates each
    partial sum once instead of each part k times.  Directions are folded
    from the last one down: after direction d the keys keep only their
    first d - 1 slots.  Every D step runs on the integer numerators, and
    each word of the result gets its Coefficient once, at the end, reduced
    by the gcd with `den`.
    """
    for d in range(ctx.directions, 1, -1):
        by_prefix: dict[tuple[int, ...], dict[int, dict]] = {}
        for orders, part in parts.items():
            by_prefix.setdefault(orders[: d - 1], {})[orders[d - 1]] = part
        parts = {prefix: _fold(ctx, by_count, d) for prefix, by_count in by_prefix.items()}
    out = FormalSum(cyclic=False)
    terms = out.terms
    if parts:
        for mono, words in _fold(ctx, {orders[0]: part for orders, part in parts.items()}, 1).items():
            for w, v in words.items():
                if v:
                    c = terms.get(w)
                    if c is None:
                        c = terms[w] = object.__new__(Coefficient)
                        c.nums = {}
                    c.nums[mono] = v
    for c in terms.values():
        g = gcd(den, *c.nums.values()) if den != 1 else 1
        if g != 1:
            c.nums = {m: v // g for m, v in c.nums.items()}
        c.den = den // g
    return out


def _fold(ctx: JetContext, by_count: dict[int, dict], direction: int) -> dict:
    """The sum over k of (-D)^k by_count[k] along one direction, in Horner
    form, as one integer store: each step subtracts D of the running sum
    from the next part.  A zero entry is skipped, so a word that cancelled
    is never differentiated and an order cap raises only on the words that
    are left."""
    d = direction - 1
    images = ctx._images[d]
    top = max(by_count)
    acc = by_count[top]
    for k in range(top - 1, -1, -1):
        part = by_count.get(k)
        new = {} if part is None else part
        for mono, words in acc.items():
            out = new.setdefault(mono, {})
            get = out.get
            e = mono[d]
            if e:
                # the coefficient's derivative lowers the exponent by one
                lower = new.setdefault(mono[:d] + (e - 1,) + mono[d + 1:], {})
            for w, v in words.items():
                if v:
                    for img in images[w]:
                        out[img] = get(img, 0) - v
                    if e:
                        lower[w] = lower.get(w, 0) - v * e
        acc = new
    return acc


def _integer_parts(terms: list) -> tuple[dict[tuple[int, ...], dict], int]:
    """The integer stores that `_horner` takes, built from (Coefficient,
    pieces) pairs, each piece a (multi-index, open word, sign) that takes
    sign times the coefficient, over one denominator, the lcm of theirs:
    returns (parts, denominator).  The lcm is taken one pair at a time:
    unpacking every denominator into one `lcm` call builds an argument
    tuple as long as the terms, which measurably raised peak memory."""
    den = 1
    for c, _ in terms:
        if c.den != 1:
            den = lcm(den, c.den)
    parts: dict[tuple[int, ...], dict] = {}
    for c, pieces in terms:
        k = den // c.den
        for orders, word, sign in pieces:
            part = parts.setdefault(orders, {})
            for m, v in c.nums.items():
                words = part.setdefault(m, {})
                words[word] = words.get(word, 0) + sign * k * v
    return parts, den


def _cut_parts(
    ctx: JetContext, f: FormalSum, odd_kind: bool, index: int, right: bool
) -> tuple[dict[tuple[int, ...], dict], int]:
    """The cut-open words of one letter family in a cyclic sum, grouped by
    the multi-index of the removed letter, as the integer stores of
    `_horner` (see `_integer_parts`).  Each occurrence cuts the circle
    there, reading onward from the cut, with the sign of the odd letters
    passed on the way; `right` moves the removed letter to the other end,
    which adds a sign per word on odd families only.  The part at a
    letter's multi-index is the cyclic partial derivative by that letter.
    The pieces of each word are computed once per context, family and side
    and kept in `ctx`'s table."""
    pieces = ctx._cut_pieces[odd_kind, index, right]
    return _integer_parts([(c, pieces[w]) for w, c in f.terms.items()])


@dataclass(frozen=True)
class GeneratingSection:
    """Componentwise data of an evolutionary field: what it inserts at even
    slots and at odd slots, plus the parity of the field itself.

    Component j of `even` replaces position letters of field j; component j of
    `odd` replaces their parity-reversed partners.  Words in an even component
    must have parity equal to the field parity; words in an odd component must
    have the opposite parity (the odd slot itself absorbs one parity flip).

    The components are sealed when the section is built (see `FormalSum`),
    as the section keeps `_index`: each letter's D^orders of its component,
    which `evolutionary_apply` reads (see `_letter_index`) and equality and
    `repr` ignore.  The components keep no D^orders of their own.
    """

    even: tuple[FormalSum, ...]
    odd: tuple[FormalSum, ...]
    parity: int
    _index: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for c in self.even + self.odd:
            c._seal()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.even) and all(
            c.is_zero() for c in self.odd
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratingSection)
            and self.even == other.even
            and self.odd == other.odd
            and (self.parity == other.parity or (self.is_zero() and other.is_zero()))
        )


def make_section(
    ctx: JetContext, even=None, odd=None, parity: int | None = None
) -> GeneratingSection:
    """Build a GeneratingSection, validating shapes and parity homogeneity."""
    zero = lambda: FormalSum(cyclic=False)
    even = tuple(even) if even is not None else tuple(zero() for _ in range(ctx.fields))
    odd = tuple(odd) if odd is not None else tuple(zero() for _ in range(ctx.fields))
    if len(even) != ctx.fields or len(odd) != ctx.fields:
        raise PreconditionError(
            f"section needs {ctx.fields} components of each kind"
        )
    seen: set[int] = set()
    for slot_parity, comps in ((0, even), (1, odd)):
        for comp in comps:
            if comp.cyclic:
                raise PreconditionError("section components must be open sums")
            seen.update((k + slot_parity) % 2 for k in comp.odd_degrees())
    if len(seen) > 1:
        raise PreconditionError("section components have mixed parity")
    if seen:
        found = seen.pop()
        if parity is not None and parity % 2 != found:
            raise PreconditionError(
                f"declared parity {parity} does not match components"
            )
        parity = found
    elif parity is None:
        raise PreconditionError("parity of a zero section must be given")
    return GeneratingSection(even, odd, parity % 2)


def _letter_index(ctx: JetContext, section: GeneratingSection) -> dict[Letter, FormalSum]:
    """The section's letter index: letter -> `d_power` of its component to
    the letter's multi-index, filled by `_act` on a miss, for the context
    value of `ctx` (another value starts a new index).  The components are
    sealed, so no entry goes stale."""
    kept = section._index
    if kept is None or kept[0] != ctx._key:
        kept = (ctx._key, {})
        object.__setattr__(section, "_index", kept)
    return kept[1]


def evolutionary_apply(
    ctx: JetContext, section: GeneratingSection, f: FormalSum
) -> FormalSum:
    """Act with the evolutionary field of `section` on a word sum.

    The field is a graded derivation: each letter occurrence is replaced by
    the matching component, differentiated to the letter's multi-index, with
    a sign when an odd field passes the odd part of the prefix.  Each
    D^orders of a component is computed once per section and context value
    and kept in the section's letter index (see `_letter_index`), so repeated
    calls with one field reuse its prolongation.  On a cyclic sum each
    product word's canonical form comes from the context's table.
    """
    out = _Accumulator(f.cyclic)
    _act(ctx, section, f, out)
    return out.finish()


def _act(
    ctx: JetContext, section: GeneratingSection, f: FormalSum, out: _Accumulator, sign: int = 1
) -> None:
    """Add sign times `evolutionary_apply(ctx, section, f)` into `out`."""
    index = _letter_index(ctx, section)
    canonical = ctx._canonical_forms.__getitem__
    add_products = out.add_products
    for w, c in f.terms.items():
        s = sign
        for i, letter in enumerate(w):
            value = index.get(letter)
            if value is None:
                component = (section.odd if letter.odd else section.even)[letter.index - 1]
                value = index[letter] = d_power(ctx, component, letter.orders)
            if value.terms:
                add_products(w[:i], value.terms, w[i + 1:], s, c, canonical)
            if letter.odd and section.parity:
                s = -s


def graded_commutator(
    ctx: JetContext, x: GeneratingSection, y: GeneratingSection
) -> GeneratingSection:
    """Commutator of two evolutionary fields, as a section:
    [X, Y] = X(Y) - (-1)^{|X||Y|} Y(X), componentwise, in one accumulator."""
    both_odd = x.parity and y.parity

    def component(cx: FormalSum, cy: FormalSum) -> FormalSum:
        out = _Accumulator(cy.cyclic)
        _act(ctx, x, cy, out)
        _act(ctx, y, cx, out, 1 if both_odd else -1)
        return out.finish()

    even = tuple(component(cx, cy) for cx, cy in zip(x.even, y.even))
    odd = tuple(component(cx, cy) for cx, cy in zip(x.odd, y.odd))
    return GeneratingSection(even, odd, (x.parity + y.parity) % 2)
