"""Cyclic and open words over a graded jet alphabet, with exact coefficients.

A word is a tuple of letters.  A letter is either a position symbol (even) or
its parity-reversed partner (odd); it carries a field index and a derivative
multi-index with one slot per base direction.  A letter is an int that packs
these fields in their sort order, so words hash and compare in C, as the
keys of every table and sum.  Cyclic words are stored by their canonical
rotation; the sign bookkeeping for odd letters happens once, at
normalization time, so every later operation works on plain tuples.
A coefficient keeps integer numerators over one common denominator.  Word
sums are accumulated the same way: one accumulator adds each word's integer
numerators in place over a running denominator, and each result word gets
its Coefficient once, in lowest terms, when the sum is finished.  That
accumulator is the one coefficient arithmetic: a Coefficient's own sums and
products are those of sums of the empty word.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from operator import add as add_ints
from typing import Iterable

from .errors import PreconditionError


# With nine bits per number a one-direction letter (2 + 3 * 9 = 29 bits)
# stays below 2**30, one CPython digit, which hashes fastest.
_BITS = 9
_WIDE = 1 << _BITS


class Letter(int):
    """A single jet symbol: parity (even before odd), field index, total
    derivative count `order == sum(orders)` and multi-index, read as the
    attributes `odd`, `index`, `order` and `orders`; `JetContext.letter` and
    `JetContext.shift` fill in `order`.

    The int value packs the fields in that sort order: a leading 1 bit, the
    parity bit, then `index`, `order` and each entry of `orders` in 9 bits
    each, so a letter of one direction is a one-digit int.  Among letters
    with one number of directions the numeric order is the order of the
    field tuples, no letter is falsy, and words (tuples of letters) hash and
    compare in C.  A letter with a field outside 0..2**9-1 (511) is a
    `_WideLetter`, which compares and hashes by its field tuple.  Iterating
    yields the four fields, so `Letter(*letter)` rebuilds a letter.  A
    letter is an int: it never equals a tuple, and the coefficient
    arithmetic refuses it as a number."""

    def __new__(cls, odd, index, order, orders):
        orders = tuple(orders)
        value = 2 | odd if odd in (0, 1) else 0
        for f in (index, order, *orders):
            if not (value and 0 <= f < _WIDE):
                self = int.__new__(_WideLetter, 1)
                break
            value = value << _BITS | f
        else:
            self = int.__new__(Letter, value)
        self.__dict__.update(odd=odd, index=index, order=order, orders=orders)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a letter is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a letter is immutable")

    def __iter__(self):
        return iter((self.odd, self.index, self.order, self.orders))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Letter(odd={self.odd!r}, index={self.index!r}, order={self.order!r}, orders={self.orders!r})"


def _by_fields(compare):
    def method(self, other):
        return compare(tuple(self), tuple(other)) if isinstance(other, Letter) else NotImplemented

    return method


class _WideLetter(Letter):
    """A letter whose fields do not fit the packed value.  It compares and
    hashes by its field tuple; being a subclass, it also decides its
    comparisons with packed letters, whichever side it is on."""

    __eq__ = _by_fields(operator.eq)
    __ne__ = _by_fields(operator.ne)
    __lt__ = _by_fields(operator.lt)
    __le__ = _by_fields(operator.le)
    __gt__ = _by_fields(operator.gt)
    __ge__ = _by_fields(operator.ge)

    def __hash__(self):
        return hash(tuple(self))


Word = tuple[Letter, ...]


def word_key(letters: Word) -> tuple:
    """Total order on words: by length, then letterwise."""
    return (len(letters), letters)


def monomial_key(mono: tuple[int, ...]) -> tuple:
    """Order on monomials: by total degree, then by exponents."""
    return (sum(mono), mono)


def odd_count(letters: Iterable[Letter]) -> int:
    return sum(1 for l in letters if l.odd)


def pass_sign(letter: Letter, total_odd: int) -> int:
    """Sign picked up when `letter` crosses the marked point of a cyclic word
    containing `total_odd` odd letters in all."""
    if letter.odd and (total_odd - 1) % 2:
        return -1
    return 1


def signed_rotations(letters: Word) -> list[tuple[Word, int]]:
    """Every rotation of the word, each with the sign relating it back to the
    input.  Entry r is (letters moved left by r, sign)."""
    rots = []
    sign = 1
    total_odd = odd_count(letters)
    for r in range(len(letters)):
        rots.append((letters[r:] + letters[:r], sign))
        sign *= pass_sign(letters[r], total_odd)
    return rots


def normalize(letters: Word) -> tuple[Word | None, int]:
    """Canonical representative of a cyclic word.

    Returns (canonical letters, sign) with sign in {+1, -1}, or (None, 0) when
    the word coincides with one of its own rotations up to a sign flip and is
    therefore zero.  The canonical rotation is the least under `word_key`;
    rotations all have one length, so they compare as plain slices.
    """
    if not letters:
        return (), 1
    n = len(letters)
    doubled = letters + letters
    # an odd letter crossing the marked point flips the sign exactly when the
    # word has an even count of odd letters (`pass_sign`)
    flip = not odd_count(letters) % 2
    best, best_sign, vanish = letters, 1, False
    sign = 1
    for r in range(1, n):
        if flip and letters[r - 1].odd:
            sign = -sign
        rotated = doubled[r:r + n]
        if rotated <= best:
            if rotated < best:
                best, best_sign, vanish = rotated, sign, False
            elif sign != best_sign:
                vanish = True
    if vanish:
        return None, 0
    return best, best_sign


class Coefficient:
    """Polynomial in the base coordinates with rational coefficients.

    Monomials are exponent tuples with one slot per base direction; they
    commute with everything, so they can be kept apart from the words.
    The polynomial is `nums` / `den`: `nums` maps monomials to nonzero ints
    and the one denominator `den` >= 1 shares no factor with all of them
    (zero has `den` 1).  The form is canonical, so equal polynomials have
    equal fields, and the arithmetic runs on plain ints; `terms` reads the
    values back as rationals.  Like a dict, a Coefficient is unhashable.
    Only a freshly built instance is ever written to; once returned it is
    treated as immutable, so sums may share one Coefficient object.  `+`
    and `-` run on `_Accumulator.add`, and `*` on `FormalSum.scale`, each
    under the empty word.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        values: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for mono, value in terms.items() if isinstance(terms, dict) else terms:
                mono = tuple(mono)
                values[mono] = values.get(mono, 0) + Fraction(value)
        # over the lcm of the reduced denominators no factor is left to cancel
        self.den = lcm(*(v.denominator for v in values.values()))
        self.nums = {m: v.numerator * (self.den // v.denominator) for m, v in values.items() if v}

    def __getstate__(self):
        return self.nums, self.den

    def __setstate__(self, state):
        self.nums, self.den = state

    @classmethod
    def constant(cls, value, directions: int) -> "Coefficient":
        return cls.monomial((0,) * directions, value)

    @classmethod
    def monomial(cls, exponents, value=1) -> "Coefficient":
        if isinstance(value, Letter):
            raise TypeError("a letter is not a number")
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        out = object.__new__(cls)
        out.nums = {tuple(exponents): value.numerator} if value else {}
        out.den = value.denominator
        return out

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """The values by monomial, each an int when whole, else a Fraction."""
        den = self.den
        if den == 1:
            return dict(self.nums)
        return {m: v // den if v % den == 0 else Fraction(v, den) for m, v in self.nums.items()}

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coefficient) and self.den == other.den and self.nums == other.nums

    def __add__(self, other: "Coefficient", sign: int = 1) -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        acc = _Accumulator(False, {(): self})
        acc.add((), sign, other)
        return c if (c := acc.finish().terms.get(())) is not None else Coefficient()

    def __neg__(self) -> "Coefficient":
        return _negated(self)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self.__add__(other, -1)

    def __mul__(self, other) -> "Coefficient":
        if not isinstance(other, (Coefficient, int, Fraction)) or isinstance(other, Letter):
            return NotImplemented
        one = FormalSum(False)
        if self.nums:
            one.terms[()] = self
        return c if (c := one.scale(other).terms.get(())) is not None else Coefficient()

    __rmul__ = __mul__

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, zero included, as a Fraction,
        or None if x-dependent."""
        if len(self.nums) > 1 or any(next(iter(self.nums), ())):
            return None
        return Fraction(sum(self.nums.values()), self.den)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    def __repr__(self):
        return f"Coefficient({dict(self.sorted_terms())!r})"


class FormalSum:
    """Linear combination of words with Coefficient weights.

    The cyclic flavor keeps every key in canonical rotation (signs folded into
    the coefficients); the open flavor keeps keys verbatim.  Every sum the
    library returns is built by one `_Accumulator`, which adds integer
    numerators in place and gives each result word its Coefficient once,
    when the sum is finished; a returned sum is never written again by the
    library.  `add_word`, for callers that build a sum term by term, goes
    through the same accumulator.  Sums may share their operands'
    Coefficient objects.  A sum is sealed once something is kept on it
    (`_derived`, see `jets._kept`) or a value checked it when built; then
    `add_word` refuses it, and `copy.copy` gives an unsealed sum to extend.
    Equality, `repr`, copies and pickles ignore `_derived`.
    """

    __slots__ = ("cyclic", "terms", "_derived")

    def __init__(self, cyclic: bool):
        self.cyclic = cyclic
        self.terms: dict[Word, Coefficient] = {}
        self._derived = None

    @classmethod
    def single(cls, cyclic: bool, letters: Word, coeff: Coefficient) -> "FormalSum":
        out = cls(cyclic)
        if coeff.nums:
            letters = tuple(letters)
            key, sign = normalize(letters) if cyclic else (letters, 1)
            if sign:
                out.terms[key] = coeff if sign > 0 else -coeff
        return out

    def __getstate__(self):
        # a copy or pickle carries the terms only, and derives afresh
        return self.cyclic, self.terms

    def __setstate__(self, state):
        # a shallow copy gets a dict of its own, so writing it leaves the
        # original and what the original keeps as they are
        self.cyclic, terms = state
        self.terms = dict(terms)
        self._derived = None

    def add_word(self, letters: Word, coeff: Coefficient) -> None:
        if self._derived is not None:
            raise PreconditionError("sealed sum: a value was read from or checked on it; extend a copy")
        # `nums` is tested directly: `__bool__` would add a Python-level call
        if not coeff.nums:
            return
        acc = _Accumulator(self.cyclic, self.terms)
        letters = tuple(letters)
        if self.cyclic:
            key, sign = normalize(letters)
            acc.add(key, sign, coeff)
        else:
            acc.add(letters, 1, coeff)
        acc.finish()

    def _seal(self) -> dict:
        if self._derived is None:
            self._derived = {}
        return self._derived

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalSum)
            and self.cyclic == other.cyclic
            and self.terms == other.terms
        )

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self._plus(other, 1)

    def __neg__(self) -> "FormalSum":
        out = FormalSum(self.cyclic)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self._plus(other, -1)

    def _plus(self, other: "FormalSum", sign: int) -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        if self.cyclic != other.cyclic:
            raise ValueError("cannot mix cyclic and open sums")
        # keys of a like-flavored sum are already in this sum's form
        acc = _Accumulator(self.cyclic, dict(self.terms))
        acc.add_terms(other.terms, sign)
        return acc.finish()

    def scale(self, factor) -> "FormalSum":
        """Multiply by a Coefficient, Fraction, or int (not a Letter)."""
        if not isinstance(factor, Coefficient):
            # a number is a constant with no exponent slots
            factor = Coefficient.monomial((), factor)
        # the keys stay as they are, so an open accumulator builds either flavor
        acc = _Accumulator(False)
        if factor.nums:
            acc.add_products((), self.terms, (), 1, factor)
        out = acc.finish()
        out.cyclic = self.cyclic
        return out

    def sorted_terms(self) -> list[tuple[Word, Coefficient]]:
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))

    def odd_degrees(self) -> set[int]:
        return {odd_count(w) for w in self.terms}

    def letters_present(self) -> set[tuple[bool, int]]:
        """Families (parity kind, field index) appearing in any word."""
        return {(l.odd, l.index) for w in self.terms for l in w}

    def __repr__(self):
        flavor = "cyclic" if self.cyclic else "open"
        return f"FormalSum<{flavor}>({self.sorted_terms()!r})"


class _Open(Coefficient):
    """A coefficient that an accumulator is still building and alone holds,
    under one word: nonzero int numerators over a denominator that may
    share a factor with all of them, or no numerator at all.  It is written
    in place, and `_Accumulator.finish` settles it into a Coefficient."""

    __slots__ = ()


def _rescale(acc: _Open, den: int) -> int:
    """Bring `acc` to a common denominator with `den`, another
    denominator; returns the factor that takes a numerator over `den` to
    one over `acc.den`."""
    own = acc.den
    common = own * den // gcd(own, den)
    if common != own:
        k = common // own
        nums = acc.nums
        for m in nums:
            nums[m] *= k
        acc.den = common
    return common // den


class _Accumulator:
    """The one builder of word sums: for each word, integer numerators by
    monomial over one running denominator, added in place.

    A word touched once keeps the Coefficient it came with, or gets its
    product built straight as one.  On a second touch the word gets an
    `_Open` coefficient of its own, a copy, never an operand's `nums` dict,
    and every later term, product or collision is added into it as ints,
    with no gcd and no new object.  `finish` settles each `_Open` once, in
    lowest terms, and drops the words that cancelled; when no word was
    touched twice and every denominator was 1 it has nothing to do.  `terms`
    may start as a dict the caller hands over, whose values are
    Coefficients.  An accumulator never takes its own values as operands,
    and no operand is an `_Open`: derivatives are taken on integer stores
    (`jets._fold`), not here."""

    __slots__ = ("cyclic", "terms", "loose")

    def __init__(self, cyclic: bool, terms: dict | None = None):
        self.cyclic = cyclic
        self.terms: dict[Word, Coefficient] = {} if terms is None else terms
        # the `_Open` values, for `finish`
        self.loose: list[_Open] = []

    def add(self, key: Word | None, sign: int, c: Coefficient) -> None:
        """Add sign * c under `key`, a word already in this sum's form; a
        vanishing cyclic word comes as `normalize` gives it, (None, 0), and
        adds nothing."""
        if not sign:
            return
        terms = self.terms
        acc = terms.get(key)
        if acc is None:
            terms[key] = _negated(c) if sign < 0 else c
            return
        if type(acc) is not _Open:
            acc = self._own(key, acc)
        den = c.den
        if den != acc.den:
            sign *= _rescale(acc, den)
        nums = acc.nums
        get = nums.get
        for m, v in c.nums.items():
            v = get(m, 0) + sign * v
            if v:
                nums[m] = v
            else:
                del nums[m]

    def _own(self, key: Word, c: Coefficient) -> _Open:
        """Replace the value under `key` by an `_Open` copy of it."""
        out = object.__new__(_Open)
        out.nums = dict(c.nums)
        out.den = c.den
        self.terms[key] = out
        self.loose.append(out)
        return out

    def add_terms(self, terms: dict, sign: int = 1) -> None:
        """Add sign times a sum's terms, whose keys are in this sum's form."""
        add = self.add
        for w, c in terms.items():
            add(w, sign, c)

    def add_products(
        self, head: Word, middle: dict, tail: Word, sign: int, c: Coefficient, canonical=None
    ) -> None:
        """Add sign * c * c2 * (head + w + tail) for each term c2 * w of the
        terms `middle`, a finished sum's.  A cyclic sum takes each key and
        sign from `canonical`, a lookup that agrees with `normalize`: a
        context's table of canonical forms.  A word met first here gets the
        product straight as a Coefficient when its denominator is 1, else as
        an `_Open`."""
        if not middle:
            return
        terms, add, loose = self.terms, self.add, self.loose
        n1, d1 = c.nums, c.den
        zero = (0,) * len(next(iter(n1)))
        # a constant c scales each c2, and a constant +-1 leaves it as it is
        scalar = n1[zero] if len(n1) == 1 and zero in n1 else 0
        keep = d1 == 1 and (scalar == 1 or scalar == -1)
        cyclic = self.cyclic
        for w, c2 in middle.items():
            if cyclic:
                key, s = canonical(head + w + tail)
                if not s:
                    continue
                s *= sign
            else:
                key, s = head + w + tail, sign
            if keep:
                add(key, s * scalar, c2)
                continue
            n2 = c2.nums
            # a product with a constant factor k scales the other one
            if scalar:
                k, other = scalar, n2
            elif len(n2) == 1 and zero in n2:
                k, other = n2[zero], n1
            else:
                k = 0
            den = d1 * c2.den
            acc = terms.get(key)
            if acc is None:
                if den == 1:
                    acc = terms[key] = object.__new__(Coefficient)
                else:
                    acc = terms[key] = object.__new__(_Open)
                    loose.append(acc)
                acc.den = den
                if k:
                    s *= k
                    acc.nums = {m: s * v for m, v in other.items()}
                    continue
                acc.nums = {}
            else:
                if type(acc) is not _Open:
                    acc = self._own(key, acc)
                if den != acc.den:
                    s *= _rescale(acc, den)
            nums = acc.nums
            get = nums.get
            if k:
                s *= k
                for m, v in other.items():
                    v = get(m, 0) + s * v
                    if v:
                        nums[m] = v
                    else:
                        del nums[m]
                continue
            for m1, v1 in n1.items():
                v1 *= s
                if len(m1) == 1:
                    # one direction: add the exponents without a tuple pass
                    (e,) = m1
                    for m2, v2 in n2.items():
                        m = (e + m2[0],)
                        v = get(m, 0) + v1 * v2
                        if v:
                            nums[m] = v
                        else:
                            del nums[m]
                    continue
                for m2, v2 in n2.items():
                    m = tuple(map(add_ints, m1, m2))
                    v = get(m, 0) + v1 * v2
                    if v:
                        nums[m] = v
                    else:
                        del nums[m]

    def finish(self) -> FormalSum:
        """The sum built: each `_Open` settled in place into a Coefficient in
        lowest terms, the words that cancelled dropped.  Only an `_Open` can
        cancel to zero, so the terms are passed over, to drop such words,
        only when one did.  The accumulator then starts again, empty."""
        terms, cancelled = self.terms, False
        for c in self.loose:
            nums = c.nums
            if not nums:
                cancelled = True
                continue
            den = c.den
            if den != 1:
                g = gcd(den, *nums.values())
                if g != 1:
                    c.nums = {m: v // g for m, v in nums.items()}
                    c.den = den // g
            c.__class__ = Coefficient
        if cancelled:
            for key in [key for key, c in terms.items() if not c.nums]:
                del terms[key]
        self.terms, self.loose = {}, []
        out = object.__new__(FormalSum)
        out.cyclic = self.cyclic
        out.terms = terms
        out._derived = None
        return out


def _negated(c: Coefficient) -> Coefficient:
    """-c, as a fresh object of the same class."""
    out = object.__new__(type(c))
    out.nums = {m: -v for m, v in c.nums.items()}
    out.den = c.den
    return out


def close(f: FormalSum) -> FormalSum:
    """Image of an open sum under the cyclic closure."""
    if f.cyclic:
        raise ValueError("close expects an open sum")
    acc = _Accumulator(True)
    for w, c in f.terms.items():
        key, sign = normalize(w)
        acc.add(key, sign, c)
    return acc.finish()


def concat(f: FormalSum, g: FormalSum) -> FormalSum:
    """Concatenation product of open sums."""
    if f.cyclic or g.cyclic:
        raise ValueError("concat expects open sums")
    acc = _Accumulator(False)
    for w1, c1 in f.terms.items():
        acc.add_products(w1, g.terms, (), 1, c1)
    return acc.finish()


def times(f: FormalSum, g: FormalSum) -> FormalSum:
    """Product of cyclic sums: the average of the concatenations of all
    rotation pairs.  An empty word acts as a plain scalar factor."""
    if not (f.cyclic and g.cyclic):
        raise ValueError("times expects cyclic sums")
    acc = _Accumulator(True)
    g_terms = [(w2, c2, signed_rotations(w2)) for w2, c2 in g.terms.items()]
    for w1, c1 in f.terms.items():
        rots1 = signed_rotations(w1)
        for w2, c2, rots2 in g_terms:
            if not w1 or not w2:
                key, sign = normalize(w1 + w2)
                acc.add(key, sign, c1 * c2)
                continue
            # the scaled product changes only by the sign s1 * s2
            c = c1 * c2 * Fraction(1, len(w1) * len(w2))
            for r1, s1 in rots1:
                for r2, s2 in rots2:
                    key, sign = normalize(r1 + r2)
                    acc.add(key, sign * s1 * s2, c)
    return acc.finish()
