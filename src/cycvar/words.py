"""Cyclic and open words over a graded jet alphabet, with exact coefficients.

A word is a tuple of letters.  A letter is either a position symbol (even) or
its parity-reversed partner (odd); it carries a field index and a derivative
multi-index with one slot per base direction.  Cyclic words are stored by
their canonical rotation; the sign bookkeeping for odd letters happens once,
at normalization time, so every later operation works on plain tuples.
A coefficient keeps integer numerators over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, NamedTuple


class Letter(NamedTuple):
    """A single jet symbol.  The fields are in sort order (even before odd,
    field index, total derivative count `order == sum(orders)`, multi-index),
    so letters and equal-length words compare as plain tuples;
    `JetContext.letter` and `JetContext.shift` fill in `order`."""

    odd: bool
    index: int
    order: int
    orders: tuple[int, ...]


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


def _build(nums: dict[tuple[int, ...], int], den: int, reduced: bool = False) -> "Coefficient":
    """The Coefficient `nums` / `den` (nonzero int numerators, `den` >= 1) in
    lowest terms; no gcd runs when `den` is 1 or the caller passes `reduced`."""
    if den != 1 and not reduced:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: v // g for m, v in nums.items()}
            den //= g
    out = object.__new__(Coefficient)
    out.nums = nums
    out.den = den
    return out


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
    treated as immutable, so sums may share one Coefficient object.
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

    @classmethod
    def constant(cls, value, directions: int) -> "Coefficient":
        return cls.monomial((0,) * directions, value)

    @classmethod
    def monomial(cls, exponents, value=1) -> "Coefficient":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _build({tuple(exponents): value.numerator} if value else {}, value.denominator, True)

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
        den = self.den
        if den == other.den:
            nums = dict(self.nums)
        else:
            den = lcm(den, other.den)
            nums = {m: v * (den // self.den) for m, v in self.nums.items()}
            sign *= den // other.den
        for mono, value in other.nums.items():
            value = nums.get(mono, 0) + sign * value
            if value:
                nums[mono] = value
            else:
                del nums[mono]
        return _build(nums, den)

    def __neg__(self) -> "Coefficient":
        return _build({m: -v for m, v in self.nums.items()}, self.den, True)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self.__add__(other, -1)

    def __mul__(self, other) -> "Coefficient":
        if not isinstance(other, Coefficient):
            # a number is a constant with no exponent slots: the smaller factor
            other = Coefficient.monomial((), other)
        small, large = other.nums, self.nums
        if len(small) > len(large):
            small, large = large, small
        den = self.den * other.den
        if len(small) == 1:
            ((m1, v1),) = small.items()
            if not any(m1):
                return _build({m: v1 * v for m, v in large.items()}, den)
        nums: dict[tuple[int, ...], int] = {}
        for m1, v1 in small.items():
            for m2, v2 in large.items():
                mono = tuple(map(add, m1, m2))
                value = nums.get(mono, 0) + v1 * v2
                if value:
                    nums[mono] = value
                else:
                    del nums[mono]
        return _build(nums, den)

    __rmul__ = __mul__

    def diff(self, direction: int) -> "Coefficient":
        """Derivative along a 1-based base direction."""
        d = direction - 1
        nums = {}
        for mono, value in self.nums.items():
            e = mono[d]
            if e:
                nums[mono[:d] + (e - 1,) + mono[d + 1:]] = value * e
        return _build(nums, self.den)

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
    the coefficients); the open flavor keeps keys verbatim.  Instances are
    built with `add_word` and treated as immutable afterwards; the arithmetic
    operators return fresh sums, which may share their operands' Coefficient
    objects.
    """

    __slots__ = ("cyclic", "terms")

    def __init__(self, cyclic: bool):
        self.cyclic = cyclic
        self.terms: dict[Word, Coefficient] = {}

    @classmethod
    def single(cls, cyclic: bool, letters: Word, coeff: Coefficient) -> "FormalSum":
        out = cls(cyclic)
        out.add_word(letters, coeff)
        return out

    def add_word(self, letters: Word, coeff: Coefficient) -> None:
        # `nums` is tested directly: this runs once per term of every result,
        # and `__bool__` would add a Python-level call each time
        if not coeff.nums:
            return
        letters = tuple(letters)
        if self.cyclic:
            key, sign = normalize(letters)
            self._insert(key, sign, coeff)
        else:
            self._insert(letters, 1, coeff)

    def _insert(self, key: Word | None, sign: int, coeff: Coefficient) -> None:
        """Add sign * coeff, a nonzero coefficient, under `key`, a word
        already in this sum's form, dropping the entry if it cancels.  A
        vanishing cyclic word comes as `normalize` gives it, (None, 0), and
        adds nothing."""
        if not sign:
            return
        terms = self.terms
        acc = terms.get(key)
        if acc is None:
            terms[key] = -coeff if sign < 0 else coeff
            return
        acc = acc - coeff if sign < 0 else acc + coeff
        if acc.nums:
            terms[key] = acc
        else:
            del terms[key]

    def _add_products(
        self, head: Word, middle: "FormalSum", tail: Word, coeff: Coefficient, canonical=None
    ) -> None:
        """Add coeff * c * (head + w + tail) for each term c * w of `middle`.
        A cyclic sum takes each key and sign from `canonical`, which must
        agree with `normalize` (the default); a context passes its table of
        canonical forms."""
        insert = self._insert
        if self.cyclic:
            canonical = canonical or normalize
            for w, c in middle.terms.items():
                key, sign = canonical(head + w + tail)
                insert(key, sign, coeff * c)
        else:
            for w, c in middle.terms.items():
                insert(head + w + tail, 1, coeff * c)

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

    def __hash__(self):
        raise TypeError("FormalSum is not hashable")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.cyclic)
        out.terms = dict(self.terms)
        return out._accumulate(other)

    def __neg__(self) -> "FormalSum":
        out = FormalSum(self.cyclic)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.cyclic)
        out.terms = dict(self.terms)
        return out._accumulate(other, negate=True)

    def _accumulate(self, other: "FormalSum", negate: bool = False) -> "FormalSum":
        """Add `other`, or subtract it if `negate`, into this sum in place and
        return this sum.  Only for a sum that nothing else holds yet; `other`
        is left as it was."""
        if self.cyclic != other.cyclic:
            raise ValueError("cannot mix cyclic and open sums")
        # Coefficients are never mutated once returned, so the coefficient
        # objects of `other` are shared, not copied; keys of a like-flavored
        # sum are already canonical.
        sign = -1 if negate else 1
        insert = self._insert
        for w, c in other.terms.items():
            insert(w, sign, c)
        return self

    def scale(self, factor) -> "FormalSum":
        """Multiply by a Coefficient, Fraction, or int."""
        out = FormalSum(self.cyclic)
        for w, c in self.terms.items():
            scaled = c * factor
            if scaled:
                out.terms[w] = scaled
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


def close(f: FormalSum) -> FormalSum:
    """Image of an open sum under the cyclic closure."""
    if f.cyclic:
        raise ValueError("close expects an open sum")
    out = FormalSum(cyclic=True)
    for w, c in f.terms.items():
        out.add_word(w, c)
    return out


def concat(f: FormalSum, g: FormalSum, cyclic: bool = False) -> FormalSum:
    """Concatenation product of open sums, collected in a sum of the given
    flavor."""
    if f.cyclic or g.cyclic:
        raise ValueError("concat expects open sums")
    out = FormalSum(cyclic)
    for w1, c1 in f.terms.items():
        out._add_products(w1, g, (), c1)
    return out


def close_concat(f: FormalSum, g: FormalSum) -> FormalSum:
    """`close(concat(f, g))` in one pass: each concatenation goes straight
    into the cyclic sum, with no intermediate open sum."""
    return concat(f, g, cyclic=True)


def times(f: FormalSum, g: FormalSum) -> FormalSum:
    """Product of cyclic sums: the average of the concatenations of all
    rotation pairs.  An empty word acts as a plain scalar factor."""
    if not (f.cyclic and g.cyclic):
        raise ValueError("times expects cyclic sums")
    out = FormalSum(cyclic=True)
    g_terms = [(w2, c2, signed_rotations(w2)) for w2, c2 in g.terms.items()]
    for w1, c1 in f.terms.items():
        rots1 = signed_rotations(w1)
        for w2, c2, rots2 in g_terms:
            if not w1 or not w2:
                out.add_word(w1 + w2, c1 * c2)
                continue
            # the scaled product changes only by the sign s1 * s2
            c = c1 * c2 * Fraction(1, len(w1) * len(w2))
            minus_c = -c
            for r1, s1 in rots1:
                for r2, s2 in rots2:
                    out.add_word(r1 + r2, c if s1 == s2 else minus_c)
    return out
