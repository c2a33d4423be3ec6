"""Cyclic and open words over a graded jet alphabet, with exact coefficients.

A word is a tuple of letters.  A letter is either a position symbol (even) or
its parity-reversed partner (odd); it carries a field index and a derivative
multi-index with one slot per base direction.  Cyclic words are stored by
their canonical rotation; the sign bookkeeping for odd letters happens once,
at normalization time, so every later operation works on plain tuples.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, NamedTuple


class Letter(NamedTuple):
    """A single jet symbol."""

    odd: bool
    index: int
    orders: tuple[int, ...]

    @property
    def order(self) -> int:
        return sum(self.orders)


Word = tuple[Letter, ...]


def letter_key(letter: Letter) -> tuple:
    """Total order on letters: even before odd, then field index, then total
    derivative count, then the multi-index itself."""
    return (letter.odd, letter.index, letter.order, letter.orders)


def word_key(letters: Word) -> tuple:
    """Total order on words: by length, then letterwise."""
    return (len(letters), tuple(letter_key(l) for l in letters))


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
    therefore zero.
    """
    if not letters:
        return (), 1
    rots = signed_rotations(letters)
    best = min((w for w, _ in rots), key=word_key)
    signs = {s for w, s in rots if w == best}
    if len(signs) == 2:
        return None, 0
    return best, signs.pop()


class Coefficient:
    """Polynomial in the base coordinates with rational coefficients.

    Monomials are exponent tuples with one slot per base direction; they
    commute with everything, so they can be kept apart from the words.
    Only a freshly built instance is ever written to; once returned it is
    treated as immutable, so sums may share one Coefficient object.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, value in items:
                self._accumulate(tuple(mono), Fraction(value))

    def _accumulate(self, mono: tuple[int, ...], value: Fraction) -> None:
        acc = self.terms.get(mono)
        acc = value if acc is None else acc + value
        if acc:
            self.terms[mono] = acc
        else:
            self.terms.pop(mono, None)

    @classmethod
    def constant(cls, value, directions: int) -> "Coefficient":
        return cls({(0,) * directions: Fraction(value)})

    @classmethod
    def monomial(cls, exponents, value=1) -> "Coefficient":
        return cls({tuple(exponents): Fraction(value)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coefficient) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Coefficient is not hashable")

    @classmethod
    def _wrap(cls, terms: dict[tuple[int, ...], Fraction]) -> "Coefficient":
        """Adopt a dict of nonzero Fraction values without re-checking it."""
        out = cls()
        out.terms = terms
        return out

    def __add__(self, other: "Coefficient") -> "Coefficient":
        out = Coefficient._wrap(dict(self.terms))
        for mono, value in other.terms.items():
            out._accumulate(mono, value)
        return out

    def __neg__(self) -> "Coefficient":
        return Coefficient._wrap({m: -v for m, v in self.terms.items()})

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other) -> "Coefficient":
        if isinstance(other, Coefficient):
            out = Coefficient()
            for m1, v1 in self.terms.items():
                for m2, v2 in other.terms.items():
                    out._accumulate(tuple(map(add, m1, m2)), v1 * v2)
            return out
        value = other if isinstance(other, (int, Fraction)) else Fraction(other)
        if not value:
            return Coefficient()
        return Coefficient._wrap({m: v * value for m, v in self.terms.items()})

    __rmul__ = __mul__

    def diff(self, direction: int) -> "Coefficient":
        """Derivative along a 1-based base direction."""
        d = direction - 1
        out = Coefficient()
        for mono, value in self.terms.items():
            e = mono[d]
            if e:
                out._accumulate(mono[:d] + (e - 1,) + mono[d + 1:], value * e)
        return out

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if x-dependent."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            mono, value = next(iter(self.terms.items()))
            if not any(mono):
                return value
        return None

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

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

    @classmethod
    def zero(cls, cyclic: bool) -> "FormalSum":
        return cls(cyclic)

    def add_word(self, letters: Word, coeff: Coefficient) -> None:
        if not coeff:
            return
        letters = tuple(letters)
        if self.cyclic:
            letters, sign = normalize(letters)
            if letters is None:
                return
            if sign < 0:
                coeff = -coeff
        acc = self.terms.get(letters)
        acc = coeff if acc is None else acc + coeff
        if acc:
            self.terms[letters] = acc
        else:
            self.terms.pop(letters, None)

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
        if self.cyclic != other.cyclic:
            raise ValueError("cannot mix cyclic and open sums")
        # Coefficients are never mutated once returned, so both operands'
        # coefficient objects are shared, not copied.
        out = FormalSum(self.cyclic)
        out.terms = terms = dict(self.terms)
        for w, c in other.terms.items():
            # keys of a like-flavored sum are already canonical
            acc = terms.get(w)
            if acc is None:
                terms[w] = c
                continue
            acc = acc + c
            if acc:
                terms[w] = acc
            else:
                del terms[w]
        return out

    def __neg__(self) -> "FormalSum":
        out = FormalSum(self.cyclic)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

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


def concat(f: FormalSum, g: FormalSum) -> FormalSum:
    """Concatenation product of open sums."""
    if f.cyclic or g.cyclic:
        raise ValueError("concat expects open sums")
    out = FormalSum(cyclic=False)
    for w1, c1 in f.terms.items():
        for w2, c2 in g.terms.items():
            out.add_word(w1 + w2, c1 * c2)
    return out


def times(f: FormalSum, g: FormalSum) -> FormalSum:
    """Product of cyclic sums: the average of the concatenations of all
    rotation pairs.  An empty word acts as a plain scalar factor."""
    if not (f.cyclic and g.cyclic):
        raise ValueError("times expects cyclic sums")
    out = FormalSum(cyclic=True)
    for w1, c1 in f.terms.items():
        for w2, c2 in g.terms.items():
            c = c1 * c2
            if not w1 or not w2:
                out.add_word(w1 + w2, c)
                continue
            weight = Fraction(1, len(w1) * len(w2))
            for r1, s1 in signed_rotations(w1):
                for r2, s2 in signed_rotations(w2):
                    out.add_word(r1 + r2, c * (weight * s1 * s2))
    return out
