"""Brute-force reference calculus for one letter family and one direction.

This is the benchmark's own answer key.  It shares no code with `cycvar`:
letters are `(odd, order)` pairs, sums are `{word: Fraction}` dicts with
constant coefficients, and cyclic words are canonicalised by trying every
rotation.  The conventions it reproduces are the documented ones: words
order by length and then letterwise (even before odd, then derivative
order), and rotating an odd letter past the marked point of a word with an
even number of odd letters flips the sign.
"""

from __future__ import annotations

from fractions import Fraction

A = False  # even (position) letter
B = True  # odd (parity-reversed) letter


def letter_text(letter) -> str:
    odd, order = letter
    name = "b" if odd else "a"
    if order == 0:
        return name
    if order <= 3:
        return name + "_" + "x" * order
    return f"{name}_{{x,{order}}}"


def word_text(word) -> str:
    return "*".join(letter_text(l) for l in word) if word else "1"


def word_key(word):
    return (len(word), tuple(word))


def canonical(word):
    """(canonical rotation, sign), or (None, 0) for a word that equals minus
    itself under some rotation."""
    if not word:
        return (), 1
    total_odd = sum(1 for odd, _ in word if odd)
    flip = total_odd % 2 == 0
    best, signs = None, set()
    sign = 1
    for r in range(len(word)):
        rot = word[r:] + word[:r]
        if best is None or word_key(rot) < word_key(best):
            best, signs = rot, {sign}
        elif rot == best:
            signs.add(sign)
        if word[r][0] and flip:
            sign = -sign
    if len(signs) == 2:
        return None, 0
    return best, signs.pop()


def add(sum_, word, value) -> None:
    acc = sum_.get(word, 0) + value
    if acc:
        sum_[word] = acc
    else:
        sum_.pop(word, None)


def close(open_sum: dict) -> dict:
    out: dict = {}
    for word, value in open_sum.items():
        canon, sign = canonical(word)
        if canon is not None:
            add(out, canon, value * sign)
    return out


def derivative(sum_: dict, cyclic: bool) -> dict:
    """Total derivative by the product rule; re-canonicalised when cyclic."""
    out: dict = {}
    for word, value in sum_.items():
        for i, (odd, order) in enumerate(word):
            shifted = word[:i] + ((odd, order + 1),) + word[i + 1:]
            if cyclic:
                shifted, sign = canonical(shifted)
                if shifted is None:
                    continue
                add(out, shifted, value * sign)
            else:
                add(out, shifted, value)
    return out


def euler(cyc: dict, odd_kind: bool) -> dict:
    """Left variational derivative along the even (`A`) or odd (`B`) letters:
    cut the circle at each occurrence and apply (-D)^order to the rest."""
    out: dict = {}
    for word, value in cyc.items():
        total_odd = sum(1 for odd, _ in word if odd)
        sign = 1
        for i, (odd, order) in enumerate(word):
            if odd == odd_kind:
                piece = {word[i + 1:] + word[:i]: value * sign * (-1) ** order}
                for _ in range(order):
                    piece = derivative(piece, cyclic=False)
                for w, c in piece.items():
                    add(out, w, c)
            if odd and total_odd % 2 == 0:
                sign = -sign
    return out


def times(f: dict, g: dict) -> dict:
    """Average over every pair of signed rotations of the concatenation."""
    out: dict = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            weight = c1 * c2 * Fraction(1, len(w1) * len(w2))
            for r1, s1 in rotations(w1):
                for r2, s2 in rotations(w2):
                    canon, sign = canonical(r1 + r2)
                    if canon is not None:
                        add(out, canon, weight * s1 * s2 * sign)
    return out


def rotations(word):
    total_odd = sum(1 for odd, _ in word if odd)
    sign = 1
    for r in range(len(word)):
        yield word[r:] + word[:r], sign
        if word[r][0] and total_odd % 2 == 0:
            sign = -sign


def sum_terms(sum_: dict) -> dict:
    """The sum keyed by word text, as machine output prints it."""
    return {word_text(w): c for w, c in sum_.items()}


def machine_terms(text: str) -> dict | None:
    """Parse a `term: coeff | word` machine record with constant coefficients
    into {word text: Fraction}; None when the record is malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "status: ok":
        return None
    terms: dict = {}
    count = None
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        if key == "count":
            count = int(value)
        elif key == "term":
            coeff, _, word = value.partition(" | ")
            try:
                terms[word] = Fraction(coeff)
            except ValueError:
                return None
    if count != len(terms):
        return None
    return terms


_REF_LEFT = ((A, 0), (B, 1), (A, 0), (A, 1), (B, 0))
_REF_RIGHT = ((A, 1), (A, 0), (B, 0), (A, 0))


def reference_block() -> int:
    """A fixed piece of exact arithmetic on cyclic words, of the same kind as
    the library's work, timed between operations to track the host's speed."""
    size = 0
    for value in range(1, 5):
        product = times(close({_REF_LEFT: Fraction(value, 2)}), close({_REF_RIGHT: Fraction(-2, 3)}))
        size += len(euler(product, A))
    return size
