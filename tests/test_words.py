"""Words, coefficients, signed cyclic normalization, and the closed product."""

import copy
import itertools
import math
import pickle
import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycvar.words import (
    Coefficient,
    FormalSum,
    Letter,
    _WideLetter,
    close,
    concat,
    normalize,
    pass_sign,
    times,
)
from cycvar import corpus, jets
from cycvar.jets import (
    JetContext,
    evolutionary_apply,
    make_section,
    total_derivative,
)
from cycvar.lang import letter_text, parse_cyclic, parse_open, parse_operator
from cycvar.operators import _slot
from cycvar.poisson import jacobi_defect, jacobi_defect_expanded
from cycvar.schouten import schouten_by_variations
from cycvar.variational import Functional, coupling, covector_of, euler_derivative

from oracles import (
    brute_close,
    copy_sum,
    brute_normalize,
    exhaustive_words,
    fraction_add,
    fraction_diff,
    fraction_product,
    fraction_scale,
    fraction_terms,
    minus_d_power,
    reference_adjoint,
    reference_euler_derivative,
    reference_times,
)

CTX = JetContext(fields=1, directions=1)
A = CTX.letter(False, 1)
AX = CTX.shift(A, 1)
B = CTX.letter(True, 1)
BX = CTX.shift(B, 1)


def single(letters, value=1, cyclic=True):
    return FormalSum.single(cyclic, tuple(letters), CTX.const(value))


def horner(ctx, parts):
    """The (-D)-series of finished open parts, by `jets._horner` on their
    (Coefficient, pieces) pairs, read back as a sum by `jets._series_sum`."""
    terms = [(c, ((s, w, 1),)) for s, p in parts.items() for w, c in p.terms.items()]
    return jets._series_sum(*jets._horner(ctx, terms))


class TestCoefficient:
    def test_arithmetic(self):
        c = Coefficient.monomial((2,), Fraction(3, 2)) + Coefficient.constant(1, 1)
        d = c * Coefficient.monomial((1,), 2)
        assert d.terms == {(1,): Fraction(2), (3,): Fraction(3)}

    def test_cancellation_drops_entries(self):
        c = Coefficient.constant(5, 1) - Coefficient.constant(5, 1)
        assert not c

    def test_constant_value(self):
        assert Coefficient.constant(Fraction(-2, 3), 1).constant_value() == Fraction(-2, 3)
        assert Coefficient.monomial((1,), 1).constant_value() is None
        assert Coefficient().constant_value() == 0


SHAPES = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)])
# Whole Fractions (4/2) must come back as ints; 3/2 * 2/3 and 1/2 + 1/2 are
# whole too.
SCALARS = st.sampled_from(
    [0, 1, -1, 3, Fraction(4, 2), Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]
)


def assert_lean(c: Coefficient) -> None:
    """Every stored value is a nonzero int when whole, else a Fraction."""
    for value in c.terms.values():
        assert value
        whole = Fraction(value).denominator == 1
        assert type(value) is (int if whole else Fraction), (c, value)


class TestLeanValues:
    """Coefficient values are ints exactly when their denominator is 1, and
    every operation agrees with arithmetic done in Fractions only."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), SHAPES, SCALARS)
    def test_arithmetic_matches_fraction_reference(self, seed, shape, k):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        c = corpus.coefficient(rng, ctx, max_x_degree=2)
        d = corpus.coefficient(rng, ctx, max_x_degree=2)
        cases = [
            (c, fraction_terms(c)),
            (Coefficient(list(c.terms.items()) + list(d.terms.items())), fraction_add(c, d)),
            (c + d, fraction_add(c, d)),
            (c - d, fraction_add(c, d, -1)),
            (c - c, {}),
            (-c, fraction_scale(c, -1)),
            (c * d, fraction_product(c, d)),
            (c * k, fraction_scale(c, k)),
            (k * c, fraction_scale(c, k)),
            (c * Coefficient.constant(k, ctx.directions), fraction_scale(c, k)),
        ]
        for got, want in cases:
            assert_lean(got)
            assert got.terms == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), SHAPES, SCALARS)
    def test_constant_value_is_a_fraction(self, seed, shape, k):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        c = corpus.coefficient(random.Random(seed), ctx, max_x_degree=0)
        for constant in (c, ctx.const(k), c * k):
            value = constant.constant_value()
            assert type(value) is Fraction
            assert value == sum(map(Fraction, constant.terms.values()), Fraction(0))

    def test_whole_fractions_are_stored_as_ints(self):
        c = Coefficient({(0,): Fraction(6, 3), (1,): Fraction(1, 2)})
        assert c.terms == {(0,): 2, (1,): Fraction(1, 2)}
        assert type(c.terms[(0,)]) is int
        assert type((c * 2).terms[(1,)]) is int
        assert repr(c) == "Coefficient({(0,): 2, (1,): Fraction(1, 2)})"


def assert_canonical(c: Coefficient) -> None:
    """Integer numerators over a positive denominator, in lowest terms; zero
    is the empty polynomial over 1."""
    assert type(c.den) is int and c.den >= 1, c
    assert all(type(v) is int and v for v in c.nums.values()), c
    if c.nums:
        assert math.gcd(c.den, *c.nums.values()) == 1, (c.den, c.nums)
    else:
        assert c.den == 1, c.den


class TestCanonicalForm:
    """Every result keeps one lowest-terms form, so two coefficients are
    equal exactly when their rational values are."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), SHAPES)
    def test_results_are_in_lowest_terms(self, seed, shape):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        c = corpus.coefficient(rng, ctx, max_x_degree=2)
        d = corpus.coefficient(rng, ctx, max_x_degree=2)
        half, third = ctx.const(Fraction(1, 2)), ctx.const(Fraction(1, 3))
        three_halves, two_thirds = ctx.const(Fraction(3, 2)), ctx.const(Fraction(2, 3))
        results = [
            c, d, c + d, c - d, c - c, -c, c * d, c * 0, 0 * c,
            half + third, half + half, half - half, three_halves * two_thirds,
            c * half + d * third, c * half - c * half,
            c * three_halves * two_thirds, c * Fraction(3, 2) * Fraction(2, 3),
            (c * d - d * c) + c, (c + d) * half * 2, c * 6 * third,
        ]
        # the derivative of a coefficient, as `total_derivative` builds it
        # under the empty word
        derivative = lambda c, d: total_derivative(ctx, FormalSum.single(False, (), c), d).terms.get(
            (), Coefficient()
        )
        results += [derivative(c, direction) for direction in range(1, ctx.directions + 1)]
        results += [derivative(c * half, direction) for direction in range(1, ctx.directions + 1)]
        for got in results:
            assert_canonical(got)
        for x, y in itertools.product(results, repeat=2):
            assert (x == y) == (fraction_terms(x) == fraction_terms(y)), (x, y)
        assert c * three_halves * two_thirds == c
        assert (c + d) * half * 2 == c + d
        assert half + third == ctx.const(Fraction(5, 6))
        assert c - c == Coefficient()


class TestLetterOrder:
    """Every way of building a letter stores its total derivative order, and
    letters sorted as plain tuples come out in the spelled-out order: parity,
    field index, total derivative order, multi-index."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_tuple_order_is_the_letter_order(self, seed, n):
        ctx = JetContext(fields=2, directions=n)
        rng = random.Random(seed)
        letters = [corpus.letter(rng, ctx, rng.random() < 0.5, max_order=3) for _ in range(8)]
        letters += [ctx.shift(l, rng.randint(1, n)) for l in letters]
        letters += [w[0] for l in letters for w in parse_open(letter_text(l, ctx), ctx).terms]
        letters += [_slot(ctx, l.orders) for l in letters]
        for l in letters:
            assert l.order == sum(l.orders)
        spelled = sorted(letters, key=lambda l: (l.odd, l.index, sum(l.orders), l.orders))
        assert sorted(letters) == spelled


# a letter as the tuple of its fields, whose repr is the reference for a
# letter's repr
_TupleLetter = namedtuple("Letter", "odd index order orders")


_PACKED_MAX = 2**9 - 1
# field values around both ends of a 9-bit field and past it, up to the
# longest numbers the CLI reads (4,300 digits)
_FIELDS = st.sampled_from([0, 1, 2, _PACKED_MAX - 1, _PACKED_MAX, _PACKED_MAX + 1, 10**4299 + 1, 10**4299 + 2])


def _letters(n, order_is_sum=False):
    """Letters with n directions; `order` is drawn on its own unless
    `order_is_sum`."""
    return st.builds(
        lambda odd, index, order, orders: Letter(odd, index, sum(orders) if order_is_sum else order, orders),
        st.booleans(),
        _FIELDS,
        _FIELDS,
        st.tuples(*[_FIELDS] * n),
    )


def _safe(text):
    """The text, or the exception type when a field is too long to print."""
    try:
        return text()
    except ValueError as exc:
        return type(exc)


class TestPackedLetters:
    """A letter is an int that packs its fields in sort order, so words hash
    and compare in C; a letter with a field past 64 bits compares and hashes
    by its fields, and both kinds behave as the field tuples did."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(_letters(n), _letters(n))))
    def test_order_equality_and_hash_follow_the_fields(self, pair):
        a, b = pair
        ta, tb = tuple(a), tuple(b)
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
        assert (a == b, a != b) == (ta == tb, ta != tb)
        if a == b:
            assert hash(a) == hash(b)
        for letter in a, b:
            fields = tuple(letter)
            assert letter != fields and not letter == fields and fields != letter
            assert bool(letter)
            assert _safe(lambda: repr(letter)) == _safe(lambda: repr(_TupleLetter(*fields)))
            rebuilt = Letter(*letter)
            assert rebuilt == letter and type(rebuilt) is type(letter)
            packed = max(fields[1:3] + fields[3]) <= _PACKED_MAX
            assert type(letter) is (Letter if packed else _WideLetter)
            if packed:
                # no Python-level method between two packed letters
                assert type(letter).__lt__ is int.__lt__ and type(letter).__eq__ is int.__eq__
                assert type(letter).__hash__ is int.__hash__

    def test_slot_letter_is_true(self):
        slot = _slot(CTX, (0,))
        assert slot.index == 0 and slot.order == 0 and bool(slot)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 2)
        .flatmap(lambda n: st.lists(_letters(n, order_is_sum=True), min_size=1, max_size=3))
        .flatmap(lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=7).map(tuple))
    )
    def test_normalize_on_mixed_words_matches_brute(self, word):
        assert normalize(word) == brute_normalize(word)

    @pytest.mark.parametrize("orders", [(3,), (2**64,), (0, 10**4299)], ids=["packed", "wide", "long"])
    def test_copy_and_pickle_round_trip(self, orders):
        letter = Letter(True, 2, sum(orders), orders)
        for other in (
            copy.copy(letter),
            copy.deepcopy(letter),
            *(pickle.loads(pickle.dumps(letter, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert other == letter and type(other) is type(letter) and tuple(other) == tuple(letter)
            assert hash(other) == hash(letter)

    def test_deepcopy_of_a_sum(self):
        wide = Letter(False, 1, 2**64, (2**64,))
        f = single([A, AX, B]) + FormalSum.single(True, (wide, A, wide), CTX.const(Fraction(2, 3)))
        g = copy.deepcopy(f)
        assert g == f and g.terms is not f.terms
        assert pickle.loads(pickle.dumps(f)) == f

    def test_copies_and_pickles_carry_the_terms_only(self):
        """What the library derived from a sum stays with the sum: a copy or
        a pickle, at every protocol, holds its flavor and terms only, and
        derives afresh; packed and wide letters both come back."""
        wide = Letter(False, 600, 0, (0,))
        f = single([A, A, AX], Fraction(2, 3)) + single([A, A]) + FormalSum.single(True, (A, A), X)
        f += FormalSum.single(True, (wide, A), CTX.const(Fraction(1, 3)))
        covector_of(CTX, f)
        assert f._derived and type(wide) is _WideLetter
        fresh = copy_sum(f)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(f, protocol)
            assert len(data) == len(pickle.dumps(fresh, protocol))
            back = pickle.loads(data)
            assert back == f and back._derived is None
            assert [type(l) for w in back.terms for l in w] == [type(l) for w in f.terms for l in w]
        deep = copy.deepcopy(f)
        assert deep == f and deep._derived is None and deep.terms is not f.terms
        # a shallow copy written afterwards leaves the original and its kept
        # covector as they were
        before, kept = repr(f), covector_of(CTX, f)
        shallow = copy.copy(f)
        assert shallow == f and shallow._derived is None
        shallow.add_word((A,), CTX.one())
        assert repr(f) == before and covector_of(CTX, f) is kept == covector_of(CTX, copy_sum(f))

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            A.odd = True
        with pytest.raises(AttributeError):
            del A.orders
        assert tuple(A) == (False, 1, 0, (0,))


class TestNormalize:
    def test_even_pair_has_no_sign(self):
        w, s = normalize((AX, A))
        assert (w, s) == ((A, AX), 1)

    def test_odd_pair_picks_up_sign(self):
        w, s = normalize((BX, B))
        assert (w, s) == ((B, BX), -1)

    def test_odd_diagonal_vanishes(self):
        assert normalize((B, B)) == (None, 0)
        assert normalize((BX, BX)) == (None, 0)

    def test_odd_triple_survives(self):
        w, s = normalize((B, B, B))
        assert w == (B, B, B) and s == 1

    def test_empty_and_singleton(self):
        assert normalize(()) == ((), 1)
        assert normalize((B,)) == ((B,), 1)

    def test_matches_brute_normalizer_exhaustively(self):
        alphabet = (A, AX, B, BX)
        for w in exhaustive_words(alphabet, 4):
            got = normalize(w)
            want = brute_normalize(w)
            assert got == want, w

    def test_matches_brute_on_longer_mixed_words(self):
        alphabet = (A, B, BX)
        for w in itertools.product(alphabet, repeat=5):
            assert normalize(w) == brute_normalize(w), w


CTX22 = JetContext(fields=2, directions=2)
LETTERS22 = st.sampled_from(
    [
        CTX22.letter(odd, j, orders)
        for odd in (False, True)
        for j in (1, 2)
        # (1, 0) against (0, 2) or (2, 0) against (0, 1): total order and
        # multi-index order disagree
        for orders in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))
    ]
)
# Words as long as the rotation products `times` builds, and periodic words
# w * k, whose repeated rotations carry one sign or two (and so vanish).
LONG_WORDS = st.lists(LETTERS22, max_size=16).map(tuple) | st.lists(
    LETTERS22, min_size=1, max_size=8
).flatmap(lambda w: st.integers(2, 16 // len(w)).map(lambda k: tuple(w) * k))


class TestNormalizeLongWords:
    @settings(max_examples=400, deadline=None)
    @given(LONG_WORDS)
    def test_matches_brute_normalizer(self, w):
        assert normalize(w) == brute_normalize(w)


class TestFormalSum:
    def test_cyclic_merge(self):
        f = single([A, AX]) + single([AX, A])
        assert f == single([A, AX], 2)

    def test_odd_rotation_sign_merge(self):
        f = single([B, BX]) + single([BX, B])
        assert f.is_zero()

    def test_zero_diagonal_dropped_on_entry(self):
        assert single([B, B]).is_zero()

    def test_concat_then_close_agrees_with_brute(self):
        f = FormalSum.single(False, (A, B), CTX.one())
        g = FormalSum.single(False, (BX, A), CTX.x_power(1, 1))
        h = concat(f, g)
        assert close(h) == brute_close(CTX, h)


def _graded_open_sum(rng, ctx, odd):
    """Open sum of up to three words, each with an odd (1) or even (0 or 2)
    count of odd letters."""
    out = FormalSum(cyclic=False)
    for _ in range(rng.randint(1, 3)):
        odd_letters = 1 if odd else rng.choice((0, 2))
        length = rng.randint(max(odd_letters, 1), 3)
        out.add_word(
            corpus.open_word(rng, ctx, length, odd_letters), corpus.coefficient(rng, ctx)
        )
    return out


class TestCloseConcat:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_close_of_concat(self, seed, shape, f_odd, g_odd, cancel):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        f = _graded_open_sum(rng, ctx, f_odd)
        g = _graded_open_sum(rng, ctx, g_odd)
        if cancel:
            # c*(u + v) and d*(v - s*u), with s the sign that rotates u*v
            # into v*u, have cancelling closed products u*v and v*u
            u = corpus.open_word(rng, ctx, rng.randint(1, 2), int(f_odd))
            v = corpus.open_word(rng, ctx, rng.randint(1, 2), int(g_odd))
            s = -1 if f_odd and g_odd else 1
            c, d = corpus.coefficient(rng, ctx), corpus.coefficient(rng, ctx)
            pf, pg = FormalSum(cyclic=False), FormalSum(cyclic=False)
            pf.add_word(u, c)
            pf.add_word(v, c)
            pg.add_word(v, d)
            pg.add_word(u, d * -s)
            assert normalize(u + v)[0] not in close(concat(pf, pg)).terms
            f, g = f + pf, g + pg
        assert _model(close(concat(f, g))) == _model_concat(f, g, True)
        assert _model(close(concat(g, f))) == _model_concat(g, f, True)

    def test_rejects_cyclic_arguments(self):
        with pytest.raises(ValueError):
            concat(single([A]), single([A], cyclic=False))


class TestCut:
    def test_pass_sign_table(self):
        assert pass_sign(A, 3) == 1
        assert pass_sign(B, 3) == 1
        assert pass_sign(B, 2) == -1
        assert pass_sign(B, 1) == 1


def _times_operand(rng, ctx, scalar):
    """Cyclic sum of words with one or two odd counts among 0, 1 and 2 and
    x-dependent coefficients, plus an empty-word term if `scalar`."""
    out = FormalSum(cyclic=True)
    for odd in rng.sample((0, 1, 2), rng.randint(1, 2)):
        out = out + corpus.cyclic_density(rng, ctx, odd, words=rng.randint(1, 2), max_len=3)
    if scalar:
        out.add_word((), corpus.coefficient(rng, ctx))
    return out


class TestTimes:
    def test_single_letters(self):
        f = single([A])
        assert times(f, f) == single([A, A])

    def test_scalar_factor_scales(self):
        one = FormalSum.single(True, (), CTX.const(3))
        f = single([A, B])
        assert times(one, f) == single([A, B], 3)

    def test_commutative_on_sample(self):
        f = single([A, AX]) + single([B, A], 2)
        g = single([A]) - single([B, BX, A])
        assert times(f, g) == times(g, f)

    def test_length_two_pair_averages_over_four_concatenations(self):
        c = CTX.letter(False, 1, (3,))
        d = CTX.letter(False, 1, (4,))
        f = single([A, c])
        g = single([AX, d])
        out = times(f, g)
        quarter = Fraction(1, 4)
        expect = (
            single([A, c, AX, d]).scale(quarter)
            + single([A, c, d, AX]).scale(quarter)
            + single([c, A, AX, d]).scale(quarter)
            + single([c, A, d, AX]).scale(quarter)
        )
        assert out == expect

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_reference_product(self, seed, shape, f_scalar, g_scalar):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        f, g = (_times_operand(rng, ctx, scalar) for scalar in (f_scalar, g_scalar))
        assert times(f, g) == reference_times(ctx, f, g)


def assert_sum_canonical(f: FormalSum) -> None:
    """Every coefficient of a returned sum is a finished Coefficient in
    lowest terms: no zero numerator, no empty coefficient, and
    gcd(den, *nums) == 1.  Equality of sums depends on that."""
    for w, c in f.terms.items():
        assert type(c) is Coefficient, (w, type(c))
        assert c.nums, w
        assert_canonical(c)


def _model(f: FormalSum) -> dict:
    """A sum as word -> {monomial: Fraction}."""
    return {w: fraction_terms(c) for w, c in f.terms.items()}


def _collect(pairs, cyclic: bool) -> dict:
    """Add (word, {monomial: value}) pairs in Fractions only, closing each
    word through the brute normalizer when `cyclic`; zeros dropped."""
    out: dict = {}
    for w, values in pairs:
        sign = 1
        if cyclic:
            w, sign = brute_normalize(w)
            if w is None:
                continue
        acc = out.setdefault(w, {})
        for m, v in values.items():
            acc[m] = acc.get(m, 0) + sign * Fraction(v)
    out = {w: {m: v for m, v in values.items() if v} for w, values in out.items()}
    return {w: values for w, values in out.items() if values}


def _model_derivative(ctx, f: FormalSum, direction: int) -> dict:
    """The total derivative by the product rule, in Fractions only: the
    coefficient's derivative, then each letter shifted in turn."""
    pairs = []
    for w, c in f.terms.items():
        pairs.append((w, fraction_diff(c, direction)))
        for i, letter in enumerate(w):
            pairs.append((w[:i] + (ctx.shift(letter, direction),) + w[i + 1:], fraction_terms(c)))
    return _collect(pairs, f.cyclic)


def _model_concat(f: FormalSum, g: FormalSum, cyclic: bool) -> dict:
    return _collect(
        (
            (w1 + w2, fraction_product(c1, c2))
            for w1, c1 in f.terms.items()
            for w2, c2 in g.terms.items()
        ),
        cyclic,
    )


DENOMINATORS = (1, 2, 3, 6)


def _fractional(rng, f: FormalSum) -> FormalSum:
    """f scaled by a rational whose denominator is among 1, 2, 3 and 6, so
    that sums and products of its coefficients share and cancel factors."""
    return f.scale(Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice(DENOMINATORS)))


def _odd_open_sum(rng, ctx) -> FormalSum:
    """Open sum of one-letter odd words: its closed squares b*b vanish."""
    out = FormalSum(cyclic=False)
    for _ in range(rng.randint(1, 3)):
        out.add_word((corpus.letter(rng, ctx, True, max_order=1),), corpus.coefficient(rng, ctx))
    return out


class TestAccumulator:
    """Every layer loop builds its result through the one accumulator, which
    adds integer numerators in place over a running denominator and
    settles each word once.  On seeded corpus sums whose coefficients have
    denominators among 1, 2, 3 and 6, with planted cancellations to zero and
    cyclic words that vanish, every result matches a reference computed in
    Fractions only (or the per-occurrence references of `oracles`), and
    every Coefficient in it is canonical."""

    SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(12))
    def test_layers_match_references(self, shape, seed):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(7000 + 100 * seed + 10 * shape[0] + shape[1])
        f = _fractional(rng, corpus.open_sum(rng, ctx, words=4, max_len=3))
        g = _fractional(rng, corpus.open_sum(rng, ctx, words=3, max_len=2))
        odd = _fractional(rng, _odd_open_sum(rng, ctx))
        density = _fractional(rng, corpus.cyclic_density(rng, ctx, rng.randint(0, 2), words=3))
        results = []

        def check(got, want: dict):
            assert_sum_canonical(got)
            assert _model(got) == want
            results.append(got)

        # sums and differences, with a planted cancellation to zero
        check(f + g, _collect(list(_model(f).items()) + list(_model(g).items()), False))
        check(f - f, {})
        check((f + g) - g, _model(f))
        # closure and products, with odd squares that vanish under rotation
        check(close(f + odd), _collect(_model(f + odd).items(), True))
        check(close(concat(odd, odd)), _model_concat(odd, odd, True))
        check(concat(f, g), _model_concat(f, g, False))
        check(close(concat(f, g)), _model(brute_close(ctx, concat(f, g))))
        p = corpus.covector(rng, ctx)
        values = [_fractional(rng, corpus.open_sum(rng, ctx)) for _ in range(ctx.fields)]
        pairs = [
            (w, v)
            for pc, vc in zip(p.components, values)
            for w, v in _model_concat(pc, vc, True).items()
        ]
        check(coupling(ctx, p, values), _collect(pairs, True))
        # total derivatives, open and cyclic
        for direction in range(1, ctx.directions + 1):
            check(total_derivative(ctx, f, direction), _model_derivative(ctx, f, direction))
            check(total_derivative(ctx, density, direction), _model_derivative(ctx, density, direction))
        # the (-D)-series, and a planted cancellation: D q - D(q) is zero
        zero = (0,) * ctx.directions
        parts = {zero: f, tuple(1 if d == 0 else 0 for d in range(ctx.directions)): g}
        parts[tuple(2 if d == ctx.directions - 1 else 0 for d in range(ctx.directions))] = f
        want = {}
        for orders, part in parts.items():
            want = _collect(list(want.items()) + list(_model(minus_d_power(ctx, part, orders)).items()), False)
        check(horner(ctx, parts), want)
        first = tuple(1 if d == 0 else 0 for d in range(ctx.directions))
        check(horner(ctx, {zero: total_derivative(ctx, g, 1), first: g}), {})
        # Euler derivatives, and the planted zero E(D h) = 0
        exact = total_derivative(ctx, density, ctx.directions)
        for odd_kind in (False, True):
            for index in range(1, ctx.fields + 1):
                for side in ("left", "right"):
                    check(
                        euler_derivative(ctx, density, odd_kind, index, side),
                        _model(reference_euler_derivative(ctx, density, odd_kind, index, side)),
                    )
                check(euler_derivative(ctx, exact, odd_kind, index), {})
        # the adjoint, expanded term by term
        op = corpus.operator(rng, ctx, terms=3).scale(Fraction(rng.choice((1, 5)), rng.choice(DENOMINATORS)))
        check(op.adjoint().words, _model(reference_adjoint(op).words))
        check(op.adjoint().adjoint().words, _model(op.words))
        assert results

    @pytest.mark.parametrize("shape", SHAPES)
    def test_settled_coefficients_are_not_written_again(self, shape):
        """A word touched twice gets a coefficient of its own, settled in
        place: the sum returned and the operands keep their values when the
        same loops run again over them."""
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(7700 + 10 * shape[0] + shape[1])
        f = _fractional(rng, corpus.open_sum(rng, ctx, words=4, max_len=2))
        first = total_derivative(ctx, f, 1)
        before = (_model(f), _model(first))
        again = total_derivative(ctx, first + f, 1) - total_derivative(ctx, first, 1)
        assert _model(again) == _model(first)
        assert (_model(f), _model(first)) == before
        assert_sum_canonical(again)


X = Coefficient.monomial((1,), 1)


def _sum_operands():
    """Two cyclic sums sharing words, so that adding them both merges and
    cancels coefficients."""
    f = single([A, AX], 2) + FormalSum.single(True, (A, A, A), X + CTX.const(3))
    g = single([A, AX], -2) + FormalSum.single(True, (A, A, A), X) + single([B, BX, A])
    return f, g


class TestNoAliasing:
    """Results may share Coefficient objects with their operands, so neither
    computing a result nor writing to it through `add_word` may change an
    operand."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda f, g: f + g,
            lambda f, g: f - g,
            lambda f, g: g + f,
            lambda f, g: -f,
            lambda f, g: f.scale(3),
            lambda f, g: f.scale(X),
        ],
        ids=["add", "sub", "add-swapped", "neg", "scale-int", "scale-coefficient"],
    )
    def test_sum_arithmetic(self, op):
        f, g = _sum_operands()
        before = (repr(f), repr(g))
        out = op(f, g)
        assert (repr(f), repr(g)) == before
        for w, c in list(f.terms.items()) + list(g.terms.items()):
            out.add_word(w, c)
            out.add_word(w, Coefficient(fraction_diff(c, 1)) + c)
        assert (repr(f), repr(g)) == before

    def test_add_word(self):
        f, g = _sum_operands()
        h = f + g
        c = X + CTX.const(1)
        before = (repr(f), repr(g), repr(h), repr(c))
        target = FormalSum(cyclic=True)
        for w in h.terms:
            target.add_word(w, c)
        shared = target + FormalSum(cyclic=True)
        shared_before = repr(shared)
        for w, hc in h.terms.items():
            target.add_word(w, hc)
            target.add_word(w, -c)
        assert (repr(f), repr(g), repr(h), repr(c)) == before
        assert repr(shared) == shared_before

    @pytest.mark.parametrize(
        "loop",
        [
            "minus_d_series",
            "minus_d_series-order-zero",
            "coupling",
            "jacobi_defect",
            "jacobi_defect_expanded",
            "schouten_by_variations",
            "total_derivative",
            "cuts",
            "euler_derivative",
            "evolutionary_apply",
            "apply",
            "adjoint",
            "concat",
        ],
    )
    def test_accumulation_loops(self, loop):
        """The loops that build through the accumulator, which adds integer
        numerators in place, never write to an operand's coefficients:
        their operands keep their repr through the call and through later
        writes to the result."""
        rng = random.Random(31)
        two = loop.startswith("minus") or loop == "total_derivative"
        ctx = JetContext(fields=2, directions=2) if two else CTX
        if loop.startswith("minus"):
            # overlapping words, so that the running sum merges and cancels
            base = corpus.open_sum(rng, ctx, words=3)
            # alone, the order-zero part is the whole series, and the result
            # must still be a fresh sum
            operands = {(0, 0): base}
            if loop == "minus_d_series":
                operands[(1, 0)] = base + corpus.open_sum(rng, ctx)
                operands[(0, 1)] = -base
                operands[(2, 1)] = base
            call = lambda: horner(ctx, operands)
        elif loop == "coupling":
            operands = (
                corpus.covector(rng, ctx),
                tuple(corpus.open_sum(rng, ctx) for _ in range(ctx.fields)),
            )
            call = lambda: coupling(ctx, *operands)
        elif loop == "jacobi_defect":
            # a skew operator and a triple on which its bracket breaks Jacobi
            operands = (parse_operator("op(a*D + D*R(a))", ctx),) + tuple(
                Functional(ctx, parse_cyclic(text, ctx))
                for text in ("cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_xx)")
            )
            call = lambda: jacobi_defect(ctx, *operands).density
        elif loop == "jacobi_defect_expanded":
            operands = (
                parse_operator("op(a*D + D*R(a))", ctx),
                tuple(corpus.covector(rng, ctx) for _ in range(3)),
            )
            call = lambda: jacobi_defect_expanded(ctx, *operands)
        elif loop == "schouten_by_variations":
            operands = (
                corpus.multivector(rng, ctx, 2, words=2, max_len=3),
                corpus.multivector(rng, ctx, 1, words=2, max_len=3),
            )
            call = lambda: schouten_by_variations(ctx, *operands)
        elif loop == "total_derivative":
            # short words over few letters, so that the images collide
            operands = (corpus.open_sum(rng, ctx, words=4, max_len=2, max_order=1),)
            call = lambda: total_derivative(ctx, *operands, 2)
        elif loop in ("cuts", "euler_derivative"):
            # a density whose cuts meet the same open words more than once
            operands = (parse_cyclic("cyc(a*a*a_x) + 2*cyc(a*a_x*a_x) - cyc(a*a_x*a*a_x)/3", ctx),)
            if loop == "cuts":
                # the order-zero cut pieces, read back as a sum by the series
                def call():
                    pieces = ctx._cut_pieces[False, 1, False]
                    terms = [(c, tuple(p for p in pieces[w] if p[0] == (0,))) for w, c in operands[0].terms.items()]
                    return jets._series_sum(*jets._horner(ctx, terms))
            else:
                # the cut parts go straight into the (-D)-series
                call = lambda: euler_derivative(ctx, *operands, False, 1)
        elif loop == "evolutionary_apply":
            operands = (
                make_section(ctx, even=(parse_open("a*a_x + x*a_x*a/2", ctx),), parity=0),
                parse_cyclic("cyc(a*a*a_x) + cyc(a*a_x)/3 + 3*x*cyc(a*a*a)", ctx),
            )
            call = lambda: evolutionary_apply(ctx, *operands)
        elif loop in ("apply", "adjoint"):
            operands = (
                parse_operator("op(a*D + D*R(a) + (1/2 + x)*D^2*a*a_x + D^3/3)", ctx),
                parse_open("a*a_x + a_x*a/2 - x*a*a", ctx),
            )
            if loop == "apply":
                call = lambda: operands[0].apply(operands[1])
            else:
                call = lambda: operands[0].adjoint().words
        else:
            # products that meet one word twice, a factor 1 keeping the
            # other factor's coefficient for the first of them
            operands = (
                parse_open("a + a*a_x - a_x/2", ctx),
                parse_open("(1/2 + x)*a_x*a + 2*a + 3*a*a_x", ctx),
            )
            call = lambda: concat(*operands)
        before = repr(operands)
        out = call()
        assert out
        assert repr(operands) == before
        again = repr(out)
        # a functional's density is sealed, so its copy, which shares every
        # Coefficient with it, is written in its place
        written = copy.copy(out) if loop == "jacobi_defect" else out
        for w, c in list(written.terms.items()):
            written.add_word(w, Coefficient(fraction_diff(c, 1)) + c)
        assert repr(operands) == before
        assert repr(call()) == again

    @pytest.mark.parametrize(
        "op",
        [
            lambda c, d: c + d,
            lambda c, d: c - d,
            lambda c, d: -c,
            lambda c, d: c * d,
            lambda c, d: c * Fraction(-2, 3),
            lambda c, d: 3 * c,
        ],
        ids=["add", "sub", "neg", "mul", "mul-scalar", "rmul-scalar"],
    )
    def test_coefficient_arithmetic(self, op):
        c = Coefficient({(0,): 2, (2,): Fraction(1, 2)})
        d = Coefficient({(0,): -2, (1,): 5})
        before = (repr(c), repr(d))
        out = op(c, d)
        assert (repr(c), repr(d)) == before
        out_before = repr(out)
        target = FormalSum.single(False, (A,), out)
        target.add_word((A,), c)
        target.add_word((A,), d)
        target.add_word((A,), -out)
        assert (repr(c), repr(d), repr(out)) == before + (out_before,)


FOREIGN_OPERANDS = {
    "coefficient+int": lambda c, f, op: c + 1,
    "int-coefficient": lambda c, f, op: 1 - c,
    "coefficient-sum": lambda c, f, op: c - f,
    "coefficient*str": lambda c, f, op: c * "1/2",
    "str*coefficient": lambda c, f, op: "1/2" * c,
    "coefficient*float": lambda c, f, op: c * 0.5,
    "coefficient*sum": lambda c, f, op: c * f,
    # a letter is an int, but not a number
    "coefficient*letter": lambda c, f, op: c * A,
    "letter*coefficient": lambda c, f, op: A * c,
    "sum-scaled-by-letter": lambda c, f, op: f.scale(A),
    "letter-constant": lambda c, f, op: CTX.const(A),
    "sum+int": lambda c, f, op: f + 1,
    "sum-coefficient": lambda c, f, op: f - c,
    "int+sum": lambda c, f, op: 1 + f,
    "operator+int": lambda c, f, op: op + 1,
    "operator-sum": lambda c, f, op: op - f,
    "sum-operator": lambda c, f, op: f - op,
    "hash-sum": lambda c, f, op: hash(f),
    "hash-operator": lambda c, f, op: hash(op),
    "hash-coefficient": lambda c, f, op: hash(c),
}


@pytest.mark.parametrize("case", FOREIGN_OPERANDS)
def test_foreign_operands_raise_type_error(case):
    """Arithmetic of a Coefficient, a sum or an operator with an operand of
    a type it does not take raises TypeError, and none of them hashes; sums
    of the two flavors still raise ValueError."""
    c, f = CTX.const(Fraction(1, 2)), single([A, AX])
    op = parse_operator("op(a*D + D*R(a))", CTX)
    with pytest.raises(TypeError):
        FOREIGN_OPERANDS[case](c, f, op)
    with pytest.raises(ValueError):
        f + single([A, AX], cyclic=False)
