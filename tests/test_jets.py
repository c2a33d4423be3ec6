"""Jet contexts, total derivatives, and evolutionary fields."""

import gc
import itertools
import random
import sys
import weakref

import pytest

from cycvar import corpus, jets, words
from cycvar.errors import BoundExceeded, PreconditionError
from cycvar.words import FormalSum, Letter, normalize
from cycvar.jets import (
    GeneratingSection,
    JetContext,
    d_power,
    evolutionary_apply,
    graded_commutator,
    make_section,
    total_derivative,
)
from cycvar.lang import letter_text, parse_cyclic, parse_open, parse_operator
from cycvar.poisson import is_hamiltonian, jacobi_defect, poisson_bracket
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.schouten import normalize_multivector, q_field
from cycvar.variational import Covector, Functional, coupling, euler_derivative, variations

from oracles import (
    copy_sum,
    reference_d_power,
    reference_graded_commutator,
    reference_partial_jet,
    reference_total_derivative,
)

CTX = JetContext(fields=1, directions=1)
A = CTX.letter(False, 1)
AX = CTX.shift(A, 1)
AXX = CTX.shift(AX, 1)
B = CTX.letter(True, 1)
BX = CTX.shift(B, 1)


def cyc(letters, value=1):
    return FormalSum.single(True, tuple(letters), CTX.const(value))


def opn(letters, value=1):
    return FormalSum.single(False, tuple(letters), CTX.const(value))


def horner(ctx, parts):
    """The (-D)-series of finished open parts, by `jets._horner` on their
    (Coefficient, pieces) pairs, read back as a sum by `jets._series_sum`."""
    terms = [(c, ((s, w, 1),)) for s, p in parts.items() for w, c in p.terms.items()]
    return jets._series_sum(*jets._horner(ctx, terms))


def cut_part(ctx, f, target):
    """The cyclic partial derivative by one exact letter: the cut pieces
    (`jets._pieces`) at the letter's family and multi-index, read back as
    a sum by the order-zero series of `jets._horner`."""
    pieces = ctx._cut_pieces[target.odd, target.index, False]
    terms = [
        (c, tuple((ctx.zero_orders(), w2, sign) for orders, w2, sign in pieces[w] if orders == target.orders))
        for w, c in f.terms.items()
    ]
    return jets._series_sum(*jets._horner(ctx, terms))


class TestContext:
    def test_letter_validation(self):
        with pytest.raises(PreconditionError):
            CTX.letter(False, 0)
        with pytest.raises(PreconditionError):
            CTX.letter(False, 2)
        with pytest.raises(PreconditionError):
            CTX.letter(False, 1, (1, 1))

    def test_order_cap(self):
        capped = JetContext(fields=1, directions=1, max_order=2)
        capped.letter(False, 1, (2,))
        with pytest.raises(BoundExceeded):
            capped.letter(False, 1, (3,))
        with pytest.raises(BoundExceeded):
            capped.shift(capped.letter(False, 1, (2,)), 1)

    def test_over_long_cap_is_named_by_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        cap = 10**limit
        with pytest.raises(BoundExceeded) as exc:
            JetContext(max_order=cap).check_orders((cap + 1,))
        assert str(exc.value) == (
            f"derivative order of more than {limit} digits exceeds cap of more than {limit} digits"
        )
        with pytest.raises(BoundExceeded, match="^derivative order 3 exceeds cap 2$"):
            JetContext(max_order=2).check_orders((3,))

    def test_direction_check(self):
        with pytest.raises(PreconditionError):
            CTX.check_direction(2)


class TestInterning:
    """A context keeps one letter object per (odd, index, orders), reached by
    every route that builds one.  Identity is only a fast path: equal
    contexts agree, and each keeps its own tables."""

    SHAPES = [(1, 1), (2, 2)]

    @staticmethod
    def unit(directions, d, k=1):
        return tuple(k * (i == d - 1) for i in range(directions))

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_every_route_gives_one_object(self, fields, directions):
        ctx = JetContext(fields, directions)
        zero = ctx.zero_orders()
        for odd in (False, True):
            for index in range(1, fields + 1):
                base = ctx.letter(odd, index)
                assert ctx.letter(odd, index, list(zero)) is base
                for d in range(1, directions + 1):
                    up = ctx.shift(base, d)
                    assert ctx.letter(odd, index, self.unit(directions, d)) is up
                    assert ctx.shift(base, d) is up
                    # a letter built by hand shifts to the same object
                    assert ctx.shift(Letter(odd, index, 0, zero), d) is up
                # shifts along different directions commute onto one object
                corner = ctx.shift(ctx.shift(base, 1), directions)
                assert ctx.shift(ctx.shift(base, directions), 1) is corner
                (word,) = parse_open(letter_text(corner, ctx) + "*" + letter_text(base, ctx), ctx).terms
                assert word[0] is corner and word[1] is base

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_bad_direction_leaves_the_tables_alone(self, fields, directions):
        ctx = JetContext(fields, directions)
        a = ctx.letter(False, 1)
        for direction in (0, -1, directions + 1):
            with pytest.raises(PreconditionError):
                ctx.shift(a, direction)
        assert ctx.shift(a, 1) == ctx.letter(False, 1, self.unit(directions, 1))

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_slot_letters_and_prolongation_steps(self, fields, directions):
        ctx = JetContext(fields, directions)
        for d in range(1, directions + 1):
            built = DifferentialOperator(ctx)
            built.add_term((), self.unit(directions, d, 2), (), ctx.one())
            name = "D" if d == 1 else f"D_{d}"
            parsed = parse_operator(f"op({name}*{name})", ctx)
            slots = [w[0] for op in (built, parsed, from_derivative(ctx, d, 2)) for w in op.words.terms]
            assert len(slots) == 3 and slots[1] is slots[0] and slots[2] is slots[0]
        a = ctx.letter(False, 1)
        section = make_section(ctx, even=[FormalSum.single(False, (a, a), ctx.one())] * fields)
        target = ctx.letter(False, fields, (2,) + (1,) * (directions - 1))
        evolutionary_apply(ctx, section, FormalSum.single(False, (target,), ctx.one()))
        # the section's index holds the interned letter met, with the
        # component's D^orders; the component keeps nothing beyond its seal
        (key,) = section._index[1]
        value = section._index[1][key]
        assert key is target and value and value == d_power(ctx, section.even[-1], target.orders)
        assert section.even[-1]._derived == {}

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_equal_contexts_agree(self, fields, directions):
        one, other = JetContext(fields, directions), JetContext(fields, directions)
        rng = random.Random(40 + 10 * fields + directions)
        densities = [corpus.cyclic_density(rng, one, k, words=3) for k in range(3)]
        ops = [corpus.operator(rng, one, terms=3) for _ in range(3)]
        probes = [corpus.open_sum(rng, other, words=2, max_order=1) for _ in range(2)]
        assert one == other and hash(one) == hash(other)
        assert repr(one) == repr(other) == (
            f"JetContext(fields={fields}, directions={directions}, max_order=None)"
        )
        # each context keeps its own letters
        assert one.letter(True, 1) == other.letter(True, 1)
        assert one.letter(True, 1) is not other.letter(True, 1)
        for f in densities:
            for d in range(1, directions + 1):
                assert total_derivative(one, f, d) == total_derivative(other, f, d)
            for odd_kind in (False, True):
                assert variations(one, f, odd_kind) == variations(other, f, odd_kind)
        for op in ops:
            for p in probes:
                assert op.apply(p) == DifferentialOperator(other, op.words).apply(p)
            assert op.adjoint().words == DifferentialOperator(other, op.words).adjoint().words

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_cap_raises_on_every_over_cap_shift(self, fields, directions):
        for cap in range(3):
            free = JetContext(fields, directions)
            capped = JetContext(fields, directions, max_order=cap)
            for odd in (False, True):
                for index in range(1, fields + 1):
                    top = capped.letter(odd, index, self.unit(directions, 1, cap))
                    f = FormalSum.single(False, (top,), capped.one())
                    for d in range(1, directions + 1):
                        free.shift(top, d)
                        total_derivative(free, f, d)
                        for _ in range(2):
                            with pytest.raises(BoundExceeded):
                                capped.shift(top, d)
                            with pytest.raises(BoundExceeded):
                                total_derivative(capped, f, d)


class TestTotalDerivative:
    def test_leibniz_on_cyclic_square(self):
        assert total_derivative(CTX, cyc([A, A])) == cyc([A, AX], 2)

    def test_leibniz_on_open_square_keeps_positions(self):
        out = total_derivative(CTX, opn([A, A]))
        assert out == opn([AX, A]) + opn([A, AX])

    def test_coefficient_product_rule(self):
        f = FormalSum.single(False, (A,), CTX.x_power(1, 1))
        out = total_derivative(CTX, f)
        assert out == opn([A]) + FormalSum.single(False, (AX,), CTX.x_power(1, 1))

    def test_cap_applies(self):
        capped = JetContext(fields=1, directions=1, max_order=1)
        f = FormalSum.single(False, (capped.letter(False, 1, (1,)),), capped.one())
        with pytest.raises(BoundExceeded):
            total_derivative(capped, f)

    def test_d_power_and_negation(self):
        assert d_power(CTX, opn([A]), (2,)) == opn([AXX])
        assert horner(CTX, {(1,): opn([A])}) == opn([AX], -1)
        assert horner(CTX, {(2,): opn([A])}) == opn([AXX])

    @pytest.mark.parametrize("directions, orders", [(1, (-1,)), (1, ()), (1, (0, 1)), (2, (0, -1)), (2, (1,))])
    def test_d_power_refuses_a_malformed_multi_index(self, directions, orders):
        """Even on a zero sum, which has no step to take; the total order is
        not held to the cap, only the steps taken are."""
        ctx = JetContext(fields=1, directions=directions, max_order=2)
        a = ctx.letter(False, 1)
        for f in (FormalSum.single(False, (a,), ctx.one()), FormalSum.single(True, (a, a), ctx.one()), FormalSum(False)):
            with pytest.raises(PreconditionError, match="bad derivative multi-index"):
                d_power(ctx, f, orders)
        x = FormalSum.single(False, (), ctx.x_power(1, 1, 3))
        assert d_power(ctx, x, (3,) + (0,) * (directions - 1)) == FormalSum(False)

    @pytest.mark.parametrize("fields, directions", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_d_power_matches_the_iterated_reference(self, fields, directions):
        """`d_power` against `reference_total_derivative` taken once per
        order, on seeded corpus sums, uncapped and under caps 0-4: equal
        values, and a raise exactly where the reference raises, with its
        message when the input's letters are within the cap (past it, the
        message names whichever over-cap letter is met first)."""
        rng = random.Random(350 + 10 * fields + directions)
        free = JetContext(fields, directions)
        sums = [corpus.cyclic_density(rng, free, k % 3, words=2, max_len=3, max_order=k % 3) for k in range(4)]
        sums += [corpus.open_sum(rng, free, words=2, max_len=3, max_order=k) for k in range(3)]
        for cap in (None, 0, 1, 2, 3, 4):
            ctx = JetContext(fields, directions, cap)
            for f in sums:
                top = max((l.order for w in f.terms for l in w), default=0)
                for orders in itertools.product(range(4), repeat=directions):
                    try:
                        want = reference_d_power(ctx, f, orders)
                    except BoundExceeded as error:
                        with pytest.raises(BoundExceeded) as raised:
                            d_power(ctx, f, orders)
                        assert top > cap or str(raised.value) == str(error)
                    else:
                        assert d_power(ctx, f, orders) == want

    def test_minus_d_series_matches_separate_powers(self):
        ctx = JetContext(fields=1, directions=2)
        a = ctx.letter(False, 1)
        b = ctx.letter(True, 1, (0, 1))
        x2 = ctx.x_power(2, 1)
        parts = {
            (0, 0): FormalSum.single(False, (a, b), ctx.one()),
            (1, 0): FormalSum.single(False, (b,), x2),
            (2, 1): FormalSum.single(False, (a, a), ctx.const(3)),
            (0, 3): FormalSum.single(False, (b, a), x2),
        }
        want = FormalSum(cyclic=False)
        for orders, part in parts.items():
            term = d_power(ctx, part, orders)
            want = want + (-term if sum(orders) % 2 else term)
        assert horner(ctx, parts) == want
        assert horner(ctx, {}) == FormalSum(cyclic=False)


class TestPartialJet:
    def test_even_cuts(self):
        f = cyc([A, AX])
        assert cut_part(CTX, f, A) == opn([AX])
        assert cut_part(CTX, f, AX) == opn([A])

    def test_odd_cut_sign(self):
        f = cyc([B, BX])
        assert cut_part(CTX, f, B) == opn([BX])
        assert cut_part(CTX, f, BX) == opn([B], -1)

    def test_requires_cyclic(self):
        # the Euler operator is the public reader of the cuts
        with pytest.raises(PreconditionError):
            euler_derivative(CTX, opn([A]), False)

    @pytest.mark.parametrize("fields", [1, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_per_occurrence_reference(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(300 + 10 * fields + directions)
        # no drawn word holds a letter of order 3 (corpus orders are at most 2)
        absent = ctx.letter(True, fields, (3,) + (0,) * (directions - 1))
        checked = 0
        for _ in range(8):
            for odd_degree in range(4):
                f = corpus.cyclic_density(rng, ctx, odd_degree, words=3)
                assert cut_part(ctx, f, absent).is_zero()
                for target in sorted({letter for w in f.terms for letter in w}):
                    got = cut_part(ctx, f, target)
                    assert got == reference_partial_jet(f, target)
                    checked += bool(got)
        assert checked


@pytest.mark.parametrize(
    "name, build",
    [
        ("Functional", lambda: Functional(CTX, cyc([A, A]))),
        ("Covector", lambda: Covector((opn([A, A]),))),
        ("Multivector", lambda: normalize_multivector(CTX, cyc([B, A]))),
        ("GeneratingSection", lambda: make_section(CTX, even=[opn([A])])),
    ],
)
def test_values_holding_sums_are_unhashable(name, build):
    """A value that holds word sums says at once that it is unhashable,
    naming its own class rather than a sum inside it."""
    with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
        hash(build())


class TestSections:
    def test_parity_inferred(self):
        s = make_section(CTX, even=[opn([A, A])])
        assert s.parity == 0
        t = make_section(CTX, even=[opn([B])], odd=[opn([A])])
        assert t.parity == 1

    def test_mixed_parity_rejected(self):
        with pytest.raises(PreconditionError):
            make_section(CTX, even=[opn([A]) + opn([B])])
        with pytest.raises(PreconditionError):
            make_section(CTX, even=[opn([A, A])], odd=[opn([A])])

    def test_zero_section_needs_parity(self):
        with pytest.raises(PreconditionError):
            make_section(CTX)
        assert make_section(CTX, parity=1).parity == 1

    def test_odd_only_section_is_odd(self):
        assert make_section(CTX, odd=[opn([A])]).parity == 1

    def test_declared_parity_checked(self):
        with pytest.raises(PreconditionError):
            make_section(CTX, even=[opn([A, A])], parity=1)


class TestEvolutionaryApply:
    def test_even_field_on_cyclic_square(self):
        x = make_section(CTX, even=[opn([A, A])])
        assert evolutionary_apply(CTX, x, cyc([A, A])) == cyc([A, A, A], 2)

    def test_derivative_of_component_inserted(self):
        x = make_section(CTX, even=[opn([A, A])])
        out = evolutionary_apply(CTX, x, opn([AX]))
        assert out == opn([AX, A]) + opn([A, AX])

    def test_odd_field_anticommutes_past_odd_prefix(self):
        q = make_section(CTX, odd=[opn([A])])
        assert q.parity == 1
        out = evolutionary_apply(CTX, q, opn([B, B]))
        assert out == opn([A, B]) - opn([B, A])

    def test_commutator_of_even_fields(self):
        x = make_section(CTX, even=[opn([A, A])])
        y = make_section(CTX, even=[FormalSum.single(False, (A,), CTX.x_power(1, 1))])
        z = graded_commutator(CTX, x, y)
        assert z.parity == 0
        assert z.even[0] == FormalSum.single(False, (A, A), CTX.x_power(1, 1)).scale(-1)
        assert z.odd[0].is_zero()

    @pytest.mark.parametrize("kinds", ["even-even", "odd-even", "odd-odd"])
    def test_commutator_matches_the_joined_actions(self, kinds):
        """The commutator adds both actions of each component into one
        accumulator; it must equal the reference that joins them with `+`
        and `-`, and every component's backward action is nonzero, so a
        flipped sign shows."""
        sections = {
            "even": (
                make_section(CTX, even=[opn([A, A])], odd=[opn([A, BX])]),
                make_section(CTX, even=[FormalSum.single(False, (AX,), CTX.x_power(1, 1))], odd=[opn([B])]),
            ),
            "odd": (
                make_section(CTX, even=[opn([B, A])], odd=[opn([AX])]),
                make_section(CTX, even=[opn([A, BX], 2)], odd=[opn([A, A])]),
            ),
        }
        first, second = kinds.split("-")
        x, y = sections[first][0], sections[second][1]
        assert (x.parity, y.parity) == (first == "odd", second == "odd")
        for cx in x.even + x.odd:
            assert evolutionary_apply(CTX, y, cx)
        assert graded_commutator(CTX, x, y) == reference_graded_commutator(CTX, x, y)


def kept_steps(f):
    """The D^orders that `f` keeps, by multi-index, whatever context value
    each was kept under."""
    return {kind: value for kind, (_, value) in (f._derived or {}).items() if kind and isinstance(kind[0], int)}


def apply_or_none(ctx, section, f):
    """The action of `section` on `f`, or None if the order cap stops it."""
    try:
        return evolutionary_apply(ctx, section, f)
    except BoundExceeded:
        return None


class TestProlongation:
    """`evolutionary_apply` keeps each D^orders of a section's components in
    an index by letter on the section, tied to the context it was computed
    under; the components keep none of their own."""

    CONTEXTS = [CTX, JetContext(fields=2, directions=2)]

    @staticmethod
    def cases(ctx, seed):
        """Seeded (section, sum) pairs: fields of corpus multivectors of
        degree 1-3 on densities of degree 0-3, and an even field on a
        one-letter open sum, whose action is one prolonged component."""
        rng = random.Random(seed)
        for _ in range(6):
            section = q_field(ctx, corpus.multivector(rng, ctx, rng.randint(1, 3)))
            yield section, corpus.cyclic_density(rng, ctx, rng.randint(0, 3), words=3)
        a = ctx.letter(False, 1)
        comps = [FormalSum.single(False, (a, ctx.shift(a, 1)), ctx.one())] * ctx.fields
        target = ctx.shift(ctx.shift(a, 1), ctx.directions)
        yield make_section(ctx, even=comps), FormalSum.single(False, (target,), ctx.one())

    @staticmethod
    def fresh(section):
        """The section on copies of its components, which keep nothing."""
        return GeneratingSection(
            tuple(map(copy_sum, section.even)), tuple(map(copy_sum, section.odd)), section.parity
        )

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["m1n1", "m2n2"])
    def test_kept_steps_equal_d_power(self, ctx):
        """Every D^orders in a section's index, and every one that `apply`
        keeps on a covector component, equals `d_power`."""
        rng = random.Random(10)
        ops = [corpus.operator(rng, ctx) for _ in range(3)] + [from_derivative(ctx, ctx.directions, 2)]
        kept = 0
        for section, f in self.cases(ctx, 10):
            evolutionary_apply(ctx, section, f)
            assert not any(map(kept_steps, section.even + section.odd))
            for letter, value in section._index[1].items():
                comp = (section.odd if letter.odd else section.even)[letter.index - 1]
                assert value == d_power(ctx, comp, letter.orders)
                kept += bool(value)
            for comp in corpus.covector(rng, ctx).components:
                for op in ops:
                    op.apply(comp)
                for orders, value in kept_steps(comp).items():
                    assert value == d_power(ctx, comp, orders)
                    kept += bool(value)
        assert kept

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["m1n1", "m2n2"])
    def test_cap_is_checked_under_each_context(self, ctx):
        stopped = set()
        for section, f in self.cases(ctx, 11):
            for cap in range(7):
                evolutionary_apply(ctx, section, f)
                capped = JetContext(ctx.fields, ctx.directions, max_order=cap)
                got = apply_or_none(capped, section, f)
                assert got == apply_or_none(capped, self.fresh(section), f)
                stopped.add(got is None)
        assert stopped == {True, False}

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["m1n1", "m2n2"])
    def test_repeated_application_is_equal(self, ctx):
        for section, f in self.cases(ctx, 12):
            first = evolutionary_apply(ctx, section, f)
            assert evolutionary_apply(ctx, section, f) == first
            assert evolutionary_apply(ctx, self.fresh(section), f) == first

    def test_equality_and_repr_ignore_the_table(self):
        for section, f in self.cases(CTX, 13):
            fresh = self.fresh(section)
            evolutionary_apply(CTX, section, f)
            assert section._index is not None and fresh._index is None
            assert any(letter.order for letter in section._index[1])
            assert not any(comp._derived for comp in fresh.even + fresh.odd)
            assert section == fresh and fresh == section
            assert repr(section) == repr(fresh)
            for comp, twin in zip(section.even + section.odd, fresh.even + fresh.odd):
                assert comp == twin and repr(comp) == repr(twin)

    def test_writing_to_a_result_leaves_later_results(self):
        for section, f in self.cases(CTX, 14):
            first = evolutionary_apply(CTX, section, f)
            expected = repr(first)
            for w, c in list(first.terms.items()):
                first.add_word(w, c)
            first.add_word((A, A, A, A, A), CTX.one())
            assert repr(evolutionary_apply(CTX, section, f)) == expected


class TestWordTables:
    """A context keeps each word's canonical form, derivative images and cut
    pieces.  The tables are a cache of pure functions of a word: a warm
    context gives what a fresh one gives, term order included."""

    SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]

    @staticmethod
    def inputs(ctx, seed):
        """Seeded corpus sums: cyclic densities of odd degree 0-3, open sums,
        covectors, and fields of corpus multivectors and covectors."""
        rng = random.Random(seed)
        densities = [corpus.cyclic_density(rng, ctx, k % 4, words=3) for k in range(6)]
        opens = [corpus.open_sum(rng, ctx, words=3, max_len=3) for _ in range(3)]
        covectors = [corpus.covector(rng, ctx) for _ in range(2)]
        sections = [q_field(ctx, corpus.multivector(rng, ctx, k)) for k in (1, 2)]
        sections.append(make_section(ctx, odd=covectors[0].components, parity=1))
        return densities, opens, covectors, sections

    @staticmethod
    def results(ctx, densities, opens, covectors, sections):
        """Every table reader on the inputs under `ctx`, in a fixed order."""
        out = []
        for f in densities + opens:
            for d in range(1, ctx.directions + 1):
                out.append(total_derivative(ctx, f, d))
        for f in densities:
            for odd_kind in (False, True):
                for j in range(1, ctx.fields + 1):
                    for side in ("left", "right"):
                        out.append(euler_derivative(ctx, f, odd_kind, j, side))
            for letter in sorted({l for w in f.terms for l in w}):
                out.append(cut_part(ctx, f, letter))
        for section in sections:
            section = GeneratingSection(section.even, section.odd, section.parity)
            for f in densities + opens:
                out.append(evolutionary_apply(ctx, section, f))
        for p in covectors:
            for q in covectors:
                out.append(coupling(ctx, p, q.components))
        return out

    @staticmethod
    def ordered(sums):
        return [(f.cyclic, list(f.terms.items())) for f in sums]

    @staticmethod
    def by_hand(f):
        """`f` with every letter rebuilt outside any context."""
        out = FormalSum(f.cyclic)
        out.terms = {tuple(Letter(*l) for l in w): c for w, c in f.terms.items()}
        return out

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_warm_and_fresh_contexts_agree(self, fields, directions):
        warm = JetContext(fields, directions)
        data = self.inputs(warm, 50 + 10 * fields + directions)
        first = self.ordered(self.results(warm, *data))
        assert warm._canonical_forms and all(warm._images) and warm._cut_pieces
        assert self.ordered(self.results(warm, *data)) == first
        assert self.ordered(self.results(JetContext(fields, directions), *data)) == first
        densities, opens = data[:2]
        for f in densities + opens:
            for d in range(1, directions + 1):
                assert total_derivative(warm, f, d) == reference_total_derivative(warm, f, d)

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_hand_built_letters_find_the_same_entries(self, fields, directions):
        ctx = JetContext(fields, directions)
        densities, opens, covectors, sections = self.inputs(ctx, 60 + 10 * fields + directions)
        hand = (
            [self.by_hand(f) for f in densities],
            [self.by_hand(f) for f in opens],
            [Covector(tuple(self.by_hand(c) for c in p.components)) for p in covectors],
            sections,
        )
        word = next(iter(hand[0][0].terms))
        assert word == next(iter(densities[0].terms)) and word[0] is not next(iter(densities[0].terms))[0]
        expected = self.ordered(self.results(JetContext(fields, directions), densities, opens, covectors, sections))
        # hand-built words first on a fresh context, then on one warmed by
        # the interned words, and the interned words after the hand-built ones
        assert self.ordered(self.results(ctx, *hand)) == expected
        warm = JetContext(fields, directions)
        self.results(warm, densities, opens, covectors, sections)
        assert self.ordered(self.results(warm, *hand)) == expected
        assert self.ordered(self.results(ctx, densities, opens, covectors, sections)) == expected

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_capped_context_raises_and_keeps_no_image(self, fields, directions):
        rng = random.Random(70 + 10 * fields + directions)
        for cap in range(3):
            free = JetContext(fields, directions)
            capped = JetContext(fields, directions, max_order=cap)
            for odd in (False, True):
                top = capped.letter(odd, rng.randint(1, fields), (cap,) + (0,) * (directions - 1))
                low = capped.letter(not odd, 1)
                for cyclic in (False, True):
                    f = FormalSum.single(cyclic, (low, top, low), capped.one())
                    (w,) = f.terms
                    for d in range(1, directions + 1):
                        total_derivative(free, f, d)
                        assert w in free._images[d - 1]
                        for _ in range(2):
                            with pytest.raises(BoundExceeded):
                                total_derivative(capped, f, d)
                        assert w not in capped._images[d - 1]
            # an under-cap word is still kept
            if cap:
                g = FormalSum.single(False, (capped.letter(False, 1),), capped.one())
                total_derivative(capped, g, 1)
                assert list(capped._images[0]) == list(g.terms)

    @pytest.mark.parametrize("fields, directions", SHAPES)
    def test_full_tables_stop_growing_and_still_agree(self, fields, directions, monkeypatch):
        monkeypatch.setattr(jets, "TABLE_LIMIT", 8)
        ctx = JetContext(fields, directions)
        data = self.inputs(ctx, 80 + 10 * fields + directions)
        first = self.ordered(self.results(ctx, *data))
        tables = [
            ctx._letters, ctx._canonical_forms, *ctx._images, *ctx._cut_pieces.values()
        ]
        assert max(map(len, tables)) == 8 and all(len(t) <= 8 for t in tables)
        kept = [dict(t) for t in tables]
        more = self.inputs(ctx, 90 + 10 * fields + directions)
        self.results(ctx, *more)
        for table, before in zip(tables, kept):
            assert len(table) <= 8
            if len(before) == 8:
                assert table == before
        assert self.ordered(self.results(ctx, *data)) == first
        assert self.ordered(self.results(ctx, *more)) == self.ordered(
            self.results(JetContext(fields, directions), *more)
        )
        # past the limit a letter is built afresh at each call, and equals
        # the one a fresh context interns
        fresh = JetContext(fields, directions)
        orders = (9,) + (0,) * (directions - 1)
        assert (True, fields, orders) not in ctx._letters
        built = [ctx.letter(True, fields, orders) for _ in range(2)]
        assert built[0] is not built[1] and built == [fresh.letter(True, fields, orders)] * 2
        for d in range(1, directions + 1):
            assert ctx.shift(built[0], d) == fresh.shift(built[1], d)

    @pytest.mark.parametrize("fields, directions", [(1, 1), (2, 2)])
    def test_warm_context_makes_no_normalize_calls(self, fields, directions, monkeypatch):
        calls = []

        def counted(letters):
            calls.append(letters)
            return normalize(letters)

        monkeypatch.setattr(words, "normalize", counted)
        monkeypatch.setattr(jets, "normalize", counted)
        ctx = JetContext(fields, directions)
        densities, opens, covectors, sections = self.inputs(ctx, 100 + fields)

        def repeat():
            for section in sections:
                for f in densities:
                    evolutionary_apply(ctx, section, f)
            for f in densities:
                for odd_kind in (False, True):
                    euler_derivative(ctx, f, odd_kind, 1, "right")
            for p in covectors:
                coupling(ctx, p, covectors[0].components)

        repeat()
        assert calls
        calls.clear()
        repeat()
        assert calls == []


def _bracket_keeps_covectors(ctx):
    """A `poisson_bracket` of two functionals that then keep their
    covectors; whether they do."""
    f, g = (Functional(ctx, parse_cyclic(text, ctx)) for text in ("cyc(a*a_x*a_x)", "cyc(a*a*a)"))
    poisson_bracket(ctx, parse_operator("op(a*D + D*R(a))", ctx), f, g)
    return all("covector" in h.density._derived for h in (f, g))


class TestContextLifetime:
    """No table or cache that the library keeps on a context holds the
    context, and nothing it keeps elsewhere outlives the call, so a context
    is freed by its reference count alone, with the cycle collector off,
    once the caller drops it and the results."""

    CALLS = {
        "total_derivative": lambda ctx: total_derivative(ctx, parse_cyclic("cyc(a*a_x*a_xx)", ctx)),
        "euler_derivative-even": lambda ctx: euler_derivative(
            ctx, parse_cyclic("cyc(a*a_x*b*b_x)", ctx), False, 1, "left"
        ),
        "euler_derivative-odd": lambda ctx: euler_derivative(
            ctx, parse_cyclic("cyc(a*a_x*b*b_x)", ctx), True, 1, "right"
        ),
        "evolutionary_apply": lambda ctx: evolutionary_apply(
            ctx, make_section(ctx, even=(parse_open("a*a_x", ctx),), parity=0), parse_cyclic("cyc(a*a_xx)", ctx)
        ),
        "coupling": lambda ctx: coupling(ctx, Covector((parse_open("a_x", ctx),)), (parse_open("a*a", ctx),)),
        "apply": lambda ctx: parse_operator("op(a*D + D*R(a))", ctx).apply(parse_open("a*a_x", ctx)),
        "normalize_multivector": lambda ctx: normalize_multivector(ctx, parse_cyclic("cyc(a*b*b_x)", ctx), 2),
        "is_hamiltonian": lambda ctx: is_hamiltonian(ctx, parse_operator("op(a*D + D*R(a))", ctx)).witness,
        # a rejection leaves covectors on the pool's densities, which the
        # context keeps, and D^sigma on the covectors' components
        "is_hamiltonian-pool-prolonged": lambda ctx: (
            not is_hamiltonian(ctx, parse_operator("op(a*a*D + D*R(a*a))", ctx)).hamiltonian
            and any(kept_steps(c) for d in ctx._witness_pool for c in d._derived["covector"][1].components)
        ),
        # an acceptance leaves D^sigma on the odd letter sums the context keeps
        "is_hamiltonian-odd-letters-prolonged": lambda ctx: (
            is_hamiltonian(ctx, parse_operator("op(D^3)", ctx)).hamiltonian
            and all(kept_steps(b) for b in ctx._odd_letters)
        ),
        "poisson_bracket-kept-covectors": lambda ctx: _bracket_keeps_covectors(ctx),
        "jacobi_defect": lambda ctx: jacobi_defect(
            ctx,
            parse_operator("op(a*D + D*R(a))", ctx),
            *(Functional(ctx, parse_cyclic(text, ctx)) for text in ("cyc(a*a)", "cyc(a*a*a)", "cyc(a*a_xx)")),
        ).density,
    }

    def test_freed_by_refcount(self):
        kept = []
        gc.collect()
        gc.disable()
        try:
            for name, call in self.CALLS.items():
                ctx = JetContext(1, 1)
                assert call(ctx), name
                ref = weakref.ref(ctx)
                del ctx
                if ref() is not None:
                    kept.append(name)
        finally:
            gc.enable()
        assert kept == []
