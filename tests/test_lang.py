"""Expression grammar: tokens, parsing, canonical printing, round-trips."""

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycvar import corpus
from cycvar.cli import Session
from cycvar.errors import ParseError
from cycvar.words import FormalSum, close, concat
from cycvar.jets import JetContext
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.lang import (
    as_sum,
    coefficient_text,
    covector_text,
    kind_of,
    operator_text,
    parse_covector,
    parse_cyclic,
    parse_open,
    parse_operator,
    parse_section_tuple,
    parse_value,
    section_text,
    sum_text,
)
from cycvar.variational import Covector
from cycvar.words import Coefficient
from oracles import (
    reference_coefficient_text,
    reference_covector_text,
    reference_operator_term_lines,
    reference_operator_text,
    reference_sum_term_lines,
    reference_sum_text,
)

CTX = JetContext(fields=1, directions=1)
CTX22 = JetContext(fields=2, directions=2)


class TestLetters:
    def test_suffix_forms(self):
        for text, order in [("a", 0), ("a_x", 1), ("a_xxx", 3), ("a_{x,5}", 5), ("a_x_x", 2)]:
            f = parse_open(text, CTX)
            ((w, _),) = f.terms.items()
            assert w[0].orders == (order,), text

    def test_parity_and_index(self):
        f = parse_open("b2_{x^2,3}", CTX22)
        ((w, _),) = f.terms.items()
        assert w[0].odd and w[0].index == 2 and w[0].orders == (0, 3)

    def test_index_defaults_to_one(self):
        f = parse_open("a", CTX22)
        ((w, _),) = f.terms.items()
        assert w[0].index == 1

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_open("a3", CTX)

    def test_malformed_suffix(self):
        with pytest.raises(ParseError):
            parse_open("a_{y,2}", CTX)
        with pytest.raises(ParseError):
            parse_open("a_{x^3,1}", CTX)  # direction 3 with n=1


class TestScalars:
    def test_polynomial_arithmetic(self):
        v = parse_value("3/2*x^2 - x + 1", CTX)
        assert kind_of(v) == "scalar"
        assert coefficient_text(v, CTX) == "1 - x + 3/2*x^2"

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_value("a/x", CTX)
        with pytest.raises(ParseError):
            parse_value("1/0", CTX)

    def test_unary_minus_chains(self):
        v = parse_value("--3", CTX)
        assert v.constant_value() == 3
        v = parse_value("-+-+-3", CTX)
        assert v.constant_value() == -3

    def test_second_direction_coordinate(self):
        v = parse_value("x2^3", CTX22)
        assert v.terms == {(0, 3): Fraction(1)}
        with pytest.raises(ParseError):
            parse_value("x2", CTX)


class TestValues:
    """A parse result is the library object itself."""

    @pytest.mark.parametrize(
        "text, kind, cls",
        [
            ("3/2*x", "scalar", Coefficient),
            ("a*b", "open", FormalSum),
            ("cyc(a)", "cyclic", FormalSum),
            ("op(D)", "operator", DifferentialOperator),
            ("cov(a)", "covector", Covector),
            ("sec(b)", "section", tuple),
        ],
    )
    def test_kind_of(self, text, kind, cls):
        value = parse_value(text, CTX)
        assert isinstance(value, cls) and kind_of(value) == kind

    def test_as_sum_promotes_scalars_only(self):
        three = parse_value("3", CTX)
        assert as_sum(three) == FormalSum.single(False, (), three)
        assert as_sum(three, cyclic=True) == parse_cyclic("3", CTX)
        d = parse_operator("op(D)", CTX)
        assert as_sum(d) is d


class TestNumberFolding:
    """The sign, the number factors and the divisors of a term fold into one
    rational, so a sum in it is scaled once, or not at all when they
    multiply to 1."""

    @pytest.mark.parametrize(
        "text, factor",
        [
            ("cyc(a*b_x)", 1),
            ("-1/2*cyc(a*b_x)", Fraction(-1, 2)),
            ("--3*cyc(a*b_x)/4*2", Fraction(3, 2)),
            ("-cyc(a*b_x)/(1/2)", -2),
            ("2*cyc(a*b_x)/2", 1),
            ("-2*3*cyc(a*b_x)*0", 0),
        ],
    )
    def test_one_scaling_per_term(self, text, factor, monkeypatch):
        want = parse_cyclic("cyc(a*b_x)", CTX).scale(factor)
        calls = []
        scale = FormalSum.scale
        monkeypatch.setattr(FormalSum, "scale", lambda f, c: calls.append(c) or scale(f, c))
        assert parse_cyclic(text, CTX) == want
        assert len(calls) == (factor != 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cyc(a)/0", "division by zero (at column 7)"),
            ("-2/0*cyc(a)", "division by zero (at column 3)"),
            ("3*cyc(a)/(2 - 2)", "division by zero (at column 9)"),
            ("2*cyc(a)/x", "cannot divide by an x-dependent scalar (at column 9)"),
        ],
    )
    def test_divisor_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_value(text, CTX)
        assert str(info.value) == message


class TestCyclic:
    def test_rotated_inputs_agree(self):
        assert parse_cyclic("cyc(a*a_x*b)", CTX) == parse_cyclic("cyc(b*a*a_x)", CTX)

    def test_odd_rotation_sign(self):
        assert parse_cyclic("cyc(b_x*b)", CTX) == parse_cyclic("-cyc(b*b_x)", CTX)

    def test_scalar_promotes_to_empty_necklace(self):
        f = parse_cyclic("3", CTX)
        assert f == FormalSum.single(True, (), CTX.const(3))

    def test_inline_product_of_necklaces_rejected(self):
        with pytest.raises(ParseError):
            parse_value("cyc(a)*cyc(a)", CTX)

    def test_open_plus_cyclic_rejected(self):
        with pytest.raises(ParseError):
            parse_value("a + cyc(a)", CTX)


class TestOperatorGrammar:
    def test_composition_is_right_to_left(self):
        d_after_x = parse_operator("op(D*x)", CTX)
        x_after_d = parse_operator("op(x*D)", CTX)
        assert d_after_x != x_after_d
        p = parse_open("a", CTX)
        assert sum_text(d_after_x.apply(p), CTX) == "a + x*a_x"
        assert sum_text(x_after_d.apply(p), CTX) == "x*a_x"

    def test_canonical_collapse(self):
        op = parse_operator("op(D^3 + x*D*1 + 1*D*x)", CTX)
        assert operator_text(op, CTX) == "op(1 + 2*x*D + D^3)"

    def test_word_factors_multiply_on_the_left(self):
        ab = parse_operator("op(a*b)", CTX)
        (((left, orders, right), _),) = ab.terms()
        assert [l.odd for l in left] == [False, True]
        assert not any(orders) and right == ()

    def test_right_factor(self):
        op = parse_operator("op(D*R(a*a))", CTX)
        p = parse_open("b", CTX)
        assert op.apply(p) == parse_open("b_x*a*a + b*a_x*a + b*a*a_x", CTX)

    def test_rational_division(self):
        op = parse_operator("op(D/2)", CTX)
        assert op == from_derivative(CTX).scale(Fraction(1, 2))
        with pytest.raises(ParseError):
            parse_operator("op(D/x)", CTX)

    def test_parenthesized_sums_compose(self):
        op = parse_operator("op((D + a)*b)", CTX)
        p = parse_open("1", CTX)
        # (D + a.) after (b.) applied to 1: D(b) + a*b
        assert op.apply(p) == parse_open("b_x + a*b", CTX)

    def test_keywords_rejected_outside_op(self):
        with pytest.raises(ParseError):
            parse_value("D", CTX)
        with pytest.raises(ParseError):
            parse_value("R(a)", CTX)

    def test_second_direction_derivative(self):
        op = parse_operator("op(D_2^2)", CTX22)
        (((_, orders, _), _),) = op.terms()
        assert orders == (0, 2)
        with pytest.raises(ParseError):
            parse_operator("op(D_2)", CTX)


# Operator-expression trees: leaves are ("D", direction, power),
# ("n", integer), ("x", direction) and (kind, letters) for a bare word, R(w)
# or L(w); nodes are ("+"|"-"|"*", left, right), ("/", tree, p, q) for a
# division by p/q and ("neg", tree).  Directions and field indices are
# clamped to the context.
_LETTERS = st.lists(st.tuples(st.booleans(), st.integers(1, 2), st.integers(0, 1)), min_size=1, max_size=2)
_OP_LEAVES = st.one_of(
    st.tuples(st.just("D"), st.integers(1, 2), st.integers(1, 3)),
    st.tuples(st.just("n"), st.integers(0, 9)),
    st.tuples(st.just("x"), st.integers(1, 2)),
    st.tuples(st.sampled_from(["w", "R", "L"]), _LETTERS),
)
_OP_TREES = st.recursive(
    _OP_LEAVES,
    lambda t: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), t, t),
        st.tuples(st.just("/"), t, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9)),
        st.tuples(st.just("neg"), t),
    ),
    max_leaves=8,
)


def _word(letters, ctx):
    """Text and open sum of a word of (odd, index, order) letters."""
    out = []
    for odd, index, order in letters:
        index = min(index, ctx.fields)
        orders = (order,) + (0,) * (ctx.directions - 1)
        out.append(ctx.letter(odd, index, orders))
    text = "*".join(f"{'b' if l.odd else 'a'}{l.index}{'_x' * l.order}" for l in out)
    return text, FormalSum.single(False, tuple(out), ctx.one())


def _render_and_build(tree, ctx):
    """The op(...)-grammar text of a tree and the operator it denotes, built
    without the parser."""
    head = tree[0]
    identity = DifferentialOperator.identity(ctx)
    if head == "D":
        direction, power = min(tree[1], ctx.directions), tree[2]
        text = "D" if direction == 1 else f"D_{direction}"
        return text + (f"^{power}" if power > 1 else ""), from_derivative(ctx, direction, power)
    if head == "n":
        return str(tree[1]), identity.scale(ctx.const(tree[1]))
    if head == "x":
        direction = min(tree[1], ctx.directions)
        return f"x{direction}", identity.scale(ctx.x_power(direction, 1))
    if head in ("w", "R", "L"):
        text, word = _word(tree[1], ctx)
        if head == "R":
            return f"R({text})", identity.compose_right(word)
        if head == "L":
            return f"L({text})", identity.compose_left(word)
        return f"({text})", identity.compose_left(word)
    if head == "neg":
        text, op = _render_and_build(tree[1], ctx)
        return f"(-{text})", -op
    if head == "/":
        text, op = _render_and_build(tree[1], ctx)
        p, q = tree[2], tree[3]
        return f"({text} / ({p}/{q}))", op.scale(Fraction(q, p))
    (lt, left), (rt, right) = (_render_and_build(t, ctx) for t in tree[1:])
    if head == "*":
        return f"({lt} * {rt})", left.compose(right)
    return f"({lt} {head} {rt})", left + right if head == "+" else left - right


class TestOperatorSemantics:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), _OP_TREES)
    def test_parse_equals_direct_construction(self, shape, tree):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        text, want = _render_and_build(tree, ctx)
        assert parse_operator(f"op({text})", ctx) == want, text


class TestTuples:
    def test_covector_arity(self):
        p = parse_covector("cov(a_xx; a*a)", CTX22)
        assert len(p.components) == 2
        with pytest.raises(ParseError):
            parse_covector("cov(a)", CTX22)
        with pytest.raises(ParseError):
            parse_covector("cov(a; a)", CTX)

    def test_bare_promotion_single_field(self):
        p = parse_covector("x^2", CTX)
        assert sum_text(p.components[0], CTX) == "x^2"
        v = parse_section_tuple("a*a", CTX)
        assert sum_text(v[0], CTX) == "a*a"

    def test_round_trip(self):
        p = parse_covector("cov(2*a + a_xx; 1)", CTX22)
        assert parse_covector(covector_text(p, CTX22), CTX22) == p
        s = parse_section_tuple("sec(a1; x2*a2_{x^1,1})", CTX22)
        assert parse_section_tuple(section_text(s, CTX22), CTX22) == s

    def test_arithmetic_is_componentwise(self):
        a, a_x, b = (CTX.letter(odd, 1, (k,)) for odd, k in ((False, 0), (False, 1), (True, 0)))

        def word(letters, value=1, x=0):
            coeff = CTX.x_power(1, x) if x else Coefficient.constant(value, 1)
            return FormalSum.single(False, letters, coeff)

        assert parse_covector("2*cov(a)", CTX) == Covector((word((a,), 2),))
        assert parse_covector("cov(a) - cov(a_x)/2", CTX) == Covector(
            (word((a,)) + word((a_x,), Fraction(-1, 2)),)
        )
        assert parse_section_tuple("sec(b) + sec(a*b)", CTX) == (word((b,)) + word((a, b)),)
        assert parse_section_tuple("x*sec(a)", CTX) == (word((a,), x=1),)

    def test_covector_and_section_do_not_add(self):
        with pytest.raises(ParseError) as info:
            parse_value("cov(a) + sec(a)", CTX)
        assert str(info.value) == "cannot add covector and section (at column 8)"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "cyc(a",
            "a +",
            "a b",
            "$",
            "cyc()",
            "cov(cyc(a))",
            "op(cyc(a))",
            "x^",
            "a // 2",
            # a divisor is a nonzero rational, also inside op(...)
            "op(b / R(1))",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_value(bad, CTX)

    def test_column_reported(self):
        with pytest.raises(ParseError) as info:
            parse_value("a + $", CTX)
        assert "column 5" in str(info.value)


def _random_mixed_open(rng, ctx, max_len=4):
    out = FormalSum(cyclic=False)
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, max_len)
        odd = rng.randint(0, length)
        out.add_word(
            corpus.open_word(rng, ctx, length, odd, max_order=2),
            corpus.coefficient(rng, ctx, max_x_degree=2),
        )
    return out


class TestRoundTrips:
    def test_open_sums(self):
        rng = random.Random(20)
        for ctx in (CTX, CTX22):
            for _ in range(30):
                f = _random_mixed_open(rng, ctx)
                assert parse_open(sum_text(f, ctx), ctx) == f

    def test_cyclic_sums(self):
        rng = random.Random(21)
        for ctx in (CTX, CTX22):
            for _ in range(30):
                f = close(_random_mixed_open(rng, ctx))
                assert parse_cyclic(sum_text(f, ctx), ctx) == f

    def test_operators(self):
        rng = random.Random(22)
        odd_word = FormalSum.single(False, (CTX.letter(True, 1),), CTX.one())
        for _ in range(20):
            op = corpus.operator(rng, CTX, terms=rng.randint(1, 3))
            if rng.random() < 0.5:
                op = op.compose_left(odd_word)
            assert parse_operator(operator_text(op, CTX), CTX) == op

    def test_operators_two_directions(self):
        rng = random.Random(23)
        for _ in range(12):
            op = corpus.operator(rng, CTX22, terms=2)
            assert parse_operator(operator_text(op, CTX22), CTX22) == op

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.sampled_from(["cyclic", "open", "operator", "covector"]),
    )
    def test_print_then_parse_gives_back_corpus_values(self, seed, shape, kind):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        if kind == "cyclic":
            v = corpus.cyclic_density(rng, ctx, rng.randint(0, 3), words=3)
            assert parse_cyclic(sum_text(v, ctx), ctx) == v
        elif kind == "open":
            v = corpus.open_sum(rng, ctx, words=3, max_x_degree=2)
            assert parse_open(sum_text(v, ctx), ctx) == v
        elif kind == "operator":
            v = corpus.operator(rng, ctx, terms=rng.randint(1, 3))
            assert parse_operator(operator_text(v, ctx), ctx) == v
        else:
            v = corpus.covector(rng, ctx, jet_dependent=rng.random() < 0.5)
            assert parse_covector(covector_text(v, ctx), ctx) == v

    def test_zero_forms(self):
        zero_open = FormalSum(cyclic=False)
        assert sum_text(zero_open, CTX) == "0"
        assert parse_open("0", CTX).is_zero()
        assert parse_operator("op(0)", CTX).is_zero()
        assert operator_text(DifferentialOperator(CTX), CTX) == "op(0)"


def _machine_term_lines(kind, payload, ctx):
    """The `term:` lines of the machine record the CLI prints for a value."""
    session = Session(m=ctx.fields, n=ctx.directions, output="machine")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        session.emit(kind, payload, ctx)
    return [line for line in out.getvalue().splitlines() if line.startswith("term: ")]


class TestPrinterAgainstReference:
    """The printer gives the bytes of a reference that names every letter
    occurrence afresh and prints every coefficient monomial by monomial."""

    @staticmethod
    def _factor(choice, ctx):
        if choice == "x-poly":
            return ctx.x_power(ctx.directions, 2, Fraction(-3, 4)) + ctx.const(2)
        return ctx.const(choice)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.sampled_from(["cyclic", "open", "operator", "covector"]),
        st.sampled_from([1, -1, 0, 7, Fraction(-5, 3), 10**25, "x-poly"]),
    )
    def test_matches_reference(self, seed, shape, kind, factor):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        k = self._factor(factor, ctx)
        if kind in ("cyclic", "open"):
            if kind == "cyclic":
                v = corpus.cyclic_density(rng, ctx, rng.randint(0, 3), words=3)
            else:
                v = corpus.open_sum(rng, ctx, words=3, max_x_degree=2)
            v = v.scale(k)
            assert sum_text(v, ctx) == reference_sum_text(v, ctx)
            assert _machine_term_lines("sum", v, ctx) == reference_sum_term_lines(v, ctx)
        elif kind == "operator":
            v = corpus.operator(rng, ctx, terms=rng.randint(1, 3)).scale(k)
            assert operator_text(v, ctx) == reference_operator_text(v, ctx)
            assert _machine_term_lines("operator", v, ctx) == reference_operator_term_lines(v, ctx)
        else:
            v = corpus.covector(rng, ctx, jet_dependent=rng.random() < 0.5)
            v = Covector(tuple(c.scale(k) for c in v.components))
            assert covector_text(v, ctx) == reference_covector_text(v, ctx)


class TestCoefficientText:
    """`coefficient_text` prints each value from the stored numerator and
    the common denominator, reduced by one gcd per value, and gives the
    bytes of the reference printer, which goes through `Fraction`.  The
    values share factors with the denominator, so each one reduces apart."""

    CASES = [
        {(0,): Fraction(1, 2), (1,): Fraction(1, 3)},
        {(0,): Fraction(3, 2), (1,): 1, (2,): -1},
        {(0,): Fraction(-2, 3), (1,): Fraction(5, 6), (3,): Fraction(-1, 2)},
        {(1,): Fraction(4, 6), (2,): Fraction(-9, 6)},
        {(0,): Fraction(10**30, 7), (1,): Fraction(1, 14)},
        {(1,): 6, (2,): Fraction(1, 4)},
    ]

    @pytest.mark.parametrize("terms", CASES)
    def test_shared_factors(self, terms):
        c = Coefficient(terms)
        assert c.den > 1 and any(math.gcd(v, c.den) > 1 for v in c.nums.values())
        assert coefficient_text(c, CTX) == reference_coefficient_text(c, CTX)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.fractions(max_denominator=12).filter(bool),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 2, 3, 6]),
    )
    def test_matches_reference(self, terms, den):
        c = Coefficient({m: v / den for m, v in terms.items()})
        for ctx, cut in ((CTX, 1), (CTX22, 2)):
            d = Coefficient({m[:cut]: v for m, v in c.terms.items()})
            assert coefficient_text(d, ctx) == reference_coefficient_text(d, ctx)


# Product chains: a chain is an optional leading minus and a list of links
# (op, factor), the first op being None; op is "*" or "/" (then the factor
# is a nonzero integer p).  Factors are ("letter", odd, index, orders),
# ("n", k), ("x", direction, power), ("sum", chain, sign, chain) for a
# parenthesised sum or difference, and, inside op(...), ("D", direction,
# power), ("R", letters) and ("L", letters).
_LETTER = st.tuples(
    st.just("letter"), st.booleans(), st.integers(1, 2),
    st.tuples(st.integers(0, 4), st.integers(0, 2)),
)
_PLAIN = st.one_of(
    _LETTER,
    st.tuples(st.just("n"), st.integers(0, 12)),
    st.tuples(st.just("x"), st.integers(1, 2), st.integers(1, 3)),
)


def _links(factors, max_size=7):
    link = st.one_of(
        st.tuples(st.just("*"), factors),
        st.tuples(st.just("/"), st.integers(1, 9)),
    )
    return st.tuples(
        st.booleans(),
        st.tuples(st.just(None), factors),
        st.lists(link, max_size=max_size),
    ).map(lambda t: (t[0], [t[1], *t[2]]))


_INNER = _links(_PLAIN, max_size=3)
_GROUP = st.tuples(st.just("sum"), _INNER, st.sampled_from(["+", "-"]), _INNER)
_CHAINS = _links(st.one_of(_PLAIN, _PLAIN, _GROUP))
_OP_CHAINS = _links(
    st.one_of(
        _PLAIN,
        _GROUP,
        st.tuples(st.just("D"), st.integers(1, 2), st.integers(1, 3)),
        st.tuples(st.sampled_from(["R", "L"]), st.lists(_LETTER, min_size=1, max_size=3)),
    )
)


class _Fold:
    """The text of a chain and its value, folded left to right through
    concat, scale and compose from single-letter sums, without the parser."""

    def __init__(self, ctx):
        self.ctx = ctx

    def letter(self, factor):
        _, odd, index, (order, second) = factor
        index = min(index, self.ctx.fields)
        if self.ctx.directions == 1:
            orders, suffix = (order,), f"_{{x,{order}}}"
        else:
            orders, suffix = (order, second), f"_{{x^1,{order}}}_{{x^2,{second}}}"
        letter = self.ctx.letter(odd, index, orders)
        text = f"{'b' if odd else 'a'}{index}{suffix}"
        return text, FormalSum.single(False, (letter,), self.ctx.one())

    def word(self, letters):
        texts, sums = zip(*(self.letter(f) for f in letters))
        out = sums[0]
        for s in sums[1:]:
            out = concat(out, s)
        return "*".join(texts), out

    def factor(self, factor):
        ctx, head = self.ctx, factor[0]
        identity = DifferentialOperator.identity(ctx)
        if head == "letter":
            text, value = self.letter(factor)
            return text, ("open", value)
        if head == "n":
            return str(factor[1]), ("scalar", ctx.const(factor[1]))
        if head == "x":
            direction = min(factor[1], ctx.directions)
            return f"x{direction}^{factor[2]}", ("scalar", ctx.x_power(direction, factor[2]))
        if head == "D":
            direction = min(factor[1], ctx.directions)
            return f"D_{direction}^{factor[2]}", ("operator", from_derivative(ctx, direction, factor[2]))
        if head in ("R", "L"):
            text, word = self.word(factor[1])
            op = identity.compose_right(word) if head == "R" else identity.compose_left(word)
            return f"{head}({text})", ("operator", op)
        _, left, sign, right = factor
        (lt, lv), (rt, rv) = self.chain(left), self.chain(right)
        return f"({lt} {sign} {rt})", self.add(lv, rv, sign == "-")

    def chain(self, chain):
        negate, links = chain
        texts, value = [], None
        for op, factor in links:
            if op == "/":
                texts.append(f"/{factor}")
                value = self.scale(value, self.ctx.const(Fraction(1, factor)))
                continue
            text, right = self.factor(factor)
            texts.append(text if op is None else f"*{text}")
            value = right if op is None else self.mul(value, right)
        if negate:
            value = self.scale(value, self.ctx.const(-1))
        return ("-" if negate else "") + "".join(texts), value

    def scale(self, value, c):
        kind, v = value
        return kind, v * c if kind == "scalar" else v.scale(c)

    def as_operator(self, value):
        kind, v = value
        identity = DifferentialOperator.identity(self.ctx)
        if kind == "scalar":
            return identity.scale(v)
        return v if kind == "operator" else identity.compose_left(v)

    def mul(self, left, right):
        if "operator" in (left[0], right[0]):
            return "operator", self.as_operator(left).compose(self.as_operator(right))
        if left[0] == "scalar":
            return self.scale(right, left[1])
        if right[0] == "scalar":
            return self.scale(left, right[1])
        return "open", concat(left[1], right[1])

    def add(self, left, right, subtract):
        if left[0] == right[0] == "scalar":
            return "scalar", left[1] - right[1] if subtract else left[1] + right[1]
        lv, rv = (
            v if kind == "open" else FormalSum.single(False, (), v)
            for kind, v in (left, right)
        )
        return "open", lv - rv if subtract else lv + rv


class TestProductChains:
    """A product chain parses to its factor-by-factor left fold, whatever
    runs of letters it holds."""

    SHAPES = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)])

    @settings(max_examples=300, deadline=None)
    @given(SHAPES, _CHAINS)
    def test_outside_op(self, shape, chain):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        text, (kind, want) = _Fold(ctx).chain(chain)
        value = parse_value(text, ctx)
        assert (kind_of(value), value) == (kind, want), text

    @settings(max_examples=300, deadline=None)
    @given(SHAPES, _OP_CHAINS)
    def test_inside_op(self, shape, chain):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        fold = _Fold(ctx)
        text, value = fold.chain(chain)
        assert parse_operator(f"op({text})", ctx) == fold.as_operator(value), text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a*b_{y}*a", "malformed derivative suffix in 'b_{y}' (at column 3)"),
            ("a*b*a3", "field index 3 outside 1..1 (at column 5)"),
            ("a*-b", "unexpected '-' (at column 3)"),
            (
                "a*b*cyc(a)",
                "cyclic sums cannot be multiplied inline; use the times command (at column 4)",
            ),
            ("op(a*b*R(b_{y}))", "malformed derivative suffix in 'b_{y}' (at column 10)"),
            ("op(D*a*-b)", "unexpected '-' inside op(...) (at column 8)"),
            # a product that fails is reported before a bad letter after it
            (
                "cyc(a)*b*a3",
                "cyclic sums cannot be multiplied inline; use the times command (at column 7)",
            ),
            ("op(D)*a*a3", "cannot multiply operator with open (at column 6)"),
            ("2/a*a3", "division needs a scalar divisor (at column 2)"),
        ],
    )
    def test_error_in_a_chain(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_value(text, CTX)
        assert str(info.value) == message
