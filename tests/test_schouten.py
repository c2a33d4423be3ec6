"""Multivectors, the graded bracket, and evaluation on covectors."""

import itertools
import random
from fractions import Fraction

import pytest

from cycvar import corpus, schouten
from cycvar.errors import BoundExceeded, PreconditionError
from cycvar.words import FormalSum
from cycvar.jets import JetContext, total_derivative
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.variational import Covector, is_trivial
from cycvar.schouten import (
    Multivector,
    bivector_operator,
    check_field_morphism,
    check_jacobi,
    check_skew,
    evaluate,
    multivector_from_operator,
    normalize_multivector,
    q_field,
    schouten_bracket,
    schouten_by_variations,
)

from oracles import (
    copy_sum,
    eager_check_field_morphism,
    eager_check_jacobi,
    eager_check_skew,
    eager_schouten_bracket,
    pairing_bivector_value,
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


D_OP = from_derivative(CTX)
SHIFT_OP = (
    D_OP.compose(DifferentialOperator.identity(CTX).compose_left(opn([A])))
    + from_derivative(CTX).compose_right(opn([A]))
)


def cov(*sums):
    return Covector(tuple(sums))


class TestNormalizeMultivector:
    def test_degree_inference(self):
        assert normalize_multivector(CTX, cyc([A, A])).degree == 0
        assert normalize_multivector(CTX, cyc([A, A, B])).degree == 1
        assert normalize_multivector(CTX, cyc([B, BX])).degree == 2

    def test_mixed_degrees_rejected(self):
        with pytest.raises(PreconditionError):
            normalize_multivector(CTX, cyc([B]) + cyc([A]))

    def test_idempotent_on_operator_bivector(self):
        mv = multivector_from_operator(CTX, D_OP)
        again = normalize_multivector(CTX, mv.density)
        assert again.density == mv.density

    def test_bivector_of_derivative(self):
        mv = multivector_from_operator(CTX, D_OP)
        assert mv.density == FormalSum.single(True, (B, BX), CTX.const(Fraction(1, 2)))
        assert mv.degree == 2
        assert bivector_operator(CTX, mv) == D_OP

    def test_total_divergence_has_the_zero_standard_form(self):
        """A nonzero total divergence is the zero class, so its standard form
        equals that of the zero density: an empty density, and at degree 2
        the empty operator."""
        for degree, letters in ((2, [A, B, BX]), (1, [A, AX, B])):
            divergence = total_derivative(CTX, cyc(letters))
            assert divergence
            zero = normalize_multivector(CTX, FormalSum(cyclic=True), degree)
            assert normalize_multivector(CTX, divergence, degree) == zero
            assert zero.density.is_zero()
        two = normalize_multivector(CTX, FormalSum(cyclic=True), 2)
        assert bivector_operator(CTX, two) == DifferentialOperator(CTX)

    def test_bivector_operator_needs_degree_two_in_one_field_pair(self):
        with pytest.raises(PreconditionError):
            bivector_operator(CTX, normalize_multivector(CTX, cyc([A, B])))
        ctx2 = JetContext(fields=2, directions=1)
        b1, b2 = ctx2.letter(True, 1), ctx2.letter(True, 2)
        density = FormalSum.single(True, (b1, b2), ctx2.one())
        with pytest.raises(PreconditionError):
            bivector_operator(ctx2, normalize_multivector(ctx2, density))


class TestQField:
    def test_derivative_bivector_field(self):
        mv = multivector_from_operator(CTX, D_OP)
        s = q_field(CTX, mv)
        assert s.parity == 1
        assert s.even[0] == opn([BX])
        assert s.odd[0].is_zero()

    def test_coordinate_weighted_bivector(self):
        density = FormalSum.single(True, (B, BX), CTX.x_power(1, 1))
        s = q_field(CTX, normalize_multivector(CTX, density))
        expect = opn([B]) + FormalSum.single(False, (BX,), CTX.x_power(1, 1)).scale(2)
        assert s.even[0] == expect

    def test_functional_field(self):
        mv = normalize_multivector(CTX, cyc([A, A]), 0)
        s = q_field(CTX, mv)
        assert s.parity == 1
        assert s.even[0].is_zero()
        assert s.odd[0] == opn([A], 2)


class TestQFieldCache:
    def test_same_object_same_section(self):
        mv = multivector_from_operator(CTX, SHIFT_OP)
        assert q_field(CTX, mv) is q_field(CTX, mv)

    def test_cached_equals_fresh(self):
        mv = multivector_from_operator(CTX, SHIFT_OP)
        cached = q_field(CTX, mv)
        # the field is kept on the density: a twin on the same density
        # shares it, one on a copy computes afresh
        assert q_field(CTX, Multivector(CTX, mv.degree, mv.density)) is cached
        fresh = q_field(CTX, Multivector(CTX, mv.degree, copy_sum(mv.density)))
        assert fresh is not cached and fresh == cached

    def test_other_context_recomputes(self):
        mv = normalize_multivector(CTX, cyc([A, AXX]), 0)
        assert q_field(CTX, mv).odd[0] == opn([AXX], 2)
        with pytest.raises(BoundExceeded):
            q_field(JetContext(fields=1, directions=1, max_order=1), mv)
        assert q_field(CTX, mv).odd[0] == opn([AXX], 2)

    def test_equality_and_repr_ignore_cache(self):
        mv = multivector_from_operator(CTX, SHIFT_OP)
        twin = Multivector(CTX, mv.degree, mv.density)
        before = repr(mv)
        q_field(CTX, mv)
        assert mv == twin
        assert repr(mv) == before == repr(twin)


def _pool(fields, seed, words):
    """Twelve seeded multivectors, three of each degree 0-3, and their context."""
    ctx = JetContext(fields=fields, directions=1)
    rng = random.Random(seed)
    pool = [
        corpus.multivector(rng, ctx, degree % 4, words=words, max_len=3, max_order=2)
        for degree in range(12)
    ]
    return ctx, rng, pool


class TestLazyBracketAgainstEager:
    """The bracket leaves its result as `evolutionary_apply` produced it; its
    standard form and every identity verdict must match the bracket that
    renormalizes every result (`oracles.eager_schouten_bracket`)."""

    @pytest.mark.parametrize("fields, pairs", [(1, 24), (2, 12)])
    def test_standard_form_and_pair_verdicts(self, fields, pairs):
        ctx, rng, pool = _pool(fields, 500 + fields, words=2)
        for _ in range(pairs):
            xi, eta = rng.choice(pool), rng.choice(pool)
            lazy = schouten_bracket(ctx, xi, eta)
            eager = eager_schouten_bracket(ctx, xi, eta)
            assert lazy.degree == eager.degree
            assert normalize_multivector(ctx, lazy.density, lazy.degree) == eager
            assert check_skew(ctx, xi, eta) == eager_check_skew(ctx, xi, eta)
            assert check_field_morphism(ctx, xi, eta) == eager_check_field_morphism(ctx, xi, eta)

    @pytest.mark.parametrize("fields", [1, 2])
    def test_jacobi_verdicts(self, fields):
        ctx, rng, pool = _pool(fields, 600 + fields, words=1)
        for _ in range(8):
            xi, eta, omega = (rng.choice(pool) for _ in range(3))
            assert check_jacobi(ctx, xi, eta, omega) == eager_check_jacobi(ctx, xi, eta, omega)

    def test_nested_bracket_class(self):
        ctx, rng, pool = _pool(1, 77, words=1)
        for _ in range(20):
            xi, eta, omega = (rng.choice(pool) for _ in range(3))
            lazy = schouten_bracket(ctx, xi, schouten_bracket(ctx, eta, omega))
            eager = eager_schouten_bracket(ctx, xi, eager_schouten_bracket(ctx, eta, omega))
            assert lazy.degree == eager.degree
            if lazy.degree:
                # whole standard forms: density, section and operator
                assert normalize_multivector(ctx, lazy.density, lazy.degree) == eager
            else:
                # degree 0 has no standard form, so compare classes
                assert is_trivial(ctx, lazy.density - eager.density)


def _degree_pools():
    """Per context shape (fields, directions) in {1, 2}^2: the context and one
    seeded multivector of each degree 0-3, with short words."""
    for fields, directions in itertools.product((1, 2), repeat=2):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(30 + 10 * fields + directions)
        pool = [corpus.multivector(rng, ctx, d, words=2, max_len=3, max_order=1) for d in range(4)]
        yield pytest.param(ctx, pool, id=f"m{fields}-n{directions}")


def _reference_skew(ctx, xi, eta):
    """The antisymmetry residual joined from two whole brackets; each
    bracket is returned too."""
    lhs = schouten_bracket(ctx, xi, eta).density
    rhs = schouten_bracket(ctx, eta, xi).density
    odd = ((xi.degree - 1) * (eta.degree - 1)) % 2
    return (lhs - rhs if odd else lhs + rhs), (lhs, rhs)


def _reference_jacobi(ctx, xi, eta, omega):
    """The Jacobi residual joined from three whole nested brackets, each
    built inner bracket first; the nested brackets are returned too."""
    bracket = lambda a, b: schouten_bracket(ctx, a, b)
    lhs = bracket(xi, bracket(eta, omega)).density
    mid = bracket(bracket(xi, eta), omega).density
    rhs = bracket(eta, bracket(xi, omega)).density
    odd = ((xi.degree - 1) * (eta.degree - 1)) % 2
    return (lhs - mid + rhs if odd else lhs - mid - rhs), (lhs, mid, rhs)


def _outcome(check, *args):
    """What a check returns, or the message of the order cap that stops it."""
    try:
        return check(*args)
    except BoundExceeded as error:
        return f"BoundExceeded: {error}"


class TestOneResidual:
    """`check_skew` and `check_jacobi` add every outer bracket's field action
    into one residual; the residual handed to `is_trivial` must equal the
    combination of whole brackets exactly.  The degree tuples cover both
    signs: (|xi| - 1)(|eta| - 1) is odd for (0, 2) and even for (1, 2), and
    every bracket in the combination is nonzero, so a flipped sign shows."""

    @staticmethod
    def _residual(monkeypatch, check, *args):
        seen = []
        monkeypatch.setattr(schouten, "is_trivial", lambda ctx, f: seen.append(f) or True)
        assert check(*args) is True
        (residual,) = seen
        return residual

    @pytest.mark.parametrize("ctx, pool", _degree_pools())
    @pytest.mark.parametrize("degrees", [(0, 2), (1, 2)])
    def test_skew_residual(self, monkeypatch, ctx, pool, degrees):
        xi, eta = (pool[d] for d in degrees)
        expected, brackets = _reference_skew(ctx, xi, eta)
        assert all(brackets)
        assert self._residual(monkeypatch, check_skew, ctx, xi, eta) == expected

    @pytest.mark.parametrize("ctx, pool", _degree_pools())
    @pytest.mark.parametrize("degrees", [(0, 2, 1), (1, 2, 0)])
    def test_jacobi_residual(self, monkeypatch, ctx, pool, degrees):
        xi, eta, omega = (pool[d] for d in degrees)
        expected, brackets = _reference_jacobi(ctx, xi, eta, omega)
        assert all(brackets)
        assert self._residual(monkeypatch, check_jacobi, ctx, xi, eta, omega) == expected

    @pytest.mark.parametrize("ctx, pool", _degree_pools())
    @pytest.mark.parametrize("cap", [0, 1])
    def test_capped_jacobi_stops_as_the_nested_brackets_do(self, ctx, pool, cap):
        """Under an order cap the one-residual check raises the message of
        the eager oracle and of the nested brackets joined afterwards."""
        capped = JetContext(ctx.fields, ctx.directions, max_order=cap)
        for degrees in (0, 2, 1), (1, 2, 0):
            args = (capped, *(pool[d] for d in degrees))
            got = _outcome(check_jacobi, *args)
            assert isinstance(got, str) and got.startswith("BoundExceeded")
            assert got == _outcome(eager_check_jacobi, *args)
            assert got == _outcome(lambda *a: is_trivial(capped, _reference_jacobi(*a)[0]), *args)


class TestSchoutenBracket:
    def test_two_functionals_vanish(self):
        f = normalize_multivector(CTX, cyc([A, A]), 0)
        g = normalize_multivector(CTX, cyc([A, A, A]), 0)
        out = schouten_bracket(CTX, f, g)
        assert out.degree == 0
        assert is_trivial(CTX, out.density)

    def test_derivative_bivector_on_cube(self):
        p = multivector_from_operator(CTX, D_OP)
        h = normalize_multivector(CTX, cyc([A, A, A]), 0)
        out = schouten_bracket(CTX, p, h)
        assert out.degree == 1
        assert is_trivial(CTX, out.density - cyc([A, A, BX], 3))

    def test_routes_agree(self):
        pairs = [
            (multivector_from_operator(CTX, D_OP), normalize_multivector(CTX, cyc([A, A, A]), 0)),
            (multivector_from_operator(CTX, SHIFT_OP), normalize_multivector(CTX, cyc([A, A]), 0)),
            (
                multivector_from_operator(CTX, D_OP),
                multivector_from_operator(CTX, SHIFT_OP),
            ),
        ]
        for xi, eta in pairs:
            direct = schouten_bracket(CTX, xi, eta)
            byvar = schouten_by_variations(CTX, xi, eta)
            assert is_trivial(CTX, direct.density - byvar)

    def test_graded_symmetry_instance(self):
        xi = multivector_from_operator(CTX, D_OP)
        eta = normalize_multivector(CTX, cyc([A, AXX]), 0)
        assert check_skew(CTX, xi, eta)

    def test_jacobi_instance(self):
        xi = multivector_from_operator(CTX, D_OP)
        eta = normalize_multivector(CTX, cyc([A, A]), 0)
        zeta = normalize_multivector(CTX, cyc([A, A, A]), 0)
        assert check_jacobi(CTX, xi, eta, zeta)

    def test_field_morphism_instance(self):
        xi = multivector_from_operator(CTX, D_OP)
        eta = normalize_multivector(CTX, cyc([A, A, A]), 0)
        assert check_field_morphism(CTX, xi, eta)


class TestEvaluate:
    def test_derivative_bivector_on_coordinates(self):
        mv = multivector_from_operator(CTX, D_OP)
        out = evaluate(
            CTX,
            mv,
            (cov(opn([])), cov(FormalSum.single(False, (), CTX.x_power(1, 1)))),
        )
        assert out.density == FormalSum.single(True, (), CTX.const(Fraction(1, 2)))

    def test_matches_pairing_form(self):
        covs = [
            cov(opn([])),
            cov(opn([A])),
            cov(opn([A, A])),
            cov(opn([AXX])),
            cov(FormalSum.single(False, (A,), CTX.x_power(1, 1))),
        ]
        for op in (D_OP, SHIFT_OP):
            mv = multivector_from_operator(CTX, op)
            for p, q in itertools.combinations(covs, 2):
                direct = evaluate(CTX, mv, (p, q)).density
                ref = pairing_bivector_value(CTX, op, p, q)
                assert is_trivial(CTX, direct - ref), (p, q)

    def test_antisymmetric(self):
        mv = multivector_from_operator(CTX, SHIFT_OP)
        p, q = cov(opn([A])), cov(opn([AXX]))
        lhs = evaluate(CTX, mv, (p, q)).density
        rhs = evaluate(CTX, mv, (q, p)).density
        assert is_trivial(CTX, lhs + rhs)

    def test_trivector_insertions(self):
        mv = normalize_multivector(CTX, cyc([B, B, B]))
        out = evaluate(CTX, mv, (cov(opn([A])), cov(opn([AX])), cov(opn([AXX]))))
        expect = cyc([A, AX, AXX], 3) - cyc([A, AXX, AX], 3)
        assert out.density == expect

    def test_trivector_alternation(self):
        mv = normalize_multivector(CTX, cyc([B, B, B]))
        args = (cov(opn([A])), cov(opn([AX])), cov(opn([AXX])))
        base = evaluate(CTX, mv, args).density
        for perm in itertools.permutations(range(3)):
            sign = 1
            seen = list(perm)
            for i in range(3):
                for j in range(i + 1, 3):
                    if seen[i] > seen[j]:
                        sign = -sign
            out = evaluate(CTX, mv, tuple(args[i] for i in perm)).density
            assert is_trivial(CTX, out - base.scale(sign))

    def test_repeated_argument_vanishes(self):
        mv = normalize_multivector(CTX, cyc([B, B, B]))
        p, q = cov(opn([A])), cov(opn([AXX]))
        out = evaluate(CTX, mv, (p, p, q)).density
        assert is_trivial(CTX, out)

    def test_arity_checked(self):
        mv = multivector_from_operator(CTX, D_OP)
        with pytest.raises(PreconditionError):
            evaluate(CTX, mv, (cov(opn([])),))
