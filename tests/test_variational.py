"""Variational derivatives, triviality, couplings, functionals."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cycvar import corpus
from cycvar.errors import BoundExceeded, PreconditionError
from cycvar.words import FormalSum, close, concat
from cycvar.jets import JetContext, total_derivative
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.variational import (
    Covector,
    Functional,
    coupling,
    covector_of,
    euler_derivative,
    is_trivial,
)

from oracles import (
    reference_adjoint,
    reference_carriers,
    reference_cut_parts,
    reference_euler_derivative,
    reference_horner,
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


class TestEuler:
    def test_cube(self):
        assert euler_derivative(CTX, cyc([A, A, A]), False) == opn([A, A], 3)

    def test_second_order_term(self):
        assert euler_derivative(CTX, cyc([A, AXX]), False) == opn([AXX], 2)

    def test_exact_density_annihilated(self):
        assert euler_derivative(CTX, cyc([A, AX]), False).is_zero()

    def test_coordinate_coefficient(self):
        f = FormalSum.single(True, (B, BX), CTX.x_power(1, 1))
        out = euler_derivative(CTX, f, True)
        expect = opn([B]) + FormalSum.single(False, (BX,), CTX.x_power(1, 1)).scale(2)
        assert out == expect

    def test_right_side_sign_flips_on_even_odd_count(self):
        f = cyc([A, B, B])
        left = euler_derivative(CTX, f, True)
        right = euler_derivative(CTX, f, True, side="right")
        assert left == opn([B, A]) - opn([A, B])
        assert right == -left

    def test_right_side_equal_on_odd_odd_count(self):
        f = cyc([A, B])
        assert euler_derivative(CTX, f, True) == euler_derivative(
            CTX, f, True, side="right"
        )

    def test_annihilates_total_derivatives_exactly(self):
        rng = random.Random(2)
        letters = [A, AX, B, BX]
        for _ in range(15):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            f = cyc(w)
            df = total_derivative(CTX, f)
            for odd_kind in (False, True):
                assert euler_derivative(CTX, df, odd_kind).is_zero()


class TestEulerReference:
    """Grouping the cut words by multi-index and expanding in Horner form
    agrees exactly with one (-D)^s expansion per letter occurrence."""

    @pytest.mark.parametrize("fields", [1, 2, 3])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_per_occurrence_expansion(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(100 * fields + directions)
        checked = 0
        for _ in range(13):
            for odd_degree in range(4):
                f = corpus.cyclic_density(rng, ctx, odd_degree, words=3, max_order=3)
                for odd_kind in (False, True):
                    for index in range(1, fields + 1):
                        for side in ("left", "right"):
                            got = euler_derivative(ctx, f, odd_kind, index, side)
                            want = reference_euler_derivative(ctx, f, odd_kind, index, side)
                            assert got == want
                            checked += bool(want)
        assert checked


def _outcome(call):
    """The value of `call()`, or BoundExceeded if it raised that."""
    try:
        return call()
    except BoundExceeded:
        return BoundExceeded


class TestIntegerStore:
    """The (-D)-series runs on integer numerators over one denominator.
    Drawn over (fields, directions) in {1, 2}^2, coefficients with
    denominators such as 1/2 and 2/3 and x-monomials (`corpus.coefficient`),
    and densities and operators whose partial sums cancel, Euler derivatives
    of both families on both sides and adjoints agree with the references.
    Under an order cap each raises BoundExceeded exactly where the Horner
    series on finished sums does, which differentiates only the words left
    after each cancellation."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.integers(0, 2),
        st.booleans(),
        st.integers(0, 3),
    )
    def test_euler_derivative_matches_references(self, seed, shape, odd_degree, cancel, cap):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        capped = JetContext(fields=shape[0], directions=shape[1], max_order=cap)
        rng = random.Random(seed)
        f = corpus.cyclic_density(rng, ctx, odd_degree, words=3, max_order=2)
        if cancel:
            # E(D h) = 0, so the partial sums of the series cancel
            h = corpus.cyclic_density(rng, ctx, odd_degree, words=2, max_order=1)
            f = f + total_derivative(ctx, h, rng.randint(1, ctx.directions))
        for odd_kind in (False, True):
            for index in range(1, ctx.fields + 1):
                for side in ("left", "right"):
                    got = euler_derivative(ctx, f, odd_kind, index, side)
                    assert got == reference_euler_derivative(ctx, f, odd_kind, index, side)
                    parts = lambda: reference_cut_parts(f, odd_kind, index, side)
                    want = _outcome(lambda: reference_horner(capped, parts()))
                    assert _outcome(lambda: euler_derivative(capped, f, odd_kind, index, side)) == want
                    assert want is BoundExceeded or want == got

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.booleans(),
        st.integers(0, 4),
    )
    def test_adjoint_matches_references(self, seed, shape, cancel, cap):
        ctx = JetContext(fields=shape[0], directions=shape[1])
        rng = random.Random(seed)
        op = corpus.operator(rng, ctx, terms=3)
        if cancel:
            # the series of the adjoint of D(op) cancels the words of D(P_k)
            # against the part P_(k-1)
            op = from_derivative(ctx, rng.randint(1, ctx.directions)).compose(op)
        got = op.adjoint()
        assert got == reference_adjoint(op)
        capped = DifferentialOperator(JetContext(fields=shape[0], directions=shape[1], max_order=cap), op.words)
        want = _outcome(lambda: reference_horner(capped.ctx, reference_carriers(op)))
        assert _outcome(lambda: capped.adjoint().words) == want
        assert want is BoundExceeded or want == got.words


class TestTriviality:
    def test_exact_densities(self):
        assert is_trivial(CTX, cyc([AX]))
        assert is_trivial(CTX, cyc([A, AX]))

    def test_nontrivial_densities(self):
        assert not is_trivial(CTX, cyc([A, AXX]))
        assert not is_trivial(CTX, cyc([B]))

    def test_pure_coordinate_density_is_exact(self):
        f = FormalSum.single(True, (), CTX.x_power(1, 3))
        assert is_trivial(CTX, f)


def all_families_trivial(ctx, f):
    """The triviality verdict from every family's variation, none peeled."""
    return all(not euler_derivative(ctx, f, odd_kind, j) for odd_kind, j in f.letters_present())


class TestPeeledTriviality:
    """`is_trivial` peels letter families odd first, dropping the words of a
    family whose variation vanishes; its verdict equals the verdict of all
    the variations of the whole sum."""

    @pytest.mark.parametrize("fields", [1, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_peeling_identity(self, fields, directions):
        """close(u_F * E_F f) equals the sum of n * f_n up to a total
        divergence, f_n being the words with n letters of family F."""
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(600 + 10 * fields + directions)
        for _ in range(6):
            f = FormalSum(cyclic=True)
            for degree in range(4):
                f = f + corpus.cyclic_density(rng, ctx, degree, words=2, max_len=3)
            for odd_kind, j in f.letters_present():
                u = FormalSum.single(False, (ctx.letter(odd_kind, j),), ctx.one())
                closed = close(concat(u, euler_derivative(ctx, f, odd_kind, j)))
                counted = FormalSum(cyclic=True)
                for w, c in f.terms.items():
                    n = sum(1 for l in w if l.odd == odd_kind and l.index == j)
                    if n:
                        counted.add_word(w, c * n)
                assert all_families_trivial(ctx, closed - counted)

    @pytest.mark.parametrize("fields", [1, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    def test_matches_all_families_verdict(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(700 + 10 * fields + directions)

        def density(degree):
            return corpus.cyclic_density(rng, ctx, degree, words=rng.randint(1, 3), max_len=3)

        def divergence(h):
            return total_derivative(ctx, h, rng.randint(1, directions))

        verdicts = []
        for _ in range(12):
            mixed = FormalSum(cyclic=True)
            for degree in range(4):
                mixed = mixed + density(degree)
            odd_part = density(rng.randint(1, 3))
            cases = (
                divergence(mixed),
                divergence(mixed) + density(rng.randint(0, 3)),
                mixed,
                # the odd families peel first and are missing from the
                # degree-0 words, which decide the verdict
                divergence(odd_part) + density(0),
                divergence(odd_part) + divergence(density(0)),
            )
            for f in cases:
                verdict = is_trivial(ctx, f)
                assert verdict == all_families_trivial(ctx, f)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts


class TestCouplingAndCovectors:
    def test_simple_coupling(self):
        p = Covector((opn([AXX]),))
        out = coupling(CTX, p, (opn([A, A]),))
        assert out == cyc([AXX, A, A])

    def test_covector_components_validated(self):
        with pytest.raises(PreconditionError):
            Covector((cyc([A]),))
        with pytest.raises(PreconditionError):
            Covector((opn([B]),))

    def test_covector_of_cube(self):
        p = covector_of(CTX, cyc([A, A, A]))
        assert p.components == (opn([A, A], 3),)


class TestFunctional:
    def test_rejects_odd_density(self):
        with pytest.raises(PreconditionError):
            Functional(CTX, cyc([B, BX]))

    def test_equivalence_mod_exact(self):
        f = Functional(CTX, cyc([A, A]) + cyc([A, AX]))
        g = Functional(CTX, cyc([A, A]))
        assert is_trivial(CTX, f.density - g.density)
        assert not is_trivial(CTX, f.density - cyc([A, A, A]))

    def test_exact_density_is_trivial_functional(self):
        assert Functional(CTX, cyc([A, AX], 5)).is_trivial()
