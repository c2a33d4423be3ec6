"""Functional brackets, the Jacobi defect on two routes, the Hamiltonian
decision procedure, and the substitution harness."""

import copy
import itertools

import pytest

import cycvar.poisson as P
from cycvar import corpus
from cycvar.errors import BoundExceeded, PreconditionError
from cycvar.words import Coefficient, FormalSum
from cycvar.jets import JetContext, d_power, evolutionary_apply, make_section
from cycvar.lang import parse_cyclic, parse_operator
from cycvar.operators import DifferentialOperator, from_derivative
from cycvar.selftest import hamiltonian_family
from cycvar.schouten import (
    Multivector,
    bivector_density,
    multivector_from_operator,
    normalize_multivector,
    odd_letter_sums,
    q_field,
    schouten_bracket,
)
from cycvar.variational import Covector, Functional, coupling, covector_of, is_trivial, variations
from cycvar.poisson import (
    IDENTITY_NAMES,
    involutivity_witness,
    is_hamiltonian,
    jacobi_defect,
    jacobi_defect_expanded,
    master_defect,
    poisson_bracket,
    substitution_harness,
)

import random

from oracles import copy_sum, reference_jacobi_defect, reference_jacobi_terms, reference_witness_search

CTX = JetContext(fields=1, directions=1)
A = CTX.letter(False, 1)
AX = CTX.shift(A, 1)
AXX = CTX.shift(AX, 1)
B = CTX.letter(True, 1)


def cyc(letters, value=1):
    return FormalSum.single(True, tuple(letters), CTX.const(value))


def opn(letters, value=1):
    return FormalSum.single(False, tuple(letters), CTX.const(value))


D_OP = from_derivative(CTX)
D3_OP = from_derivative(CTX, 1, 3)
X = Coefficient.monomial((1,), 1)
XD_DX = D_OP.scale(X) + D_OP.compose(DifferentialOperator.identity(CTX).scale(X))
SHIFT_OP = (
    D_OP.compose(DifferentialOperator.identity(CTX).compose_left(opn([A])))
    + from_derivative(CTX).compose_right(opn([A]))
)
FAMILY = (D_OP, D3_OP, D_OP + D3_OP, XD_DX)
NON_SKEW = D_OP.compose(DifferentialOperator.identity(CTX).compose_left(opn([A])))


def witness_pool(ctx):
    """The functionals of the context's witness pool, in pool order."""
    return [Functional(ctx, density) for density in P._witness_pool(ctx)]


def functional(letters, value=1):
    return Functional(CTX, cyc(letters, value))


class TestPoissonBracket:
    def test_quadratic_cubic_under_derivative(self):
        from fractions import Fraction

        f = Functional(CTX, cyc([A, A], Fraction(1, 2)))
        g = Functional(CTX, cyc([A, A, A], Fraction(1, 3)))
        out = poisson_bracket(CTX, D_OP, f, g)
        assert out.density == cyc([A, A, AX], 2)

    def test_requires_skew(self):
        lopsided = D_OP.compose(DifferentialOperator.identity(CTX).compose_left(opn([A])))
        with pytest.raises(PreconditionError):
            poisson_bracket(CTX, lopsided, functional([A, A]), functional([A]))

    def test_antisymmetric_mod_exact(self):
        f = functional([A, A])
        g = functional([A, AXX])
        fg = poisson_bracket(CTX, D_OP, f, g).density
        gf = poisson_bracket(CTX, D_OP, g, f).density
        assert is_trivial(CTX, fg + gf)


class TestJacobiDefect:
    def test_derivative_operator_defect_is_exact_not_zero(self):
        out = jacobi_defect(
            CTX, D_OP, functional([A, A]), functional([A, A, A]), functional([A, AXX])
        )
        assert not out.density.is_zero()
        assert out.is_trivial()

    def test_family_defects_trivial(self):
        triple = (functional([A, A]), functional([A, A, A]), functional([A, AXX]))
        for op in FAMILY:
            assert jacobi_defect(CTX, op, *triple).is_trivial()

    def test_routes_agree_for_broken_operator(self):
        triple = (functional([A, A]), functional([A, A, A]), functional([A, AXX]))
        direct = jacobi_defect(CTX, SHIFT_OP, *triple).density
        covs = tuple(covector_of(CTX, h.density) for h in triple)
        expanded = jacobi_defect_expanded(CTX, SHIFT_OP, covs)
        assert not is_trivial(CTX, direct)
        assert not is_trivial(CTX, expanded)
        assert is_trivial(CTX, direct - expanded)

    def test_routes_agree_for_good_operator(self):
        triple = (functional([A, A]), functional([A, A, A]), functional([A, AXX]))
        direct = jacobi_defect(CTX, D_OP + D3_OP, *triple).density
        covs = tuple(covector_of(CTX, h.density) for h in triple)
        expanded = jacobi_defect_expanded(CTX, D_OP + D3_OP, covs)
        assert is_trivial(CTX, direct - expanded)
        assert is_trivial(CTX, expanded)


class TestMasterDefect:
    def test_exactly_zero_on_family(self):
        for op in FAMILY:
            assert master_defect(CTX, op).density.is_zero()

    def test_nontrivial_for_shifted_derivative(self):
        defect = master_defect(CTX, SHIFT_OP)
        assert not defect.density.is_zero()
        assert not is_trivial(CTX, defect.density)


class TestIsHamiltonian:
    def test_family_accepted(self):
        for op in FAMILY:
            cert = is_hamiltonian(CTX, op)
            assert cert.hamiltonian
            assert cert.defect_density.is_zero()
            assert cert.witness is None

    def test_shifted_derivative_rejected_with_witness(self):
        cert = is_hamiltonian(CTX, SHIFT_OP)
        assert not cert.hamiltonian
        assert cert.witness is not None
        densities = [h.density for h in cert.witness]
        assert densities == [cyc([A, A]), cyc([A, A, A]), cyc([A, AXX])]
        assert cert.witness_defect is not None
        assert not is_trivial(CTX, cert.witness_defect)

    def test_witness_search_can_be_disabled(self):
        cert = is_hamiltonian(CTX, SHIFT_OP, find_witness=False)
        assert not cert.hamiltonian
        assert cert.witness is None

    def test_requires_skew(self):
        with pytest.raises(PreconditionError):
            is_hamiltonian(CTX, NON_SKEW)

    def test_summary_strings(self):
        good = is_hamiltonian(CTX, D_OP)
        bad = is_hamiltonian(CTX, SHIFT_OP)
        assert "hamiltonian" in good.summary()
        assert "not hamiltonian" in bad.summary()


class TestWitnessSearch:
    """The search reuses covectors, images and inner brackets; it must pick
    the same triple, with the same defect, as the plain loop over the
    per-triple reference in `oracles.reference_witness_search`."""

    CASES = [
        (1, "op(a*D + D*R(a))"),
        (1, "op(a*a*D + D*R(a*a))"),
        (1, "op(a_x*D + D*R(a_x))"),
        (1, "op(D^3)"),
        (2, "op(a1*D + D*R(a1))"),
        (2, "op(a2*D + D*R(a2))"),
    ]

    @pytest.mark.parametrize("fields,text", CASES)
    def test_matches_reference_loop(self, fields, text):
        ctx = JetContext(fields=fields, directions=1)
        op = parse_operator(text, ctx)
        pool = witness_pool(ctx)
        # distinct densities, so a witness's densities name its pool indices
        assert all(f.density != g.density for f, g in itertools.combinations(pool, 2))
        hamiltonian = is_trivial(ctx, master_defect(ctx, op).density)
        _, found = reference_witness_search(ctx, op, pool, 400)
        budgets = {0, 1, 3, 200}
        if found is not None:
            # the boundary: the last budget without the witness and the first with it
            at = next(
                n for n in range(400)
                if reference_witness_search(ctx, op, pool, n + 1)[0] is not None
            )
            budgets |= {at, at + 1}
            assert 3 < at < 200
        for budget in sorted(budgets):
            cert = is_hamiltonian(ctx, op, witness_budget=budget)
            assert cert.hamiltonian == hamiltonian
            witness, defect = (
                (None, None) if hamiltonian
                else reference_witness_search(ctx, op, pool, budget)
            )
            if witness is None:
                assert cert.witness is None and cert.witness_defect is None
                continue
            assert [h.density for h in cert.witness] == [h.density for h in witness]
            assert cert.witness_defect == defect
            assert list(cert.witness_defect.terms) == list(defect.terms)


def _corpus_skew_parts(ctx, seed, count):
    """Nonzero skew parts P - P* of `count` one-term `corpus.operator` draws
    with side words of at most one letter."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        p = corpus.operator(rng, ctx, terms=1, max_word=1)
        ops.append(p - p.adjoint())
    return [op for op in ops if op]


def _named_operators():
    """The `selftest` Hamiltonian family and the `TestWitnessSearch`
    operators, each with its context."""
    ctx = JetContext()
    cases = [(ctx, op) for op in hamiltonian_family(ctx).values()]
    for fields, text in TestWitnessSearch.CASES:
        case_ctx = JetContext(fields=fields, directions=1)
        cases.append((case_ctx, parse_operator(text, case_ctx)))
    return cases


class TestSkewImageIsOddVariation:
    """`is_hamiltonian` takes the odd variation of the raw bivector
    P = (1/2) * sum_j close(b_j * op(b_j)) to be the images op(b_j) it is
    built from.  For a skew operator that holds exactly; for a non-skew one
    it does not."""

    @staticmethod
    def sides(ctx, op):
        variation = variations(ctx, bivector_density(ctx, op), True)
        return variation, tuple(op.apply(b) for b in odd_letter_sums(ctx))

    @pytest.mark.parametrize("fields,directions", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_corpus_skew_parts(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        ops = _corpus_skew_parts(ctx, 850 + 10 * fields + directions, 40)
        assert len(ops) >= 30
        for op in ops:
            variation, images = self.sides(ctx, op)
            assert variation == images

    def test_differs_on_a_non_skew_operator(self):
        variation, images = self.sides(CTX, NON_SKEW)
        assert variation != images


class TestMasterDefectVerdict:
    """`is_hamiltonian` reads its verdict off the odd variations of the
    master defect's pairing density: all zero or not, which is whether the
    standard form is empty.  That must agree with emptiness and `is_trivial`
    of `master_defect`'s standard form and with `is_trivial` of the raw
    bracket density.  The certificate builds the standard form only when
    its density is first read, and then keeps it: it must equal
    `master_defect`'s, exactly."""

    @staticmethod
    def verdicts(ctx, op):
        pv = multivector_from_operator(ctx, op)
        raw = schouten_bracket(ctx, pv, pv).density
        defect = master_defect(ctx, op)
        return defect.is_zero(), is_trivial(ctx, defect.density), is_trivial(ctx, raw)

    def test_named_operators(self):
        found = []
        for case_ctx, op in _named_operators():
            verdict = self.verdicts(case_ctx, op)
            assert len(set(verdict)) == 1
            assert is_hamiltonian(case_ctx, op, find_witness=False).hamiltonian == verdict[0]
            found.append(verdict[0])
        assert set(found) == {True, False}

    @pytest.mark.parametrize("fields,directions,seed", [(1, 1, 801), (2, 1, 802), (1, 2, 803), (2, 2, 804)])
    def test_corpus_skew_parts(self, fields, directions, seed, monkeypatch):
        ctx = JetContext(fields=fields, directions=directions)
        ops = _corpus_skew_parts(ctx, seed, 40)
        assert len(ops) >= 30
        found = [self.verdicts(ctx, op) for op in ops]
        assert all(len(set(verdict)) == 1 for verdict in found)
        assert {verdict[0] for verdict in found} == {True, False}
        builds = []
        standard_form = P._standard_form
        monkeypatch.setattr(P, "_standard_form", lambda *args, **kw: builds.append(args) or standard_form(*args, **kw))
        for op, verdict in zip(ops, found):
            cert = is_hamiltonian(ctx, op, find_witness=False)
            assert cert.hamiltonian == verdict[0]
            assert not builds
            density = cert.defect_density
            assert len(builds) == 1
            assert cert.defect_density is density and len(builds) == 1
            assert density == master_defect(ctx, op).density
            builds.clear()


class TestMasterDefectPairing:
    """`master_defect` builds its representative from the pairing of the
    bivector's variations, not from the flow density of the self-bracket.
    The two differ by a total divergence, so their standard forms must be
    the same value, exactly."""

    @staticmethod
    def assert_same_standard_form(ctx, op):
        pv = multivector_from_operator(ctx, op)
        flow = normalize_multivector(ctx, schouten_bracket(ctx, pv, pv).density, 3)
        defect = master_defect(ctx, op)
        assert defect.degree == flow.degree == 3
        assert defect.density == flow.density
        return defect.is_zero()

    def test_named_operators(self):
        zero = [self.assert_same_standard_form(ctx, op) for ctx, op in _named_operators()]
        assert set(zero) == {True, False}

    @pytest.mark.parametrize("fields,directions", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_corpus_skew_parts(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        ops = _corpus_skew_parts(ctx, 824, 16)
        assert len(ops) >= 10
        zero = [self.assert_same_standard_form(ctx, op) for op in ops]
        assert set(zero) == {True, False}


class TestRepeatedIndexTriples:
    """The witness search skips triples with a repeated pool index without
    computing them.  That is exact only because such a triple's cyclic sum
    is the empty sum: the covector of {h_i, h_i} is zero and that of
    {h_k, h_i} is minus that of {h_i, h_k}, so the three terms cancel."""

    @pytest.mark.parametrize("fields,text", TestWitnessSearch.CASES)
    def test_jacobi_density_exactly_zero(self, fields, text):
        ctx = JetContext(fields=fields, directions=1)
        op = parse_operator(text, ctx)
        pool = witness_pool(ctx)
        cancelled = 0
        for triple in itertools.combinations_with_replacement(range(len(pool)), 3):
            if len(set(triple)) == 3:
                continue
            terms = reference_jacobi_terms(ctx, op, [pool[i] for i in triple])
            assert sum(terms, FormalSum(cyclic=True)).is_zero(), triple
            cancelled += any(terms)
        assert cancelled

    @pytest.mark.parametrize("text", ["op(a1*a2*D + D*R(a1*a2))", "op(a2*a1*D + D*R(a2*a1))"])
    def test_skipped_triples_do_not_reach_the_order_cap(self, text):
        """Under `max_order=2` the plain loop exceeds the cap at the triple
        (0, 0, 5), whose defect is exactly zero; the search skips it and
        finds the uncapped witness first."""
        capped = JetContext(fields=2, directions=1, max_order=2)
        free = JetContext(fields=2, directions=1)
        op = parse_operator(text, capped)
        pool = witness_pool(capped)
        with pytest.raises(BoundExceeded):
            reference_witness_search(capped, op, pool, 200)
        got = is_hamiltonian(capped, op)
        want = is_hamiltonian(free, parse_operator(text, free))
        assert not got.hamiltonian and got.witness is not None
        assert got.defect_density == want.defect_density
        assert [h.density for h in got.witness] == [h.density for h in want.witness]
        assert got.witness_defect == want.witness_defect

    @pytest.mark.parametrize("fields,text", [
        (1, "op(a*D + D*R(a))"),
        (1, "op(a*a*D + D*R(a*a))"),
        (1, "op(a*a*a*D + D*R(a*a*a))"),
        (2, "op(a1*D + D*R(a1))"),
    ])
    def test_order_cap_ends_the_search_not_the_verdict(self, fields, text):
        """Under `max_order=2` the master defect fits under the cap and is
        nonzero, but a computed triple exceeds it: the verdict stands with
        no witness."""
        capped = JetContext(fields=fields, directions=1, max_order=2)
        free = JetContext(fields=fields, directions=1)
        op = parse_operator(text, capped)
        with pytest.raises(BoundExceeded):
            reference_witness_search(capped, op, witness_pool(capped), 200)
        got = is_hamiltonian(capped, op)
        want = is_hamiltonian(free, parse_operator(text, free))
        assert not got.hamiltonian and not want.hamiltonian
        assert got.witness is None and got.witness_defect is None
        assert got.defect_density == want.defect_density

    @pytest.mark.parametrize("cap", [1, 0])
    def test_order_cap_stops_the_pool_build(self, cap):
        """Under `max_order` 1 or 0 the pool's letter a_xx is over the cap,
        while the master defect of an order-0 operator fits: the cap ends
        the search before any triple, not the run, and keeps no pool."""
        text = "op(a*a - R(a*a))"
        capped = JetContext(max_order=cap)
        free = JetContext()
        got = is_hamiltonian(capped, parse_operator(text, capped))
        want = is_hamiltonian(free, parse_operator(text, free))
        assert not got.hamiltonian and not want.hamiltonian
        assert got.witness is None and got.witness_defect is None
        assert got.defect_density == want.defect_density
        assert capped._witness_pool == ()


class TestInnerCovectorAntisymmetry:
    """The witness search takes the covector of {h_j, h_i} as minus that of
    {h_i, h_j}.  For a skew operator the two brackets add up to a total
    divergence, so this holds exactly, not only up to one."""

    @pytest.mark.parametrize("fields", [1, 2])
    def test_exact_on_pool(self, fields):
        ctx = JetContext(fields=fields, directions=1)
        ops = [parse_operator(text, ctx) for f, text in TestWitnessSearch.CASES if f == fields]
        ops += _corpus_skew_parts(ctx, 810 + fields, 4)
        pool = witness_pool(ctx)
        nonzero = 0
        for op in ops:
            ps = [covector_of(ctx, h) for h in pool]
            images = [tuple(op.apply(c) for c in p.components) for p in ps]
            for i, j in itertools.combinations(range(len(pool)), 2):
                ij = covector_of(ctx, coupling(ctx, ps[i], images[j]))
                ji = covector_of(ctx, coupling(ctx, ps[j], images[i]))
                assert ji == -ij
                nonzero += any(ij.components)
        assert nonzero


class TestJacobiDefectReference:
    """`jacobi_defect` takes the covector of {h_3, h_1} as minus that of
    {h_1, h_3}; its density must equal, exactly, that of the reference,
    which computes every inner bracket's covector on its own."""

    @pytest.mark.parametrize("fields,directions", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_corpus_triples(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(840 + 10 * fields + directions)
        ops = _corpus_skew_parts(ctx, 830 + 10 * fields + directions, 12)
        assert len(ops) >= 8
        nonzero = 0
        for op in ops:
            hs = [corpus.functional(rng, ctx, max_len=2) for _ in range(3)]
            got = jacobi_defect(ctx, op, *hs).density
            assert got == reference_jacobi_defect(ctx, op, hs)
            nonzero += not got.is_zero()
        assert nonzero >= 2


def _outcome(call):
    """What `call()` returns, or BoundExceeded if the order cap stops it."""
    try:
        return call()
    except BoundExceeded:
        return BoundExceeded


def fresh_covector(p):
    """The covector on copies of its components, which keep nothing."""
    return Covector(tuple(map(copy_sum, p.components)))


class TestKeptValues:
    """A density keeps its covector, each component of a covector the
    D^sigma an operator asked for under the value of the operator's
    context, and an operator's words its skewness verdict.  Each must equal
    a fresh computation; a capped context must stop exactly where it stops
    a fresh value, whichever context used the value first; and `add_term`
    must refuse an operator whose verdict was read."""

    SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]

    @staticmethod
    def draws(ctx, seed):
        """Seeded functionals, covectors, and operators both skew and not."""
        rng = random.Random(seed)
        functionals = [corpus.functional(rng, ctx) for _ in range(6)]
        covectors = [corpus.covector(rng, ctx) for _ in range(6)]
        ops = [corpus.operator(rng, ctx, terms=1, max_word=1) for _ in range(3)]
        return functionals, covectors, ops + [op - op.adjoint() for op in ops]

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_kept_equals_fresh(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        functionals, covectors, ops = self.draws(ctx, 850 + 10 * fields + directions)
        for f in functionals:
            kept = covector_of(ctx, f)
            assert covector_of(ctx, f) is kept
            assert covector_of(ctx, f.density) is kept and covector_of(ctx, Functional(ctx, f.density)) is kept
            assert kept == covector_of(ctx, copy_sum(f.density))
        prolonged = 0
        for op in ops:
            for p in covectors:
                fresh = P.hamiltonian_section(ctx, op, fresh_covector(p))
                for _ in ("filling the kept D^sigma", "reading them"):
                    assert P.hamiltonian_section(ctx, op, p) == fresh
                for comp in p.components:
                    for orders, (_, value) in (comp._derived or {}).items():
                        assert value == d_power(ctx, comp, orders)
                        prolonged += bool(value)
        assert prolonged
        verdicts = []
        for op in ops:
            verdict = op.is_skew()
            assert op.is_skew() is verdict
            assert verdict == (op.adjoint() == -op) == DifferentialOperator(ctx, copy_sum(op.words)).is_skew()
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_cap_stops_where_it_stops_a_fresh_value(self, fields, directions):
        """Each value is used under the uncapped and a capped context in
        turn, starting with either; every call must give what a fresh
        computation gives under that context."""
        free = JetContext(fields=fields, directions=directions)
        functionals, covectors, ops = self.draws(free, 870 + 10 * fields + directions)
        turns = ((0, 1, 0, 1), (1, 0, 1, 0))
        stopped = set()
        for cap in range(5):
            capped = JetContext(fields=fields, directions=directions, max_order=cap)
            ctxs = (free, capped)
            for f in functionals:
                want = [_outcome(lambda: covector_of(c, copy_sum(f.density))) for c in ctxs]
                for turn in turns:
                    kept = Functional(free, copy_sum(f.density))
                    for i in turn:
                        assert _outcome(lambda: covector_of(ctxs[i], kept)) == want[i]
                stopped.add(want[1] is BoundExceeded)
            for op in ops:
                sides = (op, DifferentialOperator(capped, op.words))
                for p in covectors:
                    want = [_outcome(lambda: P.hamiltonian_section(o.ctx, o, fresh_covector(p))) for o in sides]
                    for turn in turns:
                        kept = fresh_covector(p)
                        for i in turn:
                            got = _outcome(lambda: P.hamiltonian_section(sides[i].ctx, sides[i], kept))
                            assert got == want[i]
                    stopped.add(want[1] is BoundExceeded)
        assert stopped == {True, False}

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_add_term_drops_the_verdict(self, fields, directions):
        """Reading the verdict seals the operator's words, so `add_term`
        refuses them from then on; a copy of the words, extended term by
        term, gives the verdict a fresh operator gives."""
        ctx = JetContext(fields=fields, directions=directions)
        _, _, ops = self.draws(ctx, 890 + 10 * fields + directions)
        verdicts = []
        for skew in ops[3:]:
            built = DifferentialOperator(ctx)
            for (left, orders, right), c in skew.terms():
                before = built.is_skew()
                terms = dict(built.words.terms)
                with pytest.raises(PreconditionError, match="sealed"):
                    built.add_term(left, orders, right, c)
                assert built.words.terms == terms and built.is_skew() is before
                assert before == DifferentialOperator(ctx, copy_sum(built.words)).is_skew()
                built = DifferentialOperator(ctx, copy.copy(built.words))
                built.add_term(left, orders, right, c)
                verdict = built.is_skew()
                assert verdict == DifferentialOperator(ctx, copy_sum(built.words)).is_skew()
                verdicts.append(verdict)
            assert built.is_skew()
        assert set(verdicts) == {True, False}


def _refused(target: FormalSum, source: FormalSum) -> FormalSum:
    """Check that writing the terms of `source` to the sealed `target` is
    refused and leaves its terms and what it keeps as they were; return a
    copy of `target` with the write made."""
    terms, kept = dict(target.terms), dict(target._derived)
    assert source.terms
    for w, c in source.terms.items():
        with pytest.raises(PreconditionError, match="sealed"):
            target.add_word(w, c)
    assert target.terms == terms and target._derived == kept
    written = copy.copy(target)
    for w, c in source.terms.items():
        written.add_word(w, c)
    return written


class TestWritesDropKeptValues:
    """Every value derived from a sum is kept on that sum, and a value that
    checks its sum when it is built seals it; `add_word` (or `add_term`,
    which writes through it) refuses a sealed sum.  Each case writes after
    a value was read: the write must raise and leave the value equal to a
    fresh computation, and the same write on a `copy.copy` must give what a
    fresh computation on that copy gives."""

    SHAPES = [(1, 1), (2, 1), (1, 2)]

    def test_functional_covector_after_add_word(self):
        d = cyc([A, A, A])
        h = Functional(CTX, d)
        kept = covector_of(CTX, h)
        assert kept == Covector((opn([A, A], 3),))
        with pytest.raises(PreconditionError, match="sealed"):
            d.add_word((A, A), CTX.one())
        assert d == cyc([A, A, A]) and covector_of(CTX, h) is kept
        written = copy.copy(d)
        written.add_word((A, A), CTX.one())
        assert covector_of(CTX, Functional(CTX, written)) == Covector((opn([A], 2) + opn([A, A], 3),))
        assert covector_of(CTX, h) is kept

    def test_skew_verdict_after_add_word(self):
        words = parse_operator("op(D)", CTX).words
        op = DifferentialOperator(CTX, words)
        assert op.is_skew()
        written = DifferentialOperator(CTX, _refused(words, parse_operator("op(a)", CTX).words))
        assert op.is_skew() and op == from_derivative(CTX)
        poisson_bracket(CTX, op, functional([A, A]), functional([A, A, A]))
        assert not written.is_skew()
        with pytest.raises(PreconditionError, match="not skew"):
            poisson_bracket(CTX, written, functional([A, A]), functional([A, A, A]))

    def test_odd_word_after_the_functional_is_built(self):
        """The functional's check holds for its life: an odd word written
        to its density after it was built is refused."""
        d = parse_cyclic("cyc(a*a)", CTX)
        h = Functional(CTX, d)
        with pytest.raises(PreconditionError, match="sealed"):
            d.add_word((B, CTX.shift(B, 1)), CTX.one())
        assert d == cyc([A, A]) and covector_of(CTX, h) == Covector((opn([A], 2),))
        written = copy.copy(d)
        written.add_word((B, CTX.shift(B, 1)), CTX.one())
        with pytest.raises(PreconditionError, match="even-kind"):
            Functional(CTX, written)

    def test_component_of_a_kept_covector(self):
        h = functional([A, A, A])
        kept = covector_of(CTX, h)
        with pytest.raises(PreconditionError, match="sealed"):
            kept.components[0].add_word((A,), CTX.one())
        assert covector_of(CTX, h) is kept
        assert kept == covector_of(CTX, copy_sum(h.density)) == Covector((opn([A, A], 3),))

    def test_component_of_a_kept_field(self):
        text = "cyc(b*a_x*b_x)"
        mv = Multivector(CTX, 2, parse_cyclic(text, CTX))
        kept = q_field(CTX, mv)
        with pytest.raises(PreconditionError, match="sealed"):
            kept.odd[0].add_word((B, B), CTX.one())
        assert q_field(CTX, mv) is kept
        assert kept == q_field(CTX, Multivector(CTX, 2, parse_cyclic(text, CTX)))

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_covector(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(950 + 10 * fields + directions)
        changed = 0
        for _ in range(6):
            h = corpus.functional(rng, ctx)
            before = covector_of(ctx, h)
            written = _refused(h.density, corpus.functional(rng, ctx).density)
            assert covector_of(ctx, h) is before
            assert before == covector_of(ctx, copy_sum(h.density))
            after = covector_of(ctx, written)
            assert after == covector_of(ctx, copy_sum(written))
            changed += after != before
        assert changed

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_field(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(960 + 10 * fields + directions)
        changed = 0
        for degree in (0, 1, 2, 3):
            mv = corpus.multivector(rng, ctx, degree)
            before = q_field(ctx, mv)
            written = _refused(mv.density, corpus.cyclic_density(rng, ctx, degree, words=2))
            assert q_field(ctx, mv) is before
            assert before == q_field(ctx, Multivector(ctx, degree, copy_sum(mv.density)))
            after = q_field(ctx, Multivector(ctx, degree, written))
            assert after == q_field(ctx, Multivector(ctx, degree, copy_sum(written)))
            changed += after != before
        assert changed

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_skew(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(970 + 10 * fields + directions)
        changed = 0
        for _ in range(4):
            op = corpus.operator(rng, ctx, terms=1, max_word=1)
            for built in (op - op.adjoint(), DifferentialOperator(ctx, copy_sum(op.words))):
                before = built.is_skew()
                written = _refused(built.words, corpus.operator(rng, ctx, terms=1, max_word=1).words)
                assert built.is_skew() is before
                assert before == DifferentialOperator(ctx, copy_sum(built.words)).is_skew()
                after = DifferentialOperator(ctx, written).is_skew()
                assert after == DifferentialOperator(ctx, copy_sum(written)).is_skew()
                changed += after != before
        assert changed

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_prolongation_of_a_covector(self, fields, directions):
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(980 + 10 * fields + directions)
        changed = 0
        for _ in range(4):
            op = corpus.operator(rng, ctx, terms=2, max_word=1)
            p = corpus.covector(rng, ctx)
            before = P.hamiltonian_section(ctx, op, p)
            written = Covector(tuple(
                _refused(comp, more) for comp, more in zip(p.components, corpus.covector(rng, ctx).components)
            ))
            assert P.hamiltonian_section(ctx, op, p) == before
            assert before == P.hamiltonian_section(ctx, op, fresh_covector(p))
            after = P.hamiltonian_section(ctx, op, written)
            assert after == P.hamiltonian_section(ctx, op, fresh_covector(written))
            changed += after != before
        assert changed

    @pytest.mark.parametrize("fields,directions", SHAPES)
    def test_prolongation_of_a_section(self, fields, directions):
        """The components are copies that keep nothing, so only the
        section's own seal refuses the writes to those it never prolongs."""
        ctx = JetContext(fields=fields, directions=directions)
        rng = random.Random(990 + 10 * fields + directions)
        fresh = lambda comps: make_section(ctx, even=tuple(map(copy_sum, comps)), parity=0)
        changed = 0
        for _ in range(4):
            section = fresh(corpus.covector(rng, ctx).components)
            f = corpus.cyclic_density(rng, ctx, 0, words=3)
            before = evolutionary_apply(ctx, section, f)
            written = tuple(
                _refused(comp, more) for comp, more in zip(section.even, corpus.covector(rng, ctx).components)
            )
            assert evolutionary_apply(ctx, section, f) == before
            assert before == evolutionary_apply(ctx, fresh(section.even), f)
            after = evolutionary_apply(ctx, make_section(ctx, even=written, parity=0), f)
            assert after == evolutionary_apply(ctx, fresh(written), f)
            changed += after != before
        assert changed


class TestSkewCheckedAtEveryEntry:
    """The internals skip the check, so every public entry must make it
    (`poisson_bracket` and `is_hamiltonian` are covered above)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: jacobi_defect(CTX, NON_SKEW, *(functional([A]),) * 3),
            lambda: jacobi_defect_expanded(CTX, NON_SKEW, (covector_of(CTX, cyc([A, A])),) * 3),
            lambda: master_defect(CTX, NON_SKEW),
            lambda: involutivity_witness(CTX, NON_SKEW, *(covector_of(CTX, cyc([A, A])),) * 2),
            lambda: substitution_harness(CTX, "jacobi-flow", 2, seed=0, op=NON_SKEW),
            lambda: substitution_harness(CTX, "bivector-alternation", 2, seed=0, op=NON_SKEW),
        ],
        ids=[
            "jacobi_defect", "jacobi_defect_expanded", "master_defect",
            "involutivity_witness", "harness-jacobi-flow", "harness-bivector-alternation",
        ],
    )
    def test_non_skew_rejected(self, call):
        with pytest.raises(PreconditionError, match="not skew-adjoint"):
            call()


class TestInvolutivityWitness:
    def test_zero_on_family(self):
        rng = random.Random(9)
        for op in (D_OP, XD_DX):
            for _ in range(4):
                p1 = corpus.covector(rng, CTX, jet_dependent=True)
                p2 = corpus.covector(rng, CTX, jet_dependent=True)
                comps = involutivity_witness(CTX, op, p1, p2)
                assert all(c.is_zero() for c in comps)


class TestHarness:
    def test_all_identities_pass_on_defaults(self):
        for name in IDENTITY_NAMES:
            result = substitution_harness(CTX, name, 8, seed=1)
            assert result.passed, name
            assert len(result.reports) == 8

    def test_jacobi_flow_detects_broken_operator(self):
        result = substitution_harness(CTX, "jacobi-flow", 6, seed=0, op=SHIFT_OP)
        assert not result.passed

    def test_unknown_identity_rejected(self):
        with pytest.raises(PreconditionError):
            substitution_harness(CTX, "nonsense", 1, seed=0)

    @pytest.mark.parametrize("identity", IDENTITY_NAMES)
    def test_unknown_covector_class_rejected(self, identity):
        with pytest.raises(PreconditionError, match="covector class"):
            substitution_harness(CTX, identity, 2, seed=0, covector_class="bogus")

    def test_covector_draws_are_seed_deterministic(self):
        a = corpus.covector(random.Random(4), CTX, jet_dependent=True)
        b = corpus.covector(random.Random(4), CTX, jet_dependent=True)
        assert a.components == b.components


class TestHarnessDraws:
    """The harness draws its arguments through `corpus`, and the covector
    class decides what the draws may depend on: `x` covectors (and the
    variations of `x` functionals) are pure base-coordinate profiles, `jet`
    ones carry position letters."""

    CONTEXTS = [CTX, JetContext(fields=2, directions=2)]

    @staticmethod
    def spy_on_corpus(monkeypatch):
        drawn = []

        def spy(draw):
            def recorded(*args, **kwargs):
                value = draw(*args, **kwargs)
                drawn.append(value)
                return value

            return recorded

        monkeypatch.setattr(corpus, "covector", spy(corpus.covector))
        monkeypatch.setattr(corpus, "functional", spy(corpus.functional))
        return drawn

    @staticmethod
    def covector_words(ctx, drawn):
        words = set()
        for value in drawn:
            p = covector_of(ctx, value) if isinstance(value, Functional) else value
            for comp in p.components:
                words.update(comp.terms)
        return words

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["m1n1", "m2n2"])
    @pytest.mark.parametrize("identity", IDENTITY_NAMES)
    def test_x_class_draws_pure_x_covectors(self, monkeypatch, identity, ctx):
        drawn = self.spy_on_corpus(monkeypatch)
        substitution_harness(ctx, identity, 3, seed=5, covector_class="x")
        assert drawn
        assert self.covector_words(ctx, drawn) <= {()}

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["m1n1", "m2n2"])
    @pytest.mark.parametrize("identity", IDENTITY_NAMES)
    def test_jet_class_draws_position_letters(self, monkeypatch, identity, ctx):
        drawn = self.spy_on_corpus(monkeypatch)
        substitution_harness(ctx, identity, 3, seed=5, covector_class="jet")
        assert any(self.covector_words(ctx, drawn))

    @pytest.mark.parametrize("covector_class", ["x", "jet"])
    @pytest.mark.parametrize("identity", IDENTITY_NAMES)
    def test_same_seed_same_draws_and_reports(self, monkeypatch, identity, covector_class):
        drawn = self.spy_on_corpus(monkeypatch)
        first = substitution_harness(CTX, identity, 3, seed=8, covector_class=covector_class)
        first_drawn = list(drawn)
        drawn.clear()
        second = substitution_harness(CTX, identity, 3, seed=8, covector_class=covector_class)
        assert first == second
        assert first_drawn == drawn
