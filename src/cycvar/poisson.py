"""Poisson brackets of functionals induced by a skew one-slot operator, the
Jacobi defect in two independent forms, the Hamiltonian decision procedure,
and the substitution harness for structural identities."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import corpus
from .errors import BoundExceeded, PreconditionError
from .words import FormalSum, _Accumulator
from .jets import JetContext, _Table, _act, make_section, total_derivative
from .operators import DifferentialOperator, from_derivative
from .variational import (
    Covector,
    Functional,
    _pair,
    coupling,
    covector_of,
    is_trivial,
    variations,
)
from .schouten import (
    Multivector,
    _bivector,
    _standard_form,
    evaluate,
    multivector_from_operator,
    odd_degree,
    odd_letter_sums,
)


def _require_skew(op: DifferentialOperator) -> None:
    """The Poisson layer's precondition: a skew operator whose coefficient
    words hold position letters only.  An odd letter is named first, in one
    pass, so no deeper layer trips over the parity it brings."""
    if any(letter.odd for w in op.words.terms for letter in w):
        raise PreconditionError("operator coefficient words must hold position letters only")
    if not op.is_skew():
        raise PreconditionError("operator is not skew-adjoint")


def hamiltonian_section(
    ctx: JetContext, op: DifferentialOperator, p: Covector
) -> tuple[FormalSum, ...]:
    """Componentwise image of a covector under the operator (diagonal
    action).  Each D^sigma of a component is kept on the component (see
    `DifferentialOperator.apply`), so a covector met again is not prolonged
    again."""
    return tuple(op.apply(c) for c in p.components)


def _jacobi_triples(ctx: JetContext, op: DifferentialOperator, covectors):
    """The Jacobi defect density of an index triple (i, j, k) into
    `covectors`, the covectors of functionals h, as a function of the
    triple: the cyclic sum of {{h_a, h_b}, h_c} over (a, b, c) = (i, j, k),
    (j, k, i), (k, i, j).

    Each covector's operator image, and each inner bracket's covector, is
    computed once across all triples asked for and kept in a memo table
    (`jets._Table`, a dict that computes a missing key).  An inner covector
    is the tuple of variations that `_pair` takes, with no `Covector`
    check: it couples even covectors with images of words of position
    letters, so it holds no odd letter.  The covector of {h_j, h_i} for
    i < j is taken as minus that of {h_i, h_j}: for a skew operator the two
    brackets add up to a total divergence, which every variational
    derivative maps to exactly zero.  No table's compute function holds its
    own table, so nothing holds a reference cycle through the context.
    Unchecked."""
    images = _Table(lambda i: hamiltonian_section(ctx, op, covectors[i]))
    # the coupling is dropped right after, so nothing is kept on it
    inners = _Table(lambda ij: variations(ctx, coupling(ctx, covectors[ij[0]], images[ij[1]]), False))

    def defect(triple) -> FormalSum:
        total = _Accumulator(True)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            i, j = triple[a], triple[b]
            inner = inners[i, j] if i <= j else inners[j, i]
            _pair(ctx, inner, images[triple[c]], total, 1 if i <= j else -1)
        return total.finish()

    return defect


def poisson_bracket(
    ctx: JetContext, op: DifferentialOperator, f: Functional, g: Functional
) -> Functional:
    """Bracket of two functionals: couple the variations of the first with
    the operator image of the variations of the second."""
    _require_skew(op)
    p = covector_of(ctx, f)
    q = covector_of(ctx, g)
    return Functional(ctx, coupling(ctx, p, hamiltonian_section(ctx, op, q)))


def jacobi_defect(
    ctx: JetContext,
    op: DifferentialOperator,
    h1: Functional,
    h2: Functional,
    h3: Functional,
) -> Functional:
    """Cyclic sum of nested brackets; trivial exactly when the bracket
    satisfies the Jacobi identity on these arguments."""
    _require_skew(op)
    covectors = [covector_of(ctx, h) for h in (h1, h2, h3)]
    return Functional(ctx, _jacobi_triples(ctx, op, covectors)((0, 1, 2)))


def jacobi_defect_expanded(
    ctx: JetContext,
    op: DifferentialOperator,
    covectors: tuple[Covector, Covector, Covector],
) -> FormalSum:
    """Independent route to the Jacobi defect: the alternating sum over all
    orderings of flowing one half-pairing along the operator image of the
    third covector.  Agrees with `jacobi_defect` up to a total divergence
    when the covectors are the variations of the functionals.  Each
    covector's image and flow section is computed once for all six
    orderings, and the flows act linearly, so the half scales the total."""
    _require_skew(op)
    images = [hamiltonian_section(ctx, op, p) for p in covectors]
    flows = [make_section(ctx, even=image, parity=0) for image in images]
    total = _Accumulator(True)
    # the sign of each permutation, in `permutations` order
    for (i, j, k), sign in zip(itertools.permutations((0, 1, 2)), (1, -1, -1, 1, 1, -1)):
        _act(ctx, flows[k], coupling(ctx, covectors[i], images[j]), total, sign)
    return total.finish().scale(Fraction(1, 2))


def _defect_variations(ctx: JetContext, op: DifferentialOperator) -> tuple[FormalSum, ...]:
    """The odd variations of sum_j close(dP/da_j * dP/db_j), half the master
    defect's representative (see `master_defect`).  For a skew operator
    dP/db_j is op(b_j) exactly, so P's odd variation is the images P is
    built from, with no Euler pass."""
    _require_skew(op)
    bivector, images = _bivector(ctx, op)
    odd_degree(bivector, 2)
    density = coupling(ctx, variations(ctx, bivector, False), images)
    odd_degree(density, 3)
    return variations(ctx, density, True)


def master_defect(ctx: JetContext, op: DifferentialOperator) -> Multivector:
    """Bracket of the operator's degree-2 density P with itself, in standard
    form; its class vanishes exactly when the operator's bracket satisfies
    Jacobi.

    P is the raw density (1/2) * sum_j close(b_j * op(b_j)), never put in
    standard form: only its variations are used, and they ignore total
    divergences exactly.  The representative is 2 * sum_j close(dP/da_j *
    dP/db_j), the pairing of P's variations (the 2 rides on the closing
    letters of the standard form), not the flow density of the
    self-bracket.  The two differ by a total divergence: for degree 2 the
    right variation along b_j is minus the left one, and the even factor
    dP/da_j commutes under `close`, so both halves of the bracket give the
    same pairing.  The standard form is built from the odd variations alone
    (see `_defect_variations`), which vanish on total divergences exactly,
    so it is the same value on either route."""
    return Multivector(ctx, 3, _standard_form(ctx, _defect_variations(ctx, op), 3, factor=2))


def involutivity_witness(
    ctx: JetContext, op: DifferentialOperator, p1: Covector, p2: Covector
) -> tuple[FormalSum, ...]:
    """Residual measuring whether the operator image of covectors closes
    under the induced bracket of flows: for a Hamiltonian operator with
    suitably matched covectors the components vanish."""
    _require_skew(op)
    v1 = hamiltonian_section(ctx, op, p1)
    v2 = hamiltonian_section(ctx, op, p2)
    x1 = make_section(ctx, even=v1, parity=0)
    x2 = make_section(ctx, even=v2, parity=0)
    out = []
    for j in range(ctx.fields):
        residual, bracket_arg = _Accumulator(False), _Accumulator(False)
        _act(ctx, x1, v2[j], residual)
        _act(ctx, x2, v1[j], residual, -1)
        _act(ctx, x1, p2.components[j], bracket_arg)
        _act(ctx, x2, p1.components[j], bracket_arg, -1)
        residual.add_terms(op.apply(bracket_arg.finish()).terms, -1)
        out.append(residual.finish())
    return tuple(out)


@dataclass(frozen=True)
class HamiltonianCertificate:
    """Outcome of the decision procedure, with the evidence that was checked.

    `defect_density`, `master_defect`'s density, is built on first read
    from the odd variations the verdict came from, and kept; the build takes
    no derivative, so it never exceeds an order cap.  Equality and `repr`
    read it.  A certificate holds word sums, so it is unhashable."""

    __hash__ = None
    hamiltonian: bool
    defect_density: FormalSum = field(init=False)
    _ctx: JetContext = field(repr=False, compare=False)
    _odd_variations: tuple[FormalSum, ...] = field(repr=False, compare=False)
    witness: tuple[Functional, Functional, Functional] | None = None
    witness_defect: FormalSum | None = None

    def __getattr__(self, name):
        # reached only while `defect_density` is unset
        if name != "defect_density":
            raise AttributeError(name)
        density = _standard_form(self._ctx, self._odd_variations, 3, factor=2)
        object.__setattr__(self, name, density)
        return density

    def summary(self) -> str:
        if self.hamiltonian:
            return "hamiltonian: master defect is a total divergence"
        if self.witness is not None:
            return "not hamiltonian: explicit functional triple breaks Jacobi"
        return "not hamiltonian: master defect is nontrivial"


def _witness_pool(ctx: JetContext) -> tuple[FormalSum, ...]:
    """Small deterministic family of functional densities used to exhibit a
    Jacobi failure when the master defect is nontrivial.  It does not
    depend on the operator, so the context keeps it, and each density keeps
    its covector (see `covector_of`); it is stored only once it is built
    whole, so an order cap that stops the build keeps nothing.  No density
    holds the context."""
    if not ctx._witness_pool:
        pool, one, x = [], ctx.one(), ctx.x_power(1, 1)
        for j in range(1, ctx.fields + 1):
            a = ctx.letter(False, j)
            axx = ctx.shift(ctx.shift(a, 1), 1)
            shapes = ((a,), one), ((a, a), one), ((a, a, a), one), ((a,), x), ((a, a), x), ((a, axx), one)
            for letters, coeff in shapes:
                pool.append(FormalSum.single(True, letters, coeff))
        object.__setattr__(ctx, "_witness_pool", tuple(pool))
    return ctx._witness_pool


def is_hamiltonian(
    ctx: JetContext,
    op: DifferentialOperator,
    find_witness: bool = True,
    witness_budget: int = 200,
) -> HamiltonianCertificate:
    """Decide whether a skew operator induces a bracket satisfying Jacobi.

    The verdict is the triviality of the master defect, read off the odd
    variations of its pairing density (see `_defect_variations`): they all
    vanish exactly when its standard form is empty, that is, when the
    density is a total divergence (see `normalize_multivector`).  Every
    derivative is taken here; the certificate closes the variations into
    `master_defect`'s density only when it is read.  A negative verdict is
    backed, when possible, by a functional triple whose `jacobi_defect` is
    nontrivial; triples with a repeated functional are skipped, since their
    defect is exactly zero, but still count against `witness_budget` (see
    `_witness_search`).
    """
    if witness_budget < 0:
        raise PreconditionError(
            f"witness budget must be nonnegative, got {witness_budget}"
        )
    odd_variations = _defect_variations(ctx, op)
    if not any(odd_variations):
        return HamiltonianCertificate(True, ctx, odd_variations)
    witness = None
    witness_defect = None
    if find_witness:
        witness, witness_defect = _witness_search(ctx, op, witness_budget)
    return HamiltonianCertificate(False, ctx, odd_variations, witness, witness_defect)


def _witness_search(ctx: JetContext, op: DifferentialOperator, budget: int):
    """First of at most `budget` triples of `_witness_pool` functionals, in
    `combinations_with_replacement` order, whose Jacobi defect is
    nontrivial, with that defect; (None, None) if there is none.  The
    defects come from `_jacobi_triples`, which computes each pool member's
    image and each inner bracket's covector once for the whole search; the
    pool members' covectors are kept on their densities, which the context
    keeps.  The covector of {h_i, h_i} is exactly zero and that of
    {h_k, h_i} is exactly minus that of {h_i, h_k}, so the cyclic sum over
    a triple with a repeated index cancels term by term to the empty sum.
    Such triples are skipped without computing anything, but they still
    count against `budget`, so every budget finds the same witness as the
    plain loop.  Under a derivative-order cap only computed triples can
    exceed it, so a run the plain loop ends at a skipped triple finds the
    uncapped witness instead.  A triple, or a pool member, that exceeds the
    cap ends the search with (None, None): the verdict already stands on the
    master defect, so the cap ends the search, not the run.  Unchecked."""
    try:
        pool = _witness_pool(ctx)
        defect = _jacobi_triples(ctx, op, [covector_of(ctx, density) for density in pool])
        triples = itertools.combinations_with_replacement(range(len(pool)), 3)
        for triple in itertools.islice(triples, budget):
            if triple[0] == triple[1] or triple[1] == triple[2]:
                continue
            density = defect(triple)
            if not is_trivial(ctx, density):
                return tuple(Functional(ctx, pool[i]) for i in triple), density
    except BoundExceeded:
        pass
    return None, None


# -- substitution harness -------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    index: int
    passed: bool


@dataclass(frozen=True)
class HarnessResult:
    identity: str
    covector_class: str
    reports: tuple[TrialReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


IDENTITY_NAMES = ("zero", "adjoint-pairing", "jacobi-flow", "bivector-alternation")


def substitution_harness(
    ctx: JetContext,
    identity: str,
    trials: int,
    seed: int,
    covector_class: str = "jet",
    op: DifferentialOperator | None = None,
) -> HarnessResult:
    """Run one shipped identity on freshly drawn arguments and report each
    trial.  Identities are residuals that must be trivial (or zero) whatever
    the substitution, so any failing trial is a counterexample."""
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    if identity not in IDENTITY_NAMES:
        raise PreconditionError(
            f"unknown identity {identity!r}; known: {', '.join(IDENTITY_NAMES)}"
        )
    if covector_class not in ("x", "jet"):
        raise PreconditionError(f"unknown covector class {covector_class!r} (use 'x' or 'jet')")
    rng = random.Random(seed)
    jet = covector_class == "jet"
    # A density of single letters has pure-x variations, so the functionals
    # drawn for the `x` class have covectors in that class too.
    functional_len = 3 if jet else 1
    if op is None:
        op = from_derivative(ctx, 1, 1)
    if identity in ("jacobi-flow", "bivector-alternation"):
        _require_skew(op)
    adj = op.adjoint() if identity == "adjoint-pairing" else None
    pv = multivector_from_operator(ctx, op) if identity == "bivector-alternation" else None
    reports = []
    for i in range(trials):
        if identity == "zero":
            # Variational derivatives annihilate total divergences, exactly.
            even_density = corpus.functional(rng, ctx, max_len=functional_len).density
            p = corpus.covector(rng, ctx, jet_dependent=jet)
            odd_density = coupling(ctx, odd_letter_sums(ctx), p.components)
            passed = True
            for density in (even_density, odd_density):
                for direction in range(1, ctx.directions + 1):
                    exact = total_derivative(ctx, density, direction)
                    for odd_kind in (False, True):
                        if any(variations(ctx, exact, odd_kind)):
                            passed = False
        elif identity == "adjoint-pairing":
            p = corpus.covector(rng, ctx, jet_dependent=jet)
            q = corpus.covector(rng, ctx, jet_dependent=jet)
            residual = _Accumulator(True)
            _pair(ctx, p, hamiltonian_section(ctx, op, q), residual)
            _pair(ctx, q, (adj.apply(c) for c in p.components), residual, -1)
            passed = is_trivial(ctx, residual.finish())
        elif identity == "jacobi-flow":
            covectors = [
                covector_of(ctx, corpus.functional(rng, ctx, max_len=functional_len)) for _ in range(3)
            ]
            residual = _jacobi_triples(ctx, op, covectors)((0, 1, 2))
            passed = is_trivial(ctx, residual)
        else:  # bivector-alternation
            p = corpus.covector(rng, ctx, jet_dependent=jet)
            q = corpus.covector(rng, ctx, jet_dependent=jet)
            residual = (
                evaluate(ctx, pv, (p, q)).density
                + evaluate(ctx, pv, (q, p)).density
            )
            passed = is_trivial(ctx, residual)
        reports.append(TrialReport(i, passed))
    return HarnessResult(identity, covector_class, tuple(reports))
