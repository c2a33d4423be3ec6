"""Poisson brackets of functionals induced by a skew one-slot operator, the
Jacobi defect in two independent forms, the Hamiltonian decision procedure,
and the substitution harness for structural identities."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .words import FormalSum, close, concat
from .jets import JetContext, evolutionary_apply, make_section, total_derivative
from .operators import DifferentialOperator
from .variational import (
    Covector,
    Functional,
    coupling,
    covector_of,
    euler_derivative,
    is_trivial,
)
from .schouten import (
    Multivector,
    evaluate,
    multivector_from_operator,
    schouten_bracket,
)


def _require_skew(op: DifferentialOperator) -> None:
    if not op.is_skew():
        raise PreconditionError("operator is not skew-adjoint")


def hamiltonian_section(
    ctx: JetContext, op: DifferentialOperator, p: Covector
) -> tuple[FormalSum, ...]:
    """Componentwise image of a covector under the operator (diagonal action)."""
    return tuple(op.apply(comp) for comp in p.components)


def poisson_bracket(
    ctx: JetContext, op: DifferentialOperator, f: Functional, g: Functional
) -> Functional:
    """Bracket of two functionals: couple the variations of the first with
    the operator image of the variations of the second."""
    _require_skew(op)
    p = covector_of(ctx, f)
    q = covector_of(ctx, g)
    density = coupling(ctx, p, hamiltonian_section(ctx, op, q))
    return Functional(ctx, density)


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
    total = FormalSum(cyclic=True)
    for a, b, c in ((h1, h2, h3), (h2, h3, h1), (h3, h1, h2)):
        inner = poisson_bracket(ctx, op, a, b)
        total = total + poisson_bracket(ctx, op, inner, c).density
    return Functional(ctx, total)


def jacobi_defect_expanded(
    ctx: JetContext,
    op: DifferentialOperator,
    covectors: tuple[Covector, Covector, Covector],
) -> FormalSum:
    """Independent route to the Jacobi defect: the alternating sum over all
    orderings of flowing one half-pairing along the operator image of the
    third covector.  Agrees with `jacobi_defect` up to a total divergence
    when the covectors are the variations of the functionals."""
    _require_skew(op)
    total = FormalSum(cyclic=True)
    for perm in itertools.permutations((0, 1, 2)):
        sign = _permutation_sign(perm)
        p1, p2, p3 = (covectors[i] for i in perm)
        half = coupling(ctx, p1, hamiltonian_section(ctx, op, p2)).scale(
            Fraction(1, 2)
        )
        flow = make_section(ctx, even=hamiltonian_section(ctx, op, p3), parity=0)
        total = total + evolutionary_apply(ctx, flow, half).scale(sign)
    return total


def _permutation_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def master_defect(ctx: JetContext, op: DifferentialOperator) -> Multivector:
    """Bracket of the operator's degree-2 density with itself; its class
    vanishes exactly when the operator's bracket satisfies Jacobi."""
    _require_skew(op)
    pv = multivector_from_operator(ctx, op)
    return schouten_bracket(ctx, pv, pv)


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
        lhs = evolutionary_apply(ctx, x1, v2[j]) - evolutionary_apply(ctx, x2, v1[j])
        bracket_arg = evolutionary_apply(ctx, x1, p2.components[j]) - evolutionary_apply(
            ctx, x2, p1.components[j]
        )
        out.append(lhs - op.apply(bracket_arg))
    return tuple(out)


@dataclass(frozen=True)
class HamiltonianCertificate:
    """Outcome of the decision procedure, with the evidence that was checked."""

    hamiltonian: bool
    defect_density: FormalSum
    witness: tuple[Functional, Functional, Functional] | None = None
    witness_defect: FormalSum | None = None

    def summary(self) -> str:
        if self.hamiltonian:
            return "hamiltonian: master defect is a total divergence"
        if self.witness is not None:
            return "not hamiltonian: explicit functional triple breaks Jacobi"
        return "not hamiltonian: master defect is nontrivial"


def _witness_pool(ctx: JetContext) -> list[Functional]:
    """Small deterministic family of functionals used to exhibit a Jacobi
    failure when the master defect is nontrivial."""
    pool = []

    def add(letters, coeff):
        density = FormalSum.single(True, tuple(letters), coeff)
        pool.append(Functional(ctx, density))

    for j in range(1, ctx.fields + 1):
        a = ctx.letter(False, j)
        add((a,), ctx.one())
        add((a, a), ctx.one())
        add((a, a, a), ctx.one())
        add((a,), ctx.x_power(1, 1))
        add((a, a), ctx.x_power(1, 1))
        add((a, ctx.shift(ctx.shift(a, 1), 1)), ctx.one())
    return pool


def is_hamiltonian(
    ctx: JetContext,
    op: DifferentialOperator,
    find_witness: bool = True,
    witness_budget: int = 200,
) -> HamiltonianCertificate:
    """Decide whether a skew operator induces a bracket satisfying Jacobi.

    The verdict comes from the triviality of the master defect; a negative
    verdict is backed, when possible, by an explicit functional triple whose
    Jacobi defect is nontrivial.
    """
    if witness_budget < 0:
        raise PreconditionError(
            f"witness budget must be nonnegative, got {witness_budget}"
        )
    _require_skew(op)
    defect = master_defect(ctx, op)
    if is_trivial(ctx, defect.density):
        return HamiltonianCertificate(True, defect.density)
    witness = None
    witness_defect = None
    if find_witness:
        pool = _witness_pool(ctx)
        tried = 0
        for triple in itertools.combinations_with_replacement(pool, 3):
            if tried >= witness_budget:
                break
            tried += 1
            jd = jacobi_defect(ctx, op, *triple)
            if not jd.is_trivial():
                witness = triple
                witness_defect = jd.density
                break
    return HamiltonianCertificate(False, defect.density, witness, witness_defect)


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


def _random_x_poly(rng: random.Random, ctx: JetContext):
    from .words import Coefficient

    out = Coefficient()
    for _ in range(rng.randint(1, 2)):
        exps = [0] * ctx.directions
        exps[rng.randrange(ctx.directions)] = rng.randint(0, 2)
        value = rng.choice([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)])
        out = out + Coefficient.monomial(exps, value)
    return out


def _random_even_word(rng: random.Random, ctx: JetContext, max_len=2, max_order=2):
    length = rng.randint(1, max_len)
    letters = []
    for _ in range(length):
        index = rng.randint(1, ctx.fields)
        orders = [0] * ctx.directions
        orders[rng.randrange(ctx.directions)] = rng.randint(0, max_order)
        letters.append(ctx.letter(False, index, tuple(orders)))
    return tuple(letters)


def random_covector(
    rng: random.Random, ctx: JetContext, covector_class: str
) -> Covector:
    """Draw a covector: `x` components are pure base-coordinate profiles,
    `jet` components carry position letters too."""
    comps = []
    for _ in range(ctx.fields):
        comp = FormalSum(cyclic=False)
        if covector_class == "x":
            comp.add_word((), _random_x_poly(rng, ctx))
        elif covector_class == "jet":
            for _ in range(rng.randint(1, 2)):
                comp.add_word(
                    _random_even_word(rng, ctx), _random_x_poly(rng, ctx)
                )
        else:
            raise PreconditionError(
                f"unknown covector class {covector_class!r} (use 'x' or 'jet')"
            )
        comps.append(comp)
    return Covector(tuple(comps))


def random_functional(
    rng: random.Random, ctx: JetContext, covector_class: str
) -> Functional:
    """Draw a functional whose variations fall in the requested class:
    linear with an x-profile for `x`, a short polynomial density for `jet`."""
    density = FormalSum(cyclic=True)
    if covector_class == "x":
        for j in range(1, ctx.fields + 1):
            density.add_word((ctx.letter(False, j),), _random_x_poly(rng, ctx))
    else:
        for _ in range(rng.randint(1, 2)):
            density.add_word(
                _random_even_word(rng, ctx, max_len=3, max_order=2),
                _random_x_poly(rng, ctx),
            )
    return Functional(ctx, density)


def _default_harness_operator(ctx: JetContext) -> DifferentialOperator:
    from .operators import from_derivative

    return from_derivative(ctx, 1, 1)


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
    rng = random.Random(seed)
    if op is None:
        op = _default_harness_operator(ctx)
    reports = []
    for i in range(trials):
        if identity == "zero":
            # Variational derivatives annihilate total divergences, exactly.
            even_density = random_functional(rng, ctx, covector_class).density
            p = random_covector(rng, ctx, covector_class)
            odd_density = FormalSum(cyclic=True)
            for j, comp in enumerate(p.components, start=1):
                carrier = FormalSum.single(
                    False, (ctx.letter(True, j),), ctx.one()
                )
                odd_density = odd_density + close(concat(carrier, comp))
            passed = True
            for density in (even_density, odd_density):
                for direction in range(1, ctx.directions + 1):
                    exact = total_derivative(ctx, density, direction)
                    for j in range(1, ctx.fields + 1):
                        for odd_kind in (False, True):
                            if not euler_derivative(ctx, exact, odd_kind, j).is_zero():
                                passed = False
        elif identity == "adjoint-pairing":
            p = random_covector(rng, ctx, covector_class)
            q = random_covector(rng, ctx, covector_class)
            lhs = coupling(ctx, p, hamiltonian_section(ctx, op, q))
            adj = op.adjoint()
            rhs = coupling(
                ctx, q, tuple(adj.apply(c) for c in p.components)
            )
            residual = lhs - rhs
            passed = is_trivial(ctx, residual)
        elif identity == "jacobi-flow":
            _require_skew(op)
            hs = tuple(
                random_functional(rng, ctx, covector_class) for _ in range(3)
            )
            residual = jacobi_defect(ctx, op, *hs).density
            passed = is_trivial(ctx, residual)
        elif identity == "bivector-alternation":
            _require_skew(op)
            pv = multivector_from_operator(ctx, op)
            p = random_covector(rng, ctx, covector_class)
            q = random_covector(rng, ctx, covector_class)
            residual = (
                evaluate(ctx, pv, (p, q)).density
                + evaluate(ctx, pv, (q, p)).density
            )
            passed = is_trivial(ctx, residual)
        else:
            raise PreconditionError(
                f"unknown identity {identity!r}; known: {', '.join(IDENTITY_NAMES)}"
            )
        reports.append(TrialReport(i, passed))
    return HarnessResult(identity, covector_class, tuple(reports))
