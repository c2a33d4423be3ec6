"""Built-in identity suites.

Each suite checks one block of the package's structural guarantees on fixed
examples and seeded random corpora; the CLI `selftest` command runs them all
and the test suite drives them one by one.  Suites return a SuiteResult and
never raise on mathematical failure, only on broken preconditions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import corpus
from .words import FormalSum, _Accumulator, normalize, times
from .jets import JetContext
from .lang import parse_operator
from .operators import DifferentialOperator, from_derivative
from .variational import _pair, covector_of, is_trivial
from .schouten import (
    bivector_operator,
    check_field_morphism,
    check_jacobi,
    check_skew,
    schouten_bracket,
    schouten_by_variations,
)
from .poisson import (
    involutivity_witness,
    is_hamiltonian,
    jacobi_defect,
    jacobi_defect_expanded,
    master_defect,
    substitution_harness,
)


@dataclass(frozen=True)
class SuiteResult:
    number: int
    name: str
    passed: bool
    detail: str


def _single(ctx, letters, value=1) -> FormalSum:
    return FormalSum.single(True, tuple(letters), ctx.const(value))


def _open(ctx, letters, value=1) -> FormalSum:
    return FormalSum.single(False, tuple(letters), ctx.const(value))


# -- standard operators used across suites --------------------------------


def hamiltonian_family(ctx: JetContext) -> dict[str, DifferentialOperator]:
    return {
        "D": parse_operator("op(D)", ctx),
        "D^3": parse_operator("op(D^3)", ctx),
        "xD+Dx": parse_operator("op(x*D + D*x)", ctx),
        "D+D^3": parse_operator("op(D + D^3)", ctx),
    }


def skew_candidates(ctx: JetContext) -> dict[str, DifferentialOperator]:
    """Deterministic skew candidates with word coefficients."""
    return {
        "(a.)-(.a)": parse_operator("op(a - R(a))", ctx),
        "aD+D(.a)": parse_operator("op(a*D + D*R(a))", ctx),
        "aaD+D(.aa)": parse_operator("op(a*a*D + D*R(a*a))", ctx),
    }


# -- suite 1: cyclic normalization ----------------------------------------


def suite_cyclic_normalize(seed: int = 0) -> SuiteResult:
    ctx = JetContext(fields=3)
    a = ctx.letter(False, 1)
    b = ctx.letter(False, 2)
    c = ctx.letter(False, 3)
    failures = []

    word = (a, a, b, c, c)
    canon, _ = normalize(word)
    for rot in range(5):
        rep, sign = normalize(word[rot:] + word[:rot])
        if rep != canon or sign != 1:
            failures.append(f"rotation {rot} of the five-letter orbit strayed")
    other, _ = normalize((a, b, a, c, c))
    if other == canon:
        failures.append("distinct necklaces collapsed together")

    for u in (a, b, c):
        rep, sign = normalize((u,))
        if rep != (u,) or sign != 1:
            failures.append("one-letter word moved under normalization")
    for u, v in itertools.product((a, b, c), repeat=2):
        r1, s1 = normalize((u, v))
        r2, s2 = normalize((v, u))
        if r1 != r2 or s1 != s2:
            failures.append("two-letter words are not unordered pairs")
            break

    octx = JetContext(fields=1)
    bb = (octx.letter(True, 1), octx.letter(True, 1))
    if normalize(bb) != (None, 0):
        failures.append("odd two-letter diagonal did not cancel")
    bx = octx.shift(octx.letter(True, 1), 1)
    if normalize((bx, bx)) != (None, 0):
        failures.append("odd differentiated diagonal did not cancel")
    bbb = (octx.letter(True, 1),) * 3
    rep, sign = normalize(bbb)
    if rep is None:
        failures.append("odd three-letter diagonal vanished but should survive")

    detail = "; ".join(failures) if failures else (
        "five-shift orbit collapses, necklaces separate, odd diagonals cancel in pairs"
    )
    return SuiteResult(1, "cyclic-normalize", not failures, detail)


# -- suite 2: the averaged product on the four-letter example -------------


def suite_product_example(seed: int = 0) -> SuiteResult:
    ctx = JetContext(fields=4)
    a1, a2, a3, a4 = (ctx.letter(False, j) for j in range(1, 5))
    f = _single(ctx, (a1, a2))
    g = _single(ctx, (a3, a4))
    product = times(f, g)

    expected = FormalSum(cyclic=True)
    quarter = ctx.const(Fraction(1, 4))
    for word in (
        (a1, a2, a3, a4),
        (a2, a1, a3, a4),
        (a3, a1, a2, a4),
        (a3, a2, a1, a4),
    ):
        expected.add_word(word, quarter)

    ok = product == expected
    octx = JetContext(fields=1)
    aa = times(_single(octx, (octx.letter(False, 1),)), _single(octx, (octx.letter(False, 1),)))
    ok = ok and aa == _single(octx, (octx.letter(False, 1),) * 2)
    one = FormalSum.single(True, (), octx.const(Fraction(3, 2)))
    scaled = times(one, _single(octx, (octx.letter(False, 1),)))
    ok = ok and scaled == _single(octx, (octx.letter(False, 1),), Fraction(3, 2))

    return SuiteResult(
        2,
        "averaged-product-example",
        ok,
        "distinct-letter product averages to the four listed necklaces"
        if ok
        else "product disagrees with the four-term average",
    )


# -- suite 3: commutativity and the failure of associativity --------------


def suite_product_laws(seed: int = 0) -> SuiteResult:
    ctx = JetContext(fields=3)
    rng = random.Random(seed * 7919 + 3)
    commutative_failures = 0
    pairs = 200
    for _ in range(pairs):
        u = corpus.open_word(rng, ctx, rng.randint(1, 4), 0, 2)
        v = corpus.open_word(rng, ctx, rng.randint(1, 4), 0, 2)
        f = _single(ctx, u)
        g = _single(ctx, v)
        if times(f, g) != times(g, f):
            commutative_failures += 1

    witness = None
    letters = [ctx.letter(False, 1), ctx.letter(False, 2)]
    small_words = []
    for length in (1, 2, 3):
        small_words.extend(itertools.product(letters, repeat=length))
    for u, v, w in itertools.product(small_words, repeat=3):
        fu, fv, fw = (_single(ctx, word) for word in (u, v, w))
        left = times(times(fu, fv), fw)
        right = times(fu, times(fv, fw))
        if left != right:
            witness = (u, v, w)
            break
    passed = commutative_failures == 0 and witness is not None
    detail = (
        f"commutative on {pairs} pairs; associativity fails at lengths "
        f"({len(witness[0])},{len(witness[1])},{len(witness[2])})"
        if witness
        else "no associativity counterexample found in the small-word box"
    )
    if commutative_failures:
        detail = f"{commutative_failures} commutativity failures; " + detail
    return SuiteResult(3, "product-laws", passed, detail)


# -- suite 4: graded antisymmetry of the bracket --------------------------


def _multivector_pool(rng, ctx, degrees, count, **kwargs):
    pool = []
    for _ in range(count):
        degree = rng.choice(degrees)
        pool.append(corpus.multivector(rng, ctx, degree, **kwargs))
    return pool


def suite_bracket_antisymmetry(seed: int = 0) -> SuiteResult:
    ctx = JetContext()
    rng = random.Random(seed * 7919 + 4)
    pool = _multivector_pool(
        rng, ctx, [0, 1, 2, 3], 24, words=1, max_len=4, max_order=2
    )
    pairs = 100
    failures = 0
    for _ in range(pairs):
        xi = rng.choice(pool)
        eta = rng.choice(pool)
        if not check_skew(ctx, xi, eta):
            failures += 1
    return SuiteResult(
        4,
        "bracket-antisymmetry",
        failures == 0,
        f"{pairs - failures}/{pairs} graded-antisymmetry checks hold"
        + (f"; {failures} FAILED" if failures else ""),
    )


# -- suite 5: Jacobi for the bracket and the field morphism ---------------


def suite_bracket_identities(seed: int = 0) -> SuiteResult:
    ctx = JetContext()
    rng = random.Random(seed * 7919 + 5)
    pool = _multivector_pool(
        rng, ctx, [0, 1, 2], 18, words=1, max_len=3, max_order=2
    )
    morphism_failures = 0
    cases = 50
    for _ in range(cases):
        xi = rng.choice(pool)
        eta = rng.choice(pool)
        if not check_field_morphism(ctx, xi, eta):
            morphism_failures += 1
    jacobi_failures = 0
    for _ in range(cases):
        xi, eta, omega = (rng.choice(pool) for _ in range(3))
        if not check_jacobi(ctx, xi, eta, omega):
            jacobi_failures += 1
    route_failures = 0
    for _ in range(25):
        xi = rng.choice(pool)
        eta = rng.choice(pool)
        primary = schouten_bracket(ctx, xi, eta).density
        secondary = schouten_by_variations(ctx, xi, eta)
        if not is_trivial(ctx, primary - secondary):
            route_failures += 1
    failures = morphism_failures + jacobi_failures + route_failures
    return SuiteResult(
        5,
        "bracket-identities",
        failures == 0,
        f"field-morphism {cases - morphism_failures}/{cases}, "
        f"jacobi {cases - jacobi_failures}/{cases}, "
        f"two-route agreement {25 - route_failures}/25",
    )


# -- suite 6: the classical Hamiltonian family ----------------------------


def suite_hamiltonian_family(seed: int = 0) -> SuiteResult:
    ctx = JetContext()
    rng = random.Random(seed * 7919 + 6)
    failures = []
    for name, op in hamiltonian_family(ctx).items():
        if not op.is_skew():
            failures.append(f"{name} not skew")
            continue
        cert = is_hamiltonian(ctx, op, find_witness=False)
        if not cert.hamiltonian:
            failures.append(f"{name} wrongly rejected")
        if not cert.defect_density.is_zero():
            failures.append(f"{name} defect not exactly zero")
        for _ in range(5):
            p1 = corpus.covector(rng, ctx, jet_dependent=True)
            p2 = corpus.covector(rng, ctx, jet_dependent=True)
            witness = involutivity_witness(ctx, op, p1, p2)
            if any(not comp.is_zero() for comp in witness):
                failures.append(f"{name} involutivity witness nonzero")
                break
    detail = "; ".join(failures) if failures else (
        "all four operators accepted with exactly-zero defect and vanishing witnesses"
    )
    return SuiteResult(6, "hamiltonian-family", not failures, detail)


# -- suite 7: defect equivalence and the negative certificate -------------


def _functional_triples(ctx, rng, count):
    pool = [corpus.functional(rng, ctx, words=1, max_len=3, max_order=1) for _ in range(6)]
    triples = []
    for _ in range(count):
        triples.append(tuple(rng.choice(pool) for _ in range(3)))
    return triples


def suite_defect_equivalence(seed: int = 0) -> SuiteResult:
    ctx = JetContext()
    rng = random.Random(seed * 7919 + 7)
    failures = []
    candidates = dict(hamiltonian_family(ctx))
    candidates.update(skew_candidates(ctx))
    triples = _functional_triples(ctx, rng, 12)
    negative_certified = False
    for name, op in candidates.items():
        if not op.is_skew():
            failures.append(f"{name} not skew")
            continue
        master_trivial = is_trivial(ctx, master_defect(ctx, op).density)
        sampled = [
            jacobi_defect(ctx, op, *triple).is_trivial() for triple in triples
        ]
        if master_trivial and not all(sampled):
            failures.append(f"{name}: master defect trivial but a triple fails")
        if not master_trivial:
            cert = is_hamiltonian(ctx, op)
            if cert.witness is None:
                failures.append(f"{name}: nontrivial defect but no witness triple")
            else:
                covectors = tuple(covector_of(ctx, h) for h in cert.witness)
                other_route = jacobi_defect_expanded(ctx, op, covectors)
                direct = jacobi_defect(ctx, op, *cert.witness).density
                if is_trivial(ctx, other_route):
                    failures.append(f"{name}: witness not confirmed by expansion route")
                elif not is_trivial(ctx, direct - other_route):
                    failures.append(f"{name}: the two defect routes disagree")
                else:
                    negative_certified = True
    if not negative_certified:
        failures.append("no candidate was certified non-hamiltonian")
    detail = "; ".join(failures) if failures else (
        "master defect and sampled Jacobi defects agree on every candidate; "
        "negative certificate cross-checked on the expansion route"
    )
    return SuiteResult(7, "defect-equivalence", not failures, detail)


# -- suite 8: substitution harness ----------------------------------------


def suite_substitution(seed: int = 0) -> SuiteResult:
    ctx = JetContext()
    runs = []
    d1 = from_derivative(ctx)
    plan = [
        ("zero", None, 50),
        ("adjoint-pairing", d1, 25),
        ("adjoint-pairing", hamiltonian_family(ctx)["xD+Dx"], 25),
        ("adjoint-pairing", skew_candidates(ctx)["aD+D(.a)"], 25),
        ("jacobi-flow", d1, 25),
        ("bivector-alternation", d1 + from_derivative(ctx, 1, 3), 25),
        ("bivector-alternation", skew_candidates(ctx)["(a.)-(.a)"], 25),
    ]
    failures = []
    total = 0
    for which, (identity, op, trials) in enumerate(plan):
        for covector_class in ("x", "jet"):
            result = substitution_harness(
                ctx,
                identity,
                trials,
                seed * 104729 + which * 101 + (0 if covector_class == "x" else 1),
                covector_class,
                op=op,
            )
            total += trials
            if not result.passed:
                bad = [r.index for r in result.reports if not r.passed]
                failures.append(
                    f"{identity}/{covector_class} trials {bad[:4]} failed"
                )
    detail = "; ".join(failures) if failures else (
        f"{total} trials over both covector classes, all residuals trivial"
    )
    return SuiteResult(8, "substitution-trials", not failures, detail)


# -- suite 9: adjoint laws ------------------------------------------------


def suite_adjoint_laws(seed: int = 0) -> SuiteResult:
    ctx = JetContext()
    rng = random.Random(seed * 7919 + 9)
    failures = []

    d1 = from_derivative(ctx)
    if d1.adjoint() != -d1:
        failures.append("derivative is not minus-self-adjoint")
    if parse_operator("op(a)", ctx).adjoint() != parse_operator("op(R(a))", ctx):
        failures.append("left multiplication does not transpose to right")
    xdx = hamiltonian_family(ctx)["xD+Dx"]
    if xdx.adjoint() != -xdx:
        failures.append("symmetrized x-derivative is not skew")

    involution_failures = 0
    pairing_failures = 0
    count = 100
    for i in range(count):
        graded = i >= 70
        op = corpus.operator(rng, ctx, terms=2, max_sigma=3, max_word=2, max_order=1)
        if graded:
            # odd letters on both sides so the graded transport sign is live
            b = ctx.letter(True, 1)
            op = op.compose_left(_open(ctx, (b,))).compose_right(
                _open(ctx, (ctx.shift(b, 1),))
            )
        if op.adjoint().adjoint() != op:
            involution_failures += 1
        p = corpus.covector(rng, ctx, jet_dependent=True, max_order=1)
        q = corpus.covector(rng, ctx, jet_dependent=True, max_order=1)
        pairing = _Accumulator(True)
        _pair(ctx, p, (op.apply(c) for c in q.components), pairing)
        _pair(ctx, q, (op.adjoint().apply(c) for c in p.components), pairing, -1)
        if not is_trivial(ctx, pairing.finish()):
            pairing_failures += 1

    skew_failures = 0
    for _ in range(20):
        mv = corpus.multivector(rng, ctx, 2, words=1, max_len=3, max_order=2)
        if not bivector_operator(ctx, mv).is_skew():
            skew_failures += 1
    if involution_failures:
        failures.append(f"{involution_failures} involution failures")
    if pairing_failures:
        failures.append(f"{pairing_failures} pairing-identity failures")
    if skew_failures:
        failures.append(f"{skew_failures} extracted bivector operators not skew")
    detail = "; ".join(failures) if failures else (
        f"involution and pairing identity on {count} operators (30 graded); "
        "extracted bivector operators all skew"
    )
    return SuiteResult(9, "adjoint-laws", not failures, detail)


SUITES = (
    suite_cyclic_normalize,
    suite_product_example,
    suite_product_laws,
    suite_bracket_antisymmetry,
    suite_bracket_identities,
    suite_hamiltonian_family,
    suite_defect_equivalence,
    suite_substitution,
    suite_adjoint_laws,
)
