"""Command-line interface.

Every command reads expressions in the textual grammar (see lang.py), works
in exact rational arithmetic, and prints either human-oriented text (pretty)
or stable line-oriented records (machine).  Machine output is deterministic:
identical invocations produce identical bytes.

Exit codes: 0 success, 1 malformed expression, 2 violated precondition or
command-line usage error, 3 failed identity check (selftest, subst-check),
4 exceeded configured bound.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click

from .errors import BoundExceeded, CycvarError, IdentityFailure, ParseError, PreconditionError
from .words import FormalSum, times
from .jets import JetContext, total_derivative
from .variational import Functional, coupling, euler_derivative, is_trivial
from .schouten import evaluate as evaluate_multivector
from .schouten import normalize_multivector, q_field, schouten_bracket
from .poisson import (
    IDENTITY_NAMES,
    involutivity_witness,
    is_hamiltonian,
    jacobi_defect,
    poisson_bracket,
    substitution_harness,
)
from .selftest import SUITES
from .lang import (
    coefficient_text,
    covector_text,
    operator_text,
    parse_covector,
    parse_operator,
    parse_section_tuple,
    parse_value,
    parse_cyclic,
    section_text,
    sum_text,
    word_text,
)


@dataclass
class Settings:
    fields: int = 1
    directions: int = 1
    max_order: int | None = None
    seed: int = 0
    output: str = "pretty"

    def context(self) -> JetContext:
        return JetContext(
            fields=self.fields, directions=self.directions, max_order=self.max_order
        )


_CONFIG_KEYS = {"m", "n", "max_order", "seed", "output"}


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PreconditionError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PreconditionError(f"config {path} must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise PreconditionError(
            f"config {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    return raw


def _expand(arg: str) -> list[str]:
    """Expand an @file argument into its expression lines."""
    if not arg.startswith("@"):
        return [arg]
    path = arg[1:]
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError(f"{path} contains no expressions")
    return lines


def _expand_one(arg: str) -> str:
    lines = _expand(arg)
    if len(lines) != 1:
        raise ParseError(
            f"this argument takes exactly one expression, got {len(lines)}"
        )
    return lines[0]


class Emitter:
    """Prints records; machine mode separates batch records with ---."""

    def __init__(self, settings: Settings):
        self.machine = settings.output == "machine"
        self.first = True

    def start(self) -> None:
        if not self.first:
            click.echo("---" if self.machine else "")
        self.first = False
        if self.machine:
            click.echo("status: ok")

    def kv(self, key: str, value) -> None:
        click.echo(f"{key}: {value}")

    def line(self, text: str) -> None:
        click.echo(text)


def _emit_sum(em: Emitter, f: FormalSum, ctx: JetContext, extra=()) -> None:
    em.start()
    if em.machine:
        em.kv("kind", "cyclic-sum" if f.cyclic else "open-sum")
        for key, value in extra:
            em.kv(key, value)
        em.kv("count", len(f.terms))
        for letters, coeff in f.sorted_terms():
            em.kv("term", f"{coefficient_text(coeff, ctx)} | {word_text(letters, ctx)}")
    else:
        for key, value in extra:
            em.kv(key, value)
        em.line(sum_text(f, ctx))


def _orders_text(orders) -> str:
    return ",".join(str(e) for e in orders)


def _emit_operator(em: Emitter, op, ctx: JetContext) -> None:
    em.start()
    if em.machine:
        em.kv("kind", "operator")
        em.kv("count", len(op.terms))
        for (left, orders, right), coeff in op.sorted_terms():
            em.kv(
                "term",
                f"{coefficient_text(coeff, ctx)} | {word_text(left, ctx)}"
                f" | {_orders_text(orders)} | {word_text(right, ctx)}",
            )
    else:
        em.line(operator_text(op, ctx))


def _emit_value(em: Emitter, value, ctx: JetContext) -> None:
    if value.kind == "scalar":
        em.start()
        if em.machine:
            em.kv("kind", "scalar")
            em.kv("value", coefficient_text(value.payload, ctx))
        else:
            em.line(coefficient_text(value.payload, ctx))
    elif value.kind in ("open", "cyclic"):
        _emit_sum(em, value.payload, ctx)
    elif value.kind == "operator":
        _emit_operator(em, value.payload, ctx)
    elif value.kind == "covector":
        em.start()
        if em.machine:
            em.kv("kind", "covector")
            for j, comp in enumerate(value.payload.components, start=1):
                em.kv("component", f"{j} | {sum_text(comp, ctx)}")
        else:
            em.line(covector_text(value.payload, ctx))
    elif value.kind == "section":
        em.start()
        if em.machine:
            em.kv("kind", "section")
            for j, comp in enumerate(value.payload, start=1):
                em.kv("component", f"{j} | {sum_text(comp, ctx)}")
        else:
            em.line(section_text(value.payload, ctx))
    else:
        raise AssertionError(value.kind)


def _settings(click_ctx) -> Settings:
    return click_ctx.obj


@click.group(name="cycvar")
@click.option("--m", "fields", type=int, default=None, help="Letter families per parity (default 1).")
@click.option("--n", "directions", type=int, default=None, help="Base directions (default 1).")
@click.option("--max-order", type=int, default=None, help="Cap on derivative orders; exceeding it exits 4.")
@click.option("--seed", type=int, default=None, help="Seed for randomized commands (default 0).")
@click.option("--output", type=click.Choice(["pretty", "machine"]), default=None, help="Output style (default pretty).")
@click.option("--config", "config_path", type=str, default=None, help="JSON file with defaults for m, n, max_order, seed, output.")
@click.pass_context
def cli(click_ctx, fields, directions, max_order, seed, output, config_path):
    """Exact calculus on cyclic words: normal forms, products, variational
    derivatives, adjoints, graded brackets, and Hamiltonian checks."""
    settings = Settings()
    if config_path is not None:
        raw = _load_config(config_path)
        settings.fields = raw.get("m", settings.fields)
        settings.directions = raw.get("n", settings.directions)
        settings.max_order = raw.get("max_order", settings.max_order)
        settings.seed = raw.get("seed", settings.seed)
        settings.output = raw.get("output", settings.output)
    if fields is not None:
        settings.fields = fields
    if directions is not None:
        settings.directions = directions
    if max_order is not None:
        settings.max_order = max_order
    if seed is not None:
        settings.seed = seed
    if output is not None:
        settings.output = output
    if settings.fields < 1:
        raise PreconditionError("--m must be at least 1")
    if settings.directions < 1:
        raise PreconditionError("--n must be at least 1")
    if settings.output not in ("pretty", "machine"):
        raise PreconditionError("output must be pretty or machine")
    click_ctx.obj = settings


@cli.command()
@click.argument("expr")
@click.pass_context
def normalize(click_ctx, expr):
    """Parse any expression and print its canonical form.

    EXPR may be @FILE with one expression per line (# starts a comment);
    each line yields one record.
    """
    settings = _settings(click_ctx)
    ctx = settings.context()
    em = Emitter(settings)
    for text in _expand(expr):
        _emit_value(em, parse_value(text, ctx), ctx)


@cli.command("times")
@click.argument("left")
@click.argument("right")
@click.pass_context
def times_cmd(click_ctx, left, right):
    """Multiply two cyclic sums with the closed product."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    f = parse_cyclic(_expand_one(left), ctx)
    g = parse_cyclic(_expand_one(right), ctx)
    _emit_sum(Emitter(settings), times(f, g), ctx)


@cli.command()
@click.argument("expr")
@click.option("--direction", type=int, default=1, show_default=True)
@click.option("--order", type=int, default=1, show_default=True, help="How many times to differentiate.")
@click.pass_context
def tderiv(click_ctx, expr, direction, order):
    """Total derivative of a word sum (cyclic or open).  Supports @FILE."""
    if order < 0:
        raise PreconditionError(f"--order must be nonnegative, got {order}")
    settings = _settings(click_ctx)
    ctx = settings.context()
    em = Emitter(settings)
    for text in _expand(expr):
        value = parse_value(text, ctx)
        if value.kind == "scalar":
            value.kind = "open"
            value.payload = FormalSum.single(False, (), value.payload)
        if value.kind not in ("open", "cyclic"):
            raise ParseError(f"tderiv expects a word sum, got {value.describe()}")
        out = value.payload
        for _ in range(order):
            out = total_derivative(ctx, out, direction)
        _emit_sum(em, out, ctx)


def _parse_family(wrt: str, ctx: JetContext) -> tuple[bool, int]:
    import re

    m = re.fullmatch(r"([ab])([0-9]*)", wrt)
    if m is None:
        raise ParseError(f"--wrt expects a letter family like a, b, a2; got {wrt!r}")
    index = int(m.group(2)) if m.group(2) else 1
    if not 1 <= index <= ctx.fields:
        raise ParseError(f"--wrt family index {index} out of range 1..{ctx.fields}")
    return m.group(1) == "b", index


@cli.command()
@click.argument("expr")
@click.option("--wrt", default="a", show_default=True, help="Letter family: a, b, a2, b3, ...")
@click.option("--side", type=click.Choice(["left", "right"]), default="left", show_default=True)
@click.pass_context
def euler(click_ctx, expr, wrt, side):
    """Variational derivative of a cyclic sum along one letter family.

    Supports @FILE batches.
    """
    settings = _settings(click_ctx)
    ctx = settings.context()
    odd_kind, index = _parse_family(wrt, ctx)
    em = Emitter(settings)
    for text in _expand(expr):
        f = parse_cyclic(text, ctx)
        out = euler_derivative(ctx, f, odd_kind, index, side=side)
        _emit_sum(em, out, ctx)


@cli.command("is-trivial")
@click.argument("expr")
@click.pass_context
def is_trivial_cmd(click_ctx, expr):
    """Decide whether a cyclic sum is a total divergence.  Supports @FILE."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    em = Emitter(settings)
    for text in _expand(expr):
        f = parse_cyclic(text, ctx)
        verdict = is_trivial(ctx, f)
        em.start()
        if em.machine:
            em.kv("kind", "decision")
            em.kv("question", "is-trivial")
            em.kv("result", "true" if verdict else "false")
        else:
            em.line(f"trivial: {'yes' if verdict else 'no'}")


@cli.command()
@click.argument("expr")
@click.pass_context
def adjoint(click_ctx, expr):
    """Adjoint of an operator with respect to the closed pairing.

    Supports @FILE batches.
    """
    settings = _settings(click_ctx)
    ctx = settings.context()
    em = Emitter(settings)
    for text in _expand(expr):
        op = parse_operator(text, ctx)
        _emit_operator(em, op.adjoint(), ctx)


@cli.command()
@click.argument("covector")
@click.argument("section")
@click.pass_context
def couple(click_ctx, covector, section):
    """Closed pairing of a covector with a section (componentwise, summed)."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    p = parse_covector(_expand_one(covector), ctx)
    v = parse_section_tuple(_expand_one(section), ctx)
    _emit_sum(Emitter(settings), coupling(ctx, p, v), ctx)


@cli.command()
@click.argument("expr")
@click.pass_context
def qfield(click_ctx, expr):
    """Generating section of the odd flow attached to a cyclic density.

    Supports @FILE batches.
    """
    settings = _settings(click_ctx)
    ctx = settings.context()
    em = Emitter(settings)
    for text in _expand(expr):
        mv = normalize_multivector(ctx, parse_cyclic(text, ctx))
        section = q_field(ctx, mv)
        em.start()
        if em.machine:
            em.kv("kind", "generating-section")
            em.kv("parity", section.parity)
            for j, comp in enumerate(section.even, start=1):
                em.kv("even", f"{j} | {sum_text(comp, ctx)}")
            for j, comp in enumerate(section.odd, start=1):
                em.kv("odd", f"{j} | {sum_text(comp, ctx)}")
        else:
            em.line(f"section (parity {section.parity}):")
            for j, comp in enumerate(section.even, start=1):
                em.line(f"  even {j}: {sum_text(comp, ctx)}")
            for j, comp in enumerate(section.odd, start=1):
                em.line(f"  odd {j}: {sum_text(comp, ctx)}")


@cli.command()
@click.argument("first")
@click.argument("second")
@click.pass_context
def schouten(click_ctx, first, second):
    """Graded bracket of two multivector densities (cyclic sums)."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    xi = normalize_multivector(ctx, parse_cyclic(_expand_one(first), ctx))
    eta = normalize_multivector(ctx, parse_cyclic(_expand_one(second), ctx))
    out = schouten_bracket(ctx, xi, eta)
    _emit_sum(Emitter(settings), out.density, ctx, extra=[("degree", out.degree)])


@cli.command("evaluate")
@click.argument("expr")
@click.argument("covectors", nargs=-1)
@click.pass_context
def evaluate_cmd(click_ctx, expr, covectors):
    """Evaluate a degree-k multivector density on k covectors."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    mv = normalize_multivector(ctx, parse_cyclic(_expand_one(expr), ctx))
    covs = tuple(parse_covector(_expand_one(c), ctx) for c in covectors)
    out = evaluate_multivector(ctx, mv, covs)
    _emit_sum(Emitter(settings), out.density, ctx)


@cli.command()
@click.argument("operator")
@click.argument("first")
@click.argument("second")
@click.pass_context
def poisson(click_ctx, operator, first, second):
    """Bracket of two functionals induced by a skew operator."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    op = parse_operator(_expand_one(operator), ctx)
    f = Functional(ctx, parse_cyclic(_expand_one(first), ctx))
    g = Functional(ctx, parse_cyclic(_expand_one(second), ctx))
    out = poisson_bracket(ctx, op, f, g)
    _emit_sum(Emitter(settings), out.density, ctx)


@cli.command()
@click.argument("operator")
@click.argument("functionals", nargs=3)
@click.pass_context
def jacobi(click_ctx, operator, functionals):
    """Cyclic Jacobi defect of three functionals under a skew operator."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    op = parse_operator(_expand_one(operator), ctx)
    hs = tuple(
        Functional(ctx, parse_cyclic(_expand_one(h), ctx)) for h in functionals
    )
    out = jacobi_defect(ctx, op, *hs)
    _emit_sum(
        Emitter(settings),
        out.density,
        ctx,
        extra=[("trivial", "true" if out.is_trivial() else "false")],
    )


@cli.command("is-hamiltonian")
@click.argument("operator")
@click.option("--witness/--no-witness", "find_witness", default=True, show_default=True, help="Search for a functional triple breaking Jacobi on a negative verdict.")
@click.option("--witness-budget", type=int, default=200, show_default=True)
@click.pass_context
def is_hamiltonian_cmd(click_ctx, operator, find_witness, witness_budget):
    """Decide whether a skew operator is Hamiltonian.  Supports @FILE."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    em = Emitter(settings)
    for text in _expand(operator):
        op = parse_operator(text, ctx)
        cert = is_hamiltonian(
            ctx, op, find_witness=find_witness, witness_budget=witness_budget
        )
        em.start()
        if em.machine:
            em.kv("kind", "certificate")
            em.kv("result", "true" if cert.hamiltonian else "false")
            em.kv("defect-trivial", "true" if cert.hamiltonian else "false")
            em.kv("defect", sum_text(cert.defect_density, ctx))
            if cert.witness is not None:
                for i, h in enumerate(cert.witness, start=1):
                    em.kv("witness", f"{i} | {sum_text(h.density, ctx)}")
                em.kv("witness-defect", sum_text(cert.witness_defect, ctx))
        else:
            em.line(cert.summary())
            em.line(f"  master defect: {sum_text(cert.defect_density, ctx)}")
            if cert.witness is not None:
                for i, h in enumerate(cert.witness, start=1):
                    em.line(f"  witness {i}: {sum_text(h.density, ctx)}")
                em.line(
                    f"  witness defect: {sum_text(cert.witness_defect, ctx)}"
                )


@cli.command()
@click.argument("operator")
@click.argument("first")
@click.argument("second")
@click.pass_context
def witness(click_ctx, operator, first, second):
    """Componentwise closure residual of an operator on two fixed covectors;
    all components vanish when the operator is Hamiltonian."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    op = parse_operator(_expand_one(operator), ctx)
    p1 = parse_covector(_expand_one(first), ctx)
    p2 = parse_covector(_expand_one(second), ctx)
    comps = involutivity_witness(ctx, op, p1, p2)
    em = Emitter(settings)
    em.start()
    all_zero = all(c.is_zero() for c in comps)
    if em.machine:
        em.kv("kind", "witness")
        em.kv("all-zero", "true" if all_zero else "false")
        for j, comp in enumerate(comps, start=1):
            em.kv("component", f"{j} | {sum_text(comp, ctx)}")
    else:
        em.line(f"all components zero: {'yes' if all_zero else 'no'}")
        for j, comp in enumerate(comps, start=1):
            em.line(f"  component {j}: {sum_text(comp, ctx)}")


@cli.command("subst-check")
@click.argument("identity", type=click.Choice(IDENTITY_NAMES))
@click.option("--trials", type=int, default=25, show_default=True)
@click.option("--covectors", "covector_class", type=click.Choice(["jet", "x"]), default="jet", show_default=True, help="Draw jet-dependent or coordinate-only arguments.")
@click.option("--op", "operator", default=None, help="Operator to probe (default op(D)).")
@click.pass_context
def subst_check(click_ctx, identity, trials, covector_class, operator):
    """Run one structural identity on freshly drawn random arguments."""
    settings = _settings(click_ctx)
    ctx = settings.context()
    op = None
    if operator is not None:
        op = parse_operator(_expand_one(operator), ctx)
    result = substitution_harness(
        ctx, identity, trials, settings.seed, covector_class, op
    )
    em = Emitter(settings)
    em.start()
    failures = [r for r in result.reports if not r.passed]
    if em.machine:
        em.kv("kind", "report")
        em.kv("identity", result.identity)
        em.kv("covector-class", result.covector_class)
        em.kv("seed", settings.seed)
        em.kv("trials", len(result.reports))
        for r in result.reports:
            note = f" | {r.note}" if r.note else ""
            em.kv("trial", f"{r.index} | {'pass' if r.passed else 'fail'}{note}")
        em.kv("result", "pass" if result.passed else "fail")
    else:
        em.line(
            f"identity {result.identity} ({result.covector_class} arguments,"
            f" seed {settings.seed}): {len(result.reports)} trials"
        )
        for r in failures:
            em.line(f"  trial {r.index}: fail{' — ' + r.note if r.note else ''}")
        em.line("result: pass" if result.passed else "result: fail")
    if not result.passed:
        raise IdentityFailure(
            f"{len(failures)} of {len(result.reports)} trials failed"
        )


@cli.command()
@click.option("--suites", "only", default=None, help="Comma-separated suite numbers to run (default: all).")
@click.pass_context
def selftest(click_ctx, only):
    """Run the built-in identity suites and report one line per suite."""
    settings = _settings(click_ctx)
    chosen = list(range(1, len(SUITES) + 1))
    if only is not None:
        try:
            chosen = sorted({int(part) for part in only.split(",") if part.strip()})
        except ValueError as exc:
            raise ParseError(f"--suites expects numbers like 1,3,9: {only!r}") from exc
        if not chosen:
            raise ParseError(f"--suites names no suite: {only!r}")
        bad = [n for n in chosen if not 1 <= n <= len(SUITES)]
        if bad:
            raise ParseError(f"no such suite: {bad[0]} (valid: 1..{len(SUITES)})")
    em = Emitter(settings)
    em.start()
    if em.machine:
        em.kv("kind", "selftest")
        em.kv("seed", settings.seed)
    results = []
    for number in chosen:
        started = time.monotonic()
        result = SUITES[number - 1](settings.seed)
        elapsed = time.monotonic() - started
        results.append(result)
        status = "pass" if result.passed else "fail"
        if em.machine:
            em.kv("suite", f"{result.number} | {result.name} | {status} | {result.detail}")
        else:
            em.line(
                f"[{result.number}] {result.name}: {status}"
                f" ({elapsed:.2f}s) — {result.detail}"
            )
    failed = [r for r in results if not r.passed]
    if em.machine:
        em.kv("result", "pass" if not failed else "fail")
    else:
        em.line(
            f"{len(results) - len(failed)}/{len(results)} suites passed"
        )
    if failed:
        raise IdentityFailure(
            f"{len(failed)} suite(s) failed: "
            + ", ".join(str(r.number) for r in failed)
        )


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="cycvar", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.UsageError as exc:
        exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except PreconditionError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except IdentityFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except BoundExceeded as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    except CycvarError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
