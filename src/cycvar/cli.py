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

import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import click

from .errors import CycvarError, IdentityFailure, ParseError, PreconditionError
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
    as_sum,
    coefficient_text,
    covector_text,
    digits_value,
    kind_of,
    number_text,
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


# -- result kinds: pretty lines, then machine `key: value` lines -----------


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _true(flag: bool) -> str:
    return "true" if flag else "false"


def _pass(flag: bool) -> str:
    return "pass" if flag else "fail"


def _indented(key: str, sums, ctx: JetContext):
    for j, f in enumerate(sums, start=1):
        yield f"  {key} {j}: {sum_text(f, ctx)}"


def _numbered(key: str, sums, ctx: JetContext):
    for j, f in enumerate(sums, start=1):
        yield f"{key}: {j} | {sum_text(f, ctx)}"


def _sum_pretty(f: FormalSum, ctx: JetContext, extra=()):
    for key, value in extra:
        yield f"{key}: {value}"
    yield sum_text(f, ctx)


def _sum_machine(f: FormalSum, ctx: JetContext, extra=()):
    yield "kind: cyclic-sum" if f.cyclic else "kind: open-sum"
    for key, value in extra:
        yield f"{key}: {value}"
    yield f"count: {len(f.terms)}"
    names = {}
    for letters, coeff in f.sorted_terms():
        yield f"term: {coefficient_text(coeff, ctx)} | {word_text(letters, ctx, names)}"


def _operator_machine(op, ctx: JetContext):
    yield "kind: operator"
    yield f"count: {len(op.words.terms)}"
    names = {}
    for (left, orders, right), coeff in op.sorted_terms():
        yield (
            f"term: {coefficient_text(coeff, ctx)} | {word_text(left, ctx, names)}"
            f" | {','.join(map(number_text, orders))} | {word_text(right, ctx, names)}"
        )


def _generating_pretty(section, ctx: JetContext):
    yield f"section (parity {section.parity}):"
    yield from _indented("even", section.even, ctx)
    yield from _indented("odd", section.odd, ctx)


def _generating_machine(section, ctx: JetContext):
    yield "kind: generating-section"
    yield f"parity: {section.parity}"
    yield from _numbered("even", section.even, ctx)
    yield from _numbered("odd", section.odd, ctx)


def _certificate_pretty(cert, ctx: JetContext):
    yield cert.summary()
    yield f"  master defect: {sum_text(cert.defect_density, ctx)}"
    if cert.witness is not None:
        yield from _indented("witness", [h.density for h in cert.witness], ctx)
        yield f"  witness defect: {sum_text(cert.witness_defect, ctx)}"


def _certificate_machine(cert, ctx: JetContext):
    yield "kind: certificate"
    yield f"result: {_true(cert.hamiltonian)}"
    yield f"defect-trivial: {_true(cert.hamiltonian)}"
    yield f"defect: {sum_text(cert.defect_density, ctx)}"
    if cert.witness is not None:
        yield from _numbered("witness", [h.density for h in cert.witness], ctx)
        yield f"witness-defect: {sum_text(cert.witness_defect, ctx)}"


def _witness_pretty(comps, ctx: JetContext):
    yield f"all components zero: {_yes(all(c.is_zero() for c in comps))}"
    yield from _indented("component", comps, ctx)


def _witness_machine(comps, ctx: JetContext):
    yield "kind: witness"
    yield f"all-zero: {_true(all(c.is_zero() for c in comps))}"
    yield from _numbered("component", comps, ctx)


def _report_pretty(result, seed: int):
    yield (
        f"identity {result.identity} ({result.covector_class} arguments,"
        f" seed {seed}): {len(result.reports)} trials"
    )
    for r in result.reports:
        if not r.passed:
            yield f"  trial {r.index}: fail"
    yield f"result: {_pass(result.passed)}"


def _report_machine(result, seed: int):
    yield "kind: report"
    yield f"identity: {result.identity}"
    yield f"covector-class: {result.covector_class}"
    yield f"seed: {seed}"
    yield f"trials: {len(result.reports)}"
    for r in result.reports:
        yield f"trial: {r.index} | {_pass(r.passed)}"
    yield f"result: {_pass(result.passed)}"


def _selftest_pretty(seed: int, runs):
    count = passed = 0
    for result, elapsed in runs:
        count += 1
        passed += result.passed
        yield (
            f"[{result.number}] {result.name}: {_pass(result.passed)}"
            f" ({elapsed:.2f}s) — {result.detail}"
        )
    yield f"{passed}/{count} suites passed"


def _selftest_machine(seed: int, runs):
    yield "kind: selftest"
    yield f"seed: {seed}"
    passed = True
    for result, _ in runs:
        passed = passed and result.passed
        yield f"suite: {result.number} | {result.name} | {_pass(result.passed)} | {result.detail}"
    yield f"result: {_pass(passed)}"


# kind -> (pretty lines, machine lines), each a function of the payload
_KINDS = {
    "sum": (_sum_pretty, _sum_machine),
    "operator": (lambda op, ctx: [operator_text(op, ctx)], _operator_machine),
    "scalar": (
        lambda c, ctx: [coefficient_text(c, ctx)],
        lambda c, ctx: ["kind: scalar", f"value: {coefficient_text(c, ctx)}"],
    ),
    "covector": (
        lambda p, ctx: [covector_text(p, ctx)],
        lambda p, ctx: ["kind: covector", *_numbered("component", p.components, ctx)],
    ),
    "section": (
        lambda comps, ctx: [section_text(comps, ctx)],
        lambda comps, ctx: ["kind: section", *_numbered("component", comps, ctx)],
    ),
    "decision": (
        lambda verdict: [f"trivial: {_yes(verdict)}"],
        lambda verdict: ["kind: decision", "question: is-trivial", f"result: {_true(verdict)}"],
    ),
    "generating-section": (_generating_pretty, _generating_machine),
    "certificate": (_certificate_pretty, _certificate_machine),
    "witness": (_witness_pretty, _witness_machine),
    "report": (_report_pretty, _report_machine),
    "selftest": (_selftest_pretty, _selftest_machine),
}


# -- settings and the renderer ---------------------------------------------


# JSON types each config key accepts; null leaves max_order uncapped
_CONFIG_TYPES = {"m": int, "n": int, "max_order": (int, type(None)), "seed": int, "output": str}


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PreconditionError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer
        raise PreconditionError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PreconditionError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise PreconditionError(
            f"config {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
            wanted = "a string" if key == "output" else "an integer"
            raise PreconditionError(
                f"config {path}: {key} must be {wanted}, got {json.dumps(value)}"
            )
    return raw


@dataclass
class Session:
    """The settings of one invocation, handed to every command.  Commands
    print only through `emit`, the one place that picks pretty or machine
    lines for a result."""

    m: int = 1
    n: int = 1
    max_order: int | None = None
    seed: int = 0
    output: str = "pretty"
    records: int = field(default=0, init=False)

    def __post_init__(self):
        if self.m < 1:
            raise PreconditionError("--m must be at least 1")
        if self.n < 1:
            raise PreconditionError("--n must be at least 1")
        if self.output not in ("pretty", "machine"):
            raise PreconditionError("output must be pretty or machine")
        self.machine = self.output == "machine"

    @cached_property
    def ctx(self) -> JetContext:
        return JetContext(fields=self.m, directions=self.n, max_order=self.max_order)

    def emit(self, kind: str, *payload) -> None:
        """Print one record.  Machine records open with `status: ok`; batch
        records are separated by `---` (machine) or a blank line (pretty).
        A record is written whole, so one that cannot be printed writes
        nothing; `selftest` writes each suite's line as the suite finishes."""
        head = []
        if self.records:
            head.append("---" if self.machine else "")
        self.records += 1
        if self.machine:
            head.append("status: ok")
        lines = itertools.chain(head, _KINDS[kind][self.machine](*payload))
        if kind == "selftest":
            for line in lines:
                click.echo(line)
        else:
            click.echo("\n".join(lines))


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


# -- commands --------------------------------------------------------------


class _Integer(click.types.IntParamType):
    """click's INTEGER, naming a digit string too long for int() by its length."""

    def convert(self, value, param, ctx):
        try:
            return super().convert(value, param, ctx)
        except click.BadParameter:
            digits = str(value).strip().lstrip("+-")
            if not digits.isdecimal():
                raise
            self.fail(f"number with {len(digits)} digits is too long", param, ctx)


@click.group(name="cycvar")
@click.option("--m", type=_Integer(), default=None, help="Letter families per parity (default 1).")
@click.option("--n", type=_Integer(), default=None, help="Base directions (default 1).")
@click.option("--max-order", type=_Integer(), default=None, help="Cap on derivative orders; exceeding it exits 4.")
@click.option("--seed", type=_Integer(), default=None, help="Seed for randomized commands (default 0).")
@click.option("--output", type=click.Choice(["pretty", "machine"]), default=None, help="Output style (default pretty).")
@click.option("--config", "config_path", type=str, default=None, help="JSON file with defaults for m, n, max_order, seed, output.")
@click.pass_context
def cli(click_ctx, config_path, **flags):
    """Exact calculus on cyclic words: normal forms, products, variational
    derivatives, adjoints, graded brackets, and Hamiltonian checks."""
    settings = {} if config_path is None else _load_config(config_path)
    settings.update((key, value) for key, value in flags.items() if value is not None)
    click_ctx.obj = Session(**settings)


@cli.command()
@click.argument("expr")
@click.pass_obj
def normalize(session, expr):
    """Parse any expression and print its canonical form.

    EXPR may be @FILE with one expression per line (# starts a comment);
    each line yields one record.
    """
    ctx = session.ctx
    for text in _expand(expr):
        value = parse_value(text, ctx)
        kind = kind_of(value)
        session.emit("sum" if kind in ("open", "cyclic") else kind, value, ctx)


@cli.command("times")
@click.argument("left")
@click.argument("right")
@click.pass_obj
def times_cmd(session, left, right):
    """Multiply two cyclic sums with the closed product."""
    ctx = session.ctx
    f = parse_cyclic(_expand_one(left), ctx)
    g = parse_cyclic(_expand_one(right), ctx)
    session.emit("sum", times(f, g), ctx)


@cli.command()
@click.argument("expr")
@click.option("--direction", type=_Integer(), default=1, show_default=True)
@click.option("--order", type=_Integer(), default=1, show_default=True, help="How many times to differentiate.")
@click.pass_obj
def tderiv(session, expr, direction, order):
    """Total derivative of a word sum (cyclic or open).  Supports @FILE."""
    if order < 0:
        raise PreconditionError(f"--order must be nonnegative, got {order}")
    ctx = session.ctx
    for text in _expand(expr):
        out = as_sum(parse_value(text, ctx))
        if not isinstance(out, FormalSum):
            raise ParseError(f"tderiv expects a word sum, got {kind_of(out)}")
        for _ in range(order):
            out = total_derivative(ctx, out, direction)
            if out.is_zero():  # so is every further derivative
                break
        session.emit("sum", out, ctx)


def _parse_family(wrt: str, ctx: JetContext) -> tuple[bool, int]:
    import re

    m = re.fullmatch(r"([ab])([0-9]*)", wrt)
    if m is None:
        raise ParseError(f"--wrt expects a letter family like a, b, a2; got {wrt!r}")
    index = digits_value(m.group(2)) if m.group(2) else 1
    if not 1 <= index <= ctx.fields:
        raise ParseError(f"--wrt family index {index} out of range 1..{ctx.fields}")
    return m.group(1) == "b", index


@cli.command()
@click.argument("expr")
@click.option("--wrt", default="a", show_default=True, help="Letter family: a, b, a2, b3, ...")
@click.option("--side", type=click.Choice(["left", "right"]), default="left", show_default=True)
@click.pass_obj
def euler(session, expr, wrt, side):
    """Variational derivative of a cyclic sum along one letter family.

    Supports @FILE batches.
    """
    ctx = session.ctx
    odd_kind, index = _parse_family(wrt, ctx)
    for text in _expand(expr):
        f = parse_cyclic(text, ctx)
        session.emit("sum", euler_derivative(ctx, f, odd_kind, index, side=side), ctx)


@cli.command("is-trivial")
@click.argument("expr")
@click.pass_obj
def is_trivial_cmd(session, expr):
    """Decide whether a cyclic sum is a total divergence.  Supports @FILE."""
    ctx = session.ctx
    for text in _expand(expr):
        session.emit("decision", is_trivial(ctx, parse_cyclic(text, ctx)))


@cli.command()
@click.argument("expr")
@click.pass_obj
def adjoint(session, expr):
    """Adjoint of an operator with respect to the closed pairing.

    Supports @FILE batches.
    """
    ctx = session.ctx
    for text in _expand(expr):
        session.emit("operator", parse_operator(text, ctx).adjoint(), ctx)


@cli.command()
@click.argument("covector")
@click.argument("section")
@click.pass_obj
def couple(session, covector, section):
    """Closed pairing of a covector with a section (componentwise, summed)."""
    ctx = session.ctx
    p = parse_covector(_expand_one(covector), ctx)
    v = parse_section_tuple(_expand_one(section), ctx)
    session.emit("sum", coupling(ctx, p, v), ctx)


@cli.command()
@click.argument("expr")
@click.pass_obj
def qfield(session, expr):
    """Generating section of the odd flow attached to a cyclic density.

    Supports @FILE batches.
    """
    ctx = session.ctx
    for text in _expand(expr):
        mv = normalize_multivector(ctx, parse_cyclic(text, ctx))
        session.emit("generating-section", q_field(ctx, mv), ctx)


@cli.command()
@click.argument("first")
@click.argument("second")
@click.pass_obj
def schouten(session, first, second):
    """Graded bracket of two multivector densities (cyclic sums)."""
    ctx = session.ctx
    xi = normalize_multivector(ctx, parse_cyclic(_expand_one(first), ctx))
    eta = normalize_multivector(ctx, parse_cyclic(_expand_one(second), ctx))
    bracket = schouten_bracket(ctx, xi, eta)
    out = normalize_multivector(ctx, bracket.density, bracket.degree)
    session.emit("sum", out.density, ctx, [("degree", out.degree)])


@cli.command("evaluate")
@click.argument("expr")
@click.argument("covectors", nargs=-1)
@click.pass_obj
def evaluate_cmd(session, expr, covectors):
    """Evaluate a degree-k multivector density on k covectors."""
    ctx = session.ctx
    mv = normalize_multivector(ctx, parse_cyclic(_expand_one(expr), ctx))
    covs = tuple(parse_covector(_expand_one(c), ctx) for c in covectors)
    session.emit("sum", evaluate_multivector(ctx, mv, covs).density, ctx)


@cli.command()
@click.argument("operator")
@click.argument("first")
@click.argument("second")
@click.pass_obj
def poisson(session, operator, first, second):
    """Bracket of two functionals induced by a skew operator."""
    ctx = session.ctx
    op = parse_operator(_expand_one(operator), ctx)
    f = Functional(ctx, parse_cyclic(_expand_one(first), ctx))
    g = Functional(ctx, parse_cyclic(_expand_one(second), ctx))
    session.emit("sum", poisson_bracket(ctx, op, f, g).density, ctx)


@cli.command()
@click.argument("operator")
@click.argument("functionals", nargs=3)
@click.pass_obj
def jacobi(session, operator, functionals):
    """Cyclic Jacobi defect of three functionals under a skew operator."""
    ctx = session.ctx
    op = parse_operator(_expand_one(operator), ctx)
    hs = tuple(
        Functional(ctx, parse_cyclic(_expand_one(h), ctx)) for h in functionals
    )
    out = jacobi_defect(ctx, op, *hs)
    session.emit("sum", out.density, ctx, [("trivial", _true(out.is_trivial()))])


@cli.command("is-hamiltonian")
@click.argument("operator")
@click.option("--witness/--no-witness", "find_witness", default=True, show_default=True, help="Search for a functional triple breaking Jacobi on a negative verdict.")
@click.option("--witness-budget", type=_Integer(), default=200, show_default=True)
@click.pass_obj
def is_hamiltonian_cmd(session, operator, find_witness, witness_budget):
    """Decide whether a skew operator is Hamiltonian.  Supports @FILE."""
    ctx = session.ctx
    for text in _expand(operator):
        cert = is_hamiltonian(
            ctx, parse_operator(text, ctx),
            find_witness=find_witness, witness_budget=witness_budget,
        )
        session.emit("certificate", cert, ctx)


@cli.command()
@click.argument("operator")
@click.argument("first")
@click.argument("second")
@click.pass_obj
def witness(session, operator, first, second):
    """Componentwise closure residual of an operator on two fixed covectors;
    all components vanish when the operator is Hamiltonian."""
    ctx = session.ctx
    op = parse_operator(_expand_one(operator), ctx)
    p1 = parse_covector(_expand_one(first), ctx)
    p2 = parse_covector(_expand_one(second), ctx)
    session.emit("witness", involutivity_witness(ctx, op, p1, p2), ctx)


@cli.command("subst-check")
@click.argument("identity", type=click.Choice(IDENTITY_NAMES))
@click.option("--trials", type=_Integer(), default=25, show_default=True)
@click.option("--covectors", "covector_class", type=click.Choice(["jet", "x"]), default="jet", show_default=True, help="Draw jet-dependent or coordinate-only arguments.")
@click.option("--op", "operator", default=None, help="Operator to probe (default op(D)).")
@click.pass_obj
def subst_check(session, identity, trials, covector_class, operator):
    """Run one structural identity on freshly drawn random arguments."""
    ctx = session.ctx
    op = None if operator is None else parse_operator(_expand_one(operator), ctx)
    result = substitution_harness(
        ctx, identity, trials, session.seed, covector_class, op
    )
    session.emit("report", result, session.seed)
    if not result.passed:
        failed = sum(not r.passed for r in result.reports)
        raise IdentityFailure(f"{failed} of {len(result.reports)} trials failed")


@cli.command()
@click.option("--suites", "only", default=None, help="Comma-separated suite numbers to run (default: all).")
@click.pass_obj
def selftest(session, only):
    """Run the built-in identity suites and report one line per suite."""
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
    results = []

    def run():
        # suites run while their record prints, one line per finished suite
        for number in chosen:
            started = time.monotonic()
            results.append(SUITES[number - 1](session.seed))
            yield results[-1], time.monotonic() - started

    session.emit("selftest", session.seed, run())
    failed = [r for r in results if not r.passed]
    if failed:
        raise IdentityFailure(
            f"{len(failed)} suite(s) failed: "
            + ", ".join(str(r.number) for r in failed)
        )


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        cli.main(args=argv, prog_name="cycvar", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.UsageError as exc:
        # with no arguments at all, newer click versions raise the help page
        # as a usage error; it is shown whole
        if argv:
            click.echo(f"error: {exc.format_message()}", err=True)
        else:
            exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except CycvarError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    sys.exit(0)


if __name__ == "__main__":
    main()
