"""Command-line interface.

Every command reads expressions in the textual grammar (see lang.py), works
in exact rational arithmetic, and prints each result as one record: its
fields in order, each with a key for human-oriented text (pretty) and one
for stable line-oriented output (machine), or None where that style leaves
it out.  One renderer writes a record in either style.  Machine output is
deterministic: identical invocations produce identical bytes.

The command line is read by a small dispatcher on the standard library.
One table, `COMMANDS`, gives each command its function, its positional
arguments and its options; the parser and the help pages both read it.
Options go before or after the arguments, as `--opt value` or
`--opt=value`; `--` ends them, and `--help` wins over any later error.
Usage errors and help pages have a fixed wording and an 80-column layout,
so what a script or a golden transcript reads does not depend on the
terminal width or the Python version.

Exit codes: 0 success, 1 malformed expression, 2 violated precondition or
command-line usage error, 3 failed identity check (selftest, subst-check),
4 exceeded configured bound, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import CycvarError, IdentityFailure, ParseError, PreconditionError
from .words import FormalSum, times
from .jets import JetContext, d_power
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


# -- records: each result kind's fields, rendered in either style ----------


def _render(record, machine: bool):
    """The lines of a record, fields (pretty key, machine key, value[, j]),
    in one style.  A function value is called only by a style that prints
    it.  A flag reads yes/no or true/false, item j of a list reads
    `  key j: text` or `key: j | text`, a list gives a `key: item` line per
    item, and the rest read `key: value` (bare under an empty pretty key)."""
    for pretty, machine_key, value, *number in record:
        key = machine_key if machine else pretty
        if key is None:
            continue
        value = value() if callable(value) else value
        if isinstance(value, bool):
            value = ("true" if value else "false") if machine else ("yes" if value else "no")
        if number:
            yield f"{key}: {number[0]} | {value}" if machine else f"  {key} {number[0]}: {value}"
        elif isinstance(value, list):
            yield from (f"{key}: {item}" for item in value)
        else:
            yield f"{key}: {value}" if key else value


def _pass(flag: bool) -> str:
    return "pass" if flag else "fail"


def _numbered(pretty: str | None, machine: str, sums, ctx: JetContext):
    return [(pretty, machine, partial(sum_text, f, ctx), j) for j, f in enumerate(sums, start=1)]


def _sum_terms(f: FormalSum, ctx: JetContext) -> list[str]:
    names = {}
    return [
        f"{coefficient_text(coeff, ctx)} | {word_text(letters, ctx, names)}"
        for letters, coeff in f.sorted_terms()
    ]


def _operator_terms(op, ctx: JetContext) -> list[str]:
    names = {}
    return [
        f"{coefficient_text(coeff, ctx)} | {word_text(left, ctx, names)}"
        f" | {','.join(map(number_text, orders))} | {word_text(right, ctx, names)}"
        for (left, orders, right), coeff in op.sorted_terms()
    ]


def _certificate_record(cert, ctx: JetContext):
    yield None, "kind", "certificate"
    yield "", None, cert.summary
    yield None, "result", cert.hamiltonian
    yield None, "defect-trivial", cert.hamiltonian
    yield "  master defect", "defect", partial(sum_text, cert.defect_density, ctx)
    if cert.witness is not None:
        yield from _numbered("witness", "witness", [h.density for h in cert.witness], ctx)
        yield "  witness defect", "witness-defect", partial(sum_text, cert.witness_defect, ctx)


def _report_record(result, seed: int):
    yield None, "kind", "report"
    head = f"identity {result.identity} ({result.covector_class} arguments, seed {seed})"
    yield head, None, f"{len(result.reports)} trials"
    yield None, "identity", result.identity
    yield None, "covector-class", result.covector_class
    yield None, "seed", seed
    yield None, "trials", len(result.reports)
    for r in result.reports:
        # pretty names only the trials that failed
        yield None if r.passed else "trial", "trial", _pass(r.passed), r.index
    yield "result", "result", _pass(result.passed)


def _selftest_record(seed: int, runs):
    yield None, "kind", "selftest"
    yield None, "seed", seed
    passed = []
    for r, elapsed in runs:
        passed.append(r.passed)
        yield "", None, f"[{r.number}] {r.name}: {_pass(r.passed)} ({elapsed:.2f}s) — {r.detail}"
        yield None, "suite", f"{r.number} | {r.name} | {_pass(r.passed)} | {r.detail}"
    yield "", None, f"{sum(passed)}/{len(passed)} suites passed"
    yield None, "result", _pass(all(passed))


# kind -> its record, a function of the payload that `Session.emit` is given
_RECORDS = {
    "sum": lambda f, ctx, extra=(): [
        (None, "kind", "cyclic-sum" if f.cyclic else "open-sum"),
        *extra,
        (None, "count", len(f.terms)),
        ("", None, partial(sum_text, f, ctx)),
        (None, "term", partial(_sum_terms, f, ctx)),
    ],
    "operator": lambda op, ctx: [
        (None, "kind", "operator"),
        (None, "count", len(op.words.terms)),
        ("", None, partial(operator_text, op, ctx)),
        (None, "term", partial(_operator_terms, op, ctx)),
    ],
    "scalar": lambda c, ctx: [
        (None, "kind", "scalar"),
        ("", "value", partial(coefficient_text, c, ctx)),
    ],
    "covector": lambda p, ctx: [
        (None, "kind", "covector"),
        ("", None, partial(covector_text, p, ctx)),
        *_numbered(None, "component", p.components, ctx),
    ],
    "section": lambda comps, ctx: [
        (None, "kind", "section"),
        ("", None, partial(section_text, comps, ctx)),
        *_numbered(None, "component", comps, ctx),
    ],
    "decision": lambda verdict: [
        (None, "kind", "decision"),
        (None, "question", "is-trivial"),
        ("trivial", "result", verdict),
    ],
    "generating-section": lambda section, ctx: [
        (None, "kind", "generating-section"),
        ("", None, f"section (parity {section.parity}):"),
        (None, "parity", section.parity),
        *_numbered("even", "even", section.even, ctx),
        *_numbered("odd", "odd", section.odd, ctx),
    ],
    "certificate": _certificate_record,
    "witness": lambda comps, ctx: [
        (None, "kind", "witness"),
        ("all components zero", "all-zero", all(c.is_zero() for c in comps)),
        *_numbered("component", "component", comps, ctx),
    ],
    "report": _report_record,
    "selftest": _selftest_record,
}


# -- settings and the session ---------------------------------------------


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
    print only through `emit`, which renders a result's record in the
    session's style."""

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
        if self.max_order is not None and self.max_order < 0:
            raise PreconditionError("max_order must be nonnegative")
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
        lines = itertools.chain(head, _render(_RECORDS[kind](*payload), self.machine))
        if kind == "selftest":
            for line in lines:
                print(line, flush=True)
        else:
            print("\n".join(lines))


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
#
# Each command is a plain function of the session and its parameters, and
# `command` enters it in COMMANDS with its arguments and options.


class Argument(NamedTuple):
    """A positional argument of `nargs` values (-1: all that remain); a
    one-value argument may be limited to `choices`."""

    name: str
    nargs: int = 1
    choices: tuple[str, ...] = ()

    @property
    def metavar(self) -> str:
        var = "{" + "|".join(self.choices) + "}" if self.choices else self.name.upper()
        if self.nargs < 0:
            var = f"[{var}]"
        return var if self.nargs == 1 else var + "..."


class Option(NamedTuple):
    """`--name VALUE`, its value an int, a str or one of a tuple of choices;
    `kind` bool makes the flag pair `--name/--no-name`."""

    name: str
    kind: object = str
    default: object = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class Command(NamedTuple):
    run: Callable
    arguments: tuple[Argument, ...]
    options: tuple[Option, ...]


COMMANDS: dict[str, Command] = {}


def command(name: str, *params):
    """Enter the decorated function in COMMANDS; a str parameter names a
    one-value argument."""
    arguments = tuple(Argument(p) if isinstance(p, str) else p for p in params if not isinstance(p, Option))
    options = tuple(p for p in params if isinstance(p, Option))

    def enter(run):
        COMMANDS[name] = Command(run, arguments, options)
        return run

    return enter


@command("normalize", "expr")
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


@command("times", "left", "right")
def times_cmd(session, left, right):
    """Multiply two cyclic sums with the closed product."""
    ctx = session.ctx
    f = parse_cyclic(_expand_one(left), ctx)
    g = parse_cyclic(_expand_one(right), ctx)
    session.emit("sum", times(f, g), ctx)


@command(
    "tderiv", "expr",
    Option("--direction", int, 1),
    Option("--order", int, 1, "How many times to differentiate."),
)
def tderiv(session, expr, direction, order):
    """Total derivative of a word sum (cyclic or open).  Supports @FILE."""
    if order < 0:
        raise PreconditionError(f"--order must be nonnegative, got {order}")
    ctx = session.ctx
    ctx.check_direction(direction)
    orders = [0] * ctx.directions
    orders[direction - 1] = order
    for text in _expand(expr):
        out = as_sum(parse_value(text, ctx))
        if not isinstance(out, FormalSum):
            raise ParseError(f"tderiv expects a word sum, got {kind_of(out)}")
        session.emit("sum", d_power(ctx, out, orders), ctx)


def _parse_family(wrt: str, ctx: JetContext) -> tuple[bool, int]:
    m = re.fullmatch(r"([ab])([0-9]*)", wrt)
    if m is None:
        raise ParseError(f"--wrt expects a letter family like a, b, a2; got {wrt!r}")
    index = digits_value(m.group(2)) if m.group(2) else 1
    if not 1 <= index <= ctx.fields:
        raise ParseError(f"--wrt family index {index} out of range 1..{ctx.fields}")
    return m.group(1) == "b", index


@command(
    "euler", "expr",
    Option("--wrt", str, "a", "Letter family: a, b, a2, b3, ..."),
    Option("--side", ("left", "right"), "left"),
)
def euler(session, expr, wrt, side):
    """Variational derivative of a cyclic sum along one letter family.

    Supports @FILE batches.
    """
    ctx = session.ctx
    odd_kind, index = _parse_family(wrt, ctx)
    for text in _expand(expr):
        f = parse_cyclic(text, ctx)
        session.emit("sum", euler_derivative(ctx, f, odd_kind, index, side=side), ctx)


@command("is-trivial", "expr")
def is_trivial_cmd(session, expr):
    """Decide whether a cyclic sum is a total divergence.  Supports @FILE."""
    ctx = session.ctx
    for text in _expand(expr):
        session.emit("decision", is_trivial(ctx, parse_cyclic(text, ctx)))


@command("adjoint", "expr")
def adjoint(session, expr):
    """Adjoint of an operator with respect to the closed pairing.

    Supports @FILE batches.
    """
    ctx = session.ctx
    for text in _expand(expr):
        session.emit("operator", parse_operator(text, ctx).adjoint(), ctx)


@command("couple", "covector", "section")
def couple(session, covector, section):
    """Closed pairing of a covector with a section (componentwise, summed)."""
    ctx = session.ctx
    p = parse_covector(_expand_one(covector), ctx)
    v = parse_section_tuple(_expand_one(section), ctx)
    session.emit("sum", coupling(ctx, p, v), ctx)


@command("qfield", "expr")
def qfield(session, expr):
    """Generating section of the odd flow attached to a cyclic density.

    Supports @FILE batches.
    """
    ctx = session.ctx
    for text in _expand(expr):
        mv = normalize_multivector(ctx, parse_cyclic(text, ctx))
        session.emit("generating-section", q_field(ctx, mv), ctx)


@command("schouten", "first", "second")
def schouten(session, first, second):
    """Graded bracket of two multivector densities (cyclic sums)."""
    ctx = session.ctx
    xi = normalize_multivector(ctx, parse_cyclic(_expand_one(first), ctx))
    eta = normalize_multivector(ctx, parse_cyclic(_expand_one(second), ctx))
    bracket = schouten_bracket(ctx, xi, eta)
    out = normalize_multivector(ctx, bracket.density, bracket.degree)
    session.emit("sum", out.density, ctx, [("degree", "degree", out.degree)])


@command("evaluate", "expr", Argument("covectors", nargs=-1))
def evaluate_cmd(session, expr, covectors):
    """Evaluate a degree-k multivector density on k covectors."""
    ctx = session.ctx
    mv = normalize_multivector(ctx, parse_cyclic(_expand_one(expr), ctx))
    covs = tuple(parse_covector(_expand_one(c), ctx) for c in covectors)
    session.emit("sum", evaluate_multivector(ctx, mv, covs).density, ctx)


@command("poisson", "operator", "first", "second")
def poisson(session, operator, first, second):
    """Bracket of two functionals induced by a skew operator."""
    ctx = session.ctx
    op = parse_operator(_expand_one(operator), ctx)
    f = Functional(ctx, parse_cyclic(_expand_one(first), ctx))
    g = Functional(ctx, parse_cyclic(_expand_one(second), ctx))
    session.emit("sum", poisson_bracket(ctx, op, f, g).density, ctx)


@command("jacobi", "operator", Argument("functionals", nargs=3))
def jacobi(session, operator, functionals):
    """Cyclic Jacobi defect of three functionals under a skew operator."""
    ctx = session.ctx
    op = parse_operator(_expand_one(operator), ctx)
    hs = tuple(
        Functional(ctx, parse_cyclic(_expand_one(h), ctx)) for h in functionals
    )
    out = jacobi_defect(ctx, op, *hs)
    session.emit("sum", out.density, ctx, [("trivial", "trivial", out.is_trivial())])


@command(
    "is-hamiltonian", "operator",
    Option("--witness", bool, True, "Search for a functional triple breaking Jacobi on a negative verdict."),
    Option("--witness-budget", int, 200),
)
def is_hamiltonian_cmd(session, operator, witness, witness_budget):
    """Decide whether a skew operator is Hamiltonian.  Supports @FILE."""
    ctx = session.ctx
    for text in _expand(operator):
        cert = is_hamiltonian(
            ctx, parse_operator(text, ctx),
            find_witness=witness, witness_budget=witness_budget,
        )
        session.emit("certificate", cert, ctx)


@command("witness", "operator", "first", "second")
def witness(session, operator, first, second):
    """Componentwise closure residual of an operator on two fixed covectors;
    all components vanish when the operator is Hamiltonian."""
    ctx = session.ctx
    op = parse_operator(_expand_one(operator), ctx)
    p1 = parse_covector(_expand_one(first), ctx)
    p2 = parse_covector(_expand_one(second), ctx)
    session.emit("witness", involutivity_witness(ctx, op, p1, p2), ctx)


@command(
    "subst-check", Argument("identity", choices=IDENTITY_NAMES),
    Option("--trials", int, 25),
    Option("--covectors", ("jet", "x"), "jet", "Draw jet-dependent or coordinate-only arguments."),
    Option("--op", str, None, "Operator to probe (default op(D))."),
)
def subst_check(session, identity, trials, covectors, op):
    """Run one structural identity on freshly drawn random arguments."""
    ctx = session.ctx
    operator = None if op is None else parse_operator(_expand_one(op), ctx)
    result = substitution_harness(
        ctx, identity, trials, session.seed, covectors, operator
    )
    session.emit("report", result, session.seed)
    if not result.passed:
        failed = sum(not r.passed for r in result.reports)
        raise IdentityFailure(f"{failed} of {len(result.reports)} trials failed")


@command("selftest", Option("--suites", str, None, "Comma-separated suite numbers to run (default: all)."))
def selftest(session, suites):
    """Run the built-in identity suites and report one line per suite."""
    chosen = list(range(1, len(SUITES) + 1))
    if suites is not None:
        try:
            chosen = sorted({int(part) for part in suites.split(",") if part.strip()})
        except ValueError as exc:
            raise ParseError(f"--suites expects numbers like 1,3,9: {suites!r}") from exc
        if not chosen:
            raise ParseError(f"--suites names no suite: {suites!r}")
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


# -- the dispatcher ----------------------------------------------------------

_ABOUT = """Exact calculus on cyclic words: normal forms, products, variational
derivatives, adjoints, graded brackets, and Hamiltonian checks."""

_GLOBAL_OPTIONS = (
    Option("--m", int, help="Letter families per parity (default 1)."),
    Option("--n", int, help="Base directions (default 1)."),
    Option("--max-order", int, help="Cap on derivative orders; exceeding it exits 4."),
    Option("--seed", int, help="Seed for randomized commands (default 0)."),
    Option("--output", ("pretty", "machine"), help="Output style (default pretty)."),
    Option("--config", str, help="JSON file with defaults for m, n, max_order, seed, output."),
)


class UsageError(CycvarError):
    """The command line does not fit the command table."""


def _no_such(what: str, name: str, known) -> UsageError:
    """`No such command 'x'.` or `No such option '--x'.`, naming the close
    matches among `known`."""
    from difflib import get_close_matches

    close = sorted(get_close_matches(name, known))
    hint = ", ".join(map(repr, close))
    if len(close) > 1:
        hint = f" (Did you mean one of: {hint}?)"
    elif close:
        hint = f" Did you mean {hint}?"
    return UsageError(f"No such {what} {name!r}.{hint}")


def _split(argv: list[str], options, interspersed: bool):
    """Read the options out of `argv`: (raw values by option, in the order
    first given, the last given winning; the positional arguments; whether
    --help was given).  `--` ends the options, and so does the first
    positional argument unless `interspersed`."""
    by_name = {o.name: o for o in options}
    by_name.update((f"--no-{o.name[2:]}", o) for o in options if o.kind is bool)
    given, positional, wants_help = {}, [], False
    args = iter(argv)
    for arg in args:
        if arg == "--":
            positional.extend(args)
        elif arg[:1] != "-" or arg == "-":
            positional.append(arg)
            if not interspersed:
                positional.extend(args)
        elif arg[:2] != "--":
            raise UsageError(f"No such option {arg[:2]!r}.")
        else:
            name, eq, value = arg.partition("=")
            option = by_name.get(name)
            if option is None and name != "--help":
                raise _no_such("option", name, [*by_name, "--help"])
            if option is None or option.kind is bool:
                if eq:
                    raise UsageError(f"Option {name!r} does not take a value.")
                if option is None:
                    wants_help = True
                    continue
                value = name == option.name
            elif not eq:
                value = next(args, None)
                if value is None:
                    raise UsageError(f"Option {name!r} requires an argument.")
            given[option] = value
    return given, positional, wants_help


def _convert(option: Option, value):
    """The typed value of one option, or a usage error naming it."""
    if option.kind is int:
        try:
            return int(value)
        except ValueError:
            digits = value.strip()
            digits = digits[1:] if digits[:1] in ("+", "-") else digits
            if digits.isdecimal():  # int() refuses this many digits
                problem = f"number with {len(digits)} digits is too long"
            else:
                problem = f"{value!r} is not a valid integer."
    elif isinstance(option.kind, tuple) and value not in option.kind:
        problem = f"{value!r} is not one of {', '.join(map(repr, option.kind))}."
    else:
        return value
    raise UsageError(f"Invalid value for '{option.name}': {problem}")


def _read_globals(argv: list[str]):
    """The global options of `argv`, converted, and the rest of `argv`."""
    given, rest, wants_help = _split(argv, _GLOBAL_OPTIONS, interspersed=False)
    if wants_help:
        print(_main_help())
        raise SystemExit(0)
    return {o.dest: _convert(o, value) for o, value in given.items()}, rest


def _read_command(name: str, command: Command, argv: list[str]) -> dict:
    """The keyword arguments for `command.run` from the command's `argv`."""
    given, positional, wants_help = _split(argv, command.options, interspersed=True)
    taken = []
    for argument in command.arguments:
        count = len(positional) if argument.nargs < 0 else argument.nargs
        value, positional = positional[:count], positional[count:]
        if 1 < argument.nargs and 0 < len(value) < argument.nargs:
            raise UsageError(f"Argument {argument.name!r} takes {argument.nargs} values.")
        taken.append((argument, value))
    if wants_help:
        print(_command_help(name, command))
        raise SystemExit(0)
    # options are converted in the order given, before the arguments
    values = {o.dest: o.default for o in command.options}
    values.update((o.dest, _convert(o, value)) for o, value in given.items())
    for argument, value in taken:
        if not value and argument.nargs >= 0:
            raise UsageError(f"Missing argument '{argument.metavar}'.")
        if argument.choices and value[0] not in argument.choices:
            raise UsageError(
                f"Invalid value for '{argument.metavar}': {value[0]!r} is not one of"
                f" {', '.join(map(repr, argument.choices))}."
            )
        values[argument.name] = value[0] if argument.nargs == 1 else tuple(value)
    if positional:
        s = "s" if len(positional) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(positional)})")
    return values


def main(argv=None):
    """Run one `cycvar` command line (default: `sys.argv[1:]`) and end with
    SystemExit carrying the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv:
            print(_main_help(), file=sys.stderr)
            raise SystemExit(2)
        settings, rest = _read_globals(argv)
        if not rest:
            raise UsageError("Missing command.")
        name, *args = rest
        command = COMMANDS.get(name)
        if command is None:
            if name[:1] == "-":  # an option after `--` is read as one after all
                _read_globals(rest)
            raise _no_such("command", name, COMMANDS)
        config = settings.pop("config", None)
        session = Session(**{**({} if config is None else _load_config(config)), **settings})
        command.run(session, **_read_command(name, command, args))
    except CycvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(exc.exit_code) from None
    except KeyboardInterrupt:
        print(file=sys.stderr)
        raise SystemExit(130) from None
    except BrokenPipeError:
        # stdout's reader has gone (`cycvar ... | head`): exit quietly, and
        # send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None
    raise SystemExit(0)


# -- help pages, laid out at 80 columns --------------------------------------

_WIDTH = 78


def _paragraphs(doc: str | None) -> list[str]:
    """A docstring's paragraphs, each joined onto one line."""
    blocks = re.split(r"\n\s*\n", (doc or "").strip())
    return [" ".join(line.strip() for line in block.splitlines()) for block in blocks if block]


def _short_help(doc: str | None, limit: int) -> str:
    """The first sentence of a docstring, cut to fit `limit` columns with `...`."""
    words = (_paragraphs(doc) or [""])[0].split()
    n = next((i + 1 for i, word in enumerate(words) if word.endswith(".")), len(words))
    if len(" ".join(words[:n])) <= limit:
        return " ".join(words[:n])
    while n and len(" ".join(words[:n])) + 3 > limit:
        n -= 1
    return " ".join(words[:n]) + "..."


def _option_row(option: Option) -> tuple[str, str]:
    if option.kind is bool:
        term = f"{option.name} / --no-{option.name[2:]}"
        default = ("" if option.default else "no-") + option.name[2:]
    else:
        metavar = {int: "INTEGER", str: "TEXT"}.get(option.kind) or f"[{'|'.join(option.kind)}]"
        term, default = f"{option.name} {metavar}", option.default
    if default is None:
        return term, option.help
    return term, f"{option.help}  [default: {default}]".lstrip()


def _page(prog: str, usage: str, doc: str | None, sections) -> str:
    """A help page: the usage line, the docstring's paragraphs, then each
    titled section as two columns, the second wrapped beside the first."""
    import textwrap

    prefix = f"Usage: {prog} "
    lines = [textwrap.fill(usage, _WIDTH, initial_indent=prefix, subsequent_indent=" " * len(prefix))]
    for paragraph in _paragraphs(doc):
        lines += ["", textwrap.fill(paragraph, _WIDTH, initial_indent="  ", subsequent_indent="  ")]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        first = max(len(term) for term, _ in rows) + 2
        for term, text in rows:
            wrapped = textwrap.wrap(text, _WIDTH - first - 2) or [""]
            lines.append(f"  {term:<{first}}{wrapped[0]}".rstrip())
            lines += [" " * (first + 2) + line for line in wrapped[1:]]
    return "\n".join(lines)


_HELP_ROW = ("--help", "Show this message and exit.")


def _main_help() -> str:
    width = _WIDTH - 6 - max(map(len, COMMANDS))
    return _page(
        "cycvar", "[OPTIONS] COMMAND [ARGS]...",
        _ABOUT,
        [
            ("Options", [*map(_option_row, _GLOBAL_OPTIONS), _HELP_ROW]),
            ("Commands", [(name, _short_help(COMMANDS[name].run.__doc__, width)) for name in sorted(COMMANDS)]),
        ],
    )


def _command_help(name: str, command: Command) -> str:
    usage = " ".join(["[OPTIONS]", *(a.metavar for a in command.arguments)])
    return _page(f"cycvar {name}", usage, command.run.__doc__, [("Options", [*map(_option_row, command.options), _HELP_ROW])])


if __name__ == "__main__":
    main()
