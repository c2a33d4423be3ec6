"""The three seeded workloads.

Each workload writes its inputs as text from its own seeded generator (it
does not use `cycvar.corpus`), builds what the library needs from that text
during set-up, and then yields an endless, deterministic stream of records.
A record is one operation: `run()` does the work that is timed, and the
workload's `check()` judges the result afterwards against an answer that
does not come from the code under test.

Costs are kept steady by a fixed schedule of input shapes per cycle: the
seed chooses letters, orders, coefficients and the order of the cycle, not
the mix of shapes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import oracle as O

VALUES = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "2/3", "-3/2")


def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


def _word(rng: random.Random, length: int, odd: int, order_sum: int) -> tuple:
    """A cyclic word with `odd` odd letters and derivative orders (each at
    most 2) summing to `order_sum` that does not vanish under rotation."""
    for _ in range(100):
        kinds = [O.B] * odd + [O.A] * (length - odd)
        rng.shuffle(kinds)
        orders = [0] * length
        for _ in range(order_sum):
            orders[rng.choice([i for i in range(length) if orders[i] < 2])] += 1
        word = tuple(zip(kinds, orders))
        if O.canonical(word)[0] is not None:
            return word
    raise ValueError(f"no nonvanishing word of shape {(length, odd, order_sum)}")


def _free_word(rng: random.Random, length: int, odd: int, max_order: int) -> tuple:
    """A nonvanishing word with independent orders in 0..max_order."""
    while True:
        kinds = [O.B] * odd + [O.A] * (length - odd)
        rng.shuffle(kinds)
        word = tuple((kind, rng.randint(0, max_order)) for kind in kinds)
        if O.canonical(word)[0] is not None:
            return word


def _coeff(rng: random.Random, with_x: bool = False) -> str:
    value = rng.choice(VALUES)
    if not with_x:
        return value
    slope = rng.choice(VALUES)
    return f"({value} - {slope[1:]}*x)" if slope.startswith("-") else f"({value} + {slope}*x)"


@dataclass
class Record:
    index: int
    kind: str
    text: str
    run: Callable[[], object]
    data: object = None


class Workload:
    """Base class: subclasses build `self.text` and the library inputs in
    `__init__` (the set-up) and define `_records` and `check`."""

    name = ""
    tail_percentile = 95.0
    cycle_length = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.text = ""

    def records(self) -> Iterator[Record]:
        index = itertools.count()
        for kind, text, run, data in self._records():
            yield Record(next(index), kind, text, run, data)

    def _records(self):
        raise NotImplementedError

    def check(self, record: Record, result, results: dict) -> str | None:
        """None when the result is right, else the reason it is wrong."""
        raise NotImplementedError


# -- brackets -----------------------------------------------------------------

# Multivector classes: (degree, letters, total derivative order, x in coefficient).
MV_CLASSES = {
    "m0a": (0, 3, 1, True),
    "m0b": (0, 3, 2, True),
    "m0c": (0, 2, 1, True),
    "m0d": (0, 4, 2, False),
    "m1a": (1, 2, 1, True),
    "m1b": (1, 3, 1, True),
    "m1c": (1, 3, 2, True),
    "m1d": (1, 2, 0, True),
    "m2a": (2, 3, 1, True),
    "m2b": (2, 3, 2, True),
    "m2c": (2, 2, 1, True),
    "m3a": (3, 4, 2, True),
    "m3b": (3, 3, 1, True),
}

BRACKET_SCHEDULE = (
    ("antisymmetry", ("m1a", "m0b")),
    ("antisymmetry", ("m1c", "m1b")),
    ("antisymmetry", ("m2b", "m0a")),
    ("antisymmetry", ("m2a", "m1a")),
    ("antisymmetry", ("m2a", "m2a")),
    ("antisymmetry", ("m3a", "m1d")),
    ("antisymmetry", ("m3b", "m0c")),
    ("routes", ("m1a", "m0b")),
    ("routes", ("m1c", "m1b")),
    ("routes", ("m2b", "m0a")),
    ("routes", ("m0d", "m3b")),
    ("jacobi", ("m1a", "m1a", "m0a")),
    ("jacobi", ("m2c", "m1a", "m0c")),
    ("jacobi", ("m1b", "m2c", "m0c")),
    ("jacobi", ("m2a", "m0c", "m1a")),
    ("morphism", ("m1c", "m1c")),
    ("morphism", ("m2a", "m1a")),
    ("morphism", ("m0b", "m2b")),
    ("morphism", ("m2b", "m2c")),
)

POOL = 24


class Brackets(Workload):
    """Identity checks of the graded bracket on seeded multivector densities
    (one family, one direction, at most 4 letters, orders at most 2, x-degree
    at most 1).  Every check must hold."""

    name = "brackets"
    cycle_length = len(BRACKET_SCHEDULE)

    def __init__(self, seed: int):
        super().__init__(seed)
        import cycvar.lang as L
        import cycvar.schouten as S
        from cycvar import JetContext

        rng = _rng(seed, 1)
        lines = []
        for cls, (degree, length, order_sum, with_x) in MV_CLASSES.items():
            for i in range(POOL):
                word = _word(rng, length, degree, order_sum)
                lines.append(f"{cls}#{i} {degree} {_coeff(rng, with_x)}*cyc({O.word_text(word)})")
        self.text = "\n".join(lines) + "\n"
        self.ctx = JetContext()
        self.pool = {}
        for line in lines:
            key, degree, density = line.split(" ", 2)
            self.pool[key] = S.normalize_multivector(
                self.ctx, L.parse_cyclic(density, self.ctx), degree=int(degree)
            )

    def _records(self):
        import cycvar.schouten as S
        import cycvar.variational as V

        ctx = self.ctx
        rng = _rng(self.seed, 2)

        def routes(xi, eta):
            primary = S.schouten_bracket(ctx, xi, eta).density
            return V.is_trivial(ctx, primary - S.schouten_by_variations(ctx, xi, eta))

        checks = {
            "antisymmetry": lambda *m: S.check_skew(ctx, *m),
            "jacobi": lambda *m: S.check_jacobi(ctx, *m),
            "morphism": lambda *m: S.check_field_morphism(ctx, *m),
            "routes": routes,
        }
        while True:
            for kind, classes in rng.sample(BRACKET_SCHEDULE, len(BRACKET_SCHEDULE)):
                keys = [f"{cls}#{rng.randrange(POOL)}" for cls in classes]
                args = [self.pool[k] for k in keys]
                yield kind, f"{kind} {' '.join(keys)}", (lambda f=checks[kind], a=args: f(*a)), None

    def check(self, record, result, results):
        return None if result is True else f"identity {record.kind} does not hold"


# -- hamiltonian --------------------------------------------------------------

# Word-coefficient families c*op(w*D^k + D^k*R(w)), odd k: never Hamiltonian.
REJECT_SHAPES = (
    ("a", 1), ("a_x", 1), ("a_xx", 1), ("a*a", 1),
    ("a*a_x", 1), ("a_x*a", 1), ("a*a*a", 1), ("a", 3),
)
# Functional triples for Jacobi defects: (letters, total order) per slot.
TRIPLE_SHAPES = (
    ((2, 1), (2, 0), (3, 1)),
    ((3, 1), (3, 1), (2, 1)),
    ((3, 0), (1, 0), (3, 1)),
    ((2, 2), (2, 1), (1, 0)),
)
FREE_POOL = 12
FUNCTIONAL_SHAPES = sorted({shape for triple in TRIPLE_SHAPES for shape in triple})


def _d(k: int) -> str:
    return "D" if k == 1 else f"D^{k}"




class Hamiltonian(Workload):
    """Hamiltonian decisions and Jacobi defects on operators that are skew by
    construction.  Letter-free operators (x-polynomial coefficients, odd
    powers of D, arranged skew) are Hamiltonian and their Jacobi defects are
    trivial (Olver, Cor. 7.5); the word-coefficient families are rejected."""

    name = "hamiltonian"
    cycle_length = len(REJECT_SHAPES) * 2 + len(TRIPLE_SHAPES) * 4

    def __init__(self, seed: int):
        super().__init__(seed)
        import cycvar.lang as L
        from cycvar import Functional, JetContext

        rng = _rng(seed, 3)
        lines = []
        for w, k in REJECT_SHAPES:
            for i in range(POOL):
                lines.append(f"reject:{w}:{k}#{i} {rng.choice(VALUES)}*op({w}*{_d(k)} + {_d(k)}*R({w}))")
        for i in range(FREE_POOL):
            terms = []
            for k in (1, 3):
                p = _coeff(rng, with_x=True)
                terms.append(f"{rng.choice(VALUES)}*op({p}*{_d(k)} + {_d(k)}*{p})")
            lines.append(f"accept#{i} " + " + ".join(terms))
        for length, order_sum in FUNCTIONAL_SHAPES:
            for i in range(POOL):
                word = _word(rng, length, 0, order_sum)
                lines.append(f"f{length}.{order_sum}#{i} {rng.choice(VALUES)}*cyc({O.word_text(word)})")
        self.text = "\n".join(lines) + "\n"
        self.ctx = JetContext()
        self.pool = {}
        for line in lines:
            key, expr = line.split(" ", 1)
            if key.startswith("f"):
                self.pool[key] = Functional(self.ctx, L.parse_cyclic(expr, self.ctx))
            else:
                self.pool[key] = L.parse_operator(expr, self.ctx)

    def _records(self):
        import cycvar.poisson as P

        ctx = self.ctx
        rng = _rng(self.seed, 4)
        schedule = (
            [("reject", f"reject:{w}:{k}") for w, k in REJECT_SHAPES]
            + [("accept", "accept")] * len(REJECT_SHAPES)
            + [("jacobi", triple) for triple in TRIPLE_SHAPES] * 4
        )
        while True:
            for kind, shape in rng.sample(schedule, len(schedule)):
                if kind == "jacobi":
                    keys = [f"accept#{rng.randrange(FREE_POOL)}"] + [
                        f"f{n}.{s}#{rng.randrange(POOL)}" for n, s in shape
                    ]
                    op, *hs = (self.pool[k] for k in keys)
                    run = lambda op=op, hs=hs: P.jacobi_defect(ctx, op, *hs)
                else:
                    size = FREE_POOL if kind == "accept" else POOL
                    keys = [f"{shape}#{rng.randrange(size)}"]
                    op = self.pool[keys[0]]
                    run = lambda op=op: P.is_hamiltonian(ctx, op)
                yield kind, f"{kind} {' '.join(keys)}", run, op

    def check(self, record, result, results):
        import cycvar.poisson as P
        import cycvar.variational as V

        ctx = self.ctx
        if record.kind == "jacobi":
            return None if V.is_trivial(ctx, result.density) else "Jacobi defect of a letter-free operator is nontrivial"
        if record.kind == "accept":
            return None if result.hamiltonian else "letter-free skew operator rejected"
        if result.hamiltonian:
            return "word-coefficient operator accepted"
        if result.witness is None:
            return "rejection carries no witness"
        covectors = tuple(V.covector_of(ctx, h) for h in result.witness)
        if V.is_trivial(ctx, P.jacobi_defect_expanded(ctx, record.data, covectors)):
            return "witness defect is trivial on the expanded route"
        return None


# -- cli ----------------------------------------------------------------------

CLI_SCHEDULE = ("times", "times", "normalize", "tderiv", "euler", "adjoint", "couple", "poisson")


def _sum_text(terms) -> str:
    """`c1*cyc(w1) + c2*cyc(w2)` (or open words) from (coeff, word, cyclic)."""
    parts = []
    for value, word, cyclic in terms:
        body = f"cyc({O.word_text(word)})" if cyclic else O.word_text(word)
        parts.append(f"{value}*{body}")
    return " + ".join(parts)


def _machine(command: str, *args: str, options=()) -> list[str]:
    return ["--output", "machine", command, *options, "--", *args]


def operator_from_machine(text: str) -> str | None:
    """Rebuild `op(...)` text from a machine-mode operator record."""
    lines = text.splitlines()
    if lines[:2] != ["status: ok", "kind: operator"]:
        return None
    parts = []
    for line in lines[3:]:
        coeff, left, orders, right = line.removeprefix("term: ").split(" | ")
        factors = [f"({coeff})"]
        if left != "1":
            factors.append(left)
        if right != "1":
            factors.append(f"R({right})")
        if orders != "0":
            factors.append(f"D^{orders}")
        parts.append("*".join(factors))
    return "op(" + (" + ".join(parts) if parts else "0") + ")"


class Cli(Workload):
    """Machine-mode command records run in-process through `cycvar.cli.main`:
    normalize, times, tderiv, euler, adjoint, couple and poisson on small
    expressions with constant coefficients."""

    name = "cli"
    tail_percentile = 99.0
    cycle_length = len(CLI_SCHEDULE) + 2

    def __init__(self, seed: int):
        super().__init__(seed)
        import cycvar.cli  # noqa: F401

        # one pair of buffers for every call, as a process has one stdout:
        # click caches a wrapper per stream object and keeps each one alive
        self._out, self._err = io.StringIO(), io.StringIO()

    def call(self, argv: list[str]) -> tuple[int, str, str]:
        """One in-process `cycvar` invocation: (exit code, stdout, stderr)."""
        import cycvar.cli as C

        for buf in (self._out, self._err):
            buf.seek(0)
            buf.truncate()
        code = 0
        with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
            try:
                C.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, self._out.getvalue(), self._err.getvalue()

    def _records(self):
        rng = _rng(self.seed, 5)
        while True:
            for kind in rng.sample(CLI_SCHEDULE, len(CLI_SCHEDULE)):
                if kind == "times":
                    f, g = (
                        (rng.choice(VALUES), _free_word(rng, rng.randint(5, 8), rng.randint(1, 3), 1))
                        for _ in range(2)
                    )
                    texts = [_sum_text([(c, w, True)]) for c, w in (f, g)]
                    pair = ((Fraction(f[0]), f[1]), (Fraction(g[0]), g[1]))
                    for first in (True, False):
                        order = slice(None) if first else slice(None, None, -1)
                        argv = _machine("times", *texts[order])
                        yield kind, "\t".join(argv), (lambda a=argv: self.call(a)), (pair[order], first)
                    continue
                if kind in ("normalize", "tderiv", "euler"):
                    base = _free_word(rng, rng.randint(3, 6), rng.randint(1, 2), 2)
                    terms = [(rng.choice(VALUES), base, True)]
                    r = rng.randrange(len(base))
                    terms.append((rng.choice(VALUES), base[r:] + base[:r], True))
                    if kind == "normalize":
                        terms.append((rng.choice(VALUES), _free_word(rng, rng.randint(2, 5), 1, 2), True))
                    options = ()
                    if kind == "tderiv":
                        options = ("--order", str(rng.randint(1, 2)))
                    elif kind == "euler":
                        options = ("--wrt", rng.choice(("a", "b")))
                    argv = _machine(kind, _sum_text(terms), options=options)
                    data = (terms, options)
                elif kind == "adjoint":
                    parts = []
                    for _ in range(rng.randint(1, 3)):
                        k = rng.randint(0, 3)
                        word = O.word_text(_free_word(rng, rng.randint(1, 2), 0, 1))
                        factor = rng.choice((word, f"R({word})", "x"))
                        parts.append(f"{rng.choice(VALUES)}*{factor}" + (f"*{_d(k)}" if k else ""))
                    text = "op(" + " + ".join(parts) + ")"
                    argv = _machine("adjoint", text)
                    data = text
                elif kind == "couple":
                    # covector components carry an even number of odd letters
                    p = (rng.choice(VALUES), _free_word(rng, rng.randint(2, 3), rng.choice((0, 2)), 2))
                    v = (rng.choice(VALUES), _free_word(rng, rng.randint(1, 3), rng.randint(0, 1), 2))
                    argv = _machine("couple", f"cov({_sum_text([(*p, False)])})", f"sec({_sum_text([(*v, False)])})")
                    data = (p, v)
                else:  # poisson
                    k = rng.choice((1, 3))
                    c = rng.choice(VALUES)
                    fs = [(rng.choice(VALUES), _free_word(rng, rng.randint(1, 3), 0, 2)) for _ in range(2)]
                    argv = _machine("poisson", f"op({c}*{_d(k)})", *(_sum_text([(*h, True)]) for h in fs))
                    data = (c, k, fs)
                yield kind, "\t".join(argv), (lambda a=argv: self.call(a)), data

    def check(self, record, result, results):
        code, out, err = result
        if code != 0 or err:
            return f"exit {code}: {err.strip()}"
        if record.kind == "adjoint":
            again = operator_from_machine(out)
            if again is None:
                return "adjoint output is not an operator record"
            twice = self.call(_machine("adjoint", again))
            once = self.call(_machine("normalize", record.data))
            return None if twice == once else "adjoint applied twice does not reprint the operator"
        if O.machine_terms(out) != O.sum_terms(self._expected(record)):
            return "output differs from the reference calculus"
        if record.kind == "times":
            # graded commutativity: swapping two odd factors flips the sign,
            # otherwise the two records print the same bytes
            partner = results.get(record.index + (1 if record.data[1] else -1))
            (_, w1), (_, w2) = record.data[0]
            if sum(odd for odd, _ in w1) % 2 and sum(odd for odd, _ in w2) % 2:
                if partner is not None and O.machine_terms(partner[1]) != {w: -c for w, c in O.machine_terms(out).items()}:
                    return "times g f is not minus times f g for two odd factors"
            elif partner is not None and partner[1] != out:
                return "times f g and times g f differ"
        return None

    def _expected(self, record) -> dict:
        F = Fraction
        if record.kind == "times":
            (c1, w1), (c2, w2) = record.data[0]
            return O.times(O.close({w1: c1}), O.close({w2: c2}))
        if record.kind in ("normalize", "tderiv", "euler"):
            terms, options = record.data
            total: dict = {}
            for value, word, _ in terms:
                for w, c in O.close({word: F(value)}).items():
                    O.add(total, w, c)
            if record.kind == "normalize":
                return total
            if record.kind == "tderiv":
                for _ in range(int(options[1])):
                    total = O.derivative(total, cyclic=True)
                return total
            return O.euler(total, O.B if options[1] == "b" else O.A)
        if record.kind == "couple":
            (c1, w1), (c2, w2) = record.data
            return O.close({w1 + w2: F(c1) * F(c2)})
        c, k, ((c1, w1), (c2, w2)) = record.data
        left = O.euler(O.close({w1: F(c1)}), O.A)
        right = O.euler(O.close({w2: F(c2)}), O.A)
        for _ in range(k):
            right = O.derivative(right, cyclic=False)
        paired: dict = {}
        for u, a in left.items():
            for v, b in right.items():
                O.add(paired, u + v, a * b * F(c))
        return O.close(paired)


WORKLOADS = {w.name: w for w in (Brackets, Hamiltonian, Cli)}
