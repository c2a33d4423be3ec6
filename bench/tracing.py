"""Per-layer tracing from outside the library.

`Tracer.install()` replaces selected public functions and methods of the
`cycvar` modules with timing wrappers, on every module attribute that binds
them (modules import each other's functions by name), and `restore()` puts
the originals back.  Each wrapped call opens a frame; a frame's self time
is its duration minus the time of the wrapped calls made inside it.  Spans
(name, start, end, parent, operation id) stay in memory and are written out
by the caller when the run ends.  The hottest functions are counted and
timed with no span of their own: `normalize` and `FormalSum.__add__` as
leaves, `total_derivative` and `d_power` as frames, which still take their
callees' time out of their own.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("words", "jets", "operators", "variational", "schouten", "poisson", "lang", "cli")

# (metric name, module, attribute path, kind), kind being span, frame (no
# span) or leaf (no span, calls nothing wrapped).  Several functions may
# share one metric name; nested calls within the same name count once.
TARGETS = (
    ("words.normalize", "words", "normalize", "leaf"),
    ("words.sum_add", "words", "FormalSum.__add__", "leaf"),
    ("words.times", "words", "times", "span"),
    ("jets.total_derivative", "jets", "total_derivative", "frame"),
    ("jets.d_power", "jets", "d_power", "frame"),
    ("jets.evolutionary_apply", "jets", "evolutionary_apply", "span"),
    ("operators.adjoint", "operators", "DifferentialOperator.adjoint", "span"),
    ("operators.is_skew", "operators", "DifferentialOperator.is_skew", "span"),
    ("operators.apply", "operators", "DifferentialOperator.apply", "span"),
    ("variational.euler_derivative", "variational", "euler_derivative", "span"),
    ("variational.is_trivial", "variational", "is_trivial", "span"),
    ("schouten.schouten_bracket", "schouten", "schouten_bracket", "span"),
    ("schouten.normalize_multivector", "schouten", "normalize_multivector", "span"),
    ("poisson.is_hamiltonian", "poisson", "is_hamiltonian", "span"),
    ("poisson.jacobi_defect", "poisson", "jacobi_defect", "span"),
    ("poisson.poisson_bracket", "poisson", "poisson_bracket", "span"),
    ("lang.parse", "lang", "parse_value", "span"),
    ("lang.parse", "lang", "parse_cyclic", "span"),
    ("lang.parse", "lang", "parse_open", "span"),
    ("lang.parse", "lang", "parse_operator", "span"),
    ("lang.parse", "lang", "parse_covector", "span"),
    ("lang.parse", "lang", "parse_section_tuple", "span"),
    ("lang.print", "lang", "sum_text", "span"),
    ("lang.print", "lang", "coefficient_text", "span"),
    ("lang.print", "lang", "word_text", "span"),
    ("lang.print", "lang", "operator_text", "span"),
    ("lang.print", "lang", "covector_text", "span"),
    ("lang.print", "lang", "section_text", "span"),
    ("cli.main", "cli", "main", "span"),
)

# Functions whose summed output size is reported as `<name>.terms_out`.
TERMS_OUT = ("words.times", "jets.total_derivative", "variational.euler_derivative")


def _terms(result) -> int | None:
    """Size of a word sum, or of the density a result carries; else None."""
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict) and hasattr(result, "cyclic"):
        return len(terms)
    density = getattr(result, "density", None)
    if density is not None:
        return len(density.terms)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.frames: list[list] = []  # [name, start, child seconds, span index]
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.terms_out: Counter = Counter()
        self.errors: Counter = Counter()
        self.peak_terms = 0
        self.normalize_seen: set = set()
        self.normalize_repeats = 0
        self.chars_in = 0
        self.chars_out = 0
        self.triples_tried = 0
        self.witnesses_found = 0
        self._installed: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import cycvar.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "cycvar" or n.startswith("cycvar.")]
        for name, module_name, path, kind in TARGETS:
            owner = sys.modules[f"cycvar.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if kind == "leaf":
                wrapper = self._leaf(name, original)
            else:
                wrapper = self._span(name, original, store=kind == "span")
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.frames.append(["op", time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def end_op(self) -> None:
        name, start, child, index = self.frames.pop()
        end = time.perf_counter()
        self.spans[index] = ("op", start, end, None, self.op_id)
        self.self_s["op"] += end - start - child

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, name, original):
        tracer = self
        layer = name.split(".", 1)[0]
        track_repeats = name == "words.normalize"

        def wrapper(*args, **kwargs):
            if track_repeats:
                key = args[0]
                if key in tracer.normalize_seen:
                    tracer.normalize_repeats += 1
                else:
                    tracer.normalize_seen.add(key)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed
                if tracer.frames:
                    tracer.frames[-1][2] += elapsed

        wrapper.__wrapped__ = original
        return wrapper

    def _span(self, name, original, store: bool):
        tracer = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frames = tracer.frames
            if frames and frames[-1][0] == name:
                return original(*args, **kwargs)
            parent = frames[-1] if frames else None
            if name == "poisson.jacobi_defect" and parent and parent[0] == "poisson.is_hamiltonian":
                tracer.triples_tried += 1
            if store:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:  # callees hang their spans on the nearest stored ancestor
                index = parent[3] if parent else None
            frame = [name, time.perf_counter(), 0.0, index]
            frames.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                frames.pop()
                duration = end - frame[1]
                if store:
                    tracer.spans[index] = (name, frame[1], end, parent[3] if parent else None, tracer.op_id)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if parent:
                    parent[2] += duration
                if result is not None:
                    tracer._observe(name, args, result)

        wrapper.__wrapped__ = original
        return wrapper

    def _observe(self, name, args, result) -> None:
        size = _terms(result)
        if size is not None:
            if size > self.peak_terms:
                self.peak_terms = size
            if name in TERMS_OUT:
                self.terms_out[name] += size
        if name == "lang.parse":
            self.chars_in += len(args[0])
        elif name == "lang.print":
            self.chars_out += len(result)
        elif name == "poisson.is_hamiltonian" and result.witness is not None:
            self.witnesses_found += 1

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, op_seconds: float, import_s: float, overhead: float) -> dict:
        """Per-operation layer figures for `ops` traced operations."""
        per_op = 1.0 / ops
        m: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put("words.normalize.calls", self.calls["words.normalize"] * per_op, "1/op")
        put("words.normalize.self_s", self.self_s["words.normalize"] * per_op, "s/op")
        calls = self.calls["words.normalize"]
        put("words.normalize.repeat_ratio", self.normalize_repeats / calls if calls else 0.0, "ratio")
        put("words.normalize.self_share", self.self_s["words.normalize"] / op_seconds, "ratio")
        put("words.times.calls", self.calls["words.times"] * per_op, "1/op")
        put("words.times.terms_out", self.terms_out["words.times"] * per_op, "1/op")
        put("words.sum_add.calls", self.calls["words.sum_add"] * per_op, "1/op")
        put("words.sum_add.self_s", self.self_s["words.sum_add"] * per_op, "s/op")
        put("words.peak_terms", float(self.peak_terms), "count")
        for name in ("jets.total_derivative", "jets.evolutionary_apply", "operators.adjoint",
                     "operators.apply", "variational.euler_derivative", "variational.is_trivial",
                     "schouten.schouten_bracket", "schouten.normalize_multivector",
                     "poisson.is_hamiltonian", "poisson.jacobi_defect", "lang.parse", "lang.print"):
            put(f"{name}.calls", self.calls[name] * per_op, "1/op")
            put(f"{name}.self_s", self.self_s[name] * per_op, "s/op")
        for name in ("jets.d_power", "operators.is_skew", "poisson.poisson_bracket"):
            put(f"{name}.calls", self.calls[name] * per_op, "1/op")
        put("jets.total_derivative.terms_out", self.terms_out["jets.total_derivative"] * per_op, "1/op")
        put("variational.euler_derivative.terms_out", self.terms_out["variational.euler_derivative"] * per_op, "1/op")
        tried = self.triples_tried
        put("poisson.witness.yield", self.witnesses_found / tried if tried else 0.0, "ratio")
        put("lang.parse.chars_in", self.chars_in * per_op, "1/op")
        put("lang.print.chars_out", self.chars_out * per_op, "1/op")
        put("cli.main.self_s", self.self_s["cli.main"] * per_op, "s/op")
        put("cli.import_s", import_s, "s")
        for layer in LAYERS:
            own = sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)
            put(f"{layer}.self_share", own / op_seconds, "ratio")
            put(f"{layer}.errors", float(self.errors[layer]), "count")
        put("trace.overhead", overhead, "ratio")
        put("trace.ops", float(ops), "count")
        return m
