"""Expression grammar and canonical printer for the CLI.

The textual language covers scalars (rationals and powers of the base
coordinates), letters with derivative suffixes, open products, cyc(...)
closures, cov(...)/sec(...) tuples, and op(...) operator expressions whose
products are composition chains applied right to left.  The printer emits
the same grammar, so parse -> print -> parse is the identity on values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .words import Coefficient, FormalSum, Letter, close, word_key
from .jets import GeneratingSection, JetContext
from .operators import DifferentialOperator, from_derivative
from .variational import Covector

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<kw>cyc|cov|sec|op|R|L)(?![A-Za-z0-9_])
      | (?P<letter>[ab][0-9]*(?:_(?:x+|\{[^{}]*\}))*)
      | (?P<xmono>x[0-9]*(?:\^[0-9]+)?)
      | (?P<deriv>D(?:_[0-9]+)?(?:\^[0-9]+)?)
      | (?P<number>[0-9]+)
      | (?P<sym>[()+\-*/;])
    """,
    re.VERBOSE,
)

_SUFFIX = re.compile(r"_(x+|\{[^{}]*\})")
_BRACE = re.compile(r"^x(?:\^([0-9]+))?,([0-9]+)$")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _parse_letter_token(text: str, pos: int, ctx: JetContext) -> Letter:
    body = _SUFFIX.split(text)
    head = body[0]
    odd = head[0] == "b"
    digits = head[1:]
    index = int(digits) if digits else 1
    orders = [0] * ctx.directions
    for part in body[1:]:
        if not part:
            continue
        if set(part) == {"x"}:
            orders[0] += len(part)
            continue
        m = _BRACE.match(part[1:-1]) if part.startswith("{") else None
        if m is None:
            raise ParseError(f"malformed derivative suffix in {text!r}", pos)
        direction = int(m.group(1)) if m.group(1) else 1
        if not 1 <= direction <= ctx.directions:
            raise ParseError(f"direction {direction} out of range in {text!r}", pos)
        orders[direction - 1] += int(m.group(2))
    try:
        return ctx.letter(odd, index, tuple(orders))
    except PreconditionError as exc:
        raise ParseError(str(exc), pos) from exc


def _parse_xmono_token(text: str, pos: int, ctx: JetContext) -> Coefficient:
    m = re.match(r"^x([0-9]*)(?:\^([0-9]+))?$", text)
    digits, power = m.group(1), m.group(2)
    direction = int(digits) if digits else 1
    if not 1 <= direction <= ctx.directions:
        raise ParseError(f"base coordinate {text!r} out of range", pos)
    return ctx.x_power(direction, int(power) if power else 1)


def _parse_deriv_token(text: str, pos: int, ctx: JetContext) -> tuple[int, int]:
    m = re.match(r"^D(?:_([0-9]+))?(?:\^([0-9]+))?$", text)
    direction = int(m.group(1)) if m.group(1) else 1
    if not 1 <= direction <= ctx.directions:
        raise ParseError(f"derivative direction in {text!r} out of range", pos)
    return direction, int(m.group(2)) if m.group(2) else 1


# -- parsed values ---------------------------------------------------------


@dataclass
class Value:
    kind: str  # scalar | open | cyclic | operator | covector | section
    payload: object

    def describe(self) -> str:
        return self.kind


class Parser:
    def __init__(self, text: str, ctx: JetContext):
        self.text = text
        self.ctx = ctx
        self.tokens = tokenize(text)
        self.at = 0

    def peek(self) -> Token:
        return self.tokens[self.at]

    def take(self) -> Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            return self.take()
        raise ParseError(f"expected {sym!r}", tok.pos)

    # -- value algebra -----------------------------------------------------

    def _scale(self, value: Value, coeff: Coefficient) -> Value:
        if value.kind == "scalar":
            return Value("scalar", value.payload * coeff)
        if value.kind in ("open", "cyclic"):
            return Value(value.kind, value.payload.scale(coeff))
        if value.kind == "operator":
            return Value("operator", value.payload.scale(coeff))
        if value.kind in ("covector", "section"):
            comps = tuple(c.scale(coeff) for c in _components(value))
            return _retuple(value.kind, comps)
        raise AssertionError(value.kind)

    def _mul(self, left: Value, right: Value, pos: int) -> Value:
        if left.kind == "scalar":
            return self._scale(right, left.payload)
        if right.kind == "scalar":
            return self._scale(left, right.payload)
        if left.kind == "open" and right.kind == "open":
            from .words import concat

            return Value("open", concat(left.payload, right.payload))
        if left.kind == "cyclic" or right.kind == "cyclic":
            raise ParseError(
                "cyclic sums cannot be multiplied inline; use the times command",
                pos,
            )
        raise ParseError(
            f"cannot multiply {left.describe()} with {right.describe()}", pos
        )

    def _div(self, left: Value, right: Value, pos: int) -> Value:
        if right.kind != "scalar":
            raise ParseError("division needs a scalar divisor", pos)
        value = right.payload.constant_value()
        if value is None:
            raise ParseError("cannot divide by an x-dependent scalar", pos)
        if value == 0:
            raise ParseError("division by zero", pos)
        return self._scale(left, Coefficient.constant(
            Fraction(1, 1) / value, self.ctx.directions
        ))

    def _add(self, left: Value, right: Value, subtract: bool, pos: int) -> Value:
        if right.kind == "scalar" and left.kind in ("open", "cyclic"):
            right = self._promote_scalar(right, left.kind)
        if left.kind == "scalar" and right.kind in ("open", "cyclic"):
            left = self._promote_scalar(left, right.kind)
        if left.kind != right.kind:
            raise ParseError(
                f"cannot add {left.describe()} and {right.describe()}", pos
            )
        if left.kind == "scalar":
            return Value(
                "scalar",
                left.payload - right.payload if subtract else left.payload + right.payload,
            )
        if left.kind in ("open", "cyclic"):
            out = left.payload - right.payload if subtract else left.payload + right.payload
            return Value(left.kind, out)
        if left.kind == "operator":
            out = left.payload - right.payload if subtract else left.payload + right.payload
            return Value("operator", out)
        if left.kind in ("covector", "section"):
            lc, rc = _components(left), _components(right)
            comps = tuple(
                (a - b) if subtract else (a + b) for a, b in zip(lc, rc)
            )
            return _retuple(left.kind, comps)
        raise AssertionError(left.kind)

    def _promote_scalar(self, value: Value, kind: str) -> Value:
        return Value(kind, FormalSum.single(kind == "cyclic", (), value.payload))

    def _negate(self, value: Value) -> Value:
        return self._scale(value, Coefficient.constant(-1, self.ctx.directions))

    # -- grammar -----------------------------------------------------------

    def parse_input(self) -> Value:
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return value

    def parse_expr(self) -> Value:
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.take()
                rhs = self.parse_term()
                value = self._add(value, rhs, tok.text == "-", tok.pos)
            else:
                return value

    def parse_term(self) -> Value:
        negate = False
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.take()
                if tok.text == "-":
                    negate = not negate
            else:
                break
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "*/":
                self.take()
                rhs = self.parse_factor()
                if tok.text == "*":
                    value = self._mul(value, rhs, tok.pos)
                else:
                    value = self._div(value, rhs, tok.pos)
            else:
                break
        return self._negate(value) if negate else value

    def parse_factor(self) -> Value:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return Value(
                "scalar", Coefficient.constant(int(tok.text), self.ctx.directions)
            )
        if tok.kind == "xmono":
            self.take()
            return Value("scalar", _parse_xmono_token(tok.text, tok.pos, self.ctx))
        if tok.kind == "letter":
            self.take()
            letter = _parse_letter_token(tok.text, tok.pos, self.ctx)
            return Value(
                "open", FormalSum.single(False, (letter,), self.ctx.one())
            )
        if tok.kind == "kw":
            return self.parse_keyword()
        if tok.kind == "sym" and tok.text == "(":
            self.take()
            value = self.parse_expr()
            self.expect_sym(")")
            return value
        if tok.kind == "deriv":
            raise ParseError("derivative factors only make sense inside op(...)", tok.pos)
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def parse_keyword(self) -> Value:
        tok = self.take()
        name = tok.text
        self.expect_sym("(")
        if name == "cyc":
            inner = self.parse_expr()
            self.expect_sym(")")
            if inner.kind == "scalar":
                inner = self._promote_scalar(inner, "open")
            if inner.kind != "open":
                raise ParseError("cyc(...) needs an open-word expression", tok.pos)
            return Value("cyclic", close(inner.payload))
        if name in ("cov", "sec"):
            comps = [self.parse_component(tok.pos)]
            while self.peek().kind == "sym" and self.peek().text == ";":
                self.take()
                comps.append(self.parse_component(tok.pos))
            self.expect_sym(")")
            if len(comps) != self.ctx.fields:
                raise ParseError(
                    f"{name}(...) needs {self.ctx.fields} components, got {len(comps)}",
                    tok.pos,
                )
            kind = "covector" if name == "cov" else "section"
            return _retuple(kind, tuple(comps))
        if name in ("R", "L"):
            raise ParseError(f"{name}(...) only makes sense inside op(...)", tok.pos)
        if name == "op":
            value = self.parse_op_expr()
            self.expect_sym(")")
            return Value("operator", value)
        raise AssertionError(name)

    def parse_component(self, pos: int) -> FormalSum:
        value = self.parse_expr()
        if value.kind == "scalar":
            value = self._promote_scalar(value, "open")
        if value.kind != "open":
            raise ParseError("tuple components must be open-word expressions", pos)
        return value.payload

    # -- operator sublanguage ---------------------------------------------

    def parse_op_expr(self) -> DifferentialOperator:
        value = self.parse_op_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.take()
                rhs = self.parse_op_term()
                value = value - rhs if tok.text == "-" else value + rhs
            else:
                return value

    def parse_op_term(self) -> DifferentialOperator:
        negate = False
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.take()
                if tok.text == "-":
                    negate = not negate
            else:
                break
        value = self.parse_op_factor()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "*":
                self.take()
                value = value.compose(self.parse_op_factor())
            elif tok.kind == "sym" and tok.text == "/":
                self.take()
                tok2 = self.peek()
                divisor = self.parse_op_factor()
                scalar = _operator_constant(divisor)
                if scalar is None or scalar == 0:
                    raise ParseError("operator division needs a nonzero rational", tok2.pos)
                value = value.scale(Fraction(1, 1) / scalar)
            else:
                break
        return -value if negate else value

    def parse_op_factor(self) -> DifferentialOperator:
        ctx = self.ctx
        tok = self.peek()
        if tok.kind == "deriv":
            self.take()
            direction, power = _parse_deriv_token(tok.text, tok.pos, ctx)
            return from_derivative(ctx, direction, power)
        if tok.kind == "number":
            self.take()
            return DifferentialOperator.identity(ctx).scale(
                Coefficient.constant(int(tok.text), ctx.directions)
            )
        if tok.kind == "xmono":
            self.take()
            return DifferentialOperator.identity(ctx).scale(
                _parse_xmono_token(tok.text, tok.pos, ctx)
            )
        if tok.kind == "letter":
            self.take()
            letter = _parse_letter_token(tok.text, tok.pos, ctx)
            word = FormalSum.single(False, (letter,), ctx.one())
            return DifferentialOperator.identity(ctx).compose_left(word)
        if tok.kind == "kw" and tok.text in ("R", "L"):
            self.take()
            self.expect_sym("(")
            inner = self.parse_expr()
            self.expect_sym(")")
            if inner.kind == "scalar":
                inner = self._promote_scalar(inner, "open")
            if inner.kind != "open":
                raise ParseError(f"{tok.text}(...) needs an open-word expression", tok.pos)
            base = DifferentialOperator.identity(ctx)
            if tok.text == "R":
                return base.compose_right(inner.payload)
            return base.compose_left(inner.payload)
        if tok.kind == "sym" and tok.text == "(":
            self.take()
            value = self.parse_op_expr()
            self.expect_sym(")")
            return value
        raise ParseError(
            f"unexpected {tok.text!r} inside op(...)" if tok.text else "unexpected end of op(...)",
            tok.pos,
        )


def _operator_constant(op: DifferentialOperator) -> Fraction | None:
    """The rational value of an operator that is a constant multiple of the
    identity, else None."""
    if not op.terms:
        return Fraction(0)
    if len(op.terms) != 1:
        return None
    (left, orders, right), coeff = next(iter(op.terms.items()))
    if left or right or any(orders):
        return None
    return coeff.constant_value()


def _components(value: Value) -> tuple[FormalSum, ...]:
    payload = value.payload
    if isinstance(payload, Covector):
        return payload.components
    return payload


def _retuple(kind: str, comps: tuple[FormalSum, ...]) -> Value:
    if kind == "covector":
        return Value("covector", Covector(comps))
    return Value("section", comps)


# -- public parse helpers --------------------------------------------------


def parse_value(text: str, ctx: JetContext) -> Value:
    try:
        return Parser(text, ctx).parse_input()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


def parse_cyclic(text: str, ctx: JetContext) -> FormalSum:
    value = parse_value(text, ctx)
    if value.kind == "scalar":
        return FormalSum.single(True, (), value.payload)
    if value.kind == "open":
        raise ParseError("expected a cyclic expression; wrap words in cyc(...)")
    if value.kind != "cyclic":
        raise ParseError(f"expected a cyclic expression, got {value.describe()}")
    return value.payload


def parse_open(text: str, ctx: JetContext) -> FormalSum:
    value = parse_value(text, ctx)
    if value.kind == "scalar":
        return FormalSum.single(False, (), value.payload)
    if value.kind != "open":
        raise ParseError(f"expected an open-word expression, got {value.describe()}")
    return value.payload


def parse_operator(text: str, ctx: JetContext) -> DifferentialOperator:
    value = parse_value(text, ctx)
    if value.kind != "operator":
        raise ParseError(f"expected op(...), got {value.describe()}")
    return value.payload


def parse_covector(text: str, ctx: JetContext) -> Covector:
    value = parse_value(text, ctx)
    if value.kind == "covector":
        return value.payload
    if ctx.fields == 1 and value.kind in ("scalar", "open"):
        comp = (
            FormalSum.single(False, (), value.payload)
            if value.kind == "scalar"
            else value.payload
        )
        return Covector((comp,))
    raise ParseError(f"expected cov(...), got {value.describe()}")


def parse_section_tuple(text: str, ctx: JetContext) -> tuple[FormalSum, ...]:
    value = parse_value(text, ctx)
    if value.kind == "section":
        return value.payload
    if ctx.fields == 1 and value.kind in ("scalar", "open"):
        comp = (
            FormalSum.single(False, (), value.payload)
            if value.kind == "scalar"
            else value.payload
        )
        return (comp,)
    raise ParseError(f"expected sec(...), got {value.describe()}")


# -- printer ---------------------------------------------------------------


def _x_name(direction: int, ctx: JetContext) -> str:
    return "x" if ctx.directions == 1 else f"x{direction}"


def _mono_text(exps: tuple[int, ...], value: Fraction, ctx: JetContext) -> tuple[int, str]:
    """Sign and unsigned text of one scalar monomial."""
    sign = -1 if value < 0 else 1
    value = abs(value)
    parts = []
    has_x = any(exps)
    if value != 1 or not has_x:
        parts.append(str(value))
    for direction, e in enumerate(exps, start=1):
        if e:
            name = _x_name(direction, ctx)
            parts.append(name if e == 1 else f"{name}^{e}")
    return sign, "*".join(parts)


def coefficient_text(c: Coefficient, ctx: JetContext) -> str:
    """Canonical text of a scalar polynomial, parseable by the grammar."""
    if not c:
        return "0"
    pieces = []
    for exps, value in c.sorted_terms():
        sign, body = _mono_text(exps, value, ctx)
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(pieces)


def letter_text(letter: Letter, ctx: JetContext) -> str:
    name = "b" if letter.odd else "a"
    if ctx.fields > 1 or letter.index > 1:
        name += str(letter.index)
    if ctx.directions == 1:
        k = letter.orders[0]
        if k == 0:
            suffix = ""
        elif k <= 3:
            suffix = "_" + "x" * k
        else:
            suffix = f"_{{x,{k}}}"
        return name + suffix
    out = name
    for direction, e in enumerate(letter.orders, start=1):
        if e:
            out += f"_{{x^{direction},{e}}}"
    return out


def word_text(letters, ctx: JetContext) -> str:
    if not letters:
        return "1"
    return "*".join(letter_text(l, ctx) for l in letters)


def _term_text(coeff: Coefficient, body: str | None, ctx: JetContext) -> tuple[int, str]:
    """Sign and unsigned text of one sum term with its coefficient folded in."""
    terms = coeff.sorted_terms()
    if len(terms) == 1:
        exps, value = terms[0]
        sign, mono = _mono_text(exps, value, ctx)
        if body is None:
            return sign, mono
        if mono == "1":
            return sign, body
        return sign, f"{mono}*{body}"
    text = coefficient_text(coeff, ctx)
    if body is None:
        return 1, f"({text})"
    return 1, f"({text})*{body}"


def sum_text(f: FormalSum, ctx: JetContext) -> str:
    """Canonical text of a word sum; cyclic terms are wrapped in cyc(...)."""
    if f.is_zero():
        return "0"
    pieces = []
    for letters, coeff in f.sorted_terms():
        if f.cyclic:
            body = f"cyc({word_text(letters, ctx)})"
        else:
            body = word_text(letters, ctx) if letters else None
        sign, text = _term_text(coeff, body, ctx)
        if not pieces:
            pieces.append(text if sign > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if sign > 0 else f"- {text}")
    return " ".join(pieces)


def _sigma_text(orders: tuple[int, ...], ctx: JetContext) -> str | None:
    if not any(orders):
        return None
    if ctx.directions == 1:
        k = orders[0]
        return "D" if k == 1 else f"D^{k}"
    parts = []
    for direction, e in enumerate(orders, start=1):
        if e:
            parts.append(f"D_{direction}" if e == 1 else f"D_{direction}^{e}")
    return "*".join(parts)


def operator_text(op: DifferentialOperator, ctx: JetContext) -> str:
    """Canonical text of an operator, in op(...) grammar."""
    if op.is_zero():
        return "op(0)"
    pieces = []
    for (left, orders, right), coeff in op.sorted_terms():
        factors = []
        if left:
            factors.append(word_text(left, ctx))
        if right:
            factors.append(f"R({word_text(right, ctx)})")
        sigma = _sigma_text(orders, ctx)
        if sigma:
            factors.append(sigma)
        body = "*".join(factors) if factors else None
        sign, text = _term_text(coeff, body, ctx)
        if not pieces:
            pieces.append(text if sign > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if sign > 0 else f"- {text}")
    return "op(" + " ".join(pieces) + ")"


def covector_text(p: Covector, ctx: JetContext) -> str:
    return "cov(" + "; ".join(sum_text(c, ctx) for c in p.components) + ")"


def section_text(comps, ctx: JetContext) -> str:
    return "sec(" + "; ".join(sum_text(c, ctx) for c in comps) + ")"
