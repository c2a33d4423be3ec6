"""Expression grammar and canonical printer for the CLI.

The textual language covers scalars (rationals and powers of the base
coordinates), letters with derivative suffixes, open products, cyc(...)
closures, cov(...)/sec(...) tuples, and op(...) operators.  One grammar
parses all of them: inside op(...), D, R(w) and L(w) are extra factors, a
scalar or word stands for the operator that multiplies by it on the left,
and a product with an operator composes right to left.  A divisor is a
nonzero rational everywhere.  The printer emits the same grammar, so
parse -> print -> parse is the identity on values.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import BoundExceeded, CycvarError, ParseError, PreconditionError
from .words import Coefficient, FormalSum, Letter, close, concat, monomial_key
from .jets import JetContext
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
_XMONO = re.compile(r"^x([0-9]*)(?:\^([0-9]+))?$")
_DERIV = re.compile(r"^D(?:_([0-9]+))?(?:\^([0-9]+))?$")


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def digits_value(digits: str, pos: int | None = None) -> int:
    """The integer a digit string spells; a string longer than the
    interpreter converts is a parse error, not a crash."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number with {len(digits)} digits is too long", pos) from None


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
    index = digits_value(digits, pos) if digits else 1
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
        direction = digits_value(m.group(1), pos) if m.group(1) else 1
        if not 1 <= direction <= ctx.directions:
            raise ParseError(f"direction {direction} out of range in {text!r}", pos)
        orders[direction - 1] += digits_value(m.group(2), pos)
    try:
        return ctx.letter(odd, index, tuple(orders))
    except PreconditionError as exc:
        raise ParseError(str(exc), pos) from exc


def _parse_xmono_token(text: str, pos: int, ctx: JetContext) -> Coefficient:
    digits, power = _XMONO.match(text).groups()
    direction = digits_value(digits, pos) if digits else 1
    if not 1 <= direction <= ctx.directions:
        raise ParseError(f"base coordinate {text!r} out of range", pos)
    return ctx.x_power(direction, digits_value(power, pos) if power else 1)


def _parse_deriv_token(text: str, pos: int, ctx: JetContext) -> tuple[int, int]:
    digits, power = _DERIV.match(text).groups()
    direction = digits_value(digits, pos) if digits else 1
    if not 1 <= direction <= ctx.directions:
        raise ParseError(f"derivative direction in {text!r} out of range", pos)
    return direction, digits_value(power, pos) if power else 1


# -- parsed values ---------------------------------------------------------


def kind_of(value) -> str:
    """The kind of a parsed value as messages and the CLI name it: scalar,
    open, cyclic, operator, covector or section."""
    if isinstance(value, Coefficient):
        return "scalar"
    if isinstance(value, FormalSum):
        return "cyclic" if value.cyclic else "open"
    if isinstance(value, DifferentialOperator):
        return "operator"
    return "covector" if isinstance(value, Covector) else "section"


def as_sum(value, cyclic: bool = False):
    """A scalar as that multiple of the empty word, in an open or a cyclic
    sum; any other value as itself."""
    if isinstance(value, Coefficient):
        return FormalSum.single(cyclic, (), value)
    return value


def _components(value) -> tuple[FormalSum, ...]:
    return value.components if isinstance(value, Covector) else value


# the type that cov(...) and sec(...) build from their components
_TUPLES = {"cov": Covector, "sec": tuple}


class Parser:
    def __init__(self, text: str, ctx: JetContext):
        self.ctx = ctx
        self.tokens = tokenize(text)
        self.at = 0
        self.in_op = False  # inside op(...): D, R(w), L(w) are factors

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

    def _scale(self, value, coeff):
        """The value times a Coefficient or a number."""
        if isinstance(value, Coefficient):
            return value * coeff
        if isinstance(value, (Covector, tuple)):
            return type(value)(c.scale(coeff) for c in _components(value))
        return value.scale(coeff)

    def _operator(self, value):
        """A scalar or open word as the operator that multiplies by it on
        the left; an operator as itself."""
        value = as_sum(value)
        if kind_of(value) != "open":
            return value
        return DifferentialOperator.identity(self.ctx).compose_left(value)

    def _with_operator(self, left, right) -> bool:
        return self.in_op and "operator" in (kind_of(left), kind_of(right))

    def _mul(self, left, right, pos: int):
        if self._with_operator(left, right):
            return self._operator(left).compose(self._operator(right))
        if isinstance(left, Coefficient):
            return self._scale(right, left)
        if isinstance(right, Coefficient):
            return self._scale(left, right)
        kinds = kind_of(left), kind_of(right)
        if kinds == ("open", "open"):
            return concat(left, right)
        if "cyclic" in kinds:
            raise ParseError(
                "cyclic sums cannot be multiplied inline; use the times command",
                pos,
            )
        raise ParseError(f"cannot multiply {kinds[0]} with {kinds[1]}", pos)

    def _divisor(self, divisor, pos: int) -> Fraction:
        """The value of a divisor, a nonzero constant."""
        if not isinstance(divisor, Coefficient):
            raise ParseError("division needs a scalar divisor", pos)
        value = divisor.constant_value()
        if value is None:
            raise ParseError("cannot divide by an x-dependent scalar", pos)
        if value == 0:
            raise ParseError("division by zero", pos)
        return value

    def _add(self, left, right, subtract: bool, pos: int):
        if self._with_operator(left, right):
            left, right = self._operator(left), self._operator(right)
        if isinstance(left, FormalSum):
            right = as_sum(right, left.cyclic)
        if isinstance(right, FormalSum):
            left = as_sum(left, right.cyclic)
        kind = kind_of(left)
        if kind != kind_of(right):
            raise ParseError(f"cannot add {kind} and {kind_of(right)}", pos)
        if kind in ("covector", "section"):
            pairs = zip(_components(left), _components(right))
            return type(left)((a - b) if subtract else (a + b) for a, b in pairs)
        return left - right if subtract else left + right

    # -- grammar -----------------------------------------------------------

    def parse_input(self):
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return value

    def parse_expr(self):
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.take()
                rhs = self.parse_term()
                value = self._add(value, rhs, tok.text == "-", tok.pos)
            else:
                return value

    def parse_term(self):
        """A signed product of factors.  Numbers commute with every product
        here, so the sign, the number factors and the divisors (all
        constants) are multiplied into one rational, and the product of the
        other factors is scaled by it once, at the end."""
        number = 1
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.take()
                if tok.text == "-":
                    number = -number
            else:
                break
        value, op = None, "*"
        while True:
            tok = self.peek()
            if tok.kind == "number":
                self.take()
                n = digits_value(tok.text, tok.pos)
                if op == "*":
                    number *= n
                elif n:
                    number = Fraction(number, n)
                else:
                    raise ParseError("division by zero", pos)
            elif op == "/":
                number = Fraction(number, self._divisor(self.parse_factor(), pos))
            elif value is None:
                value = self.parse_factor()
            else:
                value = self._mul(value, self.parse_factor(), pos)
            tok = self.peek()
            if not (tok.kind == "sym" and tok.text in "*/"):
                break
            self.take()
            op, pos = tok.text, tok.pos
        if value is None:
            return Coefficient.constant(number, self.ctx.directions)
        return value if number == 1 else self._scale(value, number)

    def parse_factor(self):
        """A factor other than a number, which `parse_term` reads itself."""
        tok = self.peek()
        if tok.kind == "xmono":
            self.take()
            return _parse_xmono_token(tok.text, tok.pos, self.ctx)
        if tok.kind == "letter":
            return self.parse_letters()
        if tok.kind == "kw" and (not self.in_op or tok.text in ("R", "L")):
            return self.parse_keyword()
        if tok.kind == "sym" and tok.text == "(":
            self.take()
            return self.parse_group(self.in_op)
        if tok.kind == "deriv":
            if not self.in_op:
                raise ParseError("derivative factors only make sense inside op(...)", tok.pos)
            self.take()
            direction, power = _parse_deriv_token(tok.text, tok.pos, self.ctx)
            return from_derivative(self.ctx, direction, power)
        where = " inside op(...)" if self.in_op else ""
        raise ParseError(
            f"unexpected {tok.text!r}{where}" if tok.text else "unexpected end of input",
            tok.pos,
        )

    def parse_letters(self) -> FormalSum:
        """A run l1*l2*...*lk of letter factors as one word.  Concatenation
        and composition are associative, so this is the value of the
        left-to-right product.  A letter after the first that does not
        parse ends the run: it is read again, and its error raised, only
        after the product with the factors before it, as in a fold."""
        tokens, ctx = self.tokens, self.ctx
        tok = self.take()
        letters = [_parse_letter_token(tok.text, tok.pos, ctx)]
        while tokens[self.at].text == "*" and tokens[self.at + 1].kind == "letter":
            tok = tokens[self.at + 1]
            try:
                letters.append(_parse_letter_token(tok.text, tok.pos, ctx))
            except CycvarError:
                break
            self.at += 2
        return FormalSum.single(False, tuple(letters), ctx.one())

    def parse_group(self, in_op: bool):
        """An expression and its closing parenthesis, parsed with the
        operator flag set to `in_op`."""
        outer, self.in_op = self.in_op, in_op
        value = self.parse_expr()
        self.in_op = outer
        self.expect_sym(")")
        return value

    def parse_keyword(self):
        tok = self.take()
        name = tok.text
        self.expect_sym("(")
        if name in _TUPLES:
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
            return _TUPLES[name](comps)
        if name == "op":
            return self._operator(self.parse_group(True))
        if name != "cyc" and not self.in_op:
            raise ParseError(f"{name}(...) only makes sense inside op(...)", tok.pos)
        inner = as_sum(self.parse_group(False))
        if kind_of(inner) != "open":
            raise ParseError(f"{name}(...) needs an open-word expression", tok.pos)
        if name == "cyc":
            return close(inner)
        if name == "L":
            return self._operator(inner)
        return DifferentialOperator.identity(self.ctx).compose_right(inner)

    def parse_component(self, pos: int) -> FormalSum:
        value = as_sum(self.parse_expr())
        if kind_of(value) != "open":
            raise ParseError("tuple components must be open-word expressions", pos)
        return value


# -- public parse helpers --------------------------------------------------


def parse_value(text: str, ctx: JetContext):
    """The value an expression denotes, as the library object itself: a
    Coefficient for a scalar, a FormalSum for an open or a cyclic sum, a
    DifferentialOperator, a Covector, or a tuple of open sums for a
    section."""
    try:
        return Parser(text, ctx).parse_input()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


def parse_cyclic(text: str, ctx: JetContext) -> FormalSum:
    value = as_sum(parse_value(text, ctx), cyclic=True)
    kind = kind_of(value)
    if kind == "open":
        raise ParseError("expected a cyclic expression; wrap words in cyc(...)")
    if kind != "cyclic":
        raise ParseError(f"expected a cyclic expression, got {kind}")
    return value


def parse_open(text: str, ctx: JetContext) -> FormalSum:
    value = as_sum(parse_value(text, ctx))
    if kind_of(value) != "open":
        raise ParseError(f"expected an open-word expression, got {kind_of(value)}")
    return value


def parse_operator(text: str, ctx: JetContext) -> DifferentialOperator:
    value = parse_value(text, ctx)
    if not isinstance(value, DifferentialOperator):
        raise ParseError(f"expected op(...), got {kind_of(value)}")
    return value


def _parse_tuple(text: str, ctx: JetContext, name: str):
    """A cov(...) or sec(...) value; with one field, a scalar or open-word
    expression stands for the tuple of itself."""
    value = parse_value(text, ctx)
    build = _TUPLES[name]
    if isinstance(value, build):
        return value
    if ctx.fields == 1 and kind_of(value) in ("scalar", "open"):
        return build((as_sum(value),))
    raise ParseError(f"expected {name}(...), got {kind_of(value)}")


def parse_covector(text: str, ctx: JetContext) -> Covector:
    return _parse_tuple(text, ctx, "cov")


def parse_section_tuple(text: str, ctx: JetContext) -> tuple[FormalSum, ...]:
    return _parse_tuple(text, ctx, "sec")


# -- printer ---------------------------------------------------------------


def number_text(value) -> str:
    """Decimal text of an int; a number longer than the interpreter
    converts is an exceeded bound, not a crash."""
    try:
        return str(value)
    except ValueError:
        raise BoundExceeded(
            f"a number in the result has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _x_name(direction: int, ctx: JetContext) -> str:
    return "x" if ctx.directions == 1 else f"x{direction}"


def _value_text(num: int, den: int) -> str:
    """Decimal text of the rational num/den (den >= 1), in lowest terms."""
    if den != 1:
        g = gcd(num, den)
        if g != den:
            return f"{number_text(num // g)}/{number_text(den // g)}"
        num //= den
    return number_text(num)


def _mono_text(exps: tuple[int, ...], num: int, den: int, ctx: JetContext) -> str:
    """Signed text of one scalar monomial with the value num/den."""
    xs = []
    for direction, e in enumerate(exps, start=1):
        if e:
            name = _x_name(direction, ctx)
            xs.append(name if e == 1 else f"{name}^{number_text(e)}")
    if not xs:
        return _value_text(num, den)
    if num == den:
        return "*".join(xs)
    if num == -den:
        return "-" + "*".join(xs)
    return "*".join([_value_text(num, den), *xs])


def _signed_join(texts) -> str:
    """Join signed texts as `t1 + t2 - t3`."""
    out = []
    for text in texts:
        if not out:
            out.append(text)
        elif text[0] == "-":
            out.append(f"- {text[1:]}")
        else:
            out.append(f"+ {text}")
    return " ".join(out)


def coefficient_text(c: Coefficient, ctx: JetContext) -> str:
    """Canonical text of a scalar polynomial, parseable by the grammar.  Each
    value is printed from the stored numerator and denominator."""
    nums, den = c.nums, c.den
    if len(nums) == 1:
        ((exps, num),) = nums.items()
        if not any(exps):
            return _value_text(num, den)
    ordered = sorted(nums.items(), key=lambda kv: monomial_key(kv[0]))
    return _signed_join(_mono_text(exps, num, den, ctx) for exps, num in ordered) or "0"


def letter_text(letter: Letter, ctx: JetContext) -> str:
    name = "b" if letter.odd else "a"
    if ctx.fields > 1 or letter.index > 1:
        name += number_text(letter.index)
    if ctx.directions == 1:
        k = letter.orders[0]
        if k == 0:
            suffix = ""
        elif k <= 3:
            suffix = "_" + "x" * k
        else:
            suffix = f"_{{x,{number_text(k)}}}"
        return name + suffix
    out = name
    for direction, e in enumerate(letter.orders, start=1):
        if e:
            out += f"_{{x^{direction},{number_text(e)}}}"
    return out


def word_text(letters, ctx: JetContext, names: dict | None = None) -> str:
    """Text of a word.  `names` maps letters to their text; a printing call
    passes one dict to all its words, so each letter is named once."""
    if not letters:
        return "1"
    if names is None:
        names = {}
    out = []
    for l in letters:
        text = names.get(l)
        if text is None:
            text = names[l] = letter_text(l, ctx)
        out.append(text)
    return "*".join(out)


def _term_text(coeff: Coefficient, body: str | None, ctx: JetContext) -> str:
    """Signed text of one sum term with its coefficient folded in."""
    text = coefficient_text(coeff, ctx)
    if len(coeff.nums) != 1:
        text = f"({text})"
    if body is None:
        return text
    if text == "1":
        return body
    if text == "-1":
        return "-" + body
    return f"{text}*{body}"


def sum_text(f: FormalSum, ctx: JetContext) -> str:
    """Canonical text of a word sum; cyclic terms are wrapped in cyc(...)."""
    if f.is_zero():
        return "0"
    names = {}
    pieces = []
    for letters, coeff in f.sorted_terms():
        if f.cyclic:
            body = f"cyc({word_text(letters, ctx, names)})"
        else:
            body = word_text(letters, ctx, names) if letters else None
        pieces.append(_term_text(coeff, body, ctx))
    return _signed_join(pieces)


def _sigma_text(orders: tuple[int, ...], ctx: JetContext) -> str | None:
    if not any(orders):
        return None
    if ctx.directions == 1:
        k = orders[0]
        return "D" if k == 1 else f"D^{number_text(k)}"
    parts = []
    for direction, e in enumerate(orders, start=1):
        if e:
            parts.append(f"D_{direction}" if e == 1 else f"D_{direction}^{number_text(e)}")
    return "*".join(parts)


def operator_text(op: DifferentialOperator, ctx: JetContext) -> str:
    """Canonical text of an operator, in op(...) grammar."""
    if op.is_zero():
        return "op(0)"
    names = {}
    pieces = []
    for (left, orders, right), coeff in op.sorted_terms():
        factors = []
        if left:
            factors.append(word_text(left, ctx, names))
        if right:
            factors.append(f"R({word_text(right, ctx, names)})")
        sigma = _sigma_text(orders, ctx)
        if sigma:
            factors.append(sigma)
        pieces.append(_term_text(coeff, "*".join(factors) if factors else None, ctx))
    return "op(" + _signed_join(pieces) + ")"


def covector_text(p: Covector, ctx: JetContext) -> str:
    return "cov(" + "; ".join(sum_text(c, ctx) for c in p.components) + ")"


def section_text(comps, ctx: JetContext) -> str:
    return "sec(" + "; ".join(sum_text(c, ctx) for c in comps) + ")"
