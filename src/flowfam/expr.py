"""Small arithmetic expression language used throughout the package.

Expressions define vector fields, domain predicates, and closed-form flow
maps inside config files.  The grammar is frozen (see docs/expressions.md):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          right associative
    atom    := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus on its left (``-x1^2`` is ``-(x1^2)``)
while the exponent itself may carry a sign (``x1^-2``).  Whitespace is
insignificant.  Numeric literals are non-negative by construction; unary
minus owns the sign.

Two variable conventions share one parser.  Vector fields and predicates
are written over ``t, x1..xn``; flow maps are written over
``tau, sigma, a1..an``.  ``parse`` accepts either spelling, and
``compile_field`` / ``compile_family`` enforce the convention for a given
context and dimension as they compile.  Any other identifier is rejected at parse time.

``compile_field_lanes`` and ``compile_family_lanes`` compile an expression
a second way, over lane arrays: lane i of its values equals
``compile_field``'s or ``compile_family``'s result at lane i's point bit for
bit, and its ok mask is False exactly where that call raises EvalError.
``+ - * /``, negation, ``sin``, ``cos``, ``sqrt`` and ``abs`` run
elementwise in numpy, which rounds them as ``math`` and Python floats do;
``exp``, ``tanh``, ``log`` and ``^`` call the ``math`` functions lane by
lane, since numpy's versions differ from ``math`` in the last bit for some
arguments.  ``^`` checks its domain rules as masks first, so ``math.pow``
runs only on the lanes it accepts.

Everything here is immutable and pure, so expressions can be shared freely
across threads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

__all__ = [
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "Expression",
    "ParseError",
    "EvalError",
    "ValidationError",
    "FUNCTIONS",
    "parse",
    "compile_field",
    "compile_family",
    "compile_field_lanes",
    "compile_family_lanes",
    "pretty_print",
    "format_number",
]


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, Bin, Call]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}

# t/x for field expressions, tau/sigma/a for family expressions; indices
# start at 1, no leading zeros.
_VAR_RE = re.compile(r"(?:t|tau|sigma|[xa][1-9][0-9]*)\Z")


class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte offset into the source."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.message = message


class EvalError(ArithmeticError):
    """Runtime evaluation failure.

    ``kind`` is one of ``division_by_zero``, ``domain`` (log/sqrt of a
    negative, fractional power of a negative base), ``nonfinite``
    (overflow to inf or nan).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class ValidationError(ValueError):
    """A variable falls outside the declared convention or dimension."""

    def __init__(self, variable: str, message: str | None = None):
        super().__init__(message or f"variable '{variable}' not allowed here")
        self.variable = variable


# ---------------------------------------------------------------------------
# Tokenizer

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | eof
    text: str
    offset: int


def _byte_offset(source: str, index: int) -> int:
    # offsets are reported in bytes so editors can seek; identical to the
    # character index for plain ASCII input
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        start = i
        if c.isdigit():
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            # exponent part only when it is actually followed by digits,
            # so "2e" lexes as number then identifier
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(_Token("num", source[start:i], _byte_offset(source, start)))
            continue
        if c.isalpha() or c == "_":
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("ident", source[start:i], _byte_offset(source, start)))
            continue
        if c in _OPS:
            tokens.append(_Token("op", c, _byte_offset(source, start)))
            i += 1
            continue
        raise ParseError(_byte_offset(source, i), f"unexpected character '{c}'")
    tokens.append(_Token("eof", "", _byte_offset(source, n)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, grammar above)

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Expression:
        left = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            left = Bin(op, left, self.term())
        return left

    def term(self) -> Expression:
        left = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            left = Bin(op, left, self.factor())
        return left

    def factor(self) -> Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expression:
        tok = self.advance()
        if tok.kind == "eof":
            raise ParseError(tok.offset, "unexpected end of input")
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(tok.offset, f"unknown function '{tok.text}'")
                self.advance()
                arg = self.expr()
                self._expect_rparen()
                return Call(tok.text, arg)
            if _VAR_RE.match(tok.text):
                return Var(tok.text)
            if tok.text in FUNCTIONS:
                raise ParseError(tok.offset, f"expected '(' after function name '{tok.text}'")
            raise ParseError(tok.offset, f"bad variable name '{tok.text}'")
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self._expect_rparen()
            return inner
        raise ParseError(tok.offset, f"unexpected token '{tok.text}'")

    def _expect_rparen(self) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == ")":
            self.advance()
            return
        raise ParseError(tok.offset, "unbalanced parenthesis: expected ')'")


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression tree.

    Raises ParseError (with a byte offset and message) on any syntax
    problem: unexpected token, truncated input, unbalanced parenthesis,
    unknown function, bad variable name.  Pure: identical input always
    yields an identical tree.
    """
    parser = _Parser(_tokenize(source))
    tree = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(tok.offset, f"unexpected token '{tok.text}'")
    return tree


# ---------------------------------------------------------------------------
# Compilation: the tree is walked once, into nested closures

def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division_by_zero", "division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalError("division_by_zero", "zero base with negative exponent")
    if a < 0.0 and not float(b).is_integer():
        raise EvalError("domain", "fractional power of negative base")
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalError("nonfinite", "overflow in power") from None


def _log(a: float) -> float:
    if a <= 0.0:
        raise EvalError("domain", "log of non-positive value")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise EvalError("domain", "sqrt of negative value")
    return math.sqrt(a)


def _finite_call(name: str, fn):
    def call(a: float) -> float:
        try:
            v = fn(a)
        except OverflowError:
            raise EvalError("nonfinite", f"overflow in {name}") from None
        except ValueError:  # sin or cos of an infinite literal such as 1e400
            raise EvalError("nonfinite", f"non-finite argument to {name}") from None
        if not math.isfinite(v):
            raise EvalError("nonfinite", f"non-finite result from {name}")
        return v

    return call


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}
_CALLS = {**{name: _finite_call(name, fn) for name, fn in FUNCTIONS.items()}, "log": _log, "sqrt": _sqrt}


def _slot(e: Var, scalars: tuple, prefix: str, n: int) -> tuple[bool, int]:
    """(True, i) for scalar i, (False, k) for state component k, else ValidationError."""
    if e.name in scalars:
        return True, scalars.index(e.name)
    if e.name[0] == prefix and int(e.name[1:]) <= n:
        return False, int(e.name[1:]) - 1
    raise ValidationError(e.name, f"variable '{e.name}' not allowed (dimension {n})")


def _build(e: Expression, scalars: tuple, prefix: str, n: int):
    """Closure computing ``e`` from ``env = (*scalar values, state)``; the leftmost
    variable outside ``scalars`` and ``prefix1..prefixn`` raises ValidationError."""
    if isinstance(e, Bin):
        left, right = _build(e.left, scalars, prefix, n), _build(e.right, scalars, prefix, n)
        op, message = _OPERATORS[e.op], f"non-finite result from '{e.op}'"

        def binary(env):
            v = op(left(env), right(env))
            if not math.isfinite(v):
                raise EvalError("nonfinite", message)
            return v

        return binary
    if isinstance(e, Var):
        scalar, i = _slot(e, scalars, prefix, n)
        if scalar:
            return operator.itemgetter(i)
        return lambda env: float(env[-1][i])  # the state, read when the closure runs
    if isinstance(e, Num):
        value = e.value
        return lambda env: value
    if isinstance(e, Call):
        fn, arg = _CALLS[e.fn], _build(e.arg, scalars, prefix, n)
        return lambda env: fn(arg(env))
    if isinstance(e, Neg):
        operand = _build(e.operand, scalars, prefix, n)
        return lambda env: -operand(env)
    raise TypeError(f"not an expression node: {e!r}")


def compile_field(e: Expression, n: int) -> Callable[[float, Any], float]:
    """f(t, x) computing ``e`` over t and x1..xn, or ValidationError; f raises EvalError."""
    f = _build(e, ("t",), "x", n)
    return lambda t, x: f((float(t), x))


def compile_family(e: Expression, n: int) -> Callable[[float, float, Any], float]:
    """f(tau, sigma, a) computing ``e`` over tau, sigma and a1..an, or ValidationError."""
    f = _build(e, ("tau", "sigma"), "a", n)
    return lambda tau, sigma, a: f((float(tau), float(sigma), a))


# ---------------------------------------------------------------------------
# Lane compilation: the same tree over arrays of points, with an ok mask

_ELEMENTWISE = {"sin": np.sin, "cos": np.cos, "abs": np.abs}  # then the finite check


def _per_lane(fn, ok: np.ndarray, *args: np.ndarray):
    """fn applied lane by lane where ok; a lane whose call raises EvalError drops out of ok."""
    values, ok = np.full(ok.shape, math.nan), ok.copy()
    columns = [a.tolist() for a in args]
    for i in np.flatnonzero(ok).tolist():
        try:
            values[i] = fn(*[c[i] for c in columns])
        except EvalError:
            ok[i] = False
    return values, ok


def _power_lanes(left, right):
    """Lane closure of ``left ^ right``: _pow's domain rules as masks, then math.pow lane by lane.

    A zero base with a negative exponent and a negative base with an
    exponent that is not an integer drop out first, so math.pow sees only
    lanes it accepts; on an overflow the lanes go through _pow one by one
    instead.
    """
    def power(env):
        (x, x_ok), (y, y_ok) = left(env), right(env)
        fractional = ~np.isfinite(y) | (np.floor(y) != y)  # float.is_integer's False
        ok = x_ok & y_ok & ~((x == 0.0) & (y < 0.0)) & ~((x < 0.0) & fractional)
        try:
            if ok.all():
                v = np.array(list(map(math.pow, x.tolist(), y.tolist())))
            else:
                v = np.full(ok.shape, math.nan)
                v[ok] = list(map(math.pow, x[ok].tolist(), y[ok].tolist()))
        except OverflowError:
            v, ok = _per_lane(_pow, x_ok & y_ok, x, y)
        return v, ok & np.isfinite(v)

    return power


def _build_lanes(e: Expression, scalars: tuple, prefix: str, n: int):
    """Lane closure: ``env = (*scalar arrays, states[m, n])`` to (values[m], ok[m]).

    ok tracks each check of the scalar closure explicitly; NaN propagation
    would not do, since ``(1/0)^0`` is 1 in IEEE arithmetic.  Lanes outside
    ok hold arbitrary values.
    """
    if isinstance(e, Bin):
        left, right = _build_lanes(e.left, scalars, prefix, n), _build_lanes(e.right, scalars, prefix, n)
        if e.op == "^":
            return _power_lanes(left, right)
        # x / 0 is inf or nan here, so the finite check drops the lanes _div rejects
        op = operator.truediv if e.op == "/" else _OPERATORS[e.op]

        def binary(env):
            (x, x_ok), (y, y_ok) = left(env), right(env)
            v = op(x, y)
            return v, x_ok & y_ok & np.isfinite(v)

        return binary
    if isinstance(e, Var):
        scalar, i = _slot(e, scalars, prefix, n)
        if scalar:
            return lambda env: (env[i], np.ones(env[i].shape, dtype=bool))
        return lambda env: (env[-1][:, i], np.ones(env[-1].shape[0], dtype=bool))
    if isinstance(e, Num):
        value = e.value
        return lambda env: (np.full(env[-1].shape[0], value), np.ones(env[-1].shape[0], dtype=bool))
    if isinstance(e, Call):
        arg = _build_lanes(e.arg, scalars, prefix, n)
        if e.fn == "sqrt":
            def root(env):
                x, ok = arg(env)
                return np.sqrt(x), ok & ~(x < 0.0)

            return root
        if e.fn in _ELEMENTWISE:
            fn = _ELEMENTWISE[e.fn]

            def elementwise(env):
                x, ok = arg(env)
                v = fn(x)
                return v, ok & np.isfinite(v)

            return elementwise
        fn = _CALLS[e.fn]

        def scalar_call(env):
            x, ok = arg(env)
            return _per_lane(fn, ok, x)

        return scalar_call
    if isinstance(e, Neg):
        operand = _build_lanes(e.operand, scalars, prefix, n)

        def negate(env):
            x, ok = operand(env)
            return -x, ok

        return negate
    raise TypeError(f"not an expression node: {e!r}")


def _quiet(f):
    def lanes(*env):
        with np.errstate(all="ignore"):  # failed lanes may overflow or divide by zero
            return f(env)

    return lanes


def compile_field_lanes(e: Expression, n: int):
    """f(t[m], x[m, n]) -> (values[m], ok[m]), the lane form of compile_field.

    Where ok[i], values[i] is compile_field's result at (t[i], x[i]) bit for
    bit; ok[i] is False exactly where that call raises EvalError.  Raises
    ValidationError as compile_field does.
    """
    return _quiet(_build_lanes(e, ("t",), "x", n))


def compile_family_lanes(e: Expression, n: int):
    """f(tau[m], sigma[m], a[m, n]) -> (values[m], ok[m]), the lane form of compile_family.

    Where ok[i], values[i] is compile_family's result at (tau[i], sigma[i],
    a[i]) bit for bit; ok[i] is False exactly where that call raises
    EvalError.  Raises ValidationError as compile_family does.
    """
    return _quiet(_build_lanes(e, ("tau", "sigma"), "a", n))


# ---------------------------------------------------------------------------
# Printing

def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty_print(e: Expression) -> str:
    """Canonical fully-parenthesized rendering; parses back to an equal tree."""
    if isinstance(e, Num):
        return format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{pretty_print(e.operand)})"
    if isinstance(e, Bin):
        return f"({pretty_print(e.left)} {e.op} {pretty_print(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({pretty_print(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")
