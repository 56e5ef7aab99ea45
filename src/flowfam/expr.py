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

One generator compiles every form.  ``compile_field`` and
``compile_family`` generate one straight-line function per expression or
tuple of expressions: one statement per node in post-order, each with its
check (the zero test of ``/``, the rules of ``^``, ``log`` and ``sqrt``, the
finite check after ``+ - * / ^`` and every function, and after an
expression's value when it is a literal), so errors come in the tree's
order.  ``x^k`` for a literal integer k, |k| <= 16, is a chain of products
(_power_chain) with ``pow``'s checks, not a ``pow`` call, so its bits do
not depend on the platform's libm.  ``compile_field_lanes`` and ``compile_family_lanes``
write the same statements from a second template set, over lane arrays:
each check clears the lanes it fails from one ok mask, so lane i of the
values equals the scalar form's result at lane i's point bit for bit where
ok[i], and ok[i] is False exactly where the scalar form raises EvalError.
There ``+ - * /``, negation, ``sin``, ``cos``, ``sqrt``, ``abs`` and the
product chains run in numpy, which rounds them as ``math`` and Python
floats do, while ``exp``, ``tanh``, ``log`` and any other ``^`` map their
scalar helper over the lanes (_per_lane), since numpy's versions differ
from ``math`` in the last bit for some arguments.
Both sources are built from fixed templates, slot indices and generated
names only; constants and helpers are bound in the function's namespace,
so no text of an expression is compiled.  ``statements`` gives a scalar
form's body, for code that splices it in rather than calling the form.

Expressions are immutable and compiled functions pure, so both can be
shared freely across threads; ``statements`` reads a weak map that only
the compilers write.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Union

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
    "validate_field",
    "validate_family",
    "compile_field",
    "compile_family",
    "compile_field_lanes",
    "compile_family_lanes",
    "statements",
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
_DIGITS = "0123456789"  # numbers take ASCII digits only; str.isdigit also holds for "²" and "٣"


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
        if c in _DIGITS:
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1] in _DIGITS:
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            # exponent part only when it is actually followed by digits,
            # so "2e" lexes as number then identifier
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    i = j
                    while i < n and source[i] in _DIGITS:
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
# Compilation: the trees are generated once into one straight-line function,
# over floats or over lanes

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


_CALLS = {name: _finite_call(name, fn) for name, fn in {**FUNCTIONS, "log": _log, "sqrt": _sqrt}.items()}


def _failure(kind: str, message: str):
    """What a generated check calls when it fails: raise EvalError(kind, message)."""
    def fail():
        raise EvalError(kind, message)

    return fail


def _nonfinite_power(base: float):
    """What the product rule of ``^`` calls when x^k is not finite: _pow's error at that base.

    math.pow raises OverflowError only at a finite base; at an infinite or
    NaN base its value fails the finite check after it instead.
    """
    if math.isfinite(base):
        raise EvalError("nonfinite", "overflow in power")
    raise EvalError("nonfinite", "non-finite result from '^'")


_MAX_PRODUCT_EXPONENT = 16


def _integer_exponent(e) -> int | None:
    """k when ``e`` is a literal, or a once negated one, whose value is an integer k with |k| <= 16.

    Such an exponent takes the product rule of ``^`` (see _power_chain);
    every other one calls the power helper.
    """
    negated = isinstance(e, Neg)
    literal = e.operand if negated else e
    if not (isinstance(literal, Num) and float(literal.value).is_integer()):
        return None
    k = -int(literal.value) if negated else int(literal.value)
    return k if abs(k) <= _MAX_PRODUCT_EXPONENT else None


def _power_chain(k: int) -> list[tuple[int, int]]:
    """The products that make x^k for k >= 1, in order, as exponent pairs (i, j): x^(i+j) = x^i * x^j.

    Binary powering from the low bit: the squares x^2, x^4, x^8, ... are
    made as the bits of k need them, each from the one before, and the
    result is the lowest set bit's square, times each higher set bit's
    square in turn, the result so far on the left.  So x^2 is x * x, x^3 is
    x * (x * x) and x^6 is (x*x) * ((x*x) * (x*x)); x^1 takes no product.
    """
    products, square, result = [], 1, 0
    while True:
        if k & 1:
            if result:
                products.append((result, square))
            result += square
        k >>= 1
        if not k:
            return products
        products.append((square, square))
        square *= 2


def _per_lane(fn, ok: np.ndarray, *args: np.ndarray):
    """fn applied lane by lane where ok; a lane whose call raises EvalError drops out of ok.

    One map runs fn over every lane in ok; only when a call raises are
    those lanes run again one by one, to find the ones that raise.
    """
    values, ok = np.full(ok.shape, math.nan), ok.copy()
    columns = [a[ok].tolist() for a in args]
    try:
        values[ok] = list(map(fn, *columns))
    except EvalError:
        for i, point in zip(np.flatnonzero(ok).tolist(), zip(*columns)):
            try:
                values[i] = fn(*point)
            except EvalError:
                ok[i] = False
    return values, ok


class _Templates(NamedTuple):
    """How the generator writes each kind of node, and the names its statements call."""

    helpers: dict
    binary: dict  # operator -> statements over the node's value v and its operands l, r
    # x^k for an exponent _integer_exponent takes, k != 0: the statements after the product
    # chain that makes x^|k|, over the base x and the chain's value p, for k > 0 and for k < 0
    powers: tuple
    calls: dict  # function -> (what k is bound to, statements over v, k and the argument a)
    read: tuple  # first read of scalar argument s<i> and of state component x<i>, slot i; "" reads none
    literal: str  # statement giving literal k the value v; "" uses k itself
    literal_value: str  # the finite check of an expression's value v that is a literal or a negated one
    start: tuple  # first statements of the body
    returns: tuple  # the return of one value and of a tuple of them, over their names vs


# Over floats: each check raises EvalError as it fails, so errors come in the tree's order.
_SCALAR = _Templates(
    helpers={
        "isfinite": math.isfinite,
        "power": _pow,
        "division_by_zero": _failure("division_by_zero", "division by zero"),
        "nonfinite_literal": _failure("nonfinite", "non-finite literal"),
        "zero_base": _failure("division_by_zero", "zero base with negative exponent"),
        "nonfinite_power": _nonfinite_power,
        **{f"nonfinite_{name}": _failure("nonfinite", f"non-finite result from '{op}'")
           for op, name in zip("+-*/^", ("add", "sub", "mul", "div", "pow"))},
    },
    binary={
        "+": ("if not isfinite({v} := {l} + {r}): nonfinite_add()",),
        "-": ("if not isfinite({v} := {l} - {r}): nonfinite_sub()",),
        "*": ("if not isfinite({v} := {l} * {r}): nonfinite_mul()",),
        "/": ("if {r} == 0.0: division_by_zero()", "if not isfinite({v} := {l} / {r}): nonfinite_div()"),
        "^": ("if not isfinite({v} := power({l}, {r})): nonfinite_pow()",),
    },
    # a product of floats never raises, so the zero test after the chain is still the first
    # check, and p == 0.0 after it is a nonzero base whose power underflowed
    powers=(
        ("if not isfinite({v} := {p}): nonfinite_power({x})",),
        ("if {x} == 0.0: zero_base()", "if {p} == 0.0 or not isfinite({v} := 1.0 / {p}): nonfinite_power({x})"),
    ),
    calls={fn: (_CALLS[fn], ("{v} = {k}({a})",)) for fn in FUNCTIONS},
    read=("{name} = float({name})", "{name} = float(state[{i}])"),
    literal="",
    literal_value="if not isfinite({v}): nonfinite_literal()",
    start=(),
    returns=("return {vs}", "return ({vs},)"),
)

# Over lane arrays: each check clears the lanes it fails from one ok mask
# instead, and lanes outside ok hold arbitrary values.  NaN propagation would
# not do, since (1/0)^0 is 1 in IEEE arithmetic.  x / 0 is inf or nan, so the
# finite check drops the lanes the scalar zero test rejects.  numpy's sin, cos,
# sqrt and abs round as math does; exp, log, tanh and ^ run the scalar helper
# lane by lane, since numpy's versions differ from math's in the last bit.
_LANES = _Templates(
    helpers={"isfinite": np.isfinite, "full": np.full, "column_stack": np.column_stack,
             "power": _pow, "per_lane": _per_lane},
    binary={
        "+": ("ok &= isfinite({v} := {l} + {r})",),
        "-": ("ok &= isfinite({v} := {l} - {r})",),
        "*": ("ok &= isfinite({v} := {l} * {r})",),
        "/": ("ok &= isfinite({v} := {l} / {r})",),
        "^": ("{v}, ok = per_lane(power, ok, {l}, {r})", "ok &= isfinite({v})"),
    },
    # a zero base makes 1.0 / 0.0, which the finite check clears
    powers=(("ok &= isfinite({v} := {p})",), ("ok &= isfinite({v} := 1.0 / {p})",)),
    calls={
        "sin": (np.sin, ("ok &= isfinite({v} := {k}({a}))",)),
        "cos": (np.cos, ("ok &= isfinite({v} := {k}({a}))",)),
        "abs": (np.abs, ("ok &= isfinite({v} := {k}({a}))",)),
        "sqrt": (np.sqrt, ("ok &= ~({a} < 0.0)", "ok &= isfinite({v} := {k}({a}))")),
        **{fn: (_CALLS[fn], ("{v}, ok = per_lane({k}, ok, {a})",)) for fn in ("exp", "log", "tanh")},
    },
    read=("", "{name} = state[:, {i}]"),
    literal="{v} = full(m, {k})",
    literal_value="ok &= isfinite({v})",
    start=("m = len(state)", "ok = full(m, True)"),
    returns=("return {vs}, ok", "return column_stack([{vs}]), ok"),
)


def _slot(e: Var, scalars: tuple, prefix: str, n: int) -> tuple[bool, int]:
    """(True, i) for scalar i, (False, k) for state component k, else ValidationError."""
    if e.name in scalars:
        return True, scalars.index(e.name)
    if e.name[0] == prefix and int(e.name[1:]) <= n:
        return False, int(e.name[1:]) - 1
    raise ValidationError(e.name, f"variable '{e.name}' not allowed (dimension {n})")


def _source(e, scalars: tuple, prefix: str, n: int, lanes: bool = False) -> tuple[str, dict, tuple]:
    """Source of ``generated(s0, .., state)`` computing ``e``, the values it binds as k0, k1, ..., and its body.

    ``e`` is an expression or a tuple of them, whose values come back as a
    tuple, or in lane form as the columns of one array.  A variable is read
    where it is first used: scalar i is the argument ``s<i>``, state
    component k is ``state[k]``, or column k of ``state`` in lane form.  The
    leftmost variable outside ``scalars`` and ``prefix1..prefixn`` raises
    ValidationError.  The body is (reads, lines, values) as statements()
    gives them.
    """
    templates = _LANES if lanes else _SCALAR
    lines, bound, reads = list(templates.start), {}, {}

    def bind(value) -> str:
        k = f"k{len(bound)}"
        bound[k] = value
        return k

    def node(statements, **slots) -> str:
        v = f"v{len(lines)}"
        lines.extend(statement.format(v=v, **slots) for statement in statements)
        return v

    def power(x: str, k: int) -> str:
        """x^k for an exponent _integer_exponent takes: _power_chain's products, then the checks."""
        if k == 0:
            return emit(Num(1.0))
        positive, negative = templates.powers
        made, products = {1: x}, _power_chain(abs(k))
        for i, j in products[:-1]:
            made[i + j] = node(("{v} = {l} * {r}",), l=made[i], r=made[j])
        p = "{} * {}".format(*(made[i] for i in products[-1])) if products else x
        if k > 0:
            return node(positive, p=p, x=x)
        if products:  # the reciprocal's check reads the chain's value twice
            p = node(("{v} = {p}",), p=p)
        return node(negative, p=p, x=x)

    def emit(e) -> str:
        if isinstance(e, Bin) and e.op == "^" and (k := _integer_exponent(e.right)) is not None:
            return power(emit(e.left), k)
        if isinstance(e, Bin):
            left, right = emit(e.left), emit(e.right)
            return node(templates.binary[e.op], l=left, r=right)
        if isinstance(e, Var):
            scalar, i = _slot(e, scalars, prefix, n)
            name = f"s{i}" if scalar else f"x{i}"
            first_read = templates.read[not scalar]
            if first_read and name not in reads:
                reads[name] = first_read.format(name=name, i=i)
                lines.append(reads[name])
            return name
        if isinstance(e, Num):
            k = bind(e.value)
            return node((templates.literal,), k=k) if templates.literal else k
        if isinstance(e, Call):
            arg = emit(e.arg)
            fn, statements = templates.calls[e.fn]
            return node(statements, k=bind(fn), a=arg)
        if isinstance(e, Neg):
            return node(("{v} = -{a}",), a=emit(e.operand))
        raise TypeError(f"not an expression node: {e!r}")

    def value(e) -> str:
        v, bare = emit(e), e
        while isinstance(bare, Neg):
            bare = bare.operand
        if isinstance(bare, Num):  # no node has checked it: 1e400 is infinite
            lines.append(templates.literal_value.format(v=v))
        return v

    values = list(map(value, e if isinstance(e, tuple) else (e,)))
    returns = templates.returns[isinstance(e, tuple)].format(vs=", ".join(values))
    params = ", ".join([f"s{i}" for i in range(len(scalars))] + ["state"])
    text = "".join(f"    {line}\n" for line in lines)
    body = tuple(reads), tuple(line for line in lines if line not in reads.values()), tuple(values)
    return f"def generated({params}):\n{text}    {returns}\n", bound, body


_STATEMENTS = weakref.WeakKeyDictionary()  # each scalar function _generate made -> what statements() gives


def statements(f) -> tuple | None:
    """(reads, lines, values, bound) of f when compile_field or compile_family generated it, else None.

    The body of f, to splice into other generated code: reads names each
    variable it reads, in order of first use, s<i> for scalar i and x<k>
    for state component k; lines are its other statements, values the
    names of its results, and bound the (name, value) pairs of every other
    name the lines read.  The lines compute f's values, or raise its
    EvalError, once each name in reads holds its float.
    """
    try:
        return _STATEMENTS.get(f)
    except TypeError:  # f cannot be weakly referenced, so _generate did not make it
        return None


def _generate(e, scalars: tuple, prefix: str, n: int, lanes: bool = False):
    """The function of _source(e, ...), compiled: it takes the scalars, then the state.

    The lane form runs with numpy's floating-point warnings off, since
    lanes that fail may overflow or divide by zero on their way.  The
    scalar form's body is kept for statements().
    """
    source, bound, body = _source(e, scalars, prefix, n, lanes)
    namespace = {**(_LANES if lanes else _SCALAR).helpers, **bound}
    exec(compile(source, "<flowfam expression>", "exec"), namespace)
    generated = namespace.pop("generated")  # not in its own globals, so reference counting alone frees it
    if lanes:
        return np.errstate(all="ignore")(generated)
    names = set(re.findall(r"\w+", " ".join(body[1])))
    _STATEMENTS[generated] = (*body, tuple((k, v) for k, v in namespace.items() if k in names))
    return generated


_FIELD = (("t",), "x")  # (scalars, state prefix) of each convention
_FAMILY = (("tau", "sigma"), "a")


def validate_field(e, n: int) -> None:
    """The ValidationError compile_field(e, n) raises, if any, without compiling."""
    _source(e, *_FIELD, n)


def validate_family(e, n: int) -> None:
    """The ValidationError compile_family(e, n) raises, if any, without compiling."""
    _source(e, *_FAMILY, n)


def compile_field(e, n: int) -> Callable[[float, Any], Any]:
    """f(t, x) computing ``e`` over t and x1..xn, or ValidationError; f raises EvalError.

    ``e`` may be a tuple of expressions: f then returns the tuple of their
    values, computed in order.
    """
    return _generate(e, *_FIELD, n)


def compile_family(e, n: int) -> Callable[[float, float, Any], Any]:
    """f(tau, sigma, a) computing ``e`` over tau, sigma and a1..an, or ValidationError.

    ``e`` may be a tuple of expressions: f then returns the tuple of their
    values, computed in order.
    """
    return _generate(e, *_FAMILY, n)


def compile_field_lanes(e, n: int):
    """f(t[m], x[m, n]) -> (values, ok[m]), the lane form of compile_field.

    values is values[m] for one expression, and values[m, j] for a tuple of
    them, column j holding expression j.  Where ok[i], lane i of values is
    compile_field's result at (t[i], x[i]) bit for bit; ok[i] is False
    exactly where that call raises EvalError.  Raises ValidationError as
    compile_field does.
    """
    return _generate(e, *_FIELD, n, lanes=True)


def compile_family_lanes(e, n: int):
    """f(tau[m], sigma[m], a[m, n]) -> (values, ok[m]), the lane form of compile_family.

    values is values[m] for one expression, and values[m, j] for a tuple of
    them, column j holding expression j.  Where ok[i], lane i of values is
    compile_family's result at (tau[i], sigma[i], a[i]) bit for bit; ok[i]
    is False exactly where that call raises EvalError.  Raises
    ValidationError as compile_family does.
    """
    return _generate(e, *_FAMILY, n, lanes=True)


# ---------------------------------------------------------------------------
# Printing

def format_number(v: float) -> str:
    if math.isinf(v):  # a literal too large for a double, which parses back to inf
        return "1e400" if v > 0.0 else "-1e400"
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
