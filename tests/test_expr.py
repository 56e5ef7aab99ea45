"""Expression language: parser, printer, evaluator, validation."""

import io
import json
import math
import re
import sys
import tokenize
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam import catalog
from flowfam import expr as fx
from flowfam.expr import (
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    ValidationError,
    Var,
    compile_family,
    compile_family_lanes,
    compile_field,
    compile_field_lanes,
    parse,
    pretty_print,
    validate_family,
    validate_field,
)

# Golden corpus: (source, canonical fully-parenthesized form).  Every entry
# must round-trip source -> tree -> canonical -> same tree.
CORPUS = [
    ("x1^2", "(x1 ^ 2)"),
    ("t*x1 + sin(t)", "((t * x1) + sin(t))"),
    ("-x1", "(-x1)"),
    ("1 + 2*3", "(1 + (2 * 3))"),
    ("(1+2)*3", "((1 + 2) * 3)"),
    ("2^3^2", "(2 ^ (3 ^ 2))"),
    ("1 - 2 - 3", "((1 - 2) - 3)"),
    ("8/4/2", "((8 / 4) / 2)"),
    ("-x1^2", "(-(x1 ^ 2))"),
    ("x1^-2", "(x1 ^ (-2))"),
    ("sin(cos(x1))", "sin(cos(x1))"),
    ("exp(t - 1)", "exp((t - 1))"),
    ("sqrt(abs(x2))", "sqrt(abs(x2))"),
    ("log(x1 + 1)", "log((x1 + 1))"),
    ("tanh(t)*x1", "(tanh(t) * x1)"),
    ("a1/(1 + (sigma - tau)*a1)", "(a1 / (1 + ((sigma - tau) * a1)))"),
    ("exp(tau - sigma)*a1", "(exp((tau - sigma)) * a1)"),
    (
        "cos(tau - sigma)*a1 - sin(tau - sigma)*a2",
        "((cos((tau - sigma)) * a1) - (sin((tau - sigma)) * a2))",
    ),
    ("0.5*x1", "(0.5 * x1)"),
    ("2e3", "2000"),
    ("1.5e-2", "0.015"),
    ("x12 + x3", "(x12 + x3)"),
    ("t", "t"),
    ("42", "42"),
    ("--x1", "(-(-x1))"),
    ("-(x1 + t)", "(-(x1 + t))"),
    ("x1 * -t", "(x1 * (-t))"),
    ("1/(x1^2 + 1)", "(1 / ((x1 ^ 2) + 1))"),
    ("abs(-t)", "abs((-t))"),
    ("exp((tau^2 - sigma^2)/2)*a1", "(exp((((tau ^ 2) - (sigma ^ 2)) / 2)) * a1)"),
    ("x1 + x2 + x3", "((x1 + x2) + x3)"),
    ("sin(t)^2 + cos(t)^2", "((sin(t) ^ 2) + (cos(t) ^ 2))"),
    ("1 - (tau - sigma)*a1", "(1 - ((tau - sigma) * a1))"),
    ("exp(tau)*a1 - exp(sigma)*a2", "((exp(tau) * a1) - (exp(sigma) * a2))"),
]


@pytest.mark.parametrize("source,canonical", CORPUS)
def test_corpus_round_trip(source, canonical):
    tree = parse(source)
    assert pretty_print(tree) == canonical
    assert parse(canonical) == tree


def test_corpus_size():
    assert len(CORPUS) >= 30


def test_tree_shapes():
    assert parse("x1^2") == Bin("^", Var("x1"), Num(2.0))
    assert parse("t*x1 + sin(t)") == Bin(
        "+", Bin("*", Var("t"), Var("x1")), Call("sin", Var("t"))
    )
    assert parse("-x1^2") == Neg(Bin("^", Var("x1"), Num(2.0)))
    assert parse("2^3^2") == Bin("^", Num(2.0), Bin("^", Num(3.0), Num(2.0)))
    assert parse("x1--2") == Bin("-", Var("x1"), Neg(Num(2.0)))


def test_whitespace_insignificant():
    assert parse("x1+t") == parse("  x1 +\tt ")
    assert parse("sin( x1 )") == parse("sin(x1)")


def test_parse_deterministic():
    src = "exp(t)*(x1+1)-1"
    assert parse(src) == parse(src)


# The three documented error cases, byte offsets pinned.
@pytest.mark.parametrize(
    "source,offset,fragment",
    [
        ("x1 +", 4, "unexpected end of input"),
        ("(x1", 3, "expected ')'"),
        ("foo(1)", 0, "unknown function"),
    ],
)
def test_documented_errors(source, offset, fragment):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset
    assert fragment in exc.value.message


@pytest.mark.parametrize(
    "source,offset",
    [
        ("x0", 0),        # indices start at 1
        ("x01", 0),       # no leading zeros
        ("2 + $", 4),     # stray character
        ("x1 x2", 3),     # juxtaposition is not multiplication
        ("sin + 1", 0),   # function name used as a variable
        ("()", 1),        # empty parenthesis
        ("y1 + 1", 0),    # unknown prefix
        ("1 +* 2", 3),    # doubled operator
    ],
)
def test_error_offsets(source, offset):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset


# str.isdigit holds for superscripts and other scripts' digits; a number takes
# ASCII digits only, so these are stray characters at their byte offsets.
@pytest.mark.parametrize(
    "source,offset,char",
    [
        ("²", 0, "²"),
        ("1+²", 2, "²"),
        ("x1 + ²", 5, "²"),
        ("٣*x1", 0, "٣"),
        ("1.²", 1, "."),     # no ASCII digit after the point: the point is stray
        ("é+²", 3, "²"),     # é takes two bytes
    ],
)
def test_non_ascii_digits_are_unexpected_characters(source, offset, char):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.offset, exc.value.message) == (offset, f"unexpected character '{char}'")


# float.hex of each CORPUS entry's value, or its EvalError kind, at the two
# points of the table, under the convention the entry validates against.
CORPUS_EVAL = Path(__file__).parent / "golden" / "expr_corpus_eval.json"


def _corpus_row(source, point):
    tree, t, state = parse(source), point["time"], point["state"]
    try:
        convention, run = "field", partial(compile_field(tree, len(state)), t, state)
    except ValidationError:
        convention, run = "family", partial(compile_family(tree, len(state)), t, point["sigma"], state)
    try:
        return [convention, run().hex()]
    except EvalError as err:
        return [convention, err.kind]


def test_corpus_evaluation_pinned():
    table = json.loads(CORPUS_EVAL.read_text())
    got = {source: [_corpus_row(source, p) for p in table["points"]] for source, _ in CORPUS}
    assert got == table["rows"]


def test_evaluate_basics():
    assert compile_field(parse("x1^2"), 1)(0.0, [0.5]) == 0.25
    assert compile_field(parse("x1^3"), 1)(0.0, [-2.0]) == -8.0
    # under a negative exponent an overflowing product is no error: 1/inf is 0, as pow(1e200, -2) is
    for source, x, want in (("x1^-2", 1e200, 0.0), ("x1^-3", -1e200, -0.0), ("1e400^-1", 0.0, 0.0)):
        assert compile_field(parse(source), 1)(0.0, [x]).hex() == want.hex()
    got = compile_field(parse("exp(t)*(x1+1)-1"), 1)(math.log(2.0), [0.0])
    assert abs(got - 1.0) <= 1e-12
    assert compile_family(parse("a1/(1 + (sigma - tau)*a1)"), 1)(1.0, 0.0, [0.5]) == 1.0
    assert compile_family(parse("tau - sigma"), 1)(3.0, 1.0, [0.0]) == 2.0


@pytest.mark.parametrize(
    "source,x,kind",
    [
        ("1/x1", [0.0], "division_by_zero"),
        ("x1^-1", [0.0], "division_by_zero"),
        ("log(x1)", [-1.0], "domain"),
        ("log(x1)", [0.0], "domain"),
        ("sqrt(x1)", [-4.0], "domain"),
        ("x1^0.5", [-2.0], "domain"),
        ("exp(x1)", [1000.0], "nonfinite"),
        ("x1*x1", [1e200], "nonfinite"),
        ("x1^400", [10.0], "nonfinite"),
        ("sin(1e400)", [0.0], "nonfinite"),  # math.sin raises ValueError on inf
        ("cos(-1e400)", [0.0], "nonfinite"),
    ],
)
def test_eval_error_kinds(source, x, kind):
    f = compile_field(parse(source), len(x))
    with pytest.raises(EvalError) as exc:
        f(0.0, x)
    assert exc.value.kind == kind


@pytest.mark.parametrize(
    "source,x,kind,message",
    [
        ("1/x1", [0.0], "division_by_zero", "division by zero"),
        ("x1^-1", [0.0], "division_by_zero", "zero base with negative exponent"),
        ("x1 + 1e308", [1e308], "nonfinite", "non-finite result from '+'"),
        ("-1e308 - x1", [1e308], "nonfinite", "non-finite result from '-'"),
        ("x1*x1", [1e200], "nonfinite", "non-finite result from '*'"),
        ("x1/1e-300", [1e100], "nonfinite", "non-finite result from '/'"),
        ("1e400^2", [0.0], "nonfinite", "non-finite result from '^'"),
        ("log(x1)", [-1.0], "domain", "log of non-positive value"),
        ("sqrt(x1)", [-4.0], "domain", "sqrt of negative value"),
        ("x1^0.5", [-2.0], "domain", "fractional power of negative base"),
        ("x1^400", [10.0], "nonfinite", "overflow in power"),
        ("exp(x1)", [1000.0], "nonfinite", "overflow in exp"),
        ("abs(1e400)", [0.0], "nonfinite", "non-finite result from abs"),
        ("sin(1e400)", [0.0], "nonfinite", "non-finite argument to sin"),
        # the checks run in the tree's order, left operand first
        ("1/x1 + log(x2)", [0.0, -1.0], "division_by_zero", "division by zero"),
        ("log(x2) + 1/x1", [0.0, -1.0], "domain", "log of non-positive value"),
        ("(x1 - x1)^-1 * 1e400", [2.0, 0.0], "division_by_zero", "zero base with negative exponent"),
        # an infinite literal raises where a function takes it or where it is the whole value
        ("log(1e400)", [0.0], "nonfinite", "non-finite result from log"),
        ("sqrt(1e400)", [0.0], "nonfinite", "non-finite result from sqrt"),
        ("1e400", [0.0], "nonfinite", "non-finite literal"),
        ("-1e400", [0.0], "nonfinite", "non-finite literal"),
        # a literal integer exponent is a chain of products that raises as pow does
        ("x1^-2", [1e-200], "nonfinite", "overflow in power"),  # x*x underflows to 0, and 1/0 overflows
        ("x1^3", [-1e103], "nonfinite", "overflow in power"),
        ("x1^2", [math.nan], "nonfinite", "non-finite result from '^'"),
        ("x1^1", [math.inf], "nonfinite", "non-finite result from '^'"),
        ("(-1e400)^3", [0.0], "nonfinite", "non-finite result from '^'"),
    ],
)
def test_eval_error_kinds_and_messages(source, x, kind, message):
    f = compile_field(parse(source), len(x))
    with pytest.raises(EvalError) as exc:
        f(0.0, x)
    assert (exc.value.kind, str(exc.value)) == (kind, message)


# Every token the generator may write: both template sets' words and operators,
# generated names (scalar arguments s<i>, state components x<i>, node values
# v<i>, bound constants and helpers k<i>), slot indices, the zero test and the
# 1.0 of a negative integer power's reciprocal.
_GENERATED_WORDS = {
    "def", "generated", "state", "return", "if", "not", "float", "isfinite", "power", "division_by_zero",
    "nonfinite_add", "nonfinite_sub", "nonfinite_mul", "nonfinite_div", "nonfinite_pow", "nonfinite_literal",
    "zero_base", "nonfinite_power", "or",
    "m", "len", "ok", "full", "True", "per_lane", "column_stack",
}
_GENERATED_OPS = {"(", ")", "[", "]", ",", ":", "=", ":=", "==", "+", "-", "*", "/", "&=", "~", "<"}
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _foreign_tokens(source):
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.NAME and (tok.string in _GENERATED_WORDS or re.fullmatch(r"[svxk][0-9]+", tok.string)):
            continue
        if tok.type == tokenize.OP and tok.string in _GENERATED_OPS:
            continue
        if tok.type == tokenize.NUMBER and re.fullmatch(r"[0-9]+|[01]\.0", tok.string):
            continue
        found.append(tok.string)
    return found


def _generated_source(tree, n, lanes=False):
    try:
        return fx._source(tree, ("t",), "x", n, lanes)[0]
    except ValidationError:
        return fx._source(tree, ("tau", "sigma"), "a", n, lanes)[0]


@pytest.mark.parametrize("source", [src for src, _ in CORPUS])
def test_generated_source_uses_only_the_generators_tokens(source):
    for lanes in (False, True):
        assert _foreign_tokens(_generated_source(parse(source), 12, lanes)) == [], lanes


def test_generated_source_takes_no_text_from_the_expression():
    tree = parse("exp(x12*123.25e1) / sqrt(t + 0.1) - x3^-2.5 + abs(sin(x1))")
    for lanes in (False, True):
        text = _generated_source(tree, 12, lanes)
        assert _foreign_tokens(text) == []
        for spelling in ("x12", "123.25", "1232.5", "0.1", "2.5", "exp", "sqrt", "abs", "sin", "t +"):
            assert spelling not in text
        assert _foreign_tokens(text + "    os.system\n") == ["os", ".", "system"]


def test_a_tuple_compiles_to_the_tuple_of_its_values():
    trees = tuple(parse(s) for s in ("x1^2", "sin(t)*x2", "1/x1", "log(x2)"))
    f = compile_field(trees, 2)
    assert f(0.5, [2.0, 3.0]) == tuple(compile_field(tree, 2)(0.5, [2.0, 3.0]) for tree in trees)
    with pytest.raises(EvalError, match="^division by zero$"):  # the first failing component's error
        f(0.5, [0.0, -3.0])
    # the lane form: the columns of the single expressions' lane forms, ok where all of theirs
    # are; lanes outside ok hold arbitrary values, so only the lanes inside are compared
    t, _, x = lane_points(2, 2000, seed=5)
    values, ok = compile_field_lanes(trees, 2)(t, x)
    singles = [compile_field_lanes(tree, 2)(t, x) for tree in trees]
    assert values.shape == (2000, 4)
    assert ok.tolist() == np.logical_and.reduce([k_ok for _, k_ok in singles]).tolist()
    assert 0 < ok.sum() < 2000
    want = np.column_stack([k_values for k_values, _ in singles])
    assert list(map(float.hex, values[ok].ravel().tolist())) == list(map(float.hex, want[ok].ravel().tolist()))


def test_validate():
    compile_field(parse("x1"), 1)
    compile_field(parse("t"), 3)
    compile_field(parse("x3 + t*x1"), 3)
    with pytest.raises(ValidationError) as exc:
        compile_field(parse("x2"), 1)
    assert exc.value.variable == "x2"
    with pytest.raises(ValidationError):
        compile_field(parse("tau"), 2)  # flow-map variable in a field context
    with pytest.raises(ValidationError):
        compile_field(parse("a1"), 2)


def test_validate_family():
    compile_family(parse("a2 + tau*sigma"), 2)
    compile_family(parse("tau - sigma"), 1)
    with pytest.raises(ValidationError) as exc:
        compile_family(parse("a3"), 2)
    assert exc.value.variable == "a3"
    with pytest.raises(ValidationError):
        compile_family(parse("x1"), 2)
    with pytest.raises(ValidationError):
        compile_family(parse("t"), 1)


def test_validation_names_the_leftmost_bad_variable():
    with pytest.raises(ValidationError, match=r"^variable 'x3' not allowed \(dimension 2\)$") as exc:
        compile_field(parse("sin(x3) + tau*x5"), 2)
    assert exc.value.variable == "x3"


@pytest.mark.parametrize(
    "validate, compile_, bad, good",
    [
        (validate_field, compile_field, "sin(x3) + tau*x5", ("x2 + t", "x1")),
        (validate_family, compile_family, "a1 + x1*a4", ("a2 + tau", "sigma*a1")),
    ],
)
def test_validate_raises_what_compile_raises(validate, compile_, bad, good):
    with pytest.raises(ValidationError) as want:
        compile_(parse(bad), 2)
    with pytest.raises(ValidationError) as got:
        validate(parse(bad), 2)
    assert (got.value.variable, str(got.value)) == (want.value.variable, str(want.value))
    validate(tuple(map(parse, good)), 2)


# --- property tests -------------------------------------------------------

def _trees(names):
    """Expression trees over the variables names: every node kind, every function and operator."""
    leaf = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=1e12, allow_nan=False) | st.just(math.inf)),
        st.builds(Var, names),
    )
    return st.recursive(
        leaf,
        lambda ch: st.one_of(
            st.builds(Neg, ch),
            st.builds(Call, st.sampled_from(sorted(fx.FUNCTIONS)), ch),
            st.builds(Bin, st.sampled_from(list("+-*/^")), ch, ch),
        ),
        max_leaves=25,
    )


_tree = _trees(st.sampled_from(["t", "tau", "sigma", "x1", "x2", "x17", "a1", "a3"]))


@given(_tree)
def test_round_trip_property(tree):
    assert parse(pretty_print(tree)) == tree


@pytest.mark.parametrize(
    "source,canonical",
    [("1e400", "1e400"), ("2^-1e400", "(2 ^ (-1e400))"), ("1e400^0 + 1e999*x1", "((1e400 ^ 0) + (1e400 * x1))")],
)
def test_infinite_literals_round_trip(source, canonical):
    # a literal too large for a double is infinite; it prints as one that parses back to inf
    tree = parse(source)
    assert pretty_print(tree) == canonical
    assert parse(canonical) == tree


@given(
    st.sampled_from([src for src, _ in CORPUS]),
    st.floats(min_value=-3, max_value=3),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=12, max_size=12),
)
def test_eval_finite_or_error(source, t, xs):
    # either a finite value comes back or an EvalError is raised; silent
    # inf/nan must never escape
    tree = parse(source)
    try:
        run = partial(compile_field(tree, len(xs)), t, xs)
    except ValidationError:
        run = partial(compile_family(tree, len(xs)), t, xs[0], xs)
    try:
        value = run()
    except EvalError:
        return
    assert math.isfinite(value)


# --- lane kernels ---------------------------------------------------------

# values that reach every error path: zeros of both signs, negatives under
# log, sqrt and fractional powers, and magnitudes that overflow exp or *
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 710.0, -710.0, 1e200, -1e200, 1e-300]


def lane_points(n, m, seed=0):
    """m lanes (tau, sigma, a[m, n]): uniform on [-3, 3], about a third special values."""
    rng = np.random.default_rng(seed)

    def column():
        v = rng.uniform(-3.0, 3.0, m)
        pick = rng.random(m) < 0.35
        v[pick] = rng.choice(_SPECIAL, int(pick.sum()))
        return v

    return column(), column(), np.stack([column() for _ in range(n)], axis=1)


# convention: (scalar compiler, lane compiler, how many of tau and sigma its lanes take)
_CONVENTIONS = {
    "family": (compile_family, compile_family_lanes, 2),
    "field": (compile_field, compile_field_lanes, 1),
}


def assert_lanes_match(tree, n, tau, sigma, a, convention="family"):
    """Lane i of the kernel equals the scalar form bit for bit, or both fail.

    A field expression reads tau as its t, and no sigma.
    """
    compile_, compile_lanes, scalars = _CONVENTIONS[convention]
    params = (tau, sigma)[:scalars]
    scalar = compile_(tree, n)
    values, ok = compile_lanes(tree, n)(*params, a)
    failed = 0
    for i in range(len(tau)):
        try:
            want = scalar(*[p[i] for p in params], a[i])
        except EvalError:
            assert not ok[i], (pretty_print(tree), tau[i], sigma[i], a[i])
            failed += 1
            continue
        assert ok[i], (pretty_print(tree), tau[i], sigma[i], a[i])
        assert float(values[i]).hex() == want.hex(), (pretty_print(tree), tau[i], sigma[i], a[i])
    return failed


def _corpus(convention):
    """The CORPUS entries written in the convention."""
    entries = []
    for source, _ in CORPUS:
        try:
            _CONVENTIONS[convention][0](parse(source), 12)
        except ValidationError:
            continue
        entries.append(source)
    return entries


def test_family_corpus_is_not_empty():
    assert {"a1/(1 + (sigma - tau)*a1)", "42", "exp(tau)*a1 - exp(sigma)*a2"} <= set(_corpus("family"))


def test_the_two_conventions_cover_the_corpus():
    assert {"t*x1 + sin(t)", "sqrt(abs(x2))", "x12 + x3", "42"} <= set(_corpus("field"))
    assert set(_corpus("family")) | set(_corpus("field")) == {source for source, _ in CORPUS}


@pytest.mark.parametrize("source", _corpus("family"))
def test_lane_kernel_matches_scalar_on_corpus(source):
    assert_lanes_match(parse(source), 12, *lane_points(12, 3000))


@pytest.mark.parametrize("source", _corpus("field"))
def test_field_lane_kernel_matches_scalar_on_corpus(source):
    assert_lanes_match(parse(source), 12, *lane_points(12, 3000), convention="field")


def _catalog_expressions():
    """(n, source) for every catalog family component and predicate, and the golden
    reports' gap, pinhole and empty predicates."""
    found = []
    for name in catalog.names():
        entry = catalog.get(name)
        found += [(entry.n, c) for c in entry.family_components]
        found += [(entry.n, entry.family_predicate)] if entry.family_predicate else []
    return found + [(1, "(tau - 0.5)^2 - 0.01"), (1, "(sigma - 0.00005)^2"), (1, "-1")]


@pytest.mark.parametrize("n,source", _catalog_expressions())
def test_lane_kernel_matches_scalar_on_catalog(n, source):
    assert_lanes_match(parse(source), n, *lane_points(n, 3000, seed=2))


# (source, whether some lanes of lane_points fail): the second column keeps
# each error path exercised; an infinite literal fails where the node that
# uses it overflows, or where it is the whole value
@pytest.mark.parametrize(
    "source,fails",
    [
        ("a1^0.5", True), ("a1^-1", True), ("a1^a2", True), ("(-a1)^3", True),
        ("2^a1", True), ("a1^400", True), ("log(a1)", True), ("sqrt(a1)", True),
        ("exp(a1)*a2", True), ("tanh(a1*1e300)", True), ("abs(a1)/a2", True),
        ("1/(a1*a2)", True), ("a1*1e300*a2", True), ("sin(1e400)", True),
        ("sin(a1) + cos(a2)", False), ("-(a1 - a2)", False), ("tanh(a1)", False),
        ("sqrt(1e400)", True), ("log(1e400)", True), ("1/1e400 + a1", False), ("-1e400", True), ("1e400", True),
        ("1e400^0", False),  # pow(inf, 0) is 1: a finite check on the operands would fail it
    ],
)
def test_lane_kernel_matches_scalar_on_error_paths(source, fails):
    failed = assert_lanes_match(parse(source), 2, *lane_points(2, 2000, seed=1))
    assert bool(failed) == fails


def test_lane_kernel_tracks_failures_that_nan_forgets():
    # 1/0 fails, and IEEE pow(inf, 0) or pow(nan, 0) would bring back a finite 1
    tree = parse("(1/(a1 - a1))^0")
    tau, sigma, a = lane_points(1, 50)
    values, ok = compile_family_lanes(tree, 1)(tau, sigma, a)
    assert not ok.any()
    assert assert_lanes_match(tree, 1, tau, sigma, a) == 50


# Random mixes of exp, log, tanh and ^ with lanes that fail run the lane form's one map over
# the lanes, and its redo one by one when a lane raises, inside nested expressions.
@settings(deadline=None, max_examples=60)
@given(_trees(st.sampled_from(["tau", "sigma", "a1", "a2"])))
def test_lane_kernel_matches_scalar_on_random_trees(tree):
    assert_lanes_match(tree, 2, *lane_points(2, 200, seed=3))


def test_power_lanes_mix_every_rule_of_the_scalar_power():
    # 0^-1 and (-0.0)^-1 divide by zero, 0^0 is 1, (-2)^0.5 has no real value, (-2)^3 is
    # fine, and 2^2000 overflows, which sends the whole batch through the scalar rule
    lanes = [(0.0, -1.0), (-0.0, -1.0), (0.0, 0.0), (-2.0, 0.5), (-2.0, 3.0), (1.5, 2.0), (-1.5, -2.0),
             (3.0, 0.25), (2.0, 2000.0)]
    tree = parse("a1^a2")
    for a in (np.array(lanes), np.array(lanes[:-1])):  # with the overflow and without it
        zeros = np.zeros(len(a))
        assert assert_lanes_match(tree, 2, zeros, zeros, a) == 3 + (len(a) == len(lanes))


# --- integer powers -------------------------------------------------------

_MAX = sys.float_info.max
_TINY = math.ulp(0.0)  # the least subnormal


def documented_power(x, k):
    """x^k by docs/expressions.md's product rule, written out on its own, or the EvalError it raises.

    Binary powering from the low bit: the squares x, x^2, x^4, ... in turn,
    the result so far times each square whose bit of |k| is set, the result
    on the left.  x^0 is 1.0 and x^-k is 1.0 / x^k.
    """
    if k == 0:
        return 1.0
    if k < 0 and x == 0.0:
        raise EvalError("division_by_zero", "zero base with negative exponent")
    result, square, bits = None, x, abs(k)
    while True:
        if bits & 1:
            result = square if result is None else result * square
        bits >>= 1
        if not bits:
            break
        square = square * square
    value = result if k > 0 else (1.0 / result if result != 0.0 else math.inf)
    if not math.isfinite(value):
        raise EvalError("nonfinite", "overflow in power" if math.isfinite(x) else "non-finite result from '^'")
    return value


def _outcome(f, *args):
    """float.hex of f(*args), or the (kind, message) of the EvalError it raises."""
    try:
        return float(f(*args)).hex()
    except EvalError as err:
        return (err.kind, str(err))


def integer_power_bases(k, m, seed):
    """m seeded bases for x^k: both signs over every binary exponent, the lane form's special values,
    +-0, the infinities, NaN, and the bases just either side of the edges where x^k or its
    reciprocal overflows."""
    rng = np.random.default_rng(seed)
    bases = np.exp2(rng.uniform(-1074.0, 1024.0, m)) * rng.choice([-1.0, 1.0], m)
    bases[: m // 4] = rng.uniform(-3.0, 3.0, m // 4)
    edges = [_MAX ** (1 / abs(k)), (1 / _MAX) ** (1 / abs(k)), _TINY ** (1 / abs(k))] if k else []
    near = [e * (1.0 + d) for e in edges for d in (-4e-16, -2e-16, 0.0, 2e-16, 4e-16, 1e-9, -1e-9)]
    special = _SPECIAL + [-0.0, math.inf, -math.inf, math.nan] + near + [-b for b in near]
    return np.concatenate([bases, np.array(special)])


@pytest.mark.parametrize("k", range(-16, 17))
def test_integer_powers_are_the_documented_chain(k):
    # x^-k is spelled with a negated literal; 1e400 is an infinite literal base
    tree = parse(f"x1^{k}")
    x = integer_power_bases(k, 600, seed=900 + k)
    scalar = compile_field(tree, 1)
    values, ok = compile_field_lanes(tree, 1)(np.zeros(len(x)), x.reshape(-1, 1))
    outcomes = set()
    for i, base in enumerate(x.tolist()):
        want = _outcome(documented_power, base, k)
        outcomes.add(want if isinstance(want, tuple) else "finite")
        assert _outcome(scalar, 0.0, [base]) == want, (k, base)
        assert ok[i] == isinstance(want, str), (k, base)
        if ok[i]:
            assert float(values[i]).hex() == want, (k, base)
    assert "finite" in outcomes
    if k < 0:
        assert {("division_by_zero", "zero base with negative exponent"), ("nonfinite", "overflow in power"),
                ("nonfinite", "non-finite result from '^'")} <= outcomes  # the zero base, 1e-200 and NaN
    elif k > 1:  # x^1 overflows at no finite base
        assert {("nonfinite", "overflow in power"), ("nonfinite", "non-finite result from '^'")} <= outcomes
    assert _outcome(compile_field(parse(f"1e400^{k}"), 1), 0.0, [0.0]) == _outcome(documented_power, math.inf, k)


@pytest.mark.parametrize("k", range(-16, 17))
def test_integer_powers_raise_where_pow_raises(k):
    # math.pow rounds x^k once and the chain up to |k| times, so the values agree to a few
    # ulps, and the errors agree everywhere but a band about 1e-15 wide at each edge
    tree = parse(f"x1^{k}")
    scalar = compile_field(tree, 1)
    for base in integer_power_bases(k, 600, seed=950 + k)[:600].tolist():
        got, want = _outcome(scalar, 0.0, [base]), _outcome(fx._pow, base, float(k))
        if isinstance(want, str) and isinstance(got, str):
            assert math.isclose(float.fromhex(got), float.fromhex(want), rel_tol=abs(k) * 2.0**-52,
                                abs_tol=2.0**-1022), (k, base)
        else:
            assert got == want, (k, base)



def test_field_lanes_match_compile_field():
    # the field form reads t and x1..xn; a1 is not one of its variables
    for source in ("x1^2", "-x2", "sqrt(2 - t)*x1 + exp(x1)/(1 + x1^2)", "t^0.5 - x1^3"):
        tree = parse(source)
        scalar = compile_field(tree, 2)
        t, _, x = lane_points(2, 500, seed=4)
        values, ok = compile_field_lanes(tree, 2)(t, x)
        for i in range(len(t)):
            try:
                want = scalar(t[i], x[i])
            except EvalError:
                assert not ok[i], (source, t[i], x[i])
                continue
            assert ok[i] and float(values[i]).hex() == want.hex(), (source, t[i], x[i])
    with pytest.raises(ValidationError):
        compile_field_lanes(parse("a1 + x1"), 2)


def test_lane_kernel_validates_like_compile_family():
    with pytest.raises(ValidationError) as exc:
        compile_family_lanes(parse("sin(x3) + tau*a5"), 2)
    assert exc.value.variable == "x3"


# lanes every helper takes to a finite value, then lanes where exp overflows, log meets 0, -0 and -1, tanh meets
# +-inf (where it is +-1) and every helper meets NaN
_PLAIN_LANES = [0.5, 1.25, 3.0, 1e-300, 700.0, 2.5e-8, 7.0e-3]
_AWKWARD_LANES = [710.0, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("name", ["exp", "log", "tanh"])
def test_per_lane_maps_math_and_falls_back_to_the_helper_bit_for_bit(name, monkeypatch):
    helper, fallbacks = fx._CALLS[name], []
    checked = fx._checked_lanes
    monkeypatch.setattr(fx, "_checked_lanes", lambda *args: fallbacks.append(args[0]) or checked(*args))
    for lanes, falls_back in ((_PLAIN_LANES, False), (_PLAIN_LANES + _AWKWARD_LANES, True),
                              (_AWKWARD_LANES[::-1] + _PLAIN_LANES, True)):
        x = np.array(lanes)
        given = np.ones(len(x), dtype=bool)
        given[2] = False  # a lane an earlier check cleared is not called
        values, ok = fx._per_lane(helper, given, x)
        assert given.tolist() == [i != 2 for i in range(len(x))]  # ok is a new mask
        for i, lane in enumerate(lanes):
            try:
                want = helper(lane) if given[i] else None
            except EvalError:
                want = None
            assert ok[i] == (want is not None), (name, lane)
            if want is not None:
                assert float(values[i]).hex() == want.hex(), (name, lane)
        assert fallbacks == ([helper] if falls_back else []), (name, lanes)
        fallbacks.clear()
