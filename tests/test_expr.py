"""Expression language: parser, printer, evaluator, validation."""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


# --- property tests -------------------------------------------------------

_names = st.sampled_from(["t", "tau", "sigma", "x1", "x2", "x17", "a1", "a3"])
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e12, allow_nan=False)),
    st.builds(Var, _names),
)
_tree = st.recursive(
    _leaf,
    lambda ch: st.one_of(
        st.builds(Neg, ch),
        st.builds(Call, st.sampled_from(sorted(fx.FUNCTIONS)), ch),
        st.builds(Bin, st.sampled_from(list("+-*/^")), ch, ch),
    ),
    max_leaves=25,
)


@given(_tree)
def test_round_trip_property(tree):
    assert parse(pretty_print(tree)) == tree


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


def assert_lanes_match(tree, n, tau, sigma, a):
    """Lane i of the kernel equals the scalar closure bit for bit, or both fail."""
    scalar = compile_family(tree, n)
    values, ok = compile_family_lanes(tree, n)(tau, sigma, a)
    failed = 0
    for i in range(len(tau)):
        try:
            want = scalar(tau[i], sigma[i], a[i])
        except EvalError:
            assert not ok[i], (pretty_print(tree), tau[i], sigma[i], a[i])
            failed += 1
            continue
        assert ok[i], (pretty_print(tree), tau[i], sigma[i], a[i])
        assert float(values[i]).hex() == want.hex(), (pretty_print(tree), tau[i], sigma[i], a[i])
    return failed


def _family_corpus():
    entries = []
    for source, _ in CORPUS:
        try:
            compile_family(parse(source), 12)
        except ValidationError:
            continue
        entries.append(source)
    return entries


def test_family_corpus_is_not_empty():
    assert {"a1/(1 + (sigma - tau)*a1)", "42", "exp(tau)*a1 - exp(sigma)*a2"} <= set(_family_corpus())


@pytest.mark.parametrize("source", _family_corpus())
def test_lane_kernel_matches_scalar_on_corpus(source):
    assert_lanes_match(parse(source), 12, *lane_points(12, 3000))


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
# each error path exercised; infinite literals are ok values until checked
@pytest.mark.parametrize(
    "source,fails",
    [
        ("a1^0.5", True), ("a1^-1", True), ("a1^a2", True), ("(-a1)^3", True),
        ("2^a1", True), ("a1^400", True), ("log(a1)", True), ("sqrt(a1)", True),
        ("exp(a1)*a2", True), ("tanh(a1*1e300)", True), ("abs(a1)/a2", True),
        ("1/(a1*a2)", True), ("a1*1e300*a2", True), ("sin(1e400)", True),
        ("sin(a1) + cos(a2)", False), ("-(a1 - a2)", False), ("tanh(a1)", False),
        ("sqrt(1e400)", False), ("log(1e400)", False), ("1/1e400 + a1", False), ("-1e400", False),
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


def test_power_lanes_mix_every_rule_of_the_scalar_power():
    # 0^-1 and (-0.0)^-1 divide by zero, 0^0 is 1, (-2)^0.5 has no real value, (-2)^3 is
    # fine, and 2^2000 overflows, which sends the whole batch through the scalar rule
    lanes = [(0.0, -1.0), (-0.0, -1.0), (0.0, 0.0), (-2.0, 0.5), (-2.0, 3.0), (1.5, 2.0), (-1.5, -2.0),
             (3.0, 0.25), (2.0, 2000.0)]
    tree = parse("a1^a2")
    for a in (np.array(lanes), np.array(lanes[:-1])):  # with the overflow and without it
        zeros = np.zeros(len(a))
        assert assert_lanes_match(tree, 2, zeros, zeros, a) == 3 + (len(a) == len(lanes))


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
