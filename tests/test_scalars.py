"""Exponential-polynomial coefficient ring: canonical form, calculus,
substitution, serialization."""

import ast
import functools
import json
import math
import pathlib
import random
from operator import add, sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liequad import (
    ExponentOverflow,
    ExpPoly,
    LiequadError,
    MismatchedVarSet,
    NonAffineExponentSubstitution,
    NonFiniteCoefficient,
    SchemaError,
    VarSet,
    exppoly,
    jsonio,
)
from liequad.exppoly import KIND_COS, KIND_ONE, KIND_SIN, MAX_EXPONENT, _canon_trig
from conftest import exppoly_bits as _bits, fixture_path
from oracles import sympy_fraction


V = VarSet.of("x", "y", "t")


def coord(n):
    return ExpPoly.coordinate(V, n)


def test_exp_rates_cancel_in_products():
    x = coord("x")
    p = (x * ExpPoly.term(V, 1.0, exp_rates={"y": 2.0})) * (
        x * ExpPoly.term(V, 1.0, exp_rates={"y": -2.0})
    )
    assert p == x * x


def test_pythagorean_identity_normalizes_to_one():
    c = ExpPoly.term(V, 1.0, trig_rates={"t": 1.0}, kind=KIND_COS)
    s = ExpPoly.term(V, 1.0, trig_rates={"t": 1.0}, kind=KIND_SIN)
    assert (c * c + s * s) == ExpPoly.one(V)


def test_product_to_sum_keeps_evaluation():
    rng = random.Random(5)
    c = ExpPoly.term(V, 1.0, trig_rates={"t": 1.3, "x": -0.4}, kind=KIND_COS)
    s = ExpPoly.term(V, 1.0, trig_rates={"t": 0.7}, kind=KIND_SIN)
    p = c * s
    for _ in range(20):
        pt = {n: rng.uniform(-2, 2) for n in V.names}
        assert abs(p.evaluate(pt) - c.evaluate(pt) * s.evaluate(pt)) < 1e-12


def test_diff_product_rule_on_x_exp_ax():
    f = ExpPoly.term(V, 1.0, powers={"x": 1}, exp_rates={"x": 3.0})
    df = f.diff("x")
    expected = ExpPoly.term(V, 1.0, exp_rates={"x": 3.0}) + 3.0 * f
    assert df == expected
    assert ExpPoly.one(V).diff("x").is_zero()


def test_antideriv_exp_cos():
    # integral of e^{at} cos(bt) = (a cos bt + b sin bt) e^{at} / (a^2+b^2)
    a, b = 1.0, 2.0
    g = ExpPoly.term(V, 1.0, exp_rates={"t": a}, trig_rates={"t": b}, kind=KIND_COS)
    G = g.antideriv("t")
    expected = (
        ExpPoly.term(V, a / (a * a + b * b), exp_rates={"t": a}, trig_rates={"t": b}, kind=KIND_COS)
        + ExpPoly.term(V, b / (a * a + b * b), exp_rates={"t": a}, trig_rates={"t": b}, kind=KIND_SIN)
    )
    assert G.isclose(expected, 1e-12)
    assert (G.diff("t") - g).is_zero()


def test_evaluate_examples():
    assert ExpPoly.term(V, 1.0, powers={"x": 1}, exp_rates={"x": 1.0}).evaluate(
        {"x": 0, "y": 0, "t": 0}
    ) == 0.0
    assert ExpPoly.term(V, 1.0, trig_rates={"x": 1.0}, kind=KIND_COS).evaluate(
        {"x": 0, "y": 0, "t": 0}
    ) == 1.0


def test_substitute_affine_exponent():
    W = VarSet.of("z")
    h = ExpPoly.term(W, 1.0, exp_rates={"z": 1.5})
    xy = coord("x") + coord("y")
    out = h.substitute({"z": xy})
    assert out == ExpPoly.term(V, 1.0, exp_rates={"x": 1.5, "y": 1.5})


def test_substitute_polynomial_position_arbitrary():
    W = VarSet.of("z")
    q = ExpPoly.term(W, 1.0, powers={"z": 2})
    val = coord("x") * ExpPoly.term(V, 1.0, exp_rates={"y": 1.0})
    out = q.substitute({"z": val})
    assert out == ExpPoly.term(V, 1.0, powers={"x": 2}, exp_rates={"y": 2.0})


def test_substitute_nonaffine_exponent_raises():
    W = VarSet.of("z")
    h = ExpPoly.term(W, 1.0, exp_rates={"z": 1.0})
    with pytest.raises(NonAffineExponentSubstitution):
        h.substitute({"z": ExpPoly.term(V, 1.0, exp_rates={"x": 1.0})})
    with pytest.raises(NonAffineExponentSubstitution):
        h.substitute({"z": coord("x") * coord("y")})


def test_chart_mismatch_raises():
    W = VarSet.of("z")
    with pytest.raises(MismatchedVarSet):
        ExpPoly.one(V) + ExpPoly.one(W)


def _random_exppoly(rng, chart=V, terms=3, allow_trig=True):
    acc = ExpPoly.zero(chart)
    for _ in range(terms):
        powers = {n: rng.randint(0, 2) for n in chart.names if rng.random() < 0.5}
        exp_rates = {n: rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0]) for n in chart.names if rng.random() < 0.4}
        kind = 0
        trig = {}
        if allow_trig and rng.random() < 0.5:
            trig = {n: rng.choice([-1.0, 1.0, 2.0]) for n in chart.names if rng.random() < 0.4}
            if trig:
                kind = rng.choice([KIND_COS, KIND_SIN])
        coeff = rng.uniform(-3, 3)
        if abs(coeff) < 0.1:
            coeff = 0.5
        acc = acc + ExpPoly.term(chart, coeff, powers, exp_rates, trig if kind else None, kind)
    return acc


def test_antideriv_diff_roundtrip_200_random():
    rng = random.Random(0)
    for i in range(200):
        p = _random_exppoly(rng)
        v = rng.choice(V.names)
        F = p.antideriv(v)
        assert (F.diff(v) - p).max_abs_coeff() <= 1e-10, f"case {i} failed"


def test_canonical_idempotence():
    rng = random.Random(1)
    for _ in range(50):
        p = _random_exppoly(rng)
        again = ExpPoly(p.chart, p.terms)
        assert again == p


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(50):
        a = _random_exppoly(rng)
        b = _random_exppoly(rng)
        pt = {n: rng.uniform(-1.5, 1.5) for n in V.names}
        va, vb = a.evaluate(pt), b.evaluate(pt)
        prod = (a * b).evaluate(pt)
        tot = (a + b).evaluate(pt)
        scale = max(1.0, abs(va * vb))
        assert abs(prod - va * vb) / scale < 1e-10
        assert abs(tot - (va + vb)) / max(1.0, abs(va + vb)) < 1e-10


def test_ring_laws_on_random_triples():
    rng = random.Random(3)
    for _ in range(25):
        a = _random_exppoly(rng, terms=2)
        b = _random_exppoly(rng, terms=2)
        c = _random_exppoly(rng, terms=2)
        assert ((a * b) * c).isclose(a * (b * c), 1e-8)
        assert (a * (b + c)).isclose(a * b + a * c, 1e-9)
        assert (a + b) == (b + a)
        assert (a * b).isclose(b * a, 1e-12)


def test_text_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        p = _random_exppoly(rng)
        assert ExpPoly.parse(V, p.to_text()) == p
    assert ExpPoly.parse(V, "0") == ExpPoly.zero(V)


def test_text_is_deterministic_and_sorted():
    p = _random_exppoly(random.Random(9), terms=5)
    q = ExpPoly(V, dict(reversed(list(p.terms.items()))))
    assert p.to_text() == q.to_text()


def test_text_grammar():
    """Text without spaces, with '-', a constant inside exp and parentheses
    reads as the same polynomial built in the ring."""
    x, y = coord("x"), coord("y")
    e_y = ExpPoly.term(V, 1.0, exp_rates={"y": 1.0})
    parse = lambda text: ExpPoly.parse(V, text)
    assert parse("2.0*x-1.0") == 2.0 * x - 1.0
    assert parse("x*exp(y)") == x * e_y
    assert parse("exp(1.0 + y)") == math.exp(1.0) * e_y
    assert parse("(x + y)*(x - y)") == x * x - y * y
    assert parse("-x^2 + 3*y**2") == -(x * x) + 3.0 * y * y
    assert parse("exp(-y)*cos(2*x - t)") == ExpPoly.term(
        V, 1.0, exp_rates={"y": -1.0}, trig_rates={"x": 2.0, "t": -1.0}, kind=KIND_COS
    )


def test_text_cos_times_sin_is_half_the_double_angle_sine():
    assert ExpPoly.parse(V, "cos(1.0*x)*sin(1.0*x)") == ExpPoly.term(
        V, 0.5, trig_rates={"x": 2.0}, kind=KIND_SIN
    )


X3 = VarSet.of("x1", "x2", "x3")
# not a finite float, outside the class, or not a chart coordinate
BAD_TEXTS = ["nan*x1", "inf*x1", "1e400", "1e300*1e300*x1", "exp(x1*x2)", "x1/x2", "sqrt(x1)",
             "x1^-1", "z1", "__import__('os')._exit(7)", "1e200*1e200*x1 - 1e200*1e200*x1"]


@pytest.mark.parametrize("text", BAD_TEXTS)
def test_bad_text_is_schema_error(text):
    with pytest.raises(SchemaError):
        ExpPoly.parse(X3, text)
    with pytest.raises(SchemaError):
        jsonio.load_scalar({"kind": "exppoly", "text": text}, X3)


def test_nan_from_a_ring_operation_is_a_typed_error():
    """inf - inf is NaN, which the ZERO_TOL cut must not pass as zero."""
    big = ExpPoly.term(X3, float("inf"), powers={"x1": 1})
    for make in (lambda: big - big, lambda: big + (-big), lambda: (big * big) - (big * big),
                 lambda: ExpPoly(X3, {((1, 0, 0), (0.0,) * 3, (0.0,) * 3, KIND_ONE): math.nan})):
        with pytest.raises(NonFiniteCoefficient) as info:
            make()
        assert isinstance(info.value, LiequadError) and info.value.code == "non-finite-coefficient"
    # a cut without a NaN still drops the cancelled term
    x1 = ExpPoly.coordinate(X3, "x1")
    assert (x1 + ExpPoly.one(X3) - x1) == ExpPoly.one(X3)


def test_substitute_cuts_the_running_sum():
    """`substitute` adds its pieces into one sum and cuts that sum after
    each piece: 0.1 + 0.2 - 0.3 is 5.55e-17, below the cut, so the sum
    restarts from 0.0 before 0.001 is added.  A cut of the final sum only
    would keep the 5.55e-17 and give 0x1.0624dd2f1aafcp-10."""
    X4 = VarSet.of("x1", "x2", "x3", "x4")
    Y = VarSet.of("y")
    x1, x2, x3, x4 = (ExpPoly.coordinate(X4, n) for n in X4.names)
    y = ExpPoly.coordinate(Y, "y")
    got = (x1 * 0.1 + x2 * 0.2 - x3 * 0.3 + x4 * 0.001).substitute({n: y for n in X4.names})
    assert _bits(got) == _bits(y * float.fromhex("0x1.0624dd2f1a9fcp-10"))
    assert (0.1 + 0.2 - 0.3 + 0.001).hex() == "0x1.0624dd2f1aafcp-10"


def test_constant_binding_of_a_trig_argument_gives_the_math_value():
    """cos(x) and sin(x) at x = 2 keep no rate: each is one constant, the
    value of math.cos or math.sin at 2.0 bit for bit."""
    X, Y = VarSet.of("x"), VarSet.of("y")
    two = ExpPoly.constant(Y, 2.0)
    for kind, value in ((KIND_COS, math.cos(2.0)), (KIND_SIN, math.sin(2.0))):
        p = ExpPoly.term(X, 1.0, trig_rates={"x": 1.0}, kind=kind)
        assert _bits(p.substitute({"x": two})) == _bits(ExpPoly.constant(Y, value))


def test_substitute_sum_of_opposite_infinities_is_a_typed_error():
    """Two pieces +inf and -inf landing on one key make the running sum NaN,
    which the cut must not pass as zero."""
    x1, x2 = ExpPoly.coordinate(X3, "x1"), ExpPoly.coordinate(X3, "x2")
    p = x1 * math.inf - x2 * math.inf
    with pytest.raises(NonFiniteCoefficient) as info:
        p.substitute({"x1": x2})
    assert info.value.code == "non-finite-coefficient"


def test_substitution_overflowing_an_exponential_is_a_typed_error():
    """A binding's constant part moves into the coefficient as exp(const);
    an overflow there, or in the scaled coefficient, is not finite."""
    x1, x2 = ExpPoly.coordinate(X3, "x1"), ExpPoly.coordinate(X3, "x2")
    for coeff, const in ((1.0, 1000.0), (1e308, 10.0), (-1e308, 10.0)):
        e = ExpPoly.term(X3, coeff, exp_rates={"x1": 1.0})
        with pytest.raises(NonFiniteCoefficient) as info:
            e.substitute({"x1": x2 + const})
        assert info.value.code == "non-finite-coefficient"
    # a large but finite scale is kept
    got = ExpPoly.term(X3, 1.0, exp_rates={"x1": 1.0}).substitute({"x1": x2 + 700.0})
    assert got == ExpPoly.term(X3, math.exp(700.0), exp_rates={"x2": 1.0})
    assert x1.substitute({"x1": x2 + 1000.0}) == x2 + 1000.0


def _term_bits(rows):
    return [[list(k), [v.hex() for v in a], [v.hex() for v in b], kind, c.hex()]
            for k, a, b, kind, c in rows]


def test_parse_keeps_the_pinned_terms_of_the_fixture_texts():
    """Keys, term order and coefficient bits of every exponential-polynomial
    text of the 5-dim fixtures, pinned in golden_parse_fiveparam_a1_b2.json."""
    pinned = json.loads(open(fixture_path("golden_parse_fiveparam_a1_b2.json")).read())
    mu = json.loads(open(fixture_path("golden_mu_fiveparam_a1_b2.json")).read())["mu"]
    forms = json.loads(open(fixture_path("forms_product_group_fiveparam_a1_b2.json")).read())
    texts = set(mu.values()) | {t["coeff"] for f in forms["forms"] for t in f["terms"]}
    assert set(pinned["terms"]) == texts
    D = VarSet(tuple(pinned["chart"]))
    for text, rows in pinned["terms"].items():
        got = [(k, a, b, kind, c) for (k, a, b, kind), c in ExpPoly.parse(D, text).terms.items()]
        assert _term_bits(got) == _term_bits(rows), text


# ----------------------------------------------------------------------
# properties: batched evaluation, and ring results already canonical

CHARTS = [VarSet(tuple(f"v{i}" for i in range(1, n + 1))) for n in range(1, 5)]
RATES = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.5]


@st.composite
def _exppolys(draw, chart, max_terms=4):
    """Sums of random terms of all three kinds; trig rate vectors may lead
    with a negative entry, and a "one" term may carry a trig vector (both
    are canonicalized on construction)."""
    n = len(chart)
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        k = tuple(draw(st.integers(0, 3)) for _ in range(n))
        a = tuple(draw(st.sampled_from(RATES)) for _ in range(n))
        b = tuple(draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0])) for _ in range(n))
        kind = draw(st.sampled_from([KIND_ONE, KIND_COS, KIND_SIN]))
        c = draw(st.floats(-3.0, 3.0, allow_nan=False))
        terms.append(ExpPoly(chart, {(k, a, b, kind): c}))
    return sum(terms, ExpPoly.zero(chart))


def _scalar_terms(p, values):
    """Each term of p at one point, by the scalar formula, in term order."""
    out = []
    for (k, a, b, kind), c in p.terms.items():
        v = c
        for x, ki in zip(values, k):
            v *= x ** ki
        v *= math.exp(sum(ai * x for ai, x in zip(a, values)))
        if kind == KIND_COS:
            v *= math.cos(sum(bi * x for bi, x in zip(b, values)))
        elif kind == KIND_SIN:
            v *= math.sin(sum(bi * x for bi, x in zip(b, values)))
        out.append(v)
    return out


@st.composite
def _poly_and_points(draw):
    chart = draw(st.sampled_from(CHARTS))
    p = draw(st.one_of(
        _exppolys(chart),
        st.just(ExpPoly.zero(chart)),
        st.floats(-3.0, 3.0, allow_nan=False).map(lambda c: ExpPoly.constant(chart, c)),
    ))
    N = draw(st.sampled_from([0, 1, 2, 5]))
    coords = st.floats(-1.5, 1.5, allow_nan=False)
    points = [[draw(coords) for _ in chart.names] for _ in range(N)]
    return p, np.array(points, dtype=float).reshape(N, len(chart))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_poly_and_points())
def test_evaluate_batch_agrees_with_the_scalar_formula(case):
    p, P = case
    got = p.evaluate_batch(P)
    assert got.shape == (len(P),)
    for row, value in zip(P, got):
        terms = _scalar_terms(p, row.tolist())
        assert abs(value - sum(terms)) <= 8 * np.finfo(float).eps * sum(abs(t) for t in terms)


FAMILY_CHARTS = [VarSet(tuple(f"v{i}" for i in range(1, n + 1))) for n in (1, 3, 8)]


@st.composite
def _families(draw):
    """Families over one chart: possibly no member, zero members among
    random ones of all three kinds, or only zero members."""
    chart = draw(st.sampled_from(FAMILY_CHARTS))
    zero = ExpPoly.zero(chart)
    member = st.one_of(
        _exppolys(chart),
        st.just(zero),
        st.floats(-3.0, 3.0, allow_nan=False).map(lambda c: ExpPoly.constant(chart, c)),
    )
    members = draw(st.one_of(st.lists(member, max_size=5), st.lists(st.just(zero), max_size=3)))
    N = draw(st.sampled_from([0, 1, 5]))
    coords = st.floats(-1.5, 1.5, allow_nan=False)
    points = [[draw(coords) for _ in chart.names] for _ in range(N)]
    return chart, members, np.array(points, dtype=float).reshape(N, len(chart))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_families())
def test_each_family_column_is_its_member_evaluated_alone(case):
    chart, members, P = case
    got = ExpPoly.family(chart, members).evaluate(P)
    assert got.shape == (len(P), len(members))
    for column, p in zip(got.T, members):
        assert np.array_equal(column, p.evaluate_batch(P))
        for row, value in zip(P, column):
            terms = _scalar_terms(p, row.tolist())
            assert abs(value - sum(terms)) <= 8 * np.finfo(float).eps * sum(abs(t) for t in terms)


def _sum_in_term_order(chart, p, P):
    """p at the points P, each term's value (its one-term family) added in
    term order, from 0.0."""
    singles = [ExpPoly(chart, {key: c}) for key, c in p.terms.items()]
    values = ExpPoly.family(chart, singles).evaluate(P)
    return np.array([functools.reduce(add, row.tolist(), 0.0) for row in values])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_families())
def test_each_family_column_adds_its_terms_in_term_order(case):
    chart, members, P = case
    got = ExpPoly.family(chart, members).evaluate(P)
    for column, p in zip(got.T, members):
        want = _sum_in_term_order(chart, p, P)
        assert np.array_equal(column, want) and np.array_equal(np.signbit(column), np.signbit(want))


def test_a_family_sum_that_depends_on_the_order_keeps_term_order():
    """1e16 x1 + 1 - 1e16 x2 at x1 = x2 = 1: three distinct keys, so nothing
    merges.  In term order 1e16 + 1 rounds to 1e16 and the sum is 0; adding
    the two large terms first would give 1."""
    chart = VarSet.of("x1", "x2")
    p = (ExpPoly.term(chart, 1e16, powers={"x1": 1}) + ExpPoly.constant(chart, 1.0)
         - ExpPoly.term(chart, 1e16, powers={"x2": 1}))
    assert list(p.terms.values()) == [1e16, 1.0, -1e16]
    P = np.array([[1.0, 1.0]])
    other = ExpPoly.zero(chart)
    got = ExpPoly.family(chart, [other, p, other]).evaluate(P)[:, 1]
    assert got.tolist() == _sum_in_term_order(chart, p, P).tolist() == [0.0]
    assert functools.reduce(add, [1e16, -1e16, 1.0], 0.0) == 1.0


def test_a_term_evaluates_bit_for_bit_alike_in_any_family():
    """x1^2 alone, beside x1^2 * x2^2 (zero at x2 = 0), in a family with
    other members, and at one point at a time: numpy computes a square
    with a one-element exponent array as x*x, and with a longer one by its
    vector power, which differs in the last bit at some points."""
    chart = VarSet.of("x1", "x2")
    square = ExpPoly.term(chart, 1.0, powers={"x1": 2})
    pair = square + ExpPoly.term(chart, 1.0, powers={"x1": 2, "x2": 2})
    rng = np.random.default_rng(0)
    P = np.column_stack([rng.uniform(-1.5, 1.5, 2000), np.zeros(2000)])
    alone = square.evaluate_batch(P)
    assert np.array_equal(pair.evaluate_batch(P), alone)
    others = [ExpPoly.term(chart, 2.0, powers={"x1": 3}), ExpPoly.zero(chart)]
    assert np.array_equal(ExpPoly.family(chart, others + [square]).evaluate(P)[:, 2], alone)
    assert [square.evaluate({"x1": x, "x2": 0.0}) for x in P[:200, 0]] == alone[:200].tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(CHARTS).flatmap(lambda chart: _exppolys(chart, 6)))
def test_evaluate_at_the_origin_reads_the_constant_terms(p):
    compiled = []
    init = exppoly.Family.__init__

    def counting(self, chart, members):
        compiled.append(1)
        init(self, chart, members)

    with mock.patch.object(exppoly.Family, "__init__", counting):
        value = p.evaluate({name: 0 for name in p.chart.names})
    # the shortcut compiles nothing, and equals the kernel bit for bit, the
    # sign of a zero included
    assert not compiled
    kernel = p.evaluate_batch(np.zeros((1, len(p.chart))))[0]
    assert value == kernel and np.signbit(value) == np.signbit(kernel)


def _assert_canonical(p):
    assert p == ExpPoly(p.chart, p.terms)


@st.composite
def _operands(draw):
    chart = draw(st.sampled_from(CHARTS))
    return chart, draw(_exppolys(chart, 3)), draw(_exppolys(chart, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operands(), st.floats(-3.0, 3.0, allow_nan=False))
def test_ring_results_are_canonical(operands, scale):
    chart, p, q = operands
    for result in (p + q, p - q, -p, p * q, p * scale, scale * q, p + scale):
        _assert_canonical(result)
    for name in chart.names:
        _assert_canonical(p.diff(name))
        _assert_canonical(p.antideriv(name))


def test_sin_cos_products_with_equal_rates_are_canonical():
    W = VarSet.of("u", "v")
    s = ExpPoly.term(W, 1.5, trig_rates={"u": -1.0, "v": 2.0}, kind=KIND_SIN)
    c = ExpPoly.term(W, 0.5, trig_rates={"u": 1.0, "v": -2.0}, kind=KIND_COS)
    for product in (s * c, c * s, s * s, c * c):
        _assert_canonical(product)
    # sin u cos u = sin(2u) / 2, and the sin(0) half drops out
    assert s * c == ExpPoly.term(W, -0.375, trig_rates={"u": 2.0, "v": -4.0}, kind=KIND_SIN)


# ----------------------------------------------------------------------
# properties: the shortcuts equal the general formulas they skip, with
# the same keys, in the same order, and bit-equal coefficients

def _general_renaming(p, target, positions, signs=None):
    """The term-by-term substitution formula for x_i -> signs[i] *
    y_positions[i] (signs +-1.0, all 1.0 by default): the rates re-indexed
    and scaled by the signs, the phase and exponential constant 0, then
    the monomial multiplied in one variable at a time, each power of the
    binding with the coefficient signs[i]^k."""
    nt = len(target)
    signs = signs or [1.0] * len(positions)
    zk, zr = (0,) * nt, (0.0,) * nt
    result = ExpPoly.zero(target)
    for (k, a, b, kind), c in p.terms.items():
        a_new, b_new = [0.0] * nt, [0.0] * nt
        for i, j in enumerate(positions):
            if a[i] != 0.0:
                a_new[j] += a[i] * signs[i]
            if b[i] != 0.0:
                b_new[j] += b[i] * signs[i]
        rates = (zk, tuple(a_new), tuple(b_new))
        if kind == KIND_ONE:
            terms = {(zk, tuple(a_new), zr, KIND_ONE): c * 1.0}
        elif kind == KIND_COS:
            terms = {rates + (KIND_COS,): c * math.cos(0.0), rates + (KIND_SIN,): -c * math.sin(0.0)}
        else:
            terms = {rates + (KIND_COS,): c * math.sin(0.0), rates + (KIND_SIN,): c * math.cos(0.0)}
        piece = ExpPoly(target, terms)
        for i, ki in enumerate(k):
            if ki:
                power = [0] * nt
                power[positions[i]] = ki
                piece = piece * ExpPoly(target, {(tuple(power), zr, zr, KIND_ONE): signs[i] ** ki})
        result = result + piece
    return result


@st.composite
def _renamings(draw, charts=CHARTS, polys=None, extra=3):
    chart = draw(st.sampled_from(charts))
    p = draw((polys or _exppolys)(chart))
    n = len(chart)
    nt = n + draw(st.integers(0, extra))
    positions = draw(st.lists(st.integers(0, nt - 1), min_size=n, max_size=n, unique=True))
    # increasing positions make a renaming (consecutive ones shift the
    # packed exponents); any other order takes the general path, which the
    # same formula describes
    order = draw(st.sampled_from(["any", "increasing", "consecutive"]))
    if order == "increasing":
        positions.sort()
    elif order == "consecutive":
        offset = draw(st.integers(0, nt - n))
        positions = list(range(offset, offset + n))
    # the target keeps each source name at its new position, so a name may
    # also be left unbound and bind to itself
    names = [f"w{j}" for j in range(nt)]
    for name, j in zip(chart.names, positions):
        names[j] = name
    target = VarSet(tuple(names))
    bound = draw(st.lists(st.sampled_from(chart.names), min_size=1, unique=True))
    bindings = {name: ExpPoly.coordinate(target, name) for name in bound}
    return p, target, positions, bindings


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_renamings())
def test_renaming_substitute_equals_the_general_formula(case):
    p, target, positions, bindings = case
    assert _bits(p.substitute(bindings)) == _bits(_general_renaming(p, target, positions))


@st.composite
def _signed_renamings(draw, charts=CHARTS, polys=None, extra=3):
    """A renaming case with some bound names bound to -y instead of y."""
    p, target, positions, bindings = draw(_renamings(charts, polys, extra))
    negated = draw(st.lists(st.sampled_from(sorted(bindings)), unique=True))
    signs = [-1.0 if name in negated else 1.0 for name in p.chart.names]
    return p, target, positions, {name: -y if name in negated else y for name, y in bindings.items()}, signs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_signed_renamings())
def test_signed_renaming_substitute_equals_the_general_formula(case):
    """Bindings x_i -> -y_j in consecutive positions take the signed
    renaming, other orders the general path; both equal the formula."""
    p, target, positions, bindings, signs = case
    assert _bits(p.substitute(bindings)) == _bits(_general_renaming(p, target, positions, signs))


def test_signed_renaming_flips_sin_and_odd_powers():
    W = VarSet.of("u", "v")
    D = VarSet.of("x1", "x2", "y1", "y2")
    p = ExpPoly.term(W, -1.5, powers={"u": 1, "v": 2}, exp_rates={"u": -0.5},
                     trig_rates={"u": 1.0, "v": -2.0}, kind=KIND_SIN)
    y1, y2 = ExpPoly.coordinate(D, "y1"), ExpPoly.coordinate(D, "y2")
    q = p.substitute({"u": -y1, "v": y2})
    # -1.5 (-y1) y2^2 exp(0.5 y1) sin(-y1 - 2 y2) = -1.5 y1 y2^2 exp(0.5 y1) sin(y1 + 2 y2)
    assert q == ExpPoly.term(D, -1.5, powers={"y1": 1, "y2": 2}, exp_rates={"y1": 0.5},
                             trig_rates={"y1": 1.0, "y2": 2.0}, kind=KIND_SIN)
    assert _bits(q) == _bits(_general_renaming(p, D, [2, 3], [-1.0, 1.0]))


def test_renaming_keeps_trig_signs_and_negative_rates():
    W = VarSet.of("u", "v")
    D = VarSet.of("x1", "x2", "y1", "y2")
    p = ExpPoly.term(W, -1.5, powers={"v": 2}, exp_rates={"u": -0.5}, trig_rates={"u": 1.0, "v": -2.0}, kind=KIND_SIN)
    q = p.substitute({"u": ExpPoly.coordinate(D, "x2"), "v": ExpPoly.coordinate(D, "y2")})
    assert q == ExpPoly.term(D, -1.5, powers={"y2": 2}, exp_rates={"x2": -0.5},
                             trig_rates={"x2": 1.0, "y2": -2.0}, kind=KIND_SIN)
    assert _bits(q) == _bits(_general_renaming(p, D, [1, 3]))


def _double_loop_product(p, q):
    """The product's double loop, for operands one of which has only
    "one" terms (so no product-to-sum rewriting is needed)."""
    acc = {}
    for (k1, a1, b1, t1), c1 in p.terms.items():
        for (k2, a2, b2, t2), c2 in q.terms.items():
            b, kind = (b2, t2) if t1 == KIND_ONE else (b1, t1)
            key = (tuple(x + y for x, y in zip(k1, k2)), tuple(x + y for x, y in zip(a1, a2)), b, kind)
            acc[key] = acc.get(key, 0.0) + c1 * c2
    return ExpPoly(p.chart, acc)


def _key0(chart):
    n = len(chart)
    return ((0,) * n, (0.0,) * n, (0.0,) * n, KIND_ONE)


def _general_sum(p, q):
    acc = dict(p.terms)
    for key, c in q.terms.items():
        acc[key] = acc.get(key, 0.0) + c
    return ExpPoly(p.chart, acc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operands(), st.floats(-3.0, 3.0, allow_nan=False))
def test_product_with_a_constant_or_zero_equals_the_double_loop(operands, value):
    chart, p, _ = operands
    for c in (ExpPoly.constant(chart, value), ExpPoly.zero(chart)):
        assert _bits(p * c) == _bits(_double_loop_product(p, c))
        assert _bits(c * p) == _bits(_double_loop_product(c, p))
        assert _bits(c * c) == _bits(_double_loop_product(c, c))
    for f in (1.0, 0.0):
        assert _bits(p * f) == _bits(_double_loop_product(p, ExpPoly(chart, {_key0(chart): f})))
    zero = ExpPoly.zero(chart)
    assert _bits(p + zero) == _bits(_general_sum(p, zero))
    assert _bits(zero + p) == _bits(_general_sum(zero, p))


@st.composite
def _forms(draw):
    from liequad.forms import DiffForm

    chart = draw(st.sampled_from(CHARTS))
    n = len(chart)
    degree = draw(st.integers(0, n))
    indices = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree, unique=True).map(sorted),
        max_size=3,
    ))
    coeffs = {tuple(idx): draw(_exppolys(chart, 3)) for idx in indices}
    return DiffForm(chart, degree, coeffs, ExpPoly)


def _d_along_every_variable(form):
    """d by differentiating each coefficient along every variable."""
    from liequad.forms import DiffForm, _merge_sorted

    chart = form.chart
    if form.degree >= len(chart):
        return DiffForm.zero(chart, form.degree, form.scls)
    acc = {}
    for I, a in form.coeffs.items():
        for v, name in enumerate(chart.names):
            if v in I:
                continue
            da = a.diff(name)
            if da.is_zero():
                continue
            merged, sign = _merge_sorted((v,), I)
            c = da if sign > 0 else -da
            acc[merged] = acc[merged] + c if merged in acc else c
    return DiffForm(chart, form.degree + 1, acc, form.scls)


def _form_bits(form):
    return form.degree, [(idx, _bits(c)) for idx, c in form.coeffs.items()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_forms())
def test_exterior_d_equals_differentiating_along_every_variable(form):
    assert _form_bits(form.exterior_d()) == _form_bits(_d_along_every_variable(form))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operands(), st.floats(-3.0, 3.0, allow_nan=False))
def test_differential_equals_differentiating_along_every_variable(operands, value):
    from liequad.forms import DiffForm, differential

    chart, p, _ = operands
    for f in (p, ExpPoly.constant(chart, value), ExpPoly.zero(chart)):
        want = DiffForm(chart, 1, {(j,): f.diff(name) for j, name in enumerate(chart.names)})
        got = differential(f)
        assert got.scls is want.scls
        assert _form_bits(got) == _form_bits(want)


@st.composite
def _combinations(draw):
    from fractions import Fraction

    chart = draw(st.sampled_from(CHARTS))
    m = draw(st.integers(1, 4))
    items = [draw(st.one_of(st.just(ExpPoly.zero(chart)), _exppolys(chart, 3))) for _ in range(m)]
    coeffs = [draw(st.one_of(
        st.sampled_from([0, 1, -2]),
        st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-5, 2)]),
        st.floats(-3.0, 3.0, allow_nan=False),
    )) for _ in range(m)]
    return coeffs, items


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_combinations())
def test_lin_comb_skipping_zero_items_equals_the_unskipped_sum(case):
    from liequad.forms import DiffForm
    from liequad.liealg import lin_comb

    coeffs, items = case
    acc = None
    for c, item in zip(coeffs, items):
        if c != 0:
            piece = item * c
            acc = piece if acc is None else acc + piece
    want = items[0] * 0 if acc is None else acc
    assert _bits(lin_comb(coeffs, items)) == _bits(want)
    # the same over forms, with the items as coefficients of dx
    forms = [DiffForm(p.chart, 1, {(0,): p}, ExpPoly) for p in items]
    want_form = sum((f * c for c, f in zip(coeffs, forms) if c != 0), DiffForm.zero(items[0].chart, 1))
    assert _form_bits(lin_comb(coeffs, forms)) == _form_bits(want_form)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_combinations())
def test_mat_vec_equals_lin_comb_per_row(case):
    """mat_vec is lin_comb row by row, bit for bit and in term order, over
    scalars and over forms; an all-zero row gives items[0] * 0."""
    from fractions import Fraction

    from liequad.forms import DiffForm
    from liequad.liealg import lin_comb, mat_vec

    coeffs, items = case
    m = len(items)
    M = [coeffs, [0] * m, coeffs[::-1], [Fraction(0)] * (m - 1) + [coeffs[0]]]
    forms = [DiffForm(p.chart, 1, {(0,): p}, ExpPoly) for p in items]
    got, got_forms = mat_vec(M, items), mat_vec(M, forms)
    assert [_bits(x) for x in got] == [_bits(lin_comb(row, items)) for row in M]
    assert [_form_bits(f) for f in got_forms] == [_form_bits(lin_comb(row, forms)) for row in M]
    assert _bits(got[1]) == _bits(items[0] * 0) and _form_bits(got_forms[1]) == _form_bits(forms[0] * 0)


def test_running_sums_equal_the_left_folds_where_a_key_or_an_index_comes_back():
    """`ExpPoly.sum` and `DiffForm.sum` are the left folds of `+` bit for
    bit, in term and index order.  0.1 x + 0.2 x - 0.3 x is 5.55e-17 x,
    below the cut: the key of x is dropped, and 0.001 x starts it again at
    the end.  The dx coefficient cancels after the second form and comes
    back after the dy one: dx then follows dy."""
    from liequad.forms import DiffForm

    X = VarSet.of("x", "y")
    x, y = (ExpPoly.coordinate(X, n) for n in X.names)
    items = [x * 0.1 + y, x * 0.2, x * -0.3, y * 2.0, x * 0.001]
    got = ExpPoly.sum(items)
    assert _bits(got) == _bits(functools.reduce(add, items))
    assert [k for k, _, _, _ in got.terms] == [(0, 1), (1, 0)]
    a, b = x * 0.1 + y * y, ExpPoly.constant(X, 3.0)
    forms = [DiffForm(X, 1, {(0,): a, (1,): b}), DiffForm(X, 1, {(0,): -a}), DiffForm(X, 1, {(1,): b}),
             DiffForm(X, 1, {(0,): x * 0.2})]
    got_form = DiffForm.sum(forms)
    assert _form_bits(got_form) == _form_bits(functools.reduce(add, forms))
    assert list(got_form.coeffs) == [(1,), (0,)]
    assert ExpPoly.sum([a]) is a and DiffForm.sum(forms[:1]) is forms[0]


@st.composite
def _sum_items(draw):
    """2 to 6 polynomials over one chart, each new or the negation of an
    earlier one, so that keys cancel and come back."""
    chart = draw(st.sampled_from(CHARTS[:3]))
    items = []
    for _ in range(draw(st.integers(2, 6))):
        if items and draw(st.booleans()):
            items.append(-draw(st.sampled_from(items)))
        else:
            items.append(draw(_exppolys(chart, 3)))
    return items


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sum_items(), st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_running_sums_equal_the_left_folds(items, indices):
    """The same on random items; the forms put item j at the index
    indices[j] of a 1-form, the last index where the chart is smaller."""
    from liequad.forms import DiffForm

    assert _bits(ExpPoly.sum(items)) == _bits(functools.reduce(add, items))
    forms = [DiffForm(p.chart, 1, {(min(i, len(p.chart) - 1),): p}, ExpPoly) for p, i in zip(items, indices)]
    assert _form_bits(DiffForm.sum(forms)) == _form_bits(functools.reduce(add, forms))


def _rational_entries():
    from liequad import RationalFunction

    W = VarSet.of("x", "y")
    texts = ["0", "0", "1", "-2/3", "x", "x*y - 3", "1/(1 + y)", "x^2/(x - y)"]
    return [RationalFunction.parse(W, t) for t in texts]


RATIONAL_ENTRIES = _rational_entries()


@st.composite
def _matrix_pairs(draw):
    """(M, E) with E the ExpPoly or RationalFunction class and M the same
    class or Fractions (beside ExpPoly); zero entries, rows and columns
    are likely, and 1 x 1 and empty M occur."""
    from fractions import Fraction

    kind = draw(st.sampled_from(["exppoly", "fraction", "rational"]))
    if kind == "rational":
        left = right = st.sampled_from(RATIONAL_ENTRIES)
    else:
        chart = draw(st.sampled_from(CHARTS[:3]))
        right = st.one_of(st.just(ExpPoly.zero(chart)), _exppolys(chart, 2))
        left = right if kind == "exppoly" else st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)])
    r, m, c = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    M = [[draw(left) for _ in range(m)] for _ in range(r)]
    E = [[draw(right) for _ in range(c)] for _ in range(m)]
    zero_left, zero_right = M[0][0] * 0 if M else None, E[0][0] * 0
    if M and draw(st.booleans()):
        M[draw(st.integers(0, r - 1))] = [zero_left] * m
    if draw(st.booleans()):
        k = draw(st.integers(0, c - 1))
        for row in E:
            row[k] = zero_right
    return M, E


def _entry_bits(x):
    from liequad.liealg import _is_zero

    if _is_zero(x):
        return "0"
    return _bits(x) if isinstance(x, ExpPoly) else (x.chart, sympy_fraction(x))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(st.just(([], [])), _matrix_pairs()))
def test_mat_mul_equals_lin_comb_per_entry(case):
    """Each entry of M E is `lin_comb` over its row of M and its column of
    E, bit for bit; an entry with no nonzero term is the one shared zero
    E[0][0] * 0."""
    from liequad.liealg import _is_zero, lin_comb, mat_mul

    M, E = case
    got = mat_mul(M, E)
    want = [[lin_comb(col, row) for col in zip(*E)] for row in M]
    assert [[_entry_bits(x) for x in row] for row in got] == [[_entry_bits(x) for x in row] for row in want]
    empty = [got[i][k] for i, row in enumerate(M) for k, col in enumerate(zip(*E))
             if all(_is_zero(x) or _is_zero(e) for x, e in zip(row, col))]
    assert all(z is empty[0] for z in empty)
    assert all(type(z) is type(E[0][0]) and _is_zero(z) for z in empty)


# ----------------------------------------------------------------------
# properties on a wide chart: 32 variables, as many as the doubled chart
# of filiform L16 has, each checked bit for bit against the formula on
# decoded (k, a, b, kind) keys

WIDE = VarSet(tuple(f"v{i}" for i in range(1, 33)))


@st.composite
def _sparse_exppolys(draw, chart=WIDE, max_terms=4):
    """Sums of random terms that each involve a few variables, often the
    first, second and last ones, so that rates meet and cancel."""
    n = len(chart)
    position = st.one_of(st.integers(0, n - 1), st.sampled_from([0, 1, n - 1]))
    positions = st.lists(position, max_size=3, unique=True)
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        k, a, b = [0] * n, [0.0] * n, [0.0] * n
        for i in draw(positions):
            k[i] = draw(st.integers(1, 3))
        for i in draw(positions):
            a[i] = draw(st.sampled_from(RATES))
        for i in draw(positions):
            b[i] = draw(st.sampled_from([-1.0, 1.0, 2.0]))
        kind = draw(st.sampled_from([KIND_ONE, KIND_COS, KIND_SIN]))
        c = draw(st.floats(-3.0, 3.0, allow_nan=False))
        terms.append(ExpPoly(chart, {(tuple(k), tuple(a), tuple(b), kind): c}))
    return sum(terms, ExpPoly.zero(chart))


def _tuple_product(p, q):
    """The product's double loop on decoded keys: exponents and rates
    added, two trig factors rewritten by the product-to-sum identities,
    each new trig part canonicalized."""
    acc = {}

    def put(k, a, b, kind, c):
        b, kind, c = _canon_trig(b, kind, c)
        acc[(k, a, b, kind)] = acc.get((k, a, b, kind), 0.0) + c

    for (k1, a1, b1, t1), c1 in p.terms.items():
        for (k2, a2, b2, t2), c2 in q.terms.items():
            k, a, c = tuple(map(add, k1, k2)), tuple(map(add, a1, a2)), c1 * c2
            if t1 == KIND_ONE:
                put(k, a, b2, t2, c)
            elif t2 == KIND_ONE:
                put(k, a, b1, t1, c)
            else:
                bsum, bdif = tuple(map(add, b1, b2)), tuple(map(sub, b1, b2))
                if t1 == t2 == KIND_COS:
                    put(k, a, bdif, KIND_COS, 0.5 * c)
                    put(k, a, bsum, KIND_COS, 0.5 * c)
                elif t1 == t2 == KIND_SIN:
                    put(k, a, bdif, KIND_COS, 0.5 * c)
                    put(k, a, bsum, KIND_COS, -0.5 * c)
                elif t1 == KIND_SIN:
                    put(k, a, bsum, KIND_SIN, 0.5 * c)
                    put(k, a, bdif, KIND_SIN, 0.5 * c)
                else:
                    put(k, a, bsum, KIND_SIN, 0.5 * c)
                    put(k, a, bdif, KIND_SIN, -0.5 * c)
    return ExpPoly(p.chart, acc)


def _tuple_diff(p, name):
    """d/dx_i term by term: k_i x^(k_i - 1), a_i, and -b_i sin or b_i cos."""
    i = p.chart.index(name)
    acc = {}

    def put(key, c):
        acc[key] = acc.get(key, 0.0) + c

    for (k, a, b, kind), c in p.terms.items():
        if k[i]:
            put((k[:i] + (k[i] - 1,) + k[i + 1:], a, b, kind), c * k[i])
        if a[i] != 0.0:
            put((k, a, b, kind), c * a[i])
        if b[i] != 0.0 and kind == KIND_COS:
            put((k, a, b, KIND_SIN), -c * b[i])
        elif b[i] != 0.0 and kind == KIND_SIN:
            put((k, a, b, KIND_COS), c * b[i])
    return ExpPoly(p.chart, acc)


def _tuple_antideriv(p, name):
    """The integral of each term in x_i: x_i^(k_i + 1) / (k_i + 1) when x_i
    is in no rate, else by parts, with a complex rate a_i + i b_i for a
    trig term."""
    i = p.chart.index(name)
    acc = {}

    def put(k, j, rest, c):
        key = (k[:i] + (j,) + k[i + 1:],) + rest
        acc[key] = acc.get(key, 0.0) + c

    for (k, a, b, kind), c in p.terms.items():
        kv, z = k[i], complex(a[i], b[i])
        if z == 0:
            put(k, kv + 1, (a, b, kind), c / (kv + 1))
            continue
        real = b[i] == 0.0
        z = z.real if real else z
        coeffs = [0.0 if real else 0j] * (kv + 1)
        coeffs[kv] = c / z
        for j in range(kv - 1, -1, -1):
            coeffs[j] = -(j + 1) * coeffs[j + 1] / z
        for j, pj in enumerate(coeffs):
            if pj == 0:
                continue
            if real:
                put(k, j, (a, b, kind), pj)
            elif kind == KIND_COS:
                put(k, j, (a, b, KIND_COS), pj.real)
                put(k, j, (a, b, KIND_SIN), -pj.imag)
            else:
                put(k, j, (a, b, KIND_COS), pj.imag)
                put(k, j, (a, b, KIND_SIN), pj.real)
    return ExpPoly(p.chart, acc)


WIDE_NAMES = st.sampled_from(["v1", "v2", "v16", "v17", "v31", "v32"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sparse_exppolys(), _sparse_exppolys())
def test_wide_chart_products_and_sums_equal_the_tuple_formulas(p, q):
    assert _bits(p * q) == _bits(_tuple_product(p, q))
    assert _bits(q * p) == _bits(_tuple_product(q, p))
    assert _bits(p * p) == _bits(_tuple_product(p, p))
    assert _bits(p + q) == _bits(_general_sum(p, q))
    assert _bits(p - q) == _bits(_general_sum(p, -q))
    _assert_canonical(p * q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sparse_exppolys(), WIDE_NAMES)
def test_wide_chart_diff_and_antideriv_equal_the_tuple_formulas(p, name):
    assert _bits(p.diff(name)) == _bits(_tuple_diff(p, name))
    assert _bits(p.antideriv(name)) == _bits(_tuple_antideriv(p, name))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_renamings(charts=[WIDE], polys=_sparse_exppolys, extra=32))
def test_wide_chart_renaming_equals_the_general_formula(case):
    p, target, positions, bindings = case
    assert _bits(p.substitute(bindings)) == _bits(_general_renaming(p, target, positions))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_signed_renamings(charts=[WIDE], polys=_sparse_exppolys, extra=32))
def test_wide_chart_signed_renaming_equals_the_general_formula(case):
    p, target, positions, bindings, signs = case
    assert _bits(p.substitute(bindings)) == _bits(_general_renaming(p, target, positions, signs))


def test_the_formulas_cover_cancelling_trig_rates_on_the_wide_chart():
    """sin u cos u, cos u cos(-u) and sin u sin(u + v_32) on the wide chart:
    b1 - b2 vanishes or leads with a negative entry."""
    def trig(coeff, rates, kind):
        return ExpPoly.term(WIDE, coeff, {"v2": 1}, {"v31": 0.5}, rates, kind)

    s = trig(1.5, {"v1": -1.0, "v32": 2.0}, KIND_SIN)
    c = trig(0.5, {"v1": 1.0, "v32": -2.0}, KIND_COS)
    s2 = trig(-2.0, {"v1": 1.0, "v32": -1.0}, KIND_SIN)
    for p, q in ((s, c), (c, s), (c, c), (s, s2), (s2, c), (s + c, s2 - c)):
        assert _bits(p * q) == _bits(_tuple_product(p, q))


def test_exponents_that_do_not_fit_raise_typed_errors():
    """An exponent above MAX_EXPONENT never carries into the next
    variable: it is refused with ExponentOverflow, or SchemaError in
    text."""
    zr = (0.0,) * 32
    v1, v2 = ExpPoly.coordinate(WIDE, "v1"), ExpPoly.coordinate(WIDE, "v2")
    top = ExpPoly.parse(WIDE, f"v1^{MAX_EXPONENT}*v32^{MAX_EXPONENT}")
    assert top.terms == {((MAX_EXPONENT,) + (0,) * 30 + (MAX_EXPONENT,), zr, zr, KIND_ONE): 1.0}
    assert (top * v2).terms == {((MAX_EXPONENT, 1) + (0,) * 29 + (MAX_EXPONENT,), zr, zr, KIND_ONE): 1.0}
    assert top.antideriv("v2") == top * v2
    too_big = [
        lambda: top * v1,
        lambda: top * top,
        lambda: v1 ** (MAX_EXPONENT + 1),
        lambda: top.antideriv("v32"),
        lambda: ExpPoly.term(WIDE, 1.0, {"v1": 70000}),
        lambda: ExpPoly(WIDE, {((70000,) + (0,) * 31, zr, zr, KIND_ONE): 1.0}),
        lambda: ExpPoly.polynomial_in(WIDE, "v1", [1.0] * (MAX_EXPONENT + 2)),
    ]
    for make in too_big:
        with pytest.raises(ExponentOverflow) as info:
            make()
        assert isinstance(info.value, LiequadError) and info.value.code == "exponent-overflow"
    for text in ("v1^70000", f"v1^{MAX_EXPONENT}*v1", f"v31*v32^{MAX_EXPONENT + 1}"):
        with pytest.raises(SchemaError):
            ExpPoly.parse(WIDE, text)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_sparse_exppolys())
def test_pickle_and_copy_keep_the_terms(p):
    import copy
    import pickle

    for again in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert _bits(again) == _bits(p)


def test_no_module_reads_the_terms_of_an_exponential_polynomial():
    """The packed store stays private to exppoly: no other module of the
    package reads the decoded `.terms` view (a call `.terms()` is the
    method of sympy's polynomials, which `rational` uses)."""
    package = pathlib.Path(jsonio.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "exppoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "terms" and id(node) not in called]
    assert not found, found
