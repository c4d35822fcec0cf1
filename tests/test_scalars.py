"""Exponential-polynomial coefficient ring: canonical form, calculus,
substitution, serialization."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liequad import ExpPoly, MismatchedVarSet, NonAffineExponentSubstitution, VarSet
from liequad.exppoly import KIND_COS, KIND_ONE, KIND_SIN


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
        assert (F.diff(v) - p).is_zero(1e-10), f"case {i} failed"


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
