"""Exponential-polynomial coefficient ring: canonical form, calculus,
substitution, serialization."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liequad import (
    ExpPoly,
    LiequadError,
    MismatchedVarSet,
    NonAffineExponentSubstitution,
    NonFiniteCoefficient,
    SchemaError,
    VarSet,
    jsonio,
)
from liequad.exppoly import KIND_COS, KIND_ONE, KIND_SIN
from conftest import fixture_path


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

def _bits(p):
    """Terms in order, every float as its exact hex form."""
    return p.chart, [
        (k, tuple(map(float.hex, a)), tuple(map(float.hex, b)), kind, c.hex())
        for (k, a, b, kind), c in p.terms.items()
    ]


def _general_renaming(p, target, positions):
    """The term-by-term substitution formula for x_i -> y_positions[i]:
    the rates re-indexed, the phase and exponential constant 0, then the
    monomial multiplied in one variable at a time."""
    nt = len(target)
    zk, zr = (0,) * nt, (0.0,) * nt
    result = ExpPoly.zero(target)
    for (k, a, b, kind), c in p.terms.items():
        a_new, b_new = [0.0] * nt, [0.0] * nt
        for i, j in enumerate(positions):
            if a[i] != 0.0:
                a_new[j] += a[i] * 1.0
            if b[i] != 0.0:
                b_new[j] += b[i] * 1.0
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
                piece = piece * ExpPoly(target, {(tuple(power), zr, zr, KIND_ONE): 1.0})
        result = result + piece
    return result


@st.composite
def _renamings(draw):
    chart = draw(st.sampled_from(CHARTS))
    p = draw(_exppolys(chart))
    n = len(chart)
    nt = n + draw(st.integers(0, 3))
    positions = draw(st.lists(st.integers(0, nt - 1), min_size=n, max_size=n, unique=True))
    # increasing positions make a renaming; any other order takes the
    # general path, which the same formula describes
    if draw(st.booleans()):
        positions.sort()
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
