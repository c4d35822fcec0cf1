"""Exact rational functions, the log extension, and in-class integration."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from liequad import (
    ClassMismatch,
    LogExtendedScalar,
    NonElementaryInClass,
    PoleAtPoint,
    RationalFunction,
    VarSet,
    qpoly,
)

V = VarSet.of("x", "u", "u_x", "u_xx")


def rf(s: str) -> RationalFunction:
    return RationalFunction.parse(V, s)


def test_sum_matches_hand_expansion():
    s = rf("u_x^3/u_xx") + rf("1/u_x")
    assert s == rf("(u_x^4 + u_xx)/(u_x*u_xx)")
    rng = random.Random(0)
    for _ in range(5):
        pt = {
            "x": rng.uniform(-2, 2),
            "u": rng.uniform(-2, 2),
            "u_x": rng.uniform(0.5, 2),
            "u_xx": rng.uniform(0.5, 2),
        }
        lhs = s.evaluate(pt)
        rhs = pt["u_x"] ** 3 / pt["u_xx"] + 1 / pt["u_x"]
        assert abs(lhs - rhs) < 1e-12 * max(1, abs(rhs))


def test_arithmetic_is_exact():
    a = rf("1/3")
    total = RationalFunction.zero(V)
    for _ in range(3):
        total = total + a
    assert total == RationalFunction.one(V)
    third = (rf("x") / rf("3")) * rf("3/x")
    assert third == RationalFunction.one(V)


def test_number_divided_by_rational_function():
    f = rf("u_x^2/(x + 1)")
    assert 1 / f == rf("(x + 1)/u_x^2")
    assert Fraction(1, 2) / f == rf("(x + 1)/(2*u_x^2)")
    with pytest.raises(ZeroDivisionError):
        1 / RationalFunction.zero(V)


def test_float_operands_are_taken_by_exact_value():
    """+, -, *, / and their reflected forms take the same numbers: int,
    Fraction, and float by its exact value."""
    r = rf("u_x^2/(x + 1)")
    assert r + 0.5 == r - Fraction(-1, 2)
    assert 0.5 + r == r + Fraction(1, 2)
    assert r - 0.5 == r + Fraction(-1, 2)
    assert 0.5 - r == Fraction(1, 2) - r
    assert r * 0.5 == 0.5 * r == r / 2
    assert r / 0.5 == r * 2
    assert 0.5 / r == Fraction(1, 2) / r
    assert r + 0.1 == r + Fraction(0.1)  # exact binary value, not 1/10
    with pytest.raises(ZeroDivisionError):
        r / 0.0
    with pytest.raises(ZeroDivisionError):
        0.5 / RationalFunction.zero(V)


def test_log_extended_takes_float_operands_by_exact_value():
    """The numbers a RationalFunction takes: int, Fraction, and float by
    its exact value; scaling by a non-constant rational function is out
    of the class."""
    L = LogExtendedScalar(V, rf("x"), [(Fraction(1, 2), rf("u"))])
    assert L + 0.5 == L + Fraction(1, 2)
    assert 0.5 + L == L + Fraction(1, 2)
    assert L - 0.5 == L + Fraction(-1, 2)
    assert 0.5 - L == Fraction(1, 2) - L
    assert L * 0.5 == 0.5 * L == L * Fraction(1, 2)
    assert L * 0.1 == L * Fraction(0.1)  # exact binary value, not 1/10
    assert L * rf("3") == L * 3
    with pytest.raises(ClassMismatch):
        L * rf("u")


def test_unknown_operands_raise_type_error_and_logs_dispatch_by_reflection():
    from liequad import ExpPoly

    r = rf("u_x^2/(x + 1)")
    L = LogExtendedScalar(V, rf("x"), [(Fraction(1, 2), rf("u"))])
    for x in (r, L, ExpPoly.coordinate(V, "x")):
        with pytest.raises(TypeError):
            x - object()
        with pytest.raises(TypeError):
            x - "a"
    # r + L and r - L reach LogExtendedScalar's reflected methods
    assert r + L == LogExtendedScalar(V, rf("x") + r, L.log_terms)
    assert r - L == LogExtendedScalar(V, r - rf("x"), [(Fraction(-1, 2), rf("u"))])
    assert L - r == LogExtendedScalar(V, rf("x") - r, L.log_terms)


def test_diff_power_rule():
    assert rf("u_x^3/u_xx").diff("u_xx") == rf("-u_x^3/u_xx^2")


def test_evaluate_exact_and_pole():
    v = rf("u_x^6/u_xx^3")
    assert v.evaluate_exact({"x": 0, "u": 0, "u_x": 2, "u_xx": 1}) == Fraction(64)
    with pytest.raises(PoleAtPoint):
        rf("1/u_x").evaluate({"x": 0, "u": 0, "u_x": 0, "u_xx": 1})


def test_antideriv_inverse_square():
    F = rf("1/u_x^2").antideriv("u_x")
    assert F == rf("-1/u_x")


def test_antideriv_log_case():
    G = rf("1/x").antideriv("x")
    assert isinstance(G, LogExtendedScalar)
    assert G.rational_part.is_zero()
    assert len(G.log_terms) == 1
    assert G.diff("x") == rf("1/x")


def test_antideriv_rational_root_logs():
    H = rf("1/(x^2-1)").antideriv("x")
    assert isinstance(H, LogExtendedScalar)
    assert sorted(c for c, _ in H.log_terms) == [Fraction(-1, 2), Fraction(1, 2)]
    assert H.diff("x") == rf("1/(x^2-1)")


def test_antideriv_hermite_multiplicities():
    F = rf("1/(x-1)^2").antideriv("x")
    assert F == rf("-1/(x-1)")
    G = rf("(2*x+1)/(x^2*(x+1))").antideriv("x")
    assert G.diff("x") == rf("(2*x+1)/(x^2*(x+1))")


def test_antideriv_whole_log_of_irreducible_quadratic():
    G = rf("x/(x^2+1)").antideriv("x")
    assert isinstance(G, LogExtendedScalar)
    assert G.diff("x") == rf("x/(x^2+1)")


def test_non_elementary_cases_raise():
    with pytest.raises(NonElementaryInClass):
        rf("1/(x^2+1)").antideriv("x")
    with pytest.raises(NonElementaryInClass):
        rf("1/(x^2-2)").antideriv("x")
    # log coefficient would depend on the other variables
    with pytest.raises(NonElementaryInClass):
        rf("u/(x-u^2)").antideriv("x")


def test_antideriv_parametric_linear_factors():
    # multiplicity two with a parametric root
    F1 = rf("1/(u-x)^2").antideriv("u")
    assert F1 == rf("-1/(u-x)")
    # parametric log argument, rational coefficient
    G = rf("1/(u-x)").antideriv("u")
    assert isinstance(G, LogExtendedScalar)
    assert G.diff("u") == rf("1/(u-x)")
    assert G.diff("x") == rf("-1/(u-x)")


def test_antideriv_with_parameters_in_coefficients():
    F = rf("3*u_x^8/u_xx^3").antideriv("u_x")
    assert F == rf("u_x^9/(3*u_xx^3)")
    G = rf("u/(u_x*u_xx)").antideriv("u")
    assert G == rf("u^2/(2*u_x*u_xx)")


def test_log_extended_merges_proportional_arguments():
    a = LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1), rf("2*x"))])
    b = LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1), rf("3*x"))])
    total = a + b
    assert len(total.log_terms) == 1
    assert total.log_terms[0][0] == Fraction(2)


def test_log_extended_evaluate_and_diff():
    import math

    f = LogExtendedScalar(V, rf("x"), [(Fraction(1, 2), rf("u"))])
    pt = {"x": 0.3, "u": 2.0, "u_x": 1.0, "u_xx": 1.0}
    assert abs(f.evaluate(pt) - (0.3 + 0.5 * math.log(2.0))) < 1e-14
    assert f.diff("u") == rf("1/(2*u)")
    assert f.diff("x") == rf("1")


def test_compose_stays_rational():
    W = VarSet.of("s", "t")
    g = rf("x/u")
    out = g.compose(
        {
            "x": RationalFunction.parse(W, "s^2+t"),
            "u": RationalFunction.parse(W, "1-s"),
            "u_x": RationalFunction.one(W),
            "u_xx": RationalFunction.one(W),
        }
    )
    assert out == RationalFunction.parse(W, "(s^2+t)/(1-s)")


def test_text_round_trip():
    cases = ["(u_x^4 + u_xx)/(u_x*u_xx)", "0", "-3/2", "x^2*u - 1/7*u_xx"]
    for text in cases:
        v = rf(text)
        assert RationalFunction.parse(V, v.to_text()) == v


def test_canonical_text_is_stable_under_construction_order():
    a = rf("1/u_x") + rf("u_x^3/u_xx")
    b = rf("u_x^3/u_xx") + rf("1/u_x")
    assert a.to_text() == b.to_text()


PINNED_TEXT = [
    # the three golden first integrals of the third-order ODE system
    ("(u_x^10 + 3*u*u_xx^2*u_x^4 + 3*x*u_x*u_xx^3 - 3*u*u_xx^3)/(3*u_x*u_xx^3)",
     "(x*u_x*u_xx^3 + u*u_x^4*u_xx^2 + -1*u*u_xx^3 + 1/3*u_x^10)/(u_x*u_xx^3)"),
    ("(u_x^6 + 2*u*u_xx^2)/(2*u_xx^2)", "(u*u_xx^2 + 1/2*u_x^6)/(u_xx^2)"),
    ("1/u_x - u_x^3/u_xx", "(-1*u_x^4 + u_xx)/(u_x*u_xx)"),
    # lex-leading coefficient of the denominator is negative
    ("3/(6*u - 4*x)", "(-3/2)/(2*x + -3*u)"),
    ("1/(u - x^2)", "(-1)/(x^2 + -1*u)"),
    ("(-x)^-1", "(-1)/(x)"),
    # constants and polynomials
    ("-3/2", "(-3/2)/(1)"),
    ("5", "5"),
    ("0", "0"),
    ("x/3", "(1/3*x)/(1)"),
    ("x^2*u - 1/7*u_xx", "x^2*u + -1/7*u_xx"),
]


@pytest.mark.parametrize("text, canonical", PINNED_TEXT)
def test_canonical_text_is_pinned(text, canonical):
    assert rf(text).to_text() == canonical
    assert rf(canonical).to_text() == canonical


def test_log_extended_text_is_pinned():
    from liequad import jsonio

    G = (rf("1/(x^2-1)") + rf("u/x^2")).antideriv("x")
    assert jsonio.dump_scalar(G) == {
        "kind": "log-extended",
        "rational": "(-1*u)/(x)",
        "logs": [{"coeff": "1/2", "arg": "x + -1"}, {"coeff": "-1/2", "arg": "x + 1"}],
    }
    assert G.to_text() == "(-1*u)/(x) + 1/2*log(x + -1) + -1/2*log(x + 1)"
    H = (rf("1/(u-x)") + rf("3/(2*u+4)")).antideriv("u")
    assert jsonio.dump_scalar(H) == {
        "kind": "log-extended",
        "rational": "0",
        "logs": [{"coeff": "3/2", "arg": "u + 2"}, {"coeff": "1", "arg": "x + -1*u"}],
    }
    assert H.to_text() == "0 + 3/2*log(u + 2) + 1*log(x + -1*u)"
    assert jsonio.load_scalar(jsonio.dump_scalar(H), V) == H


def test_log_argument_is_written_in_the_rational_text():
    from liequad import jsonio

    arg = rf("x^2 - u")
    L = LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1), arg)])
    doc = jsonio.dump_scalar(L)
    assert doc["logs"] == [{"coeff": "1", "arg": arg.to_text()}]
    assert arg.to_text() == "x^2 + -1*u"
    assert jsonio.load_scalar(doc, V) == L


# ----------------------------------------------------------------------
# field arithmetic against sympy's cancel

import sympy as sp
from hypothesis import given, settings, strategies as st

from oracles import sympy_fraction

W3 = VarSet.of("x", "y", "z")
SYMS = sp.symbols("x y z")

_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
)


def _poly_source(terms):
    return " + ".join(
        f"({c})*x^{i}*y^{j}*z^{k}" for (i, j, k), c in sorted(terms.items())
    )


def _poly_expr(terms):
    return sum(c * SYMS[0] ** i * SYMS[1] ** j * SYMS[2] ** k for (i, j, k), c in terms.items())


@st.composite
def _rational_functions(draw):
    """(RationalFunction, sympy expression) over x, y, z from the same terms."""
    num, den = draw(_polys), draw(_polys)
    text = f"({_poly_source(num)})/({_poly_source(den)})"
    return RationalFunction.parse(W3, text), _poly_expr(num) / _poly_expr(den)


def _agrees(f, expected):
    """f equals the sympy value, and its numerator and denominator are
    those of sp.cancel up to one constant factor."""
    expected = sp.cancel(expected)
    numer, denom = sympy_fraction(f)
    if sp.cancel(numer / denom - expected) != 0:
        return False
    n, d = sp.fraction(expected)
    ratio = sp.cancel(numer * d / (denom * n)) if n != 0 else sp.Integer(1)
    return ratio.is_number


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_rational_functions(), _rational_functions(), st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 3))
def test_field_arithmetic_matches_sympy_cancel(fa, fb, point):
    (a, ea), (b, eb) = fa, fb
    assert _agrees(a + b, ea + eb)
    assert _agrees(a - b, ea - eb)
    assert _agrees(a * b, ea * eb)
    assert _agrees(a / b, ea / eb)
    for name, s in zip(W3.names, SYMS):
        assert _agrees(a.diff(name), sp.diff(ea, s))
    composed = sp.cancel(ea.subs(SYMS[0], eb))
    if sp.fraction(sp.cancel(sp.together(ea)))[1].subs(SYMS[0], eb) == 0 or composed.has(sp.zoo, sp.nan):
        with pytest.raises(PoleAtPoint):
            a.compose({"x": b})
    else:
        assert _agrees(a.compose({"x": b}), composed)
    den_value = sp.fraction(sp.cancel(ea))[1].subs(dict(zip(SYMS, point)))
    if den_value == 0:
        with pytest.raises(PoleAtPoint):
            a.evaluate_exact(dict(zip(W3.names, point)))
    else:
        value = sp.cancel(ea).subs(dict(zip(SYMS, map(sp.Rational, point))))
        assert a.evaluate_exact(dict(zip(W3.names, point))) == Fraction(int(value.p), int(value.q))
    assert RationalFunction.parse(W3, a.to_text()) == a


def test_zeroth_power_is_one():
    """x^0 = 1 for every x, zero included, as for exponential polynomials:
    the field raised on 0**0, and `exp_matrix` takes f^0 of every f."""
    assert RationalFunction.zero(V) ** 0 == RationalFunction.one(V)
    assert rf("u_x/u") ** 0 == RationalFunction.one(V)


def test_evaluate_rounds_the_exact_value_once():
    """(2^53 + 1)/3 rounded once; rounding the numerator first gives
    0x1.5555555555555p+51."""
    point = {"x": 0, "u": 2**53 + 1, "u_x": 0, "u_xx": 0}
    assert rf("u/3").evaluate(point).hex() == "0x1.5555555555556p+51"
    assert (float(2**53 + 1) / 3.0).hex() == "0x1.5555555555555p+51"


def test_family_columns_are_each_member_evaluated_alone():
    """A family converts each point to Fractions once and evaluates every
    member on them: each column is bit for bit the member's `evaluate`, the
    rounded-once value included, and a point on a pole still raises."""
    members = [rf("u/3"), rf("(x^2 + u_x)/(u_xx - 1)"), rf("1/u_x"), RationalFunction.constant(V, Fraction(1, 7))]
    rng = random.Random(1)
    points = [[rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 2), rng.uniform(-2, 0.5)] for _ in range(6)]
    points.append([0, 2**53 + 1, 1, 3])
    got = RationalFunction.family(V, members).evaluate(points)
    assert got.shape == (len(points), len(members))
    for row, values in zip(points, got):
        point = dict(zip(V.names, row))
        assert [v.hex() for v in values] == [f.evaluate(point).hex() for f in members]
    assert got[-1, 0].hex() == "0x1.5555555555556p+51"
    assert np.array_equal(RationalFunction.family(V, members).evaluate(np.array(points[:-1])), got[:-1])
    pole = [0.0, 0.0, 0.0, 2.0]
    with pytest.raises(PoleAtPoint) as alone:
        rf("1/u_x").evaluate(dict(zip(V.names, pole)))
    with pytest.raises(PoleAtPoint) as together:
        RationalFunction.family(V, members).evaluate([pole])
    assert str(together.value) == str(alone.value)


# ----------------------------------------------------------------------
# planted antiderivatives: d/dv of a rational part plus logs, integrated back

PLANTED = VarSet.of("x", "u", "w")
LOG_COEFFS = [Fraction(c) for c in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "2/3", "-3/2")]


def _planted_poly(rng, v: str, degree: int, terms: int) -> RationalFunction:
    """A polynomial of degree `degree` in v and at most 1 in each other
    variable: a nonzero leading term and `terms` terms of lower degree."""
    others = [n for n in PLANTED.names if n != v]
    parts = [f"{rng.choice([1, 2, -1, 3])}*{v}^{degree}"]
    for _ in range(terms):
        monomial = [f"{v}^{rng.randint(0, max(degree - 1, 0))}"] + [f"{n}^{rng.randint(0, 1)}" for n in others]
        parts.append(f"({rng.randint(-3, 3)})*" + "*".join(monomial))
    return RationalFunction.parse(PLANTED, " + ".join(parts))


def planted_antiderivative(k: int):
    """(integrand, v, rational part) of case k, drawn from random.Random(k):
    v cycles through (x, u, w), and the antiderivative is a rational part
    a/b^m (a of degree <= 1 in v, b of degree 1, m = 1 or 2) plus one to
    three c_j*log(p_j) with distinct rational c_j and p_j of degree 1 or 2
    in v.  Every residue is a sum of c_j, so the integrand is in class."""
    rng = random.Random(k)
    v = PLANTED.names[k % 3]
    rational = _planted_poly(rng, v, rng.randint(0, 1), 1) / _planted_poly(rng, v, 1, 1) ** rng.randint(1, 2)
    integrand = rational.diff(v)
    for c in rng.sample(LOG_COEFFS, rng.randint(1, 3)):
        p = _planted_poly(rng, v, rng.randint(1, 2), 2)
        integrand = integrand + p.diff(v) / p * c
    return integrand, v, rational


@pytest.mark.parametrize("k", range(40))
def test_planted_antiderivative_integrates_back(k):
    """The antiderivative differentiates back to the integrand, and its
    rational part is the planted one up to a constant in v (a derivative
    has no simple poles, so the log terms cannot absorb any of it)."""
    integrand, v, rational = planted_antiderivative(k)
    G = integrand.antideriv(v)
    assert G.diff(v) == integrand
    rational_part = G.rational_part if isinstance(G, LogExtendedScalar) else G
    assert (rational_part - rational).diff(v).is_zero()
    assert _is_proper(rational_part, v)


def _is_proper(f: RationalFunction, v: str) -> bool:
    """Whether f's numerator has a lower degree in v than its denominator:
    the integrands here have no polynomial part, so neither has their
    antiderivative's rational part."""
    i = PLANTED.index(v)
    return qpoly.degree(f.frac.num, i) < qpoly.degree(f.frac.den, i)


@pytest.mark.parametrize("text, antiderivative", [
    ("1/(x^2*(x+1))", "(-1)/(x) + -1*log(x) + 1*log(x + 1)"),
    ("x/(x+1)^2", "(1)/(x + 1) + 1*log(x + 1)"),
    ("1/x + 1/(x-1) + 1/(x-1)^2", "(-1)/(x + -1) + 1*log(x) + 1*log(x + -1)"),
])
def test_antiderivative_text_is_pinned(text, antiderivative):
    """The rational part is proper in v, with no term constant in v; and
    the log part is taken one square-free factor at a time, so residue 1
    at the simple pole x = 0 and at the double pole x = 1 gives two logs,
    not one log(x^2 - x)."""
    assert RationalFunction.parse(PLANTED, text).antideriv("x").to_text() == antiderivative


def repeated_factor_integrand(k: int):
    """(integrand, v, rational part, [(m_j, c_j)]) of case k, drawn from
    random.Random(1000 + k): v cycles through (x, u, w); one or two
    factors p_j of degree 1 or 2 in v, drawn again until their product is
    square-free in v, of multiplicity m_j from 1 to 3 in the integrand,
    each with a log term c_j*log(p_j), c_j shared by both factors in about
    half the cases; the rational part is a/prod(p_j^(m_j - 1)), a of
    degree 0 in v."""
    rng = random.Random(1000 + k)
    v = PLANTED.names[k % 3]
    count = rng.randint(1, 2)
    while True:
        factors = [_planted_poly(rng, v, rng.randint(1, 2), 2) for _ in range(count)]
        product = math.prod(factors[1:], start=factors[0])
        if [m for _, m in qpoly.square_free(product.frac.num, PLANTED.index(v))] == [1]:
            break
    multiplicities = [rng.randint(1, 3) for _ in factors]
    coeffs = rng.sample(LOG_COEFFS, len(factors))
    if rng.random() < 0.5:
        coeffs = coeffs[:1] * len(factors)
    rational = _planted_poly(rng, v, 0, 1)
    for p, m in zip(factors, multiplicities):
        rational = rational / p ** (m - 1)
    integrand = rational.diff(v)
    for p, c in zip(factors, coeffs):
        integrand = integrand + p.diff(v) / p * c
    return integrand, v, rational, list(zip(multiplicities, coeffs))


@pytest.mark.parametrize("k", range(30))
def test_repeated_factor_integrand_integrates_back(k):
    """One log term per square-free factor and residue: factors of equal
    multiplicity and residue share one log, factors of different
    multiplicity keep one each, whatever their residues."""
    integrand, v, rational, planted = repeated_factor_integrand(k)
    i = PLANTED.index(v)
    assert sorted({m for m, _ in planted}) == [m for _, m in qpoly.square_free(integrand.frac.den, i)]
    G = integrand.antideriv(v)
    assert G.diff(v) == integrand
    assert len(G.log_terms) == len(set(planted))
    assert (G.rational_part - rational).diff(v).is_zero()
    assert _is_proper(G.rational_part, v)


def test_clustered_residues_on_distinct_factors_are_found():
    """Residues 10^20 and 10^20 + 1 on the square-free factor x(x - 1), and
    10^20 + 2 on (x - 2), which has multiplicity two."""
    f = RationalFunction.parse(PLANTED, "10^20/x + (10^20+1)/(x-1) + (10^20+2)/(x-2) + 1/(x-2)^2")
    G = f.antideriv("x")
    assert sorted(c for c, _ in G.log_terms) == [10**20, 10**20 + 1, 10**20 + 2]
    assert G.diff("x") == f


@pytest.mark.parametrize("text", ["10^30/x + (10^30+1)/(x-1)", "(3*10^40+7)/(x-1) + (3*10^40+8)/(x-2)"])
def test_two_clustered_residues_on_one_factor_are_found(text):
    """Two clustered integer residues on one square-free quadratic factor:
    the root step leaves their quadratic unsplit, and `matexp._spectrum`
    takes its two roots exactly from the rational square root."""
    f = RationalFunction.parse(PLANTED, text)
    G = f.antideriv("x")
    assert len(G.log_terms) == 2 and G.diff("x") == f


@pytest.mark.xfail(strict=True, raises=NonElementaryInClass, reason=(
    "item E: the three clustered integer residues of one square-free factor come back from the "
    "numeric root step as numeric roots"))
def test_three_clustered_residues_on_one_factor_are_found():
    f = RationalFunction.parse(PLANTED, "10^8/x + (10^8+1)/(x-1) + (10^8+2)/(x-2)")
    assert f.antideriv("x").diff("x") == f


@pytest.mark.parametrize("text", ["1/(x^2+1)", "1/(x^2-2)", "u/(x-u^2)", "1/(x^3-2)"])
def test_integrand_with_a_residue_outside_q_raises(text):
    """Complex, irrational and non-constant residues are outside the class."""
    with pytest.raises(NonElementaryInClass):
        RationalFunction.parse(PLANTED, text).antideriv("x")


@pytest.mark.parametrize("text", ["1/((x - 1/1000000007)*(x + 3/1000000009))",
                                  "1/((x - 123456789123)*(x - 987654321987)*(x + 5))",
                                  "1/((x - 1/10^30)*(x - 2/10^30)*(x - 3/10^30)*(x - 5/10^30))"])
def test_residues_beyond_float_precision_are_found(text):
    """Rational residues whose scaled values a float only approximates, or
    whose polynomial has coefficients beyond the float range, are found."""
    f = RationalFunction.parse(PLANTED, text)
    G = f.antideriv("x")
    assert isinstance(G, LogExtendedScalar) and len(G.log_terms) == f.frac.degrees()[0]
    assert G.diff("x") == f


def test_factors_with_one_residue_merge_into_one_log():
    """2x/(x^2 - 1) has residue 1 at x = 1 and at x = -1: one log term,
    equal to log(x - 1) + log(x + 1) under the log|.| convention; so is
    1/x + 2x/(x^2 - u), with residue 1 at all three roots."""
    from liequad import jsonio

    G = RationalFunction.parse(PLANTED, "2*x/(x^2-1)").antideriv("x")
    assert G.to_text() == "0 + 1*log(x^2 + -1)"
    assert jsonio.dump_scalar(G)["logs"] == [{"coeff": "1", "arg": "x^2 + -1"}]
    H = RationalFunction.parse(PLANTED, "1/x + 2*x/(x^2-u)").antideriv("x")
    assert H.to_text() == "0 + 1*log(x^3 + -1*x*u)"


def test_log_terms_are_stored_in_argument_text_order():
    """The order `to_text` and `jsonio.dump_scalar` both write."""
    from liequad import jsonio

    terms = [(Fraction(1), rf("x + 1")), (Fraction(2), rf("u")), (Fraction(-1), rf("x - 1"))]
    L = LogExtendedScalar(V, rf("x"), terms)
    texts = [a.to_text() for _, a in L.log_terms]
    assert texts == ["u", "x + -1", "x + 1"]
    assert [t["arg"] for t in jsonio.dump_scalar(L)["logs"]] == texts
    assert L.to_text() == "x + 2*log(u) + -1*log(x + -1) + 1*log(x + 1)"


def test_log_argument_must_be_a_rational_function_over_the_chart():
    """A bare `Frac` carries no chart, so it is no log argument; a
    RationalFunction over another chart is a chart mismatch."""
    from liequad import MismatchedVarSet
    from liequad.qpoly import Frac

    with pytest.raises(TypeError):
        LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1), Frac.gen(len(V), 1))])
    W = VarSet.of("a", "b", "c", "d")
    with pytest.raises(MismatchedVarSet):
        LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1), RationalFunction.coordinate(W, "b"))])


# ----------------------------------------------------------------------
# the integrating factor e^{fA} of a log quadrature, by Sylvester's formula

U = VarSet.of("x", "u")


def _log_scalar(terms) -> LogExtendedScalar:
    """sum c log(p) over U, from (c, p) pairs with p a RationalFunction or its text."""
    return LogExtendedScalar(U, RationalFunction.zero(U),
                             [(c, RationalFunction.parse(U, p) if isinstance(p, str) else p) for c, p in terms])


@pytest.mark.parametrize("a, entry", [
    (Fraction(1, 1000000007), "1/1000000007*u + -1/1000000007"),
    (Fraction(7, 3) + Fraction(1, 10**12), "7000000000003/3000000000000*u + -7000000000003/3000000000000"),
    (Fraction(1, 10**11), "1/100000000000*u + -1/100000000000"),
])
def test_log_factor_keeps_each_entry_exact(a, entry):
    """A = [[1, a], [0, 0]] and f = log u give e^{fA} = [[u, a(u - 1)], [0, 1]]
    for every rational a: none is rounded, guessed or cut."""
    from liequad import sym_exp

    M = _log_scalar([(1, "u")]).exp_matrix(sym_exp([[Fraction(1), a], [Fraction(0), Fraction(0)]], "t"))
    assert [[e.to_text() for e in row] for row in M] == [["u", entry], ["0", "1"]]


def _planted_diagonalizable(seed: int):
    """(S, eigenvalues, terms) for a derandomized A = S diag(eigenvalues) S^{-1}
    and f = sum c log(p) over the terms (c, p):
    S with entries in {-2, ..., 2} and determinant 1 (a unit lower times a
    unit upper triangular matrix), integer eigenvalues in {-2, ..., 2}
    (repeated ones included), and f a sum of one or two logs whose
    coefficients make every power an integer."""
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    L = [[Fraction(int(i == j)) if j >= i else Fraction(rng.randint(-2, 2)) for j in range(n)] for i in range(n)]
    R = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-2, 2)) for j in range(n)] for i in range(n)]
    S = [[sum(L[i][k] * R[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    half = rng.random() < 0.3  # then even eigenvalues and a coefficient 1/2
    lams = [Fraction(2 * rng.randint(-1, 1) if half else rng.randint(-2, 2)) for _ in range(n)]
    terms = [(Fraction(1, 2) if half else Fraction(rng.choice([1, -1, 2])), "u")]
    if rng.random() < 0.5:
        terms.append((Fraction(rng.choice([1, -1])), rng.choice(["x + 1", "x^2 + u", "x - 2*u"])))
    return S, lams, [(c, RationalFunction.parse(U, p)) for c, p in terms]


@pytest.mark.parametrize("seed", range(30))
def test_log_factor_equals_the_planted_diagonal_factor(seed):
    """e^{fA} for A = S D S^{-1} against the oracle S diag(prod p^{lambda c}) S^{-1},
    built from the planted D alone."""
    from liequad import sym_exp
    from liequad.liealg import mat_inverse

    S, lams, terms = _planted_diagonalizable(seed)
    n = len(S)
    Sinv = mat_inverse(S)
    A = [[sum(S[a][k] * lams[k] * Sinv[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    diag = [math.prod((p ** int(lam * c) for c, p in terms), start=RationalFunction.one(U)) for lam in lams]
    want = [[RationalFunction.sum([diag[k] * (S[a][k] * Sinv[k][b]) for k in range(n)]) for b in range(n)]
            for a in range(n)]
    assert _log_scalar(terms).exp_matrix(sym_exp(A, "t")) == want


@pytest.mark.parametrize("A", [
    [[1, 1], [0, 1]],  # a Jordan block
    [[2, 1, 0], [0, 2, 0], [0, 0, -1]],  # a Jordan block beside a simple eigenvalue
    [[0, 1], [0, 0]],  # nilpotent
    [[0, -2], [2, 0]],  # +- 2i
    [[0, 2], [1, 0]],  # +- sqrt(2)
], ids=["jordan", "jordan-beside-simple", "nilpotent", "pm-2i", "pm-sqrt2"])
def test_log_factor_outside_the_rational_class_raises(A):
    """A defective A makes e^{fA} polynomial in f, a complex or irrational
    spectrum gives trigonometric factors or irrational powers."""
    from liequad import sym_exp

    E = sym_exp([[Fraction(x) for x in row] for row in A], "t")
    with pytest.raises(NonElementaryInClass):
        _log_scalar([(1, "u")]).exp_matrix(E)
