"""The in-house field Q(x, y, z) of `qpoly` against sympy as the oracle:
gcds of products of integer polynomials with a planted common factor, by
the single-term shortcut, the heuristic gcd and the subresultant PRS, and
the canonical numerator and denominator of a quotient."""

import functools

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from liequad import qpoly
from liequad.qpoly import Frac

R, *_ = ring("x,y,z", ZZ)

_monomials = st.tuples(*[st.integers(0, 2)] * 3)
_coeffs = st.integers(-6, 6).filter(bool)
_polys = st.dictionaries(_monomials, _coeffs, min_size=1, max_size=4)
_terms = st.dictionaries(_monomials, _coeffs, min_size=1, max_size=1)
_constants = st.dictionaries(st.just((0, 0, 0)), _coeffs, min_size=1, max_size=1)


def _sympy(f: dict):
    return R.from_dict(f)


def _planted(draw, first=_polys, second=_polys):
    """(a c, b c) for a common factor c."""
    a, b, c = draw(first), draw(second), draw(st.one_of(_polys, _terms, _constants))
    return qpoly.mul(a, c), qpoly.mul(b, c)


@st.composite
def _pairs(draw):
    kind = draw(st.sampled_from(["poly", "term", "constant"]))
    first = {"poly": _polys, "term": _terms, "constant": _constants}[kind]
    return _planted(draw, first)


def _assert_gcd(f, g, result):
    h, cff, cfg = result
    want = _sympy(f).gcd(_sympy(g))
    assert _sympy(h) in (want, -want)
    assert qpoly.mul(h, cff) == f and qpoly.mul(h, cfg) == g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs())
def test_gcd_equals_sympy_gcd_up_to_sign(pair):
    """Single terms (monomials and constants) take the shortcut, the rest
    the heuristic gcd; both orders of the operands."""
    f, g = pair
    _assert_gcd(f, g, qpoly.gcd(f, g))
    _assert_gcd(g, f, qpoly.gcd(g, f))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_pairs(), st.booleans())
def test_prs_gcd_equals_sympy_gcd_up_to_sign(pair, swap):
    """The subresultant PRS, the fallback when the heuristic gives up,
    alone on the pairs of two terms or more."""
    f, g = pair[::-1] if swap else pair
    if len(f) > 1 and len(g) > 1:
        _assert_gcd(f, g, qpoly.prs_gcd(f, g))


def test_heuristic_gcd_finds_a_planted_factor_of_several_terms():
    """`_heugcd` alone, without the PRS, returns the gcd and cofactors of
    products with a common factor of three terms."""
    c = {(1, 1, 0): 2, (0, 0, 2): -3, (0, 0, 0): 1}
    f, g = qpoly.mul({(2, 0, 0): 1, (0, 1, 0): 5}, c), qpoly.mul({(0, 2, 1): 4, (1, 0, 0): -1}, c)
    _assert_gcd(f, g, qpoly._heugcd(f, g, [0, 1, 2]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs())
def test_reduced_quotient_equals_sympy_cancel(pair):
    """num/den are sympy's cancel over Z: coprime, content included, with a
    positive lex-leading denominator coefficient."""
    f, g = pair
    q = Frac.reduced(f, g)
    p, r = _sympy(f).cancel(_sympy(g))
    assert (q.num, q.den) == (dict(p.items()), dict(r.items()))
    assert q == Frac.polynomial(f, 3) / Frac.polynomial(g, 3)



def _positive(f: dict) -> dict:
    return qpoly.neg(f) if qpoly.leading_coeff(f) < 0 else f


def _sympy_square_free(f: dict, i: int) -> list:
    """sympy's `sqf_list` of f's primitive part in x_i (every irreducible
    factor of it has x_i, so its split over Z is the split over Q(the
    other variables)), each factor with a positive lex-leading coefficient."""
    coeffs = {}
    for m, c in f.items():
        coeffs.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    content = functools.reduce(lambda a, b: a.gcd(b), map(_sympy, coeffs.values()))
    _, factors = _sympy(f).exquo(content).sqf_list()
    return [(_positive(dict(p.items())), k) for p, k in factors]


@st.composite
def _planted_powers(draw):
    """A product of up to three polynomials, each to a power up to 3, and
    of a single term (the content in some variable)."""
    f = draw(_terms)
    for _ in range(draw(st.integers(0, 3))):
        f = qpoly.mul(f, qpoly.power(draw(_polys), draw(st.integers(1, 3)), 3))
    return f


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_planted_powers())
def test_square_free_equals_sympy_sqf_list_in_each_variable(f):
    """Yun's split in x, y and z: the factors and multiplicities of sympy's
    `sqf_list` of the primitive part, each factor primitive with a positive
    lex-leading coefficient."""
    for i in range(3):
        got = qpoly.square_free(f, i)
        assert got == _sympy_square_free(f, i), i
        assert all(qpoly.leading_coeff(a) > 0 and qpoly.content(a) == 1 for a, _ in got)


def test_square_free_pinned_cases():
    """The content in x_i goes, the d = 0 branch ends a square-free input,
    degree 0 gives [], and a negative leading coefficient is normalized."""
    x, y = {(1, 0, 0): 1}, {(0, 1, 0): 1}
    assert qpoly.square_free(qpoly.mul(qpoly.power(y, 2, 3), x), 0) == [(x, 1)]
    square_free = {(2, 0, 0): 1, (0, 1, 0): -1}
    assert qpoly.square_free(square_free, 0) == [(square_free, 1)]
    assert qpoly.square_free({(0, 3, 1): 5, (0, 0, 0): 2}, 0) == []
    negative = {(1, 0, 0): -1, (0, 0, 1): 2}
    f = qpoly.mul(qpoly.power(negative, 2, 3), {(1, 0, 0): 1, (0, 0, 0): 1})
    assert qpoly.square_free(f, 0) == [({(1, 0, 0): 1, (0, 0, 0): 1}, 1), (qpoly.neg(negative), 2)]


def test_gcd_with_zero_is_the_other_operand():
    """gcd(f, 0) is f with cofactors 1 and 0, and gcd(0, f) likewise, for
    a single term and for several terms."""
    one = qpoly.one(3)
    for f in ({(0, 2, 1): -3}, {(1, 0, 0): 1, (0, 1, 0): -2}, {(2, 0, 0): 4, (0, 1, 1): 6, (0, 0, 0): -2}):
        assert qpoly.gcd(f, {}) == (f, one, {})
        assert qpoly.gcd({}, f) == (f, {}, one)


def _x(*coeffs) -> dict:
    """The polynomial in one variable with these coefficients, constant first."""
    return {(e,): c for e, c in enumerate(coeffs) if c}


def _as_set(factors) -> set:
    return {frozenset(f.items()) for f in factors}


def test_low_factors_pinned_cases():
    """Integer roots come out as linear factors, at degree 2 too; an
    irreducible quadratic stays whole, split from a cubic or left over;
    an irreducible cubic gives its numeric roots."""
    assert qpoly.low_factors(_x(5, 1)) == ([_x(5, 1)], [])
    factors, zs = qpoly.low_factors(_x(-2, 1, 1))  # (x - 1)(x + 2)
    assert _as_set(factors) == _as_set([_x(-1, 1), _x(2, 1)]) and zs == []
    factors, zs = qpoly.low_factors(qpoly.mul(_x(-2, 0, 1), _x(-3, 1)))  # (x^2 - 2)(x - 3)
    assert _as_set(factors) == _as_set([_x(-2, 0, 1), _x(-3, 1)]) and zs == []
    factors, zs = qpoly.low_factors(qpoly.mul(_x(1, 1, 1), _x(1, 0, 1)))  # two quadratics
    assert _as_set(factors) == _as_set([_x(1, 1, 1), _x(1, 0, 1)]) and zs == []
    factors, zs = qpoly.low_factors(qpoly.mul(_x(-2, 0, 0, 1), _x(4, 1)))  # (x^3 - 2)(x + 4)
    assert factors == [_x(4, 1)] and len(zs) == 3
    assert sorted(z.real for z in zs if z.imag == 0) == [pytest.approx(2 ** (1 / 3), rel=1e-12)]


def test_low_factors_find_integer_roots_beyond_floats():
    """An integer root that a float only approximates (10^30 + 7), and
    roots of a polynomial whose coefficients exceed the float range, come
    out exactly."""
    big = 10**30 + 7
    f = qpoly.mul(qpoly.mul(_x(-big, 1), _x(big + 2, 1)), _x(1, 0, 1))
    factors, zs = qpoly.low_factors(f)
    assert _as_set(factors) == _as_set([_x(-big, 1), _x(big + 2, 1), _x(1, 0, 1)]) and zs == []
    huge = 10**200 + 1
    f = qpoly.mul(qpoly.mul(_x(-huge, 1), _x(-2 * huge, 1)), _x(3 * huge, 1))
    factors, zs = qpoly.low_factors(f)
    assert _as_set(factors) == _as_set([_x(-huge, 1), _x(-2 * huge, 1), _x(3 * huge, 1)]) and zs == []
