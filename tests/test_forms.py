"""Exterior calculus: d, wedge, interior, bracket, pullback, potential."""

import random
from fractions import Fraction

import numpy as np
import pytest

from liequad import (
    BasepointOnPole,
    DiffForm,
    Domain,
    ExpPoly,
    NotClosed,
    PointMap,
    RationalFunction,
    StructureConstants,
    VarSet,
    VectorField,
    full_basepoint,
    lie_bracket,
    line_integral,
    pairing,
    potential,
    pullback,
    structure_residual,
)
from conftest import five_dim_constants, golden_coframe_a1_b2

V = VarSet.of("x1", "x2", "x3")


def dx(n, chart=V):
    return DiffForm.d_coordinate(chart, n)


def _random_exppoly(rng, chart, terms=2, rate_vars=None):
    from liequad.exppoly import KIND_COS, KIND_SIN

    rate_vars = chart.names if rate_vars is None else rate_vars
    acc = ExpPoly.zero(chart)
    for _ in range(terms):
        powers = {n: rng.randint(0, 2) for n in chart.names if rng.random() < 0.4}
        rates = {n: rng.choice([-1.0, 0.5, 1.0]) for n in rate_vars if rng.random() < 0.3}
        kind = 0
        trig = {}
        if rng.random() < 0.4:
            trig = {n: rng.choice([1.0, -2.0]) for n in rate_vars if rng.random() < 0.3}
            if trig:
                kind = rng.choice([KIND_COS, KIND_SIN])
        acc = acc + ExpPoly.term(chart, rng.uniform(0.2, 2.0), powers, rates, trig if kind else None, kind)
    return acc


def _random_form(rng, chart, degree):
    import itertools

    coeffs = {}
    for idx in itertools.combinations(range(len(chart)), degree):
        if rng.random() < 0.7:
            coeffs[idx] = _random_exppoly(rng, chart)
    return DiffForm(chart, degree, coeffs, ExpPoly)


def test_d_of_coordinate_differential_is_zero():
    assert dx("x1").exterior_d().is_zero()


def test_d_of_x3_dx2():
    x3 = ExpPoly.coordinate(V, "x3")
    form = dx("x2") * x3
    d = form.exterior_d()
    # dx3 ^ dx2 = -dx2 ^ dx3
    assert d.coefficient((1, 2)).isclose(ExpPoly.constant(V, -1.0))


def test_heisenberg_coframe_structure_equation():
    x3 = ExpPoly.coordinate(V, "x3")
    tau1 = dx("x1") + dx("x2") * x3
    heis = StructureConstants.from_brackets(3, {(2, 3): {1: Fraction(1)}})
    res = structure_residual([tau1, dx("x2"), dx("x3")], heis)
    assert all(r.is_zero() for r in res)


def test_five_dim_golden_coframe_satisfies_structure_equations():
    chart = VarSet.of("x1", "x2", "x3", "x4", "x5")
    taus = golden_coframe_a1_b2(chart)
    sc = five_dim_constants(Fraction(1), Fraction(2))
    res = structure_residual(taus, sc)
    assert max(r.max_abs_coeff() for r in res) < 1e-12


def test_abelian_coordinate_differentials():
    res = structure_residual([dx(n) for n in V.names], StructureConstants.abelian(3))
    assert all(r.is_zero() for r in res)


def test_dd_zero_on_500_random_forms():
    rng = random.Random(10)
    for _ in range(500):
        degree = rng.choice([0, 1, 2])
        alpha = _random_form(rng, V, degree)
        assert alpha.exterior_d().exterior_d().is_zero(1e-9)


def test_wedge_graded_commutativity():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([1, 2])
        q = rng.choice([1, 2])
        a = _random_form(rng, V, p)
        b = _random_form(rng, V, q)
        sign = (-1) ** (p * q)
        assert (a.wedge(b) - b.wedge(a) * sign).is_zero(1e-9)


def test_antiderivation_law():
    rng = random.Random(12)
    for _ in range(20):
        p = rng.choice([0, 1])
        a = _random_form(rng, V, p)
        b = _random_form(rng, V, rng.choice([0, 1]))
        lhs = a.wedge(b).exterior_d()
        rhs = a.exterior_d().wedge(b) + a.wedge(b.exterior_d()) * ((-1) ** p)
        assert (lhs - rhs).is_zero(1e-8)


def test_interior_product_antiderivation():
    rng = random.Random(13)
    X = VectorField(V, [_random_exppoly(rng, V, 1) for _ in V.names])
    a = _random_form(rng, V, 2)
    assert a.interior(X).interior(X).is_zero(1e-9)
    twice = a.interior(X)
    assert twice.degree == 1


def test_lie_bracket_coordinate_fields_commute():
    X = VectorField.coordinate(V, "x1")
    Y = VectorField.coordinate(V, "x2")
    assert lie_bracket(X, Y).is_zero()


def test_lie_bracket_scaling_example():
    x = ExpPoly.coordinate(V, "x1")
    X = VectorField(V, [x, ExpPoly.zero(V), ExpPoly.zero(V)])
    Y = VectorField.coordinate(V, "x1")
    B = lie_bracket(X, Y)
    assert B.components[0].isclose(ExpPoly.constant(V, -1.0))


def test_lie_bracket_jacobi_numeric():
    rng = random.Random(14)
    fields = [
        VectorField(V, [_random_exppoly(rng, V, 1) for _ in V.names]) for _ in range(3)
    ]
    X, Y, Z = fields
    J = (
        lie_bracket(X, lie_bracket(Y, Z))
        + lie_bracket(Y, lie_bracket(Z, X))
        + lie_bracket(Z, lie_bracket(X, Y))
    )
    for _ in range(20):
        pt = {n: rng.uniform(-1, 1) for n in V.names}
        assert np.abs(J.at(pt)).max() < 1e-8


def test_pullback_identity():
    alpha = _random_form(random.Random(15), V, 1)
    phi = PointMap.identity(V)
    assert (pullback(phi, alpha) - alpha).is_zero(1e-10)


def test_pullback_projection():
    W = VarSet.of("x1", "x2", "x3", "y1")
    proj = PointMap(W, V, [ExpPoly.coordinate(W, n) for n in V.names])
    alpha = dx("x1")
    back = pullback(proj, alpha)
    assert back.coefficient((0,)).isclose(ExpPoly.one(W))
    assert back.coefficient((3,)).is_zero()


def test_pullback_commutes_with_d():
    rng = random.Random(16)
    W = VarSet.of("s", "t")
    for _ in range(10):
        # polynomial components are always affine-safe in exp positions
        comps = [
            ExpPoly.coordinate(W, "s") * rng.uniform(0.5, 2.0)
            + ExpPoly.coordinate(W, "t") * rng.uniform(-1.0, 1.0),
            ExpPoly.coordinate(W, "t") + ExpPoly.constant(W, rng.uniform(-1, 1)),
            ExpPoly.coordinate(W, "s") * ExpPoly.coordinate(W, "t"),
        ]
        phi = PointMap(W, V, comps)
        # x3 is bound to a non-affine component: keep rates off it
        coeffs = {
            (i,): _random_exppoly(rng, V, 2, rate_vars=("x1", "x2"))
            for i in range(3)
        }
        alpha = DiffForm(V, 1, coeffs, ExpPoly)
        lhs = pullback(phi, alpha.exterior_d())
        rhs = pullback(phi, alpha).exterior_d()
        assert (lhs - rhs).is_zero(1e-8)


def test_potential_of_coordinate_differential():
    f = potential(dx("x1"))
    assert f.isclose(ExpPoly.coordinate(V, "x1"))


def test_potential_exppoly_vanishes_at_basepoint():
    f = ExpPoly.term(V, 2.0, powers={"x1": 2}, exp_rates={"x1": -1.0})
    g = potential(dx("x1") * f, {"x1": 0.5})
    assert (g.diff("x1") - f).is_zero()
    assert abs(g.evaluate(full_basepoint(V, {"x1": 0.5}))) < 1e-12


def test_potential_of_five_dim_reduced_form():
    # hand-typed reduced product-group form for (a, b) = (1, 2):
    # dx1 + e^{-x5-2x4}(dy1 - 2 y1 dx4 - y1 dx5)
    D = VarSet.of("x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3", "y4", "y5")
    e = ExpPoly.term(D, 1.0, exp_rates={"x4": -2.0, "x5": -1.0})
    y1 = ExpPoly.coordinate(D, "y1")
    omega = (
        DiffForm.d_coordinate(D, "x1")
        + DiffForm.d_coordinate(D, "y1") * e
        + DiffForm.d_coordinate(D, "x4") * (e * y1 * -2.0)
        + DiffForm.d_coordinate(D, "x5") * (e * y1 * -1.0)
    )
    f = potential(omega)
    expected = ExpPoly.coordinate(D, "x1") + y1 * e
    assert f.isclose(expected, 1e-12)


def test_potential_raises_on_nonclosed():
    x2 = ExpPoly.coordinate(V, "x2")
    with pytest.raises(NotClosed):
        potential(dx("x1") * x2)
    W = VarSet.of("x", "y")
    with pytest.raises(NotClosed):
        potential(DiffForm(W, 1, {(0,): RationalFunction.parse(W, "y")}))
    # peeling x first needs an antiderivative outside the class
    with pytest.raises(NotClosed):
        potential(DiffForm(W, 1, {(0,): RationalFunction.parse(W, "1/(x^2 + y)")}))


def test_potential_rational_basepoint_pole():
    W = VarSet.of("u")
    omega = DiffForm(W, 1, {(0,): RationalFunction.parse(W, "1/u^2")})
    with pytest.raises(BasepointOnPole):
        potential(omega, {"u": 0})
    f = potential(omega, {"u": Fraction(1)})
    assert f == RationalFunction.parse(W, "1 - 1/u")


def test_potential_log_extended_basepoint_pole():
    """With log terms the rational part is normalized, so a pole of the
    rational part at the basepoint is a BasepointOnPole."""
    from liequad import LogExtendedScalar

    W = VarSet.of("u")
    omega = DiffForm(W, 1, {(0,): RationalFunction.parse(W, "1/u^2 + 1/(u - 1)")})
    with pytest.raises(BasepointOnPole):
        potential(omega, {"u": 0})
    with pytest.raises(BasepointOnPole):
        potential(omega)
    f = potential(omega, {"u": Fraction(2)})
    assert isinstance(f, LogExtendedScalar) and len(f.log_terms) == 1
    assert f.rational_part == RationalFunction.parse(W, "1/2 - 1/u")


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_potential_value_overflowing_at_the_basepoint_is_a_typed_error():
    """e^{800 x} at x = 1 is not a float; the normalizing constant would be
    infinite."""
    from liequad import NonFiniteCoefficient

    W = VarSet.of("x")
    omega = DiffForm(W, 1, {(0,): ExpPoly.term(W, 800.0, exp_rates={"x": 800.0})})
    with pytest.raises(NonFiniteCoefficient):
        potential(omega, {"x": 1})
    assert potential(omega).isclose(ExpPoly.term(W, 1.0, exp_rates={"x": 800.0}) - 1.0)


def test_potential_matches_line_integral_oracle():
    rng = random.Random(17)
    for _ in range(5):
        f = _random_exppoly(rng, V, 2)
        omega = DiffForm.function(f).exterior_d()
        g = potential(omega)
        start = {n: 0.0 for n in V.names}
        end = {n: rng.uniform(-1, 1) for n in V.names}
        numeric = line_integral(omega, start, end)
        symbolic = g.evaluate(end) - g.evaluate(start)
        assert abs(numeric - symbolic) < 1e-8 * max(1.0, abs(symbolic))


def test_potential_accumulates_log_terms_across_variables():
    W = VarSet.of("x", "u")
    rf = lambda s: RationalFunction.parse(W, s)
    omega = DiffForm(W, 1, {(0,): rf("1/x"), (1,): rf("1/u")})
    f = potential(omega, {"x": Fraction(1), "u": Fraction(1)})
    assert f.diff("x") == rf("1/x")
    assert f.diff("u") == rf("1/u")
    assert len(f.log_terms) == 2
    assert f.rational_part.is_zero()


def test_pairing_and_duality():
    x3 = ExpPoly.coordinate(V, "x3")
    tau1 = dx("x1") + dx("x2") * x3
    X1 = VectorField.coordinate(V, "x1")
    X2 = VectorField.coordinate(V, "x2")
    assert pairing(tau1, X1).isclose(ExpPoly.one(V))
    assert pairing(tau1, X2).isclose(x3)


def test_form_chart_mismatch_raises():
    from liequad import MismatchedVarSet

    W = VarSet.of("s", "t")
    with pytest.raises(MismatchedVarSet):
        dx("x1") + DiffForm.d_coordinate(W, "s")
    with pytest.raises(MismatchedVarSet):
        dx("x1").wedge(DiffForm.d_coordinate(W, "s"))


def test_pullback_escaping_the_class_raises():
    from liequad import NonAffineExponentSubstitution

    W = VarSet.of("s", "t")
    phi = PointMap(
        W,
        V,
        [
            ExpPoly.coordinate(W, "s") * ExpPoly.coordinate(W, "t"),
            ExpPoly.coordinate(W, "t"),
            ExpPoly.coordinate(W, "s"),
        ],
    )
    alpha = dx("x2") * ExpPoly.term(V, 1.0, exp_rates={"x1": 1.0})
    with pytest.raises(NonAffineExponentSubstitution):
        pullback(phi, alpha)


def test_domain_sampling_avoids_exclusions():
    W = VarSet.of("u", "w")
    dom = Domain(W, (RationalFunction.parse(W, "u"), RationalFunction.parse(W, "w-1")))
    rng = random.Random(18)
    for _ in range(50):
        pt = dom.sample(rng)
        assert abs(pt["u"]) >= 0.05
        assert abs(pt["w"] - 1) >= 0.05
