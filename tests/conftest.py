"""Shared builders: the third-order ODE system and the 5-dim family."""

import os
from fractions import Fraction

import pytest

from liequad import (
    DiffForm,
    Domain,
    ExpPoly,
    RationalFunction,
    StructureConstants,
    VarSet,
    VectorField,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def exppoly_bits(p):
    """An exponential polynomial's terms in order, every float as its exact
    hex form."""
    return p.chart, [
        (k, tuple(map(float.hex, a)), tuple(map(float.hex, b)), kind, c.hex())
        for (k, a, b, kind), c in p.terms.items()
    ]


# ----------------------------------------------------------------------
# third-order ODE example


@pytest.fixture(scope="session")
def ode_chart() -> VarSet:
    return VarSet.of("x", "u", "u_x", "u_xx")


@pytest.fixture(scope="session")
def ode_domain(ode_chart) -> Domain:
    rf = lambda s: RationalFunction.parse(ode_chart, s)
    return Domain(ode_chart, (rf("u_x"), rf("u_xx")))


@pytest.fixture(scope="session")
def ode_theta(ode_chart):
    """Contact forms of u''' = 3 u''^2/u' + u''^3/u'^5 on the 2-jet chart."""
    rf = lambda s: RationalFunction.parse(ode_chart, s)
    return [
        DiffForm(ode_chart, 1, {(0,): rf("-u_x"), (1,): rf("1")}),
        DiffForm(ode_chart, 1, {(0,): rf("-u_xx"), (2,): rf("1")}),
        DiffForm(
            ode_chart,
            1,
            {(0,): rf("-(3*u_xx^2/u_x + u_xx^3/u_x^5)"), (3,): rf("1")},
        ),
    ]


@pytest.fixture(scope="session")
def ode_symmetry_fields(ode_chart):
    rf = lambda s: RationalFunction.parse(ode_chart, s)
    return [
        VectorField(ode_chart, [rf("1"), rf("0"), rf("0"), rf("0")]),
        VectorField(ode_chart, [rf("0"), rf("1"), rf("0"), rf("0")]),
        VectorField(ode_chart, [rf("u"), rf("0"), rf("-u_x^2"), rf("-3*u_x*u_xx")]),
    ]


@pytest.fixture(scope="session")
def heisenberg() -> StructureConstants:
    return StructureConstants.from_brackets(3, {(2, 3): {1: Fraction(1)}})


@pytest.fixture(scope="session")
def ode_basepoint():
    return {"x": Fraction(0), "u": Fraction(0), "u_x": Fraction(1), "u_xx": Fraction(1)}


@pytest.fixture(scope="session")
def omega_normalized(ode_chart):
    """The normalized generators of the ODE system (hand-typed goldens)."""
    rf = lambda s: RationalFunction.parse(ode_chart, s)
    return [
        DiffForm(
            ode_chart,
            1,
            {
                (0,): rf("1"),
                (2,): rf("(3*u_x^6 + 3*u_xx*u*u_x^4 + u_xx^2*u)/(u_x*u_xx)^2"),
                (3,): rf("-u_x^3*(u_x^2 + u_xx*u)/u_xx^3"),
            },
        ),
        DiffForm(
            ode_chart,
            1,
            {(1,): rf("1"), (2,): rf("3*u_x^5/u_xx^2"), (3,): rf("-u_x^6/u_xx^3")},
        ),
        DiffForm(
            ode_chart,
            1,
            {(2,): rf("-(3*u_x^4 + u_xx)/(u_xx*u_x^2)"), (3,): rf("u_x^3/u_xx^2")},
        ),
    ]


@pytest.fixture(scope="session")
def ode_goldens(ode_chart):
    rf = lambda s: RationalFunction.parse(ode_chart, s)
    return {
        "f1": rf("(u_x^10 + 3*u*u_xx^2*u_x^4 + 3*x*u_x*u_xx^3 - 3*u*u_xx^3)/(3*u_x*u_xx^3)"),
        "f2": rf("(u_x^6 + 2*u*u_xx^2)/(2*u_xx^2)"),
        "f3": rf("1/u_x - u_x^3/u_xx"),
    }


# ----------------------------------------------------------------------
# the 5-dim two-parameter family


def five_dim_constants(a: Fraction, b: Fraction) -> StructureConstants:
    return StructureConstants.from_brackets(
        5,
        {
            (1, 4): {1: b},
            (1, 5): {1: a},
            (2, 4): {2: Fraction(1)},
            (2, 5): {3: Fraction(-1)},
            (3, 4): {3: Fraction(1)},
            (3, 5): {2: Fraction(1)},
        },
    )


def borel_constants(k: int) -> StructureConstants:
    """b_k: upper-triangular k x k matrices, basis E_ij (i <= j)."""
    basis = [(i, j) for i in range(k) for j in range(i, k)]
    index = {e: p + 1 for p, e in enumerate(basis)}
    brackets = {}
    for p, (i, j) in enumerate(basis):
        for q in range(p + 1, len(basis)):
            kk, ll = basis[q]
            if j == kk:
                brackets[(p + 1, q + 1)] = {index[(i, ll)]: Fraction(1)}
            elif ll == i:
                brackets[(p + 1, q + 1)] = {index[(kk, j)]: Fraction(-1)}
    return StructureConstants.from_brackets(len(basis), brackets)


def golden_coframe_a1_b2(chart: VarSet):
    """Coframe of the 5-dim family at (a, b) = (1, 2), hand-typed."""
    t = ExpPoly.term
    dx = lambda n: DiffForm.d_coordinate(chart, n)
    e_ab = t(chart, 1.0, exp_rates={"x4": 2.0, "x5": 1.0})
    e4c = t(chart, 1.0, exp_rates={"x4": 1.0}, trig_rates={"x5": 1.0}, kind=1)
    e4s = t(chart, 1.0, exp_rates={"x4": 1.0}, trig_rates={"x5": 1.0}, kind=2)
    return [
        dx("x1") * e_ab,
        dx("x2") * e4c + dx("x3") * e4s,
        dx("x2") * (-1.0 * e4s) + dx("x3") * e4c,
        dx("x4"),
        dx("x5"),
    ]


def golden_mu_a1_b2(double: VarSet):
    """Multiplication law at (a, b) = (1, 2), hand-typed."""
    t = ExpPoly.term
    x = lambda n: ExpPoly.coordinate(double, n)
    return [
        x("x1") + t(double, 1.0, powers={"y1": 1}, exp_rates={"x4": -2.0, "x5": -1.0}),
        x("x2")
        + t(double, 1.0, powers={"y2": 1}, exp_rates={"x4": -1.0}, trig_rates={"x5": 1.0}, kind=1)
        + t(double, -1.0, powers={"y3": 1}, exp_rates={"x4": -1.0}, trig_rates={"x5": 1.0}, kind=2),
        x("x3")
        + t(double, 1.0, powers={"y2": 1}, exp_rates={"x4": -1.0}, trig_rates={"x5": 1.0}, kind=2)
        + t(double, 1.0, powers={"y3": 1}, exp_rates={"x4": -1.0}, trig_rates={"x5": 1.0}, kind=1),
        x("x4") + x("y4"),
        x("x5") + x("y5"),
    ]
