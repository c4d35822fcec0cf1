"""Pfaffian systems with solvable symmetry: normalization and first integrals."""

from fractions import Fraction

import pytest
import sympy as sp

from liequad import (
    DegenerateTransversality,
    DiffForm,
    Domain,
    LogExtendedScalar,
    NonElementaryInClass,
    NotSolvable,
    PfaffianSystem,
    RationalFunction,
    ResidualNonzero,
    StructureConstants,
    SymmetryAlgebra,
    VarSet,
    VectorField,
    first_integrals,
    normalize,
    pairing,
    transversality,
)
from oracles import sympy_fraction

F = Fraction


def test_transversality_identity_case():
    V = VarSet.of("x1", "x2")
    theta = [DiffForm.d_coordinate(V, n, RationalFunction) for n in V.names]
    Z = [VectorField.coordinate(V, n, RationalFunction) for n in V.names]
    P, _ = transversality(theta, Z)
    for i in range(2):
        for j in range(2):
            assert P[i][j] == RationalFunction.constant(V, int(i == j))


def test_transversality_of_no_generators_is_empty():
    assert transversality([], []) == ([], [])


def test_transversality_pairs_only_one_forms():
    V = VarSet.of("x1", "x2")
    dx1, dx2 = (DiffForm.d_coordinate(V, n, RationalFunction) for n in V.names)
    Z = VectorField.coordinate(V, "x1", RationalFunction)
    with pytest.raises(ValueError, match="1-form"):
        transversality([dx1.wedge(dx2)], [Z])


def test_transversality_determinant_on_ode_example(
    ode_chart, ode_theta, ode_symmetry_fields
):
    P, _ = transversality(ode_theta, ode_symmetry_fields)
    # independent determinant via sympy on the raw pairing matrix
    def expr(f):
        num, den = sympy_fraction(f)
        return num / den

    M = sp.Matrix([[expr(P[i][j]) for j in range(3)] for i in range(3)])
    det_direct = sp.cancel(M.det())
    assert det_direct != 0
    # the paired matrix entries match hand-computed pairings
    assert P[0][1] == RationalFunction.one(ode_chart)
    assert P[0][0] == RationalFunction.parse(ode_chart, "-u_x")
    assert P[0][2] == RationalFunction.parse(ode_chart, "-u*u_x")


def test_degenerate_transversality_raises(ode_theta, ode_symmetry_fields, ode_chart):
    u_x = RationalFunction.parse(ode_chart, "u_x")
    Z_bad = [
        ode_symmetry_fields[0],
        ode_symmetry_fields[1],
        ode_symmetry_fields[1] * u_x,
    ]
    with pytest.raises(DegenerateTransversality):
        transversality(ode_theta, Z_bad)


def test_normalize_reproduces_golden_forms(
    ode_theta, ode_symmetry_fields, heisenberg, omega_normalized
):
    om = normalize(ode_theta, ode_symmetry_fields, heisenberg)
    for a, b in zip(om, omega_normalized):
        assert (a - b).is_zero()


def test_normalize_identity_and_rescaled_inputs(
    ode_theta, ode_symmetry_fields, heisenberg, omega_normalized
):
    V = VarSet.of("x1", "x2")
    theta = [DiffForm.d_coordinate(V, n, RationalFunction) for n in V.names]
    Z = [VectorField.coordinate(V, n, RationalFunction) for n in V.names]
    om = normalize(theta, Z, StructureConstants.abelian(2))
    for a, b in zip(om, theta):
        assert (a - b).is_zero()
    # rescaling a generator leaves the normalized forms unchanged
    theta2 = [ode_theta[0] * F(2), ode_theta[1], ode_theta[2]]
    om2 = normalize(theta2, ode_symmetry_fields, heisenberg)
    for a, b in zip(om2, omega_normalized):
        assert (a - b).is_zero()


def test_first_integrals_ode_goldens(
    ode_domain,
    ode_theta,
    ode_symmetry_fields,
    heisenberg,
    ode_basepoint,
    ode_goldens,
    monkeypatch,
):
    import liequad.pfaffian as pfaffian

    inversions = []
    counted = pfaffian.mat_inverse
    monkeypatch.setattr(pfaffian, "mat_inverse", lambda M: inversions.append(1) or counted(M))
    system = PfaffianSystem(ode_domain, ode_theta)
    sym = SymmetryAlgebra(ode_symmetry_fields, heisenberg)
    fns, report = first_integrals(system, sym, ode_basepoint)
    assert report.passed, str(report)
    assert len(inversions) == 1
    check = next(c for c in report.checks if c.name.startswith("structure equations of omega"))
    assert check.error == 0.0
    for name, idx in (("f1", 0), ("f2", 1), ("f3", 2)):
        golden = ode_goldens[name]
        shift = golden.evaluate_exact(ode_basepoint)
        assert fns[idx] == golden - RationalFunction.constant(golden.chart, shift)


def test_first_integrals_differentiate_once_per_function(
    ode_domain, ode_theta, ode_symmetry_fields, heisenberg, ode_basepoint, monkeypatch
):
    calls = []
    counted = RationalFunction.diff
    monkeypatch.setattr(
        RationalFunction, "diff", lambda self, name: calls.append(1) or counted(self, name)
    )
    system = PfaffianSystem(ode_domain, ode_theta)
    sym = SymmetryAlgebra(ode_symmetry_fields, heisenberg)
    counts = []
    for samples in (2, 6):
        calls.clear()
        _, report = first_integrals(system, sym, ode_basepoint, verify_samples=samples)
        assert report.passed, str(report)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_wrong_constants_fail_at_the_first_reduction_level(
    ode_domain, ode_theta, ode_symmetry_fields, ode_basepoint
):
    system = PfaffianSystem(ode_domain, ode_theta)
    sym = SymmetryAlgebra(ode_symmetry_fields, StructureConstants.abelian(3))
    with pytest.raises(ResidualNonzero) as exc:
        first_integrals(system, sym, ode_basepoint)
    assert exc.value.level == 0


def test_first_integrals_annihilate_the_ode_flow(
    ode_domain, ode_theta, ode_symmetry_fields, heisenberg, ode_basepoint, ode_chart
):
    """<df^i, D_x> = 0 for the total-derivative field of the ODE: the level
    sets contain the integral curves."""
    system = PfaffianSystem(ode_domain, ode_theta)
    sym = SymmetryAlgebra(ode_symmetry_fields, heisenberg)
    fns, _ = first_integrals(system, sym, ode_basepoint)
    rf = lambda s: RationalFunction.parse(ode_chart, s)
    Dx = VectorField(
        ode_chart,
        [rf("1"), rf("u_x"), rf("u_xx"), rf("3*u_xx^2/u_x + u_xx^3/u_x^5")],
    )
    for f in fns:
        coeffs = {}
        for j, nm in enumerate(ode_chart.names):
            d = f.diff(nm)
            if not d.is_zero():
                coeffs[(j,)] = d
        df = DiffForm(ode_chart, 1, coeffs, RationalFunction)
        assert pairing(df, Dx).is_zero()


def test_first_integrals_abelian_translations():
    V = VarSet.of("x1", "x2")
    theta = [DiffForm.d_coordinate(V, n, RationalFunction) for n in V.names]
    Z = [VectorField.coordinate(V, n, RationalFunction) for n in V.names]
    system = PfaffianSystem(Domain(V), theta)
    sym = SymmetryAlgebra(Z, StructureConstants.abelian(2))
    fns, report = first_integrals(system, sym, {"x1": F(0), "x2": F(0)})
    assert report.passed
    assert fns[0] == RationalFunction.coordinate(V, "x1")
    assert fns[1] == RationalFunction.coordinate(V, "x2")


def test_first_integral_with_log_extension():
    """du - u dx with the scaling symmetry u d/du: quadrature leaves the
    rational functions but stays in the log extension."""
    V = VarSet.of("x", "u")
    rf = lambda s: RationalFunction.parse(V, s)
    theta = [DiffForm(V, 1, {(0,): rf("-u"), (1,): rf("1")})]
    Z = [VectorField(V, [rf("0"), rf("u")])]
    system = PfaffianSystem(Domain(V, (rf("u"),)), theta)
    sym = SymmetryAlgebra(Z, StructureConstants.abelian(1))
    fns, report = first_integrals(system, sym, {"x": F(0), "u": F(1)})
    assert report.passed, str(report)
    (f,) = fns
    assert isinstance(f, LogExtendedScalar)
    assert f.rational_part == rf("-x")
    assert len(f.log_terms) == 1
    assert f.diff("u") == rf("1/u")
    # df = theta / u exactly
    assert f.diff("x") == rf("-1")


def test_first_integral_outside_class_raises():
    V = VarSet.of("x", "u")
    rf = lambda s: RationalFunction.parse(V, s)
    # normalized form is dx + du/(u^2+1); its quadrature needs an arctangent
    theta = [DiffForm(V, 1, {(0,): rf("u^2+1"), (1,): rf("1")})]
    Z = [VectorField(V, [rf("1"), rf("0")])]
    system = PfaffianSystem(Domain(V), theta)
    sym = SymmetryAlgebra(Z, StructureConstants.abelian(1))
    with pytest.raises(NonElementaryInClass):
        first_integrals(system, sym, {"x": F(0), "u": F(0)})


def test_exppoly_generators_rejected():
    from liequad import ExpPoly

    V = VarSet.of("x1", "x2")
    theta = [DiffForm.d_coordinate(V, n, ExpPoly) for n in V.names]
    with pytest.raises(ValueError):
        PfaffianSystem(Domain(V), theta)


def test_non_solvable_symmetry_rejected():
    from catalog import sl2

    V = VarSet.of("x1", "x2", "x3")
    theta = [DiffForm.d_coordinate(V, n, RationalFunction) for n in V.names]
    Z = [VectorField.coordinate(V, n, RationalFunction) for n in V.names]
    system = PfaffianSystem(Domain(V), theta)
    sym = SymmetryAlgebra(Z, sl2())
    with pytest.raises(NotSolvable):
        first_integrals(system, sym, {n: F(0) for n in V.names})


def test_independence_line_records_the_smallest_largest_minor(
    ode_domain, ode_theta, ode_symmetry_fields, heisenberg, ode_basepoint
):
    """The functional-independence line records the smallest, over the
    samples, of the largest absolute n x n minor of the partials; here the
    same points are drawn and evaluated one at a time."""
    import random
    from itertools import combinations

    import numpy as np

    from liequad.forms import differential

    system = PfaffianSystem(ode_domain, ode_theta)
    sym = SymmetryAlgebra(ode_symmetry_fields, heisenberg)
    fns, report = first_integrals(system, sym, ode_basepoint, verify_samples=12, seed=5)
    check = next(c for c in report.checks if c.name == "functional independence at sample points")
    dfs = [differential(f) for f in fns]
    d = len(ode_domain.chart)
    rng = random.Random(5)
    best = []
    for _ in range(12):
        pt = ode_domain.sample(rng)
        grad = np.array([[df.coefficient((j,)).evaluate(pt) for j in range(d)] for df in dfs])
        best.append(max(abs(float(np.linalg.det(grad[:, cols]))) for cols in combinations(range(d), len(dfs))))
    assert check.passed and check.error == min(best) > 1e-9
