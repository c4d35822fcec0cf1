"""Reduction pipeline: single steps, full runs, reassembly, the map rho."""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from liequad import (
    BasepointOnPole,
    DiffForm,
    ExpPoly,
    LiequadError,
    NonAffineExponentSubstitution,
    NotClosed,
    RationalFunction,
    ResidualNonzero,
    StructureConstants,
    VarSet,
    adapted_chain,
    build_group,
    chain_from_adapted,
    coordinate_chart,
    multiplication,
    preadjoint_oracle,
    reassemble,
    reduce_full,
    reduce_step,
    rho_map,
    structure_residual,
    unreduce,
    verify_group,
    verify_rho,
)
from liequad.liegroup import product_group_forms
from conftest import borel_constants, five_dim_constants, golden_mu_a1_b2

F = Fraction


def test_abelian_reduction_is_trivial():
    sc = StructureConstants.abelian(3)
    _, chain = adapted_chain(sc)
    chart = coordinate_chart(3)
    dx = [DiffForm.d_coordinate(chart, n) for n in chart.names]
    trace = reduce_full(dx, chain)
    for i, f in enumerate(trace.functions):
        assert f.isclose(ExpPoly.coordinate(chart, chart.names[i]))
    assert all(step.factor is None for step in trace.steps)


def test_single_step_on_ode_forms(heisenberg, omega_normalized, ode_basepoint):
    chain = chain_from_adapted(heisenberg)
    step, hat = reduce_step(omega_normalized, chain, 0, ode_basepoint)
    f3 = step.f
    chart = omega_normalized[0].chart
    rf = lambda s: RationalFunction.parse(chart, s)
    assert f3 == rf("1/u_x - u_x^3/u_xx")
    # the step factor is exp(f * ad(e_3)) = [[1, -f, 0], [0, 1, 0], [0, 0, 1]]
    from liequad.reduction import _factor_matrix

    E = _factor_matrix(chain.ad_exp(0), f3)
    assert E[0][0] == RationalFunction.one(chart)
    assert E[0][1] == -1 * f3
    assert E[0][2].is_zero() and E[1][0].is_zero()
    # hand-typed intermediate from the worked example
    hat1_expected = DiffForm(
        chart,
        1,
        {
            (0,): rf("1"),
            (1,): rf("(u_x^4 - u_xx)/(u_x*u_xx)"),
            (2,): rf("(3*u_x^10 + 3*u*u_xx^2*u_x^4 + u*u_xx^3)/(u_xx^3*u_x^2)"),
            (3,): rf("-u_x^3*(u_x^6 + u*u_xx^2)/u_xx^4"),
        },
    )
    assert (hat[0] - hat1_expected).is_zero()
    assert hat[0].exterior_d().is_zero()
    assert hat[1].exterior_d().is_zero()
    assert (hat[2] - omega_normalized[2]).is_zero()


def test_full_reduction_matches_goldens(
    heisenberg, omega_normalized, ode_basepoint, ode_goldens
):
    chain = chain_from_adapted(heisenberg)
    trace = reduce_full(omega_normalized, chain, ode_basepoint)
    for name, idx in (("f1", 0), ("f2", 1), ("f3", 2)):
        golden = ode_goldens[name]
        shift = golden.evaluate_exact(ode_basepoint)
        assert trace.functions[idx] == golden - RationalFunction.constant(
            golden.chart, shift
        )
    # basepoint normalization
    for f in trace.functions:
        assert f.evaluate_exact(ode_basepoint) == 0


def test_reassembly_reproduces_input(heisenberg, omega_normalized, ode_basepoint):
    chain = chain_from_adapted(heisenberg)
    trace = reduce_full(omega_normalized, chain, ode_basepoint)
    back = reassemble(trace)
    for b, o in zip(back, omega_normalized):
        assert (b - o).is_zero()


def test_five_dim_product_group_reduction_matches_worked_example():
    sc = five_dim_constants(F(1), F(2))
    _, chain = adapted_chain(sc)
    group, D, omegas = product_group_forms(chain)
    # steps s = 0, 1 use f5 = x5 + y5 and f4 = x4 + y4
    step, hat = reduce_step(omegas, chain, 0, None)
    f5 = step.f
    assert f5.isclose(
        ExpPoly.coordinate(D, "x5") + ExpPoly.coordinate(D, "y5"), 1e-12
    )
    step, hat2 = reduce_step(hat[:4], chain, 1, None)
    f4 = step.f
    assert f4.isclose(
        ExpPoly.coordinate(D, "x4") + ExpPoly.coordinate(D, "y4"), 1e-12
    )
    # after both exponential factors the first reduced form is
    # dx1 + e^{-x5-2x4}(dy1 - 2 y1 dx4 - y1 dx5)
    e = ExpPoly.term(D, 1.0, exp_rates={"x4": -2.0, "x5": -1.0})
    y1 = ExpPoly.coordinate(D, "y1")
    expected = (
        DiffForm.d_coordinate(D, "x1")
        + DiffForm.d_coordinate(D, "y1") * e
        + DiffForm.d_coordinate(D, "x4") * (e * y1 * -2.0)
        + DiffForm.d_coordinate(D, "x5") * (e * y1 * -1.0)
    )
    assert (hat2[0] - expected).max_abs_coeff() <= 1e-10
    # the remaining adjoints vanish, so these forms are already closed
    assert hat2[0].exterior_d().max_abs_coeff() <= 1e-10
    assert hat2[1].exterior_d().max_abs_coeff() <= 1e-10
    assert hat2[2].exterior_d().max_abs_coeff() <= 1e-10
    # full run reproduces the worked multiplication functions
    trace = reduce_full(omegas, chain)
    golden = golden_mu_a1_b2(D)
    for f, g in zip(trace.functions, golden):
        assert f.isclose(g, 1e-10)


def test_identity_case_returns_coordinates():
    for sc in (
        five_dim_constants(F(1), F(2)),
        StructureConstants.from_brackets(3, {(2, 3): {1: F(1)}}),
        StructureConstants.from_brackets(2, {(1, 2): {1: F(1)}}),
    ):
        _, chain = adapted_chain(sc)
        group = build_group(chain)
        trace = reduce_full(group.tau, chain)
        for i, f in enumerate(trace.functions):
            assert f.isclose(
                ExpPoly.coordinate(group.chart, group.chart.names[i]), 1e-9
            )


def test_rational_reduction_of_filiform_coframes_is_exact():
    """Over exact rational functions the L5 and L6 coframes, whose factors
    carry x^3/6 and x^4/24, reduce to the coordinates."""
    for n in (5, 6):
        sc = StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})
        _, chain = adapted_chain(sc)
        group = build_group(chain)
        forms = unreduce(chain, [RationalFunction.coordinate(group.chart, nm) for nm in group.chart.names])
        trace = reduce_full(forms, chain)
        for i, f in enumerate(trace.functions):
            assert f == RationalFunction.coordinate(group.chart, group.chart.names[i])


def test_basepoint_on_a_pole_stops_the_reduction(heisenberg, omega_normalized):
    """The basepoint is completed with zeros; u_x = 0 is a pole of the
    first quadrature."""
    chain = chain_from_adapted(heisenberg)
    for basepoint in (None, {"x": F(1), "u_xx": F(1)}):
        with pytest.raises(BasepointOnPole) as info:
            reduce_full(omega_normalized, chain, basepoint)
        assert info.value.code == "basepoint-on-pole"
        assert "denominator vanishes on" in str(info.value)


def test_residual_check_rejects_wrong_constants(omega_normalized, ode_basepoint):
    wrong = StructureConstants.from_brackets(3, {(2, 3): {1: F(2)}})
    chain = chain_from_adapted(wrong)
    with pytest.raises(ResidualNonzero) as info:
        reduce_full(omega_normalized, chain, ode_basepoint)
    assert info.value.level == 0 and info.value.residual == 1.0


def test_partial_reduction_early_stop(monkeypatch):
    import liequad.reduction as reduction

    calls = []
    counted = reduction.structure_residual
    monkeypatch.setattr(
        reduction, "structure_residual", lambda *a: calls.append(1) or counted(*a)
    )
    sc = five_dim_constants(F(1), F(2))
    _, chain = adapted_chain(sc)
    _, D, omegas = product_group_forms(chain)
    # the structure equations are checked once, on the input block
    full = reduce_full(omegas, chain)
    assert len(calls) == 1 and list(full.residuals) == [0]
    calls.clear()
    trace = reduce_full(omegas, chain, stop_after=2)
    # level 0 for the input block, level 2 for the remaining block
    assert len(calls) == 2 and list(trace.residuals) == [0, 2]
    assert max(trace.residuals.values()) < 1e-10
    calls.clear()
    # with no step the remaining block is the input block
    assert list(reduce_full(omegas, chain, stop_after=0).residuals) == [0]
    assert len(calls) == 1
    assert not trace.complete
    assert len(trace.residual_forms) == 3
    assert trace.functions[4] is not None and trace.functions[3] is not None
    assert trace.functions[0] is None
    # residual forms satisfy the structure equations of the remaining ideal
    res = structure_residual(trace.residual_forms, chain.base.restricted(3))
    assert max(r.max_abs_coeff() for r in res) < 1e-10


def test_step_factor_is_bracket_automorphism():
    sc = five_dim_constants(F(1), F(2))
    _, chain = adapted_chain(sc)
    _, D, omegas = product_group_forms(chain)
    step, _ = reduce_step(omegas, chain, 0, None)
    f5 = step.f
    from liequad.reduction import _factor_matrix

    E = _factor_matrix(chain.ad_exp(0), f5)
    rng = random.Random(21)
    for _ in range(10):
        u = [rng.uniform(-1, 1) for _ in range(5)]
        v = [rng.uniform(-1, 1) for _ in range(5)]
        pt = {n: rng.uniform(-0.8, 0.8) for n in D.names}
        Emat = np.array([[c.evaluate(pt) for c in row] for row in E])
        w = [float(x) for x in five_dim_constants(F(1), F(2)).bracket(
            [F(a).limit_denominator(10**6) for a in u],
            [F(b).limit_denominator(10**6) for b in v],
        )]
        lhs = Emat @ np.array(w)
        Eu, Ev = Emat @ np.array(u), Emat @ np.array(v)
        rhs = np.array(
            [
                float(x)
                for x in five_dim_constants(F(1), F(2)).bracket(
                    [F(a).limit_denominator(10**8) for a in Eu],
                    [F(b).limit_denominator(10**8) for b in Ev],
                )
            ]
        )
        assert np.abs(lhs - rhs).max() < 1e-6


def test_verify_rho_on_ode_example(
    heisenberg, omega_normalized, ode_basepoint
):
    chain = chain_from_adapted(heisenberg)
    trace = reduce_full(omega_normalized, chain, ode_basepoint)
    group = build_group(chain)
    report = verify_rho(trace, omega_normalized)
    assert report.passed
    assert all(c.mode == "exact" for c in report.checks)
    rho = rho_map(trace)
    assert rho.target == group.chart


def test_verify_rho_numeric_mode(heisenberg, omega_normalized, ode_basepoint):
    chain = chain_from_adapted(heisenberg)
    trace = reduce_full(omega_normalized, chain, ode_basepoint)
    report = verify_rho(trace, omega_normalized, mode="numeric", samples=40)
    assert report.passed, str(report)
    assert all(c.mode == "numeric" for c in report.checks)


def test_verify_rho_on_exact_filiform16_forms_is_exact():
    """The L16 coframe un-reduced over Q carries x^14/14!, a coefficient
    below ZERO_TOL; rho^* tau = omega still holds with error 0, because tau
    is built in rho's own rational class."""
    n = 16
    sc = StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})
    _, chain = adapted_chain(sc)
    U = coordinate_chart(n, "u")
    forms = unreduce(chain, [RationalFunction.coordinate(U, nm) for nm in U.names])
    trace = reduce_full(forms, chain)
    assert trace.functions == [RationalFunction.coordinate(U, nm) for nm in U.names]
    report = verify_rho(trace, forms)
    assert report.passed, str(report)
    assert len(report.checks) == n
    assert all(c.mode == "exact" and c.error == 0 for c in report.checks)


def test_log_quadrature_with_integrating_factor():
    """Forms (u dx, du/u) for the 2-dim non-abelian algebra: the quadrature
    gives log u, and the exponential factor collapses to the rational
    integrating factor 1/u."""
    from liequad import LogExtendedScalar

    sc = StructureConstants.from_brackets(2, {(1, 2): {1: F(1)}})
    _, chain = adapted_chain(sc)
    V = VarSet.of("x", "u")
    rf = lambda s: RationalFunction.parse(V, s)
    omega1 = DiffForm(V, 1, {(0,): rf("u")})
    omega2 = DiffForm(V, 1, {(1,): rf("1/u")})
    res = structure_residual([omega1, omega2], sc)
    assert all(r.is_zero() for r in res)
    trace = reduce_full([omega1, omega2], chain, {"x": F(0), "u": F(1)})
    f2 = trace.functions[1]
    assert isinstance(f2, LogExtendedScalar)
    assert f2.rational_part.is_zero() and len(f2.log_terms) == 1
    assert trace.functions[0] == rf("x")
    # step factor is the rational matrix diag(1/u, 1)
    factor = trace.steps[0].factor
    assert factor[0][0] == rf("1/u")
    assert factor[1][1] == rf("1")
    back = reassemble(trace)
    assert (back[0] - omega1).is_zero()
    assert (back[1] - omega2).is_zero()


def test_log_factor_guards_reject_out_of_class_scalars():
    """Non-integer powers or leftover rational parts in the exponential
    factor are reported, not solved.  Consistent rational inputs cannot
    reach these states, so the guards are unit-tested directly."""
    from fractions import Fraction
    from liequad import LogExtendedScalar, NonElementaryInClass, sym_exp
    from liequad.rational import _log_factor

    V = VarSet.of("x", "u")
    rf = lambda s: RationalFunction.parse(V, s)
    E = sym_exp([[F(-1), F(0)], [F(0), F(0)]], "_t")
    good = LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1), rf("u"))])
    M = _log_factor(E, good)
    assert M[0][0] == rf("1/u")
    third = LogExtendedScalar(V, RationalFunction.zero(V), [(Fraction(1, 3), rf("u"))])
    with pytest.raises(NonElementaryInClass):
        _log_factor(E, third)
    mixed = LogExtendedScalar(V, rf("x"), [(Fraction(1), rf("u"))])
    with pytest.raises(NonElementaryInClass):
        _log_factor(E, mixed)


def test_log_factor_with_a_small_rational_bracket_reduces():
    """[e3, e1] = e1, [e3, e2] = a e1 with a = 1/1000000007: the level-2
    factor e^{log(u) ad} carries a(u - 1) exactly, so the forms
    (dx/u - a dy, dy, du/u) reduce to (x - a y, y, log u) and reassemble."""
    from liequad import LogExtendedScalar

    a = F(1, 1000000007)
    sc = StructureConstants.from_brackets(3, {(3, 1): {1: F(1)}, (3, 2): {1: a}})
    _, chain = adapted_chain(sc)
    V = VarSet.of("x", "y", "u")
    rf = lambda s: RationalFunction.parse(V, s)
    omega = [DiffForm(V, 1, {(0,): rf("1/u"), (1,): rf(f"-{a}")}), DiffForm(V, 1, {(1,): rf("1")}),
             DiffForm(V, 1, {(2,): rf("1/u")})]
    assert all(r.is_zero() for r in structure_residual(omega, sc))
    trace = reduce_full(omega, chain, {"x": F(0), "y": F(0), "u": F(1)})
    assert trace.functions[:2] == [rf(f"x - {a}*y"), rf("y")]
    assert trace.functions[2] == LogExtendedScalar(V, rf("0"), [(1, rf("u"))])
    back = reassemble(trace)
    assert all((b - w).is_zero() for b, w in zip(back, omega))


# ----------------------------------------------------------------------
# a corrupted factor below the checked input block is still caught

def _corrupt_level_factor(monkeypatch, chain, s, column=0):
    """Add f/2 to one entry of the level-s factor e^{f ad_s}: the row of
    the form the next level integrates, in the given column.  Returns the
    list of corrupted factors, one per reduction that reached level s."""
    import liequad.reduction as reduction

    original = reduction._factor_matrix
    step_code = reduction.reduce_step.__code__
    forward = chain.ad_exp(s)
    m = chain.n - s
    hits = []

    def corrupted(exp, f):
        E = original(exp, f)
        # the forward factor of level s only, the one reduce_step builds;
        # unreduce builds the inverse factors with the same call at -f
        if E is not None and exp is forward and sys._getframe(1).f_code is step_code:
            E = [list(row) for row in E]
            E[m - 2][column] = E[m - 2][column] + f * 0.5
            hits.append(s)
        return E

    monkeypatch.setattr(reduction, "_factor_matrix", corrupted)
    return hits


@pytest.mark.parametrize("sc, s, last_column", [
    (borel_constants(4), 1, False),
    (borel_constants(4), 2, False),
    (borel_constants(4), 3, False),
    (five_dim_constants(F(1), F(2)), 1, False),
    (borel_constants(4), 1, True),
    (borel_constants(4), 2, True),
], ids=["borel4-level1", "borel4-level2", "borel4-level3", "five-dim-level1",
        "borel4-level1-last-column", "borel4-level2-last-column"])
def test_corrupted_factor_ends_in_an_error_or_a_failing_check(monkeypatch, sc, s, last_column):
    """The structure equations are checked on the input block only.  A
    wrong level-s factor breaks them from level s + 1 on, so the run must
    end in a typed error naming a deeper level or in a failing report line.
    In the last column, the next quadrature is closed but quadratic, and
    the next factor cannot compose with it: the error names level s + 1."""
    _, chain = adapted_chain(sc)
    hits = _corrupt_level_factor(monkeypatch, chain, s, chain.n - s - 1 if last_column else 0)
    try:
        law = multiplication(chain)
        report = verify_group(law)
        report.extend(preadjoint_oracle(chain, law))
    except LiequadError as exc:
        assert exc.level is not None and exc.level > s, repr(exc)
        if last_column:
            assert isinstance(exc, NonAffineExponentSubstitution) and exc.level == s + 1, repr(exc)
    else:
        assert not last_column and not report.passed, str(report)
    assert hits


def test_not_closed_names_its_level(monkeypatch):
    _, chain = adapted_chain(borel_constants(4))
    _corrupt_level_factor(monkeypatch, chain, 1)
    with pytest.raises(NotClosed, match="the level-2 quadrature form is not closed") as info:
        multiplication(chain)
    assert info.value.level == 2 and info.value.code == "not-closed"
