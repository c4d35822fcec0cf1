"""Acceptance suite: seven criteria, each with its stated tolerance and
runtime budget, printing one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import random
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

from liequad import (
    DiffForm,
    ExpPoly,
    PointMap,
    RationalFunction,
    VarSet,
    VectorField,
    adapted_chain,
    build_group,
    first_integrals,
    lie_bracket,
    line_integral,
    multiplication,
    normalize,
    potential,
    preadjoint_oracle,
    pullback,
    structure_residual,
    sym_exp,
)
from liequad.catalog import catalog
from liequad.exppoly import KIND_COS, KIND_SIN
from liequad.matexp import derivative_residual
from liequad.pfaffian import PfaffianSystem, SymmetryAlgebra
from conftest import five_dim_constants, golden_coframe_a1_b2, golden_mu_a1_b2

F = Fraction


def _criterion(num: int, desc: str, passed: bool, elapsed: float | None = None, limit: float | None = None):
    status = "PASS" if passed else "FAIL"
    timing = ""
    if elapsed is not None and limit is not None:
        timing = f"  [{elapsed:.2f}s / limit {limit:.0f}s]"
    print(f"[{status}] criterion {num}: {desc}{timing}")
    assert passed, f"criterion {num} failed: {desc}"
    if elapsed is not None and limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded runtime budget"


def test_criterion_1_golden_coframe():
    t0 = time.perf_counter()
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    group = build_group(chain)
    elapsed = time.perf_counter() - t0
    golden = golden_coframe_a1_b2(group.chart)
    ok = True
    for tau, g in zip(group.tau, golden):
        for idx in set(tau.coeffs) | set(g.coeffs):
            a = tau.coefficient(idx)
            b = g.coefficient(idx)
            if set(a.terms) != set(b.terms):
                ok = False
            if (a - b).max_abs_coeff() > 1e-10:
                ok = False
    _criterion(1, "coframe of the 5-dim family at (1,2) matches the golden term-for-term", ok, elapsed, 1.0)


def test_criterion_2_golden_multiplication(tmp_path):
    import json

    from click.testing import CliRunner

    from liequad.cli import main
    from conftest import fixture_path
    from liequad.varset import doubled_chart

    out = tmp_path / "grouplaw.json"
    t0 = time.perf_counter()
    result = CliRunner().invoke(
        main,
        [
            "multiply",
            fixture_path("algebra_fiveparam_a1_b2.json"),
            "--samples", "100", "--seed", "0", "--tol-sample", "1e-8",
            "-o", str(out),
        ],
        catch_exceptions=False,
    )
    elapsed = time.perf_counter() - t0
    ok = result.exit_code == 0
    doc = json.loads(out.read_text())
    D = doubled_chart(5)
    golden = golden_mu_a1_b2(D)
    for i, g in enumerate(golden):
        computed = ExpPoly.parse(D, doc["mu"][f"z{i + 1}"])
        if set(computed.terms) != set(g.terms) or not computed.isclose(g, 1e-10):
            ok = False
    passed_names = {c["name"] for c in doc["report"]["checks"] if c["passed"]}
    for needed in (
        "associativity mu(a, mu(b,c)) = mu(mu(a,b), c)",
        "identity mu(0,a) = a = mu(a,0)",
        "Ad(mu(a,b)) = Ad(a) Ad(b)",
        "left invariance dL_a X_i = X_i o L_a",
    ):
        if needed not in passed_names:
            ok = False
    _criterion(2, "multiply command reproduces the golden law; axiom suite passes at 100 points", ok, elapsed, 10.0)


def test_criterion_3_golden_first_integrals(
    ode_domain, ode_theta, ode_symmetry_fields, heisenberg, ode_basepoint,
    omega_normalized, ode_goldens,
):
    t0 = time.perf_counter()
    om = normalize(ode_theta, ode_symmetry_fields, heisenberg)
    system = PfaffianSystem(ode_domain, ode_theta)
    sym = SymmetryAlgebra(ode_symmetry_fields, heisenberg)
    fns, report = first_integrals(system, sym, ode_basepoint)
    elapsed = time.perf_counter() - t0
    ok = report.passed
    for a, b in zip(om, omega_normalized):
        if not (a - b).is_zero():
            ok = False
    for name, idx in (("f1", 0), ("f2", 1), ("f3", 2)):
        golden = ode_goldens[name]
        shift = golden.evaluate_exact(ode_basepoint)
        if fns[idx] != golden - RationalFunction.constant(golden.chart, shift):
            ok = False
    _criterion(3, "normalized forms and first integrals match the goldens exactly", ok, elapsed, 5.0)


def test_criterion_4_structure_equation_suite():
    entries = catalog()
    assert len(entries) >= 6
    ok = True
    for entry in entries:
        _, chain = adapted_chain(entry.constants)
        group = build_group(chain)
        res = structure_residual(group.tau, chain.base)
        if max(r.max_abs_coeff() for r in res) > 1e-10:
            ok = False
        rng = random.Random(4)
        n = group.n
        sc = chain.base
        for i in range(n):
            for j in range(i + 1, n):
                diff = lie_bracket(group.frame[i], group.frame[j])
                for k in range(n):
                    c = sc.C[k][i][j]
                    if c != 0:
                        diff = diff - group.frame[k] * float(c)
                for _ in range(50):
                    pt = {nm: rng.uniform(-1.5, 1.5) for nm in group.chart.names}
                    if float(np.abs(diff.at(pt)).max()) > 1e-9:
                        ok = False
    _criterion(4, f"structure equations and bracket relations hold for {len(entries)} catalog algebras", ok)


def test_criterion_5_cross_oracle():
    ok = True
    for entry in catalog():
        _, chain = adapted_chain(entry.constants)
        law = multiplication(chain)
        report = preadjoint_oracle(chain, law, samples=100, seed=5, tol=1e-8)
        if not report.passed:
            ok = False
    _criterion(5, "independent multiplication-map derivation agrees at 100 points per algebra", ok)


def _random_exppoly(rng, chart, terms=3):
    acc = ExpPoly.zero(chart)
    for _ in range(terms):
        powers = {n: rng.randint(0, 2) for n in chart.names if rng.random() < 0.5}
        rates = {n: rng.choice([-1.5, -1.0, 0.5, 1.0]) for n in chart.names if rng.random() < 0.4}
        kind = 0
        trig = {}
        if rng.random() < 0.5:
            trig = {n: rng.choice([1.0, -2.0, 0.5]) for n in chart.names if rng.random() < 0.4}
            if trig:
                kind = rng.choice([KIND_COS, KIND_SIN])
        coeff = rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0])
        acc = acc + ExpPoly.term(chart, coeff, powers, rates, trig if kind else None, kind)
    return acc


def test_criterion_6_quadrature_oracle():
    chart = VarSet.of("x1", "x2", "x3")
    rng = random.Random(6)
    ok = True
    for case in range(50):
        f = _random_exppoly(rng, chart)
        omega = DiffForm.function(f).exterior_d()
        g = potential(omega)
        h = g - f
        const = ExpPoly.constant(chart, h.evaluate({n: 0.0 for n in chart.names}))
        if (h - const).max_abs_coeff() > 1e-9:
            ok = False
        if case < 20:
            start = {n: 0.0 for n in chart.names}
            end = {n: rng.uniform(-1.2, 1.2) for n in chart.names}
            numeric = line_integral(omega, start, end)
            symbolic = g.evaluate(end)
            if abs(numeric - symbolic) > 1e-8 * max(1.0, abs(symbolic)):
                ok = False
    _criterion(6, "potential recovers 50 random exact forms; 20 agree with the line-integral oracle", ok)


def test_criterion_7_property_suite():
    chart = VarSet.of("x1", "x2", "x3")
    cases = 0
    ok = True

    # d(d(alpha)) = 0 -- 150 cases
    rng = random.Random(70)
    import itertools

    for _ in range(150):
        degree = rng.choice([0, 1, 2])
        coeffs = {
            idx: _random_exppoly(rng, chart, 2)
            for idx in itertools.combinations(range(3), degree)
            if rng.random() < 0.8
        }
        alpha = DiffForm(chart, degree, coeffs, ExpPoly)
        if not alpha.exterior_d().exterior_d().is_zero(1e-9):
            ok = False
        cases += 1

    # antiderivation law -- 100 cases
    rng = random.Random(71)
    for _ in range(100):
        p = rng.choice([0, 1])
        a = DiffForm(
            chart, p,
            {idx: _random_exppoly(rng, chart, 2) for idx in itertools.combinations(range(3), p)},
            ExpPoly,
        )
        q = rng.choice([0, 1])
        b = DiffForm(
            chart, q,
            {idx: _random_exppoly(rng, chart, 2) for idx in itertools.combinations(range(3), q)},
            ExpPoly,
        )
        lhs = a.wedge(b).exterior_d()
        rhs = a.exterior_d().wedge(b) + a.wedge(b.exterior_d()) * ((-1) ** p)
        if not (lhs - rhs).is_zero(1e-8):
            ok = False
        cases += 1

    # pullback commutes with d -- 50 cases
    rng = random.Random(72)
    W = VarSet.of("s", "t")
    for _ in range(50):
        comps = [
            ExpPoly.coordinate(W, "s") * rng.uniform(0.5, 2.0)
            + ExpPoly.coordinate(W, "t") * rng.uniform(-1.5, 1.5),
            ExpPoly.coordinate(W, "t") * rng.uniform(0.5, 2.0),
            ExpPoly.coordinate(W, "s") * ExpPoly.coordinate(W, "t"),
        ]
        phi = PointMap(W, chart, comps)
        alpha = DiffForm(
            chart, 1,
            {(i,): _random_exppoly(rng, VarSet.of("x1", "x2", "x3"), 2) for i in range(2)},
            ExpPoly,
        )
        # keep rates off the non-affine position x3
        safe = DiffForm(
            chart, 1,
            {
                (i,): _strip_rates_on(alpha.coefficient((i,)), "x3")
                for i in range(2)
            },
            ExpPoly,
        )
        lhs = pullback(phi, safe.exterior_d())
        rhs = pullback(phi, safe).exterior_d()
        if not (lhs - rhs).is_zero(1e-8):
            ok = False
        cases += 1

    # Jacobi identity of the bracket, numerically -- 100 cases
    rng = random.Random(73)
    for _ in range(25):
        fields = [
            VectorField(chart, [_random_exppoly(rng, chart, 1) for _ in chart.names])
            for _ in range(3)
        ]
        X, Y, Z = fields
        J = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        for _ in range(4):
            pt = {n: rng.uniform(-1, 1) for n in chart.names}
            if float(np.abs(J.at(pt)).max()) > 1e-7:
                ok = False
            cases += 1

    # matexp identities and the scaling-and-squaring oracle -- 100 cases
    rng = random.Random(74)
    for m in range(10):
        n = rng.choice([2, 3, 4])
        A = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        E = sym_exp(A, "t")
        if derivative_residual(E) > 1e-8:
            ok = False
        An = np.array([[float(x) for x in row] for row in A])
        for _ in range(10):
            t = rng.uniform(-3, 3)
            ref = scipy.linalg.expm(t * An)
            scale = max(1.0, float(np.abs(ref).max()))
            if float(np.abs(E.at(t) - ref).max()) / scale > 1e-8:
                ok = False
            cases += 1

    assert cases == 500
    _criterion(7, f"property suite: {cases} randomized cases (derivations, pullbacks, brackets, exponentials)", ok)


def _strip_rates_on(p: ExpPoly, name: str) -> ExpPoly:
    i = p.chart.index(name)
    terms = {}
    for (k, a, b, kind), c in p.terms.items():
        a = tuple(0.0 if t == i else v for t, v in enumerate(a))
        b2 = tuple(0.0 if t == i else v for t, v in enumerate(b))
        terms[(k, a, b2, kind)] = terms.get((k, a, b2, kind), 0.0) + c
    return ExpPoly(p.chart, terms)
