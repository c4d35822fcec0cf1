"""Group synthesis: coframe/frame goldens, adjoint representation,
multiplication map, axiom verification, the cross-check oracle."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from liequad import (
    DiffForm,
    ExpPoly,
    GroupLaw,
    PointMap,
    StructureConstants,
    VectorField,
    ad_rep,
    adapted_chain,
    build_group,
    coordinate_chart,
    group_invariants_report,
    jsonio,
    multiplication,
    pairing,
    preadjoint_oracle,
    verify_group,
)
from catalog import catalog, filiform4, heisenberg
from conftest import (
    borel_constants,
    five_dim_constants,
    fixture_path,
    golden_coframe_a1_b2,
    golden_mu_a1_b2,
)

F = Fraction


def test_abelian_coframe_and_frame():
    _, chain = adapted_chain(StructureConstants.abelian(3))
    group = build_group(chain)
    for i, nm in enumerate(group.chart.names):
        assert group.tau[i].coefficient((i,)).isclose(ExpPoly.one(group.chart))
        assert group.frame[i].components[i].isclose(ExpPoly.one(group.chart))


def test_five_dim_coframe_matches_golden_term_for_term():
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    group = build_group(chain)
    golden = golden_coframe_a1_b2(group.chart)
    for tau, g in zip(group.tau, golden):
        diff = tau - g
        assert diff.max_abs_coeff() <= 1e-10
        # term-for-term: identical canonical keys
        for idx, c in tau.coeffs.items():
            assert set(c.terms) == set(g.coefficient(idx).terms)


def test_heisenberg_coframe_is_the_polynomial_one():
    _, chain = adapted_chain(heisenberg())
    group = build_group(chain)
    chart = group.chart
    x3 = ExpPoly.coordinate(chart, "x3")
    expected = DiffForm.d_coordinate(chart, "x1") + DiffForm.d_coordinate(chart, "x2") * x3
    assert (group.tau[0] - expected).max_abs_coeff() <= 1e-12
    assert (group.tau[1] - DiffForm.d_coordinate(chart, "x2")).is_zero()
    assert (group.tau[2] - DiffForm.d_coordinate(chart, "x3")).is_zero()


def test_frame_duality_for_catalog():
    for entry in catalog():
        _, chain = adapted_chain(entry.constants)
        group = build_group(chain)
        n = group.n
        for i in range(n):
            for j in range(n):
                p = pairing(group.tau[i], group.frame[j])
                target = 1.0 if i == j else 0.0
                assert (
                    p - ExpPoly.constant(group.chart, target)
                ).max_abs_coeff() < 1e-10, entry.name


def test_group_invariants_for_catalog():
    for entry in catalog():
        _, chain = adapted_chain(entry.constants)
        group = build_group(chain)
        report = group_invariants_report(group, samples=50, seed=3)
        assert report.passed, f"{entry.name}:\n{report}"


def test_ad_rep_abelian_is_identity():
    _, chain = adapted_chain(StructureConstants.abelian(3))
    Ad = ad_rep(chain)
    chart = coordinate_chart(3)
    for i in range(3):
        for j in range(3):
            expected = ExpPoly.one(chart) if i == j else ExpPoly.zero(chart)
            assert Ad[i][j] == expected


def test_ad_inverse_matches_worked_example():
    """Ad(y^{-1}) for (a,b)=(1,2), built over the group chart and renamed
    onto the y copy as `product_group_forms` does, against the hand-typed
    matrix."""
    from liequad.varset import doubled_chart

    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    D = doubled_chart(5)
    bind = _copy_bindings(coordinate_chart(5), D, 5)
    M = [[e.substitute(bind) for e in row] for row in ad_rep(chain, inverse=True)]
    t = ExpPoly.term
    e_ab = t(D, 1.0, exp_rates={"y4": 2.0, "y5": 1.0})
    e4 = {"y4": 1.0}
    y = lambda k: ExpPoly.coordinate(D, f"y{k}")
    cos5 = t(D, 1.0, exp_rates=e4, trig_rates={"y5": 1.0}, kind=1)
    sin5 = t(D, 1.0, exp_rates=e4, trig_rates={"y5": 1.0}, kind=2)
    assert M[0][0].isclose(e_ab, 1e-12)
    assert M[0][3].isclose(-2.0 * y(1) * e_ab, 1e-12)
    assert M[0][4].isclose(-1.0 * y(1) * e_ab, 1e-12)
    assert M[1][1].isclose(cos5, 1e-12)
    assert M[1][2].isclose(sin5, 1e-12)
    assert M[1][3].isclose(-1.0 * (y(2) * cos5 + y(3) * sin5), 1e-12)
    assert M[1][4].isclose(y(2) * sin5 - y(3) * cos5, 1e-12)
    assert M[2][1].isclose(-1.0 * sin5, 1e-12)
    assert M[2][3].isclose(y(2) * sin5 - y(3) * cos5, 1e-12)
    assert M[2][4].isclose(y(2) * cos5 + y(3) * sin5, 1e-12)
    assert M[3][3] == ExpPoly.one(D) and M[4][4] == ExpPoly.one(D)
    assert M[1][0].is_zero() and M[3][4].is_zero()


def test_ad_preserves_bracket_numerically():
    sc = heisenberg()
    _, chain = adapted_chain(sc)
    Ad = ad_rep(chain)
    chart = coordinate_chart(3)
    rng = random.Random(31)
    for _ in range(20):
        pt = {n: rng.uniform(-1, 1) for n in chart.names}
        A = np.array([[e.evaluate(pt) for e in row] for row in Ad])
        u = np.array([rng.uniform(-1, 1) for _ in range(3)])
        v = np.array([rng.uniform(-1, 1) for _ in range(3)])

        def bracket(a, b):
            out = np.zeros(3)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        c = float(sc.C[i][j][k])
                        if c:
                            out[i] += c * a[j] * b[k]
            return out

        assert np.abs(A @ bracket(u, v) - bracket(A @ u, A @ v)).max() < 1e-9


def test_five_dim_product_group_form_row_matches_hand_expansion():
    """Second product-group form at (a,b)=(1,2), expanded by hand:
    omega^2 = e^{y4}( e^{x4}(cos(x5+y5)dx2 + sin(x5+y5)dx3) + cos(y5)dy2
              + sin(y5)dy3 - (y2 cos y5 + y3 sin y5)dx4
              + (y2 sin y5 - y3 cos y5)dx5 )."""
    from liequad.liegroup import product_group_forms

    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    group, D, omegas = product_group_forms(chain)
    t = ExpPoly.term
    y2 = ExpPoly.coordinate(D, "y2")
    y3 = ExpPoly.coordinate(D, "y3")
    ey4 = t(D, 1.0, exp_rates={"y4": 1.0})
    ex4y4 = t(D, 1.0, exp_rates={"x4": 1.0, "y4": 1.0})
    cos_xy = t(D, 1.0, trig_rates={"x5": 1.0, "y5": 1.0}, kind=1)
    sin_xy = t(D, 1.0, trig_rates={"x5": 1.0, "y5": 1.0}, kind=2)
    cos_y = t(D, 1.0, trig_rates={"y5": 1.0}, kind=1)
    sin_y = t(D, 1.0, trig_rates={"y5": 1.0}, kind=2)
    dm = lambda n: DiffForm.d_coordinate(D, n)
    expected = (
        dm("x2") * (ex4y4 * cos_xy)
        + dm("x3") * (ex4y4 * sin_xy)
        + dm("y2") * (ey4 * cos_y)
        + dm("y3") * (ey4 * sin_y)
        + dm("x4") * (-1.0 * ey4 * (y2 * cos_y + y3 * sin_y))
        + dm("x5") * (ey4 * (y2 * sin_y - y3 * cos_y))
    )
    assert (omegas[1] - expected).max_abs_coeff() <= 1e-12
    # the last two rows are exact coordinate sums
    assert (omegas[3] - (dm("x4") + dm("y4"))).is_zero()
    assert (omegas[4] - (dm("x5") + dm("y5"))).is_zero()


def test_five_dim_coframe_structure_equation_display():
    """The explicit display for the second coframe member:
    d tau^2 = -tau^2 ^ tau^4 - tau^3 ^ tau^5."""
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    group = build_group(chain)
    t = group.tau
    lhs = t[1].exterior_d()
    rhs = -1 * t[1].wedge(t[3]) + -1 * t[2].wedge(t[4])
    assert (lhs - rhs).max_abs_coeff() <= 1e-12
    # and d tau^3 = tau^2 ^ tau^5 - tau^3 ^ tau^4
    lhs3 = t[2].exterior_d()
    rhs3 = t[1].wedge(t[4]) + -1 * t[2].wedge(t[3])
    assert (lhs3 - rhs3).max_abs_coeff() <= 1e-12


def test_filiform_coframe_polynomial_golden():
    """Nilpotent chain: tau^1 = dx1 - x4 dx2 + x4^2/2 dx3, tau^2 = dx2 - x4 dx3."""
    _, chain = adapted_chain(filiform4())
    group = build_group(chain)
    chart = group.chart
    x4 = ExpPoly.coordinate(chart, "x4")
    dm = lambda n: DiffForm.d_coordinate(chart, n)
    tau1 = dm("x1") + dm("x2") * (-1.0 * x4) + dm("x3") * (x4 * x4 * 0.5)
    tau2 = dm("x2") + dm("x3") * (-1.0 * x4)
    assert (group.tau[0] - tau1).max_abs_coeff() <= 1e-12
    assert (group.tau[1] - tau2).max_abs_coeff() <= 1e-12
    assert (group.tau[2] - dm("x3")).is_zero()
    assert (group.tau[3] - dm("x4")).is_zero()


def test_multiplication_from_non_adapted_input_basis():
    """A reordered Heisenberg basis still synthesizes a valid group for the
    adapted presentation."""
    sc = StructureConstants.from_brackets(3, {(3, 1): {2: F(1)}})
    _, chain = adapted_chain(sc)
    law = multiplication(chain)
    assert verify_group(law, samples=40, seed=11).passed
    assert preadjoint_oracle(chain, law, samples=40, seed=12).passed


def test_abelian_multiplication_is_addition():
    _, chain = adapted_chain(StructureConstants.abelian(2))
    law = multiplication(chain)
    a, b = np.array([0.3, -0.7]), np.array([1.1, 0.25])
    assert np.abs(law.multiply(a, b) - (a + b)).max() < 1e-12


def test_five_dim_multiplication_matches_golden():
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    law = multiplication(chain)
    golden = golden_mu_a1_b2(law.mu.source)
    for comp, g in zip(law.mu.components, golden):
        assert comp.isclose(g, 1e-10)
        assert set(comp.terms) == set(g.terms)


def test_heisenberg_multiplication_convention():
    _, chain = adapted_chain(heisenberg())
    law = multiplication(chain)
    D = law.mu.source
    x = lambda n: ExpPoly.coordinate(D, n)
    expected = x("x1") + x("y1") - x("x3") * x("y2")
    assert law.mu.components[0].isclose(expected, 1e-12)
    assert law.mu.components[1].isclose(x("x2") + x("y2"), 1e-12)


def test_verify_group_passes_for_catalog():
    for entry in catalog():
        _, chain = adapted_chain(entry.constants)
        law = multiplication(chain)
        report = verify_group(law, samples=60, seed=5)
        assert report.passed, f"{entry.name}:\n{report}"


def test_verify_group_detects_broken_law():
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    law = multiplication(chain)
    D = law.mu.source
    bad_components = list(law.mu.components)
    bad_components[0] = bad_components[0] + ExpPoly.coordinate(D, "x2") * 0.01
    bad_law = GroupLaw(law.group, PointMap(D, law.group.chart, bad_components), law.ad, law.omega)
    report = verify_group(bad_law, samples=40, seed=6)
    assoc = next(c for c in report.checks if c.name.startswith("assoc"))
    assert not assoc.passed
    # the cross-check reports the broken law in its rho line, without raising
    oracle = preadjoint_oracle(chain, bad_law, samples=40, seed=6)
    rho_line = next(c for c in oracle.checks if c.name == "rho(x,y) = mu(y, x^{-1})")
    assert not rho_line.passed and rho_line.error > 1e-3


def _inverse_of(chain):
    """x -> rho(x, 0), the inverse from the preadjoint reduction."""
    from liequad import preadjoint_forms, reduce_full

    _, theta_t = preadjoint_forms(multiplication(chain))
    trace = reduce_full(theta_t, chain)

    def inverse(x):
        point = {f"x{i + 1}": v for i, v in enumerate(x)}
        point.update({f"y{i + 1}": 0.0 for i in range(len(x))})
        return np.array([f.evaluate(point) for f in trace.functions])

    return inverse


def test_preadjoint_inverse_properties():
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    law = multiplication(chain)
    inverse = _inverse_of(chain)
    assert np.abs(inverse(np.zeros(5))).max() < 1e-12
    rng = random.Random(8)
    for _ in range(50):
        x = np.array([rng.uniform(-1, 1) for _ in range(5)])
        xi = inverse(x)
        assert np.abs(law.multiply(x, xi)).max() < 1e-9
        assert np.abs(law.multiply(xi, x)).max() < 1e-9
    # abelian: inverse is negation
    _, ab = adapted_chain(StructureConstants.abelian(3))
    x = np.array([0.4, -1.2, 2.0])
    assert np.abs(_inverse_of(ab)(x) + x).max() < 1e-10


def test_preadjoint_oracle_abelian_gives_difference():
    from liequad import preadjoint_forms, reduce_full

    _, chain = adapted_chain(StructureConstants.abelian(3))
    D, theta_t = preadjoint_forms(multiplication(chain))
    trace = reduce_full(theta_t, chain)
    for i in range(3):
        expected = ExpPoly.coordinate(D, f"y{i + 1}") - ExpPoly.coordinate(D, f"x{i + 1}")
        assert trace.functions[i].isclose(expected, 1e-12)


def test_preadjoint_oracle_consistency():
    for sc in (heisenberg(), filiform4(), five_dim_constants(F(1), F(2))):
        _, chain = adapted_chain(sc)
        law = multiplication(chain)
        report = preadjoint_oracle(chain, law, samples=60, seed=9)
        assert report.passed, str(report)


def test_group_law_builds_each_matrix_exponential_once(monkeypatch):
    """The 5-dim law and its cross-check decide 6 spectra: one per matrix
    up to sign, since e^{-fA} is e^{tA} composed with -f, and the frame
    transposes the forward factors that the reduction of the product-group
    forms builds.  Only the three non-nilpotent ones run Putzer's recursion."""
    import liequad.matexp as matexp

    decided, putzer = [], []
    charpoly, recursion = matexp._charpoly, matexp._putzer
    monkeypatch.setattr(matexp, "_charpoly", lambda B: decided.append(B) or charpoly(B))
    monkeypatch.setattr(matexp, "_putzer", lambda *a: putzer.append(1) or recursion(*a))
    matexp._exp.cache_clear()
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    law = multiplication(chain)
    assert preadjoint_oracle(chain, law, samples=5).passed
    assert (len(decided), len(putzer)) == (6, 3)
    negated = [[[-x for x in row] for row in B] for B in decided]
    assert not any(B in decided[:i] or B in negated[:i] for i, B in enumerate(decided))


@pytest.mark.parametrize("make", [lambda: _filiform(10), lambda: borel_constants(4)], ids=["L10", "b4"])
def test_each_chain_exponential_is_built_once(monkeypatch, make):
    """The law, its checks and the oracle look up e^{tA} in matexp once per
    nonzero restricted ad_s and full ad(e_j) of the chain, however many
    factors compose it with a scalar."""
    import liequad.matexp as matexp

    lookups = []
    exp = matexp._exp
    monkeypatch.setattr(matexp, "_exp", lambda B, d, var: lookups.append(B) or exp(B, d, var))
    _, chain = adapted_chain(make())
    law = multiplication(chain)
    report = verify_group(law, samples=5)
    report.extend(preadjoint_oracle(chain, law, samples=5))
    assert report.passed, str(report)
    n = chain.n
    matrices = [chain.ad_matrix(s) for s in range(n)] + [chain.base.ad_matrix(j) for j in range(n)]
    assert 0 < len(lookups) <= sum(any(map(any, A)) for A in matrices)


def test_coframe_independence_records_the_smallest_determinant():
    """The pointwise-independence value is |det tau| at the one sample, not
    capped at 1, and None without samples."""
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    group = build_group(chain)
    n = group.n
    rng = random.Random(3)
    point = dict(zip(group.chart.names, [rng.uniform(-1.5, 1.5) for _ in range(n)]))
    tau = [[t.coefficient((k,)).evaluate(point) for k in range(n)] for t in group.tau]
    want = abs(float(np.linalg.det(np.array(tau))))

    def independence(samples):
        report = group_invariants_report(group, samples=samples, seed=3)
        return next(c for c in report.checks if c.name == "coframe pointwise independent")

    one = independence(1)
    assert want > 1 and one.passed and one.error == pytest.approx(want, rel=1e-12)
    none = independence(0)
    assert none.passed and none.error is None


def test_bracket_relations_are_checked_exactly():
    """A frame component off by 3e-10 x3 fails the symbolic bracket line,
    which reads the residual's largest coefficient; sampled at 50 points in
    [-1.5, 1.5]^5 it stays below 1e-9."""
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    group = build_group(chain)

    def bracket_line(g):
        report = group_invariants_report(g, samples=50, seed=0)
        return next(c for c in report.checks if c.name == "[X_i, X_j] = C^k_ij X_k")

    good = bracket_line(group)
    assert good.passed and good.mode == "symbolic" and good.error == 0.0
    X = group.frame[1]
    wrong = list(X.components)
    wrong[0] = wrong[0] + ExpPoly.term(group.chart, 3e-10, powers={"x3": 1})
    frame = list(group.frame)
    frame[1] = VectorField(group.chart, wrong, ExpPoly)
    bad = bracket_line(dataclasses.replace(group, frame=frame))
    assert not bad.passed and bad.error == pytest.approx(3e-10)


def test_verify_group_differentiates_once_per_map(monkeypatch):
    """The Jacobian's partial derivatives do not depend on the sample count."""
    calls = []
    counted = ExpPoly.diff
    monkeypatch.setattr(ExpPoly, "diff", lambda self, name: calls.append(1) or counted(self, name))
    _, chain = adapted_chain(heisenberg())
    counts = []
    for samples in (5, 10):
        law = multiplication(chain)
        calls.clear()
        assert verify_group(law, samples=samples, seed=3).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ----------------------------------------------------------------------
# the batched checks against their failure modes and a per-sample loop

def _filiform(n):
    return StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})


def _fixture_law():
    sc = jsonio.load_algebra(jsonio.read_json(fixture_path("algebra_fiveparam_a1_b2.json")))
    _, chain = adapted_chain(sc)
    return chain, multiplication(chain)


def _check(report, prefix):
    return next(c for c in report.checks if c.name.startswith(prefix))


def test_verify_group_rejects_a_perturbed_mu_coefficient():
    _, law = _fixture_law()
    z1 = law.mu.components[0]
    key = next(k for k, c in z1.terms.items() if c == 1.0 and sum(k[0]) == 1)
    bad = list(law.mu.components)
    bad[0] = ExpPoly(z1.chart, {**z1.terms, key: z1.terms[key] + 1e-6})
    bad_law = GroupLaw(law.group, PointMap(law.mu.source, law.group.chart, bad), law.ad, law.omega)
    report = verify_group(bad_law, samples=100, seed=1)
    assert not (_check(report, "associativity").passed and _check(report, "left invariance").passed)


def test_oracle_rejects_a_perturbed_rho(monkeypatch):
    import liequad.liegroup as liegroup

    chain, law = _fixture_law()
    reduce_full = liegroup.reduce_full

    def perturbed(*args, **kwargs):
        trace = reduce_full(*args, **kwargs)
        f = trace.functions[0]
        key = next(iter(f.terms))
        trace.functions[0] = ExpPoly(f.chart, {**f.terms, key: f.terms[key] + 1e-6})
        return trace

    assert _check(preadjoint_oracle(chain, law, samples=100, seed=2), "rho(x,y)").passed
    monkeypatch.setattr(liegroup, "reduce_full", perturbed)
    line = _check(preadjoint_oracle(chain, law, samples=100, seed=2), "rho(x,y)")
    assert not line.passed and line.error > 1e-7


def _per_sample_errors(law, samples, seed):
    """The four axiom errors of verify_group, one sample at a time through
    the one-point API, at the same seeded points."""
    rng = random.Random(seed)
    n = law.group.n
    names = law.group.chart.names
    zero = np.zeros(n)

    def ad(p):
        point = dict(zip(names, p))
        return np.array([[e.evaluate(point) for e in row] for row in law.ad])

    def frame(p):
        point = dict(zip(names, p))
        return np.column_stack([X.at(point) for X in law.group.frame])

    def rel(got, want):
        return np.abs(got - want).max() / max(1.0, np.abs(want).max())

    worst = dict.fromkeys(("assoc", "ident", "ad", "left"), 0.0)
    for _ in range(samples):
        a = np.array([rng.uniform(-1.2, 1.2) for _ in range(n)])
        b = np.array([rng.uniform(-1.2, 1.2) for _ in range(n)])
        c = np.array([rng.uniform(-1.2, 1.2) for _ in range(n)])
        ab = law.multiply(a, b)
        worst["assoc"] = max(worst["assoc"], rel(law.multiply(a, law.multiply(b, c)), law.multiply(ab, c)))
        worst["ident"] = max(worst["ident"], np.abs(law.multiply(zero, a) - a).max(),
                             np.abs(law.multiply(a, zero) - a).max())
        worst["ad"] = max(worst["ad"], rel(ad(a) @ ad(b), ad(ab)))
        J = law.mu.jacobian_batch([np.concatenate([a, b])])[0][:, n:]
        worst["left"] = max(worst["left"], rel(J @ frame(b), frame(ab)))
    return worst


def _batched_errors(law, samples, seed):
    report = verify_group(law, samples=samples, seed=seed)
    prefixes = {"assoc": "associativity", "ident": "identity", "ad": "Ad(", "left": "left invariance"}
    return {key: _check(report, prefix).error for key, prefix in prefixes.items()}


def test_batched_verify_group_matches_a_per_sample_loop():
    _, chain = adapted_chain(_filiform(6))
    laws = [multiplication(chain), _fixture_law()[1]]
    # a law that is off by a point-dependent amount, so that the errors
    # measure where the samples fall and not only rounding
    law = laws[1]
    z2 = law.mu.components[1] + ExpPoly.term(law.mu.source, 1e-3, powers={"x1": 1, "y3": 2})
    bad = [law.mu.components[0], z2] + list(law.mu.components[2:])
    laws.append(GroupLaw(law.group, PointMap(law.mu.source, law.group.chart, bad), law.ad, law.omega))
    for law in laws:
        batched = _batched_errors(law, 40, 11)
        scalar = _per_sample_errors(law, 40, 11)
        for key, value in scalar.items():
            assert abs(batched[key] - value) <= 1e-12 * max(1.0, value), (key, batched[key], value)
    assert batched["assoc"] > 1e-5 and batched["left"] > 1e-5


def _count_compiled(monkeypatch):
    """The member count of each exppoly.Family compiled from now on."""
    from liequad import exppoly

    compiled = []
    init = exppoly.Family.__init__

    def counting(self, chart, members):
        compiled.append(len(members))
        init(self, chart, members)

    monkeypatch.setattr(exppoly.Family, "__init__", counting)
    return compiled


def test_a_point_map_compiles_its_family_once(monkeypatch):
    """A point map compiles its components and its Jacobian entries one
    family each, on first use, and keeps them."""
    _, law = _fixture_law()
    compiled = _count_compiled(monkeypatch)
    rng = np.random.default_rng(3)
    for N in (1, 4, 7):
        xy = rng.uniform(-1, 1, (N, 2 * law.group.n))
        law.mu.evaluate_batch(xy)
        law.mu.jacobian_batch(xy)
    jacobian = sum(len(d.coeffs) for d in law.mu.differentials)
    assert sorted(compiled) == sorted([law.group.n, jacobian])


def test_the_multiply_path_compiles_five_families(monkeypatch):
    """adapted_chain, multiplication, verify_group and preadjoint_oracle
    compile mu, its Jacobian, Ad, the frame and rho once each; the numeric
    pullback check adds the coefficients of tau and of omega."""
    sc = jsonio.load_algebra(jsonio.read_json(fixture_path("algebra_fiveparam_a1_b2.json")))
    compiled = _count_compiled(monkeypatch)
    for mode, families in (("auto", 5), ("numeric", 7)):
        compiled.clear()
        _, chain = adapted_chain(sc)
        law = multiplication(chain)
        report = verify_group(law, mode=mode)
        report.extend(preadjoint_oracle(chain, law, seed=1))
        assert report.passed
        assert len(compiled) == families, (mode, compiled)


def _ladder_laws():
    chains = [adapted_chain(sc)[1] for sc in (_filiform(6), borel_constants(3))]
    laws = [multiplication(chain) for chain in chains]
    chain, law = _fixture_law()
    return list(zip(chains + [chain], laws + [law]))


def _scalar_bits(p):
    return [(k, tuple(map(float.hex, a)), tuple(map(float.hex, b)), kind, c.hex())
            for (k, a, b, kind), c in p.terms.items()]


def _form_bits(form):
    return [(idx, _scalar_bits(c)) for idx, c in form.coeffs.items()]


def _copy_bindings(src, double, offset):
    """Bind x_i of the group chart to the first (offset 0) or second
    (offset n) copy in the doubled chart: a renaming."""
    return {
        nm: ExpPoly.coordinate(double, double.names[offset + i])
        for i, nm in enumerate(src.names)
    }


def _pi_pullback(tau, double, offset):
    """Projection pullbacks by renaming: the coframe reinterpreted over the
    doubled chart on the copy at offset."""
    bind = _copy_bindings(tau[0].chart, double, offset)
    out = []
    for t in tau:
        coeffs = {}
        for (k,), c in t.coeffs.items():
            coeffs[(offset + k,)] = c.substitute(bind)
        out.append(DiffForm(double, 1, coeffs, ExpPoly))
    return out


def test_projection_pullbacks_equal_the_renaming_bit_for_bit():
    """pi_1^* tau and pi_2^* tau by `forms.pullback` along the projection
    maps equal the coframe renamed onto each copy, for every ladder and
    catalog coframe."""
    from liequad import pullback
    from liequad.liegroup import _projections

    chains = [chain for chain, _ in _ladder_laws()]
    chains += [adapted_chain(entry.constants)[1] for entry in catalog()]
    for chain in chains:
        tau = build_group(chain).tau
        n = chain.n
        for offset, pi in zip((0, n), _projections(n)):
            want = _pi_pullback(tau, pi.source, offset)
            assert [_form_bits(pullback(pi, t)) for t in tau] == [_form_bits(f) for f in want]


def test_preadjoint_forms_reuse_the_law_ad_term_for_term():
    """theta~ from the law's Ad(x), renamed onto the doubled chart, equals
    theta~ from Ad(x) built over the doubled chart."""
    from liequad import preadjoint_forms
    from liequad.liealg import lin_comb
    from liequad.varset import doubled_chart

    for chain, law in _ladder_laws():
        n = chain.n
        D = doubled_chart(n)
        M = _dense_ad_product(chain, D, list(D.names[:n]), False)
        pi1 = _pi_pullback(law.group.tau, D, 0)
        pi2 = _pi_pullback(law.group.tau, D, n)
        theta = [pi2[i] - pi1[i] for i in range(n)]
        want = [lin_comb(row, theta) for row in M]
        D2, got = preadjoint_forms(law)
        assert D2 == D
        assert [_form_bits(f) for f in got] == [_form_bits(f) for f in want]


def _factor_matrix(A, f):
    """e^{fA} for a rational matrix A, built from A itself; None when A = 0."""
    from liequad import sym_exp

    return f.exp_matrix(sym_exp(A, "_t")) if any(map(any, A)) else None


def _dense_ad_product(chain, chart, names, inverse):
    """Ad(v) (or its inverse) by the full n x n x n matrix products."""
    n = chain.n
    M = [[ExpPoly.one(chart) if i == j else ExpPoly.zero(chart) for j in range(n)] for i in range(n)]
    for j in (range(n - 1, -1, -1) if inverse else range(n)):
        A = chain.base.ad_matrix(j)
        if inverse:
            A = [[-x for x in row] for row in A]
        E = _factor_matrix(A, ExpPoly.coordinate(chart, names[j]))
        if E is None:
            continue
        M = [
            [sum((M[r][m] * E[m][c] for m in range(n)), ExpPoly.zero(chart)) for c in range(n)]
            for r in range(n)
        ]
    return M


def test_sparse_ad_product_equals_the_dense_product():
    """Ad(y) and Ad(y)^{-1}, built over the group chart and renamed onto the
    y copy, equal the dense products over the doubled chart term for term."""
    from liequad.varset import doubled_chart

    for chain, law in _ladder_laws():
        n = chain.n
        D = doubled_chart(n)
        bind = _copy_bindings(law.group.chart, D, n)
        for inverse in (False, True):
            M = ad_rep(chain, inverse=inverse)
            got = [[e.substitute(bind) for e in row] for row in M]
            want = _dense_ad_product(chain, D, list(D.names[n:]), inverse)
            assert [[_scalar_bits(e) for e in row] for row in got] == \
                [[_scalar_bits(e) for e in row] for row in want]


def _reference_coframe(chain):
    """The coframe by its own loop: the inverse factors e^{-x^m [ad_s]}
    applied to the coordinate differentials, from s = n-2 up."""
    from liequad.liealg import lin_comb

    n = chain.n
    chart = coordinate_chart(n)
    vec = [DiffForm.d_coordinate(chart, nm, ExpPoly) for nm in chart.names]
    for s in range(n - 2, -1, -1):
        m = n - s
        neg_ad = [[-x for x in row] for row in chain.ad_matrix(s)]
        E = _factor_matrix(neg_ad, ExpPoly.coordinate(chart, chart.names[m - 1]))
        if E is not None:
            vec = [lin_comb(row, vec[:m]) for row in E] + vec[m:]
    return vec


def _reference_frame(chain):
    """The frame by exponentiating the transposed matrices ad_s^T."""
    from liequad import VectorField
    from liequad.liealg import lin_comb

    n = chain.n
    chart = coordinate_chart(n)
    fields = [VectorField.coordinate(chart, nm, ExpPoly) for nm in chart.names]
    for s in range(n - 2, -1, -1):
        m = n - s
        adT = [list(col) for col in zip(*chain.ad_matrix(s))]
        E = _factor_matrix(adT, ExpPoly.coordinate(chart, chart.names[m - 1]))
        if E is not None:
            fields = [lin_comb(row, fields[:m]) for row in E] + fields[m:]
    return fields


def test_coframe_and_frame_equal_the_reference_loops_bit_for_bit():
    """The coframe as un-reduction of the coordinates, and the frame from the
    transposed forward factors, equal the direct loops term for term."""
    from liequad import coframe, frame

    chains = [chain for chain, _ in _ladder_laws()]
    chains += [adapted_chain(entry.constants)[1] for entry in catalog()]
    for chain in chains:
        assert [_form_bits(t) for t in coframe(chain)] == [_form_bits(t) for t in _reference_coframe(chain)]
        assert [[_scalar_bits(c) for c in X.components] for X in frame(chain)] == \
            [[_scalar_bits(c) for c in X.components] for X in _reference_frame(chain)]



# ----------------------------------------------------------------------
# each form is differentiated once, and the checked residuals are exact

def test_multiplication_differentiates_no_form_twice(monkeypatch):
    """The structure equations are checked on the input block only, and
    the steps check nothing, so no form is differentiated twice.  Forms
    are counted by value, so an equal copy cannot hide a second call."""
    computed = Counter()
    original = DiffForm.exterior_d

    def counting(form):
        computed[(form.degree, frozenset(form.coeffs.items()))] += 1
        return original(form)

    monkeypatch.setattr(DiffForm, "exterior_d", counting)
    _, chain = adapted_chain(_filiform(10))
    multiplication(chain)
    assert computed and max(computed.values()) == 1


def test_level_residuals_equal_those_of_fresh_copies(monkeypatch):
    """Every residual the reduction records, of the input block and of the
    remaining block of an early stop, equals bit for bit the one
    recomputed on fresh copies of that block."""
    from liequad import reduction
    from liequad.forms import structure_residual
    from liequad.liegroup import product_group_forms

    blocks = []
    original = reduction._check_level

    def recording(omegas, chain, s, tol):
        blocks.append((s, list(omegas)))
        return original(omegas, chain, s, tol)

    monkeypatch.setattr(reduction, "_check_level", recording)
    for sc in (_filiform(10), borel_constants(4), five_dim_constants(F(-3, 2), F(2, 3))):
        _, chain = adapted_chain(sc)
        _, _, omegas = product_group_forms(chain)
        for stop_after, levels in ((None, [0]), (2, [0, 2])):
            blocks.clear()
            trace = reduction.reduce_full(omegas, chain, stop_after=stop_after)
            assert [s for s, _ in blocks] == levels == list(trace.residuals)
            for s, block in blocks:
                fresh = [DiffForm(w.chart, w.degree, dict(w.coeffs), w.scls) for w in block]
                res = structure_residual(fresh, chain.base.restricted(chain.n - s))
                worst = max((r.max_abs_coeff() for r in res), default=0.0)
                assert worst == trace.residuals[s], (sc.dim, s)


def test_box_draws_equal_uniform_draws():
    """`_box` scales one `rng.random()` per value with `uniform`'s formula:
    the same values, bit for bit and row by row, as `rng.uniform(-h, h)`."""
    from liequad.liegroup import _box

    for seed in range(10):
        for h, samples, width in ((1.5, 50, 4), (1.2, 100, 9), (1.0, 7, 32)):
            rng = random.Random(seed)
            want = [[rng.uniform(-h, h) for _ in range(width)] for _ in range(samples)]
            got = _box(random.Random(seed), h, samples, width)
            assert got.shape == (samples, width)
            assert [[v.hex() for v in row] for row in got.tolist()] == [[v.hex() for v in row] for row in want]
