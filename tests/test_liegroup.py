"""Group synthesis: coframe/frame goldens, adjoint representation,
multiplication map, axiom verification, the cross-check oracle."""

import random
from fractions import Fraction

import numpy as np

from liequad import (
    DiffForm,
    ExpPoly,
    GroupLaw,
    PointMap,
    StructureConstants,
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
from liequad.catalog import catalog, filiform4, heisenberg
from conftest import five_dim_constants, fixture_path, golden_coframe_a1_b2, golden_mu_a1_b2

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
        assert diff.is_zero(1e-10)
        # term-for-term: identical canonical keys
        for idx, c in tau.coeffs.items():
            assert set(c.terms) == set(g.coefficient(idx).terms)


def test_heisenberg_coframe_is_the_polynomial_one():
    _, chain = adapted_chain(heisenberg())
    group = build_group(chain)
    chart = group.chart
    x3 = ExpPoly.coordinate(chart, "x3")
    expected = DiffForm.d_coordinate(chart, "x1") + DiffForm.d_coordinate(chart, "x2") * x3
    assert (group.tau[0] - expected).is_zero(1e-12)
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
    from liequad.liegroup import _copy_bindings
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
    assert (omegas[1] - expected).is_zero(1e-12)
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
    assert (lhs - rhs).is_zero(1e-12)
    # and d tau^3 = tau^2 ^ tau^5 - tau^3 ^ tau^4
    lhs3 = t[2].exterior_d()
    rhs3 = t[1].wedge(t[4]) + -1 * t[2].wedge(t[3])
    assert (lhs3 - rhs3).is_zero(1e-12)


def test_filiform_coframe_polynomial_golden():
    """Nilpotent chain: tau^1 = dx1 - x4 dx2 + x4^2/2 dx3, tau^2 = dx2 - x4 dx3."""
    _, chain = adapted_chain(filiform4())
    group = build_group(chain)
    chart = group.chart
    x4 = ExpPoly.coordinate(chart, "x4")
    dm = lambda n: DiffForm.d_coordinate(chart, n)
    tau1 = dm("x1") + dm("x2") * (-1.0 * x4) + dm("x3") * (x4 * x4 * 0.5)
    tau2 = dm("x2") + dm("x3") * (-1.0 * x4)
    assert (group.tau[0] - tau1).is_zero(1e-12)
    assert (group.tau[1] - tau2).is_zero(1e-12)
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

    _, theta_t = preadjoint_forms(chain)
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
    D, theta_t = preadjoint_forms(chain)
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
    """The 5-dim law and its cross-check need 12 distinct exponentials; the
    frame transposes the forward factors e^{x ad_s} that the reduction of
    the product-group forms builds."""
    import liequad.matexp as matexp

    calls = []
    counted = matexp._snap_spectrum
    monkeypatch.setattr(matexp, "_snap_spectrum", lambda *a: calls.append(1) or counted(*a))
    matexp._putzer.cache_clear()
    _, chain = adapted_chain(five_dim_constants(F(1), F(2)))
    law = multiplication(chain)
    assert preadjoint_oracle(chain, law, samples=5).passed
    assert len(calls) == 12


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
        J = law.mu.jacobian_at(dict(zip(law.mu.source.names, np.concatenate([a, b]))))[:, n:]
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


def _borel(k):
    """b_k: upper-triangular k x k matrices, basis E_ij (i <= j)."""
    basis = [(i, j) for i in range(k) for j in range(i, k)]
    index = {e: p + 1 for p, e in enumerate(basis)}
    brackets = {}
    for p, (i, j) in enumerate(basis):
        for q in range(p + 1, len(basis)):
            kk, ll = basis[q]
            if j == kk:
                brackets[(p + 1, q + 1)] = {index[(i, ll)]: F(1)}
            elif ll == i:
                brackets[(p + 1, q + 1)] = {index[(kk, j)]: F(-1)}
    return StructureConstants.from_brackets(len(basis), brackets)


def _ladder_laws():
    chains = [adapted_chain(sc)[1] for sc in (_filiform(6), _borel(3))]
    laws = [multiplication(chain) for chain in chains]
    chain, law = _fixture_law()
    return list(zip(chains + [chain], laws + [law]))


def _scalar_bits(p):
    return [(k, tuple(map(float.hex, a)), tuple(map(float.hex, b)), kind, c.hex())
            for (k, a, b, kind), c in p.terms.items()]


def _form_bits(form):
    return [(idx, _scalar_bits(c)) for idx, c in form.coeffs.items()]


def test_preadjoint_forms_reuse_the_law_ad_term_for_term():
    """theta~ from the law's Ad(x), renamed onto the doubled chart, equals
    theta~ from Ad(x) built over the doubled chart."""
    from liequad import preadjoint_forms
    from liequad.liealg import lin_comb
    from liequad.liegroup import _pi_pullback
    from liequad.varset import doubled_chart

    for chain, law in _ladder_laws():
        n = chain.n
        D = doubled_chart(n)
        M = _dense_ad_product(chain, D, list(D.names[:n]), False)
        pi1 = _pi_pullback(law.group.tau, D, 0)
        pi2 = _pi_pullback(law.group.tau, D, n)
        theta = [pi2[i] - pi1[i] for i in range(n)]
        want = [lin_comb(row, theta) for row in M]
        for ad in (law.ad, None):
            D2, got = preadjoint_forms(chain, law.group, ad)
            assert D2 == D
            assert [_form_bits(f) for f in got] == [_form_bits(f) for f in want]


def _dense_ad_product(chain, chart, names, inverse):
    """Ad(v) (or its inverse) by the full n x n x n matrix products."""
    from liequad.reduction import _factor_matrix

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
    from liequad.liegroup import _copy_bindings
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
    from liequad.reduction import _factor_matrix

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
    from liequad.reduction import _factor_matrix

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

