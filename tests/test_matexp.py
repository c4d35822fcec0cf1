"""Symbolic matrix exponential: Putzer over a clustered spectrum."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from hypothesis import given, settings, strategies as st

from liequad import (
    EigenvalueClusterAmbiguity,
    ExpPoly,
    StructureConstants,
    VarSet,
    exp_identities_check,
    sym_exp,
)
from liequad.catalog import five_dim_two_parameter
from liequad.liealg import adapted_chain, mat_inverse
from liequad.matexp import CLUSTER_TOL, _cluster_spectrum, _snap_spectrum, derivative_residual

F = Fraction
T = VarSet.of("t")


def test_zero_matrix_gives_identity():
    E = sym_exp([[F(0)] * 3 for _ in range(3)], "t")
    for i in range(3):
        for j in range(3):
            expected = ExpPoly.one(T) if i == j else ExpPoly.zero(T)
            assert E.entries[i][j] == expected
    rep = exp_identities_check(E)
    assert rep.passed


def test_nilpotent_jordan_block_truncates():
    A = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
    E = sym_exp(A, "t")
    t = ExpPoly.coordinate(T, "t")
    assert E.entries[0][1].isclose(t, 1e-12)
    assert E.entries[0][2].isclose(t * t * 0.5, 1e-12)
    assert E.entries[1][2].isclose(t, 1e-12)
    assert E.entries[0][0] == ExpPoly.one(T)
    assert E.entries[1][0].is_zero()
    for row in E.entries:
        for e in row:
            assert e.is_polynomial()


def test_five_dim_adjoint_block():
    _, chain = adapted_chain(five_dim_two_parameter(F(1), F(2)))
    E = sym_exp(chain.ad_matrix(0), "t")
    exp_neg = ExpPoly.term(T, 1.0, exp_rates={"t": -1.0})
    cos = ExpPoly.term(T, 1.0, trig_rates={"t": 1.0}, kind=1)
    sin = ExpPoly.term(T, 1.0, trig_rates={"t": 1.0}, kind=2)
    assert E.entries[0][0].isclose(exp_neg, 1e-12)
    assert E.entries[1][1].isclose(cos, 1e-12)
    assert E.entries[1][2].isclose(-1.0 * sin, 1e-12)
    assert E.entries[2][1].isclose(sin, 1e-12)
    assert E.entries[3][3] == ExpPoly.one(T)
    assert E.entries[4][4] == ExpPoly.one(T)
    assert E.entries[0][1].is_zero()


def test_repeated_eigenvalue_polynomial_factor():
    A = [[F(2), F(1)], [F(0), F(2)]]
    E = sym_exp(A, "t")
    expected = ExpPoly.term(T, 1.0, powers={"t": 1}, exp_rates={"t": 2.0})
    assert E.entries[0][1].isclose(expected, 1e-10)
    assert derivative_residual(E) < 1e-10


def test_determinant_identity_matches_trace():
    _, chain = adapted_chain(five_dim_two_parameter(F(1), F(2)))
    neg = [[-x for x in row] for row in chain.ad_matrix(1)]
    E = sym_exp(neg, "t")  # the coframe factor orientation
    rng = random.Random(0)
    for _ in range(20):
        t = rng.uniform(-2, 2)
        det = float(np.linalg.det(E.at(t)))
        assert abs(det - np.exp(4.0 * t)) <= 1e-9 * max(1.0, np.exp(4.0 * t))


def test_identities_and_oracle_on_random_rational_matrices():
    rng = random.Random(42)
    for case in range(6):
        n = rng.choice([2, 3, 4])
        A = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        E = sym_exp(A, "t")
        assert derivative_residual(E) < 1e-8, f"case {case}"
        assert E.at(0.0) == pytest.approx(np.eye(n), abs=1e-10)
        rep = exp_identities_check(E, samples=20, seed=case)
        assert rep.passed, f"case {case}:\n{rep}"
        An = np.array([[float(x) for x in row] for row in A])
        for _ in range(20):
            t = rng.uniform(-3, 3)
            ref = scipy.linalg.expm(t * An)
            scale = max(1.0, float(np.abs(ref).max()))
            assert float(np.abs(E.at(t) - ref).max()) / scale <= 1e-8


def test_irrational_spectrum_unsnapped_still_correct():
    A = [[F(0), F(1)], [F(2), F(0)]]  # eigenvalues +- sqrt(2)
    E = sym_exp(A, "t")
    An = np.array([[0.0, 1.0], [2.0, 0.0]])
    for t in (0.5, -1.2, 2.0):
        assert np.abs(E.at(t) - scipy.linalg.expm(t * An)).max() < 1e-9


def test_rational_snap_hits_exact_rates():
    A = [[F(-665857, 470832), F(0)], [F(0), F(1, 3)]]
    E = sym_exp(A, "t")
    ((k, a, b, kind),) = list(E.entries[0][0].terms)
    assert a[0] == float(F(-665857, 470832))
    ((k2, a2, b2, kind2),) = list(E.entries[1][1].terms)
    assert a2[0] == float(F(1, 3))


def test_cluster_ambiguity_detection():
    A = [[F(0), F(0), F(0)],
         [F(0), F(1, 20000000), F(0)],
         [F(0), F(0), F(3, 25000000)]]
    with pytest.raises(EigenvalueClusterAmbiguity):
        sym_exp(A, "t", cluster_tol=1e-7)
    E = sym_exp(A, "t", cluster_tol=1e-9)  # resolvable at a finer tolerance
    assert E.at(0.0) == pytest.approx(np.eye(3))


def test_compose_polynomial_entries_with_rational_scalar():
    from liequad import RationalFunction

    V = VarSet.of("u", "w")
    A = [[F(0), F(-1)], [F(0), F(0)]]
    E = sym_exp(A, "t")
    f = RationalFunction.parse(V, "1/u - u^3/w")
    M = E.compose(f)
    assert M[0][0] == RationalFunction.one(V)
    assert M[0][1] == -1 * f
    assert M[1][1] == RationalFunction.one(V)
    # e^{u N} of the 4 x 4 shift is exact: its corner is u^3/6
    N = [[F(int(j == i + 1)) for j in range(4)] for i in range(4)]
    M = sym_exp(N, "t").compose(RationalFunction.coordinate(V, "u"))
    assert M[0][3] == RationalFunction.parse(V, "u^3/6")
    assert M[0][2] == RationalFunction.parse(V, "u^2/2")
    assert M[3][0] == RationalFunction.zero(V)


def test_compose_exponential_entries_with_rational_scalar_raises():
    from liequad import NonAffineExponentSubstitution, RationalFunction

    V = VarSet.of("u")
    E = sym_exp([[F(1)]], "t")
    with pytest.raises(NonAffineExponentSubstitution):
        E.compose(RationalFunction.parse(V, "1/u"))


# ----------------------------------------------------------------------
# the exact eigenvalue snap


def _candidate(x: float) -> Fraction:
    """The rational the snap tries for a float coordinate."""
    return Fraction(x).limit_denominator(10 ** 6)


def test_snap_rejects_close_irrational_candidate():
    A = [[F(0), F(2)], [F(1), F(0)]]  # eigenvalues +- sqrt(2)
    clusters = _cluster_spectrum(np.linalg.eigvals(np.array([[0.0, 2.0], [1.0, 0.0]])), CLUSTER_TOL)
    for rep, _ in clusters:
        # the candidate is within tolerance, so only the exact test rejects it
        assert abs(float(_candidate(rep.real)) - rep.real) <= CLUSTER_TOL
    assert _snap_spectrum(clusters, A, CLUSTER_TOL) == clusters
    assert [v.real for v, _ in clusters] == pytest.approx([-2 ** 0.5, 2 ** 0.5])


@pytest.mark.parametrize("a, b", [(F(0), F(1)), (F(1, 2), F(3, 2))])
def test_snap_confirms_gaussian_rational_pair(a, b):
    A = [[a, -b], [b, a]]  # eigenvalues a +- ib
    clusters = [(complex(a + 3e-9, -b - 2e-9), 1), (complex(a + 3e-9, b + 2e-9), 1)]
    assert _snap_spectrum(clusters, A, CLUSTER_TOL) == [
        (complex(float(a), -float(b)), 1),
        (complex(float(a), float(b)), 1),
    ]


def test_snap_confirms_repeated_eigenvalue():
    A = [[F(2), F(1)], [F(0), F(2)]]
    assert _snap_spectrum([(complex(2 + 4e-9, 0.0), 2)], A, CLUSTER_TOL) == [(2 + 0j, 2)]


def test_snap_of_nilpotent_filiform_adjoint_is_zero():
    # L_16: [e_16, e_k] = e_{k-1} for k = 2..15
    sc = StructureConstants.from_brackets(16, {(16, k): {k - 1: F(1)} for k in range(2, 16)})
    _, chain = adapted_chain(sc)
    A = chain.ad_matrix(0)
    n = len(A)
    clusters = _cluster_spectrum(np.linalg.eigvals(np.array([[float(x) for x in r] for r in A])), CLUSTER_TOL)
    assert _snap_spectrum(clusters, A, CLUSTER_TOL) == [(0j, n)]
    assert _snap_spectrum([(complex(5e-9, 0.0), n)], A, CLUSTER_TOL) == [(0j, n)]


@st.composite
def _rational_matrices(draw):
    """Small rational matrices: random entries, or a unimodular conjugate of
    a block matrix with rational eigenvalues and rational +- i rational pairs
    (so both the accepting and the rejecting branch run)."""
    n = draw(st.integers(2, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if draw(st.booleans()):
        return [[draw(small) for _ in range(n)] for _ in range(n)]
    D = [[F(0)] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            a, b = draw(small), draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
            D[i][i] = D[i + 1][i + 1] = a
            D[i][i + 1], D[i + 1][i] = -b, b
            i += 2
        else:
            D[i][i] = draw(small)
            i += 1
    P = [[F(int(r == c)) if c <= r else F(draw(st.integers(-2, 2))) for c in range(n)] for r in range(n)]
    Pinv = mat_inverse(P)
    M = [[sum(P[r][k] * D[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return [[sum(M[r][k] * Pinv[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rational_matrices())
def test_snap_accepts_exactly_the_roots_of_the_characteristic_polynomial(A):
    lam = sp.Symbol("lambda")
    charpoly = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in A]).charpoly(lam).as_expr()
    try:
        clusters = _cluster_spectrum(np.linalg.eigvals(np.array([[float(x) for x in r] for r in A])), CLUSTER_TOL)
    except EigenvalueClusterAmbiguity:
        return
    for rep, mult in clusters:
        if rep.imag < 0:
            continue
        ((value, _),) = _snap_spectrum([(rep, mult)], A, CLUSTER_TOL)
        cr = _candidate(rep.real)
        if abs(rep.imag) <= CLUSTER_TOL:
            ci, root = F(0), sp.Rational(cr.numerator, cr.denominator)
            in_tol = abs(float(cr) - rep.real) <= CLUSTER_TOL
        else:
            ci = _candidate(rep.imag)
            root = sp.Rational(cr.numerator, cr.denominator) + sp.I * sp.Rational(ci.numerator, ci.denominator)
            in_tol = abs(float(cr) - rep.real) <= CLUSTER_TOL and abs(float(ci) - rep.imag) <= CLUSTER_TOL
        if not in_tol:
            continue
        is_root = sp.expand(charpoly.subs(lam, root)) == 0
        assert (value == complex(float(cr), float(ci))) == is_root, (A, rep, value)


def _per_sample_exp_errors(E, samples, seed):
    """The two numeric errors of exp_identities_check, one sample at a time
    through one-point evaluation, at the same seeded points."""
    rng = random.Random(seed)
    n = E.n
    tr = float(sum(E.source[i][i] for i in range(n)))

    def at(t):
        return np.array([[e.evaluate({E.var: t}) for e in row] for row in E.entries])

    worst_det = worst_group = 0.0
    for _ in range(samples):
        t = rng.uniform(-3, 3)
        s = rng.uniform(-3, 3)
        Et, Es, Est = at(t), at(s), at(s + t)
        expected = float(np.exp(tr * t))
        emax = max(1.0, float(np.abs(Et).max()))
        scale = max(1.0, abs(expected), n * emax ** n * 1e-13 / 1e-8)
        worst_det = max(worst_det, abs(float(np.linalg.det(Et)) - expected) / scale)
        amp = n * float(np.abs(Es).max()) * emax * 1e-13
        scale = max(1.0, float(np.abs(Est).max()), amp / 1e-8)
        worst_group = max(worst_group, float(np.abs(Es @ Et - Est).max()) / scale)
    return worst_det, worst_group


def test_batched_exp_identities_check_matches_a_per_sample_loop():
    _, chain = adapted_chain(five_dim_two_parameter(F(1), F(2)))
    matrices = [
        chain.ad_matrix(0),
        [[-x for x in row] for row in chain.ad_matrix(1)],
        [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]],
        [[F(2), F(1)], [F(0), F(2)]],
        [[F(1, 2), F(-3)], [F(2), F(-1, 3)]],
    ]
    for seed, A in enumerate(matrices):
        E = sym_exp(A, "t")
        assert np.array_equal(E.at_batch([0.5, -1.25]), np.stack([E.at(0.5), E.at(-1.25)]))
        report = exp_identities_check(E, samples=25, seed=seed)
        det_line, group_line = report.checks[1:]
        assert (det_line.error, group_line.error) == _per_sample_exp_errors(E, 25, seed)
