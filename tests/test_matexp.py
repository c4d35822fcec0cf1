"""Symbolic matrix exponential: the exact spectrum decision, the nilpotent
series, Putzer's recursion and e^{-tA} as e^{tA} at -t."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from liequad import (
    ExpPoly,
    StructureConstants,
    VarSet,
    sym_exp,
)
from liequad.errors import SingularMatrix
from liequad.liealg import adapted_chain, change_basis, mat_inverse
from liequad import qpoly
from liequad.matexp import ExpMatrix, _charpoly, _exp, _putzer, _rational, _spectrum, matrix_batch
from catalog import five_dim_two_parameter
from conftest import exppoly_bits as _bits
from oracles import derivative_residual, exp_identities_check, fraction_square_free

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


def test_close_eigenvalues_are_decided_exactly():
    """Eigenvalues 6e-8 apart, which no float clustering tolerance of 1e-7
    separates, are three exact rates."""
    A = [[F(0), F(0), F(0)],
         [F(0), F(1, 20000000), F(0)],
         [F(0), F(0), F(3, 25000000)]]
    assert _decide(A) == [(F(0), 1), (F(1, 20000000), 1), (F(3, 25000000), 1)]
    E = sym_exp(A, "t")
    assert E.entries[0][0] == ExpPoly.one(T)
    for i, rate in ((1, F(1, 20000000)), (2, F(3, 25000000))):
        ((key, c),) = E.entries[i][i].terms.items()
        assert key[1] == (float(rate),) and c == pytest.approx(1.0, abs=1e-15)
    assert derivative_residual(E) == 0.0


def test_compose_polynomial_entries_with_rational_scalar():
    from liequad import RationalFunction

    V = VarSet.of("u", "w")
    A = [[F(0), F(-1)], [F(0), F(0)]]
    E = sym_exp(A, "t")
    f = RationalFunction.parse(V, "1/u - u^3/w")
    M = f.exp_matrix(E)
    assert M[0][0] == RationalFunction.one(V)
    assert M[0][1] == -1 * f
    assert M[1][1] == RationalFunction.one(V)
    # e^{u N} of the 4 x 4 shift is exact: its corner is u^3/6
    N = [[F(int(j == i + 1)) for j in range(4)] for i in range(4)]
    M = RationalFunction.coordinate(V, "u").exp_matrix(sym_exp(N, "t"))
    assert M[0][3] == RationalFunction.parse(V, "u^3/6")
    assert M[0][2] == RationalFunction.parse(V, "u^2/2")
    assert M[3][0] == RationalFunction.zero(V)


def test_compose_exponential_entries_with_rational_scalar_raises():
    from liequad import NonAffineExponentSubstitution, RationalFunction

    V = VarSet.of("u")
    E = sym_exp([[F(1)]], "t")
    with pytest.raises(NonAffineExponentSubstitution):
        RationalFunction.parse(V, "1/u").exp_matrix(E)


# ----------------------------------------------------------------------
# the exact eigenvalue decision


def _decide(A) -> list[tuple[complex, int]]:
    """The spectrum `sym_exp` feeds to Putzer's recursion, as (value,
    multiplicity) pairs."""
    d = math.lcm(*(F(x).denominator for row in A for x in row))
    return _spectrum(_charpoly([[int(F(x) * d) for x in row] for row in A])[0], d)


def _candidate(x: float) -> Fraction:
    """A rational guessed from a float coordinate, for the reference check."""
    return Fraction(x).limit_denominator(10 ** 6)


def test_snap_rejects_close_irrational_candidate():
    A = [[F(0), F(2)], [F(1), F(0)]]  # eigenvalues +- sqrt(2)
    spectrum = _decide(A)
    assert [v for v, _ in spectrum] == pytest.approx([-2 ** 0.5, 2 ** 0.5])
    for v, mult in spectrum:
        cand = _candidate(v.real)
        # a rational within 1e-7 of the root exists; the decision does not return it
        assert mult == 1 and abs(float(cand) - v.real) <= 1e-7 and v.real != float(cand)


@pytest.mark.parametrize("a, b", [(F(0), F(1)), (F(1, 2), F(3, 2))])
def test_snap_confirms_gaussian_rational_pair(a, b):
    A = [[a, -b], [b, a]]  # eigenvalues a +- ib
    assert _decide(A) == [
        (complex(float(a), -float(b)), 1),
        (complex(float(a), float(b)), 1),
    ]


def test_snap_confirms_repeated_eigenvalue():
    A = [[F(2), F(1)], [F(0), F(2)]]
    assert _decide(A) == [(2 + 0j, 2)]


def test_snap_of_nilpotent_filiform_adjoint_is_zero(monkeypatch):
    """L_16's adjoint has the characteristic polynomial x^16, and its
    exponential is the exact series: no numeric root and no Putzer step."""
    import numpy

    import liequad.matexp as matexp
    import liequad.qpoly as qpoly

    # L_16: [e_16, e_k] = e_{k-1} for k = 2..15
    sc = StructureConstants.from_brackets(16, {(16, k): {k - 1: F(1)} for k in range(2, 16)})
    _, chain = adapted_chain(sc)
    A = chain.ad_matrix(0)
    n = len(A)
    assert _charpoly([[int(x) for x in row] for row in A])[0] == [0] * n + [1]

    def refuse(*args):
        raise AssertionError("a nilpotent matrix reached a numeric step")

    monkeypatch.setattr(matexp, "_putzer", refuse)
    monkeypatch.setattr(qpoly, "low_factors", refuse)
    monkeypatch.setattr(numpy, "roots", refuse)
    _exp.cache_clear()
    E = sym_exp(A, "t")
    assert len(E.series) == 15 and E.series[0] == [[int(i == j) for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(n):
            want = {((k,), (0.0,), (0.0,), 0): float(S[a][b]) for k, S in enumerate(E.series) if S[a][b]}
            # the ZERO_TOL cut drops t^14/14! (ROADMAP item C)
            assert E.entries[a][b].terms == {k: c for k, c in want.items() if abs(c) > 1e-10}


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
    """A decided eigenvalue that a rational guess reproduces within 1e-7
    equals the guess exactly when the guess is a root of sympy's
    characteristic polynomial, and then has its multiplicity there."""
    lam = sp.Symbol("lambda")
    charpoly = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in A]).charpoly(lam).as_expr()
    multiplicity = sp.roots(charpoly, lam)
    spectrum = _decide(A)
    assert sum(mult for _, mult in spectrum) == len(A)
    for value, mult in spectrum:
        if value.imag < 0:
            continue
        cr = _candidate(value.real)
        ci = _candidate(value.imag) if value.imag else F(0)
        root = sp.Rational(cr.numerator, cr.denominator) + sp.I * sp.Rational(ci.numerator, ci.denominator)
        if abs(float(cr) - value.real) > 1e-7 or abs(float(ci) - value.imag) > 1e-7:
            continue
        is_root = sp.expand(charpoly.subs(lam, root)) == 0
        # a rational eigenvalue is its exact Fraction, any other a complex float
        want = cr if type(value) is F else complex(float(cr), float(ci))
        assert (value == want) == is_root, (A, value)
        if is_root:
            assert multiplicity[root] == mult, (A, value)


# ----------------------------------------------------------------------
# defective spectra in unfriendly bases


def _conjugate(J, P):
    """P J P^{-1} over Q; raises SingularMatrix when P is singular."""
    n = len(J)
    Pinv = mat_inverse(P)
    M = [[sum(P[r][k] * J[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return [[sum(M[r][k] * Pinv[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def _random_invertible(rng: random.Random, n: int):
    """A random n x n matrix with entries in {-2, ..., 2}, redrawn until invertible."""
    while True:
        P = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            mat_inverse(P)
            return P
        except SingularMatrix:
            pass


@st.composite
def _conjugated_jordan_forms(draw):
    """P J P^{-1}: J a Jordan form of size <= 5 with blocks of size <= 4 and
    small rational eigenvalues, P with entries in {-2, ..., 2}."""
    blocks = []
    while not blocks or (sum(size for size, _ in blocks) < 5 and draw(st.booleans())):
        size = draw(st.integers(1, min(4, 5 - sum(s for s, _ in blocks))))
        blocks.append((size, draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))))
    n = sum(size for size, _ in blocks)
    J = [[F(0)] * n for _ in range(n)]
    i = 0
    for size, value in blocks:
        for k in range(i, i + size):
            J[k][k] = value
            if k + 1 < i + size:
                J[k][k + 1] = F(1)
        i += size
    P = [[F(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(n)]
    try:
        return _conjugate(J, P)
    except SingularMatrix:
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_conjugated_jordan_forms())
def test_conjugated_jordan_forms_exponentiate_exactly(A):
    assert derivative_residual(sym_exp(A, "t")) == 0.0


def test_conjugated_jordan_block_of_the_baseline():
    """The 3 x 3 Jordan block with eigenvalue 1 in small-integer bases:
    float eigenvalues scatter it by about eps^(1/3)."""
    J = [[F(1), F(1), F(0)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]]
    for seed in range(4):
        A = _conjugate(J, _random_invertible(random.Random(seed), 3))
        assert _decide(A) == [(1 + 0j, 3)]
        E = sym_exp(A, "t")
        assert derivative_residual(E) == 0.0
        An = np.array([[float(x) for x in row] for row in A])
        assert np.abs(E.at(1.5) - scipy.linalg.expm(1.5 * An)).max() < 1e-9


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_filiform_adjoints_in_random_bases_are_exact(n, seed):
    """L_6 and L_8 rewritten in a random rational basis: every adjoint
    matrix the reduction and Ad exponentiate is nilpotent but not
    triangular, and its exponential is the exact series."""
    sc = StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})
    P = _random_invertible(random.Random(seed), n)
    _, chain = adapted_chain(change_basis(sc, P))
    for A in [chain.ad_matrix(s) for s in range(n)] + [chain.base.ad_matrix(j) for j in range(n)]:
        E = sym_exp(A, "t")
        assert E.series is not None and derivative_residual(E) == 0.0


# ----------------------------------------------------------------------
# e^{-tA} as e^{tA} composed with -t


def test_inverse_is_the_exponential_at_minus_t():
    from liequad import RationalFunction

    _, chain = adapted_chain(five_dim_two_parameter(F(1), F(2)))
    N = [[F(int(j == i + 1)) for j in range(4)] for i in range(4)]
    minus_t = -ExpPoly.coordinate(T, "t")
    for A in (chain.ad_matrix(0), chain.ad_matrix(1), [[F(2), F(1)], [F(0), F(2)]], N):
        E = sym_exp(A, "t")
        inv = ExpMatrix("t", tuple(tuple(-x for x in row) for row in E.dA), E.d, [(-z, mult) for z, mult in E.spectrum])
        # its entries are e^{tA} composed with -t, not built from -A
        inv.entries = minus_t.exp_matrix(E)
        assert derivative_residual(inv) == 0.0
        assert [[e.terms for e in row] for row in minus_t.exp_matrix(inv)] == [[e.terms for e in row] for row in E.entries]
        for t in (0.7, -1.3):
            assert np.abs(inv.at(t) - E.at(-t)).max() < 1e-15
            assert np.abs(inv.at(t) @ E.at(t) - np.eye(len(A))).max() < 1e-12
        if E.series is None:
            # Putzer's recursion for -A over the negated spectrum rounds alike
            lams = [-complex(z) for z, mult in _decide(A) for _ in range(mult)]
            direct = _putzer(_rational(inv.dA, inv.d), lams, T)
            assert [[e.terms for e in row] for row in direct] == [[e.terms for e in row] for row in inv.entries]
    # the nilpotent series at -t has the signs (-1)^k
    corner = (-RationalFunction.coordinate(T, "t")).exp_matrix(sym_exp(N, "t"))[0][3]
    assert corner == RationalFunction.parse(T, "-t^3/6")


def _per_sample_exp_errors(E, samples, seed):
    """The two numeric errors of exp_identities_check, one sample at a time
    through one-point evaluation, at the same seeded points."""
    rng = random.Random(seed)
    n = E.n
    A = _rational(E.dA, E.d)
    tr = float(sum(A[i][i] for i in range(n)))

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
        assert np.array_equal(matrix_batch(E.entries, [0.5, -1.25]), np.stack([E.at(0.5), E.at(-1.25)]))
        report = exp_identities_check(E, samples=25, seed=seed)
        det_line, group_line = report.checks[1:]
        assert (det_line.error, group_line.error) == _per_sample_exp_errors(E, 25, seed)


# ----------------------------------------------------------------------
# the chain exponentials of the ladder and the catalog


def _ladder_and_catalog():
    """The algebras of the benchmark ladder and of the catalog."""
    from catalog import SQRT2_CONVERGENT, catalog
    from conftest import borel_constants

    ladder = [StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})
              for n in (6, 10, 14, 16)]
    ladder += [borel_constants(3), borel_constants(4), five_dim_two_parameter(F(1), SQRT2_CONVERGENT),
               five_dim_two_parameter(F(-1, 3), F(1))]
    return ladder + [entry.constants for entry in catalog()]


def _chain_matrices() -> list:
    """Each distinct nonzero ad_s and ad(e_j) of the ladder and catalog
    chains, then the rotation [[0, -1], [1, 0]]."""
    out = {}
    for sc in _ladder_and_catalog():
        _, chain = adapted_chain(sc)
        n = chain.n
        for A in [chain.ad_matrix(s) for s in range(n)] + [chain.base.ad_matrix(j) for j in range(n)]:
            if any(map(any, A)):
                out.setdefault(tuple(map(tuple, A)), A)
    return list(out.values()) + [[[F(0), F(-1)], [F(1), F(0)]]]


CHAIN_MATRICES = _chain_matrices()


def test_the_chain_matrices_cover_every_kind_of_entry():
    kinds = {("poly" if not any(a) else "rate") if kind == 0 else "trig"
             for A in CHAIN_MATRICES for row in sym_exp(A, "t").entries for e in row
             for (_, a, _, kind) in e.terms}
    assert kinds == {"poly", "rate", "trig"}


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["minus", "plus"])
def test_signed_renaming_equals_the_general_formula(sign):
    """t -> -x2 (and t -> x2) over a 3-variable chart is a renaming with
    a sign; forced onto the general formula (`renaming = None`) every
    entry of every chain exponential keeps its keys, term order and bits."""
    from liequad.exppoly import Substitution

    X = VarSet.of("x1", "x2", "x3")
    f = ExpPoly.coordinate(X, "x2") * sign
    for A in CHAIN_MATRICES:
        E = sym_exp(A, "t")
        plan, general = Substitution(T, {"t": f}), Substitution(T, {"t": f})
        assert (plan.renaming, plan.negated) == ((1,), (0,) if sign < 0 else ())
        general.renaming = None
        for row in E.entries:
            for e in row:
                assert _bits(e.substitute(plan)) == _bits(e.substitute(general)), (A, e)


def _sympy_spectrum_matches(A, spectrum):
    """Each eigenvalue of sympy's `eigenvals` with its multiplicity: equal
    to the decided Fraction when it is rational, to the decided float when
    it is Gaussian rational, else within 1e-12 relative."""
    want = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in A]).eigenvals()
    assert sum(want.values()) == sum(mult for _, mult in spectrum) == len(A)
    assert len(want) == len(spectrum)
    for value, mult in want.items():
        re, im = sp.re(value), sp.im(value)
        z = complex(sp.N(value, 30))
        near = [(w, m) for w, m in spectrum if abs(w - z) <= 1e-12 * max(1.0, abs(z))]
        assert [m for _, m in near] == [mult], (A, value)
        if re.is_rational and im.is_rational:
            want = F(int(re.p), int(re.q)) if im == 0 else complex(float(re), float(im))
            assert near[0][0] == want and type(near[0][0]) is type(want), (A, value)


def test_spectrum_equals_sympy_eigenvals():
    """The factor x^m taken out before Yun's split changes no eigenvalue and
    no multiplicity."""
    for A in CHAIN_MATRICES:
        _sympy_spectrum_matches(A, _decide(A))


def test_lazy_series_is_the_exact_sum():
    """The series of a nilpotent A is exactly A^k / k!, k = 0 .. the last
    nonzero power, built on its first read; the float entries round it."""
    for A in CHAIN_MATRICES:
        E = sym_exp(A, "t")
        if E.powers is None:
            assert E.series is None
            continue
        n = len(A)
        P, want, k = [[F(int(i == j)) for j in range(n)] for i in range(n)], [], 0
        while any(map(any, P)):
            want.append([[x / math.factorial(k) for x in row] for row in P])
            P = [[sum(P[i][m] * A[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
            k += 1
        assert E.series == want
        for a in range(n):
            for b in range(n):
                coeffs = {kk[0]: c for (kk, _, _, _), c in E.entries[a][b].terms.items()}
                assert coeffs == {k: float(S[a][b]) for k, S in enumerate(want) if abs(float(S[a][b])) > 1e-10}


def test_multiplication_never_builds_the_series(monkeypatch):
    """The float path never reads the exact series, which only the
    rational class reads."""
    reads = []
    monkeypatch.setattr(ExpMatrix, "series", property(lambda E: reads.append("series")))
    from liequad import multiplication, preadjoint_oracle, verify_group

    # L16 is left out: its law fails at level 0 (ROADMAP item N)
    for sc in [sc for sc in _ladder_and_catalog() if sc.dim != 16]:
        _, chain = adapted_chain(sc)
        law = multiplication(chain)
        report = verify_group(law, samples=5)
        report.extend(preadjoint_oracle(chain, law, samples=5))
    assert reads == []


# ----------------------------------------------------------------------
# Yun's split over Z


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def _monic_with_repeated_factors(draw):
    """Monic integer polynomials, constant first: products of linear and
    quadratic monic factors with small coefficients, each to a power up to
    3, the factors possibly equal or sharing roots.  No factor gives 1,
    what is left of the zero matrix's x^n, whose derivative is 0."""
    p = [1]
    for _ in range(draw(st.integers(0, 4))):
        f = [draw(st.integers(-3, 3)) for _ in range(draw(st.integers(1, 2)))] + [1]
        for _ in range(draw(st.integers(1, 3))):
            p = _poly_mul(p, f)
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_monic_with_repeated_factors())
def test_integer_square_free_split_equals_the_fraction_split(p):
    """`qpoly.square_free` over Z, on the one-variable dict of p, gives the
    factors and multiplicities of Yun's split over Q, as ints."""
    got = _integer_split(p)
    assert got == fraction_square_free(p)
    assert all(type(c) is int for f, _ in got for c in f)


def _integer_split(p: list) -> list[tuple[list, int]]:
    """`qpoly.square_free` of a coefficient list p, constant first, with its
    factors read back as lists."""
    factors = qpoly.square_free({(e,): c for e, c in enumerate(p) if c}, 0)
    return [([f.get((e,), 0) for e in range(qpoly.degree(f, 0) + 1)], k) for f, k in factors]


def test_zero_matrix_has_the_eigenvalue_zero_only():
    """x^n leaves the constant 1, whose derivative is 0: no factor."""
    assert _integer_split([1]) == fraction_square_free([1]) == []
    assert _decide([[F(0)] * 3 for _ in range(3)]) == [(0j, 3)]
    E = sym_exp([[F(0)] * 3 for _ in range(3)], "t")
    assert [[e.terms for e in row] for row in E.entries] == [[{((0,), (0.0,), (0.0,), 0): 1.0} if a == b else {}
                                                              for b in range(3)] for a in range(3)]


# ----------------------------------------------------------------------
# one polynomial per distinct entry, composed once


def test_equal_entries_are_one_object_and_composed_once(monkeypatch):
    """The entries of e^{tA} with one column of powers (dA)^k[a][b], or,
    outside the nilpotent case, with one quasi-polynomial (here: equal
    entries), are one object, and `exp_matrix` composes each distinct
    nonzero entry once: L10's ad_0 has 10 entries 1 on its diagonal.  The
    factor's sparse rows hold its nonzero entries, None for those that are
    exactly one."""
    L10 = StructureConstants.from_brackets(10, {(10, k): {k - 1: F(1)} for k in range(2, 10)})
    _, chain = adapted_chain(L10)
    for A in CHAIN_MATRICES:
        E = sym_exp(A, "t")
        ids: dict = {}
        for a, row in enumerate(E.entries):
            for b, e in enumerate(row):
                key = str(_bits(e)) if E.powers is None else tuple(P[a][b] for P in E.powers)
                ids.setdefault(key, set()).add(id(e))
        assert all(len(v) == 1 for v in ids.values()), A

    E = chain.ad_exp(0)
    nonzero = [e for row in E.entries for e in row if not e.is_zero()]
    assert sum(e.is_one() for e in nonzero) == 10
    chart = VarSet.of("x", "y")
    f = ExpPoly.coordinate(chart, "y") * 2.0 + ExpPoly.coordinate(chart, "x")
    calls = []
    substitute = ExpPoly.substitute
    monkeypatch.setattr(ExpPoly, "substitute", lambda self, b: calls.append(id(self)) or substitute(self, b))
    M = f.exp_matrix(E)
    assert sorted(calls) == sorted({id(e) for e in nonzero}) and len(calls) < len(nonzero)
    monkeypatch.undo()
    want = [[e.substitute({"_t": f}) for e in row] for row in E.entries]
    assert [[_bits(e) for e in row] for row in M] == [[_bits(e) for e in row] for row in want]
    for row, sparse in zip(M, M.rows):
        assert [b for b, _ in sparse] == [b for b, e in enumerate(row) if not e.is_zero()]
        assert all(x is row[b] if x is not None else row[b].is_one() for b, x in sparse)
