"""Structure constants: validation, derived series, chains, basis changes."""

import random
from fractions import Fraction

import pytest

from liequad import (
    NotSolvable,
    StructureConstants,
    adapted_chain,
    change_basis,
    derived_series,
    is_solvable,
    validate,
)
from liequad.liealg import mat_identity, mat_inverse, remainder, rref
from catalog import catalog, filiform4, five_dim_two_parameter, heisenberg, sl2
from conftest import borel_constants
from test_verdicts import filiform, random_basis

F = Fraction


def test_validate_five_dim_family():
    assert validate(five_dim_two_parameter(F(1), F(2))).ok


def test_validate_abelian():
    assert validate(StructureConstants.abelian(3)).ok


def test_validate_reports_jacobi_violation():
    bad = StructureConstants.from_brackets(3, {(1, 2): {1: 1}, (1, 3): {2: 1}})
    report = validate(bad)
    assert not report.ok
    assert report.jacobi_violations
    assert not report.antisymmetry_violations


def test_derived_series_five_dim():
    ds = derived_series(five_dim_two_parameter(F(1), F(2)))
    assert [len(s) for s in ds] == [5, 3, 0]
    # g' = span{e1, e2, e3}
    for vec in ds[1]:
        assert vec[3] == 0 and vec[4] == 0


def test_derived_series_heisenberg_and_abelian():
    ds = derived_series(heisenberg())
    assert [len(s) for s in ds] == [3, 1, 0]
    assert ds[1][0] == (F(1), F(0), F(0))
    assert [len(s) for s in derived_series(StructureConstants.abelian(4))] == [4, 0]


def test_solvability():
    assert is_solvable(five_dim_two_parameter(F(1), F(2)))
    assert is_solvable(StructureConstants.abelian(2))
    assert is_solvable(filiform4())
    assert not is_solvable(sl2())


def test_adapted_chain_five_dim_is_identity_with_golden_ad():
    P, chain = adapted_chain(five_dim_two_parameter(F(1), F(2)))
    assert P == mat_identity(5)
    assert chain.ad_matrix(0) == [
        [F(-1), F(0), F(0), F(0), F(0)],
        [F(0), F(0), F(-1), F(0), F(0)],
        [F(0), F(1), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(0)],
    ]
    assert chain.ad_matrix(1) == [
        [F(-2), F(0), F(0), F(0)],
        [F(0), F(-1), F(0), F(0)],
        [F(0), F(0), F(-1), F(0)],
        [F(0), F(0), F(0), F(0)],
    ]
    assert all(x == 0 for row in chain.ad_matrix(2) for x in row)
    assert all(x == 0 for row in chain.ad_matrix(3) for x in row)


def test_adapted_chain_abelian():
    P, chain = adapted_chain(StructureConstants.abelian(4))
    assert P == mat_identity(4)
    for s in range(4):
        assert all(x == 0 for row in chain.ad_matrix(s) for x in row)


def test_adapted_chain_reordered_heisenberg():
    # input basis (f1, f2, f3) = (e3, e1, e2) with [e2, e3] = e1:
    # [f3, f1] = f2 is the only bracket
    sc = StructureConstants.from_brackets(3, {(3, 1): {2: 1}})
    _, chain = adapted_chain(sc)
    chain.verify_ideals()
    C = chain.base.C
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(j + 1, 3)
        if C[i][j][k] != 0
    ]
    # single bracket between the last two adapted vectors landing on the first
    assert nonzero == [(0, 1, 2)]
    assert abs(C[0][1][2]) == 1


def test_chain_requires_solvability():
    with pytest.raises(NotSolvable):
        adapted_chain(sl2())


@pytest.mark.parametrize("target", [0, 4, 9])
def test_bracket_target_index_out_of_range_is_rejected(target):
    """e_0 would read C[-1], the last row; e_4 and e_9 lie past dim 3."""
    with pytest.raises(ValueError, match="target index"):
        StructureConstants.from_brackets(3, {(2, 3): {target: F(1)}})


def test_restricted_ad_has_zero_last_row():
    for sc in (five_dim_two_parameter(F(1), F(2)), heisenberg(), filiform4()):
        _, chain = adapted_chain(sc)
        for s in range(chain.n):
            M = chain.ad_matrix(s)
            assert all(x == 0 for x in M[-1])


def test_change_basis_identity():
    sc = heisenberg()
    assert change_basis(sc, mat_identity(3)).C == sc.C


def test_change_basis_rescaling_follows_tensor_law():
    sc = heisenberg()
    P = [[F(1, 2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    out = change_basis(sc, P)
    # f1 = e1/2, so [e2, e3] = f1 = e1/2
    assert out.C[0][1][2] == F(1, 2)


def _random_invertible(rng, n):
    while True:
        M = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        try:
            mat_inverse(M)
            return M
        except Exception:
            continue


def test_change_basis_preserves_jacobi_and_roundtrips():
    rng = random.Random(7)
    sc = five_dim_two_parameter(F(1), F(2))
    for _ in range(5):
        P = _random_invertible(rng, 5)
        out = change_basis(sc, P)
        assert validate(out).ok
        assert change_basis(out, mat_inverse(P)).C == sc.C


def _tensor_law(sc, P):
    """C~^k_ij = P^k_c C^c_ab (P^-1)^a_i (P^-1)^b_j, index by index."""
    n = sc.dim
    Pinv = mat_inverse(P)
    out = [[[F(0) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(n):
                if sc.C[c][a][b] == 0:
                    continue
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            out[k][i][j] += P[k][c] * sc.C[c][a][b] * Pinv[a][i] * Pinv[b][j]
    return tuple(tuple(tuple(r) for r in pl) for pl in out)


def _baseline_draw(n, seed):
    """The invertible P of `random_basis(sc, seed)` for an n-dim sc."""
    rng = random.Random(seed)
    while True:
        P = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            mat_inverse(P)
            return P
        except Exception:
            continue


def _cases_for_tensor_law():
    for sc in (filiform(8), borel_constants(3), borel_constants(4)):
        for seed in (0, 1):
            yield sc, _baseline_draw(sc.dim, seed)
    rng = random.Random(11)
    for a, b in ((F(1), F(2)), (F(-1, 2), F(3))):
        for _ in range(3):
            yield five_dim_two_parameter(a, b), _random_invertible(rng, 5)


def test_change_basis_follows_the_tensor_law_index_by_index():
    """The brackets of the new basis vectors equal the six-index tensor law
    exactly, with every entry a Fraction."""
    for sc, P in _cases_for_tensor_law():
        out = change_basis(sc, P)
        assert out.C == _tensor_law(sc, P)
        assert all(type(c) is F for plane in out.C for row in plane for c in row)
    assert change_basis(filiform(8), _baseline_draw(8, 0)).C == random_basis(filiform(8), 0).C


@pytest.mark.parametrize("make", [lambda: filiform(16), lambda: random_basis(borel_constants(4), 0)],
                         ids=["L16", "b4-random0"])
def test_adapted_chain_eliminates_once(monkeypatch, make):
    """One rref per derived-series term after the first (the whole algebra,
    whose basis is the identity), one inversion (itself one rref), and the
    flag grows without a further elimination."""
    from liequad import liealg

    sc = make()
    terms = len(derived_series(sc))
    calls = {"rref": 0, "mat_inverse": 0}

    def counting(name):
        inner = getattr(liealg, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    monkeypatch.setattr(liealg, "rref", counting("rref"))
    monkeypatch.setattr(liealg, "mat_inverse", counting("mat_inverse"))
    adapted_chain(sc)
    assert calls == {"rref": terms, "mat_inverse": 1}


_SPARSE_CASES = [pytest.param(make, seed, id=f"{name}-random{seed}")
                 for name, make in (("L8", lambda: filiform(8)), ("b4", lambda: borel_constants(4)),
                                    ("b5", lambda: borel_constants(5)))
                 for seed in range(3)]


def _random_constants(seed: int) -> StructureConstants:
    """A random tensor C^i_jk with entries in {-2, ..., 2}, two thirds of
    them zero; antisymmetric in (j, k) for an even seed, unconstrained
    (diagonal entries included) for an odd one."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    C = [[[F(rng.choice([0, 0, 0, 0, -2, -1, 1, 2])) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if seed % 2 == 0:
        for plane in C:
            for j in range(n):
                plane[j][j] = F(0)
                for k in range(j + 1, n):
                    plane[k][j] = -plane[j][k]
    return StructureConstants(n, tuple(tuple(tuple(row) for row in plane) for plane in C))


_VALIDATE_CASES = [
    pytest.param(lambda: filiform(6), id="L6"),
    pytest.param(lambda: filiform(10), id="L10"),
    pytest.param(lambda: borel_constants(3), id="b3"),
    pytest.param(lambda: borel_constants(4), id="b4"),
    pytest.param(sl2, id="sl2"),
    pytest.param(lambda: random_basis(filiform(8), 0), id="L8-random0"),
    pytest.param(lambda: random_basis(borel_constants(4), 1), id="b4-random1"),
] + [pytest.param(lambda e=entry: e.constants, id=entry.name) for entry in catalog()] + [
    pytest.param(lambda seed=seed: _random_constants(seed), id=f"tensor{seed}") for seed in range(24)]


@pytest.mark.parametrize("make", _VALIDATE_CASES)
def test_validate_equals_the_dense_loop(make):
    """The Jacobi check over the nonzero constants reports the same
    violations, in the same order, as the loop over every (j, k, l, i, m)."""
    from oracles import dense_validate

    sc = make()
    assert validate(sc) == dense_validate(sc)


@pytest.mark.parametrize("make, seed", _SPARSE_CASES)
def test_sparse_exact_layer_equals_the_dense_loops(monkeypatch, make, seed):
    """The input constants, the change matrix and the chain constants are
    the same Fractions when the bracket and the constants in a new basis
    read every C^i_jk densely."""
    from liequad import liealg
    from oracles import dense_bracket, dense_constants_in_basis

    sc = random_basis(make(), seed)
    P, chain = adapted_chain(sc)
    got = repr(sc.C), repr(P), repr(chain.base.C)
    monkeypatch.setattr(StructureConstants, "bracket", dense_bracket)
    monkeypatch.setattr(liealg, "_constants_in_basis", dense_constants_in_basis)
    dense_sc = random_basis(make(), seed)
    dense_P, dense_chain = adapted_chain(dense_sc)
    assert got == (repr(dense_sc.C), repr(dense_P), repr(dense_chain.base.C))


@pytest.mark.parametrize("make, seed", _SPARSE_CASES)
def test_verify_ideals_raises_the_first_message_of_the_dense_loop(make, seed):
    """A random basis is no ideal chain: the sparse check names the same
    first (s, u, v, i) as the loop over every entry."""
    from liequad import AdaptedChain
    from oracles import dense_verify_ideals

    chain = AdaptedChain(random_basis(make(), seed))
    with pytest.raises(NotSolvable) as dense:
        dense_verify_ideals(chain)
    with pytest.raises(NotSolvable) as sparse:
        chain.verify_ideals()
    assert str(sparse.value) == str(dense.value)


def test_transformed_forms_satisfy_transformed_structure_equations():
    """Forms for the old constants, pushed through a basis change, satisfy
    the structure equations of the transformed constants."""
    from liequad import DiffForm, ExpPoly, build_group, structure_residual, transform_forms

    rng = random.Random(19)
    sc = heisenberg()
    _, chain = adapted_chain(sc)
    group = build_group(chain)
    for _ in range(5):
        P = _random_invertible(rng, 3)
        new_forms = transform_forms(P, group.tau)
        new_sc = change_basis(sc, P)
        res = structure_residual(new_forms, new_sc)
        assert max(r.max_abs_coeff() for r in res) < 1e-9


def test_chain_ideal_membership_exact():
    for sc in (five_dim_two_parameter(F(3), F(1)), filiform4(), heisenberg()):
        _, chain = adapted_chain(sc)
        n = chain.n
        C = chain.base.C
        for s in range(1, n + 1):
            m = n - s
            for u in range(min(m + 1, n)):
                for v in range(m):
                    w = chain.base.bracket(
                        [F(int(t == u)) for t in range(n)],
                        [F(int(t == v)) for t in range(n)],
                    )
                    assert all(w[i] == 0 for i in range(m, n))


def test_singular_basis_change_rejected():
    from liequad import SingularMatrix

    P = [[F(1), F(1)], [F(2), F(2)]]
    with pytest.raises(SingularMatrix):
        change_basis(StructureConstants.abelian(2), P)


def test_rref_and_span_helpers():
    rows = [(F(2), F(0), F(2)), (F(0), F(1), F(1))]
    basis = rref(rows)
    assert not any(remainder(basis, (F(2), F(1), F(3))))
    assert any(remainder(basis, (F(0), F(0), F(1))))


def test_mat_inverse_over_rational_functions():
    from liequad import RationalFunction, SingularMatrix, VarSet

    V = VarSet.of("x", "u")
    rf = lambda s: RationalFunction.parse(V, s)
    # the zero pivot in the first column forces a row swap
    inv = mat_inverse([[rf("0"), rf("x")], [rf("1"), rf("u")]])
    assert inv == [[rf("-u/x"), rf("1")], [rf("1/x"), rf("0")]]
    with pytest.raises(SingularMatrix):
        mat_inverse([[rf("x"), rf("u")], [rf("x^2"), rf("x*u")]])
