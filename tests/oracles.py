"""Independent oracles for the test suites: a quadrature of a 1-form
along a segment (against `potential`), Yun's square-free split over Q
(against the integer one of `matexp`), the derivative residual
d/dt E - A E of a matrix exponential, the identities E(t)E(-t) = I,
det E(t) = e^{t tr A} and E(s)E(t) = E(s+t), and dense loops over the
structure constants (the bracket, constants in a new basis, the ideal
check, the structure residual, the Jacobi check) against the sparse ones
of `liealg`, and sympy's view of an exact rational function (against the
in-house field of `qpoly`)."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from liequad import DiffForm, ExpPoly, NotSolvable, StructureConstants
from liequad.liealg import ValidationReport, mat_mul
from liequad.matexp import ExpMatrix, _rational, identity_residual, matrix_batch
from liequad.report import Report


def sympy_fraction(f):
    """(numerator, denominator) of a RationalFunction as sympy expressions
    over its chart's names, exactly as the field stores them."""
    import sympy as sp

    xs = [sp.Symbol(name) for name in f.chart.names]

    def expr(poly):
        return sp.Add(*[c * sp.Mul(*[x**e for x, e in zip(xs, m)]) for m, c in poly.items()])

    return expr(f.frac.num), expr(f.frac.den)


def line_integral(
    omega: DiffForm,
    start: Mapping[str, float],
    end: Mapping[str, float],
) -> float:
    """Numeric integral of a 1-form along the straight segment start->end;
    the independent oracle for :func:`potential`."""
    from scipy.integrate import quad

    chart = omega.chart
    p = np.array([float(start[n]) for n in chart.names])
    q = np.array([float(end[n]) for n in chart.names])
    direction = q - p

    def integrand(s: float) -> float:
        pt = p + s * direction
        point = dict(zip(chart.names, pt))
        total = 0.0
        for (i,), c in omega.coeffs.items():
            total += c.evaluate(point) * direction[i]
        return total

    value, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-8, limit=200)
    return value


# Yun's square-free split over Q, on Fraction coefficient lists, constant
# first, with no trailing zero: the reference for `qpoly.square_free`,
# which runs over Z

def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _fraction_divmod(p: list, q: list) -> tuple[list, list]:
    r = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = c = r[i + len(q) - 1] / q[-1]
        for j, qj in enumerate(q):
            r[i + j] -= c * qj
    return quo, _trim(r[: len(q) - 1])


def _deriv(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _fraction_gcd(p: list, q: list) -> list:
    """The monic gcd of a nonzero p and q, by Euclid's remainders over Q."""
    while q:
        p, q = q, _fraction_divmod(p, q)[1]
    return [c / p[-1] for c in p]


def fraction_square_free(p: Sequence[int]) -> list[tuple[list, int]]:
    """Yun's split of a monic p over Q: pairwise coprime, monic,
    square-free factors with their multiplicities, as Fraction lists."""
    p = [Fraction(c) for c in p]
    a = _fraction_gcd(p, _deriv(p))
    b, c = _fraction_divmod(p, a)[0], _fraction_divmod(_deriv(p), a)[0]
    out = []
    for mult in range(1, len(p)):
        if len(b) == 1:
            break
        d = _trim([x - y for x, y in zip(c + [0] * len(b), _deriv(b) + [0] * len(c))])
        a = _fraction_gcd(b, d)
        b, c = _fraction_divmod(b, a)[0], _fraction_divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, mult))
    return out


def derivative_residual(E: ExpMatrix) -> float:
    """Max coefficient of d/dt E - A E; zero for a correct exponential."""
    S = mat_mul(_rational(E.dA, E.d), E.entries)
    worst = 0.0
    for a in range(E.n):
        for b in range(E.n):
            worst = max(worst, (E.entries[a][b].diff(E.var) - S[a][b]).max_abs_coeff())
    return worst


# bound of every exp_identities_check line; numeric lines scale their error
EXP_CHECK_TOL = 1e-8


def exp_identities_check(E: ExpMatrix, samples: int = 20, seed: int = 0) -> Report:
    """E(t)E(-t) = I symbolically; det E(t) = e^{t tr A} and the one-parameter
    group law E(s)E(t) = E(s+t) numerically at seeded samples."""
    rng = random.Random(seed)
    n = E.n
    report = Report()

    minus_t = -ExpPoly.coordinate(E.chart, E.var)
    worst = identity_residual(mat_mul(E.entries, minus_t.exp_matrix(E)))
    report.add("E(t)E(-t) = I", worst <= EXP_CHECK_TOL, "symbolic", worst)

    A = _rational(E.dA, E.d)
    tr = float(sum(A[i][i] for i in range(n)))
    # t, s of each sample, drawn in that order
    draws = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(samples)]
    E_t = matrix_batch(E.entries, [t for t, _ in draws])
    E_s = matrix_batch(E.entries, [s for _, s in draws])
    E_st = matrix_batch(E.entries, [s + t for t, s in draws])
    worst_det = 0.0
    worst_group = 0.0
    for (t, s), Emat, Es, rhs in zip(draws, E_t, E_s, E_st):
        det = float(np.linalg.det(Emat))
        expected = float(np.exp(tr * t))
        # determinants of large-entry exponentials cancel catastrophically;
        # the resolvable threshold is the entry-noise amplification
        # n * |E|^n * 1e-13, so errors below that noise floor count as met
        emax = max(1.0, float(np.abs(Emat).max()))
        noise = n * emax ** n * 1e-13
        scale = max(1.0, abs(expected), noise / EXP_CHECK_TOL)
        worst_det = max(worst_det, abs(det - expected) / scale)
        lhs = Es @ Emat
        amp = n * float(np.abs(Es).max()) * emax * 1e-13
        scale = max(1.0, float(np.abs(rhs).max()), amp / EXP_CHECK_TOL)
        worst_group = max(worst_group, float(np.abs(lhs - rhs).max()) / scale)
    report.add("det E(t) = e^{t tr A}", worst_det <= EXP_CHECK_TOL, "numeric", worst_det)
    report.add("E(s)E(t) = E(s+t)", worst_group <= EXP_CHECK_TOL, "numeric", worst_group)
    return report


# ----------------------------------------------------------------------
# dense loops over the structure constants

def dense_bracket(sc: StructureConstants, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    """[u, v] by reading C^i_jk for every i of every nonzero (u_j, v_k)."""
    n = sc.dim
    C = sc.C
    out = [Fraction(0)] * n
    vs = [(k, y) for k, y in enumerate(v) if y]
    for j, x in enumerate(u):
        if not x:
            continue
        for k, y in vs:
            w = x * y
            for i in range(n):
                c = C[i][j][k]
                if c:
                    out[i] += c * w
    return out


def dense_constants_in_basis(sc: StructureConstants, basis, P) -> StructureConstants:
    """C~[k][i][j] = sum over the rows of P, one row per k, of row . [basis_i, basis_j]."""
    n = sc.dim
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = [(m, x) for m, x in enumerate(dense_bracket(sc, basis[i], basis[j])) if x]
            for k, row in enumerate(P):
                c = sum((row[m] * x for m, x in w), Fraction(0))
                out[k][i][j], out[k][j][i] = c, -c
    return StructureConstants(n, tuple(tuple(tuple(r) for r in pl) for pl in out))


def dense_verify_ideals(chain) -> None:
    """Raise at the first (s, u, v, i) where [e_u, e_v] with e_u in
    k_{s-1} and e_v in k_s leaves k_s."""
    n = chain.n
    C = chain.base.C
    for s in range(1, n + 1):
        m = n - s
        for u in range(m + 1):
            for v in range(m):
                for i in range(m, n):
                    if C[i][u][v] != 0:
                        raise NotSolvable(
                            f"k_{s} is not an ideal in k_{s-1}: "
                            f"[e_{u+1}, e_{v+1}] has e_{i+1} component {C[i][u][v]}"
                        )


def dense_structure_residual(omegas, sc: StructureConstants) -> list[DiffForm]:
    """d omega^i + sum over every j < k, in (j, k) order, of C^i_jk omega^j ^ omega^k."""
    n = sc.dim
    out = []
    for i in range(n):
        res = omegas[i].exterior_d()
        for j in range(n):
            for k in range(j + 1, n):
                c = sc.C[i][j][k]
                if c != 0:
                    res = res + omegas[j].wedge(omegas[k]) * c
        out.append(res)
    return out


def dense_validate(sc: StructureConstants) -> ValidationReport:
    """Antisymmetry, then the Jacobi identity summed over every m for each
    j < k < l and i."""
    n = sc.dim
    C = sc.C
    anti = []
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                if C[i][j][k] != -C[i][k][j]:
                    anti.append((i + 1, j + 1, k + 1, C[i][j][k] + C[i][k][j]))
    jac = []
    for j in range(n):
        for k in range(j + 1, n):
            for l in range(k + 1, n):
                for i in range(n):
                    total = Fraction(0)
                    for m in range(n):
                        total += (
                            C[m][j][k] * C[i][m][l]
                            + C[m][k][l] * C[i][m][j]
                            + C[m][l][j] * C[i][m][k]
                        )
                    if total != 0:
                        jac.append((j + 1, k + 1, l + 1, i + 1, total))
    return ValidationReport(tuple(anti), tuple(jac))
