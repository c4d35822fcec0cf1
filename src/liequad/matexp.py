"""Closed-form exponential of t*A for rational square matrices.

Eigenvalues are computed numerically (balanced QR via LAPACK), clustered
at an absolute tolerance, snapped back to exact rational / quadratic
values when exact singularity of A - lambda I confirms them (Gauss-Jordan
over Fractions; for lambda = a +/- ib, of (A - aI)^2 + b^2 I), and fed to
Putzer's recursion.  Complex pairs become real cos/sin terms, repeated
eigenvalues become polynomial factors t^k, so the entries live in the
exponential-polynomial class in one variable.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EigenvalueClusterAmbiguity, NonAffineExponentSubstitution
from .exppoly import KIND_COS, KIND_SIN, KIND_ONE, ExpPoly
from .liealg import lin_comb, rref
from .report import Report
from .varset import VarSet

CLUSTER_TOL = 1e-7

QuasiPoly = dict[tuple[int, complex], complex]  # (power, rate) -> coeff


def _cluster_spectrum(eigs: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Group numerically equal eigenvalues; error out when the grouping is
    not stable at the tolerance."""
    pts = list(eigs)
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i] - pts[j]) <= tol:
                parent[find(i)] = find(j)
    comps: dict[int, list[complex]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(pts[i])
    clusters = []
    for members in comps.values():
        diam = max(
            (abs(a - b) for a in members for b in members), default=0.0
        )
        if diam > tol:
            raise EigenvalueClusterAmbiguity(
                f"cluster diameter {diam:.3e} exceeds tolerance {tol:.1e}"
            )
        rep = sum(members) / len(members)
        clusters.append((rep, len(members)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def _is_singular(M: list[list[Fraction]]) -> bool:
    return len(rref(M)) < len(M)


def _snap_spectrum(
    clusters: list[tuple[complex, int]], A: Sequence[Sequence[Fraction]], tol: float
) -> list[tuple[complex, int]]:
    """Replace cluster representatives by exact rational (or rational +/- i
    rational) values whenever A - lambda I is exactly singular at them;
    keeps golden outputs bit-stable."""
    n = len(A)

    def shifted(c: Fraction) -> list[list[Fraction]]:
        return [[A[i][j] - c if i == j else A[i][j] for j in range(n)] for i in range(n)]

    def try_real(x: float):
        cand = Fraction(x).limit_denominator(10 ** 6)
        if abs(float(cand) - x) > tol:
            return None
        if _is_singular(shifted(cand)):
            return float(cand)
        return None

    def try_pair(re: float, im: float):
        cr = Fraction(re).limit_denominator(10 ** 6)
        ci = Fraction(im).limit_denominator(10 ** 6)
        if abs(float(cr) - re) > tol or abs(float(ci) - im) > tol:
            return None
        # det q(A) = prod q(lambda_i) for q(z) = (z - a)^2 + b^2, so q(A) is
        # singular exactly when a +/- ib are eigenvalues
        B = shifted(cr)
        q = [
            [sum(B[i][m] * B[m][j] for m in range(n)) + (ci * ci if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        if _is_singular(q):
            return complex(float(cr), float(ci))
        return None

    out = []
    for rep, mult in clusters:
        if abs(rep.imag) <= tol:
            snapped = try_real(rep.real)
            out.append((complex(snapped, 0.0) if snapped is not None else complex(rep.real, 0.0), mult))
        else:
            snapped = try_pair(rep.real, abs(rep.imag))
            if snapped is not None:
                val = snapped if rep.imag > 0 else snapped.conjugate()
            else:
                val = complex(rep)
            out.append((val, mult))
    # enforce exact conjugate symmetry between paired clusters
    for i, (rep, mult) in enumerate(out):
        if rep.imag > 0:
            for j, (other, mult2) in enumerate(out):
                if other.imag < 0 and abs(other - rep.conjugate()) <= 2 * tol and mult2 == mult:
                    out[j] = (rep.conjugate(), mult2)
                    break
    out.sort(key=lambda c: (c[0].real, c[0].imag))
    return out


def _ode_step(rhs: QuasiPoly, lam: complex) -> QuasiPoly:
    """Solve r' = lam*r + rhs with r(0) = 0, rhs a quasi-polynomial."""
    out: QuasiPoly = {}

    def put(key, c):
        out[key] = out.get(key, 0j) + c

    for (k, mu), c in rhs.items():
        if mu == lam:
            put((k + 1, lam), c / (k + 1))
        else:
            delta = mu - lam
            q = [0j] * (k + 1)
            q[k] = c / delta
            for i in range(k - 1, -1, -1):
                q[i] = -(i + 1) * q[i + 1] / delta
            for i, qi in enumerate(q):
                put((i, mu), qi)
    v0 = sum(c for (k, _), c in out.items() if k == 0)
    put((0, lam), -v0)
    return {k: c for k, c in out.items() if c != 0j}


def matrix_batch(M, points) -> np.ndarray:
    """A matrix of scalars at N points, as an N x rows x cols array."""
    return np.stack([np.column_stack([e.evaluate_batch(points) for e in row]) for row in M], axis=1)


@dataclass
class ExpMatrix:
    """Symbolic e^{t A} with exponential-polynomial entries in one variable."""

    var: str
    source: tuple[tuple[Fraction, ...], ...]
    entries: list[list[ExpPoly]]

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def chart(self) -> VarSet:
        return self.entries[0][0].chart

    def at_batch(self, ts) -> np.ndarray:
        """E(t) at N values of t, as an N x n x n array."""
        return matrix_batch(self.entries, np.asarray(ts, dtype=float).reshape(-1, 1))

    def at(self, t: float) -> np.ndarray:
        return self.at_batch([t])[0]

    def compose(self, f) -> list[list]:
        """Entries with the variable replaced by a scalar f.

        ExpPoly f must be affine wherever t occurs in a rate.  Any other
        scalar class needs a nilpotent source A and gets the exact finite
        sum e^{f A} = sum_k f^k A^k / k! from the rational A, since the
        float entries carry coefficients such as 1/6 inexactly.
        """
        if isinstance(f, ExpPoly):
            bind = {self.var: f}
            zero = ExpPoly.zero(f.chart)
            return [[e.substitute(bind) if e.terms else zero for e in row] for row in self.entries]
        A = self.source
        n = len(A)
        term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # A^k / k!
        terms = []
        while any(x != 0 for row in term for x in row):
            if len(terms) == n:
                raise NonAffineExponentSubstitution(
                    "the matrix is not nilpotent, so its exponential has "
                    "exponential/trig terms; cannot compose with a "
                    "non-exponential scalar"
                )
            terms.append(term)
            k = len(terms)
            term = [[sum(row[m] * A[m][j] for m in range(n)) / k for j in range(n)] for row in term]
        powers = [f ** k for k in range(len(terms))]
        return [[lin_comb([t[a][b] for t in terms], powers) for b in range(n)] for a in range(n)]


def sym_exp(
    A: Sequence[Sequence[object]],
    var: str = "t",
    cluster_tol: float = CLUSTER_TOL,
) -> ExpMatrix:
    """Closed-form e^{t A} by Putzer's recursion over the clustered spectrum.

    Memoized on the exact matrix and the other arguments: callers share
    the result and must not modify its entries.  Entries that are
    Fractions already enter the cache key as they are.
    """
    Af = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in A)
    if any(len(row) != len(Af) for row in Af):
        raise ValueError("matrix must be square")
    return _putzer(Af, var, cluster_tol)


@functools.lru_cache(maxsize=256)
def _putzer(Af: tuple, var: str, cluster_tol: float) -> ExpMatrix:
    n = len(Af)
    chart = VarSet.of(var)
    if n == 0:
        return ExpMatrix(var, Af, [])
    An = np.array([[float(x) for x in row] for row in Af])
    clusters = _cluster_spectrum(np.linalg.eigvals(An), cluster_tol)
    clusters = _snap_spectrum(clusters, Af, cluster_tol)
    lams: list[complex] = []
    for rep, mult in clusters:
        lams.extend([rep] * mult)

    # Putzer matrices P_0 = I, P_j = prod_{k<=j} (A - lam_k I)
    P = [np.eye(n, dtype=complex)]
    for j in range(1, n):
        P.append(P[-1] @ (An.astype(complex) - lams[j - 1] * np.eye(n)))

    # Putzer coefficient functions
    rs: list[QuasiPoly] = [{(0, lams[0]): 1.0 + 0j}]
    for j in range(1, n):
        rs.append(_ode_step(rs[-1], lams[j]))

    # assemble entries
    acc: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for r, Pj in zip(rs, P):
        # a zero entry of P_j contributes nothing
        support = np.argwhere(Pj).tolist()
        for (k, mu), c in r.items():
            for a, b in support:
                w = c * Pj[a, b]
                if w != 0j:
                    d = acc[a][b]
                    d[(k, mu)] = d.get((k, mu), 0j) + w

    entries = []
    for a in range(n):
        row = []
        for b in range(n):
            terms = {}
            for (k, mu), c in acc[a][b].items():
                alpha, beta = mu.real, mu.imag
                kk = (k,)
                aa = (alpha,)
                if beta == 0.0:
                    key = (kk, aa, (0.0,), KIND_ONE)
                    terms[key] = terms.get(key, 0.0) + c.real
                else:
                    # Re[c t^k e^{(alpha+i beta) t}]
                    kc = (kk, aa, (beta,), KIND_COS)
                    ks = (kk, aa, (beta,), KIND_SIN)
                    terms[kc] = terms.get(kc, 0.0) + c.real
                    terms[ks] = terms.get(ks, 0.0) - c.imag
            row.append(ExpPoly(chart, terms))
        entries.append(row)
    return ExpMatrix(var, Af, entries)


def derivative_residual(E: ExpMatrix) -> float:
    """Max coefficient of d/dt E - A E; zero for a correct exponential."""
    n = E.n
    worst = 0.0
    for a in range(n):
        for b in range(n):
            d = E.entries[a][b].diff(E.var)
            s = lin_comb(E.source[a], [row[b] for row in E.entries])
            worst = max(worst, (d - s).max_abs_coeff())
    return worst


# bound of every exp_identities_check line; numeric lines scale their error
EXP_CHECK_TOL = 1e-8


def exp_identities_check(E: ExpMatrix, samples: int = 20, seed: int = 0) -> Report:
    """E(t)E(-t) = I symbolically; det E(t) = e^{t tr A} and the one-parameter
    group law E(s)E(t) = E(s+t) numerically at seeded samples."""
    rng = random.Random(seed)
    n = E.n
    report = Report()

    # E(-t) = e^{t (-A)}
    Eneg = sym_exp([[-x for x in row] for row in E.source], E.var)
    worst = 0.0
    for a in range(n):
        for b in range(n):
            s = lin_comb([row[b] for row in Eneg.entries], E.entries[a])
            target = 1.0 if a == b else 0.0
            worst = max(worst, (s - ExpPoly.constant(E.chart, target)).max_abs_coeff())
    report.add("E(t)E(-t) = I", worst <= EXP_CHECK_TOL, "symbolic", worst)

    tr = float(sum(E.source[i][i] for i in range(n)))
    # t, s of each sample, drawn in that order
    draws = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(samples)]
    E_t = E.at_batch([t for t, _ in draws])
    E_s = E.at_batch([s for _, s in draws])
    E_st = E.at_batch([s + t for t, s in draws])
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
