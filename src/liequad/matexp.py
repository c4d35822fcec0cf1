"""Closed-form exponential of t*A for rational square matrices.

The spectrum is decided exactly, once per matrix: the characteristic
polynomial of the integer matrix dA (d the lcm of A's denominators) over
Z.  Its factor x^m gives the eigenvalue 0 with multiplicity m; what is
left, monic, is split square-free over Z for exact multiplicities by
`qpoly.square_free` (Yun's algorithm), whose factors are monic since they
divide a monic polynomial.  By Gauss's lemma, rounded numeric
roots give the only candidate factors, integer roots and monic integer
quadratics, each confirmed by exact division (`qpoly.low_factors`); only
roots of a leftover factor of degree >= 3 stay numeric.  A nilpotent A
gets the series sum t^k A^k / k!, each float coefficient the integer
division (dA)^k[a][b] / (d^k k!), correctly rounded as the float of the
exact Fraction is; the exact series is built on its first read
(`ExpMatrix.series`).  Any other spectrum feeds Putzer's recursion
(complex pairs become cos/sin terms, repeated eigenvalues factors t^k).
Equal entries of e^{tA}, those with one column of powers (dA)^k[a][b] or
one quasi-polynomial, are one object, and `ExpMatrix.rows` lists the
nonzero ones once.  A scalar f gives e^{fA} by `f.exp_matrix(E)`, which
composes each distinct entry once, so e^{-fA} is the same E composed
with -f, and no matrix is built for -A.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NonFiniteCoefficient
from .exppoly import KIND_COS, KIND_SIN, KIND_ONE, ExpPoly, by_parts
from .varset import VarSet

QuasiPoly = dict[tuple[int, complex], complex]  # (power, rate) -> coeff


def _charpoly(B: list[list[int]]) -> tuple[list[int], list]:
    """det(x I - B) for an integer matrix, constant first, by Faddeev-LeVerrier
    over Z: M_1 = I, c_{n-k} = -tr(B M_k) / k (exact) and M_{k+1} = B M_k +
    c_{n-k} I.  Also returns M_1, M_2, ... up to the last nonzero one, which
    for a nilpotent B (every c_{n-k} = 0) are its powers B^0, B^1 and so on."""
    n = len(B)
    rows = [[(m, b) for m, b in enumerate(row) if b] for row in B]
    c = [0] * n + [1]
    Ms = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for k in range(1, n + 1):
        N = []
        for row in rows:
            acc = [0] * n
            for m, b in row:
                acc = [x + b * y for x, y in zip(acc, Ms[-1][m])]
            N.append(acc)
        c[n - k] = -sum(N[i][i] for i in range(n)) // k
        for i in range(n):
            N[i][i] += c[n - k]
        if not any(map(any, N)):
            break
        Ms.append(N)
    return c, Ms


def _low_roots(g: dict, d: int) -> list[complex]:
    """The roots, divided by d, of a monic g in x of degree 1 or 2; a square
    root is exact when its argument is a rational square, else rounded once."""
    c0, c1 = g.get((0,), 0), g.get((1,), 0)
    if (2,) not in g:
        return [complex(float(Fraction(-c0, d)))]
    a = Fraction(-c1, 2 * d)
    disc = a * a - Fraction(c0, d * d)
    r = Fraction(math.isqrt(abs(disc).numerator), math.isqrt(abs(disc).denominator))
    if r * r != abs(disc):
        r = math.sqrt(abs(disc))
    if disc > 0:
        return [complex(float(a - r)), complex(float(a + r))]
    return [complex(float(a), -float(r)), complex(float(a), float(r))]


def _ode_step(rhs: QuasiPoly, lam: complex) -> QuasiPoly:
    """Solve r' = lam*r + rhs with r(0) = 0, rhs a quasi-polynomial."""
    out: QuasiPoly = {}

    def put(key, c):
        out[key] = out.get(key, 0j) + c

    for (k, mu), c in rhs.items():
        if mu == lam:
            put((k + 1, lam), c / (k + 1))
        else:
            for i, qi in enumerate(by_parts(c, k, mu - lam)):
                put((i, mu), qi)
    v0 = sum(c for (k, _), c in out.items() if k == 0)
    put((0, lam), -v0)
    return {k: c for k, c in out.items() if c != 0j}


def matrix_batch(M, points) -> np.ndarray:
    """A matrix of scalars at N points, as an N x rows x columns array: its
    entries, row by row, compiled as one family by their class and
    evaluated together."""
    entries = [e for row in M for e in row]
    values = type(entries[0]).family(entries[0].chart, entries).evaluate(points)
    return values.reshape(-1, len(M), len(M[0]))


@dataclass
class ExpMatrix:
    """Symbolic e^{t A} with exponential-polynomial entries in one variable,
    for A = dA / d with dA an integer matrix.  `powers` holds the powers
    (dA)^k (k = 0, 1, ...) when A is nilpotent, from which `series` reads
    the exact A^k / k!."""

    var: str
    dA: tuple[tuple[int, ...], ...]
    d: int
    entries: list[list[ExpPoly]]
    powers: list | None = None

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def chart(self) -> VarSet:
        return self.entries[0][0].chart

    @cached_property
    def rows(self) -> list[list[tuple[int, ExpPoly]]]:
        """The nonzero entries (b, e) of each row, in column order."""
        return [[(b, e) for b, e in enumerate(row) if not e.is_zero()] for row in self.entries]

    @cached_property
    def series(self) -> list | None:
        """The exact A^k / k! (k = 0, 1, ...) when A is nilpotent, else None;
        built on the first read (only the rational class reads it)."""
        if self.powers is None:
            return None
        return [[[Fraction(x, self.d ** k * math.factorial(k)) if x else 0 for x in row] for row in P]
                for k, P in enumerate(self.powers)]

    def at(self, t: float) -> np.ndarray:
        return matrix_batch(self.entries, [[t]])[0]


def sym_exp(A: Sequence[Sequence[object]], var: str = "t") -> ExpMatrix:
    """Closed-form e^{t A} over the exactly decided spectrum (module docstring).

    Memoized on the integer matrix dA, d and the variable, so a lookup
    hashes ints, not Fractions: callers share the result and must not
    modify its entries.  A number too large for a float is a
    NonFiniteCoefficient.
    """
    Af = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in A]
    if any(len(row) != len(Af) for row in Af):
        raise ValueError("matrix must be square")
    d = math.lcm(*(x.denominator for row in Af for x in row))
    B = tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in Af)
    try:
        return _exp(B, d, var)
    except OverflowError:
        raise NonFiniteCoefficient("a matrix entry or an eigenvalue is too large for a float") from None


@functools.lru_cache(maxsize=256)
def _exp(B: tuple, d: int, var: str) -> ExpMatrix:
    n = len(B)
    chart = VarSet.of(var)
    p, powers = _charpoly(B)
    if not any(p[:n]):
        scales = [d ** k * math.factorial(k) for k in range(len(powers))]
        # one polynomial per distinct column of powers (dA)^k[a][b]
        keys = [list(zip(*(P[a] for P in powers))) for a in range(n)]
        distinct = {key: ExpPoly.polynomial_in(chart, var, [x / q for x, q in zip(key, scales)])
                    for key in dict.fromkeys(key for row in keys for key in row)}
        return ExpMatrix(var, B, d, [[distinct[key] for key in row] for row in keys], powers)
    lams = [z for z, mult in _spectrum(p, d) for _ in range(mult)]
    return ExpMatrix(var, B, d, _putzer(_rational(B, d), lams, chart))


def _rational(B: tuple, d: int) -> tuple:
    """The matrix B / d, exact."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in B)


def _spectrum(p: list[int], d: int) -> list[tuple[complex, int]]:
    """The eigenvalues of A with multiplicities, from the characteristic
    polynomial p of dA, sorted by modulus: an order negation keeps up to
    ties, so Putzer's recursion for -A rounds as e^{tA} at -t does.  The
    factor x^m of p is the eigenvalue 0 of multiplicity m, and Yun's split
    runs on the rest."""
    from . import qpoly  # here, not at the top: `import liequad` compiles no field

    m = next(i for i, c in enumerate(p) if c)
    out = [(0j, m)] if m else []
    for f, mult in qpoly.square_free({(e,): c for e, c in enumerate(p[m:]) if c}, 0):
        factors, zs = qpoly.low_factors(f)
        out += [(z, mult) for g in factors for z in _low_roots(g, d)] + [(z / d, mult) for z in zs]
    return sorted(out, key=lambda c: (abs(c[0]), c[0].real, c[0].imag))


def _putzer(Af: tuple, lams: list[complex], chart: VarSet) -> list[list[ExpPoly]]:
    """The entries of e^{tA} by Putzer's recursion over the eigenvalues lams,
    each listed as often as its multiplicity."""
    n = len(Af)
    An = np.array([[float(x) for x in row] for row in Af])
    # Putzer matrices P_0 = I, P_j = prod_{k<=j} (A - lam_k I), coefficients r_j
    P = [np.eye(n, dtype=complex)]
    rs: list[QuasiPoly] = [{(0, lams[0]): 1.0 + 0j}]
    for j in range(1, n):
        P.append(P[-1] @ (An.astype(complex) - lams[j - 1] * np.eye(n)))
        rs.append(_ode_step(rs[-1], lams[j]))
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

    def entry(quasi: dict) -> ExpPoly:
        """Re sum c t^k e^{mu t}: Re[c t^k e^{(alpha + i beta) t}] is a cos
        and a sin term."""
        terms = {}
        for (k, mu), c in quasi.items():
            if mu.imag == 0.0:
                parts = [(((k,), (mu.real,), (0.0,), KIND_ONE), c.real)]
            else:
                parts = [(((k,), (mu.real,), (mu.imag,), KIND_COS), c.real),
                         (((k,), (mu.real,), (mu.imag,), KIND_SIN), -c.imag)]
            for key, v in parts:
                terms[key] = terms.get(key, 0.0) + v
        return ExpPoly(chart, terms)

    # one polynomial per distinct quasi-polynomial, the zero one included
    keys = [[tuple(quasi.items()) for quasi in row] for row in acc]
    distinct = {key: entry(dict(key)) for key in dict.fromkeys(key for row in keys for key in row)}
    return [[distinct[key] for key in row] for row in keys]


def identity_residual(P) -> float:
    """Max coefficient of P - I, for a square matrix P of scalars."""
    n = len(P)
    return max(((P[a][b] - float(a == b)).max_abs_coeff() for a in range(n) for b in range(n)), default=0.0)
