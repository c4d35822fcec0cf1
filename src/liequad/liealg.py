"""Structure-constant linear algebra over exact rationals.

Everything in this module is exact Fraction arithmetic: antisymmetry and
Jacobi validation, derived series, solvability, codimension-one ideal
chains adapted to the derived series, grown as one incremental echelon
(`remainder`), and basis changes as brackets of the new basis vectors.
`lin_comb`, the one product of scalar matrices `mat_mul`, and the
Gauss-Jordan elimination behind `rref` and `mat_inverse` also serve the
form and group layers, whose entries are scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotSolvable, SingularMatrix

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


# ----------------------------------------------------------------------
# small exact linear algebra

def mat_identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _is_zero(c) -> bool:
    """Zero test for a number (== 0) or a scalar, form or field (.is_zero())."""
    if isinstance(c, (Fraction, int, float)):
        return c == 0
    return c.is_zero()


def lin_comb(coeffs: Sequence, items: Sequence):
    """sum_j items[j] * coeffs[j], skipping zero coefficients and items.

    Items are forms, fields or scalars; coefficients are numbers or
    scalars.  The item stays the left operand, because the term order of
    an ExpPoly product depends on it.  With every coefficient zero the
    result is items[0] * 0.
    """
    acc = None
    for c, item in zip(coeffs, items):
        if _is_zero(c) or _is_zero(item):
            continue
        piece = item * c
        acc = piece if acc is None else acc + piece
    return items[0] * 0 if acc is None else acc


def mat_mul(M: Sequence[Sequence], E: Sequence[Sequence]) -> list[list]:
    """M E for matrices of numbers or scalars.  Each entry sums
    M[i][j] * E[j][k] over the j where both are nonzero, in row order with
    the M entry as the left operand, as `lin_comb` does; an entry with no
    such j is one shared zero, E[0][0] * 0.  An empty matrix gives []."""
    if not M or not E:
        return []
    columns = [[(j, e) for j, e in enumerate(col) if not _is_zero(e)] for col in zip(*E)]
    zero = E[0][0] * 0
    out = []
    for row in M:
        nonzero = {j: x for j, x in enumerate(row) if not _is_zero(x)}
        new_row = []
        for col in columns:
            acc = None
            for j, e in col:
                x = nonzero.get(j)
                if x is not None:
                    acc = x * e if acc is None else acc + x * e
            new_row.append(zero if acc is None else acc)
        out.append(new_row)
    return out


def mat_inverse(A: Matrix) -> Matrix:
    """Exact inverse as the reduced row echelon form of [A | I]; entries
    are Fractions or exact scalars (rational functions)."""
    n = len(A)
    if n == 0:
        return []
    zero = A[0][0] * 0
    one = zero + 1
    rows = rref([list(A[i]) + [one if i == j else zero for j in range(n)] for i in range(n)])
    # a pivot right of the diagonal leaves a zero on it: A is singular
    if any(_is_zero(rows[i][i]) for i in range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [list(row[n:]) for row in rows]


def rref(rows: Iterable[Sequence]) -> list[tuple]:
    """Reduced row echelon form over exact entries (Fractions or exact
    scalars); returns the nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    lead = 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(rows)) if not _is_zero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [x / pv for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and not _is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return [tuple(r) for r in rows[:lead]]


def remainder(echelon: Sequence[Vector], vec: Sequence[Fraction]) -> list[Fraction]:
    """vec reduced by echelon rows, each with leading entry 1 and zero at the
    leading entries of the rows before it; zero iff vec is in their span."""
    v = list(map(Fraction, vec))
    for row in echelon:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is not None and v[piv] != 0:
            f = v[piv]
            v = [x - f * y for x, y in zip(v, row)]
    return v


# ----------------------------------------------------------------------
# structure constants

@dataclass(frozen=True)
class StructureConstants:
    """C[i][j][k] = coefficient of e_i in [e_j, e_k]."""

    dim: int
    C: tuple[tuple[Vector, ...], ...]

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict[tuple[int, int], dict[int, object]]):
        """brackets[(j, k)][i] = C^i_{jk}, 1-based indices, j != k.  Each
        pair is given in one order only; (j, k) with (k, j) is an error."""
        C = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for (j, k), comps in brackets.items():
            if not (1 <= j <= dim and 1 <= k <= dim and j != k):
                raise ValueError(f"bad bracket indices ({j},{k})")
            if (k, j) in brackets:
                raise ValueError(f"bracket [e_{j}, e_{k}] is given twice, as ({j},{k}) and ({k},{j})")
            for i, c in comps.items():
                if not 1 <= i <= dim:
                    raise ValueError(f"bad bracket target index {i} in [e_{j}, e_{k}]")
                c = _frac(c)
                C[i - 1][j - 1][k - 1] += c
                C[i - 1][k - 1][j - 1] -= c
        return cls(dim, tuple(tuple(tuple(row) for row in plane) for plane in C))

    @classmethod
    def abelian(cls, dim: int):
        return cls.from_brackets(dim, {})

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        n = self.dim
        C = self.C
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

    def ad_matrix(self, j: int) -> Matrix:
        """Full n x n matrix of ad(e_j): entry [i][k] = C^i_{jk} (0-based j)."""
        n = self.dim
        return [[self.C[i][j][k] for k in range(n)] for i in range(n)]

    def restricted(self, m: int) -> "StructureConstants":
        """Constants of the subalgebra spanned by the first m basis vectors."""
        C = tuple(
            tuple(tuple(self.C[i][j][k] for k in range(m)) for j in range(m))
            for i in range(m)
        )
        return StructureConstants(m, C)


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_violations: tuple = ()
    jacobi_violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations


def validate(sc: StructureConstants) -> ValidationReport:
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


# ----------------------------------------------------------------------
# derived series and solvability

def _subspace_brackets(sc: StructureConstants, basis: Sequence[Vector]) -> list[Vector]:
    out = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            out.append(tuple(sc.bracket(basis[a], basis[b])))
    return out


def derived_series(sc: StructureConstants) -> list[list[Vector]]:
    """g >= [g,g] >= ... as reduced row-echelon bases; the terminal (stable)
    term is included."""
    n = sc.dim
    current = rref(mat_identity(n))
    series = [current]
    while True:
        nxt = rref(_subspace_brackets(sc, current))
        if len(nxt) == len(current):
            break
        series.append(nxt)
        current = nxt
        if not nxt:
            break
    return series


def is_solvable(sc: StructureConstants) -> bool:
    return not derived_series(sc)[-1]


# ----------------------------------------------------------------------
# basis change

@dataclass(frozen=True)
class BasisChange:
    """Change matrix P with f_j = P^i_j e_i: old-basis vectors expressed in
    the new basis.  Forms transform as omega^i = P^i_j omega~^j."""

    P: tuple[Vector, ...]

    @property
    def n(self):
        return len(self.P)

    def matrix(self) -> Matrix:
        return [list(row) for row in self.P]

    def inverse_matrix(self) -> Matrix:
        return mat_inverse(self.matrix())

    @classmethod
    def identity(cls, n: int):
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))


def change_basis(sc: StructureConstants, change: BasisChange) -> StructureConstants:
    """Constants in the new basis e given constants in the old basis f,
    where f_j = P^i_j e_i: e_i is column i of P^-1 in the old basis."""
    P = change.matrix()
    return _constants_in_basis(sc, list(zip(*mat_inverse(P))), P)


def _constants_in_basis(sc: StructureConstants, basis: Sequence[Vector], P: Matrix) -> StructureConstants:
    """Constants in the basis of the old-basis vectors `basis`, whose matrix
    of columns is P^-1: C~[.][i][j] = P [basis_i, basis_j].  Only i < j is
    bracketed, since sc is antisymmetric: from_brackets writes both entries,
    and restricted and this function keep the property."""
    n = sc.dim
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = [(m, x) for m, x in enumerate(sc.bracket(basis[i], basis[j])) if x]
            for k, row in enumerate(P):
                c = sum((row[m] * x for m, x in w), Fraction(0))
                out[k][i][j], out[k][j][i] = c, -c
    return StructureConstants(n, tuple(tuple(tuple(r) for r in pl) for pl in out))


def transform_forms(change: BasisChange, omegas: Sequence) -> list:
    """omega^i = P^i_j omega~^j for any objects supporting + and number *."""
    return [lin_comb(row, omegas) for row in change.matrix()]


# ----------------------------------------------------------------------
# adapted chains

@dataclass(frozen=True)
class AdaptedChain:
    """Structure constants in a basis adapted to a full chain of
    codimension-one ideals k_s = span{e_1..e_{n-s}}."""

    base: StructureConstants

    @property
    def n(self):
        return self.base.dim

    def ad_matrix(self, s: int) -> Matrix:
        """(n-s) x (n-s) matrix of ad(e_{n-s}) restricted to k_s: entry
        [i][k] = C^i_{n-s, k}, read from the constants."""
        m = self.n - s
        C = self.base.C
        return [[C[i][m - 1][k] for k in range(m)] for i in range(m)]

    def verify_ideals(self):
        """Raise if some k_s is not an ideal in k_{s-1}."""
        n = self.n
        C = self.base.C
        for s in range(1, n + 1):
            m = n - s  # dim k_s
            for u in range(m + 1):
                for v in range(m):
                    for i in range(m, n):
                        if C[i][u][v] != 0:
                            raise NotSolvable(
                                f"k_{s} is not an ideal in k_{s-1}: "
                                f"[e_{u+1}, e_{v+1}] has e_{i+1} component {C[i][u][v]}"
                            )


def adapted_chain(sc: StructureConstants) -> tuple[BasisChange, AdaptedChain]:
    """Basis adapted to the derived series, refined to a full flag.

    Deterministic: complements are taken in echelon order of the input
    basis.  Raises NotSolvable when the derived series does not reach zero.
    """
    series = derived_series(sc)
    if series[-1]:
        raise NotSolvable("derived series does not terminate at 0")
    n = sc.dim
    flag: list[Vector] = []
    echelon: list[Vector] = []
    for sub in reversed(series):
        for vec in sub:
            r = remainder(echelon, vec)
            lead = next((x for x in r if x != 0), None)
            if lead is not None:
                flag.append(vec)
                echelon.append(tuple(x / lead for x in r))
    if len(flag) != n:
        raise NotSolvable("flag construction failed to reach full dimension")
    # the columns are the adapted vectors in input coordinates
    P = mat_inverse(list(zip(*flag)))
    change = BasisChange(tuple(tuple(row) for row in P))
    chain = AdaptedChain(_constants_in_basis(sc, flag, P))
    chain.verify_ideals()
    return change, chain


def chain_from_adapted(sc: StructureConstants) -> AdaptedChain:
    """Chain for constants already given in an adapted basis."""
    chain = AdaptedChain(sc)
    chain.verify_ideals()
    return chain
