"""Structure-constant linear algebra over exact rationals.

Everything in this module is exact Fraction arithmetic: antisymmetry and
Jacobi validation, derived series, solvability, codimension-one ideal
chains adapted to the derived series, grown as one incremental echelon
(`remainder`), and basis changes as brackets of the new basis vectors.
The constants are read sparsely (`pairs`, `targets`); a chain builds each
e^{t ad} once (`ad_exp`).  `lin_comb`, the products `mat_mul` and `mat_vec`
(a scalar matrix times scalars or forms), and the Gauss-Jordan elimination
behind `rref` and `mat_inverse` also serve the form and group layers;
`mat_vec` adds each row's terms by their class's `sum`.  There is one
matrix product, `_sparse_product`, on rows that keep only their nonzero
entries: `mat_mul` wraps it for dense matrices, and `factor_product`, the
identity times many factors (`liegroup`'s frame and Ad(x)), reads each
factor's own sparse rows (a `SparseMatrix`: an entry that is exactly one
costs no product) and keeps its running product in sparse rows from one
factor to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """Zero test for a number (== 0) or a scalar, form or field (.is_zero());
    a Fraction is matched by type, which skips isinstance's ABC check."""
    if isinstance(c, (int, float)) or type(c) is Fraction:
        return c == 0
    return c.is_zero()


class SparseMatrix(list):
    """A matrix of scalars from the nonzero entries (j, x) of its rows, in
    column order: the list of its dense rows (`zero` elsewhere), which
    keeps those sparse rows as `rows`, x None where it is exactly one, so
    that `_sparse_product` takes the other operand itself there."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[tuple]], width: int, zero):
        super().__init__(_dense_rows(rows, width, zero))
        self.rows = [[(j, None if x.is_one() else x) for j, x in row] for row in rows]


def lin_comb(coeffs: Sequence, items: Sequence):
    """sum_j items[j] * coeffs[j], skipping zero coefficients and items.

    Items are forms, fields or scalars; coefficients are numbers or
    scalars.  The item stays the left operand, because the term order of
    an ExpPoly product depends on it.  With every coefficient zero the
    result is items[0] * 0.  One coefficient per item.
    """
    return mat_vec([coeffs], items)[0]


def mat_vec(M: Sequence[Sequence], items: Sequence) -> list:
    """[lin_comb(row, items) for row in M], testing each item for zero once:
    each sum runs over the nonzero terms in item order, by the terms'
    class `sum`, bit for bit their left fold of `+`."""
    live = [(j, item) for j, item in enumerate(items) if not _is_zero(item)]
    sums = ([item * row[j] for j, item in live if not _is_zero(row[j])] for row in M)
    return [type(terms[0]).sum(terms) if terms else items[0] * 0 for terms in sums]


def mat_mul(M: Sequence[Sequence], E: Sequence[Sequence]) -> list[list]:
    """M E for matrices of numbers or scalars, by `_sparse_product`; an entry
    with no nonzero term is one shared zero, E[0][0] * 0.  An empty matrix
    gives []."""
    if not M or not E:
        return []
    return _dense_rows(_sparse_product(_sparse_rows(M), _sparse_rows(E)), len(E[0]), E[0][0] * 0)


def factor_product(n: int, factors: Iterable[SparseMatrix | None], one, zero) -> list[list]:
    """The n x n identity (`one` on the diagonal, `zero` elsewhere)
    right-multiplied by each factor in turn, skipping a None; a k x k factor
    acts on the leading k columns.  The running product stays in sparse
    rows from one factor to the next, and each factor's are its own
    (`SparseMatrix.rows`)."""
    rows = [[(i, one)] for i in range(n)]
    for E in factors:
        if E is not None:
            k = len(E)
            head = _sparse_product([[(j, x) for j, x in row if j < k] for row in rows], E.rows)
            rows = [new + [(j, x) for j, x in row if j >= k] for new, row in zip(head, rows)]
    return _dense_rows(rows, n, zero)


def _sparse_rows(M: Sequence[Sequence]) -> list[list[tuple]]:
    """Each row of M as its nonzero entries (j, M[i][j]), in column order."""
    return [[(j, x) for j, x in enumerate(row) if not _is_zero(x)] for row in M]


def _dense_rows(rows: Sequence[Sequence[tuple]], width: int, zero) -> list[list]:
    """The matrix of sparse rows, `zero` where a row has no entry."""
    out = []
    for row in rows:
        dense = [zero] * width
        for j, x in row:
            dense[j] = x
        out.append(dense)
    return out


def _sparse_product(rows: Sequence[Sequence[tuple]], E: Sequence[Sequence[tuple]]) -> list[list[tuple]]:
    """The sparse rows of M E from those of M and E (`_sparse_rows`): the one
    matrix product.  Each row of M scatters its entries over the rows of E
    (Gustavson 1978), so entry (i, k) sums M[i][j] * E[j][k] over the j
    where both are nonzero, in ascending j with the M entry as the left
    operand, as `lin_comb` does; a sum that is zero is left out.  An E
    entry None is exactly one (`SparseMatrix`): the product is x itself,
    as a product by the one-term constant 1.0 returns its operand."""
    out = []
    for row in rows:
        acc: dict = {}
        get = acc.get
        for j, x in row:
            for k, e in E[j]:
                p = x if e is None else x * e
                y = get(k)
                acc[k] = p if y is None else y + p
        out.append(sorted((k, y) for k, y in acc.items() if not _is_zero(y)))
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

    @cached_property
    def pairs(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        """pairs[(j, k)] lists the nonzero (i, C^i_jk) in increasing i."""
        out: dict = {}
        for i, plane in enumerate(self.C):
            for j, row in enumerate(plane):
                for k, c in enumerate(row):
                    if c:
                        out.setdefault((j, k), []).append((i, c))
        return out

    @cached_property
    def targets(self) -> list[list[tuple[int, int, Fraction]]]:
        """targets[i] lists (j, k, C^i_jk) for the nonzero constants with
        j < k, in (j, k) order."""
        return [[(j, k, c) for j, row in enumerate(plane) for k, c in enumerate(row[j + 1:], j + 1) if c]
                for plane in self.C]

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        pairs = self.pairs
        out = [Fraction(0)] * self.dim
        vs = [(k, y) for k, y in enumerate(v) if y]
        for j, x in enumerate(u):
            if not x:
                continue
            for k, y in vs:
                comps = pairs.get((j, k))
                if comps:
                    w = x * y
                    for i, c in comps:
                        out[i] += c * w
        return out

    def ad_matrix(self, j: int) -> Matrix:
        """Full n x n matrix of ad(e_j): entry [i][k] = C^i_{jk} (0-based j)."""
        n = self.dim
        return [[self.C[i][j][k] for k in range(n)] for i in range(n)]

    def restricted(self, m: int) -> "StructureConstants":
        """Constants of the subalgebra of the first m basis vectors (self at m = dim)."""
        if m == self.dim:
            return self
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
    # the sum over m and the rotations (a, b, l) of j < k < l of
    # C^m_ab C^i_ml, over the nonzero constants only: (a, b, l) is a
    # rotation of a sorted triple when l lies outside [a, b] for a < b, and
    # between b and a for a > b
    pairs = sc.pairs
    totals: dict = {}
    for (a, b), comps in pairs.items():
        thirds = [l for l in range(n) if l < a or l > b] if a < b else range(b + 1, a)
        for m, c in comps:
            for l in thirds:
                for i, d in pairs.get((m, l), ()):
                    key = (*sorted((a, b, l)), i)
                    totals[key] = totals.get(key, 0) + c * d
    jac = [(j + 1, k + 1, l + 1, i + 1, total) for (j, k, l, i), total in sorted(totals.items()) if total != 0]
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
    current = [tuple(row) for row in mat_identity(sc.dim)]
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

def change_basis(sc: StructureConstants, P: Matrix) -> StructureConstants:
    """Constants in the new basis e given constants in the old basis f,
    where f_j = P^i_j e_i: e_i is column i of P^-1 in the old basis."""
    return _constants_in_basis(sc, list(zip(*mat_inverse(P))), P)


def _constants_in_basis(sc: StructureConstants, basis: Sequence[Vector], P: Matrix) -> StructureConstants:
    """Constants in the basis of the old-basis vectors `basis`, whose matrix
    of columns is P^-1: C~[.][i][j] = P [basis_i, basis_j], over P's nonzero
    entries.  Only i < j is bracketed, since sc is antisymmetric:
    from_brackets writes both entries, and restricted and this keep it."""
    n = sc.dim
    columns = [[(k, p) for k, p in enumerate(col) if p] for col in zip(*P)]
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            acc: dict[int, Fraction] = {}
            for m, x in enumerate(sc.bracket(basis[i], basis[j])):
                for k, p in columns[m] if x else ():
                    acc[k] = acc.get(k, 0) + p * x
            for k, c in acc.items():
                out[k][i][j], out[k][j][i] = c, -c
    return StructureConstants(n, tuple(tuple(tuple(r) for r in pl) for pl in out))


def transform_forms(P: Matrix, omegas: Sequence) -> list:
    """omega^i = P^i_j omega~^j for any objects supporting + and number *."""
    return mat_vec(P, omegas)


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

    def ad_exp(self, s: int):
        """e^{t ad_s} over the variable _t (`matexp.sym_exp`), None when
        ad_s = 0; each matrix and its exponential are built once per chain."""
        return self._exp(s, lambda: self.ad_matrix(s))

    def full_ad_exp(self, j: int):
        """e^{t ad(e_j)} over the full adjoint matrix (0-based j), as `ad_exp`."""
        return self._exp(self.n + j, lambda: self.base.ad_matrix(j))

    @cached_property
    def _exps(self) -> dict:
        return {}  # s for ad_s, n + j for ad(e_j)

    def _exp(self, key: int, matrix):
        if key not in self._exps:
            from .matexp import sym_exp  # the exact layer imports no scalar class at load
            A = matrix()
            self._exps[key] = sym_exp(A, "_t") if any(map(any, A)) else None
        return self._exps[key]

    def verify_ideals(self):
        """Raise if some k_s is not an ideal in k_{s-1}."""
        # C^i_uv != 0 with u <= i, v < i breaks each k_s with max(u, v+1) <= n-s
        # <= i: a loop over s, u, v, i meets the largest i, then least (u, v)
        bad = [(u, v, i, c) for (u, v), comps in self.base.pairs.items() for i, c in comps if u <= i and v < i]
        if bad:
            u, v, i, c = min(bad, key=lambda b: (-b[2], b[0], b[1]))
            raise NotSolvable(f"k_{self.n - i} is not an ideal in k_{self.n - i - 1}: "
                              f"[e_{u+1}, e_{v+1}] has e_{i+1} component {c}")


def adapted_chain(sc: StructureConstants) -> tuple[Matrix, AdaptedChain]:
    """Basis adapted to the derived series, refined to a full flag, and its
    change matrix P: f_j = P^i_j e_i expresses the old basis vectors in the
    adapted basis e, and forms transform as omega^i = P^i_j omega~^j.

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
    chain = AdaptedChain(_constants_in_basis(sc, flag, P))
    chain.verify_ideals()
    return P, chain


def chain_from_adapted(sc: StructureConstants) -> AdaptedChain:
    """Chain for constants already given in an adapted basis."""
    chain = AdaptedChain(sc)
    chain.verify_ideals()
    return chain
