"""Constructive group synthesis on R^n for a solvable chain.

From the restricted adjoint matrices of a chain-adapted basis this module
builds the left-invariant coframe and frame, the adjoint representation as
a product of exponentials, and the global multiplication map.  The coframe
is the un-reduction of the coordinates (`reduction.unreduce` of x^1..x^n):
the forms whose reduction yields the coordinates, so rho = id.  The frame
applies the transposes of the forward factors e^{x ad_s} to the coordinate
vector fields.  For the multiplication map the product-group forms are
reduced to exact differentials whose functions, normalized at the origin,
are the components of the group law.  A second, independent derivation of
the multiplication map (through forms that pull back along
(x, y) -> y * x^{-1}) serves as a cross-check oracle; its map at y = 0 is
the inverse x^{-1}, again in closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResidualNonzero
from .exppoly import ExpPoly, ZERO_TOL
from .forms import DiffForm, PointMap, VectorField, lie_bracket, pairing, pullback_check, structure_residual
from .liealg import AdaptedChain, lin_comb
from .matexp import matrix_batch
from .reduction import _factor_matrix, reduce_full, rho_map, unreduce
from .report import Report
from .varset import VarSet, coordinate_chart, doubled_chart


@dataclass
class SolvGroup:
    chain: AdaptedChain
    chart: VarSet
    tau: list[DiffForm]
    frame: list[VectorField]

    @property
    def n(self) -> int:
        return self.chain.n


@dataclass
class GroupLaw:
    group: SolvGroup
    mu: PointMap
    ad: list  # Ad(x) as an ExpPoly matrix over the group chart
    omega: list  # the product-group forms mu pulls the coframe back to

    def multiply_batch(self, a, b) -> np.ndarray:
        """Row r is a_r * b_r, for N x n arrays of group points."""
        n = self.group.n
        a = np.asarray(a, dtype=float).reshape(-1, n)
        b = np.asarray(b, dtype=float).reshape(-1, n)
        # the doubled chart is (x1..xn, y1..yn)
        return self.mu.evaluate_batch(np.hstack([a, b]))

    def multiply(self, a: Sequence[float], b: Sequence[float]) -> np.ndarray:
        return self.multiply_batch([a], [b])[0]


# ----------------------------------------------------------------------
# coframe / frame

def _coordinates(chart: VarSet) -> list[ExpPoly]:
    return [ExpPoly.coordinate(chart, nm) for nm in chart.names]


def coframe(chain: AdaptedChain) -> list[DiffForm]:
    """Left-invariant coframe over the coordinate chart: the un-reduction
    of the coordinates, the forms whose reduction yields x^1..x^n."""
    return unreduce(chain, _coordinates(coordinate_chart(chain.n)))


def frame(chain: AdaptedChain) -> list[VectorField]:
    """Dual frame over the coordinate chart: the transposed forward factors
    e^{x^{n-s} [ad_s]}, from the deepest level up, applied to the
    coordinate vector fields."""
    n = chain.n
    chart = coordinate_chart(n)
    x = _coordinates(chart)
    fields = [VectorField.coordinate(chart, nm, ExpPoly) for nm in chart.names]
    for s in range(n - 1, -1, -1):
        m = n - s
        E = _factor_matrix(chain.ad_matrix(s), x[m - 1])
        if E is not None:
            fields = [lin_comb(col, fields[:m]) for col in zip(*E)] + fields[m:]
    return fields


def build_group(chain: AdaptedChain) -> SolvGroup:
    return SolvGroup(chain, coordinate_chart(chain.n), coframe(chain), frame(chain))


# ----------------------------------------------------------------------
# adjoint representation

def _scalar_identity(chart: VarSet, n: int):
    return [
        [ExpPoly.one(chart) if i == j else ExpPoly.zero(chart) for j in range(n)]
        for i in range(n)
    ]


def _times_factor(M, E):
    """M E for scalar matrices, reading only the nonzero entries of each
    column of E, in row order; an exponential E has no zero column."""
    columns = [[(j, e) for j, e in enumerate(col) if not e.is_zero()] for col in zip(*E)]
    return [
        [lin_comb([e for _, e in col], [row[j] for j, _ in col]) for col in columns]
        for row in M
    ]


def ad_rep(chain: AdaptedChain, inverse: bool = False):
    """Ad(x) = e^{x^1 [ad e_1]} ... e^{x^n [ad e_n]} over the full adjoint
    matrices and the group chart; with inverse,
    Ad(x)^{-1} = e^{-x^n [ad e_n]} ... e^{-x^1 [ad e_1]}."""
    n = chain.n
    chart = coordinate_chart(n)
    x = _coordinates(chart)
    M = _scalar_identity(chart, n)
    for j in (range(n - 1, -1, -1) if inverse else range(n)):
        A = chain.base.ad_matrix(j)
        if inverse:
            A = [[-v for v in row] for row in A]
        E = _factor_matrix(A, x[j])
        if E is not None:
            M = _times_factor(M, E)
    return M


# ----------------------------------------------------------------------
# multiplication map

def _copy_bindings(src: VarSet, double: VarSet, offset: int) -> dict[str, ExpPoly]:
    """Bind x_i of the group chart to the first (offset 0) or second
    (offset n) copy in the doubled chart: a renaming."""
    return {
        nm: ExpPoly.coordinate(double, double.names[offset + i])
        for i, nm in enumerate(src.names)
    }


def _pi_pullback(tau: Sequence[DiffForm], double: VarSet, offset: int) -> list[DiffForm]:
    """Projection pullbacks: reinterpret the coframe over the doubled chart
    on the copy at offset."""
    bind = _copy_bindings(tau[0].chart, double, offset)
    out = []
    for t in tau:
        coeffs = {}
        for (k,), c in t.coeffs.items():
            coeffs[(offset + k,)] = c.substitute(bind)
        out.append(DiffForm(double, 1, coeffs, ExpPoly))
    return out


def product_group_forms(chain: AdaptedChain):
    """The group and the forms Ad(y^{-1}) pi_1^* tau + pi_2^* tau on G x G
    whose reduction yields the multiplication map."""
    group = build_group(chain)
    n = chain.n
    D = doubled_chart(n)
    pi1 = _pi_pullback(group.tau, D, 0)
    pi2 = _pi_pullback(group.tau, D, n)
    bind = _copy_bindings(group.chart, D, n)
    ad_y_inv = [[e.substitute(bind) for e in row] for row in ad_rep(chain, inverse=True)]
    omegas = [pi2[i] + lin_comb(ad_y_inv[i], pi1) for i in range(n)]
    return group, D, omegas


def multiplication(chain: AdaptedChain, tol: float = ZERO_TOL) -> GroupLaw:
    """Group law with identity at the origin, by n quadratures on G x G."""
    group, D, omegas = product_group_forms(chain)
    trace = reduce_full(omegas, chain, basepoint=None, tol=tol)
    mu = PointMap(D, group.chart, trace.functions)
    return GroupLaw(group, mu, ad_rep(chain), omegas)


def _rel_error(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per sample (first axis): max |got - want| / max(1, max |want|)."""
    axes = tuple(range(1, want.ndim))
    return np.abs(got - want).max(axis=axes) / np.maximum(1.0, np.abs(want).max(axis=axes))


def _worst(errors) -> float:
    """The largest of the errors, 0 when there are none."""
    return float(np.max(errors, initial=0.0))


# ----------------------------------------------------------------------
# verification

def group_invariants_report(
    group: SolvGroup,
    samples: int = 50,
    seed: int = 0,
    tol_symbolic: float = ZERO_TOL,
) -> Report:
    """Structure equations of the coframe (symbolic), bracket relations of
    the frame (numeric), duality pairing (symbolic) and pointwise
    independence (numeric)."""
    report = Report()
    sc = group.chain.base
    n = group.n
    res = structure_residual(group.tau, sc)
    worst = max((r.max_abs_coeff() for r in res), default=0.0)
    report.add("d tau^i + 1/2 C^i_jk tau^j ^ tau^k = 0", worst <= tol_symbolic, "symbolic", worst)

    worst_pair = 0.0
    for i in range(n):
        for j in range(n):
            p = pairing(group.tau[i], group.frame[j])
            target = 1.0 if i == j else 0.0
            worst_pair = max(worst_pair, (p - ExpPoly.constant(group.chart, target)).max_abs_coeff())
    report.add("<tau^i, X_j> = delta^i_j", worst_pair <= tol_symbolic, "symbolic", worst_pair)

    rng = random.Random(seed)
    points = np.array(
        [[rng.uniform(-1.5, 1.5) for _ in group.chart.names] for _ in range(samples)]
    ).reshape(samples, n)
    worst_br = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            rhs = lin_comb([sc.C[k][i][j] for k in range(n)], group.frame)
            diff = lie_bracket(group.frame[i], group.frame[j]) - rhs
            worst_br = max(worst_br, _worst(np.abs(diff.at_batch(points))))
    report.add("[X_i, X_j] = C^k_ij X_k", worst_br <= 1e-9, "numeric", worst_br)

    tau = [[t.coefficient((k,)) for k in range(n)] for t in group.tau]
    dets = np.abs(np.linalg.det(matrix_batch(tau, points)))
    worst_det = float(np.min(dets, initial=1.0))
    report.add("coframe pointwise independent", worst_det > 1e-12, "numeric", worst_det)
    return report


def verify_group(
    law: GroupLaw,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    mode: str = "auto",
) -> Report:
    """Group axioms and compatibility checks at seeded random points."""
    group = law.group
    n = group.n
    rng = random.Random(seed)
    report = Report()

    # a, b, c of each sample, drawn in that order
    draws = np.array(
        [[rng.uniform(-1.2, 1.2) for _ in range(3 * n)] for _ in range(samples)]
    ).reshape(samples, 3, n)
    a, b, c = draws[:, 0], draws[:, 1], draws[:, 2]
    mul = law.multiply_batch
    ab = mul(a, b)
    lhs = mul(a, mul(b, c))
    rhs = mul(ab, c)
    worst_assoc = _worst(_rel_error(lhs, rhs))

    zero = np.zeros_like(a)
    worst_ident = _worst(np.abs(np.hstack([mul(zero, a) - a, mul(a, zero) - a])))

    Ad_z = matrix_batch(law.ad, ab)
    worst_ad = _worst(_rel_error(matrix_batch(law.ad, a) @ matrix_batch(law.ad, b), Ad_z))

    # left invariance: dL_a|_b X_i(b) = X_i(a*b); the frame fields are the
    # columns of the frame matrix
    J = law.mu.jacobian_batch(np.hstack([a, b]))[:, :, n:]
    frame_matrix = list(zip(*(X.components for X in group.frame)))
    Mab = matrix_batch(frame_matrix, ab)
    worst_left = _worst(_rel_error(J @ matrix_batch(frame_matrix, b), Mab))

    report.add("associativity mu(a, mu(b,c)) = mu(mu(a,b), c)", worst_assoc <= tol, "numeric", worst_assoc)
    report.add("identity mu(0,a) = a = mu(a,0)", worst_ident <= tol, "numeric", worst_ident)
    report.add("Ad(mu(a,b)) = Ad(a) Ad(b)", worst_ad <= tol, "numeric", worst_ad)
    report.add("left invariance dL_a X_i = X_i o L_a", worst_left <= tol, "numeric", worst_left)

    # pullback mu^* tau = omega, symbolic when the composition stays in class
    names = law.mu.source.names
    errors, used, detail = pullback_check(
        law.mu, group.tau, law.omega, mode, samples, rng,
        lambda r: {nm: r.uniform(-1.2, 1.2) for nm in names},
    )
    if errors is None:
        report.add("mu^* tau^i = omega^i", False, "symbolic", None, detail)
    else:
        worst_pb = max(errors)
        report.add("mu^* tau^i = omega^i", worst_pb <= tol, used, worst_pb)
    return report


def preadjoint_forms(chain: AdaptedChain, group: SolvGroup | None = None, ad=None):
    """theta~ = e^{x^1 ad(e_1)} ... e^{x^n ad(e_n)} (pi_2^* tau - pi_1^* tau)
    on the doubled chart; reducing these yields (x, y) -> mu(y, x^{-1}).

    ad is Ad(x) over the group chart (a law's `ad`), built by `ad_rep`
    when not given; it is renamed onto the first copy of the chart.
    """
    group = group or build_group(chain)
    n = group.n
    D = doubled_chart(n)
    pi1 = _pi_pullback(group.tau, D, 0)
    pi2 = _pi_pullback(group.tau, D, n)
    if ad is None:
        ad = ad_rep(chain)
    bind = _copy_bindings(group.chart, D, 0)
    M = [[e.substitute(bind) for e in row] for row in ad]
    theta = [pi2[i] - pi1[i] for i in range(n)]
    return D, [lin_comb(row, theta) for row in M]


def preadjoint_oracle(
    chain: AdaptedChain,
    law: GroupLaw | None = None,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> Report:
    """Independent derivation of the multiplication map.

    Builds theta~ = e^{x^1 ad(e_1)} ... e^{x^n ad(e_n)} (pi_2^* tau - pi_1^* tau),
    reduces it to a map rho, reporting the structure residual the
    reduction measured at level 0, and verifies rho(x, y) = mu(y, x^{-1})
    at seeded sample points.  The inverse is rho's own x^{-1} = rho(x, 0),
    so the same line also measures mu(x, x^{-1}) = 0.
    """
    law = law or multiplication(chain)
    n = law.group.n
    _, theta_t = preadjoint_forms(chain, law.group, law.ad)

    report = Report()
    name = "d theta~^i + 1/2 C^i_jk theta~^j ^ theta~^k = 0"
    try:
        trace = reduce_full(theta_t, chain, basepoint=None)
    except ResidualNonzero as exc:
        if exc.level != 0:
            raise
        report.add(name, False, "symbolic", exc.residual)
        return report
    report.add(name, True, "symbolic", trace.residuals[0])

    rho = rho_map(trace, law.group.chart)
    rng = random.Random(seed)
    # x, y of each sample, drawn in that order
    draws = np.array(
        [[rng.uniform(-1.0, 1.0) for _ in range(2 * n)] for _ in range(samples)]
    ).reshape(samples, 2 * n)
    x = draws[:, :n]
    x_inv = rho.evaluate_batch(np.hstack([x, np.zeros_like(x)]))
    mu_val = law.multiply_batch(draws[:, n:], x_inv)
    worst = _worst(np.concatenate([
        _rel_error(rho.evaluate_batch(draws), mu_val),
        np.abs(law.multiply_batch(x, x_inv)).max(axis=1),
    ]))
    report.add("rho(x,y) = mu(y, x^{-1})", worst <= tol, "numeric", worst)
    return report
