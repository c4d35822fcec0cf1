"""Constructive group synthesis on R^n for a solvable chain.

From the restricted adjoint matrices of a chain-adapted basis this module
builds the left-invariant coframe and frame, the adjoint representation as
a product of exponentials, and the global multiplication map.  The coframe
is the un-reduction of the coordinates (`reduction.unreduce` of x^1..x^n):
the forms whose reduction yields the coordinates, so rho = id.  The frame
fields are the columns of the product of the forward factors e^{x ad_s},
and Ad(x) is the product of the factors e^{x^j ad e_j}; each product keeps
its running value in sparse rows (`liealg.factor_product`).  For the
multiplication map the product-group forms are reduced to exact
differentials whose functions, normalized at the origin, are the
components of the group law.  A second, independent derivation of the
multiplication map (through forms that pull back along
(x, y) -> y * x^{-1}) serves as a cross-check oracle; its map at y = 0 is
the inverse x^{-1}, again in closed form.  Both derivations start from
the coframe pulled back along the projections of G x G, which a group
builds once (`SolvGroup.pullbacks`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ResidualNonzero
from .exppoly import ExpPoly
from .forms import (
    DiffForm,
    Domain,
    PointMap,
    VectorField,
    bracket_residuals,
    compose,
    pullback,
    pullback_check,
    structure_residual,
)
from .liealg import AdaptedChain, factor_product, mat_mul, mat_vec
from .matexp import identity_residual, matrix_batch
from .reduction import _factor_matrix, reduce_full, rho_map, unreduce
from .report import TOL_ZERO, Report
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

    @cached_property
    def pullbacks(self) -> tuple[PointMap, PointMap, list[DiffForm], list[DiffForm]]:
        """pi_1, pi_2: G x G -> G and the coframe pulled back along each,
        built once per group: the product-group forms and the preadjoint
        forms both read them."""
        p1, p2 = _projections(self.n)
        return p1, p2, [pullback(p1, t) for t in self.tau], [pullback(p2, t) for t in self.tau]


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
    """Dual frame over the coordinate chart: the columns of the product of
    the forward factors e^{x^{n-s} [ad_s]}, from the deepest level up, each
    acting on the leading n - s columns."""
    n = chain.n
    chart = coordinate_chart(n)
    x = _coordinates(chart)
    factors = (_factor_matrix(chain.ad_exp(s), x[n - s - 1]) for s in range(n - 1, -1, -1))
    # the frame matrix, whose columns are the fields
    F = factor_product(n, factors, ExpPoly.one(chart), ExpPoly.zero(chart))
    return [VectorField(chart, col, ExpPoly) for col in zip(*F)]


def build_group(chain: AdaptedChain) -> SolvGroup:
    return SolvGroup(chain, coordinate_chart(chain.n), coframe(chain), frame(chain))


# ----------------------------------------------------------------------
# adjoint representation

def ad_rep(chain: AdaptedChain, inverse: bool = False):
    """Ad(x) = e^{x^1 [ad e_1]} ... e^{x^n [ad e_n]} over the full adjoint
    matrices and the group chart; with inverse,
    Ad(x)^{-1} = e^{-x^n [ad e_n]} ... e^{-x^1 [ad e_1]}."""
    n = chain.n
    chart = coordinate_chart(n)
    x = _coordinates(chart)
    order = range(n - 1, -1, -1) if inverse else range(n)
    factors = (_factor_matrix(chain.full_ad_exp(j), -x[j] if inverse else x[j]) for j in order)
    return factor_product(n, factors, ExpPoly.one(chart), ExpPoly.zero(chart))


# ----------------------------------------------------------------------
# multiplication map

def _projections(n: int) -> list[PointMap]:
    """pi_1, pi_2: G x G -> G, the doubled chart onto its first and its
    second copy of the group chart."""
    D = doubled_chart(n)
    xy = _coordinates(D)
    return [PointMap(D, coordinate_chart(n), xy[offset:offset + n]) for offset in (0, n)]


def product_group_forms(chain: AdaptedChain):
    """The group and the forms Ad(y^{-1}) pi_1^* tau + pi_2^* tau on G x G
    whose reduction yields the multiplication map."""
    group = build_group(chain)
    p1, p2, pi1, pi2 = group.pullbacks
    ad_y_inv = [[compose(e, p2) for e in row] for row in ad_rep(chain, inverse=True)]
    omegas = [t + w for t, w in zip(pi2, mat_vec(ad_y_inv, pi1))]
    return group, p1.source, omegas


def multiplication(chain: AdaptedChain, tol: float = TOL_ZERO) -> GroupLaw:
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


def _box(rng: random.Random, h: float, samples: int, width: int) -> np.ndarray:
    """A samples x width array drawn from rng, uniform on [-h, h], row by
    row: `rng.uniform(-h, h)`'s formula, -h + (h - -h) * u, on one
    `rng.random()` per value."""
    u = np.array([rng.random() for _ in range(samples * width)]).reshape(samples, width)
    return -h + (h - -h) * u


# ----------------------------------------------------------------------
# verification

def group_invariants_report(
    group: SolvGroup,
    samples: int = 50,
    seed: int = 0,
    tol_zero: float = TOL_ZERO,
) -> Report:
    """Structure equations of the coframe, duality pairing and bracket
    relations of the frame (symbolic), and pointwise independence
    (numeric)."""
    report = Report()
    sc = group.chain.base
    n = group.n
    res = structure_residual(group.tau, sc)
    worst = max((r.max_abs_coeff() for r in res), default=0.0)
    report.add("d tau^i + 1/2 C^i_jk tau^j ^ tau^k = 0", worst <= tol_zero, "symbolic", worst)

    tau = [[t.coefficient((k,)) for k in range(n)] for t in group.tau]
    worst_pair = identity_residual(mat_mul(tau, list(zip(*(X.components for X in group.frame)))))
    report.add("<tau^i, X_j> = delta^i_j", worst_pair <= tol_zero, "symbolic", worst_pair)

    worst_br = max((c.max_abs_coeff() for r in bracket_residuals(group.frame, sc) for c in r.components),
                   default=0.0)
    report.add("[X_i, X_j] = C^k_ij X_k", worst_br <= tol_zero, "symbolic", worst_br)

    points = _box(random.Random(seed), 1.5, samples, n)
    dets = np.abs(np.linalg.det(matrix_batch(tau, points)))
    worst_det = min(dets.tolist(), default=None)
    report.add("coframe pointwise independent", worst_det is None or worst_det > 1e-12, "numeric", worst_det)
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
    draws = _box(rng, 1.2, samples, 3 * n).reshape(samples, 3, n)
    a, b, c = draws[:, 0], draws[:, 1], draws[:, 2]
    zero = np.zeros_like(a)
    # the independent products in one evaluation, then the two that use them
    ab, bc, za, az = np.split(law.multiply_batch(np.vstack([a, b, zero, a]), np.vstack([b, c, a, zero])), 4)
    lhs, rhs = np.split(law.multiply_batch(np.vstack([a, ab]), np.vstack([bc, c])), 2)
    worst_assoc = _worst(_rel_error(lhs, rhs))
    worst_ident = _worst(np.abs(np.hstack([za - a, az - a])))

    Ad_a, Ad_b, Ad_ab = np.split(matrix_batch(law.ad, np.vstack([a, b, ab])), 3)
    worst_ad = _worst(_rel_error(Ad_a @ Ad_b, Ad_ab))

    # left invariance: dL_a|_b X_i(b) = X_i(a*b); the frame fields are the
    # columns of the frame matrix
    J = law.mu.jacobian_batch(np.hstack([a, b]))[:, :, n:]
    frame_matrix = list(zip(*(X.components for X in group.frame)))
    M_b, M_ab = np.split(matrix_batch(frame_matrix, np.vstack([b, ab])), 2)
    worst_left = _worst(_rel_error(J @ M_b, M_ab))

    report.add("associativity mu(a, mu(b,c)) = mu(mu(a,b), c)", worst_assoc <= tol, "numeric", worst_assoc)
    report.add("identity mu(0,a) = a = mu(a,0)", worst_ident <= tol, "numeric", worst_ident)
    report.add("Ad(mu(a,b)) = Ad(a) Ad(b)", worst_ad <= tol, "numeric", worst_ad)
    report.add("left invariance dL_a X_i = X_i o L_a", worst_left <= tol, "numeric", worst_left)

    # pullback mu^* tau = omega, symbolic when the composition stays in class
    errors, used, detail = pullback_check(
        law.mu, group.tau, law.omega, mode, samples, rng, Domain(law.mu.source, half_width=1.2)
    )
    if errors is None:
        report.add("mu^* tau^i = omega^i", False, used, None, detail)
    else:
        worst_pb = max(errors)
        report.add("mu^* tau^i = omega^i", worst_pb <= tol, used, worst_pb)
    return report


def preadjoint_forms(law: GroupLaw):
    """theta~ = e^{x^1 ad(e_1)} ... e^{x^n ad(e_n)} (pi_2^* tau - pi_1^* tau)
    on the doubled chart; reducing these yields (x, y) -> mu(y, x^{-1}).

    The product of exponentials is the law's `ad`, Ad(x) over the group
    chart, composed with the projection pi_1 onto the first copy.
    """
    p1, _, pi1, pi2 = law.group.pullbacks
    theta = [b - a for a, b in zip(pi1, pi2)]
    return p1.source, mat_vec([[compose(e, p1) for e in row] for row in law.ad], theta)


def preadjoint_oracle(
    chain: AdaptedChain,
    law: GroupLaw,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    *,
    tol_zero: float = TOL_ZERO,
) -> Report:
    """Independent derivation of the multiplication map.

    Builds theta~ = e^{x^1 ad(e_1)} ... e^{x^n ad(e_n)} (pi_2^* tau - pi_1^* tau),
    reduces it to a map rho, reporting the structure residual the
    reduction measured at level 0, and verifies rho(x, y) = mu(y, x^{-1})
    at seeded sample points.  The inverse is rho's own x^{-1} = rho(x, 0),
    so the same line also measures mu(x, x^{-1}) = 0, relative to
    max(1, |x|, |x^{-1}|).  The reduction accepts residuals up to
    ``tol_zero``, as in `multiplication`.
    """
    n = law.group.n
    _, theta_t = preadjoint_forms(law)

    report = Report()
    name = "d theta~^i + 1/2 C^i_jk theta~^j ^ theta~^k = 0"
    try:
        trace = reduce_full(theta_t, chain, basepoint=None, tol=tol_zero)
    except ResidualNonzero as exc:
        report.add(name, False, "symbolic", exc.residual)
        return report
    report.add(name, trace.residuals[0] <= tol_zero, "symbolic", trace.residuals[0])

    rho = rho_map(trace)
    # x, y of each sample, drawn in that order
    draws = _box(random.Random(seed), 1.0, samples, 2 * n)
    x, y = draws[:, :n], draws[:, n:]
    # rho at (x, 0) and at (x, y) in one evaluation, then mu at (y, x^{-1})
    # and at (x, x^{-1})
    x_inv, rho_xy = np.split(rho.evaluate_batch(np.vstack([np.hstack([x, np.zeros_like(x)]), draws])), 2)
    mu_val, unit = np.split(law.multiply_batch(np.vstack([y, x]), np.vstack([x_inv, x_inv])), 2)
    scale = np.maximum(1.0, np.abs(np.hstack([x, x_inv])).max(axis=1))
    worst = _worst(np.concatenate([_rel_error(rho_xy, mu_val), np.abs(unit).max(axis=1) / scale]))
    report.add("rho(x,y) = mu(y, x^{-1})", worst <= tol, "numeric", worst)
    return report
