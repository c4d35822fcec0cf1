"""Exterior calculus over a chart: differential forms, vector fields,
point maps, structure-equation residuals and the quadrature (potential)
operator.

Coefficients are either exponential polynomials or exact rational
functions; the two classes never mix inside one form.  Antisymmetry is
structural: coefficients are indexed by strictly increasing index tuples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BasepointOnPole,
    ClassMismatch,
    EmptyDomain,
    MismatchedVarSet,
    NonAffineExponentSubstitution,
    NonElementaryInClass,
    NonFiniteCoefficient,
    NotClosed,
    PoleAtPoint,
)
from .exppoly import ExpPoly, ZERO_TOL
from .varset import VarSet

Index = tuple[int, ...]


class DiffForm:
    __slots__ = ("chart", "degree", "coeffs", "scls")

    def __init__(self, chart: VarSet, degree: int, coeffs: Mapping[Index, object], scls=None):
        if degree < 0 or degree > len(chart):
            raise ValueError(f"degree {degree} out of range for chart of dim {len(chart)}")
        clean: dict[Index, object] = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} must be strictly increasing of length {degree}")
            if scls is None:
                scls = type(c)
            if c.is_zero():
                continue
            clean[idx] = c
        if scls is None:
            raise ValueError("scalar class undetermined; pass scls for empty forms")
        self.chart = chart
        self.degree = degree
        self.coeffs = clean
        self.scls = scls

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, chart: VarSet, degree: int, scls=ExpPoly):
        return cls(chart, degree, {}, scls)

    @classmethod
    def function(cls, f):
        """Degree-0 form wrapping a scalar."""
        return cls(f.chart, 0, {(): f}, type(f))

    @classmethod
    def d_coordinate(cls, chart: VarSet, name: str, scls=ExpPoly):
        i = chart.index(name)
        return cls(chart, 1, {(i,): scls.one(chart)}, scls)

    def coefficient(self, idx: Index):
        idx = tuple(idx)
        c = self.coeffs.get(idx)
        if c is None:
            return self.scls.zero(self.chart)
        return c

    # ------------------------------------------------------------------
    def _check(self, other: "DiffForm"):
        if self.chart != other.chart:
            raise MismatchedVarSet(f"{self.chart.names} vs {other.chart.names}")
        if self.scls is not other.scls:
            raise ClassMismatch(f"{self.scls.__name__} vs {other.scls.__name__}")

    def __add__(self, other: "DiffForm"):
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            acc[idx] = acc[idx] + c if idx in acc else c
        return DiffForm(self.chart, self.degree, acc, self.scls)

    def __neg__(self):
        return DiffForm(self.chart, self.degree, {i: -c for i, c in self.coeffs.items()}, self.scls)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Multiply by a scalar or a plain number."""
        if isinstance(other, (int, float, Fraction)) and other == 0:
            return DiffForm.zero(self.chart, self.degree, self.scls)
        return DiffForm(
            self.chart, self.degree, {i: c * other for i, c in self.coeffs.items()}, self.scls
        )

    __rmul__ = __mul__

    def is_zero(self, tol: float = ZERO_TOL) -> bool:
        return all(c.is_zero(tol) for c in self.coeffs.values())

    def max_abs_coeff(self) -> float:
        worst = 0.0
        for c in self.coeffs.values():
            if isinstance(c, ExpPoly):
                worst = max(worst, c.max_abs_coeff())
            elif not c.is_zero():
                worst = max(worst, 1.0)
        return worst

    def isclose(self, other: "DiffForm", tol: float = ZERO_TOL) -> bool:
        return (self - other).is_zero(tol)

    # ------------------------------------------------------------------
    def wedge(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        p, q = self.degree, other.degree
        if p + q > len(self.chart):
            return DiffForm.zero(self.chart, min(p + q, len(self.chart)), self.scls)
        acc: dict[Index, object] = {}
        for I, a in self.coeffs.items():
            si = set(I)
            for J, b in other.coeffs.items():
                if si & set(J):
                    continue
                merged, sign = _merge_sorted(I, J)
                c = a * b if sign > 0 else -(a * b)
                acc[merged] = acc[merged] + c if merged in acc else c
        return DiffForm(self.chart, p + q, acc, self.scls)

    def exterior_d(self) -> "DiffForm":
        chart = self.chart
        if self.degree >= len(chart):
            # a top-degree form has vanishing differential
            return DiffForm.zero(chart, self.degree, self.scls)
        acc: dict[Index, object] = {}
        for I, a in self.coeffs.items():
            # along any other variable the derivative is zero
            for v in a.occurring():
                if v in I:
                    continue
                da = a.diff(chart.names[v])
                if da.is_zero():
                    continue
                merged, sign = _merge_sorted((v,), I)
                c = da if sign > 0 else -da
                acc[merged] = acc[merged] + c if merged in acc else c
        return DiffForm(chart, self.degree + 1, acc, self.scls)

    def interior(self, X: "VectorField") -> "DiffForm":
        if self.chart != X.chart:
            raise MismatchedVarSet("vector field over a different chart")
        if self.degree == 0:
            raise ValueError("interior product needs degree >= 1")
        acc: dict[Index, object] = {}
        for I, a in self.coeffs.items():
            for t, i in enumerate(I):
                comp = X.components[i]
                if comp.is_zero():
                    continue
                rest = I[:t] + I[t + 1:]
                c = a * comp
                if t % 2:
                    c = -c
                acc[rest] = acc[rest] + c if rest in acc else c
        return DiffForm(self.chart, self.degree - 1, acc, self.scls)

    def __repr__(self):
        if not self.coeffs:
            return "DiffForm(0)"
        parts = []
        for I, c in sorted(self.coeffs.items()):
            basis = "^".join(f"d{self.chart.names[i]}" for i in I) or "1"
            parts.append(f"({c!r}) {basis}")
        return "DiffForm(" + " + ".join(parts) + ")"


def _merge_sorted(I: Index, J: Index) -> tuple[Index, int]:
    """Merge two disjoint increasing tuples, tracking the permutation sign."""
    out = []
    sign = 1
    i = j = 0
    while i < len(I) and j < len(J):
        if I[i] < J[j]:
            out.append(I[i])
            i += 1
        else:
            out.append(J[j])
            # J[j] moves past the remaining len(I) - i entries of I
            if (len(I) - i) % 2:
                sign = -sign
            j += 1
    out.extend(I[i:])
    out.extend(J[j:])
    return tuple(out), sign


class VectorField:
    __slots__ = ("chart", "components", "scls")

    def __init__(self, chart: VarSet, components: Sequence[object], scls=None):
        components = list(components)
        if len(components) != len(chart):
            raise ValueError("one component per coordinate required")
        if scls is None:
            scls = type(components[0])
        self.chart = chart
        self.components = components
        self.scls = scls

    @classmethod
    def coordinate(cls, chart: VarSet, name: str, scls=ExpPoly):
        comps = [scls.zero(chart) for _ in chart.names]
        comps[chart.index(name)] = scls.one(chart)
        return cls(chart, comps, scls)

    def __add__(self, other: "VectorField"):
        if self.chart != other.chart:
            raise MismatchedVarSet("chart mismatch")
        return VectorField(
            self.chart,
            [a + b for a, b in zip(self.components, other.components)],
            self.scls,
        )

    def __neg__(self):
        return VectorField(self.chart, [-a for a in self.components], self.scls)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return VectorField(self.chart, [c * other for c in self.components], self.scls)

    __rmul__ = __mul__

    def is_zero(self, tol: float = ZERO_TOL) -> bool:
        return all(c.is_zero(tol) for c in self.components)

    def at_batch(self, points) -> np.ndarray:
        """Components at N points (rows in chart order), as an N x n array."""
        return np.column_stack([c.evaluate_batch(points) for c in self.components])

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        return self.at_batch([[point[n] for n in self.chart.names]])[0]

    def __repr__(self):
        parts = [
            f"({c!r}) d/d{n}"
            for c, n in zip(self.components, self.chart.names)
            if not c.is_zero()
        ]
        return "VectorField(" + (" + ".join(parts) or "0") + ")"


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    if X.chart != Y.chart:
        raise MismatchedVarSet("chart mismatch")
    chart = X.chart
    comps = []
    for k in range(len(chart)):
        acc = X.scls.zero(chart)
        for j, name in enumerate(chart.names):
            xj = X.components[j]
            yj = Y.components[j]
            if not xj.is_zero():
                acc = acc + xj * Y.components[k].diff(name)
            if not yj.is_zero():
                acc = acc - yj * X.components[k].diff(name)
        comps.append(acc)
    return VectorField(chart, comps, X.scls)


def pairing(alpha: DiffForm, X: VectorField):
    """<alpha, X> for a 1-form; a scalar."""
    if alpha.degree != 1:
        raise ValueError("pairing needs a 1-form")
    if alpha.chart != X.chart:
        raise MismatchedVarSet("chart mismatch")
    acc = alpha.scls.zero(alpha.chart)
    for (i,), c in alpha.coeffs.items():
        acc = acc + c * X.components[i]
    return acc


@dataclass
class PointMap:
    """Smooth map between charts, one scalar component per target coordinate."""

    source: VarSet
    target: VarSet
    components: list

    def __post_init__(self):
        if len(self.components) != len(self.target):
            raise ValueError("one component per target coordinate required")
        for c in self.components:
            if c.chart != self.source:
                raise MismatchedVarSet("components must live over the source chart")

    def evaluate_batch(self, points) -> np.ndarray:
        """Images of N source points (rows in chart order), as an N x m array
        in target chart order."""
        return np.column_stack([comp.evaluate_batch(points) for comp in self.components])

    def __call__(self, point: Mapping[str, float]) -> dict[str, float]:
        values = self.evaluate_batch([[point[n] for n in self.source.names]])[0]
        return dict(zip(self.target.names, values.tolist()))

    @cached_property
    def differentials(self) -> list[DiffForm]:
        """The differential of each component, computed once per map."""
        return [differential(comp) for comp in self.components]

    def jacobian_batch(self, points) -> np.ndarray:
        """Jacobian matrices at N source points, as an N x m x n array."""
        J = np.zeros((len(points), len(self.target), len(self.source)))
        for i, dcomp in enumerate(self.differentials):
            for (j,), c in dcomp.coeffs.items():
                J[:, i, j] = c.evaluate_batch(points)
        return J

    def jacobian_at(self, point: Mapping[str, float]) -> np.ndarray:
        return self.jacobian_batch([[point[n] for n in self.source.names]])[0]

    @classmethod
    def identity(cls, chart: VarSet, scls=ExpPoly):
        return cls(chart, chart, [scls.coordinate(chart, n) for n in chart.names])


def _compose_scalar(c, phi: PointMap):
    """c over phi.target composed with phi, converting classes as needed."""
    target_scls = type(phi.components[0])
    if isinstance(c, target_scls):
        pass
    elif isinstance(c, ExpPoly):
        # the map has rational components, so the rational class is loaded
        from .convert import exppoly_to_rational

        c = exppoly_to_rational(c)
    else:
        from .convert import rational_to_exppoly
        from .rational import RationalFunction

        if not isinstance(c, RationalFunction):
            raise ClassMismatch(f"cannot compose {type(c).__name__} along this map")
        c = rational_to_exppoly(c)
    bindings = {
        name: comp for name, comp in zip(phi.target.names, phi.components)
    }
    if isinstance(c, ExpPoly):
        return c.substitute(bindings)
    return c.compose(bindings)


def differential(f) -> DiffForm:
    """df as a 1-form over f's chart, in the class f.diff returns
    (log-extended scalars have rational differentials)."""
    names = f.chart.names
    # along the other variables the derivative is zero; a constant keeps
    # one zero coefficient, which gives the form its class
    coeffs = {(j,): f.diff(names[j]) for j in f.occurring()} or {(0,): f.diff(names[0])}
    return DiffForm(f.chart, 1, coeffs)


def pullback(phi: PointMap, alpha: DiffForm) -> DiffForm:
    """phi^* alpha, exact via the chain rule.

    Raises NonAffineExponentSubstitution when an exponential-polynomial
    coefficient composition leaves the class; callers then fall back to
    numeric sampling.
    """
    if alpha.chart != phi.target:
        raise MismatchedVarSet("form must live over the target chart")
    scls = type(phi.components[0])
    if alpha.degree == 0:
        c = alpha.coeffs.get(())
        if c is None:
            return DiffForm.zero(phi.source, 0, scls)
        return DiffForm.function(_compose_scalar(c, phi))
    dphi = phi.differentials
    result = DiffForm.zero(phi.source, alpha.degree, scls)
    for I, a in alpha.coeffs.items():
        piece = DiffForm.function(_compose_scalar(a, phi))
        for i in I:
            piece = piece.wedge(dphi[i])
        result = result + piece
    return result


def pullback_check(phi: PointMap, taus, omegas, mode: str, samples: int, rng, sample_point):
    """Worst error of phi^* tau^i = omega^i for each i, and the mode used.

    Symbolic unless mode is "numeric" or, in "auto" mode, the composition
    leaves the class; the numeric check compares both sides on random
    tangent vectors at `samples` points drawn by `sample_point(rng)`.
    Returns (errors, mode, detail); when a "symbolic" run cannot compose,
    errors is None and detail says why.
    """
    if mode != "numeric":
        try:
            errors = [(pullback(phi, t) - o).max_abs_coeff() for t, o in zip(taus, omegas)]
            return errors, "symbolic", ""
        except (ClassMismatch, NonAffineExponentSubstitution) as exc:
            if mode == "symbolic":
                return None, "symbolic", str(exc)
    names = phi.source.names
    draws = []
    for _ in range(samples):
        pt = sample_point(rng)
        draws.append([pt[nm] for nm in names] + [rng.uniform(-1, 1) for _ in names])
    # a point and a tangent vector at it per sample, drawn in that order
    draws = np.array(draws, dtype=float).reshape(samples, 2, len(names))
    P, vecs = draws[:, 0], draws[:, 1]
    push = (phi.jacobian_batch(P) @ vecs[:, :, None])[:, :, 0]
    img = phi.evaluate_batch(P)
    errors = []
    for tau, omega in zip(taus, omegas):
        lhs = sum(c.evaluate_batch(img) * push[:, idx[0]] for idx, c in tau.coeffs.items())
        rhs = sum(c.evaluate_batch(P) * vecs[:, idx[0]] for idx, c in omega.coeffs.items())
        errors.append(float(np.max(np.abs(lhs - rhs), initial=0.0)))
    return errors, "numeric", ""


def structure_residual(omegas: Sequence[DiffForm], sc) -> list[DiffForm]:
    """d omega^i + (1/2) C^i_{jk} omega^j wedge omega^k for each i."""
    n = sc.dim
    if len(omegas) != n:
        raise ValueError(f"expected {n} forms, got {len(omegas)}")
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


def full_basepoint(chart: VarSet, basepoint: Mapping[str, object] | None = None) -> dict:
    """The basepoint with every chart coordinate it leaves out set to 0."""
    full = dict(basepoint or {})
    for name in chart.names:
        full.setdefault(name, 0)
    return full


def potential(
    omega: DiffForm,
    basepoint: Mapping[str, object] | None = None,
    tol: float = ZERO_TOL,
):
    """Scalar f with df = omega for a closed 1-form, by peeling the chart
    variables in order.  The antiderivative's value at the basepoint
    (missing coordinates are 0) is subtracted, so f vanishes there; with
    log terms only the rational part's value is.  A form that is not
    closed leaves a residual above ``tol`` after the peeling and raises
    NotClosed; only an exactly zero coefficient is skipped.
    """
    if omega.degree != 1:
        raise ValueError("potential needs a 1-form")
    chart = omega.chart
    scls = omega.scls

    remaining = omega
    total = None
    try:
        for vi, name in enumerate(chart.names):
            coeff = remaining.coeffs.get((vi,))
            if coeff is None or coeff.is_zero():
                continue
            g = coeff.antideriv(name)
            total = g if total is None else total + g
            remaining = remaining - differential(g)
    except NonElementaryInClass as exc:
        # an out-of-class antiderivative may come from a form that is not closed
        if not omega.exterior_d().is_zero(tol):
            raise NotClosed("d(omega) is nonzero; the form is not closed") from exc
        raise
    if total is None:
        total = scls.zero(chart)
    if not remaining.is_zero(tol):
        raise NotClosed(
            "variable peeling left a nonzero residual; the form is not exact "
            "over this chart"
        )
    # subtract the value at the basepoint; log terms are left as they are
    basepoint = full_basepoint(chart, basepoint)
    if isinstance(total, ExpPoly):
        value = total.evaluate(basepoint)
        if not math.isfinite(value):
            raise NonFiniteCoefficient(f"the antiderivative is {value} at the basepoint {basepoint}")
        return total - ExpPoly.constant(chart, value)
    from .rational import LogExtendedScalar

    part = total.rational_part if isinstance(total, LogExtendedScalar) else total
    try:
        return total - part.evaluate_exact(basepoint)
    except PoleAtPoint as exc:
        raise BasepointOnPole(f"denominator vanishes on {basepoint}") from exc


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


@dataclass
class Domain:
    """Chart with excluded hypersurfaces (zero sets to avoid when sampling)."""

    chart: VarSet
    excluded: tuple = ()

    def sample(self, rng: random.Random) -> dict[str, float]:
        """A point of the box [-2, 2]^n at least 0.05 off every excluded set."""
        for _ in range(200):
            pt = {n: rng.uniform(-2.0, 2.0) for n in self.chart.names}
            ok = True
            for p in self.excluded:
                try:
                    if abs(p.evaluate(pt)) < 0.05:
                        ok = False
                        break
                except PoleAtPoint:
                    ok = False
                    break
            if ok:
                return pt
        raise EmptyDomain("200 points drawn in [-2, 2]^n all fell on or near the excluded sets")
