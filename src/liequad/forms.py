"""Exterior calculus over a chart: differential forms, vector fields,
point maps, structure-equation and bracket residuals and the quadrature
(potential) operator.

Coefficients are either exponential polynomials or exact rational
functions; the two classes never mix inside one form.  Antisymmetry is
structural: coefficients are indexed by strictly increasing index tuples.

A form is never modified after construction, so a result may be one of
the operands.  Two shortcuts rest on that:

- Multiplying a form by the number 1, or by a scalar of its own class
  and chart that `is_one`, returns the form itself.  The general formula
  would give every coefficient back unchanged (`ExpPoly` scaling by 1.0
  returns the polynomial), so no value moves.  A `lin_comb` over a unit
  row of a factor matrix therefore passes its form on without a copy.
- `+`, `-`, `sum`, scalar `*`, `wedge`, `exterior_d` and `differential`
  build their results from index tuples that are valid already, through
  the trusted constructor `DiffForm._trusted`: it drops zero coefficients
  but skips the index validation of the public `DiffForm(...)`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    ClassMismatch,
    EmptyDomain,
    MismatchedVarSet,
    NonAffineExponentSubstitution,
    NonElementaryInClass,
    NotClosed,
    PoleAtPoint,
)
from .liealg import lin_comb
from .report import TOL_ZERO
from .varset import VarSet

Index = tuple[int, ...]


def _default_class(scls):
    """scls, or the exponential-polynomial class when none is given."""
    if scls is None:
        from .exppoly import ExpPoly

        return ExpPoly
    return scls


class DiffForm:
    """A p-form: coefficients indexed by strictly increasing index tuples.

    Never modified after construction (module docstring): a unit scalar
    times the form is the form itself, with no copy of its coefficients,
    and the operations build their results with `_trusted`, which skips
    the index validation `DiffForm(...)` does.
    """

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

    @classmethod
    def _trusted(cls, chart: VarSet, degree: int, coeffs: Mapping[Index, object], scls):
        """Trusted constructor for index tuples that are strictly increasing
        of length `degree` already: drops zero coefficients only."""
        self = object.__new__(cls)
        self.chart = chart
        self.degree = degree
        self.coeffs = {idx: c for idx, c in coeffs.items() if not c.is_zero()}
        self.scls = scls
        return self

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, chart: VarSet, degree: int, scls=None):
        return cls(chart, degree, {}, _default_class(scls))

    @classmethod
    def function(cls, f):
        """Degree-0 form wrapping a scalar."""
        return cls(f.chart, 0, {(): f}, type(f))

    @classmethod
    def d_coordinate(cls, chart: VarSet, name: str, scls=None):
        scls = _default_class(scls)
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
        return DiffForm._trusted(self.chart, self.degree, acc, self.scls)

    @classmethod
    def sum(cls, forms: Sequence["DiffForm"]) -> "DiffForm":
        """The sum of one or more forms (one form is itself): the
        coefficients of each index are summed by their class's `sums`,
        which drops an index whose sum is zero; it re-enters at the end.
        So a sum of more forms is their left fold of `+`, bit for bit."""
        first = forms[0]
        if len(forms) == 1:
            return first
        for form in forms[1:]:
            first._check(form)
            if form.degree != first.degree:
                raise ValueError("cannot add forms of different degree")
        coeffs = first.scls.sums((idx, c) for form in forms for idx, c in form.coeffs.items())
        return DiffForm._trusted(first.chart, first.degree, coeffs, first.scls)

    def __neg__(self):
        neg = {i: -c for i, c in self.coeffs.items()}
        return DiffForm._trusted(self.chart, self.degree, neg, self.scls)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Multiply by a scalar or a plain number; a unit returns the form
        itself (module docstring)."""
        if type(other) is self.scls:
            # a chart mismatch still raises in the general formula
            if other.is_one() and other.chart == self.chart:
                return self
        elif isinstance(other, (int, float, Fraction)):
            if other == 0:
                return DiffForm.zero(self.chart, self.degree, self.scls)
            if other == 1:
                return self
        return DiffForm._trusted(
            self.chart, self.degree, {i: c * other for i, c in self.coeffs.items()}, self.scls
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs  # construction drops the zero coefficients

    def max_abs_coeff(self) -> float:
        return max((c.max_abs_coeff() for c in self.coeffs.values()), default=0.0)

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
        return DiffForm._trusted(self.chart, p + q, acc, self.scls)

    def exterior_d(self) -> "DiffForm":
        """d of the form, computed on each call."""
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
        return DiffForm._trusted(chart, self.degree + 1, acc, self.scls)

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
    def coordinate(cls, chart: VarSet, name: str, scls=None):
        scls = _default_class(scls)
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

    @classmethod
    def sum(cls, fields: Sequence["VectorField"]) -> "VectorField":
        """The left fold of `+` over one or more fields."""
        return sum(fields[1:], fields[0])

    def __neg__(self):
        return VectorField(self.chart, [-a for a in self.components], self.scls)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return VectorField(self.chart, [c * other for c in self.components], self.scls)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def at(self, point: Mapping[str, float]) -> np.ndarray:
        return self.scls.family(self.chart, self.components).evaluate([[point[n] for n in self.chart.names]])[0]

    def __repr__(self):
        parts = [
            f"({c!r}) d/d{n}"
            for c, n in zip(self.components, self.chart.names)
            if not c.is_zero()
        ]
        return "VectorField(" + (" + ".join(parts) or "0") + ")"


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = <dY^k, X> - <dX^k, Y>; a chart mismatch raises in `pairing`."""
    comps = [pairing(differential(y), X) - pairing(differential(x), Y) for x, y in zip(X.components, Y.components)]
    return VectorField(X.chart, comps, X.scls)


def bracket_residuals(fields: Sequence[VectorField], sc) -> list[VectorField]:
    """[X_i, X_j] - C^k_ij X_k for each i < j, in (i, j) order; all zero
    exactly when the fields satisfy the bracket relations of `sc`."""
    n = sc.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            rhs = lin_comb([sc.C[k][i][j] for k in range(n)], fields)
            out.append(lie_bracket(fields[i], fields[j]) - rhs)
    return out


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
    """Smooth map between charts, one scalar component per target coordinate.

    Its components, and its Jacobian entries, are compiled as one family
    each on first evaluation and kept."""

    source: VarSet
    target: VarSet
    components: list

    def __post_init__(self):
        if len(self.components) != len(self.target):
            raise ValueError("one component per target coordinate required")
        for c in self.components:
            if c.chart != self.source:
                raise MismatchedVarSet("components must live over the source chart")

    @cached_property
    def _family(self):
        """The components, compiled as one family by their class."""
        return type(self.components[0]).family(self.source, self.components)

    def evaluate_batch(self, points) -> np.ndarray:
        """Images of N source points (rows in chart order), as an N x m array
        in target chart order."""
        return self._family.evaluate(points)

    @cached_property
    def composition(self):
        """A scalar over the target composed with the map, as a callable
        that the components' class prepares once per map (`bind`)."""
        return type(self.components[0]).bind(self.target, dict(zip(self.target.names, self.components)))

    @cached_property
    def renaming(self) -> list[int] | None:
        """j for each component that is the bare source coordinate x_j, when
        every component is one and the j are distinct, else None."""
        scls = type(self.components[0])
        bare = {scls.coordinate(self.source, name): j for j, name in enumerate(self.source.names)}
        positions = [bare.get(c) for c in self.components]
        return positions if None not in positions and len(set(positions)) == len(positions) else None

    @cached_property
    def differentials(self) -> list[DiffForm]:
        """The differential of each component, computed once per map."""
        return [differential(comp) for comp in self.components]

    @cached_property
    def _jacobian(self):
        """The nonzero Jacobian entries, compiled as one family by their
        class, and their rows and columns."""
        import numpy as np

        entries = [(i, j, c) for i, dcomp in enumerate(self.differentials) for (j,), c in dcomp.coeffs.items()]
        family = self.differentials[0].scls.family(self.source, [c for _, _, c in entries])
        rows = np.array([i for i, _, _ in entries], dtype=np.int64)
        cols = np.array([j for _, j, _ in entries], dtype=np.int64)
        return family, rows, cols

    def jacobian_batch(self, points) -> np.ndarray:
        """Jacobian matrices at N source points, as an N x m x n array."""
        import numpy as np

        family, rows, cols = self._jacobian
        values = family.evaluate(points)
        J = np.zeros((len(values), len(self.target), len(self.source)))
        J[:, rows, cols] = values
        return J

    @classmethod
    def identity(cls, chart: VarSet, scls=None):
        return cls(chart, chart, [_default_class(scls).coordinate(chart, n) for n in chart.names])


def compose(c, phi: PointMap):
    """c over phi.target composed with phi within one scalar class, by the
    map's `composition`.  A coefficient of another class than the map's
    components raises ClassMismatch."""
    scls = type(phi.components[0])
    if not isinstance(c, scls):
        raise ClassMismatch(f"cannot compose {type(c).__name__} along a map with {scls.__name__} components")
    return phi.composition(c)


def differential(f) -> DiffForm:
    """df as a 1-form over f's chart, in the class f.diff returns
    (log-extended scalars have rational differentials)."""
    names = f.chart.names
    # along the other variables the derivative is zero; a constant keeps
    # one zero coefficient, which gives the form its class
    coeffs = {(j,): f.diff(names[j]) for j in f.occurring()} or {(0,): f.diff(names[0])}
    return DiffForm._trusted(f.chart, 1, coeffs, type(next(iter(coeffs.values()))))


def pullback(phi: PointMap, alpha: DiffForm) -> DiffForm:
    """phi^* alpha, exact via the chain rule.  Along a map whose components
    are distinct bare source coordinates x_j, d(x_j) is dx_j with the
    coefficient one, so a 1-form's indices are renamed.

    Raises NonAffineExponentSubstitution when an exponential-polynomial
    coefficient composition leaves the class, and ClassMismatch when the
    form's class differs from the map's; callers then fall back to
    numeric sampling.
    """
    if alpha.chart != phi.target:
        raise MismatchedVarSet("form must live over the target chart")
    scls = type(phi.components[0])
    if alpha.degree == 0:
        c = alpha.coeffs.get(())
        if c is None:
            return DiffForm.zero(phi.source, 0, scls)
        return DiffForm.function(compose(c, phi))
    if alpha.degree == 1 and phi.renaming is not None:
        return DiffForm._trusted(phi.source, 1, {(phi.renaming[i],): compose(a, phi)
                                                 for (i,), a in alpha.coeffs.items()}, scls)
    dphi = phi.differentials
    pieces = [DiffForm.zero(phi.source, alpha.degree, scls)]
    for I, a in alpha.coeffs.items():
        piece = DiffForm.function(compose(a, phi))
        for i in I:
            piece = piece.wedge(dphi[i])
        pieces.append(piece)
    return DiffForm.sum(pieces)


def pullback_check(phi: PointMap, taus, omegas, mode: str, samples: int, rng, domain: Domain):
    """Worst error of phi^* tau^i = omega^i for each i, and the mode used.

    Symbolic unless mode is "numeric" or, in "auto" mode, the composition
    leaves the class; a symbolic check is named by the forms' class
    (`check_mode`).  The numeric check compares both sides on random
    tangent vectors at `samples` points of the domain over phi's source.
    Returns (errors, mode, detail); when a "symbolic" run cannot compose,
    errors is None and detail says why.
    """
    if mode != "numeric":
        check_mode = omegas[0].scls.check_mode
        try:
            errors = [(pullback(phi, t) - o).max_abs_coeff() for t, o in zip(taus, omegas)]
            return errors, check_mode, ""
        except (ClassMismatch, NonAffineExponentSubstitution) as exc:
            if mode == "symbolic":
                return None, check_mode, str(exc)
    import numpy as np

    names = phi.source.names
    draws = []
    for _ in range(samples):
        pt = domain.sample(rng)
        draws.append([pt[nm] for nm in names] + [rng.uniform(-1, 1) for _ in names])
    # a point and a tangent vector at it per sample, drawn in that order
    draws = np.array(draws, dtype=float).reshape(samples, 2, len(names))
    P, vecs = draws[:, 0], draws[:, 1]
    push = (phi.jacobian_batch(P) @ vecs[:, :, None])[:, :, 0]
    lhs = _pairings(taus, phi.evaluate_batch(P), push)
    rhs = _pairings(omegas, P, vecs)
    errors = [float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(lhs, rhs)]
    return errors, "numeric", ""


def _pairings(forms: Sequence[DiffForm], points, vectors) -> list:
    """<alpha, v> of each 1-form alpha at N points and N vectors, summed in
    coefficient order; the coefficients of all the forms are evaluated as
    one family."""
    entries = [(k, j, c) for k, alpha in enumerate(forms) for (j,), c in alpha.coeffs.items()]
    values = forms[0].scls.family(forms[0].chart, [c for _, _, c in entries]).evaluate(points)
    sums = [0] * len(forms)
    for col, (k, j, _) in enumerate(entries):
        sums[k] = sums[k] + values[:, col] * vectors[:, j]
    return sums


def structure_residual(omegas: Sequence[DiffForm], sc) -> list[DiffForm]:
    """d omega^i + (1/2) C^i_{jk} omega^j wedge omega^k for each i, over
    the nonzero constants with j < k (`StructureConstants.targets`)."""
    n = sc.dim
    if len(omegas) != n:
        raise ValueError(f"expected {n} forms, got {len(omegas)}")
    return [DiffForm.sum([omegas[i].exterior_d()] + [omegas[j].wedge(omegas[k]) * c for j, k, c in target])
            for i, target in enumerate(sc.targets)]


def full_basepoint(chart: VarSet, basepoint: Mapping[str, object] | None = None) -> dict:
    """The basepoint with every chart coordinate it leaves out set to 0."""
    full = dict(basepoint or {})
    for name in chart.names:
        full.setdefault(name, 0)
    return full


def potential(
    omega: DiffForm,
    basepoint: Mapping[str, object] | None = None,
    tol: float = TOL_ZERO,
):
    """Scalar f with df = omega for a closed 1-form, by peeling the chart
    variables in order.  The antiderivative's value at the basepoint
    (missing coordinates are 0) is subtracted, so f vanishes there; with
    log terms only the rational part's value is.  A form that is not
    closed leaves a residual above ``tol`` after the peeling and raises
    NotClosed; a variable without a coefficient is skipped.
    """
    if omega.degree != 1:
        raise ValueError("potential needs a 1-form")
    chart = omega.chart
    scls = omega.scls

    remaining = omega
    total = scls.zero(chart)
    try:
        for vi, name in enumerate(chart.names):
            coeff = remaining.coeffs.get((vi,))
            if coeff is None:
                continue
            g = coeff.antideriv(name)
            total = total + g
            remaining = remaining - differential(g)
    except NonElementaryInClass as exc:
        # an out-of-class antiderivative may come from a form that is not closed
        if not omega.exterior_d().max_abs_coeff() <= tol:
            raise NotClosed("d(omega) is nonzero; the form is not closed") from exc
        raise
    if not remaining.max_abs_coeff() <= tol:
        raise NotClosed(
            "variable peeling left a nonzero residual; the form is not exact "
            "over this chart"
        )
    # subtract the value at the basepoint; log terms are left as they are
    return total - total.basepoint_value(full_basepoint(chart, basepoint))


@dataclass
class Domain:
    """Chart with excluded hypersurfaces (zero sets to avoid when sampling),
    sampled in the box [-half_width, half_width]^n."""

    chart: VarSet
    excluded: tuple = ()
    half_width: float = 2.0

    def sample(self, rng: random.Random) -> dict[str, float]:
        """A point of the box at least 0.05 off every excluded set."""
        h = self.half_width
        for _ in range(200):
            pt = {n: rng.uniform(-h, h) for n in self.chart.names}
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
        raise EmptyDomain(f"200 points drawn in [-{h:g}, {h:g}]^n all fell on or near the excluded sets")
