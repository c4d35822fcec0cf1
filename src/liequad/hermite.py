"""One-variable integration of rational functions within the rational+log
class.

The integrand's numerator and denominator are read as polynomials in the
integration variable v over K = Q(other chart variables): coefficient
lists whose entries are `Frac`s over the chart without v.  The rational
part of the antiderivative comes from Hermite's reduction over the
denominator's square-free split, Yun's over Z by `qpoly.square_free` made
monic over K, in its quadratic version (Bronstein, *Symbolic Integration
I*, 2nd ed., 2005, section 2.2): no partial fractions, one extended
Euclid per factor V of multiplicity m >= 2, which solves each of its
m - 1 steps.  What is left, r/D with D square-free, has no rational
part.  The log part needs no factorization (Rothstein 1977; Trager 1976;
Lazard & Rioboo 1990) and is taken one square-free factor d of D at a
time: each residue c of r/D at the roots of d must be a rational
constant and contributes c*log(gcd(d, r - c*dD/dv)).  The candidate
residues are the eigenvalues of multiplication by r/D' mod d, decided by
`matexp._spectrum`, the one exact spectrum of the package.  Anything
else raises :class:`~liequad.errors.NonElementaryInClass`.  Results go
back to the chart's field, log arguments as RationalFunctions."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import qpoly
from .errors import NonElementaryInClass, PoleAtPoint
from .matexp import _charpoly, _spectrum
from .qpoly import Frac, coefficients_in
from .rational import LogExtendedScalar, RationalFunction
from .varset import VarSet


class _Poly:
    """A polynomial in v over K: its coefficients, constant first and
    without trailing zeros, each a `Frac` without v; ``zero`` is K's 0."""

    __slots__ = ("c", "zero")

    def __init__(self, coeffs: list, zero: Frac):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.c = coeffs
        self.zero = zero

    @classmethod
    def of(cls, f: dict, i: int, n: int) -> "_Poly":
        """An integer polynomial over the n chart variables as one in x_i."""
        zero = Frac.number(n, 0)
        groups = coefficients_in(f, i)
        coeffs = [zero] * (max(groups, default=-1) + 1)
        for e, g in groups.items():
            coeffs[e] = Frac.polynomial(g, n)
        return cls(coeffs, zero)

    def constant(self, c) -> "_Poly":
        return _Poly([self.zero + c], self.zero)

    def __bool__(self) -> bool:
        return bool(self.c)

    def degree(self) -> int:
        return len(self.c) - 1

    @property
    def lc(self) -> Frac:
        return self.c[-1]

    def is_one(self) -> bool:
        return len(self.c) == 1 and self.c[0].is_one()

    def __add__(self, other: "_Poly") -> "_Poly":
        z = self.zero
        return _Poly([a + b for a, b in itertools.zip_longest(self.c, other.c, fillvalue=z)], z)

    def __neg__(self) -> "_Poly":
        return _Poly([-a for a in self.c], self.zero)

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self + (-other)

    def __mul__(self, other) -> "_Poly":
        """The product with a polynomial, or with a scalar of K or Q."""
        if not isinstance(other, _Poly):
            return _Poly([a * other for a in self.c], self.zero)
        if not self or not other:
            return _Poly([], self.zero)
        out = [self.zero] * (len(self.c) + len(other.c) - 1)
        for j, a in enumerate(self.c):
            if a:
                for k, b in enumerate(other.c):
                    if b:
                        out[j + k] = out[j + k] + a * b
        return _Poly(out, self.zero)

    def __divmod__(self, other: "_Poly") -> tuple["_Poly", "_Poly"]:
        r = list(self.c)
        dq = len(r) - len(other.c)
        q = [self.zero] * max(dq + 1, 0)
        inv = other.lc.inverse()
        for k in range(dq, -1, -1):
            top = r.pop()
            if top:
                a = top * inv
                q[k] = a
                for j, b in enumerate(other.c[:-1]):
                    if b:
                        r[j + k] = r[j + k] - a * b
        return _Poly(q, self.zero), _Poly(r, self.zero)

    def diff(self) -> "_Poly":
        return _Poly([a * k for k, a in enumerate(self.c) if k], self.zero)

    def integral(self) -> "_Poly":
        """The antiderivative without a constant term."""
        return _Poly([self.zero] + [a / (k + 1) for k, a in enumerate(self.c)], self.zero)

    def monic(self) -> "_Poly":
        return self * self.lc.inverse()

    def gcdex(self, other: "_Poly") -> tuple["_Poly", "_Poly", "_Poly"]:
        """(s, t, g) with s*self + t*other = g, the monic gcd, by the
        extended Euclidean algorithm."""
        r0, r1 = self, other
        s0, s1 = self.constant(1), self.constant(0)
        t0, t1 = self.constant(0), self.constant(1)
        while r1:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        inv = r0.lc.inverse()
        return s0 * inv, t0 * inv, r0 * inv

    def to_chart(self, i: int) -> Frac:
        """The polynomial as an element of the chart's field, v = x_i."""
        v = Frac.gen(self.zero.nvars, i)
        acc = self.zero
        for a in reversed(self.c):
            acc = acc * v + a
        return acc


def integrate_rational(rf: RationalFunction, name: str):
    """Antiderivative of ``rf`` in ``name``; result is a RationalFunction or
    a LogExtendedScalar.  The constant of integration is not fixed;
    `forms.potential` normalizes at a basepoint.
    """
    chart = rf.chart
    i = chart.index(name)
    n = len(chart)

    N = _Poly.of(rf.frac.num, i, n)
    D = _Poly.of(rf.frac.den, i, n)

    quo, A = divmod(N, D)
    total_rational = quo.integral().to_chart(i)
    log_terms: list[tuple[Fraction, RationalFunction]] = []

    if A:
        A, D = A * D.lc.inverse(), D.monic()
        factors = [(_Poly.of(a, i, n).monic(), m) for a, m in qpoly.square_free(rf.frac.den, i)]
        for V, m in factors:
            if m == 1:
                continue
            U = divmod(D, math.prod([V] * (m - 1), start=V))[0]
            UVp = U * V.diff()
            # B*U*V' + C*V = -A/j with deg B < deg V, from one Bezout pair
            s = UVp.gcdex(V)[0]
            for j in range(m - 1, 0, -1):
                rhs = A * Fraction(-1, j)
                B = divmod(rhs * s, V)[1]
                C = divmod(rhs - B * UVp, V)[0]
                total_rational += B.to_chart(i) / V.to_chart(i) ** j
                A = C * -j - U * B.diff()
            D = U * V
        # D is now the square-free part of the denominator
        if A:
            for d, _ in factors:
                log_terms.extend(_log_part(A, D, d, chart, i))

    result = RationalFunction(chart, total_rational)
    if log_terms:
        result = LogExtendedScalar(chart, result, log_terms)
    _check_derivative(result, rf, name)
    return result


def _log_part(r: _Poly, D: _Poly, d: _Poly, chart: VarSet, i: int):
    """The terms c*log(g_c) of the proper r/D, D monic and squarefree, at
    the roots of its monic factor d: c runs over the residues r/D' there,
    which must be rational constants, and g_c, gcd(d, r - c*D') over K,
    is the primitive part in v of the gcd of the numerators.  Their
    degrees add up to deg d exactly when every residue is a candidate
    from `_residues`.  Equal residues at roots of other factors of D give
    other terms: each factor has its own candidates."""
    Dp, dc = D.diff(), d.to_chart(i)
    args = {c: qpoly.primitive_in(qpoly.gcd(dc.num, (r - Dp * c).to_chart(i).num)[0], i)[1]
            for c in _residues(r, Dp, d, chart, i)}
    if sum(qpoly.degree(g, i) for g in args.values()) != d.degree():
        text = RationalFunction(chart, dc).to_text()
        raise NonElementaryInClass(f"a residue over {text} is not a rational constant")
    return [(c, RationalFunction(chart, Frac.polynomial(g, len(chart)))) for c, g in args.items()]


def _residues(r: _Poly, Dp: _Poly, d: _Poly, chart: VarSet, i: int) -> list[Fraction]:
    """The rational residues r/D' at the roots of d, a factor of D, with
    the other chart variables at the first integer point, box by growing
    box, where r, D' and d are defined and D' stays prime to d (a nonzero
    resultant does not vanish on a box wider than its degree), since a
    constant residue does not move there.  They are the eigenvalues of
    multiplication by h = r/D' mod d on Q[v]/(d), read from
    `matexp._spectrum`; one that is not rational raises."""
    zero = d.zero
    others = [name for j, name in enumerate(chart.names) if j != i]
    boxes = (p for b in itertools.count() for p in itertools.product(range(-b, b + 1), repeat=len(others))
             if max(map(abs, p), default=0) == b)
    for p in boxes:
        point = dict(zip(others, p), **{chart.names[i]: 0})
        try:
            ra, dpa, da = (_Poly([zero + RationalFunction(chart, a).evaluate_exact(point) for a in f.c], zero)
                           for f in (r, Dp, d))
        except PoleAtPoint:
            continue
        inv, _, g = dpa.gcdex(da)
        if g.is_one():
            break
    h, cols = divmod(ra * inv, da)[1], []
    for _ in range(da.degree()):
        cols.append([RationalFunction(chart, x).constant_value() for x in h.c] + [0] * (da.degree() - len(h.c)))
        h = divmod(_Poly([zero] + h.c, zero), da)[1]
    # scale*h has an integer matrix; _spectrum divides its eigenvalues by scale
    scale = math.lcm(*(x.denominator for col in cols for x in col))
    spectrum = _spectrum(_charpoly([[int(x * scale) for x in col] for col in cols])[0], scale)
    if any(type(c) is not Fraction for c, _ in spectrum):
        raise NonElementaryInClass("a residue of the integrand is irrational or complex")
    return [c for c, _ in spectrum]


def _check_derivative(result, rf: RationalFunction, name: str):
    if not (result.diff(name) - rf).is_zero():
        raise AssertionError(f"internal error: d/d{name} of the antiderivative disagrees with the integrand")
