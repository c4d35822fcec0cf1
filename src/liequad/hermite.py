"""One-variable integration of rational functions within the rational+log
class.

The integrand's numerator and denominator are read as polynomials in the
integration variable v over K = Q(other chart variables): coefficient
lists whose entries are `Frac`s over the chart without v.  The rational
part of the antiderivative is produced by Hermite reduction (integration
by parts against the denominator's square-free split, Yun's over Z by
`qpoly.square_free` made monic over K, then extended Euclid and division,
no linear solves; Bronstein, *Symbolic Integration I*, ch. 2),
the transcendental part only by exact factorization over Q: a squarefree
denominator factor p contributes ``c*log(p)`` when its partial fraction
numerator is exactly ``c * dp/dv`` with constant rational ``c``.  The
factors come from sympy's factorization in K[v], the one place sympy is
loaded, and each log argument is the numerator of its factor in the
chart's field.  Everything else (algebraic or complex log arguments, non-constant log
coefficients) raises :class:`~liequad.errors.NonElementaryInClass`.
Results go back to the chart's field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from . import qpoly
from .errors import NonElementaryInClass
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
        return _Poly([a + b for a, b in zip_longest(self.c, other.c, fillvalue=z)], z)

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


def _split_prime_powers(A: _Poly, factors):
    """Partial fractions of A / prod(d**m) over pairwise coprime factors.

    Returns [(A_i, d_i, m_i)] with A/prod = sum A_i/d_i^m_i, assuming the
    input fraction is proper.
    """
    if len(factors) == 1:
        d, m = factors[0]
        return [(A, d, m)]
    d, m = factors[0]
    P = d.constant(1)
    for _ in range(m):
        P = P * d
    Q = d.constant(1)
    for dj, mj in factors[1:]:
        for _ in range(mj):
            Q = Q * dj
    s, t, g = P.gcdex(Q)
    if not g.is_one():
        raise NonElementaryInClass("denominator factors are not coprime")
    carry, A1 = divmod(A * t, P)
    A2 = A * s + carry * Q
    return [(A1, d, m)] + _split_prime_powers(A2, factors[1:])


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

    quo, rem = divmod(N, D)
    total_rational = quo.integral().to_chart(i)
    log_terms: list[tuple[Fraction, Frac]] = []

    if rem:
        rem = rem * D.lc.inverse()
        factors = [(_Poly.of(a, i, n).monic(), k) for a, k in qpoly.square_free(rf.frac.den, i)]
        for A, d, m in _split_prime_powers(rem, factors):
            dp = d.diff()
            while m > 1:
                s, t, g = d.gcdex(dp)
                if not g.is_one():
                    raise NonElementaryInClass("squarefree factor shares a root with its derivative")
                u = A * t
                total_rational += (u * Fraction(1, 1 - m)).to_chart(i) / d.to_chart(i) ** (m - 1)
                A = A * s + u.diff() * Fraction(1, m - 1)
                m -= 1
            pq, pr = divmod(A, d)
            total_rational += pq.integral().to_chart(i)
            if pr:
                log_terms.extend(_log_part(pr, d, chart, i))

    result = RationalFunction(chart, total_rational)
    if log_terms:
        result = LogExtendedScalar(chart, result, log_terms)
    _check_derivative(result, rf, name)
    return result


def _log_part(r: _Poly, d: _Poly, chart: VarSet, i: int):
    """Logarithmic contributions of the proper fraction r/d with d squarefree.

    Each irreducible factor p of d over Q must receive a numerator which is
    an exact constant multiple of dp/dv; the constant must be rational.
    """
    fs = [(p, 1) for p in _factors(d, chart, i)]
    const = d.lc  # d = const * prod(p) in K[v]
    for p, _ in fs:
        const = const / p.lc
    out = []
    for B, p, _ in _split_prime_powers(r * const.inverse(), fs):
        q, rem = divmod(B, p.diff())
        if rem or q.degree() > 0:
            raise NonElementaryInClass(
                f"integrand needs log arguments outside Q-factorization: {_text(p, chart, i)}"
            )
        c = q.lc if q else d.zero
        if not c.is_constant():
            raise NonElementaryInClass(f"log coefficient {_text(q, chart, i)} is not a rational constant")
        out.append((RationalFunction(chart, c).constant_value(), Frac.polynomial(p.to_chart(i).num, len(chart))))
    return out


def _factors(d: _Poly, chart: VarSet, i: int) -> list[_Poly]:
    """The irreducible factors over Q of the squarefree d that contain v,
    by sympy's factorization in K[v], in its order; each is converted to
    sympy and back here, the one place sympy is loaded."""
    from sympy import Symbol
    from sympy.polys.domains import QQ
    from sympy.polys.rings import PolyRing

    symbols = [Symbol(name) for name in chart.names]
    others = symbols[:i] + symbols[i + 1:]
    K = QQ.frac_field(*others) if others else QQ
    n = len(chart)

    def to_k(c: Frac):
        if not others:
            return QQ(c.num.get((0,), 0), c.den[(0,)])
        ring = K.field.ring
        num, den = ({m[:i] + m[i + 1:]: QQ(a) for m, a in f.items()} for f in (c.num, c.den))
        return K.field.new(ring.from_dict(num), ring.from_dict(den))

    def from_k(c) -> Frac:
        if not others:
            return Frac.number(n, Fraction(int(c.numerator), int(c.denominator)))
        num, den = (
            {m[:i] + (0,) + m[i:]: Fraction(int(a.numerator), int(a.denominator)) for m, a in f.items()}
            for f in (c.numer, c.denom)
        )
        scale = math.lcm(*(q.denominator for q in (*num.values(), *den.values())))
        return Frac.reduced({m: int(q * scale) for m, q in num.items()}, {m: int(q * scale) for m, q in den.items()})

    R = PolyRing((symbols[i],), K)
    _, factors = R.from_dict({(e,): to_k(c) for e, c in enumerate(d.c) if c}).factor_list()
    out = []
    for p, mult in factors:
        if p.degree() > 0:
            if mult != 1:
                raise NonElementaryInClass("repeated factor survived squarefree reduction")
            coeffs = [d.zero] * (p.degree() + 1)
            for (e,), c in p.items():
                coeffs[e] = from_k(c)
            out.append(_Poly(coeffs, d.zero))
    return out


def _text(p: _Poly, chart: VarSet, i: int) -> str:
    return RationalFunction(chart, p.to_chart(i)).to_text()


def _check_derivative(result, rf: RationalFunction, name: str):
    back = result.diff(name)
    if not (back - rf).is_zero():
        raise AssertionError(
            f"internal error: d/d{name} of the antiderivative disagrees with the integrand"
        )
