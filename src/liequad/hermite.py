"""One-variable integration of rational functions within the rational+log
class.

The integrand's numerator and denominator are read as polynomials in the
integration variable v over K = Q(other chart variables), elements of
sympy's sparse ring K[v].  The rational part of the antiderivative is
produced by Hermite reduction (integration by parts against the
squarefree factorization, no linear solves; Bronstein, *Symbolic
Integration I*, ch. 2), the transcendental part only by exact
factorization over Q: a squarefree denominator factor p contributes
``c*log(p)`` when its partial fraction numerator is exactly ``c * dp/dv``
with constant rational ``c``.  Everything else (algebraic or complex log
arguments, non-constant log coefficients) raises
:class:`~liequad.errors.NonElementaryInClass`.  Results go back to the
chart's rational function field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing

from .errors import NonElementaryInClass
from .rational import LogExtendedScalar, RationalFunction, _integer_or_fraction, chart_field
from .varset import VarSet


@lru_cache(maxsize=None)
def _univariate_ring(chart: VarSet, name: str) -> PolyRing:
    """K[v] for v = name and K = Q(other chart variables), or Q[v]."""
    symbols = chart_field(chart).symbols
    i = chart.index(name)
    others = symbols[:i] + symbols[i + 1:]
    K = QQ.frac_field(*others) if others else QQ
    return PolyRing((symbols[i],), K)


def _to_univariate(poly: PolyElement, R: PolyRing, i: int) -> PolyElement:
    """A chart polynomial as an element of K[v], v the i-th variable."""
    K = R.domain
    if K is QQ:
        return R.from_dict({(m[i],): c for m, c in poly.items()})
    inner = K.field.ring
    groups: dict[int, dict] = {}
    for m, c in poly.items():
        groups.setdefault(m[i], {})[m[:i] + m[i + 1:]] = c
    return R.from_dict({(e,): K.field(inner.from_dict(d)) for e, d in groups.items()})


def _to_chart(p: PolyElement, chart: VarSet, i: int):
    """An element of K[v] as an element of the chart field."""
    F = chart_field(chart)
    if p.ring.domain is QQ:  # v is the only chart variable
        return F(F.ring.from_dict(dict(p.items())))

    def lift(q, e):
        return F.ring.from_dict({m[:i] + (e,) + m[i:]: c for m, c in q.items()})

    total = F(0)
    for (e,), c in p.items():
        total += F.new(lift(c.numer, e), lift(c.denom, 0))
    return total


def _split_prime_powers(A, factors):
    """Partial fractions of A / prod(d**m) over pairwise coprime factors.

    Returns [(A_i, d_i, m_i)] with A/prod = sum A_i/d_i^m_i, assuming the
    input fraction is proper.
    """
    if len(factors) == 1:
        d, m = factors[0]
        return [(A, d, m)]
    d, m = factors[0]
    P = d ** m
    Q = A.ring.one
    for dj, mj in factors[1:]:
        Q = Q * dj ** mj
    s, t, g = P.gcdex(Q)
    if g != 1:
        raise NonElementaryInClass("denominator factors are not coprime")
    carry, A1 = divmod(A * t, P)
    A2 = A * s + carry * Q
    return [(A1, d, m)] + _split_prime_powers(A2, factors[1:])


def _integrate_poly_part(Q: PolyElement) -> PolyElement:
    """Antiderivative of a polynomial in v (coefficients may involve other
    variables)."""
    return Q.ring.from_dict({(k + 1,): c / (k + 1) for (k,), c in Q.items()})


def integrate_rational(rf: RationalFunction, name: str):
    """Antiderivative of ``rf`` in ``name``; result is a RationalFunction or
    a LogExtendedScalar.  The constant of integration is not fixed;
    `forms.potential` normalizes at a basepoint.
    """
    chart = rf.chart
    i = chart.index(name)
    R = _univariate_ring(chart, name)
    K = R.domain
    v = R.gens[0]

    N = _to_univariate(rf.frac.numer, R, i)
    D = _to_univariate(rf.frac.denom, R, i)

    quo, rem = divmod(N, D)
    total_rational = _to_chart(_integrate_poly_part(quo), chart, i)
    log_terms: list[tuple[Fraction, PolyElement]] = []

    if rem:
        lc = D.LC
        D = D.monic()
        rem = rem.quo_ground(lc)
        _, sqf = D.sqf_list()
        pieces = _split_prime_powers(rem, sqf)

        for A, d, m in pieces:
            dp = d.diff(v)
            while m > 1:
                s, t, g = d.gcdex(dp)
                if g != 1:
                    raise NonElementaryInClass("squarefree factor shares a root with its derivative")
                u = A * t
                total_rational += _to_chart(u.quo_ground(K.convert(1 - m)), chart, i) / _to_chart(
                    d, chart, i
                ) ** (m - 1)
                A = A * s + u.diff(v).quo_ground(K.convert(m - 1))
                m -= 1
            pq, pr = divmod(A, d)
            total_rational += _to_chart(_integrate_poly_part(pq), chart, i)
            if pr:
                log_terms.extend(_log_part(pr, d, chart, i))

    result = RationalFunction(chart, total_rational)
    if log_terms:
        result = LogExtendedScalar(chart, result, log_terms)
    _check_derivative(result, rf, name)
    return result


def _log_part(r, d, chart: VarSet, i: int):
    """Logarithmic contributions of the proper fraction r/d with d squarefree.

    Each irreducible factor p of d over Q must receive a numerator which is
    an exact constant multiple of dp/dv; the constant must be rational.
    """
    K = r.ring.domain
    v = r.ring.gens[0]
    const, factors = d.factor_list()
    fs = []
    for p, mult in factors:
        if p.degree() <= 0:
            continue
        if mult != 1:
            raise NonElementaryInClass("repeated factor survived squarefree reduction")
        fs.append((p, 1))
    A = r.quo_ground(K.convert(const))
    pieces = _split_prime_powers(A, fs)
    out = []
    for B, p, _ in pieces:
        q, rem = divmod(B, p.diff(v))
        if rem or q.degree() > 0:
            raise NonElementaryInClass(
                f"integrand needs log arguments outside Q-factorization: {p.as_expr()}"
            )
        c = q.LC
        if K is not QQ:
            if not (c.numer.is_ground and c.denom.is_ground):
                raise NonElementaryInClass(
                    f"log coefficient {q.as_expr()} is not a rational constant"
                )
            c = c.numer.LC / c.denom.LC
        out.append((Fraction(_integer_or_fraction(c)), _to_chart(p, chart, i).numer))
    return out


def _check_derivative(result, rf: RationalFunction, name: str):
    back = result.diff(name)
    if not (back - rf).is_zero():
        raise AssertionError(
            f"internal error: d/d{name} of the antiderivative disagrees with the integrand"
        )
