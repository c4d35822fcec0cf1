"""One-variable integration of rational functions within the rational+log
class.

The rational part of the antiderivative is produced by Hermite reduction
(integration by parts against the squarefree factorization, no linear
solves), the transcendental part only by exact factorization over Q: a
squarefree denominator factor p contributes ``c*log(p)`` when its partial
fraction numerator is exactly ``c * dp/dv`` with constant rational ``c``.
Everything else (algebraic or complex log arguments, non-constant log
coefficients) raises :class:`~liequad.errors.NonElementaryInClass`.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from .errors import NonElementaryInClass
from .rational import LogExtendedScalar, RationalFunction, _sym, chart_symbols


def _field(others):
    return sp.QQ.frac_field(*others) if others else sp.QQ


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
    Q = sp.Poly(1, *A.gens, domain=A.domain)
    for dj, mj in factors[1:]:
        Q = Q * dj ** mj
    s, t, g = sp.gcdex(P, Q)
    if not g.is_one:
        raise NonElementaryInClass("denominator factors are not coprime")
    At = A * t
    carry, A1 = sp.div(At, P)
    A2 = A * s + carry * Q
    return [(A1, d, m)] + _split_prime_powers(A2, factors[1:])


def _integrate_poly_part(Q, v):
    """Antiderivative of a polynomial in v (coefficients may involve other
    variables)."""
    total = sp.Integer(0)
    if Q.is_zero:
        return total
    expr = Q.as_expr()
    poly = sp.Poly(expr, v)
    for (k,), c in poly.terms():
        total += c * v ** (k + 1) / (k + 1)
    return total


def integrate_rational(rf: RationalFunction, name: str):
    """Antiderivative of ``rf`` in ``name``; result is a RationalFunction or
    a LogExtendedScalar.  The constant of integration is not fixed;
    `forms.potential` normalizes at a basepoint.
    """
    chart = rf.chart
    v = _sym(name)
    chart.index(name)
    others = [s for s in chart_symbols(chart) if s != v]
    K = _field(others)

    num, den = sp.fraction(rf.expr)
    N = sp.Poly(num, v, domain=K)
    D = sp.Poly(den, v, domain=K)

    quo, rem = sp.div(N, D)
    total_rational = _integrate_poly_part(quo, v)
    log_terms: list[tuple[Fraction, sp.Expr]] = []

    if not rem.is_zero:
        lc = D.LC()
        D = D.monic()
        rem = rem.quo_ground(lc)
        g = sp.gcd(rem, D)
        if g.degree() > 0:
            rem = sp.div(rem, g)[0]
            D = sp.div(D, g)[0]
        _, sqf = sp.sqf_list(D)
        pieces = _split_prime_powers(rem, sqf)

        for A, d, m in pieces:
            dp = d.diff()
            while m > 1:
                s, t, g = sp.gcdex(d, dp)
                if not g.is_one:
                    raise NonElementaryInClass("squarefree factor shares a root with its derivative")
                u = A * t
                total_rational += (-u.as_expr() / (m - 1)) / d.as_expr() ** (m - 1)
                A = A * s + u.diff().quo_ground(K.convert(m - 1))
                m -= 1
            pq, pr = sp.div(A, d)
            total_rational += _integrate_poly_part(pq, v)
            if not pr.is_zero:
                log_terms.extend(_log_part(pr, d, v, K))

    total_rational = sp.cancel(sp.together(total_rational))
    result = RationalFunction(chart, total_rational)
    if log_terms:
        result = LogExtendedScalar(chart, result, log_terms)
    _check_derivative(result, rf, name)
    return result


def _log_part(r, d, v, K):
    """Logarithmic contributions of the proper fraction r/d with d squarefree.

    Each irreducible factor p of d over Q must receive a numerator which is
    an exact constant multiple of dp/dv; the constant must be rational.
    """
    const, factors = sp.factor_list(d)
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
        dp = p.diff()
        q, rem = sp.div(B, dp)
        if not rem.is_zero or q.degree() > 0:
            raise NonElementaryInClass(
                f"integrand needs log arguments outside Q-factorization: {p.as_expr()}"
            )
        c_expr = q.as_expr()
        if c_expr.free_symbols:
            raise NonElementaryInClass(
                f"log coefficient {c_expr} is not a rational constant"
            )
        c = sp.Rational(c_expr)
        arg = sp.together(p.as_expr())
        arg_num, arg_den = sp.fraction(arg)
        if arg_den.has(v):
            raise NonElementaryInClass("log argument has a denominator in the integration variable")
        out.append((Fraction(int(c.p), int(c.q)), sp.expand(arg_num)))
    return out


def _check_derivative(result, rf: RationalFunction, name: str):
    back = result.diff(name)
    if not (back - rf).is_zero():
        raise AssertionError(
            f"internal error: d/d{name} of the antiderivative disagrees with the integrand"
        )
