"""Conversions between the two coefficient classes.

Only polynomial values convert: an exponential polynomial with no exp/trig
part maps to an exact rational polynomial (float coefficients are
reconstructed as small rationals and verified), and a rational function
with constant denominator maps back to floats.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import QQ

from .errors import ClassMismatch
from .exppoly import ExpPoly, KIND_ONE
from .rational import RationalFunction, chart_field


def exppoly_to_rational(p: ExpPoly) -> RationalFunction:
    if not p.is_polynomial():
        raise ClassMismatch(
            "exponential/trig terms cannot be converted to a rational function"
        )
    terms = {}
    for (k, _, _, _), c in p.terms.items():
        fr = Fraction(c).limit_denominator(10 ** 12)
        if abs(float(fr) - c) > 1e-12 * max(1.0, abs(c)):
            raise ClassMismatch(f"coefficient {c} is not recognizably rational")
        terms[tuple(k)] = QQ(fr.numerator, fr.denominator)
    return RationalFunction(p.chart, chart_field(p.chart).ring.from_dict(terms))


def rational_to_exppoly(r: RationalFunction) -> ExpPoly:
    num, den = r.frac.numer, r.frac.denom
    if not den.is_ground:
        raise ClassMismatch("non-constant denominator cannot become an ExpPoly")
    n = len(r.chart)
    d = Fraction(int(den.LC))
    terms = {}
    for monom, coeff in num.terms():
        key = (tuple(monom), (0.0,) * n, (0.0,) * n, KIND_ONE)
        terms[key] = float(Fraction(int(coeff.numerator), int(coeff.denominator)) / d)
    return ExpPoly(r.chart, terms)
