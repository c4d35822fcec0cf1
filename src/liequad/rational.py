"""Exact multivariate rational functions and their log extension.

:class:`RationalFunction` holds an element of the rational function field
Q(chart), one sympy sparse field per chart (``sympy.polys.fields``).  The
field keeps numerator and denominator as coprime integer polynomials with
a positive lex-leading denominator coefficient, so every value has one
representation: arithmetic never runs a separate cancellation, and
equality and zero testing are structural.  Evaluation runs Horner's
method on the two polynomials, over Fractions at a point or over the
target field for a composition.
:class:`LogExtendedScalar` adjoins terms ``c * log(p)`` with exact rational
``c`` and primitive integer polynomial arguments ``p``; this is the closure
of the supported quadrature over rational coefficients.

One-variable antidifferentiation reduces the rational part with Hermite's
method and only accepts log arguments that arise from exact factorization
over Q; anything requiring algebraic or complex log arguments raises
:class:`~liequad.errors.NonElementaryInClass`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.rings import PolyElement

from .errors import ClassMismatch, MismatchedVarSet, PoleAtPoint
from .exacttext import evaluate_text
from .varset import VarSet

_FIELDS: dict[tuple[str, ...], FracField] = {}


def chart_field(chart: VarSet) -> FracField:
    """Q(chart), built once per chart; its generators follow the chart order
    and its monomial order is lex."""
    K = _FIELDS.get(chart.names)
    if K is None:
        K = FracField(tuple(sp.Symbol(n) for n in chart.names), QQ)
        _FIELDS[chart.names] = K
    return K


def _to_fraction(value) -> Fraction:
    if isinstance(value, (Fraction, int, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _to_rational(value):
    """An exact number as an element of QQ (field arithmetic can return
    such elements, since a zero operand yields the other one unchanged)."""
    if isinstance(value, QQ.dtype):
        return value
    q = _to_fraction(value)
    return QQ(q.numerator, q.denominator)


def _integer_or_fraction(c):
    return int(c.numerator) if c.denominator == 1 else Fraction(int(c.numerator), int(c.denominator))


def _horner_scheme(poly: PolyElement, n: int):
    """Nested sparse Horner form of a polynomial in n variables: a number at
    depth n, else the pairs (exponent, inner scheme) of the variable at
    that depth in descending exponent order."""
    return _nest([(m, _integer_or_fraction(c)) for m, c in poly.items()], 0, n)


def _nest(terms, depth: int, n: int):
    if depth == n:
        return terms[0][1]
    groups: dict[int, list] = {}
    for m, c in terms:
        groups.setdefault(m[depth], []).append((m, c))
    return tuple((e, _nest(groups[e], depth + 1, n)) for e in sorted(groups, reverse=True))


def _horner_eval(scheme, values, depth: int = 0):
    """Value of a Horner scheme at values (one per variable) in any ring
    that adds and multiplies with integers; the empty scheme is 0."""
    if depth == len(values):
        return scheme
    if not scheme:
        return 0
    x = values[depth]
    prev, inner = scheme[0]
    acc = _horner_eval(inner, values, depth + 1)
    for e, inner in scheme[1:]:
        acc = acc * x ** (prev - e) + _horner_eval(inner, values, depth + 1)
        prev = e
    return acc * x ** prev if prev else acc


class RationalFunction:
    __slots__ = ("chart", "frac", "_schemes")

    def __init__(self, chart: VarSet, value):
        """``value`` is an element of ``chart_field(chart)`` or anything it
        converts: a polynomial of its ring or an exact number."""
        K = chart_field(chart)
        if isinstance(value, FracElement):
            if value.field is not K:
                raise MismatchedVarSet(f"value lies outside the field of chart {chart.names}")
        elif isinstance(value, PolyElement):
            if value.ring is not K.ring:
                raise MismatchedVarSet(f"value lies outside the field of chart {chart.names}")
            value = K(value)
        else:
            value = K(_to_rational(value))
        self.chart = chart
        self.frac = value
        self._schemes = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, chart: VarSet) -> "RationalFunction":
        return cls(chart, 0)

    @classmethod
    def one(cls, chart: VarSet) -> "RationalFunction":
        return cls(chart, 1)

    @classmethod
    def constant(cls, chart: VarSet, value) -> "RationalFunction":
        return cls(chart, value)

    @classmethod
    def coordinate(cls, chart: VarSet, name: str) -> "RationalFunction":
        return cls(chart, chart_field(chart).gens[chart.index(name)])

    @classmethod
    def parse(cls, chart: VarSet, text: str) -> "RationalFunction":
        """Exact value of document text over the chart variables (see
        :mod:`liequad.exacttext`); malformed text raises SchemaError."""
        K = chart_field(chart)
        value = evaluate_text(
            text,
            dict(zip(chart.names, K.gens)),
            number=lambda q: K(QQ(q.numerator, q.denominator)),
            what="rational function",
            unbound=f"names must be chart variables {chart.names}",
        )
        return cls(chart, value)

    # ------------------------------------------------------------------
    # structure

    @property
    def expr(self) -> sp.Expr:
        """The value as a sympy expression, built on each access."""
        return self.frac.as_expr()

    def _check_chart(self, other):
        if self.chart != other.chart:
            raise MismatchedVarSet(f"{self.chart.names} vs {other.chart.names}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.chart, self.frac + _to_rational(other))
        if isinstance(other, LogExtendedScalar):
            return other + self
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        return RationalFunction(self.chart, self.frac + other.frac)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.chart, -self.frac)

    def __sub__(self, other):
        if isinstance(other, LogExtendedScalar):
            return (-other) + self
        return self + (-other if isinstance(other, RationalFunction) else -_to_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return RationalFunction(self.chart, self.frac * _to_rational(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        return RationalFunction(self.chart, self.frac * other.frac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by the zero rational function")
            return RationalFunction(self.chart, self.frac / _to_rational(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        if not other.frac:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.chart, self.frac / other.frac)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RationalFunction.constant(self.chart, other) / self

    def __pow__(self, n: int):
        return RationalFunction(self.chart, self.frac ** int(n))

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.chart == other.chart
            and self.frac == other.frac
        )

    def __hash__(self):
        return hash((self.chart, self.frac))

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self, tol: float | None = None) -> bool:
        return not self.frac

    def is_constant(self) -> bool:
        return self.frac.numer.is_ground and self.frac.denom.is_ground

    def occurring(self) -> list[int]:
        """Positions of the variables in the numerator or denominator: the
        only ones with a nonzero derivative."""
        degrees = zip(self.frac.numer.degrees(), self.frac.denom.degrees())
        return [i for i, (p, q) in enumerate(degrees) if p > 0 or q > 0]

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(_integer_or_fraction(self.frac.numer.LC)) / _integer_or_fraction(
            self.frac.denom.LC
        )

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "RationalFunction":
        x = chart_field(self.chart).gens[self.chart.index(name)]
        return RationalFunction(self.chart, self.frac.diff(x))

    def antideriv(self, name: str):
        """Exact antiderivative in ``name`` within the rational+log class,
        without a fixed constant of integration (see `integrate_rational`)."""
        from .hermite import integrate_rational

        return integrate_rational(self, name)

    # ------------------------------------------------------------------
    # evaluation / substitution

    def _substitute(self, values: list):
        """(numerator, denominator) at one value per chart variable."""
        if self._schemes is None:
            n = len(self.chart)
            self._schemes = (
                _horner_scheme(self.frac.numer, n), _horner_scheme(self.frac.denom, n)
            )
        num, den = self._schemes
        return _horner_eval(num, values), _horner_eval(den, values)

    def _point(self, point: Mapping[str, object]) -> list[Fraction]:
        return [_to_fraction(point[n]) for n in self.chart.names]

    def evaluate(self, point: Mapping[str, float]) -> float:
        nval, dval = self._substitute(self._point(point))
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)}")
        if self.frac.denom.is_ground and len(self.frac.numer) > 1:
            # a polynomial with several terms is rounded once, as one exact
            # sum; report numbers depend on this rounding bit for bit
            return float(Fraction(nval) / dval)
        return float(nval) / float(dval)

    def evaluate_batch(self, points) -> np.ndarray:
        """Values at N points (rows in chart order), one Horner evaluation
        per row."""
        names = self.chart.names
        rows = points.tolist() if isinstance(points, np.ndarray) else points
        return np.array([self.evaluate(dict(zip(names, row))) for row in rows], dtype=float)

    def evaluate_exact(self, point: Mapping[str, Fraction]) -> Fraction:
        nval, dval = self._substitute(self._point(point))
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)}")
        return Fraction(nval) / dval

    def compose(self, bindings: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        if bindings:
            target = next(iter(bindings.values())).chart
        else:
            target = self.chart
        K = chart_field(target)
        point = []
        for name in self.chart.names:
            if name in bindings:
                b = bindings[name]
                if b.chart != target:
                    raise MismatchedVarSet("bindings must share one target chart")
                point.append(b.frac)
            elif name in target:
                point.append(K.gens[target.index(name)])
            else:
                raise MismatchedVarSet(f"unbound variable {name!r}")
        nval, dval = self._substitute(point)
        if not dval:
            raise PoleAtPoint("composition hits a pole identically")
        return RationalFunction(target, K(nval) / K(dval))

    # ------------------------------------------------------------------
    # serialization

    def to_text(self) -> str:
        num, den = self.frac.numer, self.frac.denom
        if den.is_ground:
            # the canonical text writes a single term with a fractional
            # coefficient as (c*m)/(1), any other polynomial as its terms
            if den.LC == 1 or len(num) > 1:
                return _poly_text(num.quo_ground(den.LC))
            return f"({_poly_text(num.quo_ground(den.LC))})/(1)"
        # the field keeps the lex-leading denominator coefficient positive
        content, prim = den.primitive()
        return f"({_poly_text(num.quo_ground(content))})/({_poly_text(prim)})"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


def _poly_text(poly: PolyElement) -> str:
    """Terms in lex order, each as coefficient * powers, joined by " + "."""
    if not poly:
        return "0"
    names = [str(s) for s in poly.ring.symbols]
    parts = []
    for monom, coeff in poly.terms():
        coeff = _integer_or_fraction(coeff)
        factors = []
        if not any(monom):
            factors.append(str(coeff))
        else:
            if coeff == -1:
                factors.append("-1")
            elif coeff != 1:
                factors.append(str(coeff))
            for s, m in zip(names, monom):
                if m == 1:
                    factors.append(s)
                elif m > 1:
                    factors.append(f"{s}^{m}")
        parts.append("*".join(factors))
    return " + ".join(parts)


class LogExtendedScalar:
    """rational part + sum of c_i * log(p_i) with rational c_i and primitive
    integer-polynomial arguments p_i (elements of the chart field's
    polynomial ring), pairwise distinct."""

    __slots__ = ("chart", "rational_part", "log_terms")

    def __init__(self, chart: VarSet, rational_part: RationalFunction, log_terms):
        """Log arguments are polynomials of the chart ring, polynomial
        RationalFunctions or field elements, or sympy expressions, which
        are converted once."""
        if rational_part.chart != chart:
            raise MismatchedVarSet("rational part chart mismatch")
        merged: dict = {}
        for coeff, arg in log_terms:
            coeff = Fraction(coeff)
            arg = _normalize_log_argument(_log_argument(arg, chart))
            if coeff == 0 or arg is None:
                continue
            merged[arg] = merged.get(arg, 0) + coeff
        self.chart = chart
        self.rational_part = rational_part
        self.log_terms = tuple((c, a) for a, c in merged.items() if c != 0)

    @property
    def is_pure_rational(self) -> bool:
        return not self.log_terms

    def as_rational(self) -> RationalFunction:
        if self.log_terms:
            raise ClassMismatch("value carries log terms")
        return self.rational_part

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(self.chart, other)
        if isinstance(other, RationalFunction):
            return LogExtendedScalar(
                self.chart, self.rational_part + other, self.log_terms
            )
        if not isinstance(other, LogExtendedScalar):
            return NotImplemented
        if other.chart != self.chart:
            raise MismatchedVarSet("chart mismatch")
        return LogExtendedScalar(
            self.chart,
            self.rational_part + other.rational_part,
            list(self.log_terms) + list(other.log_terms),
        )

    __radd__ = __add__

    def __neg__(self):
        return LogExtendedScalar(
            self.chart,
            -self.rational_part,
            [(-c, a) for c, a in self.log_terms],
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return LogExtendedScalar(
                self.chart,
                self.rational_part * q,
                [(c * q, a) for c, a in self.log_terms],
            )
        if isinstance(other, RationalFunction) and other.is_constant():
            return self * other.constant_value()
        raise ClassMismatch("log-extended scalars only scale by exact constants")

    __rmul__ = __mul__

    def is_zero(self, tol: float | None = None) -> bool:
        return self.rational_part.is_zero() and not self.log_terms

    def occurring(self) -> list[int]:
        """Positions of the variables in the rational part or a log argument."""
        used = set(self.rational_part.occurring())
        for _, a in self.log_terms:
            used.update(i for i, d in enumerate(a.degrees()) if d > 0)
        return sorted(used)

    def diff(self, name: str) -> RationalFunction:
        K = chart_field(self.chart)
        x = K.ring.gens[self.chart.index(name)]
        out = self.rational_part.diff(name)
        for c, a in self.log_terms:
            out = out + RationalFunction(self.chart, K(a.diff(x)) / K(a)) * c
        return out

    def evaluate(self, point: Mapping[str, float]) -> float:
        """Numeric value using the log|p| convention for the log terms."""
        total = self.rational_part.evaluate(point)
        values = [_to_fraction(point[n]) for n in self.chart.names]
        for c, a in self.log_terms:
            val = float(_horner_eval(_horner_scheme(a, len(values)), values))
            if val == 0.0:
                raise PoleAtPoint(f"log argument vanishes at {dict(point)}")
            total += float(c) * math.log(abs(val))
        return total

    def to_text(self) -> str:
        parts = [self.rational_part.to_text()]
        for c, a in sorted(self.log_terms, key=lambda t: sp.srepr(t[1].as_expr())):
            parts.append(f"{c}*log({_poly_text(a)})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LogExtendedScalar({self.to_text()})"

    def __eq__(self, other):
        return (
            isinstance(other, LogExtendedScalar)
            and self.chart == other.chart
            and self.rational_part == other.rational_part
            and {a: c for c, a in self.log_terms} == {a: c for c, a in other.log_terms}
        )


def _log_argument(arg, chart: VarSet) -> PolyElement:
    """A log argument as a polynomial of the chart field's ring."""
    K = chart_field(chart)
    if isinstance(arg, RationalFunction):
        if arg.chart != chart:
            raise MismatchedVarSet("log argument chart mismatch")
        arg = arg.frac
    elif isinstance(arg, sp.Expr):
        arg = K.from_expr(arg)
    if isinstance(arg, FracElement):
        if arg.field != K:
            raise MismatchedVarSet("log argument chart mismatch")
        if not arg.denom.is_ground:
            raise ValueError(f"log argument {arg} is not a polynomial")
        return arg.numer
    if isinstance(arg, PolyElement) and arg.ring == K.ring:
        return arg
    raise TypeError(f"cannot use {arg!r} as a log argument over {chart.names}")


def _normalize_log_argument(arg: PolyElement) -> PolyElement | None:
    """Factor out rational content and fix the sign so arguments are
    primitive integer polynomials with positive lex-leading coefficient;
    None for a constant.  Dropped constants only shift the antiderivative
    by a constant."""
    if arg.is_ground:
        return None
    _, prim = arg.primitive()
    return -prim if prim.LC < 0 else prim
