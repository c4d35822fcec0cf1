"""Exact multivariate rational functions and their log extension.

:class:`RationalFunction` wraps a canceled sympy expression over the chart
symbols; all arithmetic is exact over Q and zero testing is decidable.
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

import sympy as sp

from .errors import ClassMismatch, MismatchedVarSet, PoleAtPoint
from .varset import VarSet

_SYMBOL_CACHE: dict[str, sp.Symbol] = {}


def _sym(name: str) -> sp.Symbol:
    s = _SYMBOL_CACHE.get(name)
    if s is None:
        s = sp.Symbol(name)
        _SYMBOL_CACHE[name] = s
    return s


def chart_symbols(chart: VarSet) -> tuple[sp.Symbol, ...]:
    return tuple(_sym(n) for n in chart.names)


def _to_rational(value) -> sp.Rational:
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, int):
        return sp.Integer(value)
    if isinstance(value, float):
        fr = Fraction(value)
        return sp.Rational(fr.numerator, fr.denominator)
    if isinstance(value, sp.Rational):
        return value
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class RationalFunction:
    __slots__ = ("chart", "expr")

    def __init__(self, chart: VarSet, expr):
        expr = sp.cancel(sp.together(sp.sympify(expr)))
        syms = set(chart_symbols(chart))
        free = expr.free_symbols
        if not free <= syms:
            raise MismatchedVarSet(
                f"expression uses symbols {free - syms} outside chart {chart.names}"
            )
        if not expr.is_rational_function(*chart_symbols(chart)):
            raise ValueError(f"not a rational function: {expr}")
        self.chart = chart
        self.expr = expr

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, chart: VarSet) -> "RationalFunction":
        return cls(chart, sp.Integer(0))

    @classmethod
    def one(cls, chart: VarSet) -> "RationalFunction":
        return cls(chart, sp.Integer(1))

    @classmethod
    def constant(cls, chart: VarSet, value) -> "RationalFunction":
        return cls(chart, _to_rational(value))

    @classmethod
    def coordinate(cls, chart: VarSet, name: str) -> "RationalFunction":
        chart.index(name)
        return cls(chart, _sym(name))

    @classmethod
    def parse(cls, chart: VarSet, text: str) -> "RationalFunction":
        local = {n: _sym(n) for n in chart.names}
        expr = sp.sympify(text.replace("^", "**"), locals=local, rational=True)
        return cls(chart, expr)

    # ------------------------------------------------------------------
    # structure

    @property
    def numerator(self):
        return sp.fraction(self.expr)[0]

    @property
    def denominator(self):
        return sp.fraction(self.expr)[1]

    def _check_chart(self, other):
        if self.chart != other.chart:
            raise MismatchedVarSet(f"{self.chart.names} vs {other.chart.names}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.chart, self.expr + _to_rational(other))
        if isinstance(other, LogExtendedScalar):
            return other + self
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        return RationalFunction(self.chart, self.expr + other.expr)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.chart, -self.expr)

    def __sub__(self, other):
        if isinstance(other, LogExtendedScalar):
            return (-other) + self
        return self + (-other if isinstance(other, RationalFunction) else -_to_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return RationalFunction(self.chart, self.expr * _to_rational(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        return RationalFunction(self.chart, self.expr * other.expr)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.chart, self.expr / _to_rational(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        if other.expr == 0:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.chart, self.expr / other.expr)

    def __pow__(self, n: int):
        return RationalFunction(self.chart, self.expr ** int(n))

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.chart == other.chart
            and sp.cancel(self.expr - other.expr) == 0
        )

    def __hash__(self):
        return hash((self.chart, self.expr))

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self, tol: float | None = None) -> bool:
        return self.expr == 0

    def is_constant(self) -> bool:
        return not self.expr.free_symbols

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        r = sp.Rational(self.expr)
        return Fraction(int(r.p), int(r.q))

    def is_polynomial(self) -> bool:
        return self.expr.is_polynomial(*chart_symbols(self.chart))

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "RationalFunction":
        return RationalFunction(self.chart, sp.diff(self.expr, _sym(name)))

    def antideriv(self, name: str):
        """Exact antiderivative in ``name`` within the rational+log class,
        without a fixed constant of integration (see `integrate_rational`)."""
        from .hermite import integrate_rational

        return integrate_rational(self, name)

    # ------------------------------------------------------------------
    # evaluation / substitution

    def _subs_exact(self, point: Mapping[str, object]):
        sub = {_sym(n): _to_rational(v) for n, v in point.items()}
        num, den = sp.fraction(self.expr)
        dval = den.subs(sub)
        nval = num.subs(sub)
        return nval, dval

    def evaluate(self, point: Mapping[str, float]) -> float:
        nval, dval = self._subs_exact(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)}")
        return float(nval) / float(dval)

    def evaluate_exact(self, point: Mapping[str, Fraction]) -> Fraction:
        nval, dval = self._subs_exact(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)}")
        r = sp.Rational(nval, dval)
        return Fraction(int(r.p), int(r.q))

    def substitute_partial(self, values: Mapping[str, object]) -> "RationalFunction":
        sub = {_sym(n): _to_rational(v) for n, v in values.items()}
        num, den = sp.fraction(self.expr)
        dval = den.subs(sub)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes on {dict(values)}")
        return RationalFunction(self.chart, num.subs(sub) / dval)

    def compose(self, bindings: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        if bindings:
            target = next(iter(bindings.values())).chart
        else:
            target = self.chart
        sub = {}
        for name in self.chart.names:
            if name in bindings:
                b = bindings[name]
                if b.chart != target:
                    raise MismatchedVarSet("bindings must share one target chart")
                sub[_sym(name)] = b.expr
            elif name in target:
                sub[_sym(name)] = _sym(name)
            else:
                raise MismatchedVarSet(f"unbound variable {name!r}")
        expr = sp.cancel(sp.together(self.expr.subs(sub, simultaneous=True)))
        if expr.has(sp.zoo) or expr.has(sp.nan):
            raise PoleAtPoint("composition hits a pole identically")
        return RationalFunction(target, expr)

    # ------------------------------------------------------------------
    # serialization

    def to_text(self) -> str:
        num, den = sp.fraction(self.expr)
        syms = chart_symbols(self.chart)
        if den == 1:
            return _poly_text(num, syms)
        den_poly = sp.Poly(den, *syms)
        content, prim = den_poly.primitive()
        if prim.LC(order="lex") < 0:
            content, prim = -content, -prim
        num_scaled = sp.expand(num / content)
        return f"({_poly_text(num_scaled, syms)})/({_poly_text(prim.as_expr(), syms)})"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


def _poly_text(expr, syms) -> str:
    expr = sp.expand(expr)
    if expr == 0:
        return "0"
    poly = sp.Poly(expr, *syms)
    parts = []
    for monom, coeff in poly.terms(order="lex"):
        factors = []
        if all(m == 0 for m in monom):
            factors.append(str(coeff))
        else:
            if coeff == -1:
                factors.append("-1")
            elif coeff != 1:
                factors.append(str(coeff))
            for s, m in zip(syms, monom):
                if m == 1:
                    factors.append(str(s))
                elif m > 1:
                    factors.append(f"{s}^{m}")
        parts.append("*".join(factors))
    return " + ".join(parts)


class LogExtendedScalar:
    """rational part + sum of c_i * log(p_i) with rational c_i and primitive
    integer-polynomial arguments p_i, pairwise distinct."""

    __slots__ = ("chart", "rational_part", "log_terms")

    def __init__(self, chart: VarSet, rational_part: RationalFunction, log_terms):
        if rational_part.chart != chart:
            raise MismatchedVarSet("rational part chart mismatch")
        merged: dict = {}
        order: list = []
        for coeff, arg in log_terms:
            coeff = Fraction(coeff)
            arg = sp.expand(sp.sympify(arg))
            coeff, arg = _normalize_log_argument(coeff, arg, chart)
            if coeff == 0 or arg == 1:
                continue
            key = sp.srepr(arg)
            if key in merged:
                merged[key] = (merged[key][0] + coeff, arg)
            else:
                merged[key] = (coeff, arg)
                order.append(key)
        self.chart = chart
        self.rational_part = rational_part
        self.log_terms = tuple(
            merged[k] for k in order if merged[k][0] != 0
        )

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

    def diff(self, name: str) -> RationalFunction:
        s = _sym(name)
        out = self.rational_part.diff(name)
        for c, a in self.log_terms:
            out = out + RationalFunction(self.chart, sp.diff(a, s) / a) * c
        return out

    def evaluate(self, point: Mapping[str, float]) -> float:
        """Numeric value using the log|p| convention for the log terms."""
        total = self.rational_part.evaluate(point)
        sub = {_sym(n): _to_rational(v) for n, v in point.items()}
        for c, a in self.log_terms:
            val = float(a.subs(sub))
            if val == 0.0:
                raise PoleAtPoint(f"log argument vanishes at {dict(point)}")
            total += float(c) * math.log(abs(val))
        return total

    def to_text(self) -> str:
        syms = chart_symbols(self.chart)
        parts = [self.rational_part.to_text()]
        for c, a in sorted(self.log_terms, key=lambda t: sp.srepr(t[1])):
            parts.append(f"{sp.Rational(c.numerator, c.denominator)}*log({_poly_text(a, syms)})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LogExtendedScalar({self.to_text()})"

    def __eq__(self, other):
        return (
            isinstance(other, LogExtendedScalar)
            and self.chart == other.chart
            and self.rational_part == other.rational_part
            and sorted(
                ((c, sp.srepr(a)) for c, a in self.log_terms)
            )
            == sorted(((c, sp.srepr(a)) for c, a in other.log_terms))
        )


def _normalize_log_argument(coeff: Fraction, arg, chart: VarSet):
    """Factor out rational content and fix the sign so arguments are
    primitive integer polynomials with positive lex-leading coefficient.
    Dropped constants only shift the antiderivative by a constant."""
    syms = chart_symbols(chart)
    if not arg.free_symbols:
        return Fraction(0), sp.Integer(1)
    poly = sp.Poly(arg, *syms)
    _, prim = poly.primitive()
    if prim.LC(order="lex") < 0:
        prim = -prim
    return coeff, prim.as_expr()
