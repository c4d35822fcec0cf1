"""Exact multivariate rational functions and their log extension.

:class:`RationalFunction` holds an element of the rational function field
Q(chart) as a :class:`~liequad.qpoly.Frac` over the chart's variables in
chart order.  Numerator and denominator are coprime integer polynomials
with a positive lex-leading denominator coefficient, so every value has
one representation: equality and zero testing are structural.  Evaluation
runs Horner's method on the two polynomials, over Fractions at a point or
over the target field for a composition.
:class:`LogExtendedScalar` adjoins terms ``c * log(p)`` with exact rational
``c`` and primitive integer polynomial arguments ``p``; this is the closure
of the supported quadrature over rational coefficients.

One-variable antidifferentiation reduces the rational part with Hermite's
method and only accepts log terms whose coefficients, the residues of the
integrand, are rational constants; anything requiring algebraic or
complex log coefficients raises
:class:`~liequad.errors.NonElementaryInClass`.  Neither this module nor
:mod:`~liequad.hermite` loads sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import qpoly
from .errors import (BasepointOnPole, ClassMismatch, MismatchedVarSet, NonAffineExponentSubstitution,
                     NonElementaryInClass, PoleAtPoint)
from .exacttext import evaluate_text
from .liealg import mat_vec
from .qpoly import Frac
from .varset import VarSet

# the numbers a RationalFunction or a LogExtendedScalar takes as an operand; a
# float by its exact value
_NUMBERS = (int, Fraction, float)


def _to_fraction(value) -> Fraction:
    if isinstance(value, _NUMBERS):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _horner_scheme(poly: dict, n: int):
    """Nested sparse Horner form of an integer polynomial in n variables: a
    number at depth n, else the pairs (exponent, inner scheme) of the
    variable at that depth in descending exponent order."""
    return _nest(list(poly.items()), 0, n)


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

    check_mode = "exact"  # the mode a report names for a symbolic check in this class

    def __init__(self, chart: VarSet, value):
        """``value`` is a `Frac` over the chart's variables, in chart order,
        or an exact number.  A `Frac` carries no variable names, so only
        their count is checked: the caller must not pass one built over
        another chart of the same size."""
        if isinstance(value, Frac):
            if value.nvars != len(chart):
                raise MismatchedVarSet(f"value lies outside the field of chart {chart.names}")
        else:
            value = Frac.number(len(chart), _to_fraction(value))
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
        return cls(chart, Frac.gen(len(chart), chart.index(name)))

    @classmethod
    def parse(cls, chart: VarSet, text: str) -> "RationalFunction":
        """Exact value of document text over the chart variables (see
        :mod:`liequad.exacttext`); malformed text raises SchemaError."""
        n = len(chart)
        value = evaluate_text(
            text,
            {name: Frac.gen(n, i) for i, name in enumerate(chart.names)},
            number=lambda q: Frac.number(n, q),
            what="rational function",
            unbound=f"names must be chart variables {chart.names}",
        )
        return cls(chart, value)

    # ------------------------------------------------------------------
    # structure

    def _check_chart(self, other):
        if self.chart != other.chart:
            raise MismatchedVarSet(f"{self.chart.names} vs {other.chart.names}")

    def __add__(self, other):
        if isinstance(other, _NUMBERS):
            return RationalFunction(self.chart, self.frac + _to_fraction(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        return RationalFunction(self.chart, self.frac + other.frac)

    __radd__ = __add__

    @classmethod
    def sum(cls, items):
        """The left fold of `+` over one or more items."""
        return sum(items[1:], items[0])

    @classmethod
    def sums(cls, pairs) -> dict:
        """{key: the left fold of `+` over the items paired with key}; a key
        whose sum is zero is dropped and re-enters at the end."""
        out: dict = {}
        for key, x in pairs:
            out[key] = out[key] + x if key in out else x
            if out[key].is_zero():
                del out[key]
        return out

    def __neg__(self):
        return RationalFunction(self.chart, -self.frac)

    def __sub__(self, other):
        if not isinstance(other, (RationalFunction, *_NUMBERS)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            return RationalFunction(self.chart, self.frac * _to_fraction(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        return RationalFunction(self.chart, self.frac * other.frac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBERS):
            if other == 0:
                raise ZeroDivisionError("division by the zero rational function")
            return RationalFunction(self.chart, self.frac / _to_fraction(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check_chart(other)
        if not other.frac:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.chart, self.frac / other.frac)

    def __rtruediv__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        return RationalFunction.constant(self.chart, other) / self

    def __pow__(self, n: int):
        # x^0 is 1 for every x, as in `ExpPoly`; the field raises on 0**0
        return RationalFunction(self.chart, self.frac ** int(n) if n else 1)

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

    def is_zero(self) -> bool:
        return not self.frac

    def is_one(self) -> bool:
        return self.frac.is_one()

    def max_abs_coeff(self) -> float:
        """1.0 unless the function is zero: an exact residual has no size."""
        return 0.0 if self.is_zero() else 1.0

    def is_constant(self) -> bool:
        return self.frac.is_constant()

    def poles(self) -> tuple:
        """The sets a numeric check avoids: the zeros of a non-constant denominator."""
        den = self.frac.den
        if qpoly.is_constant(den):
            return ()
        return (RationalFunction(self.chart, Frac.polynomial(den, len(self.chart))),)

    def occurring(self) -> list[int]:
        """Positions of the variables in the numerator or denominator: the
        only ones with a nonzero derivative."""
        return [i for i, d in enumerate(self.frac.degrees()) if d > 0]

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        num = self.frac.num
        return Fraction(next(iter(num.values())) if num else 0, next(iter(self.frac.den.values())))

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "RationalFunction":
        return RationalFunction(self.chart, self.frac.diff(self.chart.index(name)))

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
                _horner_scheme(self.frac.num, n), _horner_scheme(self.frac.den, n)
            )
        num, den = self._schemes
        return _horner_eval(num, values), _horner_eval(den, values)

    def evaluate(self, point: Mapping[str, float]) -> float:
        """The exact value, rounded once."""
        return float(self.evaluate_exact(point))

    @classmethod
    def family(cls, chart: VarSet, members) -> "_Family":
        """The members, functions over chart, to be evaluated together."""
        return _Family(chart, members)

    def evaluate_exact(self, point: Mapping[str, Fraction]) -> Fraction:
        return self._exact_at([_to_fraction(point[n]) for n in self.chart.names], point)

    def _exact_at(self, values: list[Fraction], point: Mapping[str, object]) -> Fraction:
        """The exact value at `values`, the Fractions of `point` in chart order."""
        nval, dval = self._substitute(values)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)}")
        return Fraction(nval) / dval

    def compose(self, bindings: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        if bindings:
            target = next(iter(bindings.values())).chart
        else:
            target = self.chart
        n = len(target)
        point = []
        for name in self.chart.names:
            if name in bindings:
                b = bindings[name]
                if b.chart != target:
                    raise MismatchedVarSet("bindings must share one target chart")
                point.append(b.frac)
            elif name in target:
                point.append(Frac.gen(n, target.index(name)))
            else:
                raise MismatchedVarSet(f"unbound variable {name!r}")
        nval, dval = (v if isinstance(v, Frac) else Frac.number(n, v) for v in self._substitute(point))
        if not dval:
            raise PoleAtPoint("composition hits a pole identically")
        return RationalFunction(target, nval / dval)

    @classmethod
    def bind(cls, chart: VarSet, bindings: Mapping[str, "RationalFunction"]):
        return lambda f: f.compose(bindings)

    def map_component(self) -> "RationalFunction":
        return self

    def basepoint_value(self, point: Mapping[str, Fraction]) -> Fraction:
        """The exact value `forms.potential` subtracts at the basepoint."""
        try:
            return self.evaluate_exact(point)
        except PoleAtPoint as exc:
            raise BasepointOnPole(f"denominator vanishes on {point}") from exc

    def exp_matrix(self, E) -> list[list["RationalFunction"]]:
        """e^{fA} from the series that E = e^{tA} keeps for a nilpotent A."""
        if E.series is None:
            raise NonAffineExponentSubstitution("the matrix is not nilpotent, so its exponential has "
                                                "exponential/trig terms; cannot compose with a non-exponential scalar")
        powers = [self ** k for k in range(len(E.series))]
        return [mat_vec([[S[a][b] for S in E.series] for b in range(E.n)], powers) for a in range(E.n)]

    # ------------------------------------------------------------------
    # serialization

    def to_text(self) -> str:
        num, den, names = self.frac.num, self.frac.den, self.chart.names
        if qpoly.is_constant(den):
            # the canonical text writes a single term with a fractional
            # coefficient as (c*m)/(1), any other polynomial as its terms
            c = den[next(iter(den))]
            if c == 1 or len(num) > 1:
                return _poly_text(num, names, c)
            return f"({_poly_text(num, names, c)})/(1)"
        # the lex-leading denominator coefficient is positive, so is the content
        content = qpoly.content(den)
        return f"({_poly_text(num, names, content)})/({_poly_text(qpoly.quo_int(den, content), names)})"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


class _Family:
    """Rational functions over one chart, evaluated at N points one point
    at a time: the point is converted to Fractions once, and each member
    is evaluated on them by its Horner schemes."""

    __slots__ = ("names", "members")

    def __init__(self, chart: VarSet, members):
        for f in members:
            if f.chart != chart:
                raise MismatchedVarSet(f"{f.chart.names} vs {chart.names}")
        self.names = chart.names
        self.members = list(members)

    def evaluate(self, points) -> np.ndarray:
        """Values at N points (rows in chart order), as an N x m array with
        one column per member."""
        rows = points.tolist() if isinstance(points, np.ndarray) else points
        points = ((dict(zip(self.names, row)), [_to_fraction(x) for x in row]) for row in rows)
        values = [[float(f._exact_at(exact, point)) for f in self.members] for point, exact in points]
        return np.array(values, dtype=float).reshape(len(values), len(self.members))


def _poly_text(poly: dict, names, scale: int = 1) -> str:
    """The terms of poly / scale in descending lex order, each as
    coefficient * powers, joined by " + "."""
    if not poly:
        return "0"
    parts = []
    for monom, coeff in sorted(poly.items(), reverse=True):
        coeff = coeff // scale if coeff % scale == 0 else Fraction(coeff, scale)
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
    integer-polynomial arguments p_i (polynomial `Frac`s over the chart),
    pairwise distinct and sorted by their text."""

    __slots__ = ("chart", "rational_part", "log_terms")

    def __init__(self, chart: VarSet, rational_part: RationalFunction, log_terms):
        """Log arguments are polynomial RationalFunctions or polynomial
        `Frac`s over the chart."""
        if rational_part.chart != chart:
            raise MismatchedVarSet("rational part chart mismatch")
        merged: dict = {}
        for coeff, arg in log_terms:
            coeff = Fraction(coeff)
            arg = _normalize_log_argument(_log_argument(arg, chart), len(chart))
            if coeff == 0 or arg is None:
                continue
            merged[arg] = merged.get(arg, 0) + coeff
        self.chart = chart
        self.rational_part = rational_part
        self.log_terms = tuple(sorted(((c, a) for a, c in merged.items() if c != 0),
                                      key=lambda t: _poly_text(t[1].num, chart.names)))

    def map_component(self) -> RationalFunction:
        """The value as a component of a point map: rational, without log terms."""
        if self.log_terms:
            raise ClassMismatch("value carries log terms")
        return self.rational_part

    def basepoint_value(self, point: Mapping[str, Fraction]) -> Fraction:
        """The value of the rational part; log terms are left as they are."""
        return self.rational_part.basepoint_value(point)

    def exp_matrix(self, E) -> list[list[RationalFunction]]:
        """e^{fA} by `_log_factor`, or in the rational class without log terms."""
        return _log_factor(E, self) if self.log_terms else self.rational_part.exp_matrix(E)

    def __add__(self, other):
        if isinstance(other, _NUMBERS):
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
        if isinstance(other, _NUMBERS):
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

    def is_zero(self) -> bool:
        return self.rational_part.is_zero() and not self.log_terms

    def occurring(self) -> list[int]:
        """Positions of the variables in the rational part or a log argument."""
        used = set(self.rational_part.occurring())
        for _, a in self.log_terms:
            used.update(i for i, d in enumerate(a.degrees()) if d > 0)
        return sorted(used)

    def diff(self, name: str) -> RationalFunction:
        i = self.chart.index(name)
        out = self.rational_part.diff(name)
        for c, a in self.log_terms:
            out = out + RationalFunction(self.chart, a.diff(i) / a) * c
        return out

    def evaluate(self, point: Mapping[str, float]) -> float:
        """Numeric value using the log|p| convention for the log terms."""
        total = self.rational_part.evaluate(point)
        for c, a in self.log_terms:
            val = RationalFunction(self.chart, a).evaluate(point)
            if val == 0.0:
                raise PoleAtPoint(f"log argument vanishes at {dict(point)}")
            total += float(c) * math.log(abs(val))
        return total

    def to_text(self) -> str:
        parts = [self.rational_part.to_text()]
        # the argument text is the RationalFunction text of the argument
        for c, a in self.log_terms:
            parts.append(f"{c}*log({_poly_text(a.num, self.chart.names)})")
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


def _log_factor(E, f: LogExtendedScalar) -> list[list[RationalFunction]]:
    """exp of (sum c_i log p_i) times the adjoint: rational exactly when
    every eigenvalue times every log coefficient is an integer, turning
    e^{lambda f} into a product of integer powers p_i^{lambda c_i}.
    The classical integrating-factor situation."""
    chart = f.chart
    if not f.rational_part.is_zero():
        raise NonElementaryInClass(
            "quadrature produced a log term with a nonzero rational part and "
            "the next adjoint matrix is nonzero; the exponential factor "
            "leaves the supported class"
        )

    def _as_fraction(x: float) -> Fraction:
        fr = Fraction(x).limit_denominator(10 ** 9)
        if abs(float(fr) - x) > 1e-9 * max(1.0, abs(x)):
            raise NonElementaryInClass(
                f"matrix exponential coefficient {x} is not recognizably rational"
            )
        return fr

    out = []
    for row in E.entries:
        new_row = []
        for entry in row:
            acc = RationalFunction.zero(chart)
            for a, c in entry.exponential_terms():
                if a is None:
                    raise NonElementaryInClass(
                        "polynomial or trigonometric dependence on the "
                        "quadrature function leaves the supported class"
                    )
                lam = _as_fraction(a[0])
                piece = RationalFunction.constant(chart, _as_fraction(c))
                for coeff, arg in f.log_terms:
                    power = lam * coeff
                    if power.denominator != 1:
                        raise NonElementaryInClass(
                            f"factor needs the non-integer power {power} of a "
                            "log argument; outside the rational class"
                        )
                    if power != 0:
                        base = RationalFunction(chart, arg)
                        piece = piece * base ** int(power)
                acc = acc + piece
            new_row.append(acc)
        out.append(new_row)
    return out


def _log_argument(arg, chart: VarSet) -> dict:
    """A log argument, a polynomial RationalFunction or a polynomial `Frac`
    over the chart, as an integer polynomial (its numerator).  Of a `Frac`
    only the number of variables is checked, as in the constructor."""
    if isinstance(arg, RationalFunction):
        if arg.chart != chart:
            raise MismatchedVarSet("log argument chart mismatch")
        arg = arg.frac
    elif not (isinstance(arg, Frac) and arg.nvars == len(chart)):
        raise TypeError(f"cannot use {arg!r} as a log argument over {chart.names}")
    if not qpoly.is_constant(arg.den):
        raise ValueError(f"log argument {RationalFunction(chart, arg).to_text()} is not a polynomial")
    return arg.num


def _normalize_log_argument(arg: dict, n: int) -> Frac | None:
    """Factor out the content and fix the sign so arguments are primitive
    integer polynomials with positive lex-leading coefficient; None for a
    constant.  Dropped constants only shift the antiderivative by a
    constant."""
    if qpoly.is_constant(arg):
        return None
    prim = qpoly.primitive(arg)
    return Frac.polynomial(qpoly.neg(prim) if qpoly.leading_coeff(prim) < 0 else prim, n)
