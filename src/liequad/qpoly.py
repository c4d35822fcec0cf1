"""The rational function field Q(x_1, ..., x_n), sparse and exact.

An integer polynomial is a dict {exponents: coefficient}: each key is a
tuple of n exponents, each value a nonzero int; lex order is tuple order,
so ``max(f)`` is the lex-leading monomial.  A polynomial is never changed
once built, so results may share their operands.

A :class:`Frac` is an element of Q(x_1, ..., x_n): numerator and
denominator are integer polynomials, coprime in Z[x_1, ..., x_n], and the
lex-leading denominator coefficient is positive.  Every element has that
one representation, so equality and hashing are structural.  Arithmetic
cancels with the fewest gcds (Henrici): a product cancels its two crosswise
pairs, a sum the gcd of the denominators and then the gcd of the new
numerator with that gcd.

A gcd of two polynomials takes a shortcut when one of them is a single
term (a monomial or a constant).  Otherwise it is the heuristic gcd (Char,
Geddes & Gonnet 1989, *J. Symbolic Comput.* 7:31-48): evaluate one
variable at a large integer, take the gcd of the images one variable
fewer, read the candidate back from its balanced digits, and keep it only
when it divides both operands exactly.  When six evaluation points give
no candidate, the subresultant pseudo-remainder sequence (Collins 1967;
Brown & Traub 1971) computes the gcd; its exact divisions keep the
coefficients from growing exponentially.

`square_free` is Yun's square-free split (Yun 1976) over Z, in one
variable over the field of the others: `matexp` splits a characteristic
polynomial with it, `hermite` a denominator and a residue polynomial.
`low_factors`, the one root step of both, finds the integer factors of
degree 1 and 2 of a polynomial in one variable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add as _add_exp, sub as _sub_exp

import numpy as np

_ONES: dict[int, dict] = {}


# ----------------------------------------------------------------------
# integer polynomials


def one(n: int) -> dict:
    """The constant 1 in n variables, one shared dict per n."""
    f = _ONES.get(n)
    if f is None:
        f = _ONES[n] = {(0,) * n: 1}
    return f


def constant(n: int, c: int) -> dict:
    return {(0,) * n: c} if c else {}


def is_constant(f: dict) -> bool:
    """f is 0 or a single term without variables."""
    return not f or (len(f) == 1 and not any(next(iter(f))))


def is_one(f: dict) -> bool:
    return len(f) == 1 and next(iter(f.values())) == 1 and not any(next(iter(f)))


def is_unit(f: dict) -> bool:
    """f is the constant 1 or -1."""
    return len(f) == 1 and abs(next(iter(f.values()))) == 1 and not any(next(iter(f)))


def leading_coeff(f: dict) -> int:
    return f[max(f)]


def degree(f: dict, i: int) -> int:
    """The degree of f in x_i; -1 for f = 0."""
    return max((m[i] for m in f), default=-1)


def neg(f: dict) -> dict:
    return {m: -c for m, c in f.items()}


def add(f: dict, g: dict) -> dict:
    if len(f) < len(g):
        f, g = g, f
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def sub(f: dict, g: dict) -> dict:
    return add(f, neg(g))


def scale(f: dict, c: int) -> dict:
    if c == 1:
        return f
    return {m: a * c for m, a in f.items()} if c else {}


def quo_int(f: dict, c: int) -> dict:
    """f / c for an integer c that divides every coefficient."""
    if c == 1:
        return f
    return {m: a // c for m, a in f.items()}


def mul(f: dict, g: dict) -> dict:
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        ((mg, cg),) = g.items()
        return {tuple(map(_add_exp, m, mg)): c * cg for m, c in f.items()}
    out: dict = {}
    get = out.get
    for mg, cg in g.items():
        for mf, cf in f.items():
            m = tuple(map(_add_exp, mf, mg))
            out[m] = get(m, 0) + cf * cg
    return {m: c for m, c in out.items() if c}


def power(f: dict, k: int, n: int) -> dict:
    """f^k for k >= 0 by repeated squaring; f^0 is 1."""
    if len(f) == 1:
        ((m, c),) = f.items()
        return {tuple(e * k for e in m): c**k}
    out = one(n)
    while k:
        if k & 1:
            out = mul(out, f)
        k >>= 1
        if k:
            f = mul(f, f)
    return out


def diff(f: dict, i: int) -> dict:
    out = {}
    for m, c in f.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
    return out


def content(f: dict) -> int:
    """The positive gcd of the coefficients; 0 for f = 0."""
    return math.gcd(*f.values())


def primitive(f: dict) -> dict:
    return quo_int(f, content(f))


def divexact(f: dict, g: dict) -> dict | None:
    """f / g when the nonzero g divides f in Z[x], else None.  Division by
    the lex-leading term: each step cancels the leading term of the
    remainder, whose monomials only decrease."""
    if len(g) == 1:
        ((mg, cg),) = g.items()
        out = {}
        for m, c in f.items():
            q, r = divmod(c, cg)
            e = tuple(map(_sub_exp, m, mg))
            if r or min(e) < 0:
                return None
            out[e] = q
        return out
    mg = max(g)
    cg = g[mg]
    rest = [(m, c) for m, c in g.items() if m != mg]
    r = dict(f)
    q = {}
    while r:
        m = max(r)
        qc, rem = divmod(r.pop(m), cg)
        e = tuple(map(_sub_exp, m, mg))
        if rem or min(e) < 0:
            return None
        q[e] = qc
        for m2, c2 in rest:
            k = tuple(map(_add_exp, e, m2))
            s = r.get(k, 0) - qc * c2
            if s:
                r[k] = s
            else:
                del r[k]
    return q


def gcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) with h a gcd of the polynomials f and g in Z[x] (of
    either sign), not both zero; a gcd with 0 is the other operand."""
    if not g:
        return f, one(len(next(iter(f)))), {}
    if not f:
        return g, {}, one(len(next(iter(g))))
    if len(f) == 1:
        return _gcd_term(f, g)
    if len(g) == 1:
        h, cg, cf = _gcd_term(g, f)
        return h, cf, cg
    n = len(next(iter(f)))
    active = [i for i in range(n) if degree(f, i) > 0 or degree(g, i) > 0]
    return _heugcd(f, g, active) or prs_gcd(f, g)


def _gcd_term(t: dict, g: dict) -> tuple[dict, dict, dict]:
    """gcd with the single term t: the gcd of the coefficients times the
    least power of each variable."""
    ((mt, ct),) = t.items()
    c, m = abs(ct), mt
    for mg, cg in g.items():
        c = math.gcd(c, cg)
        m = tuple(map(min, m, mg))
        if c == 1 and not any(m):
            return one(len(m)), t, g
    return (
        {m: c},
        {tuple(map(_sub_exp, mt, m)): ct // c},
        {tuple(map(_sub_exp, mg, m)): cg // c for mg, cg in g.items()},
    )


def _heugcd(f: dict, g: dict, active: list[int]) -> tuple[dict, dict, dict] | None:
    """Heuristic gcd of f and g in Z[x_i : i in active] (every other
    exponent zero), with cofactors; None when six evaluation points give
    no candidate.  The first point is at least 2 min(|f|, |g|) + 2, the
    bound under which a candidate that divides both operands is their
    gcd."""
    if not active:
        ((z, a),) = f.items()
        b = g[z]
        h = math.gcd(a, b)
        return {z: h}, {z: a // h}, {z: b // h}
    c = math.gcd(content(f), content(g))
    f, g = quo_int(f, c), quo_int(g, c)
    i, rest = active[0], active[1:]
    x = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        ff, gg = _evaluate(f, i, x), _evaluate(g, i, x)
        if ff and gg:
            images = _heugcd(ff, gg, rest)
            if images is None:
                return None
            h, cff, cfg = images
            h = primitive(_interpolate(h, i, x))
            qf = divexact(f, h)
            if qf is not None:
                qg = divexact(g, h)
                if qg is not None:
                    return scale(h, c), qf, qg
            cff = _interpolate(cff, i, x)
            h = divexact(f, cff)
            if h is not None:
                qg = divexact(g, h)
                if qg is not None:
                    return scale(h, c), cff, qg
            cfg = _interpolate(cfg, i, x)
            h = divexact(g, cfg)
            if h is not None:
                qf = divexact(f, h)
                if qf is not None:
                    return scale(h, c), qf, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def _evaluate(f: dict, i: int, x: int) -> dict:
    """f at x_i = x, with the exponent of x_i set to zero."""
    out: dict = {}
    for m, c in f.items():
        e = m[i]
        if e:
            c *= x**e
            m = m[:i] + (0,) + m[i + 1:]
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _interpolate(h: dict, i: int, x: int) -> dict:
    """The polynomial in x_i whose coefficients are the balanced base-x
    digits of h's coefficients (h has no x_i)."""
    out = {}
    half = x // 2
    k = 0
    while h:
        high = {}
        for m, c in h.items():
            r = c % x
            if r > half:
                r -= x
            if r:
                out[m[:i] + (k,) + m[i + 1:]] = r
            q = (c - r) // x
            if q:
                high[m] = q
        h = high
        k += 1
    return out


def prs_gcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) by the subresultant PRS in the first variable of f or
    g, contents by `gcd` in the others; f and g have two terms or more."""
    n = len(next(iter(f)))
    i = next(i for i in range(n) if degree(f, i) > 0 or degree(g, i) > 0)
    cf, pf = primitive_in(f, i)
    cg, pg = primitive_in(g, i)
    if degree(pf, i) < degree(pg, i):
        pf, pg = pg, pf
    beta = psi = one(n)
    while degree(pg, i) > 0:
        d = degree(pf, i) - degree(pg, i)
        r = _pseudo_remainder(pf, pg, i)
        if not r:
            break
        pf, pg = pg, divexact(r, mul(beta, power(psi, d, n)))
        beta = coefficients_in(pf, i)[degree(pf, i)]
        if d:
            psi = divexact(power(beta, d, n), power(psi, d - 1, n))
    else:  # a remainder free of x_i: the primitive parts are coprime
        pg = one(n)
    h = mul(gcd(cf, cg)[0], primitive_in(pg, i)[1])
    return h, divexact(f, h), divexact(g, h)


def coefficients_in(f: dict, i: int) -> dict[int, dict]:
    """{k: the coefficient of x_i^k}, each without x_i."""
    out: dict[int, dict] = {}
    for m, c in f.items():
        out.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    return out


def primitive_in(f: dict, i: int) -> tuple[dict, dict]:
    """(content, primitive part) of f as a polynomial in x_i over the
    integer polynomials in the other variables."""
    coeffs = iter(coefficients_in(f, i).values())
    cont = next(coeffs)
    for a in coeffs:
        if is_one(cont):
            break
        cont = gcd(cont, a)[0]
    return cont, divexact(f, cont)


def square_free(f: dict, i: int) -> list[tuple[dict, int]]:
    """Yun's split of f in x_i over Q(the other variables): [(a_k, k)], k
    increasing, f's primitive part in x_i the product of the a_k^k up to
    sign, each a_k primitive with a positive lex-leading coefficient; []
    for f of degree 0 in x_i."""
    if degree(f, i) <= 0:
        return []
    f = primitive_in(f, i)[1]
    _, b, c = gcd(f, diff(f, i))
    out, k = [], 0
    while degree(b, i) > 0:
        k += 1
        d = sub(c, diff(b, i))
        a, b, c = gcd(b, d)
        if degree(a, i) > 0:
            out.append((neg(a) if leading_coeff(a) < 0 else a, k))
    return out


def low_factors(f: dict) -> tuple[list[dict], list[complex]]:
    """(factors, roots) of a monic square-free integer f in one variable:
    monic integer factors of degree 1 or 2 (integer roots split off) whose
    product is f, and []; or those found and the numeric roots of a
    leftover of degree >= 3.  Candidates come from the numeric roots,
    rounded (`_newton`) or, above degree 2, paired, and divide f exactly."""
    out = []
    while (m := degree(f, 0)) > 1:
        # t = z / 2^k, the roots of f(2^k t) / 2^(km), whose coefficients are below 2^961
        k = max([0] + [(abs(c).bit_length() - 960) // (m - e) + 1 for (e,), c in f.items() if e < m])
        unit = 2**k
        coeffs = [f.get((e,), 0) / unit ** (m - e) for e in range(m, -1, -1)]
        ts = [complex(t) for t in np.roots(coeffs)]
        candidates = [[-_newton(f, round(Fraction(t.real) * unit)), 1] for t in ts]
        if m > 2:
            candidates += [[round(Fraction((t * w).real) * unit**2), -round(Fraction((t + w).real) * unit), 1]
                           for i, t in enumerate(ts) for w in ts[i + 1:]]
        for g in candidates:
            g = {(e,): c for e, c in enumerate(g) if c}
            quo = divexact(f, g)
            if quo is not None:
                out.append(g)
                f = quo
                break
        else:
            if m > 2:
                return out, [t * unit for t in ts]
            break
    return out + [f], []


def _newton(f: dict, y: int) -> int:
    """y after Newton steps for f on the integers, each rounded, while they
    shrink: they end on an integer root that a float only approximates."""
    df, step = diff(f, 0), math.inf
    while True:
        num, den = (_evaluate(g, 0, y).get((0,), 0) for g in (f, df))
        new = round(Fraction(num, den)) if den else 0
        if not new or abs(new) >= step:
            return y
        y, step = y - new, abs(new)


def _pseudo_remainder(f: dict, g: dict, i: int) -> dict:
    """The remainder of lc(g)^(deg f - deg g + 1) f by g in x_i, deg f >=
    deg g: one multiplication by lc(g) per degree, even where f has no
    term of that degree."""
    dg = degree(g, i)
    lg = coefficients_in(g, i)[dg]
    n = len(next(iter(g)))
    for d in range(degree(f, i), dg - 1, -1):
        lf = coefficients_in(f, i).get(d)
        f = mul(lg, f)
        if lf is not None:
            shift = {tuple(d - dg if j == i else 0 for j in range(n)): 1}
            f = sub(f, mul(mul(lf, shift), g))
    return f


# ----------------------------------------------------------------------
# the field


def _signed(num: dict, den: dict) -> "Frac":
    """num/den with coprime parts, the sign moved so that the lex-leading
    denominator coefficient is positive."""
    if den[max(den)] < 0:
        return Frac(neg(num), neg(den))
    return Frac(num, den)


class Frac:
    """An element num/den of Q(x_1, ..., x_n) in the canonical form of the
    module docstring.  Operands are Fracs over the same n variables, ints
    or Fractions."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict, den: dict):
        """Trusted: num and den are already canonical."""
        self.num = num
        self.den = den
        self._hash = None

    # constructors

    @classmethod
    def number(cls, n: int, q) -> "Frac":
        q = Fraction(q)
        return cls(constant(n, q.numerator), constant(n, q.denominator))

    @classmethod
    def polynomial(cls, f: dict, n: int) -> "Frac":
        return cls(f, one(n))

    @classmethod
    def gen(cls, n: int, i: int) -> "Frac":
        return cls({tuple(int(j == i) for j in range(n)): 1}, one(n))

    @classmethod
    def reduced(cls, num: dict, den: dict) -> "Frac":
        """num/den in canonical form, for any num and nonzero den."""
        if not num:
            return cls({}, one(len(next(iter(den)))))
        _, num, den = gcd(num, den)
        return _signed(num, den)

    @property
    def nvars(self) -> int:
        return len(next(iter(self.den)))

    def _coerce(self, other):
        if isinstance(other, Frac):
            return other
        if isinstance(other, (int, Fraction)):
            return Frac.number(self.nvars, other)
        return NotImplemented

    # predicates

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return is_one(self.num) and is_one(self.den)

    def is_constant(self) -> bool:
        return is_constant(self.num) and is_constant(self.den)

    def degrees(self) -> list[int]:
        """The degree of each variable in the numerator or the denominator."""
        return [max(degree(self.num, i), degree(self.den, i)) for i in range(self.nvars)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Frac) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()), frozenset(self.den.items())))
        return self._hash

    # arithmetic

    def __neg__(self) -> "Frac":
        return Frac(neg(self.num), self.den)

    def __add__(self, other) -> "Frac":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a:
            return other
        if not c:
            return self
        if b == d:
            return Frac.reduced(add(a, c), b)
        h, b1, d1 = gcd(b, d)
        t = add(mul(a, d1), mul(c, b1))
        if not t:
            return Frac({}, one(self.nvars))
        if is_unit(h):
            return _signed(t, mul(b, d1))
        _, t, h1 = gcd(t, h)
        return _signed(t, mul(mul(b1, d1), h1))

    __radd__ = __add__

    def __sub__(self, other) -> "Frac":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __mul__(self, other) -> "Frac":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a:
            return self
        if not c:
            return other
        _, a, d = gcd(a, d)
        _, c, b = gcd(c, b)
        return _signed(mul(a, c), mul(b, d))

    __rmul__ = __mul__

    def inverse(self) -> "Frac":
        if not self.num:
            raise ZeroDivisionError("division by the zero rational function")
        return _signed(self.den, self.num)

    def __truediv__(self, other) -> "Frac":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __pow__(self, k: int) -> "Frac":
        """self^k for an integer k; 0^0 and negative powers of 0 raise."""
        n = self.nvars
        if k < 0:
            return self.inverse() ** -k
        if not self.num and not k:
            raise ValueError("0**0")
        return Frac(power(self.num, k, n), power(self.den, k, n))

    def diff(self, i: int) -> "Frac":
        """d/dx_i by the quotient rule, cancelled once."""
        a, b = self.num, self.den
        db = diff(b, i)
        if not db:
            return Frac.reduced(diff(a, i), b)
        return Frac.reduced(sub(mul(diff(a, i), b), mul(a, db)), mul(b, b))
