"""Exponential polynomials: the coefficient ring of the coframe pipeline.

An :class:`ExpPoly` is a finite sum of terms

    c * x1^k1 ... xn^kn * exp(a1*x1 + ... + an*xn) * {1 | cos(b.x) | sin(b.x)}

with float coefficient c, nonnegative integer exponents k and real rate
vectors a, b.  Products of trigonometric factors are rewritten to sums
(product-to-sum identities), so the class is a genuine commutative ring
with a unique canonical form and decidable zero testing up to the
coefficient tolerance.

Rates are plain floats and are only ever copied or added, never
recomputed from scratch, so structurally equal keys compare exactly.

Canonical keys.  A stored key has its -0.0 entries normalized to 0.0; a
"one" key has b = 0; a trig key has b != 0 with its first nonzero entry
positive (cos(-u) = cos u, sin(-u) = -sin u move the sign into the
coefficient).  Every stored coefficient exceeds ZERO_TOL.  The cut keeps
no NaN: a NaN coefficient (an overflow that cancels, inf - inf) raises
NonFiniteCoefficient instead of passing as zero.  `__init__`,
`term`, `parse` and `substitute` establish this from arbitrary input.
The ring operations build their results from keys that are canonical
already: sums, negation, scaling and `diff`/`antideriv` keep b and only
swap cos and sin on a nonzero b, and `__mul__` canonicalizes each new trig
part in `_put`.  They go through `_canonical`, which applies only the
ZERO_TOL cut (`_cut`).

A polynomial is never modified after construction, so a result may be
one of the operands.  Shortcuts skip work whose answer is known, with the
same keys, term order and coefficient bits as the general formula:

- A zero operand: a sum is the other operand (0.0 + c is c), a product
  is zero.  Scaling by 1.0 returns the polynomial, by 0.0 zero.
- A product with a one-term constant operand c is the other operand
  scaled by c.  The double loop would add zero vectors to each key and
  multiply each coefficient by c, and float `*` commutes.
- A `substitute` whose bindings are all bare coordinates of the target,
  in increasing position, is a renaming: each key's k, a and b are copied
  to the new positions.  An order-preserving renaming keeps canonical keys
  canonical, the first nonzero b entry included, so nothing is
  re-canonicalized; the general formula would multiply every coefficient
  by exp(0) = cos(0) = 1.
- Negation and that renaming build their result with `_stored`, which
  skips the ZERO_TOL cut too: every coefficient keeps the magnitude of a
  stored one, which exceeds ZERO_TOL and is never NaN, and a renaming
  maps keys one to one, so no two terms merge.

Text.  `to_text` writes the terms in key order; `parse` reads text with
the one exact parser, `exacttext.evaluate_text`, evaluating it in the
ring: each number is a constant, each chart name a coordinate, and exp,
cos and sin of an affine argument are exp(t), cos(t) and sin(t) composed
with it by `substitute`.  Text outside the class, or with a value that is
not a finite float (a NaN along the way included), is a SchemaError.

Compiled form.  On first evaluation a polynomial reads its T terms as
arrays, exponents K and rates A, B (each T x n) and kinds (T), and caches
its T coefficients with the evaluation steps read off those arrays
(`Compiled`).  `evaluate_batch` evaluates them at N points in one numpy
pass, in the order of the scalar formula: c * x1^k1 * ... * xn^kn
in variable order, then * exp(a.x), then * cos or sin(b.x), the dot
products summed in variable order and the terms in term order.
`evaluate` is its one-point case.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import compress
from operator import add, lt, sub
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import MismatchedVarSet, NonAffineExponentSubstitution, NonFiniteCoefficient, SchemaError
from .exacttext import evaluate_text
from .varset import VarSet

# Coefficients at or below this magnitude are treated as zero.
ZERO_TOL = 1e-10

KIND_ONE = 0
KIND_COS = 1
KIND_SIN = 2

# key = (k: tuple[int], a: tuple[float], b: tuple[float], kind: int)
Key = tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...], int]


def _canon_trig(b: tuple[float, ...], kind: int, coeff: float):
    """Normalize the trig part of a term key: zero b means kind one
    (sin drops), otherwise flip b so its first nonzero entry is positive."""
    if kind == KIND_ONE:
        return tuple(0.0 for _ in b), KIND_ONE, coeff
    if all(v == 0.0 for v in b):
        if kind == KIND_SIN:
            return tuple(0.0 for _ in b), KIND_ONE, 0.0
        return tuple(0.0 for _ in b), KIND_ONE, coeff
    first = next(v for v in b if v != 0.0)
    if first < 0.0:
        b = tuple(-v for v in b)
        if kind == KIND_SIN:
            coeff = -coeff
    # normalize -0.0 to 0.0 so keys hash consistently
    b = tuple(v + 0.0 for v in b)
    return b, kind, coeff


@functools.lru_cache(maxsize=None)
def _constant_key(n: int) -> Key:
    """The key of the constant term over n variables."""
    return ((0,) * n, (0.0,) * n, (0.0,) * n, KIND_ONE)


def _cut(acc: Mapping[Key, float]) -> dict[Key, float]:
    """The terms above ZERO_TOL.  A NaN fails that test too, so the
    coefficients the cut removes are checked for one."""
    terms = {k: c for k, c in acc.items() if abs(c) > ZERO_TOL}
    if len(terms) < len(acc) and any(map(math.isnan, acc.values())):
        raise NonFiniteCoefficient("an exponential-polynomial coefficient is NaN")
    return terms


def _add(acc: dict, key: Key, c: float) -> None:
    """Add c at a canonical key to an accumulator."""
    acc[key] = acc.get(key, 0.0) + c


def _put(acc: dict, key: Key, c: float) -> None:
    """Add c at key to an accumulator, the trig part canonicalized; a
    "one" key comes from canonical keys, so its b is zero already."""
    if key[3] != KIND_ONE:
        b2, kind2, c = _canon_trig(key[2], key[3], c)
        key = (key[0], key[1], b2, kind2)
    _add(acc, key, c)


class Compiled(NamedTuple):
    """The coefficients of an ExpPoly's terms, in term order, and the
    evaluation steps read off the terms."""

    coeff: np.ndarray  # T
    # (i, rows, k): the terms in rows are multiplied by x_i^k, i ascending
    powers: tuple
    # (fn, rows, m, ((i, r), ...)): the m terms in rows are multiplied by
    # fn(sum over ascending i of r * x_i); exp, then cos, then sin
    factors: tuple


def _rows(mask: np.ndarray):
    """Index of the terms in mask; a full slice when that is all of them."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


class ExpPoly:
    __slots__ = ("chart", "terms", "_compiled")

    def __init__(self, chart: VarSet, terms: Mapping[Key, float] | None = None):
        acc: dict[Key, float] = {}
        if terms:
            for (k, a, b, kind), c in terms.items():
                b2, kind2, c2 = _canon_trig(tuple(b), kind, float(c))
                key = (tuple(k), tuple(v + 0.0 for v in a), b2, kind2)
                acc[key] = acc.get(key, 0.0) + c2
        self.chart = chart
        self.terms = _cut(acc)
        self._compiled = None

    @classmethod
    def _canonical(cls, chart: VarSet, acc: Mapping[Key, float]) -> "ExpPoly":
        """Trusted constructor for keys that are canonical already (see the
        module docstring); applies only the ZERO_TOL cut."""
        self = object.__new__(cls)
        self.chart = chart
        self.terms = _cut(acc)
        self._compiled = None
        return self

    @classmethod
    def _stored(cls, chart: VarSet, terms: dict[Key, float]) -> "ExpPoly":
        """Trusted constructor for canonical keys whose coefficients are
        above ZERO_TOL already (module docstring); no cut."""
        self = object.__new__(cls)
        self.chart = chart
        self.terms = terms
        self._compiled = None
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, chart: VarSet) -> "ExpPoly":
        return cls._canonical(chart, {})

    @classmethod
    def constant(cls, chart: VarSet, value: float) -> "ExpPoly":
        return cls._canonical(chart, {_constant_key(len(chart)): float(value)})

    @classmethod
    def one(cls, chart: VarSet) -> "ExpPoly":
        return cls.constant(chart, 1.0)

    @classmethod
    def coordinate(cls, chart: VarSet, name: str) -> "ExpPoly":
        n = len(chart)
        k = [0] * n
        k[chart.index(name)] = 1
        zr = (0.0,) * n
        return cls._canonical(chart, {(tuple(k), zr, zr, KIND_ONE): 1.0})

    @classmethod
    def term(
        cls,
        chart: VarSet,
        coeff: float,
        powers: Mapping[str, int] | None = None,
        exp_rates: Mapping[str, float] | None = None,
        trig_rates: Mapping[str, float] | None = None,
        kind: int = KIND_ONE,
    ) -> "ExpPoly":
        """Single-term constructor, convenient in tests and goldens."""
        n = len(chart)
        k = [0] * n
        a = [0.0] * n
        b = [0.0] * n
        for name, p in (powers or {}).items():
            if p < 0:
                raise ValueError("monomial exponents must be nonnegative")
            k[chart.index(name)] = int(p)
        for name, r in (exp_rates or {}).items():
            a[chart.index(name)] = float(r)
        for name, r in (trig_rates or {}).items():
            b[chart.index(name)] = float(r)
        if trig_rates and kind == KIND_ONE:
            raise ValueError("trig rates given but kind is 'one'")
        return cls(chart, {(tuple(k), tuple(a), tuple(b), kind): float(coeff)})

    # ------------------------------------------------------------------
    # ring structure

    def _check_chart(self, other: "ExpPoly"):
        if self.chart != other.chart:
            raise MismatchedVarSet(f"{self.chart.names} vs {other.chart.names}")

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            other = ExpPoly.constant(self.chart, float(other))
        self._check_chart(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0.0) + c
        return ExpPoly._canonical(self.chart, acc)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly._stored(self.chart, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, ExpPoly) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, f: float) -> "ExpPoly":
        if f == 1.0:
            return self
        if f == 0.0:
            return ExpPoly.zero(self.chart)
        return ExpPoly._canonical(self.chart, {k: c * f for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            return self._scaled(float(other))
        self._check_chart(other)
        if not self.terms or not other.terms:
            return ExpPoly.zero(self.chart)
        # a one-term constant scales the other operand (module docstring)
        f = other._one_constant()
        if f is not None:
            return self._scaled(f)
        f = self._one_constant()
        if f is not None:
            return other._scaled(f)
        acc: dict[Key, float] = {}
        for (k1, a1, b1, t1), c1 in self.terms.items():
            for (k2, a2, b2, t2), c2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                a = tuple(map(add, a1, a2))
                c = c1 * c2
                if t1 == KIND_ONE:
                    _put(acc, (k, a, b2, t2), c)
                elif t2 == KIND_ONE:
                    _put(acc, (k, a, b1, t1), c)
                else:
                    bsum = tuple(map(add, b1, b2))
                    bdif = tuple(map(sub, b1, b2))
                    if t1 == KIND_COS and t2 == KIND_COS:
                        # cos u cos v = (cos(u-v) + cos(u+v)) / 2
                        _put(acc, (k, a, bdif, KIND_COS), 0.5 * c)
                        _put(acc, (k, a, bsum, KIND_COS), 0.5 * c)
                    elif t1 == KIND_SIN and t2 == KIND_SIN:
                        # sin u sin v = (cos(u-v) - cos(u+v)) / 2
                        _put(acc, (k, a, bdif, KIND_COS), 0.5 * c)
                        _put(acc, (k, a, bsum, KIND_COS), -0.5 * c)
                    elif t1 == KIND_SIN and t2 == KIND_COS:
                        # sin u cos v = (sin(u+v) + sin(u-v)) / 2
                        _put(acc, (k, a, bsum, KIND_SIN), 0.5 * c)
                        _put(acc, (k, a, bdif, KIND_SIN), 0.5 * c)
                    else:
                        # cos u sin v = (sin(u+v) - sin(u-v)) / 2
                        _put(acc, (k, a, bsum, KIND_SIN), 0.5 * c)
                        _put(acc, (k, a, bdif, KIND_SIN), -0.5 * c)
        return ExpPoly._canonical(self.chart, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not in the class")
        result = ExpPoly.one(self.chart)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self, tol: float = ZERO_TOL) -> bool:
        if tol <= ZERO_TOL:
            # every stored coefficient exceeds ZERO_TOL
            return not self.terms
        return all(abs(c) <= tol for c in self.terms.values())

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def _one_constant(self) -> float | None:
        """The coefficient when the polynomial is one constant term."""
        if len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            if key == _constant_key(len(self.chart)):
                return c
        return None

    def is_polynomial(self) -> bool:
        """No exponential or trigonometric part in any term."""
        return all(
            all(v == 0.0 for v in a) and kind == KIND_ONE
            for (_, a, _, kind) in self.terms
        )

    def is_affine(self) -> bool:
        """Polynomial of total degree <= 1 (legal in exp/trig positions)."""
        return self.is_polynomial() and all(sum(k) <= 1 for (k, _, _, _) in self.terms)

    def occurring(self) -> list[int]:
        """Positions of the variables in some term's k, a or b: the only
        ones with a nonzero derivative."""
        positions = range(len(self.chart))
        used: set[int] = set()
        for k, a, b, _ in self.terms:
            used.update(compress(positions, k))
            used.update(compress(positions, a))
            used.update(compress(positions, b))
        return sorted(used)

    def variables_in_rates(self) -> set[str]:
        """Names appearing inside an exp or trig rate of some term."""
        out = set()
        for (_, a, b, _) in self.terms:
            for i, name in enumerate(self.chart.names):
                if a[i] != 0.0 or b[i] != 0.0:
                    out.add(name)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ExpPoly)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.terms.items()))))

    def isclose(self, other: "ExpPoly", tol: float = ZERO_TOL) -> bool:
        return (self - other).is_zero(tol)

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "ExpPoly":
        i = self.chart.index(name)
        acc: dict[Key, float] = {}
        for (k, a, b, kind), c in self.terms.items():
            if k[i] > 0:
                k2 = list(k)
                k2[i] -= 1
                _add(acc, (tuple(k2), a, b, kind), c * k[i])
            if a[i] != 0.0:
                _add(acc, (k, a, b, kind), c * a[i])
            if b[i] != 0.0:
                if kind == KIND_COS:
                    _add(acc, (k, a, b, KIND_SIN), -c * b[i])
                elif kind == KIND_SIN:
                    _add(acc, (k, a, b, KIND_COS), c * b[i])
        return ExpPoly._canonical(self.chart, acc)

    def antideriv(self, name: str) -> "ExpPoly":
        """Antiderivative in one variable, exact inside the class.

        The constant of integration is not fixed; `forms.potential`
        normalizes at a basepoint.
        """
        i = self.chart.index(name)
        acc: dict[Key, float] = {}
        for (k, a, b, kind), c in self.terms.items():
            kv, av, bv = k[i], a[i], b[i]
            if av == 0.0 and bv == 0.0:
                # the exp/trig part does not involve the variable
                k2 = list(k)
                k2[i] += 1
                _add(acc, (tuple(k2), a, b, kind), c / (kv + 1))
            elif bv == 0.0:
                # real rate: integrate v^kv e^{av v} by parts, closed form
                p = [0.0] * (kv + 1)
                p[kv] = c / av
                for j in range(kv - 1, -1, -1):
                    p[j] = -(j + 1) * p[j + 1] / av
                for j, pj in enumerate(p):
                    if pj == 0.0:
                        continue
                    k2 = list(k)
                    k2[i] = j
                    _add(acc, (tuple(k2), a, b, kind), pj)
            else:
                # complexify the v-dependence: z = av + i bv
                z = complex(av, bv)
                p = [0j] * (kv + 1)
                p[kv] = c / z
                for j in range(kv - 1, -1, -1):
                    p[j] = -(j + 1) * p[j + 1] / z
                for j, pj in enumerate(p):
                    if pj == 0j:
                        continue
                    k2 = tuple(
                        (k[t] if t != i else j) for t in range(len(k))
                    )
                    if kind == KIND_COS:
                        # Re[p e^{(a+ib).x}]
                        _add(acc, (k2, a, b, KIND_COS), pj.real)
                        _add(acc, (k2, a, b, KIND_SIN), -pj.imag)
                    else:
                        # Im[p e^{(a+ib).x}]
                        _add(acc, (k2, a, b, KIND_COS), pj.imag)
                        _add(acc, (k2, a, b, KIND_SIN), pj.real)
        return ExpPoly._canonical(self.chart, acc)

    # ------------------------------------------------------------------
    # evaluation and substitution

    def compiled(self) -> Compiled:
        """The coefficients and evaluation steps, built on first use and cached."""
        if self._compiled is None:
            n = len(self.chart)
            keys = list(self.terms)
            K = np.array([k for k, _, _, _ in keys], dtype=np.int64).reshape(-1, n)
            A = np.array([a for _, a, _, _ in keys], dtype=float).reshape(-1, n)
            B = np.array([b for _, _, b, _ in keys], dtype=float).reshape(-1, n)
            kind = np.array([t for _, _, _, t in keys], dtype=np.int64)
            coeff = np.array(list(self.terms.values()), dtype=float)
            powers = []
            for i in np.flatnonzero(K.any(axis=0)):
                rows = _rows(K[:, i] != 0)
                powers.append((i, rows, K[rows, i]))
            factors = []
            for fn, M, mask in (
                (np.exp, A, A.any(axis=1)),
                (np.cos, B, kind == KIND_COS),
                (np.sin, B, kind == KIND_SIN),
            ):
                if mask.any():
                    rows = _rows(mask)
                    R = M[rows]
                    rates = tuple((i, R[:, i]) for i in np.flatnonzero(R.any(axis=0)))
                    factors.append((fn, rows, len(R), rates))
            self._compiled = Compiled(coeff, tuple(powers), tuple(factors))
        return self._compiled

    def evaluate_batch(self, points) -> np.ndarray:
        """Values at N points, given as an N x n array in chart order."""
        c = self.compiled()
        P = np.asarray(points, dtype=float).reshape(-1, len(self.chart))
        if not len(c.coeff):
            return np.zeros(len(P))
        v = np.repeat(c.coeff[None, :], len(P), axis=0)
        for i, rows, k in c.powers:
            v[:, rows] *= P[:, i, None] ** k
        for fn, rows, m, rates in c.factors:
            arg = np.zeros((len(P), m))
            for i, r in rates:
                arg += P[:, i, None] * r
            v[:, rows] *= fn(arg)
        # a running sum, so the terms add up in term order
        return np.cumsum(v, axis=1)[:, -1]

    def evaluate(self, point: Mapping[str, float]) -> float:
        return float(self.evaluate_batch([[point[name] for name in self.chart.names]])[0])

    def substitute(self, bindings: Mapping[str, "ExpPoly"]) -> "ExpPoly":
        """Exact composition.  Variables appearing inside exp/trig rates must
        be bound to affine expressions; polynomial positions take arbitrary
        exponential polynomials.  Unbound variables must exist in the target
        chart and are bound to themselves."""
        if bindings:
            target = next(iter(bindings.values())).chart
        else:
            target = self.chart
        full: dict[str, ExpPoly] = {}
        for name in self.chart.names:
            if name in bindings:
                bound = bindings[name]
                if bound.chart != target:
                    raise MismatchedVarSet("bindings must share one target chart")
                full[name] = bound
            else:
                if name not in target:
                    raise MismatchedVarSet(
                        f"unbound variable {name!r} missing from target chart"
                    )
                full[name] = ExpPoly.coordinate(target, name)

        positions = [full[name]._coordinate_position() for name in self.chart.names]
        if None not in positions and all(map(lt, positions, positions[1:])):
            return self._renamed(target, positions)

        rate_vars = self.variables_in_rates()
        affine: dict[str, tuple[float, dict[int, float]]] = {}
        for name in rate_vars:
            val = full[name]
            if not val.is_affine():
                raise NonAffineExponentSubstitution(
                    f"variable {name!r} occurs in an exp/trig rate but is bound "
                    "to a non-affine expression"
                )
            const = 0.0
            lin: dict[int, float] = {}
            for (k, _, _, _), c in val.terms.items():
                deg = sum(k)
                if deg == 0:
                    const += c
                else:
                    j = next(t for t, kt in enumerate(k) if kt)
                    lin[j] = lin.get(j, 0.0) + c
            affine[name] = (const, lin)

        nt = len(target)
        result = ExpPoly.zero(target)
        for (k, a, b, kind), c in self.terms.items():
            # exp part
            a_new = [0.0] * nt
            exp_const = 0.0
            for i, ai in enumerate(a):
                if ai == 0.0:
                    continue
                const, lin = affine[self.chart.names[i]]
                exp_const += ai * const
                for j, lj in lin.items():
                    a_new[j] += ai * lj
            # trig part
            b_new = [0.0] * nt
            phase = 0.0
            for i, bi in enumerate(b):
                if bi == 0.0:
                    continue
                const, lin = affine[self.chart.names[i]]
                phase += bi * const
                for j, lj in lin.items():
                    b_new[j] += bi * lj
            coeff = c
            if exp_const:
                try:
                    coeff = c * math.exp(exp_const)
                except OverflowError:
                    coeff = math.inf
                if not math.isfinite(coeff):
                    raise NonFiniteCoefficient(
                        f"the substitution scales a coefficient {c!r} by exp({exp_const!r}), "
                        "which is not finite"
                    )
            zk = (0,) * nt
            if kind == KIND_ONE:
                piece = ExpPoly(
                    target, {(zk, tuple(a_new), (0.0,) * nt, KIND_ONE): coeff}
                )
            else:
                cth, sth = math.cos(phase), math.sin(phase)
                terms: dict[Key, float] = {}
                if kind == KIND_COS:
                    # cos(phase + L) = cos(phase) cos L - sin(phase) sin L
                    terms[(zk, tuple(a_new), tuple(b_new), KIND_COS)] = coeff * cth
                    terms[(zk, tuple(a_new), tuple(b_new), KIND_SIN)] = -coeff * sth
                else:
                    terms[(zk, tuple(a_new), tuple(b_new), KIND_COS)] = coeff * sth
                    terms[(zk, tuple(a_new), tuple(b_new), KIND_SIN)] = coeff * cth
                piece = ExpPoly(target, terms)
            for i, ki in enumerate(k):
                if ki:
                    piece = piece * (full[self.chart.names[i]] ** ki)
            result = result + piece
        return result

    def _coordinate_position(self) -> int | None:
        """j when the polynomial is the bare coordinate x_j, else None."""
        if len(self.terms) != 1:
            return None
        ((key, c),) = self.terms.items()
        k, a, _, kind = key
        if c != 1.0 or kind != KIND_ONE or any(a) or sum(k) != 1:
            return None
        return k.index(1)

    def _renamed(self, target: VarSet, positions: list[int]) -> "ExpPoly":
        """Variable i moved to target position positions[i], the positions
        increasing, so the keys stay canonical (module docstring)."""
        nt = len(target)
        acc: dict[Key, float] = {}
        for (k, a, b, kind), c in self.terms.items():
            k2, a2, b2 = [0] * nt, [0.0] * nt, [0.0] * nt
            for i, j in enumerate(positions):
                k2[j], a2[j], b2[j] = k[i], a[i], b[i]
            acc[(tuple(k2), tuple(a2), tuple(b2), kind)] = c
        return ExpPoly._stored(target, acc)

    # ------------------------------------------------------------------
    # serialization

    def sorted_terms(self) -> list[tuple[Key, float]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (k, a, b, kind), c in self.sorted_terms():
            factors = [repr(c)]
            for i, ki in enumerate(k):
                if ki == 1:
                    factors.append(self.chart.names[i])
                elif ki > 1:
                    factors.append(f"{self.chart.names[i]}^{ki}")
            if any(v != 0.0 for v in a):
                factors.append(f"exp({_lin_text(self.chart, a)})")
            if kind == KIND_COS:
                factors.append(f"cos({_lin_text(self.chart, b)})")
            elif kind == KIND_SIN:
                factors.append(f"sin({_lin_text(self.chart, b)})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def parse(cls, chart: VarSet, text: str) -> "ExpPoly":
        """Value of document text over the chart, read by
        :func:`liequad.exacttext.evaluate_text`: chart coordinates, numbers
        (each a constant), ``+ - *``, nonnegative integer powers, and exp,
        cos and sin of an affine argument.  Other text, and a coefficient
        or rate that is not a finite float, raises SchemaError."""
        not_finite = f"exponential polynomial {text!r} has a value that is not a finite float"
        try:
            value = evaluate_text(
                text,
                {name: cls.coordinate(chart, name) for name in chart.names},
                number=lambda q: cls.constant(chart, float(q)),
                what="exponential polynomial",
                unbound=f"names must be chart coordinates {chart.names}",
                functions=_FUNCTIONS,
            )
        except NonFiniteCoefficient as exc:
            raise SchemaError(not_finite) from exc
        if not all(math.isfinite(x) for (_, a, b, _), c in value.terms.items() for x in (c, *a, *b)):
            raise SchemaError(not_finite)
        return value

    def __repr__(self):
        return f"ExpPoly({self.to_text()})"


def _lin_text(chart: VarSet, rates: Iterable[float]) -> str:
    out = ""
    for i, r in enumerate(rates):
        if r == 0.0:
            continue
        if not out:
            out = f"{r!r}*{chart.names[i]}"
        elif r < 0:
            out += f" - {-r!r}*{chart.names[i]}"
        else:
            out += f" + {r!r}*{chart.names[i]}"
    return out


def _at_affine(unit: ExpPoly, arg: ExpPoly) -> ExpPoly:
    """unit(t) at t = arg, for an affine arg."""
    if not arg.is_affine():
        raise ValueError(f"the argument {arg.to_text()!r} is not affine")
    return unit.substitute({"_t": arg})


# exp, cos and sin in the text: exp(t), cos(t) and sin(t) over the chart (_t,),
# composed with their argument by `substitute`
_T = VarSet.of("_t")
_FUNCTIONS = {
    "exp": functools.partial(_at_affine, ExpPoly.term(_T, 1.0, exp_rates={"_t": 1.0})),
    "cos": functools.partial(_at_affine, ExpPoly.term(_T, 1.0, trig_rates={"_t": 1.0}, kind=KIND_COS)),
    "sin": functools.partial(_at_affine, ExpPoly.term(_T, 1.0, trig_rates={"_t": 1.0}, kind=KIND_SIN)),
}
