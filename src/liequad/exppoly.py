"""Exponential polynomials: the coefficient ring of the coframe pipeline.

An :class:`ExpPoly` is a finite sum of terms

    c * x1^k1 ... xn^kn * exp(a1*x1 + ... + an*xn) * {1 | cos(b.x) | sin(b.x)}

with float coefficient c, nonnegative integer exponents k and real rate
vectors a, b.  Products of trigonometric factors are rewritten to sums
(product-to-sum identities), so the class is a genuine commutative ring
with a unique canonical form, in which zero is the polynomial with no
term.

Rates are plain floats and are only ever copied or added, never
recomputed from scratch, so structurally equal keys compare exactly.

Canonical keys.  A term (k, a, b, kind) has its -0.0 rate entries
normalized to 0.0; a "one" term has b = 0; a trig term has b != 0 with its
first nonzero entry positive (cos(-u) = cos u, sin(-u) = -sin u move the
sign into the coefficient).  One keep rule, `_kept`, applied by the cut
`_cut` and by the running sum `_add_terms` (Sums, below), stores a
coefficient when its magnitude exceeds ZERO_TOL, so
`is_zero()` is "holds no term".  A NaN coefficient (an overflow that
cancels, inf - inf) raises NonFiniteCoefficient instead of passing as
zero.  `__init__`, `term`, `parse` and `substitute` establish this from
arbitrary input.  The ring operations build their results from terms that
are canonical already: sums, negation, scaling and `diff`/`antideriv`
keep b and only swap cos and sin on a nonzero b, and `__mul__`
canonicalizes each new trig part.  They go through `_canonical`, which
applies only the cut, or, for sums, `_add_terms`.

Packed keys.  A polynomial stores the term (k, a, b, kind) under the key
(K, r, kind), private to this module.  K packs the exponents into one
int, 16 bits per variable, x_i at bit 16 i.  r is the id of the rate pair
(a, b) in a table shared by all charts of n variables (`_Layout`), kept
for the life of the process; id 0 is a = b = 0.  The top bit of each
exponent field stays clear, so an exponent is at most MAX_EXPONENT, and
K1 + K2 packs the sum of two exponent vectors without a carry between
fields; a result that sets a top bit raises ExponentOverflow.  The table
memoizes, per pair of ids, the id of (a1 + a2, b1 + b2) and of
(a1 + a2, b1 - b2) with its trig part canonical, computed once with the
float additions of the tuple formula; a product of two terms then adds
two ints and looks up one or two ids.  `terms` decodes the store into a
read-only {(k, a, b, kind): c} in term order, and `to_text` sorts the
decoded keys.

A polynomial is never modified after construction, so a result may be
one of the operands.  Shortcuts skip work whose answer is known, with the
same keys, term order and coefficient bits as the general formula:

- A zero operand: a sum is the other operand (0.0 + c is c), a product
  is zero.  Scaling by 1.0 returns the polynomial, by 0.0 zero.
- A product with a one-term constant operand c is the other operand
  scaled by c.  The double loop would add zero vectors to each key and
  multiply each coefficient by c, and float `*` commutes.
- A `substitute` whose bindings are all signed bare coordinates of the
  target, x_i -> +-y_j, in consecutive increasing positions j, is a
  renaming: each key's K is shifted and its a and b are copied to the new
  positions, negated where the binding is -y_j.  The general formula
  would multiply each coefficient by exp(0) = cos(0) = 1 and by the
  binding's power (-1)^k_i, and rewrite a trig term over b' = canonical
  (+-b), which moves cos(-u) = cos u and sin(-u) = -sin u into the
  coefficient.  So the renaming negates a coefficient when the exponents
  of the negated variables have an odd sum, and a sin coefficient once
  more when its b flips.  Without a negated binding b keeps its first
  nonzero entry positive, and the coefficients are copied.
- Negation and that renaming build their result with `_stored`, which
  skips the ZERO_TOL cut too: every coefficient keeps the magnitude of a
  stored one, which exceeds ZERO_TOL and is never NaN, and each maps keys
  one to one, so no two terms merge.
- `evaluate` at the origin sums, in term order, the coefficients of the
  terms whose exponents are all 0, sin terms left out: there exp(0) =
  cos(0) = 1 and sin(0) = 0, and every other term is a zero; both sums
  start from 0.0, so this is the kernel's value bit for bit.

Substitution.  `substitute` takes its bindings as a mapping or as a
`Substitution` prepared once for many polynomials over one chart (a
`forms.PointMap` keeps one): it holds the renaming positions and signs,
and it memoizes the affine part of each binding, what each rate pair
becomes and each power of a binding.  `exp_matrix` composes each distinct
entry of e^{tA} once.

Sums.  `+`, `sum`, `sums` and the general formula of `substitute` add
into one running term dict with `_add_terms`, which cuts only the keys a
piece touches, the others being above the cut already.  A dropped key is
popped, and a later piece starts it again from 0.0 at the end, where the
cut of a left fold of `+` puts it.  So `sum(items)` is that fold bit for
bit, without a copy of the growing sum per item, and `sums(pairs)` is one
such sum per key, which drops a key whose sum is zero, as a form drops an
index (`forms.DiffForm.sum`).

Text.  `to_text` writes the terms in key order; `parse` reads text with
the one exact parser, `exacttext.evaluate_text`, evaluating it in the
ring: each number is a constant, each chart name a coordinate, and exp,
cos and sin of an affine argument are exp(t), cos(t) and sin(t) composed
with it by `substitute`.  Text outside the class, or with a value that is
not a finite float (a NaN along the way included), is a SchemaError.

Evaluation.  A `Family` compiles m polynomials over one chart into one
set of arrays: the T coefficients of all their terms, the nonzero
exponents of each term by variable, and the distinct exp, cos and sin rate
rows with an index from each term to its row.  Each member's terms are
stored consecutively, in term order, with the index of the member of each
term.  `Family.evaluate` evaluates all m at N points in one numpy pass, an
N x m array, in the order of the scalar formula: c * x_i^k_i for i
ascending, then * exp(a.x), then * cos or sin(b.x), the dot products
summed in variable order and each member's terms in term order from 0.0,
by one `np.add.at`, which adds the rows one at a time in index order
(`np.add.reduceat` need not).  Every power comes from one numpy call on
flat operands of one length, so a term's value does not depend on the
family that holds it.  A `forms.PointMap` compiles its components and its
Jacobian entries once and keeps them, since a group law is evaluated
several times; every other set of polynomials is compiled where it is
evaluated (a matrix by `matexp.matrix_batch`).  `evaluate_batch` compiles
the one-member family, and `evaluate` is its one-point case.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from fractions import Fraction
from operator import add, itemgetter, or_, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ExponentOverflow,
    MismatchedVarSet,
    NonAffineExponentSubstitution,
    NonFiniteCoefficient,
    SchemaError,
)
from .exacttext import evaluate_text
from .liealg import SparseMatrix
from .varset import VarSet

# The ring's truncation (`_kept`); a residual bound is `report.TOL_ZERO`.
ZERO_TOL = 1e-10

KIND_ONE = 0
KIND_COS = 1
KIND_SIN = 2

# a decoded term key: (k: tuple[int], a: tuple[float], b: tuple[float], kind: int)
Key = tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...], int]

# bits of one exponent field of a packed key; the top bit stays clear
_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1

# the packed key of the constant term, over any chart
_CONSTANT = (0, 0, KIND_ONE)


def _canonical_b(b: tuple[float, ...]) -> tuple[tuple[float, ...], int]:
    """(b', sign): b with -0.0 normalized to 0.0, negated (sign -1) when its
    first nonzero entry is negative, else sign 1; sign 0 when b = 0."""
    first = next((v for v in b if v != 0.0), None)
    if first is None:
        return tuple(0.0 for _ in b), 0
    if first < 0.0:
        return tuple(-v + 0.0 for v in b), -1
    return tuple(v + 0.0 for v in b), 1


def _canon_trig(b: tuple[float, ...], kind: int, coeff: float):
    """Normalize the trig part of a term key: zero b means kind one
    (sin drops), otherwise flip b so its first nonzero entry is positive."""
    if kind == KIND_ONE:
        return tuple(0.0 for _ in b), KIND_ONE, coeff
    b, sign = _canonical_b(b)
    if not sign:
        return b, KIND_ONE, 0.0 if kind == KIND_SIN else coeff
    return b, kind, -coeff if sign < 0 and kind == KIND_SIN else coeff


class _Memo(dict):
    """fn(x), computed on the first lookup of x."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


class _Layout:
    """The packed keys over n variables: the exponent fields, the table of
    rate pairs, and rate arithmetic memoized per id (module docstring)."""

    def __init__(self, n: int):
        self.n = n
        self.fields = struct.Struct(f"<{n}H")
        self.guard = int.from_bytes(self.fields.pack(*[1 << (_BITS - 1)] * n), "little")
        zero = (0.0,) * n
        self.rates = [(zero, zero)]  # id -> (a, b)
        self.ids = {(zero, zero): 0}  # (a, b) -> id
        # sums[r1][r2]: the id of (a1 + a2, b1 + b2)
        self.sums = _Memo(lambda r1: _Memo(functools.partial(self._sum, r1)))
        # difs[r1][r2]: (id, sign) of (a1 + a2, b1 - b2) with b canonical:
        # sign -1 when b was negated, 0 when b1 - b2 = 0 (b is then zero)
        self.difs = _Memo(lambda r1: _Memo(functools.partial(self._dif, r1)))
        # support[r]: the positions where a or b is nonzero
        self.support = _Memo(self._support)
        # renamed[(nt, positions, negated)][r]: (id, flipped) over nt
        # variables of the rates of r moved to increasing positions, negated
        # at the source variables `negated`; flipped when canonical b did
        self.renamed = _Memo(self._renaming)

    def rate(self, a: tuple[float, ...], b: tuple[float, ...]) -> int:
        """The id of a canonical rate pair, interned on first use."""
        r = self.ids.get((a, b))
        if r is None:
            with _INTERNING:
                r = self.ids.get((a, b))
                if r is None:
                    r = len(self.rates)
                    self.rates.append((a, b))
                    self.ids[(a, b)] = r
        return r

    def pack(self, k) -> int:
        k = tuple(k)
        if len(k) != self.n:
            raise ValueError(f"{len(k)} exponents for {self.n} variables")
        if min(k, default=0) < 0:
            raise ValueError("monomial exponents must be nonnegative")
        if max(k, default=0) > MAX_EXPONENT:
            raise ExponentOverflow(f"a monomial exponent exceeds {MAX_EXPONENT}")
        return int.from_bytes(self.fields.pack(*k), "little")

    def unpack(self, K: int) -> tuple[int, ...]:
        return self.fields.unpack(K.to_bytes(2 * self.n, "little"))

    def key(self, K: int, r: int, kind: int) -> Key:
        """The decoded key of a packed one."""
        a, b = self.rates[r]
        return self.unpack(K), a, b, kind

    def _sum(self, r1: int, r2: int) -> int:
        (a1, b1), (a2, b2) = self.rates[r1], self.rates[r2]
        return self.rate(tuple(map(add, a1, a2)), tuple(map(add, b1, b2)))

    def _dif(self, r1: int, r2: int) -> tuple[int, int]:
        (a1, b1), (a2, b2) = self.rates[r1], self.rates[r2]
        b, sign = _canonical_b(tuple(map(sub, b1, b2)))
        return self.rate(tuple(map(add, a1, a2)), b), sign

    def _support(self, r: int) -> frozenset[int]:
        a, b = self.rates[r]
        return frozenset(i for i in range(self.n) if a[i] != 0.0 or b[i] != 0.0)

    def _renaming(self, spec: tuple[int, tuple[int, ...], tuple[int, ...]]) -> _Memo:
        nt, positions, negated = spec
        target = _layout(nt)

        def moved(r: int) -> tuple[int, bool]:
            a, b = self.rates[r]
            a2, b2 = [0.0] * nt, [0.0] * nt
            for i, j in enumerate(positions):
                a2[j], b2[j] = a[i], b[i]
            for i in negated:
                j = positions[i]
                a2[j], b2[j] = -a2[j] + 0.0, -b2[j] + 0.0
            b2, sign = _canonical_b(tuple(b2))
            return target.rate(tuple(a2), b2), sign < 0

        return _Memo(moved)


# one layout per number of variables, for the life of the process; the
# lock makes each layout and each rate id once, whatever thread asks first
_LAYOUTS: dict[int, _Layout] = {}
_INTERNING = threading.Lock()


def _layout(n: int) -> _Layout:
    lay = _LAYOUTS.get(n)
    if lay is None:
        with _INTERNING:
            lay = _LAYOUTS.get(n)
            if lay is None:
                lay = _LAYOUTS[n] = _Layout(n)
    return lay


def _position(K: int) -> int | None:
    """j when K packs the exponents of x_j alone, to the first power."""
    if K and not K & (K - 1):
        j, rest = divmod(K.bit_length() - 1, _BITS)
        if not rest:
            return j
    return None


def _exponent_bits(store) -> int:
    """The OR of the packed exponents of a store: each field is at least
    the largest exponent of its variable."""
    return functools.reduce(or_, map(itemgetter(0), store), 0)


# the keep rule, on |c|; NaN fails it too
_kept = ZERO_TOL.__lt__


def _cut(acc: dict) -> dict:
    """The terms of acc that the keep rule stores, acc itself when that is
    all of them.  A NaN coefficient raises NonFiniteCoefficient instead of
    passing as zero."""
    if all(map(_kept, map(abs, acc.values()))):
        return acc
    if any(map(math.isnan, acc.values())):
        raise NonFiniteCoefficient("an exponential-polynomial coefficient is NaN")
    return {k: c for k, c in acc.items() if _kept(abs(c))}


def _add_terms(acc: dict, terms: dict) -> None:
    """acc + terms in place, cut only on the keys terms touches (module
    docstring, Sums)."""
    get = acc.get
    for key, c in terms.items():
        v = get(key, 0.0) + c
        if _kept(abs(v)):
            acc[key] = v
        elif math.isnan(v):
            raise NonFiniteCoefficient("an exponential-polynomial coefficient is NaN")
        else:
            acc.pop(key, None)


def by_parts(c, k: int, z) -> list:
    """p with (sum_j p[j] v^j) e^{zv} = the integral of c v^k e^{zv} dv, z
    nonzero: p[k] = c / z and p[j] = -(j + 1) p[j + 1] / z, in the type of
    the operands (float or complex)."""
    p = [c / z]
    for j in range(k, 0, -1):
        p.append(-j * p[-1] / z)
    return p[::-1]


class Family:
    """m exponential polynomials over one chart, compiled into one set of
    arrays and evaluated at N points in one numpy pass (module docstring)."""

    __slots__ = ("n", "m", "coeff", "member", "powers", "levels", "factors")

    def __init__(self, chart: VarSet, members: Sequence["ExpPoly"]):
        n = len(chart)
        lay = _layout(n)
        # each member's terms consecutive, in term order; member[t] is the
        # member that term t belongs to
        terms, member = [], []
        for j, p in enumerate(members):
            if p.chart is not chart and p.chart != chart:
                raise MismatchedVarSet(f"{p.chart.names} vs {chart.names}")
            terms += p._t.items()
            member += [j] * len(p._t)
        self.n = n
        self.m = len(members)
        self.coeff = np.array([c for _, c in terms], dtype=float)
        self.member = np.array(member, dtype=np.int64)

        # the powers x_i^k, k >= 2, that some term has, as rows n, n + 1, ...
        # of a table whose row i < n is x_i (x^1 is x itself); level d
        # multiplies each term by the row of its d-th variable's power
        powers: dict[tuple[int, int], int] = {}
        factors = [[i if k == 1 else powers.setdefault((i, k), n + len(powers))
                    for i, k in enumerate(lay.unpack(K)) if k] for (K, _, _), _ in terms]
        self.powers = (np.array([i for i, _ in powers], dtype=np.int64),
                       np.array([k for _, k in powers], dtype=np.int64))
        self.levels = []
        for d in range(max(map(len, factors), default=0)):
            rows = [t for t, row in enumerate(factors) if len(row) > d]
            index = np.array([factors[t][d] for t in rows], dtype=np.int64)
            self.levels.append((np.array(rows, dtype=np.int64), index))

        # (fn, rates, cols, rows, index): the terms in rows are multiplied by
        # fn of the rate row `index` dotted with the point, summed over the
        # variables cols in ascending order; exp, then cos, then sin
        self.factors = []
        for fn, part, picks in (
            (np.exp, 0, lambda a, kind: any(a)),
            (np.cos, 1, lambda a, kind: kind == KIND_COS),
            (np.sin, 1, lambda a, kind: kind == KIND_SIN),
        ):
            rows, index, distinct = [], [], {}
            for t, ((_, r, kind), _) in enumerate(terms):
                rate = lay.rates[r]
                if picks(rate[0], kind):
                    rows.append(t)
                    index.append(distinct.setdefault(rate[part], len(distinct)))
            if rows:
                rates = np.array(list(distinct), dtype=float).reshape(-1, n)
                cols = np.flatnonzero(rates.any(axis=0)).tolist()
                self.factors.append((fn, rates, cols, np.array(rows, dtype=np.int64),
                                     np.array(index, dtype=np.int64)))

    def evaluate(self, points) -> np.ndarray:
        """Values at N points, given as an N x n array in chart order, as an
        N x m array with one column per member."""
        P = np.asarray(points, dtype=float).reshape(-1, self.n)
        N = len(P)
        Pt = P.T
        V = np.repeat(self.coeff[:, None], N, axis=1)
        if self.levels:
            var, exponent = self.powers
            table = np.empty((self.n + len(var), N))
            table[:self.n] = Pt
            # flat operands of one length: numpy's power then takes the same
            # path for every entry, whatever the family
            table[self.n:] = np.power(Pt[var].ravel(), np.repeat(exponent, N)).reshape(len(var), N)
            for rows, index in self.levels:
                V[rows] *= table[index]
        for fn, rates, cols, rows, index in self.factors:
            arg = np.zeros((len(rates), N))
            for i in cols:
                arg += Pt[i] * rates[:, i, None]
            V[rows] *= fn(arg)[index]
        # add.at adds the rows one at a time in index order, so each member's
        # terms add up in term order, from 0.0
        out = np.zeros((self.m, N))
        np.add.at(out, self.member, V)
        return out.T


class ExpPoly:
    __slots__ = ("chart", "_lay", "_t")

    check_mode = "symbolic"  # the mode a report names for a symbolic check in this class

    def __init__(self, chart: VarSet, terms: Mapping[Key, float] | None = None):
        lay = _layout(len(chart))
        acc: dict = {}
        if terms:
            for (k, a, b, kind), c in terms.items():
                b2, kind2, c2 = _canon_trig(tuple(b), kind, float(c))
                key = (lay.pack(k), lay.rate(tuple(v + 0.0 for v in a), b2), kind2)
                acc[key] = acc.get(key, 0.0) + c2
        self.chart = chart
        self._lay = lay
        self._t = _cut(acc)

    @classmethod
    def _canonical(cls, chart: VarSet, lay: _Layout, acc: dict) -> "ExpPoly":
        """Trusted constructor for packed keys that are canonical already
        (see the module docstring); applies only the ZERO_TOL cut."""
        return cls._stored(chart, lay, _cut(acc))

    @classmethod
    def _stored(cls, chart: VarSet, lay: _Layout, terms: dict) -> "ExpPoly":
        """Trusted constructor for canonical packed keys whose coefficients
        are above ZERO_TOL already (module docstring); no cut."""
        self = object.__new__(cls)
        self.chart = chart
        self._lay = lay
        self._t = terms
        return self

    @property
    def terms(self) -> Mapping[Key, float]:
        """The terms {(k, a, b, kind): c} in term order, decoded from the
        packed store; read-only."""
        key = self._lay.key
        return MappingProxyType({key(*packed): c for packed, c in self._t.items()})

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, chart: VarSet) -> "ExpPoly":
        return cls._stored(chart, _layout(len(chart)), {})

    @classmethod
    def constant(cls, chart: VarSet, value: float) -> "ExpPoly":
        return cls._canonical(chart, _layout(len(chart)), {_CONSTANT: float(value)})

    @classmethod
    def one(cls, chart: VarSet) -> "ExpPoly":
        return cls.constant(chart, 1.0)

    @classmethod
    def coordinate(cls, chart: VarSet, name: str) -> "ExpPoly":
        K = 1 << (_BITS * chart.index(name))
        return cls._stored(chart, _layout(len(chart)), {(K, 0, KIND_ONE): 1.0})

    @classmethod
    def polynomial_in(cls, chart: VarSet, name: str, coeffs: Sequence[float]) -> "ExpPoly":
        """sum_k coeffs[k] * name^k, the terms in increasing k."""
        if len(coeffs) > MAX_EXPONENT + 1:
            raise ExponentOverflow(f"a monomial exponent exceeds {MAX_EXPONENT}")
        shift = _BITS * chart.index(name)
        acc = {(k << shift, 0, KIND_ONE): float(c) for k, c in enumerate(coeffs) if c}
        return cls._canonical(chart, _layout(len(chart)), acc)

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
        if self.chart is not other.chart and self.chart != other.chart:
            raise MismatchedVarSet(f"{self.chart.names} vs {other.chart.names}")

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            other = ExpPoly.constant(self.chart, float(other))
        self._check_chart(other)
        if not other._t:
            return self
        if not self._t:
            return other
        acc = self._t.copy()
        _add_terms(acc, other._t)
        return ExpPoly._stored(self.chart, self._lay, acc)

    __radd__ = __add__

    @classmethod
    def sum(cls, items: Sequence["ExpPoly"]) -> "ExpPoly":
        """The sum of one or more items (one item is itself), by `sums`
        under one key."""
        if len(items) == 1:
            return items[0]
        return cls.sums((0, p) for p in items).get(0, ExpPoly.zero(items[0].chart))

    @classmethod
    def sums(cls, pairs: Iterable[tuple[object, "ExpPoly"]]) -> dict:
        """{key: the sum of the polynomials paired with key}, one running
        term dict per key (module docstring, Sums)."""
        runs: dict = {}  # key -> [its first piece, its running term dict from the second on]
        for key, p in pairs:
            run = runs.get(key)
            if run is None:
                runs[key] = [p, None]
                continue
            first, acc = run
            first._check_chart(p)
            if acc is None:
                # 0.0 + c is c for a stored c: the first piece's terms are copied
                acc = run[1] = dict(first._t)
            _add_terms(acc, p._t)
            if not acc:
                del runs[key]
        return {key: first if acc is None else ExpPoly._stored(first.chart, first._lay, acc)
                for key, (first, acc) in runs.items()}

    def __neg__(self):
        return ExpPoly._stored(self.chart, self._lay, {k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, (ExpPoly, int, float, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, f: float) -> "ExpPoly":
        if f == 1.0:
            return self
        if f == 0.0:
            return ExpPoly._stored(self.chart, self._lay, {})
        return ExpPoly._canonical(self.chart, self._lay, {k: c * f for k, c in self._t.items()})

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            return self._scaled(float(other))
        self._check_chart(other)
        if not self._t or not other._t:
            return ExpPoly._stored(self.chart, self._lay, {})
        # a one-term constant scales the other operand (module docstring)
        if len(other._t) == 1 and _CONSTANT in other._t:
            return self._scaled(other._t[_CONSTANT])
        if len(self._t) == 1 and _CONSTANT in self._t:
            return other._scaled(self._t[_CONSTANT])
        lay = self._lay
        sums, difs = lay.sums, lay.difs
        acc: dict = {}
        get = acc.get
        right = [(K, r, t, c) for (K, r, t), c in other._t.items()]
        for (K1, r1, t1), c1 in self._t.items():
            srow = sums[r1]
            if t1 == KIND_ONE:
                # b1 = 0: the sum of the rates is (a1 + a2, b2)
                for K2, r2, t2, c2 in right:
                    key = (K1 + K2, srow[r2], t2)
                    acc[key] = get(key, 0.0) + c1 * c2
                continue
            drow = difs[r1]
            for K2, r2, t2, c2 in right:
                K = K1 + K2
                c = c1 * c2
                if t2 == KIND_ONE:
                    key = (K, srow[r2], t1)
                    acc[key] = get(key, 0.0) + c
                    continue
                # b1 + b2 is canonical, as b1 and b2 are; b1 - b2 may flip or vanish
                rd, sign = drow[r2]
                if t1 == t2:
                    # cos u cos v = (cos(u-v) + cos(u+v)) / 2
                    # sin u sin v = (cos(u-v) - cos(u+v)) / 2
                    key = (K, rd, KIND_COS if sign else KIND_ONE)
                    acc[key] = get(key, 0.0) + 0.5 * c
                    key = (K, srow[r2], KIND_COS)
                    acc[key] = get(key, 0.0) + (0.5 * c if t1 == KIND_COS else -0.5 * c)
                else:
                    # sin u cos v = (sin(u+v) + sin(u-v)) / 2
                    # cos u sin v = (sin(u+v) - sin(u-v)) / 2
                    key = (K, srow[r2], KIND_SIN)
                    acc[key] = get(key, 0.0) + 0.5 * c
                    if sign:
                        d = 0.5 * c if t1 == KIND_SIN else -0.5 * c
                        key = (K, rd, KIND_SIN)
                        acc[key] = get(key, 0.0) + (d if sign > 0 else -d)
                    else:
                        # sin(0) = 0
                        key = (K, rd, KIND_ONE)
                        acc[key] = get(key, 0.0) + 0.0
        if (_exponent_bits(self._t) + _exponent_bits(other._t)) & lay.guard:
            if any(K & lay.guard for K, _, _ in acc):
                raise ExponentOverflow(f"a product has a monomial exponent above {MAX_EXPONENT}")
        return ExpPoly._canonical(self.chart, lay, acc)

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

    def is_zero(self) -> bool:
        """Holds no term."""
        return not self._t

    def max_abs_coeff(self) -> float:
        return max(map(abs, self._t.values()), default=0.0)

    def poles(self) -> tuple:
        """The sets a numeric check avoids: none, an exponential polynomial is finite."""
        return ()

    def is_one(self) -> bool:
        return len(self._t) == 1 and self._t.get(_CONSTANT) == 1.0

    def is_polynomial(self) -> bool:
        """No exponential or trigonometric part in any term."""
        # rate id 0 is a = b = 0, and a trig term has b != 0
        return not any(map(itemgetter(1), self._t))

    def is_affine(self) -> bool:
        """Polynomial of total degree <= 1 (legal in exp/trig positions)."""
        return self.is_polynomial() and all(
            K == 0 or _position(K) is not None for K, _, _ in self._t)

    def _rate_positions(self) -> set[int]:
        """Positions of the variables in some term's a or b."""
        support = self._lay.support
        return set().union(*(support[r] for r in {r for _, r, _ in self._t}))

    def occurring(self) -> list[int]:
        """Positions of the variables in some term's k, a or b: the only
        ones with a nonzero derivative."""
        used = self._rate_positions()
        fields = self._lay.unpack(_exponent_bits(self._t))
        used.update(i for i, f in enumerate(fields) if f)
        return sorted(used)

    def exponential_terms(self) -> list[tuple[tuple[float, ...] | None, float]]:
        """(a, c) for each term c * exp(a.x), in term order; a is None for
        a term with a monomial or a trigonometric factor."""
        rates = self._lay.rates
        return [(rates[r][0] if not K and t == KIND_ONE else None, c)
                for (K, r, t), c in self._t.items()]

    def __reduce__(self):
        # rate ids belong to this process: pickle and copy the decoded terms
        return ExpPoly, (self.chart, dict(self.terms))

    def __eq__(self, other):
        return (
            isinstance(other, ExpPoly)
            and self.chart == other.chart
            and self._t == other._t
        )

    def __hash__(self):
        return hash((self.chart, frozenset(self._t.items())))

    def isclose(self, other: "ExpPoly", tol: float = ZERO_TOL) -> bool:
        return (self - other).max_abs_coeff() <= tol

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "ExpPoly":
        i = self.chart.index(name)
        shift = _BITS * i
        unit = 1 << shift
        rates = self._lay.rates
        acc: dict = {}
        get = acc.get
        for (K, r, kind), c in self._t.items():
            kv = (K >> shift) & _FIELD
            if kv:
                key = (K - unit, r, kind)
                acc[key] = get(key, 0.0) + c * kv
            if r:
                a, b = rates[r]
                if a[i] != 0.0:
                    key = (K, r, kind)
                    acc[key] = get(key, 0.0) + c * a[i]
                if b[i] != 0.0:
                    if kind == KIND_COS:
                        key = (K, r, KIND_SIN)
                        acc[key] = get(key, 0.0) + -c * b[i]
                    elif kind == KIND_SIN:
                        key = (K, r, KIND_COS)
                        acc[key] = get(key, 0.0) + c * b[i]
        return ExpPoly._canonical(self.chart, self._lay, acc)

    def antideriv(self, name: str) -> "ExpPoly":
        """Antiderivative in one variable, exact inside the class.

        The constant of integration is not fixed; `forms.potential`
        normalizes at a basepoint.
        """
        i = self.chart.index(name)
        shift = _BITS * i
        rates = self._lay.rates
        acc: dict = {}
        get = acc.get

        def put(key, c):
            acc[key] = get(key, 0.0) + c

        for (K, r, kind), c in self._t.items():
            kv = (K >> shift) & _FIELD
            av, bv = rates[r][0][i], rates[r][1][i]
            base = K - (kv << shift)
            if av == 0.0 and bv == 0.0:
                # the exp/trig part does not involve the variable
                if kv == MAX_EXPONENT:
                    raise ExponentOverflow(f"an antiderivative has a monomial exponent above {MAX_EXPONENT}")
                put((K + (1 << shift), r, kind), c / (kv + 1))
            else:
                # by parts at z = av, or complexified at z = av + i bv
                for j, pj in enumerate(by_parts(c, kv, complex(av, bv) if bv else av)):
                    if pj == 0:
                        continue
                    K2 = base + (j << shift)
                    if not bv:
                        put((K2, r, kind), pj)
                    elif kind == KIND_COS:
                        # Re[p e^{(a+ib).x}]
                        put((K2, r, KIND_COS), pj.real)
                        put((K2, r, KIND_SIN), -pj.imag)
                    else:
                        # Im[p e^{(a+ib).x}]
                        put((K2, r, KIND_COS), pj.imag)
                        put((K2, r, KIND_SIN), pj.real)
        return ExpPoly._canonical(self.chart, self._lay, acc)

    # ------------------------------------------------------------------
    # evaluation and substitution

    @classmethod
    def family(cls, chart: VarSet, members: Sequence["ExpPoly"]) -> Family:
        """The members, polynomials over chart, compiled for evaluation as
        one family."""
        return Family(chart, members)

    def evaluate_batch(self, points) -> np.ndarray:
        """Values at N points, given as an N x n array in chart order: the
        one-member family."""
        return Family(self.chart, [self]).evaluate(points)[:, 0]

    def evaluate(self, point: Mapping[str, float]) -> float:
        values = [point[name] for name in self.chart.names]
        if not any(values):
            # at the origin: the constant terms (module docstring)
            return functools.reduce(add, (c for (K, _, kind), c in self._t.items()
                                          if not K and kind != KIND_SIN), 0.0)
        return float(self.evaluate_batch([values])[0])

    def substitute(self, bindings: Mapping[str, "ExpPoly"] | "Substitution") -> "ExpPoly":
        """Exact composition.  Variables appearing inside exp/trig rates must
        be bound to affine expressions; polynomial positions take arbitrary
        exponential polynomials.  Unbound variables must exist in the target
        chart and are bound to themselves.  `bindings` may be a
        `Substitution` prepared for this chart, shared by many calls."""
        plan = bindings
        if not isinstance(plan, Substitution) or (plan.source is not self.chart and plan.source != self.chart):
            plan = Substitution(self.chart, getattr(bindings, "bindings", bindings))
        if plan.renaming is not None:
            return self._renamed(plan)

        # the bindings of every rate variable must be affine
        for i in sorted(self._rate_positions()):
            plan.affine[i]
        target, tl = plan.target, plan.layout
        unpack = self._lay.unpack
        acc: dict = {}
        for (K, r, kind), c in self._t.items():
            exp_const, one, trig, flipped, cth, sth = plan.rate_images[r]
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
            if kind == KIND_ONE:
                piece = {(0, one, KIND_ONE): 0.0 + coeff}
            else:
                # cos(phase + L) = cos(phase) cos L - sin(phase) sin L
                # sin(phase + L) = sin(phase) cos L + cos(phase) sin L
                cv, sv = (coeff * cth, -coeff * sth) if kind == KIND_COS else (coeff * sth, coeff * cth)
                if trig is None:
                    # L = 0: the sin term drops
                    piece = {(0, one, KIND_ONE): 0.0 + cv + 0.0}
                else:
                    piece = {(0, trig, KIND_COS): 0.0 + cv, (0, trig, KIND_SIN): 0.0 + (-sv if flipped else sv)}
            p = ExpPoly._canonical(target, tl, piece)
            if K:
                for i, ki in enumerate(unpack(K)):
                    if ki:
                        p = p * plan.powers[(i, ki)]
            _add_terms(acc, p._t)
        return ExpPoly._stored(target, tl, acc)

    def _signed_coordinate(self) -> tuple[int, float] | None:
        """(j, c) when the polynomial is c x_j with c = 1 or -1, else None."""
        if len(self._t) != 1:
            return None
        (((K, r, kind), c),) = self._t.items()
        j = _position(K)
        if abs(c) != 1.0 or r or kind != KIND_ONE or j is None:
            return None
        return j, c

    def _renamed(self, plan: "Substitution") -> "ExpPoly":
        """Variable i moved to target position plan.renaming[i], the
        positions consecutive and increasing, and negated where the binding
        is -y: the packed exponents shift, and the signs follow the
        module docstring."""
        positions, negated = plan.renaming, plan.negated
        moved = self._lay.renamed[(len(plan.target), positions, negated)]
        shift = _BITS * positions[0]
        # the lowest bit of each negated variable's exponent field: the
        # parity of its exponent
        odd = sum(1 << (_BITS * i) for i in negated)
        terms = {}
        for (K, r, t), c in self._t.items():
            r2, flipped = moved[r]
            if ((K & odd).bit_count() + (flipped and t == KIND_SIN)) & 1:
                c = -c
            terms[(K << shift, r2, t)] = c
        return ExpPoly._stored(plan.target, plan.layout, terms)

    @classmethod
    def bind(cls, chart: VarSet, bindings: Mapping[str, "ExpPoly"]):
        """Composition with bindings, prepared once for polynomials over chart."""
        plan = Substitution(chart, bindings)
        return lambda p: p.substitute(plan)

    def map_component(self) -> "ExpPoly":
        return self

    def basepoint_value(self, point: Mapping[str, object]) -> float:
        """The value `forms.potential` subtracts at the basepoint; finite."""
        try:
            value = self.evaluate(point)
        except OverflowError:
            raise NonFiniteCoefficient("a basepoint coordinate is too large for a float") from None
        if not math.isfinite(value):
            raise NonFiniteCoefficient(f"the antiderivative is {value} at the basepoint {point}")
        return value

    def exp_matrix(self, E) -> SparseMatrix:
        """The entries of the `matexp.ExpMatrix` E = e^{tA} at t = self, from
        E's sparse rows, each distinct entry composed once; an entry the
        composition cuts to zero is left out."""
        bind = Substitution(E.chart, {E.var: self})
        distinct = {id(e): e for row in E.rows for _, e in row}
        images = {key: e.substitute(bind) for key, e in distinct.items()}
        rows = [[(b, images[id(e)]) for b, e in row if images[id(e)]._t] for row in E.rows]
        return SparseMatrix(rows, E.n, ExpPoly.zero(self.chart))

    # ------------------------------------------------------------------
    # serialization

    def sorted_terms(self) -> list[tuple[Key, float]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_text(self) -> str:
        if not self._t:
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
        cos and sin of an affine argument.  Other text, a coefficient or
        rate that is not a finite float, and an exponent above
        MAX_EXPONENT raise SchemaError."""
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
        except ExponentOverflow as exc:
            raise SchemaError(f"exponential polynomial {text!r}: {exc}") from exc
        if not all(math.isfinite(x) for (_, a, b, _), c in value.terms.items() for x in (c, *a, *b)):
            raise SchemaError(not_finite)
        return value

    def __repr__(self):
        return f"ExpPoly({self.to_text()})"


class Substitution:
    """The bindings x_i -> bindings[x_i] of `ExpPoly.substitute`, prepared
    once for the polynomials over `source`: the binding of every source
    variable, the renaming positions and the negated variables when each
    is a signed bare target coordinate +-y_j in consecutive increasing
    positions, and, on first use, the affine part of a binding, the image
    of each rate pair and each power of a binding, all kept for the life
    of the plan: over the entries of a factor in `exp_matrix`, and over
    every composition with mu (a `PointMap` keeps mu's plan)."""

    def __init__(self, source: VarSet, bindings: Mapping[str, ExpPoly]):
        target = next(iter(bindings.values())).chart if bindings else source
        full = []
        for name in source.names:
            if name in bindings:
                bound = bindings[name]
                if bound.chart != target:
                    raise MismatchedVarSet("bindings must share one target chart")
            else:
                if name not in target:
                    raise MismatchedVarSet(
                        f"unbound variable {name!r} missing from target chart"
                    )
                bound = ExpPoly.coordinate(target, name)
            full.append(bound)
        self.source = source
        self.bindings = bindings
        self.target = target
        self.layout = _layout(len(target))
        self.full = full
        signed = [p._signed_coordinate() for p in full]
        positions = [j for j, _ in signed] if all(signed) else []
        consecutive = bool(positions) and positions == list(range(positions[0], positions[0] + len(positions)))
        self.renaming = tuple(positions) if consecutive else None
        self.negated = tuple(i for i, (_, c) in enumerate(signed) if c < 0) if consecutive else ()
        # affine[i]: (const, {j: lin_j}) of the binding of x_i
        self.affine = _Memo(self._affine)
        # rate_images[r]: what a source rate pair becomes in the target
        self.rate_images = _Memo(self._rate_image)
        # powers[(i, k)]: the binding of x_i to the power k
        self.powers = _Memo(lambda ik: full[ik[0]] ** ik[1])

    def _affine(self, i: int) -> tuple[float, dict[int, float]]:
        val = self.full[i]
        if not val.is_affine():
            raise NonAffineExponentSubstitution(
                f"variable {self.source.names[i]!r} occurs in an exp/trig rate but is bound "
                "to a non-affine expression"
            )
        const = 0.0
        lin: dict[int, float] = {}
        for (K, _, _), c in val._t.items():
            if not K:
                const += c
            else:
                j = _position(K)
                lin[j] = lin.get(j, 0.0) + c
        return const, lin

    def _rate_image(self, r: int):
        """(exp_const, one, trig, flipped, cos(phase), sin(phase)) for the
        rates (a, b) of id r: a.x at the bindings is exp_const + a'.y and
        b.x is phase + b'.y; one is the target id of (a', 0), trig that of
        (a', b') with b' canonical (None when b' = 0), flipped when that
        negated b'."""
        a, b = _layout(len(self.source)).rates[r]
        nt = len(self.target)
        exp_const, a_new = _affine_image(a, self.affine, nt)
        phase, b_new = _affine_image(b, self.affine, nt)
        a2 = tuple(v + 0.0 for v in a_new)
        b2, sign = _canonical_b(tuple(b_new))
        one = self.layout.rate(a2, (0.0,) * nt)
        trig = self.layout.rate(a2, b2) if sign else None
        flipped = sign < 0
        return exp_const, one, trig, flipped, math.cos(phase), math.sin(phase)


def _affine_image(v, affine, nt: int) -> tuple[float, list[float]]:
    """(c, v') with v.x = c + v'.y, when affine[i] = (const, {j: lin_j})
    binds x_i to const + sum_j lin_j y_j over nt target coordinates."""
    const = 0.0
    out = [0.0] * nt
    for i, vi in enumerate(v):
        if vi == 0.0:
            continue
        ci, lin = affine[i]
        const += vi * ci
        for j, lj in lin.items():
            out[j] += vi * lj
    return const, out


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
