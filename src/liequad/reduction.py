"""The codimension-one reduction pipeline.

Given n one-forms satisfying the structure equations of a solvable Lie
algebra in a chain-adapted basis, one reduction step integrates the last
form of the current block to a function f and applies the matrix
exponential of f times the restricted adjoint; the block shrinks by one
and the structure equations restrict to the ideal.  Running all n steps
turns the forms into exact differentials df^1..df^n; the functions double
as the coordinates of the map onto the synthesized group.

`unreduce` runs the steps backwards: the inverse factors e^{-f ad_s},
applied to (df^1..df^n) from the deepest level up, give back the forms
whose reduction yields f^1..f^n.  Un-reducing the coordinate functions
gives the left-invariant coframe (`liegroup.coframe`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import NonElementaryInClass, ResidualNonzero
from .exppoly import ExpPoly, ZERO_TOL
from .forms import (
    DiffForm,
    PointMap,
    differential,
    full_basepoint,
    potential,
    pullback_check,
    structure_residual,
)
from .liealg import AdaptedChain, lin_comb
from .matexp import sym_exp
from .report import Report
from .varset import VarSet


@dataclass
class ReductionStep:
    level: int  # s: ideal depth, block size n - s
    f: object  # quadrature function f^{n-s}
    factor: list | None  # (n-s) x (n-s) scalar matrix e^{f [ad_s]}, None when ad_s = 0


@dataclass
class ReductionTrace:
    chain: AdaptedChain
    chart: VarSet
    basepoint: dict
    steps: list[ReductionStep] = field(default_factory=list)
    functions: list = field(default_factory=list)  # f^1..f^n (f^i at index i-1)
    residual_forms: list = field(default_factory=list)  # nonempty on early stop
    residuals: list[float] = field(default_factory=list)  # worst structure residual per level

    @property
    def complete(self) -> bool:
        return len(self.steps) == self.chain.n


class StepResult(tuple):
    """The (f, omega-hat) pair of one reduction step.  It also carries the
    step's factor matrix and the measured residual of its input block,
    which reduce_full records in the trace."""

    def __new__(cls, f, hat, factor, residual: float):
        pair = super().__new__(cls, (f, hat))
        pair.factor = factor
        pair.residual = residual
        return pair


def _factor_matrix(A, f):
    """e^{f A} as a scalar matrix in f's class, or None when A = 0.

    A is a rational matrix and f a scalar: an ExpPoly, a rational function,
    or a log-extended scalar, whose log terms need `_log_factor`.
    """
    if all(x == 0 for row in A for x in row):
        return None
    E = sym_exp(A, "_t")
    if not isinstance(f, ExpPoly):
        from .rational import LogExtendedScalar

        if isinstance(f, LogExtendedScalar):
            if not f.is_pure_rational:
                return _log_factor(E, f)
            f = f.as_rational()
    return E.compose(f)


def _log_factor(E, f):
    """exp of (sum c_i log p_i) times the adjoint: rational exactly when
    every eigenvalue times every log coefficient is an integer, turning
    e^{lambda f} into a product of integer powers p_i^{lambda c_i}.
    The classical integrating-factor situation."""
    from .rational import RationalFunction

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
            for (k, a, b, kind), c in entry.terms.items():
                if k[0] != 0 or any(v != 0.0 for v in b):
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


def _check_level(omegas: Sequence[DiffForm], chain: AdaptedChain, s: int, tol: float) -> float:
    """Worst structure residual of the level-s block; raises past tol."""
    res = structure_residual(omegas, chain.base.restricted(chain.n - s))
    worst = max((r.max_abs_coeff() for r in res), default=0.0)
    if worst > tol:
        raise ResidualNonzero(
            f"forms fail the level-{s} structure equations (residual {worst:.3e})",
            level=s,
            residual=worst,
        )
    return worst


def reduce_step(
    omegas: Sequence[DiffForm],
    chain: AdaptedChain,
    s: int,
    basepoint: Mapping[str, object] | None = None,
    tol: float = ZERO_TOL,
) -> StepResult:
    """One reduction at ideal depth s: returns (f, omega-hat list).

    The input block has n - s forms satisfying the structure equations of
    k_s; the output block satisfies those of k_{s+1} x R and its last form
    is df.
    """
    m = chain.n - s
    if len(omegas) != m:
        raise ValueError(f"expected {m} forms at level {s}, got {len(omegas)}")
    worst = _check_level(omegas, chain, s, tol)
    f = potential(omegas[m - 1], basepoint, tol=tol)
    factor = _factor_matrix(chain.ad_matrix(s), f)
    hat = list(omegas) if factor is None else [lin_comb(row, omegas) for row in factor]
    return StepResult(f, hat, factor, worst)


def reduce_full(
    omegas: Sequence[DiffForm],
    chain: AdaptedChain,
    basepoint: Mapping[str, object] | None = None,
    stop_after: int | None = None,
    tol: float = ZERO_TOL,
) -> ReductionTrace:
    """Run the reduction to exact differentials (or stop after r steps).

    Produces functions f^1..f^n with f^i(basepoint) = 0 whose differentials
    are the fully transformed input forms.  Each level's block is checked
    against its structure equations once, the remaining block included
    on an early stop.
    """
    n = chain.n
    if len(omegas) != n:
        raise ValueError(f"expected {n} forms, got {len(omegas)}")
    chart = omegas[0].chart
    basepoint = full_basepoint(chart, basepoint)
    r = n if stop_after is None else min(stop_after, n)
    trace = ReductionTrace(chain, chart, basepoint)
    trace.functions = [None] * n
    current = list(omegas)
    for s in range(r):
        m = n - s
        step = reduce_step(current, chain, s, basepoint, tol)
        f, hat = step
        trace.steps.append(ReductionStep(s, f, step.factor))
        trace.residuals.append(step.residual)
        trace.functions[m - 1] = f
        current = hat[: m - 1]
    if r < n:
        trace.residuals.append(_check_level(current, chain, r, tol))
        trace.residual_forms = current
    return trace


def unreduce(chain: AdaptedChain, functions: Sequence) -> list[DiffForm]:
    """The forms whose reduction yields f^1..f^n (functions[i] is f^{i+1}):
    the inverse factors e^{-f^{n-s} [ad_s]} applied to (df^1..df^n), from
    the deepest level s = n-1 up to s = 0."""
    n = chain.n
    forms = [differential(f) for f in functions]
    for s in range(n - 1, -1, -1):
        m = n - s
        neg_ad = [[-x for x in row] for row in chain.ad_matrix(s)]
        inv_factor = _factor_matrix(neg_ad, functions[m - 1])
        if inv_factor is not None:
            forms = [lin_comb(row, forms[:m]) for row in inv_factor] + forms[m:]
    return forms


def reassemble(trace: ReductionTrace) -> list[DiffForm]:
    """Invert the reduction: `unreduce` of the trace's functions.
    Equal to the original input forms when the trace is complete."""
    if not trace.complete:
        raise ValueError("reassembly needs a complete trace")
    return unreduce(trace.chain, trace.functions)


def rho_map(trace: ReductionTrace, target: VarSet | None = None) -> PointMap:
    """The map onto the group chart assembled from the quadrature functions."""
    if not trace.complete:
        raise ValueError("rho needs a complete trace")
    n = trace.chain.n
    if target is None:
        target = VarSet(tuple(f"x{i}" for i in range(1, n + 1)))
    comps = []
    for f in trace.functions:
        if not isinstance(f, ExpPoly):
            from .rational import LogExtendedScalar

            if isinstance(f, LogExtendedScalar):
                f = f.as_rational()  # raises when log terms are present
        comps.append(f)
    return PointMap(trace.chart, target, comps)


def verify_rho(
    trace: ReductionTrace,
    taus: Sequence[DiffForm],
    omegas: Sequence[DiffForm],
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    domain=None,
    mode: str = "auto",
) -> Report:
    """Check rho^* tau^i = omega^i, symbolically when the composition stays
    in class, otherwise numerically on random tangent vectors."""
    rho = rho_map(trace, taus[0].chart)
    names = trace.chart.names

    def sample_point(rng):
        if domain is not None:
            return domain.sample(rng)
        return {nm: rng.uniform(-1.5, 1.5) for nm in names}

    errors, used, detail = pullback_check(
        rho, taus, omegas, mode, samples, random.Random(seed), sample_point
    )
    report = Report()
    if errors is None:
        report.add("rho^* tau^i = omega^i", False, "symbolic", None, detail)
        return report
    for i, w in enumerate(errors):
        report.add(f"rho^* tau^{i + 1} = omega^{i + 1}", w <= tol, used, w)
    return report
