"""The codimension-one reduction pipeline.

Given n one-forms satisfying the structure equations of a solvable Lie
algebra in a chain-adapted basis, one reduction step integrates the last
form of the current block to a function f and applies the matrix
exponential of f times the restricted adjoint; the block shrinks by one
and the structure equations restrict to the ideal.  Running all n steps
turns the forms into exact differentials df^1..df^n; the functions double
as the coordinates of the map onto the synthesized group.

The reduction rests on one lemma: a step maps a block that satisfies the
structure equations of k_s to one that satisfies those of k_{s+1}.  So
the structure equations are checked once, by `reduce_full`: on the input
block (level 0) and, on an early stop, on the block it hands back.  The
steps check nothing.  A deeper block that fails all the same, after a
float truncation, shows as a typed error of a later step (as a rule
`NotClosed`), which `reduce_full` marks with the step's level, or in the
check each pipeline makes of its own result.

`unreduce` runs the steps backwards: the inverse factors e^{-f ad_s},
applied to (df^1..df^n) from the deepest level up, give back the forms
whose reduction yields f^1..f^n.  Un-reducing the coordinate functions
gives the left-invariant coframe (`liegroup.coframe`); `verify_rho`
un-reduces them in the class of rho's components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import LiequadError, NotClosed, ResidualNonzero
from .forms import (
    DiffForm,
    Domain,
    PointMap,
    differential,
    full_basepoint,
    potential,
    pullback_check,
    structure_residual,
)
from .liealg import AdaptedChain, mat_vec
from .report import TOL_ZERO, Report
from .varset import VarSet, coordinate_chart


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
    # worst structure residual of each checked level: 0, and r on an early stop
    residuals: dict[int, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.steps) == self.chain.n


def _factor_matrix(E, f):
    """e^{f A} in f's class, or None when E is None (A = 0); the inverse
    factor e^{-f A} is the one at -f.

    E is the chain's e^{tA} (`AdaptedChain.ad_exp` or `full_ad_exp`), built
    once per chain, and f a scalar, whose `exp_matrix` composes E with it
    (a log-extended scalar by `rational._log_factor`).
    """
    return None if E is None else f.exp_matrix(E)


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
    tol: float = TOL_ZERO,
) -> tuple[ReductionStep, list[DiffForm]]:
    """One reduction at ideal depth s: returns the step and the omega-hat list.

    The input block has n - s forms satisfying the structure equations of
    k_s, which the step does not check (module docstring); the output
    block satisfies those of k_{s+1} x R and its last form is df.
    """
    m = chain.n - s
    if len(omegas) != m:
        raise ValueError(f"expected {m} forms at level {s}, got {len(omegas)}")
    f = potential(omegas[m - 1], basepoint, tol=tol)
    factor = _factor_matrix(chain.ad_exp(s), f)
    hat = list(omegas) if factor is None else mat_vec(factor, omegas)
    return ReductionStep(s, f, factor), hat


def reduce_full(
    omegas: Sequence[DiffForm],
    chain: AdaptedChain,
    basepoint: Mapping[str, object] | None = None,
    stop_after: int | None = None,
    tol: float = TOL_ZERO,
) -> ReductionTrace:
    """Run the reduction to exact differentials (or stop after r steps).

    Produces functions f^1..f^n with f^i(basepoint) = 0 whose differentials
    are the fully transformed input forms.  The structure equations are
    checked on the input block and on the remaining block of an early stop;
    a typed error of a step carries that step's level.
    """
    n = chain.n
    if len(omegas) != n:
        raise ValueError(f"expected {n} forms, got {len(omegas)}")
    chart = omegas[0].chart
    basepoint = full_basepoint(chart, basepoint)
    r = n if stop_after is None else min(stop_after, n)
    trace = ReductionTrace(chain, chart, basepoint)
    trace.residuals[0] = _check_level(omegas, chain, 0, tol)
    trace.functions = [None] * n
    current = list(omegas)
    for s in range(r):
        m = n - s
        try:
            step, hat = reduce_step(current, chain, s, basepoint, tol)
        except LiequadError as exc:
            exc.level = s
            if isinstance(exc, NotClosed):
                exc.args = (f"the level-{s} quadrature form is not closed: {exc}",)
            raise
        trace.steps.append(step)
        trace.functions[m - 1] = step.f
        current = hat[: m - 1]
    if r < n:
        # at r = 0 the remaining block is the input block, checked above
        if r > 0:
            trace.residuals[r] = _check_level(current, chain, r, tol)
        trace.residual_forms = current
    return trace


def unreduce(chain: AdaptedChain, functions: Sequence) -> list[DiffForm]:
    """The forms whose reduction yields f^1..f^n (functions[i] is f^{i+1}):
    the inverse factors e^{-f^{n-s} [ad_s]}, each the factor at -f^{n-s},
    applied to (df^1..df^n) from the deepest level s = n-1 up to s = 0."""
    n = chain.n
    forms = [differential(f) for f in functions]
    for s in range(n - 1, -1, -1):
        m = n - s
        inv_factor = _factor_matrix(chain.ad_exp(s), -functions[m - 1])
        if inv_factor is not None:
            forms = mat_vec(inv_factor, forms[:m]) + forms[m:]
    return forms


def reassemble(trace: ReductionTrace) -> list[DiffForm]:
    """Invert the reduction: `unreduce` of the trace's functions.
    Equal to the original input forms when the trace is complete."""
    if not trace.complete:
        raise ValueError("reassembly needs a complete trace")
    return unreduce(trace.chain, trace.functions)


def rho_map(trace: ReductionTrace) -> PointMap:
    """The map onto the group chart x1..xn (`coordinate_chart`) assembled
    from the `map_component` of each quadrature function: a log-extended
    function becomes rational, and one with log terms raises ClassMismatch."""
    if not trace.complete:
        raise ValueError("rho needs a complete trace")
    comps = [f.map_component() for f in trace.functions]
    return PointMap(trace.chart, coordinate_chart(trace.chain.n), comps)


def verify_rho(
    trace: ReductionTrace,
    omegas: Sequence[DiffForm],
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    mode: str = "auto",
) -> Report:
    """Check rho^* tau^i = omega^i, symbolically when the composition stays
    in class, otherwise numerically on random tangent vectors at points of
    [-1.5, 1.5]^n off the poles of rho's components and of the forms.

    tau is the un-reduction of the coordinates of rho's target chart, in
    the class of rho's components, so the check composes within one class.
    For exponential polynomials it is `liegroup.coframe`.  For rational
    functions every factor is the exact nilpotent series: a complete trace
    with a rational rho only meets nilpotent nonzero ad_s, since any other
    factor of a rational quadrature raises during the reduction.
    """
    rho = rho_map(trace)
    scls = type(rho.components[0])
    taus = unreduce(trace.chain, [scls.coordinate(rho.target, nm) for nm in rho.target.names])
    coeffs = [*rho.components, *(c for omega in omegas for c in omega.coeffs.values())]
    poles = tuple(dict.fromkeys(p for c in coeffs for p in c.poles()))
    domain = Domain(rho.source, poles, half_width=1.5)
    errors, used, detail = pullback_check(rho, taus, omegas, mode, samples, random.Random(seed), domain)
    report = Report()
    if errors is None:
        report.add("rho^* tau^i = omega^i", False, used, None, detail)
        return report
    for i, w in enumerate(errors):
        report.add(f"rho^* tau^{i + 1} = omega^{i + 1}", w <= tol, used, w)
    return report
