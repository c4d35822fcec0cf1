"""First integrals of completely integrable Pfaffian systems with a
transverse solvable symmetry algebra.

The pairing matrix P^i_j = <theta^i, Z_j> is inverted exactly over the
rational function field; the normalized generators omega = P^{-1} theta
satisfy the structure equations of the symmetry algebra and feed the
reduction pipeline, which returns one first integral per quadrature.
All arithmetic in this module is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DegenerateTransversality, NotSolvable, SingularMatrix
from .forms import DiffForm, Domain, VectorField, bracket_residuals, differential, pairing
from .liealg import StructureConstants, adapted_chain, is_solvable, lin_comb, mat_inverse, mat_mul, mat_vec, transform_forms
from .matexp import matrix_batch
from .reduction import reduce_full
from .report import TOL_ZERO, Report

if TYPE_CHECKING:
    from .rational import RationalFunction


@dataclass
class PfaffianSystem:
    domain: Domain
    theta: list[DiffForm]

    def __post_init__(self):
        from .rational import RationalFunction

        for t in self.theta:
            if t.degree != 1:
                raise ValueError("Pfaffian generators must be 1-forms")
            if t.scls is not RationalFunction:
                raise ValueError("this module works over rational coefficients only")
            if t.chart != self.domain.chart:
                raise ValueError("generator chart mismatch")


@dataclass
class SymmetryAlgebra:
    fields: list[VectorField]
    constants: StructureConstants

    def verify_brackets(self) -> Report:
        """[Z_j, Z_k] = C^i_{jk} Z_i, exact."""
        report = Report()
        ok = all(r.is_zero() for r in bracket_residuals(self.fields, self.constants))
        report.add("[Z_j, Z_k] = C^i_jk Z_i", ok, "exact")
        return report


def transversality(
    theta: Sequence[DiffForm], fields: Sequence[VectorField]
) -> tuple[list[list[RationalFunction]], list[list[RationalFunction]]]:
    """Pairing matrix P^i_j = <theta^i, Z_j>, the coefficients of the theta
    times the components of the fields, and its exact inverse.  The
    determinant of P must not vanish identically (the zero set joins the
    excluded hypersurfaces); the inversion proves it."""
    if len(theta) != len(fields):
        raise ValueError("need as many symmetry fields as generators")
    if any(t.degree != 1 for t in theta):
        raise ValueError("pairing needs a 1-form")
    coefficients = [[t.coefficient((k,)) for k in range(len(t.chart))] for t in theta]
    P = mat_mul(coefficients, list(zip(*(Z.components for Z in fields))))
    try:
        return P, mat_inverse(P)
    except SingularMatrix as exc:
        raise DegenerateTransversality("det <theta^i, Z_j> vanishes identically") from exc


def normalize(
    theta: Sequence[DiffForm],
    fields: Sequence[VectorField],
    constants: StructureConstants,
) -> list[DiffForm]:
    """omega^i = (P^{-1})^i_j theta^j, so that <omega^i, Z_j> = delta^i_j.

    The omegas satisfy the structure equations of `constants` exactly when
    the fields are symmetries of the system with these constants; they are
    not checked here but once, on the input of the reduction in
    `first_integrals`, in the adapted basis.
    """
    _, Pinv = transversality(theta, fields)
    return mat_vec(Pinv, theta)


def first_integrals(
    system: PfaffianSystem,
    symmetry: SymmetryAlgebra,
    basepoint: Mapping[str, object],
    verify_samples: int = 20,
    seed: int = 0,
):
    """n functionally independent first integrals by n quadratures.

    Returns (functions, report); each df^i is verified to lie in the span
    of the input generators with exactly computed rational coefficients.
    """
    report = Report()
    report.extend(symmetry.verify_brackets())
    sc = symmetry.constants
    if not is_solvable(sc):
        raise NotSolvable("symmetry algebra is not solvable")
    theta = system.theta
    fields = symmetry.fields
    omegas = normalize(theta, fields, sc)
    change, chain = adapted_chain(sc)
    trace = reduce_full(transform_forms(change, omegas), chain, basepoint, tol=TOL_ZERO)
    residual = trace.residuals[0]
    report.add("structure equations of omega = P^{-1} theta", residual <= TOL_ZERO, "exact", residual)
    functions = trace.functions

    chart = system.domain.chart
    n = len(theta)
    dfs = [differential(f) for f in functions]
    # df = sum_j <df, Z_j> omega^j exactly when df lies in span{omega} = span{theta}
    membership_ok = all(
        (df - lin_comb([pairing(df, Z) for Z in fields], omegas)).is_zero() for df in dfs
    )
    report.add("df^i in span{theta^j} (exact membership)", membership_ok, "exact")

    # functional independence: df^1 ^ ... ^ df^n nonzero
    top = dfs[0]
    for df in dfs[1:]:
        top = top.wedge(df)
    indep_symbolic = not top.is_zero()
    report.add("df^1 ^ ... ^ df^n not identically zero", indep_symbolic, "exact")

    # functional independence at sample points: the rank check via the
    # largest absolute n x n minor of the partials, its smallest value over
    # the samples recorded
    rng = random.Random(seed)
    points = [[pt[nm] for nm in chart.names] for pt in (system.domain.sample(rng) for _ in range(verify_samples))]
    grads = matrix_batch([[df.coefficient((j,)) for j in range(len(chart))] for df in dfs], points)
    best = np.zeros(verify_samples)
    for cols in combinations(range(len(chart)), n):
        best = np.fmax(best, np.abs(np.linalg.det(grads[:, :, cols])))
    worst = min(best.tolist(), default=None)
    report.add("functional independence at sample points", worst is None or worst > 1e-9, "numeric", worst)
    return functions, report
