"""Seeded input generator for the `groups` workload.

Builds the structure constants of the scaling ladder: filiform L_n, Borel
b_k (upper-triangular k x k matrices), the 5-dimensional two-parameter
family at an irrational-looking ratio, and two seeded rational draws of
that family.  `check` verifies every algebra exactly (antisymmetry, Jacobi,
solvability); the benchmark runs it once per run, before any timing.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from liequad import StructureConstants, is_solvable, validate

# b = 665857/470832 is a continued-fraction convergent of sqrt(2): the
# eigenvalue ratio of the adjoint matrices is irrational at machine precision.
SQRT2_CONVERGENT = F(665857, 470832)

# (a, b) are drawn from small nonzero rationals.
DRAW_VALUES = sorted({F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)})


def filiform(n: int) -> StructureConstants:
    """L_n: [e_n, e_k] = e_{k-1} for k = 2..n-1."""
    return StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})


def borel(k: int) -> StructureConstants:
    """b_k: upper-triangular k x k matrices, basis E_ij (i <= j),
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    basis = [(i, j) for i in range(k) for j in range(i, k)]
    index = {e: p + 1 for p, e in enumerate(basis)}
    brackets: dict[tuple[int, int], dict[int, F]] = {}
    for p, (i, j) in enumerate(basis):
        for q in range(p + 1, len(basis)):
            kk, ll = basis[q]
            # for distinct basis elements at most one delta is nonzero
            if j == kk:
                brackets[(p + 1, q + 1)] = {index[(i, ll)]: F(1)}
            elif ll == i:
                brackets[(p + 1, q + 1)] = {index[(kk, j)]: F(-1)}
    return StructureConstants.from_brackets(len(basis), brackets)


def fiveparam(a: F, b: F) -> StructureConstants:
    """[e1,e4]=b e1, [e1,e5]=a e1, [e2,e4]=e2, [e2,e5]=-e3, [e3,e4]=e3, [e3,e5]=e2."""
    return StructureConstants.from_brackets(
        5,
        {
            (1, 4): {1: b},
            (1, 5): {1: a},
            (2, 4): {2: F(1)},
            (2, 5): {3: F(-1)},
            (3, 4): {3: F(1)},
            (3, 5): {2: F(1)},
        },
    )


def ladder(seed: int) -> list[tuple[str, StructureConstants, tuple[F, F] | None]]:
    """The ladder for one seed: (name, constants, (a, b) for the 5-dim draws)."""
    rng = random.Random(seed)
    draws = [(rng.choice(DRAW_VALUES), rng.choice(DRAW_VALUES)) for _ in range(2)]
    out = [(f"filiform{n}", filiform(n), None) for n in (6, 10, 14, 16)]
    out += [(f"borel{k}", borel(k), None) for k in (3, 4)]
    out.append(("fiveparam_irrational", fiveparam(F(1), SQRT2_CONVERGENT), None))
    out += [(f"fiveparam_draw{d}", fiveparam(a, b), (a, b)) for d, (a, b) in enumerate(draws)]
    return out


def check(algebras) -> None:
    """Raise ValueError unless every algebra is a valid solvable Lie algebra."""
    for name, sc, _ in algebras:
        if not validate(sc).ok or not is_solvable(sc):
            raise ValueError(f"generated algebra {name} is not a valid solvable Lie algebra")
