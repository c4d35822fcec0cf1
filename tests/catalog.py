"""Catalog of solvable Lie algebras used by the test and acceptance suites.

All structure constants are exact rationals.  The second five-dimensional
entry uses b = 665857/470832 (a continued-fraction convergent of sqrt(2),
exact to ~1.6e-12), so the eigenvalue ratio of its adjoint matrices is
irrational at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from liequad.liealg import StructureConstants

F = Fraction


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    constants: StructureConstants
    description: str


def five_dim_two_parameter(a: Fraction, b: Fraction) -> StructureConstants:
    """The 5-dimensional solvable family with a rotation block:
    [e1,e4]=b e1, [e1,e5]=a e1, [e2,e4]=e2, [e2,e5]=-e3, [e3,e4]=e3,
    [e3,e5]=e2, with a^2 + b^2 != 0."""
    if a == 0 and b == 0:
        raise ValueError("parameters must not both vanish")
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


def heisenberg() -> StructureConstants:
    """[e2, e3] = e1 in a chain-adapted order."""
    return StructureConstants.from_brackets(3, {(2, 3): {1: F(1)}})


def affine_line() -> StructureConstants:
    """The 2-dimensional non-abelian algebra [e1, e2] = e1."""
    return StructureConstants.from_brackets(2, {(1, 2): {1: F(1)}})


def filiform4() -> StructureConstants:
    """4-dimensional nilpotent (filiform): [e4,e3]=e2, [e4,e2]=e1."""
    return StructureConstants.from_brackets(4, {(4, 3): {2: F(1)}, (4, 2): {1: F(1)}})


def sl2() -> StructureConstants:
    """Non-solvable control case: [e1,e2]=2e2, [e1,e3]=-2e3, [e2,e3]=e1."""
    return StructureConstants.from_brackets(
        3, {(1, 2): {2: F(2)}, (1, 3): {3: F(-2)}, (2, 3): {1: F(1)}}
    )


SQRT2_CONVERGENT = F(665857, 470832)


def catalog() -> list[CatalogEntry]:
    return [
        CatalogEntry("abelian1", StructureConstants.abelian(1), "abelian R^1"),
        CatalogEntry("abelian3", StructureConstants.abelian(3), "abelian R^3"),
        CatalogEntry("abelian5", StructureConstants.abelian(5), "abelian R^5"),
        CatalogEntry("heisenberg", heisenberg(), "Heisenberg algebra, [e2,e3]=e1"),
        CatalogEntry("affine2", affine_line(), "2-dim non-abelian, [e1,e2]=e1"),
        CatalogEntry("filiform4", filiform4(), "4-dim nilpotent filiform"),
        CatalogEntry(
            "fiveparam_a1_b2",
            five_dim_two_parameter(F(1), F(2)),
            "5-dim solvable family at (a,b)=(1,2)",
        ),
        CatalogEntry(
            "fiveparam_irrational",
            five_dim_two_parameter(F(1), SQRT2_CONVERGENT),
            "5-dim solvable family with irrational eigenvalue ratio (b ~ sqrt 2)",
        ),
    ]

