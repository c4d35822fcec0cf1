"""Symbolic construction of solvable Lie groups and first integrals by
quadratures and matrix exponentials.

From the structure constants of a solvable real Lie algebra the toolkit
builds a chain of codimension-one ideals, realizes a left-invariant
coframe and frame on R^n in closed form, reduces structure-equation forms
to exact differentials by one quadrature per chain level, synthesizes the
global multiplication map of the simply connected group, and computes
first integrals of Pfaffian systems with transverse solvable symmetry.

`import liequad` loads neither numpy nor a scalar ring.  The scalar
classes `ExpPoly` (which loads numpy), `RationalFunction` and
`LogExtendedScalar` are imported on their first use, so a process that
evaluates no floats never loads numpy.
"""

import importlib

from .errors import (
    BasepointOnPole,
    ClassMismatch,
    DegenerateTransversality,
    EmptyDomain,
    ExponentOverflow,
    LiequadError,
    MismatchedVarSet,
    NonAffineExponentSubstitution,
    NonElementaryInClass,
    NonFiniteCoefficient,
    NotClosed,
    NotSolvable,
    PoleAtPoint,
    ResidualNonzero,
    SchemaError,
    SingularMatrix,
)
from .forms import (
    DiffForm,
    Domain,
    PointMap,
    VectorField,
    full_basepoint,
    lie_bracket,
    pairing,
    potential,
    pullback,
    structure_residual,
)
from .liealg import (
    AdaptedChain,
    StructureConstants,
    adapted_chain,
    chain_from_adapted,
    change_basis,
    derived_series,
    is_solvable,
    transform_forms,
    validate,
)
from .liegroup import (
    preadjoint_forms,
    GroupLaw,
    SolvGroup,
    ad_rep,
    build_group,
    coframe,
    frame,
    group_invariants_report,
    multiplication,
    preadjoint_oracle,
    verify_group,
)
from .matexp import ExpMatrix, sym_exp
from .pfaffian import PfaffianSystem, SymmetryAlgebra, first_integrals, normalize, transversality
from .reduction import ReductionTrace, reassemble, reduce_full, reduce_step, rho_map, unreduce, verify_rho
from .varset import VarSet, coordinate_chart, doubled_chart

__version__ = "0.1.0"


# the scalar classes, each imported from its module on first use
_LAZY = {"ExpPoly": "exppoly", "LogExtendedScalar": "rational", "RationalFunction": "rational"}

# every public class and function, the lazy ones included
__all__ = sorted([name for name, value in globals().items() if callable(value) and not name.startswith("_")]
                 + list(_LAZY))


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
