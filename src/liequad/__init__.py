"""Symbolic construction of solvable Lie groups and first integrals by
quadratures and matrix exponentials.

From the structure constants of a solvable real Lie algebra the toolkit
builds a chain of codimension-one ideals, realizes a left-invariant
coframe and frame on R^n in closed form, reduces structure-equation forms
to exact differentials by one quadrature per chain level, synthesizes the
global multiplication map of the simply connected group, and computes
first integrals of Pfaffian systems with transverse solvable symmetry.
"""

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
from .exppoly import ExpPoly
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


def __getattr__(name: str):
    # the rational classes are imported on first use, which keeps compiling
    # them out of `import liequad`
    if name in ("LogExtendedScalar", "RationalFunction"):
        from . import rational

        return getattr(rational, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
