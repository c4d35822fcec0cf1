"""Exception types shared across the toolkit.

Every error carries a machine-readable ``code`` so CLI reports can be
consumed programmatically.
"""


class LiequadError(Exception):
    code = "error"
    level: int | None = None  # the reduction step's chain level, when known


class MismatchedVarSet(LiequadError):
    """Operands live over different coordinate charts."""

    code = "mismatched-varset"


class ClassMismatch(LiequadError):
    """Exponential-polynomial and rational coefficients cannot be mixed."""

    code = "class-mismatch"


class NonAffineExponentSubstitution(LiequadError):
    """A variable occurring inside an exp/trig rate was bound to a
    non-affine expression; the composition leaves the closed class."""

    code = "non-affine-exponent-substitution"


class NonElementaryInClass(LiequadError):
    """The antiderivative exists but not inside the supported function
    class (rational plus rational-root logarithms)."""

    code = "non-elementary-in-class"


class NonFiniteCoefficient(LiequadError):
    """A float coefficient became NaN, as when an overflow to infinity
    cancels (inf - inf), or a quadrature's value at the basepoint, which
    normalizes it, overflows."""

    code = "non-finite-coefficient"


class ExponentOverflow(LiequadError):
    """A monomial exponent exceeds the largest one an exponential
    polynomial stores (exppoly.MAX_EXPONENT)."""

    code = "exponent-overflow"


class PoleAtPoint(LiequadError):
    code = "pole-at-point"


class BasepointOnPole(LiequadError):
    code = "basepoint-on-pole"


class NotClosed(LiequadError):
    """A 1-form expected to be closed has a nonzero exterior derivative."""

    code = "not-closed"


class ResidualNonzero(LiequadError):
    """Input forms fail the structure equations they were claimed to satisfy.

    ``level`` is the chain level whose block failed and ``residual`` the
    measured worst coefficient, when known.
    """

    code = "residual-nonzero"

    def __init__(self, message: str, level: int | None = None, residual: float | None = None):
        super().__init__(message)
        self.level = level
        self.residual = residual


class NotSolvable(LiequadError):
    code = "not-solvable"


class SingularMatrix(LiequadError):
    code = "singular-matrix"


class DegenerateTransversality(LiequadError):
    """det <theta^i, Z_j> vanishes identically."""

    code = "degenerate-transversality"


class EmptyDomain(LiequadError):
    """No sample point was found off the excluded hypersurfaces."""

    code = "empty-domain"


class SchemaError(LiequadError):
    """Malformed JSON input."""

    code = "schema-error"
