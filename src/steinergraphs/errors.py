"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from SteinerError,
so callers can catch one type.  Every SteinerError has a ``witness``
attribute: the counterexample, for the errors that carry one, else None.
"""

from __future__ import annotations


class SteinerError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonPrimeError(SteinerError):
    """A field characteristic that is not a prime number."""


class LimitExceededError(SteinerError):
    """An input refused before any work because it exceeds a resource
    limit.  A search whose node budget runs out raises nothing: it
    returns an incomplete result with its checkpoint."""


class MixedFieldsError(SteinerError):
    """Operands that do not belong to the same finite field."""


class DimensionMismatchError(SteinerError):
    """Vectors or matrices with incompatible shapes."""


class EqualPointsError(SteinerError):
    """Two points that were required to be distinct coincide."""


class LinesNotSkewError(SteinerError):
    """Lines that were required to be pairwise skew are not."""


class NotCoplanarError(SteinerError):
    """Three lines that do not span a common 3-dimensional flat."""


class NotARegulusError(SteinerError):
    """A line family that breaks a regulus axiom: a transversal that
    misses a line it must meet, or a line missing from the family that
    its transversals generate; or a pair given in the wrong kind of
    space."""


class HyperplaneHitsLineError(SteinerError):
    """A hyperplane that was required to avoid a line family meets it."""


class DependentVectorsError(SteinerError):
    """Vectors that were required to be linearly independent are not."""


class WrongCountError(SteinerError):
    """An input collection has the wrong number of members."""


class SymmetricDesignError(SteinerError):
    """A symmetric design: its block graph is complete, so the strongly
    regular parameter formulas degenerate."""


class NonIntegralError(SteinerError):
    """A parameter formula did not produce an integer."""


class IrrationalEigenvaluesError(SteinerError):
    """Eigenvalues of the parameter set are irrational (conference-graph
    style discriminant that is not a perfect square)."""


class InconsistentParametersError(SteinerError):
    """Strongly regular parameters, a spectrum or a support bound that
    break an identity they must satisfy."""


class IncidenceError(SteinerError):
    """Point and line tables that break an incidence axiom: a parallel
    class that is not q lines of its plane, or a coordinate change that
    does not map a line onto a line."""


class NotStronglyRegularError(SteinerError):
    """The graph is not strongly regular; ``witness`` names the offending
    vertex pair and counts."""


class NotAnEigenvalueError(SteinerError):
    """A number that is not an eigenvalue of the graph in question."""


class ZeroFunctionError(SteinerError):
    """The all-zero function, which is excluded from eigenfunction work."""


class NotAnEigenfunctionError(SteinerError):
    """The function fails the vertex-wise eigenvalue equation; ``witness``
    is (vertex, lhs, rhs)."""


class NotOptimalError(SteinerError):
    """An eigenfunction whose support is not of the minimum size, where
    minimum-support structure was required, or whose support lacks the
    size or shape that its construction promises."""


class NotEquitableError(SteinerError):
    """The partition is not equitable; ``witness`` is a vertex pair with
    differing counts, (part_index, (vertex_a, count_a), (vertex_b, count_b))."""


class InconsistentQuotientError(SteinerError):
    """A 2x2 quotient matrix whose two off-diagonal eigenvalue readings
    disagree."""


class NotTwoValuedError(SteinerError):
    """A function that does not take exactly two values."""


class NotSignFunctionError(SteinerError):
    """A function that is not (1, -1, 0)-valued with equal positive and
    negative parts."""


class BadDecompositionError(SteinerError):
    """A claimed eigenfunction decomposition that does not sum to the
    target function or contains a non-eigenfunction term."""


class EigenvalueClashError(SteinerError):
    """A decomposition term whose eigenvalue collides with an excluded
    one."""
