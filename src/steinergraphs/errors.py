"""The four exception types of the package, one per distinction a caller
makes.

Everything raised deliberately by this package is a SteinerError, and
every SteinerError has a ``witness`` attribute: the counterexample, for
the errors that carry one, else None.  The message tells one failure
from another.  A subclass exists only where some caller catches it by
name:

- LimitExceededError: the CLI exits 3 on it, where any other
  SteinerError exits 1;
- NotAnEigenfunctionError: ``enumerate-optimal`` records a failed
  verification as a failed check;
- NotEquitableError: ``cameron_liebler_check`` and ``equitable`` report a
  non-equitable partition as a result, not as an error.
"""

from __future__ import annotations


class SteinerError(Exception):
    """A construction, certificate or input that breaks a geometric or
    spectral condition."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class LimitExceededError(SteinerError):
    """An input refused before any work because it exceeds a resource
    limit.  A search whose node budget runs out raises nothing: it
    returns an incomplete result with its checkpoint."""


class NotAnEigenfunctionError(SteinerError):
    """The function fails the vertex-wise eigenvalue equation; ``witness``
    is (vertex, lhs, rhs)."""


class NotEquitableError(SteinerError):
    """The partition is not equitable; ``witness`` is a vertex pair with
    differing counts, (part_index, (vertex_a, count_a), (vertex_b, count_b))."""
