"""Equitable 2-partitions, quotient matrices and Cameron-Liebler classes.

Conventions:
  * a partition is an ordered pair (V1, V2) of disjoint nonempty sorted
    vertex tuples covering the graph;
  * the quotient matrix [[p11, p12], [p21, p22]] counts, for a vertex of
    part i, its neighbours in part j; its non-principal eigenvalue is
    p11 - p21 = p22 - p12;
  * the eigenfunction attached to an equitable partition takes the value
    p12 on V1 and -p21 on V2, divided by their gcd, so it is integral,
    primitive and positive on V1;
  * a Cameron-Liebler line class is tested both against all reguli and
    as a part of an equitable partition at the positive non-principal
    eigenvalue; the two verdicts are reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .designs import Graph, cached_block_graph, projective_design, srg_params_formula
from .eigenfunctions import Eigenfunction, verify_eigenfunction
from .errors import (
    BadDecompositionError,
    EigenvalueClashError,
    InconsistentQuotientError,
    NotAnEigenfunctionError,
    NotEquitableError,
    NotSignFunctionError,
    NotTwoValuedError,
)
from .geometry import Hyperplane, ProjSpace, normalize_point
from .reguli import RegulusPair, enumerate_reguli


class Partition2:
    """An ordered 2-partition of a vertex set: two disjoint nonempty
    sorted parts.  Covering the full vertex set is checked against the
    graph by quotient_matrix."""

    __slots__ = ("v1", "v2", "mask1", "mask2")

    def __init__(self, v1: Iterable[int], v2: Iterable[int]):
        self.v1 = tuple(sorted({int(u) for u in v1}))
        self.v2 = tuple(sorted({int(u) for u in v2}))
        if not self.v1 or not self.v2:
            raise ValueError("both parts must be nonempty")
        if set(self.v1) & set(self.v2):
            raise ValueError("parts must be disjoint")
        m1 = m2 = 0
        for u in self.v1:
            m1 |= 1 << u
        for u in self.v2:
            m2 |= 1 << u
        self.mask1 = m1
        self.mask2 = m2

    @classmethod
    def from_part(cls, graph: Graph, part: Iterable[int]) -> Partition2:
        part = sorted({int(u) for u in part})
        rest = sorted(set(range(graph.v)) - set(part))
        return cls(part, rest)

    def __eq__(self, other):
        return isinstance(other, Partition2) and self.v1 == other.v1 and self.v2 == other.v2

    def __hash__(self):
        return hash((self.v1, self.v2))

    def __repr__(self):
        return f"Partition2(|V1|={len(self.v1)}, |V2|={len(self.v2)})"


@dataclass(frozen=True)
class QuotientMatrix:
    """Constant neighbour counts [[p11, p12], [p21, p22]] of an equitable
    2-partition.  ``is_principal`` marks a disconnected split, whose
    non-principal eigenvalue degenerates to the degree."""

    p11: int
    p12: int
    p21: int
    p22: int

    def __post_init__(self):
        for x in (self.p11, self.p12, self.p21, self.p22):
            if x < 0:
                raise ValueError("quotient entries must be non-negative")

    @property
    def k(self) -> int:
        if self.p11 + self.p12 != self.p21 + self.p22:
            raise InconsistentQuotientError(
                f"row sums differ: {self.p11 + self.p12} != {self.p21 + self.p22}"
            )
        return self.p11 + self.p12

    @property
    def is_principal(self) -> bool:
        return self.p12 == 0 and self.p21 == 0

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.p11, self.p12), (self.p21, self.p22))


def quotient_matrix(graph: Graph, part: Partition2) -> QuotientMatrix:
    """The quotient matrix of the partition, or NotEquitable with a
    witness pair of same-part vertices whose counts differ."""
    if (part.mask1 | part.mask2) != (1 << graph.v) - 1:
        raise ValueError("partition does not cover the vertex set")
    adj = graph.adj
    consts = []
    for pidx, vs in enumerate((part.v1, part.v2)):
        u0 = vs[0]
        c0 = ((adj[u0] & part.mask1).bit_count(), (adj[u0] & part.mask2).bit_count())
        for u in vs[1:]:
            c = ((adj[u] & part.mask1).bit_count(), (adj[u] & part.mask2).bit_count())
            if c != c0:
                raise NotEquitableError(
                    f"vertices {u0} and {u} of part {pidx + 1} see {c0} and {c} "
                    "neighbours in (V1, V2)",
                    witness=(pidx + 1, (u0, c0), (u, c)),
                )
        consts.append(c0)
    return QuotientMatrix(consts[0][0], consts[0][1], consts[1][0], consts[1][1])


def partition_eigenvalue(q: QuotientMatrix) -> int:
    """The non-principal eigenvalue p11 - p21 of the quotient matrix,
    with the consistency check p11 - p21 = p22 - p12."""
    if q.p11 - q.p21 != q.p22 - q.p12:
        raise InconsistentQuotientError(
            f"p11 - p21 = {q.p11 - q.p21} but p22 - p12 = {q.p22 - q.p12}"
        )
    return q.p11 - q.p21


def partition_to_eigenfunction(graph: Graph, part: Partition2) -> Eigenfunction:
    """The (p12, -p21)/gcd valued eigenfunction of an equitable partition."""
    q = quotient_matrix(graph, part)
    theta = partition_eigenvalue(q)
    if q.is_principal:
        raise NotTwoValuedError(
            "principal partition: p12 = p21 = 0 gives the zero vector, not two values"
        )
    g = gcd(q.p12, q.p21)
    x1, x2 = q.p12 // g, -(q.p21 // g)
    if q.p11 * x1 + q.p12 * x2 != theta * x1 or q.p21 * x1 + q.p22 * x2 != theta * x2:
        raise InconsistentQuotientError(f"({x1}, {x2}) is not a {theta}-eigenvector of {q.rows()}")
    vals = {u: x1 for u in part.v1}
    vals.update({u: x2 for u in part.v2})
    f = Eigenfunction(graph, theta, vals)
    res = verify_eigenfunction(graph, f)
    if not res:
        raise NotAnEigenfunctionError(
            f"partition function fails at vertex {res.witness[0]}", witness=res.witness
        )
    return f


# -- the balance condition -------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Counts of the positive and negative support halves of a sign
    function inside the first part of an equitable partition."""

    m_plus: int
    m_minus: int
    equal: bool


def balance_check(
    graph: Graph,
    f1: Eigenfunction,
    decomposition: Iterable[Eigenfunction],
    part: Partition2,
    theta: int,
) -> BalanceReport:
    """Count the positive and negative supports of a (1, -1, 0)-valued
    function inside V1 of a theta-equitable partition.

    The preconditions are verified, not assumed: f1 must be a sign
    function with halves of equal size, the supplied decomposition must
    sum to f1 with every summand a verified eigenfunction whose
    eigenvalue avoids both theta and the degree, and the partition must
    be theta-equitable.  Under these hypotheses the two counts agree.
    """
    vals = set(f1.values.values())
    if not vals <= {Fraction(1), Fraction(-1)}:
        raise NotSignFunctionError(f"values {sorted(map(str, vals))} are not within {{1, -1}}")
    plus = [u for u in f1.support if f1.values[u] > 0]
    minus = [u for u in f1.support if f1.values[u] < 0]
    if len(plus) != len(minus):
        raise NotSignFunctionError(
            f"support halves have sizes {len(plus)} and {len(minus)}"
        )
    k = graph.k
    total: dict[int, Fraction] = {}
    for fi in decomposition:
        if fi.theta == theta or fi.theta == k:
            raise EigenvalueClashError(
                f"decomposition eigenvalue {fi.theta} clashes with theta={theta} or k={k}"
            )
        res = verify_eigenfunction(graph, fi)
        if not res:
            raise BadDecompositionError(
                f"summand with eigenvalue {fi.theta} fails verification at vertex {res.witness[0]}"
            )
        for u, x in fi.values.items():
            total[u] = total.get(u, Fraction(0)) + x
    if {u: x for u, x in total.items() if x} != f1.values:
        raise BadDecompositionError("decomposition does not sum to the function")
    q = quotient_matrix(graph, part)
    theta_pi = partition_eigenvalue(q)
    if theta_pi != theta:
        raise NotEquitableError(
            f"partition is equitable with eigenvalue {theta_pi}, not {theta}"
        )
    m_plus = sum(1 for u in plus if part.mask1 >> u & 1)
    m_minus = sum(1 for u in minus if part.mask1 >> u & 1)
    return BalanceReport(m_plus, m_minus, m_plus == m_minus)


# -- Cameron-Liebler line classes -------------------------------------------------


@dataclass(frozen=True)
class CameronLieblerVerdict:
    """Verdicts of the two Cameron-Liebler tests: equality of regulus
    intersections, and membership in an equitable partition at the
    positive non-principal eigenvalue.  ``witness`` is the first regulus
    pair, in canonical order, with unequal intersections."""

    is_cl_reguli: bool
    is_cl_equitable: bool
    agree: bool
    witness: RegulusPair | None = None
    quotient: QuotientMatrix | None = None


def cameron_liebler_check(pspace: ProjSpace, line_set, graph: Graph | None = None) -> CameronLieblerVerdict:
    """Test a set of line indices of PG(3, q) with both Cameron-Liebler
    criteria."""
    if pspace.n != 3:
        raise ValueError("Cameron-Liebler line classes live in PG(3, q)")
    indices = set(line_set)
    if not all(type(u) is int and 0 <= u < len(pspace.lines) for u in indices):
        raise ValueError("line set entries must be line indices in range")

    witness = None
    is_cl_reguli = True
    for pair in enumerate_reguli(pspace):
        a = sum(1 for l in pair.r_lines if pspace.index_of(l) in indices)
        b = sum(1 for l in pair.opp_lines if pspace.index_of(l) in indices)
        if a != b:
            is_cl_reguli = False
            witness = pair
            break

    if graph is None:
        graph = cached_block_graph(projective_design(3, pspace.field))
    nlines = graph.v
    r = srg_params_formula(graph.design.N, graph.design.M).r
    if not indices or len(indices) == nlines:
        # degenerate classes: no proper partition, but every regulus is
        # met equally often, so both methods accept
        is_cl_equitable = True
        quotient = None
    else:
        part = Partition2.from_part(graph, indices)
        try:
            quotient = quotient_matrix(graph, part)
            is_cl_equitable = partition_eigenvalue(quotient) == r
        except NotEquitableError:
            quotient = None
            is_cl_equitable = False
    return CameronLieblerVerdict(
        is_cl_reguli=is_cl_reguli,
        is_cl_equitable=is_cl_equitable,
        agree=is_cl_reguli == is_cl_equitable,
        witness=witness,
        quotient=quotient,
    )


# -- named line sets ---------------------------------------------------------------


def star_line_set(space, point) -> tuple[int, ...]:
    """Indices of all lines through a point (given as index or coordinates)."""
    if not isinstance(point, int):
        point = space.point_index[tuple(point)]
    return tuple(space.lines_at[point])


def plane_line_set(pspace: ProjSpace, hyperplane: Hyperplane) -> tuple[int, ...]:
    """Indices of all lines inside a hyperplane of a projective space."""
    f = pspace.field
    h = Hyperplane(normalize_point(f, hyperplane.normal))
    return tuple(i for i, l in enumerate(pspace.lines) if h.contains_line(f, l))


def direction_class_line_set(aspace, direction) -> tuple[int, ...]:
    """Indices of all affine lines with a given direction: a parallel
    class of the whole space."""
    d = normalize_point(aspace.field, tuple(direction))
    return tuple(i for i, l in enumerate(aspace.lines) if l.dir == d)
