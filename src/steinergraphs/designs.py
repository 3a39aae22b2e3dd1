"""Steiner systems from line geometries and their block graphs.

The lines of PG(n, q) form a 2-((q^(n+1)-1)/(q-1), q+1, 1) design and the
lines of AG(n, q) a 2-(q^n, q, 1) design.  The block graph joins two
blocks exactly when they share a point; for these designs that gives the
Grassmann graph J_q(n+1, 2) and its affine counterpart X_q(n, 1).  Both
are strongly regular with integer eigenvalues, and this module computes
their parameters twice: by exhaustive pair counting and by the closed
formulas in terms of (N, M), which must agree.

Adjacency is stored as one integer bitmask per vertex, so common
neighbour counts are popcounts of ANDed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import (
    InconsistentParametersError,
    IrrationalEigenvaluesError,
    NonIntegralError,
    NotAnEigenvalueError,
    NotStronglyRegularError,
    SymmetricDesignError,
)
from .geometry import aff_space, proj_space
from .gf import field_make


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Design:
    """A 2-(N, M, 1) design whose blocks are the lines of a space.

    Blocks are point-index tuples in canonical line order, so block i of
    the design is line i of the underlying space.  The design keeps its
    block graph once cached_block_graph has built it.
    """

    def __init__(self, space):
        self.space = space
        self.points = space.points
        self.blocks = tuple(ln.points for ln in space.lines)
        self.N = len(self.points)
        self.M = len(self.blocks[0])
        self.blocks_at = space.lines_at
        self._graph = None

    def __repr__(self):
        return f"Design(N={self.N}, M={self.M}, blocks={len(self.blocks)}, space={self.space!r})"


def _design_on(space) -> Design:
    """The one design of a shared space, kept on the space."""
    if space._design is None:
        space._design = Design(space)
    return space._design


def projective_design(n: int, q_or_field) -> Design:
    """Steiner system of the lines of PG(n, q)."""
    if n < 2:
        raise ValueError("projective design needs n >= 2")
    field = q_or_field if hasattr(q_or_field, "q") else _field_of(q_or_field)
    return _design_on(proj_space(n, field))


def affine_design(n: int, q_or_field) -> Design:
    """Steiner system of the lines of AG(n, q)."""
    if n < 3:
        raise ValueError("affine design needs n >= 3")
    field = q_or_field if hasattr(q_or_field, "q") else _field_of(q_or_field)
    return _design_on(aff_space(n, field))


def _field_of(q: int):
    for p in range(2, q + 1):
        k = 0
        qq = q
        while qq % p == 0:
            qq //= p
            k += 1
        if qq == 1 and k >= 1:
            return field_make(p, k)
        if q % p == 0:
            break
    raise ValueError(f"{q} is not a prime power")


class Graph:
    """Undirected graph on vertices 0..v-1 with bitmask adjacency rows.

    ``design`` is set when the graph is the block graph of a design, in
    which case vertex order equals canonical block order.
    """

    def __init__(self, adj, design: Design | None = None):
        self.adj = tuple(adj)
        self.v = len(self.adj)
        self.design = design
        for u, row in enumerate(self.adj):
            if row >> self.v:
                raise ValueError("adjacency bit outside vertex range")
            if row & (1 << u):
                raise ValueError(f"loop at vertex {u}")
        for u in range(self.v):
            for w in bit_indices(self.adj[u]):
                if not self.adj[w] & (1 << u):
                    raise ValueError(f"asymmetric adjacency {u},{w}")

    def __repr__(self):
        return f"Graph(v={self.v})"

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def is_edge(self, u: int, w: int) -> bool:
        return bool(self.adj[u] & (1 << w))

    def common_count(self, u: int, w: int) -> int:
        return (self.adj[u] & self.adj[w]).bit_count()

    @property
    def k(self) -> int:
        degs = {self.degree(u) for u in range(self.v)}
        if len(degs) != 1:
            raise ValueError("graph is not regular")
        return degs.pop()


def block_graph(design: Design) -> Graph:
    """Block graph: blocks adjacent iff they share a point."""
    nblocks = len(design.blocks)
    point_masks = [0] * len(design.points)
    for i, blk in enumerate(design.blocks):
        for p in blk:
            point_masks[p] |= 1 << i
    adj = [0] * nblocks
    for i, blk in enumerate(design.blocks):
        m = 0
        for p in blk:
            m |= point_masks[p]
        adj[i] = m & ~(1 << i)
    return Graph(adj, design=design)


def cached_block_graph(design: Design) -> Graph:
    """The block graph of a design, built once and kept on the design."""
    if design._graph is None:
        design._graph = block_graph(design)
    return design._graph


@dataclass(frozen=True)
class SrgParams:
    """Parameters and exact spectrum of a strongly regular graph with
    integer eigenvalues k > r > s, together with the 3x3 matrix whose
    rows are (multiplicity, eigenvalue, complement eigenvalue)."""

    v: int
    k: int
    lmbda: int
    mu: int
    r: int
    s: int
    delta: int
    m_r: int
    m_s: int
    modified: tuple[tuple[int, int, int], ...]


def srg_spectrum(v: int, k: int, lmbda: int, mu: int) -> SrgParams:
    """Exact eigenvalues r > s and multiplicities from (v, k, lambda, mu)."""
    disc = (lmbda - mu) ** 2 + 4 * (k - mu)
    delta = isqrt(disc)
    if delta * delta != disc:
        raise IrrationalEigenvaluesError(
            f"discriminant {disc} is not a perfect square"
        )
    if (lmbda - mu + delta) % 2 != 0:
        raise IrrationalEigenvaluesError("eigenvalues are not integers")
    r = (lmbda - mu + delta) // 2
    s = (lmbda - mu - delta) // 2
    if r == s:
        raise IrrationalEigenvaluesError("degenerate spectrum r = s")
    num_r = -((v - 1) * s + k)
    num_s = (v - 1) * r + k
    if num_r % (r - s) or num_s % (r - s):
        raise IrrationalEigenvaluesError("non-integral multiplicities")
    m_r = num_r // (r - s)
    m_s = num_s // (r - s)
    modified = (
        (1, k, v - 1 - k),
        (m_r, r, -1 - r),
        (m_s, s, -1 - s),
    )
    params = SrgParams(v, k, lmbda, mu, r, s, delta, m_r, m_s, modified)
    if params.r + params.s != lmbda - mu or params.r * params.s != mu - k:
        raise InconsistentParametersError(
            f"eigenvalues {params.r}, {params.s} do not solve the SRG quadratic"
        )
    if 1 + params.m_r + params.m_s != v or k + params.m_r * params.r + params.m_s * params.s != 0:
        raise InconsistentParametersError(
            f"multiplicities {params.m_r}, {params.m_s} break v = 1 + m_r + m_s or trace 0"
        )
    return params


def srg_params_formula(N: int, M: int) -> SrgParams:
    """Parameters of the block graph of any 2-(N, M, 1) design.

    Symmetric designs (N = M^2 - M + 1) give complete block graphs and
    are rejected; so are (N, M) with non-integral parameter formulas.
    """
    if M < 2 or N <= M:
        raise ValueError(f"invalid design parameters N={N}, M={M}")
    if N == M * M - M + 1:
        raise SymmetricDesignError(
            f"2-({N},{M},1) is symmetric; its block graph is complete"
        )
    if (N - 1) % (M - 1):
        raise NonIntegralError(f"replication number (N-1)/(M-1) not integral")
    if (N * (N - 1)) % (M * (M - 1)):
        raise NonIntegralError(f"block count N(N-1)/(M(M-1)) not integral")
    v = N * (N - 1) // (M * (M - 1))
    k = M * (N - M) // (M - 1)
    lmbda = (M - 1) ** 2 + (N - 1) // (M - 1) - 2
    mu = M * M
    params = srg_spectrum(v, k, lmbda, mu)
    if params.s != -M:
        raise InconsistentParametersError(
            f"smallest eigenvalue {params.s} of a block graph is not -M = {-M}"
        )
    return params


def srg_params_brute(g: Graph) -> SrgParams:
    """Parameters obtained by exhaustive scanning of all vertex pairs;
    raises NotStronglyRegularError with a witness on any violation."""
    v = g.v
    if v < 2:
        raise NotStronglyRegularError("graph too small", witness=None)
    k = g.degree(0)
    for u in range(1, v):
        if g.degree(u) != k:
            raise NotStronglyRegularError(
                f"degree of vertex {u} is {g.degree(u)} != {k}",
                witness=(u, g.degree(u), k),
            )
    lmbda = mu = None
    for u in range(v):
        for w in range(u + 1, v):
            c = g.common_count(u, w)
            if g.is_edge(u, w):
                if lmbda is None:
                    lmbda = c
                elif c != lmbda:
                    raise NotStronglyRegularError(
                        f"edge {u},{w} has {c} common neighbours, expected {lmbda}",
                        witness=(u, w, c, lmbda),
                    )
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    raise NotStronglyRegularError(
                        f"non-edge {u},{w} has {c} common neighbours, expected {mu}",
                        witness=(u, w, c, mu),
                    )
    if lmbda is None or mu is None:
        raise NotStronglyRegularError(
            "graph is complete or empty; not strongly regular in the usual sense",
            witness=None,
        )
    return srg_spectrum(v, k, lmbda, mu)


def wdb(params: SrgParams, theta: int) -> int:
    """Minimum support size of a theta-eigenfunction (weight-distribution
    bound): 1 + |theta| + |((theta - lambda).theta - k) / mu|."""
    if theta not in (params.r, params.s):
        raise NotAnEigenvalueError(
            f"{theta} is not a non-principal eigenvalue of {params}"
        )
    num = (theta - params.lmbda) * theta - params.k
    if num % params.mu:
        raise NonIntegralError("weight-distribution bound is not integral")
    bound = 1 + abs(theta) + abs(num // params.mu)
    closed = -2 * params.s if theta == params.s else 2 * (params.r + 1)
    if bound != closed:
        raise InconsistentParametersError(f"bound formula gives {bound} but the closed form {closed}")
    return bound


def delsarte_check(g: Graph) -> tuple[int, bool]:
    """Clique-size bound 1 + k/(-s); checks each point's pencil (all
    blocks through the point) is a clique of exactly that size."""
    params = srg_params_brute(g)
    if g.design is None:
        raise ValueError("delsarte_check needs a block graph with its design")
    if params.k % (-params.s):
        raise NonIntegralError("Delsarte bound is not integral")
    bound = 1 + params.k // (-params.s)
    ok = True
    for p in range(len(g.design.points)):
        pencil = g.design.blocks_at[p]
        if len(pencil) != bound:
            ok = False
            break
        if any(
            not g.is_edge(a, b)
            for i, a in enumerate(pencil)
            for b in pencil[i + 1 :]
        ):
            ok = False
            break
    return bound, ok
