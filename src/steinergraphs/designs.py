"""Steiner systems from line geometries and their block graphs.

The lines of PG(n, q) form a 2-((q^(n+1)-1)/(q-1), q+1, 1) design and the
lines of AG(n, q) a 2-(q^n, q, 1) design.  The block graph joins two
blocks exactly when they share a point; for these designs that gives the
Grassmann graph J_q(n+1, 2) and its affine counterpart X_q(n, 1).  Both
are strongly regular with integer eigenvalues, and this module computes
their parameters twice: by exhaustive pair counting and by the closed
formulas in terms of (N, M), which must agree.

Adjacency is stored as one integer bitmask per vertex, a block graph's
being its space's meet table ``space.meets``, so common neighbour counts
are popcounts of ANDed rows.  A graph also keeps, per field width and up
to a fixed budget, its rows spread to one field per vertex, on which the
eigenvalue check sums a whole function in one integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt

from .errors import SteinerError
from .geometry import AffSpace, aff_space, bit_indices, proj_space
from .gf import field_of_order


# bits of packed adjacency rows that one graph keeps, over all widths (16 MiB)
PACKED_TABLE_BITS = 1 << 27


class Design:
    """A 2-(N, M, 1) design whose blocks are the lines of a space.

    Blocks are point-index tuples in canonical line order, so block i of
    the design is line i of the underlying space.  The design keeps its
    block ``graph`` and ``params``, the block graph's parameters by the
    closed formulas, once read; projective_design and affine_design
    memoise one design per space.
    """

    def __init__(self, space):
        self.space = space
        self.blocks = tuple(ln.points for ln in space.lines)
        self.N = len(space.points)
        self.M = len(self.blocks[0])

    def __repr__(self):
        return f"Design(N={self.N}, M={self.M}, blocks={len(self.blocks)}, space={self.space!r})"

    @cached_property
    def params(self) -> SrgParams:
        return srg_params_formula(self.N, self.M)

    @cached_property
    def graph(self) -> Graph:
        return Graph(self.space.meets, self)


@cache
def _design_on(space) -> Design:
    """The one design of a space; AG(n, q) needs n >= 3."""
    if isinstance(space, AffSpace) and space.n < 3:
        raise ValueError("affine design needs n >= 3")
    return Design(space)


def projective_design(n: int, q: int) -> Design:
    """Steiner system of the lines of PG(n, q)."""
    return _design_on(proj_space(n, field_of_order(q)))


def affine_design(n: int, q: int) -> Design:
    """Steiner system of the lines of AG(n, q)."""
    return _design_on(aff_space(n, field_of_order(q)))


class Graph:
    """Undirected graph on vertices 0..v-1 with bitmask adjacency rows.

    ``design`` is set when the graph is the block graph of a design, in
    which case vertex order equals canonical block order.
    """

    def __init__(self, adj, design: Design | None = None):
        self.adj = tuple(adj)
        self.v = len(self.adj)
        self.design = design
        self._packed: dict[int, tuple[int, ...]] = {}
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

    def packed_rows(self, bits: int) -> tuple[tuple[int, ...] | None, int]:
        """Adjacency rows spread to fields of at least ``bits`` bits,
        rounded up to a whole number of bytes: row w is the sum of
        2^(width*u) over the neighbours u of w.  Returns the rows and the
        width; each width is built once and kept on the graph.  The rows
        of one width hold at most v * v * width bits; a width that would
        bring the kept rows past PACKED_TABLE_BITS is not built, and its
        rows are None."""
        width = -(-bits // 8) * 8
        rows = self._packed.get(width)
        if rows is None:
            if self.v * self.v * (width + sum(self._packed)) > PACKED_TABLE_BITS:
                return None, width
            rows = self._packed[width] = tuple(
                sum(1 << width * u for u in bit_indices(row)) for row in self.adj
            )
        return rows, width

    @property
    def k(self) -> int:
        degs = {self.degree(u) for u in range(self.v)}
        if len(degs) != 1:
            raise ValueError("graph is not regular")
        return degs.pop()


def cached_block_graph(design: Design) -> Graph:
    """The block graph of a design, on the rows ``space.meets``, kept on the design."""
    return design.graph


def block_graph_of(space, graph: Graph | None = None) -> Graph:
    """The block graph of the lines of a space, or ``graph`` checked to be it."""
    kept = _design_on(space).graph
    if graph is not None and graph is not kept:
        raise ValueError("graph is not the block graph of the lines of this space")
    return kept


@dataclass(frozen=True)
class SrgParams:
    """Parameters and exact spectrum of a strongly regular graph with
    integer eigenvalues k > r > s."""

    v: int
    k: int
    lmbda: int
    mu: int
    r: int
    s: int
    m_r: int
    m_s: int


def srg_spectrum(v: int, k: int, lmbda: int, mu: int) -> SrgParams:
    """Exact eigenvalues r > s and multiplicities from (v, k, lambda, mu)."""
    disc = (lmbda - mu) ** 2 + 4 * (k - mu)
    delta = isqrt(disc)
    if delta * delta != disc:
        raise SteinerError(f"discriminant {disc} is not a perfect square")
    if (lmbda - mu + delta) % 2 != 0:
        raise SteinerError("eigenvalues are not integers")
    r = (lmbda - mu + delta) // 2
    s = (lmbda - mu - delta) // 2
    if r == s:
        raise SteinerError("degenerate spectrum r = s")
    num_r = -((v - 1) * s + k)
    num_s = (v - 1) * r + k
    if num_r % (r - s) or num_s % (r - s):
        raise SteinerError("non-integral multiplicities")
    m_r = num_r // (r - s)
    m_s = num_s // (r - s)
    params = SrgParams(v, k, lmbda, mu, r, s, m_r, m_s)
    if params.r + params.s != lmbda - mu or params.r * params.s != mu - k:
        raise SteinerError(f"eigenvalues {params.r}, {params.s} do not solve the SRG quadratic")
    if 1 + params.m_r + params.m_s != v or k + params.m_r * params.r + params.m_s * params.s != 0:
        raise SteinerError(f"multiplicities {params.m_r}, {params.m_s} break v = 1 + m_r + m_s or trace 0")
    return params


def srg_params_formula(N: int, M: int) -> SrgParams:
    """Parameters of the block graph of any 2-(N, M, 1) design.

    Symmetric designs (N = M^2 - M + 1) give complete block graphs and
    are rejected; so are (N, M) with non-integral parameter formulas.
    """
    if M < 2 or N <= M:
        raise ValueError(f"invalid design parameters N={N}, M={M}")
    if N == M * M - M + 1:
        raise SteinerError(f"2-({N},{M},1) is symmetric; its block graph is complete")
    if (N - 1) % (M - 1):
        raise SteinerError(f"replication number (N-1)/(M-1) not integral")
    if (N * (N - 1)) % (M * (M - 1)):
        raise SteinerError(f"block count N(N-1)/(M(M-1)) not integral")
    v = N * (N - 1) // (M * (M - 1))
    k = M * (N - M) // (M - 1)
    lmbda = (M - 1) ** 2 + (N - 1) // (M - 1) - 2
    mu = M * M
    params = srg_spectrum(v, k, lmbda, mu)
    if params.s != -M:
        raise SteinerError(f"smallest eigenvalue {params.s} of a block graph is not -M = {-M}")
    return params


def srg_params_brute(g: Graph) -> SrgParams:
    """Parameters obtained by exhaustive scanning of all vertex pairs;
    raises SteinerError on any violation, with the offending vertex or
    pair and its counts as the witness where one breaks regularity."""
    v = g.v
    if v < 2:
        raise SteinerError("graph too small")
    k = g.degree(0)
    for u in range(1, v):
        if g.degree(u) != k:
            raise SteinerError(
                f"degree of vertex {u} is {g.degree(u)} != {k}",
                witness=(u, g.degree(u), k),
            )
    lmbda = mu = None
    adj = g.adj
    for u in range(v):
        for w in range(u + 1, v):
            c = (adj[u] & adj[w]).bit_count()
            if g.is_edge(u, w):
                if lmbda is None:
                    lmbda = c
                elif c != lmbda:
                    raise SteinerError(
                        f"edge {u},{w} has {c} common neighbours, expected {lmbda}",
                        witness=(u, w, c, lmbda),
                    )
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    raise SteinerError(
                        f"non-edge {u},{w} has {c} common neighbours, expected {mu}",
                        witness=(u, w, c, mu),
                    )
    if lmbda is None or mu is None:
        raise SteinerError("graph is complete or empty; not strongly regular in the usual sense")
    return srg_spectrum(v, k, lmbda, mu)


def wdb(params: SrgParams, theta: int) -> int:
    """Minimum support size of a theta-eigenfunction (weight-distribution
    bound): 1 + |theta| + |((theta - lambda).theta - k) / mu|."""
    if theta not in (params.r, params.s):
        raise SteinerError(f"{theta} is not a non-principal eigenvalue of {params}")
    num = (theta - params.lmbda) * theta - params.k
    if num % params.mu:
        raise SteinerError("weight-distribution bound is not integral")
    bound = 1 + abs(theta) + abs(num // params.mu)
    closed = -2 * params.s if theta == params.s else 2 * (params.r + 1)
    if bound != closed:
        raise SteinerError(f"bound formula gives {bound} but the closed form {closed}")
    return bound


def delsarte_check(g: Graph) -> tuple[int, bool]:
    """Clique-size bound 1 + k/(-s); checks each point's pencil (all
    blocks through the point) is a clique of exactly that size."""
    params = srg_params_brute(g)
    if g.design is None:
        raise ValueError("delsarte_check needs a block graph with its design")
    if params.k % (-params.s):
        raise SteinerError("Delsarte bound is not integral")
    bound = 1 + params.k // (-params.s)
    ok = True
    for pencil in g.design.space.lines_at:
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
