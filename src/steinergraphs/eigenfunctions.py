"""Eigenfunctions of block graphs and the minimum-support search.

Conventions:
  * a theta-eigenfunction of a graph is a nonzero rational-valued
    function f on the vertices with theta * f(u) equal to the sum of f
    over the neighbours of u at every vertex u, zero vertices included;
  * a ray of proportional functions is represented by its primitive
    integer member whose first nonzero value, in vertex order, is
    positive;
  * vertices of a block graph are block indices, which coincide with
    line indices of the underlying space;
  * the support search screens candidate supports by rank modulo the
    prime 2**31 - 1 and re-checks every screened-in support with an exact
    integer kernel, so results never depend on the screen;
  * values are Fractions at the API; the hot checks (the eigenvalue
    equation and the kernel of a support) run in exact scaled-integer
    arithmetic;
  * sign parts of a function are listed positive part first.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from multiprocessing import get_context
from typing import Iterable, Iterator, Mapping

from .designs import Graph, bit_indices, cached_block_graph, affine_design, projective_design, srg_params_brute, srg_params_formula, wdb
from .errors import (
    HyperplaneHitsLineError,
    LimitExceededError,
    NotAnEigenfunctionError,
    NotAnEigenvalueError,
    NotOptimalError,
    WrongCountError,
    ZeroFunctionError,
)
from .geometry import AffPlane, ProjSpace, _plane, parallel_classes, relation, span_of_lines
from .linalg import bareiss_echelon, rational_kernel
from .reguli import (
    AffineRegulusPair,
    RegulusPair,
    _check_regulus_pair,
    regulus_restriction,
)

MAX_BICLIQUE_VERTICES = 512
_SCREEN_PRIME = 2147483647


class Eigenfunction:
    """A rational-valued vertex function tied to a graph and an eigenvalue.

    ``values`` maps support vertices to nonzero Fractions; zero vertices
    are not stored.  Construction rejects the zero function but does not
    verify the eigenvalue equation; use verify_eigenfunction for that.
    """

    __slots__ = ("graph", "theta", "values", "support")

    def __init__(self, graph: Graph, theta: int, values: Mapping[int, object]):
        vals: dict[int, Fraction] = {}
        for u, x in values.items():
            u = int(u)
            if not 0 <= u < graph.v:
                raise ValueError(f"vertex {u} outside 0..{graph.v - 1}")
            x = Fraction(x)
            if x:
                vals[u] = x
        if not vals:
            raise ZeroFunctionError("the zero function is not an eigenfunction")
        self.graph = graph
        self.theta = int(theta)
        self.values = vals
        self.support = tuple(sorted(vals))

    def value(self, u: int) -> Fraction:
        return self.values.get(u, Fraction(0))

    def canonical(self) -> Eigenfunction:
        """Primitive integer representative of the ray, first nonzero
        value positive."""
        scale = lcm(*(x.denominator for x in self.values.values()))
        ints = {u: int(x * scale) for u, x in self.values.items()}
        g = gcd(*ints.values())
        if ints[self.support[0]] < 0:
            g = -g
        return Eigenfunction(self.graph, self.theta, {u: n // g for u, n in ints.items()})

    def __neg__(self) -> Eigenfunction:
        return Eigenfunction(self.graph, self.theta, {u: -x for u, x in self.values.items()})

    def __add__(self, other: Eigenfunction) -> Eigenfunction:
        if self.graph is not other.graph or self.theta != other.theta:
            raise ValueError("can only add eigenfunctions of one graph and eigenvalue")
        vals = dict(self.values)
        for u, x in other.values.items():
            vals[u] = vals.get(u, Fraction(0)) + x
        return Eigenfunction(self.graph, self.theta, vals)

    def __sub__(self, other: Eigenfunction) -> Eigenfunction:
        return self + (-other)

    def __mul__(self, c) -> Eigenfunction:
        c = Fraction(c)
        return Eigenfunction(self.graph, self.theta, {u: c * x for u, x in self.values.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Eigenfunction)
            and self.graph is other.graph
            and self.theta == other.theta
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.graph), self.theta, tuple(sorted(self.values.items()))))

    def __repr__(self):
        vals = {u: str(x) for u, x in sorted(self.values.items())}
        return f"Eigenfunction(theta={self.theta}, values={vals})"


def inner_product(f: Eigenfunction, g: Eigenfunction) -> Fraction:
    """Exact standard inner product of two vertex functions."""
    if f.graph is not g.graph:
        raise ValueError("functions live on different graphs")
    return sum((x * g.values[u] for u, x in f.values.items() if u in g.values), Fraction(0))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of the vertex-wise eigenvalue check; ``witness`` is
    (vertex, theta * f(u), neighbour sum) for the first failure."""

    ok: bool
    witness: tuple[int, Fraction, Fraction] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_eigenfunction(graph: Graph, f: Eigenfunction) -> VerifyResult:
    """Check theta * f(u) = sum of f over neighbours of u at every vertex.

    f is scaled to integers by the lcm of its denominators, and each
    neighbour sum is taken per distinct value c as c times the popcount
    of the neighbours carrying c.  Only the closed neighbourhood of the
    support is scanned: elsewhere both sides are 0."""
    if not f.values:
        raise ZeroFunctionError("the zero function is not an eigenfunction")
    scale = lcm(*(x.denominator for x in f.values.values()))
    adj = graph.adj
    scaled: dict[int, int] = {}
    masks: dict[int, int] = {}
    closed = 0
    for w, x in f.values.items():
        c = x.numerator * (scale // x.denominator)
        scaled[w] = c
        masks[c] = masks.get(c, 0) | 1 << w
        closed |= adj[w] | 1 << w
    classes = tuple(masks.items())
    theta = f.theta
    for u in bit_indices(closed):
        row = adj[u]
        lhs = theta * scaled.get(u, 0)
        rhs = sum(c * (row & m).bit_count() for c, m in classes)
        if lhs != rhs:
            return VerifyResult(False, (u, Fraction(lhs, scale), Fraction(rhs, scale)))
    return VerifyResult(True)


def from_bipartite_pair(graph: Graph, t0: Iterable[int], t1: Iterable[int], theta: int) -> Eigenfunction:
    """The (+1 on t0, -1 on t1) function, verified before return."""
    t0 = tuple(dict.fromkeys(int(u) for u in t0))
    t1 = tuple(dict.fromkeys(int(u) for u in t1))
    if len(t0) != len(t1):
        raise WrongCountError(f"parts have sizes {len(t0)} and {len(t1)}")
    if set(t0) & set(t1):
        raise ValueError("parts overlap")
    vals: dict[int, int] = {u: 1 for u in t0}
    vals.update({u: -1 for u in t1})
    f = Eigenfunction(graph, theta, vals)
    res = verify_eigenfunction(graph, f)
    if not res:
        u, lhs, rhs = res.witness
        raise NotAnEigenfunctionError(
            f"vertex {u}: theta*f(u) = {lhs} but neighbour sum = {rhs}", witness=res.witness
        )
    return f


# -- constructions from geometric data -----------------------------------------


def _line_graph_for(space, graph: Graph | None) -> Graph:
    if graph is None:
        if isinstance(space, ProjSpace):
            design = projective_design(space.n, space.field)
        else:
            design = affine_design(space.n, space.field)
        graph = cached_block_graph(design)
    if graph.design is None or graph.design.space is not space:
        raise ValueError("graph is not the block graph of the lines of this space")
    return graph


def _line_sign_function(space, graph: Graph | None, pos, neg, theta: int, size: int) -> Eigenfunction:
    """+1 on the lines ``pos``, -1 on the lines ``neg`` of the block graph
    of ``space``, verified by from_bipartite_pair, with support ``size``."""
    graph = _line_graph_for(space, graph)
    t0 = sorted(space.index_of(l) for l in pos)
    t1 = sorted(space.index_of(l) for l in neg)
    f = from_bipartite_pair(graph, t0, t1, theta)
    if len(f.support) != size:
        raise NotOptimalError(f"support size {len(f.support)}, expected {size}")
    return f


def optimal_from_regulus(pair: RegulusPair, graph: Graph | None = None) -> Eigenfunction:
    """+1 on the regulus, -1 on its opposite: a -(q+1)-eigenfunction of
    the line block graph with support of minimum size 2(q+1)."""
    q = pair.space.field.q
    return _line_sign_function(pair.space, graph, pair.r_lines, pair.opp_lines, -(q + 1), 2 * (q + 1))


def optimal_from_parallel_classes(plane: AffPlane, class1, class2, graph: Graph | None = None) -> Eigenfunction:
    """+1 on one parallel class of a plane, -1 on another: a -q-eigenfunction
    of the affine line block graph with support of minimum size 2q."""
    space = plane.space
    classes = {frozenset(c): c for c in parallel_classes(plane)}
    k1, k2 = frozenset(class1), frozenset(class2)
    if k1 == k2:
        raise ValueError("the two parallel classes must differ")
    if k1 not in classes or k2 not in classes:
        raise ValueError("inputs are not parallel classes of the plane")
    q = space.field.q
    return _line_sign_function(space, graph, class1, class2, -q, 2 * q)


def optimal_from_affine_regulus(pair: AffineRegulusPair, graph: Graph | None = None) -> Eigenfunction:
    """+1 on an affine regulus, -1 on its opposite: a -q-eigenfunction
    of the affine line block graph with support of minimum size 2q."""
    q = pair.space.field.q
    return _line_sign_function(pair.space, graph, pair.s_lines, pair.opp_lines, -q, 2 * q)


def wdbplus2_function(pair: RegulusPair, hyperplane, graph: Graph | None = None) -> Eigenfunction:
    """Restrict a regulus pair by a hyperplane avoiding all its lines:
    a -q-eigenfunction of the affine line block graph whose support has
    size 2(q+1), two above the minimum, inducing a complete bipartite
    graph minus a perfect matching."""
    outcome = regulus_restriction(pair, hyperplane)
    if outcome.kind != "wdbplus2":
        raise HyperplaneHitsLineError(
            f"hyperplane does not avoid the regulus pair: {outcome.reason or outcome.kind}"
        )
    config = outcome.config
    q = config.space.field.q
    f = _line_sign_function(config.space, graph, config.r_lines, config.opp_lines, -q, 2 * (q + 1))
    if support_structure(f.graph, f).kind != "BipartiteMinusMatching":
        raise NotOptimalError("support does not induce a complete bipartite graph minus a matching")
    return f


# -- support structure ----------------------------------------------------------


@dataclass(frozen=True)
class SupportStructure:
    """Shape of the subgraph induced on a support: the two parts are the
    sign classes of the function, positive first."""

    kind: str
    t0: tuple[int, ...]
    t1: tuple[int, ...]


def support_structure(graph: Graph, f: Eigenfunction) -> SupportStructure:
    """Classify the induced subgraph on the support into CompleteBipartite,
    IsolatedCliquePair, BipartiteMinusMatching or Other, with the sign
    classes of f as parts."""
    t0 = tuple(u for u in f.support if f.values[u] > 0)
    t1 = tuple(u for u in f.support if f.values[u] < 0)
    if not t0 or not t1 or len(t0) != len(t1):
        return SupportStructure("Other", t0, t1)
    m0 = m1 = 0
    for u in t0:
        m0 |= 1 << u
    for u in t1:
        m1 |= 1 << u
    adj = graph.adj
    a = len(t0)
    within = any(adj[u] & m0 for u in t0) or any(adj[u] & m1 for u in t1)
    cross0 = [(adj[u] & m1).bit_count() for u in t0]
    cross1 = [(adj[u] & m0).bit_count() for u in t1]
    if not within and all(c == a for c in cross0):
        return SupportStructure("CompleteBipartite", t0, t1)
    if all(c == 0 for c in cross0):
        cliques = all((adj[u] & m0).bit_count() == a - 1 for u in t0) and all(
            (adj[u] & m1).bit_count() == a - 1 for u in t1
        )
        if cliques:
            return SupportStructure("IsolatedCliquePair", t0, t1)
    if not within and all(c == a - 1 for c in cross0) and all(c == a - 1 for c in cross1):
        return SupportStructure("BipartiteMinusMatching", t0, t1)
    return SupportStructure("Other", t0, t1)


def enumerate_complete_bipartite(graph: Graph, a: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered part-pairs {T0, T1} inducing a complete bipartite
    subgraph with parts of size a, as (T0, T1) with min(T0) < min(T1)."""
    if a < 1:
        raise ValueError("part size must be positive")
    if graph.v > MAX_BICLIQUE_VERTICES:
        raise LimitExceededError(f"graph has {graph.v} vertices, limit {MAX_BICLIQUE_VERTICES}")
    v = graph.v
    adj = graph.adj
    full = (1 << v) - 1
    nonadj = [full & ~adj[u] & ~(1 << u) for u in range(v)]
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def grow(t0: list[int], t1: list[int], c0: int, c1: int) -> None:
        n0, n1 = len(t0), len(t1)
        if n0 == a and n1 == a:
            out.append((tuple(t0), tuple(t1)))
            return
        if c0.bit_count() < a - n0 or c1.bit_count() < a - n1:
            return
        # grow the smaller part; within a part vertices ascend, so each
        # pair is generated along exactly one branch
        if n0 == a or (n1 != a and n1 < n0):
            cand = c1
            while cand:
                w = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                high = full & (-1 << (w + 1))
                grow(t0, t1 + [w], c0 & adj[w], c1 & nonadj[w] & high)
        else:
            cand = c0
            while cand:
                w = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                high = full & (-1 << (w + 1))
                grow(t0 + [w], t1, c0 & nonadj[w] & high, c1 & adj[w])

    for u in range(v):
        above = full & (-1 << (u + 1))
        grow([u], [], above & nonadj[u], above & adj[u])
    out.sort()
    return out


# -- classification of optimal eigenfunctions -----------------------------------


@dataclass(frozen=True)
class Type1:
    """Optimal function carried by two parallel classes of one plane."""

    plane: AffPlane
    classes: tuple[tuple, tuple]


@dataclass(frozen=True)
class Type2:
    """Optimal function carried by an affine regulus and its opposite."""

    pair: AffineRegulusPair


@dataclass(frozen=True)
class GrassmannRegulus:
    """Optimal function carried by a projective regulus and its opposite."""

    pair: RegulusPair


def classify_optimal(graph: Graph, f: Eigenfunction):
    """Decode a minimum-support eigenfunction back to the geometry that
    carries it: two parallel classes of a plane (Type1), an affine
    regulus pair (Type2), or a projective regulus pair (GrassmannRegulus)."""
    if graph.design is None:
        raise ValueError("graph has no underlying design")
    space = graph.design.space
    params = srg_params_formula(graph.design.N, graph.design.M)
    bound = wdb(params, f.theta)
    res = verify_eigenfunction(graph, f)
    if not res:
        raise NotAnEigenfunctionError("function fails the eigenvalue equation", witness=res.witness)
    if len(f.support) != bound:
        raise NotOptimalError(f"support size {len(f.support)} is not the bound {bound}")
    t0 = [u for u in f.support if f.values[u] > 0]
    t1 = [u for u in f.support if f.values[u] < 0]
    if len(t0) != len(t1):
        raise NotOptimalError("sign classes of an optimal function must have equal size")
    # the support ascends, so each family is in line order
    pos = tuple(space.lines[i] for i in t0)
    neg = tuple(space.lines[i] for i in t1)
    if isinstance(space, ProjSpace):
        _check_regulus_pair(space, pos, neg)
        return GrassmannRegulus(RegulusPair(pos, neg, space))
    kinds0 = {relation(space, a, b).kind for i, a in enumerate(pos) for b in pos[i + 1 :]}
    kinds1 = {relation(space, a, b).kind for i, a in enumerate(neg) for b in neg[i + 1 :]}
    if kinds0 == {"parallel"} and kinds1 == {"parallel"}:
        flat = span_of_lines(space, pos + neg)
        if flat.dim != 2:
            raise NotOptimalError("parallel sign classes do not span a plane")
        plane = _plane(space, flat.basis, flat.base)
        classes = {frozenset(c): c for c in parallel_classes(plane)}
        c0 = classes.get(frozenset(pos))
        c1 = classes.get(frozenset(neg))
        if c0 is None or c1 is None:
            raise NotOptimalError("sign classes are not parallel classes of their plane")
        return Type1(plane, (c0, c1))
    if kinds0 == {"skew"} and kinds1 == {"skew"}:
        _check_regulus_pair(space, pos, neg)
        return Type2(AffineRegulusPair(pos, neg, space))
    raise NotOptimalError(
        f"mixed line relations in sign classes: {sorted(kinds0)} / {sorted(kinds1)}"
    )


# -- minimum-support search ------------------------------------------------------


@dataclass(frozen=True)
class SupportFamily:
    """A support carrying a kernel of dimension >= 2 whose basis supports
    cover it: a positive-dimensional family of eigenfunctions, the
    generic member having the full support."""

    support: tuple[int, ...]
    dimension: int
    basis: tuple[Eigenfunction, ...]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of search_min_support: one canonical function per support
    with a one-dimensional kernel, plus families for larger kernels."""

    functions: tuple[Eigenfunction, ...]
    families: tuple[SupportFamily, ...]
    nodes: int
    kernel_calls: int
    complete: bool


class _BudgetExceeded(Exception):
    pass


def _pivot(vec) -> tuple[int, tuple[int, ...]] | None:
    """The first nonzero position of a column mod p and the column scaled
    to 1 there, or None for the zero column."""
    pi = next((i for i, x in enumerate(vec) if x), -1)
    if pi < 0:
        return None
    inv = pow(vec[pi], -1, _SCREEN_PRIME)
    return pi, tuple(x * inv % _SCREEN_PRIME for x in vec)


class _Search:
    """The tables of one search_min_support call: adjacency masks, the
    row basis of A - theta*I and its per-vertex columns mod p, and per
    vertex w the vertices that can still gain a support neighbour once
    every vertex up to w is decided (those above w and those with a
    neighbour above w).  ``limit`` caps the nodes of each shard."""

    __slots__ = ("adj", "rows_int", "cols_mod", "ahead", "v", "target", "theta", "prune", "limit")

    def __init__(self, graph: Graph, theta: int, target: int, prune: bool, limit: int | None):
        self.v = v = graph.v
        self.adj = adj = graph.adj
        ident = [[-theta if i == j else 0 for j in range(v)] for i in range(v)]
        for u in range(v):
            for w in bit_indices(adj[u]):
                ident[u][w] += 1
        ech, pivots = bareiss_echelon(ident)
        self.rows_int = rows_int = tuple(tuple(row) for row in ech[: len(pivots)])
        self.cols_mod = tuple(
            tuple(row[w] % _SCREEN_PRIME for row in rows_int) for w in range(v)
        )
        ahead = [0] * v
        for u in range(v):
            for w in range(max(u, adj[u].bit_length() - 1)):
                ahead[w] |= 1 << u
        self.ahead = tuple(ahead)
        self.target = target
        self.theta = theta
        self.prune = prune
        self.limit = limit

    def admit(self, w: int, state: tuple[int, int, int], leaf: bool) -> tuple[int, int, int] | None:
        """Add w to the support.  ``state`` is (support, vertices with at
        least one support neighbour, vertices with at least two).  Returns
        the new state, or None when every support extending it fails the
        local rules: a vertex outside the support has exactly one support
        neighbour, or (theta != 0) a support vertex has none.  Above the
        leaves a vertex is spared while it can still gain a support
        neighbour."""
        mask, one, two = state
        aw = self.adj[w]
        mask |= 1 << w
        two |= one & aw
        one |= aw
        bad = one & ~two & ~mask
        if self.theta:
            bad |= mask & ~one
        if bad and (leaf or bad & ~self.ahead[w]):
            return None
        return mask, one, two

    def leaf_check(self, chosen: list[int], found: list, fams: list, counters: dict) -> None:
        counters["kernel_calls"] += 1
        mat = [[row[s] for s in chosen] for row in self.rows_int]
        basis = rational_kernel(mat)
        if not basis:
            return
        union: set[int] = set()
        for vec in basis:
            union.update(j for j, x in enumerate(vec) if x)
        if len(union) != len(chosen):
            return
        if len(basis) == 1:
            found.append((tuple(chosen), tuple(basis[0])))
        else:
            fams.append((tuple(chosen), basis))

    def extend(self, chosen, state, pivots, deps, ws, found, fams, counters) -> None:
        """Try each w of ``ws`` as the next support vertex after ``chosen``.
        ``pivots`` is the normalised modular row basis of the chosen columns
        and ``deps`` counts the chosen columns it found dependent; a leaf
        without a dependency has no kernel and skips the exact check."""
        target = self.target
        cols_mod = self.cols_mod
        prune = self.prune
        limit = self.limit
        d = len(chosen) + 1
        leaf = d == target
        for w in ws:
            counters["nodes"] += 1
            if limit is not None and counters["nodes"] > limit:
                raise _BudgetExceeded
            nxt = self.admit(w, state, leaf) if prune else state
            if nxt is None:
                continue
            if leaf and deps:
                self.leaf_check(chosen + [w], found, fams, counters)
                continue
            vec = cols_mod[w]
            for pi, pv in pivots:
                c = vec[pi]
                if c:
                    vec = [(x - c * y) % _SCREEN_PRIME for x, y in zip(vec, pv)]
            if leaf:
                if not any(vec):
                    self.leaf_check(chosen + [w], found, fams, counters)
                continue
            kids = range(w + 1, self.v - (target - d) + 1)
            piv = _pivot(vec)
            if piv is None:
                self.extend(chosen + [w], nxt, pivots, deps + 1, kids, found, fams, counters)
            else:
                pivots.append(piv)
                self.extend(chosen + [w], nxt, pivots, deps, kids, found, fams, counters)
                pivots.pop()

    def run_shard(self, task) -> Iterator[tuple]:
        """Search the depth-2 prefixes (v0, v1) of one first vertex v0 in
        order, yielding a record (prefix, nodes, kernel calls, rays,
        families, finished) for each; the first record also counts the
        node of v0.  The shard stops after the first prefix during which
        its own node count passes the limit, so no shard runs unbounded."""
        v0, v1_list = task
        if self.target == 1:
            yield (v0,), 1, 0, (), (), True
            return
        state = self.admit(v0, (0, 0, 0), False) if self.prune else (0, 0, 0)
        if state is None:
            yield from (((v0, v1), int(i == 0), 0, (), (), True) for i, v1 in enumerate(v1_list))
            return
        piv = _pivot(self.cols_mod[v0])
        pivots, deps = ([], 1) if piv is None else ([piv], 0)
        counters = {"nodes": 1, "kernel_calls": 0}
        before = (0, 0)
        for v1 in v1_list:
            found: list = []
            fams: list = []
            try:
                self.extend([v0], state, pivots, deps, (v1,), found, fams, counters)
                finished = True
            except _BudgetExceeded:
                finished = False
            nodes, calls = counters["nodes"], counters["kernel_calls"]
            yield (v0, v1), nodes - before[0], calls - before[1], tuple(found), tuple(fams), finished
            if not finished:
                return
            before = nodes, calls


# the search of a fork worker, set by the pool initializer; the parent
# process never sets it
_worker_search: _Search | None = None


def _init_worker(search: _Search) -> None:
    global _worker_search
    _worker_search = search


def _worker_shard(task) -> list[tuple]:
    return list(_worker_search.run_shard(task))


def search_min_support(
    graph: Graph,
    theta: int,
    target: int,
    mode: str = "branch-and-prune",
    *,
    limit: int | None = None,
    resume: Mapping | None = None,
    jobs: int = 1,
) -> SearchResult:
    """All theta-eigenfunctions with support of exactly the target size,
    one primitive representative per ray, plus support families where the
    kernel dimension exceeds one.

    A candidate support survives iff the kernel of the columns of
    A - theta*I indexed by it contains a vector with no zero entry.  The
    search runs over ascending supports.  Branch-and-prune mode applies
    two local rules before any modular work: a vertex outside the support
    cannot have exactly one support neighbour (its equation would read
    0 = f(s) for that neighbour s), and, when theta != 0, a support
    vertex cannot have none.  A leaf breaking either rule is skipped; an
    interior node is cut when a decided vertex breaks one and has no
    neighbour left to choose.  Exhaustive mode applies neither.

    The work is split by depth-2 prefix (v0, v1), in ascending order.
    ``limit`` is one node budget for the whole call, counted before
    pruning and in prefix order, whatever ``jobs`` is: a prefix is done
    when the running node total is still at most ``limit`` after its
    subtree.  When one is not, LimitExceededError is raised; its
    ``checkpoint`` lists the done prefixes and its ``partial`` holds their
    results, with the nodes and kernel calls counted up to and including
    the prefix that did not fit.  ``resume`` accepts such a checkpoint
    and skips the done prefixes.  ``jobs`` > 1 searches the prefixes of
    each first vertex in a pool of forked workers, with the same results
    and checkpoints.
    """
    if mode not in ("exhaustive", "branch-and-prune"):
        raise ValueError(f"unknown mode {mode!r}")
    if target < 1:
        raise ValueError("target support size must be positive")
    if graph.design is not None:
        params = srg_params_formula(graph.design.N, graph.design.M)
    else:
        params = srg_params_brute(graph)
    if theta not in (params.r, params.s) or theta == params.k:
        raise NotAnEigenvalueError(f"{theta} is not a non-principal eigenvalue of the graph")
    search = _Search(graph, theta, target, mode == "branch-and-prune", limit)
    v = graph.v

    done_before: set[tuple[int, ...]] = set()
    if resume:
        done_before = {tuple(p) for p in resume["done"]}

    tasks = []
    if target == 1:
        for v0 in range(v):
            if (v0,) not in done_before:
                tasks.append((v0, ()))
    else:
        for v0 in range(v - target + 1):
            v1s = tuple(
                v1 for v1 in range(v0 + 1, v - target + 2) if (v0, v1) not in done_before
            )
            if v1s:
                tasks.append((v0, v1s))

    raw_found: list = []
    raw_fams: list = []
    done: list[tuple[int, ...]] = sorted(done_before)
    nodes = kernel_calls = 0
    exhausted = False
    pool = None
    if jobs > 1 and len(tasks) > 1:
        pool = get_context("fork").Pool(jobs, _init_worker, (search,))
    with pool or nullcontext():
        shards = pool.imap(_worker_shard, tasks) if pool else map(search.run_shard, tasks)
        for prefix, n, calls, found, fams, finished in chain.from_iterable(shards):
            nodes += n
            kernel_calls += calls
            if not finished or (limit is not None and nodes > limit):
                exhausted = True
                break
            raw_found.extend(found)
            raw_fams.extend(fams)
            done.append(prefix)

    functions = tuple(
        Eigenfunction(graph, theta, {s: x for s, x in zip(supp, vec) if x})
        for supp, vec in sorted(raw_found)
    )
    families = tuple(
        SupportFamily(
            support=supp,
            dimension=len(basis),
            basis=tuple(
                Eigenfunction(graph, theta, {s: x for s, x in zip(supp, vec) if x})
                for vec in basis
            ),
        )
        for supp, basis in sorted(raw_fams)
    )
    result = SearchResult(functions, families, nodes, kernel_calls, complete=not exhausted)
    if exhausted:
        raise LimitExceededError(
            f"node budget exhausted after {nodes} nodes",
            checkpoint={"done": sorted(done)},
            partial=result,
        )
    return result
