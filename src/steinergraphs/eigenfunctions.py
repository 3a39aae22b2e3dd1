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
  * the support search decides linear dependence exactly, by one
    fraction-free elimination of the chosen columns of A - theta*I, and
    reads each kernel vector off the column that it finds dependent; a
    search whose node budget runs out returns its result, not complete,
    with the checkpoint that resumes it, and raises nothing;
  * values are Fractions at the API; the hot checks (the eigenvalue
    equation and the kernel of a support) run in exact scaled-integer
    arithmetic, the eigenvalue equation at all vertices at once as one
    packed integer over the graph's packed adjacency rows;
  * sign parts of a function are listed positive part first;
  * an optimal function (support equal to the weight-distribution
    bound) is classified by one grid check on its sign classes
    (reguli._check_grid): in PG a regulus pair, in AG two parallel
    classes of a plane (Type1) or an affine regulus pair (Type2), each
    family as the ascending line indices of its sign class; the regulus
    constructions of both spaces share optimal_from_regulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain, combinations, groupby
from math import gcd, lcm
from multiprocessing import get_context
from typing import Iterable, Iterator, Mapping

from .designs import Graph, block_graph_of, srg_params_brute, wdb
from .errors import LimitExceededError, NotAnEigenfunctionError, SteinerError
from .geometry import AffSpace, ProjSpace, bit_indices, index_mask
from .linalg import bareiss_echelon, primitive
from .reguli import RegulusPair, _check_grid, regulus_restriction

MAX_BICLIQUE_VERTICES = 512


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
            raise SteinerError("the zero function is not an eigenfunction")
        self.graph = graph
        self.theta = int(theta)
        self.values = vals
        self.support = tuple(sorted(vals))

    def value(self, u: int) -> Fraction:
        return self.values.get(u, Fraction(0))

    def sign_classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positive and the negative part of the support, each ascending."""
        return (
            tuple(u for u in self.support if self.values[u] > 0),
            tuple(u for u in self.support if self.values[u] < 0),
        )

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


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of the vertex-wise eigenvalue check; ``witness`` is
    (vertex, theta * f(u), neighbour sum) for the first failure."""

    ok: bool
    witness: tuple[int, Fraction, Fraction] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_eigenfunction(f: Eigenfunction) -> VerifyResult:
    """Check theta * f(u) = sum of f over neighbours of u at every vertex
    of f's graph.

    f is scaled to integers c_w by the lcm of its denominators, and all v
    equations are checked at once as one packed integer.  With fields of
    B bits, where B - 1 >= bit_length((v + |theta|) * max|c|), the packed
    row P[w] = sum of 2^(B*u) over the neighbours u of w gives

        d = sum over w of c_w * (P[w] - theta * 2^(B*w))
          = sum over u of a_u * 2^(B*u),
        a_u = (sum of c_w over the neighbours w of u) - theta * c_u.

    Each |a_u| <= (v - 1 + |theta|) * max|c| < 2^(B-1).  If u is the
    lowest vertex with a_u != 0, then d = 2^(B*u) * (a_u + 2^B * R) for
    an integer R, and a_u is not divisible by 2^B, so d != 0 and the
    trailing zero bits of d number B*u plus fewer than B.  Hence d == 0
    exactly when every equation holds, and otherwise the lowest failing
    vertex is (trailing zeros of d) // B; both sides are recomputed
    there for the witness.

    Values so large that the graph keeps no packed rows of their width
    are checked one vertex at a time instead, in ascending order over
    the closed neighbourhood of the support (a_u = 0 elsewhere), which
    gives the same verdict and witness."""
    if not f.values:
        raise SteinerError("the zero function is not an eigenfunction")
    graph = f.graph
    scale = lcm(*(x.denominator for x in f.values.values()))
    scaled = {w: x.numerator * (scale // x.denominator) for w, x in f.values.items()}
    theta = f.theta

    def neighbour_sum(u: int) -> int:
        row = graph.adj[u]
        return sum(c for w, c in scaled.items() if row >> w & 1)

    bits = ((graph.v + abs(theta)) * max(map(abs, scaled.values()))).bit_length() + 1
    rows, width = graph.packed_rows(bits)
    if rows is not None:
        d = sum(c * (rows[w] - (theta << width * w)) for w, c in scaled.items())
        u = ((d & -d).bit_length() - 1) // width if d else None
    else:
        closed = 0
        for w in scaled:
            closed |= graph.adj[w] | 1 << w
        u = next((u for u in bit_indices(closed) if neighbour_sum(u) != theta * scaled.get(u, 0)), None)
    if u is None:
        return VerifyResult(True)
    lhs, rhs = theta * scaled.get(u, 0), neighbour_sum(u)
    return VerifyResult(False, (u, Fraction(lhs, scale), Fraction(rhs, scale)))


def verified(f: Eigenfunction) -> Eigenfunction:
    """f, once verify_eigenfunction accepts it; else NotAnEigenfunctionError
    with its witness."""
    res = verify_eigenfunction(f)
    if not res:
        u, lhs, rhs = res.witness
        raise NotAnEigenfunctionError(
            f"vertex {u}: theta*f(u) = {lhs} but neighbour sum = {rhs}", witness=res.witness
        )
    return f


def from_bipartite_pair(graph: Graph, t0: Iterable[int], t1: Iterable[int], theta: int) -> Eigenfunction:
    """The (+1 on t0, -1 on t1) function, verified before return."""
    t0 = tuple(dict.fromkeys(int(u) for u in t0))
    t1 = tuple(dict.fromkeys(int(u) for u in t1))
    if len(t0) != len(t1):
        raise SteinerError(f"parts have sizes {len(t0)} and {len(t1)}")
    if set(t0) & set(t1):
        raise ValueError("parts overlap")
    vals: dict[int, int] = {u: 1 for u in t0}
    vals.update({u: -1 for u in t1})
    return verified(Eigenfunction(graph, theta, vals))


# -- constructions from geometric data -----------------------------------------


def _line_sign_function(space, graph: Graph | None, pos, neg, theta: int, size: int) -> Eigenfunction:
    """+1 on the line indices ``pos``, -1 on ``neg`` of the block graph
    of ``space``, verified by from_bipartite_pair, with support ``size``."""
    f = from_bipartite_pair(block_graph_of(space, graph), pos, neg, theta)
    if len(f.support) != size:
        raise SteinerError(f"support size {len(f.support)}, expected {size}")
    return f


def optimal_from_regulus(pair: RegulusPair, graph: Graph | None = None) -> Eigenfunction:
    """+1 on the regulus, -1 on its opposite: with families of a lines
    (q+1 in PG(3, q), q in AG(3, q)) a -a-eigenfunction of the line
    block graph with support of minimum size 2a."""
    a = len(pair.r_ids)
    return _line_sign_function(pair.space, graph, pair.r_ids, pair.opp_ids, -a, 2 * a)


def wdbplus2_function(pair: RegulusPair, hyperplane) -> Eigenfunction:
    """Restrict a regulus pair by a hyperplane avoiding all its lines:
    a -q-eigenfunction of the affine line block graph whose support has
    size 2(q+1), two above the minimum, inducing a complete bipartite
    graph minus a perfect matching."""
    outcome = regulus_restriction(pair, hyperplane)
    if outcome.kind != "wdbplus2":
        raise SteinerError(f"hyperplane does not avoid the regulus pair: {outcome.reason or outcome.kind}")
    config = outcome.config
    q = config.space.field.q
    f = _line_sign_function(config.space, None, config.r_ids, config.opp_ids, -q, 2 * (q + 1))
    if support_structure(f) != "BipartiteMinusMatching":
        raise SteinerError("support does not induce a complete bipartite graph minus a matching")
    return f


# -- support structure ----------------------------------------------------------


def support_structure(f: Eigenfunction) -> str:
    """The shape of the subgraph of f's graph induced on its support,
    with the sign classes of f (positive first) as its two parts:
    "CompleteBipartite", "IsolatedCliquePair", "BipartiteMinusMatching"
    or "Other"."""
    t0, t1 = f.sign_classes()
    if not t0 or not t1 or len(t0) != len(t1):
        return "Other"
    m0, m1 = index_mask(t0), index_mask(t1)
    adj = f.graph.adj
    a = len(t0)
    within = any(adj[u] & m0 for u in t0) or any(adj[u] & m1 for u in t1)
    cross0 = [(adj[u] & m1).bit_count() for u in t0]
    cross1 = [(adj[u] & m0).bit_count() for u in t1]
    if not within and all(c == a for c in cross0):
        return "CompleteBipartite"
    if all(c == 0 for c in cross0):
        cliques = all((adj[u] & m0).bit_count() == a - 1 for u in t0) and all(
            (adj[u] & m1).bit_count() == a - 1 for u in t1
        )
        if cliques:
            return "IsolatedCliquePair"
    if not within and all(c == a - 1 for c in cross0) and all(c == a - 1 for c in cross1):
        return "BipartiteMinusMatching"
    return "Other"


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
    """Optimal function carried by two parallel classes of one plane,
    each as ascending line indices of ``space``, which takes part in
    comparisons as in RegulusPair."""

    classes: tuple[tuple[int, ...], tuple[int, ...]]
    space: AffSpace = dc_field(repr=False)


@dataclass(frozen=True)
class Type2:
    """Optimal function carried by an affine regulus and its opposite."""

    pair: RegulusPair


@dataclass(frozen=True)
class GrassmannRegulus:
    """Optimal function carried by a projective regulus and its opposite."""

    pair: RegulusPair


def classify_optimal(f: Eigenfunction):
    """Decode a minimum-support eigenfunction of its graph back to the
    geometry that carries it: two parallel classes of a plane (Type1), an
    affine regulus pair (Type2), or a projective regulus pair
    (GrassmannRegulus).

    All three are a grid, the sign classes being two families of
    pairwise disjoint lines with each line meeting each opposite line
    once, and one grid check decides the type.  A mixed grid, with
    parallel and skew lines in its families, cannot occur: two parallel
    lines of either family put the whole grid into their plane."""
    design = f.graph.design
    if design is None:
        raise ValueError("graph has no underlying design")
    space = design.space
    bound = wdb(design.params, f.theta)
    verified(f)
    if len(f.support) != bound:
        raise SteinerError(f"support size {len(f.support)} is not the bound {bound}")
    t0, t1 = f.sign_classes()
    if len(t0) != len(t1):
        raise SteinerError("sign classes of an optimal function must have equal size")
    if _check_grid(space, t0, t1):
        return Type1((t0, t1), space)
    pair = RegulusPair(t0, t1, space)
    return GrassmannRegulus(pair) if isinstance(space, ProjSpace) else Type2(pair)


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
    with a one-dimensional kernel, plus families for larger kernels.
    ``nodes`` and ``kernel_calls`` (the admitted leaves with dependent
    columns) count the work of one call.  A search cut by its node budget
    is not ``complete``: it holds what its done prefixes found, and
    ``checkpoint``, {"done": [prefixes]}, lists them; ``resume`` takes the
    cut result itself to search the rest."""

    functions: tuple[Eigenfunction, ...]
    families: tuple[SupportFamily, ...]
    nodes: int
    kernel_calls: int
    complete: bool
    checkpoint: dict


class _BudgetExceeded(Exception):
    pass


def _reduce(vec, pivots) -> list[int]:
    """``vec`` cleared at i, fraction-free, by each pivot column (i, pv) in
    turn: vec -> pv[i] * vec - vec[i] * pv; a bare head ignores pv's tail."""
    for pi, pv in pivots:
        c = vec[pi]
        if c:
            p = pv[pi]
            vec = [p * x - c * y for x, y in zip(vec, pv)]
    return vec


class _Search:
    """The tables of one search_min_support call: adjacency masks and
    closed neighbourhoods, the heads (the columns of A - theta*I on rows
    that form a basis of its row space) and per vertex w the vertices that
    can still gain a support neighbour once every vertex up to w is
    decided (those above w and those with a neighbour above w).  ``limit``
    caps each shard's nodes."""

    __slots__ = ("adj", "closed", "heads", "ahead", "v", "target", "theta", "prune", "limit")

    def __init__(self, graph: Graph, theta: int, target: int, prune: bool, limit: int | None):
        self.v = v = graph.v
        self.adj = adj = graph.adj
        self.closed = tuple(a | 1 << u for u, a in enumerate(adj))
        m = [[(adj[u] >> w & 1) - (theta if u == w else 0) for w in range(v)] for u in range(v)]
        # A - theta*I is symmetric, so its pivot columns also index
        # independent rows; their entries are 0, 1 and -theta
        _, pivots = bareiss_echelon(m)
        self.heads = tuple(tuple(row[s] for s in pivots) for row in m)
        ahead = [0] * v
        for u in range(v):
            for w in range(max(u, adj[u].bit_length() - 1)):
                ahead[w] |= 1 << u
        self.ahead = tuple(ahead)
        self.target = target
        self.theta = theta
        self.prune = prune
        self.limit = limit

    def admit(self, w: int, state: tuple[int, int, int]) -> tuple[int, int, int] | None:
        """Add w, not a leaf, to the support.  ``state`` is (support,
        vertices with at least one support neighbour, vertices with at least
        two).  Returns the new state, or None when every support extending
        it fails the local rules: a vertex outside the support has exactly
        one support neighbour, or (theta != 0) a support vertex has none.  A
        vertex is spared while it can still gain a support neighbour."""
        mask, one, two = state
        aw = self.adj[w]
        mask |= 1 << w
        two |= one & aw
        one |= aw
        bad = one & ~two & ~mask
        if self.theta:
            bad |= mask & ~one
        if bad & ~self.ahead[w]:
            return None
        return mask, one, two

    def place(self, w: int, depth: int, pivots) -> tuple[tuple | None, tuple | None]:
        """Column w with its tail (the unit vector at ``depth``) reduced by
        ``pivots``: ((i, it over its content), None), i its first nonzero
        head entry, or (None, its primitive tail) when its head is zero."""
        r = len(self.heads[w])
        vec = [*self.heads[w], *[0] * self.target]
        vec[r + depth] = 1
        vec = _reduce(vec, pivots)
        pi = next((i for i in range(r) if vec[i]), None)
        if pi is None:
            return None, primitive(vec[r:])
        g = gcd(*vec)
        return (pi, [x // g for x in vec]), None

    def leaves(self, state: tuple[int, int, int], lo: int, hi: int) -> list[int]:
        """The leaves lo <= x < hi that ``admit`` accepts after a node of
        ``state``: x must be or meet each outside vertex with one support
        neighbour and meet no outside vertex without one, and (theta != 0)
        have a support neighbour and meet each support vertex without one.
        Without pruning every leaf is admitted."""
        if not self.prune:
            return list(range(lo, hi))
        mask, one, two = state
        adj, closed = self.adj, self.closed
        keep = (1 << hi) - (1 << lo)
        need = one & ~two & ~mask
        if self.theta:
            keep &= one
            need |= mask & ~one
        # closed neighbourhoods are symmetric: x meets or is each need vertex
        while need and keep:
            low = need & -need
            keep &= closed[low.bit_length() - 1]
            need ^= low
        if not keep:
            return []
        free = ~(one | mask)
        return [x for x in bit_indices(keep) if not adj[x] & free]

    def leaf_group(self, chosen, w, state, pivots, kers, kids, reduced, found, fams, counters) -> None:
        """Count the leaves ``kids`` below the node w after ``chosen`` at
        once, and record each that ``leaves`` admits after w's ``state`` and
        whose kernel has no common zero, reducing no column if none is
        admitted.  ``pivots`` and ``kers`` are those of ``chosen``; ``reduced``
        holds heads reduced by ``pivots``, shared by one node's leaf parents."""
        # past the budget only the leaves before the one that passes it
        # are checked, as one node at a time would
        room = len(kids) if self.limit is None else self.limit - counters["nodes"]
        counters["nodes"] += min(room + 1, len(kids))
        leaves = self.leaves(state, kids.start, kids.start + min(room, len(kids)))
        if leaves:
            for x in (w, *leaves):
                if x not in reduced:
                    reduced[x] = _reduce(self.heads[x], pivots)
            # w's head screens the leaves; w is placed with its tail once,
            # when a kernel vector first needs it
            depth = len(chosen)
            hw = reduced[w]
            wpiv = [(i, hw) for i in range(len(hw)) if hw[i]][:1]
            ks = kers if wpiv else (*kers, self.place(w, depth, pivots)[1])
            tails = None if wpiv else pivots
            for x in leaves:
                kx = ks
                if not any(_reduce(reduced[x], wpiv)):
                    if tails is None:
                        tails = [*pivots, self.place(w, depth, pivots)[0]]
                    kx = (*ks, self.place(x, depth + 1, tails)[1])
                if not kx:
                    continue  # independent columns
                counters["kernel_calls"] += 1
                if not all(any(vec[j] for vec in kx) for j in range(self.target)):
                    continue  # the kernel vanishes on a chosen vertex
                if len(kx) == 1:
                    found.append(((*chosen, w, x), kx[0]))
                else:
                    fams.append(((*chosen, w, x), kx))
        if room < len(kids):
            raise _BudgetExceeded

    def extend(self, chosen, state, pivots, kers, ws, found, fams, counters) -> None:
        """Try each w of ``ws`` as the next support vertex after ``chosen``,
        above the leaves.  ``pivots`` are the reduced independent columns of
        ``chosen`` and ``kers`` the kernel vectors of its dependent ones, one
        each.  The leaves below a node are one ``leaf_group``."""
        limit = self.limit
        d = len(chosen) + 1
        reduced: dict[int, list[int]] = {}
        for w in ws:
            counters["nodes"] += 1
            if limit is not None and counters["nodes"] > limit:
                raise _BudgetExceeded
            nxt = self.admit(w, state) if self.prune else state
            if nxt is None:
                continue
            kids = range(w + 1, self.v - (self.target - d) + 1)
            if d + 1 == self.target:
                self.leaf_group(chosen, w, nxt, pivots, kers, kids, reduced, found, fams, counters)
                continue
            piv, ker = self.place(w, d - 1, pivots)
            if piv is None:
                self.extend(chosen + [w], nxt, pivots, (*kers, ker), kids, found, fams, counters)
            else:
                pivots.append(piv)
                self.extend(chosen + [w], nxt, pivots, kers, kids, found, fams, counters)
                pivots.pop()

    def run_shard(self, prefixes) -> Iterator[tuple]:
        """Search the ``prefixes`` of one first vertex v0 in order, yielding
        a record (prefix, nodes, kernel calls, rays, families, finished) for
        each; the first record also counts the node of v0.  At size 2 the
        leaf v1 of (v0, v1) is a ``leaf_group`` of its own.  The shard stops
        after the first prefix during which its own node count passes the
        limit, so no shard runs unbounded."""
        v0 = prefixes[0][0]
        if self.target == 1:
            yield prefixes[0], 1, 0, (), (), True
            return
        state = self.admit(v0, (0, 0, 0)) if self.prune else (0, 0, 0)
        if state is None:
            yield from ((p, int(i == 0), 0, (), (), True) for i, p in enumerate(prefixes))
            return
        piv, ker = self.place(v0, 0, [])
        pivots, kers = ([], (ker,)) if piv is None else ([piv], ())
        counters = {"nodes": 1, "kernel_calls": 0}
        before = (0, 0)
        for prefix in prefixes:
            v1 = prefix[1]
            found, fams = [], []
            try:
                if self.target == 2:
                    self.leaf_group([], v0, state, [], (), range(v1, v1 + 1), {}, found, fams, counters)
                else:
                    self.extend([v0], state, pivots, kers, (v1,), found, fams, counters)
                finished = True
            except _BudgetExceeded:
                finished = False
            nodes, calls = counters["nodes"], counters["kernel_calls"]
            yield prefix, nodes - before[0], calls - before[1], tuple(found), tuple(fams), finished
            if not finished:
                return
            before = nodes, calls


# the search and the stop event of a fork worker, set by the pool
# initializer; the parent process never sets them
_worker_search: _Search | None = None
_worker_stop = None


def _init_worker(search: _Search, stop) -> None:
    global _worker_search, _worker_stop
    _worker_search, _worker_stop = search, stop


def _worker_shard(prefixes) -> list[tuple]:
    """The records of one shard, up to the one during which the parent
    set the stop event: once set, the parent reads no further record."""
    records = []
    for record in _worker_search.run_shard(prefixes):
        records.append(record)
        if _worker_stop.is_set():
            break
    return records


def search_prefixes(v: int, target: int, done: Iterable = ()) -> list[tuple[int, ...]]:
    """The prefixes search_min_support splits its work by, less those in
    ``done``, in search order: the first min(target, 2) vertices of the
    ascending supports of size ``target`` on ``v`` vertices.  ValueError
    names a done entry that is not one of them or is listed twice."""
    depth = min(target, 2)
    end = v - target + depth
    todo = dict.fromkeys(combinations(range(end), depth), True)
    for p in map(tuple, done):
        if not todo.get(p):
            raise ValueError(f"done prefix {list(p)} is not a prefix of this search or is listed twice:"
                             f" its prefixes are the ascending {depth}-tuples of range({end})")
        todo[p] = False
    return [p for p, undone in todo.items() if undone]


def search_prefix(support) -> tuple[int, ...]:
    """The prefix below which the search finds the ascending ``support``:
    that of the one support of its size on its own vertices."""
    (first,) = search_prefixes(len(support), len(support))
    return tuple(support[i] for i in first)


def search_min_support(
    graph: Graph,
    theta: int,
    target: int,
    mode: str = "branch-and-prune",
    *,
    limit: int | None = None,
    resume: SearchResult | None = None,
    jobs: int = 1,
) -> SearchResult:
    """All theta-eigenfunctions with support of exactly the target size,
    one primitive representative per ray, plus support families where the
    kernel dimension exceeds one.

    A candidate support survives iff the kernel of the columns of
    A - theta*I indexed by it contains a vector with no zero entry.  The
    search runs over ascending supports and decides dependence exactly:
    the heads of the chosen columns (their entries on the rows of the
    symmetric A - theta*I that its echelon form's pivot columns index) are
    eliminated fraction-free, one per depth, each carrying its tail, the
    combination of chosen columns it equals.  A column whose head becomes
    zero is dependent and its primitive tail is a kernel vector.  It is
    reduced only by earlier pivot columns, so these vectors, in depth
    order, are the rational_kernel basis: one per free column, ascending.

    Branch-and-prune mode applies two local rules before any elimination:
    a vertex outside the support cannot have exactly one support neighbour
    (its equation would read 0 = f(s) for that neighbour s), and, when
    theta != 0, a support vertex cannot have none.  A leaf breaking either
    rule is skipped; an interior node is cut when a decided vertex breaks
    one and has no neighbour left to choose.  Exhaustive mode applies
    neither rule.  In both modes and at every size the leaves below a node
    are counted and screened as one group: pruning admits them by one
    exact mask filter before the node's column is reduced, and none is
    reduced when no leaf passes; they are still counted as nodes, one
    each.  A leaf is screened on its head, and its tail is built only
    when the head is zero.

    The work is split by the prefixes of search_prefixes, in order.
    ``limit`` is one node budget for the whole call, counted before
    pruning and in prefix order, whatever ``jobs`` is: a prefix is done
    when the running node total is still at most ``limit`` after its
    subtree.  When one is not, the search stops there and returns a
    result that is not ``complete``: it holds the results of the done
    prefixes, its ``checkpoint`` lists them, and its nodes and kernel
    calls are counted up to and including the prefix that did not fit.
    ``resume`` takes such a cut result: the search skips the done prefixes
    of its checkpoint and returns the whole answer, its functions and
    families among those found now, in support order.  Before any work it
    refuses, with ValueError, a done prefix that search_prefixes does not
    have, and a carried function or family this search cannot have found:
    one not of the target size, not below a done prefix (search_prefix),
    listed twice, or with a function of another graph or theta; ``nodes``
    and ``kernel_calls`` count this call's work only.  ``jobs``
    > 1 searches the prefixes of each first vertex in a pool of forked
    workers, with the same results and checkpoints; after a cut the
    running shards stop at their next prefix.
    """
    if mode not in ("exhaustive", "branch-and-prune"):
        raise ValueError(f"unknown mode {mode!r}")
    if target < 1:
        raise ValueError("target support size must be positive")
    done = [tuple(p) for p in resume.checkpoint["done"]] if resume else []
    prefixes = search_prefixes(graph.v, target, done)
    functions, families = (list(resume.functions), list(resume.families)) if resume else ([], [])
    placed, seen = set(done), set()
    for x in chain(functions, families):
        s = x.support
        if (len(s) != target or search_prefix(s) not in placed or s in seen
                or any(f.graph is not graph or f.theta != theta for f in getattr(x, "basis", (x,)))):
            raise ValueError(f"carried support {list(s)} is one this search cannot have found: it finds each"
                             f" support of size {target} once, below a done prefix, on its graph at theta {theta}")
        seen.add(s)
    params = graph.design.params if graph.design is not None else srg_params_brute(graph)
    if theta not in (params.r, params.s) or theta == params.k:
        raise SteinerError(f"{theta} is not a non-principal eigenvalue of the graph")
    search = _Search(graph, theta, target, mode == "branch-and-prune", limit)
    tasks = [tuple(group) for _, group in groupby(prefixes, lambda p: p[0])]

    def from_kernel(supp, vec) -> Eigenfunction:
        return Eigenfunction(graph, theta, {s: x for s, x in zip(supp, vec) if x})

    nodes = kernel_calls = 0
    exhausted = False
    pool = None
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial search imports none of it
        context = get_context("fork")
        stop = context.Event()
        pool = ProcessPoolExecutor(jobs, context, _init_worker, (search, stop))
    try:
        shards = pool.map(_worker_shard, tasks) if pool else map(search.run_shard, tasks)
        for prefix, n, calls, found, fams, finished in chain.from_iterable(shards):
            nodes += n
            kernel_calls += calls
            if not finished or (limit is not None and nodes > limit):
                exhausted = True
                break
            functions += (from_kernel(supp, vec) for supp, vec in found)
            families += (SupportFamily(supp, len(basis), tuple(from_kernel(supp, vec) for vec in basis))
                         for supp, basis in fams)
            done.append(prefix)
    finally:
        # no worker is killed: multiprocessing.Pool.terminate() could kill one
        # holding the result queue's lock, then wait on that lock for ever
        if pool:
            stop.set()
            pool.shutdown(cancel_futures=True)
    by_support = lambda x: x.support
    return SearchResult(tuple(sorted(functions, key=by_support)), tuple(sorted(families, key=by_support)),
                        nodes, kernel_calls, not exhausted, {"done": sorted(done)})
