"""Eigenfunctions of block graphs: construction, verification,
minimum-support enumeration and classification.

Pinned counts on the two GF(2) graphs:
  induced K_{3,3} part-pairs in the PG(3,2) graph: 280
  induced K_{2,2} part-pairs in the AG(3,2) graph: 210 (42 from plane
  class-pairs, 168 from affine reguli)
  support-4 eigenfunctions at theta = -2 on the AG(3,2) graph: 210 rays
"""

from __future__ import annotations

import sys
import threading
import types
from fractions import Fraction

import pytest

from steinergraphs import eigenfunctions
from steinergraphs.designs import Graph, srg_params_brute
from steinergraphs.eigenfunctions import (
    Eigenfunction,
    GrassmannRegulus,
    SupportStructure,
    Type1,
    Type2,
    classify_optimal,
    enumerate_complete_bipartite,
    from_bipartite_pair,
    inner_product,
    optimal_from_affine_regulus,
    optimal_from_parallel_classes,
    optimal_from_regulus,
    search_min_support,
    support_structure,
    verify_eigenfunction,
    wdbplus2_function,
)
from steinergraphs.errors import (
    HyperplaneHitsLineError,
    LimitExceededError,
    NotAnEigenfunctionError,
    NotAnEigenvalueError,
    NotOptimalError,
    WrongCountError,
    ZeroFunctionError,
)
from steinergraphs.geometry import (
    Hyperplane,
    aff_space,
    enumerate_planes,
    normalize_point,
    parallel_classes,
    proj_space,
)
from steinergraphs.gf import field_make
from steinergraphs.linalg import bareiss_echelon
from steinergraphs.reguli import enumerate_affine_reguli, regulus_restriction, regulus_through


def _standard_regulus(q=2):
    sp = proj_space(3, field_make(q))
    return regulus_through(
        sp,
        sp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0))),
        sp.line_from_basis(((0, 0, 1, 0), (0, 0, 0, 1))),
        sp.line_from_basis(((1, 0, 1, 0), (0, 1, 0, 1))),
    )


# -- Eigenfunction values and algebra ---------------------------------------------------


def test_eigenfunction_drops_zeros(g_j2):
    f = Eigenfunction(g_j2, 3, {0: Fraction(1), 1: Fraction(0), 2: Fraction(-1)})
    assert f.support == (0, 2)
    assert f.value(1) == 0
    assert f.value(0) == 1


def test_zero_function_rejected(g_j2):
    with pytest.raises(ZeroFunctionError):
        Eigenfunction(g_j2, 3, {0: Fraction(0)})


def test_out_of_range_vertex_rejected(g_j2):
    with pytest.raises(ValueError):
        Eigenfunction(g_j2, 3, {99: Fraction(1)})


def test_canonical_ray_representative(g_j2):
    f = Eigenfunction(g_j2, 3, {0: Fraction(-2, 3), 5: Fraction(4, 3)})
    c = f.canonical()
    assert [c.value(u) for u in c.support] == [1, -2]
    g = Eigenfunction(g_j2, 3, {0: Fraction(5), 5: Fraction(-10)})
    assert g.canonical() == c
    assert c.canonical() == c


def test_algebra(g_j2):
    f = Eigenfunction(g_j2, 3, {0: Fraction(1), 1: Fraction(2)})
    g = Eigenfunction(g_j2, 3, {1: Fraction(-2), 2: Fraction(1)})
    assert (f + g).support == (0, 2)
    assert (f - g).value(1) == 4
    assert (-f).value(0) == -1
    assert (3 * f).value(1) == 6
    assert (f * Fraction(1, 2)).value(0) == Fraction(1, 2)


def test_inner_product_and_orthogonality(g_j2):
    pair = _standard_regulus()
    f = optimal_from_regulus(pair, g_j2)  # theta = -3
    from steinergraphs.partitions import Partition2, partition_to_eigenfunction, star_line_set

    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    h = partition_to_eigenfunction(g_j2, part)  # theta = 3
    assert h.theta != f.theta
    assert inner_product(f, h) == 0  # distinct eigenvalues are orthogonal


# -- verification -------------------------------------------------------------------------


def test_verify_accepts_true_eigenfunction(g_j2):
    f = optimal_from_regulus(_standard_regulus(), g_j2)
    res = verify_eigenfunction(g_j2, f)
    assert res.ok and res.witness is None
    assert bool(res)


def test_verify_reports_first_failure(g_j2):
    f = Eigenfunction(g_j2, 3, {0: Fraction(1)})
    res = verify_eigenfunction(g_j2, f)
    assert not res.ok
    u, lhs, rhs = res.witness
    assert u == 0 and lhs == 3 and rhs == 0


def test_from_bipartite_pair(g_x2):
    pairs = enumerate_complete_bipartite(g_x2, 2)
    t0, t1 = pairs[0]
    f = from_bipartite_pair(g_x2, t0, t1, -2)
    assert sorted(f.support) == sorted(t0 + t1)
    assert {f.value(u) for u in t0} == {Fraction(1)}
    assert {f.value(u) for u in t1} == {Fraction(-1)}


def test_from_bipartite_pair_errors(g_x2):
    pairs = enumerate_complete_bipartite(g_x2, 2)
    t0, t1 = pairs[0]
    with pytest.raises(WrongCountError):
        from_bipartite_pair(g_x2, t0[:1], t1, -2)
    with pytest.raises(ValueError):
        from_bipartite_pair(g_x2, t0, t0, -2)
    # arbitrary non-bipartite-compatible parts fail verification
    with pytest.raises(NotAnEigenfunctionError) as exc:
        from_bipartite_pair(g_x2, (0, 1), (2, 3), -2)
    assert exc.value.witness is not None


# -- constructions from geometry -----------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_optimal_from_regulus(q):
    from steinergraphs.designs import cached_block_graph, projective_design

    g = cached_block_graph(projective_design(3, q))
    f = optimal_from_regulus(_standard_regulus(q), g)
    assert f.theta == -(q + 1)
    assert len(f.support) == 2 * (q + 1)  # the WDB for the negative eigenvalue
    assert verify_eigenfunction(g, f).ok
    cls = classify_optimal(g, f)
    assert isinstance(cls, GrassmannRegulus)
    assert cls.pair == _standard_regulus(q)


@pytest.mark.parametrize("q", [2, 3])
def test_optimal_from_parallel_classes(q):
    from steinergraphs.designs import affine_design, cached_block_graph

    g = cached_block_graph(affine_design(3, q))
    sp = g.design.space
    plane = enumerate_planes(sp)[0]
    c1, c2 = parallel_classes(plane)[:2]
    f = optimal_from_parallel_classes(plane, c1, c2, g)
    assert f.theta == -q
    assert len(f.support) == 2 * q
    assert verify_eigenfunction(g, f).ok
    cls = classify_optimal(g, f)
    assert isinstance(cls, Type1)


def test_optimal_from_parallel_classes_rejects_equal_or_foreign(g_x2):
    sp = g_x2.design.space
    plane = enumerate_planes(sp)[0]
    c1, c2 = parallel_classes(plane)[:2]
    with pytest.raises(ValueError):
        optimal_from_parallel_classes(plane, c1, c1, g_x2)
    other = enumerate_planes(sp)[3]
    foreign = parallel_classes(other)[0]
    with pytest.raises(ValueError):
        optimal_from_parallel_classes(plane, c1, foreign, g_x2)


@pytest.mark.parametrize("q", [2, 3])
def test_optimal_from_affine_regulus(q):
    from steinergraphs.designs import affine_design, cached_block_graph

    g = cached_block_graph(affine_design(3, q))
    sp = g.design.space
    pair = enumerate_affine_reguli(sp)[0]
    f = optimal_from_affine_regulus(pair, g)
    assert f.theta == -q
    assert len(f.support) == 2 * q
    assert verify_eigenfunction(g, f).ok
    cls = classify_optimal(g, f)
    assert isinstance(cls, Type2)
    assert cls.pair in (pair, pair.swap())


def test_wdbplus2_function_q2(g_j2):
    pair = _standard_regulus()
    sp = g_j2.design.space
    hits = 0
    for hyp in sp.hyperplanes:
        out = regulus_restriction(pair, hyp)
        if out.kind == "wdbplus2":
            f = wdbplus2_function(pair, hyp)
            assert f.theta == -2
            assert len(f.support) == 6  # WDB + 2 on the affine graph
            assert support_structure(f.graph, f).kind == "BipartiteMinusMatching"
            assert verify_eigenfunction(f.graph, f).ok
            hits += 1
        else:
            with pytest.raises(HyperplaneHitsLineError):
                wdbplus2_function(pair, hyp)
    assert hits == 6


def test_wdbplus2_function_q3():
    pair = _standard_regulus(3)
    sp = pair.space
    done = 0
    for hyp in sp.hyperplanes:
        if regulus_restriction(pair, hyp).kind != "wdbplus2":
            continue
        f = wdbplus2_function(pair, hyp)
        assert f.theta == -3
        assert len(f.support) == 8
        assert support_structure(f.graph, f).kind == "BipartiteMinusMatching"
        done += 1
        if done == 3:
            break
    assert done == 3


def _first_wdbplus2_hyperplane(pair):
    return next(h for h in pair.space.hyperplanes if regulus_restriction(pair, h).kind == "wdbplus2")


def _build_from_regulus(g_j2, g_x2):
    return optimal_from_regulus(_standard_regulus(), g_j2)


def _build_from_parallel_classes(g_j2, g_x2):
    plane = enumerate_planes(g_x2.design.space)[0]
    return optimal_from_parallel_classes(plane, *parallel_classes(plane)[:2], g_x2)


def _build_from_affine_regulus(g_j2, g_x2):
    return optimal_from_affine_regulus(enumerate_affine_reguli(g_x2.design.space)[0], g_x2)


def _build_wdbplus2(g_j2, g_x2):
    pair = _standard_regulus()
    return wdbplus2_function(pair, _first_wdbplus2_hyperplane(pair))


@pytest.mark.parametrize(
    "build",
    [_build_from_regulus, _build_from_parallel_classes, _build_from_affine_regulus, _build_wdbplus2],
    ids=lambda b: b.__name__[len("_build_"):],
)
def test_construction_support_size_checked(g_j2, g_x2, monkeypatch, build):
    """A construction whose function has the wrong support size raises,
    also under python -O."""
    shrunk = lambda graph, t0, t1, theta: Eigenfunction(graph, theta, {t0[0]: 1})
    monkeypatch.setattr(eigenfunctions, "from_bipartite_pair", shrunk)
    with pytest.raises(NotOptimalError, match="support size 1"):
        build(g_j2, g_x2)


def test_wdbplus2_structure_checked(monkeypatch):
    pair = _standard_regulus()
    hyp = _first_wdbplus2_hyperplane(pair)
    monkeypatch.setattr(eigenfunctions, "support_structure", lambda g, f: SupportStructure("Other", (), ()))
    with pytest.raises(NotOptimalError, match="matching"):
        wdbplus2_function(pair, hyp)


# -- support structure ---------------------------------------------------------------------


def test_structure_complete_bipartite(g_x2):
    pairs = enumerate_complete_bipartite(g_x2, 2)
    f = from_bipartite_pair(g_x2, *pairs[0], -2)
    st = support_structure(g_x2, f)
    assert st.kind == "CompleteBipartite"
    assert (st.t0, st.t1) == pairs[0]


def test_structure_isolated_clique_pair():
    # two disjoint triangles, +1 on one and -1 on the other
    adj = (0b000110, 0b000101, 0b000011, 0b110000, 0b101000, 0b011000)
    g = Graph(adj)
    f = Eigenfunction(g, 2, {u: Fraction(1) for u in (0, 1, 2)} | {u: Fraction(-1) for u in (3, 4, 5)})
    assert support_structure(g, f).kind == "IsolatedCliquePair"


def test_structure_other(g_x2):
    # +1 and -1 parts chosen with mixed internal edges
    f = Eigenfunction(
        g_x2, -2, {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1), 27: Fraction(-1)}
    )
    assert support_structure(g_x2, f).kind == "Other"


# -- complete bipartite enumeration -----------------------------------------------------------


def test_enumerate_complete_bipartite_counts(g_x2, g_j2):
    assert len(enumerate_complete_bipartite(g_x2, 2)) == 210
    assert len(enumerate_complete_bipartite(g_j2, 3)) == 280


def test_enumerate_complete_bipartite_validity(g_x2):
    for t0, t1 in enumerate_complete_bipartite(g_x2, 2):
        assert min(t0) < min(t1)
        for i, u in enumerate(t0):
            for w in t0[i + 1 :]:
                assert not g_x2.is_edge(u, w)
            for w in t1:
                assert g_x2.is_edge(u, w)
        for i, u in enumerate(t1):
            for w in t1[i + 1 :]:
                assert not g_x2.is_edge(u, w)


def test_enumerate_complete_bipartite_none_in_clique():
    adj = tuple((0b11111 & ~(1 << i)) for i in range(5))  # K5
    assert enumerate_complete_bipartite(Graph(adj), 2) == []


def test_enumerate_complete_bipartite_limit(g_x2, monkeypatch):
    monkeypatch.setattr(eigenfunctions, "MAX_BICLIQUE_VERTICES", 10)
    with pytest.raises(LimitExceededError):
        enumerate_complete_bipartite(g_x2, 2)


# -- classification gates ------------------------------------------------------------------


def test_classify_rejects_non_minimum_support(g_j2):
    # a sum of two disjoint regulus functions verifies but has support 12
    import itertools

    from steinergraphs.reguli import enumerate_reguli

    sp = g_j2.design.space
    pairs = enumerate_reguli(sp)
    f1 = optimal_from_regulus(pairs[0], g_j2)
    for p in pairs[1:]:
        f2 = optimal_from_regulus(p, g_j2)
        if not set(f1.support) & set(f2.support):
            f = f1 + f2
            with pytest.raises(NotOptimalError):
                classify_optimal(g_j2, f)
            return
    pytest.fail("no disjoint regulus pair found")


def test_classification_census_q2(g_x2):
    counts = {"Type1": 0, "Type2": 0}
    for t0, t1 in enumerate_complete_bipartite(g_x2, 2):
        f = from_bipartite_pair(g_x2, t0, t1, -2)
        cls = classify_optimal(g_x2, f)
        counts[type(cls).__name__] += 1
    assert counts == {"Type1": 42, "Type2": 168}


# -- minimum support search ------------------------------------------------------------------


def test_search_below_bound_is_empty(g_x2):
    for target in (2, 3):
        res = search_min_support(g_x2, -2, target)
        assert res.complete
        assert res.functions == () and res.families == ()


def test_search_at_bound_finds_all_rays(g_x2):
    res = search_min_support(g_x2, -2, 4)
    assert res.complete
    assert len(res.functions) == 210
    assert res.families == ()
    supports = {f.support for f in res.functions}
    assert len(supports) == 210  # duplicate-free
    for f in res.functions:
        assert verify_eigenfunction(g_x2, f).ok
        assert support_structure(g_x2, f).kind == "CompleteBipartite"
        first = f.value(f.support[0])
        assert first > 0  # ray normalisation


def test_search_modes_agree(g_x2):
    a = search_min_support(g_x2, -2, 4, "exhaustive")
    b = search_min_support(g_x2, -2, 4, "branch-and-prune")
    assert [f.values for f in a.functions] == [f.values for f in b.functions]
    assert a.nodes >= b.nodes  # pruning never explores more


def test_search_rejects_bad_eigenvalue(g_x2):
    with pytest.raises(NotAnEigenvalueError):
        search_min_support(g_x2, 5, 4)
    with pytest.raises(NotAnEigenvalueError):
        search_min_support(g_x2, 12, 4)  # k is excluded


def test_search_rejects_bad_mode_and_target(g_x2):
    with pytest.raises(ValueError):
        search_min_support(g_x2, -2, 4, "quantum")
    with pytest.raises(ValueError):
        search_min_support(g_x2, -2, 0)


def test_search_resume_roundtrip(g_x2):
    with pytest.raises(LimitExceededError) as exc:
        search_min_support(g_x2, -2, 4, limit=2000)
    checkpoint = exc.value.checkpoint
    partial = exc.value.partial
    assert not partial.complete
    assert checkpoint["done"]
    rest = search_min_support(g_x2, -2, 4, resume=checkpoint)
    key = lambda f: sorted(f.values.items())
    merged = sorted([key(f) for f in partial.functions] + [key(f) for f in rest.functions])
    full = search_min_support(g_x2, -2, 4)
    assert merged == sorted(key(f) for f in full.functions)


def test_search_parallel_matches_serial(g_x2):
    serial = search_min_support(g_x2, -2, 4)
    parallel = search_min_support(g_x2, -2, 4, jobs=2)
    assert [f.values for f in serial.functions] == [f.values for f in parallel.functions]
    assert (parallel.nodes, parallel.kernel_calls) == (serial.nodes, serial.kernel_calls)


def test_search_limit_equal_to_total_completes(g_x2):
    """A prefix is done while the running node total is at most the
    limit, so a budget of exactly the complete search's nodes suffices."""
    full = search_min_support(g_x2, -2, 4)
    res = search_min_support(g_x2, -2, 4, limit=full.nodes)
    assert res.complete
    assert len(res.functions) == 210
    assert res.nodes == full.nodes


def test_concurrent_searches_keep_their_own_tables(g_x2, g_j2):
    """Searches run from two threads of one process see only their own
    graph, eigenvalue and tables."""
    searches = {"aff": (g_x2, -2), "proj": (g_j2, -3)}
    expected = {k: _outcome(search_min_support(g, theta, 4)) for k, (g, theta) in searches.items()}
    got = {}

    def run(k):
        g, theta = searches[k]
        got[k] = _outcome(search_min_support(g, theta, 4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-4)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in searches]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_search_leaves_no_tables_in_the_module(g_x2):
    """Once a search returns, no attribute of the module (nor a dict or
    object it holds) references the row basis of A - theta*I."""
    search_min_support(g_x2, -2, 4)
    v = g_x2.v
    ident = [[(g_x2.adj[u] >> w & 1) + (2 if u == w else 0) for w in range(v)] for u in range(v)]
    ech, pivots = bareiss_echelon(ident)
    basis = tuple(tuple(row) for row in ech[: len(pivots)])

    def members(x):
        if isinstance(x, dict):
            return list(x.values())
        if isinstance(x, (type, types.ModuleType, types.FunctionType)):
            return []
        slots = getattr(type(x), "__slots__", ())
        return [getattr(x, a, None) for a in slots] + list(getattr(x, "__dict__", {}).values())

    for name, attr in vars(eigenfunctions).items():
        assert attr != basis and basis not in members(attr), name


# -- search modes on small strongly regular graphs without a design --------------------------


def _graph_from(vertices, adjacent) -> Graph:
    adj = [0] * len(vertices)
    for i, a in enumerate(vertices):
        for j, b in enumerate(vertices):
            if i != j and adjacent(a, b):
                adj[i] |= 1 << j
    return Graph(adj)


def _pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


SMALL_SRGS = {
    "petersen": lambda: _graph_from(_pairs(5), lambda a, b: not set(a) & set(b)),
    "T5": lambda: _graph_from(_pairs(5), lambda a, b: bool(set(a) & set(b))),
    "L3": lambda: _graph_from(
        [(i, j) for i in range(3) for j in range(3)], lambda a, b: (a[0] == b[0]) != (a[1] == b[1])
    ),
    "T6": lambda: _graph_from(_pairs(6), lambda a, b: bool(set(a) & set(b))),
    "K333": lambda: _graph_from(range(9), lambda a, b: a // 3 != b // 3),
}


def _outcome(res):
    rays = [sorted(f.values.items()) for f in res.functions]
    fams = [(fam.support, [sorted(g.values.items()) for g in fam.basis]) for fam in res.families]
    return rays, fams


@pytest.mark.parametrize("name", SMALL_SRGS)
def test_search_modes_agree_on_small_srgs(name):
    """Pruning, exhaustive search and the worker pool give the same rays
    and families at every non-principal eigenvalue, theta = 0 included,
    and pruning never makes more exact kernel calls."""
    g = SMALL_SRGS[name]()
    params = srg_params_brute(g)
    for theta in (params.r, params.s):
        for size in range(1, 7):
            ref = search_min_support(g, theta, size, "exhaustive")
            res = search_min_support(g, theta, size)
            assert _outcome(res) == _outcome(ref), (theta, size)
            assert res.kernel_calls <= ref.kernel_calls, (theta, size)
            par = search_min_support(g, theta, size, jobs=2)
            assert _outcome(par) == _outcome(res), (theta, size)


def test_search_theta_zero_keeps_isolated_support_vertices():
    """On K_{3,3,3} the 0-eigenfunctions sum to zero on each part: a
    support inside one part has no support edges at all."""
    g = SMALL_SRGS["K333"]()
    assert srg_params_brute(g).r == 0
    pairs = search_min_support(g, 0, 2)
    assert [f.support for f in pairs.functions] == [
        (a, b) for p in range(0, 9, 3) for a in range(p, p + 3) for b in range(a + 1, p + 3)
    ]
    parts = search_min_support(g, 0, 3)
    assert parts.functions == ()
    assert [(fam.support, fam.dimension) for fam in parts.families] == [
        ((0, 1, 2), 2), ((3, 4, 5), 2), ((6, 7, 8), 2)
    ]
