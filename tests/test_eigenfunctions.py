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
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinergraphs import designs, eigenfunctions
from steinergraphs.designs import Graph, bit_indices, srg_params_brute
from steinergraphs.eigenfunctions import (
    Eigenfunction,
    GrassmannRegulus,
    Type1,
    Type2,
    classify_optimal,
    enumerate_complete_bipartite,
    from_bipartite_pair,
    optimal_from_regulus,
    SearchResult,
    SupportFamily,
    search_min_support,
    search_prefix,
    search_prefixes,
    support_structure,
    verify_eigenfunction,
    wdbplus2_function,
)
from steinergraphs.errors import LimitExceededError, NotAnEigenfunctionError, SteinerError
from steinergraphs.geometry import (
    Hyperplane,
    aff_space,
    enumerate_planes,
    normalize_point,
    parallel_classes,
    proj_space,
)
from steinergraphs.gf import field_make
from steinergraphs.linalg import bareiss_echelon, rational_kernel
from steinergraphs.reguli import enumerate_reguli, regulus_restriction, regulus_through


def _standard_regulus(q=2):
    sp = proj_space(3, field_make(q))
    return regulus_through(
        sp,
        sp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0))),
        sp.line_from_basis(((0, 0, 1, 0), (0, 0, 0, 1))),
        sp.line_from_basis(((1, 0, 1, 0), (0, 1, 0, 1))),
    )


# -- Eigenfunction values ---------------------------------------------------------------


def test_eigenfunction_drops_zeros(g_j2):
    f = Eigenfunction(g_j2, 3, {0: Fraction(1), 1: Fraction(0), 2: Fraction(-1)})
    assert f.support == (0, 2)
    assert f.value(1) == 0
    assert f.value(0) == 1


def test_zero_function_rejected(g_j2):
    with pytest.raises(SteinerError, match="the zero function"):
        Eigenfunction(g_j2, 3, {0: Fraction(0)})


def test_out_of_range_vertex_rejected(g_j2):
    with pytest.raises(ValueError):
        Eigenfunction(g_j2, 3, {99: Fraction(1)})


def test_inner_product_and_orthogonality(g_j2):
    pair = _standard_regulus()
    f = optimal_from_regulus(pair, g_j2)  # theta = -3
    from steinergraphs.partitions import Partition2, partition_to_eigenfunction, star_line_set

    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    h = partition_to_eigenfunction(g_j2, part)  # theta = 3
    assert h.theta != f.theta
    # distinct eigenvalues are orthogonal
    assert sum(x * h.value(u) for u, x in f.values.items()) == 0


# -- verification -------------------------------------------------------------------------


def test_verify_accepts_true_eigenfunction(g_j2):
    f = optimal_from_regulus(_standard_regulus(), g_j2)
    res = verify_eigenfunction(f)
    assert res.ok and res.witness is None
    assert bool(res)


def test_verify_reports_first_failure(g_j2):
    f = Eigenfunction(g_j2, 3, {0: Fraction(1)})
    res = verify_eigenfunction(f)
    assert not res.ok
    u, lhs, rhs = res.witness
    assert u == 0 and lhs == 3 and rhs == 0


def _popcount_verify(graph, f):
    """The reference check: at each vertex of the closed neighbourhood of
    the support, in ascending order, theta * f(u) against the neighbour
    sum, taken per distinct scaled value as a popcount.  Returns (ok,
    witness) as verify_eigenfunction does."""
    scale = lcm(*(x.denominator for x in f.values.values()))
    scaled, masks, closed = {}, {}, 0
    for w, x in f.values.items():
        c = x.numerator * (scale // x.denominator)
        scaled[w] = c
        masks[c] = masks.get(c, 0) | 1 << w
        closed |= graph.adj[w] | 1 << w
    for u in bit_indices(closed):
        lhs = f.theta * scaled.get(u, 0)
        rhs = sum(c * (graph.adj[u] & m).bit_count() for c, m in masks.items())
        if lhs != rhs:
            return False, (u, Fraction(lhs, scale), Fraction(rhs, scale))
    return True, None


def _graph_from_edges(v, edges):
    adj = [0] * v
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Graph(adj)


# numerators up to 2^70, powers of two among them (whose many trailing
# zero bits make neighbouring fields of the packed check collide when
# they are too narrow), and denominators that make the lcm scaling work
_NUMERATORS = st.integers(-2 ** 70, 2 ** 70) | st.builds(
    lambda e, sign: sign << e, st.integers(0, 70), st.sampled_from([1, -1])
)
_PACKED_VALUES = st.builds(
    Fraction, _NUMERATORS, st.integers(1, 12) | st.sampled_from([2 ** 35, 3 ** 20])
).filter(bool)


@st.composite
def packed_cases(draw):
    """(kind, graph, f) on a random or complete graph of up to 14
    vertices.  'random' puts random values at random vertices under a
    random theta (0 included); 'twins' adds a twin x of a vertex t, with the same
    neighbours (theta = 0) or those and t itself (theta = -1), and puts
    c on t and -c on x, an eigenfunction; 'broken' adds a value at one
    vertex of a 'twins' function."""
    n = draw(st.integers(1, 13))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if draw(st.booleans()):
        edges = pairs
    else:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    kind = draw(st.sampled_from(["random", "twins", "broken"]))
    if kind == "random":
        graph = _graph_from_edges(n, edges)
        theta = draw(st.just(0) | st.integers(-n, n) | st.integers(-300, 300))
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        return kind, graph, Eigenfunction(graph, theta, {u: draw(_PACKED_VALUES) for u in support})
    t = draw(st.integers(0, n - 1))
    adjacent = draw(st.booleans())
    # u + w - t is the other end of an edge at t
    twin = [(u + w - t, n) for u, w in edges if t in (u, w)]
    if adjacent:
        twin.append((t, n))
    graph = _graph_from_edges(n + 1, edges + twin)
    c = draw(_PACKED_VALUES)
    values = {t: c, n: -c}
    if kind == "broken":
        w = draw(st.integers(0, n))
        values[w] = values.get(w, Fraction(0)) + draw(_PACKED_VALUES)
        if not any(values.values()):
            values = {t: c}
    return kind, graph, Eigenfunction(graph, -1 if adjacent else 0, values)


_PATH = _graph_from_edges(2, [(0, 1)])
_K5 = _graph_from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
_POINT = _graph_from_edges(1, [])


@settings(max_examples=400, deadline=None)
@given(packed_cases())
# the equations at vertex 0 (0 = 256) and 1 (0 = -1) cancel in fields of 8 bits
@example(("random", _PATH, Eigenfunction(_PATH, 0, {0: -1, 1: 256})))
@example(("random", _PATH, Eigenfunction(_PATH, 0, {0: -1, 1: 2 ** 64})))
@example(("random", _PATH, Eigenfunction(_PATH, -3, {0: Fraction(2 ** 70, 3), 1: Fraction(-1, 2 ** 35)})))
# every equation reads 0 = 4 = 2^2, which fields of 2 bits carry into the next vertex
@example(("random", _K5, Eigenfunction(_K5, 0, dict.fromkeys(range(5), 1))))
# the one equation reads 256 = 0: the field must hold theta * f as well as the neighbour sum
@example(("random", _POINT, Eigenfunction(_POINT, 256, {0: 1})))
def test_packed_verify_matches_popcount_loop(case):
    """The packed-integer check gives the verdict and the witness of the
    reference loop, on random graphs, theta = 0, Fraction values and
    numerators up to 2^70, eigenfunctions and broken functions alike."""
    kind, graph, f = case
    res = verify_eigenfunction(f)
    assert (res.ok, res.witness) == _popcount_verify(graph, f)
    if kind == "twins":
        assert res.ok


@settings(max_examples=150, deadline=None)
@given(packed_cases())
def test_unkept_width_verify_matches_popcount_loop(case):
    """With no packed rows kept, the vertex-by-vertex check gives the
    verdict and the witness of the reference loop."""
    _, graph, f = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "PACKED_TABLE_BITS", 0)
        res = verify_eigenfunction(f)
    assert not graph._packed
    assert (res.ok, res.witness) == _popcount_verify(graph, f)


def test_packed_rows_kept_within_budget(monkeypatch):
    """A width whose rows would bring the kept rows past the budget is
    neither built nor kept; narrower widths still are."""
    g = _graph_from_edges(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(designs, "PACKED_TABLE_BITS", 3 * 3 * 24)
    assert g.packed_rows(8)[1] == 8
    assert g.packed_rows(9)[0] is not None
    assert g.packed_rows(17) == (None, 24)
    assert sorted(g._packed) == [8, 16]


def test_packed_rows_kept_per_byte_width():
    """Widths round up to whole bytes, and each width's rows are built
    once and kept on the graph."""
    g = _graph_from_edges(3, [(0, 1), (1, 2)])
    rows, width = g.packed_rows(5)
    assert width == 8
    assert rows == (1 << 8, 1 | 1 << 16, 1 << 8)
    assert g.packed_rows(8)[0] is rows
    assert g.packed_rows(9) == ((1 << 16, 1 | 1 << 32, 1 << 16), 16)


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
    with pytest.raises(SteinerError, match="parts have sizes 1 and 2"):
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
    assert verify_eigenfunction(f).ok
    cls = classify_optimal(f)
    assert isinstance(cls, GrassmannRegulus)
    assert cls.pair == _standard_regulus(q)


@pytest.mark.parametrize("q", [2, 3])
def test_optimal_from_parallel_classes(q):
    """The Type 1 construction: +1 on one parallel class of a plane and
    -1 on another is a -q-eigenfunction with support 2q, which
    classify_optimal decodes back to the two classes of its space."""
    from steinergraphs.designs import affine_design, cached_block_graph

    g = cached_block_graph(affine_design(3, q))
    sp = g.design.space
    plane = enumerate_planes(sp)[0]
    c1, c2 = parallel_classes(plane)[:2]
    f = from_bipartite_pair(g, c1, c2, -q)
    assert len(f.support) == 2 * q
    cls = classify_optimal(f)
    assert cls == Type1((c1, c2), sp)
    # the same indices in AG(4,q) are other lines
    assert cls != Type1((c1, c2), aff_space(4, sp.field))


@pytest.mark.parametrize("q", [2, 3])
def test_optimal_from_affine_regulus(q):
    """optimal_from_regulus takes theta and the support size from the
    family size, q lines in AG(3,q)."""
    from steinergraphs.designs import affine_design, cached_block_graph

    g = cached_block_graph(affine_design(3, q))
    sp = g.design.space
    pair = enumerate_reguli(sp)[0]
    f = optimal_from_regulus(pair, g)
    assert f.theta == -q
    assert len(f.support) == 2 * q
    assert verify_eigenfunction(f).ok
    cls = classify_optimal(f)
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
            assert support_structure(f) == "BipartiteMinusMatching"
            assert verify_eigenfunction(f).ok
            hits += 1
        else:
            with pytest.raises(SteinerError, match="hyperplane does not avoid"):
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
        assert support_structure(f) == "BipartiteMinusMatching"
        done += 1
        if done == 3:
            break
    assert done == 3


def _first_wdbplus2_hyperplane(pair):
    return next(h for h in pair.space.hyperplanes if regulus_restriction(pair, h).kind == "wdbplus2")


def _build_from_regulus(g_j2, g_x2):
    return optimal_from_regulus(_standard_regulus(), g_j2)


def _build_from_affine_regulus(g_j2, g_x2):
    return optimal_from_regulus(enumerate_reguli(g_x2.design.space)[0], g_x2)


def _build_wdbplus2(g_j2, g_x2):
    pair = _standard_regulus()
    return wdbplus2_function(pair, _first_wdbplus2_hyperplane(pair))


@pytest.mark.parametrize(
    "build",
    [_build_from_regulus, _build_from_affine_regulus, _build_wdbplus2],
    ids=lambda b: b.__name__[len("_build_"):],
)
def test_construction_support_size_checked(g_j2, g_x2, monkeypatch, build):
    """A construction whose function has the wrong support size raises,
    also under python -O."""
    shrunk = lambda graph, t0, t1, theta: Eigenfunction(graph, theta, {t0[0]: 1})
    monkeypatch.setattr(eigenfunctions, "from_bipartite_pair", shrunk)
    with pytest.raises(SteinerError, match="support size 1"):
        build(g_j2, g_x2)


def test_wdbplus2_structure_checked(monkeypatch):
    pair = _standard_regulus()
    hyp = _first_wdbplus2_hyperplane(pair)
    monkeypatch.setattr(eigenfunctions, "support_structure", lambda f: "Other")
    with pytest.raises(SteinerError, match="matching"):
        wdbplus2_function(pair, hyp)


# -- support structure ---------------------------------------------------------------------


def test_structure_complete_bipartite(g_x2):
    pairs = enumerate_complete_bipartite(g_x2, 2)
    f = from_bipartite_pair(g_x2, *pairs[0], -2)
    assert support_structure(f) == "CompleteBipartite"


def test_structure_isolated_clique_pair():
    # two disjoint triangles, +1 on one and -1 on the other
    adj = (0b000110, 0b000101, 0b000011, 0b110000, 0b101000, 0b011000)
    g = Graph(adj)
    f = Eigenfunction(g, 2, {u: Fraction(1) for u in (0, 1, 2)} | {u: Fraction(-1) for u in (3, 4, 5)})
    assert support_structure(f) == "IsolatedCliquePair"


def test_structure_other(g_x2):
    # +1 and -1 parts chosen with mixed internal edges
    f = Eigenfunction(
        g_x2, -2, {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1), 27: Fraction(-1)}
    )
    assert support_structure(f) == "Other"


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
            f = Eigenfunction(g_j2, f1.theta, f1.values | f2.values)
            with pytest.raises(SteinerError, match="is not the bound"):
                classify_optimal(f)
            return
    pytest.fail("no disjoint regulus pair found")


def test_classification_census_q2(g_x2):
    counts = {"Type1": 0, "Type2": 0}
    for t0, t1 in enumerate_complete_bipartite(g_x2, 2):
        f = from_bipartite_pair(g_x2, t0, t1, -2)
        cls = classify_optimal(f)
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
        assert verify_eigenfunction(f).ok
        assert support_structure(f) == "CompleteBipartite"
        first = f.value(f.support[0])
        assert first > 0  # ray normalisation


def test_search_modes_agree(g_x2):
    a = search_min_support(g_x2, -2, 4, "exhaustive")
    b = search_min_support(g_x2, -2, 4, "branch-and-prune")
    assert [f.values for f in a.functions] == [f.values for f in b.functions]
    assert a.nodes >= b.nodes  # pruning never explores more


def test_search_rejects_bad_eigenvalue(g_x2):
    with pytest.raises(SteinerError, match="not a non-principal eigenvalue"):
        search_min_support(g_x2, 5, 4)
    with pytest.raises(SteinerError, match="not a non-principal eigenvalue"):
        search_min_support(g_x2, 12, 4)  # k is excluded


def test_search_rejects_bad_mode_and_target(g_x2):
    with pytest.raises(ValueError):
        search_min_support(g_x2, -2, 4, "quantum")
    with pytest.raises(ValueError):
        search_min_support(g_x2, -2, 0)


def test_search_resume_roundtrip(g_x2):
    """A spent budget returns the cut result with its checkpoint; resumed
    from that result the search returns the whole answer, and resumed
    from a complete result it does no work."""
    partial = search_min_support(g_x2, -2, 4, limit=2000)
    assert not partial.complete
    assert partial.checkpoint["done"]
    rest = search_min_support(g_x2, -2, 4, resume=partial)
    full = search_min_support(g_x2, -2, 4)
    assert rest.complete
    assert (rest.functions, rest.checkpoint) == (full.functions, full.checkpoint)
    again = search_min_support(g_x2, -2, 4, resume=rest)
    assert (again.functions, again.checkpoint, again.nodes) == (full.functions, full.checkpoint, 0)


@pytest.mark.parametrize("mode", ["branch-and-prune", "exhaustive"])
@pytest.mark.parametrize("size, limit", [(6, 400000), (4, 2000)])
def test_search_resumed_from_a_cut_result_is_the_uncut_search(g_x2, mode, size, limit):
    """Resumed from its cut result, a search returns the uncut search's
    functions, families and checkpoint, the carried ones in support order
    among the new; its nodes count only the resumed work.  A resume used
    to take only the done list and return only what was found after it."""
    cut = search_min_support(g_x2, -2, size, mode, limit=limit)
    assert not cut.complete and cut.functions and (size == 4 or cut.families)
    rest = search_min_support(g_x2, -2, size, mode, resume=cut)
    full = search_min_support(g_x2, -2, size, mode)
    assert rest.complete
    assert (rest.functions, rest.families, rest.checkpoint) == (full.functions, full.families, full.checkpoint)
    assert rest.nodes < full.nodes


def test_search_prefixes_pinned_on_ag32(g_x2):
    """The search splits its work by search_prefixes, in order: on the 28
    vertices of the AG(3,2) graph each vertex at size 1, the 325 pairs
    from (0, 1) to (24, 25) at size 4 and 276 pairs at size 6.  A complete
    search's checkpoint lists them all, and each of its supports lies
    below the prefix that search_prefix gives it."""
    assert search_prefixes(28, 1) == [(v0,) for v0 in range(28)]
    at4 = search_prefixes(28, 4)
    assert (len(at4), at4[0], at4[-1]) == (325, (0, 1), (24, 25))
    assert len(search_prefixes(28, 6)) == 276
    full = search_min_support(g_x2, -2, 4)
    assert full.checkpoint == {"done": at4}
    assert {search_prefix(f.support) for f in full.functions} <= set(at4)
    assert search_prefixes(28, 4, at4[:-1]) == [(24, 25)]


def _no_search(*args):
    raise AssertionError("the search started before its resume was checked")


@pytest.mark.parametrize("size, prefix", [
    (4, (0, 26)), (4, (5, 2)), (4, (3, 3)), (4, (-1, 3)), (4, (7,)), (4, (0, 1, 2)), (4, "repeated"),
    (1, (28,)), (1, (-1,)), (1, (0, 1)),
], ids=["second-past-the-last", "descending", "equal", "negative", "one-vertex", "three-vertices", "repeated",
        "size1-past-the-last", "size1-negative", "size1-pair"])
def test_search_resume_refuses_a_done_prefix_the_search_does_not_have(g_x2, monkeypatch, size, prefix):
    """search_min_support refuses, before any work, a done entry that is
    not one of its prefixes or is listed twice, as the CLI's --resume
    does; such an entry used to be accepted and copied into its
    checkpoint."""
    done = [(0, 1), (0, 1)] if prefix == "repeated" else [prefix]
    monkeypatch.setattr(eigenfunctions, "_Search", _no_search)
    with pytest.raises(ValueError, match="not a prefix of this search"):
        search_min_support(g_x2, -2, size, resume=SearchResult((), (), 0, 0, False, {"done": done}))


def test_search_resume_refuses_bogus_entries_among_good_ones(g_x2):
    """The done list [(0, 999), (5, 2), (7,), (0, 1), (0, 1)] used to
    give a complete result with 208 of the 210 rays and a checkpoint of
    328 entries, the three bogus ones among them."""
    with pytest.raises(ValueError, match=r"done prefix \[0, 999\] is not a prefix of this search"):
        done = [(0, 999), (5, 2), (7,), (0, 1), (0, 1)]
        search_min_support(g_x2, -2, 4, resume=SearchResult((), (), 0, 0, False, {"done": done}))


def _doubled_at_first(f: Eigenfunction) -> Eigenfunction:
    """f with its value at its first support vertex doubled, which no
    eigenfunction is."""
    u = f.support[0]
    return Eigenfunction(f.graph, f.theta, f.values | {u: 2 * f.values[u]})


def test_support_family_is_its_basis(cut_searches):
    """A family's support is the union of its basis supports, its
    dimension the size of its basis, and a basis of fewer than two
    functions is refused."""
    fam = cut_searches["cut6"].families[0]
    assert fam.support == tuple(sorted(set(fam.basis[0].support) | set(fam.basis[1].support)))
    assert len(fam.support) == 6 and fam.dimension == len(fam.basis) == 2
    for basis in ((), fam.basis[:1]):
        with pytest.raises(ValueError, match="at least two functions"):
            SupportFamily(basis)


@pytest.fixture(scope="module")
def cut_searches(g_x2):
    """The complete AG(3,2) size-4 search at theta -2, and its size-4 and
    size-6 searches cut at 2000 and 400000 nodes."""
    return {"full4": search_min_support(g_x2, -2, 4), "cut4": search_min_support(g_x2, -2, 4, limit=2000),
            "cut6": search_min_support(g_x2, -2, 6, limit=400000)}


@pytest.mark.parametrize("case", ["undone-prefix", "other-size", "family-other-size", "repeated-function",
                                  "repeated-family", "other-theta", "other-graph", "function-not-verifying",
                                  "family-basis-not-verifying"])
def test_search_resume_refuses_what_the_search_cannot_have_found(g_x2, monkeypatch, cut_searches, case):
    """A search finds each support once, of its size, below a done prefix,
    as functions of its graph at its theta that verify; search_min_support
    refuses, before any work, a cut result carrying any other function or
    family, as the CLI's --resume does.  Only the CLI used to check them,
    and it caught a carried function that does not verify only after the
    whole search."""
    size6 = "family" in case or case == "other-size"
    cut = cut_searches["cut6" if size6 else "cut4"]
    done = set(cut.checkpoint["done"])
    functions, families = cut.functions, cut.families
    if case == "undone-prefix":
        functions += (next(f for f in cut_searches["full4"].functions if search_prefix(f.support) not in done),)
    elif case == "other-size":
        functions += (next(f for f in cut_searches["cut4"].functions if search_prefix(f.support) in done),)
    elif case == "family-other-size":
        families = (SupportFamily(families[0].basis + families[1].basis), *families[2:])
    elif case == "function-not-verifying":
        functions = (_doubled_at_first(functions[0]), *functions[1:])
    elif case == "family-basis-not-verifying":
        fam = families[0]
        families = (SupportFamily((_doubled_at_first(fam.basis[0]), *fam.basis[1:])), *families[1:])
    elif case == "repeated-function":
        functions += functions[-1:]
    elif case == "repeated-family":
        families += families[-1:]
    else:
        f = functions[0]
        graph = Graph(g_x2.adj) if case == "other-graph" else g_x2
        functions = (Eigenfunction(graph, 4 if case == "other-theta" else -2, f.values), *functions[1:])
    monkeypatch.setattr(eigenfunctions, "_Search", _no_search)
    with pytest.raises(ValueError, match="cannot have found"):
        search_min_support(g_x2, -2, 6 if size6 else 4, resume=replace(cut, functions=functions, families=families))


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


@pytest.mark.parametrize("limit", [1, 50, 1000, 5000])
def test_exhaustive_search_budget_spent_at_a_node(g_x2, limit):
    """Exhaustive mode counts each group of leaves at once too, and its
    budget runs out at one node: one and two workers give the same
    checkpoint and partial result, and resumed from the cut result the
    search returns the uncut search's 210 rays."""
    serial, parallel = (search_min_support(g_x2, -2, 4, "exhaustive", limit=limit, jobs=jobs) for jobs in (1, 2))
    assert not serial.complete and not parallel.complete
    assert parallel.checkpoint == serial.checkpoint
    assert _outcome(parallel) == _outcome(serial)
    assert (parallel.nodes, parallel.kernel_calls) == (serial.nodes, serial.kernel_calls)
    assert serial.nodes > limit
    rest = search_min_support(g_x2, -2, 4, "exhaustive", resume=serial)
    full = search_min_support(g_x2, -2, 4)
    assert len(rest.functions) == 210
    assert (rest.functions, rest.checkpoint) == (full.functions, full.checkpoint)


# nodes, kernel calls and done prefixes of the support-6 search on AG(3,2)
# at theta = -2 cut at each budget, as the search that admitted every
# leaf on its own counted them
CENSUS_PARTIALS = {
    37: (38, 0, 0),
    1000: (1001, 4, 0),
    2000: (2001, 8, 0),
    4321: (4322, 16, 0),
    50000: (50001, 700, 3),
}


def test_census_search_counts_pinned(g_x2):
    """Admitting the leaves in bulk keeps every count of the census search:
    nodes (counted before pruning), exact kernel calls, rays and families,
    complete and cut at each budget, serial and on two workers."""
    full = search_min_support(g_x2, -2, 6)
    assert (full.nodes, full.kernel_calls, len(full.functions), len(full.families)) == (
        449301, 6510, 2520, 630
    )
    for limit, expected in CENSUS_PARTIALS.items():
        partial = search_min_support(g_x2, -2, 6, limit=limit)
        assert not partial.complete
        assert (partial.nodes, partial.kernel_calls, len(partial.checkpoint["done"])) == expected
    par = search_min_support(g_x2, -2, 6, limit=50000, jobs=2)
    assert not par.complete
    assert par.checkpoint == partial.checkpoint
    assert _outcome(par) == _outcome(partial)
    assert (par.nodes, par.kernel_calls) == (partial.nodes, partial.kernel_calls)


def test_census_search_places_each_leaf_parent_once(g_x2, monkeypatch):
    """A leaf group places its parent w at most once, not once for each
    dependent leaf below it: the census search makes 26,601 column
    placements, with every count of the search unchanged."""
    calls = [0]
    real = eigenfunctions._Search.place

    def counted(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(eigenfunctions._Search, "place", counted)
    full = search_min_support(g_x2, -2, 6)
    assert (full.nodes, full.kernel_calls, len(full.functions), len(full.families)) == (
        449301, 6510, 2520, 630
    )
    assert calls[0] == 26601


def test_worker_shard_stops_after_the_record_of_a_cut(g_x2, monkeypatch):
    """A pool worker's shard runs to its end until the parent sets the
    stop event after a cut; from then on it returns after the record
    during which the event is set, not at its own node budget."""
    task = tuple((0, v1) for v1 in range(1, 6))
    stop = threading.Event()
    monkeypatch.setattr(eigenfunctions, "_worker_search", eigenfunctions._Search(g_x2, -2, 4, True, None))
    monkeypatch.setattr(eigenfunctions, "_worker_stop", stop)
    assert [r[0] for r in eigenfunctions._worker_shard(task)] == [(0, v1) for v1 in range(1, 6)]
    stop.set()
    assert [r[0] for r in eigenfunctions._worker_shard(task)] == [(0, 1)]


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
    object it holds) references its heads: the columns of A - theta*I on
    the rows that its echelon form's pivot columns index."""
    search_min_support(g_x2, -2, 4)
    m = _columns(g_x2, -2, range(g_x2.v))
    _, pivots = bareiss_echelon(m)
    basis = tuple(tuple(row[s] for s in pivots) for row in m)
    assert basis == eigenfunctions._Search(g_x2, -2, 4, True, None).heads

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

MODES = ("branch-and-prune", "exhaustive")


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


def _columns(g, theta, support):
    """The columns of A - theta*I indexed by ``support``, built from the
    adjacency masks."""
    return [[(g.adj[u] >> x & 1) - (theta if u == x else 0) for x in support] for u in range(g.v)]


def _assert_kernels_match(g, theta, res):
    """Each ray is the one primitive rational_kernel vector of its
    support's columns of A - theta*I, and each family's basis is that
    kernel's basis, vector by vector."""
    for f in res.functions:
        assert rational_kernel(_columns(g, theta, f.support)) == (tuple(f.values[s] for s in f.support),)
    for fam in res.families:
        basis = tuple(tuple(b.value(s) for s in fam.support) for b in fam.basis)
        assert rational_kernel(_columns(g, theta, fam.support)) == basis
        assert fam.dimension == len(basis) >= 2


def test_census_kernels_match_rational_kernel(g_x2):
    """The search reads its kernels off one fraction-free elimination; every
    ray and family of the support-6 census equals the exact kernel that
    rational_kernel computes afresh."""
    res = search_min_support(g_x2, -2, 6)
    assert (len(res.functions), len(res.families)) == (2520, 630)
    _assert_kernels_match(g_x2, -2, res)


@pytest.mark.parametrize("name", SMALL_SRGS)
def test_small_srg_kernels_match_rational_kernel(name):
    g = SMALL_SRGS[name]()
    params = srg_params_brute(g)
    for mode, theta, size in product(MODES, (params.r, params.s), range(2, 7)):
        _assert_kernels_match(g, theta, search_min_support(g, theta, size, mode))


def _admits(g, theta, chosen, leaf):
    """The local rules of branch-and-prune mode at the node ``chosen``: no
    vertex outside the support has exactly one support neighbour and (theta
    != 0) no support vertex has none.  Above the leaves a vertex breaking
    them is spared while it or a neighbour of it lies above the last chosen
    vertex."""
    w = chosen[-1]
    for u in range(g.v):
        n = sum(g.adj[u] >> s & 1 for s in chosen)
        bad = (n == 1 and u not in chosen) or (theta != 0 and n == 0 and u in chosen)
        if bad and (leaf or not (u > w or g.adj[u] >> w + 1)):
            return False
    return True


def _nodes_one_at_a_time(g, theta, size, mode):
    """The search tree in search order, one node at a time: per node its
    first vertex, whether it is a leaf, and whether it makes an exact
    kernel call (an admitted leaf whose columns of A - theta*I are
    dependent, by rational_kernel).  Exhaustive mode admits every node."""
    nodes = []

    def walk(chosen):
        depth = len(chosen) + 1
        for w in range(chosen[-1] + 1 if chosen else 0, g.v - size + depth):
            leaf = depth == size
            nodes.append([(chosen or [w])[0], leaf, False])
            if mode == "branch-and-prune" and not _admits(g, theta, chosen + [w], leaf):
                continue
            if leaf:
                nodes[-1][2] = bool(rational_kernel(_columns(g, theta, chosen + [w])))
            else:
                walk(chosen + [w])

    walk([])
    return nodes


@pytest.mark.parametrize("name", SMALL_SRGS)
def test_search_cut_inside_a_leaf_group(name):
    """Cut in the middle of a group of leaves, which the search counts at
    once, a partial search counts the nodes and makes the kernel calls of
    the search taken one node at a time, in both modes and at size 2,
    where each leaf is a group of its own, and its done prefixes hold the
    rays and families exhaustive mode finds there.  Every graph here has
    theta != 0, where a leaf must also meet each support vertex without a
    support neighbour; K_{3,3,3} has theta = 0."""
    g = SMALL_SRGS[name]()
    params = srg_params_brute(g)
    for theta, size in product((params.r, params.s), (2, 3, 4, 5, 6)):
        ref = search_min_support(g, theta, size, "exhaustive")
        for mode in MODES:
            nodes = _nodes_one_at_a_time(g, theta, size, mode)
            full = search_min_support(g, theta, size, mode)
            assert full.nodes == len(nodes), (mode, theta, size)
            assert full.kernel_calls == sum(call for _, _, call in nodes), (mode, theta, size)
            # budgets inside the first shard that stop the search at a leaf
            # following another leaf
            cuts = [i for i in range(1, len(nodes)) if nodes[i][0] == 0 and nodes[i][1] and nodes[i - 1][1]]
            for limit in cuts[:: max(1, len(cuts) // 8)]:
                partial = search_min_support(g, theta, size, mode, limit=limit)
                assert not partial.complete, (mode, theta, size, limit)
                calls = sum(call for _, _, call in nodes[:limit])
                assert (partial.nodes, partial.kernel_calls) == (limit + 1, calls), (mode, theta, size, limit)
                done = {tuple(p) for p in partial.checkpoint["done"]}
                rays = [sorted(f.values.items()) for f in ref.functions if f.support[:2] in done]
                fams = [(fam.support, [sorted(f.values.items()) for f in fam.basis])
                        for fam in ref.families if fam.support[:2] in done]
                assert _outcome(partial) == (rays, fams), (mode, theta, size, limit)
