"""Minimum-support eigenfunctions of the projective block graph.

An eigenfunction for the negative eigenvalue -(q+1) needs support at
least 2(q+1); the functions meeting that bound are exactly +1 on one
family of a regulus and -1 on its opposite.  We build one from three
pairwise skew lines, verify the eigenvalue equation at every vertex,
enumerate all induced complete bipartite part-pairs, and check the
classification inverts the construction.
"""

from __future__ import annotations

from steinergraphs.designs import cached_block_graph, projective_design
from steinergraphs.eigenfunctions import (
    classify_optimal,
    enumerate_complete_bipartite,
    optimal_from_regulus,
    verify_eigenfunction,
)
from steinergraphs.geometry import proj_space
from steinergraphs.gf import field_make
from steinergraphs.reguli import enumerate_reguli, regulus_through


def main() -> None:
    sp = proj_space(3, field_make(2))
    graph = cached_block_graph(projective_design(3, 2))

    l1 = sp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0)))
    l2 = sp.line_from_basis(((0, 0, 1, 0), (0, 0, 0, 1)))
    l3 = sp.line_from_basis(((1, 0, 1, 0), (0, 1, 0, 1)))
    pair = regulus_through(sp, l1, l2, l3)
    print("regulus through three skew lines:")
    print("  R     =", list(pair.r_ids))
    print("  R_opp =", list(pair.opp_ids))

    f = optimal_from_regulus(pair, graph)
    print(f"  sign function: theta={f.theta}, support size {len(f.support)}")
    print("  verifies:", verify_eigenfunction(f).ok)

    cls = classify_optimal(f)
    print("  classification recovers the pair:", cls.pair == pair)
    print()

    pairs = enumerate_complete_bipartite(graph, 3)
    print(f"induced K_3,3 part-pairs in the graph: {len(pairs)}")
    ordered = enumerate_reguli(sp)
    print(f"ordered regulus pairs of PG(3,2):      {len(ordered)}")
    print(f"unordered:                             {len(ordered) // 2}")
    assert len(pairs) == len(ordered) // 2
    print("every minimum-support eigenfunction is a regulus pair, and conversely")


if __name__ == "__main__":
    main()
