"""Exhaustively enumerate every (-2)-eigenfunction of the AG(3,2) block
graph whose support has size exactly 6, two above the minimum of 4.

The search reduces the eigenspace condition to exact rational kernels
of column subsets of A - theta*I, decided by one incremental
fraction-free elimination with no modular screen, and returns both
isolated rays and positive-dimensional support families.  The census by
support structure is a computational finding of this run.
"""

from __future__ import annotations

import time

from steinergraphs.designs import affine_design, cached_block_graph
from steinergraphs.eigenfunctions import search_min_support, support_structure


def main() -> None:
    graph = cached_block_graph(affine_design(3, 2))
    start = time.monotonic()
    result = search_min_support(graph, -2, 6)
    elapsed = time.monotonic() - start

    census: dict[str, int] = {}
    for f in result.functions:
        kind = support_structure(f)
        census[kind] = census.get(kind, 0) + 1

    print(f"search over {graph.v} vertices finished in {elapsed:.1f}s")
    print(f"  nodes explored: {result.nodes}, exact kernel calls: {result.kernel_calls}")
    print(f"  isolated rays found: {len(result.functions)}")
    for kind in sorted(census):
        print(f"    {kind}: {census[kind]}")
    print(f"  two-dimensional support families: {len(result.families)}")
    dims = {fam.dimension for fam in result.families}
    print(f"    dimensions occurring: {sorted(dims)}")
    print()
    print("sample ray:", {u: str(v) for u, v in sorted(result.functions[0].values.items())})
    fam = result.families[0]
    print("sample family support:", fam.support)


if __name__ == "__main__":
    main()
