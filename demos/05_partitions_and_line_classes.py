"""Equitable 2-partitions, the balance condition, and Cameron-Liebler
line classes of PG(3,2).

The lines through a point form one part of an equitable partition with
quotient eigenvalue 3; any (-3)-eigenfunction summed from regulus sign
functions must then hit the part's positive and negative supports
equally often.  A line set is a Cameron-Liebler class exactly when it
meets every regulus and its opposite equally, which is also equivalent
to being a part of a 3-equitable partition; both criteria are checked
side by side.
"""

from __future__ import annotations

from steinergraphs.designs import cached_block_graph, projective_design
from steinergraphs.eigenfunctions import optimal_from_regulus
from steinergraphs.partitions import (
    Partition2,
    balance_check,
    cameron_liebler_check,
    partition_to_eigenfunction,
    plane_line_set,
    quotient_matrix,
    star_line_set,
)
from steinergraphs.reguli import enumerate_reguli


def main() -> None:
    graph = cached_block_graph(projective_design(3, 2))
    sp = graph.design.space

    star = star_line_set(sp, 0)
    part = Partition2.from_part(graph, star)
    q = quotient_matrix(graph, part)
    print(f"star of point 0: lines {star}")
    print(f"  quotient matrix {q.rows()}, eigenvalue {q.p11 - q.p21}")
    f = partition_to_eigenfunction(graph, part)
    print(f"  eigenfunction values: {f.value(part.v1[0])} on the star, {f.value(part.v2[0])} off")
    print()

    f1 = optimal_from_regulus(enumerate_reguli(sp)[0], graph)
    report = balance_check(graph, f1, [f1], part, 3)
    print(
        f"balance of a regulus sign function on the star: "
        f"m+ = {report.m_plus}, m- = {report.m_minus}, equal: {report.equal}"
    )
    print()

    for label, line_set in [
        ("star of a point", star),
        ("lines of a plane", plane_line_set(sp, sp.hyperplanes[0])),
        ("one regulus family", enumerate_reguli(sp)[0].r_ids),
    ]:
        v = cameron_liebler_check(sp, line_set)
        print(
            f"{label}: class by regulus counts: {v.is_cl_reguli}, "
            f"by equitability: {v.is_cl_equitable}, criteria agree: {v.agree}"
        )
        if v.witness is not None:
            w = v.witness
            print(f"  witness regulus: R = {list(w.r_ids)}")


if __name__ == "__main__":
    main()
