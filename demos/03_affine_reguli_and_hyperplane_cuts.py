"""Affine reguli: the three-vector construction, the census of all
pairs, and what happens when a projective regulus is cut by a plane.

One enumeration lists the reguli of PG(3,q) and the affine pairs of
AG(3,q) by one rule: three pairwise skew lines of AG(3,q) have q common
transversals when their points at infinity are collinear, and these are
the opposite family of one affine pair; otherwise they have q - 2 and
lie in no pair.  Over GF(2) a family is a skew pair, with two opposites.

Deleting a plane of PG(3,q) from a regulus pair leaves either an
affine regulus (q + q lines, when the plane held one line of each
family) or a (q+1) + (q+1) configuration whose sign function has
support two above the minimum (when the plane avoided every line).
"""

from __future__ import annotations

from steinergraphs.eigenfunctions import support_structure, wdbplus2_function
from steinergraphs.geometry import aff_space, proj_space
from steinergraphs.gf import field_make
from steinergraphs.reguli import (
    affine_regulus_construct,
    classify_skew_family,
    enumerate_reguli,
    lift_to_projective,
    regulus_restriction,
    regulus_through,
)


def main() -> None:
    for q in (2, 3):
        sp = aff_space(3, field_make(q))
        pairs = enumerate_reguli(sp)
        formula = q ** 4 * (q ** 3 - 1) * (q + 1)
        print(f"AG(3,{q}): {len(pairs)} ordered affine regulus pairs (formula {formula})")
    print()

    sp3 = aff_space(3, field_make(3))
    pair = affine_regulus_construct(sp3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    print("construction from three independent vectors over GF(3):")
    for name, fam in (("S", pair.r_ids), ("S_opp", pair.opp_ids)):
        print(f"  {name}: ", [(sp3.lines[t].dir, sp3.lines[t].base) for t in fam])
    lift_to_projective(pair)
    print("  lifts to a projective regulus with one line of each family at infinity")
    cls = classify_skew_family(sp3, [sp3.lines[t] for t in pair.r_ids])
    print(f"  classifying S alone: case {cls.case}, {len(cls.pairs)} completion(s)")
    keys = (((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 1, 0)))
    cls = classify_skew_family(sp3, [sp3.line_from_key(*key) for key in keys])
    print(f"  three skew lines with independent directions: case {cls.case}, {len(cls.pairs)} completion(s)")
    print()

    psp = proj_space(3, field_make(2))
    reg = regulus_through(
        psp,
        psp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0))),
        psp.line_from_basis(((0, 0, 1, 0), (0, 0, 0, 1))),
        psp.line_from_basis(((1, 0, 1, 0), (0, 1, 0, 1))),
    )
    kinds: dict[str, int] = {}
    for hyp in psp.hyperplanes:
        out = regulus_restriction(reg, hyp)
        kinds[out.kind] = kinds.get(out.kind, 0) + 1
    print(f"cutting one PG(3,2) regulus by all 15 planes: {kinds}")

    avoiding = next(
        h for h in psp.hyperplanes if regulus_restriction(reg, h).kind == "wdbplus2"
    )
    f = wdbplus2_function(reg, avoiding)
    print(
        f"avoided-plane sign function: theta={f.theta}, support {len(f.support)} "
        f"(bound + 2), structure {support_structure(f)}"
    )


if __name__ == "__main__":
    main()
