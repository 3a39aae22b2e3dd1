"""Acceptance gate: end-to-end criteria 1 to 9, all exact arithmetic.

Run with `pytest -v` to get one pass/fail line per criterion; each test
also prints a `criterion N: PASS - detail` line (visible with -s).
Criterion 10, the property suites of tests/test_properties.py run on
their own, is a CI step of its own: tier-1 already runs every property
test once, so re-running the file here would run them all twice.
Stated runtime bounds are asserted inside the tests.  All census values
asserted below were produced by this library's own exhaustive runs and
are pinned as regression oracles; the support-size-6 census is a
computational finding, not a theorem.
"""

from __future__ import annotations

import time
from math import gcd, lcm

from steinergraphs.designs import (
    affine_design,
    cached_block_graph,
    projective_design,
    srg_params_brute,
    srg_params_formula,
    wdb,
)
from steinergraphs.eigenfunctions import (
    classify_optimal,
    enumerate_complete_bipartite,
    from_bipartite_pair,
    optimal_from_regulus,
    search_min_support,
    support_structure,
    verify_eigenfunction,
    wdbplus2_function,
)
from steinergraphs.geometry import (
    Hyperplane,
    aff_space,
    enumerate_planes,
    normalize_point,
    proj_space,
)
from steinergraphs.gf import field_make
from steinergraphs.linalg import in_rowspace, row_basis
from steinergraphs.partitions import (
    Partition2,
    balance_check,
    cameron_liebler_check,
    plane_line_set,
    star_line_set,
)
from steinergraphs.reguli import (
    affine_regulus_construct,
    enumerate_reguli,
    regulus_restriction,
)

_CACHE: dict = {}


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def _ray_key(f):
    """The primitive integer representative of the ray of f, first
    nonzero value positive, as sorted (vertex, value) pairs."""
    scale = lcm(*(x.denominator for x in f.values.values()))
    ints = {u: int(x * scale) for u, x in f.values.items()}
    g = gcd(*ints.values())
    if ints[f.support[0]] < 0:
        g = -g
    return tuple(sorted((u, n // g) for u, n in ints.items()))


def _wdbplus2_rays_q2():
    """All 560 x 6 (regulus, avoiding plane) sign functions of PG(3,2),
    checked and reduced to distinct rays."""
    if "rays_q2" not in _CACHE:
        sp = proj_space(3, field_make(2))
        rays = set()
        instances = 0
        for pair in enumerate_reguli(sp):
            for hyp in sp.hyperplanes:
                if regulus_restriction(pair, hyp).kind != "wdbplus2":
                    continue
                f = wdbplus2_function(pair, hyp)
                assert f.theta == -2
                assert len(f.support) == 6
                assert support_structure(f) == "BipartiteMinusMatching"
                assert verify_eigenfunction(f).ok
                rays.add(_ray_key(f))
                instances += 1
        _CACHE["rays_q2"] = (instances, rays)
    return _CACHE["rays_q2"]


def test_criterion_01_srg_parameters():
    """Brute-forced SRG parameters and spectra of the three working
    graphs match the closed formulas exactly, each within 5 seconds."""
    cases = [
        (projective_design(3, 2), (35, 18, 9, 9), (3, 14), (-3, 20)),
        (affine_design(3, 2), (28, 12, 6, 4), (4, 7), (-2, 20)),
        (affine_design(3, 3), (117, 36, 15, 9), (9, 26), (-3, 90)),
    ]
    for design, vklm, (r, m_r), (s, m_s) in cases:
        start = time.monotonic()
        g = cached_block_graph(design)
        brute = srg_params_brute(g)
        elapsed = time.monotonic() - start
        assert (brute.v, brute.k, brute.lmbda, brute.mu) == vklm
        assert (brute.r, brute.m_r) == (r, m_r)
        assert (brute.s, brute.m_s) == (s, m_s)
        assert brute == srg_params_formula(design.N, design.M)
        assert elapsed < 5.0, f"{vklm}: {elapsed:.1f}s"
    _report(1, "three graphs brute == formula with pinned spectra, each < 5 s")


def test_criterion_02_wdb_values(g_j2, g_j3, g_x2, g_x3):
    """Pinned weight-distribution bounds, and the bound formula equals
    its closed forms on every block graph in the suite."""
    pj = srg_params_brute(g_j2)
    assert wdb(pj, -3) == 6 and wdb(pj, 3) == 8
    px = srg_params_brute(g_x2)
    assert wdb(px, -2) == 4 and wdb(px, 4) == 10
    p3 = srg_params_brute(g_x3)
    assert wdb(p3, -3) == 6
    for g in (g_j2, g_j3, g_x2, g_x3):
        p = srg_params_brute(g)
        assert wdb(p, p.s) == -2 * p.s
        assert wdb(p, p.r) == 2 * (p.r + 1)
    _report(2, "wdb pinned: 6/8, 4/10, 6; closed forms agree on all four graphs")


def test_criterion_03_projective_minimum_support(g_j2, g_j3):
    """All induced K_{3,3} part-pairs of the PG(3,2) graph are the 280
    regulus pairs; classification inverts the construction on all 560
    ordered reguli; the PG(3,3) counts cross-match."""
    start = time.monotonic()
    pairs = enumerate_complete_bipartite(g_j2, 3)
    assert len(pairs) == 280
    for t0, t1 in pairs:
        f = from_bipartite_pair(g_j2, t0, t1, -3)
        assert len(f.support) == 6
        assert verify_eigenfunction(f).ok
    sp = g_j2.design.space
    ordered = enumerate_reguli(sp)
    assert len(ordered) == 560
    for pair in ordered:
        f = optimal_from_regulus(pair, g_j2)
        cls = classify_optimal(f)
        assert type(cls).__name__ == "GrassmannRegulus"
        assert cls.pair == pair
    big_pairs = enumerate_complete_bipartite(g_j3, 4)
    ordered3 = enumerate_reguli(g_j3.design.space)
    assert len(big_pairs) == len(ordered3) // 2 == 10530
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _report(3, f"280 pairs verified, 560 reguli inverted, 10530 = 21060/2 at q=3 in {elapsed:.0f}s")


def test_criterion_04_affine_minimum_support(g_x2, g_x3):
    """Every induced K_{q,q} part-pair of the AG(3,q) graph comes from a
    plane class-pair (Type1) or an affine regulus (Type2), never mixed,
    and the counts match the plane and regulus enumerations."""
    start = time.monotonic()
    census = {}
    for g, q in ((g_x2, 2), (g_x3, 3)):
        sp = g.design.space
        counts = {"Type1": 0, "Type2": 0}
        for t0, t1 in enumerate_complete_bipartite(g, q):
            f = from_bipartite_pair(g, t0, t1, -q)
            assert len(f.support) == 2 * q
            assert verify_eigenfunction(f).ok
            counts[type(classify_optimal(f)).__name__] += 1
        planes = enumerate_planes(sp)
        class_pairs = (q + 1) * q // 2
        assert counts["Type1"] == len(planes) * class_pairs
        assert counts["Type2"] == len(enumerate_reguli(sp)) // 2
        census[q] = (counts, len(planes))
    assert census[2] == ({"Type1": 42, "Type2": 168}, 14)
    assert census[3] == ({"Type1": 234, "Type2": 4212}, 39)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _report(4, f"210 = 42+168 (q=2), 4446 = 39*6 + 8424/2 (q=3), no mixed, in {elapsed:.0f}s")


def test_criterion_05_affine_regulus_count():
    """Ordered affine regulus pair counts match q^4 (q^3-1)(q+1) at
    q = 2 and 3, every pair passes the projective-lift check, and the
    ordering convention is reported by the enumeration interface."""
    for q, expected in ((2, 336), (3, 8424)):
        sp = aff_space(3, field_make(q))
        pairs = enumerate_reguli(sp)
        assert len(pairs) == expected == q ** 4 * (q ** 3 - 1) * (q + 1)
    from steinergraphs import cli

    code = cli.main(["enumerate-affine-reguli", "--q", "2", "--limit", "0", "--format", "text"])
    assert code == 0
    _report(5, "336 and 8424 ordered pairs, lift-verified, convention reported")


def test_criterion_06_three_vector_construction():
    """50 random independent triples at each (q, n) in {2,3} x {3,4}:
    the constructed pair passes all invariants and each family lies in
    q parallel planes of the span of the triple.  Zero failures."""
    import random

    for q in (2, 3):
        for n in (3, 4):
            sp = aff_space(n, field_make(q))
            f = sp.field
            rng = random.Random(1000 * q + n)
            done = 0
            while done < 50:
                vs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
                if len(row_basis(f, vs)) != 3:
                    continue
                pair = affine_regulus_construct(sp, *vs)
                for family in ([sp.lines[t] for t in ids] for ids in (pair.r_ids, pair.opp_ids)):
                    dirs = row_basis(f, tuple(l.dir for l in family))
                    assert len(dirs) == 2, "family directions span a plane direction"
                    cosets = set()
                    for line in family:
                        assert in_rowspace(f, vs, line.dir)
                        assert in_rowspace(f, vs, line.base)
                        assert in_rowspace(f, dirs, line.dir)
                        from steinergraphs.geometry import _coset_rep

                        cosets.add(_coset_rep(f, tuple(dirs), line.base))
                    assert len(cosets) == q, "one parallel plane per line"
                done += 1
    _report(6, "200 random triples across (q,n) grid, all invariants hold")


def test_criterion_07_wdbplus2_functions():
    """Every (regulus, avoiding plane) pair of PG(3,2) yields a verified
    theta=-2 sign function with support 6 and the bipartite-minus-
    matching shape; at q=3, 100+ pairs give support 8.  Zero failures."""
    instances, rays = _wdbplus2_rays_q2()
    assert instances == 3360  # 560 ordered reguli x 6 avoiding planes
    assert len(rays) == 112  # computational finding: 30-fold ray collisions
    sp3 = proj_space(3, field_make(3))
    done = 0
    for pair in enumerate_reguli(sp3)[:6]:
        for hyp in sp3.hyperplanes:
            if regulus_restriction(pair, hyp).kind != "wdbplus2":
                continue
            f = wdbplus2_function(pair, hyp)
            assert f.theta == -3
            assert len(f.support) == 8
            assert support_structure(f) == "BipartiteMinusMatching"
            done += 1
    assert done >= 100
    _report(7, f"3360 q=2 instances (112 rays) and {done} q=3 instances, zero failures")


def test_criterion_08_support_six_search(g_x2):
    """The exhaustive support-6 search at theta=-2 on the AG(3,2) graph
    terminates, is duplicate-free, contains every avoided-plane sign
    function, re-verifies, and reports a census by support structure."""
    start = time.monotonic()
    res = search_min_support(g_x2, -2, 6)
    serial_elapsed = time.monotonic() - start
    assert res.complete
    assert serial_elapsed < 1800.0, f"single-threaded bound: {serial_elapsed:.1f}s"
    ray_keys = [_ray_key(f) for f in res.functions]
    assert len(set(ray_keys)) == len(res.functions), "duplicate-free"
    census: dict[str, int] = {}
    for f in res.functions:
        assert verify_eigenfunction(f).ok
        kind = support_structure(f)
        census[kind] = census.get(kind, 0) + 1
    _, instance_rays = _wdbplus2_rays_q2()
    assert instance_rays <= set(ray_keys), "every avoided-plane instance is found"
    # pinned census of this exhaustive run (computational finding):
    assert census == {"BipartiteMinusMatching": 1680, "Other": 840}
    assert len(res.functions) == 2520
    assert len(res.families) == 630
    assert all(fam.dimension == 2 for fam in res.families)
    start = time.monotonic()
    sharded = search_min_support(g_x2, -2, 6, jobs=8)
    shard_elapsed = time.monotonic() - start
    assert shard_elapsed < 300.0, f"8-shard bound: {shard_elapsed:.1f}s"
    assert [f.values for f in sharded.functions] == [f.values for f in res.functions]
    _report(
        8,
        f"2520 rays + 630 families in {serial_elapsed:.0f}s serial / {shard_elapsed:.0f}s "
        f"with 8 shards; census (computational finding): {census}",
    )


def test_criterion_09_balance_and_cameron_liebler(g_j2):
    """Every regulus sign function is balanced on every star and plane
    partition, and the two Cameron-Liebler criteria agree on stars,
    planes, unions, complements, and 100 random non-classes."""
    sp = g_j2.design.space
    ordered = enumerate_reguli(sp)
    functions = [optimal_from_regulus(p, g_j2) for p in ordered]
    named_parts = [star_line_set(sp, pt) for pt in range(len(sp.points))]
    named_parts += [plane_line_set(sp, h) for h in sp.hyperplanes]
    assert len(named_parts) == 30
    for part_lines in named_parts:
        part = Partition2.from_part(g_j2, part_lines)
        for f1 in functions:
            report = balance_check(g_j2, f1, [f1], part, 3)
            assert report.equal and report.m_plus == report.m_minus
    for part_lines in named_parts:
        v = cameron_liebler_check(sp, part_lines)
        assert v.agree and v.is_cl_reguli
    # unions of a star and a plane missing its point, and complements
    union_count = 0
    for pt_idx, point in enumerate(sp.points):
        if union_count == 5:
            break
        for h in sp.hyperplanes:
            if not h.contains_point(sp.field, point):
                star = set(star_line_set(sp, pt_idx))
                plane = set(plane_line_set(sp, h))
                assert not star & plane
                v = cameron_liebler_check(sp, tuple(star | plane))
                assert v.agree and v.is_cl_reguli
                union_count += 1
                break
    for part_lines in named_parts[:10]:
        comp = tuple(set(range(35)) - set(part_lines))
        v = cameron_liebler_check(sp, comp)
        assert v.agree and v.is_cl_reguli
    import random

    rng = random.Random(2026)
    checked = 0
    while checked < 100:
        size = rng.randrange(1, 34)
        line_set = tuple(sorted(rng.sample(range(35), size)))
        v = cameron_liebler_check(sp, line_set)
        assert v.agree
        if v.is_cl_reguli:
            continue  # the rare accidental class does not count
        assert v.witness is not None
        checked += 1
    _report(9, "16800 balance checks all equal; both criteria agree on 140+ line sets")
