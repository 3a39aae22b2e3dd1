"""Transversals, reguli and affine reguli.

A regulus in a 3-dimensional projective flat is a set R of q+1 pairwise
skew lines such that every line meeting three of them meets all of them;
the common transversals form the opposite regulus R_opp, and the pair
(R, R_opp) covers a (q+1) x (q+1) grid of points.  The affine analogue
replaces q+1 by q; removing the hyperplane at infinity from a projective
regulus pair with one line of each family at infinity produces exactly
the affine pairs.

A line family is a tuple of ascending indices into ``space.lines``,
which lists the lines in key order.  RegulusPair and WdbPlus2Config hold
two such tuples with their space, and every construction builds them
from indices; line objects enter only where a caller names lines
(regulus_through, classify_skew_family) or vectors
(affine_regulus_construct).

One pair type, RegulusPair, holds the pairs of both spaces, and one
grid check serves both spaces and all three optimal types: _check_grid
takes two families of q+1 lines in PG(n, q) or q in AG(n, q), each
pairwise disjoint, every line meeting every opposite line once, and
says whether the families are parallel, which happens only in AG,
where they are two parallel classes of one plane.  _check_regulus_pair
is the grid check with parallel families rejected; the grid implies
the span, so it takes no rank.

Every meet is read off one table, ``space.meets``, the block graph's
rows: the transversals of disjoint lines are the AND of their rows.  One
rule, _regulus_family, builds the regulus through three pairwise skew
lines of one 3-flat: their transversals are the opposite family, and
the transversals of three opposite lines the family.  Three skew lines
of PG(3,q) have q+1 transversals; three of AG(3,q), q >= 3, have q when
their points at infinity are collinear (case 1) and q - 2 otherwise
(case 2, in no regulus).  regulus_through, classify_skew_family and
enumerate_reguli, which lists both spaces, use the rule; over GF(2) an
affine family is a skew pair, with two opposites.  A hyperplane cut
maps line indices through the restriction's ``aff_index``, and the
projective lift of an affine pair maps them through the closure's
tables.

Affine pairs are ORDERED (S, S_opp), S being ``r_ids``: over GF(2) a
skew pair of lines has two distinct valid opposite families, and only
the ordered convention gives the uniform count q^4 (q^3 - 1)(q + 1).
Enumerations report the unordered and quadric counts alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from . import linalg
from .errors import LimitExceededError, SteinerError
from .geometry import (
    AffSpace,
    Hyperplane,
    ProjLine,
    ProjSpace,
    RestrictionMap,
    _coset_rep,
    bit_indices,
    span_of_lines,
)

MAX_ENUM_Q = 4


@dataclass(frozen=True)
class RegulusPair:
    """Ordered pair (R, R_opp) of mutually transversal line families of a
    projective space (q+1 lines each) or an affine one (q each), each
    family ascending line indices of ``space``.  The space takes part in
    comparisons, so pairs of two spaces with equal indices differ."""

    r_ids: tuple[int, ...]
    opp_ids: tuple[int, ...]
    space: ProjSpace | AffSpace = dc_field(repr=False)

    def swap(self) -> "RegulusPair":
        return RegulusPair(self.opp_ids, self.r_ids, self.space)


@dataclass(frozen=True)
class SkewFamilyClass:
    """Classification of a pairwise-skew affine line family: case 1
    (extendable; ``pairs`` holds every valid completion, two of them for
    a 2-line family over GF(2), one otherwise) or case 2 (``pairs``
    empty)."""

    case: int
    pairs: tuple[RegulusPair, ...]


@dataclass(frozen=True)
class WdbPlus2Config:
    """The two (q+1)-line affine families, as ascending line indices,
    obtained by removing a hyperplane that avoids every line of a
    projective regulus pair."""

    r_ids: tuple[int, ...]
    opp_ids: tuple[int, ...]
    space: AffSpace = dc_field(repr=False)


@dataclass(frozen=True)
class RestrictionOutcome:
    """Three-way result of cutting a regulus pair by a hyperplane: kind
    is 'affine_regulus', 'wdbplus2' or 'not_restrictable'."""

    kind: str
    pair: RegulusPair | None = None
    config: WdbPlus2Config | None = None
    reason: str | None = None


def _require_skew(space, ids, skew) -> None:
    """Pairwise skew lines, by index, read off the skew masks."""
    for a, b in combinations(ids, 2):
        if not skew[a] >> b & 1:
            raise SteinerError(f"lines meet or are parallel: {space.lines[a]}, {space.lines[b]}")


def _skew_masks(space) -> list[int]:
    """For each line, the mask of the lines skew to it: the complement of
    its meet row, less its class, keyed by direction in AG (its parallel
    class) and by index in PG (the line alone)."""
    keys = [getattr(ln, "dir", t) for t, ln in enumerate(space.lines)]
    classes: dict = {}
    for t, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << t
    full = (1 << len(keys)) - 1
    return [full & ~(row | classes[key]) for row, key in zip(space.meets, keys)]


def _check_grid(space, fam, opp) -> bool:
    """Recompute the grid of two families of line indices in a
    projective or an affine space: q+1 lines each in PG(n, q) or q in
    AG(n, q), each family pairwise disjoint, each line meeting each
    opposite line in one point.  Returns whether the families are
    parallel, which only happens in AG.

    Meets are read off the meet rows: a family is disjoint
    when its mask has one bit per line and meets no row of its lines,
    and as two lines share at most one point, a line meets each
    opposite line once when its row holds the opposite mask.

    Disjoint families make the grid points distinct: a point on a and b
    and on a' and b' with a != a' would be common to two lines of one
    family.  In AG, if a || a' in one family, every opposite line meets
    both in distinct points, so it lies in their plane P; each family
    line then meets two lines of P in distinct points, so it lies in P
    too.  Disjoint lines of a plane are parallel, and q parallel lines
    of P are a whole class, so both families are parallel classes of P.
    Otherwise no two lines of either family are parallel, so the one
    comparison of fam[0] and fam[1] decides the kind of both families.
    """
    q = space.field.q
    affine = isinstance(space, AffSpace)
    size = q if affine else q + 1
    if len(fam) != size or len(opp) != size:
        raise SteinerError(
            f"regulus families in {space} need {size} lines each, got {len(fam)} and {len(opp)}"
        )
    adj = space.meets
    masks = []
    for family in (fam, opp):
        mask = rows = 0
        for t in family:
            mask |= 1 << t
            rows |= adj[t]
        if mask.bit_count() != size or rows & mask:
            raise SteinerError("two lines of one family meet")
        masks.append(mask)
    for a in fam:
        missed = masks[1] & ~adj[a]
        if missed:
            raise SteinerError(
                f"regulus line {a} and opposite line {bit_indices(missed)[0]} do not meet in one point"
            )
    return affine and space.lines[fam[0]].dir == space.lines[fam[1]].dir


def _check_regulus_pair(space, fam, opp) -> None:
    """The grid check of a regulus pair: _check_grid with the parallel
    classes of a plane rejected, leaving two families of pairwise skew
    lines.

    The grid implies that the pair spans a 3-flat, so no rank is taken.
    Since q >= 2, each family holds two skew lines a, a', which span a
    3-flat S.  Each opposite line meets a and a' in two distinct points,
    so it lies in S.  Each family line then meets two skew opposite lines
    in two distinct points, so it lies in S too.
    """
    if _check_grid(space, fam, opp):
        raise SteinerError("the families are parallel classes of a plane, not reguli")


def _regulus_family(adj, ids, opp: int, size: int) -> int:
    """The regulus rule.  ``opp``, the transversals of the three pairwise
    skew lines ``ids`` of one 3-flat (the AND of their rows), is the
    opposite family and must hold ``size`` lines; the family is the
    transversals of three opposite lines, and must hold ``ids``."""
    if opp.bit_count() != size:
        raise SteinerError(f"lines {ids} have {opp.bit_count()} transversals, expected {size}")
    fam, rest = -1, opp
    for _ in range(3):
        low = rest & -rest
        fam &= adj[low.bit_length() - 1]
        rest ^= low
    i, j, k = ids
    if not fam >> i & fam >> j & fam >> k & 1:
        raise SteinerError(f"lines {ids} are not in their regulus")
    return fam


def _pair_through(space, ids, size: int) -> RegulusPair:
    """The regulus pair, families of ``size`` lines, through the three
    pairwise skew lines ``ids`` of one 3-flat, by the regulus rule and
    verified by the grid check."""
    adj = space.meets
    opp = adj[ids[0]] & adj[ids[1]] & adj[ids[2]]
    fam = _regulus_family(adj, ids, opp, size)
    pair = RegulusPair(tuple(bit_indices(fam)), tuple(bit_indices(opp)), space)
    _check_regulus_pair(space, pair.r_ids, pair.opp_ids)
    return pair


def regulus_through(space: ProjSpace, l1: ProjLine, l2: ProjLine, l3: ProjLine) -> RegulusPair:
    """The unique regulus pair through three pairwise skew lines of one
    3-flat, by the regulus rule of enumerate_reguli, and the grid check
    verifies the pair."""
    f = space.field
    ids = tuple(map(space.index_of, (l1, l2, l3)))
    _require_skew(space, ids, _skew_masks(space))
    rows = [row for ln in (l1, l2, l3) for row in ln.basis]
    if len(linalg.row_basis(f, rows)) != 4:
        raise SteinerError("three lines do not lie in a common 3-flat")
    return _pair_through(space, ids, f.q + 1)


# -- affine constructions ------------------------------------------------------


def lift_to_projective(pair: RegulusPair) -> RegulusPair:
    """Projectivise an affine pair: the closures of S plus the infinity
    line through the directions of S_opp form a regulus whose opposite
    is the closures of S_opp plus the infinity line of S's directions;
    exactly one line of each projective family lies at infinity.

    All by index, on the tables of ``pair.space.closure``: each family's
    closures come from ``proj_index``, its line at infinity is the
    ``pair_line`` of the points at infinity of two opposite lines,
    checked to hold those of all of them, and ``inf_lines`` counts the
    lines at infinity of each lifted family."""
    space = pair.space
    if not isinstance(space, AffSpace):
        raise SteinerError(f"lift_to_projective needs an affine pair, got one in {space}")
    cm = space.closure
    ps = cm.pspace
    lines, inf_point = ps.lines, cm.inf_point
    fams = []
    for fam, other in ((pair.r_ids, pair.opp_ids), (pair.opp_ids, pair.r_ids)):
        pts = [inf_point[t] for t in other]
        a, b = sorted(pts[:2])
        at_inf = ps.pair_line.get((a, b))
        if at_inf is None or any(not lines[at_inf].mask >> p & 1 for p in pts):
            raise SteinerError("the infinite points of a family are not distinct points of one line")
        ids = tuple(sorted([cm.proj_index[t] for t in fam] + [at_inf]))
        if sum(cm.inf_lines >> t & 1 for t in ids) != 1:
            raise SteinerError("the lift needs exactly one line of each family at infinity")
        fams.append(ids)
    _check_regulus_pair(ps, *fams)
    return RegulusPair(*fams, ps)


def _check_lift(pair: RegulusPair, lifted: RegulusPair) -> None:
    """Removing the line at infinity from each lifted family must give
    back the affine pair, mapped through the closure's ``aff_index``."""
    cm = pair.space.closure
    finite = tuple(
        tuple(sorted(cm.aff_index[t] for t in fam if not cm.inf_lines >> t & 1))
        for fam in (lifted.r_ids, lifted.opp_ids)
    )
    if finite != (pair.r_ids, pair.opp_ids):
        raise SteinerError("the lift without its lines at infinity is not the affine pair")


def affine_regulus_construct(space: AffSpace, v1, v2, v3) -> RegulusPair:
    """The pair S1 = {line with direction c.v3 + v1 through c.v2} and
    S2 = {direction c.v3 + v2 through c.v1}, c over the field, for
    independent v1, v2, v3; each family lies in a parallel class of
    planes of the 3-flat spanned by the vectors."""
    f = space.field
    v1, v2, v3 = tuple(v1), tuple(v2), tuple(v3)
    if len(linalg.row_basis(f, (v1, v2, v3))) != 3:
        raise SteinerError("v1, v2, v3 must be linearly independent")
    s1 = []
    s2 = []
    # row_basis has checked the vectors, so the unchecked row operations apply
    for c in f.elements():
        cv3 = f.scale_row(c, v3)
        s1.append(space.line_from_key(f.add_rows(cv3, v1), f.scale_row(c, v2)))
        s2.append(space.line_from_key(f.add_rows(cv3, v2), f.scale_row(c, v1)))
    pair = RegulusPair(*(tuple(sorted(map(space.index_of, s))) for s in (s1, s2)), space)
    _check_regulus_pair(space, pair.r_ids, pair.opp_ids)
    for fam, dplane in ((s1, (v1, v3)), (s2, (v2, v3))):
        dbasis = linalg.row_basis(f, dplane)
        cosets = set()
        for ln in fam:
            if not linalg.in_rowspace(f, dbasis, ln.dir):
                raise SteinerError(f"direction {ln.dir} lies outside the plane class")
            cosets.add(_coset_rep(f, dbasis, ln.base))
        if len(cosets) != f.q:
            raise SteinerError("family lines must lie in distinct parallel planes")
    flat = span_of_lines(space, s1 + s2)
    if flat.basis != linalg.row_basis(f, (v1, v2, v3)):
        raise SteinerError("the pair does not span the flat of v1, v2, v3")
    return pair


def _gf2_pairs(adj, skew, i, j) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two affine pairs (family, opposite) over GF(2) whose family is
    the skew pair i < j: its opposites are the skew pairs among its four
    transversals."""
    tij = bit_indices(adj[i] & adj[j])
    if len(tij) != 4:
        raise SteinerError(f"{len(tij)} transversals of a skew pair, expected 4")
    opps = [(a, b) for a, b in combinations(tij, 2) if skew[a] >> b & 1]
    if len(opps) != 2:
        raise SteinerError(f"{len(opps)} opposites of a skew pair over GF(2), expected 2")
    return [((i, j), opp) for opp in opps]


def classify_skew_family(space: AffSpace, lines) -> SkewFamilyClass:
    """Case 1 when the infinite points of the closures are collinear
    (equivalently the direction vectors span only a plane): the family
    extends to one affine regulus pair, by the regulus rule (two over
    GF(2), where a skew pair of lines has two valid opposites).  Case 2
    otherwise."""
    q = space.field.q
    lines = list(lines)
    need = 2 if q == 2 else 3
    if len(lines) != need:
        raise SteinerError(f"classification over GF({q}) needs exactly {need} pairwise skew lines")
    ids = tuple(sorted(map(space.index_of, lines)))
    skew = _skew_masks(space)
    _require_skew(space, ids, skew)
    if q > 2:
        if len(linalg.row_basis(space.field, tuple(l.dir for l in lines))) > 2:
            return SkewFamilyClass(2, ())
        return SkewFamilyClass(1, (_pair_through(space, ids, q),))
    pairs = []
    for fam, opp in _gf2_pairs(space.meets, skew, *ids):
        _check_regulus_pair(space, fam, opp)
        pairs.append(RegulusPair(fam, opp, space))
    return SkewFamilyClass(1, tuple(pairs))


# -- enumeration ---------------------------------------------------------------


def enumerate_reguli(space: ProjSpace | AffSpace) -> tuple[RegulusPair, ...]:
    """Every regulus pair of PG(3,q), or every ordered affine pair of
    AG(3,q), both orientations of each quadric, sorted canonically by
    line indices, which sorts by line keys.

    For each skew pair i < j the AND of the two rows is taken once, and
    the transversals of a skew triple i < j < k are that AND with row k:
    q+1 lines in PG, and in AG q (case 1) or q - 2 (case 2, skipped on
    its count alone).  A known opposite family is one dict lookup, a new
    one goes through the regulus rule, and the family is then cleared
    from the candidate k's, so every other triple of that quadric
    through i, j is skipped.  Over GF(2) an affine family is a skew
    pair, with the two opposites of _gf2_pairs.  Each quadric is
    checked once, and in AG lifted once: both checks are symmetric in
    the two families, and the lift of the swapped pair is the swap of
    the lift."""
    if space.n != 3:
        raise SteinerError("regulus enumeration needs a 3-dimensional space")
    q = space.field.q
    if q > MAX_ENUM_Q:
        raise LimitExceededError(f"regulus enumeration limited to q <= {MAX_ENUM_Q}")
    affine = isinstance(space, AffSpace)
    adj = space.meets
    skew = _skew_masks(space)
    if affine and q == 2:
        found = [
            fo
            for i, si in enumerate(skew)
            for j in bit_indices(si & -2 << i)
            for fo in _gf2_pairs(adj, skew, i, j)
            if fo[0] < fo[1]
        ]
    else:
        # no skew triple of PG(3,q) is of case 2
        size, case2 = (q, q - 2) if affine else (q + 1, -1)
        # each family and its opposite as line masks, keyed both ways round
        by_family: dict[int, int] = {}
        for i, si in enumerate(skew):
            si &= -2 << i
            for j in bit_indices(si):
                tij = adj[i] & adj[j]
                cand = si & skew[j] & -2 << j
                while cand:
                    k = (cand & -cand).bit_length() - 1
                    opp = tij & adj[k]
                    if opp.bit_count() == case2:
                        cand ^= 1 << k
                        continue
                    fam = by_family.get(opp)
                    if fam is None:
                        fam = _regulus_family(adj, (i, j, k), opp, size)
                        by_family[fam] = opp
                        by_family[opp] = fam
                    cand &= ~fam
        ids = {m: tuple(bit_indices(m)) for m in by_family}
        found = [(ids[f], ids[o]) for f, o in by_family.items() if ids[f] < ids[o]]
    out = []
    for fam, opp in found:
        pair = RegulusPair(fam, opp, space)
        _check_regulus_pair(space, fam, opp)
        if affine:
            lift_to_projective(pair)
        out += (pair, pair.swap())
    out.sort(key=lambda pair: (pair.r_ids, pair.opp_ids))
    return tuple(out)


# -- hyperplane restriction of a projective regulus ---------------------------


def regulus_restriction(pair: RegulusPair, hyperplane: Hyperplane) -> RestrictionOutcome:
    """Cut a projective regulus pair by a hyperplane H.

    If H holds one line of each family the remainder restricts to an
    affine regulus pair of q + q lines; if H avoids every line, the
    restriction is the (q+1) + (q+1) configuration whose block-graph
    sign function has minimum-support-plus-2 size; anything else does
    not restrict.
    """
    space = pair.space
    if not isinstance(space, ProjSpace):
        raise SteinerError(f"regulus_restriction needs a projective pair, got one in {space}")
    # the lines inside H are those without an affine index
    rm = RestrictionMap(space, hyperplane)
    in_r = [t for t in pair.r_ids if t not in rm.aff_index]
    in_o = [t for t in pair.opp_ids if t not in rm.aff_index]
    if len(in_r) + len(in_o) == 2 * len(pair.r_ids):
        return RestrictionOutcome(
            kind="not_restrictable", reason="hyperplane contains the whole 3-flat"
        )
    if (len(in_r), len(in_o)) not in ((1, 1), (0, 0)):
        return RestrictionOutcome(
            kind="not_restrictable",
            reason=f"hyperplane contains {len(in_r)} lines of R and {len(in_o)} of R_opp",
        )
    r_ids, opp_ids = (
        tuple(sorted(rm.aff_index[t] for t in fam if t in rm.aff_index)) for fam in (pair.r_ids, pair.opp_ids)
    )
    if in_r:
        _check_regulus_pair(rm.aspace, r_ids, opp_ids)
        return RestrictionOutcome(kind="affine_regulus", pair=RegulusPair(r_ids, opp_ids, rm.aspace))
    config = WdbPlus2Config(r_ids=r_ids, opp_ids=opp_ids, space=rm.aspace)
    return RestrictionOutcome(kind="wdbplus2", config=config)
