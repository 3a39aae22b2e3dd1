"""Transversals, reguli and affine reguli.

A regulus in a 3-dimensional projective flat is a set R of q+1 pairwise
skew lines such that every line meeting three of them meets all of them;
the common transversals form the opposite regulus R_opp, and the pair
(R, R_opp) covers a (q+1) x (q+1) grid of points.  The affine analogue
replaces q+1 by q; removing the hyperplane at infinity from a projective
regulus pair with one line of each family at infinity produces exactly
the affine pairs.  A skew triple of affine lines is of case 1 when its
infinite points are collinear, and then extends to one affine pair;
otherwise it is of case 2 and extends to none.

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
Line meets are read off the block graph's adjacency rows, the one meet
table: the transversals of disjoint lines are the AND of their rows.
regulus_through and enumerate_reguli both take the opposite family as
the transversals of three skew lines and the family as those of three
opposite lines; the enumeration keys families by mask and converts them
to index tuples once, at the end.  A hyperplane cut maps line indices
through the restriction's ``aff_index``, and the projective lift of an
affine pair maps them through the closure's tables: closures, points at
infinity and the lines at infinity.  classify_skew_family and
enumerate_affine_reguli build the affine pairs through a skew triple (a
pair over GF(2)) by one rule; the enumeration finds each quadric once
and checks and lifts it once.

Affine pairs are ORDERED (S, S_opp), S being ``r_ids``: over GF(2) a
skew pair of lines has two distinct valid opposite families, and only
the ordered convention gives the uniform count q^4 (q^3 - 1)(q + 1).
Enumerations report the unordered and quadric counts alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from . import linalg
from .designs import bit_indices, block_graph_of
from .errors import (
    DependentVectorsError,
    LimitExceededError,
    LinesNotSkewError,
    NotARegulusError,
    NotCoplanarError,
    WrongCountError,
)
from .geometry import (
    AffSpace,
    Hyperplane,
    ProjLine,
    ProjSpace,
    RestrictionMap,
    _coset_rep,
    normalize_point,
    span_of_lines,
    vec_add,
    vec_scale,
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


def _require_skew(space, lines) -> None:
    """Disjoint point masks, and in an affine space different directions."""
    affine = isinstance(space, AffSpace)
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            if a.mask & b.mask:
                raise LinesNotSkewError(f"lines meet, not skew: {a}, {b}")
            if affine and a.dir == b.dir:
                raise LinesNotSkewError(f"lines are parallel, not skew: {a}, {b}")


def _skew_masks(space) -> list[int]:
    """For each line, the mask of the lines skew to it: the complement of
    its meet row, less its class, keyed by direction in AG (its parallel
    class) and by index in PG (the line alone)."""
    keys = [getattr(ln, "dir", t) for t, ln in enumerate(space.lines)]
    classes: dict = {}
    for t, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << t
    full = (1 << len(keys)) - 1
    return [full & ~(row | classes[key]) for row, key in zip(block_graph_of(space).adj, keys)]


# -- projective constructions --------------------------------------------------


def _transversal_ids(space, a, b, rest=()) -> tuple[int, ...]:
    """Ascending indices of the lines meeting the disjoint lines a and b
    and every line of rest: the AND of their rows in the block graph."""
    adj = block_graph_of(space).adj
    common = adj[a] & adj[b]
    for t in rest:
        common &= adj[t]
    return tuple(bit_indices(common))


def _check_grid(space, fam, opp) -> bool:
    """Recompute the grid of two families of line indices in a
    projective or an affine space: q+1 lines each in PG(n, q) or q in
    AG(n, q), each family pairwise disjoint, each line meeting each
    opposite line in one point.  Returns whether the families are
    parallel, which only happens in AG.

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
    lines = space.lines
    affine = isinstance(space, AffSpace)
    size = q if affine else q + 1
    if len(fam) != size or len(opp) != size:
        raise WrongCountError(
            f"regulus families in {space} need {size} lines each, got {len(fam)} and {len(opp)}"
        )
    for family in (fam, opp):
        masks = [lines[t].mask for t in family]
        union = 0
        for m in masks:
            union |= m
        if union.bit_count() != sum(m.bit_count() for m in masks):
            raise LinesNotSkewError("two lines of one family meet")
    for a in fam:
        am = lines[a].mask
        for b in opp:
            if (am & lines[b].mask).bit_count() != 1:
                raise LinesNotSkewError(
                    f"regulus line {a} and opposite line {b} do not meet in one point"
                )
    return affine and lines[fam[0]].dir == lines[fam[1]].dir


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
        raise LinesNotSkewError("the families are parallel classes of a plane, not reguli")


def regulus_through(space: ProjSpace, l1: ProjLine, l2: ProjLine, l3: ProjLine) -> RegulusPair:
    """The unique regulus pair through three pairwise skew lines of one
    3-flat: the opposite family is the q+1 transversals of the three
    lines, the family the transversals of three opposite lines, as in
    enumerate_reguli, and the grid check verifies the pair."""
    f = space.field
    _require_skew(space, (l1, l2, l3))
    rows = [row for ln in (l1, l2, l3) for row in ln.basis]
    if len(linalg.row_basis(f, rows)) != 4:
        raise NotCoplanarError("three lines do not lie in a common 3-flat")
    i1, i2, i3 = map(space.index_of, (l1, l2, l3))
    opp = _transversal_ids(space, i1, i2, (i3,))
    if len(opp) != f.q + 1:
        raise WrongCountError(f"{len(opp)} transversals of three skew lines, expected {f.q + 1}")
    fam = _transversal_ids(space, opp[0], opp[1], (opp[2],))
    if not {i1, i2, i3} <= set(fam):
        raise NotARegulusError("a given line is missing from the regulus of its transversals")
    _check_regulus_pair(space, fam, opp)
    return RegulusPair(fam, opp, space)


def enumerate_reguli(space: ProjSpace) -> tuple[RegulusPair, ...]:
    """Every regulus pair of a 3-dimensional projective space, both
    orientations of each underlying quadric, sorted canonically.  For
    each skew pair i < j, the k of a regulus found through i, j, k are
    cleared from the candidates.  Each quadric is checked once: the pair
    check is symmetric in its two families, so it covers the swapped
    orientation too."""
    if space.n != 3:
        raise WrongCountError("regulus enumeration needs a 3-dimensional space")
    q = space.field.q
    if q > MAX_ENUM_Q:
        raise LimitExceededError(f"regulus enumeration limited to q <= {MAX_ENUM_Q}")
    adj = block_graph_of(space).adj
    skew = _skew_masks(space)
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
                fam = by_family.get(opp)
                if fam is None:
                    if opp.bit_count() != q + 1:
                        raise WrongCountError(f"lines {i}, {j}, {k} have {opp.bit_count()} transversals")
                    a, b, c = bit_indices(opp)[:3]
                    fam = adj[a] & adj[b] & adj[c]
                    if not fam >> i & fam >> j & fam >> k & 1:
                        raise NotARegulusError(f"lines {i}, {j}, {k} are not in their regulus")
                    by_family[fam] = opp
                    by_family[opp] = fam
                cand &= ~fam
    ids = {m: tuple(bit_indices(m)) for m in by_family}
    out = []
    for fam, opp in sorted((ids[f], ids[o]) for f, o in by_family.items()):
        if fam < opp:
            _check_regulus_pair(space, fam, opp)
        out.append(RegulusPair(fam, opp, space))
    return tuple(out)


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
        raise NotARegulusError(f"lift_to_projective needs an affine pair, got one in {space}")
    cm = space.closure
    ps = cm.pspace
    lines, inf_point = ps.lines, cm.inf_point
    fams = []
    for fam, other in ((pair.r_ids, pair.opp_ids), (pair.opp_ids, pair.r_ids)):
        pts = [inf_point[t] for t in other]
        a, b = sorted(pts[:2])
        at_inf = ps.pair_line.get((a, b))
        if at_inf is None or any(not lines[at_inf].mask >> p & 1 for p in pts):
            raise NotARegulusError("the infinite points of a family are not distinct points of one line")
        ids = tuple(sorted([cm.proj_index[t] for t in fam] + [at_inf]))
        if sum(cm.inf_lines >> t & 1 for t in ids) != 1:
            raise WrongCountError("the lift needs exactly one line of each family at infinity")
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
        raise NotARegulusError("the lift without its lines at infinity is not the affine pair")


def affine_regulus_construct(space: AffSpace, v1, v2, v3) -> RegulusPair:
    """The pair S1 = {line with direction c.v3 + v1 through c.v2} and
    S2 = {direction c.v3 + v2 through c.v1}, c over the field, for
    independent v1, v2, v3; each family lies in a parallel class of
    planes of the 3-flat spanned by the vectors."""
    f = space.field
    v1, v2, v3 = tuple(v1), tuple(v2), tuple(v3)
    if len(linalg.row_basis(f, (v1, v2, v3))) != 3:
        raise DependentVectorsError("v1, v2, v3 must be linearly independent")
    s1 = []
    s2 = []
    for c in f.elements():
        d1 = vec_add(f, vec_scale(f, c, v3), v1)
        d2 = vec_add(f, vec_scale(f, c, v3), v2)
        s1.append(space.line_from_key(d1, vec_scale(f, c, v2)))
        s2.append(space.line_from_key(d2, vec_scale(f, c, v1)))
    pair = RegulusPair(*(tuple(sorted(map(space.index_of, s))) for s in (s1, s2)), space)
    _check_regulus_pair(space, pair.r_ids, pair.opp_ids)
    for fam, dplane in ((s1, (v1, v3)), (s2, (v2, v3))):
        dbasis = linalg.row_basis(f, dplane)
        cosets = set()
        for ln in fam:
            if not linalg.in_rowspace(f, dbasis, ln.dir):
                raise NotARegulusError(f"direction {ln.dir} lies outside the plane class")
            cosets.add(_coset_rep(f, dbasis, ln.base))
        if len(cosets) != f.q:
            raise WrongCountError("family lines must lie in distinct parallel planes")
    flat = span_of_lines(space, s1 + s2)
    if flat.basis != linalg.row_basis(f, (v1, v2, v3)):
        raise NotCoplanarError("the pair does not span the flat of v1, v2, v3")
    return pair


def _affine_regulus_ids(space: AffSpace, ids) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The affine pairs (family, opposite), as ascending line indices,
    whose family holds the ascending skew lines ``ids``: over GF(2) a
    pair, whose two opposites are the skew pairs among its four
    transversals; for q >= 3 a triple with collinear points at infinity,
    whose opposite is its transversals, and for q >= 4 the family those
    of three opposite lines."""
    lines = space.lines
    q = space.field.q
    if q == 2:
        tij = _transversal_ids(space, ids[0], ids[1])
        if len(tij) != 4:
            raise WrongCountError(f"{len(tij)} transversals of a skew pair, expected 4")
        opps = [
            (a, b) for a, b in combinations(tij, 2)
            if not (lines[a].mask & lines[b].mask or lines[a].dir == lines[b].dir)
        ]
        if len(opps) != 2:
            raise WrongCountError(f"{len(opps)} opposites of a skew pair over GF(2), expected 2")
        return [(tuple(ids), opp) for opp in opps]
    opp = _transversal_ids(space, ids[0], ids[1], ids[2:])
    if len(opp) != q:
        # three skew lines of one 3-flat with collinear points at infinity have q
        raise NotCoplanarError(f"{len(opp)} transversals of three skew lines, expected {q}")
    if q == 3:
        return [(tuple(ids), opp)]
    fam = _transversal_ids(space, opp[0], opp[1], (opp[2],))
    if not set(ids) <= set(fam):
        raise NotARegulusError(f"lines {ids} are not in their regulus")
    return [(fam, opp)]


def classify_skew_family(space: AffSpace, lines) -> SkewFamilyClass:
    """Case 1 when the infinite points of the closures are collinear
    (equivalently the direction vectors span only a plane): the family
    extends to one affine regulus pair (two over GF(2), where a skew
    pair of lines has two valid opposites).  Case 2 otherwise."""
    q = space.field.q
    lines = list(lines)
    need = 2 if q == 2 else 3
    if len(lines) != need:
        raise WrongCountError(
            f"classification over GF({q}) needs exactly {need} pairwise skew lines"
        )
    _require_skew(space, lines)
    if q > 2 and len(linalg.row_basis(space.field, tuple(l.dir for l in lines))) > 2:
        return SkewFamilyClass(2, ())
    pairs = []
    for fam, opp in _affine_regulus_ids(space, sorted(map(space.index_of, lines))):
        _check_regulus_pair(space, fam, opp)
        pairs.append(RegulusPair(fam, opp, space))
    return SkewFamilyClass(1, tuple(pairs))


def enumerate_affine_reguli(space: AffSpace) -> tuple[RegulusPair, ...]:
    """Every ordered affine regulus pair (S, S_opp) of a 3-dimensional
    affine space, sorted canonically.  Each quadric is checked once in
    the affine space and lifted once to a verified projective pair: both
    checks are symmetric in the two families, and the lift of the swapped
    pair is the swap of the lift.

    Over GF(2) a family is a skew pair of lines.  For q >= 3 every triple
    i < j < k of pairwise skew lines whose points at infinity are
    collinear lies in one family of one quadric; a triple inside a
    quadric already found is skipped before any transversal work.  The
    pairs through a family's first lines come from _affine_regulus_ids,
    as in classify_skew_family.  Families are tuples of line indices,
    and lines are stored in key order, so sorting by indices sorts by
    keys."""
    if space.n != 3:
        raise WrongCountError("affine regulus enumeration needs dimension 3")
    q = space.field.q
    if q > MAX_ENUM_Q:
        raise LimitExceededError(f"enumeration limited to q <= {MAX_ENUM_Q}")
    skew = _skew_masks(space)
    cm = space.closure
    ps = cm.pspace
    # one (family, opposite) orientation per quadric
    found = []
    if q == 2:
        for i, si in enumerate(skew):
            for j in bit_indices(si):
                if j > i:
                    found.extend(fo for fo in _affine_regulus_ids(space, (i, j)) if fo[0] < fo[1])
    else:
        # the lines through each point at infinity, and for each pair of
        # lines a < b the lines of the families found through both
        with_inf = [0] * len(ps.points)
        for t, p in enumerate(cm.inf_point):
            with_inf[p] |= 1 << t
        covered: dict[tuple[int, int], int] = {}
        for i, si in enumerate(skew):
            for j in bit_indices(si):
                if j <= i:
                    continue
                a, b = sorted((cm.inf_point[i], cm.inf_point[j]))
                coplanar = sum(with_inf[p] for p in ps.lines[ps.pair_line[(a, b)]].points)
                for k in bit_indices(si & skew[j] & coplanar):
                    if k <= j or covered.get((i, j), 0) >> k & 1:
                        continue
                    [(fam, opp)] = _affine_regulus_ids(space, (i, j, k))
                    for family in (fam, opp):
                        fmask = sum(1 << t for t in family)
                        for pr in combinations(family, 2):
                            covered[pr] = covered.get(pr, 0) | fmask
                    found.append((fam, opp))
    out = []
    for fam, opp in found:
        pair = RegulusPair(fam, opp, space)
        _check_regulus_pair(space, fam, opp)
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
        raise NotARegulusError(f"regulus_restriction needs a projective pair, got one in {space}")
    f, lines = space.field, space.lines
    h = Hyperplane(normalize_point(f, hyperplane.normal))
    in_r = [t for t in pair.r_ids if h.contains_line(f, lines[t])]
    in_o = [t for t in pair.opp_ids if h.contains_line(f, lines[t])]
    if len(in_r) + len(in_o) == 2 * len(pair.r_ids):
        return RestrictionOutcome(
            kind="not_restrictable", reason="hyperplane contains the whole 3-flat"
        )
    if (len(in_r), len(in_o)) not in ((1, 1), (0, 0)):
        return RestrictionOutcome(
            kind="not_restrictable",
            reason=f"hyperplane contains {len(in_r)} lines of R and {len(in_o)} of R_opp",
        )
    # the lines outside H are those with an affine index
    rm = RestrictionMap(space, hyperplane)
    r_ids, opp_ids = (
        tuple(sorted(rm.aff_index[t] for t in fam if t not in inside))
        for fam, inside in ((pair.r_ids, in_r), (pair.opp_ids, in_o))
    )
    if in_r:
        _check_regulus_pair(rm.aspace, r_ids, opp_ids)
        return RestrictionOutcome(kind="affine_regulus", pair=RegulusPair(r_ids, opp_ids, rm.aspace))
    config = WdbPlus2Config(r_ids=r_ids, opp_ids=opp_ids, space=rm.aspace)
    return RestrictionOutcome(kind="wdbplus2", config=config)
