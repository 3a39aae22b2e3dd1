"""Transversals, reguli and affine reguli.

A regulus in a 3-dimensional projective flat is a set R of q+1 pairwise
skew lines such that every line meeting three of them meets all of them;
the common transversals form the opposite regulus R_opp, and the pair
(R, R_opp) covers a (q+1) x (q+1) grid of points.  The affine analogue
replaces q+1 by q; removing the hyperplane at infinity from a projective
regulus pair with one line of each family at infinity produces exactly
the affine pairs, which is also how arbitrary skew triples are
classified (case 1: infinite points collinear, extendable; case 2: not).

The pair checks recompute the grid: each family pairwise skew, every
line meeting every opposite line once, all grid points distinct.  The
grid alone implies that the pair spans a 3-flat (two skew lines of one
family span it, and every other line meets two skew lines of it in
distinct points), so the checks take no rank; regulus_through and
affine_regulus_construct still test the span of the flat they are given.
Hyperplane cuts map lines through the restriction's line-index table.

Affine pairs are ORDERED (S, S_opp): over GF(2) a skew pair of lines has
two distinct valid opposite families, and only the ordered convention
gives the uniform count q^4 (q^3 - 1)(q + 1).  Enumerations report the
unordered and quadric counts alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .designs import bit_indices
from .errors import (
    DependentVectorsError,
    LimitExceededError,
    LinesNotSkewError,
    NotARegulusError,
    NotCoplanarError,
    WrongCountError,
)
from .geometry import (
    AffLine,
    AffSpace,
    ClosureMap,
    Hyperplane,
    ProjLine,
    ProjSpace,
    RestrictionMap,
    _coset_rep,
    normalize_point,
    projective_closure,
    span_of_lines,
    vec_add,
    vec_scale,
)

MAX_ENUM_Q = 4


@dataclass(frozen=True)
class RegulusPair:
    """Ordered pair (R, R_opp) of mutually transversal projective line
    families, each sorted by canonical line basis."""

    r_lines: tuple[ProjLine, ...]
    opp_lines: tuple[ProjLine, ...]
    space: ProjSpace = dc_field(repr=False, compare=False)

    def swap(self) -> "RegulusPair":
        return RegulusPair(self.opp_lines, self.r_lines, self.space)


@dataclass(frozen=True)
class AffineRegulusPair:
    """Ordered pair (S, S_opp) of mutually transversal affine line
    families of size q each, sorted canonically within each family."""

    s_lines: tuple[AffLine, ...]
    opp_lines: tuple[AffLine, ...]
    space: AffSpace = dc_field(repr=False, compare=False)

    def swap(self) -> "AffineRegulusPair":
        return AffineRegulusPair(self.opp_lines, self.s_lines, self.space)


@dataclass(frozen=True)
class SkewFamilyClass:
    """Classification of a pairwise-skew affine line family: case 1
    (extendable; ``pairs`` holds every valid completion, two of them for
    a 2-line family over GF(2), one otherwise) or case 2 (``pairs``
    empty)."""

    case: int
    pairs: tuple[AffineRegulusPair, ...]


@dataclass(frozen=True)
class WdbPlus2Config:
    """The two (q+1)-line affine families obtained by removing a
    hyperplane that avoids every line of a projective regulus pair."""

    r_lines: tuple[AffLine, ...]
    opp_lines: tuple[AffLine, ...]
    space: AffSpace = dc_field(repr=False)


@dataclass(frozen=True)
class RestrictionOutcome:
    """Three-way result of cutting a regulus pair by a hyperplane: kind
    is 'affine_regulus', 'wdbplus2' or 'not_restrictable'."""

    kind: str
    pair: AffineRegulusPair | None = None
    config: WdbPlus2Config | None = None
    reason: str | None = None


def _proj_key(line: ProjLine):
    return line.basis


def _aff_key(line: AffLine):
    return (line.dir, line.base)


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
    """For each line, the bitmask of the line indices skew to it."""
    lines = space.lines
    affine = isinstance(space, AffSpace)
    return [
        sum(1 << j for j, b in enumerate(lines) if not (a.mask & b.mask or affine and a.dir == b.dir))
        for a in lines
    ]


# -- projective constructions --------------------------------------------------


def common_transversals(space, lines) -> tuple:
    """All lines meeting every line of a pairwise-skew family exactly once,
    in a projective or an affine space."""
    lines = list(lines)
    if len(lines) < 2:
        raise WrongCountError("need at least two lines")
    _require_skew(space, lines)
    return tuple(space.lines[t] for t in _transversal_ids(space, lines[0], lines[1], lines[2:]))


def _transversal_ids(space, a, b, rest=()) -> list[int]:
    """Sorted indices of the lines joining a point of a to a point of b
    that meet every line of rest."""
    pair_line, lines = space.pair_line, space.lines
    ids = {pair_line[(p, p2) if p < p2 else (p2, p)] for p in a.points for p2 in b.points}
    return sorted(t for t in ids if all(lines[t].mask & ln.mask for ln in rest))


def _check_regulus_pair(space: ProjSpace, r_lines, opp_lines) -> None:
    """Recompute the (q+1) x (q+1) grid of a regulus pair: each family
    pairwise skew, each line meeting each opposite line in one point, and
    the (q+1)^2 meeting points distinct.

    The grid implies that the pair spans a 3-flat, so no rank is taken.
    Two skew lines a, a' of one family span a 3-flat S.  Each opposite
    line meets a and a' in two distinct points, so it lies in S.  Each
    family line then meets two skew opposite lines in two distinct
    points, so it lies in S too.
    """
    q = space.field.q
    if len(r_lines) != q + 1 or len(opp_lines) != q + 1:
        raise WrongCountError(
            f"regulus families need {q + 1} lines each, got {len(r_lines)} and {len(opp_lines)}"
        )
    _require_skew(space, r_lines)
    _require_skew(space, opp_lines)
    grid = set()
    for a in r_lines:
        for b in opp_lines:
            common = a.mask & b.mask
            if common.bit_count() != 1:
                raise LinesNotSkewError(
                    f"regulus lines {a} and opposite {b} do not meet in one point"
                )
            grid.add(common)
    if len(grid) != (q + 1) ** 2:
        raise LinesNotSkewError("transversal grid points must be distinct")


def regulus_through(space: ProjSpace, l1: ProjLine, l2: ProjLine, l3: ProjLine) -> RegulusPair:
    """The unique regulus pair through three pairwise skew coplanar-in-a-
    3-flat lines: the opposite family is collected transversal by
    transversal from the points of l1, the family itself as the common
    transversals of the opposite, and all axioms are re-verified."""
    f = space.field
    _require_skew(space, (l1, l2, l3))
    rows = [row for ln in (l1, l2, l3) for row in ln.basis]
    if len(linalg.row_basis(f, rows)) != 4:
        raise NotCoplanarError("three lines do not lie in a common 3-flat")
    pair_line = space.pair_line
    all_lines = space.lines
    opp = []
    for p in l1.points:
        cands = {
            pair_line[(p, p2) if p < p2 else (p2, p)] for p2 in l2.points
        }
        hits = [i for i in cands if all_lines[i].mask & l3.mask]
        if len(hits) != 1:
            raise WrongCountError(f"{len(hits)} transversals through a point, expected one")
        opp.append(all_lines[hits[0]])
    opp.sort(key=_proj_key)
    fam = list(common_transversals(space, opp[:3]))
    if not all(ln in fam for ln in (l1, l2, l3)):
        raise NotARegulusError("a given line is missing from the regulus of its transversals")
    fam.sort(key=_proj_key)
    pair = RegulusPair(tuple(fam), tuple(opp), space)
    _check_regulus_pair(space, pair.r_lines, pair.opp_lines)
    return pair


def enumerate_reguli(space: ProjSpace) -> tuple[RegulusPair, ...]:
    """Every regulus pair of a 3-dimensional projective space, both
    orientations of each underlying quadric, sorted canonically.  Each
    quadric is checked once: the pair check is symmetric in its two
    families, so it covers the swapped orientation too."""
    if space.n != 3:
        raise WrongCountError("regulus enumeration needs a 3-dimensional space")
    if space.field.q > MAX_ENUM_Q:
        raise LimitExceededError(f"regulus enumeration limited to q <= {MAX_ENUM_Q}")
    lines = space.lines
    nl = len(lines)
    pmask = [ln.mask for ln in lines]
    skew = _skew_masks(space)
    by_family: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(nl):
        si = skew[i]
        for j in bit_indices(si):
            if j <= i:
                continue
            tij = _transversal_ids(space, lines[i], lines[j])
            for k in bit_indices(si & skew[j]):
                if k <= j:
                    continue
                opp = tuple(t for t in tij if pmask[t] & pmask[k])
                if opp in by_family:
                    continue
                fam = tuple(_transversal_ids(space, lines[opp[0]], lines[opp[1]], (lines[opp[2]],)))
                if not (i in fam and j in fam and k in fam):
                    raise NotARegulusError(f"lines {i}, {j}, {k} are not in their regulus")
                by_family[fam] = opp
                by_family[opp] = fam
    out = []
    for fam in sorted(by_family):
        opp = by_family[fam]
        pair = RegulusPair(
            tuple(lines[t] for t in fam), tuple(lines[t] for t in opp), space
        )
        if fam < opp:
            _check_regulus_pair(space, pair.r_lines, pair.opp_lines)
        out.append(pair)
    return tuple(out)


# -- affine constructions ------------------------------------------------------


def _check_affine_pair(space: AffSpace, s_lines, opp_lines) -> None:
    """Recompute the q x q grid of an affine regulus pair: each family
    pairwise skew (disjoint and not parallel), each line meeting each
    opposite line in one point, and the q^2 meeting points distinct.

    The grid implies that the pair spans an affine 3-flat by the argument
    of _check_regulus_pair: since q >= 2 each family holds two skew
    lines, which span a 3-flat holding every line that meets both in
    distinct points.
    """
    q = space.field.q
    if len(s_lines) != q or len(opp_lines) != q:
        raise WrongCountError(
            f"affine regulus families need {q} lines each, got {len(s_lines)} and {len(opp_lines)}"
        )
    _require_skew(space, s_lines)
    _require_skew(space, opp_lines)
    grid = set()
    for a in s_lines:
        for b in opp_lines:
            common = a.mask & b.mask
            if common.bit_count() != 1:
                raise LinesNotSkewError(
                    f"affine regulus lines {a} and {b} do not meet in one point"
                )
            grid.add(common)
    if len(grid) != q * q:
        raise LinesNotSkewError("transversal grid points must be distinct")


def lift_to_projective(pair: AffineRegulusPair) -> tuple[RegulusPair, ClosureMap]:
    """Projectivise an affine pair: the closures of S plus the infinity
    line through the directions of S_opp form a regulus whose opposite
    is the closures of S_opp plus the infinity line of S's directions;
    exactly one line of each projective family lies at infinity."""
    cm = projective_closure(pair.space)
    ps = cm.pspace
    fams = []
    for fam, other in ((pair.s_lines, pair.opp_lines), (pair.opp_lines, pair.s_lines)):
        inf = [cm.infinite_point(l) for l in other]
        at_inf = ps.line_through(inf[0], inf[1])
        if not all(p in at_inf.point_coords() for p in inf):
            raise NotARegulusError("the infinite points of a family are not collinear")
        fams.append(tuple(sorted([cm.line_to_proj(l) for l in fam] + [at_inf], key=_proj_key)))
    lifted = RegulusPair(fams[0], fams[1], ps)
    _check_regulus_pair(ps, lifted.r_lines, lifted.opp_lines)
    for fam in fams:
        if sum(cm.infinity.contains_line(ps.field, l) for l in fam) != 1:
            raise WrongCountError("the lift needs exactly one line of each family at infinity")
    return lifted, cm


def _finite_parts(lifted: RegulusPair, cm: ClosureMap) -> tuple[tuple[AffLine, ...], tuple[AffLine, ...]]:
    """Each family of a lifted pair without its one line at infinity,
    mapped back to affine lines in canonical order."""
    pf = cm.pspace.field
    parts = []
    for fam in (lifted.r_lines, lifted.opp_lines):
        finite = [l for l in fam if not cm.infinity.contains_line(pf, l)]
        if len(finite) != len(fam) - 1:
            raise WrongCountError("the lift needs exactly one line of each family at infinity")
        parts.append(tuple(sorted((cm.line_to_aff(l) for l in finite), key=_aff_key)))
    return parts[0], parts[1]


def _check_lift(pair: AffineRegulusPair, lifted: RegulusPair, cm: ClosureMap) -> None:
    """Removing the line at infinity from each lifted family must give
    back the affine pair."""
    if _finite_parts(lifted, cm) != (pair.s_lines, pair.opp_lines):
        raise NotARegulusError("the lift without its lines at infinity is not the affine pair")


def affine_regulus_construct(space: AffSpace, v1, v2, v3) -> AffineRegulusPair:
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
    s1.sort(key=_aff_key)
    s2.sort(key=_aff_key)
    pair = AffineRegulusPair(tuple(s1), tuple(s2), space)
    _check_affine_pair(space, pair.s_lines, pair.opp_lines)
    for fam, dplane in ((pair.s_lines, (v1, v3)), (pair.opp_lines, (v2, v3))):
        dbasis = linalg.row_basis(f, dplane)
        cosets = set()
        for ln in fam:
            if not linalg.in_rowspace(f, dbasis, ln.dir):
                raise NotARegulusError(f"direction {ln.dir} lies outside the plane class")
            cosets.add(_coset_rep(f, dbasis, ln.base))
        if len(cosets) != f.q:
            raise WrongCountError("family lines must lie in distinct parallel planes")
    flat = span_of_lines(space, pair.s_lines + pair.opp_lines)
    if flat.basis != linalg.row_basis(f, (v1, v2, v3)):
        raise NotCoplanarError("the pair does not span the flat of v1, v2, v3")
    return pair


def classify_skew_family(space: AffSpace, lines) -> SkewFamilyClass:
    """Case 1 when the infinite points of the closures are collinear
    (equivalently the direction vectors span only a plane): the family
    extends to one affine regulus pair (two over GF(2), where a skew
    pair of lines has two valid opposites).  Case 2 otherwise."""
    q = space.field.q
    lines = sorted(lines, key=_aff_key)
    need = 2 if q == 2 else 3
    if len(lines) != need:
        raise WrongCountError(
            f"classification over GF({q}) needs exactly {need} pairwise skew lines"
        )
    _require_skew(space, lines)
    f = space.field
    dir_rank = len(linalg.row_basis(f, tuple(l.dir for l in lines)))
    if q == 2:
        trans = common_transversals(space, lines)
        if len(trans) != 4:
            raise WrongCountError(f"{len(trans)} transversals of a skew pair, expected 4")
        pairs = []
        for i in range(4):
            for j in range(i + 1, 4):
                if trans[i].mask & trans[j].mask or trans[i].dir == trans[j].dir:
                    continue
                pair = AffineRegulusPair(tuple(lines), (trans[i], trans[j]), space)
                _check_affine_pair(space, pair.s_lines, pair.opp_lines)
                pairs.append(pair)
        if len(pairs) != 2:
            raise WrongCountError(f"{len(pairs)} opposites of a skew pair over GF(2), expected 2")
        pairs.sort(key=lambda pr: tuple(_aff_key(l) for l in pr.opp_lines))
        return SkewFamilyClass(1, tuple(pairs))
    if dir_rank > 2:
        return SkewFamilyClass(2, ())
    cm = projective_closure(space)
    lifted = regulus_through(cm.pspace, *(cm.line_to_proj(l) for l in lines))
    s_lines, opp_lines = _finite_parts(lifted, cm)
    if not all(l in s_lines for l in lines):
        raise NotARegulusError("a given line is missing from its affine regulus")
    pair = AffineRegulusPair(s_lines, opp_lines, space)
    _check_affine_pair(space, pair.s_lines, pair.opp_lines)
    return SkewFamilyClass(1, (pair,))


def enumerate_affine_reguli(space: AffSpace) -> tuple[AffineRegulusPair, ...]:
    """Every ordered affine regulus pair (S, S_opp) of a 3-dimensional
    affine space, sorted canonically; the projective lift of each pair is
    verified.  Each quadric is lifted once, and over GF(3) also checked
    once: both checks are symmetric in the two families, and the lift of
    the swapped pair is the swap of the lift."""
    if space.n != 3:
        raise WrongCountError("affine regulus enumeration needs dimension 3")
    q = space.field.q
    if q > MAX_ENUM_Q:
        raise LimitExceededError(f"enumeration limited to q <= {MAX_ENUM_Q}")
    lines = space.lines
    nl = len(lines)
    skew = _skew_masks(space)
    out = []
    if q == 2:
        for i in range(nl):
            for j in bit_indices(skew[i]):
                if j <= i:
                    continue
                fam = classify_skew_family(space, (lines[i], lines[j]))
                out.extend(fam.pairs)
    else:
        # a case-1 triple has its points at infinity on one line at infinity
        cm = projective_closure(space)
        ps = cm.pspace
        inf = [ps.point_index[cm.infinite_point(ln)] for ln in lines]
        with_inf = [0] * len(ps.points)
        for t, p in enumerate(inf):
            with_inf[p] |= 1 << t
        # over GF(3) the opposite families found so far, else the pairs
        seen = set()
        for i in range(nl):
            si = skew[i]
            for j in bit_indices(si):
                if j <= i:
                    continue
                a, b = sorted((inf[i], inf[j]))
                coplanar = sum(with_inf[p] for p in ps.lines[ps.pair_line[(a, b)]].points)
                for k in bit_indices(si & skew[j] & coplanar):
                    if k <= j:
                        continue
                    triple = (lines[i], lines[j], lines[k])
                    if q == 3:
                        # the triple is a whole family: skip the opposite
                        # family of a quadric already found
                        if triple in seen:
                            continue
                        opp = common_transversals(space, triple)
                        if len(opp) != q:
                            raise WrongCountError(f"{len(opp)} transversals, expected {q}")
                        seen.add(opp)
                        pair = AffineRegulusPair(triple, opp, space)
                        _check_affine_pair(space, pair.s_lines, pair.opp_lines)
                        out.extend((pair, pair.swap()))
                    else:
                        for pair in classify_skew_family(space, triple).pairs:
                            if pair not in seen:
                                seen.add(pair)
                                out.append(pair)
    out.sort(key=lambda pr: tuple(_aff_key(l) for l in pr.s_lines + pr.opp_lines))
    for pair in out:
        # the lift of the swapped pair is the swap of this lift
        if _aff_key(pair.s_lines[0]) < _aff_key(pair.opp_lines[0]):
            lift_to_projective(pair)
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
    f = space.field
    h = Hyperplane(normalize_point(f, hyperplane.normal))
    in_r = [l for l in pair.r_lines if h.contains_line(f, l)]
    in_o = [l for l in pair.opp_lines if h.contains_line(f, l)]
    if len(in_r) + len(in_o) == 2 * len(pair.r_lines):
        return RestrictionOutcome(
            kind="not_restrictable", reason="hyperplane contains the whole 3-flat"
        )
    if (len(in_r), len(in_o)) not in ((1, 1), (0, 0)):
        return RestrictionOutcome(
            kind="not_restrictable",
            reason=f"hyperplane contains {len(in_r)} lines of R and {len(in_o)} of R_opp",
        )
    rm = RestrictionMap(space, hyperplane)
    r_lines, opp_lines = (
        tuple(sorted((rm.line_to_aff(l) for l in fam if l not in inside), key=_aff_key))
        for fam, inside in ((pair.r_lines, in_r), (pair.opp_lines, in_o))
    )
    if in_r:
        apair = AffineRegulusPair(r_lines, opp_lines, rm.aspace)
        _check_affine_pair(rm.aspace, apair.s_lines, apair.opp_lines)
        return RestrictionOutcome(kind="affine_regulus", pair=apair)
    config = WdbPlus2Config(r_lines=r_lines, opp_lines=opp_lines, space=rm.aspace)
    return RestrictionOutcome(kind="wdbplus2", config=config)
