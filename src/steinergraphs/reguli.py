"""Transversals, reguli and affine reguli.

A regulus in a 3-dimensional projective flat is a set R of q+1 pairwise
skew lines such that every line meeting three of them meets all of them;
the common transversals form the opposite regulus R_opp, and the pair
(R, R_opp) covers a (q+1) x (q+1) grid of points.  The affine analogue
replaces q+1 by q; removing the hyperplane at infinity from a projective
regulus pair with one line of each family at infinity produces exactly
the affine pairs, which is also how arbitrary skew triples are
classified (case 1: infinite points collinear, extendable; case 2: not).

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
    PointOnLineError,
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
    affine_restriction,
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
    restriction: RestrictionMap | None = dc_field(default=None, repr=False, compare=False)


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


# -- projective constructions --------------------------------------------------


def transversal_through(space: ProjSpace, l1: ProjLine, l2: ProjLine, t) -> ProjLine | None:
    """The unique line through t meeting both skew lines, if it exists.

    It is the intersection of the planes spanned by (l1, t) and (l2, t);
    in a 3-dimensional ambient space it always exists (the two planes of
    a 3-space meet in a line), in higher dimension it may not.
    """
    f = space.field
    t = normalize_point(f, t)
    if t in l1.point_coords() or t in l2.point_coords():
        raise PointOnLineError(f"point {t} lies on one of the lines")
    _require_skew(space, (l1, l2))
    plane1 = linalg.row_basis(f, l1.basis + (t,))
    plane2 = linalg.row_basis(f, l2.basis + (t,))
    inter = linalg.rowspace_intersect(f, plane1, plane2)
    if len(inter) < 2:
        return None
    if len(inter) != 2:
        raise LinesNotSkewError(f"{l1} and {l2} lie in one plane with {t}")
    out = space.line_from_basis(inter)
    if not (out.mask & l1.mask and out.mask & l2.mask) or t not in out.point_coords():
        raise NotARegulusError(f"transversal {out} misses {t} or one of the lines")
    return out


def common_transversals(space, lines) -> tuple:
    """All lines meeting every line of a pairwise-skew family exactly once,
    in a projective or an affine space."""
    lines = list(lines)
    if len(lines) < 2:
        raise WrongCountError("need at least two lines")
    _require_skew(space, lines)
    pair_line = space.pair_line
    all_lines = space.lines
    found = set()
    l0, l1 = lines[0], lines[1]
    rest = lines[2:]
    for p in l0.points:
        for p2 in l1.points:
            idx = pair_line[(p, p2) if p < p2 else (p2, p)]
            cand = all_lines[idx]
            if all(cand.mask & ln.mask for ln in rest):
                found.add(idx)
    return tuple(all_lines[i] for i in sorted(found))


def _check_regulus_pair(space: ProjSpace, r_lines, opp_lines) -> None:
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
    rows = [row for ln in (*r_lines, *opp_lines) for row in ln.basis]
    if len(linalg.row_basis(space.field, rows)) != 4:
        raise NotCoplanarError("regulus pair does not span a 3-dimensional flat")


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
    orientations of each underlying quadric, sorted canonically."""
    if space.n != 3:
        raise WrongCountError("regulus enumeration needs a 3-dimensional space")
    if space.field.q > MAX_ENUM_Q:
        raise LimitExceededError(f"regulus enumeration limited to q <= {MAX_ENUM_Q}")
    lines = space.lines
    nl = len(lines)
    pmask = [ln.mask for ln in lines]
    skew = [0] * nl
    for i in range(nl):
        m = 0
        for j in range(nl):
            if i != j and not pmask[i] & pmask[j]:
                m |= 1 << j
        skew[i] = m
    pair_line = space.pair_line
    tcache: dict[tuple[int, int], list[int]] = {}

    def transversal_ids(i: int, j: int) -> list[int]:
        key = (i, j) if i < j else (j, i)
        got = tcache.get(key)
        if got is None:
            got = sorted(
                {
                    pair_line[(p, p2) if p < p2 else (p2, p)]
                    for p in lines[key[0]].points
                    for p2 in lines[key[1]].points
                }
            )
            tcache[key] = got
        return got

    by_family: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(nl):
        si = skew[i]
        for j in bit_indices(si):
            if j <= i:
                continue
            sij = si & skew[j]
            tij = transversal_ids(i, j)
            for k in bit_indices(sij):
                if k <= j:
                    continue
                opp = tuple(sorted(t for t in tij if pmask[t] & pmask[k]))
                if opp in by_family:
                    continue
                fam_all = transversal_ids(opp[0], opp[1])
                fam = tuple(
                    sorted(t for t in fam_all if pmask[t] & pmask[opp[2]])
                )
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
        _check_regulus_pair(space, pair.r_lines, pair.opp_lines)
        out.append(pair)
    return tuple(out)


# -- affine constructions ------------------------------------------------------


def _check_affine_pair(space: AffSpace, s_lines, opp_lines) -> None:
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
    flat = span_of_lines(space, tuple(s_lines) + tuple(opp_lines))
    if flat.dim != 3:
        raise NotCoplanarError("affine regulus pair does not span a 3-flat")


def lift_to_projective(pair: AffineRegulusPair) -> tuple[RegulusPair, ClosureMap]:
    """Projectivise an affine pair: the closures of S plus the infinity
    line through the directions of S_opp form a regulus whose opposite
    is the closures of S_opp plus the infinity line of S's directions;
    exactly one line of each projective family lies at infinity."""
    space = pair.space
    cm = projective_closure(space)
    ps = cm.pspace
    f = ps.field
    inf_s = [cm.infinite_point(l) for l in pair.s_lines]
    inf_o = [cm.infinite_point(l) for l in pair.opp_lines]
    line_inf_of_s = ps.line_through(inf_s[0], inf_s[1])
    line_inf_of_o = ps.line_through(inf_o[0], inf_o[1])
    if not (
        all(p in line_inf_of_s.point_coords() for p in inf_s)
        and all(p in line_inf_of_o.point_coords() for p in inf_o)
    ):
        raise NotARegulusError("the infinite points of a family are not collinear")
    r_lines = sorted(
        [cm.line_to_proj(l) for l in pair.s_lines] + [line_inf_of_o],
        key=_proj_key,
    )
    opp_lines = sorted(
        [cm.line_to_proj(l) for l in pair.opp_lines] + [line_inf_of_s],
        key=_proj_key,
    )
    lifted = RegulusPair(tuple(r_lines), tuple(opp_lines), ps)
    _check_regulus_pair(ps, lifted.r_lines, lifted.opp_lines)
    at_inf_r = [l for l in lifted.r_lines if cm.infinity.contains_line(f, l)]
    at_inf_o = [l for l in lifted.opp_lines if cm.infinity.contains_line(f, l)]
    if len(at_inf_r) != 1 or len(at_inf_o) != 1:
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
    verified."""
    if space.n != 3:
        raise WrongCountError("affine regulus enumeration needs dimension 3")
    q = space.field.q
    if q > MAX_ENUM_Q:
        raise LimitExceededError(f"enumeration limited to q <= {MAX_ENUM_Q}")
    lines = space.lines
    nl = len(lines)
    pmask = [ln.mask for ln in lines]
    f = space.field
    skew = [0] * nl
    for i in range(nl):
        m = 0
        for j in range(nl):
            if j != i and not pmask[i] & pmask[j] and lines[i].dir != lines[j].dir:
                m |= 1 << j
        skew[i] = m
    out = []
    if q == 2:
        for i in range(nl):
            for j in bit_indices(skew[i]):
                if j <= i:
                    continue
                fam = classify_skew_family(space, (lines[i], lines[j]))
                out.extend(fam.pairs)
    else:
        dir_space: dict[tuple, int] = {}
        for idx, ln in enumerate(lines):
            dir_space.setdefault(ln.dir, len(dir_space))
        dirs = sorted(dir_space)
        span_sets: dict[tuple[int, int], set[int]] = {}
        for a in range(len(dirs)):
            for b in range(a + 1, len(dirs)):
                basis = linalg.row_basis(f, (dirs[a], dirs[b]))
                members = {
                    dir_space[d] for d in dirs if linalg.in_rowspace(f, basis, d)
                }
                span_sets[(a, b)] = members
        line_dir = [dir_space[ln.dir] for ln in lines]
        seen: set[tuple[int, ...]] = set()
        for i in range(nl):
            si = skew[i]
            for j in bit_indices(si):
                if j <= i:
                    continue
                da, db = sorted((line_dir[i], line_dir[j]))
                plane_dirs = span_sets[(da, db)]
                for k in bit_indices(si & skew[j]):
                    if k <= j or line_dir[k] not in plane_dirs:
                        continue
                    triple = (lines[i], lines[j], lines[k])
                    if q == 3:
                        opp = common_transversals(space, triple)
                        if len(opp) != q:
                            raise WrongCountError(f"{len(opp)} transversals, expected {q}")
                        pair = AffineRegulusPair(tuple(triple), tuple(opp), space)
                        _check_affine_pair(space, pair.s_lines, pair.opp_lines)
                        out.append(pair)
                    else:
                        fam = classify_skew_family(space, triple)
                        for pair in fam.pairs:
                            key = tuple(
                                _aff_key(l) for l in pair.s_lines + pair.opp_lines
                            )
                            if key not in seen:
                                seen.add(key)
                                out.append(pair)
    out.sort(key=lambda pr: tuple(_aff_key(l) for l in pr.s_lines + pr.opp_lines))
    for pair in out:
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
    if len(in_r) == 1 and len(in_o) == 1:
        rm = affine_restriction(space, hyperplane)
        s_lines = sorted(
            (rm.line_to_aff(l) for l in pair.r_lines if l not in in_r), key=_aff_key
        )
        opp_lines = sorted(
            (rm.line_to_aff(l) for l in pair.opp_lines if l not in in_o), key=_aff_key
        )
        apair = AffineRegulusPair(tuple(s_lines), tuple(opp_lines), rm.aspace)
        _check_affine_pair(rm.aspace, apair.s_lines, apair.opp_lines)
        return RestrictionOutcome(kind="affine_regulus", pair=apair, restriction=rm)
    if not in_r and not in_o:
        rm = affine_restriction(space, hyperplane)
        config = WdbPlus2Config(
            r_lines=tuple(sorted((rm.line_to_aff(l) for l in pair.r_lines), key=_aff_key)),
            opp_lines=tuple(sorted((rm.line_to_aff(l) for l in pair.opp_lines), key=_aff_key)),
            space=rm.aspace,
        )
        return RestrictionOutcome(kind="wdbplus2", config=config, restriction=rm)
    return RestrictionOutcome(
        kind="not_restrictable",
        reason=f"hyperplane contains {len(in_r)} lines of R and {len(in_o)} of R_opp",
    )
