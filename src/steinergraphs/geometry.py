"""Points, lines and hyperplanes of PG(n, q) and AG(n, q).

Projective points are nonzero coordinate vectors normalised so the first
nonzero coordinate is 1; a projective line is identified by the reduced
row echelon form of any 2-row basis, which is unique per line.  An affine
line is identified by its normalised direction vector together with its
lexicographically smallest point.  Canonical forms make every identity
check a plain tuple comparison, and all enumerations are returned in a
fixed deterministic order.

Spaces precompute their point and line tables lazily, along with the
pair-to-line dictionary (the 2-design property: every point pair lies on
one line) and per-line point bitmasks used heavily by the regulus and
eigenfunction modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from . import linalg
from .errors import (
    DimensionMismatchError,
    EqualPointsError,
    IncidenceError,
    LimitExceededError,
    LineInHyperplaneError,
    WrongCountError,
)
from .gf import Field

MAX_POINTS = 100_000
MAX_LINES = 200_000

Vec = tuple[int, ...]


def normalize_point(field: Field, vec) -> Vec:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    return field.normalize_row(field.check_row(vec))


def vec_add(field: Field, a, b) -> Vec:
    return field.add_rows(field.check_row(a), field.check_row(b))


def vec_scale(field: Field, c: int, a) -> Vec:
    return field.scale_row(field.check(c), field.check_row(a))


def dot(field: Field, a, b) -> int:
    return field.dot(field.check_row(a), field.check_row(b))


@dataclass(frozen=True, eq=False)
class ProjLine:
    """A line of PG(n, q): canonical 2-row RREF basis plus the indices and
    bitmask of its q+1 points in the ambient space's point table."""

    basis: tuple[Vec, Vec]
    points: tuple[int, ...]
    mask: int
    space: "ProjSpace" = dc_field(repr=False)

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def point_coords(self) -> tuple[Vec, ...]:
        pts = self.space.points
        return tuple(pts[i] for i in self.points)


@dataclass(frozen=True, eq=False)
class AffLine:
    """A line of AG(n, q): normalised direction, lexicographically
    smallest point, plus point indices and bitmask."""

    dir: Vec
    base: Vec
    points: tuple[int, ...]
    mask: int
    space: "AffSpace" = dc_field(repr=False)

    def __eq__(self, other):
        return isinstance(other, AffLine) and self.dir == other.dir and self.base == other.base

    def __hash__(self):
        return hash((self.dir, self.base))

    def point_coords(self) -> tuple[Vec, ...]:
        pts = self.space.points
        return tuple(pts[i] for i in self.points)


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane {x : normal . x = 0} of a projective space, with
    the normal vector normalised first-nonzero-1."""

    normal: Vec

    def contains_point(self, field: Field, p) -> bool:
        return dot(field, self.normal, p) == 0

    def contains_line(self, field: Field, line: ProjLine) -> bool:
        normal = field.check_row(self.normal)
        return all(field.dot(normal, row) == 0 for row in line.basis)


@dataclass(frozen=True)
class Relation:
    """Outcome of comparing two lines: kind is one of 'equal', 'meet',
    'parallel', 'skew'; point is the common point for 'meet'."""

    kind: str
    point: Vec | None = None


@dataclass(frozen=True)
class Flat:
    """Smallest flat containing a set of lines.  For projective spaces
    ``dim`` is the projective dimension and ``base`` is None; for affine
    spaces ``dim`` is the direction-space dimension and ``base`` the
    canonical coset representative."""

    dim: int
    basis: tuple[Vec, ...]
    base: Vec | None = None


class ProjSpace:
    """PG(n, q) with lazily built canonical point/line tables."""

    def __init__(self, n: int, field: Field, max_lines: int = MAX_LINES):
        if n < 2:
            raise ValueError(f"projective dimension must be >= 2, got {n}")
        self.n = n
        self.field = field
        self.max_lines = max_lines
        self._points = None
        self._point_index = None
        self._lines = None
        self._line_index = None
        self._pair_line = None
        self._lines_at = None
        self._hyperplanes = None

    def __repr__(self):
        return f"ProjSpace(n={self.n}, q={self.field.q})"

    def __eq__(self, other):
        return (
            isinstance(other, ProjSpace)
            and self.n == other.n
            and self.field == other.field
        )

    def __hash__(self):
        return hash((ProjSpace, self.n, self.field))

    @property
    def points(self) -> tuple[Vec, ...]:
        if self._points is None:
            q, n, f = self.field.q, self.n, self.field
            count = (q ** (n + 1) - 1) // (q - 1)
            if count > MAX_POINTS:
                raise LimitExceededError(f"{count} points exceeds limit {MAX_POINTS}")
            pts = set()
            for vec in product(range(q), repeat=n + 1):
                if any(vec):
                    pts.add(f.normalize_row(vec))
            if len(pts) != count:
                raise WrongCountError(f"{len(pts)} points, expected {count}")
            self._points = tuple(sorted(pts))
            self._point_index = {p: i for i, p in enumerate(self._points)}
        return self._points

    @property
    def point_index(self) -> dict[Vec, int]:
        self.points
        return self._point_index

    def _build_lines(self):
        pts = self.points
        idx = self.point_index
        f = self.field
        q = f.q
        n_lines_expected = None
        if self.n == 3:
            n_lines_expected = (q**2 + 1) * (q**2 + q + 1)
        by_basis = {}
        pair_line = {}
        npts = len(pts)
        if npts * (npts - 1) // 2 > 40 * self.max_lines:
            raise LimitExceededError("line enumeration too large")
        for i in range(npts):
            for j in range(i + 1, npts):
                if (i, j) in pair_line:
                    continue
                basis = linalg.row_basis(f, (pts[i], pts[j]))
                line_pts = []
                # points of the line: a*row0 + b*row1 over normalised (a:b)
                r0, r1 = basis
                line_pts.append(idx[f.normalize_row(r1)])
                for c in range(q):
                    v = f.add_rows(r0, f.scale_row(c, r1))
                    line_pts.append(idx[f.normalize_row(v)])
                line_pts = tuple(sorted(line_pts))
                mask = 0
                for p in line_pts:
                    mask |= 1 << p
                key = (basis[0], basis[1])
                if key not in by_basis:
                    by_basis[key] = (line_pts, mask)
                    if len(by_basis) > self.max_lines:
                        raise LimitExceededError(
                            f"more than {self.max_lines} lines"
                        )
                for a in range(len(line_pts)):
                    for b in range(a + 1, len(line_pts)):
                        pair_line[(line_pts[a], line_pts[b])] = key
        lines = []
        for key in sorted(by_basis):
            lp, mask = by_basis[key]
            lines.append(ProjLine(basis=key, points=lp, mask=mask, space=self))
        self._lines = tuple(lines)
        self._line_index = {ln.basis: i for i, ln in enumerate(self._lines)}
        self._pair_line = {
            pair: self._line_index[key] for pair, key in pair_line.items()
        }
        lines_at = [[] for _ in range(len(pts))]
        for i, ln in enumerate(self._lines):
            for p in ln.points:
                lines_at[p].append(i)
        self._lines_at = tuple(tuple(x) for x in lines_at)
        if n_lines_expected is not None and len(self._lines) != n_lines_expected:
            raise WrongCountError(f"{len(self._lines)} lines, expected {n_lines_expected}")

    @property
    def lines(self) -> tuple[ProjLine, ...]:
        if self._lines is None:
            self._build_lines()
        return self._lines

    @property
    def line_index(self) -> dict[tuple[Vec, Vec], int]:
        self.lines
        return self._line_index

    @property
    def pair_line(self) -> dict[tuple[int, int], int]:
        """Map from a sorted point-index pair to the index of its line."""
        self.lines
        return self._pair_line

    @property
    def lines_at(self) -> tuple[tuple[int, ...], ...]:
        """For each point index, the indices of the lines through it."""
        self.lines
        return self._lines_at

    @property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        if self._hyperplanes is None:
            self._hyperplanes = tuple(Hyperplane(p) for p in self.points)
        return self._hyperplanes

    def line_from_basis(self, rows) -> ProjLine:
        f = self.field
        basis = linalg.row_basis(f, rows)
        if len(basis) != 2:
            raise DimensionMismatchError("line basis must have rank 2")
        key = (basis[0], basis[1])
        i = self.line_index.get(key)
        if i is None:
            raise ValueError("basis does not span a line of this space")
        return self.lines[i]

    def line_through(self, p1, p2) -> ProjLine:
        f = self.field
        p1 = normalize_point(f, p1)
        p2 = normalize_point(f, p2)
        if p1 == p2:
            raise EqualPointsError(f"points coincide: {p1}")
        return self.lines[self.pair_line[_ordered(self.point_index[p1], self.point_index[p2])]]

    def index_of(self, line: ProjLine) -> int:
        return self.line_index[line.basis]


def _ordered(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class AffSpace:
    """AG(n, q) with lazily built canonical point/line tables."""

    def __init__(self, n: int, field: Field, max_lines: int = MAX_LINES):
        if n < 2:
            raise ValueError(f"affine dimension must be >= 2, got {n}")
        self.n = n
        self.field = field
        self.max_lines = max_lines
        self._points = None
        self._point_index = None
        self._lines = None
        self._line_index = None
        self._pair_line = None
        self._lines_at = None
        self._planes = None

    def __repr__(self):
        return f"AffSpace(n={self.n}, q={self.field.q})"

    def __eq__(self, other):
        return (
            isinstance(other, AffSpace)
            and self.n == other.n
            and self.field == other.field
        )

    def __hash__(self):
        return hash((AffSpace, self.n, self.field))

    @property
    def points(self) -> tuple[Vec, ...]:
        if self._points is None:
            q, n = self.field.q, self.n
            if q**n > MAX_POINTS:
                raise LimitExceededError(f"{q ** n} points exceeds limit {MAX_POINTS}")
            self._points = tuple(product(range(q), repeat=n))
            self._point_index = {p: i for i, p in enumerate(self._points)}
        return self._points

    @property
    def point_index(self) -> dict[Vec, int]:
        self.points
        return self._point_index

    def _line_key(self, p1: Vec, p2: Vec) -> tuple[Vec, tuple[Vec, ...]]:
        f = self.field
        d = f.normalize_row(f.sub_scaled_row(p2, 1, p1))
        pts = tuple(sorted(f.add_rows(p1, f.scale_row(c, d)) for c in range(f.q)))
        return d, pts

    def _build_lines(self):
        pts = self.points
        idx = self.point_index
        f = self.field
        q = f.q
        expected = q ** (self.n - 1) * (q**self.n - 1) // (q - 1)
        if expected > self.max_lines:
            raise LimitExceededError(f"{expected} lines exceeds limit {self.max_lines}")
        by_key = {}
        pair_line = {}
        npts = len(pts)
        for i in range(npts):
            for j in range(i + 1, npts):
                if (i, j) in pair_line:
                    continue
                d, line_pts = self._line_key(pts[i], pts[j])
                key = (d, line_pts[0])
                if key not in by_key:
                    by_key[key] = line_pts
                ids = sorted(idx[p] for p in line_pts)
                for a in range(len(ids)):
                    for b in range(a + 1, len(ids)):
                        pair_line[(ids[a], ids[b])] = key
        lines = []
        for key in sorted(by_key):
            d, base = key
            line_pts = by_key[key]
            ids = tuple(sorted(idx[p] for p in line_pts))
            mask = 0
            for p in ids:
                mask |= 1 << p
            lines.append(AffLine(dir=d, base=base, points=ids, mask=mask, space=self))
        if len(lines) != expected:
            raise WrongCountError(f"{len(lines)} lines, expected {expected}")
        self._lines = tuple(lines)
        self._line_index = {(ln.dir, ln.base): i for i, ln in enumerate(self._lines)}
        self._pair_line = {
            pair: self._line_index[key] for pair, key in pair_line.items()
        }
        lines_at = [[] for _ in range(npts)]
        for i, ln in enumerate(self._lines):
            for p in ln.points:
                lines_at[p].append(i)
        self._lines_at = tuple(tuple(x) for x in lines_at)

    @property
    def lines(self) -> tuple[AffLine, ...]:
        if self._lines is None:
            self._build_lines()
        return self._lines

    @property
    def line_index(self) -> dict[tuple[Vec, Vec], int]:
        self.lines
        return self._line_index

    @property
    def pair_line(self) -> dict[tuple[int, int], int]:
        self.lines
        return self._pair_line

    @property
    def lines_at(self) -> tuple[tuple[int, ...], ...]:
        self.lines
        return self._lines_at

    def line_through(self, p1, p2) -> AffLine:
        p1, p2 = tuple(p1), tuple(p2)
        if p1 == p2:
            raise EqualPointsError(f"points coincide: {p1}")
        return self.lines[self.pair_line[_ordered(self.point_index[p1], self.point_index[p2])]]

    def line_from_key(self, direction, base) -> AffLine:
        d = normalize_point(self.field, direction)
        i = self.line_index.get((d, tuple(base)))
        if i is None:
            # base may not be the smallest point; renormalise through it
            return self.line_through(tuple(base), vec_add(self.field, tuple(base), d))
        return self.lines[i]

    def index_of(self, line: AffLine) -> int:
        return self.line_index[(line.dir, line.base)]


# -- basic incidence operations ----------------------------------------------


def line_through(space, p1, p2):
    return space.line_through(p1, p2)


def relation(space, l1, l2) -> Relation:
    """Classify a pair of lines: equal, meeting in a point, parallel
    (affine only), or skew."""
    if l1.space is not space and l1.space != space:
        raise ValueError("line does not belong to the given space")
    if l1 == l2:
        return Relation("equal")
    common = l1.mask & l2.mask
    if common:
        p = common.bit_length() - 1
        if common != 1 << p:
            raise IncidenceError("two distinct lines share more than one point")
        return Relation("meet", space.points[p])
    if isinstance(l1, AffLine) and l1.dir == l2.dir:
        return Relation("parallel")
    return Relation("skew")


def span_of_lines(space, lines) -> Flat:
    """Canonical representation of the smallest flat containing the lines."""
    lines = list(lines)
    if not lines:
        raise ValueError("need at least one line")
    f = space.field
    if isinstance(space, ProjSpace):
        rows = [row for ln in lines for row in ln.basis]
        basis = linalg.row_basis(f, rows)
        return Flat(dim=len(basis) - 1, basis=basis)
    base0 = lines[0].base
    rows = [ln.dir for ln in lines]
    rows.extend(f.sub_scaled_row(ln.base, 1, base0) for ln in lines[1:])
    basis = linalg.row_basis(f, rows)
    return Flat(dim=len(basis), basis=basis, base=_coset_rep(f, basis, base0))


def _coset_rep(field: Field, basis, point: Vec) -> Vec:
    """Canonical representative of point + rowspace(basis): reduce the
    point to have zeros in all pivot coordinates."""
    rep = tuple(point)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        if rep[pivot]:
            rep = field.sub_scaled_row(rep, rep[pivot], row)
    return rep


# -- affine planes and parallel classes ---------------------------------------


@dataclass(frozen=True, eq=False)
class AffPlane:
    """A 2-flat of AG(n, q): canonical (direction-plane RREF, coset
    representative) pair with its point indices."""

    dirbasis: tuple[Vec, Vec]
    base: Vec
    points: tuple[int, ...]
    mask: int
    space: AffSpace = dc_field(repr=False)

    def __eq__(self, other):
        return (
            isinstance(other, AffPlane)
            and self.dirbasis == other.dirbasis
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.dirbasis, self.base))


def _direction_planes(space: AffSpace) -> list[tuple[Vec, Vec]]:
    f = space.field
    n, q = space.n, f.q
    reps = sorted(
        {f.normalize_row(v) for v in product(range(q), repeat=n) if any(v)}
    )
    seen = set()
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            basis = linalg.row_basis(f, (reps[i], reps[j]))
            if len(basis) == 2:
                seen.add((basis[0], basis[1]))
    return sorted(seen)


def enumerate_planes(space: AffSpace) -> tuple[AffPlane, ...]:
    """All 2-flats, grouped per direction plane into its q^(n-2) cosets."""
    f = space.field
    q = f.q
    idx = space.point_index
    planes = []
    for dirbasis in _direction_planes(space):
        span = set()
        for a in range(q):
            for b in range(q):
                span.add(f.add_rows(f.scale_row(a, dirbasis[0]), f.scale_row(b, dirbasis[1])))
        seen = set()
        for pt in space.points:
            rep = _coset_rep(f, dirbasis, pt)
            if rep in seen:
                continue
            seen.add(rep)
            pts = tuple(sorted(idx[f.add_rows(rep, d)] for d in span))
            mask = 0
            for p in pts:
                mask |= 1 << p
            planes.append(
                AffPlane(dirbasis=dirbasis, base=rep, points=pts, mask=mask, space=space)
            )
    planes.sort(key=lambda pl: (pl.dirbasis, pl.base))
    return tuple(planes)


def parallel_classes(plane: AffPlane) -> tuple[tuple[AffLine, ...], ...]:
    """The q+1 parallel classes of q lines partitioning the plane."""
    space = plane.space
    f = space.field
    q = f.q
    dirs = sorted(
        {
            f.normalize_row(
                f.add_rows(f.scale_row(a, plane.dirbasis[0]), f.scale_row(b, plane.dirbasis[1]))
            )
            for a in range(q)
            for b in range(q)
            if a or b
        }
    )
    pts = [space.points[i] for i in plane.points]
    classes = []
    for d in dirs:
        cls = {space.line_through(p, f.add_rows(p, d)) for p in pts}
        if len(cls) != q or any(ln.mask & plane.mask != ln.mask for ln in cls):
            raise IncidenceError(f"parallel class of direction {d} is not {q} lines of the plane")
        classes.append(tuple(sorted(cls, key=lambda ln: ln.base)))
    return tuple(classes)


# -- projective closure and hyperplane restriction ----------------------------


def _line_onto(aspace: AffSpace, pts) -> AffLine:
    """The affine line whose points are exactly ``pts``: the image of a
    projective line under a coordinate change, checked to be one."""
    q = aspace.field.q
    if len(pts) != q:
        raise IncidenceError(f"line has {len(pts)} affine points, expected {q}")
    out = aspace.line_through(pts[0], pts[1])
    if set(out.point_coords()) != set(pts):
        raise IncidenceError("affine points of the line are not collinear")
    return out


class ClosureMap:
    """Embedding of AG(n, q) into PG(n, q) via x -> (1 : x), with the
    hyperplane at infinity {x_0 = 0}."""

    def __init__(self, aspace: AffSpace):
        self.aspace = aspace
        self.pspace = proj_space(aspace.n, aspace.field)
        self.infinity = Hyperplane((1,) + (0,) * aspace.n)

    def point_to_proj(self, p) -> Vec:
        return (1,) + tuple(p)

    def point_to_aff(self, pp) -> Vec:
        f = self.aspace.field
        if f.check_row(pp)[0] == 0:
            raise ValueError(f"{pp} lies on the hyperplane at infinity")
        return f.normalize_row(pp)[1:]

    def infinite_point(self, line: AffLine) -> Vec:
        return self.pspace.field.normalize_row((0,) + line.dir)

    def line_to_proj(self, line: AffLine) -> ProjLine:
        return self.pspace.line_from_basis(((1,) + line.base, (0,) + line.dir))

    def line_to_aff(self, pline: ProjLine) -> AffLine:
        if self.infinity.contains_line(self.pspace.field, pline):
            raise LineInHyperplaneError("line lies in the hyperplane at infinity")
        affine_pts = [
            self.point_to_aff(p) for p in pline.point_coords() if p[0] != 0
        ]
        return _line_onto(self.aspace, affine_pts)


def projective_closure(aspace: AffSpace) -> ClosureMap:
    return ClosureMap(aspace)


class RestrictionMap:
    """Removal of a hyperplane H from PG(n, q), yielding AG(n, q) in the
    coordinates of a deterministic basis change that moves H to {x_0 = 0}:
    the basis is (first standard vector outside H) followed by the
    canonical RREF basis of H."""

    def __init__(self, pspace: ProjSpace, hyperplane: Hyperplane):
        f = pspace.field
        self.pspace = pspace
        self.hyperplane = Hyperplane(normalize_point(f, hyperplane.normal))
        self.aspace = aff_space(pspace.n, f)
        hbasis = linalg.kernel(f, (self.hyperplane.normal,))
        v0 = None
        for i in range(pspace.n + 1):
            e = tuple(1 if j == i else 0 for j in range(pspace.n + 1))
            if dot(f, self.hyperplane.normal, e) != 0:
                v0 = e
                break
        self.matrix = (v0,) + tuple(hbasis)
        self.inverse = linalg.inverse(f, self.matrix)

    def point_to_aff(self, pp) -> Vec:
        f = self.pspace.field
        coords = linalg.mat_vec(f, linalg.transpose(self.inverse), pp)
        if coords[0] == 0:
            raise ValueError(f"{pp} lies on the removed hyperplane")
        return f.normalize_row(coords)[1:]

    def point_to_proj(self, ap) -> Vec:
        f = self.pspace.field
        coords = (1,) + tuple(ap)
        return f.normalize_row(linalg.mat_vec(f, linalg.transpose(self.matrix), coords))

    def line_to_aff(self, pline: ProjLine) -> AffLine:
        f = self.pspace.field
        if self.hyperplane.contains_line(f, pline):
            raise LineInHyperplaneError("line lies inside the removed hyperplane")
        affine_pts = [
            self.point_to_aff(p)
            for p in pline.point_coords()
            if f.dot(self.hyperplane.normal, p) != 0
        ]
        return _line_onto(self.aspace, affine_pts)

    def line_to_proj(self, aline: AffLine) -> ProjLine:
        basis = (
            self.point_to_proj(aline.base),
            self.point_to_proj(self.pspace.field.add_rows(aline.base, aline.dir)),
        )
        return self.pspace.line_from_basis(basis)


def affine_restriction(pspace: ProjSpace, hyperplane: Hyperplane) -> RestrictionMap:
    return RestrictionMap(pspace, hyperplane)


_SPACE_CACHE: dict[tuple, object] = {}


def proj_space(n: int, field: Field) -> ProjSpace:
    """Shared ProjSpace(n, q) instance, so lazily built tables are reused."""
    key = ("proj", n, field.p, field.k)
    if key not in _SPACE_CACHE:
        _SPACE_CACHE[key] = ProjSpace(n, field)
    return _SPACE_CACHE[key]


def aff_space(n: int, field: Field) -> AffSpace:
    """Shared AffSpace(n, q) instance, so lazily built tables are reused."""
    key = ("aff", n, field.p, field.k)
    if key not in _SPACE_CACHE:
        _SPACE_CACHE[key] = AffSpace(n, field)
    return _SPACE_CACHE[key]
