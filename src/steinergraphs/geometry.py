"""Points, lines and hyperplanes of PG(n, q) and AG(n, q).

Projective points are nonzero coordinate vectors normalised so the first
nonzero coordinate is 1; a projective line is identified by the reduced
row echelon form of any 2-row basis, which is unique per line.  An affine
line is identified by its normalised direction vector together with its
lexicographically smallest point.  Canonical forms make every identity
check a plain tuple comparison, and all enumerations are returned in a
fixed deterministic order.

ProjSpace and AffSpace share one table builder: each supplies its point
table, its closed-form line count (checked against the built table for
every n) and the canonical key of the line through two points, and the
shared pair loop builds the line table in key order, the pair-to-line
dictionary (the 2-design property: every point pair lies on one line),
the lines through each point and per-line point bitmasks, all lazily and
once.  proj_space and aff_space share one instance per (n, q), which
also keeps the space's design and block graph (see designs) and, for an
affine space, ``AffSpace.closure``: the closure map into PG(n, q) with
its line table.

A line is named by its index in ``lines`` wherever the package passes
lines around; the line objects hold what the index stands for.
Coordinate changes act on line indices: line_permutation maps each point
of PG(n, q) once through an invertible matrix and each line through the
images of two of its points.  The closure map and a hyperplane
restriction each hold one line-index table, ``proj_index`` from affine
to projective line indices and ``aff_index`` back, the lines inside the
removed hyperplane having no entry; a restriction composes the
permutation of its basis change with the closure table, built per
restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations, product

from . import linalg
from .errors import (
    DimensionMismatchError,
    EqualPointsError,
    IncidenceError,
    LimitExceededError,
    WrongCountError,
)
from .gf import Field

# points x lines: the line masks' bits, at least twice pair_line's entries
MAX_INCIDENCES = 2_000_000

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


class _Line:
    """Identity of a line is its canonical ``key``; ``points`` are indices
    into the ambient space's point table and ``mask`` their bitmask."""

    def __eq__(self, other):
        return type(other) is type(self) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


@dataclass(frozen=True, eq=False)
class ProjLine(_Line):
    """A line of PG(n, q): canonical 2-row RREF basis plus the indices and
    bitmask of its q+1 points."""

    basis: tuple[Vec, Vec]
    points: tuple[int, ...]
    mask: int
    space: "ProjSpace" = dc_field(repr=False)

    @property
    def key(self) -> tuple[Vec, Vec]:
        return self.basis


@dataclass(frozen=True, eq=False)
class AffLine(_Line):
    """A line of AG(n, q): normalised direction, lexicographically
    smallest point, plus point indices and bitmask."""

    dir: Vec
    base: Vec
    points: tuple[int, ...]
    mask: int
    space: "AffSpace" = dc_field(repr=False)

    @property
    def key(self) -> tuple[Vec, Vec]:
        return (self.dir, self.base)


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
class Flat:
    """Smallest flat containing a set of lines.  For projective spaces
    ``dim`` is the projective dimension and ``base`` is None; for affine
    spaces ``dim`` is the direction-space dimension and ``base`` the
    canonical coset representative."""

    dim: int
    basis: tuple[Vec, ...]
    base: Vec | None = None


class _Space:
    """Point and line tables of a space, built lazily and once.

    A subclass supplies its point table, its closed-form point and line
    counts, the canonical key and sorted point ids of the line through
    two points, and its line object.  Before any table is built, the
    product of the two counts is held to MAX_INCIDENCES.  The pair loop
    here builds ``lines`` in key order and checks their number against
    the closed form; ``line_index`` (key to index), ``pair_line`` and
    ``lines_at`` are read off them.
    """

    def __init__(self, n: int, field: Field):
        if n < 2:
            raise ValueError(f"{type(self).__name__} needs dimension n >= 2, got {n}")
        self.n = n
        self.field = field
        self._design = None  # the Steiner system of the lines, kept here by designs

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, q={self.field.q})"

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.field == other.field

    def __hash__(self):
        return hash((type(self), self.n, self.field))

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        npts, nlines = self._point_count(), self._line_count()
        if npts * nlines > MAX_INCIDENCES:
            raise LimitExceededError(f"{npts} points x {nlines} lines exceeds limit {MAX_INCIDENCES}")
        return self._point_table()

    @cached_property
    def point_index(self) -> dict[Vec, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def lines(self) -> tuple:
        pts = self.points
        expected = self._line_count()
        ids_of = {}
        covered = set()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if (i, j) not in covered:
                    key, ids = self._line_key(pts[i], pts[j])
                    ids_of[key] = ids
                    covered.update(combinations(ids, 2))
        if len(ids_of) != expected:
            raise WrongCountError(f"{len(ids_of)} lines, expected {expected}")
        return tuple(self._line(key, ids, sum(1 << p for p in ids)) for key, ids in sorted(ids_of.items()))

    @cached_property
    def line_index(self) -> dict[tuple[Vec, Vec], int]:
        """Map from a line key to the index of the line."""
        return {ln.key: i for i, ln in enumerate(self.lines)}

    @cached_property
    def pair_line(self) -> dict[tuple[int, int], int]:
        """Map from a sorted point-index pair to the index of its line."""
        return {pair: i for i, ln in enumerate(self.lines) for pair in combinations(ln.points, 2)}

    @cached_property
    def lines_at(self) -> tuple[tuple[int, ...], ...]:
        """For each point index, the indices of the lines through it."""
        at = [[] for _ in self.points]
        for i, ln in enumerate(self.lines):
            for p in ln.points:
                at[p].append(i)
        return tuple(tuple(x) for x in at)

    def line_through(self, p1, p2):
        p1, p2 = self._point(p1), self._point(p2)
        if p1 == p2:
            raise EqualPointsError(f"points coincide: {p1}")
        i, j = sorted((self.point_index[p1], self.point_index[p2]))
        return self.lines[self.pair_line[(i, j)]]

    def index_of(self, line) -> int:
        return self.line_index[line.key]


class ProjSpace(_Space):
    """PG(n, q): points are normalised nonzero vectors of length n + 1."""

    def _point_count(self) -> int:
        q, n = self.field.q, self.n
        return (q ** (n + 1) - 1) // (q - 1)

    def _point_table(self) -> tuple[Vec, ...]:
        q, n, f = self.field.q, self.n, self.field
        pts = {f.normalize_row(vec) for vec in product(range(q), repeat=n + 1) if any(vec)}
        if len(pts) != self._point_count():
            raise WrongCountError(f"{len(pts)} points, expected {self._point_count()}")
        return tuple(sorted(pts))

    def _line_count(self) -> int:
        q, n = self.field.q, self.n
        return (q ** (n + 1) - 1) * (q ** n - 1) // ((q ** 2 - 1) * (q - 1))

    def _line_key(self, p1: Vec, p2: Vec) -> tuple[tuple[Vec, Vec], tuple[int, ...]]:
        # the points of the line are r1 and r0 + c*r1 over c, normalised
        f, idx = self.field, self.point_index
        r0, r1 = linalg.row_basis(f, (p1, p2))
        ids = [idx[f.normalize_row(r1)]]
        ids.extend(idx[f.normalize_row(f.add_rows(r0, f.scale_row(c, r1)))] for c in range(f.q))
        return (r0, r1), tuple(sorted(ids))

    def _line(self, key, ids, mask) -> ProjLine:
        return ProjLine(basis=key, points=ids, mask=mask, space=self)

    def _point(self, p) -> Vec:
        return normalize_point(self.field, p)

    @cached_property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        return tuple(Hyperplane(p) for p in self.points)

    def line_from_basis(self, rows) -> ProjLine:
        basis = linalg.row_basis(self.field, rows)
        if len(basis) != 2:
            raise DimensionMismatchError("line basis must have rank 2")
        i = self.line_index.get((basis[0], basis[1]))
        if i is None:
            raise ValueError("basis does not span a line of this space")
        return self.lines[i]


class AffSpace(_Space):
    """AG(n, q): points are all vectors of length n, in lexicographic order."""

    def _point_count(self) -> int:
        return self.field.q ** self.n

    def _point_table(self) -> tuple[Vec, ...]:
        return tuple(product(range(self.field.q), repeat=self.n))

    def _line_count(self) -> int:
        q, n = self.field.q, self.n
        return q ** (n - 1) * (q**n - 1) // (q - 1)

    def _line_key(self, p1: Vec, p2: Vec) -> tuple[tuple[Vec, Vec], tuple[int, ...]]:
        f, idx = self.field, self.point_index
        d = f.normalize_row(f.sub_scaled_row(p2, 1, p1))
        pts = sorted(f.add_rows(p1, f.scale_row(c, d)) for c in range(f.q))
        return (d, pts[0]), tuple(sorted(idx[p] for p in pts))

    def _line(self, key, ids, mask) -> AffLine:
        return AffLine(dir=key[0], base=key[1], points=ids, mask=mask, space=self)

    def _point(self, p) -> Vec:
        return tuple(p)

    @cached_property
    def closure(self) -> "ClosureMap":
        return ClosureMap(self)

    def line_from_key(self, direction, base) -> AffLine:
        d = normalize_point(self.field, direction)
        i = self.line_index.get((d, tuple(base)))
        if i is None:
            # base may not be the smallest point; renormalise through it
            return self.line_through(tuple(base), vec_add(self.field, tuple(base), d))
        return self.lines[i]


# -- basic incidence operations ----------------------------------------------


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


@dataclass(frozen=True)
class AffPlane:
    """A 2-flat of AG(n, q): canonical (direction-plane RREF, coset
    representative) pair with its point indices."""

    dirbasis: tuple[Vec, Vec]
    base: Vec
    points: tuple[int, ...] = dc_field(compare=False)
    mask: int = dc_field(compare=False)
    space: AffSpace = dc_field(repr=False, compare=False)


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


def _plane(space: AffSpace, dirbasis, base: Vec) -> AffPlane:
    """The 2-flat base + span(dirbasis), from its canonical direction
    basis and coset representative."""
    f, idx = space.field, space.point_index
    d0, d1 = dirbasis
    pts = tuple(sorted({
        idx[f.add_rows(base, f.add_rows(f.scale_row(a, d0), f.scale_row(b, d1)))]
        for a in range(f.q)
        for b in range(f.q)
    }))
    return AffPlane(dirbasis=(d0, d1), base=base, points=pts, mask=sum(1 << p for p in pts), space=space)


def enumerate_planes(space: AffSpace) -> tuple[AffPlane, ...]:
    """All 2-flats, grouped per direction plane into its q^(n-2) cosets."""
    planes = []
    for dirbasis in _direction_planes(space):
        reps = sorted({_coset_rep(space.field, dirbasis, pt) for pt in space.points})
        planes.extend(_plane(space, dirbasis, rep) for rep in reps)
    return tuple(planes)


def parallel_classes(plane: AffPlane) -> tuple[tuple[int, ...], ...]:
    """The q+1 parallel classes of q lines partitioning the plane, each
    as ascending line indices."""
    space = plane.space
    f, lines, idx = space.field, space.lines, space.point_index
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
    classes = []
    for d in dirs:
        cls = set()
        for i in plane.points:
            j = idx[f.add_rows(space.points[i], d)]
            cls.add(space.pair_line[(i, j) if i < j else (j, i)])
        if len(cls) != q or any(lines[t].mask & plane.mask != lines[t].mask for t in cls):
            raise IncidenceError(f"parallel class of direction {d} is not {q} lines of the plane")
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


# -- projective closure and hyperplane restriction ----------------------------


def line_permutation(pspace: ProjSpace, matrix) -> tuple[int, ...]:
    """The permutation of line indices induced by the collineation
    x -> x M of PG(n, q), for an invertible (n+1) x (n+1) matrix M: entry
    i is the index of the image of line i.

    The matrix is validated once (``linalg.inverse`` raises on a singular
    one); each point is then mapped once with the unchecked row
    operations, and each line by ``pair_line`` on the images of two of
    its points, checked to hold the images of all of them."""
    f = pspace.field
    if len(matrix) != pspace.n + 1:
        raise DimensionMismatchError(f"a collineation of PG({pspace.n}, q) needs {pspace.n + 1} rows")
    linalg.inverse(f, matrix)
    # x M is the sum of the rows M_i scaled by x_i, read from a table
    scaled = [[f.scale_row(c, row) for c in range(f.q)] for row in matrix]
    idx, add, normalize = pspace.point_index, f.add_rows, f.normalize_row
    image = []
    for p in pspace.points:
        v = None
        for c, rows in zip(p, scaled):
            if c:
                v = rows[c] if v is None else add(v, rows[c])
        image.append(idx[normalize(v)])
    pair_line, lines = pspace.pair_line, pspace.lines
    perm = []
    for ln in lines:
        pts = ln.points
        a, b = image[pts[0]], image[pts[1]]
        j = pair_line[(a, b) if a < b else (b, a)]
        mask = lines[j].mask
        for p in pts[2:]:
            if not mask >> image[p] & 1:
                raise IncidenceError(f"the image of line {ln.basis} is not a line")
        perm.append(j)
    return tuple(perm)


class ClosureMap:
    """Embedding of AG(n, q) into PG(n, q) via x -> (1 : x), with the
    hyperplane at infinity {x_0 = 0}.  ``proj_index`` maps each affine
    line index to the index of its closure, the projective line through
    (1 : base) and (0 : dir), and ``aff_index`` inverts it on the lines
    outside infinity; ``inf_point`` maps it to the index of its point at
    infinity (0 : dir), and ``inf_lines`` is the bitmask of the
    projective line indices at infinity.  ``AffSpace.closure`` keeps one
    map per affine space."""

    def __init__(self, aspace: AffSpace):
        self.aspace = aspace
        self.pspace = ps = proj_space(aspace.n, aspace.field)
        self.infinity = Hyperplane((1,) + (0,) * aspace.n)
        self.proj_index = tuple(
            ps.index_of(ps.line_from_basis(((1,) + l.base, (0,) + l.dir))) for l in aspace.lines
        )
        self.aff_index = {p: a for a, p in enumerate(self.proj_index)}
        # directions are normalised, so (0 : dir) is a point of the table
        self.inf_point = tuple(ps.point_index[(0,) + l.dir] for l in aspace.lines)
        self.inf_lines = sum(
            1 << i for i, l in enumerate(ps.lines) if self.infinity.contains_line(ps.field, l)
        )


class RestrictionMap:
    """Removal of a hyperplane H from PG(n, q), yielding AG(n, q) in the
    coordinates of a deterministic basis change ``matrix`` that moves H to
    {x_0 = 0}: its rows are the first standard vector outside H followed
    by the canonical RREF basis of H.  The line table ``proj_index`` is
    the permutation that the basis change induces composed with the
    closure table, built per map and kept only by it; ``aff_index``
    inverts it, so the lines inside H have no entry."""

    def __init__(self, pspace: ProjSpace, hyperplane: Hyperplane):
        f = pspace.field
        self.pspace = pspace
        self.hyperplane = Hyperplane(normalize_point(f, hyperplane.normal))
        self.aspace = aff_space(pspace.n, f)
        normal = self.hyperplane.normal
        # normal . e_i = normal[i], so e_i lies outside H at the first nonzero coordinate
        lead = next(i for i, x in enumerate(normal) if x)
        v0 = tuple(int(j == lead) for j in range(pspace.n + 1))
        self.matrix = (v0,) + linalg.kernel(f, (normal,))
        # the point with new coordinates c is c M in the old ones
        moved = line_permutation(pspace, self.matrix)
        self.proj_index = tuple(moved[p] for p in self.aspace.closure.proj_index)
        self.aff_index = {p: a for a, p in enumerate(self.proj_index)}


_SPACE_CACHE: dict[tuple, _Space] = {}


def _shared(cls, n: int, field: Field):
    key = (cls, n, field.p, field.k)
    if key not in _SPACE_CACHE:
        _SPACE_CACHE[key] = cls(n, field)
    return _SPACE_CACHE[key]


def proj_space(n: int, field: Field) -> ProjSpace:
    """Shared ProjSpace(n, q) instance, so its tables and design are built once."""
    return _shared(ProjSpace, n, field)


def aff_space(n: int, field: Field) -> AffSpace:
    """Shared AffSpace(n, q) instance, so its tables and design are built once."""
    return _shared(AffSpace, n, field)
