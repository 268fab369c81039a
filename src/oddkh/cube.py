"""The hypercube of smoothings of a link diagram.

Vertices carry exterior state spaces, edges carry merge or split maps,
and square faces are sorted into the ten shapes that determine how the
two paths around them compare.  The canonical coherent edge signs are
built in one walk down the cube, with a spanning tree at +1, as one
flat list indexed ``alpha * n + c``; GF(2) elimination remains to
enumerate every coherent choice and to complete pinned ones.

An edge map depends only on its shape: where each source generator
lands in the target space and, for a split, where the two offspring
land.  The cube shapes every edge when it is built, with no lazy path:
one table per shape, the image of every source monomial indexed by its
mask, which every edge of that shape reads.  A 10-crossing cube has
thousands of edges but on the order of a hundred shapes.

A face is fixed by the shapes of its four edges, its key, in the same
way: both path composites are products of the four tables.  So once
per key and cube the composites are compared on every monomial of the
base space (``_key_sign``) and the key's first face must classify to
that sign; with the sign parity of each face this is d^2 = 0, without
multiplying differentials.  The canonical walk reads each face's sign
(``_face_sign``) and checks its parity once.  The exception is the
vanishing-path shapes vi and x, whose sign is the geometric chirality
of the two bands: those faces are classified one by one.  Each shape
table is also compared once with the merge or split map built from the
circles of another edge of its shape (``_first_wrong_table``).  A
10-crossing cube has 11,520 faces and on the order of a thousand keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .linalg import solve_gf2
from .linkdiag import LinkDiagram, Resolution, resolve, transit_side
from .oddtqft import (
    ExteriorSpace,
    TqftMap,
    merge_map,
    relabel_term,
    split_map,
    split_terms,
    vertex_space,
)

__all__ = [
    "Cube",
    "CubeEdge",
    "FaceClass",
    "build_cube",
    "classify_face",
    "face_edges",
    "solve_sign_assignment",
    "enumerate_sign_assignments",
    "extend_sign_assignment",
]


@dataclass(frozen=True)
class CubeEdge:
    """One cube edge: crossing `c` flips from 0 to 1 at vertex `alpha`.

    For a merge, `key_map` sends every source circle key to its target
    key, two-to-one on the fused pair.  For a split it is the injective
    lift that already routes the parent to `child0`.
    """

    alpha: int
    c: int
    kind: str
    key_map: dict
    parent: object = None
    child0: object = None
    child1: object = None


class Cube:
    """All resolutions of a diagram together with their saddle maps.

    A resolution holds its circle keys and two byte tables (see
    ``linkdiag.Resolution``), and a circle's key is one of its arcs, so
    ``_correspondence`` reads where each circle goes without walking one.
    The one per-edge record is the id of the edge's shape: edges of the
    same shape share one table, so the cube keeps no per-edge key
    correspondence.  State spaces are built on demand, since only table
    building and the cobordism factors read them.  Face keys are cached
    with the sign their paths commute with.  `theory` fixes the sign
    convention for the two interleaved face shapes and affects nothing
    else.
    """

    __slots__ = (
        "diagram", "n", "theory", "_resolutions", "_spaces", "_edge_ids", "_tables", "_sites", "_gated",
        "_face_sigma",
    )

    def __init__(self, diagram: LinkDiagram, theory: str = "y"):
        """Resolve every vertex, then shape every edge in ``edges`` order, once.

        Shape ids are numbered in the order first seen, and the readers
        are list reads.  Circles are sorted by their smallest arc, which
        is their key, so a circle's index in its resolution is its
        generator's position in the space: the shape, read off the two
        resolutions by ``_correspondence``, fixes the edge's map, and
        ``edge`` runs only to build the table of a new shape from its
        first edge.
        """
        if theory not in ("x", "y"):
            raise ValueError("theory must be 'x' or 'y'")
        self.diagram = diagram
        self.n = n = len(diagram.crossings)
        self.theory = theory
        self._resolutions = [resolve(diagram, alpha) for alpha in range(1 << n)]
        self._spaces: dict[int, ExteriorSpace] = {}
        # Shape id of edge (alpha, c) at alpha * n + c, -1 where c is resolved.
        self._edge_ids = [-1] * (n << n)
        # Per shape id: its table, its first two edges, and (below
        # _gated) whether the table passed _first_wrong_table.
        self._tables: list[tuple] = []
        self._sites: list[list[tuple[int, int]]] = []
        self._gated = 0
        # Per face key: the sign its paths commute with on every
        # monomial (_key_sign), None for vanishing-path keys.
        self._face_sigma: dict[tuple, int | None] = {}
        shapes: dict[tuple, int] = {}
        for alpha, c in self.edges():
            shape = self._correspondence(alpha, c)[0]
            i = shapes.get(shape)
            if i is None:
                i = shapes[shape] = len(self._tables)
                beta = alpha | 1 << c
                self._tables.append(_edge_columns(self.space(alpha), self.space(beta), self.edge(alpha, c)))
                self._sites.append([(alpha, c)])
            elif len(self._sites[i]) == 1:
                self._sites[i].append((alpha, c))
            self._edge_ids[alpha * n + c] = i

    def resolution(self, alpha: int) -> Resolution:
        if not 0 <= alpha < len(self._resolutions):
            raise ValueError(f"vertex {alpha} is not in the cube")
        return self._resolutions[alpha]

    def space(self, alpha: int) -> ExteriorSpace:
        s = self._spaces.get(alpha)
        if s is None:
            s = vertex_space(self.resolution(alpha))
            self._spaces[alpha] = s
        return s

    def vertices(self):
        return range(1 << self.n)

    def edges(self):
        """Edges in lexicographic (vertex, crossing) order."""
        for alpha in range(1 << self.n):
            for c in range(self.n):
                if not alpha >> c & 1:
                    yield alpha, c

    def faces(self):
        """Faces as (alpha, c1, c2) with c1 < c2 both unresolved at alpha."""
        for alpha in range(1 << self.n):
            for c1 in range(self.n):
                if alpha >> c1 & 1:
                    continue
                for c2 in range(c1 + 1, self.n):
                    if not alpha >> c2 & 1:
                        yield alpha, c1, c2

    def _correspondence(self, alpha: int, c: int) -> tuple:
        """Edge (alpha, c)'s shape and, for a split, its parent's position.

        The shape is (kind, target, child0, child1): ``target[i]`` is the
        position of source circle i's image, a split's parent going to
        child0, its first child.  A circle's key is one of its arcs, so it
        names the circle's image; only a split's parent has two.
        """
        if alpha >> c & 1:
            raise ValueError("crossing already resolved at this vertex")
        ra = self.resolution(alpha)
        rb = self.resolution(alpha | 1 << c)
        support = set(ra.slot_circles(c))
        delta = rb.n_circles - ra.n_circles
        target = rb.arc_circles(ra.keys)
        if delta == -1:
            if len(support) != 2:
                raise AssertionError("merge edge must touch two circles")
            return ("merge", target, None, None), None
        if delta == 1:
            if len(support) != 1:
                raise AssertionError("split edge must touch one circle")
            parent = next(iter(support))
            # The child through the (0,3) strand of the new smoothing
            # comes first; swapping the children negates the map.
            child0, child1 = rb.slot_circles(c)[:2]
            if child0 == child1:
                raise AssertionError("split children must differ")
            return ("split", target[:parent] + (child0,) + target[parent + 1:], child0, child1), parent
        raise AssertionError("a saddle changes the circle count by one")

    def edge(self, alpha: int, c: int) -> CubeEdge:
        """The circle correspondence along one edge, built afresh."""
        (kind, target, child0, child1), parent = self._correspondence(alpha, c)
        src, dst = self.resolution(alpha).keys, self.resolution(alpha | 1 << c).keys
        image = dict(zip(src, map(dst.__getitem__, target)))
        if kind == "merge":
            return CubeEdge(alpha, c, kind, image)
        return CubeEdge(alpha, c, kind, image, src[parent], dst[child0], dst[child1])

    def edge_shape(self, alpha: int, c: int) -> int:
        """The id of one edge's shape (see ``__init__``)."""
        if not (0 <= c < self.n and 0 <= alpha < len(self._resolutions)):
            raise ValueError(f"edge {(alpha, c)} is not in the cube")
        i = self._edge_ids[alpha * self.n + c]
        if i < 0:
            raise ValueError("crossing already resolved at this vertex")
        return i

    def edge_table(self, alpha: int, c: int) -> tuple:
        """The image of every source monomial under one edge.

        Entry ``mask`` is a tuple of (coeff, target mask) terms, empty
        when the monomial maps to zero.  Edges of one shape share the
        same tuple.
        """
        return self._tables[self.edge_shape(alpha, c)]

    def face_key(self, alpha: int, c1: int, c2: int) -> tuple:
        """Shape ids of the paths (alpha, c1), (alpha + c1, c2) and (alpha, c2), (alpha + c2, c1)."""
        n, ids = self.n, self._edge_ids
        return ids[alpha * n + c1], ids[(alpha | 1 << c1) * n + c2], ids[alpha * n + c2], ids[(alpha | 1 << c2) * n + c1]

    def edge_terms(self, alpha: int, c: int, mask: int) -> tuple:
        """Image of one basis monomial under one edge, as (coeff, mask) terms."""
        return self.edge_table(alpha, c)[mask]

    def edge_map(self, alpha: int, c: int) -> TqftMap:
        table = self.edge_table(alpha, c)
        columns = {mask: col for mask, col in enumerate(table) if col}
        return TqftMap(self.space(alpha), self.space(alpha | 1 << c), columns)


def _edge_columns(src: ExteriorSpace, dst: ExteriorSpace, e: CubeEdge) -> tuple:
    """One edge's map, column by column over every source mask."""
    if e.kind == "merge":
        terms = (relabel_term(src, dst, e.key_map, mask) for mask in range(src.dim))
        return tuple(() if t is None else (t,) for t in terms)
    return tuple(
        split_terms(src, dst, e.key_map, e.child0, e.child1, mask) for mask in range(src.dim)
    )


def build_cube(diagram: LinkDiagram, theory: str = "y") -> Cube:
    """The resolution cube of a diagram."""
    return Cube(diagram, theory)


@dataclass(frozen=True)
class FaceClass:
    """Shape tag and path-comparison sign of one square face."""

    tag: str
    sigma: int


_FIXED_SIGMA = {"i": 1, "ii": 1, "iv": 1, "v": 1, "vii": -1, "viii": -1}


def _composite(first: tuple, second: tuple, mask: int) -> dict:
    """One path of two edge tables applied to one monomial, as {mask: coeff}."""
    acc: dict[int, int] = {}
    for s, m in first[mask]:
        for t, out in second[m]:
            acc[out] = acc.get(out, 0) + s * t
    return {out: v for out, v in acc.items() if v}


def _path_tables(cube: Cube, alpha: int, first: int, second: int) -> tuple:
    """The two tables along one path of a face, from its base vertex."""
    return cube.edge_table(alpha, first), cube.edge_table(alpha | 1 << first, second)


def _proportionality(p1: dict, p2: dict) -> int:
    if not p1 or not p2 or set(p1) != set(p2):
        raise AssertionError("face paths are not proportional")
    mask = next(iter(p1))
    sigma = 1 if p2[mask] == p1[mask] else -1
    for m, v in p1.items():
        if p2[m] != sigma * v:
            raise AssertionError("face paths are not proportional")
    return sigma


def _interleaving_sign(resolution: Resolution, circle: int, c1: int, c2: int) -> int:
    """Chirality of two interleaved split bands on one circle.

    Walk the circle once; each band's feet must alternate with the
    other's, attach from a single side, and the two bands from opposite
    sides.  The sign combines the cyclic foot order with the side the
    first band attaches on, and is unchanged by reversing the walk or
    renaming the bands.
    """
    feet = [t for t in resolution.circle_transits(circle) if t[0] in (c1, c2)]
    if len(feet) != 4:
        raise AssertionError("each band must meet the circle twice")
    if feet[0][0] != feet[2][0]:
        raise AssertionError("vanishing paths require interleaved feet")
    sides = [transit_side(t) for t in feet]
    if sides[0] != sides[2] or sides[1] != sides[3]:
        raise AssertionError("one band's feet must share a side")
    if sides[0] == sides[1]:
        raise AssertionError("interleaved bands must sit on opposite sides")

    def is_tail(t):
        strand = {t[1], t[2]}
        if strand == {0, 1}:
            return True
        if strand == {2, 3}:
            return False
        raise AssertionError("face crossings sit at their 0-smoothing")

    tails = [is_tail(t) for t in feet]
    for i in (0, 1):
        if tails[i] == tails[i + 2]:
            raise AssertionError("a band has one tail foot and one head foot")
    p = next(i for i in range(4) if feet[i][0] == c1 and tails[i])
    cyclic = 1 if tails[(p + 1) % 4] else -1
    return cyclic * sides[p]


def classify_face(cube: Cube, alpha: int, c1: int, c2: int) -> FaceClass:
    """Sort one face into its shape and report the sign relating its paths.

    `sigma` compares the two edge paths as maps.  For the two shapes
    whose paths both vanish the comparison is empty and the chosen
    theory dictates the sign instead.
    """
    if c1 == c2:
        raise ValueError("a face needs two distinct crossings")
    if c1 > c2:
        c1, c2 = c2, c1
    if (alpha >> c1 | alpha >> c2) & 1:
        raise ValueError("face crossings must be unresolved at the base vertex")
    ra = cube.resolution(alpha)
    s1 = set(ra.slot_circles(c1))
    s2 = set(ra.slot_circles(c2))
    p1 = _composite(*_path_tables(cube, alpha, c1, c2), 0)
    p2 = _composite(*_path_tables(cube, alpha, c2, c1), 0)
    if p1 or p2:
        sigma = _proportionality(p1, p2)
        shared = len(s1 & s2)
        if shared == 0:
            if len(s1) == 2 and len(s2) == 2:
                tag = "i"
            elif len(s1) == 1 and len(s2) == 1:
                tag = "vii"
            else:
                tag = "iv"
        elif len(s1) == 2 and len(s2) == 2:
            tag = "ii" if shared == 1 else ("iii" if sigma == 1 else "ix")
        elif len(s1) == 1 and len(s2) == 1:
            tag = "viii"
        else:
            tag = "v"
        fixed = _FIXED_SIGMA.get(tag)
        if fixed is not None and sigma != fixed:
            raise AssertionError(f"face of shape {tag} compared as {sigma:+d}")
        return FaceClass(tag, sigma)
    if s1 != s2 or len(s1) != 1:
        raise AssertionError("only a double split can have vanishing paths")
    chi = _interleaving_sign(ra, next(iter(s1)), c1, c2)
    tag = "vi" if chi == 1 else "x"
    sigma = chi if cube.theory == "y" else -chi
    return FaceClass(tag, sigma)


def face_edges(alpha: int, c1: int, c2: int):
    """The four edges bounding one face."""
    return (
        (alpha, c1),
        (alpha, c2),
        (alpha | 1 << c1, c2),
        (alpha | 1 << c2, c1),
    )


def _key_sign(cube: Cube, alpha: int, c1: int, c2: int):
    """The sign s with path 1 = s * path 2 on every monomial of the base space.

    The paths of a face are ``(alpha, c1)`` then ``(alpha + c1, c2)``
    and the other way round; both are products of the face's four
    tables, so the answer holds for every face of the same key.  None
    when both paths vanish (shapes vi and x), and 0 when no sign fits:
    then d^2 is not zero on the face whatever the edge signs.
    """
    t1, t2 = _path_tables(cube, alpha, c1, c2)
    u1, u2 = _path_tables(cube, alpha, c2, c1)
    p1, p2 = _composite(t1, t2, 0), _composite(u1, u2, 0)
    if not p2:
        for mask in range(len(t1)):
            if _composite(t1, t2, mask) or _composite(u1, u2, mask):
                return 0
        return None
    out, v = next(iter(p2.items()))
    sigma = 1 if p1.get(out) == v else -1
    # Path 1 minus sigma times path 2, monomial by monomial.
    for mask in range(len(t1)):
        acc: dict[int, int] = {}
        for s, m in t1[mask]:
            for t, out in t2[m]:
                acc[out] = acc.get(out, 0) + s * t
        for s, m in u1[mask]:
            for t, out in u2[m]:
                acc[out] = acc.get(out, 0) - sigma * s * t
        if any(acc.values()):
            return 0
    return sigma


def _face_sign(cube: Cube, alpha: int, c1: int, c2: int) -> int:
    """The path-comparison sign of face (alpha, c1, c2), c1 < c2, once per key.

    A key's first face has the key's sign measured on every monomial
    (``_key_sign``, the d^2 check of all its faces; AssertionError when
    no sign fits) and must classify to it, or ValueError refuses the
    signs; later faces take the cached sign.  Vanishing-path faces
    (shapes vi and x) are classified one by one.
    """
    key = cube.face_key(alpha, c1, c2)
    known = cube._face_sigma
    s = known.get(key, 0)
    if s == 0:
        s = _key_sign(cube, alpha, c1, c2)
        if s == 0:
            raise AssertionError(f"d^2 != 0 on face {(alpha, c1, c2)}")
        known[key] = s
        if s is not None and classify_face(cube, alpha, c1, c2).sigma != s:
            raise ValueError("no coherent edge signs exist")
    return classify_face(cube, alpha, c1, c2).sigma if s is None else s


def _face_sigmas(cube: Cube, faces) -> dict:
    """The sign (``_face_sign``) of each face: a saddle's band faces, or every face."""
    return {f: _face_sign(cube, *f) for f in faces}


def _first_failing_face(cube: Cube, eps: dict):
    """The first face on which d^2 fails for edge signs given as a dict, or None.

    On one face d^2 is path1 * p1 + path2 * p2, with pathk the product
    of the signs along path k and pk its composite.  Where pk is not
    zero this vanishes exactly when p1 = sigma * p2 and path1 * path2 *
    sigma = -1.  The first half is ``_key_sign``, cached per key; the
    second is the sign parity, one product per face.  Vanishing-path
    faces need no parity, since their d^2 is zero for any signs.
    """
    known = cube._face_sigma
    for face in cube.faces():
        key = cube.face_key(*face)
        sigma = known.get(key, 0)
        if sigma == 0:
            sigma = _key_sign(cube, *face)
            if sigma == 0:
                return face
            known[key] = sigma
        if sigma is not None:
            alpha, c1, c2 = face
            path1 = eps[alpha, c1] * eps[alpha | 1 << c1, c2]
            path2 = eps[alpha, c2] * eps[alpha | 1 << c2, c1]
            if path1 * path2 * sigma != -1:
                return face
    return None


def _first_wrong_table(cube: Cube):
    """An edge whose shape table is not its saddle map, or None.

    Each shape table not yet gated is compared, column by column, with
    ``merge_map`` or ``split_map`` built from the circles of the second
    edge seen with that shape (the first if there is no other), so the
    shape must fix the map; a table that passes is not compared again.
    """
    while cube._gated < len(cube._tables):
        alpha, c = cube._sites[cube._gated][-1]
        e = cube.edge(alpha, c)
        src, dst = cube.space(alpha), cube.space(alpha | 1 << c)
        if e.kind == "merge":
            ref = merge_map(src, dst, e.key_map)
        else:
            ref = split_map(src, dst, e.parent, e.child0, e.child1, e.key_map)
        table = cube._tables[cube._gated]
        if len(table) != src.dim or any(col != ref.apply(m) for m, col in enumerate(table)):
            return alpha, c
        cube._gated += 1
    return None


def _canonical_signs(cube: Cube, sign, refusal: str) -> list:
    """The canonical coherent signs for face signs ``sign(alpha, c1, c2)``.

    One flat list, edge (alpha, c) at ``alpha * n + c`` as in
    ``Cube._edge_ids``, from one walk down the cube; see
    ``solve_sign_assignment`` for why it is canonical.  Every vertex
    alpha but the top has a highest unresolved crossing h, and the tree
    edge (alpha, h) reads +1.  Any other unresolved c < h closes the
    face (alpha, c, h), whose edge (alpha + c, h) is a tree edge and
    whose edge (alpha + h, c) was set earlier, so that face holds by
    construction.  Every other face based at alpha is checked once alpha
    is done, so each face's sign is read once.
    """
    n = cube.n
    eps = [0] * (n << n)
    full = (1 << n) - 1
    for alpha in range(full - 1, -1, -1):
        h = (full ^ alpha).bit_length() - 1
        base, up = alpha * n, (alpha | 1 << h) * n
        eps[base + h] = 1
        free = [c for c in range(h) if not alpha >> c & 1]
        for c in free:
            eps[base + c] = -sign(alpha, c, h) * eps[up + c]
        for i, c1 in enumerate(free):
            first, up1 = eps[base + c1], (alpha | 1 << c1) * n
            for c2 in free[i + 1:]:
                path1 = first * eps[up1 + c2]
                path2 = eps[base + c2] * eps[(alpha | 1 << c2) * n + c1]
                if path1 * path2 * sign(alpha, c1, c2) != -1:
                    raise ValueError(refusal)
    return eps


def _solved_signs(cube: Cube) -> list:
    """The canonical signs of ``solve_sign_assignment`` as the flat list."""
    return _canonical_signs(cube, partial(_face_sign, cube), "no coherent edge signs exist")


def _gf2_signs(cube: Cube, pinned: dict) -> tuple:
    """The face system plus one row per pin, solved over GF(2).

    The variables are the edges in (vertex, crossing) order, bit 1
    reading -1.  Returns the edge index, the solution with every free
    variable at +1 (None when there is none) and the null space.
    """
    index = {e: i for i, e in enumerate(cube.edges())}
    # Product of the four edge signs must be -sigma: as bits, the row
    # sums to 1 exactly when sigma is +1.
    rows, rhs = [], []
    for (alpha, c1, c2), sigma in _face_sigmas(cube, cube.faces()).items():
        row = 0
        for e in face_edges(alpha, c1, c2):
            row |= 1 << index[e]
        rows.append(row)
        rhs.append(1 if sigma == 1 else 0)
    for e, v in pinned.items():
        rows.append(1 << index[e])
        rhs.append(1 if v == -1 else 0)
    sol, null = solve_gf2(rows, rhs, len(index))
    return index, sol, null


def solve_sign_assignment(cube: Cube) -> dict:
    """Canonical coherent edge signs.

    The canonical answer is the one lexicographic elimination over
    GF(2) gives, with the edges in (vertex, crossing) order as variables
    and free variables set to +1: a function of the cube alone.  It is
    built without the elimination.  Coherent signs exist and form one
    orbit of the vertex gauge eps(alpha, c) -> g(alpha) eps(alpha, c)
    g(alpha + c) (Ozsvath, Rasmussen and Szabo), so a spanning tree at
    +1 fixes them.  Under lowest-bit elimination the free variables are
    the edges that are the highest edge some gauge flips, and those form
    the maximum spanning tree by edge index: each vertex's edge along
    its highest unresolved crossing.  ``_canonical_signs`` sets that tree
    to +1, fills in the other edges face by face and checks every face
    once (``_face_sign``), in time linear in the number of faces.
    """
    eps = _solved_signs(cube)
    return {(alpha, c): eps[alpha * cube.n + c] for alpha, c in cube.edges()}


def enumerate_sign_assignments(cube: Cube) -> list[dict]:
    """Every coherent edge-sign choice.

    Refuses to expand a solution space larger than 2^20.
    """
    index, sol, null = _gf2_signs(cube, {})
    if sol is None:
        raise ValueError("no coherent edge signs exist")
    if len(null) > 20:
        raise ValueError("sign assignment space too large to enumerate")
    out = []
    for pick in range(1 << len(null)):
        bits = sol
        rest = pick
        i = 0
        while rest:
            if rest & 1:
                bits ^= null[i]
            rest >>= 1
            i += 1
        out.append({e: -1 if bits >> i & 1 else 1 for e, i in index.items()})
    return out


def arrow_flipped_signs(cube: Cube, reversed_crossings) -> dict:
    """Edge signs realizing the other split-ordering arrow at some crossings.

    Reversing the arrow at a crossing swaps the two offspring circles of
    every split along that direction, negating exactly those edge maps
    and flipping the commutation of faces with an odd number of them.
    The canonical signs (see ``solve_sign_assignment``) for the flipped
    face signs are found and the negations folded back in, so assembling
    with the result over the unchanged edge maps yields the reoriented
    theory's differential.
    """
    flip = set(reversed_crossings)
    # The cube ran the edge checks on every edge when it was built, so
    # a split is an edge that adds a circle.
    circles = [cube.resolution(alpha).n_circles for alpha in cube.vertices()]
    negated = {(a, c) for a, c in cube.edges() if c in flip and circles[a | 1 << c] > circles[a]}

    def sign(alpha, c1, c2):
        return (-1) ** len(negated.intersection(face_edges(alpha, c1, c2))) * _face_sign(cube, alpha, c1, c2)

    eps = _canonical_signs(cube, sign, "no coherent edge signs exist for the flipped arrows")
    return {(a, c): (-1 if (a, c) in negated else 1) * eps[a * cube.n + c] for a, c in cube.edges()}


def extend_sign_assignment(cube: Cube, pinned: dict) -> dict:
    """Canonical completion of a partial edge-sign choice.

    The GF(2) solution of the face system with one more row per pin,
    free variables at +1 (``_gf2_signs``); with no pins these are the
    signs of ``solve_sign_assignment``.  Raises ValueError when the pins
    close no coherent assignment, that is when a cycle of pinned edges
    has the wrong parity.
    """
    index, sol, _ = _gf2_signs(cube, pinned)
    if sol is None:
        raise ValueError("pinned signs admit no coherent completion")
    return {e: -1 if sol >> i & 1 else 1 for e, i in index.items()}
