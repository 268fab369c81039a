"""The hypercube of smoothings of a link diagram.

Vertices carry exterior state spaces, edges carry merge or split maps,
and square faces are sorted into the ten shapes that determine how the
two paths around them compare.  Coherent edge signs are then built by
doubling the cube one crossing at a time and brought into one canonical
vertex gauge; GF(2) elimination remains only to enumerate every
coherent choice.  Gradings and differentials live one level up.

An edge map depends only on its shape: where each source generator
lands in the target space and, for a split, where the two offspring
land.  The cube builds one table per shape, the image of every source
monomial indexed by its mask, and every edge of that shape reads the
same table.  A 10-crossing cube has thousands of edges but on the
order of a hundred shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import solve_gf2
from .linkdiag import LinkDiagram, Resolution, resolve, transit_side
from .oddtqft import ExteriorSpace, TqftMap, relabel_term, split_terms, vertex_space

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

    Resolutions and state spaces are derived on demand and cached.  The
    one per-edge cache is the edge's shape table (see ``edge_table``):
    the checks of ``edge`` run once for every edge when its table is
    looked up, and edges of the same shape share one table, so the cube
    keeps no per-edge key correspondence.  `theory` fixes the sign
    convention for the two interleaved face shapes and affects nothing
    else.
    """

    __slots__ = ("diagram", "n", "theory", "_resolutions", "_spaces", "_tables", "_shapes")

    def __init__(self, diagram: LinkDiagram, theory: str = "y"):
        if theory not in ("x", "y"):
            raise ValueError("theory must be 'x' or 'y'")
        self.diagram = diagram
        self.n = len(diagram.crossings)
        self.theory = theory
        self._resolutions: dict[int, Resolution] = {}
        self._spaces: dict[int, ExteriorSpace] = {}
        self._tables: dict[tuple[int, int], tuple] = {}
        self._shapes: dict[tuple, tuple] = {}

    def resolution(self, alpha: int) -> Resolution:
        r = self._resolutions.get(alpha)
        if r is None:
            r = resolve(self.diagram, alpha)
            self._resolutions[alpha] = r
        return r

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

    def edge(self, alpha: int, c: int) -> CubeEdge:
        """The circle correspondence along one edge, built afresh."""
        if alpha >> c & 1:
            raise ValueError("crossing already resolved at this vertex")
        ra = self.resolution(alpha)
        rb = self.resolution(alpha | 1 << c)
        support = {ra.slot_circle[c, s] for s in range(4)}
        delta = rb.n_circles - ra.n_circles
        if delta == -1:
            if len(support) != 2:
                raise AssertionError("merge edge must touch two circles")
            key_map = {}
            for i in range(ra.n_circles):
                arc = ra.circle_arcs(i)[0]
                key_map[ra.circle_key(i)] = rb.circle_key(rb.arc_circle[arc])
            return CubeEdge(alpha, c, "merge", key_map)
        if delta == 1:
            if len(support) != 1:
                raise AssertionError("split edge must touch one circle")
            parent_idx = next(iter(support))
            parent = ra.circle_key(parent_idx)
            # The child through the (0,3) strand of the new smoothing
            # comes first; swapping the children negates the map.
            child0 = rb.circle_key(rb.slot_circle[c, 0])
            child1 = rb.circle_key(rb.slot_circle[c, 1])
            if child0 == child1:
                raise AssertionError("split children must differ")
            lift = {parent: child0}
            for i in range(ra.n_circles):
                if i == parent_idx:
                    continue
                arc = ra.circle_arcs(i)[0]
                lift[ra.circle_key(i)] = rb.circle_key(rb.arc_circle[arc])
            return CubeEdge(alpha, c, "split", lift, parent, child0, child1)
        raise AssertionError("a saddle changes the circle count by one")

    def edge_table(self, alpha: int, c: int) -> tuple:
        """The image of every source monomial under one edge.

        Entry ``mask`` is a tuple of (coeff, target mask) terms, empty
        when the monomial maps to zero.  The table is keyed by the
        edge's shape: the target position of each source generator in
        order, and for a split the positions of both offspring.  Edges
        of one shape share the same tuple.
        """
        t = self._tables.get((alpha, c))
        if t is None:
            e = self.edge(alpha, c)
            src = self.space(alpha)
            dst = self.space(alpha | 1 << c)
            pos = dst.pos
            shape = (e.kind, tuple(pos[e.key_map[k]] for k in src.keys))
            if e.kind == "split":
                shape += (pos[e.child0], pos[e.child1])
            t = self._shapes.get(shape)
            if t is None:
                t = self._shapes[shape] = _edge_columns(src, dst, e)
            self._tables[alpha, c] = t
        return t

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


def _unit_composite(cube: Cube, alpha: int, first: int, second: int) -> dict:
    """Both edges of one path applied to the unit monomial."""
    vec = {0: 1}
    for a, c in ((alpha, first), (alpha | 1 << first, second)):
        table = cube.edge_table(a, c)
        nxt: dict[int, int] = {}
        for mask, coeff in vec.items():
            for s, out in table[mask]:
                v = nxt.get(out, 0) + coeff * s
                if v:
                    nxt[out] = v
                elif out in nxt:
                    del nxt[out]
        vec = nxt
    return vec


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
    s1 = {ra.slot_circle[c1, s] for s in range(4)}
    s2 = {ra.slot_circle[c2, s] for s in range(4)}
    p1 = _unit_composite(cube, alpha, c1, c2)
    p2 = _unit_composite(cube, alpha, c2, c1)
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


def _face_sigmas(cube: Cube) -> dict:
    """The path-comparison sign of every face, each face classified once."""
    return {f: classify_face(cube, *f).sigma for f in cube.faces()}


def _doubled_signs(cube: Cube, sigma) -> dict:
    """Signs built by doubling the cube one crossing at a time.

    Edges along the new direction from the old half all get +1; these
    edges form a spanning tree of the cube.  Each copied edge picks up
    the sign that closes its mixed face, read from ``sigma(alpha, c1,
    c2)``.  Nothing is checked here.
    """
    eps: dict[tuple[int, int], int] = {}
    for k in range(cube.n):
        top = 1 << k
        for alpha in range(top):
            eps[alpha, k] = 1
        for alpha in range(top):
            for c in range(k):
                if not alpha >> c & 1:
                    eps[alpha | top, c] = -sigma(alpha, c, k) * eps[alpha, c]
    return eps


def _canonical_signs(cube: Cube, sigma: dict, pinned: dict, refusal: str) -> dict:
    """The canonical coherent signs for face signs ``sigma`` and pins.

    See ``solve_sign_assignment`` for what makes them canonical.
    """
    eps = _doubled_signs(cube, lambda a, c1, c2: sigma[a, c1, c2])
    # With the doubling tree at +1 the doubled signs are the only
    # candidate, so one failing face means no coherent signs exist.
    for (alpha, c1, c2), s in sigma.items():
        path1 = eps[alpha, c1] * eps[alpha | 1 << c1, c2]
        path2 = eps[alpha, c2] * eps[alpha | 1 << c2, c1]
        if path1 * path2 * s != -1:
            raise ValueError(refusal)
    # Vertex gauge g, kept in a union-find over the vertices: rel[v] is
    # g(v) * g(parent[v]).  An edge (alpha, c) joining u and v reads
    # eps * g(u) * g(v) after the gauge.
    parent = list(range(1 << cube.n))
    rel = [1] * (1 << cube.n)

    def find(v: int) -> int:
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        s = 1
        for u in reversed(path):
            s *= rel[u]
            parent[u] = v
            rel[u] = s
        return v

    def unite(e, reads: int) -> bool:
        u, v = e[0], e[0] | 1 << e[1]
        ru, rv = find(u), find(v)
        want = eps[e] * reads * rel[u] * rel[v]
        if ru == rv:
            return want == 1
        parent[rv] = ru
        rel[rv] = want
        return True

    for e in sorted(pinned):
        if not unite(e, pinned[e]):
            raise ValueError(refusal)
    edges = list(cube.edges())
    for e in reversed(edges):
        unite(e, 1)
    for v in range(1 << cube.n):
        find(v)
    return {e: eps[e] * rel[e[0]] * rel[e[0] | 1 << e[1]] for e in edges}


def solve_sign_assignment(cube: Cube) -> dict:
    """Canonical coherent edge signs.

    The canonical answer is the one lexicographic elimination over
    GF(2) gives, with the edges in (vertex, crossing) order as variables
    and free variables set to +1: a function of the cube alone.  It is
    built without the elimination.  Each face is classified once, the
    doubling of ``_doubled_signs`` gives the candidate, and the
    candidate is checked on every face.  Coherent signs form one orbit
    of the vertex gauge eps(alpha, c) -> g(alpha) eps(alpha, c)
    g(alpha + c).  Under lowest-bit elimination the free variables are
    the edges that are the highest edge some gauge flips, and those form
    the maximum spanning forest by edge index: Kruskal from the last
    edge down, with pinned edges joined first.  Flipping vertex signs so
    that forest edges read +1 (and pinned edges their pins) gives the
    canonical answer in time linear in the number of faces.
    """
    return _canonical_signs(cube, _face_sigmas(cube), {}, "no coherent edge signs exist")


def enumerate_sign_assignments(cube: Cube) -> list[dict]:
    """Every coherent edge-sign choice.

    Refuses to expand a solution space larger than 2^20.
    """
    index = {e: i for i, e in enumerate(cube.edges())}
    # Product of the four edge signs must be -sigma: as bits, the row
    # sums to 1 exactly when sigma is +1.
    rows, rhs = [], []
    for (alpha, c1, c2), sigma in _face_sigmas(cube).items():
        row = 0
        for e in face_edges(alpha, c1, c2):
            row |= 1 << index[e]
        rows.append(row)
        rhs.append(1 if sigma == 1 else 0)
    sol, null = solve_gf2(rows, rhs, len(index))
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
    negated = {e for e in cube.edges() if e[1] in flip and cube.edge(*e).kind == "split"}
    sigma = _face_sigmas(cube)
    for f in sigma:
        if len(negated.intersection(face_edges(*f))) % 2:
            sigma[f] = -sigma[f]
    eps = _canonical_signs(cube, sigma, {}, "no coherent edge signs exist for the flipped arrows")
    return {e: -v if e in negated else v for e, v in eps.items()}


def extend_sign_assignment(cube: Cube, pinned: dict) -> dict:
    """Canonical completion of a partial edge-sign choice.

    The canonical signs of ``solve_sign_assignment`` with the pinned
    edges fixed as well: the forest that the gauge fix sets to +1 grows
    from the pinned edges.  Raises ValueError when the pins close no
    coherent assignment, that is when a cycle of pinned edges has the
    wrong parity.
    """
    return _canonical_signs(cube, _face_sigmas(cube), pinned, "pinned signs admit no coherent completion")
