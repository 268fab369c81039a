"""The signed odd Khovanov complex and its homology.

Flattens a cube with a coherent edge-sign choice into bigraded chain
groups, computes integer homology blockwise from elementary divisors,
and carries the chain-map calculus: composition, comparison up to sign,
integral homotopy decision, and induced maps on homology presentations.
Every reader groups generators by quantum degree through one layout
(``_layout``) and cuts matrices into quantum blocks with one cutter.
No generator is stored: each degree is a list of vertex runs, and
(alpha, mask) is alpha's start plus the mask's rank in the one
``oddtqft.monomial_order`` of alpha's circle count.

Homology tables are computed on half of the complex.  Ozsvath,
Rasmussen and Szabo ("Odd Khovanov homology", AGT 2013) show that over
Z the complex C splits as S plus S shifted by 2 in q, where S = x_a C
is the subcomplex of monomials that hold the circle through a marked
arc a.  The marked arc is the diagram's smallest arc: circle keys are
each circle's smallest arc and exterior spaces sort their keys, so its
circle is bit 0 of every vertex's mask, and S is spanned by the
generators (alpha, mask) with mask & 1.  There is one homology table,
S's: ``homology`` doubles it, or shifts it for reduced homology, and
``reduce_coefficients`` reads mod-p dimensions off it by the universal
coefficient theorem.  Presentations, induced maps and cobordism maps
use the full complex.

Assembly builds no differential.  One placer (``_place``) writes one
source block of d_h at a time from the cube's edge tables, through a
layout that gives each generator a block and a position, as sparse
columns {col: {row: value}}; one entry gate (``_check_entries``) reads
every block back.  ``differential(h)`` places d_h as one block, once,
and keeps it as an ``IntMatrix``.  The homology table places S's
quantum blocks one at a time: a block's columns are the sparse rows of
its transpose, which has the same elementary divisors, and the unit
elimination consumes them before the next block is placed, so no full
differential and no ``IntMatrix`` of a placed block is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .cube import Cube, _first_failing_face, _first_wrong_table, _solved_signs
from .linalg import IntMatrix, _divisors, _products_vanish, _sparse_rows, elementary_divisors, integer_cokernel, integer_kernel, solve_integer
from .oddtqft import monomial_order

__all__ = [
    "ChainComplex",
    "BigradedHomology",
    "ChainMap",
    "HomologyPresentation",
    "assemble_complex",
    "homology",
    "homology_presentation",
    "graded_euler_characteristic",
    "reduce_coefficients",
    "identity_chain_map",
    "zero_chain_map",
    "is_chain_map",
    "compose",
    "equal_up_to_sign",
    "homotopic_up_to_sign",
    "replay_homotopy",
    "induced_map_on_homology",
]


class ChainComplex:
    """Chain groups as vertex runs, one differential per degree.

    ``runs[h]`` lists degree h's (vertex, circle count) pairs in order; a
    vertex with k circles holds the masks of the shared
    ``monomial_order(k)``.  The complex keeps each vertex's start, and
    generator (alpha, mask) is alpha's start plus the mask's rank;
    ``basis(h)`` builds the (vertex, mask) pairs on demand.  Each
    generator has a quantum degree, which the differential preserves.
    ``signs`` is one flat list, edge (alpha, c) at ``alpha * n + c``.
    Differentials given to the constructor are kept as given; an
    assembled complex places each d_h on the first ``differential(h)``
    call and keeps it (see ``assemble_complex``).
    """

    __slots__ = (
        "cube", "signs", "n_minus", "_runs", "_at", "_qdeg", "_given", "_diff", "_layout", "_pres",
        "_blocks",
    )

    def __init__(self, cube: Cube, signs: list, runs: dict, qdeg: dict, diff: dict | None = None):
        self.cube = cube
        self.signs = signs
        self.n_minus = cube.diagram.n_minus
        # Per degree: each run as (vertex, start, mask order, mask ranks),
        # and each vertex's run.
        self._runs, self._at = {}, {}
        for h, r in runs.items():
            starts = accumulate((1 << k for _, k in r), initial=0)
            self._runs[h] = tuple((alpha, s, *monomial_order(k)) for (alpha, k), s in zip(r, starts))
            self._at[h] = {alpha: i for i, (alpha, _) in enumerate(r)}
        self._qdeg = qdeg
        self._given = diff is not None
        self._diff = dict(diff or {})
        self._layout = None
        self._pres: dict[tuple[int, int], HomologyPresentation] = {}
        self._blocks: dict[int, dict[int, IntMatrix]] = {}

    def degrees(self) -> list[int]:
        return sorted(self._runs)

    def dim(self, h: int) -> int:
        return len(self._qdeg.get(h, ()))

    def basis(self, h: int) -> tuple:
        return tuple((alpha, m) for alpha, _, order, _ in self._runs.get(h, ()) for m in order)

    def quantum_degrees(self, h: int) -> tuple:
        return self._qdeg.get(h, ())

    def index(self, h: int, gen) -> int:
        alpha, mask = gen
        _, start, _, rank = self._runs[h][self._at[h][alpha]]
        return start + rank[mask]

    def differential(self, h: int) -> IntMatrix:
        d = self._diff.get(h)
        if d is None:
            if self._given or h not in self._runs or h + 1 not in self._runs:
                return IntMatrix.zero(self.dim(h + 1), self.dim(h))
            columns = _place(self, h, _one_block(self.dim(h)), _one_block(self.dim(h + 1)), 0, {})
            # The gate has read every entry back in range and nonzero.
            d = self._diff[h] = IntMatrix(self.dim(h + 1), self.dim(h))
            d.data = {(r, j): v for j, column in columns.items() for r, v in column.items()}
        return d

    def gradings(self) -> list[tuple[int, int]]:
        return sorted((h, q) for h, block in _layout(self).items() for q in block[0])

    def q_block(self, h: int, q: int) -> list[int]:
        return list(_layout(self).get(h, _EMPTY)[0].get(q, ()))

    def same_shape(self, other: "ChainComplex") -> bool:
        return self._runs == other._runs and self._qdeg == other._qdeg


def assemble_complex(cube: Cube, signs: dict | None = None) -> ChainComplex:
    """Flatten a cube along a coherent edge-sign choice.

    With no signs given the canonical ones are used, from the walk that
    checks d squared on each face as it builds them; given signs must be
    +1 or -1 (ValueError) and pass ``cube._first_failing_face``.  Either way each face is checked once.
    Assembly lays out the chain groups as one run per vertex and runs
    ``_validate``, but builds no differential.  The reader
    decides what ``_place`` writes from the edge tables, and
    ``_check_entries`` reads back every placement:

    - ``differential(h)`` places the full d_h once and keeps it; chain
      maps, presentations, homotopies and ``is_chain_map`` read these;
    - ``homology`` and ``reduce_coefficients`` place only the marked
      half's quantum blocks, one at a time, and build no full
      differential.

    So any face-classification, table, sign or placement error surfaces
    before a matrix is read, not in a homology answer.  A reader that
    touches every ``differential(h)``, as perfbench's traced assembly
    probe does, builds all the full matrices.
    """
    if signs is None:
        eps = _solved_signs(cube)
    else:
        if any(s not in (1, -1) for s in signs.values()):
            raise ValueError("edge signs must be +1 or -1")
        face = _first_failing_face(cube, signs)
        if face is not None:
            raise AssertionError(f"d^2 != 0 on face {face}")
        eps = [0 if alpha >> c & 1 else signs[alpha, c] for alpha in cube.vertices() for c in range(cube.n)]
    nm = cube.diagram.n_minus
    shift_q = cube.diagram.n_plus - 2 * nm
    runs: dict[int, list] = {}
    qdeg: dict[int, list] = {}
    for alpha in cube.vertices():
        h = alpha.bit_count() - nm
        circles = cube.resolution(alpha).n_circles
        runs.setdefault(h, []).append((alpha, circles))
        top = circles + alpha.bit_count() + shift_q
        qdeg.setdefault(h, []).extend(top - 2 * m.bit_count() for m in monomial_order(circles)[0])
    qdeg = {h: tuple(v) for h, v in qdeg.items()}
    cx = ChainComplex(cube, eps, runs, qdeg)
    _validate(cx)
    return cx


def _one_block(n: int) -> tuple:
    """The layout (see ``_layout``) that keeps n generators in one block, in order."""
    each = list(range(n))
    return {0: each}, each, (0,) * n


def _place(c: ChainComplex, h: int, src: tuple, dst: tuple, key, at: dict) -> dict:
    """Source block ``key`` of d_h, as sparse columns {col: {row: value}}.

    ``src`` and ``dst`` are the layouts (see ``_layout``) of degrees h
    and h + 1, which give each generator a block and a position in it.
    The placer walks the block's members in order, moving forward
    through the degree's vertex runs, and writes each member's column
    whole from the cube's shared edge tables, edge by edge in crossing
    order; columns with no entry are left out.  This is the order in
    which d_h's entries have always been read, and the homotopy
    system's pivot order follows it.  ``at``, one cache per degree and
    layout, maps each target vertex to the block position of each of
    its masks.  Every placement is read back by the entry gate
    (``_check_entries``); differentials given by hand are cut (``_cut``)
    and not checked.
    """
    if c._given:
        return _sparse_rows(_cut(c.differential(h), src, dst)[key].transpose())
    cube, signs, dst_pos = c.cube, c.signs, dst[1]
    targets, run_of = c._runs[h + 1], c._at[h + 1]
    runs = iter(c._runs[h])
    end = 0
    columns: dict = {}
    for p, j in enumerate(src[0][key]):
        if j >= end:
            while j >= end:
                alpha, start, order, _ = next(runs)
                end = start + len(order)
            out = []
            for k in range(cube.n):
                if alpha >> k & 1:
                    continue
                beta = alpha | 1 << k
                place = at.get(beta)
                if place is None:
                    _, base, _, rank = targets[run_of[beta]]
                    place = at[beta] = [dst_pos[base + r] for r in rank]
                out.append((signs[alpha * cube.n + k], place, cube.edge_table(alpha, k)))
        mask = order[j - start]
        column = {}
        for e, place, table in out:
            for coeff, m in table[mask]:
                column[place[m]] = e * coeff
        if column:
            columns[p] = column
    _check_entries(c, h, src, dst, key, columns)
    return columns


def _validate(c: ChainComplex) -> None:
    """Raise AssertionError unless the complex is the signed cube.

    d^2 vanishes on every face by the time this runs (see
    ``assemble_complex``).  Every shape table must equal the merge or
    split map of a second edge of its shape (``cube._first_wrong_table``),
    and every differential the complex holds must pass the entry gate
    (``_check_entries``), which also reads each later placement.
    Together the face gate and the entry gate give d^2 = 0 for the
    matrices themselves, and no gate multiplies differentials.
    """
    cube = c.cube
    edge = _first_wrong_table(cube)
    if edge is not None:
        raise AssertionError(f"edge table differs from its saddle map at edge {edge}")
    for h, d in c._diff.items():
        _check_entries(c, h, _one_block(d.cols), _one_block(d.rows), 0, _sparse_rows(d.transpose()))


def _check_entries(c: ChainComplex, h: int, src: tuple, dst: tuple, key, columns: dict) -> None:
    """Raise AssertionError unless ``columns`` is source block ``key`` of d_h.

    ``columns`` holds the block as sparse columns {col: {row: value}} in
    block coordinates of the layouts ``src`` and ``dst`` (see
    ``_place``).  The gate walks the block's members forward through the
    vertex runs, reads each source vertex's edges once per visit, and
    maps each entry back to its target generator through ``dst``'s block
    members, with no search.  Every column and row must lie inside the
    block, and every entry must preserve quantum degree and equal the
    term of the member's image under the cube's edge maps (the edge's
    sign times its table coefficient) at that target.  The columns must
    hold as many entries as the image has terms, summed over the
    block's members, so none was dropped, overwritten or placed outside
    the layouts.
    """
    cube = c.cube
    members, below = src[0][key], dst[0].get(key, ())
    qs, qt = c.quantum_degrees(h), c.quantum_degrees(h + 1)
    targets, run_of = c._runs[h + 1], c._at[h + 1]
    size = len(below)
    if columns and (min(columns) < 0 or max(columns) >= len(members)):
        raise AssertionError(f"differential entry outside its block in degree {h}")
    expected = 0
    runs = iter(c._runs[h])
    end = 0
    for p, j in enumerate(members):
        if j >= end:
            while j >= end:
                alpha, start, basis, _ = next(runs)
                end = start + len(basis)
            # Each edge out of alpha: its sign, table and target run.
            edges = []
            for k in range(cube.n):
                if not alpha >> k & 1:
                    _, base, _, rank = targets[run_of[alpha | 1 << k]]
                    edges.append((c.signs[alpha * cube.n + k], cube.edge_table(alpha, k), base, rank))
        mask = basis[j - start]
        # The member's image, by target generator.
        image = {base + rank[m]: e * coeff for e, table, base, rank in edges for coeff, m in table[mask]}
        expected += len(image)
        column = columns.get(p)
        if not column:
            continue
        if min(column) < 0 or max(column) >= size:
            raise AssertionError(f"differential entry outside its block in degree {h}")
        q = qs[j]
        for r, v in column.items():
            i = below[r]
            if qt[i] != q or image.get(i) != v:
                what = "changes quantum degree" if qt[i] != q else "differs from the edge maps"
                raise AssertionError(f"differential entry {what} in degree {h}")
    found = sum(map(len, columns.values()))
    if found != expected:
        raise AssertionError(f"degree {h} has {found} entries, its edges {expected} terms")


@dataclass(frozen=True)
class BigradedHomology:
    """Homology table mapping (h, q) to (free rank, invariant factors)."""

    table: dict

    def group(self, h: int, q: int) -> tuple:
        return self.table.get((h, q), (0, ()))

    def to_rows(self) -> list[dict]:
        return [
            {"h": h, "q": q, "rank": r, "torsion": list(t)}
            for (h, q), (r, t) in sorted(self.table.items())
        ]


_EMPTY = ({}, (), ())


def _layout(c: ChainComplex, marked: dict | None = None) -> dict:
    """Each degree's quantum blocks: {h: (members, pos, qs)}.

    ``members[q]`` lists the generators of quantum degree q in order,
    ``pos[k]`` is generator k's place in its block and ``qs[k]`` its
    quantum degree.  With ``marked`` (one 0/1 flag per generator of each
    degree) only flagged generators count and the others get -1.  The
    unmarked layout is built once per complex and kept on it.
    """
    if marked is None and c._layout is not None:
        return c._layout
    out = {}
    for h in c.degrees():
        flags = marked and marked[h]
        members: dict[int, list] = {}
        pos = []
        qs = c.quantum_degrees(h)
        for k, q in enumerate(qs):
            if flags is None or flags[k]:
                block = members.setdefault(q, [])
                pos.append(len(block))
                block.append(k)
            else:
                pos.append(-1)
        out[h] = (members, pos, qs)
    if marked is None:
        c._layout = out
    return out


def _cut(m: IntMatrix, src: tuple, dst: tuple, shift: int = 0) -> dict:
    """A matrix that shifts quantum degree by ``shift``, cut into its blocks.

    ``src`` and ``dst`` are the layouts (see ``_layout``) of the source
    and target degrees, None for a degree with no generators.  One pass
    over the nonzeros; each block is keyed by its source quantum degree
    and written in block coordinates.  Columns outside the layout are
    dropped; a kept column must have its rows inside it, as when the
    marked generators span a subcomplex.
    """
    (cols, src_pos, qs), (rows, dst_pos, _) = src or _EMPTY, dst or _EMPTY
    by_q: dict[int, dict] = {q: {} for q in cols}
    for (i, j), v in m.data.items():
        p = src_pos[j]
        if p >= 0:
            by_q[qs[j]][dst_pos[i], p] = v
    return {q: IntMatrix(len(rows.get(q + shift, ())), len(cols[q]), e) for q, e in by_q.items()}


def _marked_layout(c: ChainComplex, bits: dict | None = None) -> dict:
    """The quantum blocks (see ``_layout``) of the marked subcomplex S.

    S is spanned by the generators (alpha, mask) whose mask holds the
    marked circle: bit ``bits[alpha]`` of the mask, or bit 0 for a vertex
    not in ``bits``.  Bit 0 is always the circle through the diagram's
    smallest arc, because circle keys are each circle's smallest arc and
    exterior spaces sort their keys.  A diagram with no arcs has no
    circle to mark; a complex on it has differentials only when built by
    hand, and is kept whole.
    """
    if not c.cube.diagram.arcs:
        return _layout(c)
    bits = bits or {}
    return _layout(c, {
        h: [m >> bits.get(alpha, 0) & 1 for alpha, _, order, _ in c._runs[h] for m in order]
        for h in c.degrees()
    })


def _marked_half(c: ChainComplex, bits: dict | None = None) -> tuple[dict, dict]:
    """Elementary divisors and block sizes of the marked subcomplex S.

    S's (h, q) blocks (see ``_marked_layout``) are placed one at a time,
    straight from the cube, as sparse columns (``_place``, which reads
    them back through ``_check_entries``).  The columns of a block are
    the rows of its transpose, which has the same elementary divisors;
    the unit elimination (``linalg._divisors``) consumes them, and the
    block is gone before the next one is placed.  No full differential
    and no ``IntMatrix`` of a placed block is built.  Returns the divisor
    table of S's (h, q) blocks and the size of each block, in the full
    complex's quantum grading.
    """
    lay = _marked_layout(c, bits)
    divisors = {}
    for h in c.degrees():
        if h + 1 in lay:
            at: dict = {}
            for q in lay[h][0]:
                block = _divisors(_place(c, h, lay[h], lay[h + 1], q, at))
                if block:
                    divisors[h, q] = block
    sizes = {(h, q): len(gens) for h, block in lay.items() for q, gens in block[0].items()}
    return divisors, sizes


def _direct_sum(a: tuple, b: tuple) -> tuple:
    """The elementary divisors of a direct sum of blocks with divisors a and b."""
    tail = [d for d in a + b if d > 1]
    diagonal = {(k, k): d for k, d in enumerate(tail)}
    return (1,) * (len(a) + len(b) - len(tail)) + elementary_divisors(IntMatrix(len(tail), len(tail), diagonal))


def _table(divisors: dict, sizes: dict) -> dict:
    """(free rank, torsion) per (h, q), from block sizes and divisors.

    Free rank is the block size minus the outgoing and incoming ranks;
    torsion is read off the incoming divisors, which is legitimate
    because the torsion of the incoming cokernel already lies in the
    kernel of the outgoing block.
    """
    table = {}
    for (h, q), n in sizes.items():
        incoming = divisors.get((h - 1, q), ())
        free = n - len(divisors.get((h, q), ())) - len(incoming)
        torsion = tuple(d for d in incoming if d > 1)
        if free or torsion:
            table[h, q] = (free, torsion)
    return table


def _homology_table(c: ChainComplex, reduced: bool) -> dict:
    """The table of S, shifted up by 1 in q when ``reduced``, else doubled.

    Doubling adds S's groups at (h, q) and (h, q - 2): free ranks add and
    the torsion of the two is merged into one invariant-factor chain.
    """
    if reduced and not c.cube.diagram.arcs:
        raise ValueError("the empty diagram has no component to mark")
    table = _table(*_marked_half(c))
    if reduced:
        return {(h, q + 1): group for (h, q), group in table.items()}
    if not c.cube.diagram.arcs:
        return table
    doubled = {}
    for h, q in sorted(set(table) | {(h, q + 2) for h, q in table}):
        free, torsion = table.get((h, q), (0, ()))
        below, lifted = table.get((h, q - 2), (0, ()))
        doubled[h, q] = (free + below, tuple(d for d in _direct_sum(torsion, lifted) if d > 1))
    return doubled


def homology(c: ChainComplex, reduced: bool = False) -> BigradedHomology:
    """Integer homology per bigrading.

    Over Z the odd Khovanov complex C splits as S plus S shifted by 2 in
    q (Ozsvath-Rasmussen-Szabo), where S = x_a C is the subcomplex of
    monomials holding the circle through a marked arc a; here a is the
    diagram's smallest arc, whose circle is bit 0 of every mask.  Each
    differential of S is placed one quantum-degree block at a time, each
    block's nonzero elementary divisors are computed once, and S's table
    is read off them.  The table of C is S's table doubled: the group at
    (h, q) is S's group at (h, q) plus S's group at (h, q - 2).

    With ``reduced`` the table is reduced homology instead: S's table,
    shifted up by 1 in q so that the unknot sits at (0, 0).  Homology is
    then the reduced table shifted by +1 plus the reduced table shifted
    by -1 in q.  The empty diagram has no component to mark, and its
    reduced homology is refused with ValueError.
    """
    return BigradedHomology(_homology_table(c, reduced))


def reduce_coefficients(c: ChainComplex, p: int, reduced: bool = False) -> dict:
    """Dimensions of mod-p homology per (h, q), reduced or not.

    Read off the integer table of ``homology`` by the universal
    coefficient theorem: the mod-p group at (h, q) has the free rank
    there plus one dimension for each invariant factor divisible by p at
    (h, q) and at (h + 1, q).  ``p`` must be a prime ``int``; a float or
    bool is refused.
    """
    if type(p) is not int or p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be a prime integer, got {p!r}")
    out: dict = {}
    for (h, q), (free, torsion) in _homology_table(c, reduced).items():
        lifted = sum(1 for d in torsion if d % p == 0)
        for key, n in (((h, q), free + lifted), ((h - 1, q), lifted)):
            if n:
                out[key] = out.get(key, 0) + n
    return out


def graded_euler_characteristic(c: ChainComplex) -> dict:
    """Coefficient dict {q: int} of the graded Euler characteristic."""
    out: dict[int, int] = {}
    for h in c.degrees():
        s = -1 if h & 1 else 1
        for q in c.quantum_degrees(h):
            out[q] = out.get(q, 0) + s
    return {q: v for q, v in out.items() if v}


class ChainMap:
    """A degree-zero map between two complexes, one matrix per degree.

    `q_shift` is the uniform quantum shift of the map; construction
    checks every entry against it, so maps are homogeneous by fiat.
    """

    __slots__ = ("src", "dst", "q_shift", "blocks")

    def __init__(self, src: ChainComplex, dst: ChainComplex, blocks: dict, q_shift: int = 0):
        self.src = src
        self.dst = dst
        self.q_shift = q_shift
        kept = {}
        for h, m in blocks.items():
            if m.rows != dst.dim(h) or m.cols != src.dim(h):
                raise ValueError(f"block at degree {h} has the wrong shape")
            qs = src.quantum_degrees(h)
            qt = dst.quantum_degrees(h)
            for i, j in m.data:
                if qt[i] != qs[j] + q_shift:
                    raise ValueError("chain map entry breaks the quantum shift")
            if m.data:
                kept[h] = m
        self.blocks = kept

    def block(self, h: int) -> IntMatrix:
        b = self.blocks.get(h)
        if b is None:
            return IntMatrix.zero(self.dst.dim(h), self.src.dim(h))
        return b

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.q_shift != other.q_shift:
            return False
        hs = set(self.blocks) | set(other.blocks)
        return all(self.block(h) == other.block(h) for h in hs)

    __hash__ = None

    def scale(self, s: int) -> "ChainMap":
        return ChainMap(
            self.src, self.dst, {h: m.scale(s) for h, m in self.blocks.items()}, self.q_shift
        )

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.q_shift != other.q_shift:
            raise ValueError("quantum shifts differ")
        hs = set(self.blocks) | set(other.blocks)
        return ChainMap(
            self.src, self.dst, {h: self.block(h) + other.block(h) for h in hs}, self.q_shift
        )

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + other.scale(-1)


def identity_chain_map(c: ChainComplex) -> ChainMap:
    return ChainMap(c, c, {h: IntMatrix.identity(c.dim(h)) for h in c.degrees()})


def zero_chain_map(src: ChainComplex, dst: ChainComplex, q_shift: int = 0) -> ChainMap:
    return ChainMap(src, dst, {}, q_shift)


def is_chain_map(f: ChainMap) -> bool:
    """Whether d f - f d vanishes in every degree, with no product matrix built."""
    for h in f.src.degrees():
        if not _products_vanish((1, f.dst.differential(h), f.block(h)), (-1, f.block(h + 1), f.src.differential(h))):
            return False
    return True


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if not f.dst.same_shape(g.src):
        raise ValueError("middle complexes do not match")
    hs = set(f.blocks) | set(g.blocks)
    return ChainMap(
        f.src,
        g.dst,
        {h: g.block(h) * f.block(h) for h in hs},
        f.q_shift + g.q_shift,
    )


def _comparable(f: ChainMap, g: ChainMap) -> None:
    if f.q_shift != g.q_shift:
        raise ValueError("quantum shifts differ")
    if not (f.src.same_shape(g.src) and f.dst.same_shape(g.dst)):
        raise ValueError("complexes do not match")


def equal_up_to_sign(f: ChainMap, g: ChainMap):
    """The sign s with f = s*g, or None."""
    _comparable(f, g)
    for s in (1, -1):
        if all(f.block(h) == g.block(h).scale(s) for h in set(f.blocks) | set(g.blocks)):
            return s
    return None


def homotopic_up_to_sign(f: ChainMap, g: ChainMap):
    """Decide f - s*g = dH + Hd over the integers for s in {+1, -1}.

    Returns (s, H) with the witness H as a dict of degree -1 blocks, or
    (None, None).  One joint integer system covers every degree: its
    variables are the entries of H that respect the quantum shift, and
    its equations the entries of f - s*g that do.
    """
    _comparable(f, g)
    src, dst, shift = f.src, f.dst, f.q_shift
    src_lay, dst_lay = _layout(src), _layout(dst)

    def numbering(k: int) -> dict:
        # Unknowns (k = -1) or equations (k = 0): (h, i, j) for each
        # source generator j of degree h and each partner i of quantum
        # degree q_j + shift in target degree h + k, numbered in order.
        index: dict[tuple[int, int, int], int] = {}
        for h in src.degrees():
            members = dst_lay.get(h + k, _EMPTY)[0]
            for j, q in enumerate(src.quantum_degrees(h)):
                for i in members.get(q + shift, ()):
                    index[h, i, j] = len(index)
        return index

    var_index, rows_of = numbering(-1), numbering(0)
    entries: dict[tuple[int, int], int] = {}
    for h in src.degrees():
        sources, _, qs = src_lay[h]
        targets = dst_lay.get(h, _EMPTY)[0]
        # (dH)[i, j] takes d[i, k] H[k, j] for j of quantum degree q_k - shift.
        qk = dst.quantum_degrees(h - 1)
        for (i, k), v in dst.differential(h - 1).data.items():
            for j in sources.get(qk[k] - shift, ()):
                key = rows_of[h, i, j], var_index[h, k, j]
                entries[key] = entries.get(key, 0) + v
        # (Hd)[i, j] takes H[i, m] d[m, j] for i of quantum degree q_j + shift.
        for (m, j), v in src.differential(h).data.items():
            for i in targets.get(qs[j] + shift, ()):
                key = rows_of[h, i, j], var_index[h + 1, i, m]
                entries[key] = entries.get(key, 0) + v
    system = IntMatrix(len(rows_of), len(var_index), entries)
    for s in (1, -1):
        b = [0] * len(rows_of)
        # ChainMap checks every entry against the quantum shift, so each
        # entry of f - s*g has an equation.
        for h in set(f.blocks) | set(g.blocks):
            for (i, j), v in (f.block(h) - g.block(h).scale(s)).data.items():
                b[rows_of[h, i, j]] = v
        sol = solve_integer(system, b)
        if sol is None:
            continue
        witness: dict[int, dict] = {}
        for (h, k, j), col in var_index.items():
            if sol[col]:
                witness.setdefault(h, {})[k, j] = sol[col]
        H = {
            h: IntMatrix(dst.dim(h - 1), src.dim(h), data)
            for h, data in witness.items()
        }
        return s, H
    return None, None


def replay_homotopy(f: ChainMap, g: ChainMap, s: int, H: dict) -> int | None:
    """Recheck a witness of f - s*g = dH + Hd, degree by degree.

    Every degree of the source complex and of the blocks of f, g and H
    is checked, with missing blocks read as zero.  Returns the first
    degree where the identity fails, or None when the witness replays.
    """
    _comparable(f, g)
    degrees = set(f.src.degrees()) | set(f.blocks) | set(g.blocks) | set(H) | {h - 1 for h in H}
    for h in sorted(degrees):
        lhs = f.block(h) - g.block(h).scale(s)
        rhs = IntMatrix.zero(lhs.rows, lhs.cols)
        if h in H:
            rhs = rhs + f.dst.differential(h - 1) * H[h]
        if h + 1 in H:
            rhs = rhs + H[h + 1] * f.src.differential(h)
        if lhs != rhs:
            return h
    return None


class HomologyPresentation:
    """One (h, q) homology group with explicit cycle generators.

    `orders` holds the invariant factor for each torsion generator and
    0 for each free one; generators are dense vectors in the q-block's
    coordinates.  The cycles have a Z-basis K with left inverse L, and
    homology is the cokernel of the relations L*incoming over K.
    """

    __slots__ = ("orders", "_outgoing", "_coords", "_gens")

    def __init__(self, incoming: IntMatrix, outgoing: IntMatrix):
        if not _products_vanish((1, outgoing, incoming)):
            raise AssertionError("incoming image must land in the kernel")
        kernel, left = integer_kernel(outgoing)
        orders, coords, gens = integer_cokernel(left * incoming)
        self.orders = orders
        self._outgoing = outgoing
        self._coords = coords * left
        self._gens = kernel * gens

    def generator(self, i: int) -> list[int]:
        return self._gens.column(i)

    def coords(self, vec: list[int]) -> list[int]:
        """Coordinates of a cycle over the generators."""
        if any(self._outgoing.apply(vec)):
            raise ValueError("vector is not a cycle in this block")
        return [w % d if d else w for w, d in zip(self._coords.apply(vec), self.orders)]


def homology_presentation(c: ChainComplex, h: int, q: int) -> HomologyPresentation:
    pres = c._pres.get((h, q))
    if pres is None:
        if not c._blocks:
            lay = _layout(c)
            c._blocks = {k: _cut(c.differential(k), here, lay.get(k + 1)) for k, here in lay.items()}
        outgoing = c._blocks.get(h, {}).get(q, IntMatrix.zero(0, 0))
        incoming = c._blocks.get(h - 1, {}).get(q, IntMatrix.zero(outgoing.cols, 0))
        pres = HomologyPresentation(incoming, outgoing)
        c._pres[h, q] = pres
    return pres


def induced_map_on_homology(f: ChainMap) -> dict:
    """Matrices of the induced map, per bigrading, in presentation coordinates.

    Keys run over the source gradings with nonzero homology; torsion
    target coordinates are reduced into [0, order).
    """
    if not is_chain_map(f):
        raise ValueError("not a chain map")
    dst_lay = _layout(f.dst)
    blocks = {h: _cut(f.block(h), here, dst_lay.get(h), f.q_shift) for h, here in _layout(f.src).items()}
    out = {}
    for h, q in f.src.gradings():
        ps = homology_presentation(f.src, h, q)
        if not ps.orders:
            continue
        pd = homology_presentation(f.dst, h, q + f.q_shift)
        entries = {}
        for j in range(len(ps.orders)):
            image = blocks[h][q].apply(ps.generator(j))
            for i, v in enumerate(pd.coords(image)):
                if v:
                    entries[i, j] = v
        out[h, q] = IntMatrix(len(pd.orders), len(ps.orders), entries)
    return out
