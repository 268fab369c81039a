"""Chain maps induced by elementary link cobordisms, and movie evaluation.

Every builder returns a ChainMap between complexes assembled with the
canonical sign choice; the two retractions also accept an assembled
small complex, which they check.  Conventions:

- Births include, deaths contract, dots wedge.  Deaths and dots carry
  the per-vertex sign (-1)^s, with the exponent s from ``s_value``.
- Saddles ride an auxiliary band site.  The band signs are walked from
  +1 at the all-zero resolution across the faces through the band, by
  the vertex-sign walk the retractions and relabelings share, so that
  each such face is coherent with the canonical signs of both ends.  A
  band that joins two link components therefore acts with no signs at
  all.
- Reidemeister 1 and 2 maps are strong deformation retractions: the
  curl or bigon generators are paired along unit edge terms and
  cancelled by Gaussian elimination, one differential at a time,
  through the forced pivot order of ``linalg._eliminate_units``.  The
  survivors are matched onto the small complex with a per-vertex sign
  correction.  The output is deterministic, so repeated builds agree
  on the nose.
- Internal invariants raise AssertionError explicitly, so they hold
  under ``python -O`` too; bad caller input raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ChainComplex,
    ChainMap,
    assemble_complex,
    compose,
    identity_chain_map,
    is_chain_map,
)
from .cube import Cube, _face_sigmas, build_cube
from .linalg import IntMatrix, _back_substitute, _eliminate_units
from .linkdiag import (
    LinkDiagram,
    _check_planar,
    _cut_arcs,
    add_free_circle,
    attach_band,
    delete_free_circle,
    diagram_to_dict,
    insert_kink,
    parse_pd,
    smooth_crossings,
)
from .oddtqft import birth_map, compose as compose_tqft, death_map, dot_map, relabel_map


def s_value(cube: Cube, alpha: int) -> int:
    """Exponent of the sign carried by deaths and dots at one vertex.

    Half of (circles at alpha) + (circles at zero) + (degree of alpha),
    read from the cube's cached resolutions.  The sum is even because
    each 1-bit changes the circle count by exactly one, so the two
    counts differ from each other by the degree mod 2.
    """
    total = (
        cube.resolution(alpha).n_circles
        + cube.resolution(0).n_circles
        + alpha.bit_count()
    )
    if total & 1:
        raise AssertionError("circle counts and degree disagree in parity")
    return total // 2


def _vertexwise(cx_src: ChainComplex, cx_dst: ChainComplex, q_shift: int, factor) -> ChainMap:
    """Assemble a chain map from one state-space map per vertex.

    ``factor(alpha)`` returns (scalar, target vertex, TqftMap); the two
    vertices must sit in the same homological degree.  Masks are shared
    verbatim, which is sound exactly when the circle keys agree, so
    factories check that before handing maps over.
    """
    blocks: dict[int, dict] = {}
    for alpha in cx_src.cube.vertices():
        scalar, beta, fm = factor(alpha)
        if scalar == 0 or fm.is_zero():
            continue
        h = alpha.bit_count() - cx_src.n_minus
        if beta.bit_count() - cx_dst.n_minus != h:
            raise AssertionError(f"vertex {alpha} maps out of homological degree {h}")
        ent = blocks.setdefault(h, {})
        for mask, terms in fm.columns.items():
            j = cx_src.index(h, (alpha, mask))
            for coeff, out in terms:
                ent[cx_dst.index(h, (beta, out)), j] = scalar * coeff
    mats = {h: IntMatrix(cx_dst.dim(h), cx_src.dim(h), e) for h, e in blocks.items()}
    f = ChainMap(cx_src, cx_dst, mats, q_shift)
    if not is_chain_map(f):
        raise AssertionError("vertex maps do not commute with the differentials")
    return f


def birth_cobordism_map(cx: ChainComplex) -> ChainMap:
    """Inclusion into the complex of the diagram plus one free circle."""
    big, arc = add_free_circle(cx.cube.diagram)
    dst = assemble_complex(build_cube(big, cx.cube.theory))

    def factor(alpha):
        sp, tp = cx.cube.space(alpha), dst.cube.space(alpha)
        return 1, alpha, birth_map(sp, tp, arc)

    return _vertexwise(cx, dst, 1, factor)


def death_cobordism_map(cx: ChainComplex, arc: int) -> ChainMap:
    """Contraction against a dying free circle, signed per vertex."""
    d = cx.cube.diagram
    if arc not in d.free_arcs:
        raise ValueError(f"{arc} is not a free circle")
    dst = assemble_complex(build_cube(delete_free_circle(d, arc), cx.cube.theory))

    def factor(alpha):
        sp, tp = cx.cube.space(alpha), dst.cube.space(alpha)
        sign = -1 if s_value(cx.cube, alpha) & 1 else 1
        return sign, alpha, death_map(sp, tp, arc)

    return _vertexwise(cx, dst, 1, factor)


def dot_cobordism_map(cx: ChainComplex, arc: int) -> ChainMap:
    """Wedge by the circle through ``arc``, signed per vertex."""
    if arc not in cx.cube.diagram.arcs:
        raise ValueError(f"unknown arc {arc}")

    def factor(alpha):
        res = cx.cube.resolution(alpha)
        key = res.circle_key(res.arc_circle(arc))
        sign = -1 if s_value(cx.cube, alpha) & 1 else 1
        return sign, alpha, dot_map(cx.cube.space(alpha), key)

    return _vertexwise(cx, cx, -2, factor)


def saddle_cobordism_map(cx: ChainComplex, arc1: int, arc2: int) -> ChainMap:
    """Band surgery between two arcs, or from one arc to itself.

    The band site is the top crossing of the enlarged cube, smoothed 0
    on the source side and 1 on the target side.  Coherence on a face
    (alpha, c, site) through the band gives the band sign b one step
    along c: b(alpha + c) = -sigma * eps_src(alpha, c) * eps_dst(alpha,
    c) * b(alpha), with sigma the face's path sign and eps_src, eps_dst
    the canonical signs of the two complexes.  ``_vertex_signs`` walks
    this rule from b(0) = +1, and every face through the band is then
    checked, so only those faces are classified.
    """
    d = cx.cube.diagram
    banded, site = attach_band(d, arc1, arc2)
    surgered = smooth_crossings(banded, {site: 1})
    try:
        dst = assemble_complex(build_cube(surgered, cx.cube.theory))
        aux = build_cube(banded, cx.cube.theory)
        sigma = _face_sigmas(aux, ((alpha, c, site) for alpha, c in cx.cube.edges()))
    except AssertionError as e:
        raise ValueError(f"no planar band from {arc1} to {arc2}: {e}") from e
    n = cx.cube.n

    def ratio(alpha, c):
        return -sigma[alpha, c, site] * cx.signs[alpha * n + c] * dst.signs[alpha * n + c]

    band = _vertex_signs(cx.cube.vertices(), ratio)
    for alpha, c in cx.cube.edges():
        if band[alpha | 1 << c] != ratio(alpha, c) * band[alpha]:
            raise ValueError(f"band signs from {arc1} to {arc2} fail on face {(alpha, c, site)}")
    bit = 1 << site

    def factor(alpha):
        if aux.space(alpha).keys != cx.cube.space(alpha).keys:
            raise AssertionError(f"band cube and source disagree on circles at {alpha}")
        if aux.space(alpha | bit).keys != dst.cube.space(alpha).keys:
            raise AssertionError(f"band cube and target disagree on circles at {alpha}")
        scalar = band[alpha] * (-1 if alpha.bit_count() & 1 else 1)
        return scalar, alpha, aux.edge_map(alpha, site)

    return _vertexwise(cx, dst, -1, factor)


def _retract(cx: ChainComplex, pairs):
    """Gaussian elimination of unit pairs, as a strong deformation retraction.

    ``pairs`` lists (x, y) with x = (h, j) and y = (h + 1, i) original
    generators joined by a unit differential entry.  A pair starting in
    degree h changes only d_h, so each d_h is eliminated on its own,
    pivoting on its pairs in the given order.  Rows of sources and
    columns of targets eliminated in the neighbouring degrees are cut
    from d_h first: no pivot row or survivor entry depends on them.
    The inclusion of a survivor is the survivor plus eliminated sources,
    chosen so that every pivot row of d_h vanishes on it; the projection
    onto a survivor is the same solve on the transpose, over eliminated
    targets.  Returns (include, project, diff): the inclusion chain and
    the projection functional of each surviving generator, both sparse
    over original indices of its degree, and the survivor differential
    as {(x, y): entry}.
    """
    forced: dict[int, list] = {}
    sources: dict[int, set] = {}
    targets: dict[int, set] = {}
    for (h, j), (_, i) in pairs:
        forced.setdefault(h, []).append((i, j))
        sources.setdefault(h, set()).add(j)
        targets.setdefault(h + 1, set()).add(i)
    include: dict[tuple, dict] = {}
    project: dict[tuple, dict] = {}
    diff: dict[tuple, int] = {}

    def solve(h, pivots, out):
        # Seed each survivor of degree h with itself, then fill in the
        # pivot coordinates; x maps a column to {survivor: coordinate}.
        src, tgt = sources.get(h, ()), targets.get(h, ())
        x = {j: {j: 1} for j in range(cx.dim(h)) if j not in src and j not in tgt}
        for j in x:
            out[h, j] = {}
        _back_substitute(pivots, x)
        for c, coords in x.items():
            for j, v in coords.items():
                out[h, j][c] = v

    degrees = cx.degrees()
    solve(degrees[0], [], project)
    for h in degrees:
        order = forced.get(h, [])
        pivot_cols, cut_rows, cut_cols = sources.get(h, ()), sources.get(h + 1, ()), targets.get(h, ())
        # The kept rows of d_h; on its transpose only the pivot rows are read back.
        kept, dual = {}, {}
        for (i, j), v in cx.differential(h).data.items():
            if i not in cut_rows and j not in cut_cols:
                kept.setdefault(i, {})[j] = v
                if j in pivot_cols:
                    dual.setdefault(j, {})[i] = v
        block, block_rows, block_cols, pivots, _ = _eliminate_units(kept, order=order)
        solve(h, pivots, include)
        for (r, c), v in block.data.items():
            diff[(h, block_cols[c]), (h + 1, block_rows[r])] = v
        solve(h + 1, _eliminate_units(dual, order=[(j, i) for i, j in order])[3], project)
    return include, project, diff


def _squeeze_bits(alpha: int, drop: tuple) -> int:
    """Remove the given bit positions, closing the gaps."""
    for pos in sorted(drop, reverse=True):
        alpha = alpha >> (pos + 1) << pos | alpha & ((1 << pos) - 1)
    return alpha


def _vertex_signs(vertices, ratio) -> dict:
    """One sign per cube vertex, propagated from the all-zero vertex.

    A vertex beta with lowest set bit c takes ``ratio(alpha, c)`` times
    the sign of alpha = beta without c; the caller's ratio checks that
    the two maps it compares along that edge differ only by it.
    """
    eta = {0: 1}
    for beta in sorted(vertices, key=lambda a: a.bit_count()):
        if beta:
            c = (beta & -beta).bit_length() - 1
            alpha = beta ^ (1 << c)
            eta[beta] = ratio(alpha, c) * eta[alpha]
    return eta


def _finish(cx_big: ChainComplex, pairs, cx_small: ChainComplex, translate):
    """Retract along ``pairs`` and match the survivors onto a small complex.

    ``translate`` sends a surviving (alpha, mask) generator of the big
    complex to its small counterpart.  The survivor differential must
    equal the small one up to one sign per small vertex; the signs are
    propagated from the all-zero vertex and then the match is checked
    entry by entry.  Returns (include, project) chain maps.
    """
    incl, proj, diff = _retract(cx_big, pairs)
    to_small: dict[tuple, tuple] = {}
    to_big: dict[tuple, tuple] = {}
    basis = {h: cx_big.basis(h) for h in cx_big.degrees()}
    for x in proj:
        h, i = x
        gen_s = translate(*basis[h][i])
        to_small[x] = gen_s
        to_big[gen_s] = (h, x)
    if len(to_big) != sum(cx_small.dim(h) for h in cx_small.degrees()):
        raise AssertionError("survivors and small generators differ in number")

    def ratio(alpha, c):
        beta = alpha | 1 << c
        coeff, out = cx_small.cube.edge_terms(alpha, c, 0)[0]
        small_val = cx_small.signs[alpha * cx_small.cube.n + c] * coeff
        _, x = to_big[alpha, 0]
        _, y = to_big[beta, out]
        big_val = diff.get((x, y), 0)
        if abs(big_val) != abs(small_val):
            raise AssertionError(f"survivor edge {big_val} does not match {small_val} at vertex {beta}")
        return big_val // small_val

    eta = _vertex_signs(cx_small.cube.vertices(), ratio)

    expected: dict[tuple, int] = {}
    for h in cx_small.degrees():
        gens = cx_small.basis(h)
        tgts = cx_small.basis(h + 1) if cx_small.dim(h + 1) else ()
        for (i, j), v in cx_small.differential(h).data.items():
            expected[gens[j], tgts[i]] = v
    actual: dict[tuple, int] = {}
    for (x, y), v in diff.items():
        gs, gt = to_small[x], to_small[y]
        actual[gs, gt] = v * eta[gs[0]] * eta[gt[0]]
    if actual != expected:
        raise AssertionError("survivor differential does not match the small complex")

    proj_blocks: dict[int, dict] = {}
    incl_blocks: dict[int, dict] = {}
    for gs, (h, x) in to_big.items():
        sgn = eta[gs[0]]
        si = cx_small.index(h, gs)
        pb = proj_blocks.setdefault(h, {})
        for j, v in proj[x].items():
            pb[si, j] = sgn * v
        ib = incl_blocks.setdefault(h, {})
        for j, v in incl[x].items():
            ib[j, si] = sgn * v
    project = ChainMap(
        cx_big,
        cx_small,
        {h: IntMatrix(cx_small.dim(h), cx_big.dim(h), e) for h, e in proj_blocks.items()},
    )
    include = ChainMap(
        cx_small,
        cx_big,
        {h: IntMatrix(cx_big.dim(h), cx_small.dim(h), e) for h, e in incl_blocks.items()},
    )
    if not (is_chain_map(project) and is_chain_map(include)):
        raise AssertionError("retraction maps are not chain maps")
    if compose(project, include) != identity_chain_map(cx_small):
        raise AssertionError("projection after inclusion is not the identity")
    return include, project


def _small_complex(big_cx: ChainComplex, small: LinkDiagram, small_cx, what: str) -> ChainComplex:
    """The complex of ``small``: assembled, or checked if one is passed in."""
    if small_cx is None:
        return assemble_complex(build_cube(small, big_cx.cube.theory))
    if small_cx.cube.diagram != small:
        raise ValueError(f"small complex does not match the {what} diagram")
    return small_cx


def _unit_pair(cx: ChainComplex, alpha: int, c: int, mask: int, need: int, what: str):
    """Pair generator (alpha, mask) with its unit image along edge (alpha, c).

    Only image terms whose mask holds every bit of ``need`` count; there
    must be exactly one, with coefficient +1 or -1.  Returns (x, y) as
    (degree, index) pairs for ``_retract``.
    """
    terms = [t for t in cx.cube.edge_terms(alpha, c, mask) if t[1] & need == need]
    if len(terms) != 1 or abs(terms[0][0]) != 1:
        raise AssertionError(f"{what} is not one unit term")
    h = alpha.bit_count() - cx.n_minus
    return (h, cx.index(h, (alpha, mask))), (h + 1, cx.index(h + 1, (alpha | 1 << c, terms[0][1])))


def _find_kink(diagram: LinkDiagram, arc: int):
    """Locate the curl crossing an arc belongs to.

    Returns (crossing index, curl arc, curl side).  The curl side is the
    smoothing bit whose resolution shows the small circle.  On a kinked
    free circle both arcs repeat; the larger one bounds the curl.
    """
    for k, t in enumerate(diagram.crossings):
        if t.count(arc) < 2:
            continue
        repeated = sorted({a for a in t if t.count(a) == 2})
        loop = repeated[-1]
        slots = tuple(s for s in range(4) if t[s] == loop)
        curl_bit = 0 if slots in ((0, 1), (2, 3)) else 1
        return k, loop, curl_bit
    raise ValueError(f"arc {arc} does not bound a curl")


def kink_retraction(big_cx: ChainComplex, crossing: int, small_cx: ChainComplex | None = None):
    """Deformation retraction across one curl crossing.

    Returns (include, project): include maps the curl-free complex into
    the kinked one and is supported on the resolution carrying the
    curl; project is its one-sided inverse, exact on the nose.
    """
    d = big_cx.cube.diagram
    t = d.crossings[crossing]
    loop = sorted({a for a in t if t.count(a) == 2})
    if not loop:
        raise ValueError(f"crossing {crossing} is not a curl")
    _, loop, curl_bit = _find_kink(d, loop[-1])
    small = smooth_crossings(d, {crossing: 1 - curl_bit})
    small_cx = _small_complex(big_cx, small, small_cx, "unkinked")

    bit = 1 << crossing
    cube = big_cx.cube
    pairs = []
    for alpha in cube.vertices():
        if alpha & bit:
            continue
        sp = cube.space(alpha)
        lbit = (1 << sp.pos[loop]) if curl_bit == 0 else 0
        need = 0 if curl_bit == 0 else 1 << cube.space(alpha | bit).pos[loop]
        for mask in sp.basis():
            if not mask & lbit:  # curl-divisible generators survive on the 0 side
                pairs.append(_unit_pair(big_cx, alpha, crossing, mask, need, f"curl edge at {alpha}"))

    kept_bit = curl_bit

    def translate(alpha, mask):
        if (alpha >> crossing & 1) != kept_bit:
            raise AssertionError(f"survivor at {alpha} lies off the kept slice")
        sp = cube.space(alpha)
        small_alpha = _squeeze_bits(alpha, (crossing,))
        if sp.keys[-1] != loop or small_cx.cube.space(small_alpha).keys != sp.keys[:-1]:
            raise AssertionError("curl key must be the top generator over the small circles")
        lbit = 1 << sp.pos[loop]
        if bool(mask & lbit) != (kept_bit == 0):
            raise AssertionError(f"survivor {mask} at {alpha} has the wrong curl factor")
        return small_alpha, mask & ~lbit

    # degree bookkeeping: the kept slice and the small complex agree.
    if big_cx.n_minus - small_cx.n_minus != curl_bit:
        raise AssertionError("the kept slice and the small complex differ in degree")
    return _finish(big_cx, pairs, small_cx, translate)


def r1_cobordism_map(
    cx: ChainComplex, arc: int, sign: int = 1, direction: str = "do", side: str = "right"
) -> ChainMap:
    """One Reidemeister 1 move as a chain map.

    ``do`` adds a curl of the given sign on ``arc`` and returns the
    inclusion into the kinked complex.  ``side`` throws the curl to
    either side of the strand; the two kinks differ by a half turn of
    the new crossing.  ``undo`` expects ``cx`` to be kinked, identifies
    the curl through ``arc``, and returns the projection; ``sign`` and
    ``side`` are ignored then.
    """
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    if direction == "do":
        kinked = insert_kink(cx.cube.diagram, arc, sign)
        if side == "left":
            # half-turn the curl crossing, keeping the strand flow: the
            # in and out arcs trade places and the tuple rotates by two
            rows = list(kinked.crossings)
            t = rows[-1]
            rows[-1] = (t[2], t[3], t[1], t[0]) if sign == 1 else (t[2], t[0], t[3], t[1])
            kinked = LinkDiagram(rows, free_arcs=kinked.free_arcs, signs=kinked.signs)
        big = assemble_complex(build_cube(kinked, cx.cube.theory))
        include, _ = kink_retraction(big, len(big.cube.diagram.crossings) - 1, cx)
        return include
    if direction == "undo":
        k, _, _ = _find_kink(cx.cube.diagram, arc)
        _, project = kink_retraction(cx, k)
        return project
    raise ValueError(f"unknown direction {direction!r}")


def build_poke(diagram: LinkDiagram, over_arc: int, under_arc: int):
    """Push one strand over another, making a cancelling crossing pair.

    Returns (poked diagram, (over middle arc, under middle arc)); the
    middle arcs bound the new bigon.  The two crossings are appended
    last, the first positive and the second negative.
    """
    if over_arc == under_arc:
        raise ValueError("the two strands must be distinct arcs")
    if diagram.formal:
        raise ValueError("cannot poke a diagram with band sites")
    top = diagram.max_arc()
    a_mid, b_mid = top + 1, top + 2
    rows, free, [(a_in, a_out), (b_in, b_out)] = _cut_arcs(diagram, (over_arc, under_arc), top + 2)
    first = (b_in, a_mid, b_mid, a_in)
    second = (b_mid, a_mid, b_out, a_out)
    poked = LinkDiagram(
        rows + [first, second],
        free_arcs=free,
        signs=diagram.signs + (1, -1),
    )
    return poked, (a_mid, b_mid)


def _bigon_vertices(cx: ChainComplex, arcs: tuple):
    """Locate the crossing pair and smoothings around a bigon.

    Returns (crossing pair, lens bits, braid bits, lens circle key).
    The lens bits are the smoothing of the pair at which the two bigon
    arcs close into their own circle; the braid bits give the smoothing
    where the strands pass straight through.
    """
    d = cx.cube.diagram
    m1, m2 = arcs
    ks = [k for k, t in enumerate(d.crossings) if m1 in t and m2 in t]
    if len(ks) != 2:
        raise ValueError(f"arcs {arcs} do not bound a bigon")
    k1, k2 = ks
    want = frozenset((m1, m2))
    for b1, b2 in ((0, 1), (1, 0)):
        v = b1 << k1 | b2 << k2
        res = cx.cube.resolution(v)
        for idx in range(res.n_circles):
            if frozenset(res.circle_arcs(idx)) == want:
                return (k1, k2), (b1, b2), (1 - b1, 1 - b2), min(m1, m2)
    raise ValueError(f"arcs {arcs} do not close into a circle at either mixed smoothing")


def bigon_retraction(big_cx: ChainComplex, arcs: tuple, small_cx: ChainComplex | None = None):
    """Deformation retraction across a cancelling crossing pair.

    ``arcs`` are the two arcs bounding the bigon being collapsed.
    Returns (include, project) between the poked complex and the one
    where the two strands pass straight through.  A poked diagram has
    two bigons; collapsing the one the poke created inverts the poke,
    collapsing the other transplants the strands.
    """
    (k1, k2), lens, braid, lens_key = _bigon_vertices(big_cx, tuple(arcs))
    d = big_cx.cube.diagram
    small = smooth_crossings(d, {k1: braid[0], k2: braid[1]})
    small_cx = _small_complex(big_cx, small, small_cx, "straightened")

    cube = big_cx.cube
    pair_bits = (1 << k1) | (1 << k2)
    v_lens = lens[0] << k1 | lens[1] << k2
    k_to_lens = k1 if lens[0] else k2
    k_to_full = k2 if lens[0] else k1
    pairs = []
    for alpha in cube.vertices():
        if alpha & pair_bits:
            continue
        spl = cube.space(alpha | v_lens)
        lbit = 1 << spl.pos[lens_key]
        # Round one: every generator at the restored smoothing pairs
        # with its lens-divisible image one step up.
        for mask in cube.space(alpha).basis():
            pairs.append(_unit_pair(big_cx, alpha, k_to_lens, mask, lbit, f"lens edge at {alpha}"))
        # Round two: the lens-free remainder pairs with the fully
        # smoothed slice across the merge that eats the lens circle.
        for mask in spl.basis():
            if not mask & lbit:
                pairs.append(_unit_pair(big_cx, alpha | v_lens, k_to_full, mask, 0, f"merge into the lens at {alpha}"))

    v_braid = braid[0] << k1 | braid[1] << k2
    drop = tuple(sorted((k1, k2)))

    def translate(alpha, mask):
        small_alpha = _squeeze_bits(alpha, drop)
        if (alpha & pair_bits) != v_braid:
            raise AssertionError(f"survivor at {alpha} lies off the braid smoothing")
        if small_cx.cube.space(small_alpha).keys != cube.space(alpha).keys:
            raise AssertionError(f"braid smoothing and small complex disagree on circles at {alpha}")
        return small_alpha, mask

    return _finish(big_cx, pairs, small_cx, translate)


def r2_cobordism_map(cx: ChainComplex, arcs: tuple, direction: str = "do") -> ChainMap:
    """One Reidemeister 2 move as a chain map.

    ``do`` pokes the first arc over the second and returns the
    inclusion into the poked complex, supported on the smoothings where
    the strands pass straight through.  ``undo`` collapses the bigon
    bounded by ``arcs`` in an already poked diagram.
    """
    if direction == "do":
        over_arc, under_arc = arcs
        poked, mids = build_poke(cx.cube.diagram, over_arc, under_arc)
        try:
            _check_planar(poked)
        except ValueError as e:
            raise ValueError(
                f"no planar poke of {over_arc} over {under_arc} with this handedness"
            ) from e
        big = assemble_complex(build_cube(poked, cx.cube.theory))
        include, _ = bigon_retraction(big, mids, cx)
        return include
    if direction == "undo":
        _, project = bigon_retraction(cx, tuple(arcs))
        return project
    raise ValueError(f"unknown direction {direction!r}")


def relabel_chain_iso(cxa: ChainComplex, cxb: ChainComplex, arc_map: dict) -> ChainMap:
    """Chain isomorphism induced by an arc relabeling of the diagram.

    The relabeling must carry the first diagram's crossings onto the
    second's slot by slot.  Circle keys move along; each vertex map
    carries the wedge reordering sign, and a per-vertex correction
    propagated from the all-zero vertex reconciles the two canonical
    sign choices.
    """
    da, db = cxa.cube.diagram, cxb.cube.diagram
    mapped = [tuple(arc_map[a] for a in t) for t in da.crossings]
    if mapped != list(db.crossings) or da.signs != db.signs:
        raise ValueError("arc map does not carry one diagram onto the other")
    if sorted(arc_map[a] for a in da.free_arcs) != sorted(db.free_arcs):
        raise ValueError("free circles do not correspond")

    vmaps = {}
    for alpha in cxa.cube.vertices():
        ra, rb = cxa.cube.resolution(alpha), cxb.cube.resolution(alpha)
        key_map = {}
        for idx in range(ra.n_circles):
            image = {arc_map[x] for x in ra.circle_arcs(idx)}
            key_map[ra.circle_key(idx)] = min(image)
        if sorted(key_map.values()) != sorted(rb.circle_key(i) for i in range(rb.n_circles)):
            raise ValueError(f"arc map does not carry circles onto circles at vertex {alpha}")
        vmaps[alpha] = relabel_map(cxa.cube.space(alpha), cxb.cube.space(alpha), key_map)

    def ratio(alpha, c):
        beta = alpha | 1 << c
        e = alpha * cxa.cube.n + c
        left = compose_tqft(vmaps[beta], cxa.cube.edge_map(alpha, c)).scale(cxa.signs[e])
        right = compose_tqft(cxb.cube.edge_map(alpha, c), vmaps[alpha]).scale(cxb.signs[e])
        mask = next(m for m, terms in sorted(left.columns.items()) if terms)
        coeff_l, out_l = left.columns[mask][0]
        coeff_r = next(v for v, o in right.columns[mask] if o == out_l)
        r = coeff_l * coeff_r
        if r not in (1, -1) or left != right.scale(r):
            raise AssertionError(f"relabeled edge maps differ by more than a sign at {beta}")
        return r

    eta = _vertex_signs(cxa.cube.vertices(), ratio)
    return _vertexwise(cxa, cxb, 0, lambda a: (eta[a], a, vmaps[a]))


@dataclass(frozen=True)
class MovieEvent:
    """One elementary cobordism in a movie script.

    ``kind`` is one of birth, death, saddle, dot, r1, r2.  The arcs
    tuple carries the event's reference points on the current diagram:
    nothing for a birth, the dying circle for a death, the two band
    feet for a saddle, the dotted arc for a dot, the host arc (do) or a
    curl arc (undo) for r1, and the strand pair (do, over strand first)
    or the bigon pair (undo) for r2.
    """

    kind: str
    arcs: tuple = ()
    sign: int = 0
    direction: str = "do"
    side: str = "right"


def birth_event() -> MovieEvent:
    return MovieEvent("birth")


def death_event(arc: int) -> MovieEvent:
    return MovieEvent("death", (arc,))


def saddle_event(arc1: int, arc2: int) -> MovieEvent:
    return MovieEvent("saddle", (arc1, arc2))


def dot_event(arc: int) -> MovieEvent:
    return MovieEvent("dot", (arc,))


def r1_event(arc: int, sign: int = 1, direction: str = "do", side: str = "right") -> MovieEvent:
    # the curl being removed carries its own sign and side, so undo ignores both
    if direction != "do":
        sign, side = 0, "right"
    elif sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return MovieEvent("r1", (arc,), sign, direction, side)


def r2_event(arc1: int, arc2: int, direction: str = "do") -> MovieEvent:
    return MovieEvent("r2", (arc1, arc2), 0, direction)


class MovieError(ValueError):
    """Raised when a movie event cannot be applied; records its index."""

    def __init__(self, index: int, event: MovieEvent, reason: Exception):
        super().__init__(f"event {index} ({event.kind}) failed: {reason}")
        self.index = index
        self.event = event
        self.reason = reason


@dataclass
class MovieResult:
    chain_map: ChainMap
    initial: LinkDiagram
    final: LinkDiagram


def apply_event(cx: ChainComplex, event: MovieEvent) -> ChainMap:
    """The chain map of one event out of the given complex."""
    if event.kind == "birth":
        return birth_cobordism_map(cx)
    if event.kind == "death":
        return death_cobordism_map(cx, event.arcs[0])
    if event.kind == "saddle":
        return saddle_cobordism_map(cx, event.arcs[0], event.arcs[1])
    if event.kind == "dot":
        return dot_cobordism_map(cx, event.arcs[0])
    if event.kind == "r1":
        return r1_cobordism_map(cx, event.arcs[0], event.sign, event.direction, event.side)
    if event.kind == "r2":
        return r2_cobordism_map(cx, event.arcs, event.direction)
    raise ValueError(f"unknown event kind {event.kind!r}")


def evaluate_movie(initial, events, theory: str = "y") -> MovieResult:
    """Compose the chain maps of a movie script left to right.

    ``initial`` is a diagram or an already assembled complex.  Failures
    carry the index of the offending event, except a violated internal
    invariant, whose AssertionError passes through unchanged.
    """
    if isinstance(initial, ChainComplex):
        cx = initial
    else:
        cx = assemble_complex(build_cube(initial, theory))
    start = cx.cube.diagram
    total = identity_chain_map(cx)
    for idx, event in enumerate(events):
        try:
            step = apply_event(total.dst, event)
        except (MovieError, AssertionError):
            raise
        except Exception as e:
            raise MovieError(idx, event, e) from e
        total = compose(step, total)
    return MovieResult(total, start, total.dst.cube.diagram)


def dotted_combination(initial, backbone, placements, theory: str = "y") -> ChainMap:
    """Integer combination of dotted variants of one undotted script.

    ``placements`` is a list of (coefficient, [(position, arc), ...])
    pairs; each variant inserts its dots into the backbone at the given
    event positions.  All variants share the undotted maps because the
    builders are deterministic, so the combination is well defined.
    """
    combined = None
    for coeff, dots in placements:
        events = list(backbone)
        for position, arc in sorted(dots, key=lambda t: -t[0]):
            events.insert(position, dot_event(arc))
        part = evaluate_movie(initial, events, theory).chain_map.scale(coeff)
        combined = part if combined is None else combined + part
    if combined is None:
        raise ValueError("no variants given")
    return combined


# The keys each kind of event reads from its JSON object.
_EVENT_KEYS = {
    "birth": {"type"},
    "death": {"type", "arc"},
    "dot": {"type", "arc"},
    "saddle": {"type", "arcs"},
    "r1": {"type", "arc", "sign", "direction", "side"},
    "r2": {"type", "arcs", "direction"},
}


def event_to_dict(event: MovieEvent) -> dict:
    """The JSON object of an event, with only the keys its kind reads."""
    out: dict = {"type": event.kind}
    if event.kind in ("death", "dot"):
        out["arc"] = event.arcs[0]
    elif event.kind == "saddle":
        out["arcs"] = list(event.arcs)
    elif event.kind == "r1":
        out["arc"] = event.arcs[0]
        out["direction"] = event.direction
        if event.direction == "do":
            out["sign"] = event.sign
            if event.side != "right":
                out["side"] = event.side
    elif event.kind == "r2":
        out["arcs"] = list(event.arcs)
        out["direction"] = event.direction
    return out


def _json_int(value, what: str) -> int:
    """A JSON integer, as ``parse_pd`` takes arc labels: no float, bool or string."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def event_from_dict(data: dict) -> MovieEvent:
    if not isinstance(data, dict):
        raise ValueError(f"an event must be a JSON object, got {data!r}")
    kind = data.get("type")
    keys = _EVENT_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"unknown event type {kind!r}")
    unknown = set(data) - keys
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} for event type {kind!r}")
    if kind == "birth":
        return birth_event()
    if kind == "death":
        return death_event(_json_int(data["arc"], "arc"))
    if kind == "saddle":
        a, b = data["arcs"]
        return saddle_event(_json_int(a, "arc"), _json_int(b, "arc"))
    if kind == "dot":
        return dot_event(_json_int(data["arc"], "arc"))
    if kind == "r1":
        sign = _json_int(data.get("sign", 1), "sign")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        return r1_event(_json_int(data["arc"], "arc"), sign, data.get("direction", "do"), data.get("side", "right"))
    a, b = data["arcs"]
    return r2_event(_json_int(a, "arc"), _json_int(b, "arc"), data.get("direction", "do"))


def script_to_dict(initial: LinkDiagram, events) -> dict:
    return {
        "initial": diagram_to_dict(initial),
        "events": [event_to_dict(e) for e in events],
    }


def script_from_dict(data: dict):
    unknown = set(data) - {"initial", "events"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    initial = parse_pd(data["initial"])
    events = data.get("events", [])
    if not isinstance(events, list):
        raise ValueError(f"events must be a JSON list, got {events!r}")
    events = [event_from_dict(e) for e in events]
    return initial, events
