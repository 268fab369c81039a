"""Bundled diagram corpus: table knots, small links, and move pairs.

Knots are built as closures of strand-position words: braid closure for
torus and non-alternating entries, 4-plat closure of alternating twist
words for the two-bridge table.  Orientations are fixed by walking the
closed strands, so the emitted codes always parse.  The test suite
pins every table entry by crossing count, alternation, determinant,
and cross-construction homology, so a wrong entry cannot sit here
silently.  Names follow the standard tables up to mirror image.
"""

from __future__ import annotations

from .linkdiag import LinkDiagram, _find, add_free_circle, insert_kink, mirror, parse_pd

__all__ = [
    "braid_closure",
    "plat_closure",
    "rational_knot",
    "prime_knot",
    "PRIME_KNOT_TWISTS",
    "KNOT_DETERMINANTS",
    "unknot",
    "unlink",
    "hopf_link",
    "left_trefoil",
    "right_trefoil",
    "figure_eight",
    "poked_unlink",
    "torus_knot_8_19",
    "prime_knot_table",
    "reidemeister_pairs",
]

# Twist vectors of the standard alternating two-bridge forms; the
# continued fraction numerator reproduces the determinant column.
PRIME_KNOT_TWISTS = {
    "3_1": (3,),
    "4_1": (2, 2),
    "5_1": (5,),
    "5_2": (3, 2),
    "6_1": (4, 2),
    "6_2": (3, 1, 2),
    "6_3": (2, 1, 1, 2),
    "7_1": (7,),
    "7_2": (5, 2),
    "7_3": (4, 3),
    "7_4": (3, 1, 3),
    "7_5": (3, 2, 2),
    "7_6": (2, 2, 1, 2),
    "7_7": (2, 1, 1, 1, 2),
}

KNOT_DETERMINANTS = {
    "3_1": 3,
    "4_1": 5,
    "5_1": 5,
    "5_2": 7,
    "6_1": 9,
    "6_2": 11,
    "6_3": 13,
    "7_1": 7,
    "7_2": 11,
    "7_3": 13,
    "7_4": 15,
    "7_5": 17,
    "7_6": 19,
    "7_7": 21,
    "8_19": 3,
}

# Rays of a word crossing, counterclockwise; strands run nw-se and
# sw-ne, and positions grow downward so ne continues the upper strand.
_CCW = ("nw", "sw", "se", "ne")
_OPPOSITE = {"nw": "se", "se": "nw", "sw": "ne", "ne": "sw"}


def _weave(word, start_arcs, n_positions):
    cur = dict(start_arcs)
    nxt = max(start_arcs.values()) + 1
    raw = []
    for letter in word:
        p = abs(letter)
        if not 1 <= p < n_positions:
            raise ValueError(f"letter {letter} out of range for {n_positions} strands")
        rays = {"nw": cur[p], "sw": cur[p + 1], "ne": nxt, "se": nxt + 1}
        raw.append([rays, "nwse" if letter > 0 else "swne"])
        cur[p], cur[p + 1] = nxt, nxt + 1
        nxt += 2
    return cur, raw


def _close(raw, joins):
    parent: dict[int, int] = {}
    loops = 0
    for a, b in joins:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            loops += 1
        else:
            parent[ra] = rb
    for rays, _ in raw:
        for ray in rays:
            rays[ray] = _find(parent, rays[ray])
    return loops


def _emit(raw, n_free):
    """Orient the closed strands and write PD tuples, under-in first."""
    occ: dict[int, list] = {}
    for ci, (rays, _) in enumerate(raw):
        for ray, arc in rays.items():
            occ.setdefault(arc, []).append((ci, ray))
    heads: dict[int, tuple] = {}
    for arc0 in sorted(occ):
        if arc0 in heads:
            continue
        arc, into = arc0, occ[arc0][0]
        while arc not in heads:
            heads[arc] = into
            ci, ray = into
            out = _OPPOSITE[ray]
            arc = raw[ci][0][out]
            first, second = occ[arc]
            into = second if first == (ci, out) else first
    crossings = []
    for ci, (rays, over) in enumerate(raw):
        u1, u2 = ("nw", "se") if over == "swne" else ("sw", "ne")
        start = u1 if heads[rays[u1]] == (ci, u1) else u2
        if heads[rays[start]] != (ci, start):
            raise AssertionError(f"crossing {ci} has no incoming under strand")
        i = _CCW.index(start)
        crossings.append(tuple(rays[_CCW[(i + k) % 4]] for k in range(4)))
    base = max((a for c in crossings for a in c), default=0)
    return LinkDiagram(crossings, free_arcs=range(base + 1, base + 1 + n_free))


def braid_closure(word, strands: int) -> LinkDiagram:
    """Closure of a braid word; letter k is a crossing of strands |k|, |k|+1.

    A positive letter puts the strand arriving from the upper left on
    top, which makes closures of positive words positive diagrams.
    """
    start = {p: p for p in range(1, strands + 1)}
    cur, raw = _weave(word, start, strands)
    loops = _close(raw, [(cur[p], start[p]) for p in range(1, strands + 1)])
    return _emit(raw, loops)


def plat_closure(word, strands: int = 4) -> LinkDiagram:
    """Plat closure: caps join positions (1,2), (3,4), ... on both ends."""
    if strands % 2:
        raise ValueError("plat closure needs an even strand count")
    start = {}
    for i in range(strands):
        start[i + 1] = i // 2 + 1
    cur, raw = _weave(word, start, strands)
    joins = [(cur[2 * i + 1], cur[2 * i + 2]) for i in range(strands // 2)]
    loops = _close(raw, joins)
    return _emit(raw, loops)


def rational_knot(twists) -> LinkDiagram:
    """Two-bridge knot of the alternating twist vector, as a 4-plat.

    Regions alternate between the middle pair and the top pair of
    strands, with handedness chosen so the diagram alternates.  A
    trailing top-pair region would sit against the closing cap and
    unwind, so even-length vectors are first rewritten to odd length
    by the continued fraction identities [.., b] = [.., b-1, 1] and
    [.., b, 1] = [.., b+1], which keep the fraction and the crossing
    count.
    """
    tw = [int(b) for b in twists]
    if any(b < 1 for b in tw):
        raise ValueError("twist counts must be positive")
    while tw and len(tw) % 2 == 0:
        if tw[-1] > 1:
            tw[-1] -= 1
            tw.append(1)
        else:
            tw.pop()
            tw[-1] += 1
    word = []
    for i, b in enumerate(tw):
        word.extend([2 if i % 2 == 0 else -1] * b)
    return plat_closure(word)


def prime_knot(name: str) -> LinkDiagram:
    if name == "8_19":
        return torus_knot_8_19()
    return rational_knot(PRIME_KNOT_TWISTS[name])


def prime_knot_table() -> dict[str, LinkDiagram]:
    return {name: prime_knot(name) for name in KNOT_DETERMINANTS}


def unknot() -> LinkDiagram:
    d, _ = add_free_circle(parse_pd([]))
    return d


def unlink(components: int) -> LinkDiagram:
    d = parse_pd([])
    for _ in range(components):
        d, _ = add_free_circle(d)
    return d


def hopf_link(sign: int) -> LinkDiagram:
    if sign > 0:
        return parse_pd([[1, 3, 2, 4], [3, 1, 4, 2]])
    return parse_pd([[1, 4, 2, 3], [3, 2, 4, 1]])


def left_trefoil() -> LinkDiagram:
    return parse_pd([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]])


def right_trefoil() -> LinkDiagram:
    return braid_closure([1, 1, 1], 2)


def figure_eight() -> LinkDiagram:
    return parse_pd([[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]])


def poked_unlink(variant: int) -> LinkDiagram:
    """The two-crossing second-move picture over (+1) or under (-1)."""
    d = parse_pd([[4, 1, 2, 3], [2, 1, 4, 3]])
    return d if variant > 0 else mirror(d)


def torus_knot_8_19() -> LinkDiagram:
    return braid_closure([1, 2] * 4, 3)


def reidemeister_pairs() -> list:
    """Six (label, before, after) pairs, one per move flavor."""
    u = unknot()
    arc = u.free_arcs[0]
    t = left_trefoil()
    return [
        ("r1_positive", u, insert_kink(u, arc, 1)),
        ("r1_negative", u, insert_kink(u, arc, -1)),
        ("r1_on_trefoil", t, insert_kink(t, 1, 1)),
        ("r2_over", unlink(2), poked_unlink(1)),
        ("r2_under", unlink(2), poked_unlink(-1)),
        ("r3_braid", braid_closure([1, 1, 2, 1], 3), braid_closure([1, 2, 1, 2], 3)),
    ]
