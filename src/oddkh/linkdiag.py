"""Planar diagram codes, oriented link diagrams, and their smoothings.

A crossing is a 4-tuple of arc labels listed counterclockwise starting
from the incoming understrand, so the understrand runs from slot 0 to
slot 2 and the overstrand occupies slots 1 and 3.  A crossing is
positive exactly when the overstrand enters at slot 3.

A diagram holds its incidence once, in flat slot tables with slot s of
crossing c at index 4c + s: the arc at each slot and the slot at that
arc's other end.  Orientations are not part of the input; a walk along
each strand over those tables (straight through a crossing is slot
``head ^ 2``) reconstructs them from the understrand constraints, records
the slot each arc's flow leaves from (``_arc_start``), and crossing
signs fall out of that.  Diagrams may carry extra "formal" crossings
(band sites produced by surgery) which have no over/under data and end
the strands that reach them.  Planarity is checked and arcs are cut on
the same tables.

A smoothing is walked over the slot tables too.  A cube keeps one
``Resolution`` per vertex, so a resolution stores only its circle keys
and two byte tables, the circle of every slot and of every arc, and
walks a circle's arcs and transits again when they are asked for.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "LinkDiagram",
    "Resolution",
    "parse_pd",
    "diagram_to_dict",
    "writhe",
    "resolve",
    "transit_side",
    "mirror",
    "insert_kink",
    "attach_band",
    "smooth_crossings",
    "add_free_circle",
    "delete_free_circle",
    "cable",
]


class LinkDiagram:
    """An oriented link diagram given by its crossing list.

    Parameters
    ----------
    crossings : sequence of 4-tuples of int
        Arc labels, counterclockwise from the incoming understrand.
    free_arcs : sequence of int
        Labels of crossingless unknot components, disjoint from the
        labels used in ``crossings``.
    signs : sequence of int, optional
        Expected crossing signs (+1, -1, and 0 at formal positions).
        When given they pin any components the understrand constraints
        leave free, and every inferable sign is checked against them.
    formal : collection of int
        Indices of crossings that are band sites rather than genuine
        crossings; these get sign 0 and impose no orientation
        constraints.

    The incidence is held once, slot s of crossing c at 4c + s:
    ``_arc_pos`` maps an arc to its position in ``arcs``, ``_slot_arc``
    gives the position of the arc at each slot and ``_slot_end`` the
    slot at that arc's other end.  ``_arc_start`` gives, for each arc,
    the slot its flow leaves from, as the strand walk of ``_orient``
    finds it, and -1 for a free circle.  An arc with no flow keeps its
    first slot there and is listed in ``_undirected``, as are the free
    circles.
    """

    __slots__ = (
        "crossings",
        "free_arcs",
        "formal",
        "signs",
        "n",
        "arcs",
        "components",
        "n_plus",
        "n_minus",
        "writhe",
        "_arc_pos",
        "_slot_arc",
        "_slot_end",
        "_arc_start",
        "_undirected",
    )

    def __init__(self, crossings, free_arcs=(), signs=None, formal=()):
        self.crossings = tuple(tuple(c) for c in crossings)
        self.free_arcs = tuple(sorted(free_arcs))
        self.formal = frozenset(formal)
        self.n = len(self.crossings)
        for c in self.crossings:
            if len(c) != 4 or not all(isinstance(a, int) for a in c):
                raise ValueError(f"crossing {c!r} is not a 4-tuple of ints")
        for i in self.formal:
            if not (0 <= i < self.n):
                raise ValueError(f"formal index {i} out of range")

        count = Counter(a for c in self.crossings for a in c)
        for arc, k in count.items():
            if k != 2:
                raise ValueError(f"arc {arc} appears {k} times, expected 2")
        for arc in self.free_arcs:
            if arc in count:
                raise ValueError(f"free arc {arc} also appears at a crossing")
        if len(set(self.free_arcs)) != len(self.free_arcs):
            raise ValueError("duplicate free arc label")
        self.arcs = tuple(sorted(count)) + self.free_arcs
        self._arc_pos = pos = {a: i for i, a in enumerate(self.arcs)}
        self._slot_arc = tuple(pos[a] for c in self.crossings for a in c)
        # Each arc's first slot; the second one pairs the two ends.
        first = [-1] * len(self.arcs)
        end = [0] * (4 * self.n)
        for t, i in enumerate(self._slot_arc):
            u = first[i]
            if u < 0:
                first[i] = t
            else:
                end[t], end[u] = u, t
        self._slot_end = tuple(end)

        given = None
        if signs is not None:
            given = tuple(signs)
            if len(given) != self.n:
                raise ValueError("signs length mismatch")
            for i, s in enumerate(given):
                want_formal = i in self.formal
                if want_formal and s != 0:
                    raise ValueError(f"formal crossing {i} must have sign 0")
                if not want_formal and s not in (1, -1):
                    raise ValueError(f"crossing {i} sign must be +1 or -1")

        inferred = self._orient(given, first)
        if given is not None:
            for i in range(self.n):
                if inferred[i] is not None and inferred[i] != given[i]:
                    raise ValueError(
                        f"crossing {i} has sign {inferred[i]}, {given[i]} was declared"
                    )
        for i in range(self.n):
            if inferred[i] is None:
                raise ValueError(
                    f"sign of crossing {i} is underdetermined; pass signs explicitly"
                )
        self.signs = tuple(inferred)
        self.n_plus = sum(1 for s in self.signs if s == 1)
        self.n_minus = sum(1 for s in self.signs if s == -1)
        self.writhe = self.n_plus - self.n_minus

    def max_arc(self) -> int:
        return max(self.arcs) if self.arcs else 0

    def _orient(self, given, first):
        """Walk each strand over the slot tables, fix its flow, read off signs.

        Straight through a real crossing is ``head ^ 2``; a band site ends
        an open path.  Open paths are walked first, from the loose ends of
        the band sites, then each closed strand from the first slot of its
        smallest arc.  A strand's flow is the walk direction (+1) or its
        reverse (-1): passing under at slot 0 or 2 votes for it, else a
        declared sign at an overpass pins it, else a closed strand flows
        the way it was walked and an open path stays undirected.  Sets
        ``_arc_start``, ``_undirected`` and ``components``, and returns
        the sign of every crossing, None where no flow fixes it.
        """
        end, slot_arc, formal = self._slot_end, self._slot_arc, self.formal
        starts = first[:]
        seen = bytearray(len(self.arcs))
        undirected = set(range(len(self.arcs) - len(self.free_arcs), len(self.arcs)))
        sign: list[int | None] = [0 if i in formal else None for i in range(self.n)]
        components = [frozenset([arc]) for arc in self.free_arcs]

        loose = [4 * c + s for c in sorted(formal) for s in range(4)]
        for start in loose + first[: len(first) - len(self.free_arcs)]:
            if seen[slot_arc[start]]:
                continue
            tails, overs, votes, pins = [], [], set(), set()
            tail, closed = start, False
            while not closed:
                seen[slot_arc[tail]] = 1
                tails.append(tail)
                head = end[tail]
                c, s = head >> 2, head & 3
                if c in formal:
                    break
                if s & 1:
                    overs.append(head)
                    if given is not None:
                        pins.add(given[c] * (s - 2))
                else:
                    votes.add(1 - s)
                tail = head ^ 2
                closed = tail == start
            if len(votes) > 1:
                raise ValueError("inconsistent understrand directions")
            if not votes and len(pins) > 1:
                raise ValueError("declared signs conflict along a strand")
            direction = (votes or pins or {int(closed)}).pop()
            if direction:
                for t in tails:
                    starts[slot_arc[t]] = t if direction == 1 else end[t]
                for head in overs:
                    sign[head >> 2] = direction * ((head & 3) - 2)
            else:
                undirected.update(slot_arc[t] for t in tails)
            components.append(frozenset(self.arcs[slot_arc[t]] for t in tails))

        self._arc_start = tuple(starts)
        self._undirected = frozenset(undirected)
        self.components = tuple(sorted(components, key=min))
        return sign

    def self_writhe(self, component: frozenset[int]) -> int:
        """Signed count of the crossings a component makes with itself."""
        total = 0
        for ci, cr in enumerate(self.crossings):
            if ci in self.formal:
                continue
            if cr[0] in component and cr[1] in component:
                total += self.signs[ci]
        return total

    def __eq__(self, other):
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return (
            self.crossings == other.crossings
            and self.free_arcs == other.free_arcs
            and self.formal == other.formal
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.crossings, self.free_arcs, self.formal, self.signs))

    def __repr__(self):
        extra = f", free={len(self.free_arcs)}" if self.free_arcs else ""
        return f"LinkDiagram({self.n} crossings{extra}, writhe {self.writhe})"


def parse_pd(data, signs=None, free_circles=0) -> LinkDiagram:
    """Build a diagram from a PD code.

    Accepts either a list of crossing 4-tuples or a dict with keys
    ``pd`` and optionally ``signs`` and ``free_circles``.  Free circles
    get fresh arc labels above everything used by the crossings.  Arc
    labels, signs and ``free_circles`` must be ints; a float or bool is
    refused.
    """
    if isinstance(data, dict):
        unknown = set(data) - {"pd", "signs", "free_circles"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        pd = data["pd"]
        signs = data.get("signs", signs)
        free_circles = data.get("free_circles", free_circles)
    else:
        pd = data
    pd = [tuple(row) for row in pd]
    if not all(type(a) is int for row in pd for a in row):
        raise ValueError("arc labels must be integers")
    if signs is not None and not all(type(s) is int for s in signs):
        raise ValueError("signs must be integers")
    if type(free_circles) is not int or free_circles < 0:
        raise ValueError(f"free_circles must be a nonnegative integer, got {free_circles!r}")
    top = max((a for row in pd for a in row), default=0)
    free = tuple(top + 1 + i for i in range(free_circles))
    diagram = LinkDiagram(pd, free_arcs=free, signs=signs)
    _check_planar(diagram)
    return diagram


def _find(parent: dict, x):
    """The root of ``x`` in a union-find forest; a missing key is its own root.

    Each caller links roots by its own rule.  The path walked is
    pointed at the root.
    """
    root = x
    while parent.get(root, root) != root:
        root = parent[root]
    while x != root:
        parent[x], x = root, parent[x]
    return root


def _check_planar(diagram: LinkDiagram) -> None:
    """Refuse a code whose slot order does not embed in the sphere.

    A face is an orbit of "follow the arc at a slot to its other end,
    then turn to the next slot counterclockwise".  Each connected piece
    of the 4-valent crossing graph must have V - E + F = 2; with E = 2V
    that is F - V = 2 per piece, and no piece can exceed 2, so the sums
    over all pieces decide it.
    """
    n, end = diagram.n, diagram._slot_end
    parent: dict[int, int] = {}
    for t, head in enumerate(end):
        parent[_find(parent, t >> 2)] = _find(parent, head >> 2)
    pieces = len({_find(parent, c) for c in range(n)})
    faces = 0
    seen = bytearray(4 * n)
    for start in range(4 * n):
        if seen[start]:
            continue
        faces += 1
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            head = end[cur]
            cur = head & ~3 | (head + 1) & 3
    if faces - n != 2 * pieces:
        raise ValueError(
            f"PD code is not planar: V - E + F sums to {faces - n} over"
            f" {pieces} connected piece(s), not {2 * pieces}"
        )


def diagram_to_dict(diagram: LinkDiagram) -> dict:
    out: dict = {"pd": [list(c) for c in diagram.crossings]}
    if any(diagram.signs):
        out["signs"] = list(diagram.signs)
    if diagram.free_arcs:
        out["free_circles"] = len(diagram.free_arcs)
    return out


def writhe(diagram: LinkDiagram) -> int:
    return diagram.writhe


class Resolution:
    """One complete smoothing of a diagram.

    Circle i is keyed by its smallest arc, ``keys[i]``, and ``keys`` is
    sorted.  The rest is two byte tables: the circle through each
    crossing slot (``slot_circles``) and the circle through each arc
    (``arc_circle``).  A circle's arcs and its transits through
    crossings, as (crossing, entry_slot, exit_slot) triples, are walked
    afresh on each call, starting from its smallest arc in that arc's
    flow direction when it has one, so the walk order is deterministic
    and the first arc is the key.
    """

    __slots__ = ("diagram", "alpha", "keys", "_slots", "_arcs")

    def __init__(self, diagram, alpha, keys, slots, arcs):
        self.diagram = diagram
        self.alpha = alpha
        self.keys = keys
        self._slots = slots
        self._arcs = arcs

    @property
    def n_circles(self) -> int:
        return len(self.keys)

    def slot_circles(self, c: int) -> bytes:
        """The circles through slots 0, 1, 2 and 3 of crossing ``c``."""
        return self._slots[4 * c : 4 * c + 4]

    def arc_circle(self, arc: int) -> int:
        return self._arcs[self.diagram._arc_pos[arc]]

    def arc_circles(self, arcs) -> tuple:
        """The circle through each of ``arcs``, in order."""
        return tuple(map(self._arcs.__getitem__, map(self.diagram._arc_pos.__getitem__, arcs)))

    def _steps(self, idx: int):
        d = self.diagram
        start = d._arc_start[d._arc_pos[self.keys[idx]]]
        if start < 0:
            return ()  # a free circle passes through no crossing
        return _walk(d, self.alpha, start)

    def circle_arcs(self, idx: int) -> tuple:
        d = self.diagram
        return tuple(d.arcs[d._slot_arc[tail]] for tail, _, _ in self._steps(idx)) or (self.keys[idx],)

    def circle_transits(self, idx: int) -> tuple:
        return tuple((head >> 2, head & 3, out & 3) for _, head, out in self._steps(idx))

    def circle_key(self, idx: int) -> int:
        return self.keys[idx]

    def __repr__(self):
        return f"Resolution(alpha={self.alpha:b}, circles={self.n_circles})"


# A smoothing pairs slot s with slot s ^ _SMOOTHING[bit]: the 0-smoothing
# joins (0,1) and (2,3), the 1-smoothing joins (0,3) and (1,2).  As slot
# 4c + s keeps s in its low two bits, the same flip pairs slot indices.
_SMOOTHING = (1, 3)


def _walk(diagram: LinkDiagram, alpha: int, start: int):
    """One circle of the smoothing ``alpha``, walked from slot ``start``.

    Yields one step per arc: the slot the arc leaves, the slot it enters
    and the slot the smoothing leaves that crossing by.
    """
    end = diagram._slot_end
    tail = start
    while True:
        head = end[tail]
        out = head ^ _SMOOTHING[alpha >> (head >> 2) & 1]
        yield tail, head, out
        if out == start:
            return
        tail = out


# Drops the one added to every circle number while ``resolve`` walks.
_UNSHIFT = bytes([0]) + bytes(range(255))


def resolve(diagram: LinkDiagram, alpha: int) -> Resolution:
    """Smooth every crossing of the diagram according to the bits of alpha.

    One walk fills both tables of the ``Resolution``.  Arcs at crossings
    are sorted, so each new circle starts at its smallest arc; free
    circles come after them, and the circles are renumbered by key when
    a free circle's label is smaller than some walked key.  A resolution
    holds at most 255 circles.
    """
    if not 0 <= alpha < (1 << diagram.n):
        raise ValueError("alpha out of range")
    arcs = diagram.arcs
    slot_arc = diagram._slot_arc
    # Circle k is written as k + 1 until the end, so 0 marks an unseen arc.
    slots = bytearray(4 * diagram.n)
    arc_circle = bytearray(len(arcs))
    keys = []
    for i, start in enumerate(diagram._arc_start):
        if arc_circle[i]:
            continue
        if len(keys) == 255:
            raise ValueError("a resolution has more than 255 circles")
        keys.append(arcs[i])
        k = arc_circle[i] = len(keys)
        if start >= 0:
            for tail, head, out in _walk(diagram, alpha, start):
                arc_circle[slot_arc[tail]] = k
                slots[head] = slots[out] = k
    order = _UNSHIFT
    if diagram.free_arcs and keys != sorted(keys):
        ranks = sorted(range(len(keys)), key=keys.__getitem__)
        order = bytearray(256)
        for rank, k in enumerate(ranks):
            order[k + 1] = rank
        keys.sort()
    return Resolution(diagram, alpha, tuple(keys), bytes(slots.translate(order)), bytes(arc_circle.translate(order)))


def transit_side(transit) -> int:
    """Which side of a transit the crossing center lies on.

    Walking a circle through a crossing, the smoothing strand turns
    around the crossing center; the center sits to the left of the walk
    (+1) exactly when the exit slot is the entry slot plus one mod 4.
    """
    _, s_in, s_out = transit
    if s_out == (s_in + 1) % 4:
        return 1
    if s_in == (s_out + 1) % 4:
        return -1
    raise ValueError(f"slots {s_in},{s_out} are not a smoothing pair")


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    """Swap every crossing's over and under strands in place.

    Each tuple is rotated to start at its over-entry slot, which becomes
    the new under-entry; arc flows are untouched, all signs flip.
    """
    if diagram.formal:
        raise ValueError("cannot mirror a diagram with band sites")
    out = []
    for cr, sg in zip(diagram.crossings, diagram.signs):
        k = 3 if sg == 1 else 1
        out.append(cr[k:] + cr[:k])
    return LinkDiagram(
        out,
        free_arcs=diagram.free_arcs,
        signs=tuple(-s for s in diagram.signs),
    )


def _cut_arcs(diagram: LinkDiagram, arcs, top: int):
    """Open each arc so that a new crossing can be spliced into it.

    Returns (crossing rows, remaining free arcs, [(in, out), ...]), one
    label pair per arc.  A cut arc keeps its label on the tail half, and
    its head half takes the next label above ``top``.  A free circle is
    opened whole and gives (arc, arc).  An arc not in the diagram is
    refused with ValueError.
    """
    rows = [list(c) for c in diagram.crossings]
    free = list(diagram.free_arcs)
    ends = []
    for arc in arcs:
        if arc in free:
            free.remove(arc)
            ends.append((arc, arc))
            continue
        i = diagram._arc_pos.get(arc)
        if i is None:
            raise ValueError(f"unknown arc {arc}")
        if i in diagram._undirected:
            raise ValueError(f"arc {arc} has no direction")
        top += 1
        head = diagram._slot_end[diagram._arc_start[i]]
        rows[head >> 2][head & 3] = top
        ends.append((arc, top))
    return [tuple(r) for r in rows], tuple(free), ends


def insert_kink(diagram: LinkDiagram, arc: int, sign: int) -> LinkDiagram:
    """Add a curl of the given sign on an arc (one Reidemeister 1 move).

    The strand passes over itself; the curl circle appears in the
    0-smoothing of the new crossing when the sign is positive and in the
    1-smoothing when negative.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if diagram.formal:
        raise ValueError("cannot add a kink to a diagram with band sites")
    top = diagram.max_arc()
    loop = top + 2
    rows, free, [(a_in, a_out)] = _cut_arcs(diagram, (arc,), top)
    if sign == 1:
        kink = (a_in, a_out, loop, loop)
    else:
        kink = (a_in, loop, loop, a_out)
    return LinkDiagram(
        rows + [kink],
        free_arcs=free,
        signs=diagram.signs + (sign,),
    )


def attach_band(diagram: LinkDiagram, arc1: int, arc2: int):
    """Append a formal band site joining two arcs (or one arc to itself).

    Returns (enlarged diagram, index of the new site).  The 0-smoothing
    of the site restores the original diagram; the 1-smoothing performs
    the band surgery.
    """
    top = diagram.max_arc()
    if arc1 == arc2:
        # The piece top + 1 lives entirely at the band site, between the
        # two halves of the cut arc (or of the pinched free circle).
        rows, free, [(a_in, a_out)] = _cut_arcs(diagram, (arc1,), top + 1)
        site = (a_in, top + 1, top + 1, a_out)
    else:
        rows, free, [(a1i, a1o), (a2i, a2o)] = _cut_arcs(diagram, (arc1, arc2), top)
        site = (a1i, a1o, a2i, a2o)
    idx = len(rows)
    signs = diagram.signs + (0,)
    return (
        LinkDiagram(
            rows + [site],
            free_arcs=free,
            signs=signs,
            formal=diagram.formal | {idx},
        ),
        idx,
    )


def smooth_crossings(diagram: LinkDiagram, choices: dict[int, int]) -> LinkDiagram:
    """Delete crossings, welding their arcs according to the chosen bits.

    A weld that closes an arc onto itself turns it into a free circle.
    Remaining crossings keep their order; indices shift down past the
    deleted ones.
    """
    for c, bit in choices.items():
        if not 0 <= c < diagram.n:
            raise ValueError(f"crossing {c} out of range")
        if bit not in (0, 1):
            raise ValueError("smoothing bit must be 0 or 1")
    # Union-find over arc labels; welds may chain through several sites,
    # and each weld keeps the smaller label.
    parent: dict[int, int] = {}
    closed = []
    for c, bit in choices.items():
        cr = diagram.crossings[c]
        for s in (0, 2) if bit == 0 else (0, 1):
            ra, rb = _find(parent, cr[s]), _find(parent, cr[s ^ _SMOOTHING[bit]])
            if ra == rb:
                closed.append(ra)
            else:
                parent[max(ra, rb)] = min(ra, rb)

    rows = []
    signs = []
    formal = set()
    for ci, cr in enumerate(diagram.crossings):
        if ci in choices:
            continue
        if ci in diagram.formal:
            formal.add(len(rows))
        signs.append(diagram.signs[ci])
        rows.append(tuple(_find(parent, a) for a in cr))
    used = {a for r in rows for a in r}
    free = set(diagram.free_arcs)
    for a in closed:
        r = _find(parent, a)
        if r not in used:
            free.add(r)
    # A welded chain with no remaining occurrences and no closure stays a
    # path only if it ended at a deleted slot, which cannot happen: every
    # weld consumes two slots of a deleted crossing in matched pairs.
    return LinkDiagram(rows, free_arcs=tuple(sorted(free)), signs=tuple(signs), formal=formal)


def add_free_circle(diagram: LinkDiagram):
    """Disjoint union with an unknot circle; returns (diagram, its arc)."""
    arc = diagram.max_arc() + 1
    return (
        LinkDiagram(
            diagram.crossings,
            free_arcs=diagram.free_arcs + (arc,),
            signs=diagram.signs,
            formal=diagram.formal,
        ),
        arc,
    )


def delete_free_circle(diagram: LinkDiagram, arc: int) -> LinkDiagram:
    if arc not in diagram.free_arcs:
        raise ValueError(f"{arc} is not a free circle")
    return LinkDiagram(
        diagram.crossings,
        free_arcs=tuple(a for a in diagram.free_arcs if a != arc),
        signs=diagram.signs,
        formal=diagram.formal,
    )


def cable(diagram: LinkDiagram, strands: int, framing=None) -> LinkDiagram:
    """Replace every component by ``strands`` parallel copies.

    Copies (lanes) are numbered left to right facing along the flow,
    each crossing becomes a grid of strands x strands crossings, and
    arc labels are numbered by first use.  The framing of a component
    is the linking number of two of its lanes.  With ``framing`` None
    it is the blackboard framing, the component's self-writhe; an int
    or a per-component list asks for other framings, and the missing
    full twists are spliced in at ``_cut_arcs`` cuts of the lanes of
    the component's smallest arc.
    """
    if strands < 1:
        raise ValueError("strands must be positive")
    if diagram.formal:
        raise ValueError("cannot cable a diagram with band sites")
    n = strands
    comps = diagram.components
    if framing is None:
        targets = [diagram.self_writhe(comp) for comp in comps]
    elif isinstance(framing, int):
        targets = [framing] * len(comps)
    else:
        targets = list(framing)
        if len(targets) != len(comps):
            raise ValueError("framing list length must match component count")

    num: dict[tuple, int] = {}

    def label(*key):
        return num.setdefault(key, len(num) + 1)

    rows, signs = [], []
    for ci, (a, b, c, d) in enumerate(diagram.crossings):
        sg = diagram.signs[ci]
        # Grid cell (i, j) is where under lane i meets over lane j.  The
        # under lanes run between a and c (column 1 lies at c on a
        # positive crossing, at a on a negative one), the over lanes run
        # from row 1 at d to row n at b; ("u", ci, i, j) is the under
        # segment between columns j and j + 1, ("o", ci, i, j) the over
        # segment between rows i and i + 1.
        first, last = (c, a) if sg == 1 else (a, c)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                left = label("lane", first, i) if j == 1 else label("u", ci, i, j - 1)
                right = label("lane", last, i) if j == n else label("u", ci, i, j)
                above = label("lane", d, j) if i == 1 else label("o", ci, i - 1, j)
                below = label("lane", b, j) if i == n else label("o", ci, i, j)
                rows.append((right, below, left, above) if sg == 1 else (left, below, right, above))
                signs.append(sg)
    free = [label("lane", arc, i) for arc in diagram.free_arcs for i in range(1, n + 1)]
    cabled = LinkDiagram(rows, free_arcs=free, signs=signs)

    for comp, target in zip(comps, targets):
        t = target - diagram.self_writhe(comp)
        # n |t| full twists: the word (s_1 ... s_{n-1})^{n t}, or its
        # inverse, on the lanes in left to right order.
        if t > 0:
            letters = [(k, 1) for _ in range(n * t) for k in range(1, n)]
        else:
            letters = [(k, -1) for _ in range(-n * t) for k in range(n - 1, 0, -1)]
        if not letters:
            continue
        lanes = [num[("lane", min(comp), i)] for i in range(1, n + 1)]
        rows, free, ends = _cut_arcs(cabled, lanes, cabled.max_arc())
        top = max(cabled.max_arc(), *(head for _, head in ends))
        # A full twist returns every lane to its place, so the last
        # letter at a position leaves it on that lane's cut head.
        final = {p: step for step, (k, _) in enumerate(letters) for p in (k - 1, k)}
        cur = [tail for tail, _ in ends]
        twist = []
        for step, (k, sg) in enumerate(letters):
            left, right = cur[k - 1], cur[k]
            for p in (k - 1, k):
                if final[p] == step:
                    cur[p] = ends[p][1]
                else:
                    top += 1
                    cur[p] = top
            # The two strands trade places; the one from the right passes
            # under on a positive letter, over on a negative one.
            twist.append((right, cur[k], cur[k - 1], left) if sg == 1 else (left, right, cur[k], cur[k - 1]))
        cabled = LinkDiagram(rows + twist, free_arcs=free, signs=cabled.signs + tuple(sg for _, sg in letters))
    return cabled
