import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkh.linkdiag import (
    LinkDiagram,
    _check_planar,
    add_free_circle,
    attach_band,
    cable,
    delete_free_circle,
    diagram_to_dict,
    insert_kink,
    mirror,
    parse_pd,
    resolve,
    smooth_crossings,
    transit_side,
    writhe,
)

from oddkh.fixtures import (
    braid_closure,
    poked_unlink,
    rational_knot,
    reidemeister_pairs,
    torus_knot_8_19,
    unlink,
)
from oddkh.verify import named_diagrams

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
FIG8 = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]
HOPF_POS = [[1, 3, 2, 4], [3, 1, 4, 2]]
HOPF_NEG = [[1, 4, 2, 3], [3, 2, 4, 1]]


def test_parse_trefoil_signs():
    d = parse_pd(TREFOIL)
    assert d.n == 3
    assert d.signs == (-1, -1, -1)
    assert writhe(d) == -3
    assert d.n_minus == 3 and d.n_plus == 0
    assert len(d.components) == 1


def test_parse_hopf_signs():
    assert parse_pd(HOPF_POS).signs == (1, 1)
    assert parse_pd(HOPF_NEG).signs == (-1, -1)


def test_parse_figure_eight():
    d = parse_pd(FIG8)
    assert d.writhe == 0
    assert sorted(d.signs) == [-1, -1, 1, 1]


def test_parse_rejects_bad_codes():
    with pytest.raises(ValueError):
        parse_pd([[1, 2, 3, 4]])  # arcs appear once
    with pytest.raises(ValueError):
        parse_pd([[1, 2, 3, 4], [1, 2, 3, 4]])  # inconsistent under flow
    with pytest.raises(ValueError):
        parse_pd({"pd": TREFOIL, "bogus": 1})
    with pytest.raises(ValueError):
        parse_pd(TREFOIL, signs=[1, 1])  # wrong length
    with pytest.raises(ValueError):
        parse_pd(TREFOIL, signs=[1, 1, 1])  # contradicts inference
    with pytest.raises(ValueError):
        parse_pd([[1, 1, 2, 2.9]])  # not truncated to [[1, 1, 2, 2]]
    with pytest.raises(ValueError):
        parse_pd([[1, 1, 2, 2.0]])  # a float, even a whole one
    with pytest.raises(ValueError):
        parse_pd([[True, 1, 2, 2]])  # not read as [[1, 1, 2, 2]]
    with pytest.raises(ValueError):
        parse_pd({"pd": TREFOIL, "free_circles": -3})
    with pytest.raises(ValueError):
        parse_pd({"pd": TREFOIL, "free_circles": 1.5})
    with pytest.raises(ValueError):
        parse_pd(TREFOIL, free_circles=True)
    with pytest.raises(ValueError):
        parse_pd({"pd": [[1, 2, 2, 1]], "signs": [-1.0]})  # a float sign, even a whole one
    with pytest.raises(ValueError):
        parse_pd({"pd": [[1, 1, 2, 2]], "signs": [True]})  # not read as +1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LinkDiagram([[1, 2, 3, 4], [1, 2, 3, 4]]), "inconsistent understrand directions"),
        (
            lambda: LinkDiagram([[6, 1, 6, 2], [3, 1, 3, 4], [2, 5, 4, 5]], signs=[-1, -1, 0], formal={2}),
            "declared signs conflict along a strand",
        ),
        (lambda: LinkDiagram([[3, 4, 3, 2], [1, 2, 4, 1]], formal={1}), "sign of crossing 0 is underdetermined"),
        # The piece between the two halves of a pinched circle runs from
        # band site to band site and has no flow to cut along.
        (lambda: attach_band(attach_band(unlink(1), 1, 1)[0], 1, 1), "arc 1 has no direction"),
    ],
    ids=["under-flow", "pinned-flow", "unpinned-sign", "undirected-arc"],
)
def test_orientation_refusals_name_their_reason(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def braid_closures(max_size=8):
    return st.integers(2, 4).flatmap(
        lambda n: st.lists(st.sampled_from([k for k in range(1 - n, n) if k]), min_size=1, max_size=max_size).map(
            lambda w: braid_closure(w, n)
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        braid_closures(),
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(rational_knot),
        st.tuples(braid_closures(3), st.integers(2, 3), st.integers(-1, 1)).map(
            lambda t: cable(t[0], t[1], t[0].writhe + t[2])
        ),
        braid_closures().flatmap(
            lambda d: st.tuples(st.sampled_from(d.arcs), st.sampled_from(d.arcs)).map(
                lambda pair: attach_band(d, *pair)[0]
            )
        ),
    )
)
def test_flow_enters_each_crossing_as_its_sign_says(diagram):
    def head(arc):
        return diagram._slot_end[diagram._arc_start[diagram.arcs.index(arc)]]

    for c, row in enumerate(diagram.crossings):
        if c in diagram.formal:
            continue
        assert head(row[0]) == 4 * c
        assert diagram._arc_start[diagram.arcs.index(row[2])] == 4 * c + 2
        assert (head(row[3]) == 4 * c + 3) == (diagram.signs[c] == 1)
        over_in = 3 if diagram.signs[c] == 1 else 1
        assert head(row[over_in]) == 4 * c + over_in
        assert diagram._arc_start[diagram.arcs.index(row[over_in ^ 2])] == 4 * c + (over_in ^ 2)
    assert sorted(a for comp in diagram.components for a in comp) == sorted(diagram.arcs)


@pytest.mark.parametrize(
    "code",
    [
        [[4, 2, 3, 1], [3, 1, 4, 2]],
        [[1, 2, 1, 2]],
        [[2, 2, 3, 1], [4, 1, 4, 3]],
        [[3, 5, 4, 7], [1, 5, 2, 4], [8, 6, 1, 2], [6, 3, 8, 7]],
        # A planar trefoil next to a non-planar piece.
        TREFOIL + [[7, 8, 7, 8]],
    ],
    ids=["two-crossings", "one-crossing", "two-crossings-loop", "four-crossings", "one-bad-piece"],
)
def test_parse_rejects_non_planar_codes(code):
    # Each of these builds a diagram; only the slot order is wrong.
    LinkDiagram(code)
    with pytest.raises(ValueError, match="not planar"):
        parse_pd(code)


def test_every_fixture_parses_as_planar():
    diagrams = [d for _, d in named_diagrams(12)]
    diagrams += [rational_knot((2, 1, 2, 2, 3)), torus_knot_8_19()]
    diagrams += [braid_closure([-3, 2, -3, -1, -2, 3, 3, -1, -1, -2], 4)]
    diagrams += [poked_unlink(v) for v in (1, -1)]
    diagrams += [d for pair in reidemeister_pairs() for d in pair[1:]]
    for d in diagrams:
        assert parse_pd(diagram_to_dict(d)) == d


def test_parse_free_circles_and_dict_roundtrip():
    d = parse_pd({"pd": TREFOIL, "free_circles": 2})
    assert len(d.free_arcs) == 2
    assert len(d.components) == 3
    back = parse_pd(diagram_to_dict(d))
    assert back == d


def test_unknot_free_circle_only():
    d = parse_pd({"pd": [], "free_circles": 1})
    assert d.n == 0
    assert len(d.free_arcs) == 1
    r = resolve(d, 0)
    assert r.n_circles == 1


def test_resolve_hopf_circle_counts():
    d = parse_pd(HOPF_POS)
    assert resolve(d, 0b00).n_circles == 2
    assert resolve(d, 0b01).n_circles == 1
    assert resolve(d, 0b10).n_circles == 1
    assert resolve(d, 0b11).n_circles == 2


def test_resolve_trefoil_circle_counts():
    d = parse_pd(TREFOIL)
    counts = {a: resolve(d, a).n_circles for a in range(8)}
    # All-negative trefoil: three circles at the all-zero state, two at
    # the all-one state, and each bit flip changes the count by one.
    assert counts[0b000] == 3
    assert counts[0b111] == 2
    for a in (0b001, 0b010, 0b100):
        assert counts[a] == 2
    for a in (0b011, 0b101, 0b110):
        assert counts[a] == 1


def test_resolution_walk_structure():
    d = parse_pd(HOPF_POS)
    r = resolve(d, 0b00)
    # Every slot is assigned to exactly one circle, the one whose walk
    # enters or leaves a crossing there.
    slots = {(c, s): r.slot_circles(c)[s] for c in range(2) for s in range(4)}
    assert set(slots.values()) == set(range(r.n_circles))
    walked = []
    for idx in range(r.n_circles):
        for t in r.circle_transits(idx):
            assert transit_side(t) in (1, -1)
            walked += [(t[0], t[1]), (t[0], t[2])]
            assert slots[t[0], t[1]] == slots[t[0], t[2]] == idx
    assert sorted(walked) == sorted(slots)
    # Arcs partition between the circles.
    assert sorted(a for idx in range(r.n_circles) for a in r.circle_arcs(idx)) == [1, 2, 3, 4]


def reference_resolve(diagram, alpha):
    """Every circle as (arcs, transits), sorted by smallest arc.

    The dictionary walk that ``resolve`` replaced, kept as its oracle:
    each circle starts at its smallest arc, in the arc's flow direction
    when it has one, and records a (crossing, entry_slot, exit_slot)
    transit per arc.
    """
    occurrences = {}
    for ci, row in enumerate(diagram.crossings):
        for s, arc in enumerate(row):
            occurrences.setdefault(arc, []).append((ci, s))
    visited = set()
    circles = []
    for start_arc in diagram.arcs:
        if start_arc in visited:
            continue
        if start_arc in diagram.free_arcs:
            visited.add(start_arc)
            circles.append(((start_arc,), ()))
            continue
        cur = divmod(diagram._arc_start[diagram.arcs.index(start_arc)], 4)
        start = cur
        arcs, transits = [], []
        while True:
            arc = diagram.crossings[cur[0]][cur[1]]
            visited.add(arc)
            occ_a, occ_b = occurrences[arc]
            ci, s_in = occ_b if cur == occ_a else occ_a
            s_out = s_in ^ 1 if not alpha >> ci & 1 else 3 - s_in
            arcs.append(arc)
            transits.append((ci, s_in, s_out))
            cur = (ci, s_out)
            if cur == start:
                break
        circles.append((tuple(arcs), tuple(transits)))
    return sorted(circles, key=lambda c: min(c[0]))


def assert_resolutions_match_reference(diagram):
    for alpha in range(1 << diagram.n):
        r = resolve(diagram, alpha)
        circles = reference_resolve(diagram, alpha)
        assert r.keys == tuple(min(arcs) for arcs, _ in circles)
        slot_circle = {}
        for idx, (arcs, transits) in enumerate(circles):
            assert r.circle_arcs(idx) == arcs
            assert r.circle_transits(idx) == transits
            assert r.arc_circles(arcs) == (idx,) * len(arcs)
            for a in arcs:
                assert r.arc_circle(a) == idx
            for c, s_in, s_out in transits:
                slot_circle[c, s_in] = slot_circle[c, s_out] = idx
        assert {(c, s): r.slot_circles(c)[s] for c in range(diagram.n) for s in range(4)} == slot_circle


def test_resolutions_match_the_reference_walk_on_corpus():
    diagrams = [d for _, d in named_diagrams(8)]
    diagrams.append(unlink(3))
    # A free circle whose label sits between walked keys renumbers circles.
    diagrams.append(LinkDiagram([[2, 7, 3, 8], [7, 2, 8, 3]], free_arcs=(1, 5)))
    diagrams += [attach_band(parse_pd(TREFOIL), 1, 3)[0], attach_band(unlink(1), 1, 1)[0]]
    for d in diagrams:
        assert_resolutions_match_reference(d)


@settings(max_examples=30, deadline=None)
@given(braid_closures())
def test_resolutions_match_the_reference_walk_on_braid_closures(diagram):
    assert_resolutions_match_reference(diagram)


def test_resolve_refuses_more_than_255_circles():
    assert resolve(parse_pd({"pd": [], "free_circles": 255}), 0).n_circles == 255
    with pytest.raises(ValueError, match="more than 255 circles"):
        resolve(parse_pd({"pd": [], "free_circles": 256}), 0)


def test_resolutions_take_under_a_kilobyte_per_vertex():
    d = rational_knot((3, 3, 4))
    assert d.n == 10
    tracemalloc.start()
    try:
        resolutions = [resolve(d, alpha) for alpha in range(1 << d.n)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(resolutions) == 1024
    assert held / len(resolutions) < 1024


def test_transit_side_rejects_non_pairs():
    with pytest.raises(ValueError):
        transit_side((0, 0, 2))


def test_mirror_flips_signs_and_doubles_back():
    d = parse_pd(TREFOIL)
    m = mirror(d)
    assert m.signs == (1, 1, 1)
    assert mirror(m) == d
    # Circle counts at complementary states agree.
    for a in range(8):
        assert resolve(m, a).n_circles == resolve(d, 7 - a).n_circles


def test_insert_kink_counts():
    d = parse_pd(TREFOIL)
    k = insert_kink(d, 1, 1)
    assert k.n == 4
    assert k.writhe == d.writhe + 1
    assert k.signs[-1] == 1
    # Positive curl: its circle splits off in the 0-smoothing.
    base = resolve(d, 0)
    assert resolve(k, 0b0000).n_circles == base.n_circles + 1
    assert resolve(k, 0b1000).n_circles == base.n_circles
    km = insert_kink(d, 1, -1)
    assert km.writhe == d.writhe - 1
    assert resolve(km, 0b1000).n_circles == base.n_circles + 1
    assert resolve(km, 0b0000).n_circles == base.n_circles


def test_insert_kink_on_free_circle():
    d = parse_pd({"pd": [], "free_circles": 1})
    k = insert_kink(d, d.free_arcs[0], 1)
    assert k.n == 1 and not k.free_arcs
    assert k.signs == (1,)
    assert resolve(k, 0b0).n_circles == 2
    assert resolve(k, 0b1).n_circles == 1


def test_attach_band_distinct_arcs():
    d = parse_pd(HOPF_POS)
    e, site = attach_band(d, 1, 3)
    assert site == 2
    assert e.signs == (1, 1, 0)
    assert e.formal == {2}
    # 0-smoothing of the site restores the old circle counts.
    for a in range(4):
        assert resolve(e, a).n_circles == resolve(d, a).n_circles


def test_attach_band_same_arc_and_free():
    d = parse_pd(TREFOIL)
    e, site = attach_band(d, 2, 2)
    assert e.n == 4 and e.formal == {3}
    r0 = resolve(e, 0b0000)
    r1 = resolve(e, 0b1000)
    assert r0.n_circles == 3  # matches the trefoil all-zero state
    assert r1.n_circles == 4  # pinch adds a circle

    u = parse_pd({"pd": [], "free_circles": 1})
    e2, _ = attach_band(u, u.free_arcs[0], u.free_arcs[0])
    assert resolve(e2, 0b0).n_circles == 1
    assert resolve(e2, 0b1).n_circles == 2


def test_attach_band_merging_free_circles():
    d = parse_pd({"pd": [], "free_circles": 2})
    a, b = d.free_arcs
    e, _ = attach_band(d, a, b)
    assert resolve(e, 0b0).n_circles == 2
    assert resolve(e, 0b1).n_circles == 1


def test_smooth_crossings_undoes_kink():
    d = parse_pd(TREFOIL)
    k = insert_kink(d, 1, 1)
    back = smooth_crossings(k, {3: 0})
    assert back.n == 3
    assert len(back.free_arcs) == 1  # the curl circle survives as a free circle
    trimmed = delete_free_circle(back, back.free_arcs[0])
    assert trimmed.signs == d.signs
    for a in range(8):
        assert resolve(trimmed, a).n_circles == resolve(d, a).n_circles


def test_smooth_all_crossings_counts_circles():
    d = parse_pd(TREFOIL)
    for alpha in range(8):
        s = smooth_crossings(d, {c: (alpha >> c) & 1 for c in range(3)})
        assert s.n == 0
        assert len(s.free_arcs) == resolve(d, alpha).n_circles


def test_add_and_delete_free_circle():
    d = parse_pd(TREFOIL)
    e, arc = add_free_circle(d)
    assert arc in e.free_arcs
    assert delete_free_circle(e, arc) == d
    with pytest.raises(ValueError):
        delete_free_circle(d, 99)


def test_cable_crossing_counts():
    u = parse_pd({"pd": [], "free_circles": 1})
    assert cable(u, 2, 0).n == 0
    assert len(cable(u, 2, 0).free_arcs) == 2
    c1 = cable(u, 2, 1)
    assert c1.n == 2 and c1.signs == (1, 1)
    cm = cable(u, 2, -1)
    assert cm.n == 2 and cm.signs == (-1, -1)

    t = parse_pd(TREFOIL)
    c = cable(t, 2, t.writhe)
    assert c.n == 12
    assert c.signs == (-1,) * 12
    assert len(c.components) == 2


def test_cable_one_strand_is_identity_shape():
    t = parse_pd(TREFOIL)
    c = cable(t, 1)
    assert c.n == 3
    assert c.signs == t.signs
    for a in range(8):
        assert resolve(c, a).n_circles == resolve(t, a).n_circles


def test_cable_framing_correction():
    t = parse_pd(TREFOIL)
    # One extra positive full twist on two strands: 2 more crossings.
    c = cable(t, 2, t.writhe + 1)
    assert c.n == 14
    assert sum(c.signs) == -10
    c2 = cable(t, 2, t.writhe - 1)
    assert c2.n == 14
    assert sum(c2.signs) == -14


def test_cable_two_component_framing_list():
    d = parse_pd(HOPF_POS)
    c = cable(d, 2, [1, 1])
    # Self-writhe of each Hopf component is 0, so one twist block each.
    assert c.n == 8 + 2 + 2
    assert len(c.components) == 4


def linking_number(d, x, y):
    """Half the signed count of crossings between components x and y."""
    total = sum(s for (a, b, _, _), s in zip(d.crossings, d.signs) if {a, b} & x and {a, b} & y)
    assert total % 2 == 0
    return total // 2


def lane_owners(host, cabled, n, targets):
    """The host component of each component of the cable, by index.

    Read off the crossing order: the grid of n^2 crossings of host
    crossing g comes g-th, with its under lanes on the host's under
    strand and its over lanes on its over strand; then come the twists
    of each component in turn, n(n-1)|t| crossings each.  A lane that
    crosses nothing belongs to an untwisted free circle, and those are
    interchangeable.
    """
    host_of = {a: k for k, comp in enumerate(host.components) for a in comp}
    comp_of = {a: i for i, comp in enumerate(cabled.components) for a in comp}
    owner = {}

    def own(arc, k):
        assert owner.setdefault(comp_of[arc], k) == k

    for g, (u, o, _, _) in enumerate(cabled.crossings[: n * n * host.n]):
        hu, ho = host.crossings[g // (n * n)][:2]
        own(u, host_of[hu])
        own(o, host_of[ho])
    g = n * n * host.n
    for k, comp in enumerate(host.components):
        size = n * (n - 1) * abs(targets[k] - host.self_writhe(comp))
        for u, o, _, _ in cabled.crossings[g : g + size]:
            own(u, k)
            own(o, k)
        g += size
    assert g == cabled.n
    idle = [k for k, comp in enumerate(host.components) if comp <= set(host.free_arcs) and targets[k] == 0]
    untouched = [i for i in range(len(cabled.components)) if i not in owner]
    assert len(untouched) == n * len(idle)
    owner.update(zip(untouched, [k for k in idle for _ in range(n)]))
    return [owner[i] for i in range(len(cabled.components))]


def framings(d):
    """None, two ints and, on links, two per-component lists."""
    sw = [d.self_writhe(comp) for comp in d.components]
    out = [None, d.writhe - 1, d.writhe + 2]
    if len(sw) > 1:
        out += [[s + (-1) ** k * (k + 1) for k, s in enumerate(sw)], [s if k else s - 2 for k, s in enumerate(sw)]]
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, d", named_diagrams(4), ids=[name for name, _ in named_diagrams(4)])
def test_cable_lanes_link_as_the_framing_asks(name, d, n):
    comps = d.components
    for framing in framings(d):
        if framing is None:
            targets = [d.self_writhe(comp) for comp in comps]
        elif isinstance(framing, int):
            targets = [framing] * len(comps)
        else:
            targets = framing
        c = cable(d, n, framing)
        _check_planar(c)
        twists = sum(abs(t - d.self_writhe(comp)) for t, comp in zip(targets, comps))
        assert c.n == n * n * d.n + n * (n - 1) * twists
        assert len(c.components) == n * len(comps)
        owner = lane_owners(d, c, n, targets)
        assert sorted(owner) == [k for k in range(len(comps)) for _ in range(n)]
        for i, x in enumerate(c.components):
            for j in range(i):
                k, l = owner[i], owner[j]
                want = targets[k] if k == l else linking_number(d, comps[k], comps[l])
                assert linking_number(c, x, c.components[j]) == want, (framing, i, j)
