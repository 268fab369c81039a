"""The bundled diagram corpus is pinned here, entry by entry.

Every table knot is checked against data that does not depend on the plat
construction: crossing count, alternation, determinant (through the mod-2
oracle), and for a couple of entries a cross-construction homology match
against an independently coded diagram.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkh.complexes import assemble_complex, graded_euler_characteristic, homology
from oddkh.cube import build_cube
from oddkh.fixtures import (
    KNOT_DETERMINANTS,
    PRIME_KNOT_TWISTS,
    braid_closure,
    figure_eight,
    hopf_link,
    left_trefoil,
    plat_closure,
    poked_unlink,
    prime_knot,
    prime_knot_table,
    rational_knot,
    reidemeister_pairs,
    right_trefoil,
    torus_knot_8_19,
    unknot,
    unlink,
)
from oddkh.linkdiag import mirror
from oddkh.oracles import even_khovanov_mod2, kauffman_bracket

# Frozen after the first oracle-validated run; these are regressions, not
# derivations.
WRITHES = {
    "3_1": 3, "4_1": 0, "5_1": 5, "5_2": -5, "6_1": -2, "6_2": 2, "6_3": 0,
    "7_1": 7, "7_2": -7, "7_3": 7, "7_4": -7, "7_5": 7, "7_6": -3, "7_7": -1,
    "8_19": 8,
}

HOPF_POS_HOMOLOGY = {
    (0, 0): (1, ()), (0, 2): (1, ()), (2, 4): (1, ()), (2, 6): (1, ()),
}
RIGHT_TREFOIL_HOMOLOGY = {
    (0, 1): (1, ()), (0, 3): (1, ()), (2, 5): (1, ()), (2, 7): (1, ()),
    (3, 7): (1, ()), (3, 9): (1, ()),
}
FIGURE_EIGHT_HOMOLOGY = {
    (-2, -5): (1, ()), (-2, -3): (1, ()), (-1, -3): (1, ()), (-1, -1): (1, ()),
    (0, -1): (1, ()), (0, 1): (1, ()), (1, 1): (1, ()), (1, 3): (1, ()),
    (2, 3): (1, ()), (2, 5): (1, ()),
}

TORUS_8_19_BRACKET = {5: 1, 7: 1, 9: 1, 11: 1, 15: -1, 17: -1}


def table_of(diagram):
    return homology(assemble_complex(build_cube(diagram))).table


def flip(table):
    return {(-h, -q): v for (h, q), v in table.items()}


def passage_sequences(diagram):
    """Over/under words read along each strand, one per component.

    A strand entering a crossing at an odd slot runs over it, at slot 0
    under; either way it leaves at the opposite slot.
    """
    occurrences = {}
    for ci, row in enumerate(diagram.crossings):
        for slot, arc in enumerate(row):
            occurrences.setdefault(arc, []).append((ci, slot))
    seqs = []
    for comp in diagram.components:
        start = min(comp)
        if start in diagram.free_arcs:
            seqs.append("")
            continue
        word = []
        arc = start
        while True:
            tail = divmod(diagram._arc_start[diagram.arcs.index(arc)], 4)
            (ci, slot), = (o for o in occurrences[arc] if o != tail)
            word.append("o" if slot % 2 else "u")
            arc = diagram.crossings[ci][slot ^ 2]
            if arc == start:
                break
        seqs.append("".join(word))
    return seqs


def is_alternating(diagram):
    for word in passage_sequences(diagram):
        n = len(word)
        if any(word[i] == word[(i + 1) % n] for i in range(n)):
            return False
    return True


def cf_numerator(twists):
    prev, cur = 0, 1
    for a in reversed(twists):
        prev, cur = cur, a * cur + prev
    return cur


def test_table_covers_the_advertised_names():
    table = prime_knot_table()
    assert set(table) == set(KNOT_DETERMINANTS)
    assert set(PRIME_KNOT_TWISTS) == set(KNOT_DETERMINANTS) - {"8_19"}


@pytest.mark.parametrize("name", sorted(KNOT_DETERMINANTS))
def test_crossing_count_and_connectivity(name):
    d = prime_knot(name)
    assert d.n == int(name.split("_")[0])
    assert len(d.components) == 1
    if name in PRIME_KNOT_TWISTS:
        assert d.n == sum(PRIME_KNOT_TWISTS[name])


@pytest.mark.parametrize("name", sorted(PRIME_KNOT_TWISTS))
def test_rational_diagrams_alternate(name):
    assert is_alternating(prime_knot(name))


def test_torus_knot_diagram_is_not_alternating():
    assert not is_alternating(torus_knot_8_19())


def test_continued_fractions_match_the_determinant_table():
    for name, twists in PRIME_KNOT_TWISTS.items():
        assert cf_numerator(twists) == KNOT_DETERMINANTS[name], name


@pytest.mark.parametrize("name", sorted(PRIME_KNOT_TWISTS))
def test_mod2_dimension_is_twice_the_determinant(name):
    # Alternating and non-split, so the total mod-2 dimension is forced.
    total = sum(even_khovanov_mod2(prime_knot(name)).values())
    assert total == 2 * KNOT_DETERMINANTS[name]


@pytest.mark.parametrize("name", sorted(WRITHES))
def test_writhes_are_stable(name):
    assert prime_knot(name).writhe == WRITHES[name]


def test_torus_knot_bracket_is_frozen():
    assert kauffman_bracket(torus_knot_8_19()).table == TORUS_8_19_BRACKET


def test_rational_builds_match_independent_diagrams():
    assert table_of(prime_knot("3_1")) == table_of(right_trefoil())
    assert table_of(prime_knot("4_1")) == table_of(figure_eight())


def test_hopf_homology_regression():
    assert table_of(hopf_link(1)) == HOPF_POS_HOMOLOGY
    assert table_of(hopf_link(-1)) == flip(HOPF_POS_HOMOLOGY)


def test_trefoil_homology_regression():
    assert table_of(right_trefoil()) == RIGHT_TREFOIL_HOMOLOGY
    assert table_of(left_trefoil()) == flip(RIGHT_TREFOIL_HOMOLOGY)


def test_figure_eight_homology_regression():
    table = table_of(figure_eight())
    assert table == FIGURE_EIGHT_HOMOLOGY
    assert table == flip(table)


def test_mirror_flips_the_homology_table():
    assert table_of(mirror(right_trefoil())) == flip(RIGHT_TREFOIL_HOMOLOGY)
    assert table_of(mirror(prime_knot("5_2"))) == flip(table_of(prime_knot("5_2")))


def test_reidemeister_pairs_share_homology():
    pairs = reidemeister_pairs()
    assert len(pairs) == 6
    for name, before, after in pairs:
        assert before.n != after.n or name == "r3_braid"
        assert table_of(before) == table_of(after), name


def test_unlink_euler_characteristic():
    from math import comb

    for k in range(4):
        c = assemble_complex(build_cube(unlink(k)))
        want = {k - 2 * i: comb(k, i) for i in range(k + 1)}
        assert graded_euler_characteristic(c) == want


def test_unknot_and_empty_plat():
    assert unknot().n == 0
    assert len(unknot().components) == 1
    e = plat_closure([])
    assert e.n == 0
    assert len(e.components) == 2


def test_poked_unlink_signs():
    assert poked_unlink(1).signs == (1, -1)
    assert poked_unlink(-1).signs == (-1, 1)
    assert table_of(poked_unlink(1)) == table_of(unlink(2))


def test_braid_closure_rejects_bad_letters():
    with pytest.raises(ValueError):
        braid_closure([1, 3], 3)
    with pytest.raises(ValueError):
        rational_knot([2, 0, 2])


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
def test_random_rational_links_have_forced_mod2_dimension(twists):
    d = rational_knot(twists)
    total = sum(even_khovanov_mod2(d).values())
    assert total == 2 * cf_numerator(twists)


@pytest.mark.parametrize(
    "twists,theory",
    [((3, 1, 1, 4), "y"), ((2, 3, 4), "x"), ((2, 2, 2, 2), "y"), ((4, 1, 3), "x"), ((6, 2), "y")],
)
def test_two_bridge_integer_homology_is_free_and_thin(twists, theory):
    # Ozsvath-Rasmussen-Szabo: quasi-alternating links have free, thin odd
    # Khovanov homology, two copies of a reduced group of rank det.
    cx = assemble_complex(build_cube(rational_knot(twists), theory))
    table = homology(cx).table
    assert all(not torsion for _, torsion in table.values())
    deltas = sorted({q - 2 * h for (h, q) in table})
    assert len(deltas) == 2 and deltas[1] - deltas[0] == 2
    assert sum(rank for rank, _ in table.values()) == 2 * cf_numerator(twists)
    reduced = homology(cx, reduced=True).table
    assert sum(rank for rank, _ in reduced.values()) == cf_numerator(twists)
