"""Cube construction, face shapes, and edge-sign systems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkh import cube as cube_module
from oddkh.cube import (
    arrow_flipped_signs,
    build_cube,
    classify_face,
    enumerate_sign_assignments,
    extend_sign_assignment,
    face_edges,
    solve_sign_assignment,
)
from oddkh.complexes import assemble_complex
from oddkh.fixtures import braid_closure, hopf_link, prime_knot, rational_knot
from oddkh.linalg import solve_gf2
from oddkh.linkdiag import add_free_circle, insert_kink, parse_pd, resolve
from oddkh.oddtqft import compose, merge_map, split_map
from oddkh.verify import named_diagrams

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
FIG8 = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]
HOPF_POS = [[1, 3, 2, 4], [3, 1, 4, 2]]
# Two parallel circles, one poked under the other.
POKE = [[4, 1, 2, 3], [2, 1, 4, 3]]

ALL_TAGS = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"}


def verify_sign_assignment(cube, eps):
    """Whether the signed paths around every face cancel."""
    for alpha, c1, c2 in cube.faces():
        prod = 1
        for e in face_edges(alpha, c1, c2):
            prod *= eps[e]
        if prod * classify_face(cube, alpha, c1, c2).sigma != -1:
            return False
    return True


def doubled_signs(cube):
    """Signs built by doubling the cube one crossing at a time, unchecked.

    Edges along the new direction from the old half all get +1; each
    copied edge picks up the sign that closes its mixed face.
    """
    eps = {}
    for k in range(cube.n):
        for alpha in range(1 << k):
            eps[alpha, k] = 1
            for c in range(k):
                if not alpha >> c & 1:
                    eps[alpha | 1 << k, c] = -classify_face(cube, alpha, c, k).sigma * eps[alpha, c]
    return eps


def test_edge_kinds_follow_circle_counts():
    for code in (TREFOIL, FIG8, HOPF_POS, POKE):
        cube = build_cube(parse_pd(code))
        for alpha, c in cube.edges():
            edge = cube.edge(alpha, c)
            delta = (
                cube.resolution(alpha | 1 << c).n_circles
                - cube.resolution(alpha).n_circles
            )
            assert (edge.kind, delta) in {("merge", -1), ("split", 1)}


def test_edges_refuse_a_resolved_crossing():
    cube = build_cube(parse_pd(TREFOIL))
    for read in (cube.edge, cube.edge_shape, cube.edge_table):
        with pytest.raises(ValueError, match="already resolved"):
            read(0b010, 1)


def test_reads_outside_the_cube_are_refused():
    # The readers are flat-list reads, so a bad index must not wrap
    # round to another vertex's or edge's entry.
    cube = build_cube(parse_pd(TREFOIL))
    n = cube.n
    for alpha, c in ((0, n), (0, -1), (-1, 0), (1 << n, 0)):
        with pytest.raises(ValueError, match="not in the cube"):
            cube.edge_table(alpha, c)
    for alpha in (-1, 1 << n):
        with pytest.raises(ValueError, match="not in the cube"):
            cube.resolution(alpha)


@pytest.mark.parametrize("theory", ["x", "y"])
def test_cube_is_resolved_and_shaped_when_built(theory):
    for name, diagram in named_diagrams(6):
        cube = build_cube(diagram, theory)
        n, ids = cube.n, cube._edge_ids
        assert [(alpha, c) for alpha in cube.vertices() for c in range(n) if ids[alpha * n + c] >= 0] == list(cube.edges()), name
        assert all(i < len(cube._tables) for i in ids), name
        assert len(cube._resolutions) == 1 << n, name
        for alpha in cube.vertices():
            assert cube.resolution(alpha).keys == resolve(diagram, alpha).keys, (name, alpha)


def test_edge_map_matches_streamed_terms():
    cube = build_cube(parse_pd(TREFOIL))
    for alpha, c in cube.edges():
        m = cube.edge_map(alpha, c)
        for mask in range(cube.space(alpha).dim):
            assert m.apply(mask) == tuple(cube.edge_terms(alpha, c, mask))


def reference_edge_map(cube, alpha, c):
    """One edge's map built from its own circle correspondence."""
    e = cube.edge(alpha, c)
    src, dst = cube.space(alpha), cube.space(alpha | 1 << c)
    if e.kind == "merge":
        return merge_map(src, dst, e.key_map)
    return split_map(src, dst, e.parent, e.child0, e.child1, e.key_map)


def assert_tables_match_edge_maps(cube):
    for alpha, c in cube.edges():
        table = cube.edge_table(alpha, c)
        ref = reference_edge_map(cube, alpha, c)
        assert len(table) == cube.space(alpha).dim
        for mask, col in enumerate(table):
            assert col == ref.apply(mask), (alpha, c, mask)


@pytest.mark.parametrize("theory", ["x", "y"])
def test_shape_tables_match_edge_maps_on_corpus(theory):
    for name, diagram in named_diagrams(8):
        cube = build_cube(diagram, theory)
        assert_tables_match_edge_maps(cube)
        if cube.n >= 6:
            # Edges of one shape share one table.
            shared = {id(cube.edge_table(*e)) for e in cube.edges()}
            assert len(shared) < len(list(cube.edges())) // 4, name


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=7),
    st.sampled_from(["x", "y"]),
)
def test_shape_tables_match_edge_maps_on_braid_closures(word, theory):
    assert_tables_match_edge_maps(build_cube(braid_closure(word, 3), theory))


def shape_by_keys(cube, alpha, c):
    """One edge's shape read off its circle correspondence, key by key."""
    e = cube.edge(alpha, c)
    pos = cube.space(alpha | 1 << c).pos
    shape = (e.kind, tuple(pos[e.key_map[k]] for k in cube.space(alpha).keys))
    if e.kind == "split":
        shape += (pos[e.child0], pos[e.child1])
    return shape


@pytest.mark.parametrize("theory", ["x", "y"])
def test_shapes_by_position_match_shapes_by_keys_on_corpus(theory):
    for name, diagram in named_diagrams(8):
        cube = build_cube(diagram, theory)
        ids = {}
        for e in cube.edges():
            ids.setdefault(shape_by_keys(cube, *e), set()).add(cube.edge_shape(*e))
        # One id per shape, and no id shared by two shapes.
        assert all(len(v) == 1 for v in ids.values()), name
        assert len(set().union(*ids.values())) == len(ids), name


def per_face_sigmas(cube):
    return {f: classify_face(cube, *f).sigma for f in cube.faces()}


@pytest.mark.parametrize("theory", ["x", "y"])
def test_keyed_face_sigmas_match_classify_face_on_corpus(theory):
    for name, diagram in named_diagrams(8):
        cube = build_cube(diagram, theory)
        assert cube_module._face_sigmas(cube, cube.faces()) == per_face_sigmas(cube), name


def test_classify_face_runs_once_per_key_and_per_vanishing_face(monkeypatch):
    cube = build_cube(prime_knot("8_19"))
    calls = []
    original = cube_module.classify_face

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(cube_module, "classify_face", counted)
    assemble_complex(cube)
    monkeypatch.setattr(cube_module, "classify_face", original)
    keys = {f: cube.face_key(*f) for f in cube.faces()}
    vanishing = [f for f in cube.faces() if original(cube, *f).tag in {"vi", "x"}]
    vanishing_keys = {keys[f] for f in vanishing}
    assert len(vanishing) > len(vanishing_keys) > 0
    # Every key once, and every vi/x face past the first of its key.
    expected = len(set(keys.values())) + len(vanishing) - len(vanishing_keys)
    assert len(calls) == expected < len(keys) // 3
    assert set(vanishing) <= set(calls)


def test_solver_refuses_a_face_classified_against_its_key(monkeypatch):
    # The first face of each key must classify to the key's measured
    # sign: the canonical walk is the only face check of assembly.
    original = cube_module.classify_face

    def negated(*args):
        face = original(*args)
        return cube_module.FaceClass(face.tag, -face.sigma)

    monkeypatch.setattr(cube_module, "classify_face", negated)
    with pytest.raises(ValueError, match="no coherent edge signs exist"):
        solve_sign_assignment(build_cube(hopf_link(1)))


@pytest.mark.parametrize("theory", ["x", "y"])
def test_table_gate_reads_the_second_edge_of_each_shape(theory):
    for name, diagram in named_diagrams(6):
        cube = build_cube(diagram, theory)
        ids = cube._edge_ids
        seen = {}
        for alpha, c in cube.edges():
            seen.setdefault(ids[alpha * cube.n + c], []).append((alpha, c))
        assert cube._sites == [seen[i][:2] for i in range(len(seen))], name
        assert cube_module._first_wrong_table(cube) is None, name


def test_table_gate_refuses_a_shape_key_that_does_not_fix_its_table():
    # Hand the edge of another merge shape on the same source space to a
    # shape as its second edge: the table built from the first edge is
    # not that edge's merge map.
    cube = build_cube(prime_knot("8_19"))
    merges = [i for i, sites in enumerate(cube._sites) if cube.edge(*sites[0]).kind == "merge"]
    i, j = next(
        (i, j) for i in merges for j in merges
        if len(cube._tables[i]) == len(cube._tables[j]) and cube._tables[i] != cube._tables[j]
    )
    cube._sites[i] = [cube._sites[i][0], cube._sites[j][0]]
    assert cube_module._first_wrong_table(cube) == cube._sites[j][0]


def test_trefoil_base_faces_are_merge_chains():
    cube = build_cube(parse_pd(TREFOIL))
    for c1, c2 in ((0, 1), (0, 2), (1, 2)):
        assert classify_face(cube, 0, c1, c2) == classify_face(cube, 0, c2, c1)
        face = classify_face(cube, 0, c1, c2)
        assert face.tag == "ii"
        assert face.sigma == 1


def test_hopf_face_is_double_band():
    cube = build_cube(parse_pd(HOPF_POS))
    face = classify_face(cube, 0, 0, 1)
    assert face.tag in {"iii", "ix"}


def test_poke_face_is_interleaved():
    cube = build_cube(parse_pd(POKE))
    face = classify_face(cube, 0, 0, 1)
    assert face.tag in {"vi", "x"}
    first = compose(cube.edge_map(1, 1), cube.edge_map(0, 0))
    second = compose(cube.edge_map(2, 0), cube.edge_map(0, 1))
    assert first.is_zero() and second.is_zero()


def test_theory_flips_exactly_the_interleaved_faces():
    for code in (TREFOIL, HOPF_POS, POKE, FIG8):
        d = parse_pd(code)
        cy = build_cube(d, theory="y")
        cx = build_cube(d, theory="x")
        for alpha, c1, c2 in cy.faces():
            fy = classify_face(cy, alpha, c1, c2)
            fx = classify_face(cx, alpha, c1, c2)
            assert fy.tag == fx.tag
            if fy.tag in {"vi", "x"}:
                assert fx.sigma == -fy.sigma
            else:
                assert fx.sigma == fy.sigma


def test_sigma_matches_full_composites():
    for code in (TREFOIL, FIG8, HOPF_POS, POKE):
        cube = build_cube(parse_pd(code))
        for alpha, c1, c2 in cube.faces():
            face = classify_face(cube, alpha, c1, c2)
            assert face.tag in ALL_TAGS
            first = compose(cube.edge_map(alpha | 1 << c1, c2), cube.edge_map(alpha, c1))
            second = compose(cube.edge_map(alpha | 1 << c2, c1), cube.edge_map(alpha, c2))
            if first.is_zero():
                assert second.is_zero()
                assert face.tag in {"vi", "x"}
            else:
                assert second == first.scale(face.sigma)


def kinked_unknot(signs):
    d, _ = add_free_circle(parse_pd([]))
    for i, sign in enumerate(signs):
        arcs = sorted(set(d.free_arcs) | {a for t in d.crossings for a in t})
        d = insert_kink(d, arcs[i % len(arcs)], sign)
    return d


def test_sign_assignment_counts():
    for diagram, count in (
        (kinked_unknot([1]), 2),
        (parse_pd(HOPF_POS), 8),
        (parse_pd(TREFOIL), 128),
    ):
        assert len(enumerate_sign_assignments(build_cube(diagram))) == count


def test_enumerated_assignments_are_valid_and_distinct():
    cube = build_cube(parse_pd(HOPF_POS))
    sols = enumerate_sign_assignments(cube)
    seen = {tuple(sorted(s.items())) for s in sols}
    assert len(seen) == len(sols)
    for s in sols:
        assert verify_sign_assignment(cube, s)


def test_solve_is_valid_and_deterministic():
    for code in (TREFOIL, FIG8, POKE):
        cube = build_cube(parse_pd(code))
        eps = solve_sign_assignment(cube)
        assert set(eps) == set(cube.edges())
        assert verify_sign_assignment(cube, eps)
        assert eps == solve_sign_assignment(build_cube(parse_pd(code)))


def test_verify_rejects_a_flipped_edge():
    cube = build_cube(parse_pd(TREFOIL))
    eps = solve_sign_assignment(cube)
    edge = next(iter(eps))
    eps[edge] = -eps[edge]
    assert not verify_sign_assignment(cube, eps)


def test_extend_respects_pins():
    cube = build_cube(parse_pd(TREFOIL))
    target = enumerate_sign_assignments(cube)[-1]
    pins = dict(list(sorted(target.items()))[:4])
    eps = extend_sign_assignment(cube, pins)
    assert verify_sign_assignment(cube, eps)
    for e, v in pins.items():
        assert eps[e] == v


def test_extend_rejects_incoherent_pins():
    cube = build_cube(parse_pd(TREFOIL))
    eps = solve_sign_assignment(cube)
    alpha, c1, c2 = next(iter(cube.faces()))
    pins = {e: eps[e] for e in face_edges(alpha, c1, c2)}
    first = next(iter(pins))
    pins[first] = -pins[first]
    with pytest.raises(ValueError):
        extend_sign_assignment(cube, pins)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))
def test_kinked_unknot_sign_systems(signs):
    cube = build_cube(kinked_unknot(signs))
    assert verify_sign_assignment(cube, solve_sign_assignment(cube))
    assert verify_sign_assignment(cube, doubled_signs(cube))


def gf2_reference(cube, pinned=None, negated=frozenset()):
    """Signs from lowest-bit GF(2) elimination of the face system.

    Edges in (vertex, crossing) order are the variables and free
    variables read +1.  Pins add one equation each.  A face with an odd
    number of ``negated`` edges has its sigma flipped, and the
    negations are folded back into the answer, as for reversed arrows.
    """
    index = {e: i for i, e in enumerate(cube.edges())}
    rows, rhs = [], []
    for alpha, c1, c2 in cube.faces():
        row, odd = 0, False
        for e in face_edges(alpha, c1, c2):
            row |= 1 << index[e]
            odd ^= e in negated
        sigma = cube_module.classify_face(cube, alpha, c1, c2).sigma
        rows.append(row)
        rhs.append(1 if sigma == (-1 if odd else 1) else 0)
    for e, v in sorted((pinned or {}).items()):
        rows.append(1 << index[e])
        rhs.append(1 if v == -1 else 0)
    sol, _ = solve_gf2(rows, rhs, len(index))
    if sol is None:
        raise ValueError("no coherent edge signs exist")
    return {
        e: (-1 if sol >> i & 1 else 1) * (-1 if e in negated else 1)
        for e, i in index.items()
    }


def outcome(fn, *args):
    """The result of a solver, or ValueError when it refuses."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("theory", ["x", "y"])
def test_solve_matches_gf2_reference_on_corpus(theory):
    for name, diagram in named_diagrams(8):
        cube = build_cube(diagram, theory)
        assert solve_sign_assignment(cube) == gf2_reference(cube), name


@pytest.mark.parametrize("theory", ["x", "y"])
def test_canonical_signs_read_plus_one_along_each_highest_crossing(theory):
    # The tree that fixes the gauge: every vertex but the top, along its
    # highest unresolved crossing.
    for name, diagram in named_diagrams(6):
        cube = build_cube(diagram, theory)
        eps = solve_sign_assignment(cube)
        full = (1 << cube.n) - 1
        for alpha in range(full):
            assert eps[alpha, (full ^ alpha).bit_length() - 1] == 1, (name, alpha)


@pytest.mark.parametrize("theory", ["x", "y"])
def test_extend_with_no_pins_is_the_canonical_solve(theory):
    for name, diagram in named_diagrams(6):
        cube = build_cube(diagram, theory)
        assert extend_sign_assignment(cube, {}) == solve_sign_assignment(cube), name


_braid_letters = st.sampled_from([1, -1, 2, -2])
_small_diagrams = st.one_of(
    st.lists(_braid_letters, min_size=1, max_size=6).map(lambda w: braid_closure(w, 3)),
    st.lists(st.integers(1, 3), min_size=1, max_size=3)
    .filter(lambda tw: sum(tw) <= 6)
    .map(rational_knot),
)


@settings(max_examples=25, deadline=None)
@given(_small_diagrams, st.sampled_from(["x", "y"]))
def test_keyed_face_sigmas_match_classify_face_on_random_diagrams(diagram, theory):
    cube = build_cube(diagram, theory)
    assert cube_module._face_sigmas(cube, cube.faces()) == per_face_sigmas(cube)


@settings(max_examples=25, deadline=None)
@given(_small_diagrams, st.sampled_from(["x", "y"]))
def test_solve_matches_gf2_reference_on_random_diagrams(diagram, theory):
    cube = build_cube(diagram, theory)
    assert solve_sign_assignment(cube) == gf2_reference(cube)


_pin_hosts = [d for _, d in named_diagrams(6) if d.crossings]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_pin_hosts),
    st.sampled_from(["x", "y"]),
    st.sampled_from(["canonical", "one_flipped", "random"]),
    st.data(),
)
def test_extend_matches_gf2_reference_on_random_pins(diagram, theory, mode, data):
    cube = build_cube(diagram, theory)
    edges = list(cube.edges())
    chosen = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
    if mode == "random":
        pins = {e: data.draw(st.sampled_from([1, -1])) for e in chosen}
    else:
        canonical = solve_sign_assignment(cube)
        pins = {e: canonical[e] for e in chosen}
        if mode == "one_flipped":
            e = data.draw(st.sampled_from(chosen))
            pins[e] = -pins[e]
    got = outcome(extend_sign_assignment, cube, pins)
    assert got == outcome(gf2_reference, cube, pins)
    if got is not ValueError:
        assert verify_sign_assignment(cube, got)
        assert all(got[e] == v for e, v in pins.items())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_pin_hosts), st.sampled_from(["x", "y"]), st.data())
def test_arrow_flips_match_gf2_reference(diagram, theory, data):
    cube = build_cube(diagram, theory)
    reversed_crossings = data.draw(st.sets(st.integers(0, cube.n - 1)))
    negated = {
        e for e in cube.edges()
        if e[1] in reversed_crossings and cube.edge(*e).kind == "split"
    }
    got = outcome(arrow_flipped_signs, cube, reversed_crossings)
    assert got == outcome(gf2_reference, cube, None, negated)


def kinked_poke():
    """The poke with a kink added: three crossings and interleaved faces."""
    return insert_kink(parse_pd(POKE), 1, 1)


@pytest.mark.parametrize("vanishing", [False, True], ids=["paths", "vanishing-paths"])
def test_one_flipped_face_is_refused(monkeypatch, vanishing):
    cube = build_cube(kinked_poke())
    face = next(
        f for f in cube.faces()
        if (classify_face(cube, *f).tag in {"vi", "x"}) == vanishing
    )
    original = cube_module.classify_face

    def flipped(cb, alpha, c1, c2):
        fc = original(cb, alpha, c1, c2)
        if (alpha, min(c1, c2), max(c1, c2)) == face:
            return cube_module.FaceClass(fc.tag, -fc.sigma)
        return fc

    monkeypatch.setattr(cube_module, "classify_face", flipped)
    # A fresh cube each: a cube caches the sign of each face key.
    for solve in (
        solve_sign_assignment,
        lambda cb: extend_sign_assignment(cb, {}),
        lambda cb: arrow_flipped_signs(cb, []),
        gf2_reference,
    ):
        with pytest.raises(ValueError):
            solve(build_cube(kinked_poke()))
