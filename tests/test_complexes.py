"""Flattened complexes, homology, and the chain-map calculus."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkh import complexes as complexes_module
from oddkh.complexes import (
    BigradedHomology,
    ChainComplex,
    ChainMap,
    HomologyPresentation,
    assemble_complex,
    compose,
    equal_up_to_sign,
    graded_euler_characteristic,
    homology,
    homology_presentation,
    homotopic_up_to_sign,
    identity_chain_map,
    induced_map_on_homology,
    is_chain_map,
    reduce_coefficients,
    replay_homotopy,
    zero_chain_map,
)
from oddkh import cube as cube_module
from oddkh.cobordism import dot_cobordism_map, saddle_cobordism_map
from oddkh.cube import build_cube, classify_face, enumerate_sign_assignments, solve_sign_assignment
from oddkh.fixtures import braid_closure, rational_knot
from oddkh.linalg import IntMatrix, smith_normal_form, solve_integer
from oddkh.linkdiag import add_free_circle, insert_kink, parse_pd
from oddkh.verify import named_diagrams

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
FIG8 = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]
HOPF_POS = [[1, 3, 2, 4], [3, 1, 4, 2]]
POKE = [[4, 1, 2, 3], [2, 1, 4, 3]]

UNKNOT_HOMOLOGY = BigradedHomology({(0, 1): (1, ()), (0, -1): (1, ())})


def unknot_diagram():
    d, _ = add_free_circle(parse_pd([]))
    return d


def unknot_complex():
    return assemble_complex(build_cube(unknot_diagram()))


def kinked_unknot(signs):
    d = unknot_diagram()
    for i, sign in enumerate(signs):
        arcs = sorted(set(d.free_arcs) | {a for t in d.crossings for a in t})
        d = insert_kink(d, arcs[i % len(arcs)], sign)
    return d


def reference_assembly(cube, signs):
    """Basis, quantum degrees and differentials, one generator at a time.

    Each generator's image is pushed through every edge leaving its
    vertex and placed by looking up the (vertex, mask) target.
    """
    nm = cube.diagram.n_minus
    shift_q = cube.diagram.n_plus - 2 * nm
    basis, qdeg = {}, {}
    for alpha in cube.vertices():
        h = alpha.bit_count() - nm
        circles = cube.resolution(alpha).n_circles
        for m in cube.space(alpha).basis():
            basis.setdefault(h, []).append((alpha, m))
            qdeg.setdefault(h, []).append(circles - 2 * m.bit_count() + alpha.bit_count() + shift_q)
    index = {h: {g: i for i, g in enumerate(v)} for h, v in basis.items()}
    diff = {}
    for h, gens in basis.items():
        if h + 1 not in basis:
            continue
        entries = {}
        for j, (alpha, mask) in enumerate(gens):
            for c in range(cube.n):
                if alpha >> c & 1:
                    continue
                beta = alpha | 1 << c
                for coeff, out in cube.edge_terms(alpha, c, mask):
                    entries[index[h + 1][beta, out], j] = signs[alpha, c] * coeff
        diff[h] = IntMatrix(len(basis[h + 1]), len(gens), entries)
    return basis, qdeg, diff


def assert_matches_reference_assembly(cube):
    cx = assemble_complex(cube)
    basis, qdeg, diff = reference_assembly(cube, solve_sign_assignment(cube))
    assert cx.degrees() == sorted(basis)
    for h in cx.degrees():
        assert list(cx.basis(h)) == basis[h]
        assert list(cx.quantum_degrees(h)) == qdeg[h]
        assert cx.differential(h) == diff.get(h, IntMatrix.zero(cx.dim(h + 1), cx.dim(h)))


@pytest.mark.parametrize("theory", ["x", "y"])
def test_assembly_matches_reference_on_corpus(theory):
    for _, diagram in named_diagrams(8):
        assert_matches_reference_assembly(build_cube(diagram, theory))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=7),
    st.sampled_from(["x", "y"]),
)
def test_assembly_matches_reference_on_braid_closures(word, theory):
    assert_matches_reference_assembly(build_cube(braid_closure(word, 3), theory))


def test_unknot_complex_shape():
    c = unknot_complex()
    assert c.degrees() == [0]
    assert c.dim(0) == 2
    assert sorted(c.quantum_degrees(0)) == [-1, 1]
    assert not c.differential(0).data
    assert homology(c) == UNKNOT_HOMOLOGY
    assert graded_euler_characteristic(c) == {1: 1, -1: 1}


def test_unlink_euler_characteristic():
    d, _ = add_free_circle(unknot_diagram())
    c = assemble_complex(build_cube(d))
    assert graded_euler_characteristic(c) == {2: 1, 0: 2, -2: 1}


def test_hopf_chain_ranks():
    c = assemble_complex(build_cube(parse_pd(HOPF_POS)))
    assert [c.dim(h) for h in c.degrees()] == [4, 4, 4]
    assert c.degrees() == [0, 1, 2]


def doubled_signs(cube):
    """Coherent signs other than the canonical ones: the cube doubled one
    crossing at a time, the new direction at +1 and each copied edge
    closing its mixed face."""
    eps = {}
    for k in range(cube.n):
        for alpha in range(1 << k):
            eps[alpha, k] = 1
            for c in range(k):
                if not alpha >> c & 1:
                    eps[alpha | 1 << k, c] = -classify_face(cube, alpha, c, k).sigma * eps[alpha, c]
    return eps


def test_assembly_validates_many_diagrams():
    for code in (TREFOIL, FIG8, HOPF_POS, POKE):
        cube = build_cube(parse_pd(code))
        assemble_complex(cube)
        assemble_complex(cube, doubled_signs(cube))


def streaming_squares_reference(cube, eps):
    """d^2 = 0 checked face by face and monomial by monomial, signs included."""
    for alpha, c1, c2 in cube.faces():
        paths = []
        for first, second in ((c1, c2), (c2, c1)):
            mid = alpha | 1 << first
            s = eps[alpha, first] * eps[mid, second]
            paths.append((s, cube.edge_table(alpha, first), cube.edge_table(mid, second)))
        for mask in range(cube.space(alpha).dim):
            acc = {}
            for s, t1, t2 in paths:
                for cm, m in t1[mask]:
                    for co, out in t2[m]:
                        acc[out] = acc.get(out, 0) + s * cm * co
            if any(acc.values()):
                return False
    return True


def squares_vanish(cube, eps):
    """Whether d^2 = 0 for the edge signs ``eps``, by the d^2 gate of assembly."""
    return cube_module._first_failing_face(cube, eps) is None


@pytest.mark.parametrize("theory", ["x", "y"])
def test_square_check_matches_streaming_reference(theory):
    for name, diagram in named_diagrams(7):
        cube = build_cube(diagram, theory)
        eps = solve_sign_assignment(cube)
        assert squares_vanish(cube, eps) is streaming_squares_reference(cube, eps) is True
        for edge in list(eps)[:: max(1, len(eps) // 5)]:
            broken = dict(eps)
            broken[edge] = -broken[edge]
            got = squares_vanish(cube, broken)
            assert got is streaming_squares_reference(cube, broken), (name, edge)
            # A flipped edge breaks d^2 unless all its faces vanish.
            faces = [f for f in cube.faces() if edge in cube_module.face_edges(*f)]
            vanishing = all(classify_face(cube, *f).tag in {"vi", "x"} for f in faces)
            assert got is vanishing, (name, edge)


def mutant_differentials(cube, mutation, eligible=lambda mask: True):
    """The differentials of ``assemble_complex`` with one deliberate mistake.

    ``offset``: the entries of the first edge into each target vertex
    start at the next vertex's offset.  ``mask``: one edge's entries land
    one monomial further on in the target vertex.  ``sign``: every edge
    takes the sign of the next edge out of its vertex.  ``drop``: one
    entry is left out.  ``mask`` and ``drop`` hit the first generator
    whose monomial is ``eligible``.  Rows are wrapped into range so that
    the matrices can be built; nothing is validated.  Returns the
    complex assembled from the cube and the mutated differentials.
    """
    signs = solve_sign_assignment(cube)
    cx = assemble_complex(cube, signs)
    diff = {}
    hit = False
    for h in cx.degrees():
        if h + 1 not in cx.degrees():
            continue
        src, dst = cx.basis(h), cx.basis(h + 1)
        rows = len(dst)
        entries = {}
        for j, (alpha, mask) in enumerate(src):
            free = [c for c in range(cube.n) if not alpha >> c & 1]
            for k, c in enumerate(free):
                beta = alpha | 1 << c
                base = cx.index(h + 1, (beta, 0))
                dim = cube.space(beta).dim
                index = cube.space(beta).basis_index()
                sign = signs[alpha, free[(k + 1) % len(free)] if mutation == "sign" else c]
                for coeff, m in cube.edge_table(alpha, c)[mask]:
                    i = base + index[m]
                    if mutation == "offset" and k == 0:
                        i = (base + dim + index[m]) % rows
                    elif mutation == "mask" and not hit and k == 0 and eligible(mask):
                        i = base + (index[m] + 1) % dim
                    elif mutation == "drop" and not hit and eligible(mask):
                        hit = True
                        continue
                    entries[i, j] = sign * coeff
                if mutation == "mask" and k == 0 and eligible(mask) and cube.edge_table(alpha, c)[mask]:
                    hit = True
        diff[h] = IntMatrix(rows, len(src), entries)
    return cx, diff


def mutant_complex(cube, mutation):
    cx, diff = mutant_differentials(cube, mutation)
    runs = {h: [(alpha, cube.space(alpha).k) for alpha, *_ in r] for h, r in cx._runs.items()}
    return ChainComplex(cube, cx.signs, runs, dict(cx._qdeg), diff)


def assert_index_inverts_basis(cx):
    for h in cx.degrees():
        for j, gen in enumerate(cx.basis(h)):
            assert cx.index(h, gen) == j, (h, gen)


@pytest.mark.parametrize("theory", ["x", "y"])
def test_index_inverts_basis_on_corpus(theory):
    for _, diagram in named_diagrams(5):
        assert_index_inverts_basis(assemble_complex(build_cube(diagram, theory)))


def test_index_inverts_basis_on_hand_built_complexes():
    for code in (TREFOIL, FIG8, POKE):
        assert_index_inverts_basis(mutant_complex(build_cube(parse_pd(code)), "offset"))


def test_vertices_of_one_circle_count_share_one_order():
    cube = build_cube(parse_pd(FIG8))
    cx = assemble_complex(cube)
    first = {}
    for h in cx.degrees():
        for alpha, _, order, rank in cx._runs[h]:
            k = cube.resolution(alpha).n_circles
            seen = first.setdefault(k, (order, rank))
            assert seen[0] is order is cube.space(alpha).basis()
            assert seen[1] is rank is cube.space(alpha).basis_index()
    assert len(first) < sum(len(r) for r in cx._runs.values())


def test_assembled_complex_takes_under_150_bytes_per_generator():
    d = rational_knot((3, 3, 4))
    assert d.n == 10
    tracemalloc.start()
    try:
        cx = assemble_complex(build_cube(d, "x"))
        reduce_coefficients(cx, 2)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gens = sum(cx.dim(h) for h in cx.degrees())
    assert gens == 18570
    assert held / gens < 150


def test_assembly_peaks_under_150_bytes_per_generator():
    # The sign walk keeps one flat list and checks each face once.
    d = rational_knot((3, 3, 4))
    gc.collect()
    tracemalloc.start()
    try:
        cx = assemble_complex(build_cube(d, "x"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gens = sum(cx.dim(h) for h in cx.degrees())
    assert gens == 18570
    assert peak / gens < 150


@pytest.mark.parametrize("theory", ["x", "y"])
def test_canonical_assembly_walks_the_faces_once(monkeypatch, theory):
    def second_walk(*args):
        raise AssertionError("a second face walk ran")

    for name, diagram in named_diagrams(6):
        monkeypatch.setattr(complexes_module, "_first_failing_face", second_walk)
        cx = assemble_complex(build_cube(diagram, theory))
        monkeypatch.undo()
        cube = build_cube(diagram, theory)
        given = assemble_complex(cube, solve_sign_assignment(cube))
        assert cx.signs == given.signs, name
        for h in cx.degrees():
            assert cx.differential(h) == given.differential(h), (name, h)


def test_given_signs_with_one_edge_negated_are_refused():
    for code in (TREFOIL, FIG8):
        cube = build_cube(parse_pd(code))
        eps = solve_sign_assignment(cube)
        edge = next(iter(eps))
        eps[edge] = -eps[edge]
        with pytest.raises(AssertionError, match=r"d\^2 != 0 on face"):
            assemble_complex(cube, eps)


@pytest.mark.parametrize("sign", [0, 2])
def test_given_signs_other_than_one_are_refused(sign):
    # A one-crossing cube has no face, so no face check sees the value.
    for d in (kinked_unknot([1]), parse_pd(TREFOIL)):
        cube = build_cube(d)
        eps = solve_sign_assignment(cube)
        eps[next(iter(eps))] = sign
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            assemble_complex(cube, eps)


def test_homology_stage_peaks_under_100_bytes_per_generator():
    # Above the assembled complex, the homology stage holds one placed
    # block of the marked half at a time.
    d = rational_knot((3, 3, 4))
    tracemalloc.start()
    try:
        cx = assemble_complex(build_cube(d, "x"))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        homology(cx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gens = sum(cx.dim(h) for h in cx.degrees())
    assert gens == 18570
    assert (peak - held) / gens < 100


@pytest.mark.parametrize("mutation", ["offset", "mask", "sign", "drop"])
@pytest.mark.parametrize("code", [TREFOIL, FIG8, POKE], ids=["trefoil", "fig8", "poke"])
def test_validate_refuses_a_mutated_assembly(mutation, code):
    cube = build_cube(parse_pd(code))
    mutant = mutant_complex(cube, mutation)
    assert any(mutant.differential(h) != assemble_complex(cube).differential(h) for h in mutant.degrees())
    with pytest.raises(AssertionError):
        complexes_module._validate(mutant)


def marked_cut(cx, h, d, lay):
    """The entries of a full d_h on the marked half, as each block's sparse columns.

    An entry whose source is marked but whose target is unmarked or of
    another quantum degree is dropped, as the placer drops targets
    outside its layout; the entry gate must then find one entry short.
    """
    (cols, src_pos, qs), (_, dst_pos, qt) = lay[h], lay[h + 1]
    blocks = {q: {} for q in cols}
    for (i, j), v in d.data.items():
        if src_pos[j] >= 0 and dst_pos[i] >= 0 and qt[i] == qs[j]:
            blocks[qs[j]].setdefault(src_pos[j], {})[dst_pos[i]] = v
    return blocks


@pytest.mark.parametrize("mutation", ["offset", "mask", "sign", "drop"])
@pytest.mark.parametrize("code", [TREFOIL, FIG8, POKE], ids=["trefoil", "fig8", "poke"])
def test_entry_gate_refuses_mutated_marked_blocks(mutation, code):
    # Each block's columns are what the marked half hands to the elimination.
    cube = build_cube(parse_pd(code))
    cx, diff = mutant_differentials(cube, mutation, eligible=lambda mask: mask & 1)
    lay = complexes_module._marked_layout(cx)
    changed = 0
    for h, d in diff.items():
        at = {}
        for q, columns in marked_cut(cx, h, d, lay).items():
            if columns == complexes_module._place(cx, h, lay[h], lay[h + 1], q, at):
                complexes_module._check_entries(cx, h, lay[h], lay[h + 1], q, columns)
                continue
            changed += 1
            with pytest.raises(AssertionError):
                complexes_module._check_entries(cx, h, lay[h], lay[h + 1], q, columns)
    assert changed


def test_entry_gate_refuses_an_entry_in_a_block_of_another_q():
    # Every entry equals its image term; only the quantum degree of one
    # target, moved by hand, puts it in a block of the wrong q.
    cx = assemble_complex(build_cube(parse_pd(TREFOIL)))
    h = next(h for h in cx.degrees() if h + 1 in cx.degrees())
    src, dst = complexes_module._one_block(cx.dim(h)), complexes_module._one_block(cx.dim(h + 1))
    columns = complexes_module._place(cx, h, src, dst, 0, {})
    i = next(r for column in columns.values() for r in column)
    qdeg = dict(cx._qdeg)
    qdeg[h + 1] = tuple(q + 2 if k == i else q for k, q in enumerate(qdeg[h + 1]))
    runs = {k: [(alpha, cx.cube.space(alpha).k) for alpha, *_ in r] for k, r in cx._runs.items()}
    moved = ChainComplex(cx.cube, cx.signs, runs, qdeg)
    with pytest.raises(AssertionError, match="changes quantum degree"):
        complexes_module._check_entries(moved, h, src, dst, 0, columns)


@pytest.mark.parametrize("where", ["past", "negative", "column"])
def test_entry_gate_refuses_an_entry_outside_its_block(where):
    # No IntMatrix range check runs on the marked path, so the gate itself
    # must refuse a row past the block or before it, and a column past it.
    cx = assemble_complex(build_cube(parse_pd(TREFOIL)))
    lay = complexes_module._marked_layout(cx)
    h, q = next((h, q) for h in cx.degrees() if h + 1 in lay for q in lay[h][0] if lay[h + 1][0].get(q))
    columns = complexes_module._place(cx, h, lay[h], lay[h + 1], q, {})
    complexes_module._check_entries(cx, h, lay[h], lay[h + 1], q, columns)
    p = next(iter(columns))
    if where == "column":
        columns[len(lay[h][0][q])] = columns.pop(p)
    else:
        _, v = columns[p].popitem()
        columns[p][len(lay[h + 1][0][q]) if where == "past" else -1] = v
    with pytest.raises(AssertionError, match="outside its block"):
        complexes_module._check_entries(cx, h, lay[h], lay[h + 1], q, columns)


def reference_marked_blocks(c, diff, h):
    """S's (h, q) blocks of a full differential, cut by a scan of the generators."""

    def marked(k, q):
        return [i for i, ((_, m), qq) in enumerate(zip(c.basis(k), c.quantum_degrees(k))) if m & 1 and qq == q]

    full = diff.get(h, IntMatrix.zero(c.dim(h + 1), c.dim(h)))
    return {q: full.submatrix(marked(h + 1, q), marked(h, q)) for q in set(c.quantum_degrees(h))}


def columns_of(m):
    """An IntMatrix as sparse columns {col: {row: value}}."""
    out = {}
    for (i, j), v in m.data.items():
        out.setdefault(j, {})[i] = v
    return out


def assert_marked_blocks_match_reference(cube):
    cx = assemble_complex(cube)
    _, _, diff = reference_assembly(cube, solve_sign_assignment(cube))
    lay = complexes_module._marked_layout(cx)
    for h in cx.degrees():
        if h + 1 in lay:
            at = {}
            placed = {q: complexes_module._place(cx, h, lay[h], lay[h + 1], q, at) for q in lay[h][0]}
            expected = reference_marked_blocks(cx, diff, h)
            assert placed == {q: columns_of(b) for q, b in expected.items() if b.cols}, h
    # Placing the marked half builds no full differential.
    assert not cx._diff


@pytest.mark.parametrize("theory", ["x", "y"])
def test_marked_blocks_match_the_cut_differential_on_corpus(theory):
    links = 0
    for _, diagram in named_diagrams(8):
        if diagram.arcs:
            links += len(diagram.components) > 1
            assert_marked_blocks_match_reference(build_cube(diagram, theory))
    assert links


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(st.sampled_from([1, -1, n - 1, 1 - n]), min_size=1, max_size=6).map(
            lambda w: braid_closure(w, n)
        )
    ),
    st.sampled_from(["x", "y"]),
)
def test_marked_blocks_match_the_cut_differential_on_random_diagrams(diagram, theory):
    assert_marked_blocks_match_reference(build_cube(diagram, theory))


@pytest.mark.parametrize("read", ["homology", "mod2"])
def test_homology_builds_no_full_differential(read):
    for name, diagram in named_diagrams(6):
        cube = build_cube(diagram)
        cx = assemble_complex(cube)
        homology(cx) if read == "homology" else reduce_coefficients(cx, 2)
        assert not cx._diff, name
        _, _, diff = reference_assembly(cube, solve_sign_assignment(cube))
        for h in cx.degrees():
            assert cx.differential(h) == diff.get(h, IntMatrix.zero(cx.dim(h + 1), cx.dim(h))), (name, h)


def test_streaming_square_check():
    for code in (TREFOIL, FIG8):
        cube = build_cube(parse_pd(code))
        eps = solve_sign_assignment(cube)
        assert squares_vanish(cube, eps)
        edge = next(iter(eps))
        broken = dict(eps)
        broken[edge] = -broken[edge]
        assert not squares_vanish(cube, broken)


def test_homology_independent_of_sign_assignment():
    cube = build_cube(parse_pd(HOPF_POS))
    answers = {
        tuple(sorted(homology(assemble_complex(cube, eps)).table.items()))
        for eps in enumerate_sign_assignments(cube)
    }
    assert len(answers) == 1


def test_homology_independent_of_theory():
    for code in (TREFOIL, HOPF_POS, POKE):
        d = parse_pd(code)
        hy = homology(assemble_complex(build_cube(d, theory="y")))
        hx = homology(assemble_complex(build_cube(d, theory="x")))
        assert hy == hx


def connecting_vertex_signs(cube, eps1, eps2):
    eta = {0: 1}
    for beta in sorted(cube.vertices(), key=lambda a: (a.bit_count(), a)):
        if beta == 0:
            continue
        c = (beta & -beta).bit_length() - 1
        alpha = beta ^ (1 << c)
        eta[beta] = eta[alpha] * eps1[alpha, c] * eps2[alpha, c]
    return eta


def test_two_assignments_differ_by_a_diagonal_isomorphism():
    cube = build_cube(parse_pd(TREFOIL))
    eps1 = solve_sign_assignment(cube)
    eps2 = enumerate_sign_assignments(cube)[-1]
    c1 = assemble_complex(cube, eps1)
    c2 = assemble_complex(cube, eps2)
    eta = connecting_vertex_signs(cube, eps1, eps2)
    blocks = {}
    for h in c1.degrees():
        entries = {
            (i, i): eta[alpha] for i, (alpha, _) in enumerate(c1.basis(h))
        }
        blocks[h] = IntMatrix(c1.dim(h), c1.dim(h), entries)
    f = ChainMap(c1, c2, blocks)
    assert is_chain_map(f)
    g = ChainMap(c2, c1, blocks)
    assert equal_up_to_sign(compose(g, f), identity_chain_map(c1)) == 1


def test_chain_map_gate_builds_no_product(monkeypatch):
    cx = assemble_complex(build_cube(parse_pd(FIG8)))
    f = dot_cobordism_map(cx, min(cx.cube.diagram.arcs))
    for h in cx.degrees():
        cx.differential(h)
    h, m = min(f.blocks.items())
    (i, j), v = next(iter(m.data.items()))
    broken = ChainMap(cx, cx, {**f.blocks, h: IntMatrix(m.rows, m.cols, {**m.data, (i, j): -v})}, f.q_shift)

    def product(*args):
        raise AssertionError("a product matrix was built")

    monkeypatch.setattr(IntMatrix, "__mul__", product)
    assert is_chain_map(f)
    assert not is_chain_map(broken)
    broken.blocks[h] = IntMatrix(m.rows + 1, m.cols)
    with pytest.raises(ValueError, match="shape mismatch"):
        is_chain_map(broken)


def test_chain_map_plumbing():
    c = assemble_complex(build_cube(parse_pd(HOPF_POS)))
    ident = identity_chain_map(c)
    assert is_chain_map(ident)
    assert equal_up_to_sign(ident, ident.scale(-1)) == -1
    assert compose(ident, ident) == ident
    assert equal_up_to_sign(ident, zero_chain_map(c, c)) is None


def test_homotopy_trivial_cases():
    c = unknot_complex()
    ident = identity_chain_map(c)
    s, H = homotopic_up_to_sign(ident, ident)
    assert s == 1
    assert all(not m.data for m in H.values())
    s, H = homotopic_up_to_sign(ident, zero_chain_map(c, c))
    assert s is None and H is None


def test_homotopy_finds_a_constructed_witness():
    c = assemble_complex(build_cube(kinked_unknot([1, -1])))
    candidates = {}
    for h in c.degrees():
        qs = c.quantum_degrees(h)
        qt = c.quantum_degrees(h - 1)
        entries = {}
        for j, qj in enumerate(qs):
            for k, qk in enumerate(qt):
                if qk == qj and (j + k) % 3 == 0:
                    entries[k, j] = 1 + (j % 2)
        if entries:
            candidates[h] = IntMatrix(c.dim(h - 1), c.dim(h), entries)
    assert candidates
    blocks = {}
    for h in c.degrees():
        hh = candidates.get(h, IntMatrix.zero(c.dim(h - 1), c.dim(h)))
        hh1 = candidates.get(h + 1, IntMatrix.zero(c.dim(h), c.dim(h + 1)))
        blocks[h] = c.differential(h - 1) * hh + hh1 * c.differential(h)
    f = ChainMap(c, c, blocks)
    assert is_chain_map(f)
    z = zero_chain_map(c, c)
    s, H = homotopic_up_to_sign(f, z)
    assert s == 1
    assert replay_homotopy(f, z, s, H) is None
    induced = induced_map_on_homology(f)
    assert all(not m.data for m in induced.values())


def test_induced_identity_is_identity():
    c = assemble_complex(build_cube(parse_pd(TREFOIL)))
    induced = induced_map_on_homology(identity_chain_map(c))
    hom = homology(c)
    assert set(induced) == set(hom.table)
    for (h, q), m in induced.items():
        rank, torsion = hom.table[h, q]
        size = rank + len(torsion)
        assert m == IntMatrix.identity(size)


def test_induced_dot_map_on_unknot():
    c = unknot_complex()
    lower = c.index(0, (0, 1))
    upper = c.index(0, (0, 0))
    dot = ChainMap(c, c, {0: IntMatrix(2, 2, {(lower, upper): 1})}, q_shift=-2)
    assert is_chain_map(dot)
    induced = induced_map_on_homology(dot)
    assert induced[0, 1] == IntMatrix(1, 1, {(0, 0): 1})
    assert not induced[0, -1].data
    assert compose(dot, dot) == zero_chain_map(c, c, q_shift=-4)


def test_reduce_coefficients_unknot():
    c = unknot_complex()
    assert reduce_coefficients(c, 2) == {(0, 1): 1, (0, -1): 1}
    # A float or bool is refused even when its value is a prime.
    for bad in (1, 4, 6, 3.5, 7.0, True, 2.0):
        with pytest.raises(ValueError):
            reduce_coefficients(c, bad)


def universal_coefficients(table, p):
    """Mod-p dimensions of an integer homology table, by the UCT."""
    expected = {}
    for (h, q), (rank, torsion) in table.items():
        here = rank + sum(1 for d in torsion if d % p == 0)
        if here:
            expected[h, q] = expected.get((h, q), 0) + here
        lifted = sum(1 for d in torsion if d % p == 0)
        if lifted:
            key = (h - 1, q)
            expected[key] = expected.get(key, 0) + lifted
    return expected


def test_mod_p_dimensions_satisfy_universal_coefficients():
    for code in (TREFOIL, FIG8, HOPF_POS):
        c = assemble_complex(build_cube(parse_pd(code)))
        hom = homology(c)
        for p in (2, 3, 5):
            assert reduce_coefficients(c, p) == universal_coefficients(hom.table, p)


def test_euler_characteristic_equals_homology_euler():
    for code in (TREFOIL, FIG8, POKE):
        c = assemble_complex(build_cube(parse_pd(code)))
        hom = homology(c)
        from_homology = {}
        for (h, q), (rank, _) in hom.table.items():
            if rank:
                s = -rank if h & 1 else rank
                from_homology[q] = from_homology.get(q, 0) + s
        from_homology = {q: v for q, v in from_homology.items() if v}
        assert graded_euler_characteristic(c) == from_homology


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3))
def test_kinks_leave_homology_alone(signs):
    c = assemble_complex(build_cube(kinked_unknot(signs)))
    assert homology(c) == UNKNOT_HOMOLOGY


def snf_reference_homology(c):
    """Homology from the full Smith normal form of every (h, q) block."""
    diagonals = {}
    for h in c.degrees():
        for q in set(c.quantum_degrees(h)):
            block = c.differential(h).submatrix(c.q_block(h + 1, q), c.q_block(h, q))
            diagonals[h, q] = [d for d in smith_normal_form(block).diagonal if d]
    table = {}
    for h, q in c.gradings():
        incoming = diagonals.get((h - 1, q), [])
        free = len(c.q_block(h, q)) - len(diagonals[h, q]) - len(incoming)
        torsion = tuple(d for d in incoming if d > 1)
        if free or torsion:
            table[h, q] = (free, torsion)
    return BigradedHomology(table)


@pytest.mark.parametrize("theory", ["x", "y"])
def test_homology_matches_snf_reference_on_corpus(theory):
    torsion_seen = False
    for name, diagram in named_diagrams(8):
        c = assemble_complex(build_cube(diagram, theory))
        expected = snf_reference_homology(c)
        assert homology(c) == expected, name
        torsion_seen |= any(t for _, t in expected.table.values())
    # 8_19 carries torsion, so the comparison covers the leftover block.
    assert torsion_seen


_braid_letters = st.sampled_from([1, -1, 2, -2])


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.lists(_braid_letters, min_size=1, max_size=6).map(lambda w: braid_closure(w, 3)),
        st.lists(st.integers(1, 3), min_size=1, max_size=3)
        .filter(lambda tw: sum(tw) <= 6)
        .map(rational_knot),
    ),
    st.sampled_from(["x", "y"]),
)
def test_homology_matches_snf_reference_on_random_diagrams(diagram, theory):
    c = assemble_complex(build_cube(diagram, theory))
    reference = snf_reference_homology(c)
    assert homology(c) == reference
    for p in (2, 3):
        assert reduce_coefficients(c, p) == universal_coefficients(reference.table, p), p


def _reduced_table_marked_at(c, arc):
    """Reduced homology with the circle through ``arc`` marked at every vertex."""
    bits = {}
    for alpha in c.cube.vertices():
        r = c.cube.resolution(alpha)
        bits[alpha] = c.cube.space(alpha).pos[r.circle_key(r.arc_circle(arc))]
    table = complexes_module._table(*complexes_module._marked_half(c, bits))
    return {(h, q + 1): group for (h, q), group in table.items()}


@pytest.mark.parametrize("theory", ["x", "y"])
def test_reduced_homology_does_not_depend_on_the_marked_arc(theory):
    knots = 0
    for name, diagram in named_diagrams(7):
        if len(diagram.components) != 1:
            continue
        knots += 1
        c = assemble_complex(build_cube(diagram, theory))
        reduced = homology(c, reduced=True).table
        for arc in diagram.arcs:
            assert _reduced_table_marked_at(c, arc) == reduced, (name, arc)
    assert knots > 10


def invariant_factors(orders):
    """The invariant factors above 1 of a sum of cyclic groups of these orders."""
    n = len(orders)
    diagonal = smith_normal_form(IntMatrix(n, n, {(k, k): d for k, d in enumerate(orders)})).diagonal
    return tuple(d for d in diagonal if d > 1)


@pytest.mark.parametrize("theory", ["x", "y"])
def test_reduced_homology_doubles_to_homology_on_corpus(theory):
    for name, diagram in named_diagrams(8):
        if not diagram.arcs:
            continue
        c = assemble_complex(build_cube(diagram, theory))
        doubled = {}
        for (h, q), (rank, torsion) in homology(c, reduced=True).table.items():
            for k in ((h, q + 1), (h, q - 1)):
                free, orders = doubled.get(k, (0, ()))
                doubled[k] = (free + rank, orders + torsion)
        table = {k: (free, invariant_factors(orders)) for k, (free, orders) in doubled.items()}
        assert table == homology(c).table, name


def test_direct_sum_merges_invariant_factors():
    # Z/2 + Z/3 is Z/6, the tuple the full block's Smith form reports.
    assert complexes_module._direct_sum((1, 2), (3,)) == (1, 1, 6)
    assert complexes_module._direct_sum((1, 2, 4), (1, 2)) == (1, 1, 2, 2, 4)
    assert complexes_module._direct_sum((), ()) == ()


def test_reduced_homology_refuses_the_empty_diagram():
    c = assemble_complex(build_cube(parse_pd({"pd": []})))
    assert homology(c).table == {(0, 0): (1, ())}
    with pytest.raises(ValueError):
        homology(c, reduced=True)
    with pytest.raises(ValueError):
        reduce_coefficients(c, 2, reduced=True)


def test_mod_p_homology_matches_snf_reference_on_corpus():
    torsion_seen = set()
    for name, diagram in named_diagrams(8):
        c = assemble_complex(build_cube(diagram))
        reference = snf_reference_homology(c).table
        for p in (2, 3):
            assert reduce_coefficients(c, p) == universal_coefficients(reference, p), (name, p)
            if any(d % p == 0 for _, t in reference.values() for d in t):
                torsion_seen.add(p)
    # 8_19 carries 2- and 3-torsion, so both primes see torsion there.
    assert torsion_seen == {2, 3}


def test_homology_presentations_match_homology_on_corpus():
    for name, diagram in named_diagrams(8):
        c = assemble_complex(build_cube(diagram))
        hom = homology(c)
        for h, q in c.gradings():
            pres = homology_presentation(c, h, q)
            rank, torsion = hom.group(h, q)
            orders = pres.orders
            assert (orders.count(0), sorted(d for d in orders if d)) == (rank, sorted(torsion)), (name, h, q)
            cols = c.q_block(h, q)
            incoming = c.differential(h - 1).submatrix(cols, c.q_block(h - 1, q))
            for i, d in enumerate(pres.orders):
                gen = pres.generator(i)
                assert pres.coords(gen) == [int(k == i) for k in range(len(pres.orders))]
                if d:
                    assert solve_integer(incoming, [d * x for x in gen]) is not None
            for j in range(incoming.cols):
                assert not any(pres.coords(incoming.column(j)))


def _scanned_block(c, h, q):
    return [i for i, qq in enumerate(c.quantum_degrees(h)) if qq == q]


def _scanned_presentation(c, h, q):
    here = _scanned_block(c, h, q)
    outgoing = c.differential(h).submatrix(_scanned_block(c, h + 1, q), here)
    incoming = c.differential(h - 1).submatrix(here, _scanned_block(c, h - 1, q))
    return HomologyPresentation(incoming, outgoing)


def reference_induced_map(f, presentations):
    """The induced map with every block cut by a scan of the quantum degrees.

    ``presentations`` caches each complex's scanned presentations.
    """

    def presentation(c, h, q):
        key = id(c), h, q
        if key not in presentations:
            presentations[key] = _scanned_presentation(c, h, q)
        return presentations[key]

    out = {}
    for h in f.src.degrees():
        for q in sorted(set(f.src.quantum_degrees(h))):
            ps = presentation(f.src, h, q)
            if not ps.orders:
                continue
            pd = presentation(f.dst, h, q + f.q_shift)
            block = f.block(h).submatrix(_scanned_block(f.dst, h, q + f.q_shift), _scanned_block(f.src, h, q))
            entries = {}
            for j in range(len(ps.orders)):
                for i, v in enumerate(pd.coords(block.apply(ps.generator(j)))):
                    if v:
                        entries[i, j] = v
            out[h, q] = IntMatrix(len(pd.orders), len(ps.orders), entries)
    return out


@pytest.mark.parametrize("theory", ["x", "y"])
def test_induced_maps_match_a_scanned_reference_on_corpus(theory):
    shifts = set()
    for name, diagram in named_diagrams(7):
        c = assemble_complex(build_cube(diagram, theory))
        presentations = {}
        maps = [dot_cobordism_map(c, a) for a in sorted(diagram.arcs)]
        if diagram.arcs:
            maps.append(saddle_cobordism_map(c, min(diagram.arcs), min(diagram.arcs)))
        for f in maps:
            shifts.add(f.q_shift)
            assert induced_map_on_homology(f) == reference_induced_map(f, presentations), (name, f.q_shift)
    assert shifts == {-2, -1}


def test_homology_presentation_refuses_non_cycles_and_bad_differentials():
    c = assemble_complex(build_cube(parse_pd(TREFOIL)))
    h, q = next((h, q) for h, q in c.gradings() if c.differential(h).submatrix(
        c.q_block(h + 1, q), c.q_block(h, q)).data)
    pres = homology_presentation(c, h, q)
    outgoing = c.differential(h).submatrix(c.q_block(h + 1, q), c.q_block(h, q))
    j = next(j for i, j in outgoing.data)
    with pytest.raises(ValueError):
        pres.coords([int(k == j) for k in range(outgoing.cols)])
    # A boundary map that does not land in the cycles is an internal fault.
    with pytest.raises(AssertionError):
        HomologyPresentation(IntMatrix.identity(outgoing.cols), outgoing)


def test_replay_homotopy_checks_every_degree():
    c = assemble_complex(build_cube(parse_pd(TREFOIL)))
    ident = identity_chain_map(c)
    zero = zero_chain_map(c, c)
    assert replay_homotopy(ident, ident, 1, {}) is None
    assert replay_homotopy(zero, zero, -1, {}) is None
    # The zero map has no blocks; the identity's degrees still count.
    assert replay_homotopy(zero, ident, 1, {}) in c.degrees()
    assert replay_homotopy(ident, zero, 1, {}) in c.degrees()
