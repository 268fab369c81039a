"""Cross-validation oracles against the main pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkh import complexes as complexes_module
from oddkh.complexes import (
    ChainComplex,
    assemble_complex,
    graded_euler_characteristic,
    homology,
    reduce_coefficients,
)
from oddkh.cube import build_cube
from oddkh.linalg import IntMatrix, elementary_divisors
from oddkh.linkdiag import add_free_circle, insert_kink, parse_pd
from oddkh.oracles import (
    BRUTE_FORCE_LIMIT,
    LaurentPolynomial,
    brute_force_homology,
    even_khovanov_mod2,
    kauffman_bracket,
    largest_block,
)

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
FIG8 = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]
HOPF_POS = [[1, 3, 2, 4], [3, 1, 4, 2]]
HOPF_NEG = [[1, 4, 2, 3], [3, 2, 4, 1]]
POKE = [[4, 1, 2, 3], [2, 1, 4, 3]]

CIRCLE = LaurentPolynomial({1: 1, -1: 1})


def unknot_diagram():
    d, _ = add_free_circle(parse_pd([]))
    return d


def kinked_unknot(signs):
    d = unknot_diagram()
    for i, sign in enumerate(signs):
        arcs = sorted(set(d.free_arcs) | {a for t in d.crossings for a in t})
        d = insert_kink(d, arcs[i % len(arcs)], sign)
    return d


def test_bracket_of_unlinks():
    assert kauffman_bracket(unknot_diagram()) == CIRCLE
    two, _ = add_free_circle(unknot_diagram())
    assert kauffman_bracket(two) == CIRCLE * CIRCLE


def test_bracket_matches_euler_characteristic():
    for code in (TREFOIL, FIG8, HOPF_POS, HOPF_NEG, POKE):
        d = parse_pd(code)
        cx = assemble_complex(build_cube(d))
        assert kauffman_bracket(d).table == graded_euler_characteristic(cx)


def test_trefoil_bracket_has_four_terms():
    assert len(kauffman_bracket(parse_pd(TREFOIL)).table) == 4


def test_laurent_polynomial_drops_zeros():
    assert LaurentPolynomial({3: 0, 1: 2}).table == {1: 2}
    assert (CIRCLE + LaurentPolynomial({1: -1, -1: -1})).table == {}


def test_even_mod2_unknot():
    assert even_khovanov_mod2(unknot_diagram()) == {(0, 1): 1, (0, -1): 1}


def test_even_mod2_total_dimension_is_multiplicative():
    base = parse_pd(TREFOIL)
    alone = sum(even_khovanov_mod2(base).values())
    disjoint, _ = add_free_circle(base)
    assert sum(even_khovanov_mod2(disjoint).values()) == 2 * alone


def test_even_mod2_matches_odd_reduction():
    for code in (TREFOIL, FIG8, HOPF_POS, HOPF_NEG, POKE):
        d = parse_pd(code)
        cx = assemble_complex(build_cube(d))
        assert even_khovanov_mod2(d) == reduce_coefficients(cx, 2)


class _BlockComplex:
    """What ``brute_force_homology`` and ``largest_block`` read of a complex.

    Quantum degrees per homological degree, and differentials given by
    hand (zero where none is given).
    """

    def __init__(self, qdeg, diff):
        self._qdeg, self._diff = qdeg, diff

    def degrees(self):
        return sorted(self._qdeg)

    def quantum_degrees(self, h):
        return self._qdeg.get(h, ())

    def gradings(self):
        return sorted({(h, q) for h, qs in self._qdeg.items() for q in qs})

    def q_block(self, h, q):
        return [k for k, p in enumerate(self.quantum_degrees(h)) if p == q]

    def differential(self, h):
        return self._diff.get(h, IntMatrix.zero(len(self.quantum_degrees(h + 1)), len(self.quantum_degrees(h))))


def test_hand_built_complexes_number_generators_by_vertex_runs():
    c = ChainComplex(build_cube(parse_pd([])), [], {0: ((0, 6), (1, 0))}, {0: (0,) * 65})
    assert c.dim(0) == 65
    assert c.basis(0)[-1] == (1, 0)
    for j, gen in enumerate(c.basis(0)):
        assert c.index(0, gen) == j


def test_brute_force_zero_complex():
    assert brute_force_homology(_BlockComplex({}, {})).table == {}


def test_brute_force_times_two():
    times_two = IntMatrix(1, 1, {(0, 0): 2})
    c = _BlockComplex({0: (0,), 1: (0,)}, {0: times_two})
    expected = {(1, 0): (0, (2,))}
    assert brute_force_homology(c).table == expected
    # homology reads its table off each block's elementary divisors.
    divisors = {(0, 0): elementary_divisors(times_two)}
    assert complexes_module._table(divisors, {(0, 0): 1, (1, 0): 1}) == expected


def test_brute_force_size_guard():
    big = _BlockComplex({0: (0,) * 65}, {})
    with pytest.raises(ValueError):
        brute_force_homology(big)


def test_brute_force_matches_homology():
    for code in (HOPF_POS, HOPF_NEG, POKE, TREFOIL, FIG8):
        cx = assemble_complex(build_cube(parse_pd(code)))
        if largest_block(cx) > BRUTE_FORCE_LIMIT:
            continue
        assert brute_force_homology(cx) == homology(cx)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=0, max_size=3))
def test_bracket_disjoint_union_is_multiplicative(signs):
    d = kinked_unknot(signs)
    with_extra, _ = add_free_circle(d)
    assert kauffman_bracket(with_extra) == kauffman_bracket(d) * CIRCLE


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3))
def test_oracles_agree_on_kinked_unknots(signs):
    d = kinked_unknot(signs)
    cx = assemble_complex(build_cube(d))
    assert kauffman_bracket(d).table == graded_euler_characteristic(cx)
    assert even_khovanov_mod2(d) == reduce_coefficients(cx, 2)
    assert brute_force_homology(cx) == homology(cx)
