import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkh.linalg import (
    IntMatrix,
    _eliminate_units,
    _products_vanish,
    _sparse_rows,
    elementary_divisors,
    integer_cokernel,
    integer_kernel,
    modp_rank,
    smith_normal_form,
    solve_gf2,
    solve_integer,
)


def integer_rank(a):
    """Rank of A over the rationals, which is its count of elementary divisors."""
    return len(elementary_divisors(a))


def test_matrix_basic_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.apply([1, 0]) == [1, 3]
    assert a.scale(-2).to_rows() == [[-2, -4], [-6, -8]]
    assert a[0, 1] == 2
    assert a[1, 1] == 4


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1], [2, 3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]) * IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix(2, 2, {(2, 0): 1})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.randoms(use_true_random=False))
def test_products_vanish_matches_the_product_matrices(rows, inner, cols, rnd):
    def random_matrix(r, c):
        return IntMatrix(r, c, {(i, j): rnd.randint(-2, 2) for i in range(r) for j in range(c)})

    a, b, c, d = random_matrix(rows, inner), random_matrix(inner, cols), random_matrix(rows, 2), random_matrix(2, cols)
    assert _products_vanish((1, a, b), (-1, c, d)) is (a * b == c * d)
    assert _products_vanish((1, a, b), (-1, a, b))
    assert _products_vanish((2, a, b), (-1, a, b), (-1, a, b))
    assert _products_vanish((1, a, b)) is (a * b).is_zero()


def test_products_vanish_refuses_mismatched_shapes():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match="shape mismatch"):
        _products_vanish((1, a, a))
    with pytest.raises(ValueError, match="shape mismatch"):
        _products_vanish((1, a, a.transpose()), (1, a.transpose(), a))


def test_snf_known_diagonal():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    assert res.diagonal == (2, 4)
    assert res.U * a * res.V == res.D


def test_snf_divisibility_repair():
    # Diagonal input that violates the chain.
    a = IntMatrix.from_rows([[4, 0], [0, 6]])
    res = smith_normal_form(a)
    assert res.diagonal == (2, 12)
    assert res.U * a * res.V == res.D


def test_snf_empty_and_zero():
    z = IntMatrix.zero(3, 2)
    res = smith_normal_form(z)
    assert res.diagonal == (0, 0)
    assert res.rank == 0
    e = IntMatrix.zero(0, 5)
    res = smith_normal_form(e)
    assert res.diagonal == ()
    assert res.U.rows == 0 and res.V.rows == 5


def test_snf_identity_and_torsion():
    res = smith_normal_form(IntMatrix.identity(4))
    assert res.diagonal == (1, 1, 1, 1)
    assert res.torsion() == ()
    a = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
    res = smith_normal_form(a)
    assert res.diagonal == (1, 6)
    assert res.torsion() == (6,)


def _random_matrix(rng, rows, cols, lo=-9, hi=9, density=0.7):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    entries[(r, c)] = v
    return IntMatrix(rows, cols, entries)


def test_snf_random_verified():
    rng = random.Random(8231)
    small = [_random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6)) for _ in range(60)]
    # Sparse and larger: small remainders force pivot swaps, and
    # independent entries such as 4 and 6 need the divisibility repair.
    sparse = [_random_matrix(rng, rng.randint(8, 30), rng.randint(8, 30), density=0.1) for _ in range(12)]
    for a in small + sparse:
        res = smith_normal_form(a)
        assert res.U * a * res.V == res.D
        diag = [d for d in res.diagonal if d]
        assert all(d > 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        # U and V invert over Z: their SNF diagonals are all ones.
        assert all(d == 1 for d in smith_normal_form(res.U).diagonal)
        assert all(d == 1 for d in smith_normal_form(res.V).diagonal)


def test_integer_rank_matches_mod_p_generically():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert integer_rank(a) == 2
    assert modp_rank(a, 5) == 2
    assert modp_rank(a, 3) == 1  # determinant minors collapse mod 3


def test_solve_integer_solvable():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    x = solve_integer(a, [4, -9])
    assert x is not None
    assert a.apply(x) == [4, -9]
    assert integer_kernel(a)[0].cols == 0


def test_solve_integer_unsolvable():
    a = IntMatrix.from_rows([[2]])
    x = solve_integer(a, [3])
    assert x is None
    assert integer_kernel(a)[0].cols == 0
    # Inconsistent overdetermined system.
    a = IntMatrix.from_rows([[1], [1]])
    x = solve_integer(a, [0, 1])
    assert x is None


def test_solve_integer_kernel():
    a = IntMatrix.from_rows([[1, 1, 1]])
    x = solve_integer(a, [5])
    assert x is not None and sum(x) == 5
    kernel, _ = integer_kernel(a)
    assert kernel.cols == 2
    for j in range(kernel.cols):
        assert a.apply(kernel.column(j)) == [0]
    # Kernel vectors are primitive enough to span: check rank.
    assert integer_rank(kernel) == 2


def test_integer_kernel_of_injective_map_is_empty():
    a = IntMatrix.from_rows([[1, 0], [0, 2], [3, 3]])
    assert integer_kernel(a)[0].cols == 0


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_solve_integer_roundtrip(rows, cols, data):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = data.draw(st.integers(-6, 6))
            if v:
                entries[(r, c)] = v
    a = IntMatrix(rows, cols, entries)
    xs = [data.draw(st.integers(-4, 4)) for _ in range(cols)]
    b = a.apply(xs)
    x = solve_integer(a, b)
    assert x is not None
    assert a.apply(x) == b
    kernel, _ = integer_kernel(a)
    for j in range(kernel.cols):
        assert a.apply(kernel.column(j)) == [0] * rows


def snf_solvable(a, b):
    """Whether A x = b has an integer solution, read off U*A*V = D."""
    res = smith_normal_form(a)
    for i, u in enumerate(res.U.apply(b)):
        d = res.diagonal[i] if i < len(res.diagonal) else 0
        if (u % d if d else u) != 0:
            return False
    return True


def test_solve_integer_with_leftover_block():
    # No unit entries at all: the whole matrix is the leftover block.
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    block, _, _, pivots, _ = _eliminate_units(_sparse_rows(a))
    assert pivots == [] and block == a
    x = solve_integer(a, [6, 14])
    assert x is not None and a.apply(x) == [6, 14]
    assert solve_integer(a, [1, 0]) is None
    assert solve_integer(a, [2, 6]) is not None
    assert solve_integer(a, [2, 4]) is None  # only rational: (0, 1/2)
    # One unit pivot, then a 2x2 leftover block with invariant factors 2, 4.
    a = IntMatrix.from_rows([[1, 1, 0], [1, 3, 4], [0, 6, 8]])
    block, _, _, pivots, _ = _eliminate_units(_sparse_rows(a))
    assert len(pivots) == 1 and block.rows == 2 and block.cols == 2
    assert elementary_divisors(a) == (1, 2, 4)
    for b in ([1, 2, 0], [0, 0, 1], [3, 5, 8], [0, 1, 0]):
        x = solve_integer(a, b)
        assert (x is not None) == snf_solvable(a, b)
        if x is not None:
            assert a.apply(x) == b


def test_forced_pivots_come_out_in_the_given_order():
    a = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    # Markowitz would start at (0, 0); the forced order starts elsewhere.
    assert [(r, c) for r, c, _ in _eliminate_units(_sparse_rows(a))[3]][0] == (0, 0)
    order = [(2, 2), (0, 0)]
    block, block_rows, block_cols, pivots, _ = _eliminate_units(_sparse_rows(a), order=order)
    assert [(r, c) for r, c, _ in pivots] == order
    assert (block_rows, block_cols) == ([1], [1]) and block.to_rows() == [[-2]]
    # The forced elimination is unimodular too, so the divisors agree.
    tail = tuple(d for d in smith_normal_form(block).diagonal if d)
    assert (1,) * len(pivots) + tail == elementary_divisors(a)


@pytest.mark.parametrize(
    "rows,order",
    [
        ([[2, 1], [1, 1]], [(0, 0)]),
        # a unit at the start that fill-in turns into -2 by its turn
        ([[1, 1], [1, -1]], [(0, 0), (1, 1)]),
        ([[1, 0], [0, 1]], [(0, 1)]),
        ([[1, 1], [0, 1]], [(0, 0), (0, 1)]),
    ],
    ids=["not-a-unit", "filled-in", "zero", "row-used"],
)
def test_forced_pivot_must_be_a_unit_at_its_turn(rows, order):
    with pytest.raises(AssertionError, match="not a unit"):
        _eliminate_units(_sparse_rows(IntMatrix.from_rows(rows)), order=order)


def test_elementary_divisors_match_snf():
    rng = random.Random(4411)
    for _ in range(200):
        a = _random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7), lo=-3, hi=3, density=0.5)
        expected = tuple(d for d in smith_normal_form(a).diagonal if d)
        assert elementary_divisors(a) == expected
        assert integer_rank(a) == len(expected)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([(-1, 1), (-2, 2), (-6, 6)]),
    st.booleans(),
    st.data(),
)
def test_solve_integer_agrees_with_snf(rows, cols, entry_range, solvable, data):
    lo, hi = entry_range
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = data.draw(st.integers(lo, hi))
            if v:
                entries[(r, c)] = v
    a = IntMatrix(rows, cols, entries)
    if solvable:
        b = a.apply([data.draw(st.integers(-4, 4)) for _ in range(cols)])
    else:
        b = [data.draw(st.integers(-5, 5)) for _ in range(rows)]
    x = solve_integer(a, b)
    assert (x is not None) == snf_solvable(a, b)
    if x is not None:
        assert a.apply(x) == b


def check_kernel(a):
    """K is a Z-basis of ker A with left inverse L, saturated against SNF."""
    kernel, left = integer_kernel(a)
    assert kernel.cols == a.cols - integer_rank(a)
    assert (a * kernel).is_zero()
    assert left * kernel == IntMatrix.identity(kernel.cols)
    snf = smith_normal_form(a)
    for j in range(snf.rank, a.cols):
        v = snf.V.column(j)
        assert kernel.apply(left.apply(v)) == v


def test_integer_kernel_with_leftover_block():
    # No unit entries: the kernel comes from the leftover block's SNF.
    a = IntMatrix.from_rows([[2, 4, 6], [6, 8, 2]])
    assert _eliminate_units(_sparse_rows(a))[3] == []
    check_kernel(a)
    assert integer_kernel(a)[0].cols == 1
    # One unit pivot, a leftover block with divisors 2, 4, and two free columns.
    a = IntMatrix.from_rows([[1, 1, 0, 1, 0], [1, 3, 4, 1, 0], [0, 6, 8, 0, 0]])
    check_kernel(a)
    assert integer_kernel(a)[0].cols == 2


def check_cokernel(a):
    """(orders, C, G) presents Z^rows / im A exactly."""
    orders, coords, gens = integer_cokernel(a)
    divisors = elementary_divisors(a)
    assert 1 not in orders
    assert sorted(d for d in orders if d) == [d for d in divisors if d > 1]
    assert orders.count(0) == a.rows - len(divisors)
    assert coords * gens == IntMatrix.identity(len(orders))
    # Relations have zero coordinates, and every order kills its generator.
    for (i, _), v in (coords * a).data.items():
        assert orders[i] and v % orders[i] == 0
    for i, d in enumerate(orders):
        if d:
            assert solve_integer(a, [d * x for x in gens.column(i)]) is not None
    # Each vector agrees with its coordinates' image modulo the relations.
    for r in range(a.rows):
        e = [int(i == r) for i in range(a.rows)]
        back = gens.apply(coords.apply(e))
        assert solve_integer(a, [x - y for x, y in zip(e, back)]) is not None


def test_integer_cokernel_with_torsion():
    check_cokernel(IntMatrix.from_rows([[2, 4], [6, 8]]))
    a = IntMatrix.from_rows([[1, 1, 0], [1, 3, 4], [0, 6, 8], [0, 0, 0]])
    check_cokernel(a)
    assert sorted(integer_cokernel(a)[0]) == [0, 2, 4]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_integer_kernel_and_cokernel_on_random_matrices(rows, cols, data):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = data.draw(st.sampled_from([0, 0, 1, -1, 2, -2, 6, -6]))
            if v:
                entries[(r, c)] = v
    a = IntMatrix(rows, cols, entries)
    check_kernel(a)
    check_cokernel(a)


def test_solve_gf2_basic():
    # x0 + x1 = 1, x1 = 1  ->  x0 = 0, x1 = 1
    sol, null = solve_gf2([0b11, 0b10], [1, 1], 2)
    assert sol == 0b10
    assert null == []


def test_solve_gf2_inconsistent():
    sol, null = solve_gf2([0b1, 0b1], [0, 1], 1)
    assert sol is None
    assert null == []


def test_solve_gf2_free_variables_are_zero():
    # One equation, three variables: particular solution uses pivot only.
    sol, null = solve_gf2([0b111], [1], 3)
    assert sol == 0b001
    assert len(null) == 2
    for v in null:
        assert bin(v).count("1") % 2 == 0  # each lies in the kernel


def test_solve_gf2_nullspace_spans():
    rows = [0b1100, 0b0110]
    sol, null = solve_gf2(rows, [0, 0], 4)
    assert sol == 0
    assert len(null) == 2
    for v in null:
        for r in rows:
            assert bin(v & r).count("1") % 2 == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_solve_gf2_roundtrip(nrows, ncols, data):
    rows = [data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]
    x = data.draw(st.integers(0, (1 << ncols) - 1))
    b = [bin(r & x).count("1") % 2 for r in rows]
    sol, null = solve_gf2(rows, b, ncols)
    assert sol is not None
    for r, bb in zip(rows, b):
        assert bin(r & sol).count("1") % 2 == bb
    for v in null:
        for r in rows:
            assert bin(r & v).count("1") % 2 == 0
    bits = {(i, j): 1 for i, r in enumerate(rows) for j in range(ncols) if r >> j & 1}
    assert len(null) == ncols - modp_rank(IntMatrix(nrows, ncols, bits), 2)


def test_modp_rank_gf2_path():
    a = IntMatrix.from_rows([[2, 1], [4, 3]])
    # Mod 2 the matrix is [[0,1],[0,1]].
    assert modp_rank(a, 2) == 1
    assert modp_rank(a, 3) == 2
