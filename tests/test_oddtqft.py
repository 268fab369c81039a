import pytest

from oddkh.oddtqft import (
    ExteriorSpace,
    birth_map,
    compose,
    death_map,
    dot_map,
    merge_map,
    monomial_order,
    relabel_map,
    split_map,
)


def test_basis_order_weight_then_mask():
    sp = ExteriorSpace([4, 1, 9])
    assert sp.keys == (1, 4, 9)
    assert list(sp.basis()) == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert sp.basis_index()[0b011] == 4


def test_spaces_of_one_circle_count_share_one_order():
    a, b = ExteriorSpace([4, 1, 9]), ExteriorSpace([2, 3, 5])
    assert a.basis() is b.basis() is monomial_order(3)[0]
    assert a.basis_index() is b.basis_index() is monomial_order(3)[1]
    assert ExteriorSpace([1, 2]).basis() is not a.basis()


def test_relabel_sign_tracks_inversions():
    src = ExteriorSpace([2, 7])
    dst = ExteriorSpace([3, 9])
    f = relabel_map(src, dst, {2: 9, 7: 3})
    # g2^g7 -> g9^g3 = -g3^g9
    assert f.apply(0b11) == ((-1, 0b11),)
    assert f.apply(0b01) == ((1, 0b10),)
    assert f.apply(0b10) == ((1, 0b01),)
    assert f.apply(0b00) == ((1, 0b00),)


def test_merge_collision_kills_monomial():
    src = ExteriorSpace([2, 5, 9])
    dst = ExteriorSpace([2, 9])
    m = merge_map(src, dst, {2: 2, 5: 2, 9: 9})
    assert m.apply(0b010) == ((1, 0b01),)  # g5 -> g2
    assert m.apply(0b011) == ()  # g2^g5 -> 0
    assert m.apply(0b110) == ((1, 0b11),)  # g5^g9 -> g2^g9
    assert m.apply(0b000) == ((1, 0b00),)


def test_split_unit_and_occupied():
    src = ExteriorSpace([2, 9])
    dst = ExteriorSpace([2, 5, 9])
    s = split_map(src, dst, 2, 2, 5)
    assert s.apply(0b00) == ((-1, 0b010), (1, 0b001))  # g2 - g5
    assert s.apply(0b01) == ((1, 0b011),)  # (g2-g5)^g2 = g2^g5
    assert s.apply(0b10) == ((-1, 0b110), (1, 0b101))  # (g2-g5)^g9


def test_split_lift_choice_is_immaterial():
    src = ExteriorSpace([2, 9])
    dst = ExteriorSpace([2, 5, 9])
    a = split_map(src, dst, 2, 2, 5)
    b = split_map(src, dst, 2, 5, 2)
    # Swapping the children negates the map; it is the same subspace.
    assert b == a.scale(-1)


def test_merge_after_split_vanishes():
    src = ExteriorSpace([2, 9])
    mid = ExteriorSpace([2, 5, 9])
    s = split_map(src, mid, 2, 2, 5)
    m = merge_map(mid, src, {2: 2, 5: 2, 9: 9})
    assert compose(m, s).is_zero()


def test_merge_after_birth_is_identity():
    src = ExteriorSpace([4])
    mid = ExteriorSpace([4, 7])
    b = birth_map(src, mid, 7)
    m = merge_map(mid, src, {4: 4, 7: 4})
    c = compose(m, b)
    assert c.apply(0b0) == ((1, 0b0),)
    assert c.apply(0b1) == ((1, 0b1),)


def test_death_after_birth_same_circle_vanishes():
    src = ExteriorSpace([4])
    mid = ExteriorSpace([4, 7])
    b = birth_map(src, mid, 7)
    d = death_map(mid, src, 7)
    assert compose(d, b).is_zero()


def test_death_contraction_signs():
    sp = ExteriorSpace([1, 5, 8])
    dst = ExteriorSpace([1, 8])
    d = death_map(sp, dst, 5)
    assert d.apply(0b010) == ((1, 0b00),)  # g5 -> 1
    assert d.apply(0b011) == ((-1, 0b01),)  # g1^g5 -> -g1
    assert d.apply(0b110) == ((1, 0b10),)  # g5^g8 -> g8
    assert d.apply(0b111) == ((-1, 0b11),)  # g1^g5^g8 -> -g1^g8
    assert d.apply(0b101) == ()


def test_dot_squares_to_zero_and_anticommutes():
    sp = ExteriorSpace([1, 5, 8])
    d1 = dot_map(sp, 1)
    d5 = dot_map(sp, 5)
    assert compose(d1, d1).is_zero()
    assert compose(d1, d5) == compose(d5, d1).scale(-1)
    assert d5.apply(0b001) == ((-1, 0b011),)  # g5^g1 = -g1^g5


def test_matrix_shape_and_content():
    src = ExteriorSpace([2, 9])
    dst = ExteriorSpace([2, 5, 9])
    s = split_map(src, dst, 2, 2, 5)
    # Unit column: +g2 and -g5, at rows 1 and 2 in (weight, mask) order.
    assert s.apply(0) == ((-1, 0b010), (1, 0b001))
    assert [dst.basis_index()[m] for m in (0b001, 0b010)] == [1, 2]


def test_space_validation():
    with pytest.raises(ValueError):
        ExteriorSpace([1, 1])
    src = ExteriorSpace([1])
    with pytest.raises(ValueError):
        birth_map(src, ExteriorSpace([1, 2]), 1)
    with pytest.raises(ValueError):
        merge_map(src, ExteriorSpace([1, 2]), {1: 1})
