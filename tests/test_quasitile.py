from fractions import Fraction

import pytest

from cberlab.quasitile import (
    CyclicGroup,
    TileError,
    ZdGroup,
    build_hierarchy,
    check_tiling,
    covering_family,
    greedy_disjoint_translates,
    is_invariant,
    power_ge,
    power_le,
    quasi_tile,
    t_set,
    tiling_constants,
)


def test_t_set_box():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(10))
    b = g.segment(3)
    assert t_set(g, a, b) == frozenset((x,) for x in range(8))


def test_invariance_threshold():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(100))
    b = g.segment(5)
    assert is_invariant(g, a, b, Fraction(1, 25))[0]
    assert not is_invariant(g, a, b, Fraction(1, 50))[0]


def test_cyclic_group_wraps():
    g = CyclicGroup(12)
    a = frozenset(range(12))
    b = frozenset({0, 1, 2})
    # the whole group window is perfectly invariant
    assert is_invariant(g, a, b, Fraction(0))[0]


def test_power_comparisons_exact():
    # (3/4)^(1/2): r = 0.866... slightly less than sqrt(3)/2
    assert power_le(Fraction(866, 1000), Fraction(3, 4), 1, 2)
    assert not power_ge(Fraction(866, 1000), Fraction(3, 4), 1, 2)
    assert power_ge(Fraction(867, 1000), Fraction(3, 4), 1, 2)


def test_greedy_family_eps_disjoint_and_maximal():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(100))
    b = g.segment(10)
    fam = greedy_disjoint_translates(g, a, b, Fraction(1, 5))
    assert fam.centers[0] == (0,)
    for w in fam.witnesses:
        assert w >= Fraction(4, 5) * 10


def test_covering_family_bound():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(500))
    b = g.segment(4)
    fam = covering_family(g, a, b, Fraction(1, 2), Fraction(1, 10))
    assert len(fam.covered) >= Fraction(1, 2) * Fraction(9, 10) * 500


def test_tiling_constants_quarter():
    k, p, eta = tiling_constants(Fraction(1, 4))
    assert k == 3
    assert p == [Fraction(1, 4), Fraction(3, 16), Fraction(9, 64)]
    assert eta == [Fraction(1, 108), Fraction(1, 36)]


def test_constants_reject_bad_eps():
    with pytest.raises(TileError):
        tiling_constants(Fraction(3, 2))


def test_quasi_tile_z_small():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(2000))
    qt = quasi_tile(g, a, [g.segment(10)], Fraction(2, 5))
    assert qt.coverage >= Fraction(3, 5)
    chk = check_tiling(g, a, qt)
    assert chk.eps_disjoint and chk.coverage_ok and chk.budget_scaled_ok
    assert all(v for *_, v in qt.ledger)


def test_quasi_tile_wrong_chain_length():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(2000))
    with pytest.raises(TileError):
        quasi_tile(g, a, [g.segment(10), g.segment(5)], Fraction(2, 5))


def test_hierarchy_sides_and_cap():
    h = build_hierarchy(
        ZdGroup(1),
        [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64), Fraction(1, 128)],
        4,
    )
    assert [lv.side for lv in h.levels] == [1, 32, 992, 63488]
    with pytest.raises(TileError):
        build_hierarchy(
            ZdGroup(1),
            [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64),
             Fraction(1, 128), Fraction(1, 256)],
            5,
        )


def _least_side(g, prev, eps_inv, eps_depth):
    """Least multiple of prev whose box is (prev-box, eps_inv)-invariant by
    is_invariant and eps_depth-deep for the generators, found by search."""
    side = prev
    while not (is_invariant(g, g.box(side), g.box(prev), eps_inv)[0] and 1 <= eps_depth * side):
        side += prev
    return side


def test_hierarchy_sides_in_z2_meet_the_box_invariance():
    g = ZdGroup(2)
    eps = [Fraction(1, 4)] * 3
    h = build_hierarchy(g, eps, 3)
    sides = [lv.side for lv in h.levels]
    assert sides == [1, 4, 24]  # a 1-D side rule gives 12, which is not invariant
    for n in (1, 2):
        assert sides[n] == _least_side(g, sides[n - 1], eps[n - 1], eps[n])
    with pytest.raises(TileError):  # side 1984: |tile| 3,936,256 > FOLNER_CAP
        build_hierarchy(g, [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)], 3)
