"""Property tests: the interval algebra against a brute-force cell model.

A set drawn on the grid 1/d is a union of cells [i/d, (i+1)/d); a map drawn
on 1/d translates each cell of its domain onto another cell.  Operands are
drawn on different grids, and the model works on cells of the common grid
1/L, L the lcm of every denominator in the example, where sets are sets of
cell indices and maps are dicts between them.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from cberlab.intervals import (
    IntervalError,
    IntervalMap,
    IntervalSet,
    _normalize,
    partial_bijection_between,
)

SETTINGS = settings(max_examples=150, deadline=None)
dens = st.integers(1, 12)


@st.composite
def grid_sets(draw):
    """(den, IntervalSet): some cells of the grid 1/den, as runs that are
    sometimes cut into adjacent intervals, in a shuffled order."""
    d = draw(dens)
    cells = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    raw, i = [], 0
    while i < d:
        if not cells[i]:
            i += 1
            continue
        j = i
        while j < d and cells[j] and (j == i or draw(st.booleans())):
            j += 1
        raw.append((F(i, d), F(j, d)))
        i = j
    return d, IntervalSet(draw(st.permutations(raw)))


@st.composite
def grid_maps(draw):
    """(den, IntervalMap): a partial injection of the cells of 1/den, with
    runs of consecutive cells moved together as one piece."""
    d = draw(dens)
    perm = draw(st.permutations(range(d)))
    keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    raw, i = [], 0
    while i < d:
        if not keep[i]:
            i += 1
            continue
        j = i + 1
        while j < d and keep[j] and perm[j] == perm[j - 1] + 1 and draw(st.booleans()):
            j += 1
        raw.append((F(i, d), F(j, d), F(perm[i] - i, d)))
        i = j
    return d, IntervalMap(draw(st.permutations(raw)))


def cells(s: IntervalSet, L: int) -> frozenset:
    return frozenset(k for a, b in s.intervals for k in range(int(a * L), int(b * L)))


def model(m: IntervalMap, L: int) -> dict:
    return {k: k + int(o * L) for a, b, o in m.pieces for k in range(int(a * L), int(b * L))}


def canonical(s: IntervalSet) -> bool:
    ivs = s.intervals
    return all(type(v) is F for iv in ivs for v in iv) and all(
        0 <= a < b <= 1 for a, b in ivs
    ) and all(b < c for (_, b), (c, _) in zip(ivs, ivs[1:]))


@SETTINGS
@given(grid_sets(), grid_sets())
def test_set_algebra_matches_cells(x, y):
    (d1, a), (d2, b) = x, y
    L = math.lcm(d1, d2)
    ca, cb = cells(a, L), cells(b, L)
    for got, want in ((a.union(b), ca | cb), (a.intersect(b), ca & cb)):
        assert canonical(got)
        assert cells(got, L) == want
        assert got.measure == F(len(want), L)
    assert a.measure == F(len(ca), L)
    assert (a == b) == (ca == cb)


@SETTINGS
@given(grid_sets(), st.integers(2, 6))
def test_equality_and_hash_ignore_the_grid(x, k):
    d, a = x
    # the same point set, computed on the finer grid 1/(d*k)
    empty_fine = IntervalSet([(F(1, d * k), F(1, d * k))])
    full_fine = IntervalSet([(0, F(1, d * k)), (F(1, d * k), 1)])  # [0,1) on 1/(d*k)
    for b in (a.union(empty_fine), a.intersect(full_fine), IntervalSet(a.intervals)):
        assert b == a and hash(b) == hash(a) and b.intervals == a.intervals
    cell = IntervalSet([(0, F(1, d * k))])
    assert (a.union(cell) == a) == (a.intersect(cell) == cell)


@SETTINGS
@given(grid_sets(), grid_sets())
def test_partial_bijection_matches_cells(x, y):
    (d1, a), (d2, b) = x, y
    L = math.lcm(d1, d2)
    ca, cb = sorted(cells(a, L)), sorted(cells(b, L))
    m = partial_bijection_between(a, b)
    if len(ca) != len(cb):
        assert m is None
    else:
        assert model(m, L) == dict(zip(ca, cb))
        assert m.domain() == a and m.apply_set(a) == b


@SETTINGS
@given(grid_maps(), grid_maps(), grid_sets())
def test_map_algebra_matches_cells(x, y, z):
    (d1, f), (d2, g), (d3, s) = x, y, z
    L = math.lcm(d1, d2, d3)
    mf, mg, cs = model(f, L), model(g, L), cells(s, L)
    assert model(f.compose(g), L) == {k: mf[v] for k, v in mg.items() if v in mf}
    assert model(f.restrict(s), L) == {k: v for k, v in mf.items() if k in cs}
    assert cells(f.agreement_with(g), L) == {k for k, v in mf.items() if mg.get(k) == v}
    assert cells(f.domain(), L) == set(mf)
    assert cells(f.apply_set(f.domain()), L) == set(mf.values())
    if cs <= set(mf):
        assert cells(f.apply_set(s), L) == {mf[k] for k in cs}
    else:
        with pytest.raises(IntervalError):
            f.apply_set(s)
    assert (f == g) == (f.pieces == g.pieces)


@SETTINGS
@given(dens, st.data())
def test_malformed_input_raises(d, data):
    a = data.draw(st.integers(0, d - 1))
    b = data.draw(st.integers(a + 1, d))
    c = data.draw(st.integers(a, b - 1))  # [c, e) meets [a, b)
    e = data.draw(st.integers(c + 1, d))
    for raw in (
        [(F(a, d), F(b, d)), (F(c, d), F(e, d))],
        [(F(a, d), F(d + 1, d))],
        [(F(-1, d), F(b, d))],
        [(F(b, d), F(a, d))],
    ):
        with pytest.raises(IntervalError):
            IntervalSet(raw)
    half = F(1, 2 * d)
    for raw in (
        [(F(a, d), F(b, d), 0), (F(c, d), F(e, d), 1)],  # sources overlap
        [(0, half, 0), (half, 2 * half, -half)],  # targets overlap
        [(F(a, d), F(b, d), F(d - b + 1, d))],  # target past 1
    ):
        with pytest.raises(IntervalError):
            IntervalMap(raw)


@SETTINGS
@given(grid_sets(), grid_maps(), st.integers(2, 6))
def test_views_are_memoized(x, y, k):
    """A repeated .intervals or .pieces read returns the same tuple, equal to
    the view of a freshly built equal object, and memoizing it changes
    neither immutability nor equality nor hashing."""
    (d, a), (_, m) = x, y
    fine = IntervalSet([(0, F(1, d * k)), (F(1, d * k), 1)])  # [0,1) on 1/(d*k)
    h_a, h_m = hash(a), hash(m)
    view = a.intervals
    assert a.intervals is view
    for b in (IntervalSet(view), a.intersect(fine)):
        assert b.intervals == view and b == a and hash(b) == h_a
    pieces = m.pieces
    assert m.pieces is pieces
    fresh = IntervalMap(pieces)
    assert fresh.pieces == pieces and fresh == m and hash(fresh) == h_m
    assert all(type(v) is F for p in pieces for v in p)
    for obj in (a, m):
        with pytest.raises(AttributeError):
            obj._view = ()
        with pytest.raises(AttributeError):
            setattr(obj, "_den", 1)
    assert hash(a) == h_a and hash(m) == h_m


def normalize_both(den: int, raw) -> tuple:
    """The piece check as two `_normalize` calls, one on the sources and one
    on the targets, each a sorted list of pairs: the oracle for the map
    constructors' check."""
    pieces = tuple(sorted(p for p in raw if p[0] != p[1]))
    _normalize(den, ((a, b) for a, b, _ in pieces))
    _normalize(den, ((a + o, b + o) for a, b, o in pieces))
    return pieces


@st.composite
def int_pieces(draw):
    """(den, int pieces): a partial injection of the cells of 1/den, as in
    grid_maps, plus up to two pieces drawn anywhere near [0, den], all
    shuffled.  So valid lists come up beside lists with overlapping
    sources or targets, and pieces that leave [0,1), are empty or are
    reversed."""
    d = draw(dens)
    perm = draw(st.permutations(range(d)))
    keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    near = st.integers(-2, d + 2)
    extra = draw(st.lists(st.tuples(near, near, st.integers(-d - 2, d + 2)), max_size=2))
    return d, draw(st.permutations([(i, i + 1, perm[i] - i) for i in range(d) if keep[i]] + extra))


@settings(max_examples=600, deadline=None)
@given(int_pieces())
@example((4, [(0, 2, -1), (2, 3, -3)]))  # targets [-1, 1) and [-1, 0): the shorter is read first
@example((4, [(0, 1, 3), (1, 3, 2)]))  # targets [3, 4) and [3, 5): the longer leaves [0,1)
@example((4, [(2, 3, 1), (0, 2, 2)]))  # targets [3, 4) and [2, 4) overlap
@example((4, [(0, 2, 0), (1, 3, 1)]))  # sources overlap
def test_piece_check_matches_the_two_normalize_rule(x):
    """The map check accepts exactly the piece lists that the two-`_normalize`
    rule accepts, with the same pieces, and rejects the others with the same
    IntervalError message; the domain is the merged sources."""
    d, raw = x
    try:
        want = normalize_both(d, raw)
    except IntervalError as e:
        with pytest.raises(IntervalError) as err:
            IntervalMap._from_ints(d, raw)
        assert str(err.value) == str(e)
        return
    m = IntervalMap._from_ints(d, raw)
    assert m._items == want
    dom = m.domain()
    assert dom._den == d and dom._items == IntervalSet._from_ints(d, [(a, b) for a, b, _ in want])._items
