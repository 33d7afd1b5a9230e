import itertools
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cberlab import quasitile
from cberlab.eqrel import CheckFailed
from cberlab.quasitile import (
    CyclicGroup,
    TileError,
    ZdGroup,
    build_hierarchy,
    check_tiling,
    covering_family,
    greedy_disjoint_translates,
    quasi_tile,
    tiling_constants,
)


def t_set(g, a, b):
    """T(A, B) decoded from the erosion mask the kernels share."""
    win = quasitile._Window.of(g, a, b)
    return frozenset(win.bits.elements(win.interior))


def test_t_set_box():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(10))
    b = g.segment(3)
    assert t_set(g, a, b) == frozenset((x,) for x in range(8))


def test_invariance_threshold():
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(100))
    b = g.segment(5)
    win = quasitile._Window.of(g, a, b)
    assert win.invariance(Fraction(1, 25))[0]
    assert not win.invariance(Fraction(1, 50))[0]


def test_cyclic_group_wraps():
    g = CyclicGroup(12)
    a = frozenset(range(12))
    b = frozenset({0, 1, 2})
    # the whole group window is perfectly invariant
    assert quasitile._Window.of(g, a, b).invariance(Fraction(0))[0]


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


def test_check_tiling_counts_bad_centers():
    """A repeated center adds no new point and a center near the end leaves
    A; check_tiling counts each, and the budget load grows with them."""
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(2000))
    qt = quasi_tile(g, a, [g.segment(10)], Fraction(2, 5))
    chk = check_tiling(g, a, qt)
    assert chk.bad_centers == 0 and chk.budget == (10 * len(qt.centers[0]), 2000)
    qt.centers[0] += [qt.centers[0][0], (1995,)]
    chk = check_tiling(g, a, qt)
    assert chk.bad_centers == 2 and not chk.eps_disjoint
    assert chk.budget == (10 * len(qt.centers[0]), 2000)


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
    # The side search starts at the depth bound, so a tiny eps is rejected
    # at once rather than after one step per side.
    with pytest.raises(TileError, match="side >= 1000000000 "):
        build_hierarchy(ZdGroup(1), [Fraction(1, 2), Fraction(1, 10**9)], 2)


def _least_side(g, prev, eps_inv, eps_depth):
    """Least multiple of prev whose box is (prev-box, eps_inv)-invariant by
    the set-based T(A, B) of ref_t_set and eps_depth-deep for the
    generators, found by search."""

    def invariant(a, b):
        return len(a) - len(ref_t_set(g, a, b)) <= eps_inv * len(a)

    side = prev
    while not (invariant(g.box(side), g.box(prev)) and 1 <= eps_depth * side):
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


# The level-2 comb of 32-boxes with bit 31 ORed in: the 32-box there
# overlaps the ones at 0 and 32.  Level 1's comb has step 1, so it still tiles.
FORGED_OVERLAP = (
    "from fractions import Fraction as F\n"
    "from cberlab import quasitile\n"
    "box = quasitile._ZdBits.box\n"
    "quasitile._ZdBits.box = lambda self, e, step=1: box(self, e, step) | (step == 32) << 31\n"
    "quasitile.build_hierarchy(quasitile.ZdGroup(1), [F(1, 16), F(1, 32), F(1, 64)], 3)\n"
)


def test_grid_tiling_check_rejects_overlapping_translates(monkeypatch):
    """The carry-free product of the grid check rejects a forged overlap,
    also under python -O, and a comb that lost a center's bit."""
    proc = run_optimized(FORGED_OVERLAP)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1] == "cberlab.eqrel.CheckFailed: grid tiling broken"
    box = quasitile._ZdBits.box

    def comb_without_1(self, e, step=1):  # level 1's comb of 32 unit boxes loses bit 1
        return box(self, e, step) & ~((e == [32]) << 1)

    monkeypatch.setattr(quasitile._ZdBits, "box", comb_without_1)
    with pytest.raises(CheckFailed, match="grid tiling broken"):
        build_hierarchy(ZdGroup(1), [Fraction(1, 16), Fraction(1, 32)], 2)


@pytest.mark.parametrize("d, side, prev", [(1, 992, 32), (2, 24, 4), (2, 1000, 4), (3, 12, 3)])
def test_grid_comb_is_the_listed_grid(d, side, prev):
    """box([k]*d, prev) is the mask of the grid range(0, side, prev)^d,
    set position by position, in the hierarchy's level encoding."""
    bits = quasitile._ZdBits([0] * d, [side + prev - 2] * d)
    grid = itertools.product(range(0, side, prev), repeat=d)
    listed = quasitile._mask_at(map(bits.raw, grid), bits.size)
    assert bits.box([side // prev] * d, prev) == listed


def test_hierarchy_rejects_nonpositive_eps():
    for eps in ([Fraction(0), Fraction(0)], [Fraction(1, 16), Fraction(-1, 32)]):
        with pytest.raises(TileError):
            build_hierarchy(ZdGroup(1), eps, 2)


# --- windows away from the origin and multi-shape chains ---------------------


def test_window_off_the_origin_tiles():
    """The shape's own coordinates lie below the window's; the encoding box
    must hold them too."""
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(1, 5001))
    qt = quasi_tile(g, a, [g.segment(10)], Fraction(2, 5))
    chk = check_tiling(g, a, qt)
    assert chk.eps_disjoint and chk.coverage_ok


def test_two_shape_chain_is_rejected_alike_on_z_and_zn(monkeypatch):
    """eps = 3/10 needs k = 2 shapes, and no chain of them can pass, so a
    two-shape chain is rejected as input on Z and on Z/5000 alike, before
    the constants are computed."""
    monkeypatch.setattr(quasitile, "tiling_constants", lambda eps: pytest.fail("constants computed"))
    z, zn = ZdGroup(1), CyclicGroup(5000)
    cases = [
        (z, frozenset((x,) for x in range(5000)), [z.segment(90), z.segment(2)]),
        (zn, frozenset(range(5000)), [frozenset(range(90)), frozenset(range(2))]),
    ]
    messages = []
    for g, a, chain in cases:
        with pytest.raises(TileError, match=r"^eps must be in \[1/3, 1\), got 3/10") as exc:
            quasi_tile(g, a, chain, Fraction(3, 10))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_no_eps_below_a_third_can_pass():
    """The proof behind quasi_tile's rejection of eps < 1/3, checked exactly
    for every eps = p/q < 1/3 with q <= 60: k >= 2, (1-eps)^(k-1) > 2eps and
    4(1-eps)^3 > 1.  Where k <= 6, also directly: the last stage's
    residue-band-low bound (1-eps)^(k + 2^(1-k)) exceeds eps, the most that
    final:coverage admits, i.e. eps^(2^(k-1)) < (1-eps)^(k 2^(k-1) + 1)."""
    epsilons = {Fraction(p, q) for q in range(2, 61) for p in range(1, q) if 3 * p < q}
    direct = 0
    for eps in epsilons:
        k, _, _ = tiling_constants(eps)
        assert k >= 2
        assert (1 - eps) ** (k - 1) > 2 * eps
        assert 4 * (1 - eps) ** 3 > 1
        if k <= 6:
            h = 2 ** (k - 1)
            assert eps**h < (1 - eps) ** (k * h + 1)
            direct += 1
    assert (len(epsilons), direct) == (367, 184)


def test_cyclic_elements_outside_the_group_are_rejected():
    g = CyclicGroup(5)
    for a, b in ((frozenset({0, 5}), frozenset({0})), (frozenset({-1, 0}), frozenset({0})),
                 (frozenset({0, 1}), frozenset({0, 5}))):
        with pytest.raises(TileError):
            quasitile._Window.of(g, a, b).invariance(Fraction(0))
        with pytest.raises(TileError):
            greedy_disjoint_translates(g, a, b, Fraction(0))


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """code under python -O, which strips bare asserts, with src importable."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("g, a, b", [
    (ZdGroup(1), frozenset((x,) for x in range(100)), ZdGroup(1).segment(101)),
    (ZdGroup(2), ZdGroup(2).box(3), ZdGroup(2).segment(10)),
    (CyclicGroup(50), frozenset(range(0, 50, 2)), frozenset(range(26))),
], ids=["Z", "Z2", "Z/50"])
def test_shape_longer_than_the_window_is_rejected_before_the_walk(monkeypatch, g, a, b):
    """|B| > |A| leaves no translate inside A, so coverage 0 < 1 - eps:
    quasi_tile rejects it as input before it encodes anything."""
    monkeypatch.setattr(quasitile._Window, "of", lambda *args: pytest.fail("window encoded"))
    with pytest.raises(TileError, match=f"shape of {len(b)} points is longer than the window of {len(a)}"):
        quasi_tile(g, a, [b], Fraction(2, 5))


def test_failing_check_raises_under_optimize():
    """QuasiTiling.log raises explicitly, so python -O keeps the check: at
    eps = 1/3 the stage band caps coverage at 1/2 < 1 - eps."""
    proc = run_optimized(
        "from fractions import Fraction\n"
        "from cberlab.quasitile import ZdGroup, quasi_tile\n"
        "g = ZdGroup(1)\n"
        "quasi_tile(g, frozenset((x,) for x in range(5000)), [g.segment(10)], Fraction(1, 3))\n"
    )
    assert proc.returncode == 1
    assert "AssertionError: final:coverage" in proc.stderr


FORGED_WINDOWS = [
    (ZdGroup(1), frozenset((x,) for x in range(100)), ZdGroup(1).segment(10), Fraction(1, 5)),
    (CyclicGroup(200), frozenset(range(200)) - {3, 4}, frozenset(range(7)), Fraction(2, 5)),
]


def without(i):
    """The walk's accepted positions and counts without the i-th center."""
    def forge(ps, ks):
        del ps[i], ks[i]
        return ps, ks
    return forge


# Each forge of the walk's result, with the check that rejects it.
WALK_FORGES = {
    "count up": (lambda ps, ks: (ps, [ks[0] + 1, *ks[1:]]), "witness counts"),
    "count down": (lambda ps, ks: (ps, [*ks[:-1], ks[-1] - 1]), "witness counts"),
    "middle center dropped": (without(3), "witness counts"),
    "last center dropped": (without(-1), "not maximal"),
}


@pytest.mark.parametrize("forge, message", WALK_FORGES.values(), ids=WALK_FORGES.keys())
@pytest.mark.parametrize("g, a, b, eps", FORGED_WINDOWS, ids=["Z", "Z/200"])
def test_cover_check_rejects_a_forged_walk(monkeypatch, g, a, b, eps, forge, message):
    """A count off by one, or a middle translate dropped, breaks the sum of
    the counts against the popcount of the union set from the positions;
    the last translate dropped leaves a center that the maximality recheck
    finds still free."""
    walk = quasitile._Window.walk
    monkeypatch.setattr(quasitile._Window, "walk", lambda self, need: forge(*walk(self, need)))
    with pytest.raises(CheckFailed, match=message):
        greedy_disjoint_translates(g, a, b, eps)


def test_cover_check_raises_under_optimize():
    proc = run_optimized(
        "from fractions import Fraction\n"
        "from cberlab import quasitile as q\n"
        "walk = q._Window.walk\n"
        "q._Window.walk = lambda self, need: (lambda ps, ks: (ps, [ks[0] + 1, *ks[1:]]))(*walk(self, need))\n"
        "q.greedy_disjoint_translates(q.CyclicGroup(200), frozenset(range(200)) - {3, 4},\n"
        "                             frozenset(range(7)), Fraction(2, 5))\n"
    )
    assert proc.returncode == 1
    assert "CheckFailed: witness counts disagree with the translate union" in proc.stderr


def test_trimmed_prefix_cover_check_rejects_a_forged_count(monkeypatch):
    """quasi_tile rechecks the trimmed prefix of the family by the same
    count: a first witness raised after the greedy's own check fails it."""
    greedy = quasitile.greedy_disjoint_translates

    def forged(*args):
        fam = greedy(*args)
        fam.witnesses[0] += 1
        return fam

    monkeypatch.setattr(quasitile, "greedy_disjoint_translates", forged)
    g = ZdGroup(1)
    with pytest.raises(CheckFailed, match="witness counts"):
        quasi_tile(g, frozenset((x,) for x in range(2000)), [g.segment(10)], Fraction(2, 5))


# --- the bitset path against plain sets --------------------------------------
#
# The reference below is the set algebra written out: T(A, B), the
# invariance verdict and the canonical-order greedy family.


def ref_t_set(g, a, b):
    return frozenset(c for c in a if all(g.op(v, c) in a for v in b))


def ref_greedy(g, a, b, eps):
    centers, witnesses, used = [], [], set()
    for c in sorted(ref_t_set(g, a, b)):
        bc = {g.op(v, c) for v in b}
        if len(bc - used) >= (1 - eps) * len(b):
            centers.append(c)
            witnesses.append(len(bc - used))
            used |= bc
    return centers, witnesses, frozenset(used)


def assert_matches_reference(g, a, b, eps):
    t = ref_t_set(g, a, b)
    assert t_set(g, a, b) == t
    assert quasitile._Window.of(g, a, b).invariance(eps) == (len(a) - len(t) <= eps * len(a), len(t))
    fam = greedy_disjoint_translates(g, a, b, eps)
    assert (fam.centers, fam.witnesses, fam.covered) == ref_greedy(g, a, b, eps)


PARITY = settings(max_examples=200, deadline=None)
epsilons = st.integers(0, 10).map(lambda k: Fraction(k, 10))


def points(d, lo, hi, **kw):
    return st.frozensets(st.tuples(*[st.integers(lo, hi)] * d), min_size=1, **kw)


@PARITY
@given(a=points(1, -8, 12, max_size=16), b=points(1, -3, 3, max_size=4), eps=epsilons)
@example(a=frozenset((x,) for x in (3, 4, 6, 7, 8)), b=frozenset({(0,), (1,)}), eps=Fraction(1, 2))
@example(a=frozenset((x,) for x in range(100, 110)), b=frozenset({(-2,), (1,)}), eps=Fraction(0))
# positive coordinates and B without the identity: the origin lies outside the box
@example(a=frozenset((x,) for x in range(20, 40)) - {(27,)}, b=frozenset({(2,), (5,)}), eps=Fraction(1, 2))
def test_bitset_path_matches_sets_on_z(a, b, eps):
    assert_matches_reference(ZdGroup(1), a, b, eps)


@PARITY
@given(a=points(2, -3, 4, max_size=30), b=points(2, -2, 2, max_size=5), eps=epsilons)
@example(
    a=frozenset((x, y) for x in range(5, 9) for y in range(-7, -3)) - {(6, -5)},
    b=frozenset({(0, 0), (1, 0), (0, 1)}),
    eps=Fraction(1, 3),
)
def test_bitset_path_matches_sets_on_z2(a, b, eps):
    assert_matches_reference(ZdGroup(2), a, b, eps)


@st.composite
def cyclic_windows(draw):
    n = draw(st.integers(1, 16))
    elems = st.integers(0, n - 1)
    return n, draw(st.frozensets(elems)), draw(st.frozensets(elems, min_size=1, max_size=4))


@PARITY
@given(nab=cyclic_windows(), eps=epsilons)
@example(nab=(7, frozenset({5, 6, 0, 1}), frozenset({0, 1})), eps=Fraction(0))  # wraps at 6
@example(nab=(9, frozenset(range(9)) - {4}, frozenset({0, 2, 3})), eps=Fraction(1, 5))
@example(nab=(1, frozenset({0}), frozenset({0})), eps=Fraction(0))  # only the c = 0 rotation
# span(B) = 6: the windows of the centers 11..15 cross 15 -> 0 and read head
@example(nab=(16, frozenset(range(16)) - {7}, frozenset({0, 1, 5})), eps=Fraction(1, 3))
# head's bit 0, from the center 0, is read by the wrapped window of 7 and rejects it
@example(nab=(10, frozenset(range(10)), frozenset({0, 3})), eps=Fraction(0))
# span(B) = n: every window past the center 0 wraps
@example(nab=(6, frozenset(range(6)), frozenset({0, 5})), eps=Fraction(0))
def test_bitset_path_matches_sets_on_zn(nab, eps):
    n, a, b = nab
    assert_matches_reference(CyclicGroup(n), a, b, eps)


@pytest.mark.parametrize("b", [frozenset(range(7)), frozenset({0, 2, 9})])
def test_cyclic_translates_wrapping_past_zero_match_the_reference(b):
    """3 and 4 are missing, so no early center covers 0..2 and the last
    accepted translates cross 199 -> 0: their union positions are taken
    mod n."""
    g, a, eps = CyclicGroup(200), frozenset(range(200)) - {3, 4}, Fraction(2, 5)
    fam = greedy_disjoint_translates(g, a, b, eps)
    assert any(c + max(b) >= 200 for c in fam.centers)
    assert (fam.centers, fam.witnesses, fam.covered) == ref_greedy(g, a, b, eps)


@st.composite
def holed_z2_windows(draw):
    """A box with negative corner coordinates, minus a few holes."""
    x0, y0 = draw(st.integers(-9, -1)), draw(st.integers(-9, 0))
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    box = frozenset((x0 + i, y0 + j) for i in range(w) for j in range(h))
    holes = draw(st.frozensets(st.sampled_from(sorted(box)), max_size=len(box) // 3))
    return box - holes or box


@PARITY
@given(a=holed_z2_windows(), b=points(2, -1, 2, max_size=4), eps=epsilons)
def test_greedy_order_is_lexicographic_on_holed_z2(a, b, eps):
    """Ascending bit order of the erosion mask is the lexicographic order of
    the centers, whatever the window's corner."""
    g = ZdGroup(2)
    fam = greedy_disjoint_translates(g, a, b, eps)
    assert fam.centers == sorted(fam.centers)
    assert_matches_reference(g, a, b, eps)


def assert_ledger_matches_public_calls(g, a, b, eps):
    """quasi_tile's stage-0 invariance and greedy-coverage entries, read off
    its one shared encoding, against a separate window's invariance and a
    separate greedy_disjoint_translates.  Each entry is recorded as it is
    logged, so the entries before a failing check are compared too."""
    assume(len(a) > 3)  # quasi_tile needs |A| > 3^k
    assume(len(b) <= len(a))  # and rejects a shape longer than the window
    (k, *_), entries, log = tiling_constants(eps), {}, quasitile.QuasiTiling.log

    def record(qt, key, value, relation, ok):
        entries[key] = (value, ok)
        log(qt, key, value, relation, ok)

    with mock.patch.object(quasitile.QuasiTiling, "log", record):
        try:
            quasi_tile(g, a, [b], eps)
        except AssertionError:
            pass
    ok, _ = quasitile._Window.of(g, a, b).invariance(Fraction(1, 3**k))
    assert entries["stage0:residue-invariance"] == (1, ok)
    if ok:
        n = len(greedy_disjoint_translates(g, a, b, eps).covered)
        floor = eps * (1 - Fraction(1, 3**k)) * len(a)
        assert entries["stage0:greedy-coverage"] == (Fraction(n, len(a)), n >= floor)


# k = 1 for every eps >= 1/3
stage_eps = st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4)])


@PARITY
@given(a=points(1, -10, 30), b=points(1, -3, 4, max_size=4), eps=stage_eps)
def test_quasi_tile_ledger_matches_public_calls_on_z(a, b, eps):
    assert_ledger_matches_public_calls(ZdGroup(1), a, b | {(0,)}, eps)


@PARITY
@given(a=holed_z2_windows(), b=points(2, -1, 2, max_size=4), eps=stage_eps)
def test_quasi_tile_ledger_matches_public_calls_on_z2(a, b, eps):
    assert_ledger_matches_public_calls(ZdGroup(2), a, b | {(0, 0)}, eps)


@PARITY
@given(nab=cyclic_windows(), eps=stage_eps)
def test_quasi_tile_ledger_matches_public_calls_on_zn(nab, eps):
    n, a, b = nab
    assert_ledger_matches_public_calls(CyclicGroup(n), a, b | {0}, eps)


def test_kernels_shift_once_per_point_of_b(monkeypatch):
    """No kernel makes one shift per point of A: a per-point loop would make
    10^5 calls here.  Erosion and dilation double along each run of B, and a
    segment is one run, so each costs about log2 |B| + 2 shifts.  The
    invariance check erodes and dilates; the greedy family erodes, dilates
    the accepted centers into U and shifts |B| times for the maximality
    recheck's counters."""
    calls = []
    shifted = quasitile._ZdBits.shifted

    def counting(self, m, r):
        calls.append(r)
        return shifted(self, m, r)

    monkeypatch.setattr(quasitile._ZdBits, "shifted", counting)
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(10**5))
    b = g.segment(50)
    doubling = 2 * len(b).bit_length() + 2
    assert quasitile._Window.of(g, a, b).invariance(Fraction(1, 100)) == (True, 10**5 - 49)
    assert len(calls) <= doubling
    calls.clear()
    fam = greedy_disjoint_translates(g, a, b, Fraction(1, 5))
    assert fam.centers[:2] == [(0,), (40,)] and len(fam.centers) == 2499
    assert len(calls) <= len(b) + doubling


# --- linear masks, the log-time trim and the counter recheck ----------------


def ref_mask(bits, s):
    """One bit OR-ed in per point: the quadratic build the masks replace."""
    m = 0
    for v in s:
        m |= 1 << (bits.raw(v) + bits.zero)
    return m


@PARITY
@given(a=points(1, -30, 30, max_size=40), b=points(1, -5, 5, max_size=6))
def test_zd_mask_matches_one_bit_per_point_on_z(a, b):
    bits = quasitile._bits(ZdGroup(1), a, b)
    assert bits.mask(a) == ref_mask(bits, a) and bits.mask(b) == ref_mask(bits, b)


@PARITY
@given(a=holed_z2_windows(), b=points(2, -2, 3, max_size=5))
def test_zd_mask_matches_one_bit_per_point_on_z2(a, b):
    bits = quasitile._bits(ZdGroup(2), a, b)
    assert bits.mask(a) == ref_mask(bits, a) and bits.mask(b) == ref_mask(bits, b)


@PARITY
@given(a=points(3, -3, 3, max_size=40), b=points(3, -2, 2, max_size=6))
def test_zd_mask_matches_one_bit_per_point_on_z3(a, b):
    """The column sum zero + c_2 + s_0 c_0 + s_1 c_1, with two strides."""
    bits = quasitile._bits(ZdGroup(3), a, b)
    assert bits.mask(a) == ref_mask(bits, a) and bits.mask(b) == ref_mask(bits, b)


@PARITY
@given(n=st.integers(1, 40), s=st.frozensets(st.integers(-3, 45), max_size=20))
@example(n=5, s=frozenset({0, 5}))  # the greatest element is n itself
def test_cyclic_mask_matches_one_bit_per_point(n, s):
    bits = quasitile._CyclicBits(CyclicGroup(n))
    if all(0 <= v < n for v in s):
        assert bits.mask(s) == ref_mask(bits, s)
    else:
        bad = min(s) if min(s) < 0 else max(s)
        with pytest.raises(TileError, match=f"^{bad} is not an element 0..{n - 1} of Z/{n}$"):
            bits.mask(s)


def ref_dilate(bits, m, offs):
    """One shift per offset: the loop the run-doubling dilation replaces."""
    out = 0
    for r in offs:
        out |= bits.shifted(m, r)
    return out


def ref_erode(bits, ma, offs):
    """One shift per offset: the loop the run-doubling erosion replaces."""
    out = ma
    for r in offs:
        out &= bits.shifted(ma, -r)
    return out


def assert_dilation_matches(bits, m, offs):
    """Both kernels of `_sweep` against one shift per offset: the dilation
    of m, and the erosion of the window whose mask is m."""
    runs = quasitile._runs(offs)
    assert sorted(r for start, length in runs for r in range(start, start + length)) == sorted(offs)
    assert all(s1 + l1 < s2 for (s1, l1), (s2, _) in zip(runs, runs[1:]))  # maximal runs
    assert quasitile._dilate(bits, m, runs) == ref_dilate(bits, m, offs)
    assert quasitile._erode(bits, m, runs) == ref_erode(bits, m, offs)


@PARITY
@given(a=points(1, -20, 20, max_size=30), b=points(1, -12, 12, max_size=20))
@example(a=frozenset((x,) for x in range(10)), b=ZdGroup(1).segment(19))  # k = 16, L - k = 3
def test_dilation_matches_one_shift_per_offset_on_z(a, b):
    bits = quasitile._bits(ZdGroup(1), a, b)
    assert_dilation_matches(bits, bits.mask(a), [bits.raw(v) for v in b])


@PARITY
@given(a=holed_z2_windows(), b=points(2, -4, 1, max_size=12))
def test_dilation_matches_one_shift_per_offset_on_z2(a, b):
    """B below the origin gives negative run starts.  Runs are taken on
    positions, so one may cross from a row of the box into the next."""
    bits = quasitile._bits(ZdGroup(2), a, b)
    assert_dilation_matches(bits, bits.mask(a), [bits.raw(v) for v in b])


@PARITY
@given(nab=cyclic_windows())
@example(nab=(10, frozenset({0, 9}), frozenset({7, 8, 9})))  # bits rotate past n - 1 to 0
@example(nab=(12, frozenset({5, 11}), frozenset({10, 11, 0, 1})))  # one cyclic run, two runs of offsets
@example(nab=(9, frozenset(range(9)), frozenset(range(9))))  # a run of length n
def test_dilation_matches_one_shift_per_offset_on_zn(nab):
    """Each doubling shift rotates the bits past n - 1 back to 0."""
    n, a, b = nab
    bits = quasitile._CyclicBits(CyclicGroup(n))
    assert_dilation_matches(bits, bits.mask(a), sorted(b))


def ref_trim(witnesses, n, le_hi):
    """The linear scan the binary search replaces: drop the last center
    until the prefix coverage is under the band ceiling."""
    count = len(witnesses)
    while count and not le_hi(Fraction(sum(witnesses[:count]), n)):
        count -= 1
    return count


def ref_le_hi(eps):
    """Stage 0's band ceiling as the exact-power predicate it was written
    as, r/eps <= (1-eps)^-1 (true for r <= 0) and 1 - r >= (1-eps)^2 (false
    for 1 - r <= 0), against which quasi_tile's plain ceiling is checked."""
    return lambda r: (r <= 0 or r / eps <= 1 / (1 - eps)) and 1 - r > 0 and 1 - r >= (1 - eps) ** 2


@PARITY
@given(
    size=st.integers(1, 400),
    holes=st.frozensets(st.integers(0, 399), max_size=40),
    shape_len=st.integers(1, 12),
    eps=st.sampled_from([Fraction(2, 5), Fraction(1, 3)]),
)
def test_binary_search_trim_matches_the_linear_scan(size, holes, shape_len, eps):
    """On the witnesses of greedy families over holed Z windows, at both
    eps of the tiling workload and the one band ceiling quasi_tile trims to."""
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(size) if x not in holes) or frozenset({(0,)})
    fam = greedy_disjoint_translates(g, a, g.segment(shape_len), eps)
    cap = min(eps / (1 - eps), 1 - (1 - eps) ** 2)
    for n in (len(a), max(1, len(fam.covered))):
        assert quasitile._trim(fam.witnesses, n, cap) == ref_trim(fam.witnesses, n, ref_le_hi(eps))


def test_maximality_recheck_rejects_a_forged_family():
    """A family with its last translate taken out is not maximal: the
    counter recheck finds the dropped center still has |B| fresh points."""
    g = ZdGroup(1)
    a = frozenset((x,) for x in range(100))
    b = g.segment(10)
    fam = greedy_disjoint_translates(g, a, b, Fraction(1, 5))
    bits = quasitile._bits(g, a, b)
    offs = [bits.raw(v) for v in b]
    last = fam.centers[-1]
    forged = bits.mask(fam.covered - quasitile.translate(g, b, last))
    quasitile._check_maximal(bits, offs, bits.mask(fam.covered), bits.mask({last}), 8)
    with pytest.raises(CheckFailed, match="not maximal"):
        quasitile._check_maximal(bits, offs, forged, bits.mask({last}), 8)


def assert_counter_recheck_matches(g, a, b, covered, need):
    """The bit-sliced counts against |(B + c) \\ U| read center by center,
    with every center of T(A, B) rejected."""
    bits = quasitile._bits(g, a, b)
    offs = [bits.raw(v) for v in b]
    t = ref_t_set(g, a, b)
    args = (bits, offs, bits.mask(covered), bits.mask(t), need)
    if any(len(quasitile.translate(g, b, c) - covered) >= need for c in t):
        with pytest.raises(CheckFailed):
            quasitile._check_maximal(*args)
    else:
        quasitile._check_maximal(*args)


@PARITY
@given(a=points(1, -8, 12, max_size=16), b=points(1, -3, 3, max_size=4), data=st.data())
def test_counter_recheck_matches_the_per_center_count_on_z(a, b, data):
    covered = data.draw(st.frozensets(st.sampled_from(sorted(a))))
    assert_counter_recheck_matches(ZdGroup(1), a, b, covered, data.draw(st.integers(0, 5)))


@PARITY
@given(nab=cyclic_windows(), covered=st.frozensets(st.integers(0, 15)), need=st.integers(0, 5))
@example(nab=(16, frozenset(range(16)), frozenset({0, 1, 5})), covered=frozenset(), need=3)
def test_counter_recheck_matches_the_per_center_count_on_zn(nab, covered, need):
    n, a, b = nab
    assert_counter_recheck_matches(CyclicGroup(n), a, b, frozenset(x for x in covered if x < n), need)
