import itertools
import math
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
from tiling_oracle import check_tiling_by_sets, translate


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


@pytest.mark.parametrize("size, key, bound", [
    (5, "final:coverage", 1 - Fraction(2, 5)),
    (25, "stage0:band-high", 1 - (1 - Fraction(2, 5)) ** 2),
    (25, "stage0:residue-band-low", (1 - Fraction(2, 5)) ** 2),
])
def test_ledger_checks_pass_on_their_bound(size, key, bound):
    """segment(1) at eps = 2/5 makes every point a center of its own, so the
    trim keeps floor(cap |A|) of them, cap = min(2/3, 16/25) = 16/25: on
    [0, 5) 3 points, coverage exactly 1 - eps; on [0, 25) 16 points, the
    cap itself, with a residue of exactly (1 - eps)^2.  Each check passes
    with equality, so a strict comparison in its place fails."""
    g = ZdGroup(1)
    qt = quasi_tile(g, frozenset((x,) for x in range(size)), [g.segment(1)], Fraction(2, 5))
    assert {k: (value, ok) for k, value, _, ok in qt.ledger}[key] == (bound, True)


def test_absolute_band_high_passes_on_its_bound():
    """segment(1) on [0, 4) at eps = 1/3: cap = min(1/2, 5/9) = 1/2, so the
    trim keeps 2 points and the ratio is exactly eps/(1 - eps) = 1/2.  The
    absolute band passes with equality, and the run fails only at the end,
    at coverage 1/2 < 2/3; a strict comparison there fails earlier."""
    g = ZdGroup(1)
    with pytest.raises(AssertionError, match=r"^final:coverage: 1/2 fails"):
        quasi_tile(g, frozenset((x,) for x in range(4)), [g.segment(1)], Fraction(1, 3))


# --- the byte-array recheck against its boundaries and the set oracle -------


def recheck(g, a, b, eps, centers):
    """check_tiling of the centers as given, one shape B, the budgets that
    quasi_tile logs; the set oracle must agree on every field."""
    qt = quasitile.QuasiTiling(eps, [b], [list(centers)], [eps], [Fraction(1)], Fraction(0))
    chk = check_tiling(g, a, qt)
    assert chk == check_tiling_by_sets(g, a, qt)
    return chk


Z1, Z2, Z20 = ZdGroup(1), ZdGroup(2), CyclicGroup(20)
# [-12, -2] x [-7, -3]: a Z^2 window at negative coordinates
NEG_BOX = frozenset((x, y) for x in range(-12, -1) for y in range(-7, -2))
BOX_2X5 = frozenset((x, y) for x in range(2) for y in range(5))


# (group, window, shape, first center, a center adding need fresh points, one
# adding need - 1).  eps = 2/5: |B| = 10 gives (1 - eps)|B| = need = 6, and
# |B| = 7 gives 21/5, need = 5.
FRESH_EDGES = {
    "Z-10": (Z1, frozenset((x,) for x in range(-20, 20)), Z1.segment(10), (-15,), (-9,), (-10,)),
    "Z-7": (Z1, frozenset((x,) for x in range(-20, 20)), Z1.segment(7), (-15,), (-10,), (-11,)),
    # the 2x5 box moved by 3 along y adds 2x3 points, by 1 along x 1x5
    "Z2-box": (Z2, frozenset((x, y) for x in range(-12, -1) for y in range(-12, -2)), BOX_2X5,
               (-12, -12), (-12, -9), (-11, -12)),
    # a segment along x, a strided slice of the row-major array
    "Z2-7": (Z2, frozenset((x, y) for x in range(-20, 0) for y in range(-7, -2)), Z2.segment(7),
             (-19, -5), (-14, -5), (-15, -5)),
    # the first translate crosses 19 -> 0; the second starts past it
    "Z/20-10": (Z20, frozenset(range(20)), frozenset(range(10)), 15, 1, 0),
    # the translate under test crosses 19 -> 0
    "Z/20-10-wrap": (Z20, frozenset(range(20)), frozenset(range(10)), 0, 14, 15),
    "Z/20-7-wrap": (Z20, frozenset(range(20)), frozenset(range(7)), 0, 15, 16),
}


@pytest.mark.parametrize("g, a, b, first, good, short", FRESH_EDGES.values(), ids=FRESH_EDGES.keys())
def test_recheck_accepts_exactly_need_fresh_points(g, a, b, first, good, short):
    """A center whose translate adds need = ceil((1 - eps)|B|) fresh points is
    good and one adding need - 1 is bad, for an integer (1 - eps)|B| and
    for one that is not."""
    eps = Fraction(2, 5)
    need = math.ceil((1 - eps) * len(b))
    assert len(translate(g, b, good) - translate(g, b, first)) == need
    assert len(translate(g, b, short) - translate(g, b, first)) == need - 1
    assert recheck(g, a, b, eps, [first, good]).bad_centers == 0
    assert recheck(g, a, b, eps, [first, short]).bad_centers == 1


# (group, window, shape, a center whose translate touches the window's edge
# from inside, the center one step further out)
A_EDGES = {
    "Z-high": (Z1, frozenset((x,) for x in range(-20, 20)), Z1.segment(10), (10,), (11,)),
    "Z-low": (Z1, frozenset((x,) for x in range(-20, 20)), Z1.segment(10), (-20,), (-21,)),
    "Z2-x": (Z2, NEG_BOX, BOX_2X5, (-3, -7), (-2, -7)),
    "Z2-y": (Z2, NEG_BOX, BOX_2X5, (-12, -7), (-12, -8)),
    "Z2-segment": (Z2, NEG_BOX, Z2.segment(7), (-8, -3), (-7, -3)),
    # A = 14..19, 0..5 wraps at 19 -> 0; B + 16 ends at 5
    "Z/20": (Z20, frozenset(range(14, 20)) | frozenset(range(6)), frozenset(range(10)), 16, 17),
    "Z/20-low": (Z20, frozenset(range(14, 20)) | frozenset(range(6)), frozenset(range(10)), 14, 13),
}


@pytest.mark.parametrize("g, a, b, edge, out", A_EDGES.values(), ids=A_EDGES.keys())
def test_recheck_counts_a_translate_one_step_out_of_the_window(g, a, b, edge, out):
    """A translate that touches A's edge from inside is good; one step
    further out it is bad, and its points outside A still count toward the
    coverage, as the set union counts them."""
    eps = Fraction(2, 5)
    assert translate(g, b, edge) <= a and not translate(g, b, out) <= a
    assert recheck(g, a, b, eps, [edge]).bad_centers == 0
    chk = recheck(g, a, b, eps, [out])
    assert chk.bad_centers == 1 and chk.coverage == Fraction(len(b), len(a))


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


@pytest.mark.parametrize("g, a, b", [
    (ZdGroup(1), frozenset((x,) for x in range(2000)), ZdGroup(1).segment(1000)),
    (ZdGroup(2), ZdGroup(2).box(20), ZdGroup(2).box(12)),
    (CyclicGroup(60), frozenset(range(30)), frozenset(range(20))),
], ids=["Z", "Z2", "Z/60"])
def test_failed_invariance_ends_quasi_tile_before_the_walk(monkeypatch, g, a, b):
    """A window that is not (B, 1/3)-invariant fails at its first ledger
    entry, read on the window before the greedy walk, whatever the walk
    would find: with the walk patched to fail, the failure is still that
    entry's, with the same message."""
    ok, _ = quasitile._Window.of(g, a, b).invariance(Fraction(1, 3))
    assert not ok
    monkeypatch.setattr(quasitile._Window, "walk", lambda *args: pytest.fail("walked"))
    with pytest.raises(AssertionError) as err:
        quasi_tile(g, a, [b], Fraction(2, 5))
    assert str(err.value) == "stage0:residue-invariance: 1 fails A_0 is (B_0, 3^-1)-invariant"


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
    greedy = quasitile._greedy

    def forged(*args):
        fam = greedy(*args)
        fam.witnesses[0] += 1
        return fam

    monkeypatch.setattr(quasitile, "_greedy", forged)
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


# Shapes whose runs bound on the walk's skip is below the exact one.
# segment(10) | {20}: two runs, so low = floor((7 - 1) / 2) = 3 at need 7,
# while B + d adds min(d, 10) + 1 points, fewer than 7 up to d = 5
SEGMENT_AND_POINT = ZdGroup(1).segment(10) | {(20,)}
# a row of 6 and a point below its start: two runs on Z^2, need 5 at eps 2/5;
# B + (0, d) adds min(d, 6) + 1 points, so low = 2 where the exact one is 3
ROW_AND_POINT = frozenset({(0, y) for y in range(6)} | {(1, 0)})


@PARITY
@given(a=points(1, -8, 12, max_size=16), b=points(1, -3, 3, max_size=4), eps=epsilons)
@example(a=frozenset((x,) for x in (3, 4, 6, 7, 8)), b=frozenset({(0,), (1,)}), eps=Fraction(1, 2))
@example(a=frozenset((x,) for x in range(100, 110)), b=frozenset({(-2,), (1,)}), eps=Fraction(0))
# positive coordinates and B without the identity: the origin lies outside the box
@example(a=frozenset((x,) for x in range(20, 40)) - {(27,)}, b=frozenset({(2,), (5,)}), eps=Fraction(1, 2))
# a full window: A's mask is the closed form
@example(a=frozenset((x,) for x in range(-6, 10)), b=frozenset({(0,), (1,), (3,)}), eps=Fraction(2, 5))
# |(B + d) \ B| is 2, 3, 2, 3, 4, ... for B = {0, 1, 3, 4}, and 4, 1, 4, 2, ...
# for {0, 2, 4, 6}: the walk's skip bound is not monotone in d
@example(a=frozenset((x,) for x in range(30)) - {(11,)}, b=frozenset((x,) for x in (0, 1, 3, 4)),
         eps=Fraction(1, 4))
@example(a=frozenset((x,) for x in range(30)) - {(11,)}, b=frozenset((x,) for x in (0, 1, 3, 4)),
         eps=Fraction(9, 10))  # need = 1
@example(a=frozenset((x,) for x in range(30)) - {(11,)}, b=frozenset((x,) for x in (0, 2, 4, 6)),
         eps=Fraction(0))  # need = |B|
@example(a=frozenset((x,) for x in range(30)), b=frozenset((x,) for x in (0, 2, 4, 6)),
         eps=Fraction(1, 2))
# the walk skips 3 positions past each acceptance and counts the 4th and 5th
@example(a=frozenset((x,) for x in range(40)), b=SEGMENT_AND_POINT, eps=Fraction(2, 5))
def test_bitset_path_matches_sets_on_z(a, b, eps):
    assert_matches_reference(ZdGroup(1), a, b, eps)


@PARITY
@given(a=points(2, -3, 4, max_size=30), b=points(2, -2, 2, max_size=5), eps=epsilons)
@example(
    a=frozenset((x, y) for x in range(5, 9) for y in range(-7, -3)) - {(6, -5)},
    b=frozenset({(0, 0), (1, 0), (0, 1)}),
    eps=Fraction(1, 3),
)
# a full window off the origin: A's mask is the closed form
@example(a=frozenset((x, y) for x in range(-3, 3) for y in range(1, 6)),
         b=frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), eps=Fraction(2, 5))
# an L-shape, whose skip bound is not monotone along a row, at need = 3, |B| and 1
@example(a=frozenset((x, y) for x in range(6) for y in range(6)) - {(2, 3)},
         b=frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}), eps=Fraction(2, 5))
@example(a=frozenset((x, y) for x in range(6) for y in range(6)) - {(2, 3)},
         b=frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}), eps=Fraction(0))
@example(a=frozenset((x, y) for x in range(6) for y in range(6)),
         b=frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}), eps=Fraction(9, 10))
# a runs bound of 2 against an exact 3, with a gap in the window
@example(a=frozenset((x, y) for x in range(4) for y in range(14)) - {(1, 5)}, b=ROW_AND_POINT,
         eps=Fraction(2, 5))
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
# an interval window with lo > 0: A's mask is the closed form
@example(nab=(12, frozenset(range(2, 10)), frozenset({0, 1, 2})), eps=Fraction(1, 3))
# the skip bound in unreduced positions, over windows that wrap, at need 3, |B| and 1
@example(nab=(13, frozenset(range(13)) - {5}, frozenset({0, 1, 3, 4})), eps=Fraction(1, 4))
@example(nab=(13, frozenset(range(13)) - {5}, frozenset({0, 1, 3, 4})), eps=Fraction(0))
@example(nab=(13, frozenset(range(13)), frozenset({0, 2, 4, 6})), eps=Fraction(9, 10))
# [0, 10) | {12} in Z/32 at need 7: a runs bound of 3 against an exact 6
@example(nab=(32, frozenset(range(32)), frozenset(range(10)) | {12}), eps=Fraction(2, 5))
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


@st.composite
def holed_z_windows(draw):
    """An interval of Z, at negative coordinates or not, minus a few holes."""
    x0, w = draw(st.integers(-12, 4)), draw(st.integers(1, 30))
    box = frozenset((x0 + i,) for i in range(w))
    holes = draw(st.frozensets(st.sampled_from(sorted(box)), max_size=w // 3))
    return box - holes or box


@st.composite
def recheck_inputs(draw, windows, d):
    """A window, a scattered shape, and centers drawn from the window and
    around it, repeats and translates leaving it included."""
    a = draw(windows)
    near = st.tuples(*[st.integers(-14, 14)] * d)
    centers = draw(st.lists(st.sampled_from(sorted(a)) | near, max_size=12))
    return a, draw(points(d, -3, 3, max_size=6)), centers


@PARITY
@given(abc=recheck_inputs(holed_z_windows() | points(1, -10, 10, max_size=16), 1), eps=epsilons)
def test_recheck_matches_sets_on_z(abc, eps):
    recheck(ZdGroup(1), *abc[:2], eps, abc[2])


@PARITY
@given(abc=recheck_inputs(holed_z2_windows() | points(2, -4, 4, max_size=30), 2), eps=epsilons)
@example(abc=(NEG_BOX, Z2.segment(7), [(-12, -7), (-12, -7), (-6, -3), (-5, -3), (-13, -8)]),
         eps=Fraction(2, 5))
def test_recheck_matches_sets_on_z2(abc, eps):
    recheck(ZdGroup(2), *abc[:2], eps, abc[2])


@PARITY
@given(abc=recheck_inputs(points(3, -3, 3, max_size=40), 3), eps=epsilons)
def test_recheck_matches_sets_on_z3(abc, eps):
    recheck(ZdGroup(3), *abc[:2], eps, abc[2])


@st.composite
def cyclic_recheck_inputs(draw):
    """A Z/n window, a shape, and centers from -n to 2n - 1: translates that
    cross n - 1 -> 0, repeat or leave the window."""
    n, a, b = draw(cyclic_windows())
    return n, a or frozenset({0}), b, draw(st.lists(st.integers(-n, 2 * n - 1), max_size=12))


@PARITY
@given(nabc=cyclic_recheck_inputs(), eps=epsilons)
@example(nabc=(20, frozenset(range(20)), frozenset(range(10)), [15, 1, 0, 19, 35]), eps=Fraction(2, 5))
@example(nabc=(13, frozenset(range(13)) - {5}, frozenset({0, 1, 3, 12}), [10, 11, 12, 0, -1]),
         eps=Fraction(1, 4))
# elements outside 0..9 are in no translate: -1 is not 9, so B + 8 leaves A
@example(nabc=(10, frozenset({-1, 2, 3, 8, 10}), frozenset({0, 1}), [8, 2]), eps=Fraction(1, 2))
def test_recheck_matches_sets_on_zn(nabc, eps):
    n, a, b, centers = nabc
    recheck(CyclicGroup(n), a, b, eps, centers)


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
    the accepted centers into U, and builds the maximality recheck's window
    count W_|B| by doubling, shifting each of its O(log |B|) slices once per
    step: O(log^2 |B|) shifts, not |B| (over 2,000 for segment(2000))."""
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
    assert len(calls) <= len(b).bit_length() ** 2 + doubling
    calls.clear()
    b = g.segment(2000)
    fam = greedy_disjoint_translates(g, a, b, Fraction(1, 5))
    assert fam.centers[:2] == [(0,), (1600,)] and len(fam.centers) == 62
    assert len(calls) <= len(b).bit_length() ** 2 + 2 * len(b).bit_length() + 2


# --- linear masks, the log-time trim and the counter recheck ----------------


SQUARE = frozenset((x, y) for x in range(4, 9) for y in range(2, 7))
BOX3 = frozenset(itertools.product(range(-1, 2), range(0, 3), range(1, 3)))
MASK_PATHS = [  # (group, set, whether it fills its bounding box)
    (ZdGroup(1), frozenset((x,) for x in range(-12, 7)), True),
    (ZdGroup(1), frozenset((x,) for x in range(-12, 7)) - {(0,)}, False),
    (ZdGroup(1), frozenset((x,) for x in range(-12, 7)) | {(9,)}, False),
    (ZdGroup(2), SQUARE, True),
    (ZdGroup(2), SQUARE - {(5, 4)}, False),
    (ZdGroup(2), SQUARE | {(4, 9)}, False),
    (ZdGroup(3), BOX3, True),
    (ZdGroup(3), BOX3 - {(0, 1, 1)}, False),
    (CyclicGroup(12), frozenset(range(3, 9)), True),
    (CyclicGroup(12), frozenset(range(12)), True),
    (CyclicGroup(12), frozenset(range(3, 9)) - {5}, False),
    (CyclicGroup(12), frozenset({10, 11, 0, 1}), False),  # a run mod n, not an interval
]


@pytest.mark.parametrize("g, s, boxed", MASK_PATHS)
def test_a_set_that_fills_its_box_takes_the_closed_form(monkeypatch, g, s, boxed):
    """|s| = the volume of s's bounding box iff s is that box: its mask is
    then the closed form, with no pass of positions through `_mask_at`, and
    one point short of it or past it takes the column path.  Both paths
    give the one-bit-per-point mask, from the extents `_bits` passes and
    from the ones `mask` reads."""
    sizes = []
    mask_at = quasitile._mask_at
    monkeypatch.setattr(quasitile, "_mask_at", lambda pos, size: sizes.append(size) or mask_at(pos, size))
    bits, ma = quasitile._bits(g, s, frozenset({g.identity}))
    assert ma == bits.mask(s) == ref_mask(bits, s)
    assert sizes == ([] if boxed else [bits.size] * 2)


def ref_mask(bits, s):
    """One bit OR-ed in per point: the quadratic build the masks replace."""
    m = 0
    for v in s:
        m |= 1 << (bits.raw(v) + bits.zero)
    return m


@PARITY
@given(a=points(1, -30, 30, max_size=40), b=points(1, -5, 5, max_size=6))
@example(a=frozenset((x,) for x in range(-12, 7)), b=frozenset({(0,), (2,)}))  # a full interval
@example(a=frozenset((x,) for x in range(-12, 7)) - {(0,)}, b=frozenset({(0,)}))  # one point short
@example(a=frozenset((x,) for x in range(-12, 7)) | {(9,)}, b=frozenset({(0,)}))  # one point past
def test_zd_mask_matches_one_bit_per_point_on_z(a, b):
    bits, ma = quasitile._bits(ZdGroup(1), a, b)
    assert ma == bits.mask(a) == ref_mask(bits, a) and bits.mask(b) == ref_mask(bits, b)


@PARITY
@given(a=holed_z2_windows(), b=points(2, -2, 3, max_size=5))
@example(a=SQUARE, b=frozenset({(0, 0), (1, 1)}))  # a full square off the origin
@example(a=SQUARE - {(5, 4)}, b=frozenset({(0, 0)}))  # one point short
@example(a=SQUARE | {(4, 9)}, b=frozenset({(0, 0)}))  # one point past
def test_zd_mask_matches_one_bit_per_point_on_z2(a, b):
    bits, ma = quasitile._bits(ZdGroup(2), a, b)
    assert ma == bits.mask(a) == ref_mask(bits, a) and bits.mask(b) == ref_mask(bits, b)


@PARITY
@given(a=points(3, -3, 3, max_size=40), b=points(3, -2, 2, max_size=6))
@example(a=BOX3, b=frozenset({(0, 0, 0), (-1, 1, 0)}))  # a full 3-box
def test_zd_mask_matches_one_bit_per_point_on_z3(a, b):
    """The column sum zero + c_2 + s_0 c_0 + s_1 c_1, with two strides."""
    bits, ma = quasitile._bits(ZdGroup(3), a, b)
    assert ma == bits.mask(a) == ref_mask(bits, a) and bits.mask(b) == ref_mask(bits, b)


@PARITY
@given(n=st.integers(1, 40), s=st.frozensets(st.integers(-3, 45), max_size=20))
@example(n=5, s=frozenset({0, 5}))  # the greatest element is n itself
@example(n=10, s=frozenset(range(3, 8)))  # an interval with lo > 0
@example(n=10, s=frozenset(range(10)))  # the whole group
@example(n=10, s=frozenset(range(6, 11)))  # an interval past n - 1
@example(n=10, s=frozenset(range(-2, 3)))  # an interval below 0
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
    bits, ma = quasitile._bits(ZdGroup(1), a, b)
    assert_dilation_matches(bits, ma, [bits.raw(v) for v in b])


@PARITY
@given(a=holed_z2_windows(), b=points(2, -4, 1, max_size=12))
def test_dilation_matches_one_shift_per_offset_on_z2(a, b):
    """B below the origin gives negative run starts.  Runs are taken on
    positions, so one may cross from a row of the box into the next."""
    bits, ma = quasitile._bits(ZdGroup(2), a, b)
    assert_dilation_matches(bits, ma, [bits.raw(v) for v in b])


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
    bits, _ = quasitile._bits(g, a, b)
    runs = quasitile._runs([bits.raw(v) for v in b])
    last = fam.centers[-1]
    forged = bits.mask(fam.covered - translate(g, b, last))
    quasitile._check_maximal(bits, runs, bits.mask(fam.covered), bits.mask({last}), 8)
    with pytest.raises(CheckFailed, match="not maximal"):
        quasitile._check_maximal(bits, runs, forged, bits.mask({last}), 8)


def assert_counter_recheck_matches(g, a, b, covered, need):
    """The bit-sliced counts against |(B + c) \\ U| read center by center,
    with every center of T(A, B) rejected."""
    bits, _ = quasitile._bits(g, a, b)
    runs = quasitile._runs([bits.raw(v) for v in b])
    t = ref_t_set(g, a, b)
    args = (bits, runs, bits.mask(covered), bits.mask(t), need)
    if any(len(translate(g, b, c) - covered) >= need for c in t):
        with pytest.raises(CheckFailed):
            quasitile._check_maximal(*args)
    else:
        quasitile._check_maximal(*args)


WINDOW_20 = frozenset((x,) for x in range(20))
MIXED_RUNS = frozenset((x,) for x in (0, 1, 2, 5, 6, 9))  # runs of 3, 2 and 1


@PARITY
@given(a=points(1, -8, 12, max_size=16), b=points(1, -3, 3, max_size=4),
       covered=st.frozensets(st.tuples(st.integers(-8, 12))), need=st.integers(0, 5))
# long and mixed runs: W_7 = W_6 + W_1 shifted by 6, and three run lengths
# summed; with U missing 3 and 12 every window of 7 holds at most one free point
@example(a=WINDOW_20, b=ZdGroup(1).segment(7), covered=WINDOW_20 - {(3,), (12,)}, need=2)
@example(a=WINDOW_20, b=ZdGroup(1).segment(7), covered=WINDOW_20 - {(3,), (12,)}, need=1)
@example(a=WINDOW_20, b=MIXED_RUNS, covered=WINDOW_20 - {(4,), (9,), (10,)}, need=2)
@example(a=WINDOW_20, b=MIXED_RUNS, covered=frozenset((x,) for x in range(0, 20, 3)), need=4)
def test_counter_recheck_matches_the_per_center_count_on_z(a, b, covered, need):
    assert_counter_recheck_matches(ZdGroup(1), a, b, covered & a, need)


@PARITY
@given(nab=cyclic_windows(), covered=st.frozensets(st.integers(0, 15)), need=st.integers(0, 5))
@example(nab=(16, frozenset(range(16)), frozenset({0, 1, 5})), covered=frozenset(), need=3)
# B's runs 0..1 and 9..10 are one run mod 11, across 10 -> 0
@example(nab=(11, frozenset(range(11)), frozenset({9, 10, 0, 1})), covered=frozenset({0, 5}), need=4)
# W_5 at the centers 7..10 counts across 10 -> 0
@example(nab=(11, frozenset(range(11)), frozenset(range(5))), covered=frozenset({7}), need=5)
@example(nab=(11, frozenset(range(11)), frozenset(range(5))), covered=frozenset(range(0, 11, 3)), need=4)
def test_counter_recheck_matches_the_per_center_count_on_zn(nab, covered, need):
    n, a, b = nab
    assert_counter_recheck_matches(CyclicGroup(n), a, b, frozenset(x for x in covered if x < n), need)


# --- the walk's skip rule ---------------------------------------------------


def runs_low(win, need):
    """The walk's low from the window's runs: floor((need - 1) / R), R the
    number of runs, the largest d with R d < need."""
    return (need - 1) // len(win.runs)


def ref_low(g, b, need, step):
    """low by the set definition: the d before the least d >= 1 at which
    B + step(d) adds need points to B, through `translate`."""
    return next(d for d in itertools.count(1) if len(translate(g, b, step(d)) - b) >= need) - 1


@PARITY
@given(b=points(1, -4, 4, max_size=7), need=st.integers(0, 7))
@example(b=frozenset((x,) for x in (0, 1, 3, 4)), need=3)  # |(B + d) \ B| = 2, 3, 2, 3, 4, ...
@example(b=frozenset((x,) for x in (0, 2, 4, 6)), need=2)  # 4, 1, 4, 2, ...
@example(b=SEGMENT_AND_POINT, need=7)  # 3 against 5
def test_the_runs_bound_is_sound_on_z(b, need):
    """Every run shifted by d leaves itself in at most min(d, L) points, so
    the runs bound never passes the exact one; it may fall short of it."""
    need = min(need, len(b))  # the bound reaches |B| once B + d misses B
    win = quasitile._Window.of(ZdGroup(1), frozenset({(0,)}) | b, b)
    assert runs_low(win, need) <= ref_low(ZdGroup(1), b, need, lambda d: (d,))


@PARITY
@given(b=points(2, -2, 2, max_size=7), need=st.integers(0, 7))
@example(b=ROW_AND_POINT, need=5)
def test_the_runs_bound_is_sound_on_z2(b, need):
    """On Z^2 the runs lie along rows when the window is wide: A's corners
    20 columns apart put B's rows far from one another in the encoding, and
    B + (0, d) is the shift by d positions."""
    need = min(need, len(b))
    win = quasitile._Window.of(ZdGroup(2), frozenset({(0, 0), (0, 20)}) | b, b)
    assert runs_low(win, need) <= ref_low(ZdGroup(2), b, need, lambda d: (0, d))


@PARITY
@given(nab=cyclic_windows(), need=st.integers(0, 4))
@example(nab=(32, frozenset(range(32)), frozenset(range(10)) | {12}), need=7)  # 3 against 6
# one arc of Z/11, but two runs of ints: low 1 against an exact 3
@example(nab=(11, frozenset(range(11)), frozenset({9, 10, 0, 1})), need=4)
def test_the_runs_bound_is_sound_on_zn(nab, need):
    """In Z/n the runs are those of the offsets 0..n-1 as ints, and B + d
    reduced mod n adds at most as many points as in unreduced positions.
    need beyond every |(B + d) \\ B| would leave the set bound unbounded,
    so it is clipped to the largest."""
    n, _, b = nab
    g = CyclicGroup(n)
    need = min(need, max(len(translate(g, b, d) - b) for d in range(n)))
    win = quasitile._Window.of(g, frozenset(range(n)), b)
    assert runs_low(win, need) <= ref_low(g, b, need, lambda d: d % n)


@pytest.mark.parametrize("length", [1, 2, 7, 50])
@pytest.mark.parametrize("eps", [Fraction(0), Fraction(2, 5), Fraction(9, 10)])
def test_a_segment_skips_need_positions(length, eps):
    """After accepting c, a segment of length L rules out c + 1 .. c + need - 1:
    B + d adds min(d, L) points, so the first d not ruled out is need."""
    g = ZdGroup(1)
    b = g.segment(length)
    need = math.ceil((1 - eps) * length)
    low = runs_low(quasitile._Window.of(g, frozenset((x,) for x in range(2 * length)), b), need)
    assert low + 1 == need == ref_low(g, b, need, lambda d: (d,)) + 1


@pytest.mark.parametrize("side", [1, 3, 5, 7])
@pytest.mark.parametrize("eps", [Fraction(0), Fraction(2, 5), Fraction(9, 10)])
def test_a_box_on_z2_skips_need_over_side_positions(side, eps):
    """An s-box moved by d < s along a row adds d s points, so the first
    position d not ruled out is ceil(need / s): the same from the tile's
    positions and from the sets."""
    g = ZdGroup(2)
    b = g.box(side)
    need = math.ceil((1 - eps) * side**2)
    win = quasitile._Window.of(g, g.box(2 * side), b)
    low = runs_low(win, need)
    assert low + 1 == -(-need // side) == ref_low(g, b, need, lambda d: (0, d)) + 1
