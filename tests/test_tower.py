import dataclasses
import gc
import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cberlab.eqrel import CheckFailed
from cberlab.intervals import IntervalError, IntervalSet, _fractions, partial_bijection_between
from cberlab.quasitile import TileError, ZdGroup, build_hierarchy
from cberlab.tower import (
    Tower,
    build_tower,
    materialize_map,
    stage_report,
    summability_report,
)

EPS = [F(1, 16), F(1, 32), F(1, 64), F(1, 128)]


def small_tower(stages=3):
    hier = build_hierarchy(ZdGroup(1), EPS[:stages], stages)
    return build_tower(hier, stages)


def test_stage0_trivial():
    tw = small_tower(1)
    st = tw.stages[0]
    assert st.targets[(0,)].measure == 1
    assert materialize_map(tw, 0, (0,)).pieces == ((F(0), F(1), F(0)),)


def test_stage_targets_partition():
    tw = small_tower(3)
    for st in tw.stages:
        assert sum(t.measure for t in st.targets.values()) == 1
        n = len(st.targets)
        assert all(t.measure == F(1, n) for t in st.targets.values())


def test_stage_covered_and_slot_views():
    """`covered` counts distinct slot indices on ints, and each target's
    memoized view is the one a freshly built set has."""
    tw = small_tower(3)
    for st in tw.stages:
        n = st.size
        assert st.covered == sum(t.measure for t in st.targets.values()) == 1
        assert st.base.intervals == IntervalSet([(0, F(1, n))]).intervals
        for g, p in st.items():
            t = st.targets[g]
            assert t == IntervalSet([(F(p, n), F(p + 1, n))])
            assert t.intervals == IntervalSet([(F(p, n), F(p + 1, n))]).intervals
    st = tw.stages[1]
    broken = dataclasses.replace(st, slots=[st.slots[1], *st.slots[1:]])  # two share a slot
    assert broken.covered == F(st.size - 1, st.size)


def test_identity_map_every_stage():
    tw = small_tower(3)
    for n in range(3):
        m = materialize_map(tw, n, (0,))
        assert all(o == 0 for _, _, o in m.pieces)
        assert m.domain().measure == 1


def test_translate_family_disjoint():
    tw = small_tower(2)
    st = tw.stages[1]
    seen = None
    for t in st.targets.values():
        if seen is None:
            seen = t
        else:
            assert not seen.intersect(t)
            seen = seen.union(t)
    assert seen.measure == 1


def test_cocycle_on_base():
    tw = small_tower(2)
    st = tw.stages[1]
    mg = materialize_map(tw, 1, (1,))
    m2 = materialize_map(tw, 1, (2,))
    comp = mg.compose(mg).restrict(st.base)
    assert comp.agreement_with(m2.restrict(st.base)).measure == st.base.measure


def test_agreement_and_defect_reports():
    tw = small_tower(3)
    r = stage_report(tw, 1, (1,), (1,))
    assert r.agreement_premise and r.defect_premise
    assert r.agreement == F(31, 32) >= r.agreement_bound == F(899, 1024)
    assert r.defect_domain >= r.defect_bound == F(31, 32)


def test_identity_report_trivial():
    tw = small_tower(2)
    r = stage_report(tw, 0, (0,), (0,))
    assert r.agreement == 1 and r.defect_domain == 1


def test_shallow_element_is_skipped_not_asserted():
    tw = small_tower(2)
    r = stage_report(tw, 0, (0,), (1,))
    assert r.agreement_premise  # identity is always deep
    # a report for a non-represented element is an informative skip
    r2 = stage_report(small_tower(3), 1, (40,), (1,))
    assert not r2.agreement_premise
    assert "agreement premise fails: g is not eps-deep; bound not claimed" in r2.notes


def test_stage_bounds_validation():
    tw = small_tower(2)
    with pytest.raises(TileError):
        stage_report(tw, 1, (1,), (1,))  # no stage 2 exists


def test_elements_of_the_wrong_dimension_are_rejected():
    """Every g passes through TowerStage.inside, which rejects a g with
    another number of coordinates than the tower's group: on a Z^2 tower,
    (1,) is not read as a partial point (a map of domain 3/16), nor
    (1, 0, 5) truncated to (1, 0)."""
    tw = build_tower(build_hierarchy(ZdGroup(2), [F(1, 4)] * 3, 3), 3)
    for g in ((1,), (1, 0, 5)):
        with pytest.raises(TileError, match="must have 2 coordinates"):
            materialize_map(tw, 1, g)
        with pytest.raises(TileError, match="must have 2 coordinates"):
            stage_report(tw, 1, g, (1, 0))
        with pytest.raises(TileError, match="must have 2 coordinates"):
            stage_report(tw, 1, (1, 0), g)
    assert materialize_map(tw, 1, (1, 0)).domain().measure == F(3, 4)


SHARED_ENDS = [
    # criterion 9's Z tower (sides 1, 32, 992, 63488) and a Z^2 tower (sides
    # 1, 4, 24); the g have both signs, and the last leaves every box.
    (ZdGroup(1), EPS, [(7,), (-40,), (-70000,)]),
    (ZdGroup(2), [F(1, 4)] * 3, [(1, 0), (-1, 2), (3, -3), (0, -5), (25, 0), (-1, -30)]),
]


@pytest.mark.parametrize("group, eps, elems", SHARED_ENDS, ids=["Z", "Z2"])
def test_map_pieces_share_the_stage_endpoints(group, eps, elems):
    """Every endpoint of a materialized map, and of every T-set's view in
    `targets`, is an entry of its stage's `ends` table, the very object
    (the report writer formats each object once), and a map's view equals,
    in values and types, the one `_fractions` builds from the same ints."""
    tw = build_tower(build_hierarchy(group, eps, len(eps)), len(eps))
    for n, st in enumerate(tw.stages):
        ends = {id(e) for e in st.ends}
        assert all(id(a) in ends and id(b) in ends
                   for t in st.targets.values() for a, b in t.intervals)
        for g in elems:
            m = materialize_map(tw, n, g)
            assert all(id(a) in ends and id(b) in ends for a, b, _ in m.pieces)
            f = _fractions(m._den, m._items)
            assert m.pieces == tuple((f[a], f[b], f[o]) for a, b, o in m._items)
            assert {type(v) for piece in m.pieces for v in piece} <= {F}
    top = tw.stages[-1]
    assert materialize_map(tw, len(eps) - 1, tuple([top.side] * group.d)).pieces == ()


def test_maps_on_a_forged_stage_are_still_checked():
    """A stage whose slots repeat an index sends two slots onto one:
    materialize_map's pieces still pass the map check, which raises."""
    tw = small_tower(2)
    st = tw.stages[1]
    broken = dataclasses.replace(st, slots=[st.slots[1], *st.slots[1:]])
    forged = Tower(tw.group, [tw.stages[0], broken])
    materialize_map(tw, 1, (-1,))
    with pytest.raises(IntervalError, match="overlapping"):
        materialize_map(forged, 1, (-1,))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_boundary_builds_leave_the_collector_as_they_found_it(enabled):
    """`ends`, `targets` and `materialize_map` pause the cyclic garbage
    collector and restore its state, whether they return or raise."""
    tw = small_tower(2)
    st = tw.stages[1]
    broken = dataclasses.replace(st, slots=[st.slots[1], *st.slots[1:]])
    forged = Tower(tw.group, [tw.stages[0], broken])
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for build in (lambda: st.ends, lambda: st.targets, lambda: materialize_map(tw, 1, (-1,))):
            build()
            assert gc.isenabled() is enabled
        with pytest.raises(IntervalError, match="overlapping"):
            materialize_map(forged, 1, (-1,))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


BOUNDARY_BUILDS = {
    "targets": lambda tw: tw.stages[3].targets,
    "map": lambda tw: materialize_map(tw, 3, (5,)),
}


@pytest.mark.parametrize("build", BOUNDARY_BUILDS)
def test_boundary_builds_run_at_most_one_collection(gc_passes, build):
    """On criterion 9's tower, building stage 3's 63,488 T-sets made 543
    collections and its map for g = 5 181, each freeing nothing; built
    with the collector paused, each makes at most the one that re-enabling
    it may trigger."""
    tw = build_tower(build_hierarchy(ZdGroup(1), EPS, 4), 4)
    tw.stages[3].ends
    assert gc_passes(lambda: BOUNDARY_BUILDS[build](tw)) <= 1


def test_summability():
    rep = summability_report(EPS)
    assert rep["halving"]
    assert rep["prefix_sum"] == F(15, 32)
    assert rep["tail_bound"] == F(1, 32)
    assert not summability_report([F(1, 4), F(1, 5)])["halving"]


def test_partition_check_raises_under_optimize():
    """build_tower's partition identity is an explicit raise, so python -O
    keeps it: a level whose side is not a multiple of the previous side is
    reported, not built."""
    code = (
        "from fractions import Fraction as F\n"
        "from cberlab.quasitile import ZdGroup, build_hierarchy\n"
        "from cberlab.tower import build_tower\n"
        "hier = build_hierarchy(ZdGroup(1), [F(1, 16), F(1, 32), F(1, 64)], 3)\n"
        "hier.levels[2].side = 993\n"
        "build_tower(hier, 3)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith("cberlab.eqrel.CheckFailed: stage 2 slots")


@pytest.mark.parametrize("group, side", [(ZdGroup(1), 993), (ZdGroup(2), 25)], ids=["Z", "Z2"])
def test_partition_check_rejects_a_non_multiple_side(group, side):
    """The top level's side set one past the multiple 992 of 32 on Z, or
    24 of 4 on Z^2: its grid of previous-level boxes leaves a strip of
    slots unassigned."""
    eps = EPS[:3] if group.d == 1 else [F(1, 4)] * 3
    hier = build_hierarchy(group, eps, 3)
    hier.levels[2].side = side
    with pytest.raises(CheckFailed, match="^stage 2 slots do not partition"):
        build_tower(hier, 3)


FORGED_TOWERS = {
    # stage 2's slot list reversed: phi^1_g and phi^2_g now disagree almost
    # everywhere, though g = 1 is deep in the 32-box.
    "agreement": (
        "tw.stages[2].slots.reverse()\n"
        "stage_report(tw, 1, (1,), (1,))\n"
    ),
    # the locus's sub-box shortened by two positions, to 29 of 32: h = 1 is
    # still deep by its own sub-box, and g = 0 keeps the agreement.
    "action defect": (
        "inside = TowerStage.inside\n"
        "TowerStage.inside = lambda st, *gs: inside(st, *gs) >> 2 * (len(gs) > 1)\n"
        "stage_report(tw, 0, (0,), (1,))\n"
    ),
}


@pytest.mark.parametrize("check", FORGED_TOWERS)
def test_stage_report_bounds_raise_under_optimize(check):
    """stage_report's agreement and action-defect bounds raise CheckFailed
    explicitly, so python -O keeps them: a forged tower is reported."""
    code = (
        "from fractions import Fraction as F\n"
        "from cberlab.quasitile import ZdGroup, build_hierarchy\n"
        "from cberlab.tower import TowerStage, build_tower, stage_report\n"
        "tw = build_tower(build_hierarchy(ZdGroup(1), [F(1, 16), F(1, 32), F(1, 64)], 3), 3)\n"
    ) + FORGED_TOWERS[check]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith(f"cberlab.eqrel.CheckFailed: {check} ")


RECHECK = [
    (ZdGroup(1), EPS[:3], [(0,), (1,), (-1,), (2,), (7,), (31,), (40,)]),
    (ZdGroup(2), [F(1, 4)] * 3, [(0, 0), (1, 0), (0, 1), (-1, 2), (3, 3), (5, -1)]),
]


@pytest.mark.parametrize("group, eps, elems", RECHECK, ids=["Z", "Z2"])
def test_slot_tower_matches_interval_algebra(group, eps, elems):
    """The slot construction, maps and reports of stages <= 2, rechecked
    independently by the general interval algebra of the paper's tower."""
    hier = build_hierarchy(group, eps, 3)
    tw = build_tower(hier, 3)
    for n in (0, 1):
        st, st1 = tw.stages[n], tw.stages[n + 1]
        grid = list(itertools.product(range(0, st1.side, st.side), repeat=group.d))
        cuts = IntervalSet()
        for c in grid:
            cuts = cuts.union(st1.targets[c])
        assert cuts == st.base
        for h, th in st.targets.items():
            m = partial_bijection_between(st.base, th)
            for c in grid:
                assert st1.targets[group.op(h, c)] == m.apply_set(st1.targets[c])
    for n, st in enumerate(tw.stages):
        for g in elems:
            want = [
                p
                for h, th in st.targets.items()
                if group.op(g, h) in st.targets
                for p in partial_bijection_between(th, st.targets[group.op(g, h)]).pieces
            ]
            assert materialize_map(tw, n, g).pieces == tuple(sorted(want))
    for n in (0, 1):
        for g in elems:
            for h in elems[:3]:
                r = stage_report(tw, n, g, h)
                m_lo, m_hi = materialize_map(tw, n, g), materialize_map(tw, n + 1, g)
                assert r.agreement == m_lo.agreement_with(m_hi).measure
                composite = m_hi.compose(materialize_map(tw, n + 1, h))
                mgh = materialize_map(tw, n + 1, group.op(g, h))
                assert r.defect_domain == mgh.agreement_with(composite).measure


# build_hierarchy's ledger and build_tower's slots, recorded when both still
# enumerated each level's box: the ledger as it is, the slots as the sha256
# of repr([sorted(st.slots.items()) for st in tower.stages]) over the then
# tuple-keyed slots, which the row-major `items()` view reproduces.
BOX_FREE = [
    (
        ZdGroup(1), EPS[:3],
        [
            ("level 1: 1-boxes tile the 32-box, |covered| = |tile|", 32, 32, True),
            ("level 1: (1-box, eps) invariance, |A \\ T| <= eps|A|", 0, F(2), True),
            ("level 2: 32-boxes tile the 992-box, |covered| = |tile|", 992, 992, True),
            ("level 2: (32-box, eps) invariance, |A \\ T| <= eps|A|", 31, F(31), True),
        ],
        "5d484fe2ae558b171f957998159981c7bb729b333a1817e9a8a416705c6f696c",
    ),
    (
        ZdGroup(2), [F(1, 4)] * 3,
        [
            ("level 1: 1-boxes tile the 4-box, |covered| = |tile|", 16, 16, True),
            ("level 1: (1-box, eps) invariance, |A \\ T| <= eps|A|", 0, F(4), True),
            ("level 2: 4-boxes tile the 24-box, |covered| = |tile|", 576, 576, True),
            ("level 2: (4-box, eps) invariance, |A \\ T| <= eps|A|", 135, F(144), True),
        ],
        "740b0a5f45f5f7a44daa49b0cfbbddcc914a202d197d575a57908dac7c2d77a3",
    ),
]


@pytest.mark.parametrize("group, eps, ledger, slots_digest", BOX_FREE, ids=["Z", "Z2"])
def test_hierarchy_and_tower_never_enumerate_a_level_box(monkeypatch, group, eps, ledger, slots_digest):
    """Each level's tile is read off its verified grid mask and each stage is
    built from the previous stage's slots, so neither needs the points of
    any level's box, and both give the values they gave when they did."""
    sides = {1, 4, 24, 32, 992}

    def box(self, side):
        if side in sides:
            pytest.fail(f"enumerated the {side}-box")
        return frozenset(itertools.product(range(side), repeat=self.d))

    monkeypatch.setattr(ZdGroup, "box", box)
    hier = build_hierarchy(group, eps, 3)
    tw = build_tower(hier, 3)
    assert {lv.side for lv in hier.levels} <= sides
    assert hier.ledger == ledger
    slots = repr([list(st.items()) for st in tw.stages])
    assert hashlib.sha256(slots.encode()).hexdigest() == slots_digest
