"""Towers of partial actions on the rational measure algebra.

Each stage of a tower allocates, for every element g of a Følner tile, an
interval set T_g of measure 1/|tile|, with the sets partitioning [0,1).  The
partial map phi_g is the canonical order-preserving translation T_h -> T_gh,
piece by piece; successive stages refine each other on most of the space, and
agreement and action-defect measures are reported against their exact lower
bounds whenever the deepness premises hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import (
    FULL,
    IntervalMap,
    IntervalSet,
    consecutive_subsets,
    disjoint_union,
    join_maps,
    partial_bijection_between,
)
from .quasitile import TileError, TilingHierarchy, ZdGroup


@dataclass
class TowerStage:
    side: int
    eps: Fraction
    base: IntervalSet  # X_A: domain shared by all phi_g of this stage
    targets: dict[tuple, IntervalSet]  # element -> T_g, a partition of [0,1)


@dataclass
class Tower:
    group: ZdGroup
    stages: list[TowerStage]
    _map_cache: dict = field(default_factory=dict)


def _box_elements(group: ZdGroup, side: int) -> list[tuple]:
    import itertools

    return sorted(itertools.product(range(side), repeat=group.d))


def build_tower(hier: TilingHierarchy, stages: int) -> Tower:
    """Tower over a nested exact tiling hierarchy; stage n uses level n.

    Stage 0 is the trivial stage (tile = {identity}, T = [0,1)).  Stage n+1
    allocates its base inside stage n's base and transports it around by the
    stage-n maps: T_{h+c} = phi^n_h(T_c) for each tiling center c and tile
    element h.  Exactness of the tilings makes the T-sets a partition.
    """
    if stages < 1 or stages > len(hier.levels):
        raise TileError(f"stages must be in 1..{len(hier.levels)}")
    group = hier.group
    tower = Tower(group, [])
    for n in range(stages):
        lvl = hier.levels[n]
        elems = _box_elements(group, lvl.side)
        size = len(elems)
        if n == 0:
            if lvl.side != 1:
                raise TileError("hierarchy must start with the singleton tile")
            tower.stages.append(
                TowerStage(1, lvl.eps, FULL, {group.identity: FULL})
            )
            continue
        prev = tower.stages[-1]
        prev_elems = _box_elements(group, tower.stages[-1].side)
        slot_measure = Fraction(1, size)
        # Allocate the center slots inside the previous base, left to right
        # by one cursor: the identity's slot (the new base) first, then the
        # other centers in order.
        others = [c for c in lvl.centers if c != group.identity]
        base, *rest = consecutive_subsets(prev.base, slot_measure, 1 + len(others))
        slot = {group.identity: base, **dict(zip(others, rest))}
        targets: dict[tuple, IntervalSet] = {}
        for h in prev_elems:
            # phi^{n-1}_h restricted to the previous base is the canonical
            # order-preserving translation onto T_h.
            m = partial_bijection_between(prev.base, prev.targets[h])
            if m is None:
                raise AssertionError(f"T_{h} and the base differ in measure at stage {n - 1}")
            for c in lvl.centers:
                targets[group.op(h, c)] = m.apply_set(slot[c])
        if len(targets) != size:
            raise AssertionError("tile coverage mismatch in tower stage")
        for g, t in targets.items():
            if not t.has_measure(slot_measure):
                raise AssertionError(f"slot measure off for {g}")
        # raises IntervalError on overlap
        if not disjoint_union(targets.values()).has_measure(1):
            raise AssertionError("stage targets do not partition [0,1)")
        tower.stages.append(TowerStage(lvl.side, lvl.eps, base, targets))
    return tower


def materialize_map(tower: Tower, n: int, g: tuple) -> IntervalMap:
    """phi^n_g as a full piecewise translation: on each T_h with g+h in the
    tile, the canonical order-preserving translation T_h -> T_{g+h}."""
    if (n, g) in tower._map_cache:
        return tower._map_cache[(n, g)]
    st = tower.stages[n]
    group = tower.group
    maps: list[IntervalMap] = []
    for h, th in st.targets.items():
        gh = group.op(g, h)
        if gh not in st.targets:
            continue
        m = partial_bijection_between(th, st.targets[gh])
        if m is None:
            raise AssertionError(f"T_{h} and T_{gh} differ in measure at stage {n}")
        maps.append(m)
    out = join_maps(maps)  # raises IntervalError unless the pieces are disjoint
    tower._map_cache[(n, g)] = out
    return out


def _box_overlap(group: ZdGroup, side: int, g: tuple) -> int:
    """|B ∩ g^{-1}B| for the side-length box, exactly."""
    out = 1
    for x in g:
        out *= max(0, side - abs(x))
    return out


@dataclass
class StageReport:
    pair: tuple[int, int]
    g: tuple
    agreement: Fraction | None
    agreement_bound: Fraction
    agreement_premise: bool
    defect_domain: Fraction | None
    defect_bound: Fraction
    defect_premise: bool
    notes: list[str] = field(default_factory=list)


def stage_report(tower: Tower, n: int, g: tuple, h: tuple | None = None) -> StageReport:
    """Agreement of phi^n_g with phi^{n+1}_g, and the action defect of the
    pair (g, h) at stage n+1, with the premises that license each bound.

    Agreement bound: mu{phi^n_g = phi^{n+1}_g} >= (1-eps)(1-3 eps) when g is
    eps-deep in the stage-n tile (eps the transition modulus).  Action bound:
    mu(dom) of the locus where phi_{g+h} = phi_g . phi_h is >= 1 - 2 eps when
    h and g+h are eps-deep in the stage-(n+1) tile.
    """
    if not 0 <= n < len(tower.stages) - 1:
        raise TileError("need two consecutive stages")
    group = tower.group
    st, st1 = tower.stages[n], tower.stages[n + 1]
    eps = st.eps  # transition n -> n+1 modulus
    side = st.side
    b_size = side**group.d
    overlap = _box_overlap(group, side, g)
    premise = b_size - overlap <= eps * b_size
    m_lo = materialize_map(tower, n, g)
    m_hi = materialize_map(tower, n + 1, g)
    agree = m_lo.agreement_with(m_hi).measure
    bound = (1 - eps) * (1 - 3 * eps)
    rep = StageReport((n, n + 1), g, agree, bound, premise, None, Fraction(0), False)
    if premise:
        if agree < bound:
            raise AssertionError(
                f"agreement {agree} below bound {bound} despite deepness"
            )
    else:
        rep.notes.append("agreement premise fails: g is not eps-deep; bound not claimed")
    if h is not None:
        eps1 = st1.eps
        side1 = st1.side
        b1 = side1**group.d
        gh = group.op(g, h)
        p_h = b1 - _box_overlap(group, side1, h) <= eps1 * b1
        p_gh = b1 - _box_overlap(group, side1, gh) <= eps1 * b1
        rep.defect_premise = p_h and p_gh
        mg = materialize_map(tower, n + 1, g)
        mh = materialize_map(tower, n + 1, h)
        mgh = materialize_map(tower, n + 1, gh)
        composite = mg.compose(mh)
        rep.defect_domain = mgh.agreement_with(composite).measure
        rep.defect_bound = 1 - 2 * eps1
        if rep.defect_premise:
            if rep.defect_domain < rep.defect_bound:
                raise AssertionError(
                    f"action defect {rep.defect_domain} below {rep.defect_bound}"
                )
        else:
            rep.notes.append("defect premise fails: h or g+h not eps-deep; bound not claimed")
    return rep


def summability_report(eps_seq: list[Fraction]) -> dict:
    """Exact prefix sum of the per-stage disagreement allowances 4 eps_n,
    the halving check eps_{n+1} <= eps_n / 2, and the geometric tail bound."""
    halving = all(b <= a / 2 for a, b in zip(eps_seq, eps_seq[1:]))
    prefix = sum((4 * e for e in eps_seq), Fraction(0))
    tail = 4 * eps_seq[-1] if eps_seq else Fraction(0)
    return {
        "halving": halving,
        "prefix_sum": prefix,
        "tail_bound": tail,
        "summable": halving,
    }
