"""Towers of partial actions on the rational measure algebra.

Each stage of a tower allocates, for every element g of a Følner tile, a set
T_g of measure 1/|tile|, with the sets partitioning [0,1).  The partial map
phi_g is the canonical order-preserving translation T_h -> T_gh, piece by
piece; successive stages refine each other on most of the space, and
agreement and action-defect measures are reported against their exact lower
bounds whenever the deepness premises hold.

The paper builds stage n+1 inside stage n's base X = T_identity: it cuts X
into one subset per tiling center c (the identity's first, then the others in
order) and carries the subset for c onto T_{h+c} by phi^n_h.  Over the nested
box tilings of `build_hierarchy` this general interval construction collapses
to a slot permutation.  Stage 0 is T_0 = [0,1), one slot.  If every T-set of
stage n is a single slot [pi_n(g)/size_n, (pi_n(g)+1)/size_n), with
pi_n(identity) = 0, then the base is the first slot, its k = |centers| cuts
of measure 1/size_{n+1} are the slots idx(c) = 0..k-1 of the finer grid, and
phi^n_h translates the base onto T_h by pi_n(h)/size_n.  So, by induction,
every T-set is one slot with

    pi_{n+1}(h + c) = k * pi_n(h) + idx(c),

idx(c) the position of c in [identity, *other centers].  A stage is therefore
stored as pi_n, a dict element -> slot index, and checked by one integer
identity: its keys are the tile (side^d keys with every coordinate in
[0, side)) and its values are range(size).  Maps,
agreement and defect are slot counts; `IntervalSet`, `IntervalMap` and
`Fraction` appear only at the boundary (`TowerStage.targets`, `.base`,
`materialize_map` and the measures of `StageReport`).  A stage keeps one
table of endpoint Fractions, `TowerStage.ends`; its T-sets share it as their
memoized `intervals` views, and `lift-sim` emits each slot straight from pi_n
as the pair ends[p], ends[p + 1] without building a T-set.  Its partition
check is `TowerStage.covered`, a count of slot indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .eqrel import CheckFailed
from .intervals import IntervalMap, IntervalSet
from .quasitile import TileError, TilingHierarchy, ZdGroup


@dataclass
class TowerStage:
    side: int
    eps: Fraction
    slots: dict[tuple, int]  # pi_n: element g of the tile -> index of the slot T_g

    @property
    def size(self) -> int:
        return len(self.slots)

    @property
    def covered(self) -> Fraction:
        """mu of the union of the T-sets, on ints: the distinct slot indices
        in range(size), over size."""
        return Fraction(len(set(self.slots.values()).intersection(range(self.size))), self.size)

    def _slot(self, p: int, view: tuple | None = None) -> IntervalSet:
        # build_tower's partition identity has proven that the slot indices
        # are exactly range(size), so [p, p + 1) needs no _normalize: it is
        # already a sorted, non-empty interval inside [0, size).
        return IntervalSet._new(self.size, ((p, p + 1),), view)

    @cached_property
    def base(self) -> IntervalSet:
        """X = T_identity, the first slot: the set the next stage is cut from."""
        return self._slot(0)

    @cached_property
    def ends(self) -> list[Fraction]:
        """The slot endpoints q/size, q = 0..size: T_g = [ends[p], ends[p + 1])
        for p = pi_n(g)."""
        size = self.size
        return [Fraction(q, size) for q in range(size + 1)]

    @cached_property
    def targets(self) -> dict[tuple, IntervalSet]:
        """element -> T_g, a partition of [0,1).  Neighbouring slots share
        the Fraction of their common endpoint, from `ends`, in their
        `intervals` views."""
        ends = self.ends
        return {g: self._slot(p, ((ends[p], ends[p + 1]),)) for g, p in self.slots.items()}


@dataclass
class Tower:
    group: ZdGroup
    stages: list[TowerStage]


def build_tower(hier: TilingHierarchy, stages: int) -> Tower:
    """Tower over a nested exact tiling hierarchy; stage n uses level n.

    Stage 0 is the trivial stage (tile = {identity}, T = [0,1)); stage n+1
    follows from stage n by the closed form in the module docstring.  Each
    stage must pass the partition identity, which raises AssertionError
    whatever the interpreter flags: a hierarchy whose centers do not tile
    the box exactly fails it.  Only the slot values are sorted.
    """
    if stages < 1 or stages > len(hier.levels):
        raise TileError(f"stages must be in 1..{len(hier.levels)}")
    if hier.levels[0].side != 1:
        raise TileError("hierarchy must start with the singleton tile")
    group = hier.group
    tower = Tower(group, [])
    slots = {group.identity: 0}
    for n in range(stages):
        lvl = hier.levels[n]
        if n > 0:
            centers = lvl.centers
            order = [group.identity] + [c for c in centers if c != group.identity]
            idx = {c: i for i, c in enumerate(order)}
            k = len(centers)
            slots = {
                group.op(h, c): k * p + idx[c] for h, p in slots.items() for c in centers
            }
        side = lvl.side
        if (
            len(slots) != side**group.d
            or not set(itertools.chain.from_iterable(slots)) <= set(range(side))
            or sorted(slots.values()) != list(range(len(slots)))
        ):
            raise AssertionError(f"stage {n} slots do not partition [0,1)")
        tower.stages.append(TowerStage(side, lvl.eps, slots))
    return tower


def materialize_map(tower: Tower, n: int, g: tuple) -> IntervalMap:
    """phi^n_g as a full piecewise translation: on each T_h with g+h in the
    tile, the translation of slot pi(h) onto slot pi(g+h)."""
    st = tower.stages[n]
    pi = st.slots
    op = tower.group.op
    return IntervalMap._from_ints(
        st.size, ((p, p + 1, pi[gh] - p) for h, p in pi.items() if (gh := op(g, h)) in pi)
    )


def _box_overlap(side: int, g: tuple) -> int:
    """|B ∩ g^{-1}B| for the side-length box, exactly."""
    out = 1
    for x in g:
        out *= max(0, side - abs(x))
    return out


@dataclass
class StageReport:
    pair: tuple[int, int]
    g: tuple
    agreement: Fraction
    agreement_bound: Fraction
    agreement_premise: bool
    defect_domain: Fraction
    defect_bound: Fraction
    defect_premise: bool
    notes: list[str] = field(default_factory=list)


def stage_report(tower: Tower, n: int, g: tuple, h: tuple) -> StageReport:
    """Agreement of phi^n_g with phi^{n+1}_g, and the action defect of the
    pair (g, h) at stage n+1, with the premises that license each bound.

    Agreement bound: mu{phi^n_g = phi^{n+1}_g} >= (1-eps)(1-3 eps) when g is
    eps-deep in the stage-n tile (eps the transition modulus).  Action bound:
    mu(dom) of the locus where phi_{g+h} = phi_g . phi_h is >= 1 - 2 eps when
    h and g+h are eps-deep in the stage-(n+1) tile.  A bound that fails
    under its premise raises CheckFailed, whatever the interpreter flags.
    """
    if not 0 <= n < len(tower.stages) - 1:
        raise TileError("need two consecutive stages")
    group = tower.group
    st, st1 = tower.stages[n], tower.stages[n + 1]
    eps = st.eps  # transition n -> n+1 modulus
    b_size = st.side**group.d
    premise = b_size - _box_overlap(st.side, g) <= eps * b_size
    op = group.op
    pi, pi1 = st.slots, st1.slots
    k = st1.size // st.size
    coarse = sorted(pi, key=pi.__getitem__)  # slot index -> element, stage n
    # Fine slot j lies in coarse slot j // k at position j % k, so phi^n_g
    # sends it to k * pi(g + coarse[j // k]) + j % k.
    hits = 0
    for x, j in pi1.items():
        gx, gy = op(g, x), op(g, coarse[j // k])
        if gx in pi1 and gy in pi and pi1[gx] == k * pi[gy] + j % k:
            hits += 1
    agree = Fraction(hits, st1.size)
    bound = (1 - eps) * (1 - 3 * eps)
    eps1 = st1.eps
    b1 = st1.side**group.d
    gh = op(g, h)
    defect_premise = all(b1 - _box_overlap(st1.side, x) <= eps1 * b1 for x in (h, gh))
    # phi_g . phi_h and phi_{g+h} both send slot pi(x) to slot pi(g+h+x)
    # wherever they are defined: where h+x and g+h+x are in the tile.  So
    # the locus is those slots.
    locus = sum(1 for x in pi1 if op(h, x) in pi1 and op(gh, x) in pi1)
    rep = StageReport((n, n + 1), g, agree, bound, premise,
                      Fraction(locus, st1.size), 1 - 2 * eps1, defect_premise)
    if premise:
        if agree < bound:
            raise CheckFailed(f"agreement {agree} below bound {bound} despite deepness")
    else:
        rep.notes.append("agreement premise fails: g is not eps-deep; bound not claimed")
    if defect_premise:
        if rep.defect_domain < rep.defect_bound:
            raise CheckFailed(f"action defect {rep.defect_domain} below {rep.defect_bound}")
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
