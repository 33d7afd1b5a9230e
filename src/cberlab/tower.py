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
pi_n(identity) = 0, then the base is the first slot, its k = |grid| cuts of
measure 1/size_{n+1} are the slots idx(c) = 0..k-1 of the finer grid, and
phi^n_h translates the base onto T_h by pi_n(h)/size_n.  So, by induction,
every T-set is one slot with

    pi_{n+1}(h + c) = k * pi_n(h) + idx(c),

c ranging over the grid range(0, side, side_n)^d of level n+1.  A stage is
therefore stored as pi_n, a list of slot indices by the row-major position
of g in [0, side)^d (`_ZdBits` with corner 0, so pos(h + c) = pos(h) +
raw(c)).  The grid's positions are the set bits of `_ZdBits.box` with step
side_n, ascending in row-major order, so the i-th has idx(c) = i and the
identity comes first.  A stage is checked by one integer identity: the list
is a permutation of range(k * size_n), which a side that is not a multiple of
side_n fails.  Maps, agreement and defect are slot counts over
sub-box positions (`TowerStage.inside`).  Tuples appear only as the
row-major keys of `TowerStage.items` and `targets`; `IntervalSet`,
`IntervalMap` and `Fraction` only at the boundary (`TowerStage.targets`, `.base`, `materialize_map` and the measures
of `StageReport`).  `lift-sim` emits pi_n itself, each stage's `slots`, from
which T_g = [p/size, (p+1)/size) with p the entry at g's row-major position.
A stage keeps one table of endpoint Fractions, `TowerStage.ends`, for
`targets` and the maps: its T-sets share it as their memoized `intervals`
views and its maps as their `pieces` views, so every endpoint handed out is
an object of the table and the report writer formats each once.  Its
partition check is `TowerStage.covered`, a count of slot indices.

The boundary is built in bulk with the cyclic garbage collector paused
(`_collector_paused`): `ends`, `targets` and the `_from_ints` call of
`materialize_map`.  Each T-set holds a key tuple, an `IntervalSet`, its items
and its view, six tracked containers per slot, and a map a piece and a view
tuple per slot.  All live as long as the stage or the map, so with the
collector running their build would trigger hundreds of collections that
traverse every object and free none (543 for stage 3 of criterion 9's
tower, 181 for one of its maps).  No cycle can form there: what is built
holds only ints, Fractions, tuples and `_OnGrid` objects, each referring
only to objects made before it, never back to one that holds it.  So the
pause changes when the collector runs, not what it frees.  `targets` lists
the slots' items tuples, then their view tuples, off the slot list, builds
the sets in one loop and zips them with the row-major keys.
"""

from __future__ import annotations

import gc
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .eqrel import CheckFailed
from .intervals import IntervalMap, IntervalSet
from .quasitile import TileError, TilingHierarchy, ZdGroup, _set_bits, _ZdBits


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector disabled, and leave it
    as it was found, enabled or not, however the body ends.  For the bulk
    builds of the boundary only: they make tens of thousands of ints,
    Fractions, tuples and `_OnGrid` objects, none of which refers back to
    another, so no cycle forms and a collection there would free nothing
    (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class TowerStage:
    side: int
    eps: Fraction
    d: int
    slots: list[int]  # pi_n: row-major position of g in [0, side)^d -> index of the slot T_g

    @property
    def size(self) -> int:
        return len(self.slots)

    @property
    def covered(self) -> Fraction:
        """mu of the union of the T-sets, on ints: the distinct slot indices
        in range(size), over size."""
        return Fraction(len(set(self.slots).intersection(range(self.size))), self.size)

    @cached_property
    def bits(self) -> _ZdBits:
        return _ZdBits([0] * self.d, [self.side - 1] * self.d)

    def items(self) -> Iterator[tuple[tuple, int]]:
        """(g, pi_n(g)) in row-major order: the one place elements are tuples."""
        return zip(itertools.product(range(self.side), repeat=self.d), self.slots)

    def inside(self, *gs: tuple) -> int:
        """The mask of the positions x with x + g in the box for every g:
        the sub-box with corner max(0, -g_j) and extent side - max(0, g_j)
        - max(0, -g_j), over the g.  Every g passes through here, so a g
        that is not a point of Z^d, d the stage's dimension, raises TileError."""
        if any(len(g) != self.d for g in gs):
            raise TileError(f"group elements must have {self.d} coordinates")
        cols = list(zip(*gs))
        los = [max(0, -min(c)) for c in cols]
        ext = [max(0, self.side - max(0, max(c)) - lo) for c, lo in zip(cols, los)]
        return self.bits.box(ext) << self.bits.raw(los)

    def image(self, g: tuple) -> list[int]:
        """phi_g by slot: out[pi(x)] = pi(g + x) where g + x is in the box,
        -1 elsewhere."""
        out, r = [-1] * self.size, self.bits.raw(g)
        for x in _set_bits(self.inside(g)):
            out[self.slots[x]] = self.slots[x + r]
        return out

    # build_tower's partition identity has proven that the slot indices are
    # exactly range(size), so a slot [p, p + 1) needs no _normalize: it is
    # already a sorted, non-empty interval inside [0, size), and `base` and
    # `targets` build it with IntervalSet._new.
    @cached_property
    def base(self) -> IntervalSet:
        """X = T_identity, the first slot: the set the next stage is cut from."""
        return IntervalSet._new(self.size, ((0, 1),))

    @cached_property
    def ends(self) -> list[Fraction]:
        """The slot endpoints q/size, q = 0..size: T_g = [ends[p], ends[p + 1])
        for p = pi_n(g)."""
        size = self.size
        with _collector_paused():
            return [Fraction(q, size) for q in range(size + 1)]

    @cached_property
    def targets(self) -> dict[tuple, IntervalSet]:
        """element -> T_g, a partition of [0,1).  Neighbouring slots share
        the Fraction of their common endpoint, from `ends`, in their
        `intervals` views."""
        size, ends, slots, new = self.size, self.ends, self.slots, IntervalSet._new
        with _collector_paused():
            items = [((p, p + 1),) for p in slots]
            views = [((ends[p], ends[p + 1]),) for p in slots]
            sets = [new(size, it, v) for it, v in zip(items, views)]
            return dict(zip(itertools.product(range(self.side), repeat=self.d), sets))


@dataclass
class Tower:
    group: ZdGroup
    stages: list[TowerStage]


def build_tower(hier: TilingHierarchy, stages: int) -> Tower:
    """Tower over a nested exact tiling hierarchy; stage n uses level n.

    Stage 0 is the trivial stage (tile = {identity}, T = [0,1)); stage n+1
    follows from stage n by the closed form in the module docstring.  Each
    stage must pass the partition identity, which raises CheckFailed
    whatever the interpreter flags: a level whose side is not a multiple of
    the previous level's fails it.
    """
    if stages < 1 or stages > len(hier.levels):
        raise TileError(f"stages must be in 1..{len(hier.levels)}")
    if hier.levels[0].side != 1:
        raise TileError("hierarchy must start with the singleton tile")
    d = hier.group.d
    tower = Tower(hier.group, [TowerStage(1, hier.levels[0].eps, d, [0])])
    for n in range(1, stages):
        lvl, st = hier.levels[n], tower.stages[-1]
        nxt = TowerStage(lvl.side, lvl.eps, d, [-1] * lvl.side**d)
        # The grid's positions raw(c), ascending: i = idx(c).
        offs = list(_set_bits(nxt.bits.box([lvl.side // st.side] * d, st.side)))
        k = len(offs)
        for h, p in zip(_set_bits(nxt.bits.box([st.side] * d)), st.slots):
            for i, r in enumerate(offs):
                nxt.slots[h + r] = k * p + i
        if sorted(nxt.slots) != list(range(k * st.size)):
            raise CheckFailed(f"stage {n} slots do not partition [0,1)")
        tower.stages.append(nxt)
    return tower


def materialize_map(tower: Tower, n: int, g: tuple) -> IntervalMap:
    """phi^n_g as a full piecewise translation: on each T_h with g+h in the
    tile, the translation of slot pi(h) onto slot pi(g+h).  Its `pieces`
    take their endpoints from the stage's `ends`; the pieces are checked
    like those of any other map."""
    st = tower.stages[n]
    img = st.image(g)
    with _collector_paused():
        return IntervalMap._from_ints(
            st.size, ((p, p + 1, q - p) for p, q in enumerate(img) if q >= 0), st.ends
        )


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
    st, st1 = tower.stages[n], tower.stages[n + 1]
    eps = st.eps  # transition n -> n+1 modulus
    premise = st.size - st.inside(g).bit_count() <= eps * st.size
    k, img = st1.size // st.size, st.image(g)
    # Fine slot j lies in coarse slot j // k at position j % k, so phi^n_g
    # sends it to k * img[j // k] + j % k, negative where it is undefined.
    hits = sum(q >= 0 and q == k * img[j // k] + j % k for j, q in enumerate(st1.image(g)))
    agree = Fraction(hits, st1.size)
    bound = (1 - eps) * (1 - 3 * eps)
    eps1 = st1.eps
    gh = tower.group.op(g, h)
    defect_premise = all(st1.size - st1.inside(x).bit_count() <= eps1 * st1.size for x in (h, gh))
    # phi_g . phi_h and phi_{g+h} both send slot pi(x) to slot pi(g+h+x)
    # wherever they are defined: where h+x and g+h+x are in the tile.  So
    # the locus is those slots.
    locus = st1.inside(h, gh).bit_count()
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
    return {
        "halving": all(b <= a / 2 for a, b in zip(eps_seq, eps_seq[1:])),
        "prefix_sum": sum((4 * e for e in eps_seq), Fraction(0)),
        "tail_bound": 4 * eps_seq[-1] if eps_seq else Fraction(0),
    }
