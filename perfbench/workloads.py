"""Seeded inputs and verified items for the three benchmark workloads.

`make_items(workload, seed, tr)` builds every input of one pass from the
seed (this is set-up time); `run_item(item, seed, tr)` runs one item through
the public cberlab functions, checks every output and returns the canonical
report text.  Every call into a cberlab layer goes through `tr.call`, so a
traced run records one span per call, under the span of its item.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from cberlab import choice, eqrel, groups, links, quasitile, report, tower
from cberlab.instances import gen_chain

WORKLOADS = ("links", "tiling", "tower")

# Layer calls the benchmark times; each yields `<name>.calls` and `<name>.busy_s`.
CALLS = (
    "eqrel.build_partition",
    "eqrel.FinEqrel.refines",
    "groups.extend_by_group",
    "groups.orbit_eqrel",
    "links.link_finite_index",
    "links.verify_link",
    "links.lift_from_link",
    "links.hf_link",
    "choice.choice_sequence_link",
    "choice.verify_windowed_link",
    "quasitile.quasi_tile",
    "quasitile.check_tiling",
    "quasitile.covering_family",
    "quasitile.build_hierarchy",
    "intervals.IntervalMap.compose",
    "intervals.IntervalMap.restrict",
    "intervals.IntervalMap.agreement_with",
    "tower.build_tower",
    "tower.materialize_map",
    "tower.stage_report",
    "report.Report.to_json",
)
COUNTERS = (
    "eqrel.points",
    "links.fsr_candidates",
    "links.link_classes",
    "choice.window_points",
    "quasitile.window_points",
    "quasitile.centers",
    "quasitile.covered_points",
    "intervals.pieces",
    "tower.slots",
    "report.bytes",
)
LINK_KINDS = ("wide", "bulk", "chain", "choice")

# Items per pass.  Sizes are stratified over their ranges, so every seed
# gives a pass of nearly the same cost; the seed picks the points inside each
# stratum, the labels and the order.
WIDE_ITEMS = 64  # 16 at each F-class index 6..9
BULK_SIZES = (687, 1062, 1437, 1812)  # stratum centres over 500..2000 points
CHAIN_ITEMS = 32
CHOICE_ITEMS = 32
TILING_EPS = (Fraction(2, 5), Fraction(1, 3))
TILES_PER_GROUP = 5  # per group kind: Z, Z^2, Z/n; window sizes 5e3..5e4
COVERING_ITEMS = 65  # 80 items per pass: p90 falls on the median window
TOWER_EPS = (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64), Fraction(1, 128))


@dataclass
class Item:
    id: int
    kind: str
    sizes: dict  # recorded beside the item's span
    inputs: tuple


def make_items(workload: str, seed: int, tr) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    specs = {"links": _links_specs, "tiling": _tiling_specs, "tower": _tower_specs}[workload](rng)
    rng.shuffle(specs)
    return [Item(i, kind, *build(tr)) for i, (kind, build) in enumerate(specs)]


def run_item(item: Item, seed: int, tr) -> tuple[str, bool, str | None]:
    """(canonical report, passed, exception type or None) for one item."""
    scenario = {"kind": item.kind, "item": item.id, **item.sizes}
    rep = report.Report(scenario, "pass", seed=seed)
    error = None
    try:
        RUN[item.kind](item, rep, tr)
    except Exception as exc:  # an item that raises is counted, not fatal
        error = type(exc).__name__
        rep.outcome = "error"
        rep.metrics = {"exception": error, "message": str(exc)}
    text = tr.call("report.Report.to_json", rep.to_json)
    tr.count("report.bytes", len(text))
    return text, rep.all_pass, error


# --- links ------------------------------------------------------------------


def _block_pair(tr, rng, shapes, combined: bool):
    """E ⊆ F from (class size m, index k) blocks under a random labelling.

    Each block's witness rotates its k E-classes; with `combined` the
    rotations of all blocks are one generator.
    """
    n = sum(m * k for m, k in shapes)
    label = list(range(n))
    rng.shuffle(label)
    e_classes, f_classes, gens = [], [], []
    base = 0
    for m, k in shapes:
        cls = [label[base + i * m: base + (i + 1) * m] for i in range(k)]
        g = list(range(n))
        for i in range(k):
            for a, b in zip(cls[i], cls[(i + 1) % k]):
                g[a] = b
        e_classes += cls
        f_classes.append([x for c in cls for x in c])
        gens.append(g)
        base += m * k
    if combined:
        one = list(range(n))
        for g in gens:
            for x, y in enumerate(g):
                if x != y:
                    one[x] = y
        gens = [one]
    e = tr.call("eqrel.build_partition", eqrel.build_partition, n, e_classes)
    f = tr.call("eqrel.build_partition", eqrel.build_partition, n, f_classes)
    tr.count("eqrel.points", 2 * n)
    wit = tuple(tuple(g) for g in gens)
    cls_gens = tuple(tuple(e.class_index(g[c[0]]) for c in e.classes) for g in wit)
    sizes = {
        "n": n,
        "index": max(k for _, k in shapes),
        "fsr_candidates": sum(m**k for m, k in shapes),
    }
    return sizes, (e, f, wit, cls_gens)


def _wide_shapes(rng, k: int) -> list[tuple[int, int]]:
    """One 3-point-class block of index k, plus a singleton-class block of
    index 6..9 when at most 27 points leave room for one."""
    shapes = [(3, k)]
    room = 27 - 3 * k
    if room >= 6:
        shapes.append((1, rng.randint(6, min(9, room))))
    return shapes


def _bulk_shapes(rng, n: int) -> list[tuple[int, int]]:
    """Blocks of class size <= 3 and index <= 3 filling exactly n points."""
    shapes, room = [], n
    while room:
        m = rng.randint(1, min(3, room))
        k = rng.randint(1, min(3, room // m))
        shapes.append((m, k))
        room -= m * k
    return shapes


def _choice_pair(tr, rng, depth: int):
    """Constant-index pair: 1-2 F-classes, each of `index` E-classes of 1-3 points."""
    index = rng.randint(2, 6)
    e_classes, f_classes, n = [], [], 0
    for _ in range(rng.randint(1, 2)):
        block = []
        for _ in range(index):
            m = rng.randint(1, 3)
            block.append(list(range(n, n + m)))
            n += m
        e_classes += block
        f_classes.append([x for c in block for x in c])
    e = tr.call("eqrel.build_partition", eqrel.build_partition, n, e_classes)
    f = tr.call("eqrel.build_partition", eqrel.build_partition, n, f_classes)
    tr.count("eqrel.points", 2 * n)
    return {"n": n, "index": index, "depth": depth, "window_points": n * depth}, (e, f, depth)


def _stratum(rng, lo: float, hi: float, j: int, count: int, jitter: float = 0.1) -> float:
    """A point near the centre of stratum j of `count` equal strata of [lo, hi]."""
    return lo + (hi - lo) * (j + 0.5 + jitter * (rng.random() - 0.5)) / count


def _links_specs(rng) -> list:
    specs = []
    for j in range(WIDE_ITEMS):
        shapes = _wide_shapes(rng, 6 + j % 4)
        specs.append(("wide", lambda tr, s=shapes, r=random.Random(rng.random()):
                      _block_pair(tr, r, s, combined=False)))
    for n in BULK_SIZES:
        shapes = _bulk_shapes(rng, n + rng.randint(-20, 20))
        specs.append(("bulk", lambda tr, s=shapes, r=random.Random(rng.random()):
                      _block_pair(tr, r, s, combined=True)))
    for _ in range(CHAIN_ITEMS):
        chain_seed = rng.randrange(2**31)
        specs.append(("chain", lambda tr, cs=chain_seed: _chain_input(cs)))
    for j in range(CHOICE_ITEMS):
        depth = round(_stratum(rng, 60, 400, j, CHOICE_ITEMS))
        specs.append(("choice", lambda tr, d=depth, r=random.Random(rng.random()):
                      _choice_pair(tr, r, d)))
    return specs


def _chain_input(chain_seed: int):
    ch = gen_chain(chain_seed)
    return {"n": ch.e.n, "index": len(ch.e.classes)}, (ch,)


def _run_pair(item: Item, rep, tr) -> None:
    e, f, wit, cls_gens = item.inputs
    f2, witnessed = tr.call("groups.extend_by_group", groups.extend_by_group, e, wit)
    rep.add_constraint("extend_by_group", len(f2.classes), len(f.classes), f2 == f and witnessed)
    link = tr.call("links.link_finite_index", links.link_finite_index, e, f, wit)
    ok, bad = tr.call("links.verify_link", links.verify_link, e, f, link.l)
    rep.add_constraint("verify_link", str(bad), "None", ok)
    action = tr.call("links.lift_from_link", links.lift_from_link,
                     links.OuterAction(e, cls_gens), link)
    orbits = tr.call("groups.orbit_eqrel", groups.orbit_eqrel, action)
    inside = tr.call("eqrel.FinEqrel.refines", orbits.refines, f)
    rep.add_constraint("orbit_eqrel<=F", len(orbits.classes), len(f.classes), inside)
    tr.count("links.fsr_candidates", item.sizes["fsr_candidates"])
    tr.count("links.link_classes", len(link.l.classes))
    rep.metrics = {"L": link.l.classes, "group_order": action.group.order}


def _run_chain(item: Item, rep, tr) -> None:
    (ch,) = item.inputs
    link = tr.call("links.hf_link", links.hf_link, ch.e, list(ch.chain), list(ch.witnesses))
    ok, bad = tr.call("links.verify_link", links.verify_link, ch.e, ch.chain[-1], link.l)
    rep.add_constraint("verify_link", str(bad), "None", ok)
    inside = tr.call("eqrel.FinEqrel.refines", link.l.refines, ch.chain[-1])
    rep.add_constraint("L<=F2", len(link.l.classes), len(ch.chain[-1].classes), inside)
    tr.count("links.link_classes", len(link.l.classes))
    rep.metrics = {"L": link.l.classes}


def _run_choice(item: Item, rep, tr) -> None:
    e, f, depth = item.inputs
    wl = tr.call("choice.choice_sequence_link", choice.choice_sequence_link, e, f, depth)
    inc = tr.call("choice.verify_windowed_link", choice.verify_windowed_link, wl)
    rep.add_constraint("all_ones", inc.verified_classes, len(wl.classes), inc.all_ones)
    rep.add_constraint("maps_injective", wl.flags["maps_injective"], True, wl.flags["maps_injective"])
    rep.add_constraint("complete_section", wl.flags["complete_section"], True, wl.flags["complete_section"])
    tr.count("choice.window_points", item.sizes["window_points"])
    tr.count("choice.emitted_points", len(wl.support))
    rep.metrics = {"classes": wl.classes, "truncated": inc.truncated_points}


# --- tiling -----------------------------------------------------------------


def _tile_input(kind: str, size: int, shape_len: int, eps: Fraction, offset: int):
    def build(tr):
        if kind == "Z":
            g = quasitile.ZdGroup(1)
            a = frozenset((x,) for x in range(offset, offset + size))
            b = g.segment(shape_len)
        elif kind == "Z2":
            g = quasitile.ZdGroup(2)
            side = round(size**0.5)
            a = frozenset((offset + x, y) for x in range(side) for y in range(side))
            b = g.box(shape_len) if shape_len <= 7 else g.segment(shape_len)
        else:
            g = quasitile.CyclicGroup(size)
            a = frozenset(range(size))
            b = frozenset(range(shape_len))
        return {"group": kind, "A": len(a), "B": len(b), "eps": str(eps)}, (g, a, b, eps)
    return build


def _covering_input(bl: int, al: int, eps: Fraction, delta: Fraction):
    def build(tr):
        g = quasitile.ZdGroup(1)
        a = frozenset((x,) for x in range(al))
        return {"A": al, "B": bl}, (g, a, g.segment(bl), eps, delta)
    return build


def _tiling_specs(rng) -> list:
    specs = []
    for g, kind in enumerate(("Z", "Z2", "ZN")):
        for j in range(TILES_PER_GROUP):
            # log-uniform strata over 5e3..5e4 window points.  eps alternates
            # by stratum, so each rank of the cost order holds the same kind
            # of item whatever the seed.
            size = round(5000 * 10 ** _stratum(rng, 0, 1, j, TILES_PER_GROUP))
            eps = TILING_EPS[(g + j) % 2]
            if kind == "ZN":  # the set path costs |A|·|B|: keep |B| near 30
                shape_len = rng.randint(28, 32)
            elif kind == "Z2":  # boxes: a long segment would cut the centers of a small square
                shape_len = rng.randint(3, 7)
            else:
                shape_len = rng.randint(10, 50)
            specs.append(("tile", _tile_input(kind, size, shape_len, eps, rng.randint(-1000, 0))))
    for j in range(COVERING_ITEMS):
        # criterion-8 style; |A| >= 40|B| makes the window (B, 1/10)-invariant
        bl = 2 + j % 7
        al = round(bl * _stratum(rng, 40, 200, j // 7, -(-COVERING_ITEMS // 7), jitter=1))
        specs.append(("covering", _covering_input(
            bl, al, Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10))))
    return specs


def _run_tile(item: Item, rep, tr) -> None:
    g, a, b, eps = item.inputs
    tr.count("quasitile.window_points", len(a))
    qt = tr.call("quasitile.quasi_tile", quasitile.quasi_tile, g, a, [b], eps)
    chk = tr.call("quasitile.check_tiling", quasitile.check_tiling, g, a, qt)
    for key, value, relation, ok in qt.ledger:
        rep.add_constraint(key, value, relation, ok)
    rep.add_constraint("recheck:eps-disjoint", chk.eps_disjoint, True, chk.eps_disjoint)
    rep.add_constraint("recheck:coverage", chk.coverage, 1 - eps, chk.coverage_ok)
    rep.add_constraint("recheck:budget-scaled", chk.budget_scaled_ok, True, chk.budget_scaled_ok)
    rep.add_constraint("recheck:same-coverage", chk.coverage, qt.coverage, chk.coverage == qt.coverage)
    tr.count("quasitile.centers", sum(len(c) for c in qt.centers))
    tr.count("quasitile.covered_points", int(chk.coverage * len(a)))
    rep.metrics = {"centers": qt.centers, "coverage": qt.coverage, "budget_raw_ok": chk.budget_raw_ok}


def _run_covering(item: Item, rep, tr) -> None:
    g, a, b, eps, delta = item.inputs
    tr.count("quasitile.window_points", len(a))
    fam = tr.call("quasitile.covering_family", quasitile.covering_family, g, a, b, eps, delta)
    floor = eps * (1 - delta) * len(a)
    rep.add_constraint("covering-bound", len(fam.covered), floor, len(fam.covered) >= floor)
    tr.count("quasitile.centers", len(fam.centers))
    tr.count("quasitile.covered_points", len(fam.covered))
    rep.metrics = {"centers": fam.centers, "witnesses": fam.witnesses}


# --- tower ------------------------------------------------------------------


def _tower_specs(rng) -> list:
    levels = len(TOWER_EPS)
    g3 = rng.randint(1, 64)  # stage-3 element whose map is materialized
    g = rng.choice((1, -1))  # eps-deep at stage 1 (side 32, eps 1/32)
    h = rng.randint(1, 14)  # h and g+h eps-deep at stage 2 (side 992, eps 1/64)
    c1, c2 = rng.randint(1, 8), rng.randint(1, 8)  # cocycle pair at stage 1

    def build(tr):
        return {"levels": levels}, (levels, g3, g, h, c1, c2)
    return [("tower", build)]


def _run_tower(item: Item, rep, tr) -> None:
    levels, g3, g, h, c1, c2 = item.inputs
    eps = list(TOWER_EPS[:levels])
    group = quasitile.ZdGroup(1)
    hier = tr.call("quasitile.build_hierarchy", quasitile.build_hierarchy, group, eps, levels)
    tw = tr.call("tower.build_tower", tower.build_tower, hier, levels)
    for n, st in enumerate(tw.stages):
        total = sum((t.measure for t in st.targets.values()), Fraction(0))
        rep.add_constraint(f"stage{n}:partition", total, 1, total == 1)
        tr.count("tower.slots", len(st.targets))
    tr.annotate(slots=sum(len(st.targets) for st in tw.stages))
    top = levels - 1
    side = tw.stages[top].side
    m3 = tr.call("tower.materialize_map", tower.materialize_map, tw, top, (g3,))
    tr.count("intervals.pieces", len(m3.pieces))
    dom = m3.domain().measure
    rep.add_constraint(f"stage{top}:map-domain", dom, Fraction(side - g3, side), dom == Fraction(side - g3, side))
    r0 = tr.call("tower.stage_report", tower.stage_report, tw, 0, (0,), (0,))
    rep.add_constraint("pair(0,1):identity", r0.agreement, 1, r0.agreement == 1 and r0.defect_domain == 1)
    r1 = tr.call("tower.stage_report", tower.stage_report, tw, 1, (g,), (h,))
    rep.add_constraint("pair(1,2):agreement", r1.agreement, r1.agreement_bound,
                       not r1.agreement_premise or r1.agreement >= r1.agreement_bound)
    rep.add_constraint("pair(1,2):defect", r1.defect_domain, r1.defect_bound,
                       not r1.defect_premise or r1.defect_domain >= r1.defect_bound)
    # cocycle identity phi_c1 . phi_c2 = phi_{c1+c2} on the stage-1 base
    base = tw.stages[1].base
    m1 = tr.call("tower.materialize_map", tower.materialize_map, tw, 1, (c1,))
    m2 = tr.call("tower.materialize_map", tower.materialize_map, tw, 1, (c2,))
    m12 = tr.call("tower.materialize_map", tower.materialize_map, tw, 1, (c1 + c2,))
    comp = tr.call("intervals.IntervalMap.compose", m1.compose, m2)
    comp = tr.call("intervals.IntervalMap.restrict", comp.restrict, base)
    direct = tr.call("intervals.IntervalMap.restrict", m12.restrict, base)
    agree = tr.call("intervals.IntervalMap.agreement_with", comp.agreement_with, direct)
    tr.count("intervals.pieces", len(m1.pieces) + len(m2.pieces) + len(m12.pieces)
             + len(comp.pieces) + len(direct.pieces))
    rep.add_constraint("stage1:cocycle", agree.measure, base.measure, agree.measure == base.measure)
    rep.metrics = {
        "stages": [{"side": st.side, "eps": st.eps, "base": st.base.intervals,
                    "targets": {str(k): v.intervals for k, v in sorted(st.targets.items())}}
                   for st in tw.stages],
        "map": m3.pieces,
        "reports": [[r.agreement, r.defect_domain, r.notes] for r in (r0, r1)],
    }


RUN = {
    "wide": _run_pair,
    "bulk": _run_pair,
    "chain": _run_chain,
    "choice": _run_choice,
    "tile": _run_tile,
    "covering": _run_covering,
    "tower": _run_tower,
}
