"""The acceptance suite: eleven property checks with exact arithmetic.

Each criterion returns a CriterionResult; the CLI `suite` subcommand and the
acceptance tests both run these functions, so the command line and the test
suite cannot drift apart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .choice import choice_sequence_link, verify_windowed_link
from .eqrel import FinEqrel, build_partition, delta, full
from .groups import GroupAction
from .instances import (
    build_block_instance,
    enumerate_links,
    exhaustive_shapes,
    gen_chain,
    gen_instance,
    link_count,
)
from .links import (
    OuterAction,
    amplify_relation,
    cancel_equidecomposition,
    class_perm_of,
    hf_link,
    lift_from_link,
    lift_through_finite_normal,
    link_finite_index,
    verify_link,
)
from .quasitile import (
    ZdGroup,
    build_hierarchy,
    check_tiling,
    covering_family,
    quasi_tile,
    tiling_constants,
)
from .tower import build_tower, materialize_map, stage_report, summability_report


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(number: int, name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # honest failure, not a crash
        return CriterionResult(number, name, False, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


def criterion_1() -> CriterionResult:
    def run():
        for seed in range(1000):
            inst = gen_instance(seed, max_size=12, max_index=4)
            link = link_finite_index(inst.e, inst.f, inst.witness)
            ok, bad = verify_link(inst.e, inst.f, link.l)
            if not ok:
                return False, f"seed {seed}: incidence fails at {bad}"
        return True, "1000/1000 constructed links verify"

    return _timed(1, "link construction soundness", run)


def criterion_2() -> CriterionResult:
    def run():
        shapes = exhaustive_shapes(8)
        for sh in shapes:
            inst = build_block_instance(sh)
            links = enumerate_links(inst.e, inst.f)
            if not links:
                return False, f"shape {sh}: witness exists but no link enumerated"
            built = link_finite_index(inst.e, inst.f, inst.witness)
            if built.l not in links:
                return False, f"shape {sh}: constructed link not in enumerated set"
        return True, f"{len(shapes)} instances up to symmetry, all agree with the oracle"

    return _timed(2, "link construction vs oracle", run)


def criterion_3() -> CriterionResult:
    def run():
        for seed in range(500):
            ch = gen_chain(seed)
            link = hf_link(ch.e, list(ch.chain), list(ch.witnesses))
            ok, bad = verify_link(ch.e, ch.chain[-1], link.l)
            if not ok:
                return False, f"seed {seed}: final link invalid at {bad}"
        return True, "500/500 chain extensions contain their input and verify"

    return _timed(3, "link extension along chains", run)


def _check_action(action: GroupAction, e: FinEqrel) -> bool:
    g = action.group
    for i in range(g.order):
        for j in range(g.order):
            k = g.op(i, j)
            for x in range(action.space_size):
                if action.act[i][action.act[j][x]] != action.act[k][x]:
                    return False
    for i in range(g.order):
        p = action.act[i]
        for x in range(action.space_size):
            if e.related(p[x], x) and p[x] != x:
                return False
    return True


def criterion_4() -> CriterionResult:
    def run():
        for seed in range(500):
            inst = gen_instance(seed, max_size=10, max_index=3)
            link = link_finite_index(inst.e, inst.f, inst.witness)
            cls_gens = tuple(class_perm_of(inst.e, g) for g in inst.witness)
            action = lift_from_link(OuterAction(inst.e, cls_gens), link)
            if not _check_action(action, inst.e):
                return False, f"seed {seed}: lift breaks axioms or class-bijectivity"
        # N = <x -> x xor 1> swaps the classes 2i and 2i+1 pointwise in every
        # copy and is normal in G = <N, rotation of the classes by 2>;
        # lift_through_finite_normal asserts that its lift extends N's action.
        cases = [(n, m) for n in (4, 8) for m in (1, 2, 3)]
        for n, m in cases:
            e = amplify_relation(delta(n), m)
            rot = tuple((i + 2) % n for i in range(n))
            action = lift_through_finite_normal(e, [[x ^ 1 for x in range(n * m)]], [rot])
            if not _check_action(action, e):
                return False, f"n={n}, m={m}: normal lift breaks axioms or class-bijectivity"
        return True, (
            f"500/500 lifts from links and {len(cases)}/{len(cases)} lifts through a "
            "finite normal subgroup satisfy the action axioms and class-bijectivity"
        )

    return _timed(4, "lift axioms from links", run)


def criterion_5() -> CriterionResult:
    def run():
        for seed in range(1000):
            rng = random.Random(seed)
            n = rng.randint(4, 10)
            pts = list(range(n))
            rng.shuffle(pts)
            cut = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
            classes = [
                pts[a:b] for a, b in zip([0] + cut, cut + [n])
            ]
            e = build_partition(n, classes)
            copies = rng.randint(1, 4)
            a = [x for x in range(n) if rng.random() < 0.5]
            b: list[int] = []
            for c in e.classes:
                take = sum(1 for x in a if x in c)
                b.extend(rng.sample(list(c), take))
            wit = cancel_equidecomposition(e, a, b, copies)
            if wit is None:
                return False, f"seed {seed}: cancellation missed a matching pair"
            # Negative control: moving one point of B across classes must kill
            # both n·A ~ n·B and the cancellation result.
            swaps = [
                (x, y)
                for x in b
                for y in range(n)
                if y not in b and not e.related(x, y)
            ]
            if swaps:
                x, y = swaps[0]
                bad = [z for z in b if z != x] + [y]
                if cancel_equidecomposition(e, a, bad, copies) is not None:
                    return False, f"seed {seed}: false positive witness"
        return True, "1000/1000 cancellations produce verified witnesses"

    return _timed(5, "cardinal-algebra cancellation", run)


def criterion_6() -> CriterionResult:
    def run():
        k, p, eta = tiling_constants(Fraction(1, 4))
        if (k, p) != (3, [Fraction(1, 4), Fraction(3, 16), Fraction(9, 64)]):
            return False, f"eps=1/4 constants off: k={k}, p={p}"
        if eta != [Fraction(1, 108), Fraction(1, 36)]:
            return False, f"eps=1/4 eta off: {eta}"
        k5, p5, _ = tiling_constants(Fraction(1, 5))
        if k5 != 5 or p5[0] != Fraction(1, 5) or p5[1] != Fraction(4, 25):
            return False, f"eps=1/5 constants off: k={k5}"
        k8, p8, eta8 = tiling_constants(Fraction(1, 8))
        if k8 != 11 or p8[2] != Fraction(1, 8) * Fraction(49, 64):
            return False, f"eps=1/8 constants off: k={k8}"
        if eta8[0] != Fraction(3, 4) / (2 * 3**11):
            return False, f"eps=1/8 eta off: {eta8[0]}"
        return True, "k, p_i, eta_i match hand-derived rationals for eps in {1/4, 1/5, 1/8}"

    return _timed(6, "quasi-tiling constants", run)


def criterion_7() -> CriterionResult:
    def run():
        eps = Fraction(2, 5)
        g1 = ZdGroup(1)
        a1 = frozenset((x,) for x in range(100000))
        qt1 = quasi_tile(g1, a1, [g1.segment(50)], eps)
        c1 = check_tiling(g1, a1, qt1)
        g2 = ZdGroup(2)
        a2 = frozenset((x, y) for x in range(316) for y in range(316))
        qt2 = quasi_tile(g2, a2, [g2.segment(50)], eps)
        c2 = check_tiling(g2, a2, qt2)
        for name, c in (("Z", c1), ("Z^2", c2)):
            if not (c.eps_disjoint and c.coverage_ok and c.budget_scaled_ok):
                return False, f"{name}: disjoint={c.eps_disjoint} cover={c.coverage_ok} budget={c.budget_scaled_ok}"
        return True, (
            f"Z coverage {qt1.coverage}, Z^2 coverage {qt2.coverage}; eps-disjointness, "
            "(1-eps)-coverage, and normalized budgets all hold exactly"
        )

    return _timed(7, "quasi-tiling bounds", run)


def criterion_8() -> CriterionResult:
    def run():
        g = ZdGroup(1)
        # Every drawn window is (B, delta)-invariant: |A \ T| = |B| - 1 < 4|B|
        # <= delta|A|, since |A| >= 40|B| and delta >= 1/10.  covering_family
        # checks the invariance itself and raises TileError if it fails, and
        # raises CheckFailed unless the family covers eps(1-delta)|A| points.
        for seed in range(200):
            rng = random.Random(seed)
            bl = rng.randint(2, 8)
            al = rng.randint(40 * bl, 200 * bl)
            eps = Fraction(rng.randint(1, 9), 10)
            delta = Fraction(rng.randint(1, 9), 10)
            a = frozenset((x,) for x in range(al))
            b = g.segment(bl)
            covering_family(g, a, b, eps, delta)
        return True, "200/200 greedy families meet the covering bound"

    return _timed(8, "covering lemma", run)


def criterion_9() -> CriterionResult:
    def run():
        eps = [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64), Fraction(1, 128)]
        summ = summability_report(eps)
        if not summ["halving"]:
            return False, "eps sequence not summable"
        hier = build_hierarchy(ZdGroup(1), eps, 4)
        tower = build_tower(hier, 4)  # partition + disjointness asserted exactly
        details = []
        for st in tower.stages:
            if st.covered != 1:
                return False, f"partition identity fails at side {st.side}"
        for n, ident in ((1, (0,)), (2, (0,))):
            m = materialize_map(tower, n, ident)
            if any(o != 0 for _, _, o in m.pieces):
                return False, f"phi_identity not the identity at stage {n}"
        # Cocycle identity on the stage base, exactly (condition on g,h,gh in A).
        st1 = tower.stages[1]
        mg = materialize_map(tower, 1, (1,))
        comp = mg.compose(mg).restrict(st1.base)
        direct = materialize_map(tower, 1, (2,)).restrict(st1.base)
        if comp.agreement_with(direct).measure != st1.base.measure:
            return False, "cocycle identity fails on the stage-1 base"
        r0 = stage_report(tower, 0, (0,), (0,))
        if r0.agreement != 1 or r0.defect_domain != 1:
            return False, "identity stage report not exact"
        for n in (1, 2):
            r = stage_report(tower, n, (1,), (1,))
            if not (r.agreement_premise and r.defect_premise):
                return False, f"stage pair ({n},{n+1}): deepness premise unexpectedly fails"
            details.append(
                f"pair ({n},{n+1}): agreement {r.agreement} >= {r.agreement_bound}, "
                f"defect {r.defect_domain} >= {r.defect_bound}"
            )
        return True, "; ".join(details)

    return _timed(9, "tower bounds", run)


def criterion_10() -> CriterionResult:
    def run():
        wl = choice_sequence_link(delta(6), full(6), 600)
        rep = verify_windowed_link(wl)
        if not rep.all_ones:
            return False, "incidence violated on an emitted class"
        if rep.verified_classes == 0:
            return False, "no class fully enumerated at depth 600"
        return True, (
            f"{rep.verified_classes} fully-enumerated classes, all-ones incidence exact; "
            f"{rep.truncated_points} window points truncated ({rep.verdict()})"
        )

    return _timed(10, "windowed choice-sequence link", run)


def criterion_11() -> CriterionResult:
    def run():
        e = build_partition(6, [[0, 1], [2, 3], [4, 5]])
        f = full(6)
        enumerated, counted = len(enumerate_links(e, f)), link_count(e, f)
        if enumerated != counted:
            return False, f"enumerated {enumerated} links, closed form counts {counted}"
        if counted != 4:
            return False, f"expected 4 unordered links, counted {counted}"
        return True, "6-point three-pair instance has exactly 4 unordered links"

    return _timed(11, "exhaustive micro-oracle", run)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_suite() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
