"""Batch command-line front end: instance generation, scenario execution,
JSON reporting, and the acceptance-suite driver.

Exit codes: 0 all checks pass, 1 a property assertion fails, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction

from .choice import choice_sequence_link, verify_windowed_link
from .eqrel import EqrelError, build_partition
from .groups import orbit_eqrel
from .instances import Instance, gen_chain, gen_instance
from .links import (
    OuterAction,
    class_perm_of,
    equidecompose,
    extend_link,
    hf_link,
    lift_from_link,
    link_finite_index,
    verify_link,
)
from .quasitile import TileError, ZdGroup, build_hierarchy, check_tiling, quasi_tile
from .report import Report
from .suite import run_suite
from .tower import build_tower, stage_report, summability_report


def _read_instance(args) -> tuple[Instance, dict]:
    if args.instance:
        if args.instance == "-":
            text = sys.stdin.read()
        else:
            with open(args.instance) as fh:
                text = fh.read()
        raw = json.loads(text)
        return Instance.from_json(text), raw
    # a generated instance has no L, A or B field
    return gen_instance(args.seed), {}


def _output(text: str, args) -> None:
    """Write text and a newline to --out, or to stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        print(text, file=fh)


def _emit(report: Report, args) -> int:
    """Write the report with its outcome read off the ledger: "pass", and
    exit 0, iff every verdict holds."""
    ok = all(v for *_, v in report.ledger)
    report.outcome = "pass" if ok else "fail"
    _output(report.to_json(), args)
    return 0 if ok else 1


def _fracs(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",") if part.strip()]


def cmd_gen(args) -> int:
    _output(gen_instance(args.seed, args.size, args.index).to_json(), args)
    return 0


def cmd_verify_link(args) -> int:
    inst, raw = _read_instance(args)
    if "L" not in raw:
        raise EqrelError("verify-link needs an 'L' field in the instance")
    l = build_partition(inst.e.n, raw["L"])
    ok, bad = verify_link(inst.e, inst.f, l)
    rep = Report({"task": "verify-link"}, seed=args.seed)
    rep.add_constraint("link-incidence: |E-class ∩ L-class| = 1 within F-classes",
                       str(bad) if bad else "all-ones", "1", ok)
    return _emit(rep, args)


def cmd_link(args) -> int:
    inst, _ = _read_instance(args)
    link = link_finite_index(inst.e, inst.f, inst.witness)
    ok, _bad = verify_link(inst.e, inst.f, link.l)
    rep = Report({"task": "link"}, seed=args.seed)
    rep.metrics["L"] = [list(c) for c in link.l.classes]
    rep.add_constraint("link-incidence", "constructed", "all-ones", ok)
    return _emit(rep, args)


def cmd_extend_link(args) -> int:
    ch = gen_chain(args.seed)
    base = link_finite_index(ch.e, ch.chain[0], ch.witnesses[0])
    ext = extend_link(ch.e, ch.chain[0], ch.chain[1], base, ch.witnesses[1])
    contained = base.l.refines(ext.l)
    rep = Report({"task": "extend-link"}, seed=args.seed)
    rep.metrics["L0"] = [list(c) for c in base.l.classes]
    rep.metrics["L1"] = [list(c) for c in ext.l.classes]
    rep.add_constraint("extension-containment: L ⊆ L'", "input link", "extended link", contained)
    return _emit(rep, args)


def cmd_hf_link(args) -> int:
    ch = gen_chain(args.seed)
    link = hf_link(ch.e, list(ch.chain), list(ch.witnesses))
    ok, _ = verify_link(ch.e, ch.chain[-1], link.l)
    rep = Report({"task": "hf-link"}, seed=args.seed)
    rep.metrics["L"] = [list(c) for c in link.l.classes]
    rep.add_constraint("link-incidence along the chain", "constructed", "all-ones", ok)
    return _emit(rep, args)


def cmd_lift(args) -> int:
    inst, _ = _read_instance(args)
    link = link_finite_index(inst.e, inst.f, inst.witness)
    cls_gens = tuple(class_perm_of(inst.e, g) for g in inst.witness)
    action = lift_from_link(OuterAction(inst.e, cls_gens), link)
    orbits = orbit_eqrel(action)
    inside = orbits.refines(inst.f)
    rep = Report({"task": "lift"}, seed=args.seed)
    rep.metrics["group_order"] = action.group.order
    rep.metrics["action"] = action.act
    rep.add_constraint("lift: orbit classes inside F-classes", len(orbits.classes),
                       len(inst.f.classes), inside)
    return _emit(rep, args)


def cmd_equidecompose(args) -> int:
    inst, raw = _read_instance(args)
    if not (isinstance(raw.get("A"), list) and isinstance(raw.get("B"), list)):
        raise EqrelError("equidecompose needs 'A' and 'B' lists of points")
    wit = equidecompose(inst.e, raw["A"], raw["B"])
    found = wit is not None
    counts_a = Counter(inst.e.class_index(x) for x in set(raw["A"]))
    counts_b = Counter(inst.e.class_index(x) for x in set(raw["B"]))
    equal = counts_a == counts_b
    rep = Report({"task": "equidecompose"}, seed=args.seed)
    rep.metrics["witness"] = [list(p) for p in wit.mapping] if wit else None
    rep.add_constraint("equidecomposable iff equal per-class counts",
                       found, equal, found == equal)
    return _emit(rep, args)


def cmd_choice_link(args) -> int:
    inst, _ = _read_instance(args)
    wl = choice_sequence_link(inst.e, inst.f, args.depth)
    rep_w = verify_windowed_link(wl)
    rep = Report({"task": "choice-link", "depth": args.depth}, seed=args.seed)
    rep.metrics["verified_classes"] = rep_w.verified_classes
    rep.metrics["truncated_points"] = rep_w.truncated_points
    rep.metrics["verdict"] = rep_w.verdict()
    rep.add_constraint("windowed all-ones incidence on emitted classes",
                       rep_w.verdict(), "all-ones", rep_w.all_ones)
    return _emit(rep, args)


def _make_group(name: str) -> ZdGroup:
    if name == "z":
        return ZdGroup(1)
    if name == "z2":
        return ZdGroup(2)
    raise TileError(f"unknown group {name!r} (use z or z2)")


def _nearest_root(n: int) -> int:
    """round(sqrt(n)) on ints: sqrt(n) > r + 1/2 iff n > r^2 + r, and
    sqrt(n) is never exactly r + 1/2."""
    r = math.isqrt(n)
    return r + (n > r * r + r)


def cmd_tile(args) -> int:
    group = _make_group(args.group)
    eps = Fraction(args.eps)
    if args.size < 0:
        raise TileError(f"window size must be nonnegative, got {args.size}")
    if args.group == "z":
        a = frozenset((x,) for x in range(args.size))
    else:
        side = _nearest_root(args.size)
        a = frozenset(itertools.product(range(side), repeat=2))
    chain = [group.segment(int(x)) for x in args.chain.split(",")]
    qt = quasi_tile(group, a, chain, eps)
    chk = check_tiling(group, a, qt)
    rep = Report({"task": "tile", "group": args.group, "eps": str(eps)}, seed=args.seed)
    rep.metrics["coverage"] = qt.coverage
    rep.metrics["centers"] = [len(c) for c in qt.centers]
    for key, value, relation, verdict in qt.ledger:
        rep.add_constraint(f"{key} [{relation}]", value, relation, verdict)
    rep.add_constraint("eps-disjointness (recheck): centers leaving A or adding"
                       " < (1-eps)|B| new points = 0", chk.bad_centers, 0, chk.eps_disjoint)
    rep.add_constraint("coverage >= 1-eps (recheck)", chk.coverage, 1 - eps, chk.coverage_ok)
    rep.add_constraint("normalized budget |B||C| <= p|A| (recheck)", *chk.budget,
                       chk.budget_scaled_ok)
    return _emit(rep, args)


def cmd_hierarchy(args) -> int:
    eps = _fracs(args.eps)
    hier = build_hierarchy(_make_group(args.group), eps, args.levels)
    rep = Report({"task": "hierarchy", "levels": args.levels}, seed=args.seed)
    rep.metrics["sides"] = [lv.side for lv in hier.levels]
    rep.metrics["eps"] = [lv.eps for lv in hier.levels]
    rep.ledger.extend(hier.ledger)
    return _emit(rep, args)


def cmd_lift_sim(args) -> int:
    eps = _fracs(args.eps)
    summ = summability_report(eps)
    hier = build_hierarchy(_make_group(args.group), eps, args.stages)
    tower = build_tower(hier, args.stages)
    rep = Report({"task": "lift-sim", "stages": args.stages}, seed=args.seed)
    rep.add_constraint("summability: eps halves stage to stage",
                       summ["prefix_sum"], summ["tail_bound"], summ["halving"])
    stages_out = []
    for st in tower.stages:
        total = st.covered
        rep.add_constraint(f"stage side {st.side}: sum |A| mu(X_A) = 1", total, 1, total == 1)
        stages_out.append({"side": st.side, "eps": st.eps, "slots": st.slots})
    gen = tuple([1] + [0] * (tower.group.d - 1))
    for n in range(len(tower.stages) - 1):
        g = gen if n > 0 else tuple([0] * tower.group.d)
        r = stage_report(tower, n, g, g)
        rep.add_constraint(
            f"pair ({n},{n + 1}) agreement >= (1-eps)(1-3eps)"
            + ("" if r.agreement_premise else " [premise fails; not claimed]"),
            r.agreement, r.agreement_bound,
            (not r.agreement_premise) or r.agreement >= r.agreement_bound,
        )
        rep.add_constraint(
            f"stage {n + 1} action defect >= 1-2eps"
            + ("" if r.defect_premise else " [premise fails; not claimed]"),
            r.defect_domain, r.defect_bound,
            (not r.defect_premise) or r.defect_domain >= r.defect_bound,
        )
    rep.metrics["stages"] = stages_out
    return _emit(rep, args)


def cmd_suite(args) -> int:
    results = run_suite()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number:2d} [{r.name}]: {status} ({r.seconds:.1f}s) — {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cberlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        if instance:
            p.add_argument("--instance", help="instance JSON file, or - for stdin")

    p = sub.add_parser("gen", help="generate a seeded instance")
    common(p, instance=False)
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--index", type=int, default=4)
    p.set_defaults(fn=cmd_gen)

    for name, fn in (
        ("verify-link", cmd_verify_link),
        ("link", cmd_link),
        ("lift", cmd_lift),
        ("equidecompose", cmd_equidecompose),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    for name, fn in (("extend-link", cmd_extend_link), ("hf-link", cmd_hf_link)):
        p = sub.add_parser(name)
        common(p, instance=False)
        p.set_defaults(fn=fn)

    p = sub.add_parser("choice-link")
    common(p)
    p.add_argument("--depth", type=int, default=400)
    p.set_defaults(fn=cmd_choice_link)

    p = sub.add_parser("tile")
    common(p, instance=False)
    p.add_argument("--group", default="z")
    p.add_argument("--eps", default="2/5")
    p.add_argument("--size", type=int, default=100000)
    p.add_argument("--chain", default="50",
                   help="comma list of segment lengths; every eps that can pass needs exactly one")
    p.set_defaults(fn=cmd_tile)

    p = sub.add_parser("hierarchy")
    common(p, instance=False)
    p.add_argument("--group", default="z")
    p.add_argument("--eps", default="1/16,1/32,1/64,1/128")
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(fn=cmd_hierarchy)

    p = sub.add_parser("lift-sim")
    common(p, instance=False)
    p.add_argument("--group", default="z")
    p.add_argument("--eps", default="1/16,1/32,1/64,1/128")
    p.add_argument("--stages", type=int, default=3)
    p.set_defaults(fn=cmd_lift_sim)

    p = sub.add_parser("suite", help="run all acceptance criteria")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ValueError covers json.JSONDecodeError and every input error of the
    # package: EqrelError, GroupError, LinkError, TileError, IntervalError.
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
